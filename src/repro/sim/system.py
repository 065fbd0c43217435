"""System assembly: configuration + persistency scheme -> runnable simulator.

:class:`System` is the main user-facing entry point of the library::

    from repro import System, SystemConfig, BBBScheme

    system = System(SystemConfig(num_cores=8), BBBScheme())
    result = system.run(trace)
    print(result.stats.nvmm_writes, result.execution_cycles)

Systems for the paper's comparison space are built by name through
:func:`repro.api.build_system`.
"""

from __future__ import annotations

from typing import Optional

from repro.check.schedule import NULL_SCHEDULE
from repro.core.persistency import BBBScheme, PersistencyScheme
from repro.fault.injector import NULL_INJECTOR
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.bus import NULL_BUS, EventBus
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine, EngineStream, RunResult
from repro.sim.stats import SimStats
from repro.sim.trace import ProgramTrace

#: Modes accepted by :class:`System`: ``"sim"`` runs the discrete
#: engine; ``"analytical"`` fills the stats from the closed-form estimate
#: with no discrete simulation (:mod:`repro.analysis.analytical`).
SYSTEM_MODES = ("sim", "analytical")


class System:
    """A complete simulated machine: hierarchy + scheme + engine."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        scheme: Optional[PersistencyScheme] = None,
        reorder_seed: int = 0,
        bus: EventBus = NULL_BUS,
        fault_injector=NULL_INJECTOR,
        crash_schedule=NULL_SCHEDULE,
        mode: str = "sim",
    ) -> None:
        if mode not in SYSTEM_MODES:
            raise ValueError(
                f"unknown system mode {mode!r}; expected one of "
                f"{', '.join(SYSTEM_MODES)}"
            )
        if mode == "analytical" and (crash_schedule.enabled
                                     or fault_injector.enabled):
            raise ValueError(
                "analytical mode cannot crash or inject faults (an estimate "
                "has no architectural crash point); use mode='sim'"
            )
        self.config = config or SystemConfig()
        self.scheme = scheme or BBBScheme()
        self.mode = mode
        self.bus = bus
        self.fault_injector = fault_injector
        self.crash_schedule = crash_schedule
        if fault_injector.enabled and fault_injector.bus is NULL_BUS:
            # Faults emit typed obs events; route them onto the system's
            # bus unless the injector was wired to its own.
            fault_injector.bus = bus
        self.stats = SimStats(num_cores=self.config.num_cores)
        self.hierarchy = MemoryHierarchy(self.config, self.scheme, self.stats,
                                         bus=bus, fault_injector=fault_injector,
                                         crash_schedule=crash_schedule)
        self.engine = Engine(self.hierarchy, reorder_seed=reorder_seed)

    def run(self, trace: ProgramTrace, finalize: bool = True) -> RunResult:
        """Execute ``trace`` to completion, or until the system's crash
        schedule fires.  A ``System`` is single-shot: build a fresh one per
        run.

        In ``mode="sim"`` this is one :meth:`stream` fed every thread's
        ops and finished (:meth:`repro.sim.engine.Engine.run`).  In
        ``mode="analytical"`` no discrete simulation happens: the stats
        are filled from the closed-form model."""
        if self.mode == "analytical":
            from repro.analysis.analytical import run_analytical

            return run_analytical(self, trace, finalize=finalize)
        return self.engine.run(trace, finalize=finalize)

    def stream(self) -> EngineStream:
        """Open a streaming ingestion session (see
        :class:`~repro.sim.engine.EngineStream`): feed ops incrementally
        instead of materializing a trace.  A ``System`` is single-shot —
        use either :meth:`run` or one stream, never both.  Analytical mode
        has no op-level execution, so it cannot stream."""
        if self.mode == "analytical":
            raise ValueError(
                "analytical mode has no streaming ingestion path; use "
                "mode='sim'"
            )
        return self.engine.stream()

    @property
    def nvmm_media(self):
        return self.hierarchy.nvmm.media

