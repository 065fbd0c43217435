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
    ) -> None:
        self.config = config or SystemConfig()
        self.scheme = scheme or BBBScheme()
        self.bus = bus
        self.fault_injector = fault_injector
        self.crash_schedule = crash_schedule
        self.stats = SimStats(num_cores=self.config.num_cores)
        self.hierarchy = MemoryHierarchy(self.config, self.scheme, self.stats,
                                         bus=bus, fault_injector=fault_injector,
                                         crash_schedule=crash_schedule)
        self.engine = Engine(self.hierarchy, reorder_seed=reorder_seed)

    def run(self, trace: ProgramTrace, finalize: bool = True) -> RunResult:
        """Execute ``trace`` to completion, or until the system's crash
        schedule fires.  A ``System`` is single-shot: build a fresh one per
        run.

        This is one :meth:`stream` fed every thread's ops and finished
        (:meth:`repro.sim.engine.Engine.run`).  For a closed-form estimate
        with no discrete simulation, see
        :func:`repro.analysis.analytical.analytical_estimate`."""
        return self.engine.run(trace, finalize=finalize)

    def stream(self) -> EngineStream:
        """Open a streaming ingestion session (see
        :class:`~repro.sim.engine.EngineStream`): feed ops incrementally
        instead of materializing a trace.  A ``System`` is single-shot —
        use either :meth:`run` or one stream, never both."""
        return self.engine.stream()

    @property
    def nvmm_media(self):
        return self.hierarchy.nvmm.media

