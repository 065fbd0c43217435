"""The public construction API: schemes by name, one entry point.

::

    from repro.api import Scheme, build_system

    system = build_system(Scheme.BBB, entries=32)
    system = build_system(Scheme.PMEM, config=my_config)

Scheme names are stable strings (the same ones the CLI accepts);
:class:`Scheme` enumerates the builtin comparison space, and both it and
:data:`SCHEMES` are derived from the scheme registry
(:mod:`repro.core.registry`), where every scheme — including plugins
registered from outside this package — is described by a
:class:`~repro.core.registry.SchemeInfo` capability descriptor.

Run-level wiring — observability bus, relaxed-release seed, fault
injection, crash scheduling — travels in one typed :class:`RunOptions`
value::

    from repro.api import RunOptions, build_system

    system = build_system("bbb", options=RunOptions(bus=bus, reorder_seed=7))

Scheme-specific keyword arguments accepted via ``**kw`` are declared by
each scheme's registry entry (``SchemeInfo.accepted_kwargs``):

=====================  ==========================  ==========================
keyword                schemes                     meaning
=====================  ==========================  ==========================
``drain_threshold``    memory-side BBB             bbPB drain threshold
                                                   (fraction of entries)
``coalesce_consecutive``  processor-side BBB       allow coalescing of
                                                   consecutive same-block
                                                   records
=====================  ==========================  ==========================

``entries`` sizes the persist buffer for the schemes whose registry entry
sets ``has_persist_buffer`` and is ignored by the bufferless schemes.
The run-level values travel only in ``options=``: a bare ``bus=`` is an
unexpected keyword argument (``TypeError``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.check.schedule import NULL_SCHEDULE, CrashSchedule
from repro.core.registry import iter_schemes, scheme_info
from repro.fault.injector import NULL_INJECTOR, FaultInjector
from repro.obs.bus import NULL_BUS, EventBus
from repro.sim.config import SystemConfig
from repro.sim.system import System

#: The builtin persistency schemes of the paper's comparison space
#: (Fig. 7), as an enum derived from the scheme registry.  Members are
#: named after the canonical scheme name (``bbb-proc`` -> ``BBB_PROC``).
Scheme = enum.Enum(
    "Scheme",
    [(info.name.upper().replace("-", "_"), info.name)
     for info in iter_schemes() if info.builtin],
    type=str,
    module=__name__,
    qualname="Scheme",
)
Scheme.__doc__ = (
    "The persistency schemes of the paper's comparison space (Fig. 7), "
    "derived from the scheme registry."
)
Scheme.__str__ = lambda self: self.value  # argparse-friendly


#: Stable tuple of builtin scheme names, in the canonical comparison
#: order.  A static snapshot (taken at import) on purpose: experiment
#: drivers, smoke suites, and golden fingerprints iterate it, and plugin
#: schemes registered later must not change their spaces.  Use
#: :func:`repro.core.registry.scheme_names` for the live set.
SCHEMES = tuple(s.value for s in Scheme)


@dataclass(frozen=True)
class RunOptions:
    """Run-level wiring of a :class:`~repro.sim.system.System`, as one
    typed value instead of loose keyword arguments.

    Every field defaults to "off", so ``RunOptions()`` is the plain
    un-instrumented run.  The value is frozen — derive variants with
    ``dataclasses.replace``::

        base = RunOptions(bus=bus)
        checked = dataclasses.replace(base, crash_schedule=schedule)
    """

    #: Event bus receiving the run's typed obs events (default: the
    #: zero-cost disabled :data:`~repro.obs.bus.NULL_BUS`).
    bus: EventBus = NULL_BUS
    #: RNG seed for relaxed-consistency store-buffer release order.
    reorder_seed: int = 0
    #: Fault plan applied to the run (default: no faults).
    fault_injector: FaultInjector = NULL_INJECTOR
    #: Micro-step crash schedule (model checker; default: never fires).
    crash_schedule: CrashSchedule = NULL_SCHEDULE


#: The default (un-instrumented) run wiring.
DEFAULT_RUN_OPTIONS = RunOptions()


def build_system(
    scheme: Union[str, "Scheme"],
    *,
    entries: int = 32,
    config: Optional[SystemConfig] = None,
    options: Optional[RunOptions] = None,
    **kw,
) -> System:
    """Build a runnable :class:`~repro.sim.system.System` for ``scheme``.

    ``scheme`` is a :class:`Scheme`, any registered scheme name, or an
    alias.  ``entries`` sizes the scheme's persist buffer where it has
    one.  ``options`` carries the run-level wiring (:class:`RunOptions`);
    the remaining ``**kw`` are scheme-specific (see the module
    docstring).
    """
    name = scheme.value if isinstance(scheme, Scheme) else str(scheme)
    info = scheme_info(name)  # raises ValueError on unknown schemes
    opts = options if options is not None else DEFAULT_RUN_OPTIONS

    scheme_obj = info.build_scheme(entries=entries, **kw)
    return System(config, scheme_obj, reorder_seed=opts.reorder_seed,
                  bus=opts.bus, fault_injector=opts.fault_injector,
                  crash_schedule=opts.crash_schedule)
