"""Crash-consistency model checking (``repro check``).

Layers:

* :mod:`repro.check.schedule` — crash-schedule hooks the simulator calls
  at every micro-step (dependency-free; imported by the hot modules).
* :mod:`repro.check.explore` — the single-pass kernel: one run hands an
  observer the durable image of every micro-step crash point.
* :mod:`repro.check.checker` — exhaustive crash-state exploration with
  durable-image fingerprint pruning and differential oracles.
* :mod:`repro.check.minimize` — ddmin counterexample minimization and the
  replayable ``repro.crashcheck/v1`` artifact.
* :mod:`repro.check.mutants` — deliberately broken scheme variants the
  checker must catch (its own end-to-end validation), and the one system
  builder every crash harness uses.

Only the schedule vocabulary is re-exported eagerly: the simulator core
imports this package's submodule at startup, so anything heavier here
would create an import cycle.  Import the checker layers explicitly
(``from repro.check.checker import ...``).
"""

from repro.check.schedule import (  # noqa: F401
    ALL_SITES,
    CrashNow,
    CrashSchedule,
    FiredPoint,
    NULL_SCHEDULE,
    SITE_DRAIN,
    SITE_FORCED_DRAIN,
    SITE_OP,
    SITE_POV,
    SITE_WPQ,
)

__all__ = [
    "ALL_SITES",
    "CrashNow",
    "CrashSchedule",
    "FiredPoint",
    "NULL_SCHEDULE",
    "SITE_DRAIN",
    "SITE_FORCED_DRAIN",
    "SITE_OP",
    "SITE_POV",
    "SITE_WPQ",
]
