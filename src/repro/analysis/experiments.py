"""One driver per paper table/figure (the experiment index of DESIGN.md).

Each ``fig*``/``table*`` function computes the data behind one exhibit of
the paper's evaluation; the benchmark files under ``benchmarks/`` call
these and print the rendered tables, and ``EXPERIMENTS.md`` records the
paper-vs-measured comparison.

The sweep drivers — :func:`fig7`, :func:`fig8`,
:func:`processor_side_write_ratio`, :func:`table10` — share one calling
convention: every one accepts ``jobs=`` (batch-runner worker count) and
``progress=`` (a ``progress(done, total)`` callback fired per completed
unit, in submission order) and returns an :class:`ExperimentResult` whose
``data`` carries the driver-specific rows.  :data:`EXPERIMENT_DRIVERS`
indexes them by exhibit name so front-ends need no per-driver
special-casing.

Performance experiments run the trace simulator at a scaled-down size
(``WorkloadSpec``); the energy/battery experiments are exact reproductions
of the paper's analytical model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.batch import Progress, RunSpec, run_batch, run_tasks
from repro.analysis.tables import geomean
from repro.core.registry import (
    BBB,
    BBB_PROC,
    baseline_scheme,
    scheme_info,
)
from repro.energy import battery as battery_mod
from repro.energy import model as energy_mod
from repro.energy.platforms import MOBILE, SERVER
from repro.sim.config import SystemConfig
from repro.sim.system import System
from repro.workloads.base import (
    WORKLOAD_NAMES,
    WorkloadSpec,
    build_cached,
    registry,
    seed_media_words,
)


@dataclass
class ExperimentResult:
    """Uniform return shape of the sweep drivers.

    ``data`` is the driver-specific payload (``fig7`` -> ``List[Fig7Row]``,
    ``fig8`` -> ``List[Fig8Point]``, ...); ``runs`` counts the independent
    batch units that produced it.
    """

    name: str
    title: str
    data: Any
    runs: int = 0


# ----------------------------------------------------------------------
# Shared simulation helpers
# ----------------------------------------------------------------------

@dataclass
class WorkloadRun:
    """One (workload, scheme) simulation outcome."""

    workload: str
    scheme: str
    execution_cycles: int
    #: Steady-state NVMM writes: media writes during the window plus the
    #: end-of-window obligations (see :func:`steady_state_nvmm_writes`).
    nvmm_writes: int
    #: Raw media writes during the measured window only.
    nvmm_writes_raw: int
    bbpb_rejections: int
    bbpb_drains: int
    p_store_fraction: float
    #: Full counter set as the versioned ``repro.simstats/v1`` payload
    #: (:meth:`repro.sim.stats.SimStats.to_dict`), so batch results carry
    #: the same schema as ``repro run --json``.
    stats: Optional[Dict[str, object]] = None


def steady_state_nvmm_writes(system) -> int:
    """Media writes so far plus each scheme's end-of-window obligations.

    The paper measures a long steady-state window where end effects are
    negligible; at our scaled-down sizes they are not, so we charge every
    scheme the writes its persistence story still owes at the cut: BBB owes
    one drain per resident bbPB entry, while cache-based schemes owe one
    writeback per dirty persistent block still cached.  This makes the
    Fig. 7(b) comparison window-invariant.
    """
    stats = system.stats
    scheme = system.scheme
    buffers = getattr(scheme, "buffers", None)
    if buffers:
        obligations = sum(b.pending_drain_obligations() for b in buffers)
    elif hasattr(scheme, "_buffers"):  # BEP's volatile persist buffers
        obligations = sum(len(b) for b in scheme._buffers)
    else:
        h = system.hierarchy
        dirty = set()
        for blk in h.llc.dirty_blocks():
            if h.config.mem.is_persistent(blk.addr):
                dirty.add(blk.addr)
        for l1 in h.l1s:
            for blk in l1.dirty_blocks():
                if h.config.mem.is_persistent(blk.addr):
                    dirty.add(blk.addr)
        obligations = len(dirty)
    return stats.nvmm_writes + obligations


def default_sim_config() -> SystemConfig:
    """Table III system with caches scaled to the scaled-down workloads.

    The scaling preserves the two relations that drive the paper's results:
    the shared LLC is much larger than the aggregate bbPB capacity (1 MB vs
    8 x 2 KB in Table III; 64 KB vs 8 x 2 KB here), and the workloads'
    persistent footprints exceed the LLC so dirty data streams through it.
    """
    import dataclasses

    from repro.sim.config import CacheConfig

    base = SystemConfig()
    return dataclasses.replace(
        base,
        l1d=CacheConfig(2 << 10, 2, 64, hit_latency=2),
        llc=CacheConfig(64 << 10, 8, 64, hit_latency=11),
        mem=dataclasses.replace(
            base.mem,
            dram_bytes=1 << 22,
            nvmm_bytes=1 << 22,
            persistent_bytes=1 << 21,
        ),
    )


def run_workload(
    name: str,
    system_factory: Callable[[], System],
    spec: Optional[WorkloadSpec] = None,
    config: Optional[SystemConfig] = None,
    *,
    trace=None,
    initial_words: Optional[Dict[int, int]] = None,
) -> WorkloadRun:
    cfg = config or default_sim_config()
    wspec = spec or WorkloadSpec()
    if trace is None:
        # Trace generation is deterministic in (name, mem, spec); the
        # memoized build means sweeps and normalization baselines pay for
        # it once.  Callers with a pre-built trace (the optimizer's
        # rewritten programs) pass it in and skip the build entirely.
        trace, initial_words = build_cached(name, cfg.mem, wspec)
    elif initial_words is None:
        # A trace without its media pre-population is not runnable
        # faithfully; rebuild to recover the words (memoized, cheap).
        trace, initial_words = build_cached(name, cfg.mem, wspec)
    system = system_factory()
    # Pre-populated structures are durable before the window starts.
    seed_media_words(system.nvmm_media, initial_words)
    # finalize=False: measure the execution window only, like the paper's
    # simulated window — end-of-run settling drains would charge BBB for
    # writes whose eADR counterparts (dirty blocks left in caches) are
    # never charged.
    result = system.run(trace, finalize=False)
    stats = result.stats
    return WorkloadRun(
        workload=name,
        scheme=system.scheme.name,
        execution_cycles=stats.execution_cycles,
        nvmm_writes=steady_state_nvmm_writes(system),
        nvmm_writes_raw=stats.nvmm_writes,
        bbpb_rejections=stats.bbpb_rejections,
        bbpb_drains=stats.bbpb_drains,
        p_store_fraction=stats.persist_store_fraction,
        stats=stats.to_dict(),
    )


def _scheme_variants(
    entries_variants: Sequence[int] = (32, 1024),
) -> List[Tuple[str, str, Tuple[Tuple[str, int], ...]]]:
    """The Fig. 7 comparison space as (label, scheme, kwargs) rows — plain
    data, so the batch runner can ship them to worker processes."""
    variants: List[Tuple[str, str, Tuple[Tuple[str, int], ...]]] = []
    bbb_info = scheme_info(BBB)
    for entries in entries_variants:
        variants.append((
            f"{bbb_info.display} ({entries})",
            bbb_info.name,
            (("entries", int(entries)),),
        ))
    base_info = baseline_scheme()
    variants.append((base_info.display, base_info.name, ()))
    return variants


# ----------------------------------------------------------------------
# Figure 7: execution time and NVMM writes, normalized to eADR
# ----------------------------------------------------------------------

@dataclass
class Fig7Row:
    workload: str
    exec_time: Dict[str, float] = field(default_factory=dict)   # normalized
    nvmm_writes: Dict[str, float] = field(default_factory=dict)  # normalized


def fig7(
    spec: Optional[WorkloadSpec] = None,
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = WORKLOAD_NAMES,
    entries_variants: Sequence[int] = (32, 1024),
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> ExperimentResult:
    """Execution time (a) and NVMM writes (b) for BBB-32 and BBB-1024,
    normalized to eADR, per workload.  The (workload x scheme) grid is
    fanned across processes by the batch runner (``jobs``/``REPRO_JOBS``);
    ``data`` is ``List[Fig7Row]``."""
    cfg = config or default_sim_config()
    wspec = spec or WorkloadSpec()
    variants = _scheme_variants(entries_variants)
    specs = [
        RunSpec(
            workload=name,
            scheme=scheme,
            scheme_kwargs=kwargs,
            spec=wspec,
            config=cfg,
            label=label,
        )
        for name in workloads
        for label, scheme, kwargs in variants
    ]
    results = iter(run_batch(specs, jobs=jobs, progress=progress))
    rows: List[Fig7Row] = []
    for name in workloads:
        runs = {label: next(results) for label, _, _ in variants}
        base = runs[baseline_scheme().display]
        row = Fig7Row(workload=name)
        for label, run in runs.items():
            row.exec_time[label] = run.execution_cycles / max(1, base.execution_cycles)
            row.nvmm_writes[label] = run.nvmm_writes / max(1, base.nvmm_writes)
        rows.append(row)
    return ExperimentResult(
        name="fig7",
        title="Fig. 7 — exec time & NVMM writes vs eADR",
        data=rows,
        runs=len(specs),
    )


def fig7_averages(
    rows: Union[ExperimentResult, List[Fig7Row]],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Geomean across workloads of the normalized metrics.  Accepts the
    :func:`fig7` result or its ``data`` rows directly."""
    if isinstance(rows, ExperimentResult):
        rows = rows.data
    labels = rows[0].exec_time.keys()
    exec_avg = {l: geomean([r.exec_time[l] for r in rows]) for l in labels}
    writes_avg = {l: geomean([r.nvmm_writes[l] for r in rows]) for l in labels}
    return exec_avg, writes_avg


# ----------------------------------------------------------------------
# Section V-C: processor-side bbPB write amplification
# ----------------------------------------------------------------------

def processor_side_write_ratio(
    spec: Optional[WorkloadSpec] = None,
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = WORKLOAD_NAMES,
    entries: int = 32,
    coalesce_consecutive: bool = True,
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> ExperimentResult:
    """NVMM writes of processor-side BBB normalized to eADR, per workload;
    ``data`` is ``Dict[workload, ratio]``.

    The paper reports ~2.8x on average; with ``coalesce_consecutive=False``
    (the paper's "almost every persisting store must go to the bbPB and
    drain" reading) the amplification is largest.
    """
    cfg = config or default_sim_config()
    wspec = spec or WorkloadSpec()
    proc_kwargs = (
        ("entries", int(entries)),
        ("coalesce_consecutive", bool(coalesce_consecutive)),
    )
    specs = []
    for name in workloads:
        specs.append(
            RunSpec(name, BBB_PROC, proc_kwargs, spec=wspec, config=cfg)
        )
        specs.append(
            RunSpec(name, baseline_scheme().name, spec=wspec, config=cfg)
        )
    results = iter(run_batch(specs, jobs=jobs, progress=progress))
    ratios: Dict[str, float] = {}
    for name in workloads:
        proc = next(results)
        base = next(results)
        ratios[name] = proc.nvmm_writes / max(1, base.nvmm_writes)
    return ExperimentResult(
        name="sec5c",
        title="Section V-C — processor-side bbPB write amplification",
        data=ratios,
        runs=len(specs),
    )


# ----------------------------------------------------------------------
# Figure 8: bbPB size sensitivity
# ----------------------------------------------------------------------

@dataclass
class Fig8Point:
    entries: int
    rejections: float   # geomean across workloads, normalized to 1-entry
    exec_time: float
    drains: float


def fig8(
    sizes: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    spec: Optional[WorkloadSpec] = None,
    config: Optional[SystemConfig] = None,
    workloads: Sequence[str] = WORKLOAD_NAMES,
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> ExperimentResult:
    """Sensitivity of rejections (a), execution time (b), and drains (c) to
    the bbPB entry count, geomean-normalized to the 1-entry configuration.
    The full (size x workload) sweep is one batch fan-out; ``data`` is
    ``List[Fig8Point]``."""
    cfg = config or default_sim_config()
    wspec = spec or WorkloadSpec()
    specs = [
        RunSpec(
            workload=name,
            scheme=BBB,
            scheme_kwargs=(("entries", int(entries)),),
            spec=wspec,
            config=cfg,
        )
        for entries in sizes
        for name in workloads
    ]
    results = iter(run_batch(specs, jobs=jobs, progress=progress))
    per_size: Dict[int, List[WorkloadRun]] = {
        entries: [next(results) for _ in workloads] for entries in sizes
    }
    base_runs = {run.workload: run for run in per_size[sizes[0]]}
    points: List[Fig8Point] = []
    for entries in sizes:
        rej, ex, dr = [], [], []
        for run in per_size[entries]:
            base = base_runs[run.workload]
            rej.append(run.bbpb_rejections / max(1, base.bbpb_rejections))
            ex.append(run.execution_cycles / max(1, base.execution_cycles))
            dr.append(run.bbpb_drains / max(1, base.bbpb_drains))
        points.append(
            Fig8Point(
                entries=entries,
                rejections=geomean(rej),
                exec_time=geomean(ex),
                drains=geomean(dr),
            )
        )
    return ExperimentResult(
        name="fig8",
        title="Fig. 8 — sensitivity to bbPB entry count",
        data=points,
        runs=len(specs),
    )


# ----------------------------------------------------------------------
# Table IV: workload characterisation
# ----------------------------------------------------------------------

def table4(
    spec: Optional[WorkloadSpec] = None, config: Optional[SystemConfig] = None
) -> List[Tuple[str, str, float, Optional[float]]]:
    """(name, description, measured %P-Stores, paper %P-Stores) rows."""
    cfg = config or default_sim_config()
    wspec = spec or WorkloadSpec()
    rows = []
    for name, workload in registry(cfg.mem, wspec).items():
        trace = workload.build()
        measured = workload.p_store_fraction(trace) * 100.0
        rows.append((name, workload.description, measured, workload.paper_p_store_pct))
    return rows


# ----------------------------------------------------------------------
# Tables VII-X: draining cost and battery sizing (analytical)
# ----------------------------------------------------------------------

def table7() -> List[Tuple[str, float, float, float]]:
    """(platform, eADR joules, BBB joules, ratio) — drain energy."""
    rows = []
    for platform in (MOBILE, SERVER):
        e = energy_mod.eadr_cost(platform)
        b = energy_mod.bbb_cost(platform)
        rows.append(
            (platform.name, e.energy_joules, b.energy_joules,
             e.energy_joules / b.energy_joules)
        )
    return rows


def table8() -> List[Tuple[str, float, float, float]]:
    """(platform, eADR seconds, BBB seconds, ratio) — drain time."""
    rows = []
    for platform in (MOBILE, SERVER):
        e = energy_mod.eadr_cost(platform)
        b = energy_mod.bbb_cost(platform)
        rows.append(
            (platform.name, e.time_seconds, b.time_seconds,
             e.time_seconds / b.time_seconds)
        )
    return rows


def table9() -> List[battery_mod.BatteryEstimate]:
    """Battery volume + core-area ratio for each (platform, scheme, tech)."""
    out = []
    for platform in (MOBILE, SERVER):
        for tech in ("SuperCap", "Li-thin"):
            out.append(battery_mod.eadr_battery(platform, tech))
            out.append(battery_mod.bbb_battery(platform, tech))
    return out


def table10(
    entry_counts: Sequence[int] = (1, 4, 16, 32, 64, 256, 1024),
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> ExperimentResult:
    """Battery volume (mm^3) vs bbPB entries per (technology, platform);
    ``data`` is ``Dict[(technology, platform-key), Dict[entries, mm^3]]``.

    The four (technology, platform) sweeps are independent analytical
    computations, fanned out through the same batch machinery as the
    simulation exhibits."""
    combos = [
        (tech, key, platform)
        for tech in ("SuperCap", "Li-thin")
        for key, platform in (("M", MOBILE), ("S", SERVER))
    ]
    sweeps = run_tasks(
        [
            (battery_mod.battery_size_sweep, (platform, tech, tuple(entry_counts)), {})
            for tech, key, platform in combos
        ],
        jobs=jobs,
        progress=progress,
    )
    return ExperimentResult(
        name="table10",
        title="Table X — battery volume vs bbPB entries",
        data={
            (tech, key): sweep for (tech, key, _), sweep in zip(combos, sweeps)
        },
        runs=len(combos),
    )


#: The unified driver registry: every entry is callable as
#: ``driver(jobs=None, progress=None, **driver_specific) -> ExperimentResult``.
EXPERIMENT_DRIVERS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig7": fig7,
    "fig8": fig8,
    "sec5c": processor_side_write_ratio,
    "table10": table10,
}
