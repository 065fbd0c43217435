"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     — simulate one workload under one scheme and print the stats
  (``--mode analytical`` prints the closed-form estimate instead).
* ``compare`` — run every scheme on one workload, normalized to eADR.
* ``profile`` — run with full observability on and print a profile report.
* ``energy``  — print the draining-cost and battery-sizing tables.
* ``table1``  — print the qualitative scheme comparison.
* ``trace``   — generate a workload trace and save it to a file.
* ``traffic`` (alias ``serve``) — request-driven serving: sweep offered
  load across schemes and report the throughput-vs-load curve with
  p50/p99/p999 request latency per scheme (``repro.traffic/v4`` JSON
  via ``--out``).
* ``drill``   — crash-recovery drills: crash the traffic frontend at
  seeded op visits, recover, and account for every request; reports
  RPO/RTO per scheme (``repro.drill/v3``) and exits non-zero if a
  battery-domain scheme loses an acked request.
* ``bench``   — analytical tolerance gate: the closed-form estimates of a
  fixed six-cell grid must sit inside the declared band of the discrete
  runs (Fig. 7 bench size; ``--smoke`` for a tiny grid).  Nothing is
  timed; ``benchmarks/e2e/run.py`` measures speed.
* ``faults``  — seeded fault-injection campaign (scheme x workload x plan);
  exits non-zero if any battery-domain fault produced silent corruption.
* ``check``   — crash-consistency model checker: exhaustive micro-step
  crash-state exploration with differential oracles and ddmin
  counterexample minimization; exits non-zero on any violation.
* ``opt``     — persist optimizer: flush elision, fence weakening, and
  persist coalescing over the unified program IR, gated on each
  scheme's declared ordering contract; every removal is audited and
  the optimized program is re-verified against the crash checker and
  litmus models (``repro.optreport/v1`` JSON via ``--out``).

The eight gates (``check``, ``litmus``, ``opt``, ``drill``, ``faults``,
``traffic``, ``profile`` and ``bench``) share one runner.  A gate exits
0 when it passes and 1 when it fails, printing each failure on stderr as
``error: ...``; it exits 2 on a usage error (an unknown scheme, workload
or mutant, a size out of range such as ``--entries 0``, an output path
whose directory does not exist, or an unreadable ``--replay`` artifact)
before doing any work.  A passing ``--smoke`` run ends with the line
``<gate> smoke ok``.

``run`` and ``compare`` accept ``--events PATH`` (JSONL event log) and
``--trace-out PATH`` (Chrome ``trace_event`` file for chrome://tracing or
https://ui.perfetto.dev); ``compare`` writes one file per scheme with the
scheme name spliced in before the extension.

Examples::

    python -m repro run --workload hashmap --scheme bbb --entries 32
    python -m repro run --workload ctree --scheme bbb --trace-out trace.json
    python -m repro compare --workload swapNC --ops 200
    python -m repro profile --workload hashmap --scheme bbb --cprofile
    python -m repro profile --smoke
    python -m repro check --workload hashmap --scheme none --max-points 50
    python -m repro energy
    python -m repro trace --workload rtree --out rtree.trace
    python -m repro bench --smoke
    python -m repro faults --smoke
    python -m repro faults --workloads hashmap,ctree --out faults.json
    python -m repro drill --smoke
    python -m repro drill --schemes bbb,eadr --crashes 5 --out drill.json
    python -m repro check --smoke
    python -m repro check --scheme bbb --mutant bbb-delayed-alloc --cex-out cex.json
    python -m repro check --replay cex.json
    python -m repro opt --smoke
    python -m repro opt --workload hashmap --scheme bbb --save-program opt.trace
    python -m repro opt --compare --schemes bbb,pmem --out optreport.json
    python -m repro opt --replay optreport.json
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.experiments import (
    default_sim_config,
    run_workload,
    steady_state_nvmm_writes,
)
from repro.analysis.tables import fmt_ratio, fmt_si, render_table
from repro.api import SCHEMES, RunOptions, build_system
from repro.core.persistency import table1_rows
from repro.core.registry import (
    ADR,
    BBB,
    DEFAULT_SCHEME,
    EADR,
    baseline_scheme,
    canonical_name,
    iter_schemes,
    scheme_names,
)
from repro.energy import battery, model
from repro.energy.platforms import MOBILE, SERVER
from repro.ioutil import atomic_write_json
from repro.obs.bus import NULL_BUS, EventBus, EventRecorder
from repro.sim.tracefile import save_trace
from repro.workloads.base import WORKLOAD_NAMES, WorkloadSpec, make_workload


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", choices=WORKLOAD_NAMES, default="hashmap",
        help="Table IV workload to run",
    )
    parser.add_argument("--threads", type=int, default=8)
    parser.add_argument("--ops", type=int, default=200,
                        help="operations per thread")
    parser.add_argument("--elements", type=int, default=16384,
                        help="structure size (the paper used 1M)")
    parser.add_argument("--seed", type=int, default=42)


def _spec(args) -> WorkloadSpec:
    return WorkloadSpec(
        threads=args.threads, ops=args.ops, elements=args.elements, seed=args.seed
    )


def _observability(args):
    """(bus, recorder) when --events/--trace-out were given, else the shared
    disabled bus (zero hot-path cost)."""
    if not (getattr(args, "events", None) or getattr(args, "trace_out", None)):
        return NULL_BUS, None
    bus = EventBus()
    return bus, EventRecorder(bus)


def _export_events(recorder, events_path, trace_path) -> None:
    if recorder is None:
        return
    from repro.obs.exporters import write_chrome_trace, write_jsonl

    if events_path:
        n = write_jsonl(recorder.events, events_path)
        print(f"wrote {n:,} events to {events_path}", file=sys.stderr)
    if trace_path:
        n = write_chrome_trace(recorder.events, trace_path)
        print(f"wrote {n:,} trace entries to {trace_path}", file=sys.stderr)


def _scheme_path(path: str, scheme: str) -> str:
    """``out/trace.json`` + ``bbb`` -> ``out/trace.bbb.json``."""
    root, ext = os.path.splitext(path)
    return f"{root}.{scheme}{ext}" if ext else f"{path}.{scheme}"


def cmd_run(args) -> int:
    config = default_sim_config()
    spec = _spec(args)
    workload = make_workload(args.workload, config.mem, spec)
    trace = workload.build()
    bus, recorder = _observability(args)
    if args.mode == "analytical":
        from repro.analysis.analytical import analytical_estimate

        # The closed-form estimate simulates nothing: it emits no events
        # and leaves no buffered or cached writes owed at the cut.
        stats = analytical_estimate(
            trace, args.scheme, config, entries=args.entries,
            finalize=not args.no_finalize,
        ).stats
        steady_writes = stats.nvmm_writes
    else:
        system = build_system(args.scheme, entries=args.entries,
                              config=config, options=RunOptions(bus=bus))
        workload.seed_media(system.nvmm_media)
        stats = system.run(trace, finalize=not args.no_finalize).stats
        steady_writes = steady_state_nvmm_writes(system)
    _export_events(recorder, args.events, args.trace_out)
    if args.out:
        from repro.ioutil import atomic_write_text

        atomic_write_text(args.out, stats.to_json() + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        if not args.out:
            print(stats.to_json())
        return 0
    rows = [(k, v) for k, v in stats.summary().items()]
    rows.append(("steady_state_nvmm_writes", steady_writes))
    rows.append(("persist_latency_avg", f"{stats.persist_latency_avg:.1f} cycles"))
    print(render_table(
        ["metric", "value"], rows,
        title=f"{args.workload} under {args.scheme} "
              f"({trace.total_ops():,} trace ops)",
    ))
    return 0


def cmd_compare(args) -> int:
    config = default_sim_config()
    spec = _spec(args)
    rows = []

    def compare_one(name: str):
        bus, recorder = _observability(args)
        run = run_workload(
            args.workload,
            lambda: build_system(name, entries=args.entries, config=config,
                                 options=RunOptions(bus=bus)),
            spec, config,
        )
        _export_events(
            recorder,
            _scheme_path(args.events, name) if args.events else None,
            _scheme_path(args.trace_out, name) if args.trace_out else None,
        )
        return run

    base_name = baseline_scheme().name
    base = compare_one(base_name)
    for info in iter_schemes():
        if not info.crash_consistent:
            continue  # demonstration baselines have no meaningful ratio
        name = info.name
        run = base if name == base_name else compare_one(name)
        rows.append(
            (
                name,
                f"{run.execution_cycles / base.execution_cycles:.3f}",
                f"{run.nvmm_writes / max(1, base.nvmm_writes):.3f}",
                run.bbpb_rejections,
            )
        )
    print(render_table(
        ["scheme", "exec time (vs eADR)", "NVMM writes (vs eADR)", "rejections"],
        rows,
        title=f"scheme comparison on {args.workload}",
    ))
    return 0


def cmd_energy(args) -> int:
    rows = []
    for platform in (MOBILE, SERVER):
        e, b = model.eadr_cost(platform), model.bbb_cost(platform)
        rows.append(
            (
                platform.name,
                fmt_si(e.energy_joules, "J"), fmt_si(b.energy_joules, "J"),
                fmt_ratio(e.energy_joules / b.energy_joules),
                fmt_si(e.time_seconds, "s"), fmt_si(b.time_seconds, "s"),
            )
        )
    print(render_table(
        ["System", "eADR energy", "BBB energy", "ratio", "eADR time", "BBB time"],
        rows, title="Crash-drain cost (Tables VII & VIII)",
    ))
    rows = []
    for platform in (MOBILE, SERVER):
        for tech in ("SuperCap", "Li-thin"):
            est_e = battery.eadr_battery(platform, tech)
            est_b = battery.bbb_battery(platform, tech)
            rows.append(
                (platform.name, tech,
                 f"{est_e.volume_mm3:,.1f}", f"{est_b.volume_mm3:,.2f}")
            )
    print()
    print(render_table(
        ["System", "Technology", "eADR mm^3", "BBB mm^3"],
        rows, title="Battery volume (Table IX)",
    ))
    return 0


def cmd_table1(args) -> int:
    traits = table1_rows()
    print(render_table(
        ["Aspect"] + [t.name for t in traits],
        [
            ["SW Complexity"] + [t.sw_complexity for t in traits],
            ["Persist Inst."] + [t.persist_instructions for t in traits],
            ["HW Complexity"] + [t.hw_complexity for t in traits],
            ["Strict pers. penalty"] + [t.strict_persistency_penalty for t in traits],
            ["Battery Needed"] + [t.battery for t in traits],
            ["PoP location"] + [t.pop_location for t in traits],
        ],
        title="Table I",
    ))
    return 0


def cmd_trace(args) -> int:
    config = default_sim_config()
    spec = _spec(args)
    workload = make_workload(args.workload, config.mem, spec)
    trace = workload.build()
    count = save_trace(trace, args.out)
    print(f"wrote {count:,} ops ({trace.num_threads} threads) to {args.out}")
    return 0


# ----------------------------------------------------------------------
# The gates: one runner over gate_<name>(args) -> (text, report, failures)
# ----------------------------------------------------------------------

#: Output-path flags the runner checks before any work: each names a
#: file whose directory must exist, except ``cex_dir``, which is one.
_PATH_FLAGS = ("out", "cex_out", "save_program", "cex_dir")


def _run_gate(args) -> int:
    """Run ``args.gate`` (or ``args.replayer`` under ``--replay``); see the
    module docstring for the output and the exit codes."""
    try:
        for flag in _PATH_FLAGS:
            path = getattr(args, flag, None)
            where = path if flag == "cex_dir" else os.path.dirname(path or "")
            if path and where and not os.path.isdir(where):
                raise ValueError(f"--{flag.replace('_', '-')}: directory "
                                 f"{where!r} does not exist")
        if getattr(args, "entries", 1) < 1:
            raise ValueError(f"--entries: must be at least 1, "
                             f"got {args.entries}")
        if "jobs" in vars(args):
            from repro.analysis.batch import decide_jobs

            args.jobs = decide_jobs(args.jobs)
        if getattr(args, "replay", None):
            reproduced, text = args.replayer(args)
            print(text)
            return 0 if reproduced else 1
        text, report, failures = args.gate(args)
    except ValueError as exc:
        # Library validation of names, sizes, jobs and artifacts raises
        # ValueError (ArtifactError is one): a usage error.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    if getattr(args, "out", None):
        print(f"wrote {atomic_write_json(args.out, report)}")
    if args.smoke and not failures:
        print(f"{args.gate.__name__[len('gate_'):]} smoke ok")
    return 1 if failures else 0


def _progress(done: int, total: int, label: str = "") -> None:
    """Batch progress on an interactive stderr; silent otherwise."""
    if sys.stderr.isatty():
        print(f"\r  {done}/{total} {label:<32}", end="", file=sys.stderr,
              flush=True)
        if done == total:
            print(file=sys.stderr)


def _names(text: Optional[str], kind: Optional[str] = None, default=None):
    """The names in a comma-separated flag value, or ``default`` when it
    is empty.  A ``kind`` of "scheme", "workload" or "mutant" validates
    every name (scheme aliases resolve to canonical names); an unknown
    one is a usage error."""
    if not text:
        return default
    names = [n.strip() for n in text.split(",") if n.strip()]
    if kind == "scheme":
        return [canonical_name(n) for n in names]
    if kind is not None:
        from repro.check.mutants import MUTANTS

        valid = sorted(MUTANTS) if kind == "mutant" else list(WORKLOAD_NAMES)
        for name in names:
            if name not in valid:
                raise ValueError(f"unknown {kind} {name!r}; valid {kind}s: "
                                 f"{', '.join(valid)}")
    return names


def _loads(text: Optional[str], default: Sequence[float]) -> List[float]:
    """Offered loads (requests per 1000 cycles) from ``--loads``."""
    return [float(x) for x in _names(text, default=default)]


def _replayed(reproduced: bool) -> str:
    return "REPRODUCED" if reproduced else "did NOT reproduce"


def gate_profile(args):
    # Imported here so the obs/profiling machinery does not tax the other
    # commands' startup.
    from repro.obs.profile import profile_run, smoke_report

    if args.smoke:
        report = smoke_report()
    else:
        report = profile_run(
            args.workload, args.scheme, entries=args.entries,
            spec=_spec(args), cprofile=args.cprofile,
        )
    failures = ([] if report.ok
                else ["event log does not reconcile with SimStats"])
    return report.render(), None, failures


def gate_bench(args):
    # Imported here so the analytical grid does not tax every other
    # CLI invocation.
    from repro.analysis.bench import run_smoke, run_tolerance

    report = run_smoke() if args.smoke else run_tolerance()
    lines, failures = [], []
    for cell in report["cells"]:
        status = "ok" if cell["analytical_ok"] else "FAIL"
        errs = ", ".join(f"{k}={v:.2%}" for k, v in cell["errors"].items())
        lines.append(f"  {cell['workload']:>8s}/{cell['scheme']:<5s} "
                     f"analytical=({errs}) {status}")
        if not cell["analytical_ok"]:
            failures.append(f"{cell['workload']}/{cell['scheme']}: analytical "
                            f"estimate out of tolerance ({errs})")
    return "\n".join(lines), report, failures


#: Default scheme trio of the serving comparison: the paper's design, its
#: "Optimal" baseline, and the flush-based ADR platform.
TRAFFIC_DEFAULT_SCHEMES = (BBB, EADR, ADR)
#: Default offered-load grid (requests per 1000 cycles).
TRAFFIC_DEFAULT_LOADS = (0.5, 1.0, 2.0, 4.0)


def _traffic_spec(args, offered_load: float):
    from repro.serve import TenantSpec, TrafficSpec

    tenants = tuple(
        TenantSpec(
            f"tenant{i}",
            keys=args.keys,
            read_fraction=args.read,
            update_fraction=args.update,
            insert_fraction=args.insert,
        )
        for i in range(args.tenants)
    )
    return TrafficSpec(
        requests=args.requests,
        tenants=tenants,
        zipf_theta=args.zipf,
        offered_load=offered_load,
        seed=args.seed,
    )


def gate_traffic(args):
    # Imported here: the serving stack should not tax other commands.
    from repro.serve import TrafficSpec, render_curve, traffic_curve
    from repro.serve.report import smoke_failures

    if args.smoke:
        # A tiny fixed sweep of the default trio.
        report = traffic_curve(list(TRAFFIC_DEFAULT_SCHEMES),
                               TrafficSpec(requests=40, seed=7), [1.0, 4.0],
                               entries=16)
        failures = smoke_failures(report)
        return render_curve(report), report, failures
    schemes = _names(args.schemes, "scheme", list(TRAFFIC_DEFAULT_SCHEMES))
    loads = _loads(args.loads, TRAFFIC_DEFAULT_LOADS)
    report = traffic_curve(schemes, _traffic_spec(args, loads[0]), loads,
                           entries=args.entries)
    return render_curve(report), report, []


def gate_drill(args):
    # Imported here: the serving stack should not tax other commands.
    from repro.serve.drill import drill_failures, run_drills, smoke_drill
    from repro.serve.loadgen import TrafficSpec

    if args.smoke:
        report = smoke_drill(seed=args.seed, progress=_progress)
    else:
        loads = _loads(args.loads, (2.0,))
        spec = TrafficSpec(requests=args.requests, offered_load=loads[0],
                           seed=args.seed + 42)
        report = run_drills(
            _names(args.schemes, "scheme", list(SCHEMES)), spec, loads,
            crashes=args.crashes, seed=args.seed, entries=args.entries,
            mutants=tuple(_names(args.mutants, "mutant", ())),
            progress=_progress,
        )
    rows = []
    for group in ("per_scheme", "per_mutant"):
        for name, block in report[group].items():
            rows.append((
                name, block["units"], block["acked_lost_total"],
                block["acked_lost_bytes"], block["rto_cycles"]["p50"],
                block["rto_cycles"]["p99"], block["contract_violations"],
            ))
    text = render_table(
        ["scheme", "units", "acked-lost", "lost-bytes", "rto-p50", "rto-p99",
         "contract-viol"],
        rows,
        title=f"crash-recovery drills ({len(report['units'])} units, "
              f"seed {report['seed']})",
    )
    return text, report, drill_failures(report)


def gate_faults(args):
    # Imported here: the fault-campaign stack (batch runner, recovery
    # checkers) should not tax the other commands' startup.
    from repro.fault.campaign import (
        SMOKE_WORKLOADS,
        canonical_plans,
        idle_plans,
        run_campaign,
        smoke_campaign,
    )
    from repro.fault.plan import BATTERY_DOMAIN_SITES, random_plan

    if args.smoke:
        report = smoke_campaign(seed=args.seed, jobs=args.jobs,
                                progress=_progress)
    else:
        schemes = _names(args.schemes, "scheme", list(SCHEMES))
        workloads = _names(args.workloads, "workload", list(SMOKE_WORKLOADS))
        plans = canonical_plans() + [
            random_plan(args.seed * 1000 + i, sites=BATTERY_DOMAIN_SITES,
                        label=f"random-battery-{i}")
            for i in range(args.random_plans)
        ]
        report = run_campaign(
            schemes, workloads, plans,
            dataclasses.replace(_spec(args), seed=args.seed + 42),
            seed=args.seed, crashes_per_cell=args.crashes,
            entries=args.entries, jobs=args.jobs, progress=_progress,
        )
    domain = report["battery_domain"]
    text = render_table(
        ["outcome", "units"],
        [(name, count) for name, count in sorted(report["summary"].items())],
        title=f"fault campaign ({len(report['units'])} units, "
              f"seed {report['seed']})",
    ) + (f"\nbattery-domain units: {domain['units']}, "
         f"silent corruption: {domain['silent_corruption']}"
         f"\nplans that injected nothing: "
         f"{', '.join(idle_plans(report)) or '-'}")
    failures = (["battery-domain fault produced SILENT corruption"]
                if domain["silent_corruption"] else [])
    return text, report, failures


def gate_check(args):
    # Imported here: the model-checker stack (oracles, minimizer) should
    # not tax the other commands' startup.
    from repro.check.checker import CheckUnit, run_check_unit, smoke_check

    if args.smoke:
        out = smoke_check(progress=_progress)
        text = render_table(
            ["unit", "points", "explored", "pruned", "unique", "violations"],
            [
                (
                    r["unit"]["mutant"] or r["unit"]["scheme"],
                    r["checked_points"], r["explored"], r["pruned"],
                    r["unique_states"], r["num_violations"],
                )
                for r in out["reports"]
            ],
            title="crash-consistency smoke check",
        )
        return text, out, out["failures"]

    unit = CheckUnit(
        scheme=_names(args.scheme, "scheme")[0],
        workload=_names(args.workload, "workload")[0],
        spec=_spec(args),
        entries=args.entries,
        mutant=args.mutant and _names(args.mutant, "mutant")[0],
        prune=not args.no_prune,
        max_points=args.max_points,
        sample_seed=args.seed,
    )
    report, verdicts = run_check_unit(unit)
    lines = [render_table(
        ["metric", "value"],
        [
            ("contract", report["contract"]),
            ("crash points", report["total_points"]),
            ("checked", report["checked_points"]),
            ("explored", report["explored"]),
            ("pruned", report["pruned"]),
            ("unique durable states", report["unique_states"]),
            ("violations", report["num_violations"]),
        ],
        title=f"crash check: {unit.describe()}",
    )]
    lines += [f"  point {v['point']} ({v['site']}, op {v['crash_op']}): "
              f"{v['violations'][0]}"
              for v in report["violations"][:args.show]]
    if not report["num_violations"]:
        return "\n".join(lines), report, []

    if not args.no_minimize:
        from repro.check.minimize import (
            minimize_counterexample,
            write_counterexample,
        )

        first_bad = next(v for v in verdicts if not v.consistent)
        cex = minimize_counterexample(unit, first_bad)
        lines.append(f"minimized to {cex.num_ops} ops "
                     f"({cex.tests_run} oracle calls); crash at {cex.site}:")
        lines += [f"  t{tid}: {op.kind.value} addr=0x{op.addr:x} "
                  f"value=0x{op.value:x}" for tid, op in cex.ops]
        if args.cex_out:
            lines.append(f"wrote {write_counterexample(cex, args.cex_out)}")
    failure = (f"{unit.describe()}: {report['num_violations']} of "
               f"{report['checked_points']} crash points inconsistent")
    return "\n".join(lines), report, [failure]


def replay_check(args):
    from repro.check.minimize import replay_artifact

    out = replay_artifact(args.replay)
    lines = [f"{args.replay}: {_replayed(out['reproduced'])} at {out['site']}"]
    lines += [f"  {v}" for v in out["violations"][:5]]
    return out["reproduced"], "\n".join(lines)


def gate_litmus(args):
    # Imported here: the litmus battery rides on the model-checker stack
    # and should not tax the other commands' startup.
    from repro.litmus.corpus import corpus
    from repro.litmus.runner import (
        battery_failures,
        render_matrix,
        run_battery,
        smoke_battery,
    )

    if args.smoke:
        report, failures = smoke_battery(progress=_progress)
        return render_matrix(report), report, failures

    report = run_battery(
        schemes=_names(args.schemes, "scheme"),
        tests=corpus(_names(args.tests)), entries=args.entries,
        include_mutants=not args.no_mutants, progress=_progress,
        minimize=not args.no_minimize, cex_dir=args.cex_dir,
    )
    lines = [render_matrix(report)]
    for cex in report["counterexamples"]:
        target = cex["mutant"] or cex["scheme"]
        ops = sum(len(p) for p in cex["test"]["programs"])
        where = f" -> {cex['path']}" if "path" in cex else ""
        lines.append(f"counterexample: {target} on {cex['original_test']} "
                     f"minimized to {ops} ops, forbidden state "
                     f"{tuple(cex['forbidden_state'])}{where}")
    return "\n".join(lines), report, battery_failures(report)


def replay_litmus(args):
    from repro.litmus.runner import replay_counterexample

    out = replay_counterexample(args.replay)
    art = out["artifact"]
    return out["reproduced"], (
        f"{args.replay}: {_replayed(out['reproduced'])} — "
        f"{art['mutant'] or art['scheme']} observing {tuple(out['state'])} "
        f"(forbidden under {art['model']!r}) on the reduced test"
    )


def gate_opt(args):
    # Imported here: the optimizer stack (IR, passes, verifier) rides on
    # the checker and litmus layers and should not tax other commands.
    from repro.opt import (
        OPT_SCHEMA,
        opt_compare,
        optimize_workload,
        render_compare_table,
        smoke_opt,
        verify_optimized,
    )

    if args.smoke:
        out = smoke_opt()
        text = render_table(
            ["workload", "scheme", "elided", "audit", "image"],
            [
                (c["workload"], c["scheme"],
                 f"{c['flush_fence_elision_pct']:.1f}%",
                 "ok" if c["audit_ok"] else "FAIL",
                 "ok" if c["image_ok"] else "FAIL")
                for c in out["grid"]
            ],
            title="persist-optimizer smoke: elision grid "
                  "(audited, images compared)",
        )
        caught = ", ".join(s for s, c in out["mutant"]["caught"].items()
                           if c)
        text += (f"\nmutant {out['mutant']['pass']}: caught under "
                 f"[{caught}]; {len(out['checker_cells'])} checker cells, "
                 f"{len(out['litmus_cells'])} litmus cells re-gated")
        return text, out, out["failures"]

    if args.compare:
        report = opt_compare(
            workloads=_names(args.workloads, "workload"),
            schemes=_names(args.schemes, "scheme"), spec=_spec(args),
            entries=args.entries, jobs=args.jobs, progress=_progress,
        )
        failures = [f"{r['workload']} x {r['scheme']} failed verification"
                    for r in report["rows"]
                    if not (r["audit_ok"] and r["image_ok"])]
        return render_compare_table(report), report, failures

    # Single cell: optimize one workload under one scheme, verified.
    scheme = _names(args.scheme, "scheme")[0]
    workload = _names(args.workload, "workload")[0]
    optimized = optimize_workload(workload, scheme, spec=_spec(args),
                                  entries=args.entries)
    cell = verify_optimized(optimized)
    lines = [render_table(
        ["metric", "value"],
        [
            ("passes", " -> ".join(cell["passes"])),
            ("ops (naive instrumented)", cell["ops_naive"]),
            ("ops (optimized)", cell["ops_optimized"]),
            ("flush+fence elided", f"{cell['flush_fence_elision_pct']}%"),
            ("checker points (naive/opt)",
             f"{cell['checker_points']['naive']}/"
             f"{cell['checker_points']['optimized']}"),
            ("verified", "ok" if cell["ok"] else "FAIL"),
        ],
        title=f"persist optimizer: {workload} under {scheme}",
    )]
    if args.save_program:
        from repro.sim.tracefile import save_program

        count = save_program(optimized.result.optimized, args.save_program)
        lines.append(f"wrote {count:,} optimized ops to {args.save_program}")
    report = {"schema": OPT_SCHEMA, "kind": "cell", **cell}
    return "\n".join(lines), report, cell["failures"]


def replay_opt(args):
    from repro.opt import replay_report

    out = replay_report(args.replay)
    lines = [f"{args.replay}: {_replayed(out['reproduced'])} "
             f"({len(out['artifact']['rows'])} cells)"]
    lines += [f"  {line}" for line in out["mismatches"][:10]]
    return out["reproduced"], "\n".join(lines)


def _gate_parser(sub, gate, help: str, *, smoke: str,
                 out: Optional[str] = None, seed=None,
                 entries: Optional[int] = None,
                 schemes: Optional[str] = None, size=None,
                 jobs: Optional[str] = None, replay=None,
                 aliases: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The subparser of ``gate`` with the flags the gates share, declared
    with this gate's defaults; a flag whose keyword is None is left out.

    ``out`` names the report, ``seed`` is ``(default, help)``, ``schemes``
    the default scheme list, ``size`` the default ``(threads, ops,
    elements)``, ``jobs`` a note on ``--jobs``, and ``replay``
    ``(replayer, artifact)``."""
    p = sub.add_parser(gate.__name__[len("gate_"):], aliases=list(aliases),
                       help=help)
    p.set_defaults(func=_run_gate, gate=gate)
    p.add_argument("--smoke", action="store_true", help=smoke)
    if replay is not None:
        p.set_defaults(replayer=replay[0])
        p.add_argument("--replay", default=None, metavar="PATH",
                       help=f"replay a {replay[1]} and exit")
    if schemes is not None:
        p.add_argument("--schemes", default=None, metavar="A,B,...",
                       help=f"comma-separated schemes (default: {schemes})")
    if size is not None:
        for flag, default, text in zip(
                ("--threads", "--ops", "--elements"), size,
                ("workload threads", "workload operations per thread",
                 "workload element count")):
            p.add_argument(flag, type=int, default=default, help=text)
    if seed is not None:
        p.add_argument("--seed", type=int, default=seed[0], help=seed[1])
    if entries is not None:
        p.add_argument("--entries", type=int, default=entries,
                       help="persist-buffer (bbPB) entries")
    if jobs is not None:
        p.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or "
                            f"cores){jobs}")
    if out is not None:
        p.add_argument("--out", default=None, metavar="PATH",
                       help=f"write {out} atomically to PATH")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BBB (HPCA 2021) reproduction — simulator front-end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_observability_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--events", metavar="PATH", default=None,
                       help="write the run's event log as JSONL")
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write a Chrome trace_event file "
                            "(chrome://tracing / ui.perfetto.dev)")

    p_run = sub.add_parser("run", help="simulate one workload under one scheme")
    _add_workload_args(p_run)
    p_run.add_argument("--scheme", choices=sorted(scheme_names(include_aliases=True)),
                       default=DEFAULT_SCHEME)
    p_run.add_argument("--entries", type=int, default=32, help="bbPB entries")
    p_run.add_argument("--mode", choices=("sim", "analytical"), default="sim",
                       help="sim runs the discrete engine, analytical uses "
                            "the closed-form model")
    p_run.add_argument("--no-finalize", action="store_true",
                       help="measure the execution window only")
    p_run.add_argument("--json", action="store_true",
                       help="dump the full stats as JSON "
                            "(repro.simstats/v1 schema)")
    p_run.add_argument("--out", default=None, metavar="PATH",
                       help="write the repro.simstats/v1 JSON atomically to "
                            "PATH (with --json: instead of printing it)")
    _add_observability_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="all schemes on one workload")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--entries", type=int, default=32)
    _add_observability_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_prof = _gate_parser(
        sub, gate_profile,
        "run one workload with full observability and print the report",
        smoke="fixed tiny run for CI; exits non-zero if the event log and "
              "SimStats disagree",
    )
    _add_workload_args(p_prof)
    p_prof.add_argument("--scheme", choices=sorted(scheme_names(include_aliases=True)),
                       default=DEFAULT_SCHEME)
    p_prof.add_argument("--entries", type=int, default=32, help="bbPB entries")
    p_prof.add_argument("--cprofile", action="store_true",
                        help="include a cProfile hotspot table")

    p_energy = sub.add_parser("energy", help="draining cost & battery tables")
    p_energy.set_defaults(func=cmd_energy)

    p_t1 = sub.add_parser("table1", help="qualitative scheme comparison")
    p_t1.set_defaults(func=cmd_table1)

    p_trace = sub.add_parser("trace", help="generate and save a workload trace")
    _add_workload_args(p_trace)
    p_trace.add_argument("--out", required=True, help="output trace file")
    p_trace.set_defaults(func=cmd_trace)

    p_traffic = _gate_parser(
        sub, gate_traffic,
        "request-driven serving: throughput-vs-offered-load curve with "
        "p50/p99/p999 per scheme",
        aliases=["serve"],
        smoke="CI gate: tiny fixed sweep; exits non-zero on "
              "schema/percentile failure",
        schemes=",".join(TRAFFIC_DEFAULT_SCHEMES),
        seed=(42, "request-stream seed"), entries=32,
        out="the repro.traffic/v4 report",
    )
    p_traffic.add_argument("--loads", default=None, metavar="L1,L2,...",
                           help="offered loads in requests/kilocycle "
                                "(default: "
                                + ",".join(str(x)
                                           for x in TRAFFIC_DEFAULT_LOADS)
                                + ")")
    p_traffic.add_argument("--requests", type=int, default=150,
                           help="requests per measured point")
    p_traffic.add_argument("--tenants", type=int, default=2,
                           help="tenant namespaces")
    p_traffic.add_argument("--keys", type=int, default=512,
                           help="keyspace size per tenant")
    p_traffic.add_argument("--zipf", type=float, default=0.9,
                           help="Zipf skew theta in [0,1)")
    p_traffic.add_argument("--read", type=float, default=0.70)
    p_traffic.add_argument("--update", type=float, default=0.25)
    p_traffic.add_argument("--insert", type=float, default=0.05)

    _gate_parser(
        sub, gate_bench,
        "analytical tolerance gate over a fixed six-cell grid at the "
        "Fig. 7 bench size (nothing is timed)",
        smoke="CI gate: analytical tolerance check on a tiny grid; exits "
              "non-zero when an estimate leaves the band (no timing)",
        out="the tolerance report",
    )

    p_drill = _gate_parser(
        sub, gate_drill,
        "crash-recovery drills over the traffic frontend: seeded "
        "mid-traffic crashes, per-request durability accounting, RPO/RTO "
        "per scheme",
        smoke="CI gate: every scheme x 3 shared crash points + the "
              "bbb-delayed-alloc mutant; exits non-zero if a battery-domain "
              "scheme loses an acked request or the mutant escapes",
        schemes="all", entries=16,
        seed=(7, "crash-point seed (traffic seed derives from it)"),
        out="the repro.drill/v3 report",
    )
    p_drill.add_argument("--loads", default=None, metavar="L1,L2,...",
                         help="offered loads in requests/kilocycle "
                              "(default: 2.0)")
    p_drill.add_argument("--crashes", type=int, default=3,
                         help="seeded crash points per load (shared across "
                              "schemes)")
    p_drill.add_argument("--requests", type=int, default=60,
                         help="requests per drilled run")
    p_drill.add_argument("--mutants", default=None, metavar="A,B,...",
                         help="deliberately broken variants to drill "
                              "(see repro.check.mutants.MUTANTS)")

    p_faults = _gate_parser(
        sub, gate_faults,
        "seeded fault-injection campaign (scheme x workload x plan)",
        smoke="small fixed campaign for CI; exits non-zero on "
              "battery-domain silent corruption",
        schemes="all", size=(2, 40, 512), entries=8,
        seed=(0, "campaign seed (plans, crash points)"),
        jobs="", out="the JSON report",
    )
    p_faults.add_argument("--workloads", default=None, metavar="A,B,...",
                          help="comma-separated workloads "
                               "(default: hashmap,ctree,swapNC)")
    p_faults.add_argument("--random-plans", type=int, default=4,
                          help="extra random battery-domain plans beyond "
                               "the canonical set")
    p_faults.add_argument("--crashes", type=int, default=1,
                          help="crash points per (workload, plan) cell")

    p_check = _gate_parser(
        sub, gate_check,
        "crash-consistency model checker: enumerate micro-step crash "
        "points, check each recovered image against the scheme's "
        "contract, the eADR golden differential and workload invariants, "
        "and minimize any counterexample",
        smoke="CI gate: exhaustively check one small workload per scheme, "
              "assert pruned == unpruned verdicts, and assert the broken "
              "mutant is caught and minimized",
        replay=(replay_check, "counterexample artifact"),
        size=(2, 6, 128), entries=8,
        seed=(11, "workload / sampling seed"),
        out="the JSON report (with --smoke: {ok, failures, reports})",
    )
    p_check.add_argument("--scheme", default=DEFAULT_SCHEME,
                         help="scheme to check")
    p_check.add_argument("--mutant", default=None,
                         help="run a deliberately broken scheme variant "
                              "(see repro.check.mutants.MUTANTS)")
    p_check.add_argument("--workload", default="hashmap")
    p_check.add_argument("--no-prune", action="store_true",
                         help="disable durable-fingerprint pruning")
    p_check.add_argument("--max-points", type=int, default=None,
                         help="sample at most N crash points instead of "
                              "exhausting all of them")
    p_check.add_argument("--show", type=int, default=5,
                         help="violations to print")
    p_check.add_argument("--no-minimize", action="store_true",
                         help="skip ddmin counterexample minimization")
    p_check.add_argument("--cex-out", default=None, metavar="PATH",
                         help="write the minimized counterexample artifact")

    p_litmus = _gate_parser(
        sub, gate_litmus,
        "persistency litmus battery: run the corpus against every "
        "registered scheme and gate each against its declared persistency "
        "model",
        smoke="CI gate: smoke corpus, all schemes plus mutants; non-zero "
              "exit on any conformance failure or uncaught mutant",
        replay=(replay_litmus, "litmus counterexample artifact"),
        schemes="every registered scheme", entries=8,
        out="the JSON agreement-matrix report",
    )
    p_litmus.add_argument("--tests", default=None,
                          help="comma-separated corpus-test subset "
                               "(default: the full corpus)")
    p_litmus.add_argument("--no-mutants", action="store_true",
                          help="skip the checker mutants")
    p_litmus.add_argument("--no-minimize", action="store_true",
                          help="skip ddmin counterexample minimization")
    p_litmus.add_argument("--cex-dir", default=None, metavar="DIR",
                          help="write minimized counterexample artifacts "
                               "into DIR")

    p_opt = _gate_parser(
        sub, gate_opt,
        "persist optimizer: run the flush-elision / fence-weakening / "
        "persist-coalescing pass pipeline over a workload's IR program, "
        "audited per removal and re-verified against the crash checker "
        "and litmus models",
        smoke="CI gate: elision grid over every workload x scheme "
              "(audited, durable images compared), checker + litmus "
              "re-verification, and the opt-drop-epoch-fence mutant; "
              "non-zero exit on any failure",
        replay=(replay_opt, "repro.optreport/v1 compare artifact"),
        schemes="every registered scheme; --compare only",
        size=(2, 6, 128), entries=8, seed=(11, "workload seed"),
        jobs=" for --compare; plugin schemes need --jobs 1",
        out="the repro.optreport/v1 report (kind cell, compare or smoke)",
    )
    p_opt.add_argument("--compare", action="store_true",
                       help="fig7-style grid: naive instrumentation vs "
                            "optimized, cycles / NVMM writes / fence "
                            "stalls per (workload, scheme)")
    p_opt.add_argument("--workload", default="hashmap",
                       help="workload for the single-cell mode")
    p_opt.add_argument("--scheme", default=DEFAULT_SCHEME,
                       help="scheme for the single-cell mode")
    p_opt.add_argument("--workloads", default=None,
                       help="comma-separated workload subset for --compare "
                            "(default: all)")
    p_opt.add_argument("--save-program", default=None, metavar="PATH",
                       help="write the optimized IR program (provenance "
                            "preserved) as a trace file")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
