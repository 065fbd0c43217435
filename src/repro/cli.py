"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``     — simulate one workload under one scheme and print the stats.
* ``compare`` — run every scheme on one workload, normalized to eADR.
* ``profile`` — run with full observability on and print a profile report.
* ``crash``   — crash-sweep a workload under a scheme and report recovery.
* ``energy``  — print the draining-cost and battery-sizing tables.
* ``table1``  — print the qualitative scheme comparison.
* ``trace``   — generate a workload trace and save it to a file.
* ``traffic`` (alias ``serve``) — request-driven serving: sweep offered
  load across schemes and report the throughput-vs-load curve with
  p50/p99/p999 request latency per scheme (``repro.traffic/v2`` JSON
  via ``--out``).
* ``drill``   — crash-recovery drills: crash the traffic frontend at
  seeded op visits, recover, and account for every request; reports
  RPO/RTO per scheme (``repro.drill/v1``) and exits non-zero if a
  battery-domain scheme loses an acked request.
* ``bench``   — time the fixed perf smoke suite and write ``BENCH_<rev>.json``.
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
    python -m repro crash --workload hashmap --scheme none --sample 50
    python -m repro energy
    python -m repro trace --workload rtree --out rtree.trace
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
import os
import sys
from typing import List, Optional

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
from repro.core.recovery import check_prefix_consistency
from repro.energy import battery, model
from repro.energy.platforms import MOBILE, SERVER
from repro.ioutil import atomic_write_json
from repro.obs.bus import NULL_BUS, EventBus, EventRecorder
from repro.sim.system import SYSTEM_MODES
from repro.sim.tracefile import save_trace
from repro.workloads.base import WORKLOAD_NAMES, WorkloadSpec, registry


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
    workload = registry(config.mem, spec)[args.workload]
    trace = workload.build()
    bus, recorder = _observability(args)
    system = build_system(args.scheme, entries=args.entries, config=config,
                          options=RunOptions(bus=bus, mode=args.mode))
    workload.seed_media(system.nvmm_media)
    result = system.run(trace, finalize=not args.no_finalize)
    stats = result.stats
    _export_events(recorder, args.events, args.trace_out)
    if args.json:
        if args.out:
            from repro.ioutil import atomic_write_text

            atomic_write_text(args.out, stats.to_json() + "\n")
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(stats.to_json())
        return 0
    rows = [(k, v) for k, v in stats.summary().items()]
    rows.append(("steady_state_nvmm_writes", steady_state_nvmm_writes(system)))
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


def cmd_profile(args) -> int:
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
    print(report.render())
    if not report.ok:
        print("error: event log does not reconcile with SimStats",
              file=sys.stderr)
        return 1
    return 0


def cmd_crash(args) -> int:
    from repro.check.explore import sample_points, sweep
    from repro.check.mutants import build_crash_system
    from repro.check.schedule import SITE_OP, CrashSchedule

    config = default_sim_config()
    spec = _spec(args)
    workload = registry(config.mem, spec)[args.workload]
    trace = workload.build()
    structural = workload.make_checker()
    points = sample_points(trace.total_ops(), args.sample, args.seed)

    inconsistent = []

    def observe(visit) -> bool:
        ok, violations = (True, [])
        if structural is not None:
            ok, violations = structural(visit, visit)
        prefix = check_prefix_consistency(
            visit.nvmm_media, visit.committed_persists
        )
        if not (ok and prefix.consistent):
            inconsistent.append(
                (visit.point, list(violations) + prefix.violations))
        return visit.point == points[-1]

    if points:
        # One run; each visit's image is what a crash there would leave.
        system = build_crash_system(
            args.scheme, entries=args.entries, config=config,
            crash_schedule=CrashSchedule(sites=(SITE_OP,)),
            seed_words=workload.initial_words,
        )
        sweep(system, trace, observe, points)
    bad = len(inconsistent)
    print(f"{args.workload} under {args.scheme}: {len(points)} crash points, "
          f"{len(points) - bad} consistent, {bad} inconsistent")
    for crash_op, violations in inconsistent[: args.show]:
        print(f"  crash after op {crash_op}: {violations[0]}")
    return 0 if not inconsistent else 1


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


def cmd_bench(args) -> int:
    # Imported here so the (slow-ish) bench module does not tax every other
    # CLI invocation.
    from repro.analysis.batch import decide_jobs
    from repro.analysis.bench import run_bench, run_smoke, write_bench

    if args.smoke:
        report = run_smoke()
        for cell in report["cells"]:
            status = "ok" if cell["analytical_ok"] else "FAIL"
            errs = ", ".join(f"{k}={v:.2%}" for k, v in cell["errors"].items())
            print(f"  {cell['workload']:>8s}/{cell['scheme']:<5s} "
                  f"analytical=({errs}) {status}")
        if not report["ok"]:
            print("bench smoke FAILED: analytical estimate out of tolerance",
                  file=sys.stderr)
            return 1
        print("bench smoke ok")
        return 0

    try:
        # Resolve --jobs/REPRO_JOBS up front: fail before any suite runs,
        # and record the concrete worker count in the report.
        jobs = decide_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.dirname(args.out) if args.out else ""
    if out_dir and not os.path.isdir(out_dir):
        # Fail before spending seconds on suites whose report can't be saved.
        print(f"error: output directory {out_dir!r} does not exist",
              file=sys.stderr)
        return 2
    report = run_bench(jobs=jobs)
    path = write_bench(report, args.out)
    rows = [
        (name, f"{suite['wall_s']:.3f}", f"{suite['ops']:,}",
         f"{suite['ops_per_sec']:,.0f}" if suite["ops_per_sec"] else "-")
        for name, suite in report["suites"].items()
    ]
    print(render_table(
        ["suite", "wall (s)", "ops", "ops/sec"], rows,
        title=f"bench @ {report['revision']} (python {report['python']})",
    ))
    engine = report["suites"]["engine_tso"]
    print(f"analytical within tolerance: {engine['analytical_ok']}")
    print(f"wrote {path}")
    return 0


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
        arrival=args.arrival,
        offered_load=offered_load,
        clients=args.clients,
        think_cycles=args.think,
        burst_every=args.burst_every,
        burst_len=args.burst_len,
        burst_factor=args.burst_factor,
        seed=args.seed,
    )


def cmd_traffic(args) -> int:
    # Imported here: the serving stack should not tax other commands.
    from repro.serve import render_curve, traffic_curve
    from repro.serve.loadgen import ARRIVAL_CLOSED

    if args.smoke:
        return _traffic_smoke()

    try:
        schemes = (
            [canonical_name(s) for s in args.schemes.split(",")]
            if args.schemes else list(TRAFFIC_DEFAULT_SCHEMES)
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    loads = (
        [float(x) for x in args.loads.split(",")]
        if args.loads else list(TRAFFIC_DEFAULT_LOADS)
    )
    if args.arrival == ARRIVAL_CLOSED:
        # Closed-loop rate is set by clients/think time, not offered load:
        # one point per scheme.
        loads = loads[:1]
    spec = _traffic_spec(args, loads[0])
    report = traffic_curve(schemes, spec, loads, entries=args.entries)
    if args.out:
        import json

        from repro.ioutil import atomic_write_text

        atomic_write_text(args.out, json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print(render_curve(report))
    return 0


def _traffic_smoke() -> int:
    """CI gate: a tiny fixed sweep must produce a schema-valid report with
    non-empty latency percentiles for every scheme point."""
    from repro.serve import (
        TrafficSpec,
        render_curve,
        traffic_curve,
        validate_traffic_report,
    )

    schemes = list(TRAFFIC_DEFAULT_SCHEMES)
    spec = TrafficSpec(requests=40, seed=7)
    report = traffic_curve(schemes, spec, [1.0, 4.0], entries=16)
    try:
        validate_traffic_report(report)
    except ValueError as exc:
        print(f"traffic smoke FAILED: {exc}", file=sys.stderr)
        return 1
    failures = []
    for point in report["points"]:
        label = f"{point['scheme']}@{point['offered_load']}"
        if point["completed"] != point["requests"]:
            failures.append(f"{label}: only {point['completed']}/"
                            f"{point['requests']} requests completed")
        if point["latency"]["count"] == 0:
            failures.append(f"{label}: empty latency histogram")
        if not all(point["latency"][p] > 0 for p in ("p50", "p99", "p999")):
            failures.append(f"{label}: zero latency percentile")
    for failure in failures:
        print(f"traffic smoke FAILED: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(render_curve(report))
    print("traffic smoke ok")
    return 0


def cmd_drill(args) -> int:
    # Imported here: the serving stack should not tax other commands.
    from repro.serve.drill import run_drills, smoke_drill
    from repro.serve.loadgen import TrafficSpec

    def progress(done: int, total: int, label: str) -> None:
        if sys.stderr.isatty():
            print(f"\r  {done}/{total} {label:<32}", end="", file=sys.stderr,
                  flush=True)
            if done == total:
                print(file=sys.stderr)

    try:
        if args.smoke:
            report = smoke_drill(seed=args.seed, progress=progress)
        else:
            schemes = (
                [canonical_name(s) for s in args.schemes.split(",")]
                if args.schemes else list(SCHEMES)
            )
            loads = (
                [float(x) for x in args.loads.split(",")]
                if args.loads else [2.0]
            )
            spec = TrafficSpec(requests=args.requests, arrival=args.arrival,
                               offered_load=loads[0], seed=args.seed + 42)
            report = run_drills(
                schemes, spec, loads, crashes=args.crashes, seed=args.seed,
                entries=args.entries, mutants=tuple(
                    m.strip() for m in args.mutants.split(",") if m.strip()
                ) if args.mutants else (), progress=progress,
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = []
    for group in ("per_scheme", "per_mutant"):
        for name, block in report[group].items():
            rows.append((
                name, block["units"], block["acked_lost_total"],
                block["acked_lost_bytes"], block["rto_cycles"]["p50"],
                block["rto_cycles"]["p99"], block["contract_violations"],
            ))
    print(render_table(
        ["scheme", "units", "acked-lost", "lost-bytes", "rto-p50", "rto-p99",
         "contract-viol"],
        rows,
        title=f"crash-recovery drills ({len(report['units'])} units, "
              f"seed {report['seed']})",
    ))
    if args.out:
        print(f"wrote {atomic_write_json(args.out, report)}")

    failures = []
    domain = report["battery_domain"]
    if domain["acked_lost"]:
        failures.append(
            f"battery-domain scheme lost {domain['acked_lost']} acked "
            f"request(s) — RPO > 0 breaks the paper's contract"
        )
    for name, hit in domain["mutants_caught"].items():
        if not hit:
            failures.append(
                f"mutant {name!r} escaped the drill: no acked loss and no "
                f"contract violation at any crash point"
            )
    for unit in report["units"]:
        rec = unit["recovery"]
        if rec["restart_completed"] != rec["restart_requests"]:
            failures.append(
                f"{unit['mutant'] or unit['scheme']} @ visit "
                f"{unit['crash_visit']}: restart served "
                f"{rec['restart_completed']}/{rec['restart_requests']} "
                f"unresolved requests"
            )
    for failure in failures:
        print(f"drill FAILED: {failure}", file=sys.stderr)
    if failures:
        return 1
    if args.smoke:
        print("drill smoke ok")
    return 0


def cmd_faults(args) -> int:
    # Imported here: the fault-campaign stack (batch runner, recovery
    # checkers) should not tax the other commands' startup.
    from repro.analysis.batch import BatchPolicy, decide_jobs
    from repro.fault.campaign import (
        SMOKE_WORKLOADS,
        canonical_plans,
        run_campaign,
        smoke_campaign,
    )
    from repro.fault.plan import BATTERY_DOMAIN_SITES, random_plan

    try:
        jobs = decide_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        if sys.stderr.isatty():
            print(f"\r  {done}/{total} units", end="", file=sys.stderr,
                  flush=True)
            if done == total:
                print(file=sys.stderr)

    if args.smoke:
        report = smoke_campaign(seed=args.seed, jobs=jobs, progress=progress)
    else:
        schemes = (
            [s.strip() for s in args.schemes.split(",") if s.strip()]
            if args.schemes else list(SCHEMES)
        )
        workloads = (
            [w.strip() for w in args.workloads.split(",") if w.strip()]
            if args.workloads else list(SMOKE_WORKLOADS)
        )
        resolved, unknown = [], []
        for s in schemes:
            try:
                resolved.append(canonical_name(s))
            except ValueError:
                unknown.append(s)
        schemes = resolved
        unknown += [w for w in workloads if w not in WORKLOAD_NAMES]
        if unknown:
            print(f"error: unknown scheme/workload: {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
        plans = canonical_plans() + [
            random_plan(args.seed * 1000 + i, sites=BATTERY_DOMAIN_SITES,
                        label=f"random-battery-{i}")
            for i in range(args.random_plans)
        ]
        spec = WorkloadSpec(threads=args.threads, ops=args.ops,
                            elements=args.elements, seed=args.seed + 42)
        policy = BatchPolicy(
            timeout=args.timeout, retries=args.retries,
            checkpoint=args.checkpoint, on_error="raise", seed=args.seed,
        )
        report = run_campaign(
            schemes, workloads, plans, spec,
            seed=args.seed, crashes_per_cell=args.crashes,
            entries=args.entries, jobs=jobs, policy=policy,
            progress=progress,
        )

    print(render_table(
        ["outcome", "units"],
        [(name, count) for name, count in sorted(report["summary"].items())],
        title=f"fault campaign ({len(report['units'])} units, "
              f"seed {report['seed']})",
    ))
    domain = report["battery_domain"]
    print(f"battery-domain units: {domain['units']}, "
          f"silent corruption: {domain['silent_corruption']}")
    if args.out:
        print(f"wrote {atomic_write_json(args.out, report)}")
    if domain["silent_corruption"]:
        print("error: battery-domain fault produced SILENT corruption",
              file=sys.stderr)
        return 1
    return 0


def cmd_check(args) -> int:
    # Imported here: the model-checker stack (batch runner, oracles,
    # minimizer) should not tax the other commands' startup.
    from repro.analysis.batch import BatchPolicy
    from repro.check.checker import (
        CheckUnit,
        publish_report,
        run_check_unit,
        smoke_check,
    )
    from repro.check.mutants import MUTANTS

    def progress(done: int, total: int) -> None:
        if sys.stderr.isatty():
            print(f"\r  {done}/{total} shards", end="", file=sys.stderr,
                  flush=True)
            if done == total:
                print(file=sys.stderr)

    if args.replay:
        from repro.check.minimize import replay_artifact
        from repro.ioutil import ArtifactError

        try:
            out = replay_artifact(args.replay)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = "REPRODUCED" if out["reproduced"] else "did NOT reproduce"
        print(f"{args.replay}: {status} at {out['site']}")
        for v in out["violations"][:5]:
            print(f"  {v}")
        return 0 if out["reproduced"] else 1

    if args.smoke:
        out = smoke_check(progress=progress)
        print(render_table(
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
        ))
        for failure in out["failures"]:
            print(f"error: {failure}", file=sys.stderr)
        if args.out:
            print(f"wrote {atomic_write_json(args.out, out)}")
        return 0 if out["ok"] else 1

    try:
        args.scheme = canonical_name(args.scheme)
    except ValueError:
        print(f"error: unknown scheme {args.scheme!r}", file=sys.stderr)
        return 2
    if args.mutant is not None and args.mutant not in MUTANTS:
        print(f"error: unknown mutant {args.mutant!r}; valid: "
              f"{', '.join(sorted(MUTANTS))}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    unit = CheckUnit(
        scheme=args.scheme,
        workload=args.workload,
        spec=WorkloadSpec(threads=args.threads, ops=args.ops,
                          elements=args.elements, seed=args.seed),
        entries=args.entries,
        mutant=args.mutant,
        prune=not args.no_prune,
        max_points=args.max_points,
        sample_seed=args.seed,
    )
    policy = BatchPolicy(
        retries=args.retries, checkpoint=args.checkpoint, on_error="raise",
        seed=args.seed,
    )
    report, verdicts = run_check_unit(unit, policy=policy, progress=progress)
    publish_report(report)
    print(render_table(
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
    ))
    for v in report["violations"][:args.show]:
        print(f"  point {v['point']} ({v['site']}, op {v['crash_op']}): "
              f"{v['violations'][0]}")

    if report["num_violations"] and not args.no_minimize:
        from repro.check.minimize import (
            minimize_counterexample,
            write_counterexample,
        )

        first_bad = next(v for v in verdicts if not v.consistent)
        cex = minimize_counterexample(unit, first_bad)
        print(f"minimized to {cex.num_ops} ops "
              f"({cex.tests_run} oracle calls); crash at {cex.site}:")
        for tid, op in cex.ops:
            print(f"  t{tid}: {op.kind.value} addr=0x{op.addr:x} "
                  f"value=0x{op.value:x}")
        if args.cex_out:
            print(f"wrote {write_counterexample(cex, args.cex_out)}")

    if args.out:
        print(f"wrote {atomic_write_json(args.out, report)}")
    return 1 if report["num_violations"] else 0


def cmd_litmus(args) -> int:
    # Imported here: the litmus battery rides on the model-checker stack
    # and should not tax the other commands' startup.
    from repro.analysis.batch import BatchPolicy, decide_jobs
    from repro.litmus.corpus import corpus
    from repro.litmus.runner import (
        battery_failures,
        publish_litmus_report,
        render_matrix,
        replay_counterexample,
        run_battery,
        smoke_battery,
    )

    try:
        jobs = decide_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        if sys.stderr.isatty():
            print(f"\r  {done}/{total} cells", end="", file=sys.stderr,
                  flush=True)
            if done == total:
                print(file=sys.stderr)

    if args.replay:
        from repro.ioutil import ArtifactError

        try:
            out = replay_counterexample(args.replay)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = "REPRODUCED" if out["reproduced"] else "did NOT reproduce"
        art = out["artifact"]
        target = art["mutant"] or art["scheme"]
        print(f"{args.replay}: {status} — {target} observing "
              f"{tuple(out['state'])} (forbidden under {art['model']!r}) "
              f"on the reduced test")
        return 0 if out["reproduced"] else 1

    if args.smoke:
        report, failures = smoke_battery(jobs=jobs, progress=progress)
        print(render_matrix(report))
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        if args.out:
            print(f"wrote {atomic_write_json(args.out, report)}")
        return 1 if failures else 0

    schemes = None
    if args.schemes:
        try:
            schemes = [canonical_name(s) for s in args.schemes.split(",")]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    tests = None
    if args.tests:
        try:
            tests = corpus(args.tests.split(","))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    policy = BatchPolicy(
        timeout=args.timeout, retries=args.retries,
        checkpoint=args.checkpoint, on_error="raise", seed=args.seed,
    )
    report = run_battery(
        schemes=schemes, tests=tests, entries=args.entries,
        include_mutants=not args.no_mutants, jobs=jobs, policy=policy,
        progress=progress, minimize=not args.no_minimize,
        cex_dir=args.cex_dir,
    )
    publish_litmus_report(report)
    print(render_matrix(report))
    failures = battery_failures(report)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    for cex in report["counterexamples"]:
        target = cex["mutant"] or cex["scheme"]
        ops = sum(len(p) for p in cex["test"]["programs"])
        where = f" -> {cex['path']}" if "path" in cex else ""
        print(f"counterexample: {target} on {cex['original_test']} "
              f"minimized to {ops} ops, forbidden state "
              f"{tuple(cex['forbidden_state'])}{where}")
    if args.out:
        print(f"wrote {atomic_write_json(args.out, report)}")
    return 1 if failures else 0


def cmd_opt(args) -> int:
    # Imported here: the optimizer stack (IR, passes, verifier) rides on
    # the checker and litmus layers and should not tax other commands.
    from repro.analysis.batch import decide_jobs
    from repro.opt import (
        opt_compare,
        render_compare_table,
        replay_report,
        run_pipeline,
        smoke_opt,
        verify_workload_cell,
    )

    try:
        jobs = decide_jobs(args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def progress(done: int, total: int) -> None:
        if sys.stderr.isatty():
            print(f"\r  {done}/{total} cells", end="", file=sys.stderr,
                  flush=True)
            if done == total:
                print(file=sys.stderr)

    if args.replay:
        from repro.ioutil import ArtifactError

        try:
            out = replay_report(args.replay, jobs=jobs)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        status = ("REPRODUCED" if out["reproduced"]
                  else "did NOT reproduce")
        print(f"{args.replay}: {status} "
              f"({len(out['artifact']['rows'])} cells)")
        for line in out["mismatches"][:10]:
            print(f"  {line}", file=sys.stderr)
        return 0 if out["reproduced"] else 1

    if args.smoke:
        out = smoke_opt(jobs=jobs, progress=progress)
        print(render_table(
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
        ))
        caught = ", ".join(s for s, c in out["mutant"]["caught"].items()
                           if c)
        print(f"mutant {out['mutant']['pass']}: caught under [{caught}]; "
              f"{len(out['checker_cells'])} checker cells, "
              f"{len(out['litmus_cells'])} litmus cells re-gated")
        for failure in out["failures"]:
            print(f"error: {failure}", file=sys.stderr)
        if args.out:
            print(f"wrote {atomic_write_json(args.out, out)}")
        return 0 if out["ok"] else 1

    schemes = None
    if args.schemes:
        try:
            schemes = [canonical_name(s) for s in args.schemes.split(",")]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    workloads = None
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",")]
        unknown = [w for w in workloads if w not in WORKLOAD_NAMES]
        if unknown:
            print(f"error: unknown workloads {unknown}", file=sys.stderr)
            return 2

    if args.compare:
        report = opt_compare(
            workloads=workloads, schemes=schemes, spec=_spec(args),
            entries=args.entries, jobs=jobs, progress=progress,
        )
        print(render_compare_table(report))
        bad = [r for r in report["rows"]
               if not (r["audit_ok"] and r["image_ok"])]
        for r in bad:
            print(f"error: {r['workload']} x {r['scheme']} failed "
                  f"verification", file=sys.stderr)
        if args.out:
            print(f"wrote {atomic_write_json(args.out, report)}")
        return 1 if bad else 0

    # Single cell: optimize one workload under one scheme, verified.
    try:
        args.scheme = canonical_name(args.scheme)
    except ValueError:
        print(f"error: unknown scheme {args.scheme!r}", file=sys.stderr)
        return 2
    cell = verify_workload_cell(
        args.workload, args.scheme, spec=_spec(args), entries=args.entries,
    )
    print(render_table(
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
        title=f"persist optimizer: {args.workload} under {args.scheme}",
    ))
    for failure in cell["failures"]:
        print(f"error: {failure}", file=sys.stderr)
    if args.save_program:
        from repro.opt import instrument_naive
        from repro.sim.tracefile import save_program
        from repro.workloads.base import make_workload

        cfg = default_sim_config()
        wl = make_workload(args.workload, cfg.mem, _spec(args))
        result = run_pipeline(
            instrument_naive(wl.build_program()), args.scheme,
            block_size=cfg.block_size,
        )
        count = save_program(result.optimized, args.save_program)
        print(f"wrote {count:,} optimized ops to {args.save_program}")
    return 0 if cell["ok"] else 1


def cmd_trace(args) -> int:
    config = default_sim_config()
    spec = _spec(args)
    workload = registry(config.mem, spec)[args.workload]
    trace = workload.build()
    count = save_trace(trace, args.out)
    print(f"wrote {count:,} ops ({trace.num_threads} threads) to {args.out}")
    return 0


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
    p_run.add_argument("--mode", choices=SYSTEM_MODES, default="sim",
                       help="sim runs the discrete engine, analytical uses "
                            "the closed-form model")
    p_run.add_argument("--no-finalize", action="store_true",
                       help="measure the execution window only")
    p_run.add_argument("--json", action="store_true",
                       help="dump the full stats as JSON "
                            "(repro.simstats/v1 schema)")
    p_run.add_argument("--out", default=None, metavar="PATH",
                       help="with --json: write the JSON atomically to PATH "
                            "instead of stdout")
    _add_observability_args(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="all schemes on one workload")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--entries", type=int, default=32)
    _add_observability_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_prof = sub.add_parser(
        "profile",
        help="run one workload with full observability and print the report",
    )
    _add_workload_args(p_prof)
    p_prof.add_argument("--scheme", choices=sorted(scheme_names(include_aliases=True)),
                       default=DEFAULT_SCHEME)
    p_prof.add_argument("--entries", type=int, default=32, help="bbPB entries")
    p_prof.add_argument("--cprofile", action="store_true",
                        help="include a cProfile hotspot table")
    p_prof.add_argument("--smoke", action="store_true",
                        help="fixed tiny run for CI; exits non-zero if the "
                             "event log and SimStats disagree")
    p_prof.set_defaults(func=cmd_profile)

    p_crash = sub.add_parser("crash", help="crash-sweep a workload")
    _add_workload_args(p_crash)
    p_crash.add_argument("--scheme", choices=sorted(scheme_names(include_aliases=True)),
                       default=DEFAULT_SCHEME)
    p_crash.add_argument("--entries", type=int, default=32)
    p_crash.add_argument("--sample", type=int, default=40,
                         help="number of crash points to test")
    p_crash.add_argument("--show", type=int, default=3,
                         help="inconsistent outcomes to print")
    p_crash.set_defaults(func=cmd_crash)

    p_energy = sub.add_parser("energy", help="draining cost & battery tables")
    p_energy.set_defaults(func=cmd_energy)

    p_t1 = sub.add_parser("table1", help="qualitative scheme comparison")
    p_t1.set_defaults(func=cmd_table1)

    p_trace = sub.add_parser("trace", help="generate and save a workload trace")
    _add_workload_args(p_trace)
    p_trace.add_argument("--out", required=True, help="output trace file")
    p_trace.set_defaults(func=cmd_trace)

    p_traffic = sub.add_parser(
        "traffic", aliases=["serve"],
        help="request-driven serving: throughput-vs-offered-load curve "
             "with p50/p99/p999 per scheme",
    )
    p_traffic.add_argument("--schemes", default=None, metavar="A,B,...",
                           help="comma-separated schemes (default: "
                                f"{','.join(TRAFFIC_DEFAULT_SCHEMES)})")
    p_traffic.add_argument("--loads", default=None, metavar="L1,L2,...",
                           help="offered loads in requests/kilocycle "
                                "(default: "
                                + ",".join(str(x)
                                           for x in TRAFFIC_DEFAULT_LOADS)
                                + ")")
    p_traffic.add_argument("--requests", type=int, default=150,
                           help="requests per measured point")
    p_traffic.add_argument("--arrival", choices=["open", "closed"],
                           default="open",
                           help="open loop (Poisson arrivals) or closed "
                                "loop (clients + think time)")
    p_traffic.add_argument("--clients", type=int, default=8,
                           help="closed loop: client population")
    p_traffic.add_argument("--think", type=int, default=500,
                           help="closed loop: mean think cycles")
    p_traffic.add_argument("--tenants", type=int, default=2,
                           help="tenant namespaces")
    p_traffic.add_argument("--keys", type=int, default=512,
                           help="keyspace size per tenant")
    p_traffic.add_argument("--zipf", type=float, default=0.9,
                           help="Zipf skew theta in [0,1)")
    p_traffic.add_argument("--read", type=float, default=0.70)
    p_traffic.add_argument("--update", type=float, default=0.25)
    p_traffic.add_argument("--insert", type=float, default=0.05)
    p_traffic.add_argument("--burst-every", type=int, default=0,
                           help="open loop: burst period in cycles (0=off)")
    p_traffic.add_argument("--burst-len", type=int, default=0,
                           help="open loop: burst length in cycles")
    p_traffic.add_argument("--burst-factor", type=float, default=4.0,
                           help="open loop: burst rate multiplier")
    p_traffic.add_argument("--entries", type=int, default=32,
                           help="bbPB entries")
    p_traffic.add_argument("--seed", type=int, default=42)
    p_traffic.add_argument("--out", default=None, metavar="PATH",
                           help="write the repro.traffic/v2 report as JSON")
    p_traffic.add_argument("--smoke", action="store_true",
                           help="CI gate: tiny fixed sweep; exits non-zero "
                                "on schema/percentile failure")
    p_traffic.set_defaults(func=cmd_traffic)

    p_bench = sub.add_parser(
        "bench", help="time the fixed perf smoke suite, write BENCH_<rev>.json"
    )
    p_bench.add_argument("--out", default=None,
                         help="output path (default: BENCH_<rev>.json)")
    p_bench.add_argument("--jobs", type=int, default=None,
                         help="workers for the batch suite (default: REPRO_JOBS/CPUs)")
    p_bench.add_argument("--smoke", action="store_true",
                         help="CI gate: analytical tolerance check on a "
                              "tiny grid; exits non-zero when an estimate "
                              "leaves the band (no timing)")
    p_bench.set_defaults(func=cmd_bench)

    p_drill = sub.add_parser(
        "drill",
        help="crash-recovery drills over the traffic frontend: seeded "
             "mid-traffic crashes, per-request durability accounting, "
             "RPO/RTO per scheme",
    )
    p_drill.add_argument("--smoke", action="store_true",
                         help="CI gate: every scheme x 3 shared crash "
                              "points + the bbb-delayed-alloc mutant; "
                              "exits non-zero if a battery-domain scheme "
                              "loses an acked request or the mutant "
                              "escapes")
    p_drill.add_argument("--schemes", default=None, metavar="A,B,...",
                         help="comma-separated schemes (default: all)")
    p_drill.add_argument("--loads", default=None, metavar="L1,L2,...",
                         help="offered loads in requests/kilocycle "
                              "(default: 2.0)")
    p_drill.add_argument("--crashes", type=int, default=3,
                         help="seeded crash points per load (shared across "
                              "schemes)")
    p_drill.add_argument("--requests", type=int, default=60,
                         help="requests per drilled run")
    p_drill.add_argument("--arrival", choices=["open", "closed"],
                         default="open")
    p_drill.add_argument("--mutants", default=None, metavar="A,B,...",
                         help="deliberately broken variants to drill "
                              "(see repro.check.mutants.MUTANTS)")
    p_drill.add_argument("--entries", type=int, default=16,
                         help="bbPB entries")
    p_drill.add_argument("--seed", type=int, default=7,
                         help="crash-point seed (traffic seed derives from "
                              "it)")
    p_drill.add_argument("--out", default=None, metavar="PATH",
                         help="write the repro.drill/v1 report as JSON")
    p_drill.set_defaults(func=cmd_drill)

    p_faults = sub.add_parser(
        "faults",
        help="seeded fault-injection campaign (scheme x workload x plan)",
    )
    p_faults.add_argument("--smoke", action="store_true",
                          help="small fixed campaign for CI; exits non-zero "
                               "on battery-domain silent corruption")
    p_faults.add_argument("--schemes", default=None, metavar="A,B,...",
                          help="comma-separated schemes (default: all)")
    p_faults.add_argument("--workloads", default=None, metavar="A,B,...",
                          help="comma-separated workloads "
                               "(default: hashmap,ctree,swapNC)")
    p_faults.add_argument("--random-plans", type=int, default=4,
                          help="extra random battery-domain plans beyond "
                               "the canonical set")
    p_faults.add_argument("--crashes", type=int, default=1,
                          help="crash points per (workload, plan) cell")
    p_faults.add_argument("--seed", type=int, default=0,
                          help="campaign seed (plans, crash points, backoff)")
    p_faults.add_argument("--entries", type=int, default=8, help="bbPB entries")
    p_faults.add_argument("--threads", type=int, default=2)
    p_faults.add_argument("--ops", type=int, default=40,
                          help="operations per thread")
    p_faults.add_argument("--elements", type=int, default=512,
                          help="structure size")
    p_faults.add_argument("--jobs", type=int, default=None,
                          help="workers (default: REPRO_JOBS/CPUs)")
    p_faults.add_argument("--timeout", type=float, default=None,
                          help="per-unit timeout in seconds")
    p_faults.add_argument("--retries", type=int, default=1,
                          help="retries per unit (timeouts & crashes)")
    p_faults.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="JSONL checkpoint; rerun with the same path "
                               "to resume an interrupted campaign")
    p_faults.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON report atomically to PATH")
    p_faults.set_defaults(func=cmd_faults)

    p_check = sub.add_parser(
        "check",
        help="crash-consistency model checker: enumerate micro-step crash "
             "points, check each recovered image against the scheme's "
             "contract, the eADR golden differential and workload "
             "invariants, and minimize any counterexample",
    )
    p_check.add_argument("--smoke", action="store_true",
                         help="CI gate: exhaustively check one small "
                              "workload per scheme, assert pruned == "
                              "unpruned verdicts, and assert the broken "
                              "mutant is caught and minimized")
    p_check.add_argument("--replay", default=None, metavar="PATH",
                         help="replay a counterexample artifact and exit")
    p_check.add_argument("--scheme", default=DEFAULT_SCHEME,
                         help="scheme to check")
    p_check.add_argument("--mutant", default=None,
                         help="run a deliberately broken scheme variant "
                              "(see repro.check.mutants.MUTANTS)")
    p_check.add_argument("--workload", default="hashmap")
    p_check.add_argument("--threads", type=int, default=2)
    p_check.add_argument("--ops", type=int, default=6,
                         help="workload operations per thread")
    p_check.add_argument("--elements", type=int, default=128,
                         help="workload element count")
    p_check.add_argument("--seed", type=int, default=11,
                         help="workload / sampling / batch seed")
    p_check.add_argument("--entries", type=int, default=8, help="bbPB entries")
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
    p_check.add_argument("--retries", type=int, default=1,
                         help="retries of the unit's sweep after an error")
    p_check.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="JSONL checkpoint; rerun with the same path "
                              "to resume an interrupted check")
    p_check.add_argument("--out", default=None, metavar="PATH",
                         help="write the JSON report atomically to PATH "
                              "(with --smoke: {ok, failures, reports})")
    p_check.set_defaults(func=cmd_check)

    p_litmus = sub.add_parser(
        "litmus",
        help="persistency litmus battery: run the corpus against every "
             "registered scheme and gate each against its declared "
             "persistency model",
    )
    p_litmus.add_argument("--smoke", action="store_true",
                          help="CI gate: smoke corpus, all schemes plus "
                               "mutants; non-zero exit on any conformance "
                               "failure or uncaught mutant")
    p_litmus.add_argument("--replay", default=None, metavar="PATH",
                          help="replay a litmus counterexample artifact "
                               "and exit")
    p_litmus.add_argument("--schemes", default=None,
                          help="comma-separated scheme subset "
                               "(default: every registered scheme)")
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
    p_litmus.add_argument("--entries", type=int, default=8,
                          help="persist-buffer entries")
    p_litmus.add_argument("--seed", type=int, default=11,
                          help="batch retry/backoff seed")
    p_litmus.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS or "
                               "cores); plugin schemes need --jobs 1")
    p_litmus.add_argument("--timeout", type=float, default=None,
                          help="seconds per cell before retry")
    p_litmus.add_argument("--retries", type=int, default=1,
                          help="retries per cell (timeouts & crashes)")
    p_litmus.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="JSONL checkpoint; rerun with the same path "
                               "to resume an interrupted battery")
    p_litmus.add_argument("--out", default=None, metavar="PATH",
                          help="write the JSON agreement-matrix report "
                               "atomically to PATH")
    p_litmus.set_defaults(func=cmd_litmus)

    p_opt = sub.add_parser(
        "opt",
        help="persist optimizer: run the flush-elision / fence-weakening "
             "/ persist-coalescing pass pipeline over a workload's IR "
             "program, audited per removal and re-verified against the "
             "crash checker and litmus models",
    )
    p_opt.add_argument("--smoke", action="store_true",
                       help="CI gate: elision grid over every workload x "
                            "scheme (audited, durable images compared), "
                            "checker + litmus re-verification, and the "
                            "opt-drop-epoch-fence mutant; non-zero exit "
                            "on any failure")
    p_opt.add_argument("--compare", action="store_true",
                       help="fig7-style grid: naive instrumentation vs "
                            "optimized, cycles / NVMM writes / fence "
                            "stalls per (workload, scheme)")
    p_opt.add_argument("--replay", default=None, metavar="PATH",
                       help="replay a repro.optreport/v1 compare artifact "
                            "and exit")
    p_opt.add_argument("--workload", default="hashmap",
                       help="workload for the single-cell mode")
    p_opt.add_argument("--scheme", default=DEFAULT_SCHEME,
                       help="scheme for the single-cell mode")
    p_opt.add_argument("--workloads", default=None,
                       help="comma-separated workload subset for --compare "
                            "(default: all)")
    p_opt.add_argument("--schemes", default=None,
                       help="comma-separated scheme subset for --compare "
                            "(default: every registered scheme)")
    p_opt.add_argument("--threads", type=int, default=2)
    p_opt.add_argument("--ops", type=int, default=6,
                       help="workload operations per thread")
    p_opt.add_argument("--elements", type=int, default=128,
                       help="workload element count")
    p_opt.add_argument("--seed", type=int, default=11,
                       help="workload seed")
    p_opt.add_argument("--entries", type=int, default=8,
                       help="persist-buffer entries")
    p_opt.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: REPRO_JOBS or "
                            "cores); plugin schemes need --jobs 1")
    p_opt.add_argument("--save-program", default=None, metavar="PATH",
                       help="write the optimized IR program (provenance "
                            "preserved) as a trace file")
    p_opt.add_argument("--out", default=None, metavar="PATH",
                       help="write the JSON report atomically to PATH")
    p_opt.set_defaults(func=cmd_opt)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
