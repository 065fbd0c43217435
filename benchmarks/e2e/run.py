#!/usr/bin/env python3
"""End-to-end benchmark of the BBB reproduction.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload grid_private --seed 42 \\
        --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 42        # all four workloads

One workload runs in this process.  Without ``--workload`` the four run
one after another, each in a fresh child process.  Everything is serial:
no pools, no threads, ``jobs=1``.

``--trace 0`` measures the end-to-end metrics.  It runs every cell
round-robin, once per round, until ``--seconds`` have passed (at least
three rounds); host-time metrics are medians over rounds per cell.  Set-up
(build every input from cold caches, then warm up on the first cell) is
timed five times, before and between the first rounds, and reported as
the median.

``--trace 1`` patches timing wrappers onto the layers (see
``layertrace.py``) and reports per-layer metrics.  It also writes
``out/trace_<workload>.json`` next to this file.

Output checks feed ``attempted``/``failed`` and the exit code:
a cell's fingerprint must repeat in every round (and traced runs must
match untraced ones), and each workload checks its own outputs (see
``workloads.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT_DIR = HERE / "out"

#: End-to-end metrics (name -> unit); every workload reports all of them.
END_TO_END: Dict[str, str] = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_cycles": "cycles",
    "nvmm_writes": "count",
    "bbb_vs_eadr_cycles": "ratio",
}

SETUP_REPEATS = 5
MIN_ROUNDS = 3

#: Layers that run in every workload.  Their self time is a per-layer
#: metric; the other layers report calls only, and their self time is in
#: the trace file.
TIMED_LAYERS = (
    "sim.engine", "mem.hierarchy", "mem.cache", "mem.coherence",
    "mem.storebuffer", "core.persistency", "core.bbpb", "mem.memctrl",
    "api.build_system",
)

#: Per-layer counts and ratios beside each layer's calls and self time.
LAYER_COUNTS: Dict[str, str] = {
    "sim.engine.ops_executed": "count",
    "sim.engine.private_fraction": "ratio",
    "mem.cache.l1_hit_ratio": "ratio",
    "mem.cache.llc_hit_ratio": "ratio",
    "mem.coherence.bbpb_moves": "count",
    "core.bbpb.allocations": "count",
    "core.bbpb.coalesce_ratio": "ratio",
    "core.bbpb.drains": "count",
    "core.bbpb.rejections": "count",
    "core.bbpb.stall_cycles": "cycles",
    "mem.memctrl.persist_latency_cycles": "cycles",
    "check.checker.ops_per_point": "ratio",
    "check.checker.prune_ratio": "ratio",
    "serve.kvservice.ops_per_request": "ratio",
    "serve.frontend.max_queue_depth": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


def load_program() -> None:
    """Import the program from this checkout's ``src`` (and this
    benchmark's modules from beside this file); exit non-zero when the
    program is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e: no program source at {SRC / 'repro'}")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def per_layer_units() -> Dict[str, str]:
    from layertrace import LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer in TIMED_LAYERS:
            units[f"{layer}.self_s"] = "s"
    units.update(LAYER_COUNTS)
    return units


# ----------------------------------------------------------------------
# Rounds and checks
# ----------------------------------------------------------------------

def run_rounds(cells, seconds: float, min_rounds: int, tracer=None,
               after_round: Optional[Callable[[], None]] = None):
    """Run every cell once per round, round-robin, until ``seconds`` have
    passed and at least ``min_rounds`` rounds are done.  Returns per-cell
    host times and outcomes, in round order.  ``after_round`` runs after
    each round, off the clock."""
    samples: Dict[str, List[float]] = {c.label: [] for c in cells}
    outcomes: Dict[str, list] = {c.label: [] for c in cells}
    start = time.perf_counter()
    rounds = 0
    while True:
        if rounds and after_round is not None:
            t0 = time.perf_counter()
            after_round()
            start += time.perf_counter() - t0
        for cell in cells:
            t0 = time.perf_counter()
            if tracer is None:
                out = cell.run()
            else:
                with tracer.entry("cell", cell.label):
                    out = cell.run()
            samples[cell.label].append(time.perf_counter() - t0)
            outcomes[cell.label].append(cell.outcome(out))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return samples, outcomes, rounds


def check_outcomes(outcomes, reference: Optional[Dict[str, str]] = None
                   ) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, failures)`` over every round.  A cell whose
    fingerprint differs from its reference (round 1, or the untraced run)
    fails as a whole."""
    attempted = failed = 0
    failures: List[str] = []
    for label, outs in outcomes.items():
        ref = reference[label] if reference else outs[0].fingerprint
        for i, out in enumerate(outs, 1):
            attempted += out.attempted
            failed += out.failed
            failures.extend(f"{label} round {i}: {f}" for f in out.failures)
            if out.fingerprint != ref:
                failed += out.attempted - out.failed
                failures.append(f"{label} round {i}: sim_digest differs "
                                f"from the reference run")
    return attempted, failed, failures


def sim_digest(first_round) -> str:
    return hashlib.sha256(
        "".join(o.fingerprint for o in first_round).encode()).hexdigest()


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, sizes) -> Dict:
    setup: List[float] = []

    def set_up():
        """Build every input from cold caches and warm up on the first
        cell; one set-up sample."""
        t0 = time.perf_counter()
        cells = workload.build(seed, sizes)
        cells[0].run()
        setup.append(time.perf_counter() - t0)
        return cells

    def more_set_up() -> None:
        if len(setup) < SETUP_REPEATS:
            set_up()

    # Set-up samples are spread between the first rounds, so one slow
    # phase of the host does not move all of them.
    cells = set_up()
    samples, outcomes, rounds = run_rounds(cells, seconds, MIN_ROUNDS,
                                           after_round=more_set_up)
    while len(setup) < SETUP_REPEATS:
        set_up()
    attempted, failed, failures = check_outcomes(outcomes)
    first = [outs[0] for outs in outcomes.values()]

    medians = [statistics.median(samples[c.label]) for c in cells]
    sims = [o.sim for o in first if o.sim is not None]
    cycles_of: Dict[str, int] = {}
    for scheme, cycles, _ in sims:
        cycles_of[scheme] = cycles_of.get(scheme, 0) + cycles
    values = {
        "work_per_s": sum(o.work for o in first) / sum(medians),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_cycles": sum(s[1] for s in sims),
        "nvmm_writes": sum(s[2] for s in sims),
        "bbb_vs_eadr_cycles": cycles_of["bbb"] / cycles_of["eadr"],
    }
    return {
        "workload": workload.name, "seed": seed, "trace": 0,
        "rounds": rounds, "work_unit": workload.work_unit,
        "cells": [_cell_row(c.label, samples, outcomes) for c in cells],
        "setup_samples_s": setup,
        "sim_digest": sim_digest(first),
        "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()},
    }


def _cell_row(label: str, samples, outcomes) -> Dict:
    q1, med, q3 = quartiles(samples[label])
    first = outcomes[label][0]
    return {"cell": label, "work": first.work, "n": len(samples[label]),
            "median_s": med, "q1_s": q1, "q3_s": q3,
            "fingerprint": first.fingerprint, **first.extra}


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

class EngineCounts:
    """Sums the ``SimStats`` of every engine run while tracing, read at
    the engine's return, plus the ops each request is lowered to."""

    def __init__(self) -> None:
        self.t: Dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.t[key] = self.t.get(key, 0) + n

    def on_run(self, args, result) -> None:
        engine, trace = args[0], args[1]
        ops = result.crash_op if result.crashed else trace.total_ops()
        self._add_run(engine, result.stats, ops)

    def on_finish(self, args, result) -> None:
        session = args[0]
        self._add_run(session.engine, result.stats, session.executed)

    def on_lower(self, args, ops) -> None:
        self.add("lowered_ops", len(ops))
        self.add("lowered_requests", 1)

    def _add_run(self, engine, stats, ops: int) -> None:
        self.add("ops", ops)
        self.add("private_ops",
                 getattr(engine, "batch_counters", {}).get("private_ops", 0))
        for core in stats.core:
            self.add("l1_hits", core.l1_hits)
            self.add("l1_misses", core.l1_misses)
            self.add("bbpb_stall", core.stall_cycles_bbpb_full)
        for name in ("llc_hits", "llc_misses", "bbpb_moves",
                     "bbpb_allocations", "bbpb_coalesces", "bbpb_drains",
                     "bbpb_rejections", "persist_latency_sum"):
            self.add(name, getattr(stats, name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure_traced(workload, seed: int, seconds: float, sizes) -> Dict:
    from layertrace import Tracer

    cells = workload.build(seed, sizes)
    _, warm, _ = run_rounds(cells, 0, 1)
    reference = {label: outs[0].fingerprint for label, outs in warm.items()}
    plain, _, _ = run_rounds(cells, 0, 1)
    plain_s = sum(ts[0] for ts in plain.values())

    counts = EngineCounts()
    tracer = Tracer(on_return={"Engine.run": counts.on_run,
                               "EngineStream.finish": counts.on_finish,
                               "KVService.ops_for": counts.on_lower})
    tracer.install()
    try:
        samples, outcomes, rounds = run_rounds(cells, seconds, 1, tracer)
    finally:
        tracer.uninstall()
    attempted, failed, failures = check_outcomes(outcomes, reference)
    first = [outs[0] for outs in outcomes.values()]
    traced_s = statistics.median(
        sum(ts[i] for ts in samples.values()) for i in range(rounds))

    values: Dict[str, float] = {}
    for layer, stat in tracer.layers.items():
        values[f"{layer}.calls"] = stat.calls / rounds
        if layer in TIMED_LAYERS:
            values[f"{layer}.self_s"] = stat.self_s / rounds
    c = counts.t.get
    extra = {k: sum(o.extra.get(k, 0) for o in first)
             for k in ("crash_ops", "checked", "pruned")}
    values.update({
        "sim.engine.ops_executed": c("ops", 0) / rounds,
        "sim.engine.private_fraction": _ratio(c("private_ops", 0), c("ops", 0)),
        "mem.cache.l1_hit_ratio": _ratio(
            c("l1_hits", 0), c("l1_hits", 0) + c("l1_misses", 0)),
        "mem.cache.llc_hit_ratio": _ratio(
            c("llc_hits", 0), c("llc_hits", 0) + c("llc_misses", 0)),
        "mem.coherence.bbpb_moves": c("bbpb_moves", 0) / rounds,
        "core.bbpb.allocations": c("bbpb_allocations", 0) / rounds,
        "core.bbpb.coalesce_ratio": _ratio(
            c("bbpb_coalesces", 0),
            c("bbpb_allocations", 0) + c("bbpb_coalesces", 0)),
        "core.bbpb.drains": c("bbpb_drains", 0) / rounds,
        "core.bbpb.rejections": c("bbpb_rejections", 0) / rounds,
        "core.bbpb.stall_cycles": c("bbpb_stall", 0) / rounds,
        "mem.memctrl.persist_latency_cycles":
            c("persist_latency_sum", 0) / rounds,
        "check.checker.ops_per_point": _ratio(extra["crash_ops"],
                                              extra["checked"]),
        "check.checker.prune_ratio": _ratio(extra["pruned"], extra["checked"]),
        "serve.kvservice.ops_per_request": _ratio(c("lowered_ops", 0),
                                                  c("lowered_requests", 0)),
        "serve.frontend.max_queue_depth": max(
            (o.extra.get("max_queue_depth", 0) for o in first), default=0),
        "trace.overhead": traced_s / plain_s,
        "trace.coverage": tracer.coverage(),
    })
    units = per_layer_units()
    report = {
        "workload": workload.name, "seed": seed, "trace": 1,
        "rounds": rounds, "work_unit": workload.work_unit,
        "cells": [_cell_row(c.label, samples, outcomes) for c in cells],
        "sim_digest": sim_digest(first),
        "attempted": attempted, "failed": failed, "failures": failures,
        "layers": {
            layer: {"calls_per_round": stat.calls / rounds,
                    "self_s_per_round": stat.self_s / rounds,
                    "self_share": _ratio(stat.self_s, tracer.entry_s),
                    "methods": tracer.present[layer]}
            for layer, stat in tracer.layers.items()
        },
        "absent": tracer.absent,
        "unattributed_s_per_round": tracer.unattributed_s / rounds,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace_{workload.name}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump({**report, "schema": "e2e.trace/v1",
                   "spans": tracer.spans}, f)
    report["trace_file"] = str(path.relative_to(HERE.parents[1]))
    return report


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------

def print_report(report: Dict) -> None:
    print(f"e2e {report['workload']}  seed={report['seed']}  "
          f"trace={report['trace']}  rounds={report['rounds']}  "
          f"work unit: {report['work_unit']}")
    print(f"  {'cell':<26}{'work':>9}{'median_s':>11}{'q1_s':>10}"
          f"{'q3_s':>10}{'n':>4}")
    for row in report["cells"]:
        extra = "  ".join(f"{k}={v}" for k, v in row.items() if k not in (
            "cell", "work", "n", "median_s", "q1_s", "q3_s", "fingerprint"))
        print(f"  {row['cell']:<26}{row['work']:>9}{row['median_s']:>11.5f}"
              f"{row['q1_s']:>10.5f}{row['q3_s']:>10.5f}{row['n']:>4}  "
              f"{extra}")
    if report["trace"]:
        print(f"  {'layer':<20}{'calls/round':>14}{'self_s/round':>14}"
              f"{'share':>8}")
        for layer, row in report["layers"].items():
            print(f"  {layer:<20}{row['calls_per_round']:>14.0f}"
                  f"{row['self_s_per_round']:>14.5f}"
                  f"{row['self_share']:>8.1%}")
        print(f"  trace file: {report['trace_file']}")
    for name, m in report["metrics"].items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    print(f"  sim_digest {report['sim_digest']}")
    print(f"  checks: {report['attempted']} attempted, {report['failed']} "
          f"failed (error_rate {_ratio(report['failed'], report['attempted']):.4g})")
    for failure in report["failures"][:20]:
        print(f"  FAIL {failure}")


def result_line(report: Dict) -> str:
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    })


def run_all(args) -> int:
    """Each workload in a fresh child process, one after another."""
    from workloads import WORKLOADS

    merged = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    correct = True
    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        part = None
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            part = f"{args.out}.{name}.part"
            cmd += ["--out", part]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0,
                      "metrics": {}}
        correct = correct and proc.returncode == 0 and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        if part is not None and os.path.exists(part):
            with open(part, encoding="utf-8") as f:
                merged["workloads"][name] = json.load(f)
            os.remove(part)
    if args.out:
        _write(args.out, merged)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _write(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four, each in a "
                             "child process)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full report as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    load_program()
    from workloads import FULL, SMOKE, WORKLOADS

    if args.workload is None:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"pick from {', '.join(WORKLOADS)}")
    sizes = SMOKE if args.smoke else FULL
    measure_fn = measure_traced if args.trace else measure
    report = measure_fn(WORKLOADS[args.workload], args.seed, args.seconds,
                        sizes)
    report["smoke"] = args.smoke
    if args.out:
        _write(args.out, report)
    print_report(report)
    print(result_line(report))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
