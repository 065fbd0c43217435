"""The versioned ``repro.traffic/v4`` report: schema, validation, render.

The payload a traffic sweep produces::

    {
      "schema": "repro.traffic/v4",
      "spec": { ...the TrafficSpec, flattened... },
      "schemes": ["bbb", "eadr", "pmem"],
      "loads": [0.5, 1.0, 2.0],
      "points": [ <TrafficPoint.to_payload()>, ... ],
      "curves": {
        "bbb": [
          {"offered_load": 0.5, "achieved_load": 0.49,
           "p50": 210, "p99": 480, "p999": 913}, ...
        ], ...
      }
    }

``points`` is the full measurement set (per-tenant and per-op breakdowns
included, plus the deepest per-core queue, ``max_queue_depth``);
``curves`` is the derived throughput-vs-offered-load series front-ends
plot.  v3 dropped v2's overload accounting (``shed`` / ``timeouts`` /
``retries`` / ``shed_rate`` / ``degraded``): every request is served, so
past saturation the queues and the tail grow instead.  v4 drops the
points' ``arrival`` and the spec's closed-loop and burst fields: every
run is open loop, at a constant offered load.
:func:`validate_traffic_report` is the schema gate CI smoke-checks
reports against; it raises ``ValueError`` with a pointed message rather
than returning False, so failures name the broken field.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List, Sequence

from repro.obs.latency import PERCENTILE_LABELS

__all__ = [
    "TRAFFIC_SCHEMA_VERSION",
    "build_report",
    "render_curve",
    "smoke_failures",
    "validate_traffic_report",
]

TRAFFIC_SCHEMA_VERSION = "repro.traffic/v4"

_POINT_REQUIRED = (
    "scheme", "offered_load", "requests", "completed",
    "execution_cycles", "achieved_load", "latency", "tenants", "ops",
    "crashed", "max_queue_depth",
)
_LATENCY_REQUIRED = ("count", "mean_cycles") + tuple(
    label for label, _ in PERCENTILE_LABELS
)


def build_report(
    spec,
    schemes: Sequence[str],
    loads: Sequence[float],
    points: Sequence,
) -> Dict[str, object]:
    """Assemble the ``repro.traffic/v4`` payload from measured points."""
    curves: Dict[str, List[Dict[str, object]]] = {name: [] for name in schemes}
    payloads = []
    for point in points:
        payload = point.to_payload()
        payloads.append(payload)
        entry: Dict[str, object] = {
            "offered_load": payload["offered_load"],
            "achieved_load": payload["achieved_load"],
        }
        for label, _ in PERCENTILE_LABELS:
            entry[label] = payload["latency"][label]
        curves[payload["scheme"]].append(entry)
    report: Dict[str, object] = {
        "schema": TRAFFIC_SCHEMA_VERSION,
        "spec": asdict(spec),
        "schemes": list(schemes),
        "loads": [float(x) for x in loads],
        "points": payloads,
        "curves": curves,
    }
    validate_traffic_report(report)
    return report


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid traffic report: {message}")


def _check_latency_block(block: object, where: str) -> None:
    _check(isinstance(block, dict), f"{where} is not an object")
    for key in _LATENCY_REQUIRED:
        _check(key in block, f"{where} is missing {key!r}")
        _check(
            isinstance(block[key], (int, float)),
            f"{where}[{key!r}] is not numeric",
        )
    _check(block["count"] >= 0, f"{where}['count'] is negative")


def validate_traffic_report(report: object) -> Dict[str, object]:
    """Validate a ``repro.traffic/v4`` payload; returns it on success,
    raises ``ValueError`` naming the first broken field otherwise."""
    _check(isinstance(report, dict), "payload is not an object")
    _check(
        report.get("schema") == TRAFFIC_SCHEMA_VERSION,
        f"schema must be {TRAFFIC_SCHEMA_VERSION!r}, "
        f"got {report.get('schema')!r}",
    )
    for key in ("spec", "schemes", "loads", "points", "curves"):
        _check(key in report, f"missing top-level key {key!r}")
    schemes = report["schemes"]
    _check(
        isinstance(schemes, list) and schemes,
        "schemes must be a non-empty list",
    )
    loads = report["loads"]
    _check(isinstance(loads, list) and loads, "loads must be a non-empty list")
    points = report["points"]
    _check(isinstance(points, list) and points,
           "points must be a non-empty list")
    seen = set()
    for i, point in enumerate(points):
        where = f"points[{i}]"
        _check(isinstance(point, dict), f"{where} is not an object")
        for key in _POINT_REQUIRED:
            _check(key in point, f"{where} is missing {key!r}")
        _check(point["scheme"] in schemes,
               f"{where} scheme {point['scheme']!r} not in schemes")
        _check_latency_block(point["latency"], f"{where}['latency']")
        _check(
            point["completed"] <= point["requests"],
            f"{where}: completed exceeds requests",
        )
        _check(
            isinstance(point["max_queue_depth"], int)
            and point["max_queue_depth"] >= 0,
            f"{where}['max_queue_depth'] must be a non-negative integer",
        )
        for group in ("tenants", "ops"):
            _check(isinstance(point[group], dict),
                   f"{where}[{group!r}] is not an object")
            for name, block in point[group].items():
                _check_latency_block(block, f"{where}[{group!r}][{name!r}]")
        seen.add((point["scheme"], point["offered_load"]))
    curves = report["curves"]
    _check(isinstance(curves, dict), "curves must be an object")
    for name in schemes:
        _check(name in curves, f"curves is missing scheme {name!r}")
        series = curves[name]
        _check(isinstance(series, list) and series,
               f"curves[{name!r}] must be a non-empty list")
        for j, entry in enumerate(series):
            where = f"curves[{name!r}][{j}]"
            _check(isinstance(entry, dict), f"{where} is not an object")
            for key in ("offered_load", "achieved_load") + tuple(
                label for label, _ in PERCENTILE_LABELS
            ):
                _check(key in entry, f"{where} is missing {key!r}")
            _check(
                (name, entry["offered_load"]) in seen,
                f"{where} has no matching point",
            )
    return report


def smoke_failures(report: Dict[str, object]) -> List[str]:
    """The ``repro traffic --smoke`` verdict: the report must be
    schema-valid, and every point must complete all of its requests with
    non-empty, non-zero latency percentiles.  Empty means it passes."""
    try:
        validate_traffic_report(report)
    except ValueError as exc:
        return [str(exc)]
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
    return failures


def render_curve(report: Dict[str, object]) -> str:
    """ASCII throughput-vs-offered-load table (one block per scheme)."""
    validate_traffic_report(report)
    labels = [label for label, _ in PERCENTILE_LABELS]
    lines: List[str] = []
    header = (
        f"{'offered':>9} {'achieved':>9} "
        + " ".join(f"{label:>7}" for label in labels)
    )
    for name in report["schemes"]:
        lines.append(f"{name}:")
        lines.append("  " + header)
        for entry in report["curves"][name]:
            lines.append(
                f"  {entry['offered_load']:>9.3f} "
                f"{entry['achieved_load']:>9.3f} "
                + " ".join(f"{entry[label]:>7d}" for label in labels)
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
