"""Golden crash-check digests, seeded-heap workloads included.

``tests/data/golden_check_digests.json`` holds, per ``workload/unit``
cell, a sha256 over the ``repro.crashcheck/v1`` report of
:func:`~repro.check.checker.run_check_unit` plus every field of every
:class:`~repro.check.checker.PointVerdict` (fingerprint, ``pruned`` flag
and violation text included).  ctree and rtree seed their heap into the
NVMM media before the run, so these cells exercise the seeded golden
image; rtree under ``bep`` and ``none``, and the ``bbb-delayed-alloc``
mutant, report violations, which pins their text too.

If an oracle change legitimately alters a report, recapture the file by
running :func:`check_digest` on every cell below and writing
``{cell: digest}``.
"""

import hashlib
import json
import pathlib

import pytest

from repro.check.checker import CheckUnit, run_check_unit
from repro.workloads.base import WorkloadSpec

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent / "data"
               / "golden_check_digests.json")

SPEC = WorkloadSpec(threads=2, ops=2, elements=64, seed=11)
WORKLOADS = ("hashmap", "ctree", "rtree")
#: (scheme, mutant) per unit; the mutant runs as its base scheme.
UNITS = (("bbb", None), ("eadr", None), ("pmem", None), ("bep", None),
         ("none", None), ("bbb", "bbb-delayed-alloc"))
CELLS = [f"{w}/{mutant or scheme}" for w in WORKLOADS
         for scheme, mutant in UNITS]


def check_digest(workload: str, scheme: str, mutant=None) -> str:
    report, verdicts = run_check_unit(
        CheckUnit(scheme=scheme, workload=workload, spec=SPEC, mutant=mutant),
        jobs=1,
    )
    blob = {"report": report, "verdicts": [tuple(v) for v in verdicts]}
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()).hexdigest()


def test_golden_file_covers_every_cell():
    assert set(json.loads(GOLDEN_PATH.read_text())) == set(CELLS)


@pytest.mark.parametrize("scheme,mutant", UNITS,
                         ids=[m or s for s, m in UNITS])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_matches_golden_digest(workload, scheme, mutant):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert check_digest(workload, scheme, mutant) == \
        golden[f"{workload}/{mutant or scheme}"]
