"""Golden agreement matrix: the full corpus against the 7 builtins.

The rendered matrix is the battery's headline artifact; pinning it
verbatim catches *any* drift — a new observed state, a weakened
enumerator, a changed declaration, a renamed scheme — in one diff.
Update the snapshot only after convincing yourself the new behaviour is
correct (the cells encode real semantics: e.g. ``bsp`` reaching ``2eq``
under strict is the ordered buffer realizing exact strict prefixes,
and ``bep``'s ``FORBIDDEN:2`` under *strict* is fine because its
declared model is epoch).
"""

import pytest

from repro.core.registry import iter_schemes
from repro.litmus.runner import (
    CLASS_FORBIDDEN,
    battery_failures,
    render_matrix,
    run_battery,
)

GOLDEN_MATRIX = """\
target   | declared | strict       | px86-tso     | epoch        | verdict
---------+----------+--------------+--------------+--------------+-----------
bbb      | strict   | ok 0eq/24sub | ok 0eq/24sub | ok 0eq/24sub | conformant
bbb-proc | strict   | ok 0eq/24sub | ok 0eq/24sub | ok 0eq/24sub | conformant
eadr     | strict   | ok 0eq/24sub | ok 0eq/24sub | ok 0eq/24sub | conformant
pmem     | strict   | ok 18eq/6sub | ok 6eq/18sub | ok 3eq/21sub | conformant
bsp      | strict   | ok 2eq/22sub | ok 0eq/24sub | ok 0eq/24sub | conformant
bep      | epoch    | FORBIDDEN:2  | ok 0eq/24sub | ok 0eq/24sub | conformant
none     | px86-tso | FORBIDDEN:1  | ok 0eq/24sub | ok 0eq/24sub | conformant"""

#: the only strict-model escapes among the builtins, and why they are
#: fine: epoch persistency lets bep persist a younger flushed line (or a
#: capacity-evicted epoch write) before an older unflushed one, and raw
#: px86 lets `none` do the same for the flushed line.
EXPECTED_STRICT_ESCAPES = {
    ("bep", "flush-newer"),
    ("bep", "epoch-capacity"),
    ("none", "flush-newer"),
}


@pytest.fixture(scope="module")
def report():
    builtins = [info.name for info in iter_schemes() if info.builtin]
    return run_battery(
        schemes=builtins, include_mutants=False, minimize=False,
    )


def test_rendered_matrix_matches_the_golden_snapshot(report):
    rendered = [line.rstrip() for line in render_matrix(report).splitlines()]
    assert rendered == GOLDEN_MATRIX.splitlines()


def test_every_builtin_conforms_to_its_declared_model(report):
    assert battery_failures(report) == []
    assert all(row["conformant"] for row in report["schemes"])
    assert report["conformance"]["failures"] == []


def test_strict_escapes_are_exactly_the_documented_ones(report):
    escapes = {
        (cell["scheme"], cell["test"])
        for cell in report["cells"]
        if cell["models"]["strict"]["classification"] == CLASS_FORBIDDEN
    }
    assert escapes == EXPECTED_STRICT_ESCAPES


def test_every_cell_swept_at_least_one_crash_point(report):
    assert len(report["cells"]) == 7 * 24
    assert all(cell["points"] >= 1 for cell in report["cells"])
