"""Property: battery-domain schemes never lose an acked request.

The drill's RPO gate, generalised — for *any* small traffic session and
*any* crash point, a scheme whose persistence domain is battery-covered
(bbb, eadr) must show ``acked-lost == 0``: once the reactor acked a
request to its client, the crash drain guarantees its persisting stores
reach NVMM.  This is the paper's central claim expressed as an
invariant rather than a fixed smoke case."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.recovery import ACKED_LOST, RETRIED_DUPLICATE
from repro.core.registry import BBB, EADR
from repro.serve import DrillUnit, TrafficSpec, count_crash_sites, \
    execute_drill_unit

_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

sessions = st.fixed_dictionaries({
    "requests": st.integers(min_value=8, max_value=24),
    "seed": st.integers(min_value=0, max_value=2 ** 16),
    "offered_load": st.sampled_from([0.5, 2.0, 8.0]),
})


def _drill(scheme, session, crash_fraction):
    spec = TrafficSpec(**session)
    total = count_crash_sites(scheme, spec, entries=8)
    visit = max(1, min(total - 1, int(total * crash_fraction)))
    return execute_drill_unit(
        DrillUnit(scheme=scheme, spec=spec, crash_visit=visit, entries=8)
    )


@_SETTINGS
@given(session=sessions, crash_fraction=st.floats(min_value=0.05,
                                                  max_value=0.95))
def test_bbb_never_loses_an_acked_request(session, crash_fraction):
    unit = _drill(BBB, session, crash_fraction)
    assert unit["crashed"]
    assert unit["outcomes"][ACKED_LOST] == 0
    assert unit["rpo"]["acked_lost_bytes"] == 0
    assert unit["contract_consistent"]


@_SETTINGS
@given(session=sessions, crash_fraction=st.floats(min_value=0.05,
                                                  max_value=0.95))
def test_eadr_never_loses_an_acked_request(session, crash_fraction):
    unit = _drill(EADR, session, crash_fraction)
    assert unit["crashed"]
    assert unit["outcomes"][ACKED_LOST] == 0
    assert unit["contract_consistent"]


@_SETTINGS
@given(session=sessions, crash_fraction=st.floats(min_value=0.05,
                                                  max_value=0.95))
def test_every_request_is_accounted_for(session, crash_fraction):
    """The taxonomy is a partition: the outcomes cover the session
    exactly, and the restart leg serves every request whose client never
    got an answer."""
    unit = _drill(BBB, session, crash_fraction)
    covered = sum(unit["outcomes"].values())
    assert covered == session["requests"]
    rec = unit["recovery"]
    assert rec["restart_completed"] == rec["restart_requests"]
    assert rec["restart_requests"] == (
        unit["outcomes"]["unacked-lost"] + unit["outcomes"][RETRIED_DUPLICATE]
    )
