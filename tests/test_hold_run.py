"""The plan's capture run against the hold-market route it replaced.

_hold_run runs the shared institution-proposing loop with the applicant in
its capture slot. hold_run_reference in oracles.py runs deferred acceptance
on a market where each institution lists a private hold applicant in her
slot, proposing in stack order. Deferred acceptance does not depend on the
order of proposals, so both must end in the same tentative matching,
pointers and captured institutions, and make the same list accesses.
"""

import pytest

from oracles import hold_run_reference

from mdm.generators import gen_random_market
from mdm.mechanisms import QueryLog
from mdm.menus import _hold_run

BIG_MARKETS = [(150, 0.0, 1), (150, 0.0, 2)]


def assert_same_run(p, i):
    """Both routes agree for applicant i; returns how many institutions were captured."""
    q = p.with_prefs(i, ())
    log, events = QueryLog(), []
    got = _hold_run(q, i, log)
    assert got == hold_run_reference(q, i, events), i
    assert sorted(log.events) == sorted(events), i
    assert _hold_run(q, i, None) == got, i
    return len(got[2])


@pytest.mark.parametrize("trunc", [0.0, 0.3, 0.7])
def test_hold_run_matches_hold_market(trunc):
    captured = 0
    for n in range(3, 13):
        for seed in range(5):
            p = gen_random_market(n, seed, trunc)
            captured += sum(assert_same_run(p, i) for i in range(n))
    assert captured > 0


@pytest.mark.parametrize(("n", "trunc", "seed"), BIG_MARKETS)
def test_hold_run_matches_hold_market_at_150(n, trunc, seed):
    p = gen_random_market(n, seed, trunc)
    assert all(assert_same_run(p, i) for i in (0, 1, 37, 75, 112, 149))
