"""The plan's end state checked against the run without the applicant, an independent route to the same state.

menu_da_plan drains every institution captured by applicant i until it turns her down, so whatever the order of the
proposals, its end state is institution-proposing deferred acceptance without i. Its menu and tentative matching
must therefore equal the vacancy chain's (ipda_without), its pointers those of the proposing loop run from scratch
with i's list cleared, and its terminal applicants the others that run leaves unmatched.
"""

import random

import pytest

from oracles import STRUCTURED_FAMILIES
from test_chain_rows import FAMILY_MARKETS, TRUNCATIONS, ranked

from mdm import verify
from mdm.generators import gen_random_market
from mdm.market import Matching, Profile, serialize_instance
from mdm.mechanisms import _propose, ipda_without
from mdm.menus import menu_da_plan


def unit_markets(truncation: float, count: int = 40):
    """count unit-capacity markets of 2..30 applicants and 2..30 institutions; with the given probability a list is
    cut at a random length."""
    rng = random.Random(f"plan-oracle/{truncation}")
    for _ in range(count):
        n, m = rng.randint(2, 30), rng.randint(2, 30)
        yield Profile(
            tuple(f"d{d}" for d in range(n)),
            tuple(f"h{h}" for h in range(m)),
            tuple(ranked(rng, m, truncation) for _ in range(n)),
            tuple(ranked(rng, n, truncation) for _ in range(m)),
        )


def check_plans(p: Profile) -> None:
    for i in range(p.n_applicants):
        plan = menu_da_plan(i, p)
        others, menu = ipda_without(i, p)
        mu, nxt = {}, [0] * p.n_institutions
        _propose(p.with_prefs(i, ()), mu, nxt, None)
        assert (plan.menu, plan.tentative) == (menu, others), (p, i)
        assert Matching.of(mu) == others, (p, i)
        assert plan.pointers == tuple(nxt), (p, i)
        assert plan.terminal == frozenset(range(p.n_applicants)) - {i} - set(mu), (p, i)


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_the_plan_ends_in_the_run_without_the_applicant(truncation):
    for p in unit_markets(truncation):
        check_plans(p)


@pytest.mark.parametrize("name,n", FAMILY_MARKETS, ids=[f"{name}-{n}" for name, n in FAMILY_MARKETS])
def test_the_plan_ends_in_the_run_without_the_applicant_on_the_structured_families(name, n):
    check_plans(STRUCTURED_FAMILIES[name](n))


def test_the_plan_suite_fails_a_plan_whose_tentative_matching_is_not_the_run_without_the_applicant(monkeypatch):
    size, seed, t = 6, 0, 4
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    assert verify._plan_trial(size, seed, t) == []
    monkeypatch.setattr(verify, "ipda_without", lambda i, q: (Matching(frozenset({(99, 99)})), frozenset()))
    failures = verify._plan_trial(size, seed, t)
    assert [f.expectation.startswith("plan tentative matching for applicant 4 equals the run without her")
            for f in failures] == [True]
    assert failures[0].instance == serialize_instance(p)
    assert failures[0].observed.startswith("plan computed [")
