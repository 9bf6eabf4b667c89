"""The kept acceptors the vacancy chains of a profile test, checked against the kept run's definition.

A chain hop at institution h tests only the kept acceptors at or past h's pointer: the positions k of h's list
whose applicant d accepts h under the kept run, her rank of h below the rank she gives her kept match. Within a chain
every applicant who accepts moves up and the excluded applicant holds -1, so whoever turns h down under the kept run
turns it down in every chain. The record is kept on the profile beside the rank rows: found[h], ascending, and
seen[h], how far the positions from the pointer are classified. Menus in any order, on one profile or each on a
fresh one, must match the run from scratch (oracles.ipda_without_reference); the record must hold exactly the kept
acceptors below seen[h]; and it lives and dies with the profile as the rows do.
"""

import gc
import pickle
import random
import weakref

import pytest

from oracles import STRUCTURED_FAMILIES, ipda_without_reference
from test_chain_rows import FAMILY_MARKETS, TRUNCATIONS, assert_rows_hold_ranks, fresh, markets

from mdm.generators import gen_random_market
from mdm.market import Profile
from mdm.mechanisms import _propose, ipda_without
from mdm.menus import menu_da


def kept_run(p: Profile) -> tuple[list[int], list[int]]:
    """Each applicant's rank of her match in the institution-proposing run from scratch (n_institutions if
    unmatched), and each institution's final pointer."""
    mu, nxt = {}, [0] * p.n_institutions
    _propose(fresh(p), mu, nxt, None)
    m = p.n_institutions
    return [p.applicant_rank[d][mu[d]] if d in mu else m for d in range(p.n_applicants)], nxt


def assert_record_holds_kept_acceptors(p: Profile) -> int:
    """found[h] is ascending, at or past the kept pointer and below seen[h]; each position in it is a kept acceptor
    and every other position from the pointer up to seen[h] a kept rejecter. Returns how many are recorded."""
    found, seen = vars(p)["_chain_acceptors"]
    held, start = kept_run(p)
    m = p.n_institutions
    assert len(found) == len(seen) == m
    for h, ranked in enumerate(p.institution_prios):
        assert start[h] <= seen[h] <= len(ranked), (p, h)
        assert found[h] == sorted(set(found[h])), (p, h)
        assert all(start[h] <= k < seen[h] for k in found[h]), (p, h)
        acceptors = [k for k in range(start[h], seen[h]) if p.applicant_rank[ranked[k]].get(h, m) < held[ranked[k]]]
        assert found[h] == acceptors, (p, h)
    return sum(map(len, found))


def check_rounds(p: Profile, rng: random.Random) -> int:
    """All menus of p in a random order on p itself, then again in another order, and each on a fresh copy, against
    the reference; the record is checked after each round and the second round adds nothing to it. Returns the
    number of recorded positions."""
    n = p.n_applicants
    expected = {i: ipda_without_reference(i, p) for i in range(n)}
    for i in rng.sample(range(n), n):
        assert ipda_without(i, p) == expected[i], (p, i)
    recorded = assert_record_holds_kept_acceptors(p)
    before = repr(vars(p)["_chain_acceptors"])
    for i in rng.sample(range(n), n):
        assert ipda_without(i, p) == expected[i], (p, i)
    assert repr(vars(p)["_chain_acceptors"]) == before, p
    assert_rows_hold_ranks(p)
    for i in rng.sample(range(n), n):
        q = fresh(p)
        assert ipda_without(i, q) == expected[i], (p, i)
        assert_record_holds_kept_acceptors(q)
    return recorded


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_chains_on_kept_acceptors_give_the_run_from_scratch(truncation):
    rng = random.Random(f"chain-skips/{truncation}")
    assert sum(check_rounds(p, rng) for p in markets(truncation)) > 0


@pytest.mark.parametrize("name,n", FAMILY_MARKETS, ids=[f"{name}-{n}" for name, n in FAMILY_MARKETS])
def test_chains_on_kept_acceptors_on_the_structured_families(name, n):
    check_rounds(STRUCTURED_FAMILIES[name](n), random.Random(f"chain-skips-family/{name}/{n}"))


def test_a_chain_passes_the_kept_acceptors_it_turns_down():
    # Kept run: x holds b and y holds a, each at its second choice; a and c would take x, and b would take y.
    # Without a, y takes b and x proposes on: a, a kept acceptor, turns it down (she holds -1) and c takes it. The
    # second chain without a finds both of x's kept acceptors recorded. Without b, x takes a and y proposes on:
    # its one kept acceptor is b, who turns it down, and y runs out at the end of its list.
    p = Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (1, 0), (0,)), ((1, 0, 2), (0, 1)))
    for i in (0, 0, 1, 2):
        assert ipda_without(i, p) == ipda_without_reference(i, p), i
    assert ipda_without(0, p)[0].by_applicant == {1: 1, 2: 0}
    assert ipda_without(1, p)[0].by_applicant == {0: 0}
    assert vars(p)["_chain_acceptors"] == ([[1, 2], [1]], [3, 2])
    assert_record_holds_kept_acceptors(p)


def profile_with_acceptors() -> Profile:
    p = fresh(gen_random_market(8, 3, truncation_prob=0.3))
    for i in range(p.n_applicants):
        menu_da(i, p)
    assert any(vars(p)["_chain_acceptors"][0])
    return p


def test_derived_and_unpickled_profiles_carry_no_kept_acceptors():
    p = profile_with_acceptors()
    for q in (p.with_prefs(3, (4, 0, 5)), p.with_prefs(0, ()), p.transposed(), pickle.loads(pickle.dumps(p))):
        assert "_chain_acceptors" not in vars(q)
        ref = fresh(q)
        assert [ipda_without(i, q) for i in range(q.n_applicants)] == [
            ipda_without(i, ref) for i in range(ref.n_applicants)
        ]
        assert_record_holds_kept_acceptors(q)


def test_eq_and_hash_ignore_the_kept_acceptors():
    before = hash(fresh(gen_random_market(8, 3, truncation_prob=0.3)))
    p = profile_with_acceptors()
    assert hash(p) == before and p == fresh(p) and fresh(p) == p


def test_a_profile_with_kept_acceptors_is_freed_without_the_cycle_collector():
    p = profile_with_acceptors()
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()
