"""The matching layer of mdm.market: the stability definition against the enumeration oracle's, and one
pinned instance for each check of a matching or a profile."""

import pytest

from mdm.generators import gen_random_market
from mdm.market import (
    BlockingPair,
    InstanceError,
    Matching,
    Profile,
    blocking_pairs,
    validate_matching,
    validate_profile,
)
from mdm.mechanisms import receiver_optimal
from oracles import _is_stable


def acceptable_matchings(p: Profile):
    """Every matching of a unit-capacity market whose pairs list each other, as applicant -> institution dicts."""
    def extend(d: int, mu: dict[int, int]):
        if d == p.n_applicants:
            yield dict(mu)
            return
        yield from extend(d + 1, mu)
        for h in p.applicant_prefs[d]:
            if h not in mu.values() and d in p.institution_rank[h]:
                mu[d] = h
                yield from extend(d + 1, mu)
                del mu[d]
    yield from extend(0, {})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_no_blocking_pair_exactly_when_the_oracle_calls_a_matching_stable(n):
    checked = unstable = 0
    for seed in range(12):
        p = gen_random_market(n, seed, truncation_prob=0.3)
        for mu in acceptable_matchings(p):
            assert (blocking_pairs(p, Matching.of(mu)) == []) == _is_stable(p, mu), (seed, mu)
            checked += 1
            unstable += not _is_stable(p, mu)
    assert unstable and checked > unstable  # both sides of the equivalence ran


# Applicants a, b, c; institution x holds up to `cap` and ranks a, then b, then c.
def _one_institution(cap: int) -> Profile:
    return Profile(("a", "b", "c"), ("x",), ((0,), (0,), (0,)), ((0, 1, 2),), (cap,))


@pytest.mark.parametrize(
    ("cap", "pairs", "blocking"),
    [
        (1, [(1, 0)], [BlockingPair(0, 0)]),  # x is full with b and ranks a above her
        (2, [(1, 0), (2, 0)], [BlockingPair(0, 0)]),  # full with b and c, both below a
        (1, [(0, 0)], []),  # full with a, whom it ranks above everyone
        (1, [(2, 0)], [BlockingPair(0, 0), BlockingPair(1, 0)]),  # full with c, below both others
        (2, [(0, 0), (1, 0)], []),  # full with the two it ranks highest
        (2, [(0, 0)], [BlockingPair(1, 0), BlockingPair(2, 0)]),  # a free seat: anyone unmatched blocks
    ],
)
def test_a_full_institution_is_blocked_only_by_an_applicant_it_ranks_above_an_occupant(cap, pairs, blocking):
    assert blocking_pairs(_one_institution(cap), Matching(pairs)) == blocking


def test_a_matching_reports_an_applicant_matched_twice_and_an_unlisted_applicant():
    p = Profile(("a", "b"), ("x", "y"), ((0, 1), (0,)), ((0, 1), (1,)))
    with pytest.raises(InstanceError) as err:
        validate_matching(p, Matching([(0, 0), (0, 1)]))
    assert str(err.value).splitlines() == ["applicant 0 is matched twice", "institution 1 does not list applicant 0"]


def test_by_applicant_refuses_an_applicant_matched_twice():
    with pytest.raises(InstanceError) as err:
        Matching([(0, 0), (0, 1)]).by_applicant
    assert str(err.value) == "applicant 0 is matched twice"


@pytest.mark.parametrize(
    ("fields", "text"),
    [
        ((("a", "b"), ("x",), ((0,),), ((0, 1),)), "applicant list count does not match applicant name count"),
        ((("a",), ("x", "y"), ((0,),), ((0,),)), "institution list count does not match institution name count"),
        ((("a",), ("x",), ((0,),), ((0,),), (1, 1)), "capacity count does not match institution count"),
        ((("",), ("x",), ((0,),), ((0,),)), "empty applicant name"),
        ((("a",), ("a",), ((0,),), ((0,),)), "name 'a' is used on both sides"),
    ],
)
def test_a_profile_reports_each_count_mismatch_and_name_problem(fields, text):
    with pytest.raises(InstanceError) as err:
        validate_profile(Profile(*fields))
    assert str(err.value) == text


def test_receiver_optimal_refuses_an_unknown_proposing_side():
    with pytest.raises(InstanceError) as err:
        receiver_optimal(_one_institution(1), "bidders")
    assert str(err.value) == "unknown proposing side 'bidders'"


@pytest.mark.parametrize("entry", [5, (0,), (0, 0, 0), "ab"], ids=repr)
@pytest.mark.parametrize("view", ["by_applicant", "by_institution"])
def test_a_matching_names_an_entry_that_is_not_a_pair(entry, view):
    with pytest.raises(InstanceError) as err:
        getattr(Matching([(1, 1), entry]), view)
    assert str(err.value) == f"entry {entry!r} is not an (applicant, institution) pair"


def test_a_menu_read_off_a_matching_names_an_entry_that_is_not_a_pair():
    from mdm.menus import menu_from_matching

    with pytest.raises(InstanceError) as err:
        menu_from_matching(0, _one_institution(1), Matching([5]))
    assert str(err.value) == "entry 5 is not an (applicant, institution) pair"
