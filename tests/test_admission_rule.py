"""The one admission rule of mdm.market: the DA menu read off a matching and the blocking-pair test both read the
same per-institution cutoffs; each is checked against the two loops it replaced, on random many-to-one markets."""

import random

import pytest

import mdm.market
import mdm.menus
from mdm.market import InstanceError, Matching, Profile, blocking_pairs, menu_from_matching, validate_matching
from mdm.mechanisms import collapse_matching, expand_many_to_one, ipda
from oracles import blocking_pairs_reference, menu_from_matching_reference


def random_market(rng: random.Random, n: int, m: int) -> Profile:
    """n applicants, m institutions of capacity 1..3, every list a random permutation truncated at random."""
    def lists(count: int, other: int) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(rng.sample(range(other), rng.randint(0, other))) for _ in range(count))

    caps = tuple(rng.randint(1, 3) for _ in range(m))
    return Profile(tuple(f"d{k}" for k in range(n)), tuple(f"h{k}" for k in range(m)), lists(n, m), lists(m, n), caps)


def random_matching(rng: random.Random, p: Profile, overfull: bool) -> Matching:
    """Each applicant, in random order, takes a random mutually listed institution with a free seat, or any mutually
    listed one if overfull, or stays unmatched."""
    load = [0] * p.n_institutions
    pairs = []
    for d in rng.sample(range(p.n_applicants), p.n_applicants):
        listed = [h for h in p.applicant_prefs[d] if d in p.institution_rank[h]]
        seats = [h for h in listed if overfull or load[h] < p.capacities[h]]
        if seats and rng.random() < 0.8:
            h = rng.choice(seats)
            load[h] += 1
            pairs.append((d, h))
    return Matching(pairs)


def test_menus_read_the_menu_from_market():
    assert mdm.menus.menu_from_matching is mdm.market.menu_from_matching


@pytest.mark.parametrize("seed", range(8))
def test_blocking_pairs_and_every_menu_match_the_loops_they_replaced(seed):
    rng = random.Random(seed)
    valid = overfull = stable = 0
    for _ in range(60):
        p = random_market(rng, rng.randint(1, 7), rng.randint(1, 5))
        expanded, copy_map = expand_many_to_one(p)
        stable_mu = collapse_matching(ipda(expanded), copy_map)
        for mu in (random_matching(rng, p, False), random_matching(rng, p, True), stable_mu):
            try:
                validate_matching(p, mu)
            except InstanceError:
                overfull += 1  # a seat is taken twice over: the menu is still read off it
            else:
                valid += 1
                stable += blocking_pairs(p, mu) == []
                assert blocking_pairs(p, mu) == blocking_pairs_reference(p, mu), (p, mu)
            for i in range(p.n_applicants):
                assert menu_from_matching(i, p, mu) == menu_from_matching_reference(i, p, mu), (i, p, mu)
    assert overfull and stable and valid > stable  # over-full, stable and unstable matchings all ran


@pytest.mark.parametrize(
    ("pairs", "text"),
    [
        ([(1, 0)], "institution 0 does not list applicant 1"),  # x is full with b, whom it does not list
        ([(0, 5)], "pair (0, 5) references a nonexistent agent"),
        ([(2, -1)], "pair (2, -1) references a nonexistent agent"),  # y, read from the end, lists c and is full
        ([(2, True)], "pair (2, True) references a nonexistent agent"),  # y again, read at index 1
    ],
)
def test_a_menu_read_off_a_matching_names_a_pair_the_market_does_not_hold(pairs, text):
    p = Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (0, 1), (0, 1)), ((0,), (0, 2)))
    with pytest.raises(InstanceError) as err:
        menu_from_matching(0, p, Matching(pairs))
    assert str(err.value) == text


@pytest.mark.parametrize(
    ("caps", "pairs"),
    [
        ((1, 1), [(True, 1)]),  # True hashes as 1, so y's rank row took it for b
        ((1, 1), [(1.0, 1)]),  # and so does 1.0
        ((2, 1), [(-1, 0)]),  # x has a free seat, so its cutoff never read the pair
    ],
)
def test_a_menu_read_off_a_matching_checks_every_pair_as_validate_matching_does(caps, pairs):
    p = Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (0, 1), (0, 1)), ((0, 1, 2), (0, 1, 2)), caps)
    m = Matching(pairs)
    with pytest.raises(InstanceError) as expected:
        validate_matching(p, m)
    with pytest.raises(InstanceError) as err:
        menu_from_matching(0, p, m)
    assert str(err.value) == str(expected.value) == f"pair {pairs[0]} references a nonexistent agent"
