"""The many-to-one expansion makes one copy per seat an institution can fill, not one per seat it has.

The expansion first written made one unit-capacity copy per seat, so its cost grew with the capacities. It is kept
here as the oracle: the bounded expansion must give the same menus and the same collapsed stable matchings.
"""

import random
import time

from mdm.generators import gen_random_market
from mdm.market import Profile
from mdm.mechanisms import apda, collapse_matching, expand_many_to_one, ipda
from mdm.menus import menu_da_many_to_one, menu_from_matching


def expand_per_seat(p: Profile) -> tuple[Profile, tuple[int, ...]]:
    """One unit-capacity copy per seat, whatever the length of the institution's priority list."""
    names, prios, copy_map, copies = [], [], [], {}
    for h, name in enumerate(p.institution_names):
        cap = p.capacities[h]
        for j in range(cap):
            copies.setdefault(h, []).append(len(names))
            names.append(name if cap == 1 else f"{name}@{j + 1}")
            prios.append(p.institution_prios[h])
            copy_map.append(h)
    prefs = tuple(tuple(c for h in ranked for c in copies[h]) for ranked in p.applicant_prefs)
    return Profile(p.applicant_names, tuple(names), prefs, tuple(prios)), tuple(copy_map)


def capacitated_market(n: int, seed: int, truncation_prob: float) -> Profile:
    """A random market with capacities 1..4."""
    p = gen_random_market(n, seed, truncation_prob)
    rng = random.Random(seed ^ 0xCA9)
    caps = tuple(rng.randint(1, 4) for _ in range(n))
    return Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios, caps)


def test_the_bounded_expansion_gives_the_menus_and_matchings_of_one_copy_per_seat():
    menus = matchings = spare_seats = 0
    for n in range(1, 9):
        for truncation_prob in (0.3, 0.7):
            for seed in range(30):
                p = capacitated_market(n, 1000 * n + seed, truncation_prob)
                spare_seats += any(c > len(prios) for c, prios in zip(p.capacities, p.institution_prios))
                wide, copy_map = expand_many_to_one(p)
                seats, seat_map = expand_per_seat(p)
                for mech in (apda, ipda):
                    assert collapse_matching(mech(wide), copy_map) == collapse_matching(mech(seats), seat_map)
                    matchings += 1
                for i in range(n):
                    without, without_map = expand_per_seat(p.with_prefs(i, ()))
                    oracle = menu_from_matching(i, p, collapse_matching(ipda(without), without_map))
                    assert menu_da_many_to_one(i, p) == oracle, (n, seed, i)
                    menus += 1
    assert spare_seats > 300  # the markets where the two expansions differ are most of them
    assert (menus, matchings) == (2160, 960)


def test_a_capacity_of_a_billion_costs_what_the_lists_hold():
    start = time.perf_counter()
    p = Profile(("a", "b"), ("x",), ((0,), (0,)), ((0, 1),), (10**9,))
    wide, copy_map = expand_many_to_one(p)
    assert copy_map == (0, 0)
    assert [menu_da_many_to_one(i, p) for i in range(2)] == [frozenset({0})] * 2
    assert collapse_matching(apda(wide), copy_map).by_institution == {0: (0, 1)}
    assert time.perf_counter() - start < 0.5
