"""ipda_without as the full institution-proposing run plus one vacancy chain, checked against the run from scratch.

The run without applicant i is ipda on the full market followed by one chain: the institution i held proposes on,
and each applicant who accepts it passes her own holder on (Blum, Roth & Rothblum 1997). The full run is kept on
the profile. oracles.py keeps the route it replaced, the proposing loop from scratch with i excluded: both must give
every applicant the same matching of the others and the same menu, whatever order the menus are taken in.
"""

import copy
import random

import pytest

from oracles import ipda_without_reference

import mdm.mechanisms
from mdm.market import Matching, Profile
from mdm.mechanisms import collapse_matching, expand_many_to_one, ipda, ipda_without
from mdm.menus import menu_da, menu_da_many_to_one

TRUNCATIONS = (0.0, 0.3, 0.7)


def ranked(rng: random.Random, k: int, truncation: float) -> tuple[int, ...]:
    order = rng.sample(range(k), k)
    return tuple(order[: rng.randrange(k)]) if k and rng.random() < truncation else tuple(order)


def random_market(rng: random.Random, truncation: float, max_capacity: int) -> Profile:
    """1..40 applicants and 1..40 institutions of capacity 1..max_capacity; with the given probability a list is cut
    at a random length."""
    n, m = rng.randint(1, 40), rng.randint(1, 40)
    return Profile(
        tuple(f"d{d}" for d in range(n)),
        tuple(f"h{h}" for h in range(m)),
        tuple(ranked(rng, m, truncation) for _ in range(n)),
        tuple(ranked(rng, n, truncation) for _ in range(m)),
        tuple(rng.randint(1, max_capacity) for _ in range(m)),
    )


def markets(truncation: float, count: int = 40):
    """count markets at the given truncation, capacities 1..4 on every other one."""
    rng = random.Random(f"vacancy-chain/{truncation}")
    for t in range(count):
        yield random_market(rng, truncation, 4 if t % 2 else 1)


def fresh(p: Profile) -> Profile:
    return Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios, p.capacities)


def full_run(p: Profile) -> dict[int, int]:
    """ipda on everyone, folded back to the original institutions: applicant -> institution."""
    q, copy_map = expand_many_to_one(p)
    return collapse_matching(ipda(q), copy_map).by_applicant


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_every_applicant_gets_the_matching_and_menu_of_the_run_from_scratch(truncation):
    # How i's chain ended: she held no seat, a seat was left free, or the chain refilled the seat count.
    ends = {"unmatched": 0, "seat left free": 0, "refilled": 0}
    for p in markets(truncation):
        full = full_run(p)
        for i in range(p.n_applicants):
            got = ipda_without(i, p)
            assert got == ipda_without_reference(i, p), (p, i)
            if i not in full:
                ends["unmatched"] += 1
            else:
                ends["seat left free" if len(got[0].pairs) < len(full) else "refilled"] += 1
    assert all(ends.values()), ends


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_menus_taken_in_two_orders_are_identical_and_leave_the_kept_run_as_it_was(truncation):
    rng = random.Random(f"orders/{truncation}")
    for p in markets(truncation, 20):
        q = fresh(p)
        first, second = (rng.sample(range(p.n_applicants), p.n_applicants) for _ in range(2))
        ipda_without(first[0], p)
        kept = copy.deepcopy(vars(p)["_ipda_run"])
        a = {i: ipda_without(i, p) for i in first}
        b = {i: ipda_without(i, q) for i in second}
        assert a == b, p
        assert vars(p)["_ipda_run"] == kept, p


def test_nobody_lists_the_applicant():
    # Applicant 0 is on no priority list, so her menu is empty, with two seats at x and with one.
    p = Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (1, 0), (0,)), ((2, 1), (1,)), (2, 1))
    for q in (p, Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios)):
        others, menu = ipda_without(0, q)
        assert menu == frozenset()
        assert (others, menu) == ipda_without_reference(0, q)


def test_an_applicant_unmatched_in_the_full_run_leaves_it_unchanged():
    # x holds a and y holds b; c, last on both lists, is unmatched in the full run, so no chain runs.
    p = Profile(("a", "b", "c"), ("x", "y"), ((0,), (0, 1), (0, 1)), ((0, 1, 2), (1, 2)))
    assert full_run(p) == {0: 0, 1: 1}
    others, menu = ipda_without(2, p)
    assert others.by_applicant == full_run(p)
    assert menu == frozenset() == menu_da_many_to_one(2, p)
    assert (others, menu) == ipda_without_reference(2, p)


def test_a_chain_that_ends_with_an_institution_left_unmatched():
    # a holds y; without her y proposes to b, who keeps x, and y's list runs out.
    p = Profile(("a", "b"), ("x", "y"), ((1,), (0, 1)), ((1,), (0, 1)))
    others, menu = ipda_without(0, p)
    assert others.by_applicant == {1: 0}
    assert menu == frozenset({1})
    assert (others, menu) == ipda_without_reference(0, p)


@pytest.mark.parametrize("n", [1, 3])
def test_no_institutions(n):
    p = Profile(tuple(f"d{d}" for d in range(n)), (), ((),) * n, ())
    for i in range(n):
        assert ipda_without(i, p) == ipda_without_reference(i, p) == (ipda_without_reference(i, p)[0], frozenset())
        assert menu_da(i, p) == frozenset()


def with_capacities(p: Profile, capacities: tuple[int, ...]) -> Profile:
    return Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios, capacities)


def test_the_kept_run_counts_seats_to_the_matching_of_the_expansion():
    # The one kept run is on p itself, seats counted; folded back, the run on the expansion reaches the same matching
    # (Roth & Sotomayor 1990, ch. 5). In spare x has 5 seats and a list of 2; in huge y has 10^9 seats and a list of 3.
    spare = Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (1, 0), (0, 1)), ((2, 0), (0, 1, 2)), (5, 1))
    huge = with_capacities(spare, (1, 10**9))
    wide = next(markets(0.3))
    extra = [spare, huge, with_capacities(wide, (10**9,) * wide.n_institutions)]
    for p in [*(p for t in TRUNCATIONS for p in markets(t)), *extra]:
        menu_da_many_to_one(0, p)
        assert Matching(vars(p)["_ipda_run"][0].items()) == Matching.of(full_run(p)), p
    assert full_run(spare) == {0: 0, 1: 1, 2: 0} and full_run(huge) == {0: 1, 1: 1, 2: 0}


def test_the_menu_path_makes_no_copy_per_seat(monkeypatch):
    rng = random.Random("no-copies")
    n, m = 30, 12
    p = Profile(
        tuple(f"d{d}" for d in range(n)),
        tuple(f"h{h}" for h in range(m)),
        tuple(ranked(rng, m, 0.3) for _ in range(n)),
        tuple(ranked(rng, n, 0.3) for _ in range(m)),
        tuple(1 + h % 4 for h in range(m)),
    )
    expected = [ipda_without_reference(i, p) for i in range(n)]

    def refuse(q):
        raise AssertionError("the menu path expanded the market")

    monkeypatch.setattr(mdm.mechanisms, "expand_many_to_one", refuse)
    assert [ipda_without(i, p) for i in range(n)] == expected
    assert [menu_da_many_to_one(i, p) for i in range(n)] == [menu for _, menu in expected]
    _, held, nxt = vars(p)["_ipda_run"]
    assert (len(held), len(nxt)) == (p.n_applicants, p.n_institutions)
