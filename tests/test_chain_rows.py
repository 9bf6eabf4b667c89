"""The vacancy chain on rank rows kept on the profile, checked against the proposing loop run from scratch.

_vacancy_chain scans rows kept on the profile: rows[h][k] is the rank applicant institution_prios[h][k] gives h,
n_institutions if she does not list h, and -1 until a chain first reads it. Menus taken in any order, on one reused
profile or each on a fresh one, must give every applicant the others' matching and the menu of the run from scratch
(oracles.ipda_without_reference). Afterwards every filled entry holds that rank, the kept run is unchanged, and a
second round of the same menus reads no rank dict at all.
"""

import copy
import random

import pytest

from oracles import STRUCTURED_FAMILIES, ipda_without_reference

from mdm.market import Profile
from mdm.mechanisms import ipda_without
from mdm.menus import menu_da_many_to_one

TRUNCATIONS = (0.0, 0.3, 0.7)
FAMILY_MARKETS = [(name, n) for name in STRUCTURED_FAMILIES for n in (5, 17, 30)]


def ranked(rng: random.Random, k: int, truncation: float) -> tuple[int, ...]:
    order = rng.sample(range(k), k)
    return tuple(order[: rng.randrange(k)]) if k and rng.random() < truncation else tuple(order)


def markets(truncation: float, count: int = 30):
    """count markets of 1..40 applicants and 1..40 institutions of capacity 1..3; with the given probability a list
    is cut at a random length."""
    rng = random.Random(f"chain-rows/{truncation}")
    for _ in range(count):
        n, m = rng.randint(1, 40), rng.randint(1, 40)
        yield Profile(
            tuple(f"d{d}" for d in range(n)),
            tuple(f"h{h}" for h in range(m)),
            tuple(ranked(rng, m, truncation) for _ in range(n)),
            tuple(ranked(rng, n, truncation) for _ in range(m)),
            tuple(rng.randint(1, 3) for _ in range(m)),
        )


def fresh(p: Profile) -> Profile:
    return Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios, p.capacities)


def assert_rows_hold_ranks(p: Profile) -> int:
    """Every filled entry of p's rows is the rank its applicant gives the institution; returns how many are filled."""
    filled = 0
    for h, row in enumerate(vars(p)["_chain_rows"]):
        if row is None:
            continue
        assert len(row) == len(p.institution_prios[h])
        for d, r in zip(p.institution_prios[h], row):
            if r != -1:
                assert r == p.applicant_rank[d].get(h, p.n_institutions), (p, h, d)
                filled += 1
    return filled


class CountingTable(dict):
    """A rank row that counts its reads."""

    reads = 0

    def get(self, *args):
        CountingTable.reads += 1
        return super().get(*args)

    def __getitem__(self, key):
        CountingTable.reads += 1
        return super().__getitem__(key)


def check_every_order(p: Profile, rng: random.Random) -> int:
    """All menus of p in a random order on p itself, and each on a fresh copy, against the reference; then the
    rows, the kept run and a second round in another order. Returns the number of filled entries."""
    n = p.n_applicants
    expected = {i: ipda_without_reference(i, p) for i in range(n)}
    order = rng.sample(range(n), n)
    assert ipda_without(order[0], p) == expected[order[0]], (p, order[0])
    kept = copy.deepcopy(vars(p)["_ipda_run"])
    for i in order[1:]:
        assert ipda_without(i, p) == expected[i], (p, i)
    for i in rng.sample(range(n), n):
        assert ipda_without(i, fresh(p)) == expected[i], (p, i)
    assert vars(p)["_ipda_run"] == kept, p
    filled = assert_rows_hold_ranks(p)

    # Every entry a chain reads is kept, so the same chains again make no dict read.
    vars(p)["applicant_rank"] = tuple(map(CountingTable, p.applicant_rank))
    CountingTable.reads = 0
    for i in rng.sample(range(n), n):
        assert menu_da_many_to_one(i, p) == expected[i][1], (p, i)
    assert CountingTable.reads == 0, p
    return filled


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_row_chains_give_the_matching_and_menu_of_the_run_from_scratch(truncation):
    rng = random.Random(f"chain-row-orders/{truncation}")
    assert sum(check_every_order(p, rng) for p in markets(truncation)) > 0


@pytest.mark.parametrize("name,n", FAMILY_MARKETS, ids=[f"{name}-{n}" for name, n in FAMILY_MARKETS])
def test_row_chains_on_the_structured_families(name, n):
    check_every_order(STRUCTURED_FAMILIES[name](n), random.Random(f"chain-row-family/{name}/{n}"))


def test_an_unlisted_applicant_fills_her_entry_with_the_number_of_institutions():
    # a holds x and b holds y; without a, x proposes to b, who does not list x and keeps y.
    p = Profile(("a", "b"), ("x", "y"), ((0,), (1,)), ((0, 1), (1,)))
    others, menu = ipda_without(0, p)
    assert others.by_applicant == {1: 1} and menu == frozenset({0})
    assert vars(p)["_chain_rows"] == [[-1, 2], None]
    assert (others, menu) == ipda_without_reference(0, p)
