"""Unit-demand assignment, VCG prices and menus against the bitmask DP oracle, and at scale."""

import random

import pytest

from oracles import dp_max_weight_matching, dp_menu_unit_demand, dp_vcg_unit_demand

from mdm.auctions import ValuationMatrix, max_weight_matching, menu_unit_demand, vcg_unit_demand


def random_rows(rng, n, m, bound):
    rows = [[rng.randint(0, bound) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.2:
        rows[rng.randrange(n)] = [0] * m
    if rng.random() < 0.2:
        j = rng.randrange(m)
        for row in rows:
            row[j] = 0
    return tuple(tuple(row) for row in rows)


def assert_matches_dp(rows, bound):
    v = ValuationMatrix(rows, bound)
    assignment, prices = dp_vcg_unit_demand(rows)
    assert max_weight_matching(v) == assignment == dp_max_weight_matching(rows)
    out = vcg_unit_demand(v)
    assert out.allocation == tuple(frozenset() if j is None else frozenset({j}) for j in assignment)
    assert out.prices == prices
    for i in range(len(rows)):
        assert menu_unit_demand(i, v) == dp_menu_unit_demand(i, rows)


@pytest.mark.parametrize(
    "shape",
    [(3, 5), (5, 3), (4, 4), (1, 6), (6, 1), (2, 7), (7, 2)],
    ids=lambda s: f"{s[0]}x{s[1]}",
)
def test_identical_to_dp_oracle_by_shape(shape):
    rng = random.Random(f"shape/{shape}")
    for _ in range(60):
        bound = rng.choice((0, 1, 2, 3))
        assert_matches_dp(random_rows(rng, *shape, bound), bound)


def test_identical_to_dp_oracle_on_random_shapes():
    rng = random.Random(7)
    for _ in range(400):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        bound = rng.choice((0, 1, 2, 3, 5, 40))
        assert_matches_dp(random_rows(rng, n, m, bound), bound)


def test_identical_to_dp_oracle_on_all_zero_and_all_equal():
    for n in range(1, 5):
        for m in range(1, 5):
            assert_matches_dp(tuple((0,) * m for _ in range(n)), 0)
            assert_matches_dp(tuple((3,) * m for _ in range(n)), 3)


def test_identical_to_dp_oracle_at_ten_items():
    rng = random.Random(10)
    for n in (3, 11):
        assert_matches_dp(random_rows(rng, n, 10, 4), 4)


TALL = tuple(((7 * b) % 101,) for b in range(1500))


def test_1500_bidders_one_item_second_price():
    v = ValuationMatrix(TALL, 100)
    column = [row[0] for row in TALL]
    # ties rank "no item" first, so the last of the top bidders wins
    top = len(column) - 1 - column[::-1].index(max(column))
    second = max(x for b, x in enumerate(column) if b != top)
    out = vcg_unit_demand(v)
    assert max_weight_matching(v) == tuple(0 if b == top else None for b in range(len(column)))
    assert out.allocation[top] == frozenset({0})
    assert sum(len(items) for items in out.allocation) == 1
    assert out.prices[top] == second
    assert sum(out.prices) == second
    assert menu_unit_demand(top, v) == (second,)
    assert menu_unit_demand(0, v) == (max(column),)


def test_one_bidder_1500_items_takes_its_best_for_free():
    row = tuple(x for (x,) in TALL)
    v = ValuationMatrix((row,), 100)
    out = vcg_unit_demand(v)
    assert out.allocation == (frozenset({row.index(max(row))}),)
    assert out.prices == (0,)
    assert menu_unit_demand(0, v) == (0,) * 1500


def dual_bound(rows, prices):
    """Weak LP duality: item prices plus each bidder's best surplus bound every assignment's value."""
    return sum(prices) + sum(max([0] + [x - p for x, p in zip(row, prices)]) for row in rows)


def test_120_by_120_reaches_the_dual_bound():
    rng = random.Random(120)
    rows = tuple(tuple(rng.randint(0, 50) for _ in range(120)) for _ in range(120))
    out = vcg_unit_demand(ValuationMatrix(rows, 50))
    prices = [0] * 120
    welfare = 0
    for k, items in enumerate(out.allocation):
        for j in items:
            prices[j] = out.prices[k]
            welfare += rows[k][j]
    # VCG prices are competitive prices, so they certify the welfare as optimal.
    assert welfare == dual_bound(rows, prices)
    assert [next(iter(items), None) for items in out.allocation] == list(
        max_weight_matching(ValuationMatrix(rows, 50))
    )
