"""Sealed-bid auctions with menus: second price, and VCG for additive or
unit-demand bidders.

Money is integer everywhere. Ties break deterministically: the lowest
bidder index wins an item, and among equally good assignments the
lexicographically smallest is chosen, with "no item" ranked before any
item. A bidder's menu is what the others' values leave on offer: a single
price to beat for one item, a price per item when values add up, or a price
per item when each bidder can use at most one.

Menu functions take the full instance plus the bidder's index and ignore
that bidder's own row, mirroring the matching menus. A ValuationMatrix runs
validate_matrix when it is built, so no function here checks it again.

Unit demand runs on one shortest-augmenting-path assignment solve in
polynomial time, with no recursion. The tie-break is exact: integer
perturbation of the weights makes the wanted optimum the unique one. VCG
payments and menu prices are the least competitive prices of one solve,
found by one shortest-path search over its dual potentials, never by
solving again per bidder or per item.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from mdm.market import InstanceError, _check_index, _int_row_problems, _is_count, _not_a_list, _raise_problems
from mdm.market import load_small_format

Assignment = tuple  # item index or None per bidder
_INF = float("inf")


@dataclass(frozen=True)
class ValuationMatrix:
    """Integer item values, one row per bidder, every entry in [0, bound]; checked when built."""

    values: tuple[tuple[int, ...], ...]
    bound: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        except TypeError:
            raise _not_a_list({"values": self.values}, ("values",)) from None
        validate_matrix(self)

    @property
    def n_bidders(self) -> int:
        return len(self.values)

    @property
    def n_items(self) -> int:
        return len(self.values[0]) if self.values else 0


def validate_matrix(v: ValuationMatrix) -> None:
    """Raise InstanceError unless the matrix fits the auction environment."""
    problems: list[str] = []
    if not _is_count(v.bound):
        problems.append(f"K: must be a nonnegative integer, got {v.bound!r}")
    if not v.values:
        problems.append("values: need at least one bidder")
    elif not v.values[0]:
        problems.append("values: need at least one item")
    for i, row in enumerate(v.values):
        if len(row) != v.n_items:
            problems.append(f"values[{i}]: has {len(row)} entries, expected {v.n_items}")
        else:
            problems += _int_row_problems(f"values[{i}]", row, 0, v.bound)
    _raise_problems(problems)


@dataclass(frozen=True)
class AuctionOutcome:
    """Disjoint item sets per bidder plus the price each bidder pays."""

    allocation: tuple[frozenset[int], ...]
    prices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allocation", tuple(frozenset(s) for s in self.allocation))
        object.__setattr__(self, "prices", tuple(self.prices))
        if len(self.allocation) != len(self.prices):
            raise InstanceError("allocation and prices must cover the same bidders")
        seen: set[int] = set()
        for items in self.allocation:
            if items & seen:
                raise InstanceError(f"items {sorted(items & seen)} are allocated twice")
            seen |= items
        for i, price in enumerate(self.prices):
            if not _is_count(price):
                raise InstanceError(f"prices[{i}]: must be a nonnegative integer, got {price!r}")


def _check_bids(bids: Sequence[int]) -> tuple[int, ...]:
    bids = tuple(bids)
    if len(bids) < 2:
        raise InstanceError("an auction needs at least two bidders")
    for i, b in enumerate(bids):
        if not _is_count(b):
            raise InstanceError(f"bids[{i}]: must be a nonnegative integer, got {b!r}")
    return bids


def spa_outcome(bids: Sequence[int]) -> AuctionOutcome:
    """Second-price auction for one item, which is item 0 of the outcome.

    The highest bidder wins, the lowest index winning ties, and pays the
    second-highest bid; everyone else pays nothing.
    """
    bids = _check_bids(bids)
    winner = bids.index(max(bids))
    price = sorted(bids, reverse=True)[1]
    allocation = tuple(frozenset({0}) if i == winner else frozenset() for i in range(len(bids)))
    prices = tuple(price if i == winner else 0 for i in range(len(bids)))
    return AuctionOutcome(allocation, prices)


def spa_menu(i: int, bids: Sequence[int]) -> int:
    """The price bidder i must beat: the highest of the other bids.

    Her menu is to lose for free or to win at this price. Bidding strictly
    above it always wins; at exactly this price she wins only if every other
    top bidder has a higher index.
    """
    bids = _check_bids(bids)
    _check_index(i, len(bids), "bidder")
    return max(b for k, b in enumerate(bids) if k != i)


def vcg_additive(v: ValuationMatrix) -> AuctionOutcome:
    """VCG when values add across items: a second-price auction per item.

    Each item goes to its highest bidder (lowest index on ties) at that
    item's second-highest value; a bidder's price is the sum over the items
    she wins. With a single bidder everything is hers for free.
    """
    allocation = [set() for _ in range(v.n_bidders)]
    prices = [0] * v.n_bidders
    for j in range(v.n_items):
        column = [row[j] for row in v.values]
        winner = column.index(max(column))
        allocation[winner].add(j)
        if len(column) > 1:
            prices[winner] += sorted(column, reverse=True)[1]
    return AuctionOutcome(tuple(frozenset(s) for s in allocation), tuple(prices))


def menu_additive(i: int, v: ValuationMatrix) -> tuple[int, ...]:
    """Bidder i's per-item prices: the highest value any other bidder has.

    Her menu offers every item independently at its price, skipping an item
    costs nothing, and her own row never matters.
    """
    _check_index(i, v.n_bidders, "bidder")
    others = [row for k, row in enumerate(v.values) if k != i]
    return tuple(
        max((row[j] for row in others), default=0) for j in range(v.n_items)
    )


def _assign(cost: list[list[int]], n_cols: int) -> tuple[list[int], list[int], list[int]]:
    """Give every row its own column at the least total cost; rows must not outnumber columns.

    Shortest augmenting paths with dual potentials (Kuhn 1955; Jonker &
    Volgenant 1987): each row enters through one Dijkstra search over reduced
    costs, O(rows^2 * cols) in all, with no recursion. Returns the column of
    each row and potentials u, v with ``u[i] + v[j] <= cost[i][j]`` for every
    pair and equality on the assignment.
    """
    u = [0] * len(cost)
    v = [0] * n_cols
    col4row = [-1] * len(cost)
    row4col = [-1] * n_cols
    for cur in range(len(cost)):
        shortest = [_INF] * n_cols
        path = [-1] * n_cols
        remaining = list(range(n_cols))
        rows_seen: list[int] = []
        cols_seen: list[int] = []
        i, reach = cur, 0
        while True:
            rows_seen.append(i)
            row, base = cost[i], reach - u[i]
            lowest, pick = _INF, -1
            for idx, j in enumerate(remaining):
                d = base + row[j] - v[j]
                if d < shortest[j]:
                    shortest[j] = d
                    path[j] = i
                else:
                    d = shortest[j]
                if d < lowest or (d == lowest and row4col[j] < 0):  # a free column ends the search
                    lowest, pick = d, idx
            reach = lowest
            j = remaining[pick]
            remaining[pick] = remaining[-1]
            remaining.pop()
            cols_seen.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += reach
        for i in rows_seen[1:]:
            u[i] += reach - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= reach - shortest[j]
        while True:  # flip the alternating path back from the free column j
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row, u, v


def _optimum(w: Sequence[Sequence[int]], m: int) -> tuple[list[int | None], list[int], list[int]]:
    """A maximum-weight assignment of bidder rows ``w`` to m items, plus dual potentials.

    Returns each bidder's item (None unless held at a positive weight) and
    potentials ``a`` over bidders and ``b`` over items with ``a[k] + b[j] >=
    w[k][j]`` for every pair and equality for every held pair. The smaller
    side is the solver's rows, so every row gets a partner; a pair of weight
    zero or less means "no item", as a zero-weight dummy column would.
    """
    n = len(w)
    if n <= m:
        col4row, u, v = _assign([[-x if x > 0 else 0 for x in row] for row in w], m)
        pairs = enumerate(col4row)
        a, b = u, v
    else:
        col4row, u, v = _assign([[-x if x > 0 else 0 for x in col] for col in zip(*w)], n)
        pairs = ((k, j) for j, k in enumerate(col4row))
        a, b = v, u
    item_of: list[int | None] = [None] * n
    for k, j in pairs:
        if w[k][j] > 0:
            item_of[k] = j
    return item_of, [-x for x in a], [-x for x in b]


def _least_prices(w: Sequence[Sequence[int]], held: dict[int, int], pot: Sequence[int]) -> list[int]:
    """The least competitive price of every good, given an optimal assignment.

    Agents are the rows of ``w`` and goods its columns; ``held`` maps each
    assigned good to its agent. A good's least price is the most the others
    gain by refilling it once its holder leaves: an agent without a good
    takes it, or a holder moves over and its own good is refilled in turn
    (Leonard 1983; Demange, Gale & Sotomayor 1986). These chains are longest
    paths. The potentials ``pot``, with ``pot[j] - pot[a] >= w[k][j] -
    w[k][a]`` whenever agent k holds a, make every step nonnegative, so one
    dense Dijkstra search finds them all.
    """
    holders = set(held.values())
    reach = [0] * len(pot)  # the best direct claim; zero leaves the good empty
    for k, row in enumerate(w):
        if k not in holders:
            reach = [x if x > r else r for r, x in zip(reach, row)]
    dist = [p - r for p, r in zip(pot, reach)]
    todo = dict(held)
    while todo:
        x = min(todo, key=dist.__getitem__)
        row = w[todo.pop(x)]
        base = dist[x] - pot[x] + row[x]
        dist = [d if d <= c else c for d, c in zip(dist, [base + p - y for p, y in zip(pot, row)])]
    return [p - d for p, d in zip(pot, dist)]


def _perturbed(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """Weights whose unique heaviest assignment is the tie-broken optimum, and their scale.

    Bidder k's choice has rank r (None 0, item j j+1) and weighs
    ``value * (m+1)**n - r * (m+1)**(n-1-k)``. The ranks read as an n-digit
    number in base m+1 stay below the scale ``(m+1)**n``, so the heaviest
    assignment has the most value and, among those, the lexicographically
    smallest ranks. Python integers keep this exact.
    """
    base = len(rows[0]) + 1
    scale = digit = base ** len(rows)
    out = []
    for row in rows:
        digit //= base
        out.append([x * scale - (j + 1) * digit for j, x in enumerate(row)])
    return out, scale


def max_weight_matching(v: ValuationMatrix) -> Assignment:
    """An assignment of at most one item per bidder maximizing total value.

    Returns one item index or None per bidder. Among all optima it picks
    the lexicographically smallest by bidder index, with None ranked before
    any item, so an all-zero matrix yields no assignments at all. One
    shortest-augmenting-path solve over integer-perturbed weights finds it:
    O(r^2 * c) for r the smaller and c the larger of bidders and items.
    """
    return tuple(_optimum(_perturbed(v.values)[0], v.n_items)[0])


def vcg_unit_demand(v: ValuationMatrix) -> AuctionOutcome:
    """VCG when each bidder can use at most one item.

    The allocation is ``max_weight_matching``; each winner pays the
    externality she exerts, the welfare the others could reach without her
    minus what they reach beside her. These payments are the least
    competitive prices, so they come from the same solve: the others' best
    welfare without bidder k is the solve's welfare, less k's weight, plus
    the least price of k's item.
    """
    w, scale = _perturbed(v.values)
    item_of, _, pot = _optimum(w, v.n_items)
    least = _least_prices(w, {j: k for k, j in enumerate(item_of) if j is not None}, pot)
    total = sum(w[k][j] for k, j in enumerate(item_of) if j is not None)
    welfare = sum(v.values[k][j] for k, j in enumerate(item_of) if j is not None)
    allocation = []
    prices = []
    for k, j in enumerate(item_of):
        if j is None:
            allocation.append(frozenset())
            prices.append(0)
        else:
            # the others' welfare without k; the perturbation takes off less than one scale
            without = -(-(total - w[k][j] + least[j]) // scale)
            allocation.append(frozenset({j}))
            prices.append(without - (welfare - v.values[k][j]))
    return AuctionOutcome(tuple(allocation), tuple(prices))


def menu_unit_demand(i: int, v: ValuationMatrix) -> tuple[int, ...]:
    """Bidder i's per-item prices when everyone wants at most one item.

    The price of item j is what the other bidders' best assignment loses by
    giving j up. Bidder i's menu is any single item at its price, or no
    item for free. One solve over the others gives all the prices: the loss
    is the value of j to its holder less the least price of that holder in
    the market read with items as the agents.
    """
    _check_index(i, v.n_bidders, "bidder")
    others = v.values[:i] + v.values[i + 1 :]
    if not others:
        return (0,) * v.n_items
    item_of, pot, _ = _optimum(others, v.n_items)
    held = {k: j for k, j in enumerate(item_of) if j is not None}
    least = _least_prices(tuple(zip(*others)), held, pot)
    prices = [0] * v.n_items
    for k, j in held.items():
        prices[j] = others[k][j] - least[k]
    return tuple(prices)


def parse_auction(raw: bytes | str) -> ValuationMatrix:
    """Parse the JSON auction format {"K": ..., "values": [[...], ...]}."""
    bound, values = load_small_format(raw, "K", "values", rows=True)
    return ValuationMatrix(values=values, bound=bound)


def serialize_auction(v: ValuationMatrix) -> str:
    """Serialize a ValuationMatrix to the JSON auction format."""
    return json.dumps({"K": v.bound, "values": [list(r) for r in v.values]}, indent=2) + "\n"
