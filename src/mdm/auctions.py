"""Sealed-bid auctions with menus: second price, and VCG for additive or
unit-demand bidders.

Money is integer everywhere. Ties break deterministically: the lowest
bidder index wins an item, and among equally good assignments the
lexicographically smallest is chosen, with "no item" ranked before any
item. A bidder's menu is what the others' values leave on offer: a single
price to beat for one item, a price per item when values add up, or a price
per item when each bidder can use at most one.

Menu functions take the full instance plus the bidder's index and ignore
that bidder's own row, mirroring the matching menus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

from mdm.market import InstanceError, load_json_object

Assignment = tuple  # item index or None per bidder


@dataclass(frozen=True)
class ValuationMatrix:
    """Integer item values, one row per bidder, every entry in [0, bound]."""

    values: tuple[tuple[int, ...], ...]
    bound: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))

    @property
    def n_bidders(self) -> int:
        return len(self.values)

    @property
    def n_items(self) -> int:
        return len(self.values[0]) if self.values else 0


def validate_matrix(v: ValuationMatrix) -> None:
    """Raise InstanceError unless the matrix fits the auction environment."""
    problems: list[str] = []
    if not isinstance(v.bound, int) or isinstance(v.bound, bool) or v.bound < 0:
        problems.append(f"K: must be a nonnegative integer, got {v.bound!r}")
    if not v.values:
        problems.append("values: need at least one bidder")
    elif not v.values[0]:
        problems.append("values: need at least one item")
    for i, row in enumerate(v.values):
        if len(row) != v.n_items:
            problems.append(f"values[{i}]: has {len(row)} entries, expected {v.n_items}")
            continue
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                problems.append(f"values[{i}][{j}]: expected an integer, got {x!r}")
            elif not (isinstance(v.bound, int) and 0 <= x <= v.bound):
                problems.append(f"values[{i}][{j}]: {x} is outside 0..{v.bound}")
    if problems:
        raise InstanceError("\n".join(problems))


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
            if not isinstance(price, int) or isinstance(price, bool) or price < 0:
                raise InstanceError(f"prices[{i}]: must be a nonnegative integer, got {price!r}")


def _check_bids(bids: Sequence[int]) -> tuple[int, ...]:
    bids = tuple(bids)
    if len(bids) < 2:
        raise InstanceError("an auction needs at least two bidders")
    for i, b in enumerate(bids):
        if not isinstance(b, int) or isinstance(b, bool) or b < 0:
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
    if not 0 <= i < len(bids):
        raise InstanceError(f"no bidder {i}")
    return max(b for k, b in enumerate(bids) if k != i)


def vcg_additive(v: ValuationMatrix) -> AuctionOutcome:
    """VCG when values add across items: a second-price auction per item.

    Each item goes to its highest bidder (lowest index on ties) at that
    item's second-highest value; a bidder's price is the sum over the items
    she wins. With a single bidder everything is hers for free.
    """
    validate_matrix(v)
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
    validate_matrix(v)
    if not 0 <= i < v.n_bidders:
        raise InstanceError(f"no bidder {i}")
    others = [row for k, row in enumerate(v.values) if k != i]
    return tuple(
        max((row[j] for row in others), default=0) for j in range(v.n_items)
    )


def _welfare(rows: Sequence[Sequence[int]], allowed: int) -> Callable[[int, int], int]:
    """Memoised best(k, used): the top value bidders k.. reach on items in ``allowed`` but not ``used``."""
    memo: dict[tuple[int, int], int] = {}

    def best(k: int, used: int) -> int:
        if k == len(rows):
            return 0
        try:
            return memo[k, used]
        except KeyError:
            pass
        out = best(k + 1, used)
        for j, value in enumerate(rows[k]):
            bit = 1 << j
            if allowed & bit and not used & bit:
                out = max(out, value + best(k + 1, used | bit))
        memo[k, used] = out
        return out

    return best


def max_weight_matching(v: ValuationMatrix) -> Assignment:
    """An assignment of at most one item per bidder maximizing total value.

    Returns one item index or None per bidder. Among all optima it picks
    the lexicographically smallest by bidder index, with None ranked before
    any item, so an all-zero matrix yields no assignments at all. Runtime
    grows with bidders times two to the number of items.
    """
    validate_matrix(v)
    rows = v.values
    best = _welfare(rows, (1 << v.n_items) - 1)
    assignment: list[int | None] = []
    used = 0
    for k in range(len(rows)):
        target = best(k, used)
        if best(k + 1, used) == target:
            assignment.append(None)
            continue
        for j, value in enumerate(rows[k]):
            bit = 1 << j
            if not used & bit and value + best(k + 1, used | bit) == target:
                assignment.append(j)
                used |= bit
                break
    return tuple(assignment)


def vcg_unit_demand(v: ValuationMatrix) -> AuctionOutcome:
    """VCG when each bidder can use at most one item.

    The allocation maximizes welfare; each winner pays the externality she
    exerts, the welfare the others could reach without her minus what they
    reach beside her.
    """
    validate_matrix(v)
    assignment = max_weight_matching(v)
    full = (1 << v.n_items) - 1
    welfare = sum(v.values[i][j] for i, j in enumerate(assignment) if j is not None)
    allocation = []
    prices = []
    for i, j in enumerate(assignment):
        others = v.values[:i] + v.values[i + 1 :]
        own = v.values[i][j] if j is not None else 0
        prices.append(_welfare(others, full)(0, 0) - (welfare - own))
        allocation.append(frozenset() if j is None else frozenset({j}))
    return AuctionOutcome(tuple(allocation), tuple(prices))


def menu_unit_demand(i: int, v: ValuationMatrix) -> tuple[int, ...]:
    """Bidder i's per-item prices when everyone wants at most one item.

    The price of item j is what the other bidders' best assignment loses by
    giving j up. Bidder i's menu is any single item at its price, or no
    item for free.
    """
    validate_matrix(v)
    if not 0 <= i < v.n_bidders:
        raise InstanceError(f"no bidder {i}")
    others = v.values[:i] + v.values[i + 1 :]
    full = (1 << v.n_items) - 1
    base = _welfare(others, full)(0, 0)
    return tuple(base - _welfare(others, full & ~(1 << j))(0, 0) for j in range(v.n_items))


def parse_auction(raw: bytes | str) -> ValuationMatrix:
    """Parse the JSON auction format {"K": ..., "values": [[...], ...]}."""
    doc = load_json_object(raw)
    problems = [f"top level: unknown field {key!r}" for key in sorted(set(doc) - {"K", "values"})]
    if "K" not in doc:
        problems.append("top level: missing field 'K'")
    values = doc.get("values", [])
    if not isinstance(values, list) or not all(isinstance(row, list) for row in values):
        problems.append("values: expected a list of lists")
        values = []
    if problems:
        raise InstanceError("\n".join(problems))
    matrix = ValuationMatrix(values=tuple(tuple(row) for row in values), bound=doc["K"])
    validate_matrix(matrix)
    return matrix


def serialize_auction(v: ValuationMatrix) -> str:
    """Serialize a ValuationMatrix to the JSON auction format."""
    validate_matrix(v)
    return json.dumps({"K": v.bound, "values": [list(r) for r in v.values]}, indent=2) + "\n"
