"""Independent reference implementations the suite checks the library against.

Everything here favors brute force over cleverness, shares no helpers with
the library, and is kept deliberately short so a disagreement points at the
library rather than at the oracle.
"""

from __future__ import annotations

import itertools
import statistics
from collections.abc import Callable, Sequence

from mdm.market import Matching, Profile


def all_partial_lists(m: int) -> list[tuple[int, ...]]:
    """Every strict list over a subset of range(m), including the empty one."""
    return [
        perm for r in range(m + 1) for perm in itertools.permutations(range(m), r)
    ]


def gs_reference(p: Profile) -> Matching:
    """Textbook applicant-proposing deferred acceptance, coded from scratch."""
    prefs = p.applicant_prefs
    prios = p.institution_prios
    nxt = [0] * p.n_applicants
    hold: dict[int, int] = {}
    free = [d for d in range(p.n_applicants) if prefs[d]]
    while free:
        d = free.pop(0)
        if nxt[d] >= len(prefs[d]):
            continue
        h = prefs[d][nxt[d]]
        nxt[d] += 1
        cur = hold.get(h)
        ranking = list(prios[h])
        if d not in ranking:
            free.append(d)
        elif cur is None or ranking.index(d) < ranking.index(cur):
            hold[h] = d
            if cur is not None:
                free.append(cur)
        else:
            free.append(d)
    return Matching(frozenset((d, h) for h, d in hold.items()))


def _is_stable(p: Profile, mu: dict[int, int]) -> bool:
    inv = {h: d for d, h in mu.items()}
    for d in range(p.n_applicants):
        current = mu.get(d)
        prefs = p.applicant_prefs[d]
        better = prefs if current is None else prefs[: prefs.index(current)]
        for h in better:
            prios = p.institution_prios[h]
            if d not in prios:
                continue
            held = inv.get(h)
            if held is None or prios.index(d) < prios.index(held):
                return False
    return True


def stable_matchings(p: Profile) -> list[Matching]:
    """All stable matchings of a unit-capacity market, by full enumeration."""
    assert p.unit_capacity
    acceptable = [
        [h for h in p.applicant_prefs[d] if d in p.institution_prios[h]]
        for d in range(p.n_applicants)
    ]
    out = []
    def extend(d: int, mu: dict[int, int], used: set[int]) -> None:
        if d == p.n_applicants:
            if _is_stable(p, mu):
                out.append(Matching(frozenset(mu.items())))
            return
        extend(d + 1, mu, used)
        for h in acceptable[d]:
            if h not in used:
                mu[d] = h
                used.add(h)
                extend(d + 1, mu, used)
                del mu[d]
                used.remove(h)
    extend(0, {}, set())
    return out


def menu_by_reports(run: Callable[[Profile], Matching], i: int, p: Profile) -> frozenset[int]:
    """Institutions i can reach over all her reports, probing run directly."""
    reachable = set()
    for rep in all_partial_lists(p.n_institutions):
        got = run(p.with_prefs(i, rep)).by_applicant.get(i)
        if got is not None:
            reachable.add(got)
    return frozenset(reachable)


def best_assignment_value(values: Sequence[Sequence[int]]) -> int:
    """Maximum total value of an injective bidder-to-item assignment."""
    nb, m = len(values), len(values[0])
    slots = list(range(m)) + [None] * nb
    return max(
        sum(values[i][j] for i, j in enumerate(pick) if j is not None)
        for pick in itertools.permutations(slots, nb)
    )


def count_optimal_assignments(values: Sequence[Sequence[int]]) -> int:
    """How many distinct assignments attain the maximum total value."""
    nb, m = len(values), len(values[0])
    slots = list(range(m)) + [None] * nb
    seen: dict[tuple[int | None, ...], int] = {}
    for pick in itertools.permutations(slots, nb):
        key = tuple(pick)
        seen[key] = sum(values[i][j] for i, j in enumerate(pick) if j is not None)
    best = max(seen.values())
    return sum(1 for v in seen.values() if v == best)


def _dp_welfare(rows: Sequence[Sequence[int]], allowed: int) -> Callable[[int, int], int]:
    """Memoised best(k, used): the top value bidders k.. reach on items in ``allowed`` but not ``used``."""
    memo: dict[tuple[int, int], int] = {}

    def best(k: int, used: int) -> int:
        if k == len(rows):
            return 0
        if (k, used) not in memo:
            out = best(k + 1, used)
            for j, value in enumerate(rows[k]):
                bit = 1 << j
                if allowed & bit and not used & bit:
                    out = max(out, value + best(k + 1, used | bit))
            memo[k, used] = out
        return memo[k, used]

    return best


def dp_max_weight_matching(values: Sequence[Sequence[int]]) -> tuple[int | None, ...]:
    """The lexicographically smallest optimal assignment (None first), read off the bitmask DP.

    Exponential in the number of items; meant for at most ten.
    """
    best = _dp_welfare(values, (1 << len(values[0])) - 1)
    assignment: list[int | None] = []
    used = 0
    for k, row in enumerate(values):
        target = best(k, used)
        if best(k + 1, used) == target:
            assignment.append(None)
            continue
        j = next(j for j, x in enumerate(row) if not used >> j & 1 and x + best(k + 1, used | 1 << j) == target)
        assignment.append(j)
        used |= 1 << j
    return tuple(assignment)


def dp_vcg_unit_demand(values: Sequence[Sequence[int]]) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
    """The DP assignment and each bidder's externality: the others' optimum without her minus beside her."""
    full = (1 << len(values[0])) - 1
    assignment = dp_max_weight_matching(values)
    welfare = sum(values[k][j] for k, j in enumerate(assignment) if j is not None)
    prices = []
    for k, j in enumerate(assignment):
        own = values[k][j] if j is not None else 0
        rest = list(values[:k]) + list(values[k + 1 :])
        prices.append(_dp_welfare(rest, full)(0, 0) - (welfare - own))
    return assignment, tuple(prices)


def dp_menu_unit_demand(i: int, values: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Per-item prices for bidder i: what the others' optimum loses without each item, by DP."""
    rest = list(values[:i]) + list(values[i + 1 :])
    full = (1 << len(values[0])) - 1
    base = _dp_welfare(rest, full)(0, 0)
    return tuple(base - _dp_welfare(rest, full & ~(1 << j))(0, 0) for j in range(len(values[0])))


def median_reference(votes: Sequence[int]) -> int:
    return int(statistics.median(votes))
