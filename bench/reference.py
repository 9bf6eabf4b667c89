"""Reference computations the benchmark checks the program against.

Nothing here imports ``mdm``: markets are plain lists of index lists (best
first) and valuations plain lists of rows, so a disagreement points at the
program rather than at a shared helper.
"""

from __future__ import annotations

from typing import Sequence

Lists = Sequence[Sequence[int]]


def rank_tables(lists: Lists) -> list[dict[int, int]]:
    """Per owner: listed agent -> position (0 is best)."""
    return [{x: r for r, x in enumerate(l)} for l in lists]


def deferred_acceptance(prefs: Lists, prio_rank: Sequence[dict[int, int]]) -> dict[int, int]:
    """Applicant-proposing deferred acceptance; returns applicant -> institution."""
    nxt = [0] * len(prefs)
    holder: dict[int, int] = {}
    free = [d for d in range(len(prefs)) if prefs[d]]
    while free:
        d = free.pop()
        lst = prefs[d]
        while nxt[d] < len(lst):
            h = lst[nxt[d]]
            nxt[d] += 1
            r = prio_rank[h].get(d)
            if r is None:
                continue
            cur = holder.get(h)
            if cur is None or r < prio_rank[h][cur]:
                holder[h] = d
                if cur is not None:
                    free.append(cur)
                break
    return {d: h for h, d in holder.items()}


def top_trading_cycles(prefs: Lists, prios: Lists) -> dict[int, int]:
    """Top trading cycles, every cycle of a round executed at once.

    Applicants point at their best remaining listed institution and
    institutions at their best remaining listed applicant; an agent whose
    list has run out leaves unmatched.
    """
    n_d, n_h = len(prefs), len(prios)
    alive_d, alive_h = [True] * n_d, [True] * n_h
    ptr_d, ptr_h = [0] * n_d, [0] * n_h
    out: dict[int, int] = {}
    live_d = set(range(n_d))
    live_h = set(range(n_h))
    while live_d and live_h:
        changed = True
        while changed:
            changed = False
            for d in list(live_d):
                lst = prefs[d]
                while ptr_d[d] < len(lst) and not alive_h[lst[ptr_d[d]]]:
                    ptr_d[d] += 1
                if ptr_d[d] == len(lst):
                    alive_d[d] = False
                    live_d.discard(d)
                    changed = True
            for h in list(live_h):
                lst = prios[h]
                while ptr_h[h] < len(lst) and not alive_d[lst[ptr_h[h]]]:
                    ptr_h[h] += 1
                if ptr_h[h] == len(lst):
                    alive_h[h] = False
                    live_h.discard(h)
                    changed = True
        if not live_d or not live_h:
            break
        state: dict[int, int] = {}
        for start in live_d:
            path = []
            d = start
            while d not in state:
                state[d] = start
                path.append(d)
                d = prios[prefs[d][ptr_d[d]]][ptr_h[prefs[d][ptr_d[d]]]]
            if state[d] == start:  # the walk closed a new cycle at d
                for x in path[path.index(d):]:
                    h = prefs[x][ptr_d[x]]
                    out[x] = h
                    alive_d[x] = alive_h[h] = False
        live_d = {d for d in live_d if alive_d[d]}
        live_h = {h for h in live_h if alive_h[h]}
    return out


def singleton_menu(run, prefs: Lists, i: int, n_institutions: int) -> frozenset[int]:
    """Institutions h such that reporting the one-entry list (h,) gets i matched to h.

    For a strategyproof mechanism this is i's menu.
    """
    probe = list(prefs)
    menu = set()
    for h in range(n_institutions):
        probe[i] = (h,)
        if run(probe).get(i) == h:
            menu.add(h)
    return frozenset(menu)


def blocking_pairs(prefs: Lists, prio_rank: Sequence[dict[int, int]], mu: dict[int, int]) -> list[tuple[int, int]]:
    """Pairs (d, h) that list each other, where d prefers h and h prefers d to its holder."""
    holder = {h: d for d, h in mu.items()}
    out = []
    for d, lst in enumerate(prefs):
        for h in lst:
            if mu.get(d) == h:
                break
            r = prio_rank[h].get(d)
            if r is not None and (h not in holder or r < prio_rank[h][holder[h]]):
                out.append((d, h))
    return out


def max_assignment_value(values: Lists, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Largest total value of giving each listed row at most one listed column.

    Hungarian method with potentials on the square matrix padded with zeros,
    minimising negated values; an empty row or column stands for no item.
    """
    n = max(len(rows), len(cols))
    if n == 0:
        return 0
    cost = [[0] * n for _ in range(n)]
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            cost[a][b] = -values[i][j]
    inf = float("inf")
    u, v = [0] * (n + 1), [0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)  # match[col] = row, both 1-based
    for row in range(1, n + 1):
        match[0] = row
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while match[j0]:
            used[j0] = True
            i0, delta, j1 = match[j0], inf, 0
            cost_row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = cost_row[j - 1] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return -sum(cost[match[j] - 1][j - 1] for j in range(1, n + 1))


def unit_demand_prices(values: Lists) -> tuple[int, list[int], list[list[int]]]:
    """Optimal welfare, each bidder's welfare-of-the-others, and each bidder's item prices.

    The VCG price of bidder i holding an item worth x to her is
    others[i] - (welfare - x); her menu price for item j is what the others'
    best assignment loses without j.
    """
    bidders = range(len(values))
    items = range(len(values[0]))
    welfare = max_assignment_value(values, bidders, items)
    others, menus = [], []
    for i in bidders:
        rest = [k for k in bidders if k != i]
        base = max_assignment_value(values, rest, items)
        others.append(base)
        menus.append([base - max_assignment_value(values, rest, [c for c in items if c != j]) for j in items])
    return welfare, others, menus


def additive_vcg(values: Lists) -> tuple[list[set[int]], list[int]]:
    """Second-price auction per item: lowest-index top bidder wins at the second value."""
    allocation = [set() for _ in values]
    prices = [0] * len(values)
    for j in range(len(values[0])):
        column = [row[j] for row in values]
        winner = column.index(max(column))
        allocation[winner].add(j)
        if len(column) > 1:
            prices[winner] += sorted(column)[-2]
    return allocation, prices
