"""Independent reference implementations the suite checks the library against.

Everything here favors brute force over cleverness, shares no helpers with
the library, and is kept deliberately short so a disagreement points at the
library rather than at the oracle.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import statistics
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from mdm.descriptions import (
    END_OF_LIST,
    DescriptionError,
    ExtensiveFormDescription,
    MechanismView,
    MenuDescriptionError,
    Query,
    Vertex,
    VertexId,
    validate_description,
)
from mdm.market import (
    APPLICANT,
    INSTITUTION,
    RESERVED_MARKER,
    InstanceError,
    Matching,
    Profile,
    load_json_object,
    menu_from_matching,
    validate_profile,
)
from mdm.mechanisms import QueryLog, _propose, collapse_matching, expand_many_to_one
from mdm.menus import MenuPlan, UnrollDag


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


def da_reference(p: Profile, proposing: str = APPLICANT) -> tuple[Matching, list[tuple]]:
    """Deferred acceptance, one proposal per pick, smallest free index picked each time.

    Returns the matching and the list reads and rank lookups in QueryLog's
    event shapes. With proposing=INSTITUTION the sides are interchanged, as
    in ipda.
    """
    if proposing == APPLICANT:
        prefs, prios, side, other = p.applicant_prefs, p.institution_prios, APPLICANT, INSTITUTION
    else:
        prefs, prios, side, other = p.institution_prios, p.applicant_prefs, INSTITUTION, APPLICANT
    rank = [{x: r for r, x in enumerate(ranked)} for ranked in prios]
    events: list[tuple] = []
    nxt = [0] * len(prefs)
    hold: dict[int, int] = {}
    free = [a for a in range(len(prefs)) if prefs[a]]
    while free:
        a = min(free)
        free.remove(a)
        if nxt[a] >= len(prefs[a]):
            continue
        b = prefs[a][nxt[a]]
        events.append(("read", side, a, nxt[a], b))
        nxt[a] += 1
        cur = hold.get(b)
        events.append(("lookup", other, b, a))
        if cur is not None:
            events.append(("lookup", other, b, cur))
        r = rank[b].get(a)
        if r is None or (cur is not None and rank[b][cur] < r):
            free.append(a)
        else:
            hold[b] = a
            if cur is not None:
                free.append(cur)
    pairs = hold.items() if proposing == APPLICANT else ((b, a) for a, b in hold.items())
    return Matching(frozenset((a, b) for b, a in pairs)), events


def apda_loop_reference(p: Profile, log: QueryLog | None = None) -> Matching:
    """apda as it ran with a loop of its own: free applicants from a heap, smallest index first.

    The picked applicant proposes down her list until some institution holds
    her. Each proposal logs the read, the institution's lookup of her rank,
    and its lookup of the applicant it holds, if any.
    """
    prefs = p.applicant_prefs
    rank = [{d: r for r, d in enumerate(ranked)} for ranked in p.institution_prios]
    n, m = p.n_applicants, p.n_institutions
    nxt = [0] * n
    hold: list[int | None] = [None] * m
    held = [n] * m
    free = [d for d in range(n) if prefs[d]]
    while free:
        d = heapq.heappop(free)
        ranked = prefs[d]
        k = nxt[d]
        while k < len(ranked):
            h = ranked[k]
            if log is not None:
                log.read(APPLICANT, d, k, h)
                log.lookup(INSTITUTION, h, d)
                if hold[h] is not None:
                    log.lookup(INSTITUTION, h, hold[h])
            k += 1
            r = rank[h].get(d, n)
            if r < held[h]:
                if hold[h] is not None:
                    heapq.heappush(free, hold[h])
                hold[h], held[h] = d, r
                break
        nxt[d] = k
    return Matching((d, h) for h, d in enumerate(hold) if d is not None)


def ipda_transposed_reference(p: Profile, log: QueryLog | None = None) -> Matching:
    """ipda as it ran: apda_loop_reference on p with its sides interchanged, its matching and events flipped back."""
    transposed = Profile(p.institution_names, p.applicant_names, p.institution_prios, p.applicant_prefs)
    inner = QueryLog()
    mu = apda_loop_reference(transposed, inner)
    if log is not None:
        side = {APPLICANT: INSTITUTION, INSTITUTION: APPLICANT}
        log.events.extend((e[0], side[e[1]], *e[2:]) for e in inner.events)
    return Matching((h, d) for d, h in mu.pairs)


def others_matching_reference(i: int, p: Profile) -> Matching:
    """The matching of everyone but i as menu_da and describe read it: ipda_transposed_reference on a copy of p with
    i's list cleared, on its unit-capacity expansion, folded back to the original institutions."""
    expanded, copy_map = expand_many_to_one(p.with_prefs(i, ()))
    return collapse_matching(ipda_transposed_reference(expanded), copy_map)


def menu_da_reference(i: int, p: Profile) -> frozenset[int]:
    """menu_da_many_to_one as it ran: others_matching_reference read by menu_from_matching."""
    return menu_from_matching(i, p, others_matching_reference(i, p))


def ipda_without_reference(i: int, p: Profile) -> tuple[Matching, frozenset[int]]:
    """ipda_without as it ran before the vacancy chain: the proposing loop from scratch on p's unit-capacity
    expansion with i excluded, the menu read off its final pointers, both folded back to the original institutions.

    The loop excluded i by holding -1 for her. Here her list is cleared instead: she then ranks every institution at
    the number of institutions, the rank she holds while unmatched, so she turns every offer down all the same.
    """
    q, copy_map = expand_many_to_one(p)
    mu, nxt = {}, [0] * q.n_institutions
    _propose(q.with_prefs(i, ()), mu, nxt, None)
    menu = frozenset(copy_map[c] for c, rank in enumerate(q.institution_rank) if rank.get(i, nxt[c]) < nxt[c])
    return Matching((d, copy_map[c]) for d, c in mu.items()), menu


def chain_phase_reference(
    p: Profile, mu: dict[int, int], nxt: list[int], d_term: set[int], events: list[tuple]
) -> Matching:
    """The rejection-chain phase of receiver_optimal, restarted from the least non-terminal applicant each time.

    Institutions keep proposing below their pointers nxt; a chain that
    revisits an applicant is written back as a rotation. mu, nxt and events
    are updated in place.
    """
    n = p.n_applicants
    rank = [{h: r for r, h in enumerate(ranked)} for ranked in p.applicant_prefs]
    d_term = d_term | {d for d in range(n) if d not in mu}

    def next_accepting(h: int) -> int | None:
        prios = p.institution_prios[h]
        while nxt[h] < len(prios):
            d = prios[nxt[h]]
            events.append(("read", INSTITUTION, h, nxt[h], d))
            nxt[h] += 1
            events.append(("lookup", APPLICANT, d, h))
            r = rank[d].get(h)
            if r is not None and (d not in mu or r < rank[d][mu[d]]):
                return d
        return None

    while len(d_term) < n:
        d_hat = min(d for d in range(n) if d not in d_term)
        h = mu[d_hat]
        v = [(d_hat, h)]
        while v:
            d = next_accepting(h)
            if d is None or d in d_term:
                d_term.update(x for x, _ in v)
                v = []
            elif all(x != d for x, _ in v):
                v.append((d, mu[d]))
                h = mu[d]
            else:
                start = [x for x, _ in v].index(d)
                t = v[start:]
                for j, (_, h_j) in enumerate(t):
                    mu[t[(j + 1) % len(t)][0]] = h_j
                del v[start:]
                if v:
                    h_0 = v[-1][1]
                    d_1, h_k = t[0][0], t[-1][1]
                    if rank[d_1][h_k] < rank[d_1][h_0]:
                        h = h_0
                    else:
                        v.append((d_1, h_k))
                        h = h_k
    return Matching(frozenset(mu.items()))


def receiver_optimal_reference(p: Profile) -> tuple[Matching, list[tuple]]:
    """receiver_optimal with institutions proposing: a smallest-index-first proposing run, then the chain phase."""
    rank = [{h: r for r, h in enumerate(ranked)} for ranked in p.applicant_prefs]
    events: list[tuple] = []
    nxt = [0] * p.n_institutions
    mu: dict[int, int] = {}
    free = [h for h in range(p.n_institutions) if p.institution_prios[h]]
    while free:
        h = min(free)
        free.remove(h)
        prios = p.institution_prios[h]
        while nxt[h] < len(prios):
            d = prios[nxt[h]]
            events.append(("read", INSTITUTION, h, nxt[h], d))
            nxt[h] += 1
            events.append(("lookup", APPLICANT, d, h))
            r = rank[d].get(h)
            if r is not None and (d not in mu or r < rank[d][mu[d]]):
                if d in mu:
                    free.append(mu[d])
                mu[d] = h
                break
    return chain_phase_reference(p, mu, nxt, set(), events), events


def _ttc_cycles_reference(point_d: dict[int, int], point_h: dict[int, int]) -> list[list[int]]:
    """All applicant cycles d0 -> point_d[d0] -> d1 -> ... -> d0; walks reaching a non-pointing applicant end."""
    cycles: list[list[int]] = []
    state: dict[int, int] = {}  # applicant -> 0 in progress, 1 done
    for start in sorted(point_d):
        if start in state:
            continue
        path: list[int] = []
        d = start
        while d not in state and d in point_d:
            state[d] = 0
            path.append(d)
            d = point_h[point_d[d]]
        if state.get(d) == 0:
            cycles.append(path[path.index(d):])
        for x in path:
            state[x] = 1
    return cycles


def ttc_rounds_reference(
    p: Profile, kind: str, seed: int = 0, absent: int | None = None
) -> tuple[dict[int, int], frozenset[int]]:
    """Trading-cycle rounds rebuilt from scratch each round; returns the trades and the surviving institutions.

    Each round removes exhausted agents until none is left, points every
    remaining agent at its first remaining choice, finds all cycles, and
    executes the ones the cycle policy kind picks. The absent applicant
    stays without pointing and never trades.
    """
    prefs, prios = p.applicant_prefs, p.institution_prios
    rng = random.Random(seed) if kind == "seeded-random" else None
    active_d = set(range(p.n_applicants))
    active_h = set(range(p.n_institutions))
    out: dict[int, int] = {}
    while True:
        changed = True
        while changed:
            gone_d = [d for d in active_d if d != absent and not any(h in active_h for h in prefs[d])]
            active_d.difference_update(gone_d)
            gone_h = [h for h in active_h if not any(d in active_d for d in prios[h])]
            active_h.difference_update(gone_h)
            changed = bool(gone_d or gone_h)
        point_d = {d: next(h for h in prefs[d] if h in active_h) for d in active_d if d != absent}
        point_h = {h: next(d for d in prios[h] if d in active_d) for h in active_h}
        cycles = _ttc_cycles_reference(point_d, point_h)
        if not cycles:
            return out, frozenset(active_h)
        if kind == "lowest-index-applicant-first":
            chosen = [min(cycles, key=min)]
        elif kind == "all-simultaneous":
            chosen = cycles
        else:
            chosen = [cycles[rng.randrange(len(cycles))]]
        for cycle in chosen:
            for d in cycle:
                h = point_d[d]
                out[d] = h
                active_d.remove(d)
                active_h.remove(h)


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


def unroll_dag_check_reference(dag, mu: dict[int, int], frontier, proposer: int | None, menu: set[int]) -> None:
    """The unroll-DAG rules by a full rescan, as UnrollDag.check ran before it went incremental.

    Reads only the DAG's nodes, out, preds and node_of, and raises
    AssertionError with the reason texts of UnrollDag.check.
    """

    def fail(reason: str) -> None:
        raise AssertionError(f"unroll dag invariant violated: {reason}\n{dag!r}")

    i = dag.applicant
    for u, v in dag.out.items():
        if u not in dag.preds.get(v, ()):
            fail(f"edge {u}->{v} missing from predecessor index")
        if mu.get(v[0]) != u[1]:
            fail(f"edge {u}->{v} but tentative match of {v[0]} is {mu.get(v[0])}")
    for v, us in dag.preds.items():
        for u in us:
            if dag.out.get(u) != v:
                fail(f"stale predecessor {u} recorded for {v}")
    for node in dag.nodes:
        if node[0] == i:
            if dag.preds.get(node):
                fail(f"source {node} has predecessors")
            if node[1] not in menu:
                fail(f"source {node} outside the menu")
        elif not dag.preds.get(node):
            fail(f"non-source {node} has no predecessors")
    for d, node in dag.node_of.items():
        if node not in dag.nodes or node[0] != d:
            fail(f"node index broken for applicant {d}")
    if sum(node[0] != i for node in dag.nodes) != len(dag.node_of):
        fail("an applicant appears in two nodes")
    if proposer is not None and frontier is not None:
        with_h = {node for node in dag.nodes if node[1] == proposer}
        if frontier != with_h:
            fail(f"frontier {sorted(frontier)} != nodes of proposer {proposer} {sorted(with_h)}")
        for node in frontier:
            if node in dag.out:
                fail(f"frontier node {node} has an out-edge")


def hold_run_reference(q: Profile, i: int, events: list[tuple] | None) -> tuple[dict[int, int], list[int], list[int]]:
    """menu_da_plan's capture run as it was first written: deferred acceptance on a hold market.

    Institution j lists a private hold applicant n + j in i's slot, and the
    hold applicant lists only j, so an institution reaching i's slot is held
    there for good. Free institutions propose from a stack, lowest index on
    top. Reads of a hold applicant are logged as reads of i, and her rank
    lookups are not logged. Returns the tentative matching over everyone
    else, the pointers, and the captured institutions in ascending order.
    """
    n, m = q.n_applicants, q.n_institutions
    prios = [tuple(n + j if d == i else d for d in ranked) for j, ranked in enumerate(q.institution_prios)]
    rank = [{h: r for r, h in enumerate(ranked)} for ranked in q.applicant_prefs] + [{j: 0} for j in range(m)]
    nxt = [0] * m
    mu: dict[int, int] = {}
    stack = [j for j in range(m - 1, -1, -1) if prios[j]]
    while stack:
        h = stack.pop()
        while nxt[h] < len(prios[h]):
            d = prios[h][nxt[h]]
            if events is not None:
                events.append(("read", INSTITUTION, h, nxt[h], i if d >= n else d))
                if d < n:
                    events.append(("lookup", APPLICANT, d, h))
            nxt[h] += 1
            r = rank[d].get(h)
            if r is not None and (d not in mu or r < rank[d][mu[d]]):
                if d in mu:
                    stack.append(mu[d])
                mu[d] = h
                break
    captured = sorted(h for d, h in mu.items() if d >= n)
    return {d: h for d, h in mu.items() if d < n}, nxt, captured


def menu_da_plan_reference(i: int, p: Profile, log: QueryLog | None = None) -> MenuPlan:
    """menu_da_plan's drain as it ran with a branch of its own for an applicant without a dag node.

    The loop, _collide and the scan _next_interested are kept as they were,
    after hold_run_reference; the DAG is the library's UnrollDag, so a
    disagreement points at the drain or the scan.
    """
    validate_profile(p)
    q = p.with_prefs(i, ())
    mu, nxt, captured = hold_run_reference(q, i, log.events if log is not None else None)
    menu: set[int] = set(captured)
    dag = UnrollDag(i)

    pending = list(reversed(captured))
    while pending:
        h0 = pending.pop()
        frontier = {dag.add_source(h0)}
        dag.check(mu, frontier, h0, menu)
        h: int | None = h0
        while h is not None:
            d = _next_interested_reference(q, i, mu, dag, nxt, h, log)
            if d is None:
                h = None
            elif d == i:
                menu.add(h)
                frontier.add(dag.add_source(h))
            elif d not in dag.node_of:
                fallback = mu.get(d)
                node = dag.add_node(d, fallback)
                for u in frontier:
                    dag.add_edge(u, node)
                frontier = {node}
                dag.move(mu, d, h)
                h = fallback
            else:
                h = _collide_reference(q, mu, dag, frontier, d, h)
            dag.check(mu, frontier if h is not None else None, h, menu)

    assert menu == {node[1] for node in dag.nodes if node[0] == i}
    tentative = Matching.of(mu)
    unmatched = frozenset(d for d in range(q.n_applicants) if d != i and d not in mu)
    return MenuPlan(
        applicant=i,
        market=q,
        menu=frozenset(menu),
        tentative=tentative,
        dag=dag,
        terminal=unmatched,
        pointers=tuple(nxt),
    )


def _next_interested_reference(
    q: Profile, i: int, mu: dict[int, int], dag, nxt: list[int], h: int, log: QueryLog | None
) -> int | None:
    prios = q.institution_prios[h]
    rank = q.applicant_rank
    while nxt[h] < len(prios):
        d = prios[nxt[h]]
        if log is not None:
            log.read(INSTITUTION, h, nxt[h], d)
        nxt[h] += 1
        if d == i:
            return i
        node = dag.node_of.get(d)
        reservation = node[1] if node is not None else mu.get(d)
        if log is not None:
            log.lookup(APPLICANT, d, h)
        r = rank[d].get(h)
        if r is None:
            continue
        if reservation is None or r < rank[d][reservation]:
            return d
    return None


def _collide_reference(q: Profile, mu: dict[int, int], dag, frontier: set, d: int, h: int) -> int:
    p1 = dag.node_of[d]
    preds1 = set(dag.preds.get(p1, ()))
    removed = dag.unique_pred_chain(p1)
    dag.remove_chain(removed)
    frontier.difference_update(removed)
    cur = mu[d]
    if cur == h:
        raise AssertionError(f"institution {h} proposed to its own match {d}")
    if q.applicant_rank[d][cur] < q.applicant_rank[d][h]:
        node = dag.add_node(d, h)
        for u in preds1:
            dag.add_edge(u, node)
        frontier.add(node)
        return h
    if frontier:
        node = dag.add_node(d, cur)
        for u in frontier:
            dag.add_edge(u, node)
        frontier.clear()
        frontier.add(node)
    frontier.update(preds1)
    dag.move(mu, d, h)
    return cur


def _type_of(types, player: int, vid: VertexId):
    try:
        return types[player]
    except (IndexError, KeyError):
        raise DescriptionError(
            f"vertex {vid[0]}:{vid[1]} queries player {player} but the profile has no such type"
        ) from None


def _answer(q: Query, t):
    if q.kind == "rank":
        seq = tuple(t)
        return seq[q.arg] if q.arg < len(seq) else END_OF_LIST
    return t


def _walk(d: ExtensiveFormDescription, types) -> list[tuple[VertexId, Vertex]]:
    """The evaluation path as (vertex id, vertex) pairs, source to sink."""
    vid = d.source
    path: list[tuple[VertexId, Vertex]] = []
    while True:
        v = d.vertex(vid)
        path.append((vid, v))
        if v.succ is not None:
            vid = v.succ
            continue
        if v.table is None:
            return path
        ans = _answer(v.query, _type_of(types, v.player, vid))
        if ans not in v.table:
            raise DescriptionError(
                f"vertex {vid[0]}:{vid[1]} got answer {ans!r} outside its table"
            )
        vid = v.table[ans]


def check_menu_description_reference(
    d: ExtensiveFormDescription,
    mech: MechanismView,
    i: int,
    domain,
) -> None:
    """check_menu_description as it ran before it remembered walks: a full walk per profile.

    Keeps the library's structure check and error classes; the walk and the
    per-profile loop are its own.
    """
    validate_description(d)
    if len(d.layers) < 2:
        raise MenuDescriptionError("b", "a menu description needs a menu layer before its sinks")
    menu_layer = len(d.layers) - 2
    for li in range(menu_layer):
        for idx, v in enumerate(d.layers[li]):
            if v.player == i:
                raise MenuDescriptionError(
                    "a", f"vertex {li}:{idx} queries player {i} before the menu layer"
                )
    for idx, v in enumerate(d.layers[menu_layer]):
        if v.table is None or v.player != i:
            raise MenuDescriptionError(
                "b", f"menu-layer vertex {menu_layer}:{idx} does not query player {i}"
            )
        if v.label is None:
            raise MenuDescriptionError(
                "b", f"menu-layer vertex {menu_layer}:{idx} carries no menu label"
            )
    for types in domain:
        types = tuple(types)
        path = _walk(d, types)
        visited = {vid[0]: (vid, v) for vid, v in path}
        if menu_layer not in visited:
            raise MenuDescriptionError(
                "b", "the evaluation path ends before the menu layer", witness=types
            )
        vid, v = visited[menu_layer]
        expected_menu = mech.menu(types)
        if v.label != expected_menu:
            raise MenuDescriptionError(
                "b",
                f"vertex {vid[0]}:{vid[1]} shows menu {v.label!r} but the menu is {expected_menu!r}",
                witness=types,
            )
        sink_vid, sink = path[-1]
        expected = mech.i_outcome(types)
        if sink.label != expected:
            raise MenuDescriptionError(
                "c",
                f"sink {sink_vid[0]}:{sink_vid[1]} shows {sink.label!r} but the outcome is {expected!r}",
                witness=types,
            )


def _check_name_reference(name: object, path: str, problems: list[str]) -> None:
    if not isinstance(name, str) or not name:
        problems.append(f"{path}: name must be a nonempty string")
    elif RESERVED_MARKER in name:
        problems.append(f"{path}: name {name!r} uses the reserved marker {RESERVED_MARKER!r}")


def _check_records_reference(records: object, path: str, list_key: str, problems: list[str]) -> list[dict]:
    if not isinstance(records, list):
        problems.append(f"{path}: expected a list")
        return []
    allowed = {"name", list_key} | ({"capacity"} if list_key == "prios" else set())
    out: list[dict] = []
    for k, rec in enumerate(records):
        where = f"{path}[{k}]"
        if not isinstance(rec, dict):
            problems.append(f"{where}: expected an object")
            continue
        for key in sorted(set(rec) - allowed):
            problems.append(f"{where}: unknown field {key!r}")
        if "name" not in rec:
            problems.append(f"{where}: missing name")
            continue
        _check_name_reference(rec.get("name"), where, problems)
        ranked = rec.get(list_key, [])
        if not isinstance(ranked, list) or not all(isinstance(x, str) for x in ranked):
            problems.append(f"{where}.{list_key}: expected a list of names")
            continue
        out.append(rec)
    return out


def parse_instance_reference(raw: bytes | str) -> Profile:
    """parse_instance as it ran before its fast paths: per-entry checks, then validate_profile.

    Agents are indexed in lexicographic name order, so parsing a serialized
    profile reproduces it exactly. Every problem is reported with the path
    of the offending entry.
    """
    doc = load_json_object(raw)
    problems: list[str] = []
    for key in sorted(set(doc) - {"applicants", "institutions"}):
        problems.append(f"top level: unknown field {key!r}")
    applicants = _check_records_reference(doc.get("applicants", []), "applicants", "prefs", problems)
    institutions = _check_records_reference(doc.get("institutions", []), "institutions", "prios", problems)
    if problems:
        raise InstanceError("\n".join(problems))

    def index_by_name(records: list[dict], path: str) -> dict[str, int]:
        seen: set[str] = set()
        for k, rec in enumerate(records):
            if rec["name"] in seen:
                problems.append(f"{path}[{k}]: duplicate name {rec['name']!r}")
            seen.add(rec["name"])
        return {name: i for i, name in enumerate(sorted(seen))}

    d_index = index_by_name(applicants, "applicants")
    h_index = index_by_name(institutions, "institutions")
    for name in sorted(set(d_index) & set(h_index)):
        problems.append(f"name {name!r} is used on both sides")

    def resolve(rec: dict, list_key: str, target: dict[str, int], path: str) -> tuple[int, ...]:
        ranked: list[int] = []
        seen: set[int] = set()
        for k, name in enumerate(rec.get(list_key, [])):
            if name not in target:
                problems.append(f"{path}.{list_key}[{k}]: unknown agent name {name!r}")
            elif target[name] in seen:
                problems.append(f"{path}.{list_key}[{k}]: duplicate entry {name!r}")
            else:
                ranked.append(target[name])
                seen.add(target[name])
        return tuple(ranked)

    prefs: list[tuple[int, ...]] = [()] * len(d_index)
    prios: list[tuple[int, ...]] = [()] * len(h_index)
    caps: list[int] = [1] * len(h_index)
    for k, rec in enumerate(applicants):
        prefs[d_index[rec["name"]]] = resolve(rec, "prefs", h_index, f"applicants[{k}]")
    for k, rec in enumerate(institutions):
        prios[h_index[rec["name"]]] = resolve(rec, "prios", d_index, f"institutions[{k}]")
        cap = rec.get("capacity", 1)
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 1:
            problems.append(f"institutions[{k}].capacity: must be an integer >= 1, got {cap!r}")
        else:
            caps[h_index[rec["name"]]] = cap
    if problems:
        raise InstanceError("\n".join(problems))
    profile = Profile(
        applicant_names=tuple(sorted(d_index)),
        institution_names=tuple(sorted(h_index)),
        applicant_prefs=tuple(prefs),
        institution_prios=tuple(prios),
        capacities=tuple(caps),
    )
    validate_profile(profile)
    return profile


def serialize_instance_reference(p: Profile) -> str:
    """serialize_instance as it ran before it built the layout itself: one json.dumps(indent=2)."""
    validate_profile(p)
    applicants = []
    for name in sorted(p.applicant_names):
        d = p.applicant_index[name]
        prefs = [p.institution_names[h] for h in p.applicant_prefs[d]]
        applicants.append({"name": name, "prefs": prefs})
    institutions = []
    for name in sorted(p.institution_names):
        h = p.institution_index[name]
        rec: dict = {"name": name, "prios": [p.applicant_names[d] for d in p.institution_prios[h]]}
        if p.capacities[h] != 1:
            rec["capacity"] = p.capacities[h]
        institutions.append(rec)
    doc = {"applicants": applicants, "institutions": institutions}
    return json.dumps(doc, indent=2) + "\n"


# The dataclasses that Profile, Matching, ProposalPolicy, CyclePolicy, QueryLog
# and MenuPlan were, field for field: the reference for their construction,
# repr, equality, hash and frozenness. Each twin takes its class's qualname, so
# that a dataclass repr names the class it stands for.


@dataclass(frozen=True)
class ProfileTwin:
    __qualname__ = "Profile"

    applicant_names: tuple[str, ...]
    institution_names: tuple[str, ...]
    applicant_prefs: tuple[tuple[int, ...], ...]
    institution_prios: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "applicant_names", tuple(self.applicant_names))
        object.__setattr__(self, "institution_names", tuple(self.institution_names))
        object.__setattr__(self, "applicant_prefs", tuple(tuple(l) for l in self.applicant_prefs))
        object.__setattr__(self, "institution_prios", tuple(tuple(l) for l in self.institution_prios))
        object.__setattr__(self, "capacities", tuple(self.capacities) or (1,) * len(self.institution_names))


@dataclass(frozen=True)
class MatchingTwin:
    __qualname__ = "Matching"

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", frozenset(self.pairs))


@dataclass(frozen=True)
class ProposalPolicyTwin:
    __qualname__ = "ProposalPolicy"

    kind: str = "by-index"
    seed: int = 0


@dataclass(frozen=True)
class CyclePolicyTwin:
    __qualname__ = "CyclePolicy"

    kind: str = "lowest-index-applicant-first"
    seed: int = 0


@dataclass
class QueryLogTwin:
    __qualname__ = "QueryLog"

    events: list[tuple] = field(default_factory=list)


@dataclass(frozen=True)
class MenuPlanTwin:
    __qualname__ = "MenuPlan"

    applicant: int
    market: object
    menu: frozenset[int]
    tentative: object
    dag: object = field(repr=False)
    terminal: frozenset[int]
    pointers: tuple[int, ...] = field(repr=False)


def menu_from_matching_reference(i: int, p: Profile, without: Matching) -> frozenset[int]:
    """Every institution that lists i and, in without, has a free seat or holds someone it ranks below i."""
    occupants = without.by_institution
    menu = set()
    for h in range(p.n_institutions):
        rank = p.institution_rank[h]
        r = rank.get(i)
        if r is None:
            continue
        held = occupants.get(h, ())
        if len(held) < p.capacities[h] or any(rank[d] > r for d in held):
            menu.add(h)
    return frozenset(menu)


def blocking_pairs_reference(p: Profile, m: Matching) -> list[tuple[int, int]]:
    """Every mutually listed pair whose applicant prefers the institution to her match, and whose institution has a
    free seat or ranks her above an occupant, sorted."""
    occupants = m.by_institution
    out = []
    for d, prefs in enumerate(p.applicant_prefs):
        current = m.institution_of(d)
        for h in prefs:
            if current is not None and p.applicant_rank[d][h] >= p.applicant_rank[d][current]:
                continue
            rank_d = p.institution_rank[h].get(d)
            if rank_d is None:
                continue
            held = occupants.get(h, ())
            if len(held) < p.capacities[h]:
                out.append((d, h))
            elif any(p.institution_rank[h][d2] > rank_d for d2 in held):
                out.append((d, h))
    return sorted(out)


def next_accepting_reference(p: Profile, mu_d: dict[int, int], nxt: list[int], h: int, log: QueryLog | None,
                             capture: int | None = None) -> int | None:
    """The scan of the proposing loop and the chain phase as it read mu_d on every step, before the rank list.

    An applicant accepts h if she lists it above her match in mu_d, or at all
    while unmatched; the capture applicant, whose list must be empty, takes
    h unconditionally and her rank lookup is not logged.
    """
    prios = p.institution_prios[h]
    rank = p.applicant_rank
    k, end = nxt[h], len(prios)
    while k < end:
        d = prios[k]
        if log is not None:
            log.read(INSTITUTION, h, k, d)
            if d != capture:
                log.lookup(APPLICANT, d, h)
        k += 1
        r = rank[d].get(h)
        if r is not None:
            cur = mu_d.get(d)
            if cur is None or r < rank[d][cur]:
                nxt[h] = k
                return d
        elif d == capture:
            nxt[h] = k
            return d
    nxt[h] = k
    return None


def propose_reference(
    p: Profile, mu_d: dict[int, int], nxt: list[int], log: QueryLog | None, capture: int | None = None
) -> list[int]:
    """The proposing loop over next_accepting_reference: free institutions from a heap, smallest index first.

    mu_d and nxt are mutated in place; returns the captured institutions, unsorted.
    """
    taken = set(mu_d.values())
    free = [h for h in range(p.n_institutions) if h not in taken]
    heapq.heapify(free)
    captured: list[int] = []
    while free:
        h = heapq.heappop(free)
        d = next_accepting_reference(p, mu_d, nxt, h, log, capture)
        if d is None:
            continue
        if d == capture:
            captured.append(h)
            continue
        displaced = mu_d.get(d)
        mu_d[d] = h
        if displaced is not None:
            heapq.heappush(free, displaced)
    return captured


def resume_receiver_optimal_reference(
    p: Profile, mu_d: dict[int, int], nxt: list[int], d_term: set[int], log: QueryLog | None = None
) -> Matching:
    """The chain phase over next_accepting_reference, with the chain V and its rotations as the library had them.

    mu_d and nxt are mutated in place.
    """
    pref_rank = p.applicant_rank
    n = p.n_applicants
    d_term = d_term | {d for d in range(n) if d not in mu_d}
    v: list[tuple[int, int]] = []
    d_hat = 0
    while True:
        while d_hat < n and d_hat in d_term:
            d_hat += 1
        if d_hat == n:
            return Matching.of(mu_d)
        h = mu_d[d_hat]
        v.append((d_hat, h))
        while v:
            d = next_accepting_reference(p, mu_d, nxt, h, log)
            if d is None or d in d_term:
                d_term |= {x for x, _ in v}
                v.clear()
            elif all(x != d for x, _ in v):
                h = mu_d[d]
                v.append((d, h))
            else:
                start = [x for x, _ in v].index(d)
                t = v[start:]
                for j, (_, h_j) in enumerate(t):
                    mu_d[t[(j + 1) % len(t)][0]] = h_j
                del v[start:]
                if not v:
                    break
                h_0 = v[-1][1]
                d_1, h_k = t[0][0], t[-1][1]
                if pref_rank[d_1][h_k] < pref_rank[d_1][h_0]:
                    h = h_0
                else:
                    v.append((d_1, h_k))
                    h = h_k


def complete_from_plan_reference(
    plan: MenuPlan, prefs: tuple[int, ...], log: QueryLog | None = None
) -> tuple[Matching, dict[int, int], list[int]]:
    """complete_from_plan over resume_receiver_optimal_reference; also returns the final tentative matching and
    pointers."""
    i = plan.applicant
    mu = dict(plan.tentative.by_applicant)
    nxt = list(plan.pointers)
    d_term = {i}
    pick = next((h for h in prefs if h in plan.menu), None)
    if pick is not None:
        for d, h in plan.dag.chain_from((i, pick)):
            if h is None:
                mu.pop(d, None)
            else:
                mu[d] = h
            d_term.add(d)
    return resume_receiver_optimal_reference(plan.market.with_prefs(i, prefs), mu, nxt, d_term, log), mu, nxt


def _square_market(prefs: Sequence[Sequence[int]], prios: Sequence[Sequence[int]]) -> Profile:
    n = len(prefs)
    return Profile(
        tuple(f"d{d}" for d in range(n)),
        tuple(f"h{h}" for h in range(n)),
        tuple(map(tuple, prefs)),
        tuple(map(tuple, prios)),
    )


def latin_square_market(n: int) -> Profile:
    """Applicant d ranks d, d+1, ..., institution h ranks h+1, h+2, ... (mod n): a cyclic market with n stable
    matchings (Gusfield & Irving 1989), on which the chain phase reads every list entry."""
    return _square_market(
        [[(d + k) % n for k in range(n)] for d in range(n)],
        [[(h + 1 + k) % n for k in range(n)] for h in range(n)],
    )


def common_lists_market(n: int) -> Profile:
    """Every applicant ranks 0, 1, ..., n-1, and so does every institution."""
    return _square_market([range(n)] * n, [range(n)] * n)


def reversed_priorities_market(n: int) -> Profile:
    """Every applicant ranks 0, 1, ..., n-1; every institution ranks n-1 down to 0."""
    return _square_market([range(n)] * n, [range(n - 1, -1, -1)] * n)


STRUCTURED_FAMILIES = {
    "latin-square": latin_square_market,
    "common-lists": common_lists_market,
    "reversed-priorities": reversed_priorities_market,
}
