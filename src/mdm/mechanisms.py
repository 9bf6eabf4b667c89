"""Matching mechanisms over unit-capacity profiles, plus the many-to-one reduction.

Serial dictatorship, top trading cycles, and deferred acceptance in both
proposing directions on one proposing loop (_propose), together with
receiver_optimal: the computation of the non-proposing side's optimal stable
matching that reads the proposing side's lists strictly in rank order; both
phases take the proposing side as a parameter and never transpose the profile.
ipda_without keeps ipda's final state on the profile and resumes it with the
vacancy chain of one applicant's seat (Blum, Roth & Rothblum 1997). Every
unlogged institution-proposing walk of the menu engines (the vacancy chain,
the plan's drain, the chain phase of a completion) scans one set of rank
rows kept beside that state (_kept_rows), filled as walks read them
(_scan_row), and the vacancy chain tests only the entries that accept under
the kept run (_kept_acceptors); the proposing loop, receiver_optimal and
every logged walk scan the rank dicts with _next_accepting.
Top trading cycles runs one resumable state (_Trading) in one loop (_trade):
ttc and the rounds with one applicant absent start it from scratch, and
_ttc_without forks the full run kept on the profile at the last checkpoint
at which the applicant is still in the market.
Proposal and cycle policies exist so tests can check that outcomes do not
depend on them; the public default is by-index.
"""

from __future__ import annotations

import bisect
import heapq
import random
from array import array
from collections import deque
from functools import partial
from itertools import compress
from typing import Callable, Iterable, Sequence

from mdm.market import (
    APPLICANT,
    INSTITUTION,
    InstanceError,
    Matching,
    Profile,
    RankTable,
    _check_entry,
    _check_seed,
    _Frozen,
    _is_count,
    _require_unit,
    _tuple_of,
    validate_profile,
)

PROPOSAL_KINDS = ("by-index", "fifo", "lifo", "seeded-random")
CYCLE_KINDS = ("lowest-index-applicant-first", "all-simultaneous", "seeded-random")


class ProposalPolicy(_Frozen):
    """Which free agent deferred acceptance picks next.

    The picked agent proposes down its list until some receiver holds it or
    the list runs out; only an agent displaced from a hold returns to the
    pool. Under by-index a rejected proposer is still the smallest free
    index, so by-index proposes in the same order as re-picking after every
    rejection would.
    """

    __match_args__ = ("kind", "seed")

    def __init__(self, kind: str = "by-index", seed: int = 0) -> None:
        vars(self).update(kind=kind, seed=seed)
        if kind not in PROPOSAL_KINDS:
            raise InstanceError(f"unknown proposal policy {kind!r}")
        _check_seed(seed)


class CyclePolicy(_Frozen):
    """Which pointing cycles are executed in each round of top trading cycles."""

    __match_args__ = ("kind", "seed")

    def __init__(self, kind: str = "lowest-index-applicant-first", seed: int = 0) -> None:
        vars(self).update(kind=kind, seed=seed)
        if kind not in CYCLE_KINDS:
            raise InstanceError(f"unknown cycle policy {kind!r}")
        _check_seed(seed)


class QueryLog(_Frozen):
    """Optional instrumentation recording every list access, in order.

    Two event shapes:
      ("read", side, owner, rank, subject): owner's list was read at a rank
        position (subject is the agent found there);
      ("lookup", side, owner, subject): subject's rank in owner's list was
        consulted for a comparison.
    Mechanisms accept ``log=None`` and skip all recording in that case.
    """

    __match_args__ = ("events",)
    __hash__ = None  # mutable, as a dataclass that is not frozen
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, events: list[tuple] | None = None) -> None:
        self.events = [] if events is None else events

    def read(self, side: str, owner: int, rank: int, subject: int) -> None:
        self.events.append(("read", side, owner, rank, subject))

    def lookup(self, side: str, owner: int, subject: int) -> None:
        self.events.append(("lookup", side, owner, subject))


def _flipped(pairs: Iterable[tuple[int, int]], log: QueryLog | None, inner: QueryLog | None) -> Matching:
    """(institution, applicant) pairs as a matching; inner's events go to log, if there is one, sides interchanged."""
    if log is not None:
        flip = {APPLICANT: INSTITUTION, INSTITUTION: APPLICANT}
        log.events.extend((e[0], flip[e[1]], *e[2:]) for e in inner.events)
    return Matching((d, h) for h, d in pairs)


class _Pool:
    """Pool of free seats drained according to a ProposalPolicy.

    pop picks the next free seat, named by its proposer, which then proposes
    until held; push gives back a displaced proposer's seat. by-index keeps
    a heap, so each push and pop costs O(log n); fifo and lifo use a deque
    and seeded-random a list with swap-removal, O(1) each.
    """

    def __init__(self, policy: ProposalPolicy, items: Iterable[int]):
        kind = policy.kind
        if kind == "by-index":
            self.items = sorted(items)  # a sorted list is a heap
            self.pop = partial(heapq.heappop, self.items)
            self.push = partial(heapq.heappush, self.items)
        elif kind in ("fifo", "lifo"):
            self.items = deque(items)
            self.pop = self.items.popleft if kind == "fifo" else self.items.pop
            self.push = self.items.append
        else:
            self.items = list(items)
            self.rng = random.Random(policy.seed)
            self.pop = self._pop_random
            self.push = self.items.append

    def _pop_random(self) -> int:
        items = self.items
        k = self.rng.randrange(len(items))
        items[k], items[-1] = items[-1], items[k]
        return items.pop()


def serial_dictatorship(p: Profile, order: Sequence[int]) -> Matching:
    """Applicants pick in the given order; each takes her favorite unclaimed institution.

    Only applicant lists are read; priorities play no role. An applicant whose
    listed institutions are all claimed stays unmatched.
    """
    _check_entry(p, unit=True)
    order = _tuple_of("order", order)
    if not all(map(_is_count, order)) or sorted(order) != list(range(p.n_applicants)):
        raise InstanceError(f"order must be a permutation of all applicant indices, got {order!r}")
    taken: dict[int, int] = {}  # institution -> the applicant who claimed it
    for d in order:
        h = next((h for h in p.applicant_prefs[d] if h not in taken), None)
        if h is not None:
            taken[h] = d
    return Matching((d, h) for h, d in taken.items())


class _Trading:
    """Trading-cycle rounds on a unit-capacity profile, as a state that _trade carries from round to round.

    Every agent points at the first agent on its list still in the market
    (at_d, at_h: positions in its own list). An agent whose list runs out
    leaves unmatched, which can exhaust other lists in turn. Each round the
    policy picks which of the standing cycles execute, and their agents leave
    matched. The absent applicant stays in the market without pointing:
    institutions may point at her, but no cycle through her ever executes.
    Rounds stop once no cycle is left.

    State carries over between rounds. The market only shrinks, so each
    pointer only moves forward, and a cycle stands until it executes. A round
    re-points just the agents whose targets left (lost_d, lost_h, reached
    through fans_d, fans_h: who points at each agent), and looks for new
    cycles only along the walks from the re-pointed agents. cycling holds,
    per applicant, the round in which her standing cycle was found, 0 for
    none. Standing cycles are kept in order of their lowest applicant:
    lowest-index-applicant-first takes the first, seeded-random draws one
    uniformly.

    A run starts in round 1 with nobody pointing yet, or resumes a
    checkpoint (round, at_d, at_h, live_d, live_h) taken in that round
    before its cycles executed, with the cycles standing then, which count
    as found in that round. Each live agent of a checkpoint points at a
    live target, so only fans and cycling are rebuilt, from the pointers
    and the standing cycles.
    """

    def __init__(self, p: Profile, absent: int | None = None, checkpoint: tuple | None = None,
                 standing: list[tuple[int, list[int]]] | None = None) -> None:
        prefs, prios = self.prefs, self.prios = p.applicant_prefs, p.institution_prios
        n, m = len(prefs), len(prios)
        self.absent, self.out = absent, {}
        self.fans_d: list[list[int]] = [[] for _ in range(n)]
        self.fans_h: list[list[int]] = [[] for _ in range(m)]
        self.cycling = [0] * n
        self.standing = standing or []  # (lowest applicant, cycle), ascending
        if checkpoint is None:
            self.round = 1
            self.at_d, self.at_h, self.live_d, self.live_h = [0] * n, [0] * m, [True] * n, [True] * m
            self.lost_d = [d for d in range(n) if d != absent]  # agents whose target left, or who have none yet
            self.lost_h = list(range(m))
            return
        self.round, *lists = checkpoint
        at_d, at_h, live_d, live_h = self.at_d, self.at_h, self.live_d, self.live_h = [list(a) for a in lists]
        self.lost_d, self.lost_h = [], []
        fans_d, fans_h, cycling = self.fans_d, self.fans_h, self.cycling
        for d in compress(range(n), live_d):
            if d != absent:
                fans_h[prefs[d][at_d[d]]].append(d)
        for h in compress(range(m), live_h):
            fans_d[prios[h][at_h[h]]].append(h)
        for _, cycle in self.standing:
            for x in cycle:
                cycling[x] = self.round

    def survivors(self) -> frozenset[int]:
        return frozenset(compress(range(len(self.live_h)), self.live_h))


def _trade(trading: _Trading, policy: CyclePolicy, before: Callable[[list], None] | None = None) -> None:
    """Run the rounds of trading until no cycle stands; before, if given, sees each round's chosen cycles first."""
    prefs, prios, absent = trading.prefs, trading.prios, trading.absent
    live_d, live_h, at_d, at_h = trading.live_d, trading.live_h, trading.at_d, trading.at_h
    fans_d, fans_h, lost_d, lost_h = trading.fans_d, trading.fans_h, trading.lost_d, trading.lost_h
    cycling, standing, out = trading.cycling, trading.standing, trading.out
    rng = random.Random(policy.seed) if policy.kind == "seeded-random" else None
    while True:
        moved: list[int] = []  # applicants whose walk may now close a new cycle
        while lost_d or lost_h:
            while lost_d:
                d = lost_d.pop()
                if not live_d[d]:
                    continue
                ranked, k = prefs[d], at_d[d]
                while k < len(ranked) and not live_h[ranked[k]]:
                    k += 1
                at_d[d] = k
                if k < len(ranked):
                    fans_h[ranked[k]].append(d)
                    moved.append(d)
                else:
                    live_d[d] = False
                    lost_h += fans_d[d]
            while lost_h:
                h = lost_h.pop()
                if not live_h[h]:
                    continue
                ranked, k = prios[h], at_h[h]
                while k < len(ranked) and not live_d[ranked[k]]:
                    k += 1
                at_h[h] = k
                if k < len(ranked):
                    fans_d[ranked[k]].append(h)
                    moved.append(ranked[k])
                else:
                    live_h[h] = False
                    lost_d += fans_h[h]

        state: dict[int, int] = {}  # applicant -> 0 on the current walk, 1 done
        for d in moved:
            path: list[int] = []
            while live_d[d] and d != absent and not cycling[d] and d not in state:
                state[d] = 0
                path.append(d)
                h = prefs[d][at_d[d]]
                d = prios[h][at_h[h]]
            if state.get(d) == 0:
                cycle = path[path.index(d):]
                for x in cycle:
                    cycling[x] = trading.round
                bisect.insort(standing, (min(cycle), cycle))
            for x in path:
                state[x] = 1

        if not standing:
            return
        if policy.kind == "lowest-index-applicant-first":
            chosen = [standing.pop(0)]
        elif policy.kind == "all-simultaneous":
            chosen = standing[:]
            standing.clear()
        else:
            chosen = [standing.pop(rng.randrange(len(standing)))]
        if before is not None:
            before(chosen)
        for _, cycle in chosen:
            for d in cycle:
                h = prefs[d][at_d[d]]
                out[d] = h
                live_d[d] = live_h[h] = False
                lost_h += fans_d[d]
                lost_d += fans_h[h]
        trading.round += 1


def _ttc_rounds(
    p: Profile, policy: CyclePolicy, absent: int | None = None
) -> tuple[dict[int, int], frozenset[int]]:
    """Trading-cycle rounds from the start (_Trading); returns the trades and the institutions left over."""
    trading = _Trading(p, absent)
    _trade(trading, policy)
    return trading.out, trading.survivors()


def _ttc_run(p: Profile, policy: CyclePolicy = CyclePolicy()) -> tuple | None:
    """The full trading-cycle run on p, kept on p as _ipda_run is from the second call on; None on the first call.

    A profile asked for one menu pays only for that menu's own rounds. The
    record (executed, bounds, found, checkpoints) is compact: the applicants
    of every executed cycle, cycle after cycle (cycle j is
    executed[bounds[j]:bounds[j + 1]]); per applicant the round her cycle was
    found in; and the checkpoints, each with the index of its round's first
    cycle, their lists as array and bytearray. A checkpoint holds one pointer
    and one flag per agent, so at most (list entries) / (agents) are kept,
    and the record stays smaller than the profile's lists: every round takes
    one until they are that many, then every other one is dropped and every
    other round takes one.
    """
    run = vars(p).get("_ttc_run")
    if run is None:
        vars(p)["_ttc_run"] = ()
    elif not run:
        trading, executed, bounds, checkpoints = _Trading(p), array("i"), array("i", [0]), []
        agents = p.n_applicants + p.n_institutions
        budget = max(1, (sum(map(len, p.applicant_prefs)) + sum(map(len, p.institution_prios))) // agents)
        spacing = 1

        def keep(chosen: list) -> None:
            nonlocal spacing
            if (trading.round - 1) % spacing == 0:
                at_d, at_h = array("i", trading.at_d), array("i", trading.at_h)
                checkpoints.append((len(bounds) - 1, (trading.round, at_d, at_h, bytearray(trading.live_d),
                                                      bytearray(trading.live_h))))
                if len(checkpoints) > budget:
                    del checkpoints[1::2]
                    spacing *= 2
            for _, cycle in chosen:
                executed.extend(cycle)
                bounds.append(len(executed))

        _trade(trading, policy, keep)
        run = vars(p)["_ttc_run"] = executed, bounds, array("i", trading.cycling), checkpoints
    return run or None


def _ttc_without(i: int, p: Profile) -> frozenset[int]:
    """The institutions left over by trading-cycle rounds with applicant i absent (present, never pointing).

    While i is in the full run's market, no cycle through her has executed,
    so the full run's pointer graph differs from the one without her only in
    her own out-edge: every cycle executed so far also stands without her,
    and the two runs agree until she leaves. The rounds without her resume
    the kept full run (_ttc_run) from the last checkpoint at which she is
    still in the market, with her cycle, if one stands, no longer standing
    and its other applicants pointing at her. Which cycles execute first
    does not change the institutions left over. If no checkpoint has her in
    the market (the profile's first call, or she is out before round 1's
    cycles execute), the rounds run from round 1.
    """
    executed, bounds, found, checkpoints = _ttc_run(p) or ((),) * 4
    j = bisect.bisect_left(checkpoints, True, key=lambda c: not c[1][3][i])  # her live flag only falls
    if j:
        start, checkpoint = checkpoints[j - 1]
        k = checkpoint[0]
        cycles = (executed[a:b] for a, b in zip(bounds[start:], bounds[start + 1:]))
        standing = sorted((min(cycle), cycle.tolist()) for cycle in cycles if found[cycle[0]] <= k and i not in cycle)
        trading = _Trading(p, i, checkpoint, standing)
    else:
        trading = _Trading(p, i)
    _trade(trading, CyclePolicy())
    return trading.survivors()


def ttc(p: Profile, policy: CyclePolicy = CyclePolicy()) -> Matching:
    """Top trading cycles. The outcome is the same for every cycle policy."""
    _check_entry(p, unit=True)
    return Matching.of(_ttc_rounds(p, policy)[0])


def apda(
    p: Profile, policy: ProposalPolicy = ProposalPolicy(), log: QueryLog | None = None
) -> Matching:
    """Applicant-proposing deferred acceptance: the applicant-optimal stable matching.

    The proposing loop logs its proposers as institutions, so its events are flipped.
    """
    _check_entry(p, unit=True)
    mu: dict[int, int] = {}
    inner = QueryLog() if log is not None else None
    _propose(p, mu, [0] * p.n_applicants, inner, policy=policy, proposing=APPLICANT, log_holders=True)
    return _flipped(mu.items(), log, inner)


def ipda(
    p: Profile, policy: ProposalPolicy = ProposalPolicy(), log: QueryLog | None = None
) -> Matching:
    """Institution-proposing deferred acceptance: the institution-optimal (applicant-pessimal) stable matching."""
    _check_entry(p, unit=True)
    mu: dict[int, int] = {}
    _propose(p, mu, [0] * p.n_institutions, log, policy=policy, log_holders=True)
    return Matching.of(mu)


def _ipda_run(p: Profile) -> tuple[dict[int, int], list[int], list[int]]:
    """ipda on p, seats counted, run once and kept on p as validate_profile keeps its pass: _propose's final
    state (mu, held, nxt). Derived profiles start without it, pickling drops it, and it holds no reference to p."""
    run = vars(p).get("_ipda_run")
    if run is None:
        mu, nxt = {}, [0] * p.n_institutions
        run = vars(p)["_ipda_run"] = mu, _propose(p, mu, nxt, None), nxt
    return run


def ipda_without(i: int, p: Profile) -> tuple[Matching, frozenset[int]]:
    """Institution-proposing deferred acceptance with applicant i excluded: the others' matching, and i's menu.

    The run without i is the full run followed by one vacancy chain (Blum,
    Roth & Rothblum 1997): on a copy of ipda's final state i turns every
    offer down, and the seat she held proposes on. Each applicant who
    accepts passes her own holder's seat on, until an unmatched applicant
    accepts or the scan finds nobody.
    i's menu under the applicant-optimal stable mechanism is read off the
    final pointers: h is on it iff h lists i and its pointer went past her,
    leaving h a free seat or someone it ranks below her.
    """
    mu, menu = _vacancy_chain(i, p)
    return Matching(mu.items()), menu


def _vacancy_chain(i: int, p: Profile) -> tuple[dict[int, int], frozenset[int]]:
    """ipda_without's state and menu: the others' matching as applicant -> institution, and i's menu.

    The chain scans p's kept rank rows (_kept_rows) and tests only the kept
    acceptors of each institution it reaches (_kept_acceptors): the
    positions at or past the kept run's pointer whose applicant would accept
    it under the kept run. In a chain every applicant who accepts moves up,
    and held holds -1 for i, so held only falls from the kept run's: whoever
    turns h down under the kept run turns it down in every chain, and the
    first acceptor at or past h's pointer is the first kept acceptor there
    that accepts. A hop bisects the known ones from the pointer; past them
    it extends the known range with _scan_row under the kept run's held,
    recording each kept acceptor it stops at, until one accepts under the
    chain's held. So a chain fills the entries a scan from the pointer would,
    and also i's own entry where it extends the record past her (a scan
    under held steps over her unknown entry unread), and a warm chain skips
    every kept rejecter. A row is allocated when a walk first reaches its
    institution, so one menu pays only for the entries it reads.
    """
    _check_entry(p, i)
    lists, rank, m = p.institution_prios, p.applicant_rank, p.n_institutions
    rows, (found, seen) = _kept_rows(p), _kept_acceptors(p)
    run = _ipda_run(p)
    kept_held = run[1]
    mu, held, nxt = (state.copy() for state in run)
    held[i] = -1
    h = mu.pop(i, None)
    while h is not None:
        ranked, row, known = lists[h], rows[h], found[h]
        if row is None:
            row = rows[h] = [-1] * len(ranked)
        j, stop = bisect.bisect_left(known, nxt[h]), len(known)
        while j < stop and row[known[j]] >= held[ranked[known[j]]]:
            j += 1
        if j < stop:
            k = known[j]
        else:
            k, end = seen[h], len(ranked)
            while k < end:
                k = _scan_row(row, ranked, rank, kept_held, h, k, m)
                if k < end:
                    known.append(k)
                    if row[k] < held[ranked[k]]:
                        break
                    k += 1
            seen[h] = min(k + 1, end)
            if k == end:
                nxt[h] = k
                break
        nxt[h] = k + 1
        d = ranked[k]
        held[d] = row[k]
        h, mu[d] = mu.get(d), h
    return mu, frozenset(h for h, row in enumerate(p.institution_rank) if row.get(i, nxt[h]) < nxt[h])


def _kept_rows(p: Profile) -> list[list[int] | None]:
    """The rank rows every unlogged institution-proposing walk of p's menu engines scans, kept on p beside _ipda_run
    with its lifecycle: rows[h][k] is the rank that applicant institution_prios[h][k] gives h in p, n_institutions
    if she does not list h, and -1 until a walk first reads it; rows[h] is None until a walk first reaches h. The
    vacancy chains also keep which entries at or past the kept run's pointers are kept acceptors (_kept_acceptors): a
    rejection under the kept run's held is final in every chain, since a chain's held only falls."""
    rows = vars(p).get("_chain_rows")
    if rows is None:
        rows = vars(p)["_chain_rows"] = [None] * p.n_institutions
    return rows


def _kept_acceptors(p: Profile) -> tuple[list[list[int]], list[int]]:
    """The kept acceptors the vacancy chains of p test (_vacancy_chain), kept on p beside _kept_rows with its
    lifecycle: found[h] holds, ascending, the positions k at or past h's pointer in the kept run (_ipda_run) whose
    applicant d = institution_prios[h][k] accepts h under the kept run, rows[h][k] < held[d]; every other position
    from the pointer up to seen[h] is a kept rejecter, and none past seen[h] is known yet."""
    kept = vars(p).get("_chain_acceptors")
    if kept is None:
        kept = vars(p)["_chain_acceptors"] = [[] for _ in range(p.n_institutions)], _ipda_run(p)[2].copy()
    return kept


def _scan_row(row: list[int], ranked: Sequence[int], rank: RankTable, held: list[int], h: int, k: int,
              m: int) -> int:
    """From position k of h's list ranked, the position of the first applicant who accepts h, or len(ranked).

    She accepts iff her entry of h's rank row is below her held rank. A run
    of unknown entries (-1) is filled from rank, as rank[d].get(h, m), and
    tested in one loop; known entries are compared in the fast loop. The
    one hop over kept rows: the plan's drain and the completion's chain
    phase scan with it alone (_next_accepting_on_rows), and a vacancy chain
    extends its kept acceptors with it. The one writer of filled row entries.
    """
    end = len(ranked)
    while True:
        while k < end and row[k] < 0:
            d = ranked[k]
            r = row[k] = rank[d].get(h, m)
            if r < held[d]:
                return k
            k += 1
        while k < end and row[k] >= held[ranked[k]]:
            k += 1
        if k == end or row[k] >= 0:
            return k


def _next_accepting_on_rows(rows: list[list[int] | None], rank: RankTable, lists: Sequence[Sequence[int]],
                            held: list[int], nxt: list[int], a: int) -> int | None:
    """_next_accepting, unlogged, on kept rank rows (_kept_rows), with rank the table that fills them (_scan_row).

    The scan of the plan's drain and of complete_from_plan's chain phase: one
    _scan_row from the pointer. The vacancy chain hops over its kept
    acceptors instead (_vacancy_chain).
    """
    ranked, row = lists[a], rows[a]
    if row is None:
        row = rows[a] = [-1] * len(ranked)
    k = _scan_row(row, ranked, rank, held, a, nxt[a], len(lists))
    if k == len(ranked):
        nxt[a] = k
        return None
    nxt[a] = k + 1
    return ranked[k]


def _next_accepting(lists: Sequence[Sequence[int]], rank: RankTable, held: list[int], nxt: list[int], a: int,
                    log: QueryLog | None = None, holders: dict[int, int] | None = None) -> int | None:
    """Advance proposer a down lists[a] to the next receiver b who would accept it: rank[b] ranks a above held[b].

    The scan of the proposing loop (_propose, so apda, ipda and the plan's
    capture run), of resume_receiver_optimal (so receiver_optimal), and of
    the plan's drain and complete_from_plan's chain phase when they are
    given a log; unlogged, those two scan kept rank rows
    (_next_accepting_on_rows), as the vacancy chain does. held is _propose's
    rank list, so each step makes one dict read and one list read. An
    unlisted proposer ranks len(lists): a receiver holding more than
    len(lists), the capture receiver, takes all, with no rank lookup
    logged. Events name the proposers as institutions. With holders, each
    receiver's held proposer, the log also records the lookup of that
    proposer's rank, as apda and ipda log it. The plan's drain passes its
    unroll DAG's gate as held: one rank list with each applicant's
    reservation in place of the proposer she holds.
    """
    ranked = lists[a]
    m = len(lists)
    k, end = nxt[a], len(ranked)
    while k < end:
        b = ranked[k]
        if log is not None:
            log.read(INSTITUTION, a, k, b)
            if held[b] <= m:
                log.lookup(APPLICANT, b, a)
            if holders is not None and b in holders:
                log.lookup(APPLICANT, b, holders[b])
        k += 1
        if rank[b].get(a, m) < held[b]:
            nxt[a] = k
            return b
    nxt[a] = k
    return None


def _propose(
    p: Profile, mu: dict[int, int], nxt: list[int], log: QueryLog | None, capture: int | None = None, *,
    policy: ProposalPolicy = ProposalPolicy(), proposing: str = INSTITUTION, log_holders: bool = False,
) -> list[int]:
    """Deferred acceptance from the empty matching, institutions proposing unless proposing=APPLICANT.

    Callers pass an empty mu and zero pointers nxt; mu ends mapping each
    receiver to the proposer it holds, nxt at each proposer's next unread
    rank. The pool starts with min(capacity, list length) seats of each
    institution and one of each applicant. A proposer's seats share its
    pointer, and a displaced proposer gets one seat back. The scan's rank
    list, held, is written with mu at every hold and returned: per receiver,
    the rank in its own list of the proposer it holds, or the number of
    proposers while it holds nobody. The capture receiver holds one more and
    takes every offer: a seat reaching her stops there for good, its pointer
    one past her. The policy picks the free seats.
    """
    if proposing == APPLICANT:
        lists, rank, seats = p.applicant_prefs, p.institution_rank, (1,) * p.n_applicants
    else:
        lists, rank, seats = p.institution_prios, p.applicant_rank, p.capacities
    held = [len(lists)] * len(rank)
    if capture is not None:
        held[capture] = len(lists) + 1
    pool = _Pool(policy, [a for a, ranked in enumerate(lists) for _ in range(min(seats[a], len(ranked)))])
    free, pop, push = pool.items, pool.pop, pool.push
    holders = mu if log_holders else None
    while free:
        a = pop()
        b = _next_accepting(lists, rank, held, nxt, a, log, holders)
        if b is None or b == capture:
            continue
        displaced = mu.get(b)
        mu[b] = a
        held[b] = rank[b][a]
        if displaced is not None:
            push(displaced)
    return held


def resume_receiver_optimal(
    p: Profile,
    mu_d: dict[int, int],
    nxt: list[int],
    d_term: set[int],
    log: QueryLog | None = None,
    proposing: str = INSTITUTION,
) -> Matching:
    """Run the chain/rotation phase to completion from a partial proposing state.

    Institutions propose unless proposing=APPLICANT; d names a receiver, h a proposer.
    mu_d is the tentative receiver -> proposer assignment, nxt holds each proposer's
    next unread rank (everything above it has been proposed already), and d_term the
    receivers known to sit at their final match. Unmatched receivers are terminal by
    definition and are absorbed into d_term here. The scan's rank list (as in _propose)
    is built from mu_d here and written with it at every rotation. mu_d and nxt are
    mutated in place, and the matching holds mu_d's (receiver, proposer) pairs.
    """
    return _resume(p, mu_d, nxt, d_term, log, proposing, None)


def _resume(p: Profile, mu_d: dict[int, int], nxt: list[int], d_term: set[int], log: QueryLog | None,
            proposing: str, rows: list[list[int] | None] | None) -> Matching:
    """resume_receiver_optimal; with rows, institutions proposing and no log, its scan reads those rank rows
    (_next_accepting_on_rows), filled from p's applicant_rank."""
    if proposing == APPLICANT:
        lists, rank = p.applicant_prefs, p.institution_rank
    else:
        lists, rank = p.institution_prios, p.applicant_rank
    n = len(rank)
    held = [len(lists)] * n
    for d, h in mu_d.items():
        held[d] = rank[d][h]
    d_term = d_term | {d for d in range(n) if d not in mu_d}
    if rows is None:
        scan = partial(_next_accepting, lists, rank, held, nxt, log=log)
    else:
        scan = partial(_next_accepting_on_rows, rows, rank, lists, held, nxt)
    v: dict[int, int] = {}  # the chain, in order: receiver -> her match when she joined

    def write_rotation(d: int) -> int | None:
        """Write the rotation closed by d's reappearance; returns the next proposer."""
        on_v = list(v)
        t = [(x, v.pop(x)) for x in on_v[on_v.index(d):]]
        for j, (_, h_j) in enumerate(t):
            d_j = t[(j + 1) % len(t)][0]
            mu_d[d_j] = h_j
            held[d_j] = rank[d_j][h_j]
        if not v:
            return None
        h_0 = v[next(reversed(v))]
        d_1 = t[0][0]
        h_k = t[-1][1]  # d_1's match after the rotation
        if held[d_1] < rank[d_1][h_0]:
            return h_0  # d_1 no longer wants h_0, which therefore proposes on
        # d_1 still prefers h_0: her chain entry reappears with her new match,
        # which becomes the proposer (it stands to lose her to h_0).
        v[d_1] = h_k
        return h_k

    d_hat = 0  # d_term only grows, so the least non-terminal receiver only moves up
    while True:
        while d_hat < n and d_hat in d_term:
            d_hat += 1
        if d_hat == n:
            return Matching.of(mu_d)
        h: int | None = mu_d[d_hat]
        v[d_hat] = h
        while v:
            d = scan(h)
            if d is None or d in d_term:
                d_term.update(v)
                v.clear()
            elif d not in v:
                h = v[d] = mu_d[d]
            else:
                h = write_rotation(d)


def receiver_optimal(
    p: Profile, proposing_side: str = INSTITUTION, log: QueryLog | None = None
) -> Matching:
    """Stable matching optimal for the side that does not propose.

    With proposing_side=INSTITUTION this equals apda(p) but reads each
    institution's priority list strictly top to bottom: first through the
    proposing loop (_propose), then by letting institutions keep proposing
    below their current match, recording the resulting rejection chains in V
    and writing each closed chain back as a rotation
    (resume_receiver_optimal). Both phases walk a list with one scan
    (_next_accepting). With proposing_side=APPLICANT both phases run on p
    itself from the applicant side, with no transposed copy, and return the
    institution-optimal matching, reading applicant lists in rank order.
    """
    validate_profile(p)
    if proposing_side not in (APPLICANT, INSTITUTION):
        raise InstanceError(f"unknown proposing side {proposing_side!r}")
    _require_unit(p)

    # Pointers keep their final positions so the chain phase continues each
    # proposer's list right below its match.
    flip = proposing_side == APPLICANT
    inner = QueryLog() if flip and log is not None else log
    mu_d, nxt = {}, [0] * (p.n_applicants if flip else p.n_institutions)
    _propose(p, mu_d, nxt, inner, proposing=proposing_side)
    m = resume_receiver_optimal(p, mu_d, nxt, set(), inner, proposing_side)
    return _flipped(m.pairs, log, inner) if flip else m


def expand_many_to_one(p: Profile) -> tuple[Profile, tuple[int, ...]]:
    """Split each institution of capacity c into min(c, max(1, list length)) unit-capacity copies.

    No more seats can be filled than the priority list is long, so the stable
    matchings fold back the same (Roth & Sotomayor 1990, ch. 5). Copies share
    the original priority list; each applicant's list replaces an institution
    with its copies in ascending copy order. Returns the expanded profile and a
    map from expanded institution index to original index. Profiles that
    already have unit capacities expand to themselves.
    """
    validate_profile(p)
    if p.unit_capacity:
        return p, tuple(range(p.n_institutions))
    names: list[str] = []
    prios: list[tuple[int, ...]] = []
    copy_map: list[int] = []
    copies: dict[int, list[int]] = {}
    for h, name in enumerate(p.institution_names):
        cap = p.capacities[h]
        for j in range(min(cap, max(1, len(p.institution_prios[h])))):
            copies.setdefault(h, []).append(len(names))
            names.append(name if cap == 1 else f"{name}@{j + 1}")
            prios.append(p.institution_prios[h])
            copy_map.append(h)
    prefs = tuple(
        tuple(c for h in ranked for c in copies[h]) for ranked in p.applicant_prefs
    )
    expanded = Profile._derive(
        p.applicant_names, tuple(names), prefs, tuple(prios),
        checked=True, institution_rank=lambda: tuple(p.institution_rank[h] for h in copy_map),
    )
    return expanded, tuple(copy_map)


def collapse_matching(m: Matching, copy_map: Sequence[int]) -> Matching:
    """Map a matching on an expanded profile back to the original institutions."""
    return Matching(frozenset((d, copy_map[h]) for d, h in m.pairs))
