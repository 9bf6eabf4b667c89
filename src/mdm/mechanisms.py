"""Matching mechanisms over unit-capacity profiles, plus the many-to-one reduction.

Serial dictatorship, top trading cycles, and deferred acceptance in both
proposing directions, together with receiver_optimal: the computation of the
non-proposing side's optimal stable matching that reads the proposing side's
lists strictly in rank order. Proposal and cycle policies exist so tests can
check that outcomes do not depend on them; the public default is by-index.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from mdm.market import (
    APPLICANT,
    INSTITUTION,
    InstanceError,
    Matching,
    Profile,
    _require_unit,
    validate_profile,
)

PROPOSAL_KINDS = ("by-index", "fifo", "lifo", "seeded-random")
CYCLE_KINDS = ("lowest-index-applicant-first", "all-simultaneous", "seeded-random")


@dataclass(frozen=True)
class ProposalPolicy:
    """Which currently free agent is chosen to propose next in deferred acceptance."""

    kind: str = "by-index"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in PROPOSAL_KINDS:
            raise InstanceError(f"unknown proposal policy {self.kind!r}")


@dataclass(frozen=True)
class CyclePolicy:
    """Which pointing cycles are executed in each round of top trading cycles."""

    kind: str = "lowest-index-applicant-first"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in CYCLE_KINDS:
            raise InstanceError(f"unknown cycle policy {self.kind!r}")


@dataclass
class QueryLog:
    """Optional instrumentation recording every list access, in order.

    Two event shapes:
      ("read", side, owner, rank, subject): owner's list was read at a rank
        position (subject is the agent found there);
      ("lookup", side, owner, subject): subject's rank in owner's list was
        consulted for a comparison.
    Mechanisms accept ``log=None`` and skip all recording in that case.
    """

    events: list[tuple] = field(default_factory=list)

    def read(self, side: str, owner: int, rank: int, subject: int) -> None:
        self.events.append(("read", side, owner, rank, subject))

    def lookup(self, side: str, owner: int, subject: int) -> None:
        self.events.append(("lookup", side, owner, subject))


def _flip_side(side: str) -> str:
    return INSTITUTION if side == APPLICANT else APPLICANT


def _flip_events(events: Iterable[tuple]) -> list[tuple]:
    return [(e[0], _flip_side(e[1]), *e[2:]) for e in events]


def _flip_matching(m: Matching) -> Matching:
    return Matching(frozenset((b, a) for a, b in m.pairs))


class _Pool:
    """Pool of free proposers drained according to a ProposalPolicy."""

    def __init__(self, policy: ProposalPolicy, items: Iterable[int]):
        self.kind = policy.kind
        self.items = deque(items) if self.kind in ("fifo", "lifo") else list(items)
        self.rng = random.Random(policy.seed) if self.kind == "seeded-random" else None

    def __bool__(self) -> bool:
        return bool(self.items)

    def push(self, item: int) -> None:
        self.items.append(item)

    def pop(self) -> int:
        if self.kind == "fifo":
            return self.items.popleft()
        if self.kind == "lifo":
            return self.items.pop()
        if self.kind == "by-index":
            item = min(self.items)
            self.items.remove(item)
            return item
        k = self.rng.randrange(len(self.items))
        self.items[k], self.items[-1] = self.items[-1], self.items[k]
        return self.items.pop()


def serial_dictatorship(p: Profile, order: Sequence[int]) -> Matching:
    """Applicants pick in the given order; each takes her favorite unclaimed institution.

    Only applicant lists are read; priorities play no role. An applicant whose
    listed institutions are all claimed stays unmatched.
    """
    validate_profile(p)
    _require_unit(p)
    if sorted(order) != list(range(p.n_applicants)):
        raise InstanceError("order must be a permutation of all applicant indices")
    taken: set[int] = set()
    out: dict[int, int] = {}
    for d in order:
        for h in p.applicant_prefs[d]:
            if h not in taken:
                taken.add(h)
                out[d] = h
                break
    return Matching.of(out)


def _ttc_cycles(point_d: dict[int, int], point_h: dict[int, int]) -> list[list[int]]:
    """All applicant cycles d0 -> point_d[d0] -> d1 -> ... -> d0, as applicant lists.

    Walks that reach an applicant without an entry in point_d end there
    without closing a cycle.
    """
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


def _ttc_rounds(
    p: Profile, policy: CyclePolicy, absent: int | None = None
) -> tuple[dict[int, int], frozenset[int]]:
    """Trading-cycle rounds; returns the trades and the institutions left over.

    At the start of each round, applicants with exhausted lists and
    institutions whose lists contain no remaining applicant are removed
    unmatched; every remaining agent then points, and the policy picks which
    of the pointing cycles execute. The absent applicant stays in the market
    without pointing: institutions may point at her, but no cycle through her
    ever executes. Rounds stop once no cycle is left.
    """
    prefs, prios = p.applicant_prefs, p.institution_prios
    rng = random.Random(policy.seed) if policy.kind == "seeded-random" else None
    active_d = set(range(p.n_applicants))
    active_h = set(range(p.n_institutions))
    out: dict[int, int] = {}
    while True:
        # Removals cascade: dropping one side's agent can exhaust the other's list.
        changed = True
        while changed:
            gone_d = [
                d for d in active_d if d != absent and not any(h in active_h for h in prefs[d])
            ]
            active_d.difference_update(gone_d)
            gone_h = [h for h in active_h if not any(d in active_d for d in prios[h])]
            active_h.difference_update(gone_h)
            changed = bool(gone_d or gone_h)
        point_d = {
            d: next(h for h in prefs[d] if h in active_h) for d in active_d if d != absent
        }
        point_h = {h: next(d for d in prios[h] if d in active_d) for h in active_h}
        cycles = _ttc_cycles(point_d, point_h)
        if not cycles:
            return out, frozenset(active_h)
        if policy.kind == "lowest-index-applicant-first":
            chosen = [min(cycles, key=min)]
        elif policy.kind == "all-simultaneous":
            chosen = cycles
        else:
            chosen = [cycles[rng.randrange(len(cycles))]]
        for cycle in chosen:
            for d in cycle:
                h = point_d[d]
                out[d] = h
                active_d.remove(d)
                active_h.remove(h)


def ttc(p: Profile, policy: CyclePolicy = CyclePolicy()) -> Matching:
    """Top trading cycles. The outcome is the same for every cycle policy."""
    validate_profile(p)
    _require_unit(p)
    return Matching.of(_ttc_rounds(p, policy)[0])


def apda(
    p: Profile, policy: ProposalPolicy = ProposalPolicy(), log: QueryLog | None = None
) -> Matching:
    """Applicant-proposing deferred acceptance: the applicant-optimal stable matching."""
    validate_profile(p)
    _require_unit(p)
    prefs = p.applicant_prefs
    rank = p.institution_rank
    nxt = [0] * p.n_applicants
    hold: dict[int, int] = {}  # institution -> applicant
    pool = _Pool(policy, [d for d in range(p.n_applicants) if prefs[d]])
    while pool:
        d = pool.pop()
        if nxt[d] >= len(prefs[d]):
            continue  # exhausted her list; exits permanently unmatched
        h = prefs[d][nxt[d]]
        if log is not None:
            log.read(APPLICANT, d, nxt[d], h)
        nxt[d] += 1
        cur = hold.get(h)
        if log is not None:
            log.lookup(INSTITUTION, h, d)
            if cur is not None:
                log.lookup(INSTITUTION, h, cur)
        rank_d = rank[h].get(d)
        if rank_d is None or (cur is not None and rank[h][cur] < rank_d):
            pool.push(d)
        else:
            hold[h] = d
            if cur is not None:
                pool.push(cur)
    return Matching(frozenset((d, h) for h, d in hold.items()))


def ipda(
    p: Profile, policy: ProposalPolicy = ProposalPolicy(), log: QueryLog | None = None
) -> Matching:
    """Institution-proposing deferred acceptance: sides interchanged in apda.

    Returns the institution-optimal (equivalently applicant-pessimal) stable
    matching.
    """
    validate_profile(p)
    inner = QueryLog() if log is not None else None
    m = apda(p.transposed(), policy, inner)
    if log is not None:
        log.events.extend(_flip_events(inner.events))
    return _flip_matching(m)


def _accepts(p: Profile, mu_d: dict[int, int], d: int, h: int, log: QueryLog | None) -> bool:
    """Does d prefer h to her current assignment? Unmatched is below any listed h."""
    if log is not None:
        log.lookup(APPLICANT, d, h)
    r = p.applicant_rank[d].get(h)
    if r is None:
        return False
    cur = mu_d.get(d)
    return cur is None or r < p.applicant_rank[d][cur]


def _next_accepting(
    p: Profile, mu_d: dict[int, int], nxt: list[int], h: int, log: QueryLog | None
) -> int | None:
    """Advance h down its priority list to the next applicant who would accept it."""
    prios = p.institution_prios[h]
    while nxt[h] < len(prios):
        d = prios[nxt[h]]
        if log is not None:
            log.read(INSTITUTION, h, nxt[h], d)
        nxt[h] += 1
        if _accepts(p, mu_d, d, h, log):
            return d
    return None


def resume_receiver_optimal(
    p: Profile,
    mu_d: dict[int, int],
    nxt: list[int],
    d_term: set[int],
    log: QueryLog | None = None,
) -> Matching:
    """Run the chain/rotation phase to completion from a partial proposing state.

    mu_d is the tentative applicant -> institution assignment, nxt holds each
    institution's next unread rank (everything above it has been proposed
    already), and d_term the applicants known to sit at their final match.
    Unmatched applicants are terminal by definition and are absorbed into
    d_term here. mu_d and nxt are mutated in place.
    """
    pref_rank = p.applicant_rank
    n = p.n_applicants
    d_term = d_term | {d for d in range(n) if d not in mu_d}

    def write_rotation(v: list[tuple[int, int]], d: int) -> int | None:
        """Write the rotation closed by d's reappearance; returns the next proposer."""
        start = next(k for k, entry in enumerate(v) if entry[0] == d)
        t = v[start:]
        for j, (_, h_j) in enumerate(t):
            mu_d[t[(j + 1) % len(t)][0]] = h_j
        del v[start:]
        if not v:
            return None
        _, h_0 = v[-1]
        d_1 = t[0][0]
        h_k = t[-1][1]  # d_1's match after the rotation
        if pref_rank[d_1][h_k] < pref_rank[d_1][h_0]:
            return h_0  # d_1 no longer wants h_0, which therefore proposes on
        # d_1 still prefers h_0: her chain entry reappears with her new match,
        # which becomes the proposer (it stands to lose her to h_0).
        v.append((d_1, h_k))
        return h_k

    while len(d_term) < n:
        d_hat = min(d for d in range(n) if d not in d_term)
        h: int | None = mu_d[d_hat]
        v: list[tuple[int, int]] = [(d_hat, h)]
        while v:
            d = _next_accepting(p, mu_d, nxt, h, log)
            if d is None or d in d_term:
                d_term.update(entry[0] for entry in v)
                v.clear()
            elif all(entry[0] != d for entry in v):
                v.append((d, mu_d[d]))
                h = mu_d[d]
            else:
                h = write_rotation(v, d)
    return Matching.of(mu_d)


def receiver_optimal(
    p: Profile, proposing_side: str = INSTITUTION, log: QueryLog | None = None
) -> Matching:
    """Stable matching optimal for the side that does not propose.

    With proposing_side="institutions" this equals apda(p) but reads each
    institution's priority list strictly top to bottom: first through an
    institution-proposing run, then by letting institutions keep proposing
    below their current match, recording the resulting rejection chains in a
    list V and writing each closed chain back as a rotation. The flipped form
    returns the institution-optimal matching while reading applicant lists in
    rank order.
    """
    if proposing_side in (APPLICANT, "applicants"):
        validate_profile(p)
        inner = QueryLog() if log is not None else None
        m = receiver_optimal(p.transposed(), INSTITUTION, inner)
        if log is not None:
            log.events.extend(_flip_events(inner.events))
        return _flip_matching(m)
    if proposing_side not in (INSTITUTION, "institutions"):
        raise InstanceError(f"unknown proposing side {proposing_side!r}")
    validate_profile(p)
    _require_unit(p)

    # Institution-proposing run. Pointers keep their final positions so the
    # chain phase continues each institution's list right below its match.
    n, m = p.n_applicants, p.n_institutions
    nxt = [0] * m  # per-institution pointer; advances monotonically, never resets
    mu_d: dict[int, int] = {}
    mu_h: dict[int, int] = {}
    pool = _Pool(ProposalPolicy(), [h for h in range(m) if p.institution_prios[h]])
    while pool:
        h = pool.pop()
        d = _next_accepting(p, mu_d, nxt, h, log)
        if d is None:
            continue
        displaced = mu_d.get(d)
        mu_d[d] = h
        mu_h[h] = d
        if displaced is not None:
            del mu_h[displaced]
            pool.push(displaced)

    return resume_receiver_optimal(p, mu_d, nxt, set(), log)


def expand_many_to_one(p: Profile) -> tuple[Profile, tuple[int, ...]]:
    """Split each institution of capacity c into c unit-capacity copies.

    Copies share the original priority list; each applicant's list replaces an
    institution with its copies in ascending copy order. Returns the expanded
    profile and a map from expanded institution index to original index.
    Profiles that already have unit capacities expand to themselves.
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
        for j in range(cap):
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
