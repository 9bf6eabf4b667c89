"""Menu computation for the matching mechanisms.

An applicant's menu is the set of institutions she could be matched to over
all preference lists she might submit, holding everyone else's reports
fixed. The unmatched option is always available and is never stored. Every
engine here takes the full profile but ignores the designated applicant's
own list, so a menu can never depend on it.

Engines and oracles:

- menu_oracle_singleton / menu_oracle_exhaustive: brute force, mechanism-
  agnostic; the exhaustive one is the ground truth everything else is
  checked against.
- menu_da_many_to_one, and menu_da for unit capacities: institution-
  proposing deferred acceptance with the applicant excluded, read off its
  pointers (mdm.mechanisms.ipda_without): the full run, seats counted and
  kept on the profile, plus the vacancy chain of the seat she leaves (Blum,
  Roth & Rothblum 1997), so the menus of one market share one run; the
  menu alone is taken (_vacancy_chain), with no Matching of the others.
  The chains scan rank rows kept on the profile beside the run, each entry
  filled from the rank dicts the first time a chain reads it, so the menus
  of one market also share every rank they read. Beside the rows each
  institution keeps its kept acceptors: the entries at or past the run's
  pointer whose applicant would take it under the kept run. In a chain
  every applicant who accepts moves up and the excluded one turns every
  offer down, so an applicant who turns an institution down under the kept
  run turns it down in every chain; a chain tests only the kept acceptors,
  and the first chain to pass an entry records whether it is one.
  menu_da_from_matching reads the menu off the matching instead, with
  menu_from_matching (imported from mdm.market, beside blocking_pairs): a
  cross-check for verify.
- menu_ttc, menu_sd: direct constructions for top trading cycles and serial
  dictatorship. From a profile's second call on, menu_ttc forks the full
  trading-cycle run kept on the profile (mdm.mechanisms._ttc_without) at
  its last checkpoint at which the applicant is still in the market, so
  the menus of one market share one run; each call forks anew, and no menu
  is kept.
- menu_da_applicant_proposing: the same menu as menu_da, but computed by
  running an applicant-proposing simulation on an augmented market.
- menu_da_plan / complete_from_plan: a two-phase computation that first
  derives the menu plus enough bookkeeping (an unroll DAG of undoable
  rejections) to finish the applicant-optimal matching once the applicant's
  list arrives, without restarting from scratch.

The plan runs the proposing loop of mdm.mechanisms (_propose) with the
applicant in its capture slot, one more than the number of institutions in
the loop's rank list: an institution reaching her stops there until the
drain moves it on. The drain keeps one acceptance rule too: its scan's rank
list is the unroll DAG's gate, which holds each applicant's reservation, so
only this module knows that rule. Unlogged, the drain and the completion's
chain phase scan the rank rows the vacancy chains keep on the input
profile, as the menus do, so the plans, completions and menus of one market
share every rank they read; given a log, they scan the rank dicts with the
loop's scan (_next_accepting), and so log what they read.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from mdm import MECHANISM_TAGS
from mdm.market import (
    APPLICANT,
    INSTITUTION,
    InstanceError,
    Matching,
    Profile,
    RankTable,
    _check_entry,
    _Frozen,
    _list_problems,
    _tuple_of,
    menu_from_matching,
)
from mdm.mechanisms import (
    CyclePolicy,
    QueryLog,
    _kept_rows,
    _next_accepting,
    _next_accepting_on_rows,
    _propose,
    _resume,
    _ttc_rounds,
    _ttc_without,
    _vacancy_chain,
    apda,
    ipda,
    receiver_optimal,
    resume_receiver_optimal,
    serial_dictatorship,
    ttc,
)

Menu = frozenset[int]
DagNode = tuple[int, int | None]  # (applicant, fallback institution or None)

_EXHAUSTIVE_CAP = 5  # institutions; reports grow factorially beyond this


def _run_mechanism(mech: str, p: Profile, order: Sequence[int] | None) -> Matching:
    if mech == "apda":
        return apda(p)
    if mech == "ttc":
        return ttc(p)
    if mech == "sd":
        return serial_dictatorship(p, range(p.n_applicants) if order is None else order)
    raise InstanceError(f"unknown mechanism tag {mech!r}; expected one of {MECHANISM_TAGS}")


def _probe(mech: str, i: int, p: Profile, order: Sequence[int] | None, reports: Iterable[tuple[int, ...]]) -> Menu:
    """Every institution the mechanism matches i to under one of her given reports, the others' held fixed.

    order, if given, is read once here, so a one-shot iterable serves every report.
    """
    if order is not None:
        order = _tuple_of("order", order)
    runs = (_run_mechanism(mech, p.with_prefs(i, report), order) for report in reports)
    return frozenset(mu.institution_of(i) for mu in runs) - {None}


def menu_oracle_singleton(mech: str, i: int, p: Profile, order: Sequence[int] | None = None) -> Menu:
    """Menu probe via singleton reports.

    An institution is on the menu iff reporting the one-entry list (h,)
    matches i to h. Sound only for strategyproof mechanisms, where obtaining
    h with some list implies obtaining it with the singleton. Every
    mechanism here matches i only to an institution she lists, so the report
    (h,) yields h or nothing.
    """
    _check_entry(p, i)
    return _probe(mech, i, p, order, ((h,) for h in range(p.n_institutions)))


def menu_oracle_exhaustive(mech: str, i: int, p: Profile, order: Sequence[int] | None = None) -> Menu:
    """Exact menu by enumerating every strict partial list i could submit.

    Ground truth for all other engines in this module. Capped at
    5 institutions (326 reports); raises beyond that.
    """
    _check_entry(p, i)
    m = p.n_institutions
    if m > _EXHAUSTIVE_CAP:
        raise InstanceError(
            f"exhaustive menu enumeration supports at most {_EXHAUSTIVE_CAP} institutions, got {m}"
        )
    return _probe(mech, i, p, order, all_lists(m))


def all_lists(m: int) -> list[tuple[int, ...]]:
    """Every strict partial list over m institutions, the empty one first: the report space of one applicant."""
    return [report for r in range(m + 1) for report in itertools.permutations(range(m), r)]


def menu_da_many_to_one(i: int, p: Profile) -> Menu:
    """Menu of applicant i under the applicant-optimal stable mechanism, read off the pointers of ipda_without.

    Only the menu is taken (_vacancy_chain), so the others' Matching is never built.
    """
    return _vacancy_chain(i, p)[1]


def menu_da(i: int, p: Profile) -> Menu:
    """menu_da_many_to_one restricted to unit capacities."""
    _check_entry(p, i, unit=True)
    return menu_da_many_to_one(i, p)


def menu_da_from_matching(i: int, p: Profile) -> Menu:
    """menu_da by the admission rule: ipda on p with i's list cleared, read by menu_from_matching."""
    _check_entry(p, i, unit=True)
    return menu_from_matching(i, p, ipda(p.with_prefs(i, ())))


def menu_ttc(i: int, p: Profile, check_invariance: bool = False) -> Menu:
    """Menu of applicant i under top trading cycles.

    Execute all cycles not involving i; the menu is every surviving
    institution. In the end state every pointer walk terminates at i, so i
    completes a cycle by pointing at any survivor, even one whose priority
    list omits her: priorities steer the trading, they are not acceptability
    constraints. From a profile's second call on, the rounds without i fork
    the full run kept on the profile (mdm.mechanisms._ttc_without). With
    check_invariance the surviving set is recomputed from the start, all
    standing cycles executing each round, and must agree.
    """
    _check_entry(p, i, unit=True)
    survivors = _ttc_without(i, p)
    if check_invariance:
        alt = _ttc_rounds(p, CyclePolicy("all-simultaneous"), absent=i)[1]
        if alt != survivors:
            raise AssertionError(
                f"trading-cycle survivors depend on execution order: {sorted(survivors)} vs {sorted(alt)}"
            )
    return survivors


def menu_sd(i: int, p: Profile, order: Sequence[int]) -> Menu:
    """Menu of applicant i under serial dictatorship: whatever her predecessors leave."""
    _check_entry(p, i, unit=True)
    order = _tuple_of("order", order)
    picks = serial_dictatorship(p, order).by_applicant  # her predecessors pick before her list is read
    return frozenset(range(p.n_institutions)) - {picks[d] for d in order[: order.index(i)] if d in picks}


# --- applicant-proposing menu via an augmented market ---


def build_augmented_profile(i: int, p: Profile) -> Profile:
    """Augment the market so i's menu shows up in the institution-optimal matching.

    For each institution h_j two probe applicants and two probe institutions
    are added: d_try_j lists h_try_j over h_j over h_fail_j, d_fail_j lists
    h_fail_j over h_try_j, h_try_j ranks d_fail_j over d_try_j, and h_fail_j
    ranks d_try_j over d_fail_j. In h_j's own priority list, i is replaced by
    d_try_j; i keeps her index with an empty list. The construction makes
    d_try_j win h_try_j exactly when h_j would have proposed to i.
    """
    _check_entry(p, i, unit=True)
    n, m = p.n_applicants, p.n_institutions
    names_d = list(p.applicant_names)
    names_h = list(p.institution_names)
    prefs = [list(x) for x in p.applicant_prefs]
    prios = [list(x) for x in p.institution_prios]
    prefs[i] = []
    for j in range(m):
        base = p.institution_names[j]
        d_try, h_try, h_fail = n + 2 * j, m + 2 * j, m + 2 * j + 1
        names_d += [f"{base}@dtry", f"{base}@dfail"]
        names_h += [f"{base}@htry", f"{base}@hfail"]
        prefs.append([h_try, j, h_fail])
        prefs.append([h_fail, h_try])
        prios.append([d_try + 1, d_try])
        prios.append([d_try, d_try + 1])
        prios[j] = [d_try if d == i else d for d in prios[j]]
    return Profile._derive(
        tuple(names_d), tuple(names_h), tuple(map(tuple, prefs)), tuple(map(tuple, prios)), checked=True
    )


def menu_da_applicant_proposing(i: int, p: Profile) -> Menu:
    """Same menu as menu_da, derived from an applicant-proposing computation.

    Runs the applicant-proposing form of receiver_optimal on the augmented
    market; h_j is on the menu iff its probe institution h_try_j ends up
    with its own probe applicant d_try_j.
    """
    aug = build_augmented_profile(i, p)
    mu = receiver_optimal(aug, APPLICANT).by_applicant
    n, m = p.n_applicants, p.n_institutions
    return frozenset(j for j in range(m) if mu.get(n + 2 * j) == m + 2 * j)


# --- two-phase computation with an unroll DAG ---


class UnrollDag:
    """Bookkeeping DAG of undoable rejections.

    Each node (d, h) records the match applicant d falls back to if the
    rejection chain through her node is unrolled; h is None when she falls
    back to unmatched. Source nodes belong to the designated applicant, one
    per menu institution, and unrolling the chain hanging from one source
    realizes that menu choice. Structural rules (out-degree at most one,
    sources only for the designated applicant, every other applicant in at
    most one node) are enforced by the mutators and asserted by check.

    The DAG indexes its nodes by fallback institution (by_fallback; the
    proposer's entry is the drain's frontier), counts its sources, and keeps
    a journal of its writes since the last check: the nodes _insert made,
    the edges add_edge drew, each node remove_chain dropped with its former
    predecessors and successor, and the applicants whose tentative match
    move wrote. The check after each step of the drain replays the journal,
    testing each write for the rules it can break, then checks the node
    count and the frontier. The check at the end of each drained chain
    covers every node and index entry, and rebuilds the fallback index, the
    source count and the gate.

    The gate is the drain's rank list for the scan: per applicant, the rank
    of her reservation, the fallback of her node if she has one, else her
    tentative match, else n_institutions (unmatched); one more for the
    designated applicant, who takes every offer. open_gate builds it, and
    add_node, move and remove_chain write it wherever a reservation changes.
    """

    def __init__(self, applicant: int) -> None:
        self.applicant = applicant
        self.nodes: set[DagNode] = set()
        self.out: dict[DagNode, DagNode] = {}
        self.preds: dict[DagNode, set[DagNode]] = {}
        self.node_of: dict[int, DagNode] = {}
        self.by_fallback: dict[int | None, set[DagNode]] = {}
        self.sources = 0
        # The journal of writes since the last check, which check empties.
        self._new: list[DagNode] = []
        self._edges: list[tuple[DagNode, DagNode]] = []
        self._dropped: list[tuple[DagNode, Iterable[DagNode], DagNode | None]] = []  # (node, preds, successor)
        self._moved: list[int] = []
        self.gate: list[int] | None = None  # the drain's rank list, built on its first scan (open_gate)
        self._rank, self._m, self._mu = (), 0, {}  # what the gate is read from, set by open_gate

    def __repr__(self) -> str:  # state dump for invariant failures
        edges = sorted((u, v) for u, v in self.out.items())
        return f"UnrollDag(applicant={self.applicant}, nodes={sorted(self.nodes)}, edges={edges})"

    def _insert(self, node: DagNode) -> DagNode:
        self.nodes.add(node)
        self.by_fallback.setdefault(node[1], set()).add(node)
        self._new.append(node)
        return node

    def add_source(self, h: int) -> DagNode:
        node = (self.applicant, h)
        if node in self.nodes:
            raise AssertionError(f"duplicate source {node} in {self!r}")
        self.sources += 1
        return self._insert(node)

    def add_node(self, d: int, h: int | None) -> DagNode:
        node = (d, h)
        if d == self.applicant or d in self.node_of or node in self.nodes:
            raise AssertionError(f"cannot add node {node} to {self!r}")
        self.node_of[d] = node
        if self.gate is not None:
            self.gate[d] = self._rank[d].get(h, self._m)
        return self._insert(node)

    def add_edge(self, u: DagNode, v: DagNode) -> None:
        if u not in self.nodes or v not in self.nodes:
            raise AssertionError(f"edge {u}->{v} touches unknown node in {self!r}")
        if u in self.out:
            raise AssertionError(f"node {u} would get out-degree 2 in {self!r}")
        if v[0] == self.applicant:
            raise AssertionError(f"edge into source {v} in {self!r}")
        self.out[u] = v
        self.preds.setdefault(v, set()).add(u)
        self._edges.append((u, v))

    def move(self, mu: dict[int, int], d: int, h: int) -> None:
        """Set applicant d's tentative match to h and journal her for the next check."""
        mu[d] = h
        self._moved.append(d)
        if self.gate is not None and d not in self.node_of:
            self.gate[d] = self._rank[d][h]

    def chain_from(self, node: DagNode) -> list[DagNode]:
        """The maximal path of out-edges starting at node."""
        chain = [node]
        while chain[-1] in self.out:
            chain.append(self.out[chain[-1]])
        return chain

    def unique_pred_chain(self, node: DagNode) -> list[DagNode]:
        """The maximal path from node whose later nodes each have exactly one predecessor."""
        chain = [node]
        while True:
            succ = self.out.get(chain[-1])
            if succ is None or len(self.preds.get(succ, ())) != 1:
                return chain
            chain.append(succ)

    def remove_chain(self, chain: list[DagNode]) -> None:
        for node in chain:
            us = self.preds.pop(node, ())
            for u in us:
                if self.out.get(u) == node:
                    del self.out[u]
            succ = self.out.pop(node, None)
            if succ is not None:
                self.preds[succ].discard(node)
            self.nodes.remove(node)
            group = self.by_fallback[node[1]]
            group.discard(node)
            if not group:
                del self.by_fallback[node[1]]
            if node[0] == self.applicant:
                self.sources -= 1
            else:
                del self.node_of[node[0]]
                if self.gate is not None:
                    self.gate[node[0]] = self._rank[node[0]].get(self._mu.get(node[0]), self._m)
            self._dropped.append((node, us, succ))

    def open_gate(self, q: Profile, mu: dict[int, int]) -> list[int]:
        """Build the gate on q from node_of and mu; add_node, move and remove_chain keep it current from then on."""
        self._rank, self._m, self._mu = q.applicant_rank, q.n_institutions, mu
        self.gate = self._reservations(mu)
        return self.gate

    def _reservations(self, mu: dict[int, int]) -> list[int]:
        node_of, m = self.node_of, self._m
        gate = [row.get(node_of[d][1] if d in node_of else mu.get(d), m) for d, row in enumerate(self._rank)]
        gate[self.applicant] = m + 1
        return gate

    def _fail(self, reason: str) -> None:
        raise AssertionError(f"unroll dag invariant violated: {reason}\n{self!r}")

    def _check_node(self, x: DagNode, mu: dict[int, int], menu: set[int]) -> None:
        """Assert the rules at one node: its edges, its kind, its index entries.

        A node no longer in the DAG must have left no index entry behind.
        """
        out, preds = self.out, self.preds
        if x not in self.nodes:
            if self.node_of.get(x[0]) == x:
                self._fail(f"node index broken for applicant {x[0]}")
            if x in out or x in preds or x in self.by_fallback.get(x[1], ()):
                self._fail(f"removed node {x} left an index entry behind")
            return
        v = out.get(x)
        if v is not None:
            if x not in preds.get(v, ()):
                self._fail(f"edge {x}->{v} missing from predecessor index")
            if mu.get(v[0]) != x[1]:
                self._fail(f"edge {x}->{v} but tentative match of {v[0]} is {mu.get(v[0])}")
        us = preds.get(x, ())
        for u in us:
            if out.get(u) != x:
                self._fail(f"stale predecessor {u} recorded for {x}")
            if mu.get(x[0]) != u[1]:
                self._fail(f"edge {u}->{x} but tentative match of {x[0]} is {mu.get(x[0])}")
        if x[0] == self.applicant:
            if us:
                self._fail(f"source {x} has predecessors")
            if x[1] not in menu:
                self._fail(f"source {x} outside the menu")
        else:
            if not us:
                self._fail(f"non-source {x} has no predecessors")
            if self.node_of.get(x[0]) != x:
                self._fail(f"node index broken for applicant {x[0]}")
        if x not in self.by_fallback.get(x[1], ()):
            self._fail(f"fallback index misses node {x}")

    def check(
        self,
        mu: dict[int, int],
        frontier: set[DagNode] | None,
        proposer: int | None,
        menu: set[int],
    ) -> None:
        """Assert the structural rules against the current tentative state.

        With a proposer and a frontier, replay the journal of the writes
        since the last check, testing each write only for the rules it can
        break, then check that the frontier is exactly the proposer's nodes
        and has no out-edges; the drain passes the proposer's fallback index
        entry, so only direct callers can fail the first. Otherwise check the
        whole DAG (see the class docstring). Either way the journal is emptied.

        The replay tests each write with one condition and, only when that
        fails, runs the rules of the nodes involved (_check_node), which
        find and report what broke:
        - an edge u->v: out holds it, u is among v's predecessors, and v's
          applicant holds u's fallback;
        - a new node: it has a predecessor, its node index entry and its
          fallback index entry (so a new source, which has no node index
          entry, always runs _check_node);
        - a dropped node: no index holds it, no former predecessor still
          points at it, and its successor no longer lists it and, if still
          in the DAG, has a predecessor left;
        - an applicant move wrote: the rules of her node, skipped when the
          node is new since the last check. The skip relies on predecessor
          entries being written only by add_edge: every edge into a new
          node is then a journalled edge, already tested against mu as move
          left it.
        """
        step = proposer is not None and frontier is not None
        new, edges, dropped, moved = self._new, self._edges, self._dropped, self._moved
        self._new, self._edges, self._dropped, self._moved = [], [], [], []
        if step:
            nodes, out, preds, node_of = self.nodes, self.out, self.preds, self.node_of
            for u, v in edges:
                if out.get(u) != v or u not in preds.get(v, ()) or mu.get(v[0]) != u[1]:
                    self._check_node(u, mu, menu)
                    self._check_node(v, mu, menu)
            for x in new:
                if not preds.get(x) or node_of.get(x[0]) != x or x not in self.by_fallback.get(x[1], ()):
                    self._check_node(x, mu, menu)
            for x, us, succ in dropped:
                if node_of.get(x[0]) == x or x in out or x in preds or x in self.by_fallback.get(x[1], ()):
                    self._check_node(x, mu, menu)
                for u in us:
                    if out.get(u) == x:
                        self._check_node(u, mu, menu)
                if succ is not None and (x in preds.get(succ, ()) or succ in nodes and not preds.get(succ)):
                    self._check_node(succ, mu, menu)
            for d in moved:
                node = node_of.get(d)
                if node is not None and node not in new:
                    self._check_node(node, mu, menu)
        else:
            for x in self.nodes | self.out.keys() | self.preds.keys():
                self._check_node(x, mu, menu)
            for d, node in self.node_of.items():
                if node not in self.nodes or node[0] != d:
                    self._fail(f"node index broken for applicant {d}")
            by_fallback: dict[int | None, set[DagNode]] = {}
            for node in self.nodes:
                by_fallback.setdefault(node[1], set()).add(node)
            if by_fallback != self.by_fallback:
                self._fail("fallback index does not match the nodes")
            if sum(node[0] == self.applicant for node in self.nodes) != self.sources:
                self._fail(f"source count {self.sources} does not match the nodes")
        if len(self.nodes) - self.sources != len(self.node_of):
            self._fail("an applicant appears in two nodes")
        if step:
            with_h = self.by_fallback.get(proposer, set())
            if frontier != with_h:
                self._fail(f"frontier {sorted(frontier)} != nodes of proposer {proposer} {sorted(with_h)}")
            for node in frontier:
                if node in self.out:
                    self._fail(f"frontier node {node} has an out-edge")
        elif self.gate is not None and self.gate != self._reservations(mu):
            self._fail("gate does not match the reservations in node_of and mu")


class MenuPlan(_Frozen):
    """Phase-one output: a menu plus everything needed to finish the matching.

    market is the input profile with the applicant's list cleared, tentative
    the matching of everyone else, pointers each institution's next unread
    priority rank, terminal the applicants already at their final match, and
    dag the unroll DAG whose sources are the menu. Treat the plan as
    read-only; complete_from_plan copies what it mutates, except the rank
    rows kept on the input profile (mdm.mechanisms._kept_rows). The plan
    keeps a reference to them, _rows, and _spots, the positions (h, k) of
    the applicant in the institution lists at or past the plan's pointers:
    the only entries of hers a completion's chain phase can read. An
    unlogged completion sets those entries to -1, so the scan fills them
    from her list in the full profile, and puts back what they held when it
    ends, raising or not. Two completions on plans of one market must
    therefore not run concurrently. Neither field is in eq, hash or repr;
    a plan built from its fields alone has none and completes on the rank
    dicts.
    """

    __match_args__ = ("applicant", "market", "menu", "tentative", "dag", "terminal", "pointers")
    _hidden = ("dag", "pointers")
    _rows: list[list[int] | None] | None = None
    _spots: tuple[tuple[int, int], ...] = ()

    def __init__(self, applicant: int, market: Profile, menu: Menu, tentative: Matching, dag: UnrollDag,
                 terminal: frozenset[int], pointers: tuple[int, ...]) -> None:
        vars(self).update(applicant=applicant, market=market, menu=menu, tentative=tentative, dag=dag,
                          terminal=terminal, pointers=pointers)


def _hold_run(q: Profile, i: int, log: QueryLog | None) -> tuple[dict[int, int], list[int], list[int]]:
    """Institution-proposing run on q where proposing to i captures the institution.

    An institution reaching i's slot stops proposing there for good. Returns
    the tentative matching over everyone else, the per-institution pointers,
    and the captured institutions in ascending order. With one seat each, an
    institution was captured iff it read someone and the last was i: she
    takes every offer, and any other last read holds it or turned it down.
    """
    mu, nxt = {}, [0] * q.n_institutions
    _propose(q, mu, nxt, log, capture=i)
    return mu, nxt, [h for h, ranked in enumerate(q.institution_prios) if nxt[h] and ranked[nxt[h] - 1] == i]


def _next_interested(
    q: Profile,
    i: int,
    mu: dict[int, int],
    dag: UnrollDag,
    nxt: list[int],
    h: int,
    log: QueryLog | None,
    kept: tuple[list[list[int] | None], RankTable] | None = None,
) -> int | None:
    """Advance h down its priority list to the next applicant who wants it, or to i's slot.

    An applicant already holding a dag node compares h against that node's
    fallback institution, not against her tentative match: if the chain
    through her is unrolled, the fallback is what she ends up with. The scan
    takes the DAG's gate as its rank list, built from mu on the first call.
    Given kept, it compares the gate with rank rows, not the rank dicts:
    kept holds the rows kept on the profile p whose copy with i's list
    cleared is q, and p's applicant_rank, which fills them. Every other applicant ranks alike in p
    and q, and i's entries, at most n_institutions, pass her gate entry of
    n_institutions + 1 as any offer does.
    """
    gate = dag.gate if dag.gate is not None else dag.open_gate(q, mu)
    if kept is None:
        return _next_accepting(q.institution_prios, q.applicant_rank, gate, nxt, h, log)
    rows, rank = kept
    return _next_accepting_on_rows(rows, rank, q.institution_prios, gate, nxt, h)


def menu_da_plan(i: int, p: Profile, log: QueryLog | None = None) -> MenuPlan:
    """Phase one: compute i's menu and a plan for finishing the matching.

    Runs institution-proposing deferred acceptance with i in the capture
    slot (_hold_run), then drains the captured institutions one by one,
    each proposing below i's slot. Rejection chains triggered this way are
    recorded in the unroll DAG rather than final: each displaced applicant
    gets a node remembering the match she falls back to if i's eventual
    choice routes elsewhere. A proposer's frontier is its entry in the
    DAG's fallback index. Every institution that reaches i's slot joins
    the menu. The resulting menu equals menu_da(i, p). Unlogged, the drain
    scans p's kept rank rows (_next_interested).
    """
    _check_entry(p, i, unit=True)
    q = p.with_prefs(i, ())
    mu, nxt, captured = _hold_run(q, i, log)
    rows = _kept_rows(p)
    kept = (rows, p.applicant_rank) if log is None else None
    menu: set[int] = set(captured)
    dag = UnrollDag(i)

    for h0 in captured:
        dag.add_source(h0)
        dag.check(mu, dag.by_fallback[h0], h0, menu)
        h: int | None = h0
        while h is not None:
            d = _next_interested(q, i, mu, dag, nxt, h, log, kept)
            if d is None:
                h = None
            elif d == i:
                menu.add(h)
                dag.add_source(h)
            else:
                h = _collide(q, mu, dag, d, h)
            dag.check(mu, None if h is None else dag.by_fallback.get(h, set()), h, menu)

    assert menu == {node[1] for node in dag.nodes if node[0] == i}
    tentative = Matching.of(mu)
    unmatched = frozenset(d for d in range(q.n_applicants) if d != i and d not in mu)
    plan = MenuPlan(
        applicant=i,
        market=q,
        menu=frozenset(menu),
        tentative=tentative,
        dag=dag,
        terminal=unmatched,
        pointers=tuple(nxt),
    )
    spots = []  # read off the lists: institution_rank would cost a fresh profile a table build
    for h, ranked in enumerate(q.institution_prios):
        try:
            spots.append((h, ranked.index(i, nxt[h])))
        except ValueError:
            pass
    vars(plan).update(_rows=rows, _spots=tuple(spots))
    return plan


def _collide(q: Profile, mu: dict[int, int], dag: UnrollDag, d: int, h: int) -> int:
    """Applicant d, who prefers h to her reservation, accepts h; returns the next proposer.

    Her old node, if she has one, and the chain hanging from it by sole
    predecession are certain rejections now (two independent triggers
    exist), so they are dropped and replaced by a single node with a raised
    fallback: the worse of her tentative match and the new offer, which for
    one without a node is her match (or unmatched), as the scan found she
    prefers h. If she keeps her match, h keeps proposing; if she moves to
    h, her old match does.

    The frontier is h's entry in the fallback index, so the dropped chain
    leaves it before new edges are drawn from it. When the whole frontier
    is swallowed, every route that could undo d's move runs through her own
    dropped node, so she keeps the better match under every pick and gets
    no replacement node at all.
    """
    p1 = dag.node_of.get(d)
    preds1 = dag.preds.get(p1, ())
    if p1 is not None:
        dag.remove_chain(dag.unique_pred_chain(p1))
    cur = mu.get(d)
    if cur == h:
        raise AssertionError(f"institution {h} proposed to its own match {d}")
    if p1 is not None and q.applicant_rank[d][cur] < q.applicant_rank[d][h]:
        node = dag.add_node(d, h)
        for u in preds1:
            dag.add_edge(u, node)
        return h
    if dag.by_fallback.get(h):
        node = dag.add_node(d, cur)
        for u in dag.by_fallback[h]:
            dag.add_edge(u, node)
    dag.move(mu, d, h)
    return cur


def complete_from_plan(plan: MenuPlan, prefs: Sequence[int], log: QueryLog | None = None) -> Matching:
    """Phase two: finish the matching once the applicant's list is known.

    Picks the list's highest menu institution (or none), unrolls the chain
    hanging from that pick so every applicant on it falls back to her
    recorded match, and lets the remaining institutions keep proposing to
    completion. Equals apda on the full profile. Unlogged, the chain phase
    scans the rank rows kept on the plan's input profile, with the
    applicant's entries set aside for the run (MenuPlan).
    """
    i = plan.applicant
    q = plan.market
    full = q.with_prefs(i, prefs)  # checked iff the plan's market is and the list passes the per-list check
    prefs = full.applicant_prefs[i]
    if not full._checked and _list_problems(APPLICANT, i, prefs, q.n_institutions):
        raise InstanceError(f"invalid preference list for applicant {i}: {prefs!r}")
    mu = dict(plan.tentative.by_applicant)
    nxt = list(plan.pointers)
    d_term = {i}  # resume_receiver_optimal makes every unmatched applicant terminal itself
    pick = next((h for h in prefs if h in plan.menu), None)
    if pick is not None:
        for d, h in plan.dag.chain_from((i, pick)):
            if h is None:
                mu.pop(d, None)
            else:
                mu[d] = h
            d_term.add(d)
    rows = plan._rows
    if log is not None or rows is None:
        return resume_receiver_optimal(full, mu, nxt, d_term, log)
    saved = []
    for h, k in plan._spots:
        row = rows[h]
        if row is None:
            row = rows[h] = [-1] * len(q.institution_prios[h])
        saved.append((row, k, row[k]))
        row[k] = -1
    try:
        return _resume(full, mu, nxt, d_term, None, INSTITUTION, rows)
    finally:
        for row, k, r in saved:
            row[k] = r
