"""The per-step unroll-DAG check against the full check.

menu_da_plan checks the DAG after every step of its drain loop, but only
where the step wrote: the DAG journals its writes (new nodes, edges, dropped
nodes with their former predecessors and successors, moved applicants), and
the step check replays the journal, testing each write for the rules it can
break, then checks the node count and the frontier. Every node is checked at
the end of each drained chain. These tests run the full check and the full
rescan of oracles.py after every step as well and require the same plans;
require faults injected into a copy of the drain loop, or into the DAG's
methods, to be caught at the same step and for the same reason as by the
rescan after every step; and show that writes which bypass the DAG's methods
are still caught by the end of the chain. The drain itself, with its scan,
is pinned against the earlier drain of oracles.py: identical plans, DAGs and
logged queries.
"""

import re

import pytest

from oracles import STRUCTURED_FAMILIES, menu_da_plan_reference, unroll_dag_check_reference

from mdm.generators import gen_random_market
from mdm.market import Profile
from mdm.mechanisms import QueryLog
from mdm.menus import UnrollDag, _collide, _hold_run, _next_interested, menu_da_plan

SMALL_MARKETS = [(n, trunc, seed) for n in range(3, 13) for trunc in (0.0, 0.3, 0.7) for seed in range(10)]
BIG_MARKETS = [(150, 0.0, 1), (150, 0.0, 2)]


def plan_state(plan):
    return (
        plan.menu,
        plan.tentative,
        plan.pointers,
        plan.terminal,
        frozenset(plan.dag.nodes),
        frozenset(plan.dag.out.items()),
    )


def reason(exc: BaseException) -> str:
    """The kind of a failure: its first line with node tuples, lists and numbers blanked out."""
    line = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: " + re.sub(r"\[[^\]]*\]|\([^)]*\)|-?\d+|None", "_", line)


def test_full_check_after_every_step_changes_nothing(monkeypatch):
    markets = [(n, trunc, seed, [seed % n]) for n, trunc, seed in SMALL_MARKETS]
    markets += [(n, trunc, seed, [0, 75]) for n, trunc, seed in BIG_MARKETS]
    plain = {}
    for n, trunc, seed, applicants in markets:
        p = gen_random_market(n, seed, trunc)
        for i in applicants:
            plain[n, trunc, seed, i] = plan_state(menu_da_plan(i, p))

    step_check = UnrollDag.check
    calls = {"step": 0}

    def step_then_full(self, mu, frontier, proposer, menu):
        if proposer is not None and frontier is not None:
            calls["step"] += 1
        step_check(self, mu, frontier, proposer, menu)
        step_check(self, mu, None, None, menu)
        unroll_dag_check_reference(self, mu, frontier, proposer, menu)

    monkeypatch.setattr(UnrollDag, "check", step_then_full)
    for n, trunc, seed, applicants in markets:
        p = gen_random_market(n, seed, trunc)
        for i in applicants:
            assert plan_state(menu_da_plan(i, p)) == plain[n, trunc, seed, i], (n, trunc, seed, i)
    assert calls["step"] > len(plain)


def faulty_drain(i, p, fault, check):
    """The drain with its own frontier record, kept as the fault harness, with one fault switched on.

    fault is one of "mu" (a dropped tentative-match write for a new node),
    "mu-collide" (the same in a collision), "preds1" (a dropped
    frontier.update(preds1)), "reset" (a frontier not reset to the new node)
    and "clear" (a collision frontier not cleared), or None.
    """
    q = p.with_prefs(i, ())
    mu, nxt, captured = _hold_run(q, i, None)
    menu = set(captured)
    dag = UnrollDag(i)
    pending = list(reversed(captured))
    while pending:
        h0 = pending.pop()
        frontier = {dag.add_source(h0)}
        check(dag, mu, frontier, h0, menu)
        h = h0
        while h is not None:
            d = _next_interested(q, i, mu, dag, nxt, h, None)
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
                if fault != "reset":
                    frontier = {node}
                if fault != "mu":
                    dag.move(mu, d, h)
                h = fallback
            else:
                p1 = dag.node_of[d]
                preds1 = set(dag.preds.get(p1, ()))
                removed = dag.unique_pred_chain(p1)
                dag.remove_chain(removed)
                frontier.difference_update(removed)
                cur = mu[d]
                if q.applicant_rank[d][cur] < q.applicant_rank[d][h]:
                    node = dag.add_node(d, h)
                    for u in preds1:
                        dag.add_edge(u, node)
                    frontier.add(node)
                else:
                    if frontier:
                        node = dag.add_node(d, cur)
                        for u in frontier:
                            dag.add_edge(u, node)
                        if fault != "clear":
                            frontier.clear()
                        frontier.add(node)
                    if fault != "preds1":
                        frontier.update(preds1)
                    if fault != "mu-collide":
                        dag.move(mu, d, h)
                    h = cur
            check(dag, mu, frontier if h is not None else None, h, menu)
    return menu, dag


def first_failure(i, p, fault, check):
    """(checks passed, failure kind) of the faulty drain under check, or None if it finishes."""
    passed = [0]

    def counted(dag, mu, frontier, proposer, menu):
        check(dag, mu, frontier, proposer, menu)
        passed[0] += 1

    try:
        faulty_drain(i, p, fault, counted)
    except Exception as exc:  # a fault may also surface outside a check
        return passed[0], reason(exc)
    return None


def test_faulty_drain_without_fault_matches_the_plan():
    for n, trunc, seed in SMALL_MARKETS[::7]:
        p = gen_random_market(n, seed, trunc)
        i = seed % n
        menu, dag = faulty_drain(i, p, None, UnrollDag.check)
        plan = menu_da_plan(i, p)
        assert (menu, dag.nodes, dag.out) == (plan.menu, plan.dag.nodes, plan.dag.out)


def keep_in_successor_preds(remove_chain):
    """remove_chain that leaves each removed node in its successor's predecessor set."""

    def faulty(self, chain):
        succs = [(node, self.out.get(node)) for node in chain]
        remove_chain(self, chain)
        for node, succ in succs:
            if succ in self.nodes:
                self.preds[succ].add(node)

    return faulty


def keep_edges_into_removed(remove_chain):
    """remove_chain that leaves the out-edges of its predecessors pointing at removed nodes."""

    def faulty(self, chain):
        into = [(u, node) for node in chain for u in self.preds.get(node, ())]
        remove_chain(self, chain)
        for u, node in into:
            if u in self.nodes and u not in self.out:
                self.out[u] = node

    return faulty


def drop_later_preds(add_edge):
    """add_edge that records only the first predecessor of each node."""

    def faulty(self, u, v):
        add_edge(self, u, v)
        if len(self.preds[v]) > 1:
            self.preds[v].discard(u)

    return faulty


def keep_node_index(remove_chain):
    """remove_chain that leaves the node index pointing at removed nodes."""

    def faulty(self, chain):
        kept = {node[0]: node for node in chain if node[0] != self.applicant}
        remove_chain(self, chain)
        self.node_of.update(kept)

    return faulty


METHOD_FAULTS = {
    "node-index": ("remove_chain", keep_node_index),
    "successor-preds": ("remove_chain", keep_in_successor_preds),
    "edges-into-removed": ("remove_chain", keep_edges_into_removed),
    "later-preds": ("add_edge", drop_later_preds),
}


@pytest.mark.parametrize("fault", ["mu", "mu-collide", "preds1", "reset", "clear", *METHOD_FAULTS])
def test_step_check_catches_faults_where_the_rescan_does(monkeypatch, fault):
    if fault in METHOD_FAULTS:
        name, wrap = METHOD_FAULTS[fault]
        monkeypatch.setattr(UnrollDag, name, wrap(getattr(UnrollDag, name)))
    caught = 0
    for n, trunc, seed in SMALL_MARKETS:
        p = gen_random_market(n, seed, trunc)
        i = seed % n
        loop_fault = None if fault in METHOD_FAULTS else fault
        step = first_failure(i, p, loop_fault, UnrollDag.check)
        assert step == first_failure(i, p, loop_fault, unroll_dag_check_reference), (fault, n, trunc, seed)
        caught += step is not None and "unroll dag invariant violated" in step[1]
    if fault != "mu-collide":  # a dropped write for an applicant left without a node breaks no rule
        assert caught > 0


def test_step_check_covers_a_moved_applicant_without_touched_nodes():
    dag = UnrollDag(9)
    a = dag.add_source(0)
    b = dag.add_node(1, 3)
    dag.add_edge(a, b)
    mu = {1: 0}
    dag.check(mu, {b}, 3, {0})  # leaves nothing touched
    dag.move(mu, 1, 5)  # edge a->b now promises a match applicant 1 no longer holds
    with pytest.raises(AssertionError, match="tentative match of 1 is 5"):
        dag.check(mu, {b}, 3, {0})


def test_step_check_catches_a_removed_node_left_in_an_index():
    dag = UnrollDag(9)
    a = dag.add_source(0)
    b = dag.add_node(1, 3)
    dag.add_edge(a, b)
    dag.check({1: 0}, {b}, 3, {0})
    dag.remove_chain([b])
    dag.by_fallback.setdefault(3, set()).add(b)
    with pytest.raises(AssertionError, match=r"removed node \(1, 3\) left an index entry behind"):
        dag.check({1: 0}, {a}, 0, {0})


def test_step_check_rejects_a_frontier_node_with_an_out_edge():
    dag = UnrollDag(9)
    a = dag.add_source(0)
    b = dag.add_node(1, 0)
    dag.add_edge(a, b)
    # the frontier is exactly the nodes falling back to 0, but a already points on
    with pytest.raises(AssertionError, match=r"frontier node \(9, 0\) has an out-edge"):
        dag.check({1: 0}, {a, b}, 0, {0})


def corrupt(dag, how):
    """Write straight into the DAG's tables, past its methods.

    Leaves a predecessor entry x of v with no edge x->v and returns (x, v),
    or returns None if the DAG has no edge yet.
    """
    if not dag.out:
        return None
    u, v = next(iter(dag.out.items()))
    if how == "out":  # drop an edge from out, keep it in the predecessor index
        del dag.out[u]
        return u, v
    other = next((x for x in dag.nodes if x not in dag.preds[v] and x != v), None)
    if other is None:
        return None
    dag.preds[v].add(other)  # a predecessor no edge backs
    return other, v


@pytest.mark.parametrize("how", ["preds", "out"])
def test_direct_writes_are_caught_by_the_end_of_the_chain(monkeypatch, how):
    # The DAG's own methods may erase the bad entry (removing v drops its
    # predecessor set); a chain may end cleanly only if they did. The bad
    # entry also steers the drain, so the rule that fails may be another, or
    # a mutator may refuse the next step.
    step_check = UnrollDag.check
    state = {}

    def check_and_corrupt(self, mu, frontier, proposer, menu):
        full = proposer is None or frontier is None
        stale = state.get("stale")
        still_bad = stale is not None and stale[0] in self.preds.get(stale[1], ()) and self.out.get(stale[0]) != stale[1]
        state["kind"] = "full" if full else "step"
        step_check(self, mu, frontier, proposer, menu)
        assert not (full and still_bad), "a chain with a stale predecessor entry ended without a failure"
        if full:
            state["stale"] = None
        elif stale is None and not state.get("done"):
            state["stale"] = corrupt(self, how)
            state["done"] = state["stale"] is not None

    monkeypatch.setattr(UnrollDag, "check", check_and_corrupt)
    caught = {"step": 0, "full": 0}
    for n, trunc, seed in SMALL_MARKETS:
        p = gen_random_market(n, seed, trunc)
        state.clear()
        try:
            menu_da_plan(seed % n, p)
        except AssertionError as exc:
            assert "UnrollDag(applicant=" in str(exc), exc  # a check's or a mutator's own assertion
            if str(exc).startswith("unroll dag invariant violated"):
                caught[state["kind"]] += 1
    assert caught["full"] > 0, caught


def plan_fields(plan, log):
    dag = plan.dag
    return (
        plan.applicant,
        plan.market,
        plan.menu,
        plan.tentative,
        plan.terminal,
        plan.pointers,
        dag.nodes,
        dag.out,
        dag.node_of,
        log.events,
    )


def test_drain_matches_the_drain_with_a_branch_for_new_nodes():
    markets = [(n, trunc, seed, range(n)) for n, trunc, seed in SMALL_MARKETS]
    markets += [(n, trunc, seed, [0, 75]) for n, trunc, seed in BIG_MARKETS]
    for n, trunc, seed, applicants in markets:
        p = gen_random_market(n, seed, trunc)
        for i in applicants:
            got, want = QueryLog(), QueryLog()
            assert plan_fields(menu_da_plan(i, p, got), got) == plan_fields(
                menu_da_plan_reference(i, p, want), want
            ), (n, trunc, seed, i)


@pytest.mark.parametrize("name", STRUCTURED_FAMILIES)
def test_drain_matches_the_drain_with_a_branch_for_new_nodes_on_the_families(name):
    # A Latin-square plan meets an applicant who already holds a node about 270 times at these sizes, against about 7
    # on random markets of the same sizes, so the drain reads the fallback index as its frontier across many collisions.
    for n in (5, 17, 30):
        p = STRUCTURED_FAMILIES[name](n)
        for i in range(n):
            got, want = QueryLog(), QueryLog()
            logged = plan_fields(menu_da_plan(i, p, got), got)
            assert logged == plan_fields(menu_da_plan_reference(i, p, want), want), (name, n, i)
            assert plan_fields(menu_da_plan(i, p), got) == logged, (name, n, i)  # unlogged: every field but the log


def test_an_applicant_with_a_node_is_offered_against_its_fallback_even_when_her_match_is_stale():
    # Applicant 1 ranks institutions 1 > 0 > 2, and every institution lists only her. Her node falls back
    # to 1, which she prefers to 0, while mu has her at 2, which she does not: only the node counts.
    q = Profile(("i", "d"), ("h", "f", "c"), ((), (1, 0, 2)), ((1,), (1,), (1,)))
    dag = UnrollDag(0)
    dag.add_node(1, 1)
    assert _next_interested(q, 0, {1: 2}, dag, [0, 0, 0], 0, None) is None
    assert _next_interested(q, 0, {1: 2}, UnrollDag(0), [0, 0, 0], 0, None) == 1


def test_the_gate_follows_every_reservation_write_and_the_end_of_the_chain_rebuilds_it():
    # Applicant 1 ranks 1 > 0 > 2 and holds 0 under source (0, 0); applicant 2 ranks 2 > 0 and holds 2, with no node.
    q = Profile(("i", "d", "e"), ("h", "f", "c"), ((), (1, 0, 2), (2, 0)), ((1, 2), (1,), (2,)))
    dag = UnrollDag(0)
    a = dag.add_source(0)
    mu = {1: 0, 2: 2}
    assert dag.open_gate(q, mu) == [4, 1, 0]  # the designated applicant takes every offer: one past unmatched
    b = dag.add_node(1, 1)
    dag.add_edge(a, b)
    assert dag.gate == [4, 0, 0]  # her node's fallback, not her match, is her reservation
    dag.move(mu, 2, 0)
    dag.move(mu, 1, 0)
    assert dag.gate == [4, 0, 1]  # a move counts only for an applicant without a node
    dag.check(mu, None, None, {0})
    dag.remove_chain([b])
    assert dag.gate == [4, 1, 1]  # back to her tentative match
    dag.check(mu, None, None, {0})
    dag.gate[2] = 3
    dag.check(mu, {a}, 0, {0})  # the step check leaves the gate to the end of the chain
    with pytest.raises(AssertionError, match="unroll dag invariant violated: gate does not match the reservations"):
        dag.check(mu, None, None, {0})


def _pred_into_source(dag, a, b):
    dag.out[b] = a  # an edge b -> a with its index entry, so only the rule on sources breaks
    dag.preds[a] = {b}


def _cut_edge(dag, a, b):
    del dag.out[a]
    del dag.preds[b]


def _misindex_node(dag, a, b):
    dag.node_of[1] = (1, 7)


def _unindex_fallback(dag, a, b):
    dag.by_fallback[3].discard(b)


def _index_a_missing_node(dag, a, b):
    dag.node_of[5] = (5, 2)


def _index_a_missing_fallback(dag, a, b):
    dag.by_fallback.setdefault(7, set()).add((4, 7))


def _miscount_sources(dag, a, b):
    dag.sources = 2


def _add_a_second_node(dag, a, b):
    dag.nodes.add((1, 4))


@pytest.mark.parametrize(
    ("corrupt", "mu", "menu", "step", "why"),
    [
        (_pred_into_source, {1: 0, 9: 3}, {0}, False, r"source \(9, 0\) has predecessors"),
        (lambda dag, a, b: None, {1: 0}, set(), False, r"source \(9, 0\) outside the menu"),
        (_cut_edge, {1: 0}, {0}, False, r"non-source \(1, 3\) has no predecessors"),
        (_misindex_node, {1: 0}, {0}, False, "node index broken for applicant 1"),
        (_unindex_fallback, {1: 0}, {0}, False, r"fallback index misses node \(1, 3\)"),
        (_index_a_missing_node, {1: 0}, {0}, False, "node index broken for applicant 5"),
        (_index_a_missing_fallback, {1: 0}, {0}, False, "fallback index does not match the nodes"),
        (_miscount_sources, {1: 0}, {0}, False, "source count 2 does not match the nodes"),
        (_add_a_second_node, {1: 0}, {0}, True, "an applicant appears in two nodes"),
    ],
    ids=["source-with-predecessor", "source-off-the-menu", "orphan-node", "node-index", "fallback-index",
         "stale-node-index", "stale-fallback-index", "source-count", "applicant-twice"],
)
def test_each_structural_rule_fails_on_a_direct_write_that_breaks_it(corrupt, mu, menu, step, why):
    # Source (9, 0) -> applicant 1's node (1, 3), checked clean; then one write past the DAG's methods.
    dag = UnrollDag(9)
    a = dag.add_source(0)
    b = dag.add_node(1, 3)
    dag.add_edge(a, b)
    dag.check({1: 0}, {b}, 3, {0})  # leaves nothing touched
    corrupt(dag, a, b)
    with pytest.raises(AssertionError, match=f"unroll dag invariant violated: {why}"):
        dag.check(mu, {b} if step else None, 3 if step else None, menu)


def test_a_source_is_added_once():
    dag = UnrollDag(9)
    dag.add_source(0)
    with pytest.raises(AssertionError, match=r"duplicate source \(9, 0\)"):
        dag.add_source(0)


def test_an_institution_never_collides_with_its_own_match():
    q = Profile(("i", "d"), ("h",), ((), (0,)), ((1,),))
    with pytest.raises(AssertionError, match="institution 0 proposed to its own match 1"):
        _collide(q, {1: 0}, UnrollDag(0), 1, 0)
