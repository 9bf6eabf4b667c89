"""Method faults on add_source, add_node, move and add_edge against the step check's journal.

UnrollDag.check replays, after each drain step, the journal of the writes the
DAG's methods made (new nodes, edges, dropped nodes, moved applicants) and
tests each write only for the rules it can break. Each fault here wraps one
method and corrupts the DAG, or the tentative matching, after the real method
returns, as METHOD_FAULTS of test_unroll_checks.py does for remove_chain and
add_edge. Every fault is one the full rescan of oracles.py catches, and the
step check must catch it at the same step and for the same reason.
"""

import pytest

from oracles import unroll_dag_check_reference
from test_unroll_checks import SMALL_MARKETS, first_failure

from mdm.generators import gen_random_market
from mdm.menus import UnrollDag


def after(corrupt):
    """Wrap a method so that corrupt(dag, result, *args) runs once it returns."""

    def wrap(method):
        def faulty(self, *args):
            result = method(self, *args)
            corrupt(self, result, *args)
            return result

        return faulty

    return wrap


def source_in_node_index(dag, node, h):
    dag.node_of[dag.applicant] = node  # the designated applicant indexed like any other


def source_with_predecessor(dag, node, h):
    # An edge into the new source, written on both sides, from the first node without an out-edge.
    u = min((x for x in dag.nodes if x not in dag.out and x != node), key=repr, default=None)
    if u is not None:
        dag.out[u] = node
        dag.preds.setdefault(node, set()).add(u)


def node_misindexed(dag, node, d, h):
    dag.node_of[d] = (d, -1)  # the index points at a node that does not exist


def node_writes_mu(dag, node, d, h):
    # The node's fallback written as her tentative match, into the matching the gate reads.
    if h is None:
        dag._mu.pop(d, None)
    else:
        dag._mu[d] = h


def move_reverted(dag, result, mu, d, h):
    node = dag.node_of.get(d)
    if node is not None:
        mu[d] = node[1]  # the write undone: she is back at her node's fallback


def move_misindexes(dag, result, mu, d, h):
    dag.node_of[d] = (d, h)  # her new match taken for her node's fallback


def edge_drops_out(dag, result, u, v):
    del dag.out[u]  # the predecessor entry kept, the edge itself lost


JOURNAL_FAULTS = {
    "source-in-node-index": ("add_source", source_in_node_index),
    "source-with-predecessor": ("add_source", source_with_predecessor),
    "node-misindexed": ("add_node", node_misindexed),
    "node-writes-mu": ("add_node", node_writes_mu),
    "move-reverted": ("move", move_reverted),
    "move-misindexes": ("move", move_misindexes),
    "edge-drops-out": ("add_edge", edge_drops_out),
}


@pytest.mark.parametrize("fault", JOURNAL_FAULTS)
def test_step_check_catches_method_faults_where_the_rescan_does(monkeypatch, fault):
    name, corrupt = JOURNAL_FAULTS[fault]
    monkeypatch.setattr(UnrollDag, name, after(corrupt)(getattr(UnrollDag, name)))
    caught = 0
    for n, trunc, seed in SMALL_MARKETS:
        p = gen_random_market(n, seed, trunc)
        i = seed % n
        step = first_failure(i, p, None, UnrollDag.check)
        assert step == first_failure(i, p, None, unroll_dag_check_reference), (fault, n, trunc, seed)
        caught += step is not None and "unroll dag invariant violated" in step[1]
    assert caught > 0


def test_a_move_onto_a_node_made_in_the_same_step_is_tested_through_its_edges():
    # The replay skips the node of a moved applicant when the node is new: the edge into it is journalled.
    dag = UnrollDag(9)
    a = dag.add_source(0)
    dag.check({}, {a}, 0, {0})
    b = dag.add_node(1, 3)
    dag.add_edge(a, b)
    mu = {1: 0}
    dag.move(mu, 1, 5)  # edge a->b now promises a match applicant 1 no longer holds
    with pytest.raises(AssertionError, match=r"edge \(9, 0\)->\(1, 3\) but tentative match of 1 is 5"):
        dag.check(mu, {b}, 3, {0})


def test_a_node_dropped_in_the_step_that_made_it_passes_the_step_check():
    # A new node that a later write of the same step removes, and the edge into it, leave nothing to test.
    dag = UnrollDag(9)
    a = dag.add_source(0)
    dag.check({}, {a}, 0, {0})
    b = dag.add_node(1, 3)
    dag.add_edge(a, b)
    dag.remove_chain([b])
    dag.check({1: 0}, {a}, 0, {0})
    dag.check({1: 0}, None, None, {0})


def test_a_successor_left_without_predecessors_fails_at_the_step():
    # Dropping the only predecessor of a node that stays is a write that breaks the rule at the successor.
    dag = UnrollDag(9)
    a = dag.add_source(0)
    b = dag.add_node(1, 3)
    c = dag.add_node(2, 4)
    dag.add_edge(a, b)
    dag.add_edge(b, c)
    mu = {1: 0, 2: 3}
    dag.check(mu, {c}, 4, {0})
    dag.remove_chain([b])
    with pytest.raises(AssertionError, match=r"non-source \(2, 4\) has no predecessors"):
        dag.check(mu, {a}, 0, {0})


def _chain_with_a_shared_successor():
    # Source (9, 0) -> (1, 4) -> (2, 5) <- source (9, 4): applicant 1 holds 0, applicant 2 holds 4.
    dag = UnrollDag(9)
    a, a2 = dag.add_source(0), dag.add_source(4)
    b, c = dag.add_node(1, 4), dag.add_node(2, 5)
    dag.add_edge(a, b)
    dag.add_edge(b, c)
    dag.add_edge(a2, c)
    mu, menu = {1: 0, 2: 4}, {0, 4}
    dag.check(mu, None, None, menu)
    return dag, mu, menu, b, c


def _new_node_without_predecessors(dag, mu, menu, b, c):
    dag.add_node(3, 5)
    mu[3] = 0


def _new_node_off_the_fallback_index(dag, mu, menu, b, c):
    d = dag.add_node(3, 6)
    dag.add_edge(c, d)
    mu[3] = 5
    dag.by_fallback[6].discard(d)


def _new_node_misindexed(dag, mu, menu, b, c):
    d = dag.add_node(3, 6)
    dag.add_edge(c, d)
    mu[3] = 5
    dag.node_of[3] = (3, 7)


def _dropped_node_left_in_node_index(dag, mu, menu, b, c):
    dag.remove_chain([b])
    dag.node_of[1] = b


def _dropped_node_left_in_out(dag, mu, menu, b, c):
    dag.remove_chain([b])
    dag.out[b] = c


def _dropped_node_left_in_preds(dag, mu, menu, b, c):
    dag.remove_chain([b])
    dag.preds[b] = {(9, 0)}


@pytest.mark.parametrize(
    ("write", "why"),
    [
        (_new_node_without_predecessors, r"non-source \(3, 5\) has no predecessors"),
        (_new_node_off_the_fallback_index, r"fallback index misses node \(3, 6\)"),
        (_new_node_misindexed, "node index broken for applicant 3"),
        (_dropped_node_left_in_node_index, "node index broken for applicant 1"),
        (_dropped_node_left_in_out, r"removed node \(1, 4\) left an index entry behind"),
        (_dropped_node_left_in_preds, r"removed node \(1, 4\) left an index entry behind"),
    ],
    ids=["new-without-predecessors", "new-off-the-fallback-index", "new-misindexed", "dropped-left-in-node-index",
         "dropped-left-in-out", "dropped-left-in-preds"],
)
def test_each_journal_rule_fails_at_the_step_on_a_write_that_breaks_it(write, why):
    # The replay runs before the count and frontier rules, so it must be what reports the write.
    dag, mu, menu, b, c = _chain_with_a_shared_successor()
    write(dag, mu, menu, b, c)
    frontier = set(dag.by_fallback[5])
    with pytest.raises(AssertionError, match=f"unroll dag invariant violated: {why}"):
        dag.check(mu, frontier, 5, menu)
