"""Every message of validate_description, and the structural clause-(b) failures of check_menu_description,
each on one malformed description, with its exact text; and evaluate's message for a type a rank query cannot
read."""

import pytest

from mdm.descriptions import (
    DescriptionError,
    ExtensiveFormDescription,
    MechanismView,
    MenuDescriptionError,
    Query,
    Vertex,
    check_menu_description,
    evaluate,
    validate_description,
)

SINK = Vertex(label="done")
ASK = Query("scalar-value", (0,))


def ask(player: object = 0, query: Query = ASK, table: dict | None = None, **rest) -> Vertex:
    """A decision vertex; by default player 0 answers 0 and goes on to vertex 1:0."""
    return Vertex(player=player, query=query, table={0: (1, 0)} if table is None else table, **rest)


def two_layers(first: Vertex) -> ExtensiveFormDescription:
    return ExtensiveFormDescription(((first,), (SINK,)))


MALFORMED = {
    "no layers": (ExtensiveFormDescription(()), "description has no layers"),
    "empty layer": (ExtensiveFormDescription(((SINK,), ())), "layer 1 is empty"),
    "two sources": (
        ExtensiveFormDescription(((SINK, SINK),)), "the first layer must contain exactly the source vertex",
    ),
    "source outside layer 0": (
        ExtensiveFormDescription(((SINK,),), source=(0, 1)), "source (0, 1) is not a vertex of layer 0",
    ),
    "source of one index": (
        ExtensiveFormDescription(((SINK,),), source=(0,)), "source (0,) is not a (layer, index) pair",
    ),
    "source with a string index": (
        ExtensiveFormDescription(((SINK,),), source=(0, "x")), "source (0, 'x') is not a (layer, index) pair",
    ),
    "source of three indices": (
        ExtensiveFormDescription(((SINK,),), source=(0, 0, 0)), "source (0, 0, 0) is not a (layer, index) pair",
    ),
    "target not a pair": (two_layers(Vertex(succ=(1,))), "vertex 0:0 targets (1,), not a (layer, index) pair"),
    "target of floats": (
        two_layers(Vertex(succ=(1.0, 0))), "vertex 0:0 targets (1.0, 0), not a (layer, index) pair",
    ),
    "edge out of the last layer": (
        ExtensiveFormDescription(((Vertex(succ=(1, 0)),),)), "vertex 0:0 leaves the final layer",
    ),
    "edge over a layer": (
        ExtensiveFormDescription(((Vertex(succ=(2, 0)),), (SINK,), (SINK,))),
        "vertex 0:0 goes from layer 0 to layer 2, not to layer 1",
    ),
    "edge to a missing vertex": (two_layers(Vertex(succ=(1, 3))), "vertex 0:0 targets missing vertex 1:3"),
    "table and successor": (
        two_layers(ask(succ=(1, 0))), "vertex 0:0 has both a transition table and an unconditional successor",
    ),
    "sink without a label": (ExtensiveFormDescription(((Vertex(),),)), "vertex 0:0 is a sink without a label"),
    "sink with a query": (
        ExtensiveFormDescription(((Vertex(player=0, label="x"),),)), "vertex 0:0 is a sink but declares a query",
    ),
    "forward with a player": (
        two_layers(Vertex(player=0, succ=(1, 0))),
        "vertex 0:0 forwards unconditionally and needs no player or query",
    ),
    "table without a query": (
        two_layers(Vertex(table={0: (1, 0)})), "vertex 0:0 has a transition table but no player or query",
    ),
    "negative player": (two_layers(ask(player=-1)), "vertex 0:0 queries invalid player -1"),
    "unknown query kind": (
        two_layers(ask(query=Query("guess", (0,)))), "vertex 0:0 has unknown query kind 'guess'",
    ),
    "rank query without a position": (
        two_layers(ask(query=Query("rank", (0,)))),
        "vertex 0:0 rank query needs a nonnegative list position, got None",
    ),
    "negative rank position": (
        two_layers(ask(query=Query("rank", (0,), -1))),
        "vertex 0:0 rank query needs a nonnegative list position, got -1",
    ),
    "full-type query over the cap": (
        two_layers(ask(query=Query("full-type", range(10_001)), table=dict.fromkeys(range(10_001), (1, 0)))),
        "vertex 0:0 full-type query has 10001 answers, over the cap of 10000",
    ),
    "answer missing from the table": (
        two_layers(ask(query=Query("scalar-value", (0, 1)))), "vertex 0:0 table is missing answers [1]",
    ),
    "answer outside the domain": (
        two_layers(ask(table={0: (1, 0), 1: (1, 0)})), "vertex 0:0 table has answers outside its domain [1]",
    ),
    "answer edge to a missing vertex": (
        two_layers(ask(table={0: (1, 2)})), "vertex 0:0 answer 0 targets missing vertex 1:2",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_each_malformed_description_reports_its_one_problem(case):
    d, text = MALFORMED[case]
    with pytest.raises(DescriptionError) as err:
        validate_description(d)
    assert type(err.value) is DescriptionError
    assert err.value.diagnostics == (text,)


@pytest.mark.parametrize("kind", [5, None], ids=repr)
def test_a_rank_query_on_a_type_that_is_not_a_sequence_names_the_vertex_and_the_type(kind):
    d = two_layers(ask(query=Query("rank", (0,), 0)))
    validate_description(d)
    with pytest.raises(DescriptionError) as err:
        evaluate(d, (kind,))
    assert type(err.value) is DescriptionError
    assert str(err.value) == f"vertex 0:0 asks for list position 0 but player 0's type {kind!r} is not a sequence"


def test_every_problem_of_a_description_is_reported_at_once():
    d = ExtensiveFormDescription(((ask(player=-1, table={0: (2, 0)}),), (SINK, Vertex())))
    with pytest.raises(DescriptionError) as err:
        validate_description(d)
    assert str(err.value).splitlines() == [
        "vertex 0:0 queries invalid player -1",
        "vertex 0:0 answer 0 goes from layer 0 to layer 2, not to layer 1",
        "vertex 1:1 is a sink without a label",
    ]


NOBODY = MechanismView(i_outcome=lambda types: "done", menu=lambda types: "menu")


@pytest.mark.parametrize(
    ("d", "text"),
    [
        (ExtensiveFormDescription(((SINK,),)), "clause (b): a menu description needs a menu layer before its sinks"),
        (two_layers(ask(player=1, label="menu")), "clause (b): menu-layer vertex 0:0 does not query player 0"),
        (two_layers(Vertex(succ=(1, 0), label="menu")), "clause (b): menu-layer vertex 0:0 does not query player 0"),
    ],
)
def test_a_description_without_a_menu_layer_on_player_i_fails_clause_b_with_no_witness(d, text):
    with pytest.raises(MenuDescriptionError) as err:
        check_menu_description(d, NOBODY, 0, [(0, 0)])
    assert (err.value.clause, err.value.witness, str(err.value)) == ("b", None, text)


def test_a_source_that_is_not_a_sequence_is_reported_not_raised_at_construction():
    d = ExtensiveFormDescription(((SINK,),), source=5)
    with pytest.raises(DescriptionError) as err:
        validate_description(d)
    assert err.value.diagnostics == ("source 5 is not a (layer, index) pair",)
