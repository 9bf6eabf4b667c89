"""Layered extensive-form descriptions: validation, evaluation, memory, menus."""

import itertools
import math

import pytest

from mdm.descriptions import (
    END_OF_LIST,
    LOSE,
    DescriptionError,
    ExtensiveFormDescription,
    MechanismView,
    MenuDescriptionError,
    Query,
    Vertex,
    build_spa_menu_description,
    check_menu_description,
    count_induced_functions,
    evaluate,
    export_dot,
    memory_requirement,
    validate_description,
    win_label,
)


def leaf_only() -> ExtensiveFormDescription:
    return ExtensiveFormDescription(((Vertex(label="done"),),))


def two_layer() -> ExtensiveFormDescription:
    q = Query("scalar-value", (0, 1))
    return ExtensiveFormDescription(
        (
            (Vertex(player=0, query=q, table={0: (1, 0), 1: (1, 1)}),),
            (Vertex(label="low"), Vertex(label="high")),
        )
    )


def test_single_sink_description():
    d = leaf_only()
    validate_description(d)
    assert evaluate(d, (7,)) == "done"


def test_decision_vertex_routes_by_answer():
    d = two_layer()
    validate_description(d)
    assert evaluate(d, (0,)) == "low"
    assert evaluate(d, (1,)) == "high"


def test_forward_vertex_passes_through():
    d = ExtensiveFormDescription(
        (
            (Vertex(succ=(1, 0)),),
            (Vertex(label="end"),),
        )
    )
    validate_description(d)
    assert evaluate(d, ()) == "end"


def test_validation_rejects_layer_skipping_edge():
    d = ExtensiveFormDescription(
        (
            (Vertex(succ=(2, 0)),),
            (Vertex(succ=(2, 0)),),
            (Vertex(label="end"),),
        )
    )
    with pytest.raises(DescriptionError, match="layer"):
        validate_description(d)


def test_validation_rejects_incomplete_table():
    q = Query("scalar-value", (0, 1, 2))
    d = ExtensiveFormDescription(
        (
            (Vertex(player=0, query=q, table={0: (1, 0), 1: (1, 0)}),),
            (Vertex(label="end"),),
        )
    )
    with pytest.raises(DescriptionError, match="answer"):
        validate_description(d)


def test_validation_rejects_unlabeled_sink():
    d = ExtensiveFormDescription(((Vertex(),),))
    with pytest.raises(DescriptionError):
        validate_description(d)


def test_validation_rejects_extra_vertex_in_source_layer():
    d = ExtensiveFormDescription(
        (
            (Vertex(succ=(1, 0)), Vertex(succ=(1, 0))),
            (Vertex(label="end"),),
        )
    )
    with pytest.raises(DescriptionError, match="source"):
        validate_description(d)


def test_validation_allows_unreachable_later_vertices():
    d = ExtensiveFormDescription(
        (
            (Vertex(succ=(1, 0)),),
            (Vertex(label="end"), Vertex(label="never")),
        )
    )
    validate_description(d)
    assert memory_requirement(d).max_layer_width == 2


def test_validation_collects_every_diagnostic():
    d = ExtensiveFormDescription(
        (
            (Vertex(succ=(1, 5)),),
            (Vertex(), Vertex(label="x", succ=(2, 0))),
        )
    )
    with pytest.raises(DescriptionError) as err:
        validate_description(d)
    assert len(err.value.diagnostics) >= 3


def test_rank_query_reads_one_position():
    q = Query("rank", (0, 1, END_OF_LIST), arg=0)
    d = ExtensiveFormDescription(
        (
            (Vertex(player=0, query=q, table={0: (1, 0), 1: (1, 1), END_OF_LIST: (1, 2)}),),
            (Vertex(label="a"), Vertex(label="b"), Vertex(label="empty")),
        )
    )
    validate_description(d)
    assert evaluate(d, ((1, 0), ())) == "b"
    assert evaluate(d, ((), (0,))) == "empty"


def test_memory_report_bits():
    r = memory_requirement(build_spa_menu_description(3, 3))
    assert r.max_layer_width == 5
    assert r.max_internal_width == 4
    assert r.bits == pytest.approx(math.log2(5))
    assert r.internal_bits == pytest.approx(2.0)


def test_memory_report_trivial_widths():
    r = memory_requirement(leaf_only())
    assert r.max_layer_width == 1
    assert r.bits == 0.0
    assert r.internal_bits == 0.0


def _spa_view(n: int, K: int) -> MechanismView:
    def i_outcome(t: tuple) -> str:
        p = max(t[:-1])
        return win_label(p) if t[-1] > p else LOSE

    def menu(t: tuple) -> frozenset:
        return frozenset({LOSE, win_label(max(t[:-1]))})

    return MechanismView(i_outcome, menu)


@pytest.mark.parametrize("n,K", [(2, 0), (2, 1), (3, 2), (4, 1)])
def test_spa_builder_passes_menu_check(n, K):
    d = build_spa_menu_description(n, K)
    domain = list(itertools.product(range(K + 1), repeat=n))
    check_menu_description(d, _spa_view(n, K), n - 1, domain)


def test_spa_builder_layer_shape():
    d = build_spa_menu_description(2, 1)
    assert [len(layer) for layer in d.layers] == [1, 2, 3]


def test_spa_builder_evaluation():
    d = build_spa_menu_description(3, 3)
    assert evaluate(d, (0, 3, 2)) == LOSE
    assert evaluate(d, (0, 2, 3)) == win_label(2)
    assert evaluate(d, (1, 0, 0)) == LOSE


def test_menu_check_flags_wrong_menu_label():
    d = build_spa_menu_description(2, 1)
    layers = [list(layer) for layer in d.layers]
    menu_layer = len(layers) - 2
    v = layers[menu_layer][0]
    layers[menu_layer][0] = Vertex(
        player=v.player, query=v.query, table=v.table, label=frozenset({LOSE})
    )
    bad = ExtensiveFormDescription(tuple(tuple(layer) for layer in layers))
    domain = list(itertools.product(range(2), repeat=2))
    with pytest.raises(MenuDescriptionError) as err:
        check_menu_description(bad, _spa_view(2, 1), 1, domain)
    assert err.value.clause == "b"


def test_menu_check_flags_wrong_sink():
    d = build_spa_menu_description(2, 1)
    layers = [list(layer) for layer in d.layers]
    sinks = layers[-1]
    # swap the labels of the first two sinks
    sinks[0], sinks[1] = Vertex(label=sinks[1].label), Vertex(label=sinks[0].label)
    bad = ExtensiveFormDescription(tuple(tuple(layer) for layer in layers))
    domain = list(itertools.product(range(2), repeat=2))
    with pytest.raises(MenuDescriptionError) as err:
        check_menu_description(bad, _spa_view(2, 1), 1, domain)
    assert err.value.clause in ("b", "c")


def test_menu_check_flags_early_query_of_the_player():
    q = Query("scalar-value", (0, 1))
    d = ExtensiveFormDescription(
        (
            (Vertex(player=1, query=q, table={0: (1, 0), 1: (1, 0)}),),
            (
                Vertex(
                    player=1,
                    query=q,
                    table={0: (2, 0), 1: (2, 0)},
                    label=frozenset({LOSE}),
                ),
            ),
            (Vertex(label=LOSE),),
        )
    )
    validate_description(d)
    view = MechanismView(lambda t: LOSE, lambda t: frozenset({LOSE}))
    domain = list(itertools.product(range(2), repeat=2))
    with pytest.raises(MenuDescriptionError) as err:
        check_menu_description(d, view, 1, domain)
    assert err.value.clause == "a"


def test_export_dot_renders_labels_and_sinks():
    dot = export_dot(build_spa_menu_description(2, 1))
    assert dot.startswith("digraph")
    assert "shape=box" in dot
    assert "win for $1" in dot


def test_export_dot_draws_a_forward_as_a_pass_with_one_edge():
    d = ExtensiveFormDescription(((Vertex(succ=(1, 0)),), (Vertex(label="end"),)))
    assert export_dot(d).splitlines() == [
        "digraph description {",
        "  rankdir=LR;",
        '  "0:0" [label="0:0:pass"];',
        '  "1:0" [shape=box, label="end"];',
        '  "0:0" -> "1:0";',
        "}",
    ]


def test_count_induced_functions_small():
    assert count_induced_functions(4) == 2


def test_count_induced_functions_rejects_other_sizes():
    with pytest.raises(ValueError):
        count_induced_functions(12)
