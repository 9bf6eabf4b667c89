"""check_menu_description against the full-walk reference, on mutated and adversarial inputs.

The checker walks to the menu layer once per profile of the other players.
Every outcome here (None, or the exception type, clause, witness and message)
and every callback sequence must equal the reference's, which walks every
profile from the source.
"""

import dataclasses
import itertools
import random
import re

import pytest

import mdm.descriptions as descriptions
from mdm.descriptions import (
    END_OF_LIST,
    LOSE,
    DescriptionError,
    ExtensiveFormDescription,
    MechanismView,
    Query,
    Vertex,
    build_spa_menu_description,
    check_menu_description,
    evaluate,
    win_label,
)
from oracles import _walk, check_menu_description_reference


def spa_view(n: int, perm=None) -> MechanismView:
    """The SPA last bidder's view; with ``perm``, bidder b's type sits at position perm[b]."""
    perm = perm or list(range(n))

    def bids(t):
        return [t[perm[b]] for b in range(n)]

    def outcome(t):
        b = bids(t)
        return win_label(max(b[:-1])) if b[-1] > max(b[:-1]) else LOSE

    def menu(t):
        return frozenset({LOSE, win_label(max(bids(t)[:-1]))})

    return MechanismView(outcome, menu)


def run(check, d, mech, i, domain):
    """(None or (type, clause, witness, message), the callback log) of one check."""
    log = []

    def menu(t):
        log.append(("menu", t))
        return mech.menu(t)

    def outcome(t):
        log.append(("outcome", t))
        return mech.i_outcome(t)

    try:
        check(d, MechanismView(outcome, menu), i, domain)
    except Exception as exc:
        return (type(exc), getattr(exc, "clause", None), getattr(exc, "witness", None), str(exc)), log
    return None, log


def same(d, mech, i, domain):
    domain = list(domain)
    got = run(check_menu_description, d, mech, i, domain)
    assert got == run(check_menu_description_reference, d, mech, i, domain)
    return got[0]


def replace_vertex(d, vid, v) -> ExtensiveFormDescription:
    layers = [list(layer) for layer in d.layers]
    layers[vid[0]][vid[1]] = v
    return ExtensiveFormDescription(layers)


def decisions(d, below: int):
    return [(li, idx) for li in range(below) for idx, v in enumerate(d.layers[li]) if v.table]


def retarget(d, rng):
    li, idx = rng.choice(decisions(d, len(d.layers) - 1))
    v = d.layers[li][idx]
    table = dict(v.table)
    table[rng.choice(list(table))] = (li + 1, rng.randrange(len(d.layers[li + 1])))
    return replace_vertex(d, (li, idx), dataclasses.replace(v, table=table))


def wrong_menu_label(d, rng):
    menu_layer = len(d.layers) - 2
    idx = rng.randrange(len(d.layers[menu_layer]))
    other = d.layers[menu_layer][rng.randrange(len(d.layers[menu_layer]))].label
    label = rng.choice([other, frozenset({LOSE}), frozenset({LOSE, win_label(99)})])
    return replace_vertex(d, (menu_layer, idx), dataclasses.replace(d.layers[menu_layer][idx], label=label))


def swap_sinks(d, rng):
    layers = [list(layer) for layer in d.layers]
    a, b = rng.sample(range(len(layers[-1])), 2)
    layers[-1][a], layers[-1][b] = layers[-1][b], layers[-1][a]
    return ExtensiveFormDescription(layers)


def sink_above_menu(d, rng):
    li = rng.randrange(len(d.layers) - 2)
    return replace_vertex(d, (li, rng.randrange(len(d.layers[li]))), Vertex(label=rng.choice([LOSE, win_label(0)])))


def truncate_answers(d, rng):
    li, idx = rng.choice(decisions(d, len(d.layers) - 1))
    v = d.layers[li][idx]
    keep = v.query.answers[: rng.randrange(len(v.query.answers))]
    query = dataclasses.replace(v.query, answers=keep)
    return replace_vertex(d, (li, idx), dataclasses.replace(v, query=query, table={a: v.table[a] for a in keep}))


MUTATIONS = (retarget, wrong_menu_label, swap_sinks, sink_above_menu, truncate_answers)


def spa_domain(n, K, rng):
    """The full product domain, sometimes shuffled, with short and out-of-range profiles mixed in."""
    domain = list(itertools.product(range(K + 1), repeat=n))
    if rng.random() < 0.5:
        rng.shuffle(domain)
    for _ in range(rng.randrange(3)):
        t = list(rng.choice(domain))
        if rng.random() < 0.5:
            t = t[: rng.randrange(n)]
        else:
            t[rng.randrange(n)] = rng.choice([K + 1, -1, "x"])
        domain.insert(rng.randrange(len(domain) + 1), tuple(t))
    return domain


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__)
def test_each_mutation_agrees_with_reference(mutation):
    rng = random.Random(mutation.__name__)
    kinds = set()
    for _ in range(40):
        n, K = rng.choice([(2, 2), (3, 2), (3, 3), (4, 2)])
        d = mutation(build_spa_menu_description(n, K), rng)
        result = same(d, spa_view(n), n - 1, itertools.product(range(K + 1), repeat=n))
        kinds.add(None if result is None else result[:2])
    assert kinds - {None}, f"{mutation.__name__} never broke a description"


def test_fuzz_agrees_with_reference():
    rng = random.Random(6)
    kinds = set()
    for _ in range(300):
        n, K = rng.choice([(2, 2), (3, 2), (3, 3), (4, 2)])
        d = build_spa_menu_description(n, K)
        for _ in range(rng.randrange(3)):
            d = rng.choice(MUTATIONS)(d, rng)
        result = same(d, spa_view(n), n - 1, spa_domain(n, K, rng))
        kinds.add(None if result is None else result[:2])
    assert {None, (DescriptionError, None), (descriptions.MenuDescriptionError, "b")} <= kinds
    assert (descriptions.MenuDescriptionError, "c") in kinds


def test_structural_clauses_agree_with_reference():
    d = build_spa_menu_description(3, 2)
    asks_i_early = replace_vertex(d, (1, 0), dataclasses.replace(d.layers[1][0], player=2))
    unlabeled_menu = replace_vertex(d, (2, 1), dataclasses.replace(d.layers[2][1], label=None))
    empty_final_query = replace_vertex(d, (3, 0), Vertex(player=2, query=Query("scalar-value", ()), table={}))
    domain = list(itertools.product(range(3), repeat=3))
    assert same(asks_i_early, spa_view(3), 2, domain)[:2] == (descriptions.MenuDescriptionError, "a")
    assert same(unlabeled_menu, spa_view(3), 2, domain)[:2] == (descriptions.MenuDescriptionError, "b")
    assert same(empty_final_query, spa_view(3), 2, domain)[0] is DescriptionError


def permuted(d, perm) -> ExtensiveFormDescription:
    return ExtensiveFormDescription(
        [[v if v.player is None else dataclasses.replace(v, player=perm[v.player]) for v in layer] for layer in d.layers]
    )


def test_menu_player_first_agrees_with_reference():
    n, K = 4, 2
    perm = [1, 2, 3, 0]  # the SPA's last bidder answers as player 0
    d = permuted(build_spa_menu_description(n, K), perm)
    domain = list(itertools.product(range(K + 1), repeat=n))
    assert same(d, spa_view(n, perm), 0, domain) is None
    rng = random.Random(0)
    for _ in range(60):
        mutant = rng.choice(MUTATIONS)(d, rng)
        same(mutant, spa_view(n, perm), 0, spa_domain(n, K, rng))


def rank_description() -> ExtensiveFormDescription:
    """Player 1 gets her top item unless player 0 tops the same item; types are preference lists."""
    tops = (0, 1, 2, END_OF_LIST)
    at = {a: k for k, a in enumerate(tops)}
    query = Query("rank", tops, arg=0)
    sinks = (0, 1, 2, "none")
    return ExtensiveFormDescription(
        [
            [Vertex(player=0, query=query, table={a: (1, at[a]) for a in tops})],
            [
                Vertex(
                    player=1,
                    query=query,
                    table={a: (2, at[a] if a not in (p, END_OF_LIST) else 3) for a in tops},
                    label=frozenset({"none"} | {x for x in range(3) if x != p}),
                )
                for p in tops
            ],
            [Vertex(label=s) for s in sinks],
        ]
    )


def rank_view() -> MechanismView:
    def top(lst):
        return lst[0] if lst else END_OF_LIST

    def outcome(t):
        mine = top(t[1])
        return mine if mine not in (top(t[0]), END_OF_LIST) else "none"

    return MechanismView(outcome, lambda t: frozenset({"none"} | {x for x in range(3) if x != top(t[0])}))


@pytest.mark.parametrize("as_type", [list, tuple], ids=["lists", "tuples"])
def test_rank_query_types_agree_with_reference(as_type):
    lists = [as_type(p) for r in range(3) for p in itertools.permutations(range(3), r)]
    domain = list(itertools.product(lists, repeat=2))
    d = rank_description()
    assert same(d, rank_view(), 1, domain) is None
    rng = random.Random(as_type.__name__)
    for _ in range(40):
        same(rng.choice(MUTATIONS)(d, rng), rank_view(), 1, domain)


def test_callbacks_run_once_per_profile_in_domain_order():
    rng = random.Random(1)
    domain = list(itertools.product(range(4), repeat=3))
    rng.shuffle(domain)
    d = build_spa_menu_description(3, 3)
    result, log = run(check_menu_description, d, spa_view(3), 2, domain)
    assert result is None
    assert log == [(name, t) for t in domain for name in ("menu", "outcome")]
    broken = replace_vertex(d, (2, 1), dataclasses.replace(d.layers[2][1], label=frozenset({LOSE})))
    result, log = run(check_menu_description, broken, spa_view(3), 2, domain)
    stop = domain.index(result[2])
    assert log == [(name, t) for t in domain[:stop] for name in ("menu", "outcome")] + [("menu", domain[stop])]


def test_menu_layer_walk_runs_once_per_profile_of_the_others(monkeypatch):
    walks = []
    walk_to = descriptions._walk_to

    def counted(d, types, vid, layer):
        walks.append(types)
        return walk_to(d, types, vid, layer)

    monkeypatch.setattr(descriptions, "_walk_to", counted)
    n, K = 4, 3
    check_menu_description(build_spa_menu_description(n, K), spa_view(n), n - 1,
                           itertools.product(range(K + 1), repeat=n))
    assert len(walks) == (K + 1) ** (n - 1)


def test_evaluate_follows_the_reference_path():
    rng = random.Random(2)
    for _ in range(200):
        n, K = rng.choice([(2, 2), (3, 3), (4, 2)])
        d = rng.choice(MUTATIONS)(build_spa_menu_description(n, K), rng)
        t = tuple(rng.randrange(K + 1) for _ in range(n))
        try:
            want = _walk(d, t)[-1][1].label
        except DescriptionError as exc:
            with pytest.raises(DescriptionError, match=re.escape(str(exc))):
                evaluate(d, t)
        else:
            assert evaluate(d, t) == want
