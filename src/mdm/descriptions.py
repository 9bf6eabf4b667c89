"""Layered decision graphs that describe how a mechanism is computed.

A description is a DAG whose vertices are organized into layers, with every
edge going from one layer to the next. Evaluation starts at the single
source; each vertex either forwards to a fixed successor or queries one
player and follows the table entry for her answer. Sinks carry labels, and
the label reached on a full type profile is the result. The width of the
widest layer measures how much state the evaluator needs between queries,
since all it must remember is which vertex of the current layer it stands on.

A menu description for player i is a description whose second-to-last layer
is the first to query i. Every vertex there is labeled with i's menu, the
set of outcomes her report can still reach, and the sinks carry her final
outcome. ``check_menu_description`` verifies that shape against the
mechanism itself by exhaustive enumeration. Once no vertex above the menu
layer queries i, the menu-layer vertex a profile reaches depends only on the
other players' types, so the check walks there once per distinct profile of
the others and takes a single step from it for each of i's types.

The module also ships a worked example, the bidder-by-bidder running-maximum
description of a second-price auction, and a state-counting experiment that
measures how many distinct menu-layer states a family of matching markets
forces any such description to distinguish.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from mdm.market import _is_count

QUERY_KINDS = ("full-type", "rank", "scalar-value")

END_OF_LIST = "end-of-list"

_FULL_TYPE_CAP = 10_000

VertexId = tuple[int, int]


class DescriptionError(ValueError):
    """A description is malformed, or evaluation left its answer domains."""

    def __init__(self, diagnostics: Sequence[str] | str):
        if isinstance(diagnostics, str):
            diagnostics = (diagnostics,)
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(self.diagnostics))


class MenuDescriptionError(DescriptionError):
    """A description fails one of the three menu-description clauses.

    ``clause`` is "a" (some player other than i must answer first), "b" (the
    menu layer must query i and show her true menu), or "c" (sinks must show
    i's true outcome). ``witness`` is a type profile exhibiting the failure
    when one exists; structural failures carry no witness.
    """

    def __init__(self, clause: str, message: str, witness: tuple | None = None):
        self.clause = clause
        self.witness = witness
        if witness is not None:
            message = f"clause ({clause}) on profile {witness!r}: {message}"
        else:
            message = f"clause ({clause}): {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Query:
    """What a vertex asks a player.

    ``kind`` is "full-type" (answer is the whole type), "scalar-value"
    (answer is the type, which is a single number), or "rank" (answer is
    entry ``arg`` of the type, read as a preference list, or END_OF_LIST
    when the list is shorter). ``answers`` is the explicit answer domain the
    vertex's transition table must cover.
    """

    kind: str
    answers: tuple
    arg: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", tuple(self.answers))


@dataclass(frozen=True)
class Vertex:
    """One node of a description.

    Exactly one shape per vertex: a sink (only ``label``), an unconditional
    forward (only ``succ``), or a decision (``player``, ``query`` and
    ``table`` mapping each answer to a vertex id in the next layer).
    Menu-layer vertices are decisions that additionally carry a ``label``.
    Tables are stored as plain dicts and must not be mutated after building.
    """

    player: int | None = None
    query: Query | None = None
    table: Mapping[Hashable, VertexId] | None = None
    succ: VertexId | None = None
    label: Hashable = None


@dataclass(frozen=True)
class ExtensiveFormDescription:
    """A layered decision graph with a single source in its first layer."""

    layers: tuple[tuple[Vertex, ...], ...]
    source: VertexId = (0, 0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))
        if isinstance(self.source, (list, tuple)):  # any other source stays as given, for validate_description
            object.__setattr__(self, "source", tuple(self.source))

    def vertex(self, vid: VertexId) -> Vertex:
        return self.layers[vid[0]][vid[1]]


@dataclass(frozen=True)
class MemoryReport:
    """Layer-width statistics of a description.

    ``max_layer_width`` counts every vertex, sinks and unreachable vertices
    included; that is the contract metric, and ``bits`` is its logarithm.
    ``max_internal_width`` counts only querying and forwarding vertices and
    is reported as a diagnostic for readers interested in the live state
    between queries.
    """

    max_layer_width: int
    max_internal_width: int

    @property
    def bits(self) -> float:
        return math.log2(self.max_layer_width)

    @property
    def internal_bits(self) -> float:
        if self.max_internal_width <= 1:
            return 0.0
        return math.log2(self.max_internal_width)


@dataclass(frozen=True)
class MechanismView:
    """A mechanism as one player sees it, for conformance checking.

    ``i_outcome`` maps a full type profile to the player's outcome label and
    ``menu`` maps it to her menu label; the menu must not depend on the
    player's own type.
    """

    i_outcome: Callable[[tuple], Hashable]
    menu: Callable[[tuple], Hashable]


def _is_vertex_id(x: object) -> bool:
    return isinstance(x, tuple) and len(x) == 2 and all(type(v) is int for v in x)


def _check_edge(d: ExtensiveFormDescription, layer: int, where: str, target) -> list[str]:
    if not _is_vertex_id(target):
        return [f"{where} targets {target!r}, not a (layer, index) pair"]
    if layer + 1 >= len(d.layers):
        return [f"{where} leaves the final layer"]
    tl, ti = target
    if tl != layer + 1:
        return [f"{where} goes from layer {layer} to layer {tl}, not to layer {layer + 1}"]
    if not 0 <= ti < len(d.layers[tl]):
        return [f"{where} targets missing vertex {tl}:{ti}"]
    return []


def _check_vertex(d: ExtensiveFormDescription, layer: int, idx: int, v: Vertex) -> list[str]:
    where = f"vertex {layer}:{idx}"
    out: list[str] = []
    if v.table is not None and v.succ is not None:
        return [f"{where} has both a transition table and an unconditional successor"]
    if v.table is None and v.succ is None:
        if v.label is None:
            out.append(f"{where} is a sink without a label")
        if v.player is not None or v.query is not None:
            out.append(f"{where} is a sink but declares a query")
        return out
    if v.succ is not None:
        if v.player is not None or v.query is not None:
            out.append(f"{where} forwards unconditionally and needs no player or query")
        out.extend(_check_edge(d, layer, where, v.succ))
        return out
    if v.player is None or v.query is None:
        return [f"{where} has a transition table but no player or query"]
    if not _is_count(v.player):
        out.append(f"{where} queries invalid player {v.player!r}")
    q = v.query
    if q.kind not in QUERY_KINDS:
        out.append(f"{where} has unknown query kind {q.kind!r}")
    if q.kind == "rank" and not _is_count(q.arg):
        out.append(f"{where} rank query needs a nonnegative list position, got {q.arg!r}")
    if q.kind == "full-type" and len(q.answers) > _FULL_TYPE_CAP:
        out.append(
            f"{where} full-type query has {len(q.answers)} answers, over the cap of {_FULL_TYPE_CAP}"
        )
    domain = set(q.answers)
    missing = [a for a in q.answers if a not in v.table]
    extra = [a for a in v.table if a not in domain]
    if missing:
        out.append(f"{where} table is missing answers {missing!r}")
    if extra:
        out.append(f"{where} table has answers outside its domain {extra!r}")
    for ans in v.table:
        out.extend(_check_edge(d, layer, f"{where} answer {ans!r}", v.table[ans]))
    return out


def validate_description(d: ExtensiveFormDescription) -> None:
    """Check the layering invariants, reporting every violation at once.

    The first layer must hold exactly the source; since edges never point
    backwards, any further vertex there would be a second entry point.
    Later layers may contain vertices no profile reaches (they still count
    towards the width metric), but every edge must go to the next layer and
    every transition table must cover exactly its declared answer domain.
    """
    if not d.layers:
        raise DescriptionError("description has no layers")
    problems: list[str] = []
    for li, layer in enumerate(d.layers):
        if not layer:
            problems.append(f"layer {li} is empty")
    if len(d.layers[0]) != 1:
        problems.append("the first layer must contain exactly the source vertex")
    if not _is_vertex_id(d.source):
        problems.append(f"source {d.source!r} is not a (layer, index) pair")
    elif d.source[0] != 0 or not 0 <= d.source[1] < len(d.layers[0]):
        problems.append(f"source {d.source!r} is not a vertex of layer 0")
    for li, layer in enumerate(d.layers):
        for idx, v in enumerate(layer):
            problems.extend(_check_vertex(d, li, idx, v))
    if problems:
        raise DescriptionError(problems)


def _step(v: Vertex, types, vid: VertexId) -> VertexId:
    """The table entry that decision vertex ``v`` at ``vid`` picks for its player's answer."""
    try:
        ans = types[v.player]
    except (IndexError, KeyError):
        raise DescriptionError(
            f"vertex {vid[0]}:{vid[1]} queries player {v.player} but the profile has no such type"
        ) from None
    if v.query.kind == "rank":
        try:
            seq = tuple(ans)
        except TypeError:
            raise DescriptionError(
                f"vertex {vid[0]}:{vid[1]} asks for list position {v.query.arg} "
                f"but player {v.player}'s type {ans!r} is not a sequence"
            ) from None
        ans = seq[v.query.arg] if v.query.arg < len(seq) else END_OF_LIST
    if ans not in v.table:
        raise DescriptionError(f"vertex {vid[0]}:{vid[1]} got answer {ans!r} outside its table")
    return v.table[ans]


def _walk_to(d: ExtensiveFormDescription, types, vid: VertexId, layer: int) -> tuple[VertexId, Vertex]:
    """The first vertex on ``layer`` along the evaluation path from ``vid``, or the sink that ends it sooner."""
    while True:
        v = d.vertex(vid)
        if vid[0] == layer or (v.succ is None and v.table is None):
            return vid, v
        vid = v.succ if v.succ is not None else _step(v, types, vid)


def evaluate(d: ExtensiveFormDescription, types) -> Hashable:
    """Follow the evaluation path on a full type profile; return the sink label."""
    return _walk_to(d, types, d.source, len(d.layers))[1].label


def memory_requirement(d: ExtensiveFormDescription) -> MemoryReport:
    """Width statistics; ``bits`` is the storage the evaluator needs per layer."""
    internal = [
        sum(1 for v in layer if v.table is not None or v.succ is not None)
        for layer in d.layers
    ]
    return MemoryReport(
        max_layer_width=max(len(layer) for layer in d.layers),
        max_internal_width=max(internal),
    )


def check_menu_description(
    d: ExtensiveFormDescription,
    mech: MechanismView,
    i: int,
    domain: Iterable[tuple],
) -> None:
    """Verify that ``d`` is a menu description of ``mech`` for player ``i``.

    Checks, in order: (a) no vertex before the menu layer (the second-to-
    last one) queries i; (b) every menu-layer vertex queries i, and on each
    profile in ``domain`` the visited vertex's label equals the mechanism's
    menu; (c) the sink reached shows i's outcome. Raises
    MenuDescriptionError for the first violated clause, with the offending
    profile as witness where one exists.

    Clause (a) is checked first, so no vertex above the menu layer queries
    i, and profiles that agree on every other player's type (including which
    players are missing) reach the same menu-layer vertex. Each walk that
    gets there is remembered under the profile with i's entry removed (unless
    a type is unhashable); from it, one step on i's answer leads to the sink.
    Both ``mech`` callbacks still run on every profile, in domain order.
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
    walks: dict[tuple, tuple[VertexId, Vertex]] = {}
    for types in domain:
        types = tuple(types)
        others = types[:i] + types[i + 1 :]
        try:
            hit = walks.get(others)
        except TypeError:  # an unhashable type: walk this profile and remember nothing
            hit = others = None
        if hit is None:
            hit = _walk_to(d, types, d.source, menu_layer)
            if hit[0][0] != menu_layer:
                raise MenuDescriptionError("b", "the evaluation path ends before the menu layer", witness=types)
            if others is not None:
                walks[others] = hit
        vid, v = hit
        sink_vid = _step(v, types, vid)
        sink = d.vertex(sink_vid)
        if sink.table is not None or sink.succ is not None:  # a final-layer query with an empty table
            sink_vid, sink = _walk_to(d, types, sink_vid, len(d.layers))
        expected_menu = mech.menu(types)
        if v.label != expected_menu:
            raise MenuDescriptionError(
                "b",
                f"vertex {vid[0]}:{vid[1]} shows menu {v.label!r} but the menu is {expected_menu!r}",
                witness=types,
            )
        expected = mech.i_outcome(types)
        if sink.label != expected:
            raise MenuDescriptionError(
                "c",
                f"sink {sink_vid[0]}:{sink_vid[1]} shows {sink.label!r} but the outcome is {expected!r}",
                witness=types,
            )


def win_label(price: int) -> str:
    """The outcome label for winning at a given price."""
    return f"win for ${price}"


LOSE = "lose"


def build_spa_menu_description(n: int, K: int) -> ExtensiveFormDescription:
    """The running-maximum menu description of a second-price auction.

    Bidders are queried in index order. Layers up to the menu layer track
    the highest bid seen so far among the first n-1 bidders, so each is at
    most K+1 wide. The menu layer queries the last bidder and is labeled
    with her menu: she may lose for free or win at the running maximum p.
    She wins only by strictly outbidding p (price ties go to the earlier
    bidder), so the "win for $K" sink is unreachable; it is still present,
    keeping one sink per conceivable outcome, and the sink layer's width of
    K+2 dominates the memory metric regardless of n.
    """
    if not _is_count(n, 2):
        raise ValueError(f"an auction needs at least two bidders, got {n!r}")
    if not _is_count(K):
        raise ValueError(f"the bid bound must be a nonnegative integer, got {K!r}")
    bids = tuple(range(K + 1))
    query = Query("scalar-value", answers=bids)
    layers: list[tuple[Vertex, ...]] = [
        (Vertex(player=0, query=query, table={b: (1, b) for b in bids}),)
    ]
    for j in range(1, n - 1):
        layers.append(
            tuple(
                Vertex(player=j, query=query, table={b: (j + 1, max(p, b)) for b in bids})
                for p in bids
            )
        )
    lose_sink = K + 1
    layers.append(
        tuple(
            Vertex(
                player=n - 1,
                query=query,
                table={b: (n, p if b > p else lose_sink) for b in bids},
                label=frozenset({LOSE, win_label(p)}),
            )
            for p in bids
        )
    )
    layers.append(tuple(Vertex(label=win_label(p)) for p in bids) + (Vertex(label=LOSE),))
    d = ExtensiveFormDescription(tuple(layers))
    validate_description(d)
    return d


def count_induced_functions(n: int) -> int:
    """Count the distinct report-to-matching maps a market family induces.

    The family fixes all priorities and all lists except the distinguished
    last applicant's, varying only which bottom-tier institutions each
    top-tier applicant weaves into her list. Every choice induces a map
    from the distinguished applicant's singleton reports to full stable
    matchings. The number of distinct maps is the number of states any
    description must be able to reach at the layer where it presents her
    menu, since states determine everything downstream. The count grows as
    two to the square of n/4, which is why only n of 4 and 8 are enumerable.
    """
    if not _is_count(n) or n not in (4, 8):
        raise ValueError(f"supported sizes are 4 and 8; larger families outgrow enumeration, got {n!r}")
    from mdm.generators import CycleGridParams, gen_cycle_grid
    from mdm.mechanisms import apda

    k = n // 4
    bottom = range(k, n // 2)
    subsets = [
        tuple(c) for r in range(len(bottom) + 1) for c in itertools.combinations(bottom, r)
    ]
    maps = set()
    for collection in itertools.product(subsets, repeat=k):
        params = CycleGridParams(n=n, subsets=collection, truncate=(False,) * k)
        p = gen_cycle_grid(params)
        star = p.n_applicants - 1
        key = tuple(apda(p.with_prefs(star, (h,))) for h in range(p.n_institutions))
        maps.add(key)
    return len(maps)


def _label_text(label) -> str:
    if isinstance(label, (set, frozenset)):
        return "{" + ", ".join(sorted(str(x) for x in label)) + "}"
    return str(label)


def _query_text(v: Vertex) -> str:
    if v.succ is not None:
        return "pass"
    q = v.query
    kind = q.kind if q.arg is None else f"{q.kind}({q.arg})"
    return f"{kind} player {v.player}"


def _quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def export_dot(d: ExtensiveFormDescription) -> str:
    """Render the description as a GraphViz digraph for inspection."""
    lines = ["digraph description {", "  rankdir=LR;"]
    for li, layer in enumerate(d.layers):
        for idx, v in enumerate(layer):
            name = f'"{li}:{idx}"'
            if v.table is None and v.succ is None:
                lines.append(f"  {name} [shape=box, label={_quote(_label_text(v.label))}];")
            else:
                text = f"{li}:{idx}:{_query_text(v)}"
                if v.label is not None:
                    text += "\\n" + _label_text(v.label)
                lines.append(f"  {name} [label={_quote(text)}];")
    for li, layer in enumerate(d.layers):
        for idx, v in enumerate(layer):
            if v.succ is not None:
                lines.append(f'  "{li}:{idx}" -> "{v.succ[0]}:{v.succ[1]}";')
            elif v.table is not None:
                grouped: dict[VertexId, list] = {}
                for ans, target in v.table.items():
                    grouped.setdefault(target, []).append(ans)
                for target in sorted(grouped):
                    answers = ",".join(str(a) for a in sorted(grouped[target], key=str))
                    lines.append(
                        f'  "{li}:{idx}" -> "{target[0]}:{target[1]}" [label={_quote(answers)}];'
                    )
    lines.append("}")
    return "\n".join(lines)
