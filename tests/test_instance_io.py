"""Instance files: the parser and the writer against their per-entry references, and the lazy caches."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mdm import market
from mdm.generators import gen_random_market
from mdm.market import InstanceError, Matching, Profile, _profile_problems, parse_instance, serialize_instance
from oracles import parse_instance_reference, serialize_instance_reference

SIDES = (("applicants", "prefs"), ("institutions", "prios"))
JUNK = st.sampled_from([None, True, False, 0, 3, -1, 1.5, "x", "", [], {}, ["a"], {"name": "a"}])


def outcome(parse, raw):
    try:
        return parse(raw)
    except InstanceError as err:
        return str(err)


def mutate(draw, doc: dict) -> None:
    """Apply one drawn fault to doc in place; a fault whose target is already gone does nothing."""
    kind = draw(st.sampled_from([
        "top field", "non-list side", "non-dict record", "unknown field", "missing name", "empty name",
        "reserved name", "non-string name", "duplicate name", "shared name", "unknown entry",
        "repeated entry", "non-string entry", "non-list entries", "missing entries", "capacity",
    ]))
    side, list_key = draw(st.sampled_from(SIDES))
    if kind == "top field":
        doc[draw(st.sampled_from(["x", "capacity", "prefs"]))] = draw(JUNK)
        return
    if kind == "non-list side":
        doc[side] = draw(JUNK.filter(lambda v: not isinstance(v, list)))
        return
    records = doc.get(side)
    if not isinstance(records, list) or not records:
        return
    k = draw(st.integers(0, len(records) - 1))
    if kind == "non-dict record":
        records[k] = draw(JUNK.filter(lambda v: not isinstance(v, dict)))
        return
    rec = records[k]
    if not isinstance(rec, dict):
        return
    ranked = rec.get(list_key)
    other_side = doc.get("institutions" if side == "applicants" else "applicants")
    others = [r.get("name") for r in other_side if isinstance(r, dict)] if isinstance(other_side, list) else []
    same = [r.get("name") for r in records if isinstance(r, dict)]
    if kind == "unknown field":
        rec[draw(st.sampled_from(["x", "capacity", "prefs", "prios"]))] = draw(JUNK)
    elif kind == "missing name":
        rec.pop("name", None)
    elif kind in ("empty name", "reserved name", "non-string name"):
        rec["name"] = {"empty name": "", "reserved name": "a@1", "non-string name": 7}[kind]
    elif kind == "duplicate name" and same:
        rec["name"] = draw(st.sampled_from(same))
    elif kind == "shared name" and others:
        rec["name"] = draw(st.sampled_from(others))
    elif kind == "missing entries":
        rec.pop(list_key, None)
    elif kind == "non-list entries":
        rec[list_key] = draw(JUNK.filter(lambda v: not isinstance(v, list)))
    elif kind == "capacity":
        rec["capacity"] = draw(st.sampled_from([0, -2, 1, 2, 1.0, 2.5, "2", None, True, False, [1]]))
    elif isinstance(ranked, list):
        at = draw(st.integers(0, len(ranked)))
        if kind == "unknown entry":
            ranked.insert(at, draw(st.sampled_from(["nobody", "a@1", ""] + same)))
        elif kind == "repeated entry" and ranked:
            ranked.insert(at, draw(st.sampled_from(ranked)))
        elif kind == "non-string entry":
            ranked.insert(at, draw(JUNK.filter(lambda v: not isinstance(v, str))))


@st.composite
def documents(draw):
    n = draw(st.integers(1, 6))
    p = gen_random_market(n, draw(st.integers(0, 2**16)), draw(st.sampled_from([0.0, 0.5])))
    if draw(st.booleans()):
        caps = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
        p = Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios, caps)
    doc = json.loads(serialize_instance_reference(p))
    for _ in range(draw(st.integers(0, 3))):
        mutate(draw, doc)
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(raw=documents())
def test_parser_matches_reference(raw):
    got = outcome(parse_instance, raw)
    assert got == outcome(parse_instance_reference, raw)
    if isinstance(got, Profile):
        assert got._checked and _profile_problems(got) == []


# Quotes, backslashes, spaces, control characters, non-ASCII and non-BMP code points.
NAME_CHARS = st.sampled_from(
    ["a", "b", " ", '"', "\\", "/", "\t", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\uffff", "\U00010000", "\U0001F600"]
)
NAMES = st.text(NAME_CHARS, min_size=1, max_size=4)


@st.composite
def awkward_profiles(draw):
    names = draw(st.lists(NAMES, min_size=2, max_size=9, unique=True))
    cut = draw(st.integers(1, len(names) - 1))
    names_d, names_h = sorted(names[:cut]), sorted(names[cut:])

    def lists(count, bound):
        return tuple(tuple(draw(st.permutations(range(bound)))[: draw(st.integers(0, bound))]) for _ in range(count))

    caps = tuple(draw(st.lists(st.integers(1, 4), min_size=len(names_h), max_size=len(names_h))))
    return Profile(names_d, names_h, lists(len(names_d), len(names_h)), lists(len(names_h), len(names_d)), caps)


@settings(max_examples=200, deadline=None)
@given(p=awkward_profiles())
def test_writer_matches_reference_bytes(p):
    text = serialize_instance(p)
    assert text == serialize_instance_reference(p)
    assert parse_instance(text) == p


@pytest.mark.parametrize("p", [
    Profile((), (), (), ()),
    Profile(("d",), (), ((),), ()),
    Profile(("d",), ("h",), ((0,),), ((0,),), (5,)),
    gen_random_market(40, 3, 0.3),
], ids=["empty", "no-institutions", "one-each", "random-40"])
def test_writer_edge_shapes(p):
    assert serialize_instance(p) == serialize_instance_reference(p)
    assert parse_instance(serialize_instance(p)) == p


CACHED = [(Profile, name) for name in ("applicant_rank", "institution_rank", "applicant_index", "institution_index")]
CACHED += [(Matching, name) for name in ("by_applicant", "by_institution")]


@pytest.mark.parametrize(("cls", "name"), CACHED)
def test_cached_attribute_computed_once_per_instance(cls, name, monkeypatch):
    desc = vars(cls)[name]
    assert cls.__dict__[name] is getattr(cls, name)  # class access returns the descriptor itself
    assert isinstance(desc, market.cached_property) and desc.__doc__ == desc.fn.__doc__
    calls = []
    monkeypatch.setattr(desc, "fn", lambda obj, fn=desc.fn: calls.append(obj) or fn(obj))
    p = gen_random_market(4, 1)
    instances = [p, p.with_prefs(0, ())] if cls is Profile else [Matching.of({0: 1, 2: 0}), Matching.of({})]
    for obj in instances:
        first = getattr(obj, name)
        assert getattr(obj, name) is first and vars(obj)[name] is first
    assert list(map(id, calls)) == list(map(id, instances))


def test_cached_attribute_keeps_its_docstring():
    assert Profile.applicant_rank.__doc__.startswith("Per applicant: institution index -> rank")
    assert Matching.by_institution.__doc__ == "Occupants per institution, sorted by applicant index."
