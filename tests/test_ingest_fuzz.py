"""The JSON parsers reject every malformed input with InstanceError and nothing else."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mdm.auctions import parse_auction
from mdm.market import InstanceError, parse_instance
from mdm.voting import parse_votes

PARSERS = [parse_instance, parse_auction, parse_votes]

# Field names of all three formats, so generated documents reach past the top level.
KEYS = st.sampled_from(
    ["applicants", "institutions", "name", "prefs", "prios", "capacity", "K", "values", "C", "votes", "x"]
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False)
    | st.sampled_from(["a", "b", "x", "y", "a@1", ""])
    | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=16,
)


def only_instance_errors(parse, raw) -> None:
    try:
        parse(raw)
    except InstanceError:
        pass


@pytest.mark.parametrize("parse", PARSERS)
@settings(max_examples=40, deadline=None)
@given(doc=VALUES | st.dictionaries(KEYS, VALUES, max_size=4))
def test_any_json_value(parse, doc):
    only_instance_errors(parse, json.dumps(doc))


@pytest.mark.parametrize("parse", PARSERS)
@settings(max_examples=20, deadline=None)
@given(raw=st.text() | st.binary())
def test_any_text_or_bytes(parse, raw):
    only_instance_errors(parse, raw)


@pytest.mark.parametrize("parse", PARSERS)
@settings(max_examples=10, deadline=None)
@given(depth=st.integers(1, 200_000), field=KEYS, as_bytes=st.booleans())
def test_deep_nesting(parse, depth, field, as_bytes):
    raw = '{"%s": %s1%s}' % (field, "[" * depth, "]" * depth)
    only_instance_errors(parse, raw.encode() if as_bytes else raw)
