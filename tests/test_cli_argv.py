"""No argv drawn from the parser's own options ends in an internal error.

Each draw picks a subcommand and fills its options from the parser itself:
the declared choices, small integers, short strings, agent names from the
fixture files, and ``--out`` paths that include a directory and a missing
directory. Sizes stay small (``--n`` at most 6, ``--trials`` at most 4 and
always given, so neither a default-size run nor an exhaustive sweep starts),
which keeps each command to a few milliseconds.
"""

import argparse
import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mdm.cli import build_parser, main
from mdm.generators import fixture_budget_set
from mdm.market import Profile, serialize_instance

SHORT = st.text(alphabet="ad1h0,/-x. ", max_size=6)
NAMES = ["d1", "d2", "d4", "h1", "h3"]
WORDS = ["by-index", "fifo", "lifo", "seeded-random", "all-simultaneous", "0,1", "1,0", "01/10", "0/1"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    q = fixture_budget_set()
    files = {
        "market.json": serialize_instance(q),
        "capacity.json": serialize_instance(
            Profile(q.applicant_names, q.institution_names, q.applicant_prefs, q.institution_prios, (2, 1, 1, 1))
        ),
        "auction.json": '{"K": 6, "values": [[3, 1], [2, 4], [5, 0]]}\n',
        "spa.json": '{"K": 9, "values": [[3], [7], [5]]}\n',
        "votes.json": '{"C": 5, "votes": [2, 5, 3]}\n',
        "bad.json": '{"applicants": [{"name": "a", "prefs": ["zz", "zz"]}], "institutions": 3}\n',
    }
    for name, text in files.items():
        (root / name).write_text(text)
    # The market is drawn most, so that menu and describe often get past their input.
    inputs = [str(root / name) for name in files] + [str(root / "absent.json"), str(root)]
    inputs += [str(root / "market.json")] * 3
    outs = [str(root / "out" / "x.json"), str(root / "y"), str(root), str(root / "absent" / "z.json")]
    (root / "out").mkdir()
    return inputs, outs


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _value(action: argparse.Action, inputs: list[str], outs: list[str]) -> st.SearchStrategy[str]:
    if not action.option_strings:
        return st.sampled_from(inputs)
    if action.dest == "out":
        return st.sampled_from(outs)
    if action.dest == "applicant":
        return st.sampled_from(NAMES) | SHORT
    if action.dest == "trials":
        return st.integers(-1, 4).map(str) | SHORT
    choices = [c for c in action.choices or () if c != 8]  # states --n 8 exceeds the size bound
    if choices:
        return st.sampled_from([str(c) for c in choices])
    if action.type is int:
        return st.integers(-2, 6).map(str)
    if action.type is float:
        return st.sampled_from(["0", "0.5", "1", "-0.1", "1.5", "nan", "inf"])
    return st.sampled_from(NAMES + WORDS) | SHORT


@st.composite
def argvs(draw, inputs, outs):
    name, sub = draw(st.sampled_from(sorted(_subcommands().items())))
    argv = [name]
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings and not (action.required or action.dest == "trials" or draw(st.booleans())):
            continue
        value = draw(_value(action, inputs, outs))
        argv += [action.option_strings[0], value] if action.option_strings else [value]
    return argv


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_no_argv_ends_in_an_internal_error(paths, data):
    inputs, outs = paths
    argv = data.draw(argvs(inputs, outs), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"MDM_NO_PARALLEL": "1"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 1, 2), stderr
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
