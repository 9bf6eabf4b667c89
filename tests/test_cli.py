"""Command-line behavior: payload shapes, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from mdm.cli import main
from mdm.generators import fixture_budget_set, fixture_nonlocal_outcome
from mdm.market import Profile, serialize_instance


@pytest.fixture()
def budget_path(tmp_path):
    path = tmp_path / "budget.json"
    path.write_text(serialize_instance(fixture_budget_set()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_apda_outputs_matching(budget_path, capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "apda", budget_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"] == "apda"
    assert doc["matched"]["d1"] == "h1"
    assert doc["unmatched"] == []


def test_solve_matches_pinned_fixture(tmp_path, capsys):
    q, _ = fixture_nonlocal_outcome()
    path = tmp_path / "q.json"
    path.write_text(serialize_instance(q))
    code, out, _ = run(capsys, "solve", "--mechanism", "apda", str(path))
    assert code == 0
    assert json.loads(out)["matched"] == {"d1": "h2", "d2": "h1"}


def test_solve_sd_respects_order(budget_path, capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "sd", "--order", "d4,d3,d2,d1", budget_path)
    assert code == 0
    assert json.loads(out)["matched"]["d4"] == "h4"


def test_solve_sd_with_an_applicant_twice_in_order_exits_2(budget_path, capsys):
    code, out, err = run(capsys, "solve", "--mechanism", "sd", "--order", "d1,d1,d2,d3", budget_path)
    assert (code, out) == (2, "")
    assert "--order must list every applicant exactly once" in err


def test_solve_text_format(budget_path, capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "apda", "--format", "text", budget_path)
    assert code == 0
    assert "d1 -> h1" in out


def test_solve_auction(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text('{"K": 6, "values": [[3, 1], [2, 4], [5, 0]]}')
    code, out, _ = run(capsys, "solve", "--mechanism", "vcg-unit-demand", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["allocation"] == [[], [1], [0]]
    assert doc["prices"] == [0, 1, 3]


def test_solve_median(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text('{"C": 5, "votes": [2, 5, 3]}')
    code, out, _ = run(capsys, "solve", "--mechanism", "median", str(path))
    assert code == 0
    assert json.loads(out)["outcome"] == 3


def test_solve_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--mechanism", "apda", "/nonexistent.json")
    assert code == 2
    assert "error:" in err


def test_menu_engines_agree(budget_path, capsys):
    menus = {}
    for engine in ("da", "da-ap", "da-id", "oracle"):
        code, out, _ = run(capsys, "menu", "--engine", engine, "--applicant", "d1", budget_path)
        assert code == 0
        menus[engine] = json.loads(out)["menu"]
    assert all(m == ["h1", "h2"] for m in menus.values())


def test_menu_prints_ignored_list_notice(budget_path, capsys):
    _, _, err = run(capsys, "menu", "--engine", "da", "--applicant", "d1", budget_path)
    assert "ignored" in err


def test_menu_unknown_applicant_exits_2(budget_path, capsys):
    code, _, err = run(capsys, "menu", "--engine", "da", "--applicant", "nobody", budget_path)
    assert code == 2
    assert "unknown applicant" in err


def test_verify_reports_fields_and_exit_zero(capsys):
    code, out, err = run(capsys, "verify", "--suite", "rotations", "--trials", "40")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "rotations"
    assert doc["trials"] == 40
    assert doc["seed"] == 0
    assert doc["failures"] == []
    assert doc["ok"] is True
    assert doc["wall_time"] >= 0
    assert "rotations" in err


def test_verify_seed_is_echoed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "voting", "--seed", "9")
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_verify_serial_env_matches_parallel(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--suite", "stability", "--trials", "64")
    monkeypatch.setenv("MDM_NO_PARALLEL", "1")
    code2, out2, _ = run(capsys, "verify", "--suite", "stability", "--trials", "64")
    assert code == code2 == 0
    a, b = json.loads(out), json.loads(out2)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


def test_verify_exhaustive_only_for_strategyproofness(capsys):
    code, _, err = run(capsys, "verify", "--suite", "menus", "--trials", "exhaustive")
    assert code == 2
    assert "exhaustive" in err


def test_describe_text_lists_earned_admissions(budget_path, capsys):
    code, out, _ = run(capsys, "describe", "--applicant", "d1", budget_path)
    assert code == 0
    assert "earned admission at: h1, h2" in out
    assert "d2 -> h1" in out


def test_describe_is_byte_identical(budget_path, capsys):
    _, first, _ = run(capsys, "describe", "--applicant", "d2", budget_path)
    _, second, _ = run(capsys, "describe", "--applicant", "d2", budget_path)
    assert first == second


def test_describe_empty_menu_states_unmatched_only(tmp_path, capsys):
    from mdm.generators import fixture_empty_menu

    p = fixture_empty_menu()
    path = tmp_path / "e.json"
    path.write_text(serialize_instance(p))
    name = p.applicant_names[p.n_applicants - 1]
    code, out, _ = run(capsys, "describe", "--applicant", name, str(path))
    assert code == 0
    assert "remain unmatched" in out
    assert "earned admission at" not in out


def test_states_n4(capsys):
    code, out, _ = run(capsys, "states", "--n", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"family": "cycle-grid", "n": 4, "observed": 2, "predicted": 2, "ok": True}


def test_gen_writes_instance_and_sidecar(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    code, _, err = run(
        capsys, "gen", "--family", "random", "--n", "5", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    meta = json.loads((tmp_path / "m.meta.json").read_text())
    assert meta == {"family": "random", "n": 5, "seed": 3, "truncation_prob": 0.0}
    code, out, _ = run(capsys, "solve", "--mechanism", "apda", str(out_path))
    assert code == 0


def test_gen_stdout_envelope(capsys):
    code, out, _ = run(capsys, "gen", "--family", "bit-probe", "--bits", "10/01", "--probe", "0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["k"] == 2
    assert len(doc["instance"]["values"]) == 4


def test_gen_fixture_variants_differ(capsys):
    _, base, _ = run(capsys, "gen", "--family", "nonlocal-menu", "--variant", "base")
    _, alt, _ = run(capsys, "gen", "--family", "nonlocal-menu", "--variant", "alt")
    assert base != alt


def test_gen_requires_family_parameters(capsys):
    code, _, err = run(capsys, "gen", "--family", "random")
    assert code == 2
    assert "--n" in err


def test_solve_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "solve", "--mechanism", "apda", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_unexpected_exception_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a.json"
    path.write_text('{"K": 6, "values": [[3, 1], [2, 4]]}')

    def broken(v):
        raise RuntimeError("solver fell over\non two lines")

    monkeypatch.setattr("mdm.cli.vcg_unit_demand", broken)
    code, out, err = run(capsys, "solve", "--mechanism", "vcg-unit-demand", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal error (RuntimeError at test_cli.py:")
    assert err.endswith("): solver fell over on two lines\n") and err.count("\n") == 1


def test_solve_vcg_unit_demand_30_by_30(tmp_path, capsys):
    rng = random.Random(30)
    rows = [[rng.randint(0, 20) for _ in range(30)] for _ in range(30)]
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"K": 20, "values": rows}))
    code, out, _ = run(capsys, "solve", "--mechanism", "vcg-unit-demand", str(path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["allocation"]) == len(doc["prices"]) == 30
    held = [items[0] for items in doc["allocation"] if items]
    assert len(held) == len(set(held))


def test_cli_import_leaves_subcommand_modules_unloaded():
    # Market commands must not pay for the verify suites, descriptions,
    # generators or voting at start-up; each subcommand imports its own.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (
        "import mdm.cli, sys; "
        "print(' '.join(m for m in ('mdm.verify', 'mdm.descriptions', 'mdm.generators', 'mdm.voting', "
        "'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("mechanism", ["sd", "ttc", "apda", "ipda", "receiver-optimal"])
def test_cli_import_and_matching_solve_leave_menus_unloaded(mechanism, budget_path):
    # mdm.menus loads only with menu and describe, and a matching solve loads
    # nothing that import mdm.cli has not. Argv is parsed before the baseline
    # is taken, since argparse loads locale lazily whatever the command.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    argv = ["solve", "--mechanism", mechanism, budget_path]
    probe = (
        "import io, sys, mdm.cli; "
        f"menus = 'mdm.menus' in sys.modules; mdm.cli.build_parser().parse_args({argv!r}); before = set(sys.modules); "
        f"sys.stdout = io.StringIO(); code = mdm.cli.main({argv!r}); "
        "print(code, menus, sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stderr == "0 False []\n"


@pytest.mark.parametrize("suite", ["menus", "voting"])
def test_verify_size_zero_exits_2(suite, capsys):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "0")
    assert code == 2
    assert out == ""
    assert err == "error: suite size must be at least 1, got 0\n"


@pytest.mark.parametrize(("flag", "value"), [("--subsets", "1,x/2"), ("--truncate", "x")])
def test_gen_cycle_grid_bad_flag_is_named(flag, value, capsys):
    code, out, err = run(capsys, "gen", "--family", "cycle-grid", "--n", "8", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} must be ") and err.count("\n") == 1
    assert repr(value) in err


@pytest.mark.parametrize(
    ("argv", "head"),
    [
        (["states", "--n", "5"], "mdm states: error: argument --n: invalid choice: 5"),
        (["verify", "--suite", "nope"], "mdm verify: error: argument --suite: invalid choice: 'nope'"),
    ],
)
def test_argument_rejection_is_one_stderr_line(argv, head, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(head) and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    ("argv", "flag", "cap"),
    [
        (["verify", "--suite", "menus", "--n"], "--n", 200),
        (["verify", "--suite", "menus", "--trials"], "--trials", 100_000),
        (["gen", "--family", "random", "--n"], "--n", 1000),
    ],
)
def test_size_flags_are_capped(argv, flag, cap, capsys, monkeypatch):
    """The cap itself passes and one more exits 2; stubs stand in for the work, never run at size."""
    import mdm.generators
    import mdm.verify

    reached = []
    small = mdm.generators.gen_random_market(2, 0)
    monkeypatch.setattr(mdm.verify, "run_suite", lambda suite, **kw: reached.append(kw)
                        or mdm.verify.VerificationReport(suite, 1, 0, (), 0.0))
    monkeypatch.setattr(mdm.generators, "gen_random_market", lambda n, *a: reached.append(n) or small)
    code, _, _ = run(capsys, *argv, str(cap))
    assert code == 0 and len(reached) == 1
    code, out, err = run(capsys, *argv, str(cap + 1))
    assert code == 2 and len(reached) == 1
    assert out == ""
    assert err == f"error: {flag} must be at most {cap}, got {cap + 1}\n"


def tall_auction(tmp_path, bidders, items):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"K": 400, "values": [[k + j for j in range(items)] for k in range(bidders)]}))
    return str(path)


@pytest.mark.parametrize(("bidders", "items", "side"), [(301, 1, "bidders"), (1, 301, "items")])
def test_vcg_unit_demand_oversize_file_exits_2_before_the_solver(bidders, items, side, tmp_path, capsys, monkeypatch):
    def unreachable(v):
        raise AssertionError("the solver ran on an oversize file")

    monkeypatch.setattr("mdm.cli.vcg_unit_demand", unreachable)
    code, out, err = run(capsys, "solve", "--mechanism", "vcg-unit-demand", tall_auction(tmp_path, bidders, items))
    assert (code, out) == (2, "")
    assert err == f"error: vcg-unit-demand {side} must be at most 300, got 301\n"


def test_vcg_unit_demand_solves_at_the_cap_and_spa_is_uncapped(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", "--mechanism", "vcg-unit-demand", tall_auction(tmp_path, 300, 1))
    assert code == 0
    doc = json.loads(out)
    assert doc["allocation"][299] == [0] and doc["prices"][299] == 298
    code, out, _ = run(capsys, "solve", "--mechanism", "spa", tall_auction(tmp_path, 301, 1))
    assert code == 0 and json.loads(out)["prices"][300] == 299


@pytest.mark.parametrize(("where", "reason"), [("missing/x.json", "No such file or directory"), ("", "Is a directory")])
def test_gen_out_to_an_unwritable_path_exits_2(where, reason, tmp_path, capsys):
    out = tmp_path / where
    code, stdout, err = run(capsys, "gen", "--family", "empty-menu", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: cannot write {out}: {reason}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--mechanism", "ipda"],
        ["solve", "--mechanism", "receiver-optimal", "--proposing", "applicants"],
        ["solve", "--mechanism", "apda"],
        ["menu", "--engine", "da", "--applicant", "d1"],
        ["describe", "--applicant", "d1"],
    ],
)
def test_capacity_above_one_gets_one_message(argv, tmp_path, capsys):
    q = fixture_budget_set()
    path = tmp_path / "cap.json"
    path.write_text(serialize_instance(
        Profile(q.applicant_names, q.institution_names, q.applicant_prefs, q.institution_prios, (2, 1, 1, 1))
    ))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err == "error: this operation requires capacity 1 everywhere\n"


def test_an_input_error_with_several_problems_is_one_stderr_line(budget_path, capsys):
    code, out, err = run(capsys, "solve", "--mechanism", "median", budget_path)
    assert code == 2
    assert out == ""
    assert err == (
        "error: top level: unknown field 'applicants'; top level: unknown field 'institutions'; "
        "top level: missing field 'C'\n"
    )


def test_verify_failures_are_reported_in_both_formats(capsys, monkeypatch):
    """One route forced wrong: exit 1, a stderr summary per suite, and each failure in full on stdout."""
    import re

    import mdm.verify
    from mdm import SUITE_NAMES

    monkeypatch.setenv("MDM_NO_PARALLEL", "1")  # the patch is in this process only
    monkeypatch.setattr(mdm.verify, "median_menu", lambda v, i: (1, 1))
    code, out, err = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 1
    summaries = err.splitlines()
    assert [line.split(":")[0] for line in summaries] == list(SUITE_NAMES)
    docs = json.loads(out)
    assert [(d["suite"], d["ok"]) for d in docs] == [(s, s != "voting") for s in SUITE_NAMES]
    failures = docs[SUITE_NAMES.index("voting")]["failures"]
    assert failures
    for f in failures:
        assert set(f) == {"instance", "expectation", "observed"}
        assert json.loads(f["instance"])["C"] == 5
        assert f["observed"].startswith("menu (1, 1) selects ") or f["observed"].startswith("reporting ")

    code, text, err_text = run(capsys, "verify", "--suite", "all", "--format", "text")
    assert code == 1
    timeless = re.compile(r"\(\d+\.\d+s, ")
    assert timeless.sub("", err_text) == timeless.sub("", err)
    lines = text.splitlines()
    assert timeless.sub("", "\n".join(line for line in lines if not line.startswith("  "))) == timeless.sub(
        "", "\n".join(summaries)
    )
    at = next(k for k, line in enumerate(lines) if line.startswith("voting:"))
    assert lines[at + 1:] == [
        line
        for f in failures
        for line in (
            f"  expected: {f['expectation']}",
            f"  observed: {f['observed']}",
            "  instance: " + " ".join(f["instance"].split()),
        )
    ]


def test_solve_vcg_additive_with_a_string_bound_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text('{"K": "3", "values": [[1]]}')
    code, out, err = run(capsys, "solve", "--mechanism", "vcg-additive", str(path))
    assert (code, out) == (2, "")
    assert err == "error: K: must be a nonnegative integer, got '3'\n"


def test_solve_text_on_a_market_without_applicants_prints_the_empty_market_line(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"applicants": [], "institutions": [{"name": "h", "prios": []}]}))
    assert run(capsys, "solve", "--mechanism", "apda", "--format", "text", str(path)) == (0, "(empty market)\n", "")


def test_describe_for_a_lone_applicant_prints_no_matching_line(tmp_path, capsys):
    path = tmp_path / "m.json"
    lone = {"applicants": [{"name": "a", "prefs": ["h"]}], "institutions": [{"name": "h", "prios": ["a"]}]}
    path.write_text(json.dumps(lone))
    code, out, _ = run(capsys, "describe", "--applicant", "a", str(path))
    assert code == 0
    assert out.splitlines()[:4] == [
        "Menu description for a",
        "",
        "If your preference list is ignored, institutions propose and the others end up matched as:",
        "",
    ]
