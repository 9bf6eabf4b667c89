"""Byte pin of the `mdm` CLI: stdout, stderr and exit code of a fixed battery of commands.

The expected file `cli_pin.json` holds what each command printed when it was
captured. To capture it again from the source on PYTHONPATH, run

    PYTHONPATH=src python tests/test_cli_pin.py

and review the diff: any change in it is a change in what a user sees.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from mdm.cli import main
from mdm.generators import (
    fixture_budget_set,
    fixture_empty_menu,
    fixture_nonlocal_menu,
    fixture_nonlocal_outcome,
    gen_random_market,
)
from mdm.market import serialize_instance

EXPECTED = Path(__file__).with_name("cli_pin.json")
SRC = Path(__file__).resolve().parent.parent / "src" / "mdm"

_MENU_LOCAL = fixture_nonlocal_menu()
_OUTCOME_LOCAL = fixture_nonlocal_outcome()
MARKETS = {
    "budget": fixture_budget_set(),
    "empty": fixture_empty_menu(),
    "nonlocal-menu-base": _MENU_LOCAL[0],
    "nonlocal-menu-alt": _MENU_LOCAL[1],
    "nonlocal-outcome-base": _OUTCOME_LOCAL[0],
    "nonlocal-outcome-alt": _OUTCOME_LOCAL[1],
    "random20": gen_random_market(20, 4, 0.3),
}
OTHER_FILES = {
    "spa": '{"K": 9, "values": [[4], [7], [7], [2]]}',
    "matrix": '{"K": 6, "values": [[3, 1, 0], [2, 4, 4], [5, 0, 6], [1, 1, 1]]}',
    "votes": '{"C": 7, "votes": [2, 6, 3, 7, 1]}',
}


def battery() -> list[tuple[str, ...]]:
    """Every command of the pin; "{name}" stands for the path of that fixture file."""
    cmds: list[tuple[str, ...]] = []
    for fmt in ("json", "text"):
        for name, p in MARKETS.items():
            order = ",".join(reversed(p.applicant_names))
            for mech in ("sd", "ttc", "apda", "ipda", "receiver-optimal"):
                cmds.append(("solve", "--mechanism", mech, "--format", fmt, f"{{{name}}}"))
            cmds.append(("solve", "--mechanism", "sd", "--order", order, "--format", fmt, f"{{{name}}}"))
            cmds.append(("solve", "--mechanism", "receiver-optimal", "--proposing", "applicants",
                         "--format", fmt, f"{{{name}}}"))
            for applicant in p.applicant_names[:5]:
                for engine in ("da", "da-ap", "da-id", "ttc", "sd", "oracle"):
                    cmds.append(("menu", "--engine", engine, "--applicant", applicant, "--format", fmt,
                                 f"{{{name}}}"))
                cmds.append(("describe", "--applicant", applicant, "--format", fmt, f"{{{name}}}"))
            cmds.append(("menu", "--engine", "oracle", "--mechanism", "ttc", "--applicant",
                         p.applicant_names[0], "--format", fmt, f"{{{name}}}"))
            cmds.append(("menu", "--engine", "sd", "--order", order, "--applicant",
                         p.applicant_names[-1], "--format", fmt, f"{{{name}}}"))
        for mech in ("spa", "vcg-additive", "vcg-unit-demand"):
            cmds.append(("solve", "--mechanism", mech, "--format", fmt, "{spa}"))
            cmds.append(("solve", "--mechanism", mech, "--format", fmt, "{matrix}"))
        cmds.append(("solve", "--mechanism", "median", "--format", fmt, "{votes}"))
        cmds.append(("states", "--n", "4", "--format", fmt))
        cmds.append(("menu", "--engine", "da", "--applicant", "nobody", "--format", fmt, "{budget}"))
    cmds += [
        ("gen", "--family", "random", "--n", "6", "--seed", "3", "--truncation-prob", "0.3"),
        ("gen", "--family", "cycle-grid", "--n", "8", "--subsets", "2,3/3", "--truncate", "1,0"),
        ("gen", "--family", "cycle-grid", "--n", "4"),
        ("gen", "--family", "bit-probe", "--bits", "01/10", "--probe", "1,0"),
        ("gen", "--family", "nonlocal-menu"),
        ("gen", "--family", "nonlocal-outcome", "--variant", "alt"),
        ("gen", "--family", "empty-menu"),
        ("gen", "--family", "budget-set"),
        # Integer flags that do not parse: one stderr line naming the flag.
        ("gen", "--family", "cycle-grid", "--n", "8", "--subsets", "0,x/1"),
        ("gen", "--family", "cycle-grid", "--n", "8", "--subsets", "0,1/2"),
        ("gen", "--family", "cycle-grid", "--n", "8", "--truncate", "1,y"),
        ("gen", "--family", "bit-probe", "--bits", "01/1z", "--probe", "0,0"),
        ("gen", "--family", "bit-probe", "--bits", "01/10", "--probe", "0,q"),
        ("gen", "--family", "bit-probe", "--bits", "01/10", "--probe", "0"),
        ("verify", "--suite", "voting", "--trials", "many"),
    ]
    return cmds


def _write_fixtures(where: Path) -> dict[str, str]:
    paths = {}
    texts = {name: serialize_instance(p) for name, p in MARKETS.items()} | OTHER_FILES
    for name, text in texts.items():
        path = where / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_battery(where: Path) -> dict[str, dict[str, object]]:
    paths = _write_fixtures(where)
    results = {}
    for cmd in battery():
        argv = [arg.format(**paths) if arg.startswith("{") else arg for arg in cmd]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # an argparse rejection
                code = exc.code
        results[" ".join(cmd)] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return results


def test_cli_output_matches_the_pin(tmp_path):
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = run_battery(tmp_path)
    assert list(got) == list(expected)
    for cmd, want in expected.items():
        assert got[cmd] == want, cmd


def test_no_source_line_is_over_120_columns():
    long = [
        f"{path.name}:{n}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 120
    ]
    assert long == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        pinned = run_battery(Path(tmp))
    EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=False) + "\n", encoding="utf-8")
    sys.stderr.write(f"wrote {len(pinned)} commands to {EXPECTED}\n")
