"""What a fresh `python -m mdm` process imports, and the exit-3 line that loads traceback only when needed.

The pins run the real entry point in a subprocess: ``mdm/__main__.py`` does
``from mdm.cli import main``, whose lookup of ``__path__`` reaches the module
``__getattr__`` that loads mdm.auctions on demand.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mdm.cli import main
from mdm.generators import gen_random_market
from mdm.market import serialize_instance

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
NOT_ON_THE_MATCHING_PATH = {"dataclasses", "inspect", "traceback", "mdm.auctions"}


@pytest.fixture(scope="module")
def market_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "market.json"
    path.write_text(serialize_instance(gen_random_market(8, 5, truncation_prob=0.3)))
    return str(path)


def fresh_run(*argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run `python -X importtime -m mdm ARGV`; also return the modules imported after site."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "mdm", *argv], env=ENV, capture_output=True,
                          text=True, timeout=60)
    names = [line.rsplit("|", 1)[1] for line in proc.stderr.splitlines() if line.startswith("import time:")]
    after_site = names[[n.strip() for n in names].index("site") + 1:]
    other = "".join(line + "\n" for line in proc.stderr.splitlines() if not line.startswith("import time:"))
    return subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout, other), {n.strip() for n in after_site}


@pytest.mark.parametrize("argv", [
    *(["solve", "--mechanism", m] for m in ("sd", "ttc", "apda", "ipda", "receiver-optimal")),
    ["menu", "--engine", "da", "--applicant", "d1"],
    ["describe", "--applicant", "d1"],
])
def test_matching_commands_load_no_dataclasses_auctions_or_traceback(argv, market_path, capsys):
    proc, loaded = fresh_run(*argv, market_path)
    assert proc.returncode == 0, proc.stderr
    assert "mdm.mechanisms" in loaded  # the probe sees the package's own imports
    assert loaded & NOT_ON_THE_MATCHING_PATH == set()
    assert (main([*argv, market_path]), *capsys.readouterr()) == (0, proc.stdout, proc.stderr)


def test_auction_solve_loads_auctions_and_prints_the_same_bytes(tmp_path, capsys):
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"K": 9, "values": [[3, 1, 4], [1, 5, 9], [2, 6, 5]]}))
    for fmt in ("json", "text"):
        argv = ["solve", "--mechanism", "vcg-unit-demand", "--format", fmt, str(path)]
        proc, loaded = fresh_run(*argv)
        assert proc.returncode == 0, proc.stderr
        assert "mdm.auctions" in loaded
        assert (main(argv), *capsys.readouterr()) == (0, proc.stdout, proc.stderr)


def test_internal_error_on_the_matching_path_exits_3_with_one_line(market_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("deferred acceptance fell over\non two lines")

    monkeypatch.setattr("mdm.cli.apda", broken)
    code = main(["solve", "--mechanism", "apda", market_path])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.startswith("error: internal error (RuntimeError at test_cli_startup.py:")
    assert err.endswith("): deferred acceptance fell over on two lines\n") and err.count("\n") == 1


def test_internal_error_loads_traceback_only_then(market_path):
    probe = (
        "import sys, mdm.cli\n"
        "def broken(*args):\n"
        "    raise RuntimeError('deferred acceptance fell over')\n"
        "mdm.cli.apda = broken\n"
        "before = 'traceback' in sys.modules\n"
        f"code = mdm.cli.main(['solve', '--mechanism', 'apda', {market_path!r}])\n"
        "print(code, before, 'traceback' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "3 False True\n"
    assert proc.stderr == "error: internal error (RuntimeError at <string>:3): deferred acceptance fell over\n"


def test_describe_reads_the_menu_without_loading_the_menu_engines(market_path):
    proc, loaded = fresh_run("describe", "--applicant", "d1", market_path)
    assert proc.returncode == 0, proc.stderr
    assert "mdm.market" in loaded and "mdm.menus" not in loaded
