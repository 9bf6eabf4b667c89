"""The repository benchmark runs at tiny sizes, checks its outputs and prints the declared metrics. No timing gate."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_menus_batch_smoke_prints_declared_metrics():
    argv = [sys.executable, "bench/run.py", "--workload", "menus-batch", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
