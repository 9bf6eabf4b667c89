"""Smoke check of the benchmark at tiny sizes; no timing gate.

    python3 bench/smoke.py

Runs ``run.py --smoke`` on every workload of ``BENCHMARK.json``, untraced
and traced, and checks that the last line of each is a result whose metric
names and units are exactly the ones ``BENCHMARK.json`` lists, that every
output check held, and that only workloads with a known faulty operation
report failures. It also checks that the benchmark refuses to run, without
printing a result, from a copy holding only ``BENCHMARK.json`` and the
benchmark's own files. Exits 1 if anything is off; takes about half a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOWN_FAULTS = ("cli-market", "auctions")  # workloads with an operation that fails today


def run(command: list[str], cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], workload: str) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"outputs not correct: {proc.stderr[-500:]}")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (type(attempted) is int and type(failed) is int and attempted >= 1 and 0 <= failed <= attempted):
        problems.append(f"attempted {attempted!r}, failed {failed!r}")
    elif failed and workload not in KNOWN_FAULTS:
        problems.append(f"{failed} failed operations on a workload without a known fault")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in declared}
    printed = {name: m.get("unit") for name, m in metrics.items()}
    if printed != expected:
        problems.append(f"metric names or units differ: missing {sorted(set(expected) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(expected))}, "
                        f"units {sorted(n for n in expected.keys() & printed.keys() if expected[n] != printed[n])}")
    for name, m in metrics.items():
        value = m.get("value")
        if type(value) not in (int, float) or not math.isfinite(value) or value < 0:
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            found = check_result(run(spec["command"], ROOT, workload, trace), spec[kind], workload)
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        proc = run(spec["command"], bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("a copy without the program did not fail cleanly")
        print(f"copy without the program: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it

    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
