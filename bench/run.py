"""Benchmark of the mdm package: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (no install needed; ``src/`` is put on the path):

    python3 bench/run.py --workload cli-market --seed 1 --seconds 25 --trace 0

One client runs the operations in sequence (a closed loop); only the
`mdm verify` child starts a process pool of its own. Each round runs the
same four stages (see ``stages.py``): fresh CLI processes on a market file,
in-process menus, auctions and descriptions, and a fresh `mdm verify`. A
workload makes one stage large, built from ``--seed``, and runs the other
three small on fixed inputs, which keeps every end-to-end metric defined on
every workload. Rounds repeat until ``--seconds`` have passed; the metrics
are medians over the rounds, scaled to a nominal machine speed (see
``Calibration``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` half the time runs untraced and
half traced, followed by a probe pass, and it carries the per-layer metrics
(see ``layers.py``). ``--smoke`` runs one round at tiny sizes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import replace
from functools import partial
from pathlib import Path

sys.dont_write_bytecode = True  # leave the benchmark directory as committed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SMALL_SEED = 0  # the small stages run on the same inputs whatever --seed is
CALIBRATE_EVERY_S = 0.1
NOMINAL_CALIBRATION_S = 0.0025

E2E_UNITS = {
    "setup_s": "s",
    "cli_solve_s": "s",
    "cli_menu_s": "s",
    "cli_describe_s": "s",
    "cli_peak_rss_mb": "MB",
    "menus_per_s": "1/s",
    "plans_per_s": "1/s",
    "completions_per_s": "1/s",
    "auctions_per_s": "1/s",
    "auction_menus_per_s": "1/s",
    "description_checks_per_s": "1/s",
    "verify_trials_per_s": "1/s",
}
OWN_STAGE = {"cli-market": "cli", "menus-batch": "batch", "auctions": "auctions", "verify-suites": "verify"}


def workload_sizes(stages, name: str, smoke: bool):
    """The stage sizes of one workload: its own stage large, the others small."""
    if smoke:
        tiny = stages.Sizes(cli_n=6, cli_repeats=1, batch_n=6, batch_markets=1, plans=2, reports=3, matrices=(3, 4),
                            bit_probe=(2,), spa=((3, 2),), verify_suite="voting", verify_trials=8,
                            verify_repeats=1)
        return replace(tiny, cli_fault=name == "cli-market", auction_fault=name == "auctions")
    small = stages.Sizes(cli_n=30, cli_repeats=2, batch_n=40, batch_markets=1, plans=40, reports=4,
                         matrices=(4, 5, 6, 6), bit_probe=(2, 3),
                         spa=((3, 8), (3, 10), (4, 4), (4, 5), (4, 6), (5, 3), (5, 4), (6, 3)),
                         verify_suite="stability", verify_trials=64, verify_repeats=2)
    own = {
        "cli-market": dict(cli_n=300, cli_repeats=2, cli_fault=True),
        "menus-batch": dict(batch_n=150, batch_markets=8, plans=40, reports=6),
        "auctions": dict(matrices=(8, 9, 10), bit_probe=(4, 5), auction_fault=True,
                         spa=((3, 3), (3, 6), (3, 10), (4, 3), (4, 4), (4, 6), (5, 3), (5, 4), (6, 3))),
        "verify-suites": dict(verify_suite="all", verify_trials=None, verify_repeats=1),
    }[name]
    return replace(small, **own)


class Calibration:
    """How fast the machine runs at each moment of the run, read off a fixed workload.

    Shared hosts drift by tens of percent over seconds, which would swamp
    the run-to-run comparison. Before an operation, at most every
    CALIBRATE_EVERY_S, the benchmark times a fixed pure-Python workload that
    no change to the program can touch: reference deferred acceptance probing
    one applicant's menu on a fixed 60-agent market. An operation's time is
    multiplied by ``factor``, NOMINAL_CALIBRATION_S over the median of the
    last three calibration times, which states it at the speed where the
    workload takes NOMINAL_CALIBRATION_S.
    """

    def __init__(self, reference) -> None:
        rng = random.Random("calibration")
        n = 60
        prefs = [tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(n)]
        rank = reference.rank_tables([rng.sample(range(n), n) for _ in range(n)])
        self.workload = partial(reference.singleton_menu, partial(reference.deferred_acceptance, prio_rank=rank),
                                prefs, 0, n)
        self.samples: list[float] = []
        self.last = -math.inf

    def measure(self) -> None:
        start = time.perf_counter()
        self.workload()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def tick(self) -> None:
        if time.perf_counter() - self.last >= CALIBRATE_EVERY_S:
            self.measure()

    def factor(self) -> float:
        return NOMINAL_CALIBRATION_S / statistics.median(self.samples[-3:])


def interleave(built: dict) -> list[tuple]:
    """Every stage's operations spread evenly over the round, each stage's own order kept.

    Spreading them lets every metric sample the whole run, not one stretch of
    it, so a slow spell of the machine weighs on all metrics alike.
    """
    placed = [((j + 0.5) / len(stage.ops), k, j, stage, op)
              for k, stage in enumerate(built.values()) for j, op in enumerate(stage.ops)]
    return [(stage, *op) for *_, stage, op in sorted(placed, key=lambda x: x[:3])]


def run_rounds(built: dict, tracer, tally, calibration: Calibration, seconds: float) -> int:
    """Whole rounds until the time is up; returns how many ran.

    The caller has switched automatic garbage collection off, as timeit
    does: a collection would land on whichever operation the allocation
    count happens to reach, so each round starts with a full collection
    instead.
    """
    schedule = interleave(built)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        gc.collect()
        for stage in built.values():
            stage.out, stage.factor = {}, {}
        for stage, key, name, call in schedule:
            calibration.tick()
            start = time.perf_counter()
            stage.out[key] = tracer.call(name, call)
            elapsed = time.perf_counter() - start
            stage.factor[key] = factor = calibration.factor()
            stage.secs.setdefault(key, []).append(elapsed * factor)
        rounds += 1
        tally.attempted += len(schedule)
        for stage in built.values():
            stage.check(tally)
        if time.perf_counter() >= deadline:
            return rounds


def round_time(built: dict, rounds: slice) -> float:
    """Calibrated time of one round, each operation at its median over the given rounds."""
    return sum(statistics.median(t[rounds]) for stage in built.values() for t in stage.secs.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(OWN_STAGE))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round at tiny sizes")
    args = parser.parse_args(argv)
    if not (SRC / "mdm" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mdm package under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # Imported here: they import mdm, which is found only once src/ is on the path.
    import layers
    import reference
    import stages

    os.environ.pop("MDM_NO_PARALLEL", None)  # verify runs in parallel, as shipped
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sizes = workload_sizes(stages, args.workload, args.smoke)
    seeds = {name: args.seed if name == OWN_STAGE[args.workload] else SMALL_SEED for name in stages.STAGES}
    calibration = Calibration(reference)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            for _ in range(3):
                calibration.measure()
            start = time.perf_counter()
            child = stages.run_child([sys.executable, "-c", "import mdm.cli"], env, workdir)
            if child.returncode != 0:
                sys.stderr.write(f"error: importing mdm.cli failed:\n{child.stderr}")
                return 2
            built = {name: stage(sizes, seeds[name], workdir, env) for name, stage in stages.STAGES.items()}
            setup.append((time.perf_counter() - start) * calibration.factor())

        tally = stages.Tally()
        tracer = layers.Tracer()
        gc.disable()
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            untraced = run_rounds(built, tracer, tally, calibration, seconds / 2)
            tracer.start()
            run_rounds(built, tracer, tally, calibration, seconds / 2)
            metrics = layers.probe(built, args.seed, workdir, env)
            metrics["trace.overhead_ratio"] = (round_time(built, slice(untraced, None))
                                               / round_time(built, slice(0, untraced)))
            units = layers.UNITS
        else:
            run_rounds(built, tracer, tally, calibration, seconds)
            metrics = {"setup_s": statistics.median(setup)}
            for stage in built.values():
                metrics.update(stage.metrics())
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    for problem in tally.problems[:20]:
        sys.stderr.write(f"check failed: {problem}\n")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
