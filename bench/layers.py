"""Per-layer metrics: spans around the benchmark's own calls into each mdm module.

Nothing inside ``mdm`` is hooked. A traced run records a span (name, start,
end) for every call the benchmark makes into the program, then makes a probe
pass that calls each layer's public functions directly on the workload's
largest inputs. A per-layer time is the median span of one such call,
except ``cli.import_s``, which is the child's own wall time; the counts
come from ``QueryLog``, ``plan.dag.nodes`` and ``tracemalloc``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from mdm import cli
from mdm.auctions import max_weight_matching, menu_unit_demand, vcg_additive, vcg_unit_demand
from mdm.descriptions import build_spa_menu_description, check_menu_description, memory_requirement
from mdm.generators import gen_random_market
from mdm.market import Profile, parse_instance, serialize_instance, validate_profile
from mdm.mechanisms import QueryLog, apda, ipda, receiver_optimal
from mdm.menus import complete_from_plan, menu_da, menu_da_applicant_proposing, menu_da_plan, menu_ttc
from mdm.verify import SUITE_NAMES, run_suite

from stages import SPA_VIEW, run_child

REPEATS = 3  # calls per probe on whole-market inputs
PROBED_APPLICANTS = 3
REPORTS_PER_PLAN = 3

SECONDS = "s"
COUNT = "count"
UNITS: dict[str, str] = {
    "market.parse_instance_s": SECONDS,
    "market.serialize_instance_s": SECONDS,
    "market.validate_profile_s": SECONDS,
    "market.derive_profile_s": SECONDS,
    "mechanisms.apda_s": SECONDS,
    "mechanisms.apda_reads": COUNT,
    "mechanisms.ipda_s": SECONDS,
    "mechanisms.ipda_reads": COUNT,
    "mechanisms.receiver_optimal_s": SECONDS,
    "menus.menu_da_s": SECONDS,
    "menus.menu_ttc_s": SECONDS,
    "menus.menu_da_applicant_proposing_s": SECONDS,
    "menus.menu_da_plan_s": SECONDS,
    "menus.plan_reads": COUNT,
    "menus.plan_dag_nodes": COUNT,
    "menus.complete_from_plan_s": SECONDS,
    "auctions.max_weight_matching_s": SECONDS,
    "auctions.vcg_unit_demand_s": SECONDS,
    "auctions.menu_unit_demand_s": SECONDS,
    "auctions.vcg_unit_demand_peak_kb": "KB",
    "auctions.vcg_additive_s": SECONDS,
    "descriptions.build_spa_menu_description_s": SECONDS,
    "descriptions.check_menu_description_s": SECONDS,
    "descriptions.memory_requirement_s": SECONDS,
    **{f"verify.{suite}_s": SECONDS for suite in SUITE_NAMES},
    "cli.import_s": SECONDS,
    "cli.main_s": SECONDS,
    "generators.gen_random_market_s": SECONDS,
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Records a span around each call the benchmark makes into mdm, once switched on."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] | None = None

    def start(self) -> None:
        self.spans = []

    def call(self, name: str, fn, *args):
        if self.spans is None:
            return fn(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.perf_counter()))

    def medians(self) -> dict[str, float]:
        durations: dict[str, list[float]] = {}
        for name, start, end in self.spans:
            durations.setdefault(name, []).append(end - start)
        return {f"{name}_s": statistics.median(d) for name, d in durations.items()}


def _reads(log: QueryLog) -> int:
    return sum(1 for event in log.events if event[0] == "read")


def _derive(p: Profile, i: int) -> None:
    q = p.with_prefs(i, ())
    q.applicant_rank, q.institution_rank


def _main_pass(argvs: list[list[str]]) -> None:
    """One in-process `mdm.cli.main(argv)` call per command, output discarded."""
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"in-process mdm {' '.join(argv)} exited {code}")


def probe(stages: dict, seed: int, workdir: Path, env: dict[str, str]) -> dict[str, float]:
    """Call every layer's public functions directly on the workload's largest inputs.

    Spans go to a fresh tracer; returns every per-layer metric except the
    tracing overhead.
    """
    cli_stage, batch, auctions, verify = stages["cli"], stages["batch"], stages["auctions"], stages["verify"]
    gc.collect()
    tracer = Tracer()
    tracer.start()
    call = tracer.call
    values: dict[str, list[float]] = {}  # counts, and times not taken from spans

    # The larger of the two markets the workload reads.
    source = cli_stage if cli_stage.market.n_applicants >= batch.market.n_applicants else batch
    p, n = source.market, source.market.n_applicants
    rng = random.Random(f"{seed}/probe")
    for _ in range(REPEATS):
        call("generators.gen_random_market", gen_random_market, *source.market_args)
        text = call("market.serialize_instance", serialize_instance, p)
        call("market.parse_instance", parse_instance, text)
        call("market.validate_profile", validate_profile, p)
        call("mechanisms.apda", apda, p)
        call("mechanisms.ipda", ipda, p)
        call("mechanisms.receiver_optimal", receiver_optimal, p)
    for name, mechanism in (("mechanisms.apda_reads", apda), ("mechanisms.ipda_reads", ipda)):
        log = QueryLog()
        mechanism(p, log=log)
        values[name] = [_reads(log)]
    for i in rng.sample(range(n), min(PROBED_APPLICANTS, n)):
        call("market.derive_profile", _derive, p, i)
        call("menus.menu_da", menu_da, i, p)
        call("menus.menu_ttc", menu_ttc, i, p)
        call("menus.menu_da_applicant_proposing", menu_da_applicant_proposing, i, p)
        plan = call("menus.menu_da_plan", menu_da_plan, i, p)
        values.setdefault("menus.plan_dag_nodes", []).append(len(plan.dag.nodes))
        log = QueryLog()
        menu_da_plan(i, p, log)
        values.setdefault("menus.plan_reads", []).append(_reads(log))
        for _ in range(REPORTS_PER_PLAN):
            report = tuple(rng.sample(range(n), rng.randint(1, n)))
            call("menus.complete_from_plan", complete_from_plan, plan, report)

    v = max(auctions.matrices, key=lambda m: m.n_bidders * m.n_items)
    for rep in range(REPEATS):
        call("auctions.max_weight_matching", max_weight_matching, v)
        call("auctions.vcg_unit_demand", vcg_unit_demand, v)
        call("auctions.menu_unit_demand", menu_unit_demand, rep % v.n_bidders, v)
        call("auctions.vcg_additive", vcg_additive, v)
    tracemalloc.start()
    try:
        vcg_unit_demand(v)
        values["auctions.vcg_unit_demand_peak_kb"] = [tracemalloc.get_traced_memory()[1] / 1024]
    finally:
        tracemalloc.stop()
    bidders, bound, domain = max(auctions.spa, key=lambda s: len(s[2]))
    for _ in range(REPEATS):
        d = call("descriptions.build_spa_menu_description", build_spa_menu_description, bidders, bound)
        call("descriptions.check_menu_description", check_menu_description, d, SPA_VIEW, bidders - 1, domain)
        call("descriptions.memory_requirement", memory_requirement, d)

    # Suites in process and serial, at the trial count of the workload's verify command.
    os.environ["MDM_NO_PARALLEL"] = "1"
    try:
        for suite in SUITE_NAMES:
            call(f"verify.{suite}", run_suite, suite, verify.trials)
    finally:
        del os.environ["MDM_NO_PARALLEL"]

    for _ in range(REPEATS):
        child = run_child([sys.executable, "-c", "import mdm.cli"], env, workdir)
        if child.returncode != 0:
            raise RuntimeError(f"fresh import of mdm.cli failed: {child.stderr[-300:]}")
        values.setdefault("cli.import_s", []).append(child.wall_s)
    argvs = list(cli_stage.argvs.values()) + [verify.argv]
    for _ in range(2):
        call("cli.main", _main_pass, argvs)

    metrics = tracer.medians()
    metrics.update({name: statistics.median(v) for name, v in values.items()})
    return metrics
