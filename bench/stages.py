"""The four stages of a benchmark round: their inputs, operations, checks and metrics.

Every workload runs all four stages in each round; a workload differs only
in the sizes it gives them (see ``run.py``). A stage builds its inputs from
the seed when it is constructed, which is the set-up the benchmark times,
and lists the operations of one round in ``ops``: (key, span name, call)
triples, the same every round. The round loop interleaves the operations of
all stages, stores each result in ``stage.out[key]``, its calibration
factor in ``stage.factor[key]`` and its calibrated time in
``stage.secs[key]``, then calls ``check``. Checks compare every output of
every round with the independent computations in ``reference.py``, made on
the first round, or with the first round's outputs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import reference as ref
from mdm.auctions import ValuationMatrix, menu_unit_demand, vcg_additive, vcg_unit_demand
from mdm.descriptions import (
    LOSE,
    MechanismView,
    build_spa_menu_description,
    check_menu_description,
    memory_requirement,
    win_label,
)
from mdm.generators import BitProbeParams, gen_bit_probe_auction, gen_random_market
from mdm.market import serialize_instance
from mdm.menus import complete_from_plan, menu_da, menu_da_plan, menu_ttc

TRUNCATION = 0.3  # chance that a list of the CLI market is cut to a random proper prefix
# Batch markets keep complete lists: with cut lists the number of proposals
# an institution-proposing run makes varies several-fold from seed to seed.
BATCH_TRUNCATION = 0.0
DEEP_JSON_LEVELS = 200_000
FAULT_BIDDERS = 1500  # bidders of the one-item auction; deeper than the recursion limit
SPOT_CHECKS = 3  # applicants per batch market whose menus are probed through the reference
CHILD_TIMEOUT_S = 150
CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass(frozen=True)
class Sizes:
    """How much work each stage does in one round."""

    cli_n: int  # agents per side of the market file the CLI commands read
    cli_repeats: int  # runs of each CLI command per round
    batch_n: int  # agents per side of the in-memory markets of the batch stage
    batch_markets: int  # markets the plans are spread over; menus use the first
    plans: int  # applicants that get a menu_da_plan, over all markets
    reports: int  # complete_from_plan reports per plan
    matrices: tuple[int, ...]  # side lengths of random square valuation matrices
    bit_probe: tuple[int, ...]  # k of the 2k x 2k bit-probe auctions
    spa: tuple[tuple[int, int], ...]  # (bidders, bid bound) of the SPA menu descriptions
    verify_suite: str  # suite of the `mdm verify` child; "all" runs every suite at defaults
    verify_trials: int | None  # its --trials, or None for the suite defaults
    verify_repeats: int  # `mdm verify` runs per round
    cli_fault: bool = False  # add the deeply nested JSON file to the CLI stage
    auction_fault: bool = False  # add the 1500 x 1 auction to the auction stage

    @property
    def verify_argv(self) -> list[str]:
        argv = ["verify", "--suite", self.verify_suite]
        return argv if self.verify_trials is None else argv + ["--trials", str(self.verify_trials)]


class Tally:
    """Operations attempted and failed, and every output check that did not hold."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


class Stage:
    """What the round loop needs of a stage; subclasses add ``check`` and ``metrics``."""

    def __init__(self) -> None:
        self.ops: list[tuple[tuple, str, object]] = []
        self.out: dict[tuple, object] = {}  # this round's result of each operation
        self.factor: dict[tuple, float] = {}  # this round's calibration factor of each operation
        self.secs: dict[tuple, list[float]] = {}  # calibrated seconds of each operation, per round

    def rate(self, kind: str) -> float:
        """Operations whose key starts with ``kind``, per second.

        Each operation counts at its median time over the rounds, so a pause
        that hits one round does not move the rate.
        """
        medians = [statistics.median(t) for key, t in self.secs.items() if key[0] == kind]
        return len(medians) / sum(medians)


@dataclass(frozen=True)
class Child:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def run_child(argv: list[str], env: dict[str, str], workdir: Path) -> Child:
    """Run one command to its end through ``child.py``, which times it and reads its peak RSS."""
    report = workdir / "child-report.json"
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(report), *argv], stdout=out, stderr=err,
                                env=env, cwd=workdir, start_new_session=True)
        try:
            proc.wait(CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    if proc.returncode != 0:
        raise RuntimeError(f"child.py exited {proc.returncode}: {stderr[-300:]}")
    done = json.loads(report.read_text(encoding="utf-8"))
    return Child(done["wall_s"], done["returncode"], stdout, stderr, done["peak_rss_kb"] / 1024)


def mdm_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "mdm", *args]


class CliStage(Stage):
    """Fresh `mdm solve`, `mdm menu --engine da` and `mdm describe` on one market file."""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, env: dict[str, str]) -> None:
        super().__init__()
        rng = random.Random(f"{seed}/cli")
        self.market_args = (sizes.cli_n, rng.randrange(2**31), TRUNCATION)
        self.market = gen_random_market(*self.market_args)
        path = workdir / "market.json"
        path.write_text(serialize_instance(self.market), encoding="utf-8")
        self.applicant = rng.randrange(sizes.cli_n)
        name = self.market.applicant_names[self.applicant]
        self.argvs = {
            "solve": ["solve", "--mechanism", "apda", str(path)],
            "menu": ["menu", "--engine", "da", "--applicant", name, str(path)],
            "describe": ["describe", "--applicant", name, "--format", "json", str(path)],
        }
        for r in range(sizes.cli_repeats):
            for cmd, argv in self.argvs.items():
                self.ops.append(((cmd, r), f"cli.{cmd}", partial(run_child, mdm_argv(*argv), env, workdir)))
        if sizes.cli_fault:
            deep = workdir / "deep.json"
            deep.write_text("[" * DEEP_JSON_LEVELS + "]" * DEEP_JSON_LEVELS, encoding="utf-8")
            argv = mdm_argv("solve", "--mechanism", "apda", str(deep))
            self.ops.append((("deep", 0), "cli.solve", partial(run_child, argv, env, workdir)))
        self.walls: dict[str, list[float]] = {cmd: [] for cmd in self.argvs}
        self.peak_rss: list[float] = []
        self.expected: dict[str, object] | None = None

    def _reference(self) -> dict[str, object]:
        p = self.market
        prefs, rank = p.applicant_prefs, ref.rank_tables(p.institution_prios)
        mu = ref.deferred_acceptance(prefs, rank)
        if ref.blocking_pairs(prefs, rank, mu):
            raise AssertionError("reference deferred acceptance left a blocking pair")
        menu = ref.singleton_menu(lambda q: ref.deferred_acceptance(q, rank), prefs, self.applicant, p.n_institutions)
        matched = {p.applicant_names[d]: p.institution_names[h] for d, h in mu.items()}
        return {
            "solve": (matched, sorted(set(p.applicant_names) - set(matched))),
            "menu": sorted(p.institution_names[h] for h in menu),
        }

    def check(self, tally: Tally) -> None:
        if self.expected is None:
            self.expected = self._reference()
        rss = []
        for key, r in self.out.items():
            cmd = key[0]
            if cmd == "deep":
                # Known fault: json.loads recursion escapes the parser, so the CLI
                # prints a traceback and exits 1 instead of exiting 2 with one line.
                if r.returncode != 2 or len(r.stderr.strip().splitlines()) != 1:
                    tally.failed += 1
                continue
            self.walls[cmd].append(r.wall_s * self.factor[key])
            rss.append(r.peak_rss_mb)
            tally.expect(r.returncode == 0, f"mdm {cmd} exited {r.returncode}: {r.stderr[-300:]}")
            if r.returncode != 0:
                continue
            doc = json.loads(r.stdout)
            if cmd == "solve":
                tally.expect((doc["matched"], doc["unmatched"]) == self.expected["solve"],
                             "mdm solve matching differs from reference deferred acceptance")
            else:
                tally.expect(doc["menu"] == self.expected["menu"],
                             f"mdm {cmd} names another menu than the reference singleton probes")
        self.peak_rss.append(max(rss))

    def metrics(self) -> dict[str, float]:
        return {
            "cli_solve_s": statistics.median(self.walls["solve"]),
            "cli_menu_s": statistics.median(self.walls["menu"]),
            "cli_describe_s": statistics.median(self.walls["describe"]),
            "cli_peak_rss_mb": statistics.median(self.peak_rss),
        }


class BatchStage(Stage):
    """In-process menus for every applicant, plans for a sample, completions for many reports.

    Menus run on the first market. Plans and completions are spread over all
    ``batch_markets`` markets: what one plan costs depends so much on its
    market that a single market would make the plan rate a draw of the seed.
    """

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, env: dict[str, str]) -> None:
        super().__init__()
        rng = random.Random(f"{seed}/batch")
        n = sizes.batch_n
        seeds = [rng.randrange(2**31) for _ in range(sizes.batch_markets)]
        self.markets = [gen_random_market(n, s, BATCH_TRUNCATION) for s in seeds]
        self.market_args = (n, seeds[0], BATCH_TRUNCATION)  # how the first market was made
        p = self.market = self.markets[0]
        self.sample = [(m, i) for m in range(len(self.markets))
                       for i in rng.sample(range(n), sizes.plans // len(self.markets))]
        # Reports of uniform length 1..n reach the menu often enough to unroll
        # plan chains as well as to finish from the tentative matching alone.
        self.reports = {
            mi: [tuple(rng.sample(range(n), rng.randint(1, n))) for _ in range(sizes.reports)] for mi in self.sample
        }
        self.spot = rng.sample(range(n), min(SPOT_CHECKS, n))
        self.ops += [(("menu", "da", i), "menus.menu_da", partial(menu_da, i, p)) for i in range(n)]
        self.ops += [(("menu", "ttc", i), "menus.menu_ttc", partial(menu_ttc, i, p)) for i in range(n)]
        self.ops += [(("plan", m, i), "menus.menu_da_plan", partial(menu_da_plan, i, self.markets[m]))
                     for m, i in self.sample]
        # Completions follow every plan of the round: the interleaving keeps each stage's order.
        self.ops += [(("done", m, i, k), "menus.complete_from_plan", partial(self._complete, m, i, report))
                     for m, i in self.sample for k, report in enumerate(self.reports[m, i])]
        self.first_menus: dict | None = None
        self.expected: dict[str, dict] | None = None

    def _complete(self, m: int, i: int, report: tuple[int, ...]):
        return complete_from_plan(self.out["plan", m, i], report)

    def _reference(self) -> dict[str, dict]:
        p = self.market
        prefs, prios = p.applicant_prefs, p.institution_prios
        rank = ref.rank_tables(prios)
        expected = {
            "da": {i: ref.singleton_menu(lambda q: ref.deferred_acceptance(q, rank), prefs, i, p.n_institutions)
                   for i in self.spot},
            "ttc": {i: ref.singleton_menu(lambda q: ref.top_trading_cycles(q, prios), prefs, i, p.n_institutions)
                    for i in self.spot},
            # A plan's menu must equal menu_da's for the same applicant and market.
            "plan": {(m, i): menu_da(i, self.markets[m]) for m, i in self.sample},
            "done": {},
        }
        for m, i in self.sample:
            q = self.markets[m]
            probe, q_rank = list(q.applicant_prefs), ref.rank_tables(q.institution_prios)
            for k, report in enumerate(self.reports[m, i]):
                probe[i] = report
                expected["done"]["done", m, i, k] = ref.deferred_acceptance(probe, q_rank)
        return expected

    def check(self, tally: Tally) -> None:
        out = self.out
        menus = {key: m for key, m in out.items() if key[0] == "menu"}
        if self.expected is None:
            self.expected = self._reference()
            self.first_menus = menus
        expected = self.expected
        tally.expect(menus == self.first_menus, "menus changed between rounds")
        for i in self.spot:
            tally.expect(out["menu", "da", i] == expected["da"][i],
                         f"menu_da({i}) differs from the reference singleton probes")
            tally.expect(out["menu", "ttc", i] == expected["ttc"][i],
                         f"menu_ttc({i}) differs from the reference singleton probes")
        for (m, i), menu in expected["plan"].items():
            tally.expect(out["plan", m, i].menu == menu, f"menu_da_plan({i}).menu differs from menu_da({i}) on market {m}")
        for key, mu in expected["done"].items():
            tally.expect(out[key].by_applicant == mu,
                         f"complete_from_plan on market {key[1]} for applicant {key[2]}, report {key[3]} "
                         "differs from reference deferred acceptance")

    def metrics(self) -> dict[str, float]:
        return {
            "menus_per_s": self.rate("menu"),
            "plans_per_s": self.rate("plan"),
            "completions_per_s": self.rate("done"),
        }


def spa_outcome(types: tuple) -> str:
    """The last bidder's outcome in a second-price auction, price ties to earlier bidders."""
    p = max(types[:-1])
    return win_label(p) if types[-1] > p else LOSE


def spa_menu(types: tuple) -> frozenset[str]:
    return frozenset({LOSE, win_label(max(types[:-1]))})


SPA_VIEW = MechanismView(spa_outcome, spa_menu)


def certify_spa(n: int, K: int, domain: list[tuple]) -> str | None:
    """Build the SPA menu description, certify it over the whole domain and check its width.

    Returns what went wrong, or None.
    """
    d = build_spa_menu_description(n, K)
    try:
        check_menu_description(d, SPA_VIEW, n - 1, domain)
    except ValueError as exc:
        return f"not certified: {exc}"
    width = memory_requirement(d).max_layer_width
    return None if width == K + 2 else f"max layer width {width} != K + 2"


def vcg_or_error(v: ValuationMatrix):
    """vcg_unit_demand, with any exception returned instead of raised."""
    try:
        return vcg_unit_demand(v)
    except Exception as exc:  # RecursionError today; any refusal counts as the same failure
        return exc


class AuctionStage(Stage):
    """Unit-demand VCG and menus, additive VCG, and certified SPA menu descriptions."""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, env: dict[str, str]) -> None:
        super().__init__()
        rng = random.Random(f"{seed}/auctions")
        bound = 50
        self.matrices: list[ValuationMatrix] = [
            ValuationMatrix(tuple(tuple(rng.randint(0, bound) for _ in range(m)) for _ in range(m)), bound)
            for m in sizes.matrices
        ]
        self.probed_bit: dict[int, tuple[int, int]] = {}  # matrix position -> (k, probed bit)
        for k in sizes.bit_probe:
            bits = tuple(tuple(rng.randint(0, 1) for _ in range(k)) for _ in range(k))
            probe = (rng.randrange(k), rng.randrange(k))
            self.probed_bit[len(self.matrices)] = (k, bits[probe[0]][probe[1]])
            self.matrices.append(gen_bit_probe_auction(BitProbeParams(k, bits, probe)))
        self.spa = [(n, K, list(itertools.product(range(K + 1), repeat=n))) for n, K in sizes.spa]
        for pos, v in enumerate(self.matrices):
            self.ops.append((("vcg", pos), "auctions.vcg_unit_demand", partial(vcg_unit_demand, v)))
            self.ops += [(("menu", pos, i), "auctions.menu_unit_demand", partial(menu_unit_demand, i, v))
                         for i in range(v.n_bidders)]
            self.ops.append((("additive", pos), "auctions.vcg_additive", partial(vcg_additive, v)))
        self.ops += [(("description", n, K), "descriptions.certify_spa", partial(certify_spa, n, K, domain))
                     for n, K, domain in self.spa]
        self.fault = None
        if sizes.auction_fault:
            # Known fault: the memoised recursion is as deep as the bidder count.
            self.fault = ValuationMatrix(tuple(((7 * b) % 101,) for b in range(FAULT_BIDDERS)), 100)
            self.ops.append((("fault", 0), "auctions.vcg_unit_demand", partial(vcg_or_error, self.fault)))
        self.expected: list[tuple[int, list[int], list[list[int]]]] | None = None

    def check(self, tally: Tally) -> None:
        if self.expected is None:
            self.expected = [ref.unit_demand_prices(v.values) for v in self.matrices]
        for pos, v in enumerate(self.matrices):
            self._check_matrix(pos, v, tally)
        for n, K, _ in self.spa:
            problem = self.out["description", n, K]
            tally.expect(problem is None, f"SPA description ({n}, {K}): {problem}")
        if self.fault is not None:
            out = self.out["fault", 0]
            if isinstance(out, Exception):
                tally.failed += 1
            else:
                self._check_single_item(out, tally)

    def _check_matrix(self, pos: int, v: ValuationMatrix, tally: Tally) -> None:
        welfare, others, item_prices = self.expected[pos]
        rows, out, add = v.values, self.out["vcg", pos], self.out["additive", pos]
        held = [sorted(items) for items in out.allocation]
        tally.expect(all(len(h) <= 1 for h in held), f"matrix {pos}: a bidder got two items")
        got = [rows[i][h[0]] if h else 0 for i, h in enumerate(held)]
        tally.expect(sum(got) == welfare, f"matrix {pos}: welfare {sum(got)} != optimum {welfare}")
        tally.expect(list(out.prices) == [others[i] - (welfare - got[i]) for i in range(len(rows))],
                     f"matrix {pos}: VCG prices differ from the reference externalities")
        tally.expect([list(self.out["menu", pos, i]) for i in range(len(rows))] == item_prices,
                     f"matrix {pos}: menu prices differ from the reference")
        ref_alloc, ref_prices = ref.additive_vcg(rows)
        tally.expect([set(s) for s in add.allocation] == ref_alloc and list(add.prices) == ref_prices,
                     f"matrix {pos}: additive VCG differs from per-item second price")
        if pos in self.probed_bit:
            k, bit = self.probed_bit[pos]
            tally.expect((sum(got) == 2 * k) == (bit == 1), f"matrix {pos}: bit-probe welfare does not read the bit")

    def _check_single_item(self, out, tally: Tally) -> None:
        column = [row[0] for row in self.fault.values]
        winners = [i for i, items in enumerate(out.allocation) if items]
        ok = len(winners) == 1 and column[winners[0]] == max(column)
        if ok:
            w = winners[0]
            ok = out.prices[w] == max(x for i, x in enumerate(column) if i != w)
        tally.expect(ok, f"{FAULT_BIDDERS} x 1 auction: winner or price is wrong")

    def metrics(self) -> dict[str, float]:
        return {
            "auctions_per_s": self.rate("vcg"),
            "auction_menus_per_s": self.rate("menu"),
            "description_checks_per_s": self.rate("description"),
        }


class VerifyStage(Stage):
    """A fresh `mdm verify` process, with its own process pool as shipped."""

    def __init__(self, sizes: Sizes, seed: int, workdir: Path, env: dict[str, str]) -> None:
        super().__init__()
        self.argv, self.trials = sizes.verify_argv, sizes.verify_trials
        self.ops = [(("verify", r), "cli.verify", partial(run_child, mdm_argv(*self.argv), env, workdir))
                    for r in range(sizes.verify_repeats)]
        self.rates: list[float] = []

    def check(self, tally: Tally) -> None:
        for key, r in self.out.items():
            tally.expect(r.returncode == 0, f"mdm verify exited {r.returncode}: {r.stderr[-300:]}")
            if r.returncode != 0:
                continue
            doc = json.loads(r.stdout)
            reports = doc if isinstance(doc, list) else [doc]
            for rep in reports:
                tally.expect(rep["ok"] and not rep["failures"], f"verify suite {rep['suite']} reported failures")
            self.rates.append(sum(rep["trials"] for rep in reports) / (r.wall_s * self.factor[key]))

    def metrics(self) -> dict[str, float]:
        return {"verify_trials_per_s": statistics.median(self.rates)}


STAGES = {"cli": CliStage, "batch": BatchStage, "auctions": AuctionStage, "verify": VerifyStage}
