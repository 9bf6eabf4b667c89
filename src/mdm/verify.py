"""Seeded self-check suites behind the ``verify`` subcommand.

Each suite re-derives the same quantity along two independent routes over a
stream of generated instances and reports every disagreement together with
the instance that produced it.  A run is deterministic given (suite, size,
trials, seed).  Each call (``run_all`` included) puts the trials of all its
suites in one stream, mapped over one process pool in chunks of at least 64 only
if it fills two chunks, on more than one CPU, without MDM_NO_PARALLEL=1 (a pool
costs more to start than 64 small trials).  A report's ``wall_time`` sums its
trials' times, each timed where it ran; all else is identical.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple, Union

from mdm import SUITE_NAMES
from mdm.auctions import (
    ValuationMatrix,
    max_weight_matching,
    menu_additive,
    menu_unit_demand,
    serialize_auction,
    spa_outcome,
    vcg_additive,
    vcg_unit_demand,
)
from mdm.generators import gen_bit_probe_auction, gen_random_market, BitProbeParams
from mdm.market import (
    APPLICANT,
    INSTITUTION,
    InstanceError,
    Profile,
    _check_seed,
    _is_count,
    blocking_pairs,
    matched_sets,
    serialize_instance,
    validate_profile,
)
from mdm.mechanisms import (
    apda,
    collapse_matching,
    expand_many_to_one,
    ipda,
    ipda_without,
    receiver_optimal,
    ttc,
)
from mdm.menus import (
    all_lists,
    complete_from_plan,
    menu_da,
    menu_da_applicant_proposing,
    menu_da_from_matching,
    menu_da_plan,
    menu_oracle_exhaustive,
    menu_oracle_singleton,
    menu_sd,
    menu_ttc,
)
from mdm.voting import (
    VoteProfile,
    median_menu,
    median_menu_select,
    median_outcome,
    serialize_votes,
)

# (size, trials) used when the caller does not override them. A size is the agent count per side
# of a market suite and the candidate count of voting, whose trials are capped at size**3 (every
# 3-voter profile); the auctions suite ignores it and draws its own dimensions per trial.
_DEFAULTS: dict[str, tuple[int, int]] = {
    "menus": (6, 150),
    "stability": (6, 200),
    "strategyproofness": (5, 150),
    "rural": (6, 200),
    "rotations": (6, 300),
    "plan": (6, 100),
    "auctions": (4, 200),
    "voting": (5, 125),
}


@dataclass(frozen=True, order=True)
class Failure:
    """One disagreement: the instance, what was expected, what was seen; sorts in that order."""

    instance: str
    expectation: str
    observed: str


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    trials: int
    seed: int
    failures: tuple[Failure, ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict[str, object]:
        doc = asdict(self)
        return {**doc, "failures": list(doc["failures"]), "wall_time": round(self.wall_time, 3), "ok": self.ok}

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return f"{self.suite}: {self.trials} trials, {verdict} ({self.wall_time:.2f}s, seed {self.seed})"


# A failed check: (instance, expectation, observed). The instance is the
# market, matrix or vote profile itself, or text already made (a bid list).
Problem = tuple[Union[Profile, ValuationMatrix, VoteProfile, str], str, str]
_SERIALIZERS = {Profile: serialize_instance, ValuationMatrix: serialize_auction, VoteProfile: serialize_votes}


def _failures(problems: list[Problem]) -> list[Failure]:
    """A trial's problems as failures; the one place an instance becomes text, serialized by its type."""
    return [
        Failure(instance if isinstance(instance, str) else _SERIALIZERS[type(instance)](instance), *check)
        for instance, *check in problems
    ]


def _score(true_list: tuple[int, ...], h: int | None) -> int:
    """Rank of an assignment under a true list; lower is better.

    Unmatched sits below every listed institution, and an unlisted
    institution below unmatched.
    """
    if h is None:
        return len(true_list)
    try:
        return true_list.index(h)
    except ValueError:
        return len(true_list) + 1


def _menus_trial(size: int, seed: int, t: int) -> list[Failure]:
    # Every fourth trial shrinks to 5 institutions so the exhaustive
    # enumeration oracle stays within its cap and joins the comparison.
    n = 5 if t % 4 == 3 else size
    p = gen_random_market(n, seed + t, truncation_prob=0.3)
    i = t % n
    problems = []
    ref = menu_da(i, p)
    routes = [
        ("applicant-proposing augmented run", menu_da_applicant_proposing(i, p)),
        ("two-phase plan", menu_da_plan(i, p).menu),
        ("institution-proposing run read by the admission rule", menu_da_from_matching(i, p)),
        ("single-report oracle", menu_oracle_singleton("apda", i, p)),
    ]
    if n <= 5:
        routes.append(("exhaustive report enumeration", menu_oracle_exhaustive("apda", i, p)))
    for name, got in routes:
        if got != ref:
            problems.append((
                p,
                f"deferred-acceptance menu of applicant {i} is {sorted(ref)}",
                f"{name} computed {sorted(got)}",
            ))
    order = tuple(range(n))
    for label, fast, oracle in [
        ("trading-cycles", menu_ttc(i, p), menu_oracle_singleton("ttc", i, p)),
        ("serial-dictatorship", menu_sd(i, p, order), menu_oracle_singleton("sd", i, p, order)),
    ]:
        if fast != oracle:
            problems.append((
                p,
                f"{label} menu of applicant {i} is {sorted(oracle)} by report probing",
                f"direct computation gave {sorted(fast)}",
            ))
    return _failures(problems)


def _stability_trial(size: int, seed: int, t: int) -> list[Failure]:
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    problems = []
    best = apda(p)
    worst = ipda(p)
    for name, mu in [("applicant-proposing", best), ("institution-proposing", worst)]:
        blocks = blocking_pairs(p, mu)
        if blocks:
            problems.append((
                p,
                f"{name} deferred acceptance yields no blocking pairs",
                f"blocking pairs {sorted(blocks)}",
            ))
    mu_d, nu_d = best.by_applicant, worst.by_applicant
    for d in range(p.n_applicants):
        true = p.applicant_prefs[d]
        if _score(true, mu_d.get(d)) > _score(true, nu_d.get(d)):
            problems.append((
                p,
                f"applicant {d} weakly prefers the applicant-proposing outcome",
                f"gets {mu_d.get(d)} there but {nu_d.get(d)} under institution proposing",
            ))
    return _failures(problems)


# Pinned 4x4 market for the exhaustive strategyproofness sweep: priorities
# and the other applicants' lists stay fixed while one applicant ranges over
# every strict partial list as truth and every other one as misreport. Built
# once, so its validation pass and rank tables serve every trial in a process.
_SP_MARKET = Profile(
    ("d0", "d1", "d2", "d3"),
    ("h0", "h1", "h2", "h3"),
    ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 0, 1)),
    ((0, 1, 2, 3), (1, 3, 0, 2), (2, 0, 3, 1), (3, 2, 1, 0)),
)


def _check_deviations(
    p: Profile, i: int, true: tuple[int, ...], reports: list[tuple[int, ...]]
) -> list[Failure]:
    problems = []
    validate_profile(p)  # once, so the derived report profiles carry the pass
    base = p.with_prefs(i, true)
    for mech, run in [("apda", apda), ("ttc", ttc)]:
        honest = _score(true, run(base).by_applicant.get(i))
        for rep in reports:
            if rep == true:
                continue
            got = _score(true, run(p.with_prefs(i, rep)).by_applicant.get(i))
            if got < honest:
                problems.append((
                    base,
                    f"{mech}: applicant {i} cannot beat the truth {true}",
                    f"reporting {rep} improves rank {honest} to {got}",
                ))
    return _failures(problems)


def _strategyproofness_trial(size: int, seed: int, t: int) -> list[Failure]:
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    i = t % size
    true = p.applicant_prefs[i]
    rng = random.Random((seed + t) ^ 0x5F5F)
    reports = []
    for _ in range(12):
        k = rng.randint(0, size)
        reports.append(tuple(rng.sample(range(size), k)))
    return _check_deviations(p, i, true, reports)


def _strategyproofness_exhaustive_trial(size: int, seed: int, t: int) -> list[Failure]:
    del size, seed  # the sweep is fully pinned
    lists = all_lists(4)
    i, true = divmod(t, len(lists))
    return _check_deviations(_SP_MARKET, i, lists[true], lists)


def _rural_trial(size: int, seed: int, t: int) -> list[Failure]:
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    problems = []
    sets_a = matched_sets(apda(p))
    sets_i = matched_sets(ipda(p))
    if sets_a != sets_i:
        problems.append((
            p,
            "the same applicants and institutions are matched in every stable matching",
            f"applicant-proposing matches {tuple(map(sorted, sets_a))}, "
            f"institution-proposing {tuple(map(sorted, sets_i))}",
        ))
    # Capacity variant: the per-institution fill is also invariant.
    rng = random.Random((seed + t) ^ 0x0C0C)
    caps = tuple(rng.randint(1, 2) for _ in range(p.n_institutions))
    wide = Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios, caps)
    expanded, copy_map = expand_many_to_one(wide)
    fills = []
    for mu in (apda(expanded), ipda(expanded)):
        folded = collapse_matching(mu, copy_map)
        by_h = folded.by_institution
        fills.append(tuple(len(by_h.get(h, frozenset())) for h in range(wide.n_institutions)))
    if fills[0] != fills[1]:
        problems.append((
            wide,
            f"per-institution fill {fills[0]} is the same in every stable matching",
            f"institution-proposing run fills {fills[1]}",
        ))
    return _failures(problems)


def _rotations_trial(size: int, seed: int, t: int) -> list[Failure]:
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    problems = []
    pairs = [
        ("institution-proposing run plus rotations", receiver_optimal(p, INSTITUTION), apda(p)),
        ("applicant-proposing run plus rotations", receiver_optimal(p, APPLICANT), ipda(p)),
    ]
    for name, got, want in pairs:
        if got != want:
            problems.append((
                p,
                f"{name} equals the receiver-optimal stable matching {sorted(want.pairs)}",
                f"computed {sorted(got.pairs)}",
            ))
    return _failures(problems)


def _plan_trial(size: int, seed: int, t: int) -> list[Failure]:
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    i = t % size
    plan = menu_da_plan(i, p)
    problems = []
    if plan.menu != menu_da(i, p):
        problems.append((
            p,
            f"plan menu for applicant {i} equals the deferred-acceptance menu {sorted(menu_da(i, p))}",
            f"plan computed {sorted(plan.menu)}",
        ))
    others = ipda_without(i, p)[0]
    if plan.tentative != others:
        problems.append((
            p,
            f"plan tentative matching for applicant {i} equals the run without her {sorted(others.pairs)}",
            f"plan computed {sorted(plan.tentative.pairs)}",
        ))
    true = p.applicant_prefs[i]
    rng = random.Random((seed + t) ^ 0x7A7A)
    lists = [true[:k] for k in range(len(true) + 1)]
    lists.append(tuple(rng.sample(range(size), rng.randint(0, size))))
    for rep in lists:
        reported = p.with_prefs(i, rep)
        want = apda(reported)
        got = complete_from_plan(plan, rep)
        if got != want:
            problems.append((
                reported,
                f"completing the plan of applicant {i} with list {rep} "
                f"matches a fresh run: {sorted(want.pairs)}",
                f"plan completion gave {sorted(got.pairs)}",
            ))
    return _failures(problems)


def _assignment_value(v: ValuationMatrix, assignment: tuple[int | None, ...]) -> int:
    return sum(v.values[i][j] for i, j in enumerate(assignment) if j is not None)


def _brute_welfare(v: ValuationMatrix) -> int:
    """Best assignment value by enumerating padded item permutations."""
    slots = list(range(v.n_items)) + [None] * v.n_bidders
    return max(_assignment_value(v, pick) for pick in itertools.permutations(slots, v.n_bidders))


def _auctions_fixed_checks(problems: list[Problem]) -> None:
    lone = ValuationMatrix(((3, 0, 2),), 5)
    out = vcg_additive(lone)
    if out.prices != (0,) or out.allocation[0] != frozenset({0, 1, 2}):
        problems.append((
            lone,
            "a lone bidder wins every item and pays nothing",
            f"allocation {out.allocation}, prices {out.prices}",
        ))
    bids = (4, 7, 7)
    win = spa_outcome(bids)
    if (win.allocation.index(frozenset({0})), win.prices[win.allocation.index(frozenset({0}))]) != (1, 7):
        problems.append((
            str(list(bids)),
            "ties go to the lowest-index bidder at the second-highest bid",
            f"allocation {win.allocation}, prices {win.prices}",
        ))
    # Bit-probe instances: the probed bid vector admits a perfect matching
    # exactly when the probed matrix bit is 1.
    k = 2
    for cells in itertools.product((0, 1), repeat=k * k):
        bits = tuple(tuple(cells[r * k:(r + 1) * k]) for r in range(k))
        for pq in itertools.product(range(k), repeat=2):
            params = BitProbeParams(k, bits, pq)
            v = gen_bit_probe_auction(params)
            weight = _assignment_value(v, max_weight_matching(v))
            if (weight == 2 * k) != bool(bits[pq[0]][pq[1]]):
                problems.append((
                    v,
                    f"perfect matching exists iff bit {pq} of {bits} is set",
                    f"matching weight {weight}",
                ))


def _auctions_trial(size: int, seed: int, t: int) -> list[Failure]:
    del size
    problems = []
    if t == 0:
        _auctions_fixed_checks(problems)
    rng = random.Random(seed + t)
    nb = rng.randint(2, 4)
    m = rng.randint(1, 4)
    bound = rng.randint(1, 6)
    v = ValuationMatrix(
        tuple(tuple(rng.randint(0, bound) for _ in range(m)) for _ in range(nb)), bound
    )
    # Additive VCG must decompose into one second-price auction per item.
    out = vcg_additive(v)
    alloc = [set() for _ in range(nb)]
    prices = [0] * nb
    for j in range(m):
        column = tuple(v.values[i][j] for i in range(nb))
        one = spa_outcome(column)
        winner = next(i for i, items in enumerate(one.allocation) if items)
        alloc[winner].add(j)
        prices[winner] += one.prices[winner]
    if out.allocation != tuple(frozenset(s) for s in alloc) or out.prices != tuple(prices):
        problems.append((
            v,
            f"additive VCG splits into per-item second-price auctions: "
            f"{tuple(sorted(s) for s in alloc)} at {tuple(prices)}",
            f"got {tuple(sorted(s) for s in out.allocation)} at {out.prices}",
        ))
    for i in range(nb):
        menu = menu_additive(i, v)
        util = sum(v.values[i][j] - menu[j] for j in out.allocation[i])
        best = sum(max(0, v.values[i][j] - menu[j]) for j in range(m))
        if util != best:
            problems.append((
                v,
                f"bidder {i} attains the best additive-menu utility {best}",
                f"outcome utility {util} with menu {menu}",
            ))
    # Unit demand: matching weight against brute-force enumeration, then the
    # VCG utility identity and its menu form.
    assignment = max_weight_matching(v)
    weight = _assignment_value(v, assignment)
    brute = _brute_welfare(v)
    if weight != brute:
        problems.append((
            v,
            f"maximum assignment value is {brute} by enumeration",
            f"assignment {assignment} of value {weight}",
        ))
    out_u = vcg_unit_demand(v)
    for i in range(nb):
        others = ValuationMatrix(v.values[:i] + v.values[i + 1:], v.bound)
        w_rest = _assignment_value(others, max_weight_matching(others))
        own = next(iter(out_u.allocation[i]), None)
        value = v.values[i][own] if own is not None else 0
        util = value - out_u.prices[i]
        if out_u.prices[i] < 0 or util != weight - w_rest:
            problems.append((
                v,
                f"bidder {i} pays her externality: utility {weight - w_rest}",
                f"allocation {sorted(out_u.allocation[i])} at price {out_u.prices[i]}",
            ))
        menu = menu_unit_demand(i, v)
        best = max([0] + [v.values[i][j] - menu[j] for j in range(m)])
        if util != best:
            problems.append((
                v,
                f"bidder {i} attains the best unit-demand menu utility {best}",
                f"outcome utility {util} with menu {menu}",
            ))
    return _failures(problems)


def _voting_trial(size: int, seed: int, t: int) -> list[Failure]:
    del seed
    candidates = size
    n_voters = 3
    combos = candidates ** n_voters
    votes = []
    x = t % combos
    for _ in range(n_voters):
        votes.append(x % candidates + 1)
        x //= candidates
    v = VoteProfile(candidates, tuple(votes))
    problems = []
    chosen = median_outcome(v)
    want = sorted(votes)[n_voters // 2]
    if chosen != want:
        problems.append((v, f"median is {want}", f"computed {chosen}"))
    for i in range(n_voters):
        lo, hi = median_menu(v, i)
        for own in range(1, candidates + 1):
            swapped = VoteProfile(candidates, tuple(own if k == i else votes[k] for k in range(n_voters)))
            direct = median_outcome(swapped)
            via_menu = median_menu_select((lo, hi), own)
            if via_menu != direct:
                problems.append((
                    v,
                    f"voter {i} reporting {own} moves the median to {direct}",
                    f"menu ({lo}, {hi}) selects {via_menu}",
                ))
            peak = votes[i]
            if abs(direct - peak) < abs(chosen - peak):
                problems.append((
                    v,
                    f"voter {i} with peak {peak} cannot beat the honest median {chosen}",
                    f"reporting {own} yields {direct}",
                ))
    return _failures(problems)


_TRIALS = {
    "menus": _menus_trial,
    "stability": _stability_trial,
    "strategyproofness": _strategyproofness_trial,
    "strategyproofness-exhaustive": _strategyproofness_exhaustive_trial,
    "rural": _rural_trial,
    "rotations": _rotations_trial,
    "plan": _plan_trial,
    "auctions": _auctions_trial,
    "voting": _voting_trial,
}


class _Job(NamedTuple):
    suite: str  # name on the report
    trial: str  # key into _TRIALS
    size: int
    trials: int
    seed: int


def _run_trial(task: tuple[str, int, int, int]) -> tuple[list[Failure], float]:
    began = time.perf_counter()
    return _TRIALS[task[0]](*task[1:]), time.perf_counter() - began  # the trial runs before the clock is read


def _run_jobs(jobs: list[_Job]) -> list[VerificationReport]:
    """Run every trial of every job, on one process pool if the run fills two chunks; one report per job."""
    total = sum(job.trials for job in jobs)
    tasks = ((job.trial, job.size, job.seed, t) for job in jobs for t in range(job.trials))
    chunk = max(64, -(-total // 16))
    workers = 1 if os.environ.get("MDM_NO_PARALLEL") == "1" else min(total // chunk, os.cpu_count() or 1)
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = pool.map(_run_trial, tasks, chunksize=chunk) if pool else map(_run_trial, tasks)
        reports = []
        for job in jobs:  # each job's report sums its trials' results, the next job.trials of them, as they arrive
            failures, seconds = [], 0.0
            for batch, s in itertools.islice(results, job.trials):
                failures += batch
                seconds += s
            reports.append(VerificationReport(job.suite, job.trials, job.seed, tuple(sorted(failures)), seconds))
    return reports


def _job(suite: str, trials: int | str | None, size: int | None, seed: int) -> _Job:
    if suite not in SUITE_NAMES:
        raise InstanceError(f"unknown suite {suite!r}; pick from {', '.join(SUITE_NAMES + ('all',))}")
    name = suite
    default_size, default_trials = _DEFAULTS[suite]
    size = size if size is not None else default_size
    if not _is_count(size, 1):
        raise InstanceError(f"suite size must be at least 1, got {size!r}")
    _check_seed(seed)
    if trials == "exhaustive":
        if suite != "strategyproofness":
            raise InstanceError("only the strategyproofness suite has an exhaustive mode")
        name = "strategyproofness-exhaustive"
        n_trials = 4 * len(all_lists(4))
    else:
        n_trials = default_trials if trials is None else trials
        if not _is_count(n_trials, 1):
            raise InstanceError(f"trial count must be a positive integer, got {n_trials!r}")
    if suite == "voting":
        n_trials = min(n_trials, size**3)
    return _Job(suite, name, size, n_trials, seed)


def run_suite(
    suite: str,
    trials: int | str | None = None,
    size: int | None = None,
    seed: int = 0,
) -> VerificationReport:
    """Run one named suite and return its report.

    trials="exhaustive" switches the strategyproofness suite to the pinned
    full sweep of true lists against misreports; other suites reject it.
    """
    return _run_jobs([_job(suite, trials, size, seed)])[0]


def run_all(seed: int = 0) -> list[VerificationReport]:
    """Run every suite with default sizes and trial counts, all on one process pool."""
    return _run_jobs([_job(s, None, None, seed) for s in SUITE_NAMES])
