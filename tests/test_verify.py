"""The verify runner: lazily serialized failure instances and one shared process pool."""

import dataclasses
import multiprocessing
import os

import pytest

import mdm.verify as verify
from mdm.auctions import ValuationMatrix, serialize_auction
from mdm.generators import gen_random_market
from mdm.market import Matching, serialize_instance
from mdm.voting import serialize_votes


@pytest.mark.parametrize(
    ("trial", "args", "route", "wrong", "expected"),
    [
        (verify._menus_trial, (6, 0, 1), "menu_ttc",
         lambda real, n, i, p: real(i, p) | {99}, lambda calls: serialize_instance(calls[0][1])),
        (verify._stability_trial, (6, 0, 1), "blocking_pairs",
         lambda real, n, p, mu: [(0, 0)], lambda calls: serialize_instance(calls[0][0])),
        # Each score reads better than the one before, so every misreport beats the truth.
        (verify._strategyproofness_trial, (5, 0, 1), "_score",
         lambda real, n, true, h: -n, lambda calls: serialize_instance(gen_random_market(5, 1, truncation_prob=0.3))),
        (verify._auctions_trial, (4, 0, 1), "menu_additive",
         lambda real, n, i, v: tuple(-1 for _ in real(i, v)), lambda calls: serialize_auction(calls[0][1])),
        (verify._voting_trial, (5, 0, 7), "median_menu",
         lambda real, n, v, i: (1, 1), lambda calls: serialize_votes(calls[0][0])),
    ],
    ids=["menus", "stability", "strategyproofness", "auctions", "voting"],
)
def test_failure_instance_is_the_trials_instance(trial, args, route, wrong, expected, monkeypatch):
    """A route forced wrong yields failures whose instance is the trial's own, serialized."""
    real = getattr(verify, route)
    calls = []

    def patched(*a):
        calls.append(a)
        return wrong(real, len(calls), *a)

    monkeypatch.setattr(verify, route, patched)
    failures = trial(*args)
    assert failures
    assert {f.instance for f in failures} == {expected(calls)}


_NOBODY_WANTS = Matching(frozenset({(99, 99)}))  # equals no matching a trial computes


def _force_rural_fill(monkeypatch, p, i):
    """The capacity variant's institution-proposing fill reads empty; expect `wide`, the profile expanded."""
    expand, collapse = verify.expand_many_to_one, verify.collapse_matching
    wide, folds = [], []

    def expanding(q):
        wide.append(q)
        return expand(q)

    def collapsing(mu, copy_map):
        folds.append(mu)
        return collapse(mu, copy_map) if len(folds) == 1 else Matching(frozenset())

    monkeypatch.setattr(verify, "expand_many_to_one", expanding)
    monkeypatch.setattr(verify, "collapse_matching", collapsing)
    return lambda: {serialize_instance(wide[0])}


def _force_rotations(monkeypatch, p, i):
    monkeypatch.setattr(verify, "receiver_optimal", lambda q, side: _NOBODY_WANTS)
    return lambda: {serialize_instance(p)}


def _force_plan_completion(monkeypatch, p, i):
    """Every completion is wrong; each failure names the profile with that completion's list."""
    reps = []
    monkeypatch.setattr(verify, "complete_from_plan", lambda plan, rep: reps.append(rep) or _NOBODY_WANTS)
    return lambda: {serialize_instance(p.with_prefs(i, rep)) for rep in reps}


def _recording(monkeypatch, route, wrong):
    """Patch a route with wrong(real, n, *args) for its n-th call; return the list of the calls' arguments."""
    real, calls = getattr(verify, route), []
    monkeypatch.setattr(verify, route, lambda *a: calls.append(a) or wrong(real, len(calls), *a))
    return calls


def _force_da_route(monkeypatch, p, i):
    monkeypatch.setattr(verify, "menu_da_applicant_proposing", lambda i, q: frozenset({99}))
    return lambda: {serialize_instance(p)}


def _force_weak_preference(monkeypatch, p, i):
    """Each applicant's applicant-proposing match, scored first, scores worse than her institution-proposing one."""
    _recording(monkeypatch, "_score", lambda real, n, true, h: n % 2)
    return lambda: {serialize_instance(p)}


def _force_matched_sets(monkeypatch, p, i):
    """Every call reads a different matched set, so the two runs disagree."""
    _recording(monkeypatch, "matched_sets", lambda real, n, mu: (frozenset({n}),))
    return lambda: {serialize_instance(p)}


def _force_plan_menu(monkeypatch, p, i):
    monkeypatch.setattr(verify, "menu_da", lambda i, q: frozenset({99}))
    return lambda: {serialize_instance(p)}


def _at_first_trial(trial):
    """The trial at t = 0 whatever t it is given: there the auctions suite also runs its fixed checks."""
    return lambda size, seed, t: trial(size, seed, 0)


def _force_lone_bidder(monkeypatch, p, i):
    """The lone bidder of the fixed checks pays 1; every other additive VCG is left as it is."""
    lone = ValuationMatrix(((3, 0, 2),), 5)
    _recording(monkeypatch, "vcg_additive",
               lambda real, n, v: dataclasses.replace(real(v), prices=(1,)) if v == lone else real(v))
    return lambda: {serialize_auction(lone)}


def _force_spa_tie(monkeypatch, p, i):
    """The fixed checks' tie, the first second-price auction of the trial, goes to bidder 0."""
    _recording(monkeypatch, "spa_outcome", lambda real, n, bids: real((7, 7, 4) if n == 1 else bids))
    return lambda: {"[4, 7, 7]"}


def _force_bit_probe(monkeypatch, p, i):
    """Every bit-probe matrix gets an empty assignment: each one whose probed bit is set fails."""
    made = []

    def generate(real, n, params):
        made.append((params, real(params)))
        return made[-1][1]

    def solve(real, n, v):
        return (None,) * v.n_bidders if any(v is w for _, w in made) else real(v)

    _recording(monkeypatch, "gen_bit_probe_auction", generate)
    _recording(monkeypatch, "max_weight_matching", solve)
    return lambda: {serialize_auction(v) for params, v in made if params.bits[params.probe[0]][params.probe[1]]}


def _force_additive_split(monkeypatch, p, i):
    """Additive VCG charges every bidder 1 more than the per-item auctions; its allocation stays."""
    calls = _recording(monkeypatch, "vcg_additive",
                       lambda real, n, v: dataclasses.replace(real(v), prices=tuple(x + 1 for x in real(v).prices)))
    return lambda: {serialize_auction(calls[0][0])}


def _force_max_weight(monkeypatch, p, i):
    calls = _recording(monkeypatch, "_brute_welfare", lambda real, n, v: -1)
    return lambda: {serialize_auction(calls[0][0])}


def _force_externality(monkeypatch, p, i):
    """The full matrix is solved; every matrix without one bidder gets the empty assignment, worth 0."""
    calls = _recording(monkeypatch, "max_weight_matching",
                       lambda real, n, v: real(v) if n == 1 else (None,) * v.n_bidders)
    return lambda: {serialize_auction(calls[0][0])}


def _force_unit_demand_menu(monkeypatch, p, i):
    """Every item is priced -1, so the menu's best utility beats any outcome."""
    calls = _recording(monkeypatch, "menu_unit_demand", lambda real, n, i, v: (-1,) * v.n_items)
    return lambda: {serialize_auction(calls[0][1])}


def _force_voting(skip):
    """Every median after the first `skip` reads 1 higher, and so does every menu's pick.

    With votes (5, 1, 1), skip 0 only moves the honest median, and skip 1 lets voter 0 (peak 5) beat it.
    """

    def force(monkeypatch, p, i):
        calls = _recording(monkeypatch, "median_outcome", lambda real, n, v: real(v) + (n > skip))
        _recording(monkeypatch, "median_menu_select", lambda real, n, menu, own: real(menu, own) + 1)
        return lambda: {serialize_votes(calls[0][0])}

    return force


@pytest.mark.parametrize(
    ("trial", "force", "about"),
    [
        (verify._rural_trial, _force_rural_fill, "per-institution fill"),
        (verify._rotations_trial, _force_rotations, "equals the receiver-optimal stable matching"),
        (verify._plan_trial, _force_plan_completion, "completing the plan of applicant 4"),
        (verify._menus_trial, _force_da_route, "deferred-acceptance menu of applicant 4 is "),
        (verify._stability_trial, _force_weak_preference, "weakly prefers the applicant-proposing outcome"),
        (verify._rural_trial, _force_matched_sets, "the same applicants and institutions are matched"),
        (verify._plan_trial, _force_plan_menu, "plan menu for applicant 4 equals the deferred-acceptance menu"),
        (_at_first_trial(verify._auctions_trial), _force_lone_bidder, "a lone bidder wins every item and pays nothing"),
        (_at_first_trial(verify._auctions_trial), _force_spa_tie, "ties go to the lowest-index bidder"),
        (_at_first_trial(verify._auctions_trial), _force_bit_probe, "perfect matching exists iff bit"),
        (verify._auctions_trial, _force_additive_split, "additive VCG splits into per-item second-price auctions"),
        (verify._auctions_trial, _force_max_weight, "maximum assignment value is -1 by enumeration"),
        (verify._auctions_trial, _force_externality, "pays her externality"),
        (verify._auctions_trial, _force_unit_demand_menu, "attains the best unit-demand menu utility"),
        (verify._voting_trial, _force_voting(0), "median is 1"),
        (verify._voting_trial, _force_voting(1), "voter 0 with peak 5 cannot beat the honest median 1"),
    ],
    ids=["rural-capacities", "rotations", "plan-completion", "menus-da-route", "stability-weak-preference",
         "rural-matched-sets", "plan-menu", "auctions-lone-bidder", "auctions-spa-tie", "auctions-bit-probe",
         "auctions-additive-split", "auctions-max-weight", "auctions-externality", "auctions-unit-demand-menu",
         "voting-median", "voting-peak"],
)
def test_failures_of_each_check_carry_that_checks_instance(trial, force, about, monkeypatch):
    """The routes the test above does not reach, forced wrong: each failure holds its check's own instance."""
    size, seed, t = 6, 0, 4
    p = gen_random_market(size, seed + t, truncation_prob=0.3)
    expected = force(monkeypatch, p, t % size)
    failures = trial(size, seed, t)
    assert failures
    assert all(about in f.expectation for f in failures)
    assert {f.instance for f in failures} == expected()


def _tagged(name, real, picked):
    """A trial that adds one synthetic failure to each picked trial index."""

    def trial(size, seed, t):
        out = real(size, seed, t)
        if t in picked:
            out.append(verify.Failure(f"synthetic {name} {(t * 37) % 101:03d}", f"trial {t}", "forced"))
        return out

    return trial


def _comparable(reports):
    return [{k: v for k, v in r.as_dict().items() if k != "wall_time"} for r in reports]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the patch reaches workers only by fork")
def test_run_all_uses_one_pool_and_routes_failures_to_their_suites(monkeypatch):
    picked = {"stability": {3, 40, 41, 150, 199}, "voting": {0, 64, 124}}
    for name, ts in picked.items():
        monkeypatch.setitem(verify._TRIALS, name, _tagged(name, verify._TRIALS[name], ts))
    pools = []

    class CountedPool(verify.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            pools.append(a)
            super().__init__(*a, **kw)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("MDM_NO_PARALLEL", raising=False)
    parallel = verify.run_all(seed=0)
    assert len(pools) == 1
    monkeypatch.setenv("MDM_NO_PARALLEL", "1")
    serial = verify.run_all(seed=0)
    assert len(pools) == 1
    assert _comparable(parallel) == _comparable(serial)

    assert [r.suite for r in parallel] == list(verify.SUITE_NAMES)
    for r in parallel:
        ts = picked.get(r.suite, set())
        assert {f.expectation for f in r.failures} == {f"trial {t}" for t in ts}
        assert all(f.instance.startswith(f"synthetic {r.suite} ") for f in r.failures)
        assert list(r.failures) == sorted(r.failures, key=lambda f: (f.instance, f.expectation, f.observed))


def test_the_exhaustive_strategyproofness_sweep_runs_every_true_list_and_reports_ok(monkeypatch):
    monkeypatch.setenv("MDM_NO_PARALLEL", "1")
    report = verify.run_suite("strategyproofness", trials="exhaustive")
    assert (report.suite, report.trials, report.failures) == ("strategyproofness", 4 * 65, ())


def test_the_exhaustive_sweep_validates_its_market_once(monkeypatch):
    import mdm.market

    calls = []
    real = mdm.market._profile_problems
    monkeypatch.setattr(mdm.market, "_profile_problems", lambda p: calls.append(p) or real(p))
    monkeypatch.setenv("MDM_NO_PARALLEL", "1")
    assert verify.run_suite("strategyproofness", trials="exhaustive").ok
    assert len(calls) <= 1


def test_a_report_as_a_dict_keeps_its_fields_in_order_with_failures_as_a_list():
    failure = verify.Failure("market", "expected", "observed")
    doc = verify.VerificationReport("voting", 3, 7, (failure,), 1.23456).as_dict()
    assert list(doc) == ["suite", "trials", "seed", "failures", "wall_time", "ok"]
    assert doc == {
        "suite": "voting",
        "trials": 3,
        "seed": 7,
        "failures": [{"instance": "market", "expectation": "expected", "observed": "observed"}],
        "wall_time": 1.235,
        "ok": False,
    }


def test_a_pool_starts_only_when_the_run_fills_two_chunks_of_64_trials(monkeypatch):
    pools = []

    class CountedPool(verify.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            pools.append(a)
            super().__init__(*a, **kw)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("MDM_NO_PARALLEL", raising=False)
    assert verify.run_suite("stability", trials=127).ok
    assert pools == []
    pooled = verify.run_suite("stability", trials=128)
    assert pools == [(2,)]
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    in_process = verify.run_suite("stability", trials=128)
    assert pools == [(2,)]
    assert _comparable([pooled]) == _comparable([in_process])


def test_a_long_run_holds_no_list_of_its_trials_or_their_results(monkeypatch):
    import tracemalloc

    monkeypatch.setitem(verify._TRIALS, "stability", lambda size, seed, t: [])
    monkeypatch.setenv("MDM_NO_PARALLEL", "1")
    tracemalloc.start()
    try:
        report = verify.run_suite("stability", trials=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.trials, report.failures) == (100_000, ())
    assert peak < 1_000_000  # a task tuple or a result per trial would take over 10 MB
