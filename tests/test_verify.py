"""The verify runner: lazily serialized failure instances and one shared process pool."""

import multiprocessing
import os

import pytest

import mdm.verify as verify
from mdm.auctions import serialize_auction
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


@pytest.mark.parametrize(
    ("trial", "force", "about"),
    [
        (verify._rural_trial, _force_rural_fill, "per-institution fill"),
        (verify._rotations_trial, _force_rotations, "equals the receiver-optimal stable matching"),
        (verify._plan_trial, _force_plan_completion, "completing the plan of applicant 4"),
    ],
    ids=["rural-capacities", "rotations", "plan-completion"],
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
