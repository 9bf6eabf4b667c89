"""TTC menus forked from one kept trading-cycle run, checked against the rounds run from scratch.

While applicant i is in the full run's market, the full run and the run without her agree, so menu_ttc resumes the
full run, kept on the profile, from the last checkpoint at which she is still in the market, with her cycle, if one
stands, no longer standing. The first call on a profile and an applicant already out of the market at the first
checkpoint take the rounds from round 1. oracles.py keeps the rounds rebuilt from scratch each round: both must give
every applicant the same surviving institutions, whatever order the menus are taken in and whichever cycle policy the
kept run executed.
"""

import gc
import pickle
import random
import sys
import tracemalloc
import weakref

import pytest

from oracles import ttc_rounds_reference

import mdm.mechanisms
import mdm.menus
from mdm.generators import gen_random_market
from mdm.market import Profile, validate_profile
from mdm.mechanisms import CYCLE_KINDS, CyclePolicy, _Trading, _ttc_run, ttc
from mdm.menus import menu_ttc

TRUNCATIONS = (0.0, 0.3, 0.7)


def ranked(rng: random.Random, k: int, truncation: float) -> tuple[int, ...]:
    order = rng.sample(range(k), k)
    return tuple(order[: rng.randrange(k)]) if k and rng.random() < truncation else tuple(order)


def market(n: int, m: int, prefs, prios) -> Profile:
    return Profile(tuple(f"d{d}" for d in range(n)), tuple(f"h{h}" for h in range(m)), prefs, prios)


def random_market(rng: random.Random, n: int, truncation: float) -> Profile:
    """n applicants and 1..40 institutions; with the given probability a list is cut at a random length."""
    m = rng.randint(1, 40)
    return market(n, m, [ranked(rng, m, truncation) for _ in range(n)], [ranked(rng, n, truncation) for _ in range(m)])


def common_lists(n: int) -> Profile:
    return market(n, n, [range(n)] * n, [range(n)] * n)


def latin_square(n: int) -> Profile:
    return market(n, n, [[(d + k) % n for k in range(n)] for d in range(n)],
                  [[(h + 1 + k) % n for k in range(n)] for h in range(n)])


def short_lists(n: int) -> Profile:
    """Applicant k and institution k list only each other: n singleton cycles, one round each."""
    return market(n, n, [[k] for k in range(n)], [[k] for k in range(n)])


def fresh(q: Profile) -> Profile:
    return Profile(q.applicant_names, q.institution_names, q.applicant_prefs, q.institution_prios, q.capacities)


def kept(p: Profile, policy: CyclePolicy = CyclePolicy()) -> tuple:
    """The kept run on p, built under the policy: the first call only marks the profile, the second builds it."""
    assert _ttc_run(p) is None
    return _ttc_run(p, policy)


def assert_forks_match(p: Profile, rng: random.Random, policy: CyclePolicy = CyclePolicy()) -> None:
    expected = [ttc_rounds_reference(p, CYCLE_KINDS[0], 0, i)[1] for i in range(p.n_applicants)]
    kept(p, policy)
    order = rng.sample(range(p.n_applicants), p.n_applicants)
    assert [menu_ttc(i, p) for i in order] == [expected[i] for i in order], policy


@pytest.mark.parametrize("truncation", TRUNCATIONS)
@pytest.mark.parametrize("n", range(1, 41, 3))
def test_forked_menus_equal_the_reference_rounds(n, truncation):
    rng = random.Random(f"forks/{n}/{truncation}")
    for t in range(4):
        p = random_market(rng, n, truncation)
        assert_forks_match(p, rng, CyclePolicy(CYCLE_KINDS[t % 3], t))
        j = rng.randrange(n)
        q = p.with_prefs(j, ranked(rng, p.n_institutions, truncation))
        assert_forks_match(q, rng)


@pytest.mark.parametrize("kind", CYCLE_KINDS)
def test_a_kept_run_under_every_policy_gives_the_same_menus(kind):
    rng = random.Random(f"policies/{kind}")
    for _ in range(15):
        n = rng.randint(1, 40)
        assert_forks_match(random_market(rng, n, rng.choice(TRUNCATIONS)), rng, CyclePolicy(kind, rng.randrange(99)))


def test_unequal_sides_leave_applicants_unmatched_and_they_get_the_reference_menu():
    rng = random.Random("unmatched")
    unmatched = 0
    for _ in range(20):
        n = rng.randint(10, 40)
        m = n // 3
        p = market(n, m, [ranked(rng, m, 0.3) for _ in range(n)], [ranked(rng, n, 0.3) for _ in range(m)])
        assert_forks_match(p, rng)
        unmatched += n - len(ttc(p).pairs)
    assert unmatched > 100


@pytest.mark.parametrize("family", [common_lists, latin_square, short_lists])
@pytest.mark.parametrize("n", [5, 17, 30])
def test_structured_families(family, n):
    p = family(n)
    validate_profile(p)
    assert_forks_match(p, random.Random(n))


def test_a_thinned_record_still_forks_every_applicant():
    # Short lists have fewer list entries than a checkpoint holds, so the record keeps one checkpoint and the forks
    # resume from round 1.
    p = short_lists(40)
    assert_forks_match(p, random.Random(0))
    executed, bounds, found, checkpoints = _ttc_run(p)
    assert (len(bounds) - 1, len(checkpoints)) == (40, 1)


def test_the_first_call_on_a_profile_keeps_nothing_and_the_second_builds_the_run(monkeypatch):
    p = gen_random_market(12, 3, truncation_prob=0.3)
    starts = []
    real = _Trading.__init__
    monkeypatch.setattr(_Trading, "__init__", lambda self, *a, **k: starts.append(a[1:2]) or real(self, *a, **k))
    menu_ttc(4, p)
    assert vars(p)["_ttc_run"] == () and starts == [(4,)]
    menu_ttc(5, p)
    assert vars(p)["_ttc_run"] and starts[1:3] == [(), (5,)]


def test_all_menus_of_a_profile_run_the_full_trading_loop_once(monkeypatch):
    # A run without an absent applicant, from the start, is the full run; every other run is one applicant's.
    full = []
    real = mdm.mechanisms._trade
    monkeypatch.setattr(mdm.mechanisms, "_trade", lambda trading, *a: full.append(trading.absent is None) or real(
        trading, *a))
    p = gen_random_market(30, 8, truncation_prob=0.0)
    for _ in range(2):
        for i in range(p.n_applicants):
            menu_ttc(i, p)
    assert sum(full) == 1
    assert len(full) == 1 + 2 * p.n_applicants


def test_check_invariance_compares_the_fork_with_the_all_simultaneous_rounds(monkeypatch):
    p = gen_random_market(10, 4, truncation_prob=0.0)
    menu_ttc(0, p)
    routes = []
    real = mdm.menus._ttc_rounds
    monkeypatch.setattr(mdm.menus, "_ttc_rounds", lambda q, policy, absent: routes.append(policy.kind) or real(
        q, policy, absent))
    assert menu_ttc(3, p, check_invariance=True) == ttc_rounds_reference(p, CYCLE_KINDS[0], 0, 3)[1]
    assert routes == ["all-simultaneous"]
    monkeypatch.setattr(mdm.menus, "_ttc_rounds", lambda q, policy, absent: ({}, frozenset({99})))
    with pytest.raises(AssertionError, match="depend on execution order"):
        menu_ttc(3, p, check_invariance=True)


def warm(p: Profile) -> Profile:
    for _ in range(2):
        menu_ttc(0, p)
    assert vars(p)["_ttc_run"]
    return p


def test_derived_profiles_start_without_the_record_and_get_the_menus_of_a_fresh_profile():
    p = warm(gen_random_market(9, 2, truncation_prob=0.3))
    validate_profile(p)
    for q in (p.with_prefs(3, (4, 0, 5)), p.with_prefs(0, ())):
        assert "_ttc_run" not in vars(q)
        ref = fresh(q)
        assert [menu_ttc(i, q) for i in range(9)] == [menu_ttc(i, ref) for i in range(9)]


def test_pickling_drops_the_record_and_eq_and_hash_ignore_it():
    p = gen_random_market(9, 2, truncation_prob=0.3)
    before = hash(p)
    warm(p)
    assert hash(p) == before and p == fresh(p)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == before
    assert "_ttc_run" not in vars(q)


def test_a_profile_with_the_record_is_freed_without_the_cycle_collector():
    p = warm(fresh(gen_random_market(9, 2, truncation_prob=0.3)))
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()


def traced(build):
    """What build() returns, and the bytes it left allocated."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", [common_lists, short_lists, lambda n: gen_random_market(n, 5, 0.0)])
def test_the_record_is_smaller_than_the_profiles_lists(family):
    p = family(200)
    lists = (p.applicant_prefs, p.institution_prios, *p.applicant_prefs, *p.institution_prios)
    assert _ttc_run(p) is None
    record, size = traced(lambda: _ttc_run(p))
    assert record and size < sum(map(sys.getsizeof, lists))


def resumed_checkpoints(monkeypatch) -> list:
    """Patches _Trading.__init__ to note the checkpoint each run starts from, None for round 1."""
    starts = []
    real = _Trading.__init__

    def spy(self, p, absent=None, checkpoint=None, standing=None):
        starts.append(checkpoint)
        real(self, p, absent, checkpoint, standing)

    monkeypatch.setattr(_Trading, "__init__", spy)
    return starts


def assert_each_menu_resumes_her_last_live_checkpoint(p: Profile, monkeypatch) -> None:
    """After the kept run is built, each menu resumes the last checkpoint with her in the market, or round 1 if none."""
    expected = [ttc_rounds_reference(p, CYCLE_KINDS[0], 0, i)[1] for i in range(p.n_applicants)]
    checkpoints = [c for _, c in kept(p)[-1]]
    starts = resumed_checkpoints(monkeypatch)
    for i in range(p.n_applicants):
        live = [c for c in checkpoints if c[3][i]]
        assert menu_ttc(i, p) == expected[i], i
        assert starts.pop() is (live[-1] if live else None), i
        assert (live == []) == (not checkpoints[0][3][i]), i  # the flags only fall


@pytest.mark.parametrize("truncation", [0.0, 0.3])
@pytest.mark.parametrize("n", range(10, 41))
def test_a_menu_starts_from_round_1_only_for_an_applicant_out_at_the_first_checkpoint(n, truncation, monkeypatch):
    # A third as many institutions as applicants: most applicants leave the full run unmatched, and still fork.
    rng = random.Random(f"last-live/{n}/{truncation}")
    m = n // 3
    p = market(n, m, [ranked(rng, m, truncation) for _ in range(n)], [ranked(rng, n, truncation) for _ in range(m)])
    assert_each_menu_resumes_her_last_live_checkpoint(p, monkeypatch)


def test_applicants_out_of_the_market_at_round_1_take_the_rounds_from_round_1(monkeypatch):
    # d0 lists nothing; d1 lists only h1, whose priority list is empty, so h1 and then d1 leave before any cycle
    # executes. d2 and h0 trade in round 1. h2 ranks d0 then d1, who stay in the market only while absent, so each
    # keeps h2 on her menu.
    p = market(4, 3, [(), (1,), (0,), (2, 0)], [(2,), (), (0, 1)])
    assert_each_menu_resumes_her_last_live_checkpoint(p, monkeypatch)
    first = _ttc_run(p)[-1][0][1]
    assert first[3][:2] == bytearray(2)
    assert menu_ttc(0, p) == menu_ttc(1, p) == frozenset({2})
