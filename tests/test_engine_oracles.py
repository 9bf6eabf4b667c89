"""The deferred-acceptance and trading-cycle engines against the old loops kept in oracles.py.

Deferred acceptance lets a picked proposer go on proposing until someone
holds her. Under by-index a rejected proposer is still the smallest free
index, so the list reads and rank lookups must come in exactly the order of
the one-proposal-per-pick oracle. Top trading cycles carries its pointers and
cycles across rounds; the oracle rebuilds them every round.
"""

import random

import pytest

from oracles import chain_phase_reference, da_reference, receiver_optimal_reference, ttc_rounds_reference

from mdm.generators import gen_random_market
from mdm.market import APPLICANT, INSTITUTION, Matching, Profile
from mdm.mechanisms import (
    CYCLE_KINDS,
    PROPOSAL_KINDS,
    CyclePolicy,
    ProposalPolicy,
    QueryLog,
    _ttc_rounds,
    apda,
    ipda,
    receiver_optimal,
)
from mdm.menus import complete_from_plan, menu_da_plan, menu_ttc


def random_profile(rng: random.Random, n: int, m: int, truncation: float) -> Profile:
    """n applicants and m institutions; with the given probability a list is cut at a random length."""

    def ranked(k: int) -> tuple[int, ...]:
        order = rng.sample(range(k), k)
        return tuple(order[: rng.randint(0, k)]) if rng.random() < truncation else tuple(order)

    return Profile(
        tuple(f"d{d}" for d in range(n)),
        tuple(f"h{h}" for h in range(m)),
        tuple(ranked(m) for _ in range(n)),
        tuple(ranked(n) for _ in range(m)),
    )


def logged(fn, *args):
    log = QueryLog()
    return fn(*args, log=log), log.events


def flipped(matching: Matching, events: list[tuple]) -> tuple[Matching, list[tuple]]:
    side = {APPLICANT: INSTITUTION, INSTITUTION: APPLICANT}
    return Matching(frozenset((b, a) for a, b in matching.pairs)), [(e[0], side[e[1]], *e[2:]) for e in events]


def markets(count: int):
    rng = random.Random("da-events")
    for _ in range(count):
        yield random_profile(rng, rng.randint(1, 12), rng.randint(1, 12), rng.choice((0.0, 0.3, 0.7)))


@pytest.mark.parametrize("chunk", range(4))
def test_da_events_identical_to_oracle(chunk):
    for t, p in enumerate(markets(400)):
        if t % 4 != chunk:
            continue
        assert logged(apda, p) == da_reference(p, APPLICANT)
        assert logged(ipda, p) == da_reference(p, INSTITUTION)
        assert logged(receiver_optimal, p) == receiver_optimal_reference(p)
        transposed = Profile(p.institution_names, p.applicant_names, p.institution_prios, p.applicant_prefs)
        assert logged(receiver_optimal, p, APPLICANT) == flipped(*receiver_optimal_reference(transposed))


def test_complete_from_plan_events_identical_to_oracle():
    rng = random.Random("complete-events")
    for p in markets(120):
        i = rng.randrange(p.n_applicants)
        plan = menu_da_plan(i, p)
        report = tuple(rng.sample(range(p.n_institutions), rng.randint(0, p.n_institutions)))
        got = logged(complete_from_plan, plan, report)
        # complete_from_plan unrolls the picked chain, then resumes the chain phase.
        mu = dict(plan.tentative.by_applicant)
        d_term = set(plan.terminal) | {i}
        pick = next((h for h in report if h in plan.menu), None)
        if pick is not None:
            for d, h in plan.dag.chain_from((i, pick)):
                if h is None:
                    mu.pop(d, None)
                else:
                    mu[d] = h
                d_term.add(d)
        events: list[tuple] = []
        expected = chain_phase_reference(p.with_prefs(i, report), mu, list(plan.pointers), d_term, events)
        assert got == (expected, events)


@pytest.mark.parametrize("seed, truncation", [(1, 0.0), (2, 0.3)])
def test_every_proposal_policy_gives_one_matching_at_150(seed, truncation):
    p = gen_random_market(150, seed, truncation_prob=truncation)
    base_a, base_i = apda(p), ipda(p)
    assert base_a == da_reference(p, APPLICANT)[0]
    assert base_i == da_reference(p, INSTITUTION)[0]
    for kind in PROPOSAL_KINDS:
        assert apda(p, ProposalPolicy(kind, seed)) == base_a
        assert ipda(p, ProposalPolicy(kind, seed)) == base_i


def assert_ttc_matches_oracle(p: Profile, seed: int, absents) -> None:
    for kind in CYCLE_KINDS:
        for absent in absents:
            got = _ttc_rounds(p, CyclePolicy(kind, seed), absent)
            assert got == ttc_rounds_reference(p, kind, seed, absent), (kind, absent)


@pytest.mark.parametrize("truncation", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("n", range(1, 10))
def test_ttc_rounds_identical_to_oracle_on_small_markets(n, truncation):
    rng = random.Random(f"ttc/{n}/{truncation}")
    for t in range(75):
        p = random_profile(rng, n, rng.randint(1, 9), truncation)
        assert_ttc_matches_oracle(p, t, [None, *range(n)])
        if t < 10:  # menu_ttc reruns two of the policies above; a sample is enough
            for i in range(n):
                assert menu_ttc(i, p, check_invariance=True) == ttc_rounds_reference(p, CYCLE_KINDS[0], 0, i)[1]


@pytest.mark.parametrize("seed", [1, 2])
def test_ttc_rounds_identical_to_oracle_on_complete_lists_at_150(seed):
    p = gen_random_market(150, seed, truncation_prob=0.0)
    absents = [None, *random.Random(seed).sample(range(150), 8)]
    assert_ttc_matches_oracle(p, seed, absents)
    for i in absents[1:]:
        assert menu_ttc(i, p, check_invariance=True) == ttc_rounds_reference(p, CYCLE_KINDS[0], 0, i)[1]
