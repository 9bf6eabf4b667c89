"""Deferred acceptance takes its proposing side as a parameter, in the proposing loop and in the chain phase alike.

receiver_optimal(p, APPLICANT) runs both phases on p itself from the applicant
side: no transposed copy, no derived profile. Its matching and its list
accesses must equal the institution-proposing route on the transposed market,
flipped back, and the chain phase resumed from the applicant side must leave
the same state as on the transposed market.
"""

import random

import pytest

from oracles import receiver_optimal_reference

from mdm.generators import gen_random_market
from mdm.market import APPLICANT, INSTITUTION, InstanceError, Matching, Profile
from mdm.mechanisms import QueryLog, _propose, receiver_optimal, resume_receiver_optimal

SIDE = {APPLICANT: INSTITUTION, INSTITUTION: APPLICANT}


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


def markets():
    """n = 1..12 on each side at truncation 0, 0.3 and 0.7, then the two complete-list markets of 150 agents."""
    rng = random.Random("side-swap")
    for truncation in (0.0, 0.3, 0.7):
        for n in range(1, 13):
            for _ in range(4):
                yield random_profile(rng, n, rng.randint(1, 12), truncation)
    for seed in (1, 2):
        yield gen_random_market(150, seed, truncation_prob=0.0)


def transposed(p: Profile) -> Profile:
    """p with the sides swapped, built by the constructor rather than by Profile.transposed."""
    return Profile(p.institution_names, p.applicant_names, p.institution_prios, p.applicant_prefs)


def refuse(*args, **kwargs):
    raise AssertionError("derived a profile")


def test_applicant_side_equals_the_transposed_route_flipped_and_derives_no_profile(monkeypatch):
    cases = [(p, receiver_optimal_reference(transposed(p))) for p in markets()]
    monkeypatch.setattr(Profile, "transposed", refuse)
    monkeypatch.setattr(Profile, "_derive", classmethod(refuse))
    for p, (matching, events) in cases:
        log = QueryLog()
        got = receiver_optimal(p, APPLICANT, log)
        assert got == Matching((h, d) for d, h in matching.pairs), p
        assert log.events == [(e[0], SIDE[e[1]], *e[2:]) for e in events], p
        assert receiver_optimal(p, APPLICANT) == got


def resumed(q: Profile, proposing: str, n_proposers: int, rng: random.Random):
    """_propose then the chain phase, both from one side, with a random share of the receivers held terminal."""
    log, mu, nxt = QueryLog(), {}, [0] * n_proposers
    _propose(q, mu, nxt, log, proposing=proposing)
    d_term = {d for d in sorted(mu) if rng.random() < 0.3}
    return resume_receiver_optimal(q, mu, nxt, d_term, log, proposing), mu, nxt, log.events


def test_the_chain_phase_resumed_from_the_applicant_side_equals_it_on_the_transposed_market():
    for t, p in enumerate(markets()):
        got = resumed(p, APPLICANT, p.n_applicants, random.Random(t))
        expected = resumed(transposed(p), INSTITUTION, p.n_applicants, random.Random(t))
        assert got == expected, p


@pytest.mark.parametrize("side", ["applicants", "institutions", "bidders"])
def test_receiver_optimal_takes_one_spelling_per_side(side):
    p = random_profile(random.Random(side), 3, 3, 0.0)
    with pytest.raises(InstanceError) as err:
        receiver_optimal(p, side)
    assert str(err.value) == f"unknown proposing side {side!r}"


@pytest.mark.parametrize("side", [APPLICANT, INSTITUTION])
def test_receiver_optimal_refuses_a_capacitated_market_from_either_side(side):
    p = Profile(("a", "b"), ("x",), ((0,), (0,)), ((0, 1),), (2,))
    with pytest.raises(InstanceError) as err:
        receiver_optimal(p, side)
    assert str(err.value) == "this operation requires capacity 1 everywhere"
