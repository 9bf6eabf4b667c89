"""The scan against each applicant's rank list, checked against the scan that read her match in mu_d.

The proposing loop and the chain phase keep held[d], the rank of d's match in
her own list, and compare each offer with it. oracles.py keeps the earlier
route, whose scan read mu_d and the rank table on every step. Both routes
must end in the same matching, the same tentative matching and pointers, and
make the same list accesses: in receiver_optimal from either side, in
complete_from_plan, and in the plan's capture run.
"""

import random

import pytest

from oracles import (
    complete_from_plan_reference,
    propose_reference,
    resume_receiver_optimal_reference,
)

import mdm.menus
from mdm.market import APPLICANT, INSTITUTION, Matching, Profile
from mdm.mechanisms import QueryLog, _propose, receiver_optimal, resume_receiver_optimal
from mdm.menus import _hold_run, complete_from_plan, menu_da_plan

TRUNCATIONS = (0.0, 0.3, 0.7)


def random_market(rng: random.Random, truncation: float) -> Profile:
    """3..40 applicants and 3..40 institutions; with the given probability a list is cut at a random length."""
    n, m = rng.randint(3, 40), rng.randint(3, 40)

    def ranked(k: int) -> tuple[int, ...]:
        order = rng.sample(range(k), k)
        return tuple(order[: rng.randrange(k)]) if rng.random() < truncation else tuple(order)

    return Profile(
        tuple(f"d{d}" for d in range(n)),
        tuple(f"h{h}" for h in range(m)),
        tuple(ranked(m) for _ in range(n)),
        tuple(ranked(n) for _ in range(m)),
    )


def markets(truncation: float, count: int):
    rng = random.Random(f"rank-list/{truncation}")
    for _ in range(count):
        yield rng, random_market(rng, truncation)


def run(propose, resume, p: Profile):
    """receiver_optimal's two phases by one route: the matching, the final mu_d and pointers, and the events."""
    log, mu, nxt = QueryLog(), {}, [0] * p.n_institutions
    propose(p, mu, nxt, log)
    return resume(p, mu, nxt, set(), log), mu, nxt, log.events


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_receiver_optimal_from_both_sides_matches_the_scan_that_read_mu(truncation):
    flip = {APPLICANT: INSTITUTION, INSTITUTION: APPLICANT}
    for _, p in markets(truncation, 40):
        for q, side in ((p, INSTITUTION), (p.transposed(), APPLICANT)):
            got = run(_propose, resume_receiver_optimal, q)
            expected = run(propose_reference, resume_receiver_optimal_reference, q)
            assert got == expected, (p, side)
            log = QueryLog()
            mu = receiver_optimal(p, side, log)
            if side == APPLICANT:
                mu = Matching((h, d) for d, h in mu.pairs)
                log.events[:] = [(e[0], flip[e[1]], *e[2:]) for e in log.events]
            assert (mu, log.events) == (expected[0], expected[3]), (p, side)


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_complete_from_plan_matches_the_scan_that_read_mu(truncation, monkeypatch):
    finished = []

    def keep_state(p, mu_d, nxt, d_term, log=None):
        out = resume_receiver_optimal(p, mu_d, nxt, d_term, log)
        finished.append((mu_d, nxt))
        return out

    monkeypatch.setattr(mdm.menus, "resume_receiver_optimal", keep_state)
    unrolled = 0
    for rng, p in markets(truncation, 25):
        m = p.n_institutions
        for i in rng.sample(range(p.n_applicants), 3):
            plan = menu_da_plan(i, p)
            # The empty list, a complete list, a list led by a menu pick and a random partial one.
            picks = tuple(rng.sample(sorted(plan.menu), len(plan.menu)))
            reports = [(), tuple(rng.sample(range(m), m)), picks, tuple(rng.sample(range(m), rng.randint(1, m)))]
            for report in reports:
                log, ref_log = QueryLog(), QueryLog()
                got = complete_from_plan(plan, report, log)
                expected = complete_from_plan_reference(plan, report, ref_log)
                assert (got, *finished.pop(), log.events) == (*expected, ref_log.events), (p, i, report)
                unrolled += report[:1] == picks[:1] != ()
    assert unrolled > 0


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_the_capture_run_matches_the_scan_that_read_mu(truncation):
    for rng, p in markets(truncation, 40):
        for i in rng.sample(range(p.n_applicants), 3):
            q = p.with_prefs(i, ())
            log, ref_log, mu, nxt = QueryLog(), QueryLog(), {}, [0] * q.n_institutions
            captured = sorted(propose_reference(q, mu, nxt, ref_log, capture=i))
            assert (_hold_run(q, i, log), log.events) == ((mu, nxt, captured), ref_log.events), (p, i)
