"""Every deferred-acceptance walk reads each proposing list in rank order and no entry twice.

Judged on QueryLog events, not on time: for each owner on the proposing
side, the ranks read must run 0, 1, 2, ... with no gap and no repeat, and
each read must name the entry at that rank. The plan followed by its
completion counts as one walk, since the completion resumes the plan's
pointers. Run on the structured families of oracles.py, where the walks
are longest, and on random markets.
"""

import pytest

from oracles import STRUCTURED_FAMILIES, da_reference

from mdm.generators import gen_random_market
from mdm.market import APPLICANT, INSTITUTION
from mdm.mechanisms import PROPOSAL_KINDS, ProposalPolicy, QueryLog, apda, ipda, receiver_optimal
from mdm.menus import complete_from_plan, menu_da_plan

FAMILY_MARKETS = [(name, n) for name in STRUCTURED_FAMILIES for n in (5, 17, 30)]
RANDOM_MARKETS = [(n, t) for n in range(2, 13) for t in (0.0, 0.3, 0.7)]


def market(case):
    if isinstance(case[0], str):
        name, n = case
        return STRUCTURED_FAMILIES[name](n)
    n, t = case
    return gen_random_market(n, 100 * n + int(10 * t), t)


def assert_rank_order(events, side, lists):
    """Each owner's reads on side run down lists[owner] from the top, one entry at a time; returns the read count."""
    at: dict[int, int] = {}
    count = 0
    for event in events:
        if event[0] == "read" and event[1] == side:
            _, _, owner, rank, subject = event
            assert rank == at.get(owner, -1) + 1, f"{side} {owner} read rank {rank} after {at.get(owner)}"
            assert lists[owner][rank] == subject, event
            at[owner] = rank
            count += 1
    assert count == sum(rank + 1 for rank in at.values())
    return count


CASES = FAMILY_MARKETS + RANDOM_MARKETS
IDS = [f"{a}-{b}" for a, b in CASES]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_the_plan_and_its_completions_read_each_priority_list_once_in_order(case):
    p = market(case)
    n = p.n_applicants
    for i in sorted({0, n // 2, n - 1}):
        plan_log = QueryLog()
        plan = menu_da_plan(i, p, plan_log)
        own = p.applicant_prefs[i]
        for prefix in sorted({0, 1, len(own) // 2, len(own)}):
            log = QueryLog(list(plan_log.events))
            prefs = own[:prefix]
            assert complete_from_plan(plan, prefs, log) == apda(p.with_prefs(i, prefs)), (i, prefix)
            assert_rank_order(log.events, INSTITUTION, p.institution_prios)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_receiver_optimal_reads_each_proposing_list_once_in_order_from_both_sides(case):
    p = market(case)
    sides = [(INSTITUTION, p.institution_prios, APPLICANT), (APPLICANT, p.applicant_prefs, INSTITUTION)]
    for side, lists, other in sides:
        log = QueryLog()
        mu = receiver_optimal(p, side, log)
        assert mu == da_reference(p, other)[0]
        assert_rank_order(log.events, side, lists)


@pytest.mark.parametrize("kind", PROPOSAL_KINDS)
@pytest.mark.parametrize("case", CASES[::4], ids=IDS[::4])
def test_apda_and_ipda_read_each_proposing_list_once_in_order_under_every_policy(case, kind):
    p = market(case)
    for run, side, lists in [(apda, APPLICANT, p.applicant_prefs), (ipda, INSTITUTION, p.institution_prios)]:
        log = QueryLog()
        run(p, ProposalPolicy(kind, 3), log)
        assert_rank_order(log.events, side, lists)


@pytest.mark.parametrize("n", [5, 17, 30])
@pytest.mark.parametrize("name", ["common-lists", "reversed-priorities"])
def test_applicant_proposing_reads_a_triangle_on_both_common_families(name, n):
    # Under common applicant lists the k-th applicant to settle has read k entries: n(n+1)/2 in all.
    p = STRUCTURED_FAMILIES[name](n)
    log = QueryLog()
    apda(p, log=log)
    assert assert_rank_order(log.events, APPLICANT, p.applicant_prefs) == n * (n + 1) // 2
