"""Each input is checked once, where it is made: one rule for ranked lists,
self-checking valuation matrices and vote profiles, checked random markets."""

import pytest

from mdm import auctions, market, voting
from mdm.auctions import (
    AuctionOutcome,
    ValuationMatrix,
    max_weight_matching,
    menu_additive,
    menu_unit_demand,
    serialize_auction,
    spa_outcome,
    vcg_additive,
    vcg_unit_demand,
)
from mdm.generators import BitProbeParams, CycleGridParams, cycle_grid_params, gen_cycle_grid, gen_random_market
from mdm.market import InstanceError, Profile, validate_profile
from mdm.mechanisms import CyclePolicy, ProposalPolicy, apda, serial_dictatorship, ttc
from mdm.menus import complete_from_plan, menu_da_plan, menu_oracle_exhaustive, menu_oracle_singleton, menu_sd
from mdm.verify import run_all, run_suite
from mdm.voting import VoteProfile, median_menu, median_outcome, serialize_votes

BAD_ENTRIES = ["a", None, 1.0, True]


def small(prefs=((0, 1), (1,)), prios=((0, 1), (1, 0))) -> Profile:
    return Profile(("a", "b"), ("x", "y"), prefs, prios)


@pytest.mark.parametrize("entry", BAD_ENTRIES, ids=repr)
@pytest.mark.parametrize("side", ["applicant", "institution"])
def test_validate_profile_rejects_any_non_int_entry(entry, side):
    p = small(prefs=((entry, 1), (1,))) if side == "applicant" else small(prios=((0, 1), (entry,)))
    owner, other = (0, "institution") if side == "applicant" else (1, "applicant")
    with pytest.raises(InstanceError) as err:
        validate_profile(p)
    assert str(err.value) == f"{side} {owner} lists invalid {other} index {entry!r}"


def test_non_int_entries_are_reported_with_the_other_problems_of_their_list():
    p = small(prefs=(("a", 1, 1, 5), (1,)))
    with pytest.raises(InstanceError) as err:
        validate_profile(p)
    assert str(err.value).splitlines() == [
        "applicant 0 lists invalid institution index 'a'",
        "applicant 0 lists some institution twice",
        "applicant 0 lists invalid institution index 5",
    ]


@pytest.mark.parametrize("entry", BAD_ENTRIES, ids=repr)
def test_with_prefs_with_a_bad_entry_gives_a_failing_profile(entry):
    p = small()
    validate_profile(p)
    q = p.with_prefs(0, (entry,))
    assert not q._checked
    with pytest.raises(InstanceError):
        validate_profile(q)


@pytest.mark.parametrize("prefs", [(True,), (1.0,), ("a",), (None,), (0, 0), (2,), (-1,)], ids=repr)
def test_complete_from_plan_rejects_a_bad_list(prefs):
    plan = menu_da_plan(1, small())
    with pytest.raises(InstanceError) as err:
        complete_from_plan(plan, prefs)
    assert str(err.value) == f"invalid preference list for applicant 1: {prefs!r}"


@pytest.mark.parametrize("applicant", [-1, 2, True, "a"], ids=repr)
def test_with_prefs_rejects_an_applicant_index_out_of_range(applicant):
    p = small()
    validate_profile(p)
    with pytest.raises(InstanceError) as err:
        p.with_prefs(applicant, (0,))
    assert str(err.value) == f"applicant index {applicant!r} out of range for 2 applicants"


def test_with_prefs_rejects_a_report_that_is_not_a_list():
    with pytest.raises(InstanceError) as err:
        small().with_prefs(0, 5)
    assert str(err.value) == "prefs: expected a list, got 5"


def test_complete_from_plan_rejects_a_report_that_is_not_a_list():
    plan = menu_da_plan(1, small())
    with pytest.raises(InstanceError) as err:
        complete_from_plan(plan, 5)
    assert str(err.value) == "prefs: expected a list, got 5"


@pytest.mark.parametrize(
    ("values", "bound", "text"),
    [
        (((1, 2), (3,)), 3, "values[1]: has 1 entries, expected 2"),
        (((1, 9),), 3, "values[0][1]: 9 is outside 0..3"),
        (((1, True),), 3, "values[0][1]: expected an integer, got True"),
        ((), 3, "values: need at least one bidder"),
        (((),), 1, "values: need at least one item"),
        (((1,),), -1, "K: must be a nonnegative integer, got -1\nvalues[0][0]: 1 is outside 0..-1"),
    ],
)
def test_an_invalid_matrix_raises_at_construction(values, bound, text):
    with pytest.raises(InstanceError) as err:
        ValuationMatrix(values, bound)
    assert str(err.value) == text


@pytest.mark.parametrize(
    ("candidates", "votes", "text"),
    [
        (5, (1, 2), "votes: need an odd number of voters, got 2"),
        (3, (1, 4, 2), "votes[1]: 4 is outside 1..3"),
        (3, (1, 2.0, 2), "votes[1]: expected an integer, got 2.0"),
        (0, (1,), "candidates: must be an integer >= 1, got 0\nvotes[0]: 1 is outside 1..0"),
    ],
)
def test_an_invalid_vote_profile_raises_at_construction(candidates, votes, text):
    with pytest.raises(InstanceError) as err:
        VoteProfile(candidates, votes)
    assert str(err.value) == text


def test_auction_and_voting_functions_do_not_recheck_their_input(monkeypatch):
    v = ValuationMatrix(((3, 1, 0), (2, 4, 1), (5, 0, 2), (1, 1, 1)), 5)
    votes = VoteProfile(7, (2, 7, 3, 3, 6))

    def recheck(_):
        raise AssertionError("an input was checked again after construction")

    monkeypatch.setattr(auctions, "validate_matrix", recheck)
    monkeypatch.setattr(voting, "validate_votes", recheck)
    vcg_additive(v)
    vcg_unit_demand(v)
    max_weight_matching(v)
    serialize_auction(v)
    serialize_votes(votes)
    assert median_outcome(votes) == 3
    for i in range(v.n_bidders):
        menu_additive(i, v)
        menu_unit_demand(i, v)
    for i in range(votes.n_voters):
        median_menu(votes, i)


@pytest.mark.parametrize("truncation_prob", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_random_markets_are_checked_and_valid(truncation_prob, seed):
    for n in range(1, 41):
        p = gen_random_market(n, seed, truncation_prob)
        assert p._checked
        assert market._profile_problems(p) == []
        assert p == Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios)


@pytest.mark.parametrize(
    ("build", "text"),
    [
        (lambda: Profile(("a",), ("x",), (None,), ((0,),)), "applicant_prefs[0]: expected a list, got None"),
        (lambda: Profile(("a",), ("x",), ((0,),), [(0,), 7]), "institution_prios[1]: expected a list, got 7"),
        (lambda: Profile(("a",), ("x",), ((0,),), ((0,),), 1), "capacities: expected a list, got 1"),
        (lambda: ValuationMatrix(None, 3), "values: expected a list, got None"),
        (lambda: ValuationMatrix(((1,), 5), 3), "values[1]: expected a list, got 5"),
        (lambda: VoteProfile(3, 5), "votes: expected a list, got 5"),
    ],
    ids=["profile-row", "profile-late-row", "profile-capacities", "matrix", "matrix-row", "votes"],
)
def test_a_field_that_is_not_a_list_is_an_instance_error_naming_it(build, text):
    with pytest.raises(InstanceError) as err:
        build()
    assert str(err.value) == text


def test_a_row_whose_iterator_fails_is_an_instance_error_naming_every_field():
    # The row claims to be iterable, so no field can be named: its failing iterator is spent.
    class Row:
        def __iter__(self):
            raise TypeError("no rows")

    with pytest.raises(InstanceError) as err:
        Profile(("a",), ("x",), (Row(),), ((0,),))
    assert str(err.value) == (
        "applicant_names, institution_names, applicant_prefs, institution_prios, capacities: expected lists"
    )


@pytest.mark.parametrize(
    ("build", "text"),
    [
        (lambda: CyclePolicy("x"), "unknown cycle policy 'x'"),
        (lambda: menu_oracle_singleton("x", 0, small()),
         "unknown mechanism tag 'x'; expected one of ('sd', 'ttc', 'apda')"),
        (lambda: AuctionOutcome((frozenset(),), (0, 0)), "allocation and prices must cover the same bidders"),
        (lambda: AuctionOutcome((frozenset(),), (-1,)), "prices[0]: must be a nonnegative integer, got -1"),
        (lambda: spa_outcome((3, True)), "bids[1]: must be a nonnegative integer, got True"),
        (lambda: CycleGridParams(8, ((),), (False, False)),
         "need one subset and one truncation flag per top cycle (2)"),
        (lambda: CycleGridParams(8, ((2, 2), ()), (False, False)), "subsets[0]: entries must be distinct"),
        (lambda: cycle_grid_params(small()), "not a paired-cycles market"),
        (lambda: cycle_grid_params(gen_cycle_grid(CycleGridParams(4, ((),), (False,))).with_prefs(0, ())),
         "applicant 0 does not lead with her own institution"),
        (lambda: BitProbeParams(2, ((0, 1),), (0, 0)), "bits must be a k-by-k matrix"),
    ],
    ids=["cycle-policy", "mechanism-tag", "outcome-length", "outcome-price", "bool-bid", "grid-counts",
         "grid-repeat", "not-a-grid", "grid-lead", "bits-not-square"],
)
def test_each_remaining_input_check_names_what_it_rejects(build, text):
    with pytest.raises(InstanceError) as err:
        build()
    assert str(err.value) == text


def test_serial_dictatorship_names_an_order_that_is_not_a_list():
    with pytest.raises(InstanceError) as err:
        serial_dictatorship(small(), None)
    assert str(err.value) == "order: expected a list, got None"


def test_menu_sd_names_an_order_that_is_not_a_list():
    with pytest.raises(InstanceError) as err:
        menu_sd(0, small(), 5)
    assert str(err.value) == "order: expected a list, got 5"


@pytest.mark.parametrize("oracle", [menu_oracle_singleton, menu_oracle_exhaustive])
def test_menu_oracles_read_a_one_shot_order_once(oracle):
    # Every probed report runs serial dictatorship in the same order, so an iterator must not be spent on the first.
    assert oracle("sd", 1, small(), iter([0, 1])) == oracle("sd", 1, small(), [0, 1]) == frozenset({1})
    with pytest.raises(InstanceError) as err:
        oracle("sd", 1, small(), 5)
    assert str(err.value) == "order: expected a list, got 5"


SEED_TAKERS = {
    "proposal-policy": lambda seed: ProposalPolicy("seeded-random", seed),
    "cycle-policy": lambda seed: CyclePolicy("seeded-random", seed),
    "by-index-policy": lambda seed: ProposalPolicy("by-index", seed),
    "random-market": lambda seed: gen_random_market(3, seed),
    "run-suite": lambda seed: run_suite("stability", trials=1, seed=seed),
    "run-all": lambda seed: run_all(seed),
}


@pytest.mark.parametrize("seed", [None, [1], True, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("take", SEED_TAKERS.values(), ids=SEED_TAKERS.keys())
def test_a_seed_that_is_not_an_integer_is_rejected_where_it_enters(take, seed):
    with pytest.raises(InstanceError) as err:
        take(seed)
    assert str(err.value) == f"seed must be an integer, got {seed!r}"


@pytest.mark.parametrize("seed", [0, -7, 2**70])
def test_any_integer_is_a_seed_and_draws_the_same_each_time(seed):
    p = gen_random_market(6, seed, 0.3)
    assert p == gen_random_market(6, seed, 0.3)
    assert ttc(p, CyclePolicy("seeded-random", seed)) == ttc(p, CyclePolicy("seeded-random", seed))
    assert apda(p, ProposalPolicy("seeded-random", seed)) == apda(p, ProposalPolicy("seeded-random", seed))
    assert run_suite("stability", trials=2, seed=seed).ok
