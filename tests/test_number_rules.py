"""Every number from outside answers to one rule per kind, in mdm.market: an agent index is an
int, not a bool, in range; an integer field is ``type(x) is int``; a row of integers in lo..hi is
checked by one helper. Each breach is an InstanceError that names the bad value."""

import pytest

from mdm.auctions import ValuationMatrix, menu_additive, menu_unit_demand, parse_auction, spa_menu
from mdm.descriptions import (
    DescriptionError,
    ExtensiveFormDescription,
    Query,
    Vertex,
    build_spa_menu_description,
    count_induced_functions,
    validate_description,
)
from mdm.generators import BitProbeParams, gen_random_market
from mdm.market import InstanceError, Matching, Profile, blocking_pairs, validate_matching
from mdm.mechanisms import serial_dictatorship
from mdm.menus import menu_da, menu_sd
from mdm.verify import run_suite
from mdm.voting import VoteProfile, median_menu, parse_votes

MARKET = Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (1, 0), (0,)), ((0, 1, 2), (2, 1, 0)))
MATRIX = ValuationMatrix(((3, 1), (2, 4), (5, 0)), 5)
VOTES = VoteProfile(7, (2, 7, 3))

MENUS = {
    "menu_da": (lambda i: menu_da(i, MARKET), "applicant"),
    "menu_sd": (lambda i: menu_sd(i, MARKET, range(3)), "applicant"),
    "spa_menu": (lambda i: spa_menu(i, (3, 5, 4)), "bidder"),
    "menu_additive": (lambda i: menu_additive(i, MATRIX), "bidder"),
    "menu_unit_demand": (lambda i: menu_unit_demand(i, MATRIX), "bidder"),
    "median_menu": (lambda i: median_menu(VOTES, i), "voter"),
}


@pytest.mark.parametrize("i", [0.5, 1.0, True, False, 3, -1, "1", None], ids=repr)
@pytest.mark.parametrize("engine", MENUS)
def test_every_menu_function_rejects_an_index_that_is_not_an_int_in_range(engine, i):
    menu, noun = MENUS[engine]
    with pytest.raises(InstanceError) as err:
        menu(i)
    assert str(err.value) == f"{noun} index {i!r} out of range for 3 {noun}s"


@pytest.mark.parametrize("pair", [(0.0, 0), (0, True), (3, 0), (0, -1)], ids=repr)
def test_a_matching_pair_with_a_bad_index_references_a_nonexistent_agent(pair):
    with pytest.raises(InstanceError) as err:
        validate_matching(MARKET, Matching([pair]))
    assert str(err.value) == f"pair ({pair[0]}, {pair[1]}) references a nonexistent agent"


@pytest.mark.parametrize(
    ("k", "bits", "probe", "text"),
    [
        (True, ((1,),), (0, 0), "k must be a positive integer, got True"),
        (1, ((True,),), (0, 0), "bits[0][0]: expected an integer, got True"),
        (2, ((0, 1), (2, 0)), (0, 0), "bits[1][0]: 2 is outside 0..1"),
        (1, ((1,),), (0.5, 0), "probe (0.5, 0) is outside the matrix"),
        (1, ((1,),), (0, False), "probe (0, False) is outside the matrix"),
        (1, ((1,),), (0,), "probe (0,) is outside the matrix"),
    ],
)
def test_bit_probe_params_take_ints_only(k, bits, probe, text):
    with pytest.raises(InstanceError) as err:
        BitProbeParams(k, bits, probe)
    assert str(err.value) == text


def test_a_matrix_with_a_bound_that_is_not_an_int_reports_only_the_bound():
    with pytest.raises(InstanceError) as err:
        ValuationMatrix(((1,),), "3")
    assert str(err.value) == "K: must be a nonnegative integer, got '3'"


def test_matrix_rows_and_votes_answer_to_the_same_row_rule():
    with pytest.raises(InstanceError) as err:
        ValuationMatrix(((1, True, 7), (0.0, 2, 3)), 5)
    assert str(err.value).splitlines() == [
        "values[0][1]: expected an integer, got True",
        "values[0][2]: 7 is outside 0..5",
        "values[1][0]: expected an integer, got 0.0",
    ]
    with pytest.raises(InstanceError) as err:
        VoteProfile(5, (1, True, 7))
    assert str(err.value).splitlines() == ["votes[1]: expected an integer, got True", "votes[2]: 7 is outside 1..5"]


@pytest.mark.parametrize(
    ("parse", "doc", "text"),
    [
        (parse_auction, '{"values": [[1]], "x": 0}', "top level: unknown field 'x'\ntop level: missing field 'K'"),
        (parse_auction, '{"K": 1, "values": [1]}', "values: expected a list of lists"),
        (parse_auction, '{"K": 1, "values": 1}', "values: expected a list of lists"),
        (parse_votes, '{"votes": [1], "x": 0}', "top level: unknown field 'x'\ntop level: missing field 'C'"),
        (parse_votes, '{"C": 1, "votes": {}}', "votes: expected a list"),
    ],
)
def test_both_small_formats_report_their_fields_and_shape_alike(parse, doc, text):
    with pytest.raises(InstanceError) as err:
        parse(doc)
    assert str(err.value) == text


def _one_step(first: Vertex) -> ExtensiveFormDescription:
    """A two-layer description: the given vertex, then one sink."""
    return ExtensiveFormDescription(((first,), (Vertex(label="done"),)))


def _asking(player: object = 0, kind: str = "scalar-value", arg: object = None) -> Vertex:
    return Vertex(player=player, query=Query(kind, (0,), arg), table={0: (1, 0)})


# (error type, call on the bad value, bad value): every count, picking order, probability and matching entry
# a library caller passes, each of which the hand-written checks let through or let escape as a TypeError
# or ValueError.
BAD_NUMBERS = {
    "sd order holding a bool": (InstanceError, lambda x: serial_dictatorship(MARKET, (0, x, 2)), True),
    "sd order holding a float": (InstanceError, lambda x: serial_dictatorship(MARKET, (x, 1, 2)), 0.0),
    "menu_sd order holding a bool": (InstanceError, lambda x: menu_sd(1, MARKET, (0, x, 2)), True),
    "random market of 2.5 agents": (InstanceError, lambda x: gen_random_market(x, 0), 2.5),
    "random market of '3' agents": (InstanceError, lambda x: gen_random_market(x, 0), "3"),
    "random market of True agents": (InstanceError, lambda x: gen_random_market(x, 0), True),
    "truncation probability '0.3'": (InstanceError, lambda x: gen_random_market(3, 0, x), "0.3"),
    "truncation probability None": (InstanceError, lambda x: gen_random_market(3, 0, x), None),
    "truncation probability True": (InstanceError, lambda x: gen_random_market(3, 0, x), True),
    "suite size 2.5": (InstanceError, lambda x: run_suite("stability", trials=3, size=x), 2.5),
    "suite size True": (InstanceError, lambda x: run_suite("stability", trials=3, size=x), True),
    "trial count 2.5": (InstanceError, lambda x: run_suite("stability", trials=x), 2.5),
    "trial count 0": (InstanceError, lambda x: run_suite("stability", trials=x), 0),
    "suite 'nope'": (InstanceError, lambda x: run_suite(x), "nope"),
    "SPA description of 2.5 bidders": (ValueError, lambda x: build_spa_menu_description(x, 3), 2.5),
    "SPA description with bid bound 1.5": (ValueError, lambda x: build_spa_menu_description(3, x), 1.5),
    "induced functions of 4.0": (ValueError, lambda x: count_induced_functions(x), 4.0),
    "vertex asking player True": (DescriptionError, lambda x: validate_description(_one_step(_asking(x))), True),
    "edge to layer True": (DescriptionError, lambda x: validate_description(_one_step(Vertex(succ=(x, 0)))), True),
    "rank query at position 0.5": (
        DescriptionError, lambda x: validate_description(_one_step(_asking(kind="rank", arg=x))), 0.5,
    ),
    "matching entry of one index": (InstanceError, lambda x: validate_matching(MARKET, Matching([x])), (0,)),
    "matching entry of three indices": (InstanceError, lambda x: validate_matching(MARKET, Matching([x])), (0, 0, 0)),
    "matching entry that is an int": (InstanceError, lambda x: validate_matching(MARKET, Matching([x])), 5),
    "blocking pairs of a one-index entry": (InstanceError, lambda x: blocking_pairs(MARKET, Matching([x])), (0,)),
    "blocking pairs of an int entry": (InstanceError, lambda x: blocking_pairs(MARKET, Matching([x])), 5),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_every_count_order_and_probability_rejects_a_bad_value_by_name(case):
    error, call, value = BAD_NUMBERS[case]
    with pytest.raises(error) as err:
        call(value)
    assert type(err.value) is error
    assert repr(value) in str(err.value)


def test_a_pair_of_another_type_is_reported_after_the_pairs_of_ints_which_keep_their_order():
    pairs = [(2, 1), ("a", 0), (5, 0), (0, 1), (None, 1), (0, 0)]
    with pytest.raises(InstanceError) as err:
        validate_matching(MARKET, Matching(pairs))
    assert str(err.value).splitlines() == [
        "applicant 0 is matched twice",
        "applicant 2 does not list institution 1",
        "pair (5, 0) references a nonexistent agent",
        "pair (a, 0) references a nonexistent agent",  # other types after the ints, by repr: "'a'" < "None"
        "pair (None, 1) references a nonexistent agent",
        "institution 1 holds 2 applicants, capacity 1",
    ]


@pytest.mark.parametrize("prob", [0, 1, 0.3, 1.0])
def test_a_truncation_probability_may_be_an_int_or_a_float(prob):
    assert gen_random_market(4, 7, prob).n_applicants == 4
