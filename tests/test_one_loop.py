"""apda, ipda and the DA menu run on one proposing loop; oracles.py keeps the routes they replaced.

apda had a loop of its own, and ipda ran it on the transposed profile. menu_da, menu_da_many_to_one and describe ran
ipda on a copy of the market with the applicant's list cleared, and read the menu off its matching. Now each runs the
loop of receiver_optimal's proposing phase, and the menu is read off that loop's pointers with the applicant
excluded. Every route must give the same matchings, the same list accesses under by-index, and the same menus.
The loop's rank list, held, which it returns and the kept run stores, is checked against its sentinels at the end.
"""

import json
import random

import pytest

from oracles import (
    apda_loop_reference,
    ipda_transposed_reference,
    menu_da_reference,
    others_matching_reference,
)

import mdm.mechanisms
from mdm.cli import main
from mdm.market import APPLICANT, INSTITUTION, Profile, serialize_instance
from mdm.mechanisms import (
    PROPOSAL_KINDS,
    ProposalPolicy,
    QueryLog,
    _ipda_run,
    _next_accepting,
    _propose,
    apda,
    ipda,
    ipda_without,
)
from mdm.menus import menu_da, menu_da_from_matching, menu_da_many_to_one

TRUNCATIONS = (0.0, 0.3, 0.7)


def random_market(rng: random.Random, truncation: float, max_capacity: int = 1) -> Profile:
    """3..40 applicants and 3..40 institutions of capacity 1..max_capacity; with the given probability a list is cut
    at a random length."""
    n, m = rng.randint(3, 40), rng.randint(3, 40)

    def ranked(k: int) -> tuple[int, ...]:
        order = rng.sample(range(k), k)
        return tuple(order[: rng.randrange(k)]) if rng.random() < truncation else tuple(order)

    return Profile(
        tuple(f"d{d}" for d in range(n)),
        tuple(f"h{h}" for h in range(m)),
        tuple(ranked(m) for _ in range(n)),
        tuple(ranked(n) for _ in range(m)),
        tuple(rng.randint(1, max_capacity) for _ in range(m)),
    )


def markets(name: str, truncation: float, count: int, max_capacity: int = 1):
    rng = random.Random(f"{name}/{truncation}")
    for _ in range(count):
        yield rng, random_market(rng, truncation, max_capacity)


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_apda_and_ipda_match_the_loops_they_replaced(truncation):
    for rng, p in markets("one-loop", truncation, 40):
        for mechanism, reference in ((apda, apda_loop_reference), (ipda, ipda_transposed_reference)):
            log, ref_log = QueryLog(), QueryLog()
            expected = reference(p, ref_log)
            assert (mechanism(p, log=log), log.events) == (expected, ref_log.events), (mechanism, p)
            for kind in PROPOSAL_KINDS:
                assert mechanism(p, ProposalPolicy(kind, rng.randrange(100))) == expected, (mechanism, kind, p)


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_menus_and_the_others_matching_match_the_route_they_replaced(truncation):
    for rng, p in markets("menus", truncation, 30):
        for i in rng.sample(range(p.n_applicants), 3):
            others, menu = ipda_without(i, p)
            assert others == others_matching_reference(i, p), (p, i)
            assert menu == menu_da(i, p) == menu_da_from_matching(i, p) == menu_da_reference(i, p), (p, i)


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_capacitated_menus_match_the_expand_and_collapse_route(truncation):
    spare = 0
    for rng, p in markets("capacitated", truncation, 30, max_capacity=4):
        for i in rng.sample(range(p.n_applicants), 3):
            others, menu = ipda_without(i, p)
            assert others == others_matching_reference(i, p), (p, i)
            assert menu == menu_da_many_to_one(i, p) == menu_da_reference(i, p), (p, i)
            load = [0] * p.n_institutions
            for _, h in others.pairs:
                load[h] += 1
            spare += any(0 < load[h] < p.capacities[h] for h in menu)
    assert spare  # some menu institution is partly filled, so a copy holds someone while another is free


def test_describe_prints_the_matching_and_menu_of_the_route_it_replaced(tmp_path, capsys):
    rng = random.Random("describe")
    for t in range(6):
        p = random_market(rng, TRUNCATIONS[t % 3])
        path = tmp_path / f"{t}.json"
        path.write_text(serialize_instance(p))
        i = rng.randrange(p.n_applicants)
        name = p.applicant_names[i]
        assert main(["describe", "--applicant", name, "--format", "json", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        others = others_matching_reference(i, p).by_applicant
        matched = {p.applicant_names[d]: p.institution_names[h] for d, h in others.items()}
        unmatched = sorted(set(p.applicant_names) - set(matched) - {name})
        assert doc["hypothetical"] == {"matched": matched, "unmatched": unmatched}
        assert doc["menu"] == sorted(p.institution_names[h] for h in menu_da_reference(i, p))


# Two proposers over three receivers: receiver 0 lists proposer 1, receiver 1 lists proposer 0, receiver 2 nobody.
SCAN_LISTS = ((0, 2, 1), (0,))
SCAN_RANK = ({1: 0}, {0: 0}, {})


def scan(held: list[int], nxt: list[int], a: int) -> tuple[int | None, list[int], list[tuple]]:
    log = QueryLog()
    b = _next_accepting(SCAN_LISTS, SCAN_RANK, held, nxt, a, log)
    return b, nxt, log.events


def test_a_receiver_holding_more_than_the_proposers_takes_an_unlisted_one_and_logs_no_lookup():
    assert scan([3, 2, 2], [0, 0], 0) == (0, [1, 0], [("read", INSTITUTION, 0, 0, 0)])


def test_a_receiver_holding_minus_one_turns_down_a_proposer_she_lists():
    assert scan([-1, 2, 2], [0, 0], 1) == (None, [0, 1], [("read", INSTITUTION, 1, 0, 0), ("lookup", APPLICANT, 0, 1)])


def test_a_receiver_holding_the_number_of_proposers_takes_only_one_she_lists():
    events = [event for b in (0, 2, 1) for event in (("read", INSTITUTION, 0, SCAN_LISTS[0].index(b), b),
                                                     ("lookup", APPLICANT, b, 0))]
    assert scan([2, 2, 2], [0, 0], 0) == (1, [3, 0], events)


def held_of(lists, rank, mu: dict[int, int], capture: int | None = None) -> list[int]:
    """Per receiver, the rank of the proposer it holds in mu, len(lists) for nobody, one more for the capture."""
    held = [len(lists)] * len(rank)
    for b, a in mu.items():
        held[b] = rank[b][a]
    if capture is not None:
        held[capture] = len(lists) + 1
    return held


@pytest.mark.parametrize("max_capacity", [1, 2, 3])
@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_the_proposing_loop_returns_the_rank_list_of_its_holds(truncation, max_capacity):
    for rng, p in markets(f"held/{max_capacity}", truncation, 12, max_capacity):
        sides = [(INSTITUTION, p.institution_prios, p.applicant_rank)]
        if max_capacity == 1:
            sides.append((APPLICANT, p.applicant_prefs, p.institution_rank))
        for proposing, lists, rank in sides:
            for kind in PROPOSAL_KINDS:
                mu = {}
                held = _propose(p, mu, [0] * len(lists), None, policy=ProposalPolicy(kind, 3), proposing=proposing)
                assert held == held_of(lists, rank, mu), (p, proposing, kind)
        i = rng.randrange(p.n_applicants)
        q = p.with_prefs(i, ())
        for kind in PROPOSAL_KINDS:
            mu = {}
            held = _propose(q, mu, [0] * q.n_institutions, None, i, policy=ProposalPolicy(kind, 5))
            assert i not in mu and held == held_of(q.institution_prios, q.applicant_rank, mu, i), (p, i, kind)


def test_the_kept_run_keeps_the_rank_list_the_loop_returned(monkeypatch):
    returned = []
    monkeypatch.setattr(mdm.mechanisms, "_propose", lambda *args: returned.append(_propose(*args)) or returned[-1])
    for _, p in markets("kept", 0.3, 10, max_capacity=3):
        mu, held, _ = _ipda_run(p)
        assert held is returned[-1] and held == held_of(p.institution_prios, p.applicant_rank, mu), p
        assert vars(p)["_ipda_run"][1] is held
