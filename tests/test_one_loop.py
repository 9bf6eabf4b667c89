"""apda, ipda and the DA menu run on one proposing loop; oracles.py keeps the routes they replaced.

apda had a loop of its own, and ipda ran it on the transposed profile. menu_da, menu_da_many_to_one and describe ran
ipda on a copy of the market with the applicant's list cleared, and read the menu off its matching. Now each runs the
loop of receiver_optimal's proposing phase, and the menu is read off that loop's pointers with the applicant
excluded. Every route must give the same matchings, the same list accesses under by-index, and the same menus.
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

from mdm.cli import main
from mdm.market import Profile, serialize_instance
from mdm.mechanisms import PROPOSAL_KINDS, ProposalPolicy, QueryLog, apda, ipda, ipda_without
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
