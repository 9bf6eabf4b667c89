"""Plans and completions on the rank rows kept on the market, checked against the dict-scan route.

Unlogged, menu_da_plan(i, p) drains on p's kept rank rows (mdm.mechanisms._kept_rows), filled from p's ranks, and
complete_from_plan runs its chain phase on them with i's entries set to -1 for the run and put back after. Plans,
completions and menus in a random order on one reused market must each equal the reference
(oracles.menu_da_plan_reference, complete_from_plan_reference, ipda_without_reference) and the same call on a fresh
profile. Afterwards the rows hold only p's ranks, and a second round reads no rank dict from the rows' fill except
i's row in her completions. A completion that raises partway, or is given an invalid list, leaves the rows holding
p's ranks.
"""

import copy
import random

import pytest

from oracles import (
    STRUCTURED_FAMILIES,
    complete_from_plan_reference,
    ipda_without_reference,
    menu_da_plan_reference,
)
from test_chain_rows import assert_rows_hold_ranks, fresh, ranked

import mdm.mechanisms
from mdm.market import InstanceError, Profile
from mdm.mechanisms import apda
from mdm.menus import complete_from_plan, menu_da, menu_da_plan

TRUNCATIONS = (0.0, 0.3, 0.7)
FAMILY_MARKETS = [(name, n) for name in STRUCTURED_FAMILIES for n in (5, 17, 30)]


def markets(truncation: float, count: int = 30):
    """count unit-capacity markets of 1..40 applicants and 1..40 institutions; with the given probability a list is
    cut at a random length."""
    rng = random.Random(f"plan-rows/{truncation}")
    for _ in range(count):
        n, m = rng.randint(1, 40), rng.randint(1, 40)
        yield Profile(
            tuple(f"d{d}" for d in range(n)),
            tuple(f"h{h}" for h in range(m)),
            tuple(ranked(rng, m, truncation) for _ in range(n)),
            tuple(ranked(rng, n, truncation) for _ in range(m)),
        )


def plan_fields(plan) -> tuple:
    dag = plan.dag
    return (plan.applicant, plan.market, plan.menu, plan.tentative, plan.terminal, plan.pointers, dag.nodes, dag.out)


def reports(rng: random.Random, plan, m: int) -> list[tuple[int, ...]]:
    """The empty list, one led by a menu pick, a complete list and a random partial one."""
    picks = tuple(rng.sample(sorted(plan.menu), len(plan.menu)))
    return [(), picks, tuple(rng.sample(range(m), m)), tuple(rng.sample(range(m), rng.randint(1, m)))]


def schedule(rng: random.Random, p: Profile) -> list[tuple]:
    """Plans of a few applicants, each followed (not at once) by its completions, merged at random with menus."""
    n = p.n_applicants
    queues = [[("plan", i), *(("done", i, k) for k in range(4))] for i in rng.sample(range(n), min(n, 4))]
    queues.append([("menu", j) for j in rng.sample(range(n), min(n, 6))])
    ops = []
    while queues:
        queue = rng.choice(queues)
        ops.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    return ops


class RowReads:
    """A rank table that records whose row the rows' fill reads."""

    def __init__(self, table, read: list[int]) -> None:
        self.table, self.read = table, read

    def __getitem__(self, d: int):
        self.read.append(d)
        return self.table[d]


def check_market(p: Profile, rng: random.Random, monkeypatch) -> int:
    """Plans, completions and menus in a random order on p, each against the reference and a fresh profile; then
    the rows, and a second round in another order whose fill reads only the completing applicant's row. Returns how
    many reads of her row the second round made."""
    ops = schedule(rng, p)
    plans, fresh_plans, lists = {}, {}, {}
    for op in ops:
        if op[0] == "plan":
            i = op[1]
            plan = plans[i] = menu_da_plan(i, p)
            assert plan_fields(plan) == plan_fields(menu_da_plan_reference(i, p)), (p, i)
            fresh_plans[i] = menu_da_plan(i, fresh(p))
            assert plan_fields(fresh_plans[i]) == plan_fields(plan), (p, i)
            lists[i] = reports(rng, plan, p.n_institutions)
        elif op[0] == "done":
            i, report = op[1], lists[op[1]][op[2]]
            got = complete_from_plan(plans[i], report)
            assert got == complete_from_plan_reference(plans[i], report)[0], (p, i, report)
            assert got == complete_from_plan(fresh_plans[i], report) == apda(p.with_prefs(i, report)), (p, i, report)
        else:
            assert menu_da(op[1], p) == ipda_without_reference(op[1], p)[1], (p, op[1])
    assert_rows_hold_ranks(p)

    # Every entry the first round read is kept, so the second reads only the entries a completion set aside.
    read: list[int] = []
    own = 0
    scan = mdm.mechanisms._scan_row
    monkeypatch.setattr(mdm.mechanisms, "_scan_row", lambda row, ranked, rank, *rest: scan(
        row, ranked, RowReads(rank, read), *rest))
    ops = [op for op in ops if op[0] != "plan"]
    rng.shuffle(ops)
    for i in plans:
        plans[i] = menu_da_plan(i, p)
        assert read == [], (p, i)
    for op in ops:
        if op[0] == "done":
            i, report = op[1], lists[op[1]][op[2]]
            assert complete_from_plan(plans[i], report) == complete_from_plan_reference(plans[i], report)[0]
            assert set(read) <= {i}, (p, i, report)
            own += len(read)
        else:
            menu_da(op[1], p)
            assert read == [], (p, op[1])
        read.clear()
    monkeypatch.undo()
    assert_rows_hold_ranks(p)
    return own


@pytest.mark.parametrize("truncation", TRUNCATIONS)
def test_plans_and_completions_on_one_reused_market_match_the_dict_scan(truncation, monkeypatch):
    rng = random.Random(f"plan-row-orders/{truncation}")
    assert sum(check_market(p, rng, monkeypatch) for p in markets(truncation)) > 0


@pytest.mark.parametrize("name,n", FAMILY_MARKETS, ids=[f"{name}-{n}" for name, n in FAMILY_MARKETS])
def test_plans_and_completions_on_the_structured_families(name, n, monkeypatch):
    check_market(STRUCTURED_FAMILIES[name](n), random.Random(f"plan-row-family/{name}/{n}"), monkeypatch)


def test_a_completion_that_raises_partway_leaves_the_rows_holding_the_market_ranks(monkeypatch):
    scan = mdm.mechanisms._next_accepting_on_rows
    calls, patched = [0], [0]  # scans left before the raise; raises made while one of her entries held another rank

    def failing(rows, rank, lists, held, nxt, a):
        calls[0] -= 1
        if calls[0] < 0:
            patched[0] += any(rows[h][k] not in (-1, p.applicant_rank[i].get(h, p.n_institutions))
                              for h, k in plan._spots)
            raise RuntimeError("chain phase stopped")
        return scan(rows, rank, lists, held, nxt, a)

    rng = random.Random("plan-rows/raise")
    for p in markets(0.3, 30):
        i = rng.randrange(p.n_applicants)
        plan = menu_da_plan(i, p)
        m = p.n_institutions
        report = tuple(rng.sample(range(m), m))
        expected = complete_from_plan_reference(plan, report)[0]
        with monkeypatch.context() as patch:
            patch.setattr(mdm.mechanisms, "_next_accepting_on_rows", failing)
            for stop in range(1, 8):
                calls[0] = stop
                try:
                    assert complete_from_plan(plan, report) == expected
                except RuntimeError:
                    pass
                assert_rows_hold_ranks(p)
        assert complete_from_plan(plan, report) == expected, (p, i, report)
        assert_rows_hold_ranks(p)
    assert patched[0] > 0


def test_an_invalid_list_raises_before_any_entry_is_written():
    rng = random.Random("plan-rows/invalid")
    checked = 0
    for p in markets(0.0, 20):
        i = rng.randrange(p.n_applicants)
        plan = menu_da_plan(i, p)
        rows = vars(p)["_chain_rows"]
        before = copy.deepcopy(rows)
        m = p.n_institutions
        for report in ((0, 0), (m,), (-1,), ("x",)):
            with pytest.raises(InstanceError):
                complete_from_plan(plan, report)
            assert rows == before, (p, i, report)
        checked += any(rows[h] is None or rows[h][k] != -1 for h, k in plan._spots)
    assert checked > 0


def test_a_row_first_reached_by_a_completion_keeps_no_rank_of_the_report():
    # Without a's list, y holds b and x reaches a: x is captured and drains at once, so no walk reaches y's row.
    # Completing a's list (y, x) picks x; the chain phase then moves y on below b, to a, who would take y under her
    # report but sits at her final match.
    p = Profile(("a", "b"), ("x", "y"), ((0, 1), (1,)), ((0,), (1, 0)))
    plan = menu_da_plan(0, p)
    assert plan.menu == frozenset({0}) and plan._spots == ((1, 1),)
    rows = vars(p)["_chain_rows"]
    assert rows[1] is None
    got = complete_from_plan(plan, (1, 0))
    assert got == apda(p.with_prefs(0, (1, 0))) == complete_from_plan_reference(plan, (1, 0))[0]
    assert rows[1] == [-1, -1]
    assert_rows_hold_ranks(p)
