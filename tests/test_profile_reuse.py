"""Derived profiles carry their parent's validation pass and share its rank tables, but not its kept ipda run or chain rows."""

import gc
import pickle
import weakref

import pytest

from oracles import ipda_without_reference

import mdm.mechanisms
import mdm.menus
from mdm import market
from mdm.generators import gen_random_market
from mdm.market import InstanceError, Profile, validate_profile
from mdm.mechanisms import ipda, ipda_without
from mdm.menus import (
    build_augmented_profile,
    complete_from_plan,
    menu_da,
    menu_da_applicant_proposing,
    menu_da_many_to_one,
    menu_da_plan,
    menu_sd,
    menu_ttc,
)


def checked_market() -> Profile:
    p = gen_random_market(6, 11, truncation_prob=0.3)
    validate_profile(p)
    return p


def fresh(q: Profile) -> Profile:
    return Profile(
        q.applicant_names, q.institution_names, q.applicant_prefs, q.institution_prios, q.capacities
    )


def test_with_prefs_shares_the_institution_table():
    p = checked_market()
    assert p.with_prefs(0, (1,)).institution_rank is p.institution_rank


@pytest.mark.parametrize("validated", [True, False])
def test_derived_tables_equal_fresh_ones(validated):
    p = gen_random_market(6, 12, truncation_prob=0.3)
    if validated:
        validate_profile(p)
    p.applicant_rank, p.institution_rank
    for q in (p.with_prefs(2, (5, 0, 3)), p.transposed(), p.with_prefs(1, ()).transposed()):
        ref = fresh(q)
        assert q == ref
        assert q.applicant_rank == ref.applicant_rank
        assert q.institution_rank == ref.institution_rank


@pytest.mark.parametrize("prefs", [(0, 0), (99,)])
def test_with_prefs_on_a_checked_parent_still_validates_the_new_list(prefs):
    q = checked_market().with_prefs(0, prefs)
    for _ in range(2):
        with pytest.raises(InstanceError):
            validate_profile(q)


def test_failing_profile_fails_on_every_call():
    p = Profile(("a",), ("x",), ((0, 0),), ((0,),))
    for _ in range(2):
        with pytest.raises(InstanceError, match="twice"):
            validate_profile(p)


def test_engines_neither_recheck_nor_reindex_a_checked_profile(monkeypatch):
    p = checked_market()
    n = p.n_applicants
    augmented = {build_augmented_profile(i, p).institution_prios for i in range(n)}

    def full_check(q):
        raise AssertionError("validate_profile ran its full check again")

    built = []
    real = market._rank_table

    def record(lists):
        built.append(lists)
        return real(lists)

    monkeypatch.setattr(market, "_profile_problems", full_check)
    monkeypatch.setattr(market, "_rank_table", record)
    for _ in range(2):
        ipda(p)
        for i in range(n):
            menu_da(i, p)
            menu_ttc(i, p)
            complete_from_plan(menu_da_plan(i, p), p.applicant_prefs[i])
            menu_da_applicant_proposing(i, p)
    # p's own tables are built once; every other table built is the augmented
    # market's priority table, which differs from anything p has.
    assert built.count(p.applicant_prefs) == 1
    assert built.count(p.institution_prios) == 1
    assert set(built) == {p.applicant_prefs, p.institution_prios} | augmented


def test_one_menu_works_out_unit_capacity_once_and_derived_profiles_inherit_it(monkeypatch):
    p = fresh(checked_market())
    validate_profile(p)
    worked_out = []
    real = Profile.unit_capacity.fn
    monkeypatch.setattr(Profile.unit_capacity, "fn", lambda q: worked_out.append(q) or real(q))
    for i in range(p.n_applicants):
        menu_da(i, p)
    assert worked_out == [p]


def test_complete_from_plan_checks_the_report_once(monkeypatch):
    plan = menu_da_plan(2, checked_market())
    checked = []
    real = market._list_problems

    def record(*args):
        checked.append(args)
        return real(*args)

    monkeypatch.setattr(market, "_list_problems", record)
    monkeypatch.setattr(mdm.menus, "_list_problems", record)
    complete_from_plan(plan, (3, 1, 0))
    assert [args[2] for args in checked] == [(3, 1, 0)]


@pytest.mark.parametrize("max_capacity", [1, 3])
def test_every_menu_of_a_profile_shares_one_full_run(monkeypatch, max_capacity):
    calls = []
    real = mdm.mechanisms._propose
    monkeypatch.setattr(mdm.mechanisms, "_propose", lambda *args, **kw: calls.append(args[0]) or real(*args, **kw))
    p = gen_random_market(12, 5, truncation_prob=0.3)
    p = Profile(p.applicant_names, p.institution_names, p.applicant_prefs, p.institution_prios,
                tuple(1 + h % max_capacity for h in range(p.n_institutions)))
    for _ in range(2):
        for i in range(p.n_applicants):
            menu_da_many_to_one(i, p)
            ipda_without(i, p)
    assert len(calls) == 1
    assert calls[0] is p  # capacities are counted as seats: the one run is on p itself


def test_derived_profiles_carry_no_kept_run_and_get_the_menus_of_a_fresh_profile():
    p = checked_market()
    for i in range(p.n_applicants):
        menu_da(i, p)
    assert "_ipda_run" in vars(p)
    for q in (p.with_prefs(3, (4, 0, 5)), p.with_prefs(0, ()), p.transposed()):
        assert "_ipda_run" not in vars(q)
        ref = fresh(q)
        assert [ipda_without(i, q) for i in range(q.n_applicants)] == [
            ipda_without(i, ref) for i in range(ref.n_applicants)
        ]


def test_pickling_drops_the_kept_run_and_eq_and_hash_ignore_it():
    p = checked_market()
    before = hash(p)
    menu_da(0, p)
    assert "_ipda_run" in vars(p)
    assert hash(p) == before and p == fresh(p)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == before
    assert "_ipda_run" not in vars(q)


def test_a_profile_with_a_kept_run_is_freed_without_the_cycle_collector():
    p = fresh(checked_market())
    for i in range(p.n_applicants):
        menu_da(i, p)
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()


def profile_with_rows() -> Profile:
    p = fresh(checked_market())
    for i in range(p.n_applicants):
        menu_da(i, p)
    assert any(row is not None for row in vars(p)["_chain_rows"])
    return p


def test_derived_and_unpickled_profiles_carry_no_chain_rows():
    p = profile_with_rows()
    for q in (p.with_prefs(3, (4, 0, 5)), p.with_prefs(0, ()), p.transposed(), pickle.loads(pickle.dumps(p))):
        assert "_chain_rows" not in vars(q)
        ref = fresh(q)
        assert [ipda_without(i, q) for i in range(q.n_applicants)] == [
            ipda_without(i, ref) for i in range(ref.n_applicants)
        ]


def test_eq_and_hash_ignore_the_chain_rows():
    p = fresh(checked_market())
    before = hash(p)
    p = profile_with_rows()
    assert hash(p) == before and p == fresh(p) and fresh(p) == p


def test_a_profile_with_chain_rows_is_freed_without_the_cycle_collector():
    p = profile_with_rows()
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_one_menu_allocates_rows_only_for_the_institutions_its_chain_scanned():
    # An institution scans in i's chain iff it loses an applicant: each who moves moves up and never comes back. So
    # the scanning institutions are those whose applicants differ between the full run and the run without i.
    p = gen_random_market(30, 4, truncation_prob=0.3)
    full = ipda(p).by_applicant
    some_left_out = 0
    for i in range(p.n_applicants):
        q = fresh(p)
        menu_da(i, q)
        others = ipda_without_reference(i, p)[0].by_applicant
        changed = {h for h in range(p.n_institutions)
                   if {d for d, x in full.items() if x == h} != {d for d, x in others.items() if x == h}}
        rows = vars(q)["_chain_rows"]
        assert {h for h, row in enumerate(rows) if row is not None} == changed, i
        some_left_out += 0 < len(changed) < p.n_institutions
    assert some_left_out


def test_menu_sd_derives_no_profile(monkeypatch):
    # Her predecessors pick before her list is read, so serial dictatorship runs on p itself, not on a cleared copy.
    p = checked_market()
    derived = []
    real = Profile._derive.__func__
    monkeypatch.setattr(Profile, "_derive", classmethod(lambda cls, *a, **k: derived.append(a) or real(cls, *a, **k)))
    order = list(reversed(range(p.n_applicants)))
    menus = [menu_sd(i, p, order) for i in range(p.n_applicants)]
    assert derived == []
    assert menus[order[0]] == frozenset(range(p.n_institutions))
