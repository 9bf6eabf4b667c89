"""Derived profiles carry their parent's validation pass and share its rank tables."""

import pytest

import mdm.menus
from mdm import market
from mdm.generators import gen_random_market
from mdm.market import InstanceError, Profile, validate_profile
from mdm.mechanisms import ipda
from mdm.menus import (
    build_augmented_profile,
    complete_from_plan,
    menu_da,
    menu_da_applicant_proposing,
    menu_da_plan,
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
