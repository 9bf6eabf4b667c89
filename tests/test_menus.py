"""Menu engines: hypothetical-run menus against report-probing oracles."""

import pytest

from oracles import all_partial_lists, menu_by_reports

from mdm.market import InstanceError, Profile
from mdm.mechanisms import apda, serial_dictatorship, ttc
from mdm.menus import (
    all_lists,
    build_augmented_profile,
    menu_da,
    menu_da_applicant_proposing,
    menu_da_many_to_one,
    menu_da_plan,
    menu_oracle_exhaustive,
    menu_oracle_singleton,
    menu_sd,
    menu_ttc,
)
from mdm.generators import (
    fixture_budget_set,
    fixture_empty_menu,
    fixture_nonlocal_menu,
    gen_random_market,
)


def test_menu_fixture_pins_base_menu():
    base, alt = fixture_nonlocal_menu()
    star = base.applicant_index["dstar"]
    assert menu_da(star, base) == {2}
    assert 0 in menu_da(star, alt)


def test_menu_fixture_changes_with_an_unread_list():
    # dstar's menu moves although only d1's list differs between the profiles
    base, alt = fixture_nonlocal_menu()
    star = base.applicant_index["dstar"]
    assert menu_da(star, base) != menu_da(star, alt)


def test_budget_set_fixture_menus():
    p = fixture_budget_set()
    menus = {name: menu_da(p.applicant_index[name], p) for name in p.applicant_names}
    assert menus["d1"] == {0, 1}
    assert 1 in menus["d2"]
    assert 1 not in menus["d3"]
    assert 1 in menus["d4"]


def test_empty_menu_fixture():
    p = fixture_empty_menu()
    i = p.n_applicants - 1
    assert menu_da(i, p) == frozenset()
    assert menu_oracle_exhaustive("apda", i, p) == frozenset()


def test_menu_da_matches_direct_probing():
    for t in range(60):
        p = gen_random_market(4, 100 + t, truncation_prob=0.3)
        i = t % 4
        assert menu_da(i, p) == menu_by_reports(apda, i, p)


def test_menu_da_ignores_own_list():
    p = fixture_budget_set()
    assert menu_da(0, p) == menu_da(0, p.with_prefs(0, ()))


def test_engines_agree_on_random_markets():
    for t in range(150):
        p = gen_random_market(6, 1000 + t, truncation_prob=0.3)
        i = t % 6
        ref = menu_da(i, p)
        assert menu_da_applicant_proposing(i, p) == ref
        assert menu_da_plan(i, p).menu == ref
        assert menu_oracle_singleton("apda", i, p) == ref


def test_exhaustive_oracle_agrees_up_to_its_cap():
    for t in range(40):
        p = gen_random_market(5, 3000 + t, truncation_prob=0.3)
        i = t % 5
        assert menu_oracle_exhaustive("apda", i, p) == menu_da(i, p)


def test_exhaustive_oracle_rejects_large_markets():
    p = gen_random_market(6, 0)
    with pytest.raises(InstanceError):
        menu_oracle_exhaustive("apda", 0, p)


def test_menu_ttc_matches_probing():
    for t in range(50):
        p = gen_random_market(4, 4000 + t, truncation_prob=0.3)
        i = t % 4
        direct = menu_by_reports(lambda q: ttc(q), i, p)
        assert menu_ttc(i, p) == direct
        assert menu_oracle_singleton("ttc", i, p) == direct


def test_menu_ttc_invariance_flag():
    for t in range(30):
        p = gen_random_market(5, 4500 + t, truncation_prob=0.3)
        assert menu_ttc(t % 5, p, check_invariance=True) == menu_ttc(t % 5, p)


def test_menu_sd_matches_probing():
    for t in range(50):
        p = gen_random_market(4, 5000 + t, truncation_prob=0.3)
        i = t % 4
        order = tuple(range(4))
        direct = menu_by_reports(lambda q: serial_dictatorship(q, order), i, p)
        assert menu_sd(i, p, order) == direct


def test_menu_sd_first_picker_sees_everything():
    p = gen_random_market(5, 77)
    assert menu_sd(2, p, (2, 0, 1, 3, 4)) == frozenset(range(5))


def test_menu_rejects_unknown_applicant():
    p = gen_random_market(3, 0)
    with pytest.raises(InstanceError):
        menu_da(7, p)


def test_augmented_profile_shape():
    p = gen_random_market(3, 9)
    aug = build_augmented_profile(0, p)
    # one try/fail pair per institution on each side
    assert aug.n_applicants == 3 + 2 * 3
    assert aug.n_institutions == 3 + 2 * 3
    assert apda(aug)  # runs clean


def test_menu_da_applicant_proposing_reads_only_applicant_lists():
    # the augmented run must reach the same menu without institution proposals
    p = fixture_budget_set()
    for name in p.applicant_names:
        i = p.applicant_index[name]
        assert menu_da_applicant_proposing(i, p) == menu_da(i, p)


def test_menu_da_many_to_one_matches_expansion():
    p = Profile(
        ("a", "b", "c"),
        ("x", "y"),
        ((0, 1), (0,), (0, 1)),
        ((0, 1, 2), (2, 0)),
        (2, 1),
    )
    for i in range(3):
        assert menu_da_many_to_one(i, p) <= frozenset(range(2))
    # capacity 2 lets x keep two applicants, so the third's menu shows y only if reachable
    assert menu_da_many_to_one(0, p) == {0, 1}


def test_all_lists_is_every_strict_partial_list_shortest_first():
    assert [len(all_lists(m)) for m in range(6)] == [1, 2, 5, 16, 65, 326]
    for m in range(5):
        lists = all_lists(m)
        assert sorted(lists) == sorted(all_partial_lists(m))
        assert [len(x) for x in lists] == sorted(len(x) for x in lists)
