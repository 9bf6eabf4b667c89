"""Every engine checks its input in one order: the profile, then the applicant index, then unit capacity.

Covers the eight menu engines (and menu_da_applicant_proposing, which goes
through build_augmented_profile) and the mechanisms apda, ttc and
serial_dictatorship.
"""

import pytest

from mdm import menus
from mdm.market import InstanceError, Profile
from mdm.mechanisms import apda, serial_dictatorship, ttc

INVALID = r"^institution 0 lists invalid applicant index 7$"
BAD_INDEX = r"^applicant index -?\d+ out of range for 3 applicants$"
NOT_UNIT = r"^this operation requires capacity 1 everywhere$"

MENU_ENGINES = {
    "oracle-singleton": lambda i, p: menus.menu_oracle_singleton("apda", i, p),
    "oracle-exhaustive": lambda i, p: menus.menu_oracle_exhaustive("ttc", i, p),
    "da-many-to-one": menus.menu_da_many_to_one,
    "da": menus.menu_da,
    "ttc": menus.menu_ttc,
    "sd": lambda i, p: menus.menu_sd(i, p, range(p.n_applicants)),
    "augmented": menus.build_augmented_profile,
    "da-ap": menus.menu_da_applicant_proposing,
    "plan": menus.menu_da_plan,
}
UNIT_ENGINES = sorted(set(MENU_ENGINES) - {"da-many-to-one"})
MECHANISMS = {
    "apda": apda,
    "ttc": ttc,
    "sd": lambda p: serial_dictatorship(p, range(p.n_applicants)),
}


def market(caps=(1, 1), valid=True):
    prios = ((0, 1, 2), (2, 1, 0)) if valid else ((0, 1, 7), (2, 1, 0))
    return Profile(("a", "b", "c"), ("x", "y"), ((0, 1), (1, 0), (0,)), prios, caps)


@pytest.mark.parametrize("engine", MENU_ENGINES)
@pytest.mark.parametrize("i", [3, -1])
@pytest.mark.parametrize("caps", [(1, 1), (2, 1)])
def test_an_invalid_profile_is_reported_before_a_bad_applicant_index(engine, i, caps):
    with pytest.raises(InstanceError, match=INVALID):
        MENU_ENGINES[engine](i, market(caps, valid=False))


@pytest.mark.parametrize("engine", MENU_ENGINES)
@pytest.mark.parametrize("i", [3, -1])
def test_a_bad_applicant_index_is_reported_before_capacity(engine, i):
    with pytest.raises(InstanceError, match=BAD_INDEX):
        MENU_ENGINES[engine](i, market((2, 1)))


@pytest.mark.parametrize("engine", UNIT_ENGINES)
def test_unit_engines_reject_capacity_two(engine):
    with pytest.raises(InstanceError, match=NOT_UNIT):
        MENU_ENGINES[engine](0, market((2, 1)))


def test_the_many_to_one_engine_takes_capacity_two():
    assert menus.menu_da_many_to_one(2, market((2, 1))) == {0, 1}


@pytest.mark.parametrize("mechanism", MECHANISMS)
def test_mechanisms_report_the_profile_before_capacity(mechanism):
    with pytest.raises(InstanceError, match=INVALID):
        MECHANISMS[mechanism](market((2, 1), valid=False))
    with pytest.raises(InstanceError, match=NOT_UNIT):
        MECHANISMS[mechanism](market((2, 1)))
