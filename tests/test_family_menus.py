"""Every menu engine agrees with the exhaustive menu oracle on the structured families of oracles.py.

The oracle enumerates every list the applicant could submit, so it is exact but capped at 5 institutions: the
families are checked at n = 1..5, for every applicant. The DA engines (the vacancy chain, the plan, the augmented
applicant-proposing market and the admission rule) against applicant-proposing DA, menu_ttc against top trading
cycles, menu_sd against serial dictatorship in index order.
"""

import pytest

from oracles import STRUCTURED_FAMILIES

from mdm.menus import (
    menu_da,
    menu_da_applicant_proposing,
    menu_da_from_matching,
    menu_da_plan,
    menu_oracle_exhaustive,
    menu_sd,
    menu_ttc,
)

ENGINES = {
    "menu_da": ("apda", menu_da),
    "menu_da_plan": ("apda", lambda i, p: menu_da_plan(i, p).menu),
    "menu_da_applicant_proposing": ("apda", menu_da_applicant_proposing),
    "menu_da_from_matching": ("apda", menu_da_from_matching),
    "menu_ttc": ("ttc", menu_ttc),
    "menu_sd": ("sd", lambda i, p: menu_sd(i, p, list(range(p.n_applicants)))),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("family", STRUCTURED_FAMILIES)
def test_each_engine_gives_the_exhaustive_oracles_menu_on_the_families(family, n, engine):
    mech, menu = ENGINES[engine]
    p = STRUCTURED_FAMILIES[family](n)
    expected = [menu_oracle_exhaustive(mech, i, p, list(range(n))) for i in range(n)]
    assert [menu(i, p) for i in range(n)] == expected
