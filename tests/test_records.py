"""Profile, Matching, ProposalPolicy, CyclePolicy, QueryLog and MenuPlan behave as the dataclasses they were.

Each class is checked against its dataclass twin in ``oracles.py`` on random
markets: repr, ==, != and hash, ordering, construction, frozenness and pickling.
"""

import inspect
import itertools
import pickle
import random

import pytest

from mdm.generators import gen_random_market
from mdm.market import Matching, Profile, parse_instance, serialize_instance
from mdm.mechanisms import CYCLE_KINDS, PROPOSAL_KINDS, CyclePolicy, ProposalPolicy, QueryLog, apda, ipda
from mdm.menus import MenuPlan, menu_da_plan
from oracles import CyclePolicyTwin, MatchingTwin, MenuPlanTwin, ProfileTwin, ProposalPolicyTwin, QueryLogTwin

SEEDS = range(6)
TWINS = [
    (Profile, ProfileTwin),
    (Matching, MatchingTwin),
    (ProposalPolicy, ProposalPolicyTwin),
    (CyclePolicy, CyclePolicyTwin),
    (QueryLog, QueryLogTwin),
    (MenuPlan, MenuPlanTwin),
]
OTHERS = (None, 3, "Profile", (), frozenset())


def fields(x) -> dict:
    return {name: getattr(x, name) for name in type(x).__match_args__}


def pairs(seed: int) -> list[tuple[object, object]]:
    """(object, its twin) for every class, from one random market; some objects equal others."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    p = gen_random_market(n, seed, truncation_prob=rng.choice([0.0, 0.3]))
    q = gen_random_market(n, seed + 100, truncation_prob=0.3)
    out = [(x, ProfileTwin(**fields(x))) for x in (p, q, parse_instance(serialize_instance(p)))]
    out += [(m, MatchingTwin(m.pairs)) for m in (apda(p), ipda(p), Matching(set(apda(p).pairs)))]
    for cls, twin, kinds in ((ProposalPolicy, ProposalPolicyTwin, PROPOSAL_KINDS),
                             (CyclePolicy, CyclePolicyTwin, CYCLE_KINDS)):
        kind, s = rng.choice(kinds), rng.randint(0, 2)
        out += [(cls(kind, s), twin(kind, s)), (cls(), twin())]
    log = QueryLog()
    apda(p, log=log)
    out += [(log, QueryLogTwin(list(log.events))), (QueryLog(), QueryLogTwin())]
    i = rng.randrange(n)
    for plan in (menu_da_plan(i, p), menu_da_plan(i, p)):  # equal but for their dags
        out += [(plan, MenuPlanTwin(**fields(plan))), (MenuPlan(**fields(plan)), MenuPlanTwin(**fields(plan)))]
    return out


def outcome(f):
    try:
        return f()
    except TypeError as err:
        return TypeError, str(err).replace("Twin", "")


@pytest.mark.parametrize("seed", SEEDS)
def test_repr_eq_and_hash_match_the_twins(seed):
    drawn = pairs(seed)
    for x, t in drawn:
        assert repr(x) == repr(t)
        assert outcome(lambda: hash(x)) == outcome(lambda: hash(t))
        assert (x == t, t == x, x != t) == (False, False, True)
        for other in OTHERS:
            assert (x == other, x != other, other == x) == (t == other, t != other, other == t)
    for (x, t), (y, u) in itertools.product(drawn, repeat=2):
        assert (x == y, x != y) == (t == u, t != u)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_order_comparisons_raise_type_error(seed):
    for (x, t), (y, u) in itertools.product(pairs(seed), repeat=2):
        for compare in (lambda a, b: a < b, lambda a, b: a >= b):
            with pytest.raises(TypeError):
                compare(x, y)
            with pytest.raises(TypeError):
                compare(t, u)


@pytest.mark.parametrize(("cls", "twin"), TWINS)
def test_constructor_signatures_match(cls, twin):
    def shape(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    if cls is QueryLog:  # a fresh list per log either way; here None stands for it, not a dataclass factory
        assert [(n, k) for n, k, _ in shape(cls)] == [(n, k) for n, k, _ in shape(twin)]
    else:
        assert shape(cls) == shape(twin)
    assert cls.__match_args__ == twin.__match_args__


def test_positional_and_keyword_construction_with_defaults():
    p = gen_random_market(5, 7, truncation_prob=0.3)
    lists = [list(map(list, p.applicant_prefs)), list(map(list, p.institution_prios))]
    args = [
        (Profile, ProfileTwin, [list(p.applicant_names), list(p.institution_names), *lists], {}),
        (Profile, ProfileTwin, [], dict(applicant_names=p.applicant_names, institution_names=p.institution_names,
                                        applicant_prefs=p.applicant_prefs, institution_prios=p.institution_prios,
                                        capacities=(2,) * 5)),
        (Matching, MatchingTwin, [{(0, 1), (2, 3)}], {}),
        (Matching, MatchingTwin, [], dict(pairs=[(1, 1)])),
        (ProposalPolicy, ProposalPolicyTwin, [], {}),
        (ProposalPolicy, ProposalPolicyTwin, ["fifo"], {}),
        (ProposalPolicy, ProposalPolicyTwin, [], dict(seed=4)),
        (ProposalPolicy, ProposalPolicyTwin, ["seeded-random"], dict(seed=2)),
        (CyclePolicy, CyclePolicyTwin, [], {}),
        (CyclePolicy, CyclePolicyTwin, ["all-simultaneous", 3], {}),
        (CyclePolicy, CyclePolicyTwin, [], dict(kind="seeded-random")),
        (QueryLog, QueryLogTwin, [], {}),
        (QueryLog, QueryLogTwin, [[("read", "applicant", 0, 0, 1)]], {}),
        (QueryLog, QueryLogTwin, [], dict(events=[("lookup", "institution", 1, 0)])),
    ]
    plan = menu_da_plan(0, p)
    args += [(MenuPlan, MenuPlanTwin, list(fields(plan).values()), {}), (MenuPlan, MenuPlanTwin, [], fields(plan))]
    for cls, twin, positional, keywords in args:
        x, t = cls(*positional, **keywords), twin(*positional, **keywords)
        assert repr(x) == repr(t) and fields(x) == fields(t)
    assert QueryLog().events is not QueryLog().events
    for cls, twin in TWINS:
        if cls not in (ProposalPolicy, CyclePolicy, QueryLog):  # the others have no default for some field
            assert outcome(cls) == outcome(twin)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_assignment_and_deletion_fail_as_in_a_frozen_dataclass(seed):
    for x, t in pairs(seed):
        if isinstance(x, QueryLog):  # not frozen: both take a new list, and lose it
            for obj in (x, t):
                obj.events = [("read", "applicant", 0, 0, 0)]
                del obj.events
                assert not hasattr(obj, "events")
            continue
        for name in (type(x).__match_args__[0], "other"):
            for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
                with pytest.raises(AttributeError) as got:
                    act(x)
                with pytest.raises(AttributeError) as want:
                    act(t)
                assert (type(got.value).__name__, str(got.value)) == (type(want.value).__name__, str(want.value))
        assert repr(x) == repr(t)


@pytest.mark.parametrize("seed", SEEDS)
def test_pickle_round_trip(seed):
    p = parse_instance(serialize_instance(gen_random_market(5, seed, truncation_prob=0.3)))
    p.institution_rank, p.applicant_index  # cache a table and an index first
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p) and repr(q) == repr(p)
    assert set(vars(q)) == set(Profile.__match_args__)  # no pass, rank sources or cached tables
    assert not q._checked and q.institution_rank == p.institution_rank
    m = apda(p)
    m.by_applicant
    back = pickle.loads(pickle.dumps(m))
    assert back == m and hash(back) == hash(m)  # a frozenset may list its items in another order
    assert back.by_applicant == m.by_applicant
