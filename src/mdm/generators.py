"""Instance generators: seeded random markets, adversarial families, and
named counterexample fixtures.

The random generator is plain plumbing for tests and the CLI. The rest
exist because they make a point. The paired-cycles family forces any
layered menu computation to remember one subset per top applicant, so its
state count grows exponentially. The bit-probe auctions hide one bit of a
square matrix behind a perfect-matching question. The fixtures are small
markets where a natural shortcut provably gives a wrong menu, matching, or
price, and the tests pin their exact values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mdm.auctions import ValuationMatrix
from mdm.market import InstanceError, Profile, _check_seed, _int_row_problems, _is_count, _is_index, _raise_problems


def gen_random_market(n: int, seed: int, truncation_prob: float = 0.0) -> Profile:
    """A uniform random market with n agents per side and unit capacities.

    Every preference and priority list is an independent uniform
    permutation; with the given probability a list is truncated to a
    uniform-length proper prefix, possibly empty. The seed is any int, so
    the same arguments always produce the same Profile.
    """
    if not _is_count(n, 1):
        raise InstanceError(f"need at least one agent per side, got {n!r}")
    if type(truncation_prob) not in (int, float) or not 0 <= truncation_prob <= 1:  # a bool is no probability
        raise InstanceError(f"truncation probability must be a number in [0, 1], got {truncation_prob!r}")
    _check_seed(seed)
    rng = random.Random(seed)

    def draw_lists(count: int) -> tuple[tuple[int, ...], ...]:
        out = []
        for _ in range(count):
            full = rng.sample(range(n), n)
            if truncation_prob and rng.random() < truncation_prob:
                full = full[: rng.randrange(n)]
            out.append(tuple(full))
        return tuple(out)

    prefs = draw_lists(n)
    prios = draw_lists(n)
    width = len(str(n - 1))
    # Checked by construction: n lists and unit capacities a side, distinct names split by
    # their d/h prefix, entries unrepeated ints in range(n) (prefixes of permutations).
    names_d = tuple(f"d{i:0{width}d}" for i in range(n))
    return Profile._derive(names_d, tuple(f"h{j:0{width}d}" for j in range(n)), prefs, prios, checked=True)


@dataclass(frozen=True)
class CycleGridParams:
    """Parameters of the paired-cycles market family.

    The market has n/2 applicant-institution cycles, split into n/4 top
    cycles and n/4 bottom cycles, plus one distinguished applicant whose
    list is left empty. ``subsets[j]`` lists the bottom main institutions
    woven into top applicant j's preference list between her own cycle's
    two institutions; ``truncate[j]`` drops her final fallback entirely. Checked when built.
    """

    n: int
    subsets: tuple[tuple[int, ...], ...]
    truncate: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsets", tuple(tuple(s) for s in self.subsets))
        object.__setattr__(self, "truncate", tuple(bool(b) for b in self.truncate))
        n = self.n
        if not _is_count(n, 4) or n % 4:
            raise InstanceError(f"n must be a positive multiple of 4, got {n!r}")
        k = n // 4
        if len(self.subsets) != k or len(self.truncate) != k:
            raise InstanceError(f"need one subset and one truncation flag per top cycle ({k})")
        bottom = range(k, n // 2)
        for j, subset in enumerate(self.subsets):
            if len(set(subset)) != len(subset):
                raise InstanceError(f"subsets[{j}]: entries must be distinct")
            for h in subset:
                if type(h) is not int or h not in bottom:
                    raise InstanceError(f"subsets[{j}]: {h!r} is not a bottom main institution")


def gen_cycle_grid(params: CycleGridParams) -> Profile:
    """Emit a paired-cycles market.

    Cycle j couples applicants d_j (index j) and e_j (index n/2 + j) with a
    main institution h_j (index j) and a fallback k_j (index n/2 + j). Every
    e_j prefers the fallback, every fallback prefers d_j, and every main
    institution prefers e_j, then outsiders, then d_j: left alone, each
    cycle matches assortatively, but one outside proposal to h_j rotates it.
    Bottom main institutions rank all top applicants as outsiders; top main
    institutions rank only the distinguished applicant, whose own list is
    empty and who has index n (the last applicant).
    """
    n = params.n
    k = n // 4
    half = n // 2
    star = n
    prios = []
    for j in range(half):
        outsiders = (star,) if j < k else tuple(range(k))
        prios.append((half + j,) + outsiders + (j,))
    prios.extend((j, half + j) for j in range(half))
    prefs = []
    for j in range(k):
        tail = () if params.truncate[j] else (half + j,)
        prefs.append((j,) + params.subsets[j] + tail)
    prefs.extend((j, half + j) for j in range(k, half))
    prefs.extend((half + j, j) for j in range(half))
    prefs.append(())
    width = max(2, len(str(half - 1)))
    return Profile(
        applicant_names=tuple(f"d{j:0{width}d}" for j in range(half))
        + tuple(f"e{j:0{width}d}" for j in range(half))
        + ("z",),
        institution_names=tuple(f"h{j:0{width}d}" for j in range(half))
        + tuple(f"k{j:0{width}d}" for j in range(half)),
        applicant_prefs=tuple(prefs),
        institution_prios=tuple(prios),
    )


def cycle_grid_params(p: Profile) -> CycleGridParams:
    """Recover the family parameters from a generated paired-cycles market."""
    n = p.n_institutions
    if n < 4 or n % 4 or p.n_applicants != n + 1:
        raise InstanceError("not a paired-cycles market")
    k = n // 4
    half = n // 2
    subsets = []
    truncate = []
    for j in range(k):
        prefs = p.applicant_prefs[j]
        if not prefs or prefs[0] != j:
            raise InstanceError(f"applicant {j} does not lead with her own institution")
        if prefs[-1] == half + j:
            subsets.append(prefs[1:-1])
            truncate.append(False)
        else:
            subsets.append(prefs[1:])
            truncate.append(True)
    return CycleGridParams(n=n, subsets=tuple(subsets), truncate=tuple(truncate))


@dataclass(frozen=True)
class BitProbeParams:
    """A hidden bit matrix plus the probe that an auction instance encodes.

    ``bits`` is a k-by-k 0/1 matrix and ``probe`` a 0-based (p, q) pair.
    The generated auction has a perfect matching of bidders to demanded
    items exactly when bits[p][q] is 1, so any pass over the items must
    carry all k*k bits once the first half has been read. Checked when built.
    """

    k: int
    bits: tuple[tuple[int, ...], ...]
    probe: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", tuple(tuple(row) for row in self.bits))
        object.__setattr__(self, "probe", tuple(self.probe))
        k = self.k
        if not _is_count(k, 1):
            raise InstanceError(f"k must be a positive integer, got {k!r}")
        if len(self.bits) != k or any(len(row) != k for row in self.bits):
            raise InstanceError("bits must be a k-by-k matrix")
        _raise_problems([e for i, row in enumerate(self.bits) for e in _int_row_problems(f"bits[{i}]", row, 0, 1)])
        if len(self.probe) != 2 or not all(_is_index(x, k) for x in self.probe):
            raise InstanceError(f"probe {self.probe!r} is outside the matrix")


def gen_bit_probe_auction(params: BitProbeParams) -> ValuationMatrix:
    """A 0/1 unit-demand auction whose welfare question reads one bit.

    There are 2k bidders and 2k items. Bidder i < k demands early item i
    alone; bidder k + j demands early item i whenever bits[i][j] is set.
    The late items each admit exactly one bidder: one per carrier bidder
    k + j with j != q, and the last item admits bidder p. A perfect
    matching then exists exactly when bits[p][q] is 1, because the late
    items soak up everyone except carrier q, who must cover early item p.
    """
    k = params.k
    p, q = params.probe
    n = 2 * k
    values = [[0] * n for _ in range(n)]
    for i in range(k):
        values[i][i] = 1
        for j in range(k):
            if params.bits[i][j]:
                values[k + j][i] = 1
    spare = [j for j in range(k) if j != q]
    for t, j in enumerate(spare):
        values[k + j][k + t] = 1
    values[p][n - 1] = 1
    return ValuationMatrix(values=values, bound=1)


def fixture_nonlocal_menu() -> tuple[Profile, Profile]:
    """Two markets showing that early conclusions about a menu can be wrong.

    Both share priorities and rank institution 0 identically at the top of
    applicant 0's list, yet the last applicant's menu is {2} in the first
    market and contains 0 in the second: whether institution 0 is on the
    menu turns on how applicant 0 ranks the other two institutions, which
    any left-to-right reading of her list learns only at the very end.
    """
    base = dict(
        applicant_names=("d1", "d2", "dstar"),
        institution_names=("h1", "h2", "h3"),
        institution_prios=((1, 2, 0), (0, 2, 1), (0, 1, 2)),
    )
    p = Profile(applicant_prefs=((0, 1, 2), (1, 0, 2), ()), **base)
    p_alt = Profile(applicant_prefs=((0, 2, 1), (1, 0, 2), ()), **base)
    return p, p_alt


def fixture_nonlocal_outcome() -> tuple[Profile, Profile]:
    """Two markets showing that an applicant's match can flip late.

    Applicant preferences are fixed; the two variants differ only in how
    institution 0 ranks its lower priorities. Applicant 0 appears at the
    top of both priority lists in both variants, yet her stable match
    swaps between the two institutions.
    """
    base = dict(
        applicant_names=("d1", "d2", "d3"),
        institution_names=("h1", "h2"),
        applicant_prefs=((1, 0), (0, 1), (0, 1)),
    )
    q = Profile(institution_prios=((0, 1, 2), (1, 0, 2)), **base)
    q_alt = Profile(institution_prios=((0, 2, 1), (1, 0, 2)), **base)
    return q, q_alt


def fixture_empty_menu() -> Profile:
    """A market where being wanted is not the same as being obtainable.

    Running deferred acceptance without the last applicant leaves both
    institutions holding someone they like less than her, yet her true
    menu is empty: proposing anywhere sets off a rejection chain that
    circles back and bumps her.
    """
    return Profile(
        applicant_names=("d1", "d2", "dstar"),
        institution_names=("h1", "h2"),
        applicant_prefs=((0, 1), (1, 0), ()),
        institution_prios=((1, 2, 0), (0, 2, 1)),
    )


def fixture_budget_set() -> Profile:
    """A market where menus disagree with priority cutoffs.

    In the stable matching each institution ends up with its namesake
    applicant. Institution 1 then ranks applicants 3 and 2 above its match,
    yet neither determines the menu: institution 1 is on the menus of
    applicants 0, 1, and 3, but not on applicant 2's, even though 2 has
    higher priority there than 1 does.
    """
    return Profile(
        applicant_names=("d1", "d2", "d3", "d4"),
        institution_names=("h1", "h2", "h3", "h4"),
        applicant_prefs=((0,), (0, 1, 3), (2,), (3, 1)),
        institution_prios=((0, 1), (3, 2, 1, 0), (2,), (1, 3)),
    )
