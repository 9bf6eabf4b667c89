"""Two-sided market data model: profiles, matchings, and stability diagnostics.

Agents are addressed by string names in instance files and by dense integer
indices everywhere else. Preference and priority lists hold indices into the
opposite side, best first; a partial list marks every omitted agent as
unacceptable, and "unmatched" is always the absence of a pair, never a
sentinel agent. validate_profile remembers a pass, parse_instance and gen_random_market
return checked profiles, and _list_problems is the one rule for every ranked list.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Callable, Iterable, Mapping, NamedTuple

APPLICANT = "applicant"
INSTITUTION = "institution"

# Names containing this marker are reserved for internally generated agents.
RESERVED_MARKER = "@"


class InstanceError(ValueError):
    """An instance file, Profile, or Matching violates the data contract."""


def _not_a_list(fields: dict[str, object], nested: tuple[str, ...] = ()) -> InstanceError:
    """The error for constructor fields of which one, or a row of a nested one, is not iterable; names the first."""
    for name, value in fields.items():
        rows = enumerate(value) if name in nested and isinstance(value, (list, tuple)) else ()
        for where, x in [(name, value), *((f"{name}[{k}]", row) for k, row in rows)]:
            if not hasattr(x, "__iter__"):
                return InstanceError(f"{where}: expected a list, got {x!r}")
    return InstanceError(f"{', '.join(fields)}: expected lists")  # a failing iterator is spent, so its row is lost


def _tuple_of(name: str, value: object) -> tuple:
    """tuple(value), or the InstanceError naming the field when value is not a list."""
    try:
        return tuple(value)
    except TypeError:
        raise _not_a_list({name: value}) from None


def _raise_problems(problems: list[str]) -> None:
    """Raise every problem, one a line, as one InstanceError; an empty list passes."""
    if problems:
        raise InstanceError("\n".join(problems))


def _is_index(i: object, n: int) -> bool:
    """The one rule for an agent index: an int, not a bool, in 0..n-1."""
    return type(i) is int and 0 <= i < n


def _is_count(x: object, lo: int = 0) -> bool:
    """The one rule for a size, count, bound, capacity, price, bid, player or position: an int, not a bool, >= lo."""
    return type(x) is int and x >= lo


def _check_seed(seed: object) -> None:
    """The one rule for a seed, checked where it enters: an int, not a bool, of any sign, as the CLI's --seed takes."""
    if type(seed) is not int:
        raise InstanceError(f"seed must be an integer, got {seed!r}")


def _check_index(i: object, n: int, noun: str) -> None:
    """Raise an InstanceError that names the value unless i is an index among n agents of the noun."""
    if not _is_index(i, n):
        raise InstanceError(f"{noun} index {i!r} out of range for {n} {noun}s")


def _int_row_problems(path: str, row: tuple, lo: int, hi: object) -> list[str]:
    """Problems of a row meant to hold ints (not bools) in lo..hi; a hi that is not an int skips the range test."""
    ranged, problems = type(hi) is int, []
    for j, x in enumerate(row):
        if type(x) is not int:
            problems.append(f"{path}[{j}]: expected an integer, got {x!r}")
        elif ranged and not lo <= x <= hi:
            problems.append(f"{path}[{j}]: {x} is outside {lo}..{hi}")
    return problems


RankTable = tuple[dict[int, int], ...]


def _rank_row(ranked: tuple[int, ...]) -> dict[int, int]:
    return {x: r for r, x in enumerate(ranked)}


def _rank_table(lists: tuple[tuple[int, ...], ...]) -> RankTable:
    return tuple(_rank_row(l) for l in lists)


class cached_property:
    """functools.cached_property minus the lock it takes on a first access, as in Python 3.12:
    the value goes into the instance dict, which shadows this non-data descriptor from then on."""

    def __init__(self, fn: Callable) -> None:
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = vars(obj)[self.name] = self.fn(obj)
        return value


class BlockingPair(NamedTuple):
    """A mutually acceptable pair that would rather match with each other."""

    applicant: int
    institution: int


class FrozenInstanceError(AttributeError):
    """Raised on assigning to or deleting an attribute of a _Frozen record, as dataclasses' error of this name is."""


class _Frozen:
    """Eq, hash and a repr (less the fields in _hidden) over the fields in __match_args__, and no assignment or
    deletion: @dataclass(frozen=True) without the import and class building that every fresh `mdm` would pay."""

    __match_args__: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:  # _values: the field values as a tuple, read in C
        get = attrgetter(*cls.__match_args__)
        cls._values = property(get if len(cls.__match_args__) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = (f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values) if f not in self._hidden)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Profile(_Frozen):
    """Applicants' preference lists plus institutions' priority lists.

    Immutable after construction; index lookups, unit_capacity and a pass of
    validate_profile are cached on first use. ``capacities`` defaults to one
    seat per institution. Profiles derived through ``_derive`` carry their
    parent's pass, share the rank tables that did not change, and take
    unit_capacity from a parent with the same capacities. The mechanisms
    keep their full runs on the instance the same way (mdm.mechanisms:
    _ipda_run, _ttc_run), and the menu engines' unlogged institution-
    proposing walks (vacancy chains, plan drains, completions) their rank
    rows (_chain_rows), which hold this profile's ranks outside a running
    completion, and the vacancy chains the kept acceptors they test
    (_chain_acceptors: per institution, the positions at or past the kept
    run's pointer whose applicant accepts it under the kept run, known up
    to a mark; a chain's held only falls, so any other is turned down in
    every chain): derived profiles start without them, pickling drops them,
    == and hash ignore them, and they hold no reference to the profile, so
    it is freed without the cycle collector.
    """

    __match_args__ = ("applicant_names", "institution_names", "applicant_prefs", "institution_prios", "capacities")
    _checked = False  # set on the instance by a pass of validate_profile

    def __init__(self, applicant_names: tuple[str, ...], institution_names: tuple[str, ...],
                 applicant_prefs: tuple[tuple[int, ...], ...], institution_prios: tuple[tuple[int, ...], ...],
                 capacities: tuple[int, ...] = ()) -> None:
        try:
            names_h = tuple(institution_names)
            vars(self).update(applicant_names=tuple(applicant_names), institution_names=names_h,
                              applicant_prefs=tuple(tuple(l) for l in applicant_prefs),
                              institution_prios=tuple(tuple(l) for l in institution_prios),
                              capacities=tuple(capacities) or (1,) * len(names_h))
        except TypeError:
            raw = applicant_names, institution_names, applicant_prefs, institution_prios, capacities
            raise _not_a_list(dict(zip(self.__match_args__, raw)), ("applicant_prefs", "institution_prios")) from None

    @classmethod
    def _derive(
        cls, names_d, names_h, prefs, prios, caps=(), *, checked: bool, unit: bool | None = None,
        applicant_rank: Callable[[], RankTable] | None = None,
        institution_rank: Callable[[], RankTable] | None = None,
    ) -> Profile:
        """Build from fields that are already tuples of tuples, skipping __post_init__.

        checked carries a validation pass, so pass it only where the construction
        keeps every invariant; unit, where given, is unit_capacity of a parent with
        these capacities; a rank argument supplies that table on first use.
        """
        q = object.__new__(cls)
        vars(q).update(
            applicant_names=names_d, institution_names=names_h, applicant_prefs=prefs,
            institution_prios=prios, capacities=caps or (1,) * len(names_h), _checked=checked,
            _rank_sources={APPLICANT: applicant_rank, INSTITUTION: institution_rank},
        )
        if unit is not None:
            vars(q)["unit_capacity"] = unit
        return q

    def __reduce__(self):  # pickle the fields only, not the pass or the rank sources
        return Profile, self._values

    @property
    def n_applicants(self) -> int:
        return len(self.applicant_names)

    @property
    def n_institutions(self) -> int:
        return len(self.institution_names)

    @cached_property
    def unit_capacity(self) -> bool:
        return all(c == 1 for c in self.capacities)

    def _table(self, side: str, lists: tuple[tuple[int, ...], ...]) -> RankTable:
        source = vars(self).get("_rank_sources", {}).pop(side, None)
        return source() if source is not None else _rank_table(lists)

    @cached_property
    def applicant_rank(self) -> RankTable:
        """Per applicant: institution index -> rank (0 is best); unlisted is absent."""
        return self._table(APPLICANT, self.applicant_prefs)

    @cached_property
    def institution_rank(self) -> RankTable:
        """Per institution: applicant index -> rank (0 is best); unlisted is absent."""
        return self._table(INSTITUTION, self.institution_prios)

    @cached_property
    def applicant_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.applicant_names)}

    @cached_property
    def institution_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.institution_names)}

    def with_prefs(self, applicant: int, prefs: Iterable[int]) -> Profile:
        """Copy of this profile with one applicant's list replaced.

        The copy shares this profile's institution table and rebuilds one row of
        its applicant table. It stays checked if this profile is and the new
        list passes the per-list check.
        """
        _check_index(applicant, self.n_applicants, APPLICANT)
        new = _tuple_of("prefs", prefs)
        lists = list(self.applicant_prefs)
        lists[applicant] = new

        def applicant_rank() -> RankTable:
            rows = list(self.applicant_rank)
            rows[applicant] = _rank_row(new)
            return tuple(rows)

        checked = self._checked and not _list_problems(APPLICANT, applicant, new, self.n_institutions)
        return Profile._derive(
            self.applicant_names, self.institution_names, tuple(lists), self.institution_prios,
            self.capacities, checked=checked, unit=self.unit_capacity, applicant_rank=applicant_rank,
            institution_rank=lambda: self.institution_rank,
        )

    def transposed(self) -> Profile:
        """Swap the two sides, and with them the two rank tables. Requires unit capacities."""
        _require_unit(self)
        return Profile._derive(
            self.institution_names, self.applicant_names, self.institution_prios, self.applicant_prefs,
            checked=self._checked, unit=True, applicant_rank=lambda: self.institution_rank,
            institution_rank=lambda: self.applicant_rank,
        )


class Matching(_Frozen):
    """A partial assignment stored as (applicant index, institution index) pairs."""

    __match_args__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        vars(self)["pairs"] = frozenset(pairs)

    @classmethod
    def of(cls, assignment: Mapping[int, int]) -> Matching:
        """Build from an applicant -> institution mapping."""
        return cls(frozenset(assignment.items()))

    def _entries(self, build: Callable[[frozenset], object]):
        """build(self.pairs), or an InstanceError naming each entry that is not an (applicant, institution) pair."""
        try:
            if all(map(tuple.__instancecheck__, self.pairs)):  # one pass in C: "ab" unpacks into two too
                return build(self.pairs)
        except (TypeError, ValueError):  # an entry of another length
            pass
        raise InstanceError("\n".join(_split_pairs(self.pairs)[1]))

    @cached_property
    def by_applicant(self) -> dict[int, int]:
        out = self._entries(dict)
        if len(out) < len(self.pairs):  # name the first applicant met a second time
            seen: set[int] = set()
            d = next(d for d, _ in self.pairs if d in seen or seen.add(d))
            raise InstanceError(f"applicant {d} is matched twice")
        return out

    @cached_property
    def by_institution(self) -> dict[int, tuple[int, ...]]:
        """Occupants per institution, sorted by applicant index."""
        def group(pairs: frozenset) -> dict[int, tuple[int, ...]]:
            out: dict[int, list[int]] = {}
            for d, h in pairs:
                out.setdefault(h, []).append(d)
            return {h: tuple(sorted(ds)) for h, ds in out.items()}

        return self._entries(group)

    def institution_of(self, applicant: int) -> int | None:
        return self.by_applicant.get(applicant)


def _list_problems(side: str, owner: int, ranked: tuple, bound: int) -> list[str]:
    """Problems of one ranked list: each entry an int, not a bool, in the other side's
    0..bound-1, and none repeated. Each test runs on the whole list in C; a failing one walks it."""
    other = INSTITUTION if side == APPLICANT else APPLICANT
    problems = []
    if not set(map(type, ranked)) <= {int}:  # bool and every other int subclass fail too
        problems = [f"{side} {owner} lists invalid {other} index {x!r}" for x in ranked if type(x) is not int]
        ranked = [x for x in ranked if type(x) is int]
    if len(set(ranked)) != len(ranked):
        problems.append(f"{side} {owner} lists some {other} twice")
    if ranked and not (min(ranked) >= 0 and max(ranked) < bound):
        problems += [f"{side} {owner} lists invalid {other} index {x}" for x in ranked if not 0 <= x < bound]
    return problems


def _profile_problems(p: Profile) -> list[str]:
    problems: list[str] = []
    n, m = p.n_applicants, p.n_institutions
    if len(p.applicant_prefs) != n:
        problems.append("applicant list count does not match applicant name count")
    if len(p.institution_prios) != m:
        problems.append("institution list count does not match institution name count")
    if len(p.capacities) != m:
        problems.append("capacity count does not match institution count")
    for side, names in ((APPLICANT, p.applicant_names), (INSTITUTION, p.institution_names)):
        seen: set[str] = set()
        for name in names:
            if not name:
                problems.append(f"empty {side} name")
            if name in seen:
                problems.append(f"duplicate {side} name {name!r}")
            seen.add(name)
    shared = set(p.applicant_names) & set(p.institution_names)
    for name in sorted(shared):
        problems.append(f"name {name!r} is used on both sides")
    for d, prefs in enumerate(p.applicant_prefs):
        problems += _list_problems(APPLICANT, d, prefs, m)
    for h, prios in enumerate(p.institution_prios):
        problems += _list_problems(INSTITUTION, h, prios, n)
    for h, cap in enumerate(p.capacities):
        if not _is_count(cap, 1):
            problems.append(f"institution {h} has invalid capacity {cap!r}")
    return problems


def validate_profile(p: Profile) -> None:
    """Raise InstanceError listing every violated Profile invariant.

    A pass is remembered on the profile, so checking it again costs O(1);
    a failing profile is checked in full on every call.
    """
    if p._checked:
        return
    _raise_problems(_profile_problems(p))
    vars(p)["_checked"] = True


def _check_entry(p: Profile, *applicant: int, unit: bool = False) -> None:
    """Every engine's entry check, in the order it reports: the profile, any applicant index, unit capacity."""
    validate_profile(p)
    for i in applicant:
        _check_index(i, p.n_applicants, APPLICANT)
    if unit:
        _require_unit(p)


def _require_unit(p: Profile) -> None:
    if not p.unit_capacity:
        raise InstanceError("this operation requires capacity 1 everywhere")


def _split_pairs(entries: frozenset) -> tuple[set, list[str]]:
    """A matching's entries that are (applicant, institution) pairs, and a problem naming each other one, by repr."""
    pairs = {entry for entry in entries if isinstance(entry, tuple) and len(entry) == 2}
    return pairs, [f"entry {e!r} is not an (applicant, institution) pair" for e in sorted(entries - pairs, key=repr)]


def _matching_problems(p: Profile, m: Matching, count_seats: bool = True) -> list[str]:
    """Every rule of a (possibly partial) matching for p that m breaks; the seat count only with count_seats."""
    pairs, problems = _split_pairs(m.pairs)
    seen_applicants: set[int] = set()
    load: dict[int, int] = {}
    # Ints sort by value and any other entry after them by its repr, so no two entries of different types compare.
    for d, h in sorted(pairs, key=lambda pair: [(0, x) if type(x) is int else (1, repr(x)) for x in pair]):
        if not (_is_index(d, p.n_applicants) and _is_index(h, p.n_institutions)):
            problems.append(f"pair ({d}, {h}) references a nonexistent agent")
            continue
        if d in seen_applicants:
            problems.append(f"applicant {d} is matched twice")
        seen_applicants.add(d)
        load[h] = load.get(h, 0) + 1
        if h not in p.applicant_rank[d]:
            problems.append(f"applicant {d} does not list institution {h}")
        if d not in p.institution_rank[h]:
            problems.append(f"institution {h} does not list applicant {d}")
    if count_seats:
        problems += [f"institution {h} holds {count} applicants, capacity {p.capacities[h]}"
                     for h, count in sorted(load.items()) if count > p.capacities[h]]
    return problems


def validate_matching(p: Profile, m: Matching) -> None:
    """Raise InstanceError if m is not a valid (possibly partial) matching for p."""
    _raise_problems(_matching_problems(p, m))


def _cutoffs(p: Profile, m: Matching) -> list[int]:
    """The one admission rule, as Azevedo & Leshno's (2016) cutoffs: per institution, the rank an applicant must beat
    to be admitted against m's occupants, its lowest occupant's if it is full, else its list's length. Every pair of
    m must name agents of p and be listed by its institution."""
    ranks, caps, cut = p.institution_rank, p.capacities, list(map(len, p.institution_rank))
    for h, held in m.by_institution.items():
        if len(held) >= caps[h]:
            cut[h] = max(map(ranks[h].__getitem__, held))
    return cut


def menu_from_matching(i: int, p: Profile, without: Matching) -> frozenset[int]:
    """Applicant i's deferred-acceptance menu, read off the matching of the market without her.

    without must be the institution-proposing matching of p with i's list
    cleared, as mdm.menus.menu_da_from_matching computes it. An institution
    is on the menu iff it lists i and, in that matching, either has a free
    seat or holds some applicant it ranks below i. without is checked as
    validate_matching checks it, less the seat count: an over-full
    institution still has a cutoff, its lowest occupant's rank.
    """
    _raise_problems(_matching_problems(p, without, count_seats=False))
    cut = _cutoffs(p, without)
    return frozenset(h for h, (rank, c) in enumerate(zip(p.institution_rank, cut)) if rank.get(i, c) < c)


def blocking_pairs(p: Profile, m: Matching) -> list[BlockingPair]:
    """All pairs that block m under p; empty exactly when m is stable.

    A pair (d, h) blocks when both list each other, d prefers h to her
    assignment (unmatched counts below every listed institution), and h
    either has a free seat or ranks d above one of its occupants.
    """
    validate_matching(p, m)
    cut, at, ranks = _cutoffs(p, m), m.by_applicant, p.institution_rank
    return sorted(
        BlockingPair(d, h)
        for d, prefs in enumerate(p.applicant_prefs)
        for h in (prefs[: p.applicant_rank[d][at[d]]] if d in at else prefs)
        if ranks[h].get(d, cut[h]) < cut[h]
    )


def matched_sets(m: Matching) -> tuple[frozenset[int], frozenset[int]]:
    """Projections of a matching onto each side."""
    return frozenset(m.by_applicant), frozenset(m.by_institution)


def load_json_object(raw: bytes | str) -> dict:
    """Decode a JSON document whose top level is an object.

    Any other input, including bytes that are not UTF-8 and nesting too deep
    to decode, raises InstanceError.
    """
    try:
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        doc = json.loads(raw)
    except UnicodeDecodeError as err:
        raise InstanceError(f"not UTF-8 text: {err}") from err
    except RecursionError:
        raise InstanceError("malformed JSON: nested too deeply") from None
    except ValueError as err:  # JSONDecodeError, or an integer literal too long to convert
        raise InstanceError(f"malformed JSON: {err}") from err
    if not isinstance(doc, dict):
        raise InstanceError("top level: expected an object")
    return doc


def load_small_format(raw: bytes | str, scalar: str, listed: str, rows: bool = False) -> tuple[object, list]:
    """The scalar and the list of a small format's object, checking its fields and the list's shape (a list of
    lists with rows); the values are left to the constructor that takes them."""
    doc = load_json_object(raw)
    problems = [f"top level: unknown field {key!r}" for key in sorted(set(doc) - {scalar, listed})]
    if scalar not in doc:
        problems.append(f"top level: missing field {scalar!r}")
    items = doc.get(listed, [])
    if not isinstance(items, list) or rows and not all(isinstance(row, list) for row in items):
        problems.append(f"{listed}: expected a list{' of lists' * rows}")
    _raise_problems(problems)
    return doc[scalar], items


def _check_name(name: object, path: str, problems: list[str]) -> None:
    if not isinstance(name, str) or not name:
        problems.append(f"{path}: name must be a nonempty string")
    elif RESERVED_MARKER in name:
        problems.append(f"{path}: name {name!r} uses the reserved marker {RESERVED_MARKER!r}")


def _check_records(records: object, path: str, list_key: str, problems: list[str], typed: bool) -> list[dict]:
    if not isinstance(records, list):
        problems.append(f"{path}: expected a list")
        return []
    allowed = {"name", list_key} | ({"capacity"} if list_key == "prios" else set())
    out: list[dict] = []
    for k, rec in enumerate(records):
        where = f"{path}[{k}]"
        if not isinstance(rec, dict):
            problems.append(f"{where}: expected an object")
            continue
        for key in sorted(set(rec) - allowed):
            problems.append(f"{where}: unknown field {key!r}")
        if "name" not in rec:
            problems.append(f"{where}: missing name")
            continue
        _check_name(rec.get("name"), where, problems)
        ranked = rec.get(list_key, [])
        if not isinstance(ranked, list) or typed and not set(map(type, ranked)) <= {str}:  # JSON holds no str subclass
            problems.append(f"{where}.{list_key}: expected a list of names")
            continue
        out.append(rec)
    return out


def parse_instance(raw: bytes | str) -> Profile:
    """Parse the JSON instance format into a validated Profile.

    Agents are indexed in lexicographic name order, so parsing a serialized
    profile reproduces it exactly. Every problem is reported with the path
    of the offending entry.
    """
    doc = load_json_object(raw)
    # A good document passes without the type test of each list entry: resolve misses a non-string entry (or
    # raises TypeError on a list or object), and any problem reruns every check, so each message keeps its place.
    try:
        return _parse_document(doc, typed=False)
    except (InstanceError, TypeError):
        return _parse_document(doc, typed=True)


def _parse_document(doc: dict, typed: bool) -> Profile:
    problems: list[str] = []
    for key in sorted(set(doc) - {"applicants", "institutions"}):
        problems.append(f"top level: unknown field {key!r}")
    applicants = _check_records(doc.get("applicants", []), "applicants", "prefs", problems, typed)
    institutions = _check_records(doc.get("institutions", []), "institutions", "prios", problems, typed)
    _raise_problems(problems)

    def index_by_name(records: list[dict], path: str) -> dict[str, int]:
        seen: set[str] = set()
        for k, rec in enumerate(records):
            if rec["name"] in seen:
                problems.append(f"{path}[{k}]: duplicate name {rec['name']!r}")
            seen.add(rec["name"])
        return {name: i for i, name in enumerate(sorted(seen))}

    d_index = index_by_name(applicants, "applicants")
    h_index = index_by_name(institutions, "institutions")
    for name in sorted(set(d_index) & set(h_index)):
        problems.append(f"name {name!r} is used on both sides")

    def resolve(rec: dict, list_key: str, target: dict[str, int], path: str) -> tuple[int, ...]:
        names = rec.get(list_key, [])
        ranked = tuple(map(target.get, names))
        distinct = set(ranked)
        if len(distinct) == len(ranked) and None not in distinct:
            return ranked
        # An unknown name or a repeated entry: find each one, in list order.
        ranked, seen = [], set()
        for k, name in enumerate(names):
            if name not in target:
                problems.append(f"{path}.{list_key}[{k}]: unknown agent name {name!r}")
            elif target[name] in seen:
                problems.append(f"{path}.{list_key}[{k}]: duplicate entry {name!r}")
            else:
                ranked.append(target[name])
                seen.add(target[name])
        return tuple(ranked)

    prefs: list[tuple[int, ...]] = [()] * len(d_index)
    prios: list[tuple[int, ...]] = [()] * len(h_index)
    caps: list[int] = [1] * len(h_index)
    for k, rec in enumerate(applicants):
        prefs[d_index[rec["name"]]] = resolve(rec, "prefs", h_index, f"applicants[{k}]")
    for k, rec in enumerate(institutions):
        prios[h_index[rec["name"]]] = resolve(rec, "prios", d_index, f"institutions[{k}]")
        cap = rec.get("capacity", 1)
        if not _is_count(cap, 1):
            problems.append(f"institutions[{k}].capacity: must be an integer >= 1, got {cap!r}")
        else:
            caps[h_index[rec["name"]]] = cap
    _raise_problems(problems)
    # Every rule of _profile_problems holds by now: one list and one capacity
    # per name, names nonempty, unique and on one side only, entries in range
    # (looked up by name) and not repeated, capacities integers >= 1.
    return Profile._derive(
        tuple(d_index), tuple(h_index), tuple(prefs), tuple(prios), tuple(caps), checked=True
    )


def serialize_instance(p: Profile) -> str:
    """Serialize a Profile to the JSON instance format, names sorted for determinism.

    The text is json.dumps(doc, indent=2) + "\n" byte for byte, laid out here from
    names quoted once each, as json.dumps with an indent runs its pure-Python encoder.
    """
    validate_profile(p)
    quoted_d = [json.dumps(x) for x in p.applicant_names]
    quoted_h = [json.dumps(x) for x in p.institution_names]

    def side(list_key: str, names, quoted, lists, other, caps=()) -> str:
        records = []
        for a in sorted(range(len(names)), key=names.__getitem__):
            entries = ",\n        ".join(map(other.__getitem__, lists[a]))
            ranked = f"[\n        {entries}\n      ]" if entries else "[]"
            cap = f',\n      "capacity": {json.dumps(caps[a])}' if caps and caps[a] != 1 else ""
            records.append(f'    {{\n      "name": {quoted[a]},\n      "{list_key}": {ranked}{cap}\n    }}')
        return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"

    applicants = side("prefs", p.applicant_names, quoted_d, p.applicant_prefs, quoted_h)
    institutions = side("prios", p.institution_names, quoted_h, p.institution_prios, quoted_d, p.capacities)
    return f'{{\n  "applicants": {applicants},\n  "institutions": {institutions}\n}}\n'
