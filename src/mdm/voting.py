"""Median voting over a candidate line, with menus.

An odd number of voters each name a candidate in 1..C and the median vote
wins. Holding the others fixed, a voter's menu is the interval between the
two middle values of the remaining votes: she can drag the median anywhere
inside it, and her best achievable point is the clamp of her own vote into
that interval. That clamp always equals the median of the full profile,
which is what makes truthful voting safe. A VoteProfile runs validate_votes
when it is built, so no function here checks it again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from mdm.market import InstanceError, _check_index, _int_row_problems, _is_count, _raise_problems, _tuple_of
from mdm.market import load_small_format


@dataclass(frozen=True)
class VoteProfile:
    """Votes on the candidate line 1..candidates, one per voter, odd count; checked when built."""

    candidates: int
    votes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "votes", _tuple_of("votes", self.votes))
        validate_votes(self)

    @property
    def n_voters(self) -> int:
        return len(self.votes)


def validate_votes(v: VoteProfile) -> None:
    """Raise InstanceError unless the profile fits the voting environment."""
    problems: list[str] = []
    if not _is_count(v.candidates, 1):
        problems.append(f"candidates: must be an integer >= 1, got {v.candidates!r}")
    if v.n_voters % 2 == 0:
        problems.append(f"votes: need an odd number of voters, got {v.n_voters}")
    else:
        problems += _int_row_problems("votes", v.votes, 1, v.candidates)
    _raise_problems(problems)


def median_outcome(v: VoteProfile) -> int:
    """The elected candidate: the middle element of the sorted votes."""
    return sorted(v.votes)[v.n_voters // 2]


def median_menu(v: VoteProfile, i: int) -> tuple[int, int]:
    """Voter i's menu as an inclusive interval (lo, hi), ignoring her vote.

    With the other votes sorted, the interval spans their two middle
    elements. For three voters that is simply (min, max) of the other two.
    """
    _check_index(i, v.n_voters, "voter")
    others = sorted(v.votes[:i] + v.votes[i + 1 :])
    mid = len(others) // 2
    if not others:
        return (1, v.candidates)
    return (others[mid - 1], others[mid])


def median_menu_select(menu: tuple[int, int], own: int) -> int:
    """The candidate from the menu interval closest to the voter's own vote."""
    lo, hi = menu
    if lo > hi:
        raise InstanceError(f"empty menu interval {menu!r}")
    return min(max(own, lo), hi)


def parse_votes(raw: bytes | str) -> VoteProfile:
    """Parse the JSON vote format {"C": ..., "votes": [...]}."""
    candidates, votes = load_small_format(raw, "C", "votes")
    return VoteProfile(candidates=candidates, votes=votes)


def serialize_votes(v: VoteProfile) -> str:
    """Serialize a VoteProfile to the JSON vote format."""
    return json.dumps({"C": v.candidates, "votes": list(v.votes)}, indent=2) + "\n"
