"""Menus, descriptions, and matching: mechanism library with verification tools."""

__version__ = "0.1.0"

# The self-check suites of mdm.verify, in run order. Defined here so that the
# CLI can offer them as choices without importing mdm.verify.
SUITE_NAMES = (
    "menus",
    "stability",
    "strategyproofness",
    "rural",
    "rotations",
    "plan",
    "auctions",
    "voting",
)
