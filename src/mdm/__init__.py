"""Menus, descriptions, and matching: mechanism library with verification tools."""

__version__ = "0.1.0"

# Choice lists defined here so that the CLI can offer them without importing
# the modules that use them: the mechanisms the menu oracles of mdm.menus
# probe, and the self-check suites of mdm.verify in run order.
MECHANISM_TAGS = ("sd", "ttc", "apda")
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
