"""The suite's Hypothesis profiles; conftest.py loads tier1 by default.

tier1 makes the suite's verdict a function of the tree: every test draws
the same examples on every run and checkout (derandomize), and no failure
saved by an earlier run replays (no example database). explore draws at
random, ten times the examples, and saves and replays failures in the
local .hypothesis database; run it with

    pytest --hypothesis-profile explore

A failing draw it finds becomes an @example of its test, its values
printed by repr so that tier1 replays it exactly.
"""
from hypothesis import settings

TIER1_EXAMPLES = 50

settings.register_profile("tier1", max_examples=TIER1_EXAMPLES,
                          deadline=None, derandomize=True, database=None)
settings.register_profile("explore", max_examples=10 * TIER1_EXAMPLES,
                          deadline=None)


def examples(count: int) -> int:
    """A test's own example count, under tier1, scaled as the loaded
    profile scales tier1's (ten times under explore)."""
    return count * settings.default.max_examples // TIER1_EXAMPLES
