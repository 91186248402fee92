"""Test-wide hypothesis settings.

Examples are derived from each test's source rather than drawn at random,
so every run of the suite checks the same cases and its runtime stays
bounded.
"""

from hypothesis import settings

settings.register_profile("rerand", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("rerand")
