"""Test-wide settings.

Hypothesis examples are derived from each test's source rather than drawn
at random, so every run of the suite checks the same cases and its runtime
stays bounded.

Every test here fails on a RuntimeWarning (overflow, invalid value, a mean
of nothing), so that a silent NaN or inf is a test failure.
"""

from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("rerand", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("rerand")

_TESTS = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _TESTS in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
