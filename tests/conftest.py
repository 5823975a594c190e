"""Shared test helpers.

Planted defects are monkeypatched into ``elabmech`` here and in the tests,
never switched on through production flags.
"""
from fractions import Fraction

import pytest

from elabmech import transfers


def _no_adjustments(premiums, level, recipient):
    return {a: Fraction(0) for a in premiums.scenario.structure.agents}


@pytest.fixture
def ablate_premium(monkeypatch):
    """A call that plants the premium ablation for the rest of the test:
    every awareness adjustment term is zero, so no premium is paid or
    funded.  The recipient is still found and reported."""
    return lambda: monkeypatch.setattr(transfers, "awareness_adjustments", _no_adjustments)
