"""Shared test helpers.

Planted defects are monkeypatched into ``elabmech`` here and in the tests,
never switched on through production flags.
"""
from fractions import Fraction

import pytest

from elabmech import engine, transfers


def _no_adjustments(mechanism, level, recipient):
    return {a: Fraction(0) for a in mechanism.scenario.structure.agents}


@pytest.fixture
def ablate_premium(monkeypatch):
    """A call that plants the premium ablation for the rest of the test:
    every awareness adjustment term is zero, so no premium is paid or
    funded.  The recipient is still found and reported."""
    return lambda: monkeypatch.setattr(transfers, "awareness_adjustments", _no_adjustments)


@pytest.fixture
def plant_recipient(monkeypatch):
    """A call that plants ``rule`` as the recipient update of
    ``engine.advance`` for the rest of the test: every state ``advance``
    builds from ``state`` carries ``rule(scenario, state, child)`` as its
    recipient, ``child`` being the state the true rule built."""
    def plant(rule):
        advance = engine.advance

        def planted(scenario, state, reports):
            child = advance(scenario, state, reports)
            return child._replace(recipient=rule(scenario, state, child))

        monkeypatch.setattr(engine, "advance", planted)

    return plant
