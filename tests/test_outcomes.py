from fractions import Fraction

import pytest

from elabmech.fixtures import fixture
from elabmech.generate import generate_scenario
from elabmech.outcomes import MissingValuation, OutcomeModel
from elabmech.scenario import parse_scenario

FINAL1 = ("s1t80", "s2t86", "buabc")

# A lone agent has no opponents, so every outcome scores zero for the
# restricted argmax; the tie-break order is the reverse of availability order.
TIE = """
[lattice]
elements: l0
[agents]
agents: solo
[types]
space: solo l0 t
[projections]
[outcomes]
outcomes: y x
available: l0 y x
tie_break: x y
[valuations]
value: solo t x 4
value: solo t y 9
[scheme]
kind: clarke
"""


def test_welfare_of_final_elaborated_profile():
    s = fixture("example1")
    assert s.outcomes.welfare("produce1", FINAL1) == Fraction(20)  # 100 - 80 + 0
    assert s.outcomes.welfare("idle", FINAL1) == 0


def test_welfare_matches_raw_table_sum_on_generated_scenarios():
    for k in range(8):
        s = generate_scenario(3, k)
        for level in s.lattice.elements:
            for profile in s.structure.profiles(level):
                for x0 in s.outcomes.available[level]:
                    expected = sum(s.outcomes.valuations[(a, t, x0)]
                                   for a, t in zip(s.agents, profile))
                    assert s.outcomes.welfare(x0, profile) == expected


def test_efficient_outcome_example1():
    s = fixture("example1")
    assert s.outcomes.efficient_outcome(FINAL1) == "produce1"


def test_efficient_outcome_single_candidate():
    s = generate_scenario(3, 0)
    level = s.lattice.bottom
    lone = s.outcomes.available[level]
    if len(lone) == 1:
        profile = next(s.structure.profiles(level))
        assert s.outcomes.efficient_outcome(profile) == lone[0]


def test_efficient_outcome_matches_exhaustive_argmax():
    for k in range(8):
        s = generate_scenario(5, k)
        for level in s.lattice.elements:
            for profile in s.structure.profiles(level):
                chosen = s.outcomes.efficient_outcome(profile)
                best = max(s.outcomes.welfare(x, profile)
                           for x in s.outcomes.available[level])
                assert s.outcomes.welfare(chosen, profile) == best


def test_restricted_outcomes_example1():
    s = fixture("example1")
    assert s.outcomes.restricted_efficient_outcome("buyer", FINAL1) == "idle"
    assert s.outcomes.restricted_efficient_outcome("s1", FINAL1) == "produce1"
    assert s.outcomes.restricted_efficient_outcome("s2", FINAL1) == "produce1"


def test_restricted_outcome_constant_objective_falls_to_tie_break():
    s = parse_scenario(TIE)
    assert s.outcomes.restricted_efficient_outcome("solo", ("t",)) == "x"
    assert s.outcomes.efficient_outcome(("t",)) == "y"


def test_opponents_welfare_inequality_at_restricted_argmax():
    for k in range(8):
        s = generate_scenario(9, k)
        top = s.lattice.top
        for profile in s.structure.profiles(top):
            eff = s.outcomes.efficient_outcome(profile)
            for agent in s.agents:
                restricted = s.outcomes.restricted_efficient_outcome(agent, profile)
                assert (s.outcomes.opponents_welfare(agent, restricted, profile)
                        >= s.outcomes.opponents_welfare(agent, eff, profile))


def test_outputs_deterministic():
    s = fixture("example1")
    first = s.outcomes.efficient_outcome(FINAL1)
    assert all(s.outcomes.efficient_outcome(FINAL1) == first for _ in range(3))


def test_missing_valuation_raises():
    s = fixture("example1")
    with pytest.raises(MissingValuation):
        s.outcomes.value("s1", "s1t80", "no_such_outcome")


def test_valuations_are_exact_fractions():
    s = fixture("example1")
    assert all(isinstance(v, Fraction) for v in s.outcomes.valuations.values())


class ReferenceArgmax:
    """The earlier ``OutcomeModel`` argmaxes: two caches around a tie-break
    loop, with welfare summed from the valuation table."""

    def __init__(self, model):
        self.model = model
        self._eff_cache = {}
        self._restricted_cache = {}

    def _welfare(self, outcome, profile, left_out=None):
        return sum((self.model.value(a, t, outcome)
                    for a, t in zip(self.model.structure.agents, profile) if a != left_out),
                   Fraction(0))

    def _argmax(self, candidates, score):
        rank = {x: k for k, x in enumerate(self.model.tie_break)}
        best = None
        best_score = None
        for x in candidates:
            s = score(x)
            if best is None or s > best_score or (s == best_score and rank[x] < rank[best]):
                best, best_score = x, s
        return best

    def efficient_outcome(self, profile):
        if profile not in self._eff_cache:
            level = self.model.structure.pooled_level(profile)
            self._eff_cache[profile] = self._argmax(
                self.model.available[level], lambda x: self._welfare(x, profile))
        return self._eff_cache[profile]

    def restricted_efficient_outcome(self, agent, profile):
        key = (agent, profile)
        if key not in self._restricted_cache:
            level = self.model.structure.pooled_level(profile)
            self._restricted_cache[key] = self._argmax(
                self.model.available[level], lambda x: self._welfare(x, profile, agent))
        return self._restricted_cache[key]


def _argmax_corpus():
    for name in ("example1", "example2", "example4r"):
        yield fixture(name)
    for procurement in (False, True):
        for k in range(20):
            yield generate_scenario(2026, k, procurement=procurement)
    yield parse_scenario(TIE, name="tie")


def test_one_memoized_argmax_matches_the_two_cached_loops():
    ties = 0
    for s in _argmax_corpus():
        model, reference = s.outcomes, ReferenceArgmax(s.outcomes)
        for _ in range(2):  # filling the memo, then reading it
            for level in s.lattice.elements:
                for profile in s.structure.profiles(level):
                    eff = reference.efficient_outcome(profile)
                    assert model.efficient_outcome(profile) == eff, (s.name, profile)
                    assert model.restricted_efficient_outcome(None, profile) == eff
                    for agent in s.agents:
                        want = reference.restricted_efficient_outcome(agent, profile)
                        assert model.restricted_efficient_outcome(agent, profile) == want, \
                            (s.name, agent, profile)
                        scores = [reference._welfare(x, profile, agent)
                                  for x in model.available[level]]
                        ties += scores.count(max(scores)) > 1
    assert ties  # the corpus exercises the tie-break order


def _example2_model(change):
    s = fixture("example2")
    model = s.outcomes
    valuations = {key: change(key, v) for key, v in model.valuations.items()}
    return OutcomeModel(s.structure, model.outcomes, model.available, valuations, model.tie_break)


def test_a_float_valuation_is_a_violation_one_line_per_key():
    floats = list(fixture("example2").outcomes.valuations)[:2]
    model = _example2_model(lambda key, v: 0.1 if key == floats[0] else
                            float(v) if key == floats[1] else v)
    assert model.violations() == [
        f"valuation ({', '.join(floats[0])}) is 0.1, not an int or Fraction",
        f"valuation ({', '.join(floats[1])}) is {float(model.valuations[floats[1]])!r}, "
        f"not an int or Fraction"]


def test_int_valuations_become_fractions():
    model = _example2_model(lambda key, v: int(v))
    assert model.violations() == []
    assert model.valuations == fixture("example2").outcomes.valuations
    assert all(type(v) is Fraction for v in model.valuations.values())
