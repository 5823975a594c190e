"""Structural property suite over seeded random type structures."""
import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from elabmech import engine, generate, verify
from elabmech.generate import generate_scenario
from elabmech.lattice import build_lattice, lattice_violations
from elabmech.scenario import parse_scenario, serialize_scenario
from elabmech.typespace import TypeStructureError, build_structure

# Lattices the generator never draws, as (elements, Hasse edges): the 4-chain,
# the two non-distributive five-element lattices M3 and N5, and the diamond B2
# with a new bottom (1+B2) or a new top (B2+1).
NEW_SHAPES = {
    "chain4": (("l0", "l1", "l2", "l3"), [("l0", "l1"), ("l1", "l2"), ("l2", "l3")]),
    "M3": (("bot", "a", "b", "c", "top"),
           [("bot", "a"), ("bot", "b"), ("bot", "c"), ("a", "top"), ("b", "top"), ("c", "top")]),
    "N5": (("bot", "a", "b", "c", "top"),
           [("bot", "a"), ("a", "b"), ("b", "top"), ("bot", "c"), ("c", "top")]),
    "1+B2": (("z", "bot", "west", "east", "top"),
             [("z", "bot"), ("bot", "west"), ("bot", "east"), ("west", "top"), ("east", "top")]),
    "B2+1": (("bot", "west", "east", "top", "cap"),
             [("bot", "west"), ("bot", "east"), ("west", "top"), ("east", "top"), ("top", "cap")]),
}


def generate_on(monkeypatch, shape, seed, index, procurement=False):
    """``generate_scenario`` with its lattice draw replaced by ``shape``."""
    lattice = build_lattice(*NEW_SHAPES[shape])
    monkeypatch.setattr(generate, "_lattice", lambda rng: lattice)
    return generate_scenario(seed, index, procurement)


def test_generation_is_deterministic_per_seed():
    a = serialize_scenario(generate_scenario(99, 4))
    b = serialize_scenario(generate_scenario(99, 4))
    assert a == b
    assert a != serialize_scenario(generate_scenario(99, 5))


def test_generated_bytes_match_the_recorded_digest():
    # Recorded from the generator that partitioned the diamond and the chains
    # in two separate branches; the one partition rule draws the same bytes.
    digest = hashlib.sha256()
    for seed in (2026, 777, 301, 901):
        for k in range(60):
            for procurement in (False, True):
                digest.update(serialize_scenario(generate_scenario(seed, k, procurement)).encode())
    assert digest.hexdigest() == \
        "15051f4f3697ee62254f7fce01469b5c03724684215a52c21acc220576c28914"


def _assert_structural_laws(s):
    lat = s.lattice
    assert not lattice_violations(lat.elements,
                                  [(a, b) for a in lat.elements for b in lat.elements
                                   if lat.leq(a, b)])
    st_ = s.structure
    for agent in s.agents:
        for hi in lat.elements:
            for t in st_.space(agent, hi):
                assert st_.project(agent, t, hi) == t
            for mid in lat.strictly_below(hi):
                image = {st_.project(agent, t, mid) for t in st_.space(agent, hi)}
                assert image == set(st_.space(agent, mid))
                for lo in lat.strictly_below(mid):
                    for t in st_.space(agent, hi):
                        assert st_.project(agent, st_.project(agent, t, mid), lo) \
                            == st_.project(agent, t, lo)


def test_hundred_seeded_structures_pass_all_laws():
    for k in range(100):
        _assert_structural_laws(generate_scenario(1000 + k, 0, procurement=(k % 3 == 0)))


def test_m3_and_n5_are_not_distributive():
    for shape in ("M3", "N5"):
        lat = build_lattice(*NEW_SHAPES[shape])
        assert any(lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z))
                   for x in lat.elements for y in lat.elements for z in lat.elements), shape


@pytest.mark.parametrize("shape", NEW_SHAPES)
def test_new_shapes_round_trip_and_keep_the_structural_laws(shape, monkeypatch):
    for k in range(40):
        for procurement in (False, True):
            s = generate_on(monkeypatch, shape, 2026, k, procurement)
            assert s.lattice.elements == NEW_SHAPES[shape][0]
            text = serialize_scenario(s)
            assert serialize_scenario(parse_scenario(text)) == text
            _assert_structural_laws(s)


@pytest.mark.parametrize("shape", ["chain4", "M3", "N5"])
def test_six_properties_hold_on_new_shapes(shape, monkeypatch):
    checked = 0
    for k in range(10):
        s = generate_on(monkeypatch, shape, 2026, k)
        if len(s.agents) != 2:
            continue
        scheme = s.scheme
        for result in (verify.check_efficiency(s),
                       verify.check_pooled_implementation(s, scheme),
                       verify.check_stage_bound(s),
                       verify.check_budget(s, scheme, "no_deficit"),
                       verify.check_participation(s, scheme, "ex_ante_anticipated"),
                       verify.check_conditional_dominance(s, scheme)):
            assert result.holds, (k, result.prop)
        checked += 1
    assert checked >= 5


def _mutate_drop_projection(scenario, rng):
    lat = scenario.lattice
    st_ = scenario.structure
    agent = rng.choice(scenario.agents)
    covers = lat.covers()
    spaces = dict(scenario.structure.spaces)
    maps = {}
    for a in scenario.agents:
        for lo, hi in covers:
            maps[(a, hi, lo)] = {t: st_.project(a, t, lo) for t in st_.space(a, hi)}
    lo, hi = rng.choice(covers)
    victim = rng.choice(st_.space(agent, hi))
    del maps[(agent, hi, lo)][victim]
    return spaces, maps


def _mutate_break_surjectivity(scenario, rng):
    lat = scenario.lattice
    st_ = scenario.structure
    spaces = dict(scenario.structure.spaces)
    maps = {}
    for a in scenario.agents:
        for lo, hi in lat.covers():
            maps[(a, hi, lo)] = {t: st_.project(a, t, lo) for t in st_.space(a, hi)}
    agent = rng.choice(scenario.agents)
    lo, hi = rng.choice(lat.covers())
    spaces[(agent, lo)] = spaces[(agent, lo)] + ("orphan",)
    return spaces, maps


def test_mutated_structures_correctly_fail_validation():
    caught = 0
    for k in range(30):
        rng = random.Random(f"mutate:{k}")
        s = generate_scenario(2000 + k, 0)
        for mutate in (_mutate_drop_projection, _mutate_break_surjectivity):
            spaces, maps = mutate(s, rng)
            try:
                build_structure(s.lattice, s.agents, spaces, maps)
            except TypeStructureError:
                caught += 1
            else:
                raise AssertionError(f"mutation went unnoticed on seed {k}")
    assert caught == 60


def test_mutated_order_correctly_fails_lattice_axioms():
    # removing the diamond's top makes the two middle levels joinless
    violations = lattice_violations(
        ["bot", "west", "east"], [("bot", "west"), ("bot", "east")])
    assert any("join" in v for v in violations)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_any_seed_yields_a_loadable_scenario(seed, procurement):
    s = generate_scenario(seed, 0, procurement=procurement)
    assert not s.outcomes.violations()
    assert s.draws


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pooled_levels_monotone_along_generated_transcripts(seed):
    s = generate_scenario(seed, 1)
    top = s.lattice.top
    state = engine.initial_state(s, top, next(s.structure.profiles(top)),
                                 (top,) * len(s.agents))
    for terminal in islice(
            engine.iter_completions(s, state, {a: engine.FREE for a in s.agents}), 500):
        for earlier, later in zip(terminal.pooled, terminal.pooled[1:]):
            assert s.lattice.leq(earlier, later)


def test_procurement_costs_weakly_increase_along_elaboration():
    for k in range(12):
        s = generate_scenario(3000 + k, 0, procurement=True)
        supplies = s.scheme.supplies
        for seller, outcome in supplies.items():
            for level in s.lattice.elements:
                for t in s.structure.space(seller, level):
                    cost = -s.outcomes.value(seller, t, outcome)
                    for lower in s.lattice.strictly_below(level):
                        coarse = s.structure.project(seller, t, lower)
                        assert cost >= -s.outcomes.value(seller, coarse, outcome)
