"""Every lookup table is its own checked accessor.

A table read raises the same domain error, with the same message, that the
accessor reading a plain dict raised (``reference.CheckedAccessors``), over
a grid of undeclared agents, types, levels and outcomes in every key
position and of levels above, below and incomparable to a type's own.  No
bad key given to a public lookup escapes as a ``KeyError``, a
``StopIteration`` or, read inside a generator, a ``RuntimeError``.  And no
table keeps its owner alive: a played scenario is freed on ``del`` with the
cyclic collector off.
"""
import gc
import weakref
from itertools import product

import pytest

import reference
from elabmech import engine, generate
from elabmech.engine import InfeasibleReport
from elabmech.fixtures import FIXTURES, fixture
from elabmech.generate import generate_scenario
from elabmech.lattice import UnknownLevel
from elabmech.scenario import UnknownDraw, parse_scenario
from elabmech.transfers import Mechanism
from elabmech.typespace import UnknownType
from test_scenario_io import DIAMOND


def _generated(procurement=False, shape=None):
    """The first generated scenario at seed 2026 of the kind, on the shape."""
    return next(s for s in (generate_scenario(2026, k, procurement) for k in range(100))
                if shape is None or s.lattice.elements == shape)


SCENARIOS = {
    "example1": lambda: fixture("example1"),
    "example2": lambda: fixture("example2"),
    "example4r": lambda: fixture("example4r"),
    "generated-diamond": lambda: _generated(shape=generate.DIAMOND),
    "diamond": lambda: parse_scenario(DIAMOND),
}


def _outcome(read, *key):
    try:
        return "returns", read(*key)
    except Exception as err:  # the comparison is of the error's type and message
        return type(err), str(err)


def _agree(grid, *reads):
    """Each read returns or raises what the last, the reference, does."""
    *news, old = reads
    for key in grid:
        want = _outcome(old, *key)
        for new in news:
            assert _outcome(new, *key) == want, key


@pytest.mark.parametrize("name", ["example1", "example2", "generated-diamond", "diamond"])
def test_every_table_misses_as_its_checked_accessor_did(name):
    s = SCENARIOS[name]()
    ref = reference.CheckedAccessors(s, FIXTURES)
    lattice, structure, outcomes = s.lattice, s.structure, s.outcomes
    levels = (*lattice.elements, "zz")
    agents = (*structure.agents, "zz")
    types = (*dict.fromkeys(t for ts in structure.spaces.values() for t in ts), "zz")
    if name != "example2":  # a chain; every other grid holds incomparable levels
        assert any(not lattice.leq(a, b) and not lattice.leq(b, a)
                   for a, b in product(lattice.elements, repeat=2))

    pairs = list(product(levels, repeat=2))
    _agree(pairs, lambda a, b: lattice.join_table[(a, b)], lattice.join, ref.join)
    _agree(pairs, lambda a, b: lattice.meet_table[(a, b)], lattice.meet, ref.meet)
    _agree(pairs, lattice.leq, ref.leq)
    _agree([(level,) for level in levels] + [(pair,) for pair in pairs],
           lattice.down_set, ref.down_set)

    _agree(list(product(agents, types)),
           lambda a, t: structure.level_table[(a, t)], structure.level_of, ref.level_of)
    triples = list(product(agents, types, levels))
    _agree(triples, lambda a, t, level: structure.projection_table[(a, t, level)],
           structure.project, ref.project)
    _agree(triples, structure.preimage, ref.preimage)

    _agree(list(product(agents, types, (*outcomes.outcomes, "zz"))),
           lambda a, t, x: outcomes.valuations[(a, t, x)], outcomes.value, ref.value)

    _agree([(f,) for f in (*FIXTURES, "nosuch")], FIXTURES.__getitem__, ref.fixture_text)
    _agree([("nosuch",)], fixture, ref.fixture_text)

    # A stage profile with a foreign or undeclared report in any position.
    menus = []
    for agent in structure.agents:
        own = [t for (a, _), ts in structure.spaces.items() if a == agent for t in ts]
        foreign = [t for t in types if t not in own]  # another agent's type, then "zz"
        menus.append((*own, *dict.fromkeys((foreign[0], "zz"))))
    _agree([((stage,), (target,)) for stage in product(*menus) for target in lattice.elements],
           lambda stages, pooled: engine.pooled_recipient(structure, stages, pooled),
           ref.pooled_recipient)


def _in_generator(read):
    """``read`` called inside a generator, where a StopIteration would
    surface as a RuntimeError."""
    return lambda *key: next(read(*key) for _ in (None,))


@pytest.mark.parametrize("name", ["example1", "example2", "generated-diamond", "diamond"])
def test_no_bad_key_escapes_as_a_non_domain_error(name):
    s = SCENARIOS[name]()
    lattice, structure, agents = s.lattice, s.structure, s.agents
    levels = (*lattice.elements, "zz")
    top = lattice.top
    state = engine.initial_state(s, top, next(structure.profiles(top)), (top,) * len(agents))
    later = engine.advance(s, state, state.perceived)
    # (read, key, the error a miss raises); every other key is a hit.
    grid = [
        *((structure.space, (a, level), UnknownType if a == "zz" else UnknownLevel)
          for a in (*agents, "zz") for level in levels),
        *((lambda a, level: structure.spaces[(a, level)], (a, level),
           UnknownType if a == "zz" else UnknownLevel)
          for a in (*agents, "zz") for level in levels),
        *((structure.agent_position.__getitem__, (a,), UnknownType) for a in (*agents, "zz")),
        *((s.outcomes.available.__getitem__, (level,), UnknownLevel) for level in levels),
        *((s.draw, (d,), UnknownDraw) for d in (*s.draws, "nosuch")),
        *((lambda st, a: engine.feasible_reports(s, st, a), (st, a),
           UnknownType if a == "zz" else InfeasibleReport)
          for st in (state, later, state._replace(awareness=("zz",) * len(agents)),
                     later._replace(history=(("zz",) * len(agents),)))
          for a in (*agents, "zz")),
        *((read, ((a, b),), UnknownLevel) for a, b in product(lattice.elements, repeat=2)
          for read in (lattice.down_set, lattice.strictly_below)),
        *((lattice.join_table.__getitem__, (key,), UnknownLevel)
          for a in lattice.elements for key in ((a,), (a, a, a))),
    ]
    misses = 0
    for read, key, error in grid:
        for reader in (read, _in_generator(read)):
            try:
                reader(*key)
            except (KeyError, StopIteration, RuntimeError) as err:
                pytest.fail(f"{key} escaped as {type(err).__name__}: {err}")
            except Exception as err:
                assert type(err) is error, (key, err)
                misses += 1
    assert misses >= 2 * (4 * len(agents) + 2 * len(lattice.elements) ** 2)


@pytest.mark.parametrize("make", [
    *(f"fixture-{name}" for name in FIXTURES), "generated-clarke", "generated-procurement"])
def test_a_played_scenario_is_freed_without_the_cycle_collector(make):
    makers = {**{f"fixture-{name}": SCENARIOS[name] for name in FIXTURES},
              "generated-clarke": _generated,
              "generated-procurement": lambda: _generated(procurement=True)}
    gc.collect()
    gc.disable()
    try:
        s = makers[make]()
        mech = Mechanism(s, s.scheme)
        mech.report(mech.run(s.draw(), s.lattice.top))
        refs = [weakref.ref(x) for x in (s, s.structure, s.lattice, s.outcomes)]
        del s, mech
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
