"""Seeded random scenario generation for the property suites.

Sizes stay within what the exhaustive checks can enumerate: one of the three
lattice shapes in ``SHAPES`` (two- and three-level chains, the four-level
diamond), at most three agents, at most three types per agent per level, at
most four outcomes.

One partition rule serves any lattice: levels are visited by falling
down-set size, and each level's types are a random coarsening of the common
coarsening of its upper covers' types, so the projection laws (identity,
composition, surjectivity) hold by construction.  Procurement scenarios give
sellers costs that weakly grow along elaboration: a richer description can
only reveal additional cost items, never erase known ones.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

from .lattice import Lattice, build_lattice
from .scenario import Scenario
from .outcomes import OutcomeModel
from .transfers import CLARKE, RSPA, SchemeConfig
from .typespace import NatureDraw, build_structure

CHAIN2 = ("l0", "l1")
CHAIN3 = ("l0", "l1", "l2")
DIAMOND = ("bot", "west", "east", "top")
# The shapes the generator draws, in draw order: (elements, Hasse edges).
SHAPES = {
    "chain2": (CHAIN2, [("l0", "l1")]),
    "chain3": (CHAIN3, [("l0", "l1"), ("l1", "l2")]),
    "diamond": (DIAMOND, [("bot", "west"), ("bot", "east"), ("west", "top"), ("east", "top")]),
}


def _lattice(rng: random.Random) -> Lattice:
    return build_lattice(*SHAPES[rng.choice(tuple(SHAPES))])


def _coarsen(rng: random.Random, blocks: list[frozenset[int]],
             size: int) -> list[frozenset[int]]:
    """Merge blocks down to ``size`` groups (a random coarsening)."""
    groups = [{b} for b in blocks]
    while len(groups) > size:
        a, b = rng.sample(range(len(groups)), 2)
        if a > b:
            a, b = b, a
        groups[a] = groups[a] | groups[b]
        del groups[b]
    return [frozenset().union(*g) for g in groups]


def _common_coarsening(left: list[frozenset[int]],
                       right: list[frozenset[int]]) -> list[frozenset[int]]:
    """Finest partition coarser than both inputs."""
    merged = [set(b) for b in left]
    for block in right:
        hits = [g for g in merged if g & block]
        rest = [g for g in merged if not (g & block)]
        merged = rest + [set().union(block, *hits)]
    return [frozenset(g) for g in merged]


def _partitions(rng: random.Random, lattice: Lattice, covers: list[tuple[str, str]],
                top_size: int) -> dict[str, list[frozenset[int]]]:
    """A refinement-monotone partition of range(top_size) per level; a stable
    sort keeps declaration order among levels of equal down-set size."""
    parts = {lattice.top: [frozenset([k]) for k in range(top_size)]}
    for level in sorted(lattice.elements, key=lambda x: -len(lattice.down_set(x)))[1:]:
        common = reduce(_common_coarsening, [parts[hi] for lo, hi in covers if lo == level])
        parts[level] = _coarsen(rng, common, rng.randint(1, len(common)))
    return parts


def generate_scenario(seed: int, index: int = 0, procurement: bool = False) -> Scenario:
    rng = random.Random(f"{seed}:{index}:{procurement}")
    lattice = _lattice(rng)
    if procurement:
        agents = ("s1", "s2", "b")
        buyer = "b"
    else:
        agents = tuple(f"a{k + 1}" for k in range(rng.randint(2, 3)))
        buyer = None

    covers = lattice.covers()
    spaces: dict[tuple[str, str], tuple[str, ...]] = {}
    edge_maps: dict[tuple[str, str, str], dict[str, str]] = {}
    for agent in agents:
        top_size = 1 if agent == buyer and rng.random() < 0.5 else rng.randint(1, 3)
        parts = _partitions(rng, lattice, covers, top_size)
        for level, blocks in parts.items():
            spaces[(agent, level)] = tuple(f"{agent}_{level}_{k}" for k in range(len(blocks)))
        for lo, hi in covers:
            # a block of hi lies inside one block of lo, the one holding any member
            type_at_lo = {m: t for t, block in zip(spaces[(agent, lo)], parts[lo]) for m in block}
            edge_maps[(agent, hi, lo)] = {t: type_at_lo[min(block)]
                                          for t, block in zip(spaces[(agent, hi)], parts[hi])}
    structure = build_structure(lattice, agents, spaces, edge_maps)

    valuations: dict[tuple[str, str, str], Fraction] = {}
    if procurement:
        supplies = {a: f"supply_{a}" for a in agents if a != buyer}
        outcomes = tuple(supplies.values()) + ("idle",)
        available = {level: outcomes for level in lattice.elements}
        levels_up = sorted(lattice.elements, key=lambda x: len(lattice.down_set(x)))
        cost: dict[tuple[str, str], Fraction] = {}
        for agent in agents:
            for level in levels_up:
                for t in structure.space(agent, level):
                    if level == lattice.bottom:
                        cost[(agent, t)] = Fraction(rng.randint(1, 9))
                    else:
                        below = max(cost[(agent, structure.project(agent, t, lower))]
                                    for lower in lattice.strictly_below(level))
                        cost[(agent, t)] = below + rng.randint(0, 4)
        for agent in agents:
            for level in lattice.elements:
                for t in structure.space(agent, level):
                    for x0 in outcomes:
                        if agent != buyer and x0 == supplies[agent]:
                            valuations[(agent, t, x0)] = -cost[(agent, t)]
                        else:
                            valuations[(agent, t, x0)] = Fraction(0)
        scheme = SchemeConfig(kind=RSPA, buyer=buyer, supplies=supplies)
    else:
        n_outcomes = rng.randint(2, 4)
        outcomes = tuple(f"x{k}" for k in range(n_outcomes))
        available = {}
        for level in lattice.elements:
            keep = [x for x in outcomes if rng.random() < 0.8]
            available[level] = tuple(keep) if keep else (outcomes[0],)
        for agent in agents:
            for level in lattice.elements:
                for t in structure.space(agent, level):
                    for x0 in outcomes:
                        valuations[(agent, t, x0)] = Fraction(rng.randint(0, 9))
        scheme = SchemeConfig(kind=CLARKE)
    model = OutcomeModel(structure, outcomes, available, valuations)

    top = lattice.top
    draw = NatureDraw(tuple(rng.choice(structure.space(a, top)) for a in agents),
                      tuple(rng.choice(sorted(lattice.elements)) for a in agents))
    name = f"generated-{seed}-{index}" + ("-procurement" if procurement else "")
    scenario = Scenario(lattice, structure, model, scheme, {"main": draw}, name)
    bad = model.violations()
    if bad:
        raise AssertionError(f"generator produced an invalid scenario: {bad}")
    return scenario
