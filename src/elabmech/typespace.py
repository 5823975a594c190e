"""Per-agent, level-indexed payoff type spaces with projection tables.

A type lives at exactly one awareness level of its agent.  Projections
strip a type down to any weakly lower level; they are supplied along
covering edges of the lattice and composed into the full table along one
path, and every supplied table is then checked to commute with it.
Preimages collect the elaborations of a type at one weakly higher level.
"""
from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Mapping, NamedTuple

from .lattice import Lattice, Table


class TypeStructureError(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class UnknownType(Exception):
    pass


class LevelNotBelow(Exception):
    pass


class NatureDraw(NamedTuple):
    """A move of nature: top-level true types plus an awareness level per agent."""

    true_types: tuple[str, ...]
    awareness: tuple[str, ...]


def _wrong_side(levels: Table, lattice: Lattice, side: str):
    """The miss of an (agent, type, level) table holding the levels on one
    ``side`` of the type's own: UnknownType, UnknownLevel, then LevelNotBelow."""
    def miss(key):
        agent, t, level = key
        own = levels[(agent, t)]
        lattice.leq(own, level)  # an undeclared level raises UnknownLevel
        return LevelNotBelow(f"{level} is not {side} {own}")
    return miss


class TypeStructure:
    """Validated type spaces.  Immutable; concurrent reads are safe.

    ``agent_position`` maps each agent to its index, ``spaces`` (agent, level)
    to its types, ``level_table`` (agent, type) to its level and
    ``projection_table`` (agent, type, level) to its projection at each level
    weakly below its own.  Each is a :class:`~lattice.Table` raising UnknownType
    first for an undeclared agent or type, so callers read them directly.
    """

    def __init__(self, lattice: Lattice, agents: tuple[str, ...],
                 spaces: Mapping[tuple[str, str], tuple[str, ...]],
                 projection: Mapping[tuple[str, str, str], str]):
        self.lattice = lattice
        self.agents = agents
        positions = self.agent_position = Table({a: i for i, a in enumerate(agents)},
                                                lambda a: UnknownType(f"undeclared agent {a!r}"))
        self.spaces = Table(spaces, lambda key: lattice.miss(key[1]) if key[0] in positions
                            else positions[key[0]])  # an undeclared agent raises UnknownType
        levels = self.level_table = Table({}, lambda key: UnknownType(f"{key[0]}: {key[1]}"))
        self.projection_table = Table(projection, _wrong_side(levels, lattice, "below"))
        # One pass over the spaces: each type records its level and joins,
        # in space order, the preimage of each of its projections.
        preimage: dict[tuple[str, str, str], list[str]] = {}
        for (agent, hi), types in self.spaces.items():
            for s in types:
                levels[(agent, s)] = hi
                for lo in lattice.down_set(hi):
                    preimage.setdefault((agent, projection[(agent, s, lo)], hi), []).append(s)
        self._preimage = Table({key: tuple(pre) for key, pre in preimage.items()},
                               _wrong_side(levels, lattice, "above"))

    def space(self, agent: str, level: str) -> tuple[str, ...]:
        return self.spaces[(agent, level)]

    def level_of(self, agent: str, t: str) -> str:
        return self.level_table[(agent, t)]

    def project(self, agent: str, t: str, level: str) -> str:
        return self.projection_table[(agent, t, level)]

    def preimage(self, agent: str, t: str, level: str) -> tuple[str, ...]:
        """Types at ``level`` projecting onto ``t``; requires level above t's own."""
        return self._preimage[(agent, t, level)]

    def pooled_level(self, profile: tuple[str, ...]) -> str:
        """Join of the per-agent levels of a full type profile."""
        return self.lattice.join_all(
            self.level_of(agent, t) for agent, t in zip(self.agents, profile))

    def profiles(self, level: str) -> Iterator[tuple[str, ...]]:
        """All full type profiles with every component at ``level``."""
        return product(*(self.spaces[(agent, level)] for agent in self.agents))

    def opponent_profiles(self, agent: str, level: str) -> Iterator[tuple[str, ...]]:
        """All type profiles of ``agent``'s opponents at ``level``, in agent order."""
        return product(*(self.spaces[(a, level)] for a in self.agents if a != agent))


def validate_draw(structure: TypeStructure, draw: NatureDraw) -> list[str]:
    violations = []
    top = structure.lattice.top
    for agent, t, level in zip(structure.agents, draw.true_types, draw.awareness):
        if t not in structure.spaces[(agent, top)]:
            violations.append(f"true type {t} of {agent} is not in the top-level space")
        if level not in structure.lattice:
            violations.append(f"awareness level {level} of {agent} is undeclared")
    return violations


def build_structure(lattice: Lattice, agents: Iterable[str],
                    spaces: Mapping[tuple[str, str], Iterable[str]],
                    edge_maps: Mapping[tuple[str, str, str], Mapping[str, str]],
                    ) -> TypeStructure:
    """Validate spaces and covering-edge projections; compose the full table.

    ``edge_maps`` maps (agent, higher level, lower level) to a dict sending
    each type of the higher space to one of the lower space; pairs beyond
    the covering relation may be supplied.  A type projects to each lower
    level through the first cover (in ``lattice.covers()`` order) below its
    own level that lies above the target.  Every supplied table must then
    commute with that composite at every level below its target.
    Diagnostics come in declaration order, whatever the hash seed.
    """
    agents = tuple(dict.fromkeys(agents))
    violations: list[str] = []
    if not agents:
        violations.append("no agents declared")
    for agent, level in spaces:
        if agent not in agents or level not in lattice:
            violations.append(f"space ({agent}, {level}) references undeclared names")
    norm: dict[tuple[str, str], tuple[str, ...]] = {}
    seen: dict[tuple[str, str], str] = {}
    for agent in agents:
        for level in lattice.elements:
            types = tuple(dict.fromkeys(spaces.get((agent, level), ())))
            if not types:
                violations.append(f"empty type space for ({agent}, {level})")
            for t in types:
                prior = seen.get((agent, t))
                if prior is not None:
                    violations.append(f"type {t} of {agent} declared at both {prior} and {level}")
                seen[(agent, t)] = level
            norm[(agent, level)] = types
    if violations:
        raise TypeStructureError(violations)

    covers = lattice.covers()
    for (agent, hi, lo), table in edge_maps.items():
        if agent not in agents or hi not in lattice or lo not in lattice:
            violations.append(f"projection ({agent}, {hi} -> {lo}) references undeclared names")
            continue
        if not lattice.lt(lo, hi):
            violations.append(f"projection ({agent}, {hi} -> {lo}) is not downward")
            continue
        for src, dst in table.items():
            if src not in norm[(agent, hi)]:
                violations.append(f"projection ({agent}, {hi} -> {lo}) maps undeclared type {src}")
            elif dst not in norm[(agent, lo)]:
                violations.append(f"projection ({agent}, {hi} -> {lo}) targets undeclared type {dst}")
    if violations:
        raise TypeStructureError(violations)

    for agent in agents:
        for (lo, hi) in covers:
            table = edge_maps.get((agent, hi, lo))
            if table is None:
                violations.append(f"missing projection for ({agent}, {hi} -> {lo})")
            else:
                missing = [t for t in norm[(agent, hi)] if t not in table]
                if missing:
                    violations.append(
                        f"projection ({agent}, {hi} -> {lo}) undefined on {', '.join(missing)}")
    if violations:
        raise TypeStructureError(violations)

    # Compose up the levels, each from the ones already filled below it.
    below = {hi: [lo for lo in lattice.elements if lattice.lt(lo, hi)] for hi in lattice.elements}
    full = {(agent, t, level): t for (agent, level), types in norm.items() for t in types}
    for hi in sorted(lattice.elements, key=lambda x: len(below[x])):
        for lo in below[hi]:
            via = next(a for a, b in covers if b == hi and lattice.leq(lo, a))
            for agent in agents:
                step = edge_maps[(agent, hi, via)]
                for t in norm[(agent, hi)]:
                    full[(agent, t, lo)] = full[(agent, step[t], lo)]

    # Every supplied table, cover or longer, must commute with the composite.
    for (agent, hi, lo), table in edge_maps.items():
        for t in norm[(agent, hi)]:
            dst = table.get(t)
            low = next((low for low in (lo, *below[lo])
                        if dst is None or full[(agent, dst, low)] != full[(agent, t, low)]), None)
            if low is not None:
                violations.append(f"projection ({agent}, {hi} -> {lo}) disagrees with "
                                  f"composition on {t} at {low}")
    if violations:
        raise TypeStructureError(violations)

    for agent in agents:
        for hi in lattice.elements:
            for lo in below[hi]:
                image = {full[(agent, t, lo)] for t in norm[(agent, hi)]}
                unreached = set(norm[(agent, lo)]) - image
                if unreached:
                    violations.append(
                        f"projection ({agent}, {hi} -> {lo}) is not surjective; "
                        f"unreached: {', '.join(sorted(unreached))}")
    if violations:
        raise TypeStructureError(violations)

    return TypeStructure(lattice, agents, norm, full)
