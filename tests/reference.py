"""Slow reference implementations that the fast paths are differential-tested against.

Each is the earlier, enumerating form of a construction that ``elabmech``
now builds once in closed form: the welfare decomposition by Gaussian
elimination over the rationals, and the projection closure by comparing
every covering path.  The play walk is an explicit-stack loop that keeps
each play's states, where the engine's walk keeps only the running path.
:class:`CheckedAccessors` keeps the lookups as they were before every
table raised its own domain error: plain dicts, each miss translated by
the accessor that reads it.
"""
from __future__ import annotations

from fractions import Fraction

from elabmech import engine
from elabmech.lattice import UnknownLevel
from elabmech.outcomes import MissingValuation
from elabmech.transfers import opponent_profile
from elabmech.typespace import LevelNotBelow, UnknownType


def iter_paths(scenario, state, policies, budget=None):
    """Every play from ``state`` as the tuple of states it reaches, ``state``
    first: depth first, report profiles in ``product`` order, each terminal
    charged before its play is yielded.  An explicit-stack loop, apart from
    ``engine.iter_completions``, so the engine's walk is checked against it."""
    path = [state]
    untried = []  # report profiles still to play at each running state of ``path``
    while True:
        if state.stopped:
            if budget is not None:
                budget.charge()
            yield tuple(path)
            path.pop()
        else:
            untried.append(engine.report_profiles(scenario, state, policies))
        while untried:
            reports = next(untried[-1], None)
            if reports is not None:
                state = engine.advance(scenario, path[-1], reports)
                path.append(state)
                break
            untried.pop()
            path.pop()
        else:
            return


def solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b over the rationals, or None when inconsistent.

    Plain Gaussian elimination; free variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        pivot = next((k for k in range(r, m) if a[k][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        scale = a[r][c]
        a[r] = [x / scale for x in a[r]]
        for k in range(m):
            if k != r and a[k][c] != 0:
                factor = a[k][c]
                a[k] = [x - factor * y for x, y in zip(a[k], a[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if a[k][n] != 0:
            return None
    solution = [Fraction(0)] * n
    for row, col in pivots:
        solution[col] = a[row][n]
    return solution


def decompose(scenario):
    """Solve the welfare decomposition exactly, level by level.

    Returns ``(g, None)``, or ``(None, reason)`` naming the first level whose
    system is inconsistent.
    """
    structure, model = scenario.structure, scenario.outcomes
    out = {}
    for level in scenario.lattice.elements:
        index: dict[tuple[str, tuple[str, ...]], int] = {}
        for agent in scenario.agents:
            for opp in structure.opponent_profiles(agent, level):
                index[(agent, opp)] = len(index)
        rows, rhs = [], []
        for profile in structure.profiles(level):
            row = [Fraction(0)] * len(index)
            for agent in scenario.agents:
                row[index[(agent, opponent_profile(scenario.agents, agent, profile))]] += 1
            rows.append(row)
            rhs.append(model.welfare(model.efficient_outcome(profile), profile))
        solution = solve_exact(rows, rhs)
        if solution is None:
            return None, (f"no additive decomposition of welfare exists at level {level}: "
                          f"the {len(rows)}-equation system over {len(index)} unknowns "
                          f"is inconsistent")
        for (agent, opp), k in index.items():
            out[(agent, level, opp)] = solution[k]
    return out, None


def compose_projections(lattice, agents, spaces, edge_maps):
    """The full projection table, or None when the tables do not form one.

    ``spaces`` and ``edge_maps`` are as for ``typespace.build_structure``,
    with every name declared and every table downward.  The closure is
    composed level pair by level pair, in increasing distance; every
    covering path, and every supplied longer table, is compared against
    one representative path.  The projections must be total on covers and
    surjective.
    """
    covers = set(lattice.covers())
    for agent in agents:
        for lo, hi in covers:
            table = edge_maps.get((agent, hi, lo))
            if table is None or any(t not in table for t in spaces[(agent, hi)]):
                return None
    full = {(agent, t, level): t for (agent, level), types in spaces.items() for t in types}
    ordered = sorted(lattice.elements, key=lambda x: len(lattice.down_set(x)))
    for agent in agents:
        for hi in ordered:
            for lo in lattice.strictly_below(hi):
                candidates = {}
                for a, b in covers:
                    if b == hi and lattice.leq(lo, a):
                        step = edge_maps[(agent, hi, a)]
                        candidates[a] = {t: full[(agent, step[t], lo)]
                                         for t in spaces[(agent, hi)]}
                rep = next(iter(candidates.values()))
                if any(table != rep for table in candidates.values()):
                    return None
                direct = edge_maps.get((agent, hi, lo))
                if direct is not None and (lo, hi) not in covers:
                    if any(direct.get(t) != rep[t] for t in spaces[(agent, hi)]):
                        return None
                for t in spaces[(agent, hi)]:
                    full[(agent, t, lo)] = rep[t]
    for agent in agents:
        for hi in lattice.elements:
            for lo in lattice.strictly_below(hi):
                image = {full[(agent, t, lo)] for t in spaces[(agent, hi)]}
                if image != set(spaces[(agent, lo)]):
                    return None
    return full


class _LevelKeyed(dict):
    """A dict keyed by a level or a pair of levels, total over the declared
    levels, whose miss names the first key level no key starts with, or the
    whole key when every level in it is declared."""

    def __missing__(self, key):
        declared = {k[0] if isinstance(k, tuple) else k for k in self}
        bad = next((x for x in (key if isinstance(key, tuple) else (key,)) if x not in declared),
                   key)
        raise UnknownLevel(f"undeclared level {bad!r}")


class CheckedAccessors:
    """The lattice, type-structure, valuation and fixture lookups of one
    scenario, each an accessor that checks its arguments, then reads a
    plain dict: the order, joins, meets and down-sets from the order alone,
    preimages by scanning the level's space."""

    def __init__(self, scenario, fixtures):
        lattice, structure = scenario.lattice, scenario.structure
        levels = lattice.elements
        self._leq = _LevelKeyed({(a, b): lattice.leq(a, b) for a in levels for b in levels})
        self._join = _LevelKeyed({(a, b): self._bound(levels, a, b, up=True)
                                  for a in levels for b in levels})
        self._meet = _LevelKeyed({(a, b): self._bound(levels, a, b, up=False)
                                  for a in levels for b in levels})
        self._down = _LevelKeyed({a: frozenset(b for b in levels if self._leq[(b, a)])
                                  for a in levels})
        self._level_of = {(agent, t): level for (agent, level), types in structure.spaces.items()
                          for t in types}
        self._proj = dict(structure.projection_table)
        self._spaces = dict(structure.spaces)
        self._agents = structure.agents
        self._valuations = dict(scenario.outcomes.valuations)
        self._fixtures = dict(fixtures)

    def _bound(self, levels, a, b, up):
        above = (lambda x, y: self._leq[(x, y)]) if up else (lambda x, y: self._leq[(y, x)])
        bounds = [c for c in levels if above(a, c) and above(b, c)]
        return next(c for c in bounds if all(above(c, d) for d in bounds))

    def leq(self, a, b):
        return self._leq[(a, b)]

    def join(self, a, b):
        return self._join[(a, b)]

    def meet(self, a, b):
        return self._meet[(a, b)]

    def down_set(self, level):
        return self._down[level]

    def level_of(self, agent, t):
        try:
            return self._level_of[(agent, t)]
        except KeyError:
            raise UnknownType(f"{agent}: {t}") from None

    def project(self, agent, t, level):
        own = self.level_of(agent, t)
        if not self.leq(level, own):
            raise LevelNotBelow(f"{level} is not below {own}")
        return self._proj[(agent, t, level)]

    def preimage(self, agent, t, level):
        own = self.level_of(agent, t)
        if not self.leq(own, level):
            raise LevelNotBelow(f"{level} is not above {own}")
        return tuple(s for s in self._spaces[(agent, level)] if self._proj[(agent, s, own)] == t)

    def value(self, agent, t, outcome):
        try:
            return self._valuations[(agent, t, outcome)]
        except KeyError:
            raise MissingValuation(f"({agent}, {t}, {outcome})") from None

    def fixture_text(self, name):
        try:
            return self._fixtures[name]
        except KeyError:
            raise KeyError(f"unknown fixture {name!r}; available: "
                           f"{', '.join(sorted(self._fixtures))}") from None

    def pooled_recipient(self, stages, pooled):
        target = pooled[-1]
        recipient = None
        try:
            for agent, report in zip(self._agents, stages[pooled.index(target)]):
                if self._level_of[(agent, report)] == target:
                    if recipient is not None:
                        return None
                    recipient = agent
        except KeyError:
            raise UnknownType(f"{agent}: {report}") from None
        return recipient
