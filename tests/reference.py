"""Slow reference implementations that the fast paths are differential-tested against.

Each is the earlier, enumerating form of a construction that ``elabmech``
now builds once in closed form: the welfare decomposition by Gaussian
elimination over the rationals, and the projection closure by comparing
every covering path.
"""
from __future__ import annotations

from fractions import Fraction

from elabmech.transfers import opponent_profile


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
