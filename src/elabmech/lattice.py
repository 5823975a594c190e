"""Finite lattices of awareness levels.

Levels are opaque string identifiers.  The order may be given as any
generating relation (typically the Hasse diagram); the reflexive-transitive
closure is computed before the lattice axioms are checked.  A validated
``Lattice`` is immutable and safe for concurrent reads.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable


class LatticeError(Exception):
    pass


class EmptyLattice(LatticeError):
    pass


class UnknownLevel(LatticeError):
    pass


class NotALattice(LatticeError):
    """Raised when the candidate order fails an axiom.

    ``violations`` holds one human-readable string per failure.
    """

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _closure(elements: tuple[str, ...], pairs: Iterable[tuple[str, str]]) -> set[tuple[str, str]]:
    leq = {(a, a) for a in elements}
    leq.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


def _analyse(elements: Iterable[str], order: Iterable[tuple[str, str]]
             ) -> tuple[tuple[str, ...], set[tuple[str, str]], dict, dict, list[str]]:
    """Validate and tabulate in one pass.

    Returns ``(elems, leq, join, meet, violations)``; the order, closure and
    tables are complete only when ``violations`` is empty.
    """
    elems = tuple(dict.fromkeys(elements))
    pairs = list(order)
    join: dict[tuple[str, str], str] = {(a, a): a for a in elems}
    meet = dict(join)
    if not elems:
        return elems, set(), join, meet, ["empty element set"]
    violations = [f"order pair ({a}, {b}) references undeclared level"
                  for a, b in pairs if a not in elems or b not in elems]
    if violations:
        return elems, set(), join, meet, violations
    leq = _closure(elems, pairs)
    violations = [f"antisymmetry breach: {a} and {b} are mutually below each other"
                  for a, b in combinations(elems, 2) if (a, b) in leq and (b, a) in leq]
    if violations:
        return elems, leq, join, meet, violations
    for a, b in combinations(elems, 2):
        uppers = [c for c in elems if (a, c) in leq and (b, c) in leq]
        least = [c for c in uppers if all((c, d) in leq for d in uppers)]
        if len(least) == 1:
            join[(a, b)] = join[(b, a)] = least[0]
        else:
            violations.append(f"no unique join witness for ({a}, {b})")
        lowers = [c for c in elems if (c, a) in leq and (c, b) in leq]
        greatest = [c for c in lowers if all((d, c) in leq for d in lowers)]
        if len(greatest) == 1:
            meet[(a, b)] = meet[(b, a)] = greatest[0]
        else:
            violations.append(f"no unique meet witness for ({a}, {b})")
    return elems, leq, join, meet, violations


def lattice_violations(elements: Iterable[str], order: Iterable[tuple[str, str]]) -> list[str]:
    """Check lattice axioms; return [] when (elements, order) form a lattice."""
    return _analyse(elements, order)[4]


class Lattice:
    """A validated finite lattice with precomputed join/meet tables.

    Construct through :func:`build_lattice`; the constructor assumes the
    closure in ``leq`` and the tables already satisfy the axioms.
    """

    def __init__(self, elements: tuple[str, ...], leq: set[tuple[str, str]],
                 join: dict[tuple[str, str], str], meet: dict[tuple[str, str], str]):
        self.elements = elements
        self._leq = frozenset(leq)
        self._join = join
        self._meet = meet
        self._down: dict[str, frozenset[str]] = {
            a: frozenset(b for b in elements if (b, a) in leq) for a in elements
        }
        self.top = self.join_all(elements)
        self.bottom = self.meet_all(elements)
        depth = {a: 0 for a in elements}
        for a in sorted(elements, key=lambda x: len(self._down[x])):
            for b in self._down[a] - {a}:
                depth[a] = max(depth[a], depth[b] + 1)
        self._height = max(depth.values())

    def _check(self, *levels: str) -> None:
        for level in levels:
            if level not in self._down:
                raise UnknownLevel(f"undeclared level {level!r}")

    def leq(self, a: str, b: str) -> bool:
        self._check(a, b)
        return (a, b) in self._leq

    def lt(self, a: str, b: str) -> bool:
        return a != b and self.leq(a, b)

    def join(self, a: str, b: str) -> str:
        self._check(a, b)
        return self._join[(a, b)]

    def meet(self, a: str, b: str) -> str:
        self._check(a, b)
        return self._meet[(a, b)]

    def join_all(self, levels: Iterable[str]) -> str:
        result = None
        for level in levels:
            result = level if result is None else self.join(result, level)
        if result is None:
            raise EmptyLattice("join of no levels")
        return result

    def meet_all(self, levels: Iterable[str]) -> str:
        result = None
        for level in levels:
            result = level if result is None else self.meet(result, level)
        if result is None:
            raise EmptyLattice("meet of no levels")
        return result

    def down_set(self, level: str) -> frozenset[str]:
        """All levels weakly below ``level``, including itself."""
        self._check(level)
        return self._down[level]

    def strictly_below(self, level: str) -> frozenset[str]:
        self._check(level)
        return self._down[level] - {level}

    def covers(self) -> list[tuple[str, str]]:
        """Hasse-diagram edges (a, b) with b covering a."""
        edges = []
        for a in self.elements:
            for b in self.elements:
                if a == b or not self.leq(a, b):
                    continue
                if not any(c not in (a, b) and self.leq(a, c) and self.leq(c, b)
                           for c in self.elements):
                    edges.append((a, b))
        return edges

    def height(self) -> int:
        """Length (edge count) of the longest chain."""
        return self._height

    def __contains__(self, level: str) -> bool:
        return level in self._down

    def __repr__(self) -> str:
        return f"Lattice({len(self.elements)} levels, top={self.top!r}, bottom={self.bottom!r})"


def build_lattice(elements: Iterable[str], order: Iterable[tuple[str, str]]) -> Lattice:
    """Validate and build a lattice from elements and a generating relation."""
    elems, leq, join, meet, violations = _analyse(elements, order)
    if not elems:
        raise EmptyLattice("no elements")
    if violations:
        raise NotALattice(violations)
    return Lattice(elems, leq, join, meet)
