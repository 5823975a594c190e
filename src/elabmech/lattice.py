"""Finite lattices of awareness levels.

Levels are opaque string identifiers.  The order may be given as any
generating relation (typically the Hasse diagram); the reflexive-transitive
closure is computed before the lattice axioms are checked.  A validated
``Lattice`` is immutable and safe for concurrent reads.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping


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
    """Reflexive-transitive closure of ``pairs`` by Warshall's algorithm."""
    up = {a: {a} for a in elements}
    for a, b in pairs:
        up[a].add(b)
    for k in elements:
        for a in elements:
            if k in up[a]:
                up[a] |= up[k]
    return {(a, b) for a in elements for b in up[a]}


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
    geq = {(b, a) for a, b in leq}
    for a, b in combinations(elems, 2):
        # the join is the least upper bound; the meet, the same in the dual order
        for name, table, order_ in (("join", join, leq), ("meet", meet, geq)):
            bounds = [c for c in elems if (a, c) in order_ and (b, c) in order_]
            best = [c for c in bounds if all((c, d) in order_ for d in bounds)]
            if len(best) == 1:
                table[(a, b)] = table[(b, a)] = best[0]
            else:
                violations.append(f"no unique {name} witness for ({a}, {b})")
    return elems, leq, join, meet, violations


def lattice_violations(elements: Iterable[str], order: Iterable[tuple[str, str]]) -> list[str]:
    """Check lattice axioms; return [] when (elements, order) form a lattice."""
    return _analyse(elements, order)[4]


class Table(dict):
    """A lookup table that is its own checked accessor: a miss raises the
    domain error ``miss(key)`` returns.  ``miss`` closes over the data it
    reads, never over the table's owner, lest a reference cycle keep it."""

    __slots__ = ("miss",)

    def __init__(self, entries: Mapping, miss):
        super().__init__(entries)
        self.miss = miss

    def __missing__(self, key):
        raise self.miss(key)


class Lattice:
    """A validated finite lattice whose every query is one table lookup.

    Construct through :func:`build_lattice`, which checks the axioms.  The
    constructor fills every table; none is written afterwards.  Every table,
    ``join_table`` and ``meet_table`` public, raises :class:`UnknownLevel` by the public ``miss``.
    """

    def __init__(self, elements: tuple[str, ...], leq: set[tuple[str, str]],
                 join: dict[tuple[str, str], str], meet: dict[tuple[str, str], str]):
        self.elements = elements

        def miss(key):  # names the key's first undeclared level, else the whole key
            bad = next((x for x in (key if isinstance(key, tuple) else (key,))
                        if x not in elements), key)
            return UnknownLevel(f"undeclared level {bad!r}")
        self.miss = miss
        self._leq = Table({(a, b): (a, b) in leq for a in elements for b in elements}, miss)
        self.join_table = Table(join, miss)
        self.meet_table = Table(meet, miss)
        self._down = Table({a: frozenset(b for b in elements if (b, a) in leq)
                            for a in elements}, miss)
        self._below = Table({a: down - {a} for a, down in self._down.items()}, miss)
        self.top = self.join_all(elements)
        self.bottom = next(a for a in elements if not self._below[a])
        depth: dict[str, int] = {}
        for a in sorted(elements, key=lambda x: len(self._down[x])):
            depth[a] = max((depth[b] + 1 for b in self._below[a]), default=0)
        self._height = max(depth.values())

    def leq(self, a: str, b: str) -> bool:
        return self._leq[(a, b)]

    def lt(self, a: str, b: str) -> bool:
        return self.leq(a, b) and a != b

    def join(self, a: str, b: str) -> str:
        return self.join_table[(a, b)]

    def meet(self, a: str, b: str) -> str:
        return self.meet_table[(a, b)]

    def join_all(self, levels: Iterable[str]) -> str:
        result = None
        for level in levels:
            result = level if result is None else self.join(result, level)
        if result is None:
            raise EmptyLattice("join of no levels")
        return self.join_table[(result, result)]  # UnknownLevel for a lone bad level

    def down_set(self, level: str) -> frozenset[str]:
        """All levels weakly below ``level``, including itself."""
        return self._down[level]

    def strictly_below(self, level: str) -> frozenset[str]:
        return self._below[level]

    def covers(self) -> list[tuple[str, str]]:
        """Hasse-diagram edges (a, b) with b covering a."""
        return [(a, b) for a in self.elements for b in self.elements
                if a in self._below[b] and not any(a in self._below[c] for c in self._below[b])]

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
