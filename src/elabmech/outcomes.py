"""Physical outcomes, exact-rational valuations, and welfare maximization.

Valuations are ``fractions.Fraction`` throughout; transfers downstream
demand exact equality, so floats never enter.  Availability is indexed by
awareness level and need not be monotone.  The welfare argmax and the
opponent-restricted argmax break ties by a scenario-supplied total order
over outcomes (default: identifier order), so outputs are deterministic.
The efficient outcome is the restricted argmax that leaves nobody out.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .lattice import Table
from .typespace import TypeStructure


class MissingValuation(Exception):
    pass


class OutcomeModel:
    """Valuation tables plus the efficient-outcome functions.

    ``_efficient`` memoizes the one argmax per (left-out agent or None,
    profile) asked, filled lazily: filling it at load costs 0.13 + 0.30 ms
    median per generated scenario against 0.38 ms to parse it (2-core Xeon,
    Python 3.11), and most queries ask for few profiles.
    """

    def __init__(self, structure: TypeStructure, outcomes: Iterable[str],
                 available: Mapping[str, Iterable[str]],
                 valuations: Mapping[tuple[str, str, str], Fraction],
                 tie_break: Iterable[str] | None = None):
        self.structure = structure
        self.outcomes = tuple(dict.fromkeys(outcomes))
        self.available = Table({level: tuple(dict.fromkeys(xs)) for level, xs in available.items()},
                               structure.lattice.miss)
        self.valuations = Table({key: Fraction(v) for key, v in valuations.items()},
                                lambda key: MissingValuation("(%s, %s, %s)" % key))
        order = tuple(tie_break) if tie_break is not None else tuple(sorted(self.outcomes))
        self.tie_break = order
        self.rank = {x: k for k, x in enumerate(order)}
        self._efficient: dict[tuple[str | None, tuple[str, ...]], str] = {}

    def violations(self) -> list[str]:
        """Domain diagnostics: availability and valuation-table completeness.

        Every type needs a valuation for each outcome available at any level
        weakly below the type's own level; coarse-stage outcomes are evaluated
        against finer types by the premium recursion, so the domain is widened
        accordingly.
        """
        out = []
        if self.tie_break and sorted(self.tie_break) != sorted(self.outcomes):
            out.append("tie_break is not a total order over the declared outcomes")
        lattice = self.structure.lattice
        out.extend(f"available({level}) names an undeclared level"
                   for level in self.available if level not in lattice)
        for level in lattice.elements:
            xs = self.available.get(level, ())
            if not xs:
                out.append(f"no outcome available at level {level}")
            for x in xs:
                if x not in self.outcomes:
                    out.append(f"available({level}) lists undeclared outcome {x}")
        for (agent, t, x), _ in self.valuations.items():
            if (agent, t) not in self.structure.level_table:
                out.append(f"valuation references undeclared type ({agent}, {t})")
            if x not in self.outcomes:
                out.append(f"valuation references undeclared outcome {x}")
        for agent in self.structure.agents:
            for level in lattice.elements:
                reachable = set()
                for lower in lattice.down_set(level):
                    reachable.update(self.available.get(lower, ()))
                for t in self.structure.space(agent, level):
                    for x in sorted(reachable):
                        if (agent, t, x) not in self.valuations:
                            out.append(f"missing valuation ({agent}, {t}, {x})")
        return out

    def value(self, agent: str, t: str, outcome: str) -> Fraction:
        return self.valuations[(agent, t, outcome)]

    def welfare(self, outcome: str, profile: tuple[str, ...]) -> Fraction:
        return self.opponents_welfare(None, outcome, profile)

    def opponents_welfare(self, agent: str | None, outcome: str,
                          profile: tuple[str, ...]) -> Fraction:
        """Welfare of every agent but ``agent`` (of all of them for None)."""
        return sum((self.value(other, t, outcome)
                    for other, t in zip(self.structure.agents, profile) if other != agent),
                   Fraction(0))

    def efficient_outcome(self, profile: tuple[str, ...]) -> str:
        """Welfare argmax over outcomes available at the profile's pooled level."""
        return self.restricted_efficient_outcome(None, profile)

    def restricted_efficient_outcome(self, agent: str | None, profile: tuple[str, ...]) -> str:
        """Argmax of the welfare of all but ``agent`` (None: of all), ties to the
        earliest in ``tie_break``; the full profile fixes the pooled level."""
        key = (agent, profile)
        best = self._efficient.get(key)
        if best is None:
            rank = self.rank
            best = self._efficient[key] = max(
                self.available[self.structure.pooled_level(profile)],
                key=lambda x: (self.opponents_welfare(agent, x, profile), -rank[x]))
        return best
