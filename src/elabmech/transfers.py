"""Transfer schemes over stopped transcripts.

Four kinds:

* ``groves``  -- opponents' realized welfare at the efficient outcome plus a
  scenario-supplied y-term over opponents' final types, plus the awareness
  premium adjustment.
* ``clarke``  -- the groves scheme with y derived as minus opponents' welfare
  at the agent-excluded efficient outcome (the pivot preset).
* ``rspa``    -- reverse second price auction for procurement: the lowest-cost
  seller supplies and is paid the second-lowest cost; the buyer is the sink
  funding everything, including any awareness premium.
* ``static_vickrey`` -- one-shot clarke transfers with no premium, for
  reproducing what a static auction does to asymmetric awareness.

The awareness premium m_i(level) is a recursion over strictly lower levels
bounding what agent i could gain by concealing awareness; it is floored at
zero and paid to the unique first reporter of the final pooled level.  Under
groves/clarke every other agent funds an equal share, keeping the adjustment
terms budget neutral; under rspa the buyer pays and non-recipients owe
nothing.

A settlement therefore reads only its payoff summary: the final profile,
the final pooled level and the premium recipient.  :func:`transfer_report`
finds that summary once per transcript, and :class:`Mechanism` is the one
settlement object: it holds the memo of premia and of settlements keyed on
the summary, so the many transcripts that share a summary are settled once;
the reports it hands out are shared and read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from .engine import Transcript

if TYPE_CHECKING:
    from .scenario import Scenario


class TranscriptNotStopped(Exception):
    pass


class MissingYEntry(Exception):
    pass


class FewerThanTwoSellers(Exception):
    pass


class PremiumAssumptionFails(ValueError):
    """The declared simplified rspa premium disagrees with the full recursion."""


GROVES = "groves"
CLARKE = "clarke"
RSPA = "rspa"
STATIC_VICKREY = "static_vickrey"
KINDS = (GROVES, CLARKE, RSPA, STATIC_VICKREY)


@dataclass(frozen=True)
class SchemeConfig:
    kind: str
    y_tables: Mapping[tuple[str, str, tuple[str, ...]], Fraction] | None = None
    buyer: str | None = None
    supplies: Mapping[str, str] | None = None
    simplified_premium_ok: bool = False


@dataclass(frozen=True)
class TransferReport:
    outcome: str
    transfers: dict[str, Fraction]
    adjustments: dict[str, Fraction]
    premium_recipient: str | None
    operator_balance: Fraction

    def jsonable(self) -> dict:
        def rat(x: Fraction) -> dict:
            return {"exact": str(x), "decimal": float(x)}
        return {
            "outcome": self.outcome,
            "transfers": {a: rat(v) for a, v in self.transfers.items()},
            "adjustments": {a: rat(v) for a, v in self.adjustments.items()},
            "premium_recipient": self.premium_recipient,
            "operator_balance": rat(self.operator_balance),
        }


def opponent_profile(agents: tuple[str, ...], agent: str, profile: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(t for a, t in zip(agents, profile) if a != agent)


def sellers(scenario: Scenario, scheme: SchemeConfig) -> tuple[str, ...]:
    return tuple(a for a in scenario.structure.agents if a != scheme.buyer)


def rspa_auction(scenario: Scenario, scheme: SchemeConfig,
                 profile: tuple[str, ...]) -> tuple[str, Fraction]:
    """(supply outcome, price) of the reverse second price auction: the
    lowest-cost seller supplies, cost ties resolved by the outcome tie-break
    order, and is paid the second-lowest cost."""
    value, rank, supplies = scenario.outcomes.value, scenario.outcomes._rank, scheme.supplies
    bids = sorted((-value(a, t, supplies[a]), rank[supplies[a]], supplies[a])
                  for a, t in zip(scenario.structure.agents, profile) if a != scheme.buyer)
    if len(bids) < 2:
        raise FewerThanTwoSellers(f"{len(bids)} sellers")
    return bids[0][2], bids[1][0]


def scheme_outcome(scenario: Scenario, scheme: SchemeConfig, profile: tuple[str, ...]) -> str:
    if scheme.kind == RSPA:
        return rspa_auction(scenario, scheme, profile)[0]
    return scenario.outcomes.efficient_outcome(profile)


def y_value(scenario: Scenario, scheme: SchemeConfig, agent: str, level: str,
            profile: tuple[str, ...]) -> Fraction:
    """The y-term at a single-level profile (the profile fixes the pooled level)."""
    if scheme.kind in (CLARKE, STATIC_VICKREY):
        return clarke_y(scenario, agent, profile)
    if scheme.kind == GROVES:
        key = (agent, level, opponent_profile(scenario.structure.agents, agent, profile))
        try:
            return scheme.y_tables[key]
        except (KeyError, TypeError):
            raise MissingYEntry(str(key)) from None
    raise ValueError(f"no y-term for scheme kind {scheme.kind}")


def clarke_y(scenario: Scenario, agent: str, profile: tuple[str, ...]) -> Fraction:
    restricted = scenario.outcomes.restricted_efficient_outcome(agent, profile)
    return -scenario.outcomes.opponents_welfare(agent, restricted, profile)


def first_pooled_reporter(scenario: Scenario, transcript: Transcript) -> str | None:
    """The unique agent who first reported a type at the final pooled level,
    or None when two or more agents tie there.

    The domain is the stopped transcripts of feasible plays.  Along such a
    play pooled levels never fall and no report lies above its stage's
    pooled level, so a first report at the final pooled level can only be
    made at the first stage whose pooled level is final.  If nobody makes
    one there, every agent reaches the level together at the next stage,
    which is a tie.
    """
    if not transcript.stopped:
        raise TranscriptNotStopped()
    structure = scenario.structure
    target = transcript.final_pooled
    stage = transcript.stages[transcript.pooled.index(target)]
    recipient = None
    for agent, report in zip(structure.agents, stage):
        if structure.level_of(agent, report) == target:
            if recipient is not None:
                return None
            recipient = agent
    return recipient


class Mechanism:
    """A scheme bound to a scenario, and the mutable memo of that pair: its
    premia and its settlements.

    ``premium`` fills m_i(level) per (agent, level) asked;
    :func:`transfer_report`, and so ``report`` and ``utility``, fills one
    settlement per payoff summary (final profile, final pooled level,
    premium recipient), which is everything a settlement reads.  Entries are
    exact and never change once written, and the reports handed out are
    shared between transcripts, so callers must treat them as read-only.
    """

    def __init__(self, scenario: Scenario, scheme: SchemeConfig):
        self.scenario = scenario
        self.scheme = scheme
        self._premia: dict[tuple[str, str], Fraction] = {}
        self._settlements: dict[tuple, TransferReport] = {}

    def premium(self, agent: str, level: str) -> Fraction:
        key = (agent, level)
        if key not in self._premia:
            self._premia[key] = self._compute(agent, level)
        return self._premia[key]

    def report(self, transcript: Transcript) -> TransferReport:
        return transfer_report(self, transcript)

    def utility(self, transcript: Transcript, agent: str, eval_type: str) -> Fraction:
        """Quasilinear payoff of the play, valued at ``eval_type``."""
        rep = self.report(transcript)
        return self.scenario.outcomes.value(agent, eval_type, rep.outcome) + rep.transfers[agent]

    def _compute(self, agent: str, level: str) -> Fraction:
        lattice = self.scenario.lattice
        if level == lattice.bottom:
            return Fraction(0)
        if self.scheme.kind == RSPA:
            value = self._rspa_premium(agent, level)
            if self.scheme.simplified_premium_ok:
                short = self._rspa_premium_simplified(agent, level)
                if short != value:
                    raise PremiumAssumptionFails(
                        f"simplified premium {short} for ({agent}, {level}) disagrees with the "
                        f"full recursion {value}; the opt-out assumption does not hold here")
            return value
        return self._vcg_premium(agent, level)

    def _vcg_premium(self, agent: str, level: str) -> Fraction:
        scenario, scheme = self.scenario, self.scheme
        model = scenario.outcomes
        best = Fraction(0)
        for lower in scenario.lattice.strictly_below(level):
            base = self.premium(agent, lower)
            # Coarse side: realized outcome and transfer terms at the lower level.
            coarse = []
            for coarse_profile in scenario.structure.profiles(lower):
                x0 = model.efficient_outcome(coarse_profile)
                coarse.append((x0,
                               model.opponents_welfare(agent, x0, coarse_profile)
                               + y_value(scenario, scheme, agent, lower, coarse_profile)))
            for fine_profile in scenario.structure.profiles(level):
                fine_type = fine_profile[scenario.structure.agent_index(agent)]
                drop = (model.welfare(model.efficient_outcome(fine_profile), fine_profile)
                        + y_value(scenario, scheme, agent, level, fine_profile))
                # The concealment value couples the agent's fine type with the
                # coarse outcome, exactly as the recursion is written.
                gain = max(model.value(agent, fine_type, x0) + rest for x0, rest in coarse)
                best = max(best, base + gain - drop)
        return best

    def _win_margin(self, agent: str, profile: tuple[str, ...]) -> Fraction:
        """Price less cost when ``agent`` wins the auction at ``profile``, else 0."""
        scenario, supply = self.scenario, self.scheme.supplies[agent]
        outcome, price = rspa_auction(scenario, self.scheme, profile)
        if outcome != supply:
            return Fraction(0)
        own = profile[scenario.structure.agent_index(agent)]
        return price + scenario.outcomes.value(agent, own, supply)

    def _rspa_premium(self, agent: str, level: str) -> Fraction:
        scenario = self.scenario
        best = Fraction(0)
        for lower in scenario.lattice.strictly_below(level):
            base = self.premium(agent, lower)
            gain = max(self._win_margin(agent, p) for p in scenario.structure.profiles(lower))
            drop = min(self._win_margin(agent, p) for p in scenario.structure.profiles(level))
            best = max(best, base + gain - drop)
        return best

    def _rspa_premium_simplified(self, agent: str, level: str) -> Fraction:
        scenario = self.scenario
        if level == scenario.lattice.bottom:
            return Fraction(0)
        best = None
        for lower in scenario.lattice.strictly_below(level):
            base = self._rspa_premium_simplified(agent, lower)
            gain = max(self._win_margin(agent, p) for p in scenario.structure.profiles(lower))
            candidate = base + gain
            best = candidate if best is None else max(best, candidate)
        return best


def awareness_adjustments(mechanism: Mechanism, level: str,
                          recipient: str | None) -> dict[str, Fraction]:
    """Per-agent adjustment terms when ``recipient`` first reported the
    final pooled ``level``."""
    scheme = mechanism.scheme
    agents = mechanism.scenario.structure.agents
    out = {a: Fraction(0) for a in agents}
    if (scheme.kind == STATIC_VICKREY or recipient is None or len(agents) == 1
            or (scheme.kind == RSPA and recipient == scheme.buyer)):
        return out
    m = out[recipient] = mechanism.premium(recipient, level)
    if scheme.kind in (GROVES, CLARKE):
        share = -m / (len(agents) - 1)
        for a in agents:
            if a != recipient:
                out[a] = share
    return out


def transfer_report(mechanism: Mechanism, transcript: Transcript) -> TransferReport:
    """The settlement of a stopped transcript under ``mechanism``, memoized
    there on its payoff summary (final profile, final pooled level, premium
    recipient; the recipient is None under ``static_vickrey``)."""
    if not transcript.stopped:
        raise TranscriptNotStopped()
    recipient = (None if mechanism.scheme.kind == STATIC_VICKREY
                 else first_pooled_reporter(mechanism.scenario, transcript))
    key = (transcript.final, transcript.final_pooled, recipient)
    report = mechanism._settlements.get(key)
    if report is None:
        report = mechanism._settlements[key] = _settle(mechanism, *key)
    return report


def _settle(mechanism: Mechanism, final: tuple[str, ...], level: str,
            recipient: str | None) -> TransferReport:
    scenario, scheme = mechanism.scenario, mechanism.scheme
    agents = scenario.structure.agents
    adjustments = awareness_adjustments(mechanism, level, recipient)
    if scheme.kind == RSPA:
        outcome, price = rspa_auction(scenario, scheme, final)
        transfers = {a: (price if scheme.supplies[a] == outcome else Fraction(0)) + adjustments[a]
                     for a in agents if a != scheme.buyer}
        transfers[scheme.buyer] = -price - sum(adjustments.values())
    else:
        outcome = scenario.outcomes.efficient_outcome(final)
        transfers = {}
        for a in agents:
            transfers[a] = (scenario.outcomes.opponents_welfare(a, outcome, final)
                            + y_value(scenario, scheme, a, level, final)
                            + adjustments[a])
    balance = -sum(transfers.values())
    return TransferReport(outcome, transfers, adjustments, recipient, balance)


# The name bench/tracer.py resolves to reach ``Mechanism.premium``.
PremiumTable = Mechanism
