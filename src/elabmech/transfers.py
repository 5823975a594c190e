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

The awareness premium m_i(level) bounds what agent i could gain by
concealing awareness.  It is 0 at the bottom and for the rspa buyer; above,
the largest of 0 and m_i(lower) + u(coarse) - u(fine) over every lower
level, profile ``coarse`` at it and profile ``fine`` at ``level``, u being
i's utility in the premium-free settlement, so the premium and the
settlement share one premium-free transfer.  Groves and clarke value
coarse's outcome at i's type in ``fine``, rspa at hers in ``coarse``.  The
premium goes to the unique first reporter of the final pooled level.  Under
groves/clarke every other agent funds an equal share, keeping the adjustment
terms budget neutral; under rspa the buyer pays and non-recipients owe nothing.

A settlement therefore reads only its payoff summary: the final profile,
the final pooled level and the premium recipient.  :func:`transfer_report`
finds that summary once per transcript, and :class:`Mechanism` is the one
settlement object: it holds the memo of premia and of settlements keyed on
the summary, so the many transcripts that share a summary are settled once;
the reports it hands out are shared and read-only.  :meth:`Mechanism.run`
picks the protocol a scheme plays, and :func:`bidders` whose incentives count.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import engine
from .engine import Transcript

if TYPE_CHECKING:
    from .scenario import Scenario
    from .typespace import NatureDraw


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


class SchemeConfig(NamedTuple):
    kind: str
    y_tables: Mapping[tuple[str, str, tuple[str, ...]], Fraction] | None = None
    buyer: str | None = None
    supplies: Mapping[str, str] | None = None
    simplified_premium_ok: bool = False


class TransferReport(NamedTuple):
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


def bidders(scenario: Scenario, scheme: SchemeConfig) -> tuple[str, ...]:
    """The agents whose incentives the scheme answers for: all but the rspa
    buyer, the sink agent commissioning the mechanism.  Concealing awareness
    always weakly lowers the second price she pays, so buyer-side dominance
    is unattainable by construction."""
    return tuple(a for a in scenario.structure.agents if scheme.kind != RSPA or a != scheme.buyer)


def rspa_auction(scenario: Scenario, scheme: SchemeConfig,
                 profile: tuple[str, ...]) -> tuple[str, Fraction]:
    """(supply outcome, price) of the reverse second price auction: the
    lowest-cost seller supplies, cost ties resolved by the outcome tie-break
    order, and is paid the second-lowest cost."""
    value, rank, supplies = scenario.outcomes.value, scenario.outcomes.rank, scheme.supplies
    bids = sorted((-value(a, t, supplies[a]), rank[supplies[a]], supplies[a])
                  for a, t in zip(scenario.structure.agents, profile) if a != scheme.buyer)
    if len(bids) < 2:
        raise FewerThanTwoSellers(f"{len(bids)} sellers")
    return bids[0][2], bids[1][0]


def scheme_outcome(scenario: Scenario, scheme: SchemeConfig, profile: tuple[str, ...]) -> tuple:
    """(outcome, price) that ``profile`` settles on: rspa's auction, else no price."""
    if scheme.kind == RSPA:
        return rspa_auction(scenario, scheme, profile)
    return scenario.outcomes.efficient_outcome(profile), None


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
    return engine.pooled_recipient(scenario.structure, transcript.stages, transcript.pooled)


class Mechanism:
    """A scheme bound to a scenario, and the mutable memo of that pair: its
    premia and its settlements.

    ``premium`` fills m_i(level) per (agent, level) asked, by the one recursion
    of the module docstring over i's premium-free transfers (``_transfer``);
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

    def run(self, draw: NatureDraw, partial: str,
            strategies: Mapping[str, object] | None = None) -> Transcript:
        """The transcript of ``draw`` in the ``partial`` game: one truthful round,
        ignoring ``strategies``, under ``static_vickrey``; else :func:`engine.run`."""
        if self.scheme.kind == STATIC_VICKREY:
            return engine.run_single_stage(self.scenario, draw, partial)
        return engine.run(self.scenario, draw, partial, strategies)

    def report(self, transcript: Transcript) -> TransferReport:
        return transfer_report(self, transcript)

    def utility(self, transcript: Transcript, agent: str, eval_type: str) -> Fraction:
        """Quasilinear payoff of the play, valued at ``eval_type``."""
        rep = self.report(transcript)
        return self.scenario.outcomes.value(agent, eval_type, rep.outcome) + rep.transfers[agent]

    def _compute(self, agent: str, level: str) -> Fraction:
        """m_i(level) by the rule of the module docstring."""
        scenario, rspa = self.scenario, self.scheme.kind == RSPA
        if level == scenario.lattice.bottom or agent not in bidders(scenario, self.scheme):
            return Fraction(0)
        i, value = scenario.structure.agent_position[agent], scenario.outcomes.value
        fine = [(p[i], value(agent, p[i], x) + pay)
                for p, x, pay in self._premium_free(agent, level)]
        best = Fraction(0)
        for lower in self._lower(level):
            base, coarse = self.premium(agent, lower), self._premium_free(agent, lower)
            # Groves and clarke value the coarse outcome at the agent's fine
            # type, exactly as the recursion is written; rspa at her own coarse type.
            gain = {t: max(value(agent, p[i] if rspa else t, x) + pay for p, x, pay in coarse)
                    for t in dict.fromkeys(t for t, _ in fine)}
            best = max(best, base + max(gain[t] - u for t, u in fine))
        if rspa and self.scheme.simplified_premium_ok:
            short = self._rspa_premium_simplified(agent, level)
            if short != best:
                raise PremiumAssumptionFails(
                    f"simplified premium {short} for ({agent}, {level}) disagrees with the "
                    f"full recursion {best}; the opt-out assumption does not hold here")
        return best

    def _lower(self, level: str) -> list[str]:
        """The levels strictly below ``level``, in declaration order."""
        below = self.scenario.lattice.strictly_below(level)
        return [lower for lower in self.scenario.lattice.elements if lower in below]

    def _premium_free(self, agent: str, level: str) -> list[tuple[tuple[str, ...], str, Fraction]]:
        """(profile, outcome, ``agent``'s transfer) of the premium-free
        settlement of each profile at ``level``, no other agent's transfer made."""
        settled = ((p, scheme_outcome(self.scenario, self.scheme, p))
                   for p in self.scenario.structure.profiles(level))
        return [(p, s[0], self._transfer(agent, level, p, s)) for p, s in settled]

    def _transfer(self, agent: str, level: str, final: tuple[str, ...],
                  settled: tuple[str, Fraction | None]) -> Fraction:
        """``agent``'s premium-free transfer when ``final`` settles at ``level``
        on ``settled``, its :func:`scheme_outcome`: the one transfer formula."""
        (outcome, price), scheme = settled, self.scheme
        if scheme.kind != RSPA:
            return (self.scenario.outcomes.opponents_welfare(agent, outcome, final)
                    + y_value(self.scenario, scheme, agent, level, final))
        if agent == scheme.buyer:
            return -price
        return price if scheme.supplies[agent] == outcome else Fraction(0)

    def _settlement(self, final: tuple[str, ...], level: str,
                    recipient: str | None) -> TransferReport:
        key = (final, level, recipient)
        report = self._settlements.get(key)
        if report is None:
            report = self._settlements[key] = _settle(self, *key)
        return report

    def _rspa_premium_simplified(self, agent: str, level: str) -> Fraction:
        """The largest m(lower) + u(coarse), with no u(fine) and no floor; 0 at the bottom."""
        i, value = self.scenario.structure.agent_position[agent], self.scenario.outcomes.value
        return max((self._rspa_premium_simplified(agent, lower)
                    + max(value(agent, p[i], x) + pay
                          for p, x, pay in self._premium_free(agent, lower))
                    for lower in self._lower(level)), default=Fraction(0))


def awareness_adjustments(mechanism: Mechanism, level: str,
                          recipient: str | None) -> dict[str, Fraction]:
    """Per-agent adjustment terms when ``recipient`` first reported the
    final pooled ``level`` (None under ``static_vickrey``)."""
    agents = mechanism.scenario.structure.agents
    out = {a: Fraction(0) for a in agents}
    if recipient is None or len(agents) == 1:
        return out
    m = out[recipient] = mechanism.premium(recipient, level)
    if mechanism.scheme.kind in (GROVES, CLARKE):
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
    return mechanism._settlement(transcript.stages[-1], transcript.pooled[-1], recipient)


def _settle(mechanism: Mechanism, final: tuple[str, ...], level: str,
            recipient: str | None) -> TransferReport:
    scenario, scheme = mechanism.scenario, mechanism.scheme
    adjustments = awareness_adjustments(mechanism, level, recipient)
    settled = scheme_outcome(scenario, scheme, final)
    # The rspa buyer funds every adjustment and is listed last.
    sink = scheme.buyer if scheme.kind == RSPA else None
    transfers = {a: mechanism._transfer(a, level, final, settled) + adjustments[a]
                 for a in scenario.structure.agents if a != sink}
    if sink is not None:
        transfers[sink] = (mechanism._transfer(sink, level, final, settled)
                           - sum(adjustments.values()))
    balance = -sum(transfers.values())
    return TransferReport(settled[0], transfers, adjustments, recipient, balance)


# The name bench/tracer.py resolves to reach ``Mechanism.premium``.
PremiumTable = Mechanism
