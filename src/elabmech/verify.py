"""Brute-force verification of the mechanism properties.

Every check quantifies exhaustively over its finite domain and returns a
:class:`VerificationResult` whose witnesses carry enough data to replay the
exact utility or welfare gap; a result holds exactly when it has no
witness.  No numerical tolerance appears anywhere; all comparisons are exact
over rationals.  Participation and dominance are checked for the agents of
:func:`transfers.bidders`.  Checks are pure functions of their scenario:
distinct (property, draw, level) cells may be fanned out to parallel
workers and their results merged in any order.

Conditional dominance is the expensive check.  Opponents' strategies are
enumerated as realized-report plans per nature draw: the report sequences
they produce on the truthful play, replayed positionally (with an awareness
cap) when the checked agent deviates.  The opponents' free reports against
the truthful agent are plays of :func:`engine.iter_paths`.  The agent's
deviations against the plans are a memoized recursion over
:func:`engine.report_profiles`: each running node of the deviation tree
maps (state, plans, evaluation type) to its best deviation utility and its
play count, in one exact table per (agent, level).  An information set
without a profitable deviation is charged its play count at once; one with
a profitable deviation is walked again with :func:`engine.iter_paths`.  So
the witness, the ``checked`` count and the information set where the play
budget trips are those of walking every deviation play.  Payoffs depend
only on the realized transcript, so this enumeration covers every opponent
strategy that does not condition on the checked agent's report content
beyond what the pooled-level broadcasts force; fully report-reactive
opponents could transfer utility across branches, which no transfer scheme
can price.  Games whose initial awareness vector cannot reach the
conditioning level are skipped: projecting such a draw downward reproduces
an instance already enumerated at the lower level.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator

from . import engine
from .engine import FREE, PlayBudget
from .scenario import Scenario
from .transfers import (STATIC_VICKREY, Mechanism, SchemeConfig, bidders, opponent_profile,
                        scheme_outcome, transfer_report)
from .typespace import NatureDraw


class InapplicableProperty(ValueError):
    """The property is not defined for the scenario's scheme kind."""


# Every truthful run stops within this many stages (the paper's three-stage bound).
STAGE_BOUND = 3


@dataclass
class Witness:
    description: str
    replay: dict = field(default_factory=dict)


@dataclass
class VerificationResult:
    prop: str
    witnesses: list[Witness]
    checked: int

    @property
    def holds(self) -> bool:
        return not self.witnesses

    def jsonable(self) -> dict:
        return {
            "property": self.prop,
            "verdict": "holds" if self.holds else "violated",
            "checked": self.checked,
            "witnesses": [{"description": w.description, "replay": w.replay}
                          for w in self.witnesses],
        }


def _awareness_vectors(scenario: Scenario, level: str,
                       require_join: bool = False) -> Iterator[tuple[str, ...]]:
    lattice = scenario.lattice
    levels = sorted(lattice.down_set(level))
    for combo in product(levels, repeat=len(scenario.agents)):
        if require_join and lattice.join_all(combo) != level:
            continue
        yield combo


def _partial_draws(scenario: Scenario, level: str,
                   require_join: bool = False) -> Iterator[tuple[tuple[str, ...], tuple[str, ...]]]:
    for profile in scenario.structure.profiles(level):
        for awareness in _awareness_vectors(scenario, level, require_join):
            yield profile, awareness


def check_efficiency(scenario: Scenario) -> VerificationResult:
    """The outcome rule maximizes welfare at every level and profile."""
    witnesses = []
    checked = 0
    model = scenario.outcomes
    for level in scenario.lattice.elements:
        for profile in scenario.structure.profiles(level):
            chosen = model.efficient_outcome(profile)
            base = model.welfare(chosen, profile)
            for x0 in model.available[level]:
                checked += 1
                alt = model.welfare(x0, profile)
                if alt > base:
                    witnesses.append(Witness(
                        f"welfare gap at level {level}: outcome {x0} beats {chosen} "
                        f"by {alt - base} on profile {profile}",
                        {"level": level, "profile": list(profile), "outcome": x0,
                         "welfare": str(alt), "chosen": chosen, "chosen_welfare": str(base)}))
    return VerificationResult("efficiency", witnesses, checked)


def check_pooled_implementation(scenario: Scenario, scheme: SchemeConfig) -> VerificationResult:
    """Truthful play implements the outcome of the true profile projected to
    the agents' pooled awareness, for every nature draw."""
    mech = Mechanism(scenario, scheme)
    witnesses = []
    checked = 0
    structure = scenario.structure
    top = scenario.lattice.top
    for true_profile in structure.profiles(top):
        for awareness in product(scenario.lattice.elements, repeat=len(scenario.agents)):
            checked += 1
            draw = NatureDraw(true_profile, awareness)
            transcript = mech.run(draw, top)
            implemented = scheme_outcome(scenario, scheme, transcript.final)
            pooled = scenario.lattice.join_all(awareness)
            target_profile = tuple(structure.project(agent, t, pooled)
                                   for agent, t in zip(structure.agents, true_profile))
            target = scheme_outcome(scenario, scheme, target_profile)
            if implemented != target:
                witnesses.append(Witness(
                    f"draw {true_profile} at awareness {awareness}: implemented {implemented}, "
                    f"pooled-awareness target {target}",
                    {"true_types": list(true_profile), "awareness": list(awareness),
                     "stages": [list(s) for s in transcript.stages],
                     "implemented": implemented, "target": target}))
    return VerificationResult("pooled-implementation", witnesses, checked)


def check_stage_bound(scenario: Scenario) -> VerificationResult:
    """Every truthful run, in every partial game, stops within ``STAGE_BOUND`` stages."""
    witnesses = []
    checked = 0
    for level in scenario.lattice.elements:
        for profile, awareness in _partial_draws(scenario, level):
            checked += 1
            state = engine.initial_state(scenario, level, profile, awareness)
            state = engine.truthful_path(scenario, state)[-1]
            if len(state.history) > STAGE_BOUND:
                witnesses.append(Witness(
                    f"truthful run took {len(state.history)} stages at level {level}",
                    {"level": level, "profile": list(profile), "awareness": list(awareness),
                     "stages": [list(s) for s in state.history]}))
    return VerificationResult("stage-bound", witnesses, checked)


def check_budget(scenario: Scenario, scheme: SchemeConfig, mode: str = "balance",
                 bound: int = 10 ** 6) -> VerificationResult:
    """Transfer sums over every feasible stopped transcript.

    Any transcript reachable under some draw and strategy profile is
    reachable with every agent fully aware, so a single enumeration at the
    top level covers the whole transcript set.
    """
    if mode not in ("balance", "no_deficit"):
        raise ValueError(mode)
    mech = Mechanism(scenario, scheme)
    structure = scenario.structure
    top = scenario.lattice.top
    true_profile = next(structure.profiles(top))
    state = engine.initial_state(scenario, top, true_profile,
                                 tuple(top for _ in structure.agents))
    budget = PlayBudget(bound)
    witnesses = []
    checked = 0
    policies = {agent: FREE for agent in structure.agents}
    for terminal in engine.iter_completions(scenario, state, policies, budget):
        checked += 1
        transcript = engine.transcript(terminal)
        report = transfer_report(mech, transcript)
        total = -report.operator_balance
        bad = total != 0 if mode == "balance" else total > 0
        if bad:
            witnesses.append(Witness(
                f"transfers sum to {total} on transcript {transcript.stages}",
                {"stages": [list(s) for s in transcript.stages], "sum": str(total),
                 "transfers": {a: str(v) for a, v in report.transfers.items()}}))
            break
    prop = "budget-balance" if mode == "balance" else "no-deficit"
    return VerificationResult(prop, witnesses, checked)


def check_nonnegative_valuations(scenario: Scenario) -> VerificationResult:
    witnesses = []
    checked = 0
    model = scenario.outcomes
    for level in scenario.lattice.elements:
        for agent in scenario.agents:
            for t in scenario.structure.space(agent, level):
                for x0 in model.available[level]:
                    checked += 1
                    v = model.value(agent, t, x0)
                    if v < 0:
                        witnesses.append(Witness(
                            f"negative valuation {v} for ({agent}, {t}, {x0})",
                            {"agent": agent, "type": t, "outcome": x0, "value": str(v)}))
    return VerificationResult("nonnegative-valuations", witnesses, checked)


def check_participation(scenario: Scenario, scheme: SchemeConfig,
                        mode: str = "ex_post") -> VerificationResult:
    """Truthful play leaves the agent weakly above her outside option of zero.

    ``ex_post`` asserts this at every information set reached under truth;
    ``ex_ante_anticipated`` only at initial information sets.  Each
    information set is evaluated within the partial game at its own
    awareness level, over every draw of that game consistent with it.
    """
    if mode not in ("ex_post", "ex_ante_anticipated"):
        raise ValueError(mode)
    mech = Mechanism(scenario, scheme)
    structure = scenario.structure
    witnesses = []
    checked = 0
    for level in scenario.lattice.elements:
        for profile, awareness in _partial_draws(scenario, level, require_join=True):
            path = engine.truthful_path(
                scenario, engine.initial_state(scenario, level, profile, awareness))
            transcript = engine.transcript(path[-1])
            reached = path[:-1] if mode == "ex_post" else path[:1]
            for agent in bidders(scenario, scheme):
                i = structure.agent_index(agent)
                for node in reached:
                    if structure.level_of(agent, node.perceived[i]) != level:
                        continue
                    checked += 1
                    u = mech.utility(transcript, agent, node.perceived[i])
                    if u < 0:
                        witnesses.append(Witness(
                            f"{agent} gets {u} at stage-{node.stage} information set "
                            f"(perceived {node.perceived[i]}) under draw {profile} / {awareness}",
                            {"agent": agent, "level": level, "profile": list(profile),
                             "awareness": list(awareness), "stage": node.stage,
                             "perceived": node.perceived[i], "utility": str(u),
                             "stages": [list(s) for s in transcript.stages]}))
    prop = "participation-ex-post" if mode == "ex_post" else "participation-ex-ante"
    return VerificationResult(prop, witnesses, checked)


def _dominance_instances(scenario: Scenario, checked_agents: tuple[str, ...]
                        ) -> Iterator[tuple[str, str, tuple[str, ...], tuple[str, ...]]]:
    """(agent, level, profile, awareness) of every partial game the dominance
    check starts from, in check order."""
    structure = scenario.structure
    for agent in checked_agents:
        for level in scenario.lattice.elements:
            for awareness in _awareness_vectors(scenario, level, require_join=True):
                for own_true in structure.space(agent, level):
                    # Opponents' true types never influence the check: their
                    # reports range freely and utilities read only the agent's
                    # own valuation plus the reported transcript.
                    yield agent, level, tuple(own_true if a == agent
                                              else structure.space(a, level)[0]
                                              for a in structure.agents), awareness


def _best_deviation(scenario: Scenario, mech: Mechanism, agent: str,
                    policies: dict[str, object], memo: dict,
                    tail: tuple[tuple[tuple[str, ...], ...], str],
                    state: engine.PlayState) -> tuple[Fraction, int]:
    """(best utility, play count) over the plays of ``engine.iter_paths``
    from ``state`` under ``policies``, the agent's utility valued at the
    type ``eval_type``, where ``tail`` is (opponents' plans, ``eval_type``).

    The plans fix the opponents' policies, so ``(state, tail)`` fixes the
    subtree and its payoffs; ``memo`` maps it to the result at every running
    state.  Terminals are valued, not stored: a terminal is reached again
    almost only through a parent the memo already answers.  Every running
    state has a feasible report, so there is at least one play.
    """
    if state.stopped:
        return mech.utility(engine.transcript(state), agent, tail[1]), 1
    key = (state, tail)
    found = memo.get(key)
    if found is None:
        best, plays = None, 0
        for reports in engine.report_profiles(scenario, state, policies):
            u, n = _best_deviation(scenario, mech, agent, policies, memo, tail,
                                   engine.advance(scenario, state, reports))
            plays += n
            if best is None or u > best:
                best = u
        found = memo[key] = (best, plays)
    return found


def check_conditional_dominance(scenario: Scenario, scheme: SchemeConfig,
                                bound: int = 10 ** 6) -> VerificationResult:
    """Truth-telling weakly beats every feasible continuation of the agent,
    at every truthfully reached information set, against every opponents'
    strategy profile enumerated as realized-report plans.

    A plan is an opponent's per-stage report sequence realized on the
    truthful play; on deviation branches it is replayed positionally with
    the awareness-cap fallback of :func:`engine.plan_policy`.  The utility
    of the truthful play and of every deviating continuation from an
    information set are both evaluated at the type perceived there.
    """
    if scheme.kind == STATIC_VICKREY:
        raise InapplicableProperty(
            f"dominance applies to the dynamic protocol, not to {STATIC_VICKREY}")
    mech = Mechanism(scenario, scheme)
    structure = scenario.structure
    agents = structure.agents
    budget = PlayBudget(bound)
    checked = 0
    # One table per (agent, level): every key carries both, so dropping the
    # table when either changes loses no hit.
    memo: dict[tuple, tuple[Fraction, int]] = {}
    table_for = None
    instances = _dominance_instances(scenario, bidders(scenario, scheme))
    for agent, level, profile, awareness in instances:
        if table_for != (agent, level):
            memo = {}
            table_for = (agent, level)
        i = structure.agent_index(agent)
        start = engine.initial_state(scenario, level, profile, awareness)
        rivals = [(k, a) for k, a in enumerate(agents) if a != agent]
        opponents = {a: FREE for _, a in rivals}
        # The agent tells the truth while opponents report freely; each play
        # fixes one opponents' plan profile.
        for path in engine.iter_paths(scenario, start, opponents, budget):
            truth_transcript = engine.transcript(path[-1])
            plans = tuple(tuple(stage[k] for stage in truth_transcript.stages)
                          for k, _ in rivals)
            policies: dict[str, object] = {
                a: engine.plan_policy(a, plan, scenario)
                for (_, a), plan in zip(rivals, plans)}
            policies[agent] = FREE
            # Awareness only rises along a play, so a perceived type never
            # recurs once it changes: value the truthful play once per type.
            valued = None
            for h_state in path[:-1]:
                if structure.level_of(agent, h_state.perceived[i]) != level:
                    continue
                eval_type = h_state.perceived[i]
                if eval_type != valued:
                    valued, u_truth = eval_type, mech.utility(truth_transcript, agent, eval_type)
                checked += 1
                best, plays = _best_deviation(scenario, mech, agent, policies, memo,
                                              (plans, eval_type), h_state)
                if best <= u_truth:
                    # Walking these plays would charge each of them and find
                    # no witness.
                    budget.charge(plays)
                    continue
                # Walk the plays in order, so that the witness and the point
                # where the budget trips are those of the plain walk.
                for dev_terminal in engine.iter_completions(scenario, h_state, policies, budget):
                    dev_transcript = engine.transcript(dev_terminal)
                    u_dev = mech.utility(dev_transcript, agent, eval_type)
                    if u_dev > u_truth:
                        return VerificationResult("dominance", [Witness(
                            f"{agent} gains {u_dev - u_truth} by deviating at stage "
                            f"{h_state.stage} (draw {profile} / {awareness} in the "
                            f"{level}-partial game)",
                            {"agent": agent, "level": level, "profile": list(profile),
                             "awareness": list(awareness),
                             "conditioning_stage": h_state.stage,
                             "perceived": eval_type,
                             "truth_stages": [list(s) for s in truth_transcript.stages],
                             "deviation_stages": [list(s) for s in dev_transcript.stages],
                             "truth_utility": str(u_truth),
                             "deviation_utility": str(u_dev)})], checked)
    return VerificationResult("dominance", [], checked)


def check_holmstrom(scenario: Scenario,
                    g: dict[tuple[str, str, tuple[str, ...]], Fraction]) -> VerificationResult:
    """The welfare decomposition holds at every level and profile for ``g``."""
    model = scenario.outcomes
    witnesses = []
    checked = 0
    for level in scenario.lattice.elements:
        for profile in scenario.structure.profiles(level):
            checked += 1
            total = sum((g[(agent, level, opponent_profile(scenario.agents, agent, profile))]
                         for agent in scenario.agents), Fraction(0))
            welfare = model.welfare(model.efficient_outcome(profile), profile)
            if total != welfare:
                witnesses.append(Witness(
                    f"decomposition misses welfare by {welfare - total} at {level} {profile}",
                    {"level": level, "profile": list(profile),
                     "welfare": str(welfare), "decomposed": str(total)}))
    return VerificationResult("holmstrom", witnesses, checked)


def _solve_exact(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
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


def _decompose(scenario: Scenario
               ) -> tuple[dict[tuple[str, str, tuple[str, ...]], Fraction] | None, str | None]:
    """Solve the welfare decomposition exactly, level by level.

    Returns ``(g, None)``, or ``(None, reason)`` naming the first level whose
    system is inconsistent.
    """
    structure, model = scenario.structure, scenario.outcomes
    out: dict[tuple[str, str, tuple[str, ...]], Fraction] = {}
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
        solution = _solve_exact(rows, rhs)
        if solution is None:
            return None, (f"no additive decomposition of welfare exists at level {level}: "
                          f"the {len(rows)}-equation system over {len(index)} unknowns "
                          f"is inconsistent")
        for (agent, opp), k in index.items():
            out[(agent, level, opp)] = solution[k]
    return out, None


def find_g(scenario: Scenario) -> dict[tuple[str, str, tuple[str, ...]], Fraction] | None:
    """Solve the welfare decomposition exactly, level by level."""
    return _decompose(scenario)[0]


def check_decomposition(scenario: Scenario) -> VerificationResult:
    """A welfare decomposition exists and holds at every level and profile,
    from one solve per level."""
    g, certificate = _decompose(scenario)
    if g is None:
        return VerificationResult("holmstrom", [Witness(certificate)], 1)
    return check_holmstrom(scenario, g)


def derive_y_from_g(scenario: Scenario,
                    g: dict[tuple[str, str, tuple[str, ...]], Fraction]
                    ) -> dict[tuple[str, str, tuple[str, ...]], Fraction]:
    """Scale a decomposition into budget-balancing y-tables."""
    n = len(scenario.agents)
    return {key: -(n - 1) * value for key, value in g.items()}
