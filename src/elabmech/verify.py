"""Brute-force verification of the mechanism properties.

Every check quantifies exhaustively over its finite domain and returns a
:class:`VerificationResult` whose witnesses carry enough data to replay the
exact utility or welfare gap; a result holds exactly when it has no
witness.  No numerical tolerance appears anywhere; all comparisons are exact
over rationals.  Participation and dominance are checked for the agents of
:func:`transfers.bidders`.  Checks are pure functions of their scenario,
which they write only by filling its argmax memo (the outcome and target
caches of :func:`check_pooled_implementation` are local to one call):
distinct (property, draw, level) cells may be fanned out to parallel workers
and their results merged in any order.

:data:`PROPERTIES` is the one rule for which property applies under which
scheme kind, and :func:`check` its one guard; a ``check_*`` assumes it applies.

Conditional dominance is the expensive check.  Opponents' strategies are
enumerated as realized-report plans per nature draw: the report sequences
they produce on the truthful play, replayed positionally (with an awareness
cap) when the checked agent deviates.  Payoffs depend only on the realized
transcript, so this enumeration covers every opponent strategy that does
not condition on the checked agent's report content beyond what the
pooled-level broadcasts force; fully report-reactive opponents could
transfer utility across branches, which no transfer scheme can price.
Games whose initial awareness vector cannot reach the conditioning level
are skipped: projecting such a draw downward reproduces an instance already
enumerated at the lower level.

The check is a dynamic program with two exact tables per (agent, level),
keyed on what a subtree reads: :func:`engine.state_key` less the stage,
since plans replay relative to the current stage and below a state only
the stage cap reads it.  The deviation table maps (key, opponents' plan
suffixes from the state's stage, less trailing repeats) to a payoff
summary (each outcome mapped to the agent's largest transfer over the
subtree's plays), which gives the best deviation utility at every
evaluation type, and the play count.  The truth table maps (key, the
agent's own true type) to the opponents' free subtree under the truthful
agent: its plays, its checks, the plays they charge, and each play as
(plan suffixes, truthful utility), from which an ancestor runs its own
checks.  The checks run at the conditioning states, those where the
agent's awareness is the game level.  There she perceives her true type,
by (I1) of :class:`engine.PlayState`: awareness never exceeds the game
level, and her true type lies at it.  So every conditioning state values
a truthful play at the same type, and a terminal is settled once, when
the first conditioning state lists it, not once per conditioning
ancestor.  Each entry records ``deep``, the stages down to its deepest
running state, and answers a state at stage ``s`` only if ``s + deep``
is within the stage cap; otherwise the state is expanded again, so the
cap trips where walking every play trips.  Each instance is solved with
the cap (bound - plays used) and charged at once.  If the charge passes the
cap or a check fails, the instance is walked instead, play by play with
:func:`engine.iter_completions` through the same tables, so the witness,
the ``checked`` count and the point where the play budget trips are those
of walking every play.

Both tables expand a state through one step table per check, which every
(agent, level) shares: it maps (state, reports) to (child, the child's
subtree key, or None if the child stopped), so :func:`engine.advance` runs
once per distinct step of the check, whichever agent's tables reach it.
``advance`` is pure, so a table keyed on the exact state needs no
soundness argument.  :func:`engine.report_profiles` still runs on every
expansion, so the stage cap trips as before, and a step that raises is not
stored.  The table lives until the check returns; that is its cost in
memory, 64,650 entries on ``example1`` (64,930 while a state kept its whole
history, which split states that the key now merges).
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from . import engine
from .engine import FREE, PlayBudget
from .scenario import Scenario
from .transfers import (CLARKE, GROVES, KINDS, RSPA, STATIC_VICKREY, Mechanism, SchemeConfig,
                        bidders, opponent_profile, scheme_outcome, transfer_report)
from .typespace import NatureDraw


class InapplicableProperty(ValueError):
    """The property is not defined for the scenario's scheme kind."""


# Every truthful run stops within this many stages (the paper's three-stage bound).
STAGE_BOUND = 3


class Witness(NamedTuple):
    description: str
    replay: dict


class VerificationResult(NamedTuple):
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
            "witnesses": [w._asdict() for w in self.witnesses],
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
    the agents' pooled awareness, for every nature draw.  Each distinct
    profile is settled once, and each true profile's target once per pooled
    level, when a draw first needs it."""
    mech = Mechanism(scenario, scheme)
    witnesses = []
    checked = 0
    structure = scenario.structure
    top = scenario.lattice.top
    settle = cache(lambda profile: scheme_outcome(scenario, scheme, profile)[0])
    target_of = cache(lambda true_profile, pooled: settle(tuple(
        structure.project(agent, t, pooled) for agent, t in zip(structure.agents, true_profile))))
    for true_profile in structure.profiles(top):
        for awareness in product(scenario.lattice.elements, repeat=len(scenario.agents)):
            checked += 1
            draw = NatureDraw(true_profile, awareness)
            path = mech.run(draw, top)
            implemented = settle(path[-1].last)
            target = target_of(true_profile, scenario.lattice.join_all(awareness))
            if implemented != target:
                witnesses.append(Witness(
                    f"draw {true_profile} at awareness {awareness}: implemented {implemented}, "
                    f"pooled-awareness target {target}",
                    {"true_types": list(true_profile), "awareness": list(awareness),
                     "stages": [list(s) for s in engine.transcript(path).stages],
                     "implemented": implemented, "target": target}))
    return VerificationResult("pooled-implementation", witnesses, checked)


def check_stage_bound(scenario: Scenario) -> VerificationResult:
    """Every truthful run, in every partial game, stops within ``STAGE_BOUND`` stages.
    Dynamic schemes only: unlike :func:`check`, this does not refuse static_vickrey."""
    witnesses = []
    checked = 0
    for level in scenario.lattice.elements:
        for profile, awareness in _partial_draws(scenario, level):
            checked += 1
            path = engine.truthful_path(
                scenario, engine.initial_state(scenario, level, profile, awareness))
            if len(path) > STAGE_BOUND + 1:
                stages = engine.transcript(path).stages
                witnesses.append(Witness(
                    f"truthful run took {len(stages)} stages at level {level}",
                    {"level": level, "profile": list(profile), "awareness": list(awareness),
                     "stages": [list(s) for s in stages]}))
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
    balance_mode = mode == "balance"
    for path in engine.iter_completions(scenario, state, policies, budget):
        checked += 1
        report = transfer_report(mech, path[-1])
        balance = report.operator_balance
        # A Fraction's sign is its numerator's, read without Fraction.__lt__.
        if balance != 0 if balance_mode else balance.numerator < 0:
            total = -balance
            stages = engine.transcript(path).stages
            witnesses.append(Witness(
                f"transfers sum to {total} on transcript {stages}",
                {"stages": [list(s) for s in stages], "sum": str(total),
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
    Dynamic schemes only: unlike :func:`check`, this does not refuse static_vickrey.
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
            reached = path[:-1] if mode == "ex_post" else path[:1]
            for agent in bidders(scenario, scheme):
                i = structure.agent_position[agent]
                for node in reached:
                    if structure.level_of(agent, node.perceived[i]) != level:
                        continue
                    checked += 1
                    u = mech.utility(path[-1], agent, node.perceived[i])
                    if u < 0:
                        witnesses.append(Witness(
                            f"{agent} gets {u} at stage-{node.stage} information set "
                            f"(perceived {node.perceived[i]}) under draw {profile} / {awareness}",
                            {"agent": agent, "level": level, "profile": list(profile),
                             "awareness": list(awareness), "stage": node.stage,
                             "perceived": node.perceived[i], "utility": str(u),
                             "stages": [list(s) for s in engine.transcript(path).stages]}))
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


class _Fallback(Exception):
    """The dynamic program gives an instance up: its charge passed the cap,
    or a check failed."""


class _Tables:
    """The dominance check's two exact tables for one (agent, level), the
    step table of :func:`_step` that every ``_Tables`` of one check shares,
    the stage cap, and the cap and running charge of the instance being
    solved."""

    def __init__(self, scenario: Scenario, agent: str, level: str, steps: dict):
        agents = scenario.structure.agents
        self.agent, self.level = agent, level
        self.index = scenario.structure.agent_position[agent]
        self.rivals = tuple(k for k, a in enumerate(agents) if a != agent)
        self.opponents = {a: FREE for a in agents if a != agent}
        self.max_stages = engine.max_stages(scenario)
        # (subtree key, plan suffixes) -> (payoff summary, plays, deep)
        self.deviations: dict[tuple, tuple[dict[str, Fraction], int, int]] = {}
        # (subtree key, own true type) -> (plays, checked, charge, lines, deep)
        self.truth: dict[tuple, tuple] = {}
        # (state, reports) -> (child, child's subtree key or None), shared
        self.steps: dict[tuple, tuple[engine.PlayState, tuple | None]] = steps
        self.cap = self.spent = 0

    def spend(self, plays: int) -> None:
        self.spent += plays
        if self.spent > self.cap:
            raise _Fallback

    def fits(self, state: engine.PlayState, found: tuple | None) -> bool:
        """Whether ``found`` answers ``state``: its subtree, ``deep`` last, is within the cap."""
        return found is not None and state.stage + found[-1] <= self.max_stages


def _subtree_key(scenario: Scenario, state: engine.PlayState) -> tuple:
    """:func:`engine.state_key` less the stage, which only the stage cap reads below."""
    return engine.state_key(scenario, state)[1:]


def _step(scenario: Scenario, steps: dict, state: engine.PlayState,
          reports: tuple[str, ...]) -> tuple[engine.PlayState, tuple | None]:
    """(child, its :func:`_subtree_key`, or None if it stopped) of one
    protocol step: read from ``steps``, or computed by the pure
    :func:`engine.advance` and stored there.  A step that raises is not
    stored."""
    key = (state, reports)
    found = steps.get(key)
    if found is None:
        child = engine.advance(scenario, state, reports)
        found = steps[key] = (child, None if child.stopped else _subtree_key(scenario, child))
    return found


def _stripped(plan: tuple[str, ...]) -> tuple[str, ...]:
    """``plan`` without trailing repeats, which ``plan_policy`` replays alike."""
    while len(plan) > 1 and plan[-1] == plan[-2]:
        plan = plan[:-1]
    return plan


def _best_value(scenario: Scenario, agent: str, eval_type: str,
                summary: dict[str, Fraction]) -> Fraction:
    """The largest utility at ``eval_type`` over the plays of a payoff summary."""
    return max(scenario.outcomes.value(agent, eval_type, x) + t for x, t in summary.items())


def _replay_policies(scenario: Scenario, tables: _Tables, state: engine.PlayState,
                     plans: tuple[tuple[str, ...], ...]) -> dict[str, object]:
    """The agent FREE and each opponent replaying the plan whose suffix
    from ``state``'s stage is in ``plans``: ``plan_policy`` reads a plan
    only from the current stage on, so the suffix's first report stands in
    for every earlier stage."""
    agents, before = scenario.structure.agents, state.stage - 1
    policies: dict[str, object] = {
        agents[k]: engine.plan_policy(agents[k], plan[:1] * before + plan, scenario)
        for k, plan in zip(tables.rivals, plans)}
    policies[tables.agent] = FREE
    return policies


def _best_deviation(scenario: Scenario, mech: Mechanism, tables: _Tables,
                    state: engine.PlayState, plans: tuple[tuple[str, ...], ...],
                    policies: dict[str, object] | None = None, subtree: tuple | None = None
                    ) -> tuple[dict[str, Fraction], int, int]:
    """(payoff summary, plays, deep) of the plays of
    ``engine.iter_completions`` from the running ``state``, the agent FREE
    and each opponent replaying her plan: the summary maps each outcome to
    the agent's largest transfer over the plays, and ``deep`` counts the
    stages down to the deepest running state.

    ``plans`` holds each opponent's plan suffix from ``state``'s stage on,
    stripped, and a child gets it less its first report (the final report
    stays), which keeps it stripped.  An entry answers a state only where
    ``deep`` keeps its subtree within the stage cap; otherwise the state is
    expanded, so the cap trips where the plain walk trips.  ``policies``
    are built from the plans on the first miss, and ``subtree`` is
    ``_subtree_key(scenario, state)``, when not given.  Every running state
    has a feasible report, so there is at least one play.
    """
    key = (_subtree_key(scenario, state) if subtree is None else subtree, plans)
    found = tables.deviations.get(key)
    if tables.fits(state, found):
        return found
    if policies is None:
        policies = _replay_policies(scenario, tables, state, plans)
    agent = tables.agent
    below = tuple(p[1:] if len(p) > 1 else p for p in plans)
    summary: dict[str, Fraction] = {}
    plays = deep = 0
    for reports in engine.report_profiles(scenario, state, policies):
        child, child_key = _step(scenario, tables.steps, state, reports)
        if child.stopped:
            # Terminals are settled, not stored: a terminal is reached
            # again almost only through a parent the table already answers.
            report = mech.report(child)
            items = ((report.outcome, report.transfers[agent]),)
            plays += 1
        else:
            sub, n, d = _best_deviation(scenario, mech, tables, child, below, policies,
                                        child_key)
            items = sub.items()
            plays += n
            deep = max(deep, d + 1)
        for x, t in items:
            if x not in summary or t > summary[x]:
                summary[x] = t
    found = tables.deviations[key] = (summary, plays, deep)
    return found


def _truth_tree(scenario: Scenario, mech: Mechanism, tables: _Tables,
                state: engine.PlayState, subtree: tuple | None = None) -> tuple:
    """(plays, checked, charge, lines, deep) of the plays of
    ``engine.iter_completions`` from ``state``, the agent truthful and her
    opponents FREE: the plays, the conditioning checks at ``state`` and
    below with the plays they charge, each play as (opponents' plan
    suffixes from ``state``'s stage, the agent's utility of the play at
    her true type), in walk order, listed only at a conditioning state,
    and the stages down to the deepest running state of the plays and the
    checks (-1 at a terminal).

    A hit may list the plays of another state with the same key, whose
    payoff summaries are the same.  Every play and check is spent against
    the cap, and a failing check gives the instance up.  ``subtree`` is
    ``_subtree_key(scenario, state)``, computed when not given.
    """
    i = tables.index
    # A conditioning state perceives the true type (see the module
    # docstring); awareness only rises along a play, so only a
    # conditioning state has a conditioning ancestor: only there are the
    # plays listed.
    conditioning = state.awareness[i] == tables.level
    if state.stopped:
        tables.spend(1)
        # The stopping stage repeats the last profile and raises no
        # awareness, so the terminal conditions exactly when its parent
        # does, and is settled for that parent's lines.
        if not conditioning:
            return 1, 0, 0, (), -1
        u_truth = mech.utility(state, tables.agent, state.perceived[i])
        return 1, 0, 0, ((((),) * len(tables.rivals), u_truth),), -1
    if subtree is None:
        subtree = _subtree_key(scenario, state)
    key = (subtree, state.true_profile[i])
    found = tables.truth.get(key)
    if tables.fits(state, found):
        tables.spend(found[0] + found[2])
        return found
    plays = checked = charge = deep = 0
    lines = []
    for reports in engine.report_profiles(scenario, state, tables.opponents):
        n, c, cost, below, d = _truth_tree(scenario, mech, tables,
                                           *_step(scenario, tables.steps, state, reports))
        plays, checked, charge, deep = plays + n, checked + c, charge + cost, max(deep, d + 1)
        if conditioning:
            lines.extend((tuple((reports[k],) + p for k, p in zip(tables.rivals, plans)),
                          u_truth) for plans, u_truth in below)
    if conditioning:
        eval_type = state.perceived[i]
        for plans, u_truth in lines:
            summary, n, d = _best_deviation(scenario, mech, tables, state,
                                            tuple(_stripped(p) for p in plans), subtree=subtree)
            if _best_value(scenario, tables.agent, eval_type, summary) > u_truth:
                raise _Fallback
            tables.spend(n)
            checked, charge, deep = checked + 1, charge + n, max(deep, d)
    found = tables.truth[key] = (plays, checked, charge, tuple(lines), deep)
    return found


def _walk(scenario: Scenario, mech: Mechanism, tables: _Tables, budget: PlayBudget,
          profile: tuple[str, ...], awareness: tuple[str, ...],
          start: engine.PlayState) -> tuple[Witness | None, int]:
    """(first witness or None, checked) of walking one instance play by
    play, each play charged as it is reached: the dominance check's
    reference order, through the same deviation table.  A truthful play's
    conditioning states are read off its path."""
    agent, level, i = tables.agent, tables.level, tables.index
    checked = 0
    # The agent tells the truth while opponents report freely; each play
    # fixes one opponents' plan profile.
    for truth_path in engine.iter_completions(scenario, start, tables.opponents, budget):
        plans = tuple(tuple(state.last[k] for state in truth_path[1:]) for k in tables.rivals)
        policies = _replay_policies(scenario, tables, start, plans)
        # Every conditioning state perceives the agent's true type (see
        # the module docstring): value the truthful play once.
        u_truth = None
        for h_state in truth_path[:-1]:
            if h_state.awareness[i] != level:
                continue
            eval_type = h_state.perceived[i]
            if u_truth is None:
                u_truth = mech.utility(truth_path[-1], agent, eval_type)
            checked += 1
            before = h_state.stage - 1
            summary, plays, _ = _best_deviation(
                scenario, mech, tables, h_state,
                tuple(_stripped(p[before:]) for p in plans), policies)
            if _best_value(scenario, agent, eval_type, summary) <= u_truth:
                # Walking these plays would charge each of them and find
                # no witness.
                budget.charge(plays)
                continue
            # Walk the plays in order, so that the witness and the point
            # where the budget trips are those of the plain walk.
            for dev_path in engine.iter_completions(scenario, h_state, policies, budget):
                u_dev = mech.utility(dev_path[-1], agent, eval_type)
                if u_dev > u_truth:
                    truth = engine.transcript(truth_path)
                    deviation = engine.transcript(truth_path[:before] + dev_path)
                    return Witness(
                        f"{agent} gains {u_dev - u_truth} by deviating at stage "
                        f"{h_state.stage} (draw {profile} / {awareness} in the "
                        f"{level}-partial game)",
                        {"agent": agent, "level": level, "profile": list(profile),
                         "awareness": list(awareness),
                         "conditioning_stage": h_state.stage,
                         "perceived": eval_type,
                         "truth_stages": [list(s) for s in truth.stages],
                         "deviation_stages": [list(s) for s in deviation.stages],
                         "truth_utility": str(u_truth),
                         "deviation_utility": str(u_dev)}), checked
    return None, checked


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
    Dynamic schemes only: unlike :func:`check`, this does not refuse static_vickrey.
    """
    mech = Mechanism(scenario, scheme)
    budget = PlayBudget(bound)
    checked = 0
    tables = None
    # A step does not depend on the agent or level, so one table serves
    # every (agent, level) of the check; it lives until the check returns.
    steps: dict = {}
    for agent, level, profile, awareness in _dominance_instances(scenario,
                                                                 bidders(scenario, scheme)):
        # Table entries hold for one (agent, level), and instances come
        # grouped by both, so a new pair starts new tables and loses no hit.
        if tables is None or (tables.agent, tables.level) != (agent, level):
            tables = _Tables(scenario, agent, level, steps)
        start = engine.initial_state(scenario, level, profile, awareness)
        tables.cap, tables.spent = budget.bound - budget.used, 0
        try:
            plays, n_checked, charge, _, _ = _truth_tree(scenario, mech, tables, start)
        except _Fallback:
            witness, n_checked = _walk(scenario, mech, tables, budget, profile, awareness, start)
            if witness is not None:
                return VerificationResult("dominance", [witness], checked + n_checked)
        else:
            budget.charge(plays + charge)
        checked += n_checked
    return VerificationResult("dominance", [], checked)


def _welfare_tables(scenario: Scenario) -> Iterator[tuple[str, dict[tuple[str, ...], Fraction]]]:
    """Each level in declaration order, with the welfare of the efficient
    outcome at each of its profiles in ``profiles(level)`` order."""
    model = scenario.outcomes
    for level in scenario.lattice.elements:
        yield level, {profile: model.welfare(model.efficient_outcome(profile), profile)
                      for profile in scenario.structure.profiles(level)}


def check_holmstrom(scenario: Scenario,
                    g: dict[tuple[str, str, tuple[str, ...]], Fraction]) -> VerificationResult:
    """The welfare decomposition holds at every level and profile for ``g``.

    Levels are checked in declaration order and profiles in
    ``profiles(level)`` order; a failure stops at the first profile where the
    terms of ``g`` do not sum to welfare, whose replay is the one witness,
    and ``checked`` counts the profiles up to and including it.
    """
    return _check_terms(scenario, g, _welfare_tables(scenario))


def _check_terms(scenario: Scenario, g: dict[tuple[str, str, tuple[str, ...]], Fraction],
                 tables: Iterable[tuple[str, dict[tuple[str, ...], Fraction]]]
                 ) -> VerificationResult:
    """:func:`check_holmstrom` against the (level, welfare table) pairs of
    :func:`_welfare_tables`."""
    checked = 0
    for level, table in tables:
        for profile, welfare in table.items():
            checked += 1
            total = sum((g[(agent, level, opponent_profile(scenario.agents, agent, profile))]
                         for agent in scenario.agents), Fraction(0))
            if total != welfare:
                return VerificationResult("holmstrom", [Witness(
                    f"decomposition misses welfare by {welfare - total} at {level} {profile}",
                    {"level": level, "profile": list(profile),
                     "welfare": str(welfare), "decomposed": str(total)})], checked)
    return VerificationResult("holmstrom", [], checked)


def _decompose(scenario: Scenario, tables: dict[str, dict[tuple[str, ...], Fraction]]
               ) -> dict[tuple[str, str, tuple[str, ...]], Fraction]:
    """The candidate welfare decomposition, in closed form, level by level,
    from the welfare ``tables`` of :func:`_welfare_tables`.

    With ``b`` a level's first profile and ``W_S`` the welfare at the profile
    taking the given types on the agent set ``S`` and ``b`` elsewhere, agent
    k's term is the sum over subsets U of the agents before k of
    (-1)^(k - |U|) W_(U + agents after k); agent k stays at ``b``.  By Möbius
    inversion over agent subsets the terms sum to welfare minus its top-order
    finite difference over all agents, which vanishes everywhere exactly when
    some decomposition exists.  So the candidate decomposes welfare whenever
    any decomposition does.
    """
    structure, agents = scenario.structure, scenario.agents
    g: dict[tuple[str, str, tuple[str, ...]], Fraction] = {}
    for level, welfare in tables.items():
        base = next(iter(welfare))
        for k, agent in enumerate(agents):
            for opp in structure.opponent_profiles(agent, level):
                term = Fraction(0)
                for keep in product((False, True), repeat=k):
                    profile = (*(t if kept else b for t, b, kept in zip(opp, base, keep)),
                               base[k], *opp[k:])
                    term += -welfare[profile] if (k - sum(keep)) % 2 else welfare[profile]
                g[(agent, level, opp)] = term
    return g


def _decomposition(scenario: Scenario
                   ) -> tuple[dict[tuple[str, str, tuple[str, ...]], Fraction], VerificationResult]:
    """The closed-form candidate and its check, from one welfare table per level."""
    tables = dict(_welfare_tables(scenario))
    g = _decompose(scenario, tables)
    return g, _check_terms(scenario, g, tables.items())


def find_g(scenario: Scenario) -> dict[tuple[str, str, tuple[str, ...]], Fraction] | None:
    """A welfare decomposition, or None when none exists."""
    g, result = _decomposition(scenario)
    return g if result.holds else None


def check_decomposition(scenario: Scenario) -> VerificationResult:
    """A welfare decomposition exists and holds at every level and profile.

    On failure the one witness names the first level with no decomposition;
    its replay is the first profile where welfare and the closed-form
    candidate differ, by the top-order finite difference there.
    """
    result = _decomposition(scenario)[1]
    if result.holds:
        return result
    replay = result.witnesses[0].replay
    level = replay["level"]
    structure = scenario.structure
    equations = sum(1 for _ in structure.profiles(level))
    unknowns = sum(1 for agent in scenario.agents
                   for _ in structure.opponent_profiles(agent, level))
    return VerificationResult("holmstrom", [Witness(
        f"no additive decomposition of welfare exists at level {level}: the "
        f"{equations}-equation system over {unknowns} unknowns is inconsistent", replay)], 1)


def derive_y_from_g(scenario: Scenario,
                    g: dict[tuple[str, str, tuple[str, ...]], Fraction]
                    ) -> dict[tuple[str, str, tuple[str, ...]], Fraction]:
    """Scale a decomposition into budget-balancing y-tables."""
    n = len(scenario.agents)
    return {key: -(n - 1) * value for key, value in g.items()}


# Property name -> (check under the scenario's scheme with a play bound; for a
# dynamic-protocol property the noun its static_vickrey error names, else None;
# the kinds whose --all runs it, in table order).  A check looks its function
# up when it runs, so a patched or traced check_* is the one called.
_VCG, _DYNAMIC = (GROVES, CLARKE), (GROVES, CLARKE, RSPA)
PROPERTIES = {
    "efficiency": (lambda s, bound: check_efficiency(s), None, _VCG),
    "pooled-implementation":
        (lambda s, bound: check_pooled_implementation(s, s.scheme), None, KINDS),
    "stage-bound": (lambda s, bound: check_stage_bound(s), "the stage bound", _DYNAMIC),
    "budget-balance": (lambda s, bound: check_budget(s, s.scheme, "balance", bound), None, (RSPA,)),
    "no-deficit": (lambda s, bound: check_budget(s, s.scheme, "no_deficit", bound), None, _VCG),
    "participation-ex-post":
        (lambda s, bound: check_participation(s, s.scheme, "ex_post"), "participation", (RSPA,)),
    "participation-ex-ante": (lambda s, bound: check_participation(
        s, s.scheme, "ex_ante_anticipated"), "participation", _VCG),
    "nonnegative-valuations": (lambda s, bound: check_nonnegative_valuations(s), None, ()),
    "holmstrom": (lambda s, bound: check_decomposition(s), None, ()),
    "dominance":
        (lambda s, bound: check_conditional_dominance(s, s.scheme, bound), "dominance", _DYNAMIC),
}


def check(prop: str, scenario: Scenario, bound: int = 10 ** 6) -> VerificationResult:
    """``prop`` checked on ``scenario`` under its scheme, ``bound`` plays per
    exhaustive query; a dynamic-protocol property is inapplicable to static_vickrey."""
    run, dynamic, _ = PROPERTIES[prop]
    if dynamic is not None and scenario.scheme.kind == STATIC_VICKREY:
        raise InapplicableProperty(
            f"{dynamic} applies to the dynamic protocol, not to {STATIC_VICKREY}")
    return run(scenario, bound)
