"""The multi-round elaboration protocol and its play-tree enumeration.

A play starts from a nature draw restricted to some partial game: each
agent holds a perceived type at her effective awareness.  Every stage all
agents report simultaneously; the mediator broadcasts the pooled level of
the reports, each agent's awareness joins it, her perceived type elaborates
accordingly, and reporting continues until a profile repeats.

Reports are constrained to elaboration chains: after the first stage an
agent must report a type that projects onto her previous report, at a
level at least the join of her previous level with the broadcast pooled
level, and no higher than her current awareness.  :func:`report_menus`
tabulates every such menu once per scenario.

:func:`report_profiles` is the one place that expands a running state: it
dispatches the per-agent policies and enforces the stage cap.  On it stand
the two walks: :func:`iter_completions`, one explicit stack over the play
tree that hands each play's path of states straight to its caller, and
:func:`truthful_path` along the first play.  A state holds no history:
:func:`transcript` builds a play's stages from such a path where they are
shown.  The dominance check's dynamic program expands states through
:func:`report_profiles` too, keyed on :func:`state_key`.

All state is immutable: :class:`PlayState` and :class:`Transcript` are
NamedTuples, equal and hashing alike exactly when their fields do, so
distinct plays may be explored concurrently and states may key tables.

The protocol reads level, projection, join and meet tables directly: each
is a :class:`~lattice.Table`, whose miss raises its accessor's error.
"""
from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from .lattice import Table
from .typespace import NatureDraw, TypeStructure

if TYPE_CHECKING:
    from .scenario import Scenario


class InfeasibleReport(Exception):
    pass


class StrategySpaceTooLarge(Exception):
    def __init__(self, bound: int):
        super().__init__(f"enumeration exceeded {bound} plays")
        self.bound = bound


class Transcript(NamedTuple):
    """The display record of a play: each stage's report profile, each
    stage's pooled level, and whether the play stopped.  An immutable
    NamedTuple, built by :func:`transcript` only where stages are shown."""

    stages: tuple[tuple[str, ...], ...]
    pooled: tuple[str, ...]
    stopped: bool

    @property
    def n_stages(self) -> int:
        return len(self.stages)


class PlayState(NamedTuple):
    """One running or stopped play, as an immutable NamedTuple: the true
    profile, perceived types, the stage about to be played (1 before the
    first), the last report profile and its pooled ``level`` (None before
    the first stage), awareness, the premium recipient of that level, and
    whether the play stopped.

    Every state that :func:`initial_state` or :func:`advance` builds keeps
    two invariants, which let :func:`advance` skip work that cannot change:

    (I1) ``perceived[i]`` is ``project(agent_i, true_profile[i], awareness[i])``,
         read from ``TypeStructure.projection_table``;
    (I2) after any stage, ``awareness[i]`` lies weakly above ``level``,
         because it was just joined with it.

    The recipient of a pooled level is the one agent who reported a type at
    it at the first stage that reached it, or None when two or more agents
    tie there.  Along a feasible play pooled levels never fall and no report
    lies above its stage's pooled level, so a first report at a pooled level
    can only be made at the first stage whose pooled level it is; if nobody
    makes one there, every agent reaches the level together at the next
    stage, which is a tie.  So :func:`advance` applies the rule when the
    pooled level changes and keeps the recipient while it stays.

    Everything from ``stage`` on is :func:`state_key`: for a fixed true
    profile it fixes the whole subtree below a state, payoffs included.
    Menus, :func:`advance`, the stop rule, the stage cap and
    :func:`plan_policy` read only the stage, the last report profile, the
    pooled level and awareness, and by (I1) perceived types follow from
    awareness.  A settlement reads the final profile, the final pooled level
    and its recipient.
    """

    true_profile: tuple[str, ...]
    perceived: tuple[str, ...]
    stage: int
    last: tuple[str, ...] | None
    level: str | None
    awareness: tuple[str, ...]
    recipient: str | None
    stopped: bool


# ``_record(PlayState, fields)`` builds the record in C, skipping its Python ``__new__``.
_record = tuple.__new__

FREE = "free"
TRUTH = "truth"


class PlayBudget:
    """Shared counter for play enumeration; trips at the configured bound."""

    def __init__(self, bound: int = 10 ** 6):
        self.bound = bound
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.bound:
            raise StrategySpaceTooLarge(self.bound)


def state_key(scenario: Scenario, state: PlayState) -> tuple:
    """The payoff-sufficient key of ``state`` (see :class:`PlayState`): (stage,
    last report profile, pooled level, awareness, recipient, stopped)."""
    return state[2:]


def initial_state(scenario: Scenario, game_level: str, true_profile: tuple[str, ...],
                  awareness: tuple[str, ...]) -> PlayState:
    structure = scenario.structure
    meets, projections = structure.lattice.meet_table, structure.projection_table
    effective = tuple([meets[(a, game_level)] for a in awareness])
    perceived = tuple([projections[(agent, t, eff)]
                       for agent, t, eff in zip(structure.agents, true_profile, effective)])
    return _record(PlayState, (true_profile, perceived, 1, None, None, effective, None, False))


def state_from_draw(scenario: Scenario, draw: NatureDraw, partial_level: str) -> PlayState:
    structure = scenario.structure
    profile = tuple([structure.projection_table[(agent, t, partial_level)]
                     for agent, t in zip(structure.agents, draw.true_types)])
    return initial_state(scenario, partial_level, profile, draw.awareness)


def report_menus(structure: TypeStructure) -> Table:
    """Every feasible-report menu, keyed (agent, awareness, last report,
    pooled level), the last two None at the first stage, in a
    :class:`~lattice.Table` whose miss is an :class:`InfeasibleReport`.

    A first-stage menu lists every type at every level weakly below the
    agent's awareness; a later one lists the elaborations of her last
    report at every level between the pooled level and her awareness.  The
    pooled level is at least the last report's level, so it is the
    protocol floor.  Levels come by down-set size, then name.
    """
    lattice, down, preimage = structure.lattice, structure.lattice.down_set, structure.preimage
    order = sorted(lattice.elements, key=lambda x: (len(down(x)), x))
    menus = Table({}, lambda key: InfeasibleReport(f"no report menu {key!r}"))
    for aware in lattice.elements:
        levels = [level for level in order if level in down(aware)]
        above = {pooled: [level for level in levels if pooled in down(level)] for pooled in levels}
        for agent in structure.agents:
            menus[(agent, aware, None, None)] = tuple(
                t for level in levels for t in structure.space(agent, level))
            for pooled in levels:
                for own in down(pooled):
                    for last in structure.space(agent, own):
                        menus[(agent, aware, last, pooled)] = tuple(
                            [t for level in above[pooled] for t in preimage(agent, last, level)])
    return menus


def feasible_reports(scenario: Scenario, state: PlayState, agent: str) -> tuple[str, ...]:
    i = scenario.structure.agent_position[agent]
    last = state.last
    return scenario.menus[(agent, state.awareness[i],
                          None if last is None else last[i], state.level)]


def advance(scenario: Scenario, state: PlayState, reports: tuple[str, ...]) -> PlayState:
    """The state after one stage of ``reports``, every report checked
    against its menu.

    One pass over the agents checks each report against its menu, then
    joins its level into the pooled level, so an undeclared report is an
    :class:`InfeasibleReport`.  By (I2) a pooled level equal to the last one
    raises nobody's awareness and keeps its recipient, so awareness,
    perceived types and the recipient carry over; a new pooled level takes
    the recipient rule of :class:`PlayState`, and by (I1) re-projects the
    true types only when it raised some awareness.  An awareness above a
    true type's own level, which a caller of :func:`initial_state` can bring
    about, raises LevelNotBelow.
    """
    true_profile, perceived, stage, last, pooled_before, awareness, recipient, stopped = state
    if stopped:
        raise InfeasibleReport("play already stopped")
    structure = scenario.structure
    agents = structure.agents
    if len(reports) != len(agents):
        raise InfeasibleReport(f"{len(reports)} reports for {len(agents)} agents")
    joins, levels = structure.lattice.join_table, structure.level_table
    pooled = None
    for agent, report in zip(agents, reports):
        if report not in feasible_reports(scenario, state, agent):
            raise InfeasibleReport(f"{agent}: {report}")
        level = levels[(agent, report)]
        pooled = level if pooled is None else joins[(pooled, level)]
    if pooled != pooled_before:
        joined = tuple([joins[(a, pooled)] for a in awareness])
        if joined != awareness:
            awareness, projections = joined, structure.projection_table
            perceived = tuple([projections[(agent, t, a)] for agent, t, a
                               in zip(agents, true_profile, joined)])
        reporters = [agent for agent, report in zip(agents, reports)
                     if levels[(agent, report)] == pooled]
        recipient = reporters[0] if len(reporters) == 1 else None
    return _record(PlayState, (true_profile, perceived, stage + 1, reports, pooled, awareness,
                               recipient, reports == last))


def transcript(path: list[PlayState]) -> Transcript:
    """The display record of the play whose states ``path`` lists, its
    initial state first."""
    played = path[1:]
    return _record(Transcript, (tuple([s.last for s in played]),
                                tuple([s.level for s in played]), path[-1].stopped))


def max_stages(scenario: Scenario) -> int:
    return scenario.stage_cap


def truthful_path(scenario: Scenario, state: PlayState,
                  policies: Mapping[str, object] | None = None) -> list[PlayState]:
    """Every state of the first play from ``state``, ``state`` first and the
    terminal last: the one play when no agent is FREE.  Policies are those
    of :func:`report_profiles`, whose stage cap may raise; nothing is charged."""
    path = [state]
    while not state.stopped:
        state = advance(scenario, state, next(report_profiles(scenario, state, policies or {})))
        path.append(state)
    return path


def run(scenario: Scenario, draw: NatureDraw, partial_level: str,
        strategies: Mapping[str, object] | None = None) -> list[PlayState]:
    """Every state of the partial game's play, the initial state first and the
    terminal last; agents without a strategy tell the truth."""
    return truthful_path(scenario, state_from_draw(scenario, draw, partial_level), strategies)


def run_single_stage(scenario: Scenario, draw: NatureDraw, partial_level: str) -> list[PlayState]:
    """Degenerate static protocol: one truthful report round, no feedback,
    as the path of :func:`run`."""
    state = state_from_draw(scenario, draw, partial_level)
    return [state, advance(scenario, state, state.perceived)._replace(stopped=True)]


def report_profiles(scenario: Scenario, state: PlayState,
                    policies: Mapping[str, object]) -> Iterator[tuple[str, ...]]:
    """Every report profile the per-agent policies allow at the running
    ``state``, in ``product`` order over the agents.

    This is the one place that dispatches a policy: FREE offers every
    feasible report, TRUTH (the default) the current perceived type, and a
    callable ``(scenario, state, agent) -> report`` its one report; with no
    policies the one profile is ``state.perceived``, undispatched.  A play
    still running past :func:`max_stages` is a protocol failure.
    """
    if state.stage > max_stages(scenario):
        raise AssertionError("protocol failed to stop within the stage cap")
    if not policies:  # every agent tells the truth
        return iter((state.perceived,))
    menus = []
    for i, agent in enumerate(scenario.structure.agents):
        policy = policies.get(agent, TRUTH)
        if policy == FREE:
            menus.append(feasible_reports(scenario, state, agent))
        elif policy == TRUTH:
            menus.append((state.perceived[i],))
        else:
            menus.append((policy(scenario, state, agent),))
    return product(*menus)


def iter_completions(scenario: Scenario, state: PlayState, policies: Mapping[str, object],
                     budget: PlayBudget | None = None) -> Iterator[list[PlayState]]:
    """Every play from ``state`` under the policies of :func:`report_profiles`,
    as the list of its states, ``state`` first and the terminal last: depth
    first, report profiles in ``product`` order, each charged to ``budget``
    before it is yielded.  The stage cap's ``AssertionError`` comes from
    :func:`report_profiles`, an :class:`InfeasibleReport` from
    :func:`advance` and :class:`StrategySpaceTooLarge` from
    :meth:`PlayBudget.charge`.  Every feasible report path is realized by
    some strategy profile and vice versa, so walking plays is
    outcome-equivalent to walking strategies.

    One explicit stack holds each running state of the current path with
    its untried report profiles, which are drawn as soon as :func:`advance`
    builds the state; a play goes straight to the caller, as a fresh list."""
    if state.stopped:
        if budget is not None:
            budget.charge()
        yield [state]
        return
    path, stack = [state], [report_profiles(scenario, state, policies)]
    while stack:
        parent = path[-1]
        for reports in stack[-1]:
            state = advance(scenario, parent, reports)
            if not state.stopped:
                path.append(state)
                stack.append(report_profiles(scenario, state, policies))
                break
            if budget is not None:
                budget.charge()
            yield path + [state]
        else:
            stack.pop()
            path.pop()


def plan_policy(agent: str, reports_by_stage: tuple[str, ...], scenario: Scenario):
    """A non-reactive strategy realized by a per-stage report sequence.

    Successive reports elaborate one another, so the sequence is equivalent
    to its most elaborate report plus the per-stage level schedule.  On any
    branch the plan replays positionally: at stage n the agent says as much
    of her final report as both her schedule and her current awareness
    allow, elaborated further only where the protocol floor (previous level
    joined with the broadcast pooled level) forces it.  On the branch the
    plan was read from this reproduces it verbatim; when another agent's
    deviation changes the pooled trajectory, the plan is capped or
    stretched level-wise but never changes content.  The replay is always
    feasible: the floor stays below the plan's final level because a
    stopped play ends with every agent at the final pooled level.

    The replay reads the level, join, meet and projection tables directly.
    """
    structure = scenario.structure
    levels, projections = structure.level_table, structure.projection_table
    joins, meets = scenario.lattice.join_table, scenario.lattice.meet_table
    idx = structure.agent_position[agent]
    schedule = tuple(structure.level_of(agent, r) for r in reports_by_stage)
    final_report = reports_by_stage[-1]

    def policy(scenario_: Scenario, state: PlayState, owner: str) -> str:
        assert owner == agent
        target = schedule[min(state.stage, len(schedule)) - 1]
        level = meets[(target, state.awareness[idx])]
        if state.last is not None:
            floor = joins[(levels[(agent, state.last[idx])], state.level)]
            level = joins[(level, floor)]
        return projections[(agent, final_report, level)]

    return policy

