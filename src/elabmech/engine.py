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
dispatches the per-agent policies and enforces the stage cap.
:func:`iter_paths` is the one enumerator of the play tree built on it, a
depth-first recursion that walks every play and charges the play budget.
:func:`iter_completions` (terminal states), :func:`truthful_path` (the
single play when no agent is FREE) and :func:`run` are views of it; the
dominance check's memoized deviation recursion expands states through
:func:`report_profiles` as well.

All state is immutable; distinct plays may be explored concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Iterator, Mapping

from .typespace import NatureDraw, TypeStructure

if TYPE_CHECKING:
    from .scenario import Scenario


class InfeasibleReport(Exception):
    pass


class StrategySpaceTooLarge(Exception):
    def __init__(self, bound: int):
        super().__init__(f"enumeration exceeded {bound} plays")
        self.bound = bound


@dataclass(frozen=True)
class Transcript:
    stages: tuple[tuple[str, ...], ...]
    pooled: tuple[str, ...]
    stopped: bool

    @property
    def final(self) -> tuple[str, ...]:
        return self.stages[-1]

    @property
    def final_pooled(self) -> str:
        return self.pooled[-1]

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass(frozen=True)
class PlayState:
    """One running or stopped play.

    Every state that :func:`initial_state` or :func:`advance` builds keeps
    two invariants, which let :func:`advance` skip work that cannot change:

    (I1) ``perceived[i]`` is ``project(agent_i, true_profile[i], awareness[i])``;
    (I2) after any stage, ``awareness[i]`` lies weakly above ``pooled[-1]``,
         because it was just joined with it.
    """

    true_profile: tuple[str, ...]
    awareness: tuple[str, ...]
    perceived: tuple[str, ...]
    history: tuple[tuple[str, ...], ...]
    pooled: tuple[str, ...]
    stopped: bool

    @property
    def stage(self) -> int:
        return len(self.history) + 1


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


def initial_state(scenario: Scenario, game_level: str, true_profile: tuple[str, ...],
                  awareness: tuple[str, ...]) -> PlayState:
    structure = scenario.structure
    lattice = structure.lattice
    effective = tuple(lattice.meet(a, game_level) for a in awareness)
    perceived = tuple(structure.project(agent, t, eff)
                      for agent, t, eff in zip(structure.agents, true_profile, effective))
    return PlayState(true_profile, effective, perceived, (), (), False)


def state_from_draw(scenario: Scenario, draw: NatureDraw, partial_level: str) -> PlayState:
    structure = scenario.structure
    profile = tuple(structure.project(agent, t, partial_level)
                    for agent, t in zip(structure.agents, draw.true_types))
    return initial_state(scenario, partial_level, profile, draw.awareness)


def report_menus(structure: TypeStructure) -> dict[tuple, tuple[str, ...]]:
    """Every feasible-report menu, keyed (agent, awareness, last report,
    pooled level), the last two None at the first stage.

    A first-stage menu lists every type at every level weakly below the
    agent's awareness; a later one lists the elaborations of her last
    report at every level between the pooled level and her awareness.  The
    pooled level is at least the last report's level, so it is the
    protocol floor.  Levels come by down-set size, then name.
    """
    lattice = structure.lattice
    menus: dict[tuple, tuple[str, ...]] = {}
    for aware in lattice.elements:
        levels = sorted(lattice.down_set(aware), key=lambda x: (len(lattice.down_set(x)), x))
        for agent in structure.agents:
            menus[(agent, aware, None, None)] = tuple(
                t for level in levels for t in structure.space(agent, level))
            for pooled in levels:
                above = [level for level in levels if pooled in lattice.down_set(level)]
                for own in lattice.down_set(pooled):
                    for last in structure.space(agent, own):
                        menus[(agent, aware, last, pooled)] = tuple(
                            t for level in above for t in structure.preimage(agent, last, level))
    return menus


def feasible_reports(scenario: Scenario, state: PlayState, agent: str) -> tuple[str, ...]:
    i = scenario.structure.agent_index(agent)
    last, pooled = (state.history[-1][i], state.pooled[-1]) if state.history else (None, None)
    return scenario.menus[(agent, state.awareness[i], last, pooled)]


def truth_report(state: PlayState, agent: str, agents: tuple[str, ...]) -> str:
    return state.perceived[agents.index(agent)]


def advance(scenario: Scenario, state: PlayState, reports: tuple[str, ...]) -> PlayState:
    """The state after one stage of ``reports``, every report checked
    against its menu.

    By (I2) a pooled level equal to the last one raises nobody's awareness,
    so awareness and perceived types carry over; by (I1) a new pooled level
    re-projects the true types only when it raised some awareness.
    """
    if state.stopped:
        raise InfeasibleReport("play already stopped")
    structure = scenario.structure
    lattice = structure.lattice
    if len(reports) != len(structure.agents):
        raise InfeasibleReport(f"{len(reports)} reports for {len(structure.agents)} agents")
    for agent, report in zip(structure.agents, reports):
        if report not in feasible_reports(scenario, state, agent):
            raise InfeasibleReport(f"{agent}: {report}")
    pooled = lattice.join_all(structure.level_of(agent, r)
                              for agent, r in zip(structure.agents, reports))
    awareness, perceived = state.awareness, state.perceived
    if not state.history or pooled != state.pooled[-1]:
        awareness = tuple(lattice.join(a, pooled) for a in awareness)
        if awareness != state.awareness:
            perceived = tuple(structure.project(agent, t, a) for agent, t, a
                              in zip(structure.agents, state.true_profile, awareness))
    stopped = bool(state.history) and reports == state.history[-1]
    return PlayState(state.true_profile, awareness, perceived, state.history + (reports,),
                     state.pooled + (pooled,), stopped)


def transcript(state: PlayState) -> Transcript:
    return Transcript(state.history, state.pooled, state.stopped)


def max_stages(scenario: Scenario) -> int:
    return len(scenario.structure.agents) * scenario.lattice.height() + 2


def truthful_path(scenario: Scenario, state: PlayState,
                  policies: Mapping[str, object] | None = None) -> list[PlayState]:
    """Every state the play reaches from ``state``, ``state`` first and the
    terminal last: the one play of :func:`iter_paths` when no agent is FREE.

    An agent with a callable policy ``(scenario, state, agent) -> report``
    plays it; every other agent tells the truth.
    """
    return list(next(iter_paths(scenario, state, policies or {})))


def run(scenario: Scenario, draw: NatureDraw, partial_level: str,
        strategies: Mapping[str, object] | None = None) -> Transcript:
    """Play the partial game to completion; agents without a strategy tell the truth."""
    return transcript(truthful_path(scenario, state_from_draw(scenario, draw, partial_level),
                                    strategies)[-1])


def run_single_stage(scenario: Scenario, draw: NatureDraw, partial_level: str) -> Transcript:
    """Degenerate static protocol: one truthful report round, no feedback."""
    state = state_from_draw(scenario, draw, partial_level)
    state = advance(scenario, state, state.perceived)
    return Transcript(state.history, state.pooled, True)


def report_profiles(scenario: Scenario, state: PlayState,
                    policies: Mapping[str, object]) -> Iterator[tuple[str, ...]]:
    """Every report profile the per-agent policies allow at the running
    ``state``, in ``product`` order over the agents.

    This is the one place that dispatches a policy: FREE offers every
    feasible report, TRUTH (the default) the current perceived type, and a
    callable ``(scenario, state, agent) -> report`` its one report.  A play
    still running past :func:`max_stages` is a protocol failure.
    """
    if state.stage > max_stages(scenario):
        raise AssertionError("protocol failed to stop within the stage cap")
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


def iter_paths(scenario: Scenario, state: PlayState,
               policies: Mapping[str, object],
               budget: PlayBudget | None = None) -> Iterator[tuple[PlayState, ...]]:
    """Every play from ``state`` under per-agent policies, as the tuple of
    states it reaches: ``state`` first, the terminal last.

    Policies are those of :func:`report_profiles`.  Plays come depth first,
    report profiles in ``product`` order over the agents.  Each terminal is
    charged to ``budget`` before its play is yielded.  Every feasible report
    path is realized by some strategy profile and vice versa, so enumerating
    paths is outcome-equivalent to enumerating strategies.
    """
    return _paths(scenario, (), state, policies, budget)


def _paths(scenario: Scenario, prefix: tuple[PlayState, ...], state: PlayState,
           policies: Mapping[str, object],
           budget: PlayBudget | None) -> Iterator[tuple[PlayState, ...]]:
    """The plays of :func:`iter_paths` from ``state``, each after ``prefix``.
    Module level, not a nested closure: a self-recursive closure is a
    reference cycle that keeps what it captured alive until the cyclic
    collector runs."""
    path = prefix + (state,)
    if state.stopped:
        if budget is not None:
            budget.charge()
        yield path
        return
    for reports in report_profiles(scenario, state, policies):
        yield from _paths(scenario, path, advance(scenario, state, reports), policies, budget)


def iter_completions(scenario: Scenario, state: PlayState,
                     policies: Mapping[str, object],
                     budget: PlayBudget | None = None) -> Iterator[PlayState]:
    """The terminal state of every play of :func:`iter_paths`."""
    for path in iter_paths(scenario, state, policies, budget):
        yield path[-1]


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
    """
    structure = scenario.structure
    lattice = scenario.lattice
    idx = structure.agent_index(agent)
    schedule = tuple(structure.level_of(agent, r) for r in reports_by_stage)
    final_report = reports_by_stage[-1]

    def policy(scenario_: Scenario, state: PlayState, owner: str) -> str:
        assert owner == agent
        target = schedule[min(state.stage, len(schedule)) - 1]
        level = lattice.meet(target, state.awareness[idx])
        if state.history:
            floor = lattice.join(structure.level_of(agent, state.history[-1][idx]),
                                 state.pooled[-1])
            level = lattice.join(level, floor)
        return structure.project(agent, final_report, level)

    return policy

