"""Slow reference implementations that the fast paths are differential-tested against.

Each is the earlier, enumerating form of a construction that ``elabmech``
now builds once in closed form: the welfare decomposition by Gaussian
elimination over the rationals, and the projection closure by comparing
every covering path.  The play walk is an explicit-stack loop that keeps
each play's states, where the engine's walk keeps only the running path.
:func:`report_menus` sorts each awareness level's down-set and lists the
levels above each pooled level again for every agent, as the engine once did.
:class:`CheckedAccessors` keeps the lookups as they were before every
table raised its own domain error: plain dicts, each miss translated by
the accessor that reads it.

The truthful-run checks are kept as they were before each outcome was
settled once per check: :func:`check_pooled_implementation` settles both
outcomes of every draw, and it and :func:`check_stage_bound` play through
:func:`initial_state`, which reads the ``meet`` and ``project`` accessors,
and :func:`report_profiles`, which dispatches every agent's policy even when
there is none.

:class:`PlayState` is the play state as it was before it carried its own
key: it keeps the whole history of report profiles and pooled levels, and
:func:`advance`, :func:`state_key`, :func:`transcript` and
:func:`iter_completions` over it find the premium recipient again by
scanning that history (:func:`pooled_recipient`).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import NamedTuple

from elabmech import engine, verify
from elabmech.lattice import UnknownLevel
from elabmech.outcomes import MissingValuation
from elabmech.transfers import STATIC_VICKREY, opponent_profile, scheme_outcome
from elabmech.typespace import LevelNotBelow, NatureDraw, UnknownType


def iter_paths(scenario, state, policies, budget=None):
    """Every play from ``state`` as the tuple of states it reaches, ``state``
    first: depth first, report profiles in ``product`` order, each terminal
    charged before its play is yielded.  An explicit-stack loop, apart from
    ``engine.iter_completions``, so the engine's walk is checked against it."""
    path = [state]
    untried = []  # report profiles still to play at each running state of ``path``
    while True:
        if state.stopped:
            if budget is not None:
                budget.charge()
            yield tuple(path)
            path.pop()
        else:
            untried.append(engine.report_profiles(scenario, state, policies))
        while untried:
            reports = next(untried[-1], None)
            if reports is not None:
                state = engine.advance(scenario, path[-1], reports)
                path.append(state)
                break
            untried.pop()
            path.pop()
        else:
            return


def report_menus(structure):
    """Every feasible-report menu, keyed and ordered as ``engine.report_menus``
    keys and orders them, in a plain dict."""
    lattice = structure.lattice
    menus = {}
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


class _LevelKeyed(dict):
    """A dict keyed by a level or a pair of levels, total over the declared
    levels, whose miss names the first key level no key starts with, or the
    whole key when every level in it is declared."""

    def __missing__(self, key):
        declared = {k[0] if isinstance(k, tuple) else k for k in self}
        bad = next((x for x in (key if isinstance(key, tuple) else (key,)) if x not in declared),
                   key)
        raise UnknownLevel(f"undeclared level {bad!r}")


class CheckedAccessors:
    """The lattice, type-structure, valuation and fixture lookups of one
    scenario, each an accessor that checks its arguments, then reads a
    plain dict: the order, joins, meets and down-sets from the order alone,
    preimages by scanning the level's space."""

    def __init__(self, scenario, fixtures):
        lattice, structure = scenario.lattice, scenario.structure
        levels = lattice.elements
        self._leq = _LevelKeyed({(a, b): lattice.leq(a, b) for a in levels for b in levels})
        self._join = _LevelKeyed({(a, b): self._bound(levels, a, b, up=True)
                                  for a in levels for b in levels})
        self._meet = _LevelKeyed({(a, b): self._bound(levels, a, b, up=False)
                                  for a in levels for b in levels})
        self._down = _LevelKeyed({a: frozenset(b for b in levels if self._leq[(b, a)])
                                  for a in levels})
        self._level_of = {(agent, t): level for (agent, level), types in structure.spaces.items()
                          for t in types}
        self._proj = dict(structure.projection_table)
        self._spaces = dict(structure.spaces)
        self._agents = structure.agents
        self._valuations = dict(scenario.outcomes.valuations)
        self._fixtures = dict(fixtures)

    def _bound(self, levels, a, b, up):
        above = (lambda x, y: self._leq[(x, y)]) if up else (lambda x, y: self._leq[(y, x)])
        bounds = [c for c in levels if above(a, c) and above(b, c)]
        return next(c for c in bounds if all(above(c, d) for d in bounds))

    def leq(self, a, b):
        return self._leq[(a, b)]

    def join(self, a, b):
        return self._join[(a, b)]

    def meet(self, a, b):
        return self._meet[(a, b)]

    def down_set(self, level):
        return self._down[level]

    def level_of(self, agent, t):
        try:
            return self._level_of[(agent, t)]
        except KeyError:
            raise UnknownType(f"{agent}: {t}") from None

    def project(self, agent, t, level):
        own = self.level_of(agent, t)
        if not self.leq(level, own):
            raise LevelNotBelow(f"{level} is not below {own}")
        return self._proj[(agent, t, level)]

    def preimage(self, agent, t, level):
        own = self.level_of(agent, t)
        if not self.leq(own, level):
            raise LevelNotBelow(f"{level} is not above {own}")
        return tuple(s for s in self._spaces[(agent, level)] if self._proj[(agent, s, own)] == t)

    def value(self, agent, t, outcome):
        try:
            return self._valuations[(agent, t, outcome)]
        except KeyError:
            raise MissingValuation(f"({agent}, {t}, {outcome})") from None

    def fixture_text(self, name):
        try:
            return self._fixtures[name]
        except KeyError:
            raise KeyError(f"unknown fixture {name!r}; available: "
                           f"{', '.join(sorted(self._fixtures))}") from None

    def pooled_recipient(self, stages, pooled):
        target = pooled[-1]
        recipient = None
        try:
            for agent, report in zip(self._agents, stages[pooled.index(target)]):
                if self._level_of[(agent, report)] == target:
                    if recipient is not None:
                        return None
                    recipient = agent
        except KeyError:
            raise UnknownType(f"{agent}: {report}") from None
        return recipient


def initial_state(scenario, game_level, true_profile, awareness):
    structure = scenario.structure
    lattice = structure.lattice
    effective = tuple(lattice.meet(a, game_level) for a in awareness)
    perceived = tuple(structure.project(agent, t, eff)
                      for agent, t, eff in zip(structure.agents, true_profile, effective))
    return engine.PlayState(true_profile, perceived, 1, None, None, effective, None, False)


def report_profiles(scenario, state, policies):
    if state.stage > engine.max_stages(scenario):
        raise AssertionError("protocol failed to stop within the stage cap")
    menus = []
    for i, agent in enumerate(scenario.structure.agents):
        policy = policies.get(agent, engine.TRUTH)
        if policy == engine.FREE:
            menus.append(engine.feasible_reports(scenario, state, agent))
        elif policy == engine.TRUTH:
            menus.append((state.perceived[i],))
        else:
            menus.append((policy(scenario, state, agent),))
    return product(*menus)


def truthful_path(scenario, state):
    path = [state]
    while not state.stopped:
        state = engine.advance(scenario, state, next(report_profiles(scenario, state, {})))
        path.append(state)
    return path


def run(scenario, scheme, draw, partial_level):
    """``Mechanism.run`` without strategies, from the states built above."""
    structure = scenario.structure
    profile = tuple(structure.project(agent, t, partial_level)
                    for agent, t in zip(structure.agents, draw.true_types))
    state = initial_state(scenario, partial_level, profile, draw.awareness)
    if scheme.kind == STATIC_VICKREY:
        after = engine.advance(scenario, state, state.perceived)
        return engine.Transcript((after.last,), (after.level,), True)
    return engine.transcript(truthful_path(scenario, state))


def check_pooled_implementation(scenario, scheme):
    witnesses = []
    checked = 0
    structure = scenario.structure
    top = scenario.lattice.top
    for true_profile in structure.profiles(top):
        for awareness in product(scenario.lattice.elements, repeat=len(scenario.agents)):
            checked += 1
            draw = NatureDraw(true_profile, awareness)
            transcript = run(scenario, scheme, draw, top)
            implemented = scheme_outcome(scenario, scheme, transcript.stages[-1])[0]
            pooled = scenario.lattice.join_all(awareness)
            target_profile = tuple(structure.project(agent, t, pooled)
                                   for agent, t in zip(structure.agents, true_profile))
            target = scheme_outcome(scenario, scheme, target_profile)[0]
            if implemented != target:
                witnesses.append(verify.Witness(
                    f"draw {true_profile} at awareness {awareness}: implemented {implemented}, "
                    f"pooled-awareness target {target}",
                    {"true_types": list(true_profile), "awareness": list(awareness),
                     "stages": [list(s) for s in transcript.stages],
                     "implemented": implemented, "target": target}))
    return verify.VerificationResult("pooled-implementation", witnesses, checked)


def check_stage_bound(scenario):
    witnesses = []
    checked = 0
    for level in scenario.lattice.elements:
        for profile, awareness in verify._partial_draws(scenario, level):
            checked += 1
            state = initial_state(scenario, level, profile, awareness)
            stages = engine.transcript(truthful_path(scenario, state)).stages
            if len(stages) > verify.STAGE_BOUND:
                witnesses.append(verify.Witness(
                    f"truthful run took {len(stages)} stages at level {level}",
                    {"level": level, "profile": list(profile), "awareness": list(awareness),
                     "stages": [list(s) for s in stages]}))
    return verify.VerificationResult("stage-bound", witnesses, checked)


class PlayState(NamedTuple):
    """One running or stopped play with its whole history: each stage's
    report profile and pooled level."""

    true_profile: tuple[str, ...]
    awareness: tuple[str, ...]
    perceived: tuple[str, ...]
    history: tuple[tuple[str, ...], ...]
    pooled: tuple[str, ...]
    stopped: bool

    @property
    def stage(self) -> int:
        return len(self.history) + 1


def history_state(state):
    """The history-keeping twin of ``engine.initial_state``'s ``state``."""
    assert state.stage == 1
    return PlayState(state.true_profile, state.awareness, state.perceived, (), (), False)


def pooled_recipient(structure, stages, pooled):
    """The one agent reporting at the last pooled level at the first stage
    that reached it, or None when no agent or several do."""
    target = pooled[-1]
    levels = structure.level_table
    recipient = None
    for agent, report in zip(structure.agents, stages[pooled.index(target)]):
        if levels[(agent, report)] == target:
            if recipient is not None:
                return None
            recipient = agent
    return recipient


def state_key(scenario, state):
    """Awareness at the first stage; later (stage, last report profile,
    last pooled level, awareness, recipient of the last pooled level, stopped)."""
    if not state.history:
        return state.awareness
    return (state.stage, state.history[-1], state.pooled[-1], state.awareness,
            pooled_recipient(scenario.structure, state.history, state.pooled), state.stopped)


def feasible_reports(scenario, state, agent):
    i = scenario.structure.agent_position[agent]
    history = state.history
    if history:
        return scenario.menus[(agent, state.awareness[i], history[-1][i], state.pooled[-1])]
    return scenario.menus[(agent, state.awareness[i], None, None)]


def advance(scenario, state, reports):
    true_profile, awareness, perceived, history, pooled_levels, stopped = state
    if stopped:
        raise engine.InfeasibleReport("play already stopped")
    structure = scenario.structure
    agents = structure.agents
    if len(reports) != len(agents):
        raise engine.InfeasibleReport(f"{len(reports)} reports for {len(agents)} agents")
    joins, levels = structure.lattice.join_table, structure.level_table
    pooled = None
    for agent, report in zip(agents, reports):
        if report not in feasible_reports(scenario, state, agent):
            raise engine.InfeasibleReport(f"{agent}: {report}")
        level = levels[(agent, report)]
        pooled = level if pooled is None else joins[(pooled, level)]
    if not history or pooled != pooled_levels[-1]:
        joined = tuple(joins[(a, pooled)] for a in awareness)
        if joined != awareness:
            awareness, projections = joined, structure.projection_table
            perceived = tuple(projections[(agent, t, a)]
                              for agent, t, a in zip(agents, true_profile, joined))
    stopped = bool(history) and reports == history[-1]
    return PlayState(true_profile, awareness, perceived, history + (reports,),
                     pooled_levels + (pooled,), stopped)


def transcript(state):
    return engine.Transcript(state.history, state.pooled, state.stopped)


def _history_profiles(scenario, state, policies):
    """``report_profiles`` over a history-keeping state, for FREE and TRUTH."""
    if len(state.history) >= engine.max_stages(scenario):
        raise AssertionError("protocol failed to stop within the stage cap")
    return product(*(feasible_reports(scenario, state, agent)
                     if policies.get(agent, engine.TRUTH) == engine.FREE
                     else (state.perceived[i],)
                     for i, agent in enumerate(scenario.structure.agents)))


def iter_completions(scenario, state, policies, budget=None):
    """The terminal of every play from the history-keeping ``state``, depth
    first, report profiles in ``product`` order, each charged before it is
    yielded; FREE and TRUTH policies only."""
    if state.stopped:
        if budget is not None:
            budget.charge()
        yield state
        return
    stack = [(state, _history_profiles(scenario, state, policies))]
    while stack:
        parent, untried = stack[-1]
        for reports in untried:
            state = advance(scenario, parent, reports)
            if not state.stopped:
                stack.append((state, _history_profiles(scenario, state, policies)))
                break
            if budget is not None:
                budget.charge()
            yield state
        else:
            stack.pop()
