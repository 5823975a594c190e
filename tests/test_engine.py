from collections import Counter

import pytest

from elabmech import engine, transfers, verify
from elabmech.fixtures import fixture
from elabmech.generate import generate_scenario
from elabmech.scenario import parse_scenario
from elabmech.lattice import UnknownLevel
from elabmech.typespace import LevelNotBelow, NatureDraw, UnknownType

import reference

ONE_LEVEL = """
[lattice]
elements: l0
[agents]
agents: a1 a2
[types]
space: a1 l0 p q
space: a2 l0 r
[projections]
[outcomes]
outcomes: x
available: l0 x
[valuations]
value: a1 p x 1
value: a1 q x 2
value: a2 r x 3
[scheme]
kind: clarke
[nature]
draw: main types a1=p a2=r levels a1=l0 a2=l0
"""


def stage1(scenario, draw_name="main", level=None):
    return engine.state_from_draw(scenario, scenario.draw(draw_name),
                                  level or scenario.lattice.top)


def test_stage_two_feasible_set_is_preimage_at_pooled_level():
    s = fixture("example1")
    state = stage1(s)
    state = engine.advance(s, state, ("s1ab", "s2bc", "bue"))
    assert engine.feasible_reports(s, state, "s1") == ("s1t80", "s1t79")


def test_agent_already_at_pooled_level_cannot_change_her_report():
    s = fixture("example1")
    state = stage1(s)
    state = engine.advance(s, state, ("s1ab", "s2bc", "bue"))
    state = engine.advance(s, state, ("s1t80", "s2t86", "buabc"))
    for agent, frozen in zip(s.agents, ("s1t80", "s2t86", "buabc")):
        assert engine.feasible_reports(s, state, agent) == (frozen,)


def test_stage_one_feasible_set_spans_all_levels_below_awareness():
    one = parse_scenario(ONE_LEVEL)
    state = stage1(one)
    assert engine.feasible_reports(one, state, "a1") == ("p", "q")
    s = fixture("example2")
    state = stage1(s)
    assert set(engine.feasible_reports(s, state, "a1")) == {"a1lo1", "a1lo2",
                                                            "a1hi1", "a1hi2"}
    # agent 2 is unaware of hi and cannot report beyond her awareness
    assert set(engine.feasible_reports(s, state, "a2")) == {"a2lo"}


def test_truth_report_is_always_feasible_under_truthful_play():
    for k in range(10):
        s = generate_scenario(21, k)
        for level in s.lattice.elements:
            for profile in s.structure.profiles(level):
                for awareness in [(level,) * len(s.agents),
                                  (s.lattice.bottom,) + (level,) * (len(s.agents) - 1)]:
                    state = engine.initial_state(s, level, profile, awareness)
                    while not state.stopped:
                        reports = []
                        for agent in s.agents:
                            truth = state.perceived[s.agents.index(agent)]
                            assert truth in engine.feasible_reports(s, state, agent)
                            reports.append(truth)
                        state = engine.advance(s, state, tuple(reports))


def test_advance_pools_and_elaborates():
    s = fixture("example1")
    state = stage1(s)
    state = engine.advance(s, state, ("s1ab", "s2bc", "bue"))
    assert state.level == "abc"
    assert state.perceived == ("s1t80", "s2t86", "buabc")
    assert state.awareness == ("abc", "abc", "abc")


def test_advance_detects_stop_on_repetition():
    one = parse_scenario(ONE_LEVEL)
    state = stage1(one)
    state = engine.advance(one, state, ("p", "r"))
    assert not state.stopped
    state = engine.advance(one, state, ("p", "r"))
    assert state.stopped


def test_pooled_levels_weakly_increase_along_any_feasible_play():
    from itertools import islice
    for k in range(6):
        s = generate_scenario(23, k)
        top = s.lattice.top
        state = engine.initial_state(s, top, next(s.structure.profiles(top)),
                                     (top,) * len(s.agents))
        completions = engine.iter_completions(s, state, {a: engine.FREE for a in s.agents})
        for path in islice(completions, 4000):
            pooled = engine.transcript(path).pooled
            for earlier, later in zip(pooled, pooled[1:]):
                assert s.lattice.leq(earlier, later)


def test_infeasible_report_rejected():
    s = fixture("example2")
    state = stage1(s)
    with pytest.raises(engine.InfeasibleReport):
        engine.advance(s, state, ("a1hi2", "a2hi3"))  # a2 is only aware of lo


def test_a_true_type_below_a_reached_awareness_is_level_not_below():
    # initial_state takes any declared true types.  a1's lies at lo, and a2
    # reporting at hi raises a1's awareness above it: the re-projection
    # misses the projection table, which raises LevelNotBelow itself.
    s = fixture("example2")
    state = engine.initial_state(s, "hi", ("a1lo1", "a2hi2"), ("lo", "hi"))
    with pytest.raises(LevelNotBelow):
        engine.advance(s, state, ("a1lo1", "a2hi2"))


def test_report_profile_of_the_wrong_length_rejected():
    s = fixture("example2")
    state = stage1(s)
    for reports in (state.perceived[:1], state.perceived + ("a2lo",), ()):
        with pytest.raises(engine.InfeasibleReport):
            engine.advance(s, state, reports)


def reference_feasible_reports(scenario, state, agent):
    """The per-call menu rule that the table built at load replaced, kept as
    the oracle: elaboration chains at levels between the protocol floor and
    the agent's awareness, levels by down-set size, then name."""
    structure = scenario.structure
    lattice = structure.lattice
    i = structure.agent_position[agent]
    aware = state.awareness[i]
    last = state.last[i] if state.last is not None else None
    pooled = state.level
    levels = sorted(lattice.down_set(aware), key=lambda x: (len(lattice.down_set(x)), x))
    out = []
    if last is None:
        for level in levels:
            out.extend(structure.space(agent, level))
    else:
        base = lattice.join(structure.level_of(agent, last), pooled)
        for level in levels:
            if lattice.leq(base, level):
                out.extend(structure.preimage(agent, last, level))
    return tuple(out)


# (seed, index, procurement) of generated scenarios whose free play trees,
# from every partial draw, stay small enough to walk in full here.
MENU_CORPUS = ([(2026, k, False) for k in (1, 2, 5, 6, 7, 9, 17, 24, 30, 38)]
               + [(2026, k, True) for k in (5, 8, 10, 13, 15, 17, 20, 25, 37, 38)])


WALK_CASES = ["example2", "example4r"] + MENU_CORPUS


def walk_scenario(case):
    return fixture(case) if isinstance(case, str) else generate_scenario(*case)


def walk_corpus():
    """The fixtures and generated scenarios whose free play trees are walked
    in full: ``example2``, ``example4r`` and ``MENU_CORPUS``."""
    return [walk_scenario(case) for case in WALK_CASES]


def reached_states(s):
    """Every distinct state the all-FREE walk reaches from every partial draw
    at every level, each once."""
    free = {agent: engine.FREE for agent in s.agents}
    seen = set()
    for level in s.lattice.elements:
        for profile, awareness in verify._partial_draws(s, level):
            todo = [engine.initial_state(s, level, profile, awareness)]
            while todo:
                state = todo.pop()
                if state in seen:
                    continue
                seen.add(state)
                yield state
                if not state.stopped:
                    todo.extend(engine.advance(s, state, reports)
                                for reports in engine.report_profiles(s, state, free))


def test_menu_table_matches_the_per_call_rule_on_every_reached_state():
    scenarios = walk_corpus()
    shapes = {(s.scheme.kind, len(s.lattice.elements)) for s in scenarios[2:]}
    assert shapes == {(kind, n) for kind in ("clarke", "rspa") for n in (2, 3, 4)}
    for s in scenarios:
        reached = 0
        for state in reached_states(s):
            reached += 1
            for agent in s.agents:
                assert (engine.feasible_reports(s, state, agent)
                        == reference_feasible_reports(s, state, agent)), (s.name, state, agent)
        assert reached


def test_report_menus_match_the_reference_build():
    from test_scenario_io import DIAMOND

    scenarios = [fixture(name) for name in ("example1", "example2", "example4r")]
    scenarios += [generate_scenario(seed, k, procurement) for seed in (2026, 777, 31)
                  for k in range(60) for procurement in (False, True)]
    scenarios.append(parse_scenario(DIAMOND))
    for s in scenarios:
        menus, expected = engine.report_menus(s.structure), reference.report_menus(s.structure)
        assert list(menus) == list(expected), s.name
        assert list(menus.values()) == list(expected.values()), s.name


def settled(call, *args):
    """What ``call(*args)`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as err:
        return type(err), str(err)


def truthful_corpus():
    """The fixtures and ``generate_scenario(seed, k < 40)`` of both kinds for
    seeds 2026, 777 and 31: the corpus of the truthful-run differentials."""
    return ([fixture(name) for name in ("example1", "example2", "example4r")]
            + [generate_scenario(seed, k, procurement) for seed in (2026, 777, 31)
               for procurement in (False, True) for k in range(40)])


def test_policy_free_steps_and_initial_states_match_the_reference():
    for s in truthful_corpus():
        for level in s.lattice.elements:
            for profile, awareness in verify._partial_draws(s, level):
                state = settled(engine.initial_state, s, level, profile, awareness)
                assert state == settled(reference.initial_state, s, level, profile, awareness)
                if type(state) is not engine.PlayState:
                    continue
                for node in engine.truthful_path(s, state)[:-1]:
                    assert (list(engine.report_profiles(s, node, {}))
                            == list(reference.report_profiles(s, node, {})) == [node.perceived])
                capped = state._replace(stage=s.stage_cap + 1)
                with pytest.raises(AssertionError, match="stage cap"):
                    engine.report_profiles(s, capped, {})


def test_initial_state_raises_as_the_reference_on_bad_input():
    s = fixture("example2")
    top, bottom = s.lattice.top, s.lattice.bottom
    high, low = next(s.structure.profiles(top)), next(s.structure.profiles(bottom))
    cases = [(UnknownLevel, ("zz", high, (top, top))),
             (UnknownLevel, (top, high, (top, "zz"))),
             (UnknownType, (top, ("a1zz", high[1]), (top, top))),
             (LevelNotBelow, (top, low, (top, top)))]  # awareness above the types' level
    for error, args in cases:
        fast = settled(engine.initial_state, s, *args)
        assert fast == settled(reference.initial_state, s, *args)
        assert fast[0] is error, args


def reference_advance(scenario, state, reports):
    """The stage rule before the carry-over shortcut, kept as the oracle:
    every stage joins every awareness with the pooled level and re-projects
    every true type; a new pooled level takes the one agent reporting at it,
    if there is one, as its recipient."""
    if state.stopped:
        raise engine.InfeasibleReport("play already stopped")
    structure = scenario.structure
    lattice = structure.lattice
    if len(reports) != len(structure.agents):
        raise engine.InfeasibleReport(f"{len(reports)} reports for {len(structure.agents)} agents")
    for agent, report in zip(structure.agents, reports):
        if report not in engine.feasible_reports(scenario, state, agent):
            raise engine.InfeasibleReport(f"{agent}: {report}")
    pooled = lattice.join_all(structure.level_of(agent, r)
                              for agent, r in zip(structure.agents, reports))
    awareness = tuple(lattice.join(a, pooled) for a in state.awareness)
    perceived = tuple(structure.project(agent, t, a)
                      for agent, t, a in zip(structure.agents, state.true_profile, awareness))
    recipient = state.recipient
    if state.last is None or pooled != state.level:
        at_level = [agent for agent, r in zip(structure.agents, reports)
                    if structure.level_of(agent, r) == pooled]
        recipient = at_level[0] if len(at_level) == 1 else None
    stopped = state.last is not None and reports == state.last
    return engine.PlayState(state.true_profile, perceived, state.stage + 1, reports, pooled,
                            awareness, recipient, stopped)


def test_advance_matches_the_always_recomputing_rule_on_every_reached_state():
    carried = raised = 0
    for s in walk_corpus():
        structure = s.structure
        free = {agent: engine.FREE for agent in s.agents}
        for state in reached_states(s):
            for agent, t, aware, seen_type in zip(s.agents, state.true_profile,
                                                  state.awareness, state.perceived):
                assert seen_type == structure.project(agent, t, aware), (s.name, state)  # I1
                if state.last is not None:
                    assert s.lattice.leq(state.level, aware), (s.name, state)  # I2
            if state.stopped:
                continue
            for reports in engine.report_profiles(s, state, free):
                after = engine.advance(s, state, reports)
                # Tuple equality ignores the subclass, so the type is checked apart.
                assert type(after) is engine.PlayState, (s.name, state, reports)
                assert after == reference_advance(s, state, reports), (s.name, state, reports)
                if state.last is not None and after.level == state.level:
                    carried += 1
                elif after.awareness != state.awareness:
                    raised += 1
    # Both branches of the shortcut ran: a carried-over stage and a
    # recomputation that raised some awareness.
    assert carried and raised


def test_advance_checks_each_agent_once_on_every_reached_state(monkeypatch):
    free_reports = engine.feasible_reports
    calls = []

    def counted(scenario, state, agent):
        calls.append(agent)
        return free_reports(scenario, state, agent)

    monkeypatch.setattr(engine, "feasible_reports", counted)
    steps = 0
    for s in walk_corpus():
        free = {agent: engine.FREE for agent in s.agents}
        for state in reached_states(s):
            if state.stopped:
                continue
            for reports in list(engine.report_profiles(s, state, free)):
                calls.clear()
                engine.advance(s, state, reports)
                # One menu lookup per agent, in agent order.
                assert calls == list(s.agents), (s.name, state, reports)
                steps += 1
    assert steps


def test_a_bad_report_at_any_position_names_its_agent():
    s = fixture("example2")
    agents = s.agents
    types = {agent: [t for level in s.lattice.elements for t in s.structure.space(agent, level)]
             for agent in agents}
    # A later-stage state at which every agent has a declared type outside
    # its menu, and the first state of a play.
    later = next(state for state in reached_states(s) if state.last is not None
                 and not state.stopped
                 and all(set(types[a]) - set(engine.feasible_reports(s, state, a))
                         for a in agents))
    for state in (stage1(s), later):
        feasible = tuple(engine.feasible_reports(s, state, agent)[0] for agent in agents)
        for i, agent in enumerate(agents):
            menu = engine.feasible_reports(s, state, agent)
            declared = [t for t in types[agent] if t not in menu]
            for bad in ["zz"] + declared[:1]:
                # Every later position is undeclared too: the first bad
                # report is the one named.
                reports = feasible[:i] + (bad,) + ("zz",) * (len(agents) - i - 1)
                with pytest.raises(engine.InfeasibleReport) as raised:
                    engine.advance(s, state, reports)
                assert str(raised.value) == f"{agent}: {bad}"


def test_play_records_are_immutable_values():
    s = fixture("example2")
    start = stage1(s)
    state = engine.advance(s, start, start.perceived)
    record = engine.transcript([start, state])
    assert record == engine.Transcript((state.last,), (state.level,), state.stopped)
    for obj, field in ((state, "last"), (state, "stopped"), (record, "pooled"),
                       (record, "stopped")):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
    assert engine.PlayState(true_profile=state.true_profile, perceived=state.perceived,
                            stage=state.stage, last=state.last, level=state.level,
                            awareness=state.awareness, recipient=state.recipient,
                            stopped=state.stopped) == state
    assert engine.Transcript(stages=record.stages, pooled=record.pooled,
                             stopped=record.stopped) == record


def test_states_built_apart_with_equal_fields_are_equal_and_hash_alike():
    # The product-order walk of reference.iter_paths and the last-in
    # first-out worklist of reached_states visit the play tree in different
    # orders and build every state separately; each state must find its twin.
    s = fixture("example2")
    free = {agent: engine.FREE for agent in s.agents}
    by_value = {}
    for level in s.lattice.elements:
        for profile, awareness in verify._partial_draws(s, level):
            start = engine.initial_state(s, level, profile, awareness)
            for path in reference.iter_paths(s, start, free):
                for state in path:
                    by_value.setdefault(state, state)
    twins = 0
    for state in reached_states(s):
        twin = by_value[state]
        assert twin == state and hash(twin) == hash(state)
        twins += twin is not state
    assert len(by_value) == sum(1 for _ in reached_states(s)) and twins


def history_key(s, old):
    """``reference.state_key`` of the history-keeping ``old``, with the first
    stage written out as the engine's key writes it."""
    if old.history:
        return reference.state_key(s, old)
    return (1, None, None, reference.state_key(s, old), None, False)


def check_against_history(s, start, policies, mechs):
    """Walk the play tree from ``start`` and from its history-keeping twin in
    lockstep, and check every reached state: its report profiles, key and
    recipient are the ones the history gives, and each stopped play has the
    reference's payoff summary, whose settlement under each pair of
    ``mechs`` (one per side, each with its own memo) is checked once.  Then
    ``engine.iter_completions`` must yield the reference walk's plays in its
    order, each reading as the reference's transcript.  Returns the number
    of states checked."""
    structure = s.structure
    todo, checked, settled = [(start, reference.history_state(start))], 0, set()
    while todo:
        new, old = todo.pop()
        checked += 1
        assert engine.state_key(s, new) == history_key(s, old), (s.name, new, old)
        if old.history:
            assert new.recipient == reference.pooled_recipient(structure, old.history,
                                                               old.pooled), (s.name, old)
        if new.stopped:
            summary = (old.history[-1], old.pooled[-1],
                       reference.pooled_recipient(structure, old.history, old.pooled))
            assert (new.last, new.level, new.recipient) == summary, (s.name, old)
            if summary not in settled:
                settled.add(summary)
                for mech, old_mech in mechs:
                    static = mech.scheme.kind == transfers.STATIC_VICKREY
                    assert transfers.transfer_report(mech, new) == old_mech._settlement(
                        *summary[:2], None if static else summary[2]), (s.name, old)
            continue
        profiles = list(engine.report_profiles(s, new, policies))
        assert profiles == list(reference._history_profiles(s, old, policies)), (s.name, old)
        todo.extend((engine.advance(s, new, reports), reference.advance(s, old, reports))
                    for reports in profiles)
    plays = [engine.transcript(p) for p in engine.iter_completions(s, start, policies)]
    assert plays == [reference.transcript(t) for t in reference.iter_completions(
        s, reference.history_state(start), policies)], s.name
    return checked


def differential_starts(s, every_draw):
    """The start of every partial draw at every level, or only the all-aware
    start at the top."""
    top = s.lattice.top
    if not every_draw:
        return [engine.initial_state(s, top, next(s.structure.profiles(top)),
                                     (top,) * len(s.agents))]
    return [engine.initial_state(s, level, profile, awareness)
            for level in s.lattice.elements
            for profile, awareness in verify._partial_draws(s, level)]


@pytest.mark.parametrize("kind", ["walk-corpus", "example1", "clarke", "rspa"])
def test_every_reached_state_matches_the_history_keeping_state(kind):
    # The walk corpus from every partial draw; example1 and generate_scenario
    # (2026, k < 20) of both kinds from the all-aware top start, which reaches
    # every stopped transcript.
    if kind == "walk-corpus":
        scenarios, every_draw = walk_corpus(), True
    elif kind == "example1":
        scenarios, every_draw = [fixture("example1")], False
    else:
        scenarios = [generate_scenario(2026, k, kind == "rspa") for k in range(20)]
        every_draw = False
    checked = 0
    for s in scenarios:
        free = {agent: engine.FREE for agent in s.agents}
        mechs = [(transfers.Mechanism(s, scheme), transfers.Mechanism(s, scheme))
                 for scheme in (s.scheme, s.scheme._replace(kind=transfers.STATIC_VICKREY))]
        for start in differential_starts(s, every_draw):
            checked += check_against_history(s, start, free, mechs)
    assert checked


def payoff_summary(scenario, path):
    """(final profile, final pooled level, premium recipient) of the play
    ``path`` lists from its initial state, the recipient found by scanning
    its stages, as the history-keeping reference state does."""
    t = engine.transcript(path)
    return (t.stages[-1], t.pooled[-1],
            reference.pooled_recipient(scenario.structure, t.stages, t.pooled))


def free_subtree(s, path, free, found):
    """(plays, Counter of payoff summaries) of the all-FREE subtree below the
    last state of ``path``, memoized on the whole path, which is exact."""
    key = tuple(path)
    got = found.get(key)
    if got is None:
        state = path[-1]
        if state.stopped:
            got = (1, Counter([payoff_summary(s, path)]))
        else:
            plays, summaries = 0, Counter()
            for reports in engine.report_profiles(s, state, free):
                n, below = free_subtree(s, path + [engine.advance(s, state, reports)], free,
                                        found)
                plays += n
                summaries.update(below)
            got = (plays, summaries)
        found[key] = got
    return got


def reached_paths(s):
    """Every distinct path, from its initial state, that the all-FREE walk
    takes from every partial draw at every level, each once."""
    free = {agent: engine.FREE for agent in s.agents}
    seen = set()
    for level in s.lattice.elements:
        for profile, awareness in verify._partial_draws(s, level):
            todo = [[engine.initial_state(s, level, profile, awareness)]]
            while todo:
                path = todo.pop()
                if tuple(path) in seen:
                    continue
                seen.add(tuple(path))
                yield path
                state = path[-1]
                if not state.stopped:
                    todo.extend(path + [engine.advance(s, state, reports)]
                                for reports in engine.report_profiles(s, state, free))


def free_key_groups(s):
    """(merged, split) over every path the all-FREE walk takes: paths whose
    last state's key an earlier path with a different history has, and keys
    whose paths have different subtrees."""
    free = {agent: engine.FREE for agent in s.agents}
    found, by_key, merged = {}, {}, 0
    for path in reached_paths(s):
        stages = engine.transcript(path).stages
        first, results = by_key.setdefault(engine.state_key(s, path[-1]), (stages, []))
        merged += first != stages
        results.append(free_subtree(s, path, free, found))
    return merged, sum(any(got != results[0] for got in results)
                       for _, results in by_key.values())


def test_state_key_fixes_the_free_subtree_on_every_reached_state():
    merged = 0
    for s in walk_corpus():
        more, split = free_key_groups(s)
        assert not split, s.name
        merged += more
    # The key does merge states whose histories differ.
    assert merged


def test_mutant_state_dropping_the_recipient_is_killed_by_key_sufficiency(plant_recipient):
    plant_recipient(lambda scenario, state, child: None)
    assert free_key_groups(fixture("example2"))[1] == 16


def test_run_example1_transcript():
    s = fixture("example1")
    t = engine.transcript(engine.run(s, s.draw(), s.lattice.top))
    assert t.stages == (("s1ab", "s2bc", "bue"),
                        ("s1t80", "s2t86", "buabc"),
                        ("s1t80", "s2t86", "buabc"))
    assert t.stopped and t.n_stages == 3
    assert t.pooled == ("abc", "abc", "abc")


def test_run_fully_aware_agents_stop_at_stage_two():
    s = fixture("example1")
    draw = NatureDraw(("s1t80", "s2t86", "buabc"), ("abc", "abc", "abc"))
    t = engine.transcript(engine.run(s, draw, "abc"))
    assert t.n_stages == 2
    assert t.stages[0] == t.stages[1]


def test_truthful_final_profile_is_projection_of_truth_to_pooled_awareness():
    for k in range(10):
        s = generate_scenario(29, k)
        top = s.lattice.top
        for true_profile in s.structure.profiles(top):
            for awareness in [(s.lattice.bottom, top), (top, s.lattice.bottom)]:
                if len(s.agents) != 2:
                    continue
                draw = NatureDraw(true_profile, awareness)
                t = engine.transcript(engine.run(s, draw, top))
                pooled = s.lattice.join_all(awareness)
                expected = tuple(s.structure.project(a, ty, pooled)
                                 for a, ty in zip(s.agents, true_profile))
                assert t.stages[-1] == expected


def test_run_single_stage_reports_perceptions_and_stops():
    s = fixture("example2")
    t = engine.transcript(engine.run_single_stage(s, s.draw(), "hi"))
    assert t.stages == (("a1hi2", "a2lo"),)
    assert t.stopped


def test_scripted_strategy_via_run():
    s = fixture("example2")
    t = engine.transcript(engine.run(s, s.draw(), "hi",
                                     {"a1": lambda scenario, state, agent: "a1lo2"}))
    # concealment keeps the play at the low level and it stops immediately
    assert t.pooled[-1] == "lo"
    assert t.n_stages == 2
    assert t.stages == (("a1lo2", "a2lo"), ("a1lo2", "a2lo"))


def enumerate_deviation_plays(scenario, state, agent, opponents=None, bound=10 ** 6):
    """Transcripts of the plays obtainable by any strategy of ``agent`` from
    ``state`` onward.  Opponents default to truth-telling; pass policies
    (plans, callables, or FREE) to range over their behavior as well."""
    policies = dict(opponents or {})
    policies[agent] = engine.FREE
    budget = engine.PlayBudget(bound)
    for path in engine.iter_completions(scenario, state, policies, budget):
        yield engine.transcript(path)


def test_enumerate_deviation_plays_includes_concealment():
    s = fixture("example2")
    state = stage1(s)
    plays = list(enumerate_deviation_plays(s, state, "a1"))
    finals = {t.stages[0][0] for t in plays}
    assert {"a1hi2", "a1lo2", "a1lo1", "a1hi1"} <= finals
    assert len(plays) >= 2


def test_enumerate_deviation_plays_single_continuation_when_spaces_are_singletons():
    one = parse_scenario(ONE_LEVEL.replace("space: a1 l0 p q", "space: a1 l0 p")
                         .replace("value: a1 q x 2\n", ""))
    state = stage1(one)
    plays = list(enumerate_deviation_plays(one, state, "a1"))
    assert len(plays) == 1


def test_deviation_play_count_matches_recursive_oracle():
    # oracle: count feasible report sequences for the deviator directly,
    # with every other agent frozen to truth
    s = fixture("example2")
    state = stage1(s)

    def count(state):
        if state.stopped:
            return 1
        total = 0
        for report in engine.feasible_reports(s, state, "a1"):
            others = state.perceived[1:]
            total += count(engine.advance(s, state, (report,) + others))
        return total

    plays = list(enumerate_deviation_plays(s, state, "a1"))
    assert len(plays) == count(state)


def test_strategy_space_bound_trips():
    s = fixture("example1")
    state = stage1(s)
    with pytest.raises(engine.StrategySpaceTooLarge):
        list(enumerate_deviation_plays(
            s, state, "s1", {a: engine.FREE for a in s.agents if a != "s1"}, bound=3))


def test_plan_policy_replays_verbatim_on_its_own_branch():
    s = fixture("example2")
    t = engine.transcript(engine.run(s, s.draw(), "hi"))
    plan = engine.plan_policy("a2", tuple(stage[1] for stage in t.stages), s)
    path = [stage1(s)]
    while not path[-1].stopped:
        state = path[-1]
        reports = (state.perceived[0], plan(s, state, "a2"))
        path.append(engine.advance(s, state, reports))
    assert engine.transcript(path).stages == t.stages


def test_plan_policy_caps_to_awareness_when_the_pool_stays_low():
    s = fixture("example2")
    t = engine.transcript(engine.run(s, s.draw(), "hi"))  # a2's plan elaborates to a2hi3 at stage 2
    plan = engine.plan_policy("a2", tuple(stage[1] for stage in t.stages), s)
    state = stage1(s)
    state = engine.advance(s, state, ("a1lo2", "a2lo"))  # a1 conceals
    # with nothing pooled beyond lo, the plan says only its lo projection
    assert plan(s, state, "a2") == "a2lo"


def walk_until_raise(walk, scenario, state, policies, bound=10 ** 6):
    """(plays yielded, plays charged, exception type or None) of one walk."""
    budget = engine.PlayBudget(bound)
    plays = []
    try:
        plays.extend(walk(scenario, state, policies, budget))
    except (engine.StrategySpaceTooLarge, AssertionError) as err:
        return plays, budget.used, type(err)
    return plays, budget.used, None


def walk_cases(s):
    """(start state, policies) pairs from every partial draw at every level:
    every agent FREE, every agent truthful, and the first agent FREE against
    the others' plans read off the truthful play."""
    free = {a: engine.FREE for a in s.agents}
    for level in s.lattice.elements:
        for profile, awareness in verify._partial_draws(s, level):
            start = engine.initial_state(s, level, profile, awareness)
            truth = engine.transcript(engine.truthful_path(s, start)).stages
            plans = {a: engine.plan_policy(a, tuple(stage[k] for stage in truth), s)
                     for k, a in enumerate(s.agents) if k}
            for policies in (free, {}, {**plans, s.agents[0]: engine.FREE}):
                yield start, policies


def terminals(walked):
    """``walk_until_raise`` of a path walk, each play read as its terminal."""
    paths, used, raised = walked
    return [path[-1] for path in paths], used, raised


def as_tuples(walked):
    """``walk_until_raise`` of a path walk, each play's path as a tuple."""
    paths, used, raised = walked
    return [tuple(path) for path in paths], used, raised


@pytest.mark.parametrize("case", WALK_CASES, ids=str)
def test_recursive_walk_matches_the_explicit_stack_walk(case, monkeypatch):
    s = walk_scenario(case)
    cases = list(walk_cases(s))
    for start, policies in cases:
        paths = walk_until_raise(reference.iter_paths, s, start, policies)
        walked = walk_until_raise(engine.iter_completions, s, start, policies)
        plays, used, raised = walked
        assert raised is None and used == len(plays)
        assert all(type(play) is list and type(play[-1]) is engine.PlayState
                   and type(engine.transcript(play)) is engine.Transcript for play in plays)
        assert terminals(walked) == terminals(paths), (s.name, start)
        assert as_tuples(walked) == paths, (s.name, start)
        assert engine.truthful_path(s, start, policies) == list(paths[0][0])
        if len(plays) > 1:
            short = walk_until_raise(engine.iter_completions, s, start, policies,
                                     len(plays) - 1)
            assert short == (plays[:-1], len(plays), engine.StrategySpaceTooLarge)
            assert as_tuples(short) == walk_until_raise(reference.iter_paths, s, start,
                                                        policies, len(plays) - 1)
    full_cap = engine.max_stages
    # One stage short of the cap trips only plays after the first; a cap
    # of two stages trips some first plays as well.
    for cap in (lambda scenario: full_cap(scenario) - 1, lambda scenario: 2):
        monkeypatch.setattr(engine, "max_stages", cap)
        capped = first_capped = 0
        for start, policies in cases:
            paths = walk_until_raise(reference.iter_paths, s, start, policies)
            walked = walk_until_raise(engine.iter_completions, s, start, policies)
            assert terminals(walked) == terminals(paths)
            assert as_tuples(walked) == paths
            capped += walked[2] is AssertionError
            # truthful_path follows the first play, so it trips the cap
            # exactly when the walk trips it before yielding any play.
            if paths[0]:
                assert engine.truthful_path(s, start, policies) == list(paths[0][0])
            else:
                assert paths[2] is AssertionError
                first_capped += 1
                with pytest.raises(AssertionError, match="stage cap"):
                    engine.truthful_path(s, start, policies)
        if s.name == "example2":
            assert capped
    assert first_capped


def uncapped_plan_policy(agent, reports_by_stage, scenario):
    """``engine.plan_policy`` with the awareness cap dropped: the replay
    says as much of its final report as its schedule asks, aware or not."""
    structure, lattice = scenario.structure, scenario.lattice
    idx = structure.agent_position[agent]
    schedule = tuple(structure.level_of(agent, r) for r in reports_by_stage)

    def policy(scenario_, state, owner):
        level = schedule[min(state.stage, len(schedule)) - 1]
        if state.last is not None:
            level = lattice.join(level, lattice.join(
                structure.level_of(agent, state.last[idx]), state.level))
        return structure.project(agent, reports_by_stage[-1], level)

    return policy


def test_mutant_plan_replay_without_awareness_cap_is_killed_by_an_infeasible_report(
        monkeypatch):
    s = generate_scenario(901, 0)
    assert verify.check_conditional_dominance(s, s.scheme).holds
    monkeypatch.setattr(engine, "plan_policy", uncapped_plan_policy)
    with pytest.raises(engine.InfeasibleReport):
        verify.check_conditional_dominance(s, s.scheme)


def test_mutant_stage_cap_one_short_is_killed_by_the_cap_assertion(monkeypatch):
    s = fixture("example2")
    assert verify.check_conditional_dominance(s, s.scheme).holds
    full_cap = engine.max_stages
    monkeypatch.setattr(engine, "max_stages", lambda scenario: full_cap(scenario) - 1)
    with pytest.raises(AssertionError, match="stage cap"):
        verify.check_conditional_dominance(s, s.scheme)
