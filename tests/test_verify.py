from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from elabmech import engine, transfers, verify
from elabmech.cli import main
from elabmech.fixtures import fixture
from elabmech.generate import generate_scenario
from elabmech.scenario import parse_scenario
from elabmech.transfers import Mechanism, SchemeConfig, bidders

import reference
from test_engine import payoff_summary, settled
from test_generate import generate_on


def test_efficiency_holds_on_fixtures():
    for name in ("example1", "example2", "example4r"):
        result = verify.check_efficiency(fixture(name))
        assert result.holds and result.checked > 0


def test_efficiency_catches_an_injected_suboptimal_choice():
    s = fixture("example2")

    class Broken:
        def __getattr__(self, attr):
            return getattr(s.outcomes, attr)

        def efficient_outcome(self, profile):
            return "win1"  # ignore welfare entirely

    sabotaged = s._replace(outcomes=Broken())
    result = verify.check_efficiency(sabotaged)
    assert not result.holds
    assert any("welfare gap" in w.description for w in result.witnesses)


def test_pooled_implementation_example2_clarke_serves_the_truly_aware_value():
    s = fixture("example2")
    result = verify.check_pooled_implementation(s, s.scheme)
    assert result.holds
    # and the main draw allocates to bidder 2 at the pooled level
    t = engine.run(s, s.draw(), "hi")[-1]
    assert s.outcomes.efficient_outcome(t.last) == "win2"


def test_pooled_implementation_static_fails_on_example2():
    s = fixture("example2")
    static = s.scheme._replace(kind="static_vickrey")
    result = verify.check_pooled_implementation(s, static)
    assert not result.holds
    witness = result.witnesses[0]
    assert witness.replay["implemented"] == "win1"
    assert witness.replay["target"] == "win2"


@pytest.mark.parametrize("k, checked", enumerate([162, 256, 1728, 162, 108, 32]))
def test_pooled_implementation_holds_under_rspa_with_its_counts(k, checked):
    s = generate_scenario(2026, k, procurement=True)
    assert s.scheme.kind == "rspa"
    result = verify.check_pooled_implementation(s, s.scheme)
    assert result.holds and result.checked == checked


def test_pooled_implementation_with_common_full_awareness_reduces_to_efficiency():
    s = fixture("example2")
    result = verify.check_pooled_implementation(s, s.scheme)
    assert result.holds
    assert verify.check_efficiency(s).holds


def test_dominance_example2_and_premium_knife_edge():
    s = fixture("example2")
    assert verify.check_conditional_dominance(s, s.scheme).holds
    # revealing or concealing leaves the discloser at utility exactly 1
    mech = Mechanism(s, s.scheme)
    truth = engine.run(s, s.draw(), "hi")[-1]
    assert mech.utility(truth, "a1", "a1hi2") == 1
    conceal = engine.run(s, s.draw(), "hi", {"a1": lambda scenario, state, agent: "a1lo2"})
    assert mech.utility(conceal[-1], "a1", "a1hi2") == 1


def test_dominance_fails_without_the_premium_term(ablate_premium):
    s = fixture("example2")
    ablate_premium()
    result = verify.check_conditional_dominance(s, s.scheme)
    assert not result.holds
    witness = result.witnesses[0]
    assert witness.replay["agent"] == "a1"
    gain = (Fraction(witness.replay["deviation_utility"])
            - Fraction(witness.replay["truth_utility"]))
    assert gain == 1


def test_dominance_witness_replays_to_the_same_gap(ablate_premium):
    s = fixture("example2")
    ablate_premium()
    witness = verify.check_conditional_dominance(s, s.scheme).witnesses[0].replay
    mech = Mechanism(s, s.scheme)
    level = witness["level"]
    state = engine.initial_state(s, level, tuple(witness["profile"]),
                                 tuple(witness["awareness"]))
    eval_type = witness["perceived"]

    def replay(stages):
        path = [state]
        for reports in stages:
            path.append(engine.advance(s, path[-1], tuple(reports)))
        assert [list(p) for p in engine.transcript(path).stages] == stages
        return path[-1]

    u_truth = mech.utility(replay(witness["truth_stages"]), "a1", eval_type)
    u_dev = mech.utility(replay(witness["deviation_stages"]), "a1", eval_type)
    assert u_truth == Fraction(witness["truth_utility"])
    assert u_dev == Fraction(witness["deviation_utility"])
    assert u_dev > u_truth


def _direct_plan_space_dominance_oracle(scenario, scheme):
    """Independent dominance oracle for two-agent scenarios.

    Quantifies over the full space of opponent plan objects (final report
    plus a weakly increasing level schedule), a superset of the plans the
    checker realizes on truthful branches, and compares the truthful play
    against every deviating continuation at every truthfully reached
    information set.
    """
    lattice = scenario.lattice
    structure = scenario.structure
    mech = Mechanism(scenario, scheme)
    agents = structure.agents
    assert len(agents) == 2
    horizon = engine.max_stages(scenario)

    def schedules(start_levels, final_level):
        for first in start_levels:
            chains = [[first]]
            for _ in range(horizon - 1):
                chains = [c + [nxt] for c in chains
                          for nxt in lattice.elements if lattice.leq(c[-1], nxt)]
            for chain in chains:
                if any(lattice.leq(final_level, lv) for lv in chain):
                    yield tuple(chain)

    violations = []
    for agent in agents:
        other = next(a for a in agents if a != agent)
        j = structure.agent_position[other]
        i = structure.agent_position[agent]
        for level in lattice.elements:
            for own_level in lattice.down_set(level):
                for opp_level in lattice.down_set(level):
                    if lattice.join(own_level, opp_level) != level:
                        continue
                    for own_true in structure.space(agent, level):
                        for t_hat in structure.space(other, level):
                            for schedule in schedules(lattice.down_set(opp_level),
                                                      structure.level_of(other, t_hat)):
                                plan_reports = tuple(
                                    structure.project(other, t_hat,
                                                      lattice.meet(lv, structure.level_of(
                                                          other, t_hat)))
                                    for lv in schedule)
                                policy = engine.plan_policy(other, plan_reports, scenario)
                                profile = tuple(own_true if a == agent else t_hat
                                                for a in agents)
                                awareness = tuple(own_level if a == agent else opp_level
                                                  for a in agents)
                                state = engine.initial_state(scenario, level,
                                                             profile, awareness)
                                path = []
                                while not state.stopped:
                                    path.append(state)
                                    reports = [None, None]
                                    reports[i] = state.perceived[i]
                                    reports[j] = policy(scenario, state, other)
                                    state = engine.advance(scenario, state, tuple(reports))
                                truth = state
                                for node in path:
                                    if structure.level_of(agent,
                                                          node.perceived[i]) != level:
                                        continue
                                    eval_type = node.perceived[i]
                                    u_truth = mech.utility(truth, agent, eval_type)
                                    for dev in reference.iter_paths(
                                            scenario, node,
                                            {agent: engine.FREE, other: policy}):
                                        u_dev = mech.utility(dev[-1], agent, eval_type)
                                        if u_dev > u_truth:
                                            violations.append((agent, u_truth, u_dev))
    return violations


def test_dominance_checker_agrees_with_direct_plan_space_oracle(ablate_premium):
    s = fixture("example2")
    assert not _direct_plan_space_dominance_oracle(s, s.scheme)
    assert verify.check_conditional_dominance(s, s.scheme).holds
    ablate_premium()
    assert _direct_plan_space_dominance_oracle(s, s.scheme)
    assert not verify.check_conditional_dominance(s, s.scheme).holds


# Two-agent generate_scenario(2026, k) on each lattice shape: the first nine
# chain2 ones, and the chain3 and diamond ones whose oracle runs fastest (a
# diamond's oracle takes up to about 4.5 s).  Ablated, the premium-free
# mechanism is violated on all but k = 28 and 66, so both verdicts are met.
ORACLE_CORPUS = {
    "chain2": (2, 6, 9, 15, 22, 28, 41, 45, 48),
    "chain3": (17, 24, 34, 44, 51, 55, 66, 81),
    "diamond": (5, 21, 53, 62),
}


@pytest.mark.parametrize("shape, k", [(shape, k) for shape, ks in ORACLE_CORPUS.items()
                                      for k in ks])
def test_dominance_checker_agrees_with_the_oracle_on_generated_scenarios(shape, k,
                                                                         ablate_premium):
    s = generate_scenario(2026, k)
    assert len(s.agents) == 2
    assert len(s.lattice.elements) == {"chain2": 2, "chain3": 3, "diamond": 4}[shape]
    for ablated in (False, True):
        if ablated:
            ablate_premium()
        oracle = _direct_plan_space_dominance_oracle(s, s.scheme)
        assert (not oracle) == verify.check_conditional_dominance(s, s.scheme).holds, ablated


def test_dominance_checker_agrees_with_the_oracle_on_m3(monkeypatch, ablate_premium):
    # A two-agent scenario on M3, a lattice the generator never draws, with
    # two top types for one agent; the oracle takes about 1.5 s per verdict.
    # N5 and the 4-chain stay out: their oracle runs take up to 43 s.
    s = generate_on(monkeypatch, "M3", 2026, 7)
    assert len(s.agents) == 2
    for ablated in (False, True):
        if ablated:
            ablate_premium()
        oracle = _direct_plan_space_dominance_oracle(s, s.scheme)
        assert bool(oracle) == ablated
        assert (not oracle) == verify.check_conditional_dominance(s, s.scheme).holds, ablated


def test_dominance_vacuous_for_single_agent_single_outcome():
    solo = parse_scenario("""
[lattice]
elements: l0
[agents]
agents: only
[types]
space: only l0 t
[projections]
[outcomes]
outcomes: x
available: l0 x
[valuations]
value: only t x 5
[scheme]
kind: clarke
""")
    result = verify.check_conditional_dominance(solo, solo.scheme)
    assert result.holds


# Each dynamic-only row of verify.PROPERTIES and the message it is refused
# with under static_vickrey, as recorded before the rule moved into verify.
STATIC_REJECTIONS = [
    ("stage-bound", "the stage bound applies to the dynamic protocol, not to static_vickrey"),
    ("participation-ex-post",
     "participation applies to the dynamic protocol, not to static_vickrey"),
    ("participation-ex-ante",
     "participation applies to the dynamic protocol, not to static_vickrey"),
    ("dominance", "dominance applies to the dynamic protocol, not to static_vickrey"),
]


@pytest.mark.parametrize("prop, message", STATIC_REJECTIONS,
                         ids=[prop for prop, _ in STATIC_REJECTIONS])
def test_dynamic_only_properties_are_inapplicable_under_the_static_scheme(capsys, prop, message):
    # The stage bound counts stages of the dynamic protocol, and participation
    # and dominance are checked at its information sets: the one-round
    # static protocol never plays either.
    assert [p for p, (_, dynamic, _) in verify.PROPERTIES.items() if dynamic] == \
        [p for p, _ in STATIC_REJECTIONS]
    for name in ("example1", "example2"):
        s = fixture(name)
        static = s._replace(scheme=s.scheme._replace(kind="static_vickrey"))
        with pytest.raises(ValueError) as raised:
            verify.check(prop, static)
        assert type(raised.value) is verify.InapplicableProperty
        assert str(raised.value) == message
        assert main(["verify", name, "--scheme", "static_vickrey", "--property", prop]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("mode", ["ex_post", "ex_ante_anticipated"])
def test_participation_rejects_static_scheme(mode):
    # check_participation walks the dynamic protocol's information sets,
    # which the one-round static protocol never reaches.
    prop = {"ex_post": "participation-ex-post", "ex_ante_anticipated": "participation-ex-ante"}
    s = fixture("example1")
    static = s._replace(scheme=s.scheme._replace(kind="static_vickrey"))
    with pytest.raises(verify.InapplicableProperty, match="participation applies to the "
                       "dynamic protocol, not to static_vickrey"):
        verify.check(prop[mode], static)


def test_stage_bound_on_fixtures():
    for name in ("example1", "example2", "example4r"):
        s = fixture(name)
        result = verify.check_stage_bound(s)
        assert result.holds


def test_stage_bound_common_awareness_stops_at_two():
    s = fixture("example2")
    from elabmech.typespace import NatureDraw
    t = engine.transcript(engine.run(s, NatureDraw(("a1hi1", "a2hi2"), ("hi", "hi")), "hi"))
    assert t.n_stages == 2


def test_no_deficit_example1_with_surplus_80():
    s = fixture("example1")
    result = verify.check_budget(s, s.scheme, "no_deficit")
    assert result.holds
    t = engine.run(s, s.draw(), "abc")[-1]
    assert Mechanism(s, s.scheme).report(t).operator_balance == 80


def test_no_deficit_clarke_over_generated_scenarios():
    for k in range(10):
        s = generate_scenario(41, k)
        assert verify.check_budget(s, s.scheme, "no_deficit").holds


def _adversarial_groves(s):
    """Groves on ``s`` with y = 7 for a1 and 0 for everyone else."""
    y = {}
    for agent in s.agents:
        others = [a for a in s.agents if a != agent]
        for level in s.lattice.elements:
            for opp in product(*(s.structure.space(o, level) for o in others)):
                y[(agent, level, opp)] = Fraction(7 if agent == "a1" else 0)
    return SchemeConfig(kind="groves", y_tables=y)


def test_budget_balance_violations_are_pinpointed():
    s = fixture("example2")
    result = verify.check_budget(s, _adversarial_groves(s), "balance")
    assert not result.holds
    witness = result.witnesses[0]
    assert "sum" in witness.replay and Fraction(witness.replay["sum"]) != 0


def test_holmstrom_roundtrip_on_separable_welfare():
    sep = parse_scenario("""
[lattice]
elements: lo hi
edge: lo hi
[agents]
agents: a1 a2
[types]
space: a1 lo u1 u2
space: a1 hi v1 v2
space: a2 lo w1
space: a2 hi z1 z2
[projections]
map: a1 hi lo v1 u1
map: a1 hi lo v2 u2
map: a2 hi lo z1 w1
map: a2 hi lo z2 w1
[outcomes]
outcomes: only
available: lo only
available: hi only
[valuations]
value: a1 u1 only 1
value: a1 u2 only 2
value: a1 v1 only 3
value: a1 v2 only 4
value: a2 w1 only 5
value: a2 z1 only 6
value: a2 z2 only 7
[scheme]
kind: clarke
""", name="separable")
    g = verify.find_g(sep)
    assert g is not None
    assert verify.check_holmstrom(sep, g).holds
    y = verify.derive_y_from_g(sep, g)
    groves = SchemeConfig(kind="groves", y_tables=y)
    assert verify.check_budget(sep, groves, "balance").holds
    assert verify.check_decomposition(sep).holds


def test_holmstrom_single_agent_degenerate_decomposition():
    solo = parse_scenario("""
[lattice]
elements: l0
[agents]
agents: only
[types]
space: only l0 t u
[projections]
[outcomes]
outcomes: x
available: l0 x
[valuations]
value: only t x 5
value: only u x 5
[scheme]
kind: clarke
""")
    # welfare is type-independent, so a constant works
    assert verify.find_g(solo) is not None
    varying = parse_scenario("""
[lattice]
elements: l0
[agents]
agents: only
[types]
space: only l0 t u
[projections]
[outcomes]
outcomes: x
available: l0 x
[valuations]
value: only t x 5
value: only u x 6
[scheme]
kind: clarke
""")
    assert verify.find_g(varying) is None


def test_holmstrom_generic_auction_is_infeasible_with_certificate():
    generic = parse_scenario("""
[lattice]
elements: l0
[agents]
agents: a1 a2
[types]
space: a1 l0 p q
space: a2 l0 r s
[projections]
[outcomes]
outcomes: w1 w2
available: l0 w1 w2
[valuations]
value: a1 p w1 1
value: a1 q w1 3
value: a1 p w2 0
value: a1 q w2 0
value: a2 r w2 2
value: a2 s w2 5/2
value: a2 r w1 0
value: a2 s w1 0
[scheme]
kind: clarke
""", name="generic")
    assert verify.find_g(generic) is None
    certificate = verify.check_decomposition(generic).witnesses[0].description
    assert "inconsistent" in certificate


def test_participation_ex_post_fails_on_example1_for_the_winning_seller():
    s = fixture("example1")
    result = verify.check_participation(s, s.scheme, "ex_post")
    assert not result.holds
    assert any(w.replay["agent"] == "s1" and Fraction(w.replay["utility"]) < 0
               for w in result.witnesses)


def test_participation_ex_ante_holds_on_nonnegative_generated_scenarios():
    for k in range(10):
        s = generate_scenario(43, k)
        assert verify.check_nonnegative_valuations(s).holds
        assert verify.check_participation(s, s.scheme, "ex_ante_anticipated").holds


def test_participation_example4r_ex_ante_holds_ex_post_fails_strictly():
    s = fixture("example4r")
    assert verify.check_participation(s, s.scheme, "ex_ante_anticipated").holds
    result = verify.check_participation(s, s.scheme, "ex_post")
    assert not result.holds
    interim = [w for w in result.witnesses if w.replay["stage"] > 1]
    assert interim and any(Fraction(w.replay["utility"]) == -1 for w in interim)


def test_participation_witness_replays_to_the_same_utility():
    s = fixture("example4r")
    witness = next(w for w in verify.check_participation(s, s.scheme, "ex_post").witnesses
                   if w.replay["stage"] > 1).replay
    state = engine.initial_state(s, witness["level"], tuple(witness["profile"]),
                                 tuple(witness["awareness"]))
    nodes = [state]
    while not state.stopped:
        reports = state.perceived
        state = engine.advance(s, state, reports)
        if not state.stopped:
            nodes.append(state)
    node = nodes[witness["stage"] - 1]
    i = s.structure.agent_position[witness["agent"]]
    assert node.perceived[i] == witness["perceived"]
    u = Mechanism(s, s.scheme).utility(state, witness["agent"], witness["perceived"])
    assert u == Fraction(witness["utility"]) < 0


def test_participation_rspa_sellers_never_regret():
    for k in range(8):
        s = generate_scenario(47, k, procurement=True)
        assert verify.check_participation(s, s.scheme, "ex_post").holds


def test_nonnegative_valuations():
    assert verify.check_nonnegative_valuations(fixture("example2")).holds
    result = verify.check_nonnegative_valuations(fixture("example1"))
    assert not result.holds
    assert any(Fraction(w.replay["value"]) < 0 and w.replay["outcome"] == "produce1"
               for w in result.witnesses)


def test_all_zero_valuations_pass_nonnegativity():
    zero = parse_scenario("""
[lattice]
elements: l0
[agents]
agents: a1 a2
[types]
space: a1 l0 p
space: a2 l0 r
[projections]
[outcomes]
outcomes: x
available: l0 x
[valuations]
value: a1 p x 0
value: a2 r x 0
[scheme]
kind: clarke
""")
    assert verify.check_nonnegative_valuations(zero).holds


def test_exact_solver_on_small_systems():
    one = Fraction(1)
    solution = reference.solve_exact([[one, one], [one, -one]], [Fraction(3), Fraction(1)])
    assert solution == [Fraction(2), Fraction(1)]
    assert reference.solve_exact([[one], [one]], [Fraction(1), Fraction(2)]) is None
    underdetermined = reference.solve_exact([[one, one]], [Fraction(5)])
    assert underdetermined is not None and sum(underdetermined) == 5


def _decomposition_corpus():
    from test_acceptance import GENERIC, SEPARABLE
    from test_transfers import PROCUREMENT
    yield from (fixture(name) for name in ("example1", "example2", "example4r"))
    yield from (parse_scenario(text) for text in (GENERIC, SEPARABLE, PROCUREMENT))
    for seed in (2026, 777, 501):
        for k in range(30):
            for procurement in (False, True):
                yield generate_scenario(seed, k, procurement)


def test_closed_form_decomposition_matches_the_linear_solve():
    # oracle: Gaussian elimination over the rationals, level by level
    verdicts = []
    for s in _decomposition_corpus():
        solved, certificate = reference.decompose(s)
        result = verify.check_decomposition(s)
        g = verify.find_g(s)
        assert result.holds == (solved is not None) == (g is not None), s.name
        if g is None:
            assert result.checked == 1
            assert [w.description for w in result.witnesses] == [certificate]
            assert f"at level {result.witnesses[0].replay['level']}:" in certificate
        else:
            assert verify.check_holmstrom(s, g).holds
            assert result.checked == sum(1 for level in s.lattice.elements
                                         for _ in s.structure.profiles(level))
        verdicts.append(result.holds)
    assert True in verdicts and False in verdicts


def test_holmstrom_failure_replays_the_top_order_difference():
    s = generate_scenario(2026, 11)
    [witness] = verify.check_decomposition(s).witnesses
    replay = witness.replay
    assert (replay["welfare"], replay["decomposed"]) == ("15", "13")
    model, structure = s.outcomes, s.structure
    profile = tuple(replay["profile"])
    base = next(structure.profiles(replay["level"]))
    # The alternating sum of welfare over every mix of the profile with the
    # level's first profile: zero wherever welfare decomposes.
    difference = Fraction(0)
    for keep in product((False, True), repeat=len(profile)):
        mixed = tuple(t if kept else b for t, b, kept in zip(profile, base, keep))
        sign = (-1) ** (len(profile) - sum(keep))
        difference += sign * model.welfare(model.efficient_outcome(mixed), mixed)
    assert difference == Fraction(replay["welfare"]) - Fraction(replay["decomposed"]) != 0


def test_holmstrom_stops_at_the_first_profile_where_g_misses_welfare():
    failing = several_failing = 0
    for s in _decomposition_corpus():
        g = verify._decompose(s, dict(verify._welfare_tables(s)))
        model = s.outcomes
        # Direct scan: every (checked index, level, profile, welfare, sum of g)
        # that misses, in level then profile order.
        misses = []
        index = 0
        for level in s.lattice.elements:
            for profile in s.structure.profiles(level):
                index += 1
                total = sum(g[(agent, level, transfers.opponent_profile(s.agents, agent,
                                                                        profile))]
                            for agent in s.agents)
                welfare = model.welfare(model.efficient_outcome(profile), profile)
                if total != welfare:
                    misses.append((index, level, list(profile), str(welfare), str(total)))
        result = verify.check_holmstrom(s, g)
        if not misses:
            assert result.holds and result.checked == index, s.name
            continue
        failing += 1
        several_failing += len(misses) > 1
        [witness] = result.witnesses
        replay = witness.replay
        assert (result.checked, replay["level"], replay["profile"], replay["welfare"],
                replay["decomposed"]) == misses[0], s.name
    assert failing >= 10 and several_failing >= 1


# Counts measured before the truthful-run loops were merged into
# engine.truthful_path; the merge must not move them.
PINNED_COUNTS = {
    # fixture: (participation ex_post, participation ex_ante as (checked, witnesses),
    #           stage-bound checked, pooled-implementation checked)
    "example1": ((6399, 2425), (675, 224), 1377, 1024),
    "example2": ((64, 2), (20, 0), 18, 16),
    "example4r": ((18, 2), (6, 0), 5, 4),
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_truthful_run_checks_keep_their_counts(name):
    s = fixture(name)
    ex_post, ex_ante, stage_bound, pooled = PINNED_COUNTS[name]
    for mode, want in (("ex_post", ex_post), ("ex_ante_anticipated", ex_ante)):
        result = verify.check_participation(s, s.scheme, mode)
        assert (result.checked, len(result.witnesses)) == want
    assert verify.check_stage_bound(s).checked == stage_bound
    assert verify.check_pooled_implementation(s, s.scheme).checked == pooled


def _assert_truthful_run_checks_match_the_reference(s, monkeypatch):
    assert (settled(verify.check_pooled_implementation, s, s.scheme)
            == settled(reference.check_pooled_implementation, s, s.scheme))
    assert settled(verify.check_stage_bound, s) == settled(reference.check_stage_bound, s)
    modes = ("ex_post", "ex_ante_anticipated")
    fast = [settled(verify.check_participation, s, s.scheme, mode) for mode in modes]
    with monkeypatch.context() as m:
        m.setattr(engine, "initial_state", reference.initial_state)
        m.setattr(engine, "report_profiles", reference.report_profiles)
        assert fast == [settled(verify.check_participation, s, s.scheme, mode) for mode in modes]


@pytest.mark.parametrize("name", ["example1", "example2", "example4r"])
def test_truthful_run_checks_match_the_reference_on_the_fixtures(name, monkeypatch):
    s = fixture(name)
    _assert_truthful_run_checks_match_the_reference(s, monkeypatch)
    static = s.scheme._replace(kind=transfers.STATIC_VICKREY)
    result = verify.check_pooled_implementation(s, static)
    assert result == reference.check_pooled_implementation(s, static)
    if name == "example2":
        assert not result.holds


@pytest.mark.parametrize("seed", [2026, 777, 31])
@pytest.mark.parametrize("procurement", [False, True], ids=["clarke", "rspa"])
def test_truthful_run_checks_match_the_reference_on_generated_scenarios(seed, procurement,
                                                                        monkeypatch):
    for k in range(40):
        _assert_truthful_run_checks_match_the_reference(
            generate_scenario(seed, k, procurement), monkeypatch)


def test_mutant_settling_on_the_first_stage_is_killed_by_pooled_implementation(monkeypatch):
    s = fixture("example2")
    assert verify.check_pooled_implementation(s, s.scheme).holds
    advance = engine.advance
    monkeypatch.setattr(engine, "advance", lambda scenario, state, reports:
                        advance(scenario, state, reports)._replace(stopped=True))
    result = verify.check_pooled_implementation(s, s.scheme)
    assert not result.holds
    assert result.witnesses[0].replay["stages"] == [["a1hi1", "a2lo"]]


def test_mutant_stop_rule_waiting_for_a_second_repeat_is_killed_by_stage_bound(monkeypatch):
    s = fixture("example2")
    assert verify.check_stage_bound(s).holds
    advance = engine.advance

    # A state holds only the last report profile, so the mutant keeps the
    # trailing repeats of every state it built, by identity, holding each
    # state so that no identity is reused.
    built = {}

    def waits(scenario, state, reports):
        after = advance(scenario, state, reports)
        repeats = built.get(id(state), (state, 0))[1] + 1 if after.stopped else 0
        after = after._replace(stopped=repeats >= 2)
        built[id(after)] = (after, repeats)
        return after

    monkeypatch.setattr(engine, "advance", waits)
    result = verify.check_stage_bound(s)
    assert not result.holds
    assert result.witnesses[0].description == "truthful run took 4 stages at level hi"


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_run_matches_the_single_truthful_completion(name):
    s = fixture(name)
    for draw in s.draws.values():
        for level in s.lattice.elements:
            (path,) = engine.iter_completions(s, engine.state_from_draw(s, draw, level), {})
            assert engine.run(s, draw, level) == path


# Dominance counts measured before the opponent walk of
# check_conditional_dominance was merged into the engine's play walk; no
# change to that walk may move them.  Each case: (verdict holds, checked, plays), where
# plays is the exact play budget the check consumes.
PINNED_DOMINANCE = {
    "example2": (True, 104, 264),
    "example2-ablated": (False, 31, 88),
    "gen301-0": (True, 52, 115),
    "gen301-3": (True, 160, 452),
    "gen301-4": (True, 548, 2043),
}

ABLATED_EXAMPLE2_WITNESS = {
    "agent": "a1", "level": "hi", "profile": ["a1hi2", "a2hi2"], "awareness": ["hi", "lo"],
    "conditioning_stage": 1, "perceived": "a1hi2",
    "truth_stages": [["a1hi2", "a2lo"], ["a1hi2", "a2hi2"], ["a1hi2", "a2hi2"]],
    "deviation_stages": [["a1lo1", "a2lo"], ["a1lo1", "a2lo"]],
    "truth_utility": "0", "deviation_utility": "1",
}


@pytest.mark.parametrize("name", sorted(PINNED_DOMINANCE))
def test_dominance_keeps_its_counts_and_play_budget(name, ablate_premium):
    if name.startswith("gen301-"):
        s = generate_scenario(301, int(name.split("-")[1]))
    else:
        s = fixture("example2")
    if name.endswith("-ablated"):
        ablate_premium()
    holds, checked, plays = PINNED_DOMINANCE[name]
    result = verify.check_conditional_dominance(s, s.scheme, bound=plays)
    assert (result.holds, result.checked) == (holds, checked)
    if not holds:
        assert result.witnesses[0].replay == ABLATED_EXAMPLE2_WITNESS
    with pytest.raises(engine.StrategySpaceTooLarge):
        verify.check_conditional_dominance(s, s.scheme, bound=plays - 1)


def _reference_dominance(scenario, scheme, bound=10 ** 6):
    """The dominance check without memoization: every deviation from every
    conditioning information set walked as plays of ``reference.iter_paths``,
    each play charged.  Returns (holds, checked, first witness replay)."""
    mech = Mechanism(scenario, scheme)
    structure = scenario.structure
    agents = structure.agents
    budget = verify.PlayBudget(bound)
    checked = 0
    for agent, level, profile, awareness in verify._dominance_instances(scenario,
                                                                        bidders(scenario, scheme)):
        i = structure.agent_position[agent]
        start = engine.initial_state(scenario, level, profile, awareness)
        opponents = {a: engine.FREE for a in agents if a != agent}
        for path in reference.iter_paths(scenario, start, opponents, budget):
            truth = engine.transcript(path)
            policies = {a: engine.plan_policy(a, tuple(stage[k] for stage in truth.stages),
                                              scenario)
                        for k, a in enumerate(agents) if a != agent}
            policies[agent] = engine.FREE
            for h, h_state in enumerate(path[:-1]):
                if structure.level_of(agent, h_state.perceived[i]) != level:
                    continue
                eval_type = h_state.perceived[i]
                u_truth = mech.utility(path[-1], agent, eval_type)
                checked += 1
                for dev_path in reference.iter_paths(scenario, h_state, policies, budget):
                    deviation = engine.transcript(path[:h] + dev_path)
                    u_dev = mech.utility(dev_path[-1], agent, eval_type)
                    if u_dev > u_truth:
                        return False, checked, {
                            "agent": agent, "level": level, "profile": list(profile),
                            "awareness": list(awareness),
                            "conditioning_stage": h_state.stage, "perceived": eval_type,
                            "truth_stages": [list(s) for s in truth.stages],
                            "deviation_stages": [list(s) for s in deviation.stages],
                            "truth_utility": str(u_truth), "deviation_utility": str(u_dev)}
    return True, checked, None


def replay_subtree_states(s):
    """(agent, opponents' full plans, their replay policies, path) for
    every state of every deviation subtree the plain dominance walk visits,
    each once, ``path`` listing the states from the initial one to it."""
    seen = set()
    for agent, level, profile, awareness in verify._dominance_instances(s, bidders(s, s.scheme)):
        i = s.structure.agent_position[agent]
        rivals = [(k, a) for k, a in enumerate(s.agents) if a != agent]
        start = engine.initial_state(s, level, profile, awareness)
        for path in reference.iter_paths(s, start, {a: engine.FREE for _, a in rivals}):
            stages = engine.transcript(path).stages
            plans = tuple(tuple(stage[k] for stage in stages) for k, _ in rivals)
            policies = {a: engine.plan_policy(a, plan, s) for (_, a), plan in zip(rivals, plans)}
            policies[agent] = engine.FREE
            todo = [list(path[:h + 1]) for h, state in enumerate(path[:-1])
                    if s.structure.level_of(agent, state.perceived[i]) == level]
            while todo:
                prefix = todo.pop()
                if (agent, plans, tuple(prefix)) in seen:
                    continue
                seen.add((agent, plans, tuple(prefix)))
                yield agent, plans, policies, prefix
                state = prefix[-1]
                if not state.stopped:
                    todo.extend(prefix + [engine.advance(s, state, reports)]
                                for reports in engine.report_profiles(s, state, policies))


def test_state_key_fixes_every_deviation_subtree_under_plan_replay():
    # Plan replay reads the stage, so states of one key but different
    # stages would split here even where the all-FREE walk cannot tell.
    merged = 0
    for name in ("example2", "example4r", "gen301-3", "gen301-4"):
        s = _differential_scenario(name)
        by_key = {}
        for agent, plans, policies, prefix in replay_subtree_states(s):
            state = prefix[-1]
            plays = [prefix[:-1] + p for p in engine.iter_completions(s, state, policies)]
            got = (len(plays), Counter(payoff_summary(s, p) for p in plays))
            key = (agent, plans, engine.state_key(s, state))
            first = by_key.setdefault(key, (prefix, got))
            assert got == first[1], (name, agent, plans, first[0], prefix)
            merged += first[0] != prefix
    # The key does merge states whose histories differ.
    assert merged


def test_subtree_key_fixes_every_deviation_summary_under_plan_replay():
    # The deviation table's key: the state key less its stage, with plan
    # suffixes from the state's stage less their trailing repeats.  A hit
    # must answer every evaluation type at the level from its summary.
    across_stages = across_repeats = 0
    for name in ("example2", "example4r", "gen301-3", "gen301-4"):
        s = _differential_scenario(name)
        mech = Mechanism(s, s.scheme)
        by_key, tables, steps = {}, {}, {}
        for agent, plans, policies, prefix in replay_subtree_states(s):
            state = prefix[-1]
            raw = tuple(p[min(state.stage, len(p)) - 1:] for p in plans)
            suffixes = tuple(verify._stripped(p) for p in raw)
            plays = [prefix[:-1] + p for p in engine.iter_completions(s, state, policies)]
            terminals = [play[-1] for play in plays]
            got = (len(plays), Counter(payoff_summary(s, p) for p in plays))
            key = (agent, verify._subtree_key(s, state), suffixes)
            first = by_key.setdefault(key, (state, raw, got))
            assert got == first[2], (name, agent, suffixes, first[0], prefix)
            across_stages += first[0].stage != state.stage
            across_repeats += first[1] != raw
            if state.stopped:
                continue
            level = s.structure.level_of(agent, state.perceived[s.structure.agent_position[agent]])
            table = tables.setdefault((agent, level), verify._Tables(s, agent, level, steps))
            summary, plays, _ = verify._best_deviation(s, mech, table, state, suffixes)
            assert plays == len(terminals)
            for eval_type in s.structure.space(agent, level):
                assert verify._best_value(s, agent, eval_type, summary) == max(
                    mech.utility(t, agent, eval_type) for t in terminals)
    # The key merges states the stage, or the repeats, would split.
    assert across_stages and across_repeats


def test_a_conditioning_state_is_one_aware_of_the_game_level(monkeypatch):
    # The truth tree conditions where the agent's awareness is the game
    # level and values the truthful play at her true type.  On every
    # running state it visits, that must be where her perceived type lies
    # at the game level, and the perceived type her true type.
    solve = verify._truth_tree
    seen = Counter()

    def checked(scenario, mech, tables, state, subtree=None):
        if not state.stopped:
            i = tables.index
            perceived = state.perceived[i]
            at_level = scenario.structure.level_of(tables.agent, perceived) == tables.level
            assert at_level == (state.awareness[i] == tables.level), state
            assert not at_level or perceived == state.true_profile[i], state
            seen[at_level] += 1
        return solve(scenario, mech, tables, state, subtree)

    monkeypatch.setattr(verify, "_truth_tree", checked)
    scenarios = [fixture(name) for name in ("example1", "example2", "example4r")]
    scenarios += [generate_scenario(2026, k, procurement)
                  for k in range(12) for procurement in (False, True)]
    for s in scenarios:
        verify.check_conditional_dominance(s, s.scheme)
    assert seen[True] and seen[False]


@pytest.mark.parametrize("name", ["example2", "gen301-4", "gen2026-30"])
def test_dominance_advances_each_step_once_per_check(name, monkeypatch):
    # One step table per check, shared by every agent's tables: each
    # (state, reports) is advanced once, the table holds what advance
    # returns, and nothing of it outlives the check.
    s = _differential_scenario(name)
    if name == "gen2026-30":
        # diamond 1111 1111 1111: three agents, one type per level, so
        # every agent's tables start from the same states
        assert len(s.agents) == 3 and len(s.lattice.elements) == 4
        assert all(len(s.structure.space(a, level)) == 1
                   for a in s.agents for level in s.lattice.elements)
    advance = engine.advance

    def counted(scenario, state, reports):
        calls.append((state, reports))
        return advance(scenario, state, reports)

    class Recorded(verify._Tables):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engine, "advance", counted)
    monkeypatch.setattr(verify, "_Tables", Recorded)
    counts = []
    for _ in range(2):
        calls, made = [], []
        assert verify.check_conditional_dominance(s, s.scheme).holds
        counts.append(len(calls))
        assert len(made) > 1 and all(t.steps is made[0].steps for t in made)
        steps = made[0].steps
        assert len(set(calls)) == len(calls)
        assert set(steps) == set(calls)
        for (state, reports), (child, key) in steps.items():
            fresh = advance(s, state, reports)
            assert child == fresh
            assert key == (None if fresh.stopped else verify._subtree_key(s, fresh))
    assert counts[0] == counts[1] > 0


def _deeper_twin(state):
    """``state`` one stage deeper: its first stage played twice."""
    return state._replace(stage=state.stage + 1)


def test_a_hit_one_stage_deeper_trips_the_stage_cap(monkeypatch):
    s = fixture("example2")
    agent, level = "a1", "hi"

    def reached(awareness, reports):
        """The state after the first stage of ``reports`` in a check instance."""
        profile = next(case[2] for case in verify._dominance_instances(s, (agent,))
                       if case[1] == level and case[3] == awareness)
        return engine.advance(s, engine.initial_state(s, level, profile, awareness), reports)

    state = reached(("lo", "hi"), ("a1lo1", "a2lo"))

    def tables():
        fresh = verify._Tables(s, agent, level, {})
        fresh.cap = 10 ** 6
        return fresh

    mech = Mechanism(s, s.scheme)
    deep = verify._truth_tree(s, mech, tables(), state)[4]
    conditioning = reached(("hi", "lo"), ("a1hi1", "a2lo"))
    plans, _ = verify._truth_tree(s, mech, tables(), conditioning)[3][0]
    plans = tuple(verify._stripped(p) for p in plans)
    deviation_deep = verify._best_deviation(s, mech, tables(), conditioning, plans)[2]
    assert (deep, deviation_deep) == (2, 1)
    cases = ((lambda t, st: verify._truth_tree(s, mech, t, st), state, deep),
             (lambda t, st: verify._best_deviation(s, mech, t, st, plans), conditioning,
              deviation_deep))
    for solve, solved, below in cases:
        twin = _deeper_twin(solved)
        assert verify._subtree_key(s, twin) == verify._subtree_key(s, solved)
        # The solved state's subtree just fits the cap; its twin's does not.
        monkeypatch.setattr(engine, "max_stages", lambda scenario: solved.stage + below)
        shared = tables()
        solve(shared, solved)
        with pytest.raises(AssertionError, match="stage cap"):
            solve(shared, twin)


def _capped(check):
    """``check()``, or "cap" when the stage cap trips."""
    try:
        return check()
    except AssertionError as err:
        assert "stage cap" in str(err)
        return "cap"


@pytest.mark.parametrize("name", ["example2", "example4r", "gen301-3", "gen301-4", "proc901-4"])
def test_stage_cap_trips_where_the_plain_walk_trips(name, monkeypatch):
    s = _differential_scenario(name)
    full_cap = engine.max_stages(s)
    outcomes = []
    for cap in range(1, full_cap + 1):
        monkeypatch.setattr(engine, "max_stages", lambda scenario: cap)
        want = _capped(lambda: _reference_dominance(s, s.scheme)[:2])
        result = _capped(lambda: verify.check_conditional_dominance(s, s.scheme))
        got = result if result == "cap" else (result.holds, result.checked)
        assert got == want, cap
        outcomes.append(want)
    assert outcomes[0] == "cap" and outcomes[-1] != "cap"


# The fixtures, and the generated scenarios of index below 10 that the plain
# walk covers in well under a second, plus gen301-1 as one larger case.
DIFFERENTIAL_CASES = (["example2", "example4r", "gen301-1"]
                      + [f"gen{seed}-{k}" for seed, ks in ((301, (0, 3, 4, 5, 6, 7)),
                                                           (401, (0, 1, 3, 4, 5, 6, 7, 9)),
                                                           (501, (0, 2, 3, 5, 8, 9)),
                                                           (701, (0, 2, 3, 4, 5, 6, 7, 8, 9)))
                         for k in ks]
                      + [f"proc901-{k}" for k in (0, 1, 4, 7)])


def _differential_scenario(name):
    if name.startswith("gen"):
        seed, k = name[3:].split("-")
        return generate_scenario(int(seed), int(k))
    if name.startswith("proc"):
        seed, k = name[4:].split("-")
        return generate_scenario(int(seed), int(k), procurement=True)
    return fixture(name)


@pytest.mark.parametrize("ablate", [False, True], ids=["plain", "ablated"])
@pytest.mark.parametrize("name", DIFFERENTIAL_CASES)
def test_memoized_dominance_matches_the_plain_walk(name, ablate, monkeypatch, ablate_premium):
    budgets = []

    class RecordedBudget(engine.PlayBudget):
        def __init__(self, bound=10 ** 6):
            super().__init__(bound)
            budgets.append(self)

    monkeypatch.setattr(verify, "PlayBudget", RecordedBudget)
    s = _differential_scenario(name)
    if ablate:
        ablate_premium()
    holds, checked, replay = _reference_dominance(s, s.scheme)
    reference_used = budgets[-1].used
    result = verify.check_conditional_dominance(s, s.scheme)
    assert (result.holds, result.checked, budgets[-1].used) == (holds, checked, reference_used)
    assert (result.witnesses[0].replay if result.witnesses else None) == replay


def _bounded(check, bound):
    """(holds, checked, first witness replay) of ``check(bound)``, or
    "trips" when the play bound trips."""
    try:
        return check(bound)
    except engine.StrategySpaceTooLarge:
        return "trips"


def _dominance_outcome(s, bound):
    result = verify.check_conditional_dominance(s, s.scheme, bound=bound)
    return result.holds, result.checked, result.witnesses[0].replay if result.witnesses else None


@pytest.mark.parametrize("name, ablate", [("example2", False), ("example2", True),
                                          ("gen301-4", False)])
def test_play_bound_trips_where_the_plain_walk_trips(name, ablate, monkeypatch, ablate_premium):
    budgets, starts = [], []

    class RecordedBudget(engine.PlayBudget):
        def __init__(self, bound=10 ** 6):
            super().__init__(bound)
            budgets.append(self)

    def recorded_start(*args):
        starts.append(budgets[-1].used)
        return initial_state(*args)

    initial_state = engine.initial_state
    monkeypatch.setattr(verify, "PlayBudget", RecordedBudget)
    s = _differential_scenario(name)
    if ablate:
        ablate_premium()
    monkeypatch.setattr(engine, "initial_state", recorded_start)
    unbounded = _reference_dominance(s, s.scheme)
    monkeypatch.setattr(engine, "initial_state", initial_state)
    plays = budgets[-1].used
    assert plays == PINNED_DOMINANCE[name + ("-ablated" if ablate else "")][2]
    if name == "example2":
        # Every bound, against the plain walk run under it.
        for bound in range(1, plays + 2):
            want = _bounded(lambda b: _reference_dominance(s, s.scheme, b), bound)
            assert _bounded(lambda b: _dominance_outcome(s, b), bound) == want, bound
        return
    # The plain walk charges one play at a time and reads its budget nowhere
    # else, so under a bound it trips exactly when its unbounded run charges
    # more, and otherwise returns what that run returns.  The bounds taken
    # are those at and around each instance's start, where the cap of the
    # instance before equals its charge, and a stride through the rest.
    bounds = sorted({b for used in starts + [plays] for b in (used - 1, used, used + 1) if b > 0}
                    | set(range(1, plays, 31)))
    for bound in bounds:
        want = "trips" if bound < plays else unbounded
        assert _bounded(lambda b: _dominance_outcome(s, b), bound) == want, bound


# check_budget verdicts, checked counts and first witnesses, measured before
# transfer_report memoized settlements; the memo must not move them.  Each
# case: (verdict holds, checked, first witness replay or None).
PINNED_BUDGET = {
    ("example1", "no_deficit"): (True, 47923, None),
    ("example1", "balance"): (False, 2, {
        "stages": [["s1e", "s2e", "bue"], ["s1e", "s2e", "bua"], ["s1a", "s2a", "bua"],
                   ["s1a", "s2a", "bua"]],
        "sum": "-23", "transfers": {"s1": "-23/2", "s2": "-23/2", "buyer": "0"}}),
    ("example2", "no_deficit"): (True, 26, None),
    ("example2", "balance"): (False, 1, {
        "stages": [["a1lo1", "a2lo"], ["a1lo1", "a2lo"]],
        "sum": "-1", "transfers": {"a1": "-1", "a2": "0"}}),
    ("example4r", "no_deficit"): (True, 7, None),
    ("example4r", "balance"): (False, 2, {
        "stages": [["p1lo", "p2lo"], ["p1lo", "p2hi"], ["p1hi", "p2hi"], ["p1hi", "p2hi"]],
        "sum": "-2", "transfers": {"a1": "-4", "a2": "2"}}),
}


# The first witness's text, which states the signed transfer sum (the
# operator balance negated) of each failing balance row above.
BALANCE_WITNESS_TEXT = {
    "example1": "transfers sum to -23 on transcript (('s1e', 's2e', 'bue'), "
                "('s1e', 's2e', 'bua'), ('s1a', 's2a', 'bua'), ('s1a', 's2a', 'bua'))",
    "example2": "transfers sum to -1 on transcript (('a1lo1', 'a2lo'), ('a1lo1', 'a2lo'))",
    "example4r": "transfers sum to -2 on transcript (('p1lo', 'p2lo'), ('p1lo', 'p2hi'), "
                 "('p1hi', 'p2hi'), ('p1hi', 'p2hi'))",
}


@pytest.mark.parametrize("name", sorted(BALANCE_WITNESS_TEXT))
def test_budget_witness_text_states_the_signed_sum(name):
    s = fixture(name)
    result = verify.check_budget(s, s.scheme, "balance")
    assert result.witnesses[0].description == BALANCE_WITNESS_TEXT[name]


@pytest.mark.parametrize("name, mode", sorted(PINNED_BUDGET))
def test_budget_keeps_its_counts_and_first_witness(name, mode):
    s = fixture(name)
    holds, checked, replay = PINNED_BUDGET[name, mode]
    result = verify.check_budget(s, s.scheme, mode)
    assert (result.holds, result.checked) == (holds, checked)
    assert (result.witnesses[0].replay if result.witnesses else None) == replay


def test_adversarial_groves_balance_keeps_its_first_witness():
    s = fixture("example2")
    result = verify.check_budget(s, _adversarial_groves(s), "balance")
    assert (result.holds, result.checked) == (False, 1)
    assert result.witnesses[0].replay == {
        "stages": [["a1lo1", "a2lo"], ["a1lo1", "a2lo"]],
        "sum": "8", "transfers": {"a1": "7", "a2": "1"}}


def test_operator_funded_premium_keeps_its_planted_breach(monkeypatch):
    # The rejected operator-funded reading (see tests/test_transfers.py):
    # the recipient keeps the premium and nobody funds a share.
    plain = transfers.awareness_adjustments

    def operator_funded(mechanism, level, recipient):
        adjustments = plain(mechanism, level, recipient)
        return {a: v if a == recipient else Fraction(0) for a, v in adjustments.items()}

    monkeypatch.setattr(transfers, "awareness_adjustments", operator_funded)
    s = fixture("example1")
    result = verify.check_budget(s, s.scheme, "no_deficit")
    assert (result.holds, result.checked) == (False, 4)
    assert result.witnesses[0].replay == {
        "stages": [["s1e", "s2e", "bue"], ["s1e", "s2e", "bua"], ["s1a", "s2a", "bua"],
                   ["s1a", "s2a", "buab"], ["s1ab", "s2ab", "buab"],
                   ["s1ab", "s2ab", "buabc"], ["s1t80", "s2t86", "buabc"],
                   ["s1t80", "s2t86", "buabc"]],
        "sum": "2", "transfers": {"s1": "0", "s2": "0", "buyer": "2"}}
    assert result.witnesses[0].description == (
        "transfers sum to 2 on transcript (('s1e', 's2e', 'bue'), ('s1e', 's2e', 'bua'), "
        "('s1a', 's2a', 'bua'), ('s1a', 's2a', 'buab'), ('s1ab', 's2ab', 'buab'), "
        "('s1ab', 's2ab', 'buabc'), ('s1t80', 's2t86', 'buabc'), "
        "('s1t80', 's2t86', 'buabc'))")


def test_budget_play_bound_trips_exactly_past_the_walk():
    s = fixture("example2")
    assert verify.check_budget(s, s.scheme, "no_deficit", bound=26).holds
    with pytest.raises(engine.StrategySpaceTooLarge):
        verify.check_budget(s, s.scheme, "no_deficit", bound=25)
