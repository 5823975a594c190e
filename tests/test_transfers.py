"""Transfer-scheme behavior, pinned against hand-computed values.

The two-bidder auction fixture drives most cases: at the pooled level the
bids are 2 and 3, so the pivot payment is 2; the premium for the bidder who
first announced the pooled level is exactly the margin she could have kept
by concealing (winning at 2 against 1 instead of losing), which is 1.
"""
from fractions import Fraction
from itertools import islice, product

import pytest

from elabmech import engine, transfers, verify
from elabmech.fixtures import fixture
from elabmech.generate import CHAIN2, CHAIN3, DIAMOND, generate_scenario
from elabmech.scenario import parse_scenario
from elabmech.transfers import (FewerThanTwoSellers, Mechanism, MissingYEntry, SchemeConfig,
                                TranscriptNotStopped, awareness_adjustments, clarke_y,
                                first_pooled_reporter, rspa_auction, transfer_report)
from elabmech.typespace import NatureDraw, UnknownType

PROCUREMENT = """
[lattice]
elements: lo hi
edge: lo hi
[agents]
agents: s1 s2 b
[types]
space: s1 lo s1lo
space: s1 hi s1hi
space: s2 lo s2lo
space: s2 hi s2hi
space: b lo blo
space: b hi bhi
[projections]
map: s1 hi lo s1hi s1lo
map: s2 hi lo s2hi s2lo
map: b hi lo bhi blo
[outcomes]
outcomes: supply_s1 supply_s2 idle
available: lo supply_s1 supply_s2 idle
available: hi supply_s1 supply_s2 idle
[valuations]
value: s1 s1lo supply_s1 -64
value: s1 s1hi supply_s1 -80
value: s1 s1lo supply_s2 0
value: s1 s1hi supply_s2 0
value: s1 s1lo idle 0
value: s1 s1hi idle 0
value: s2 s2lo supply_s2 -67
value: s2 s2hi supply_s2 -86
value: s2 s2lo supply_s1 0
value: s2 s2hi supply_s1 0
value: s2 s2lo idle 0
value: s2 s2hi idle 0
value: b blo supply_s1 0
value: b bhi supply_s1 0
value: b blo supply_s2 0
value: b bhi supply_s2 0
value: b blo idle 0
value: b bhi idle 0
[scheme]
kind: rspa
buyer: b
supply: s1 supply_s1
supply: s2 supply_s2
[nature]
draw: main types s1=s1hi s2=s2hi b=bhi levels s1=lo s2=hi b=lo
"""


def run_fixture(name):
    s = fixture(name)
    t = engine.run(s, s.draw(), s.lattice.top)
    return s, t


def _stopped_transcripts(s, limit=None):
    """The first ``limit`` (default all) stopped transcripts of the all-FREE
    walk from the top level."""
    top = s.lattice.top
    state = engine.initial_state(s, top, next(s.structure.profiles(top)),
                                 (top,) * len(s.agents))
    terminals = engine.iter_completions(s, state, {a: engine.FREE for a in s.agents})
    return [engine.transcript(terminal) for terminal in islice(terminals, limit)]


def test_first_pooled_reporter_example2_is_the_aware_bidder():
    s, t = run_fixture("example2")
    assert first_pooled_reporter(s, t) == "a1"


def test_first_pooled_reporter_example1_is_nobody():
    # the pooled level exceeds every first-stage report; all three agents
    # reach it simultaneously at stage two
    s, t = run_fixture("example1")
    assert first_pooled_reporter(s, t) is None


TIE = """
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
value: a1 p x 1
value: a2 r x 1
[scheme]
kind: clarke
"""
TIE_TRANSCRIPT = engine.Transcript(stages=(("p", "r"), ("p", "r")), pooled=("l0", "l0"),
                                   stopped=True)


def test_first_pooled_reporter_ties_and_misses():
    one = parse_scenario(TIE)
    assert first_pooled_reporter(one, TIE_TRANSCRIPT) is None  # simultaneous at stage 1
    with pytest.raises(TranscriptNotStopped):
        first_pooled_reporter(one, engine.Transcript((("p", "r"),), ("l0",), False))
    # A stopped transcript naming an undeclared type: the level lookup misses.
    with pytest.raises(UnknownType):
        first_pooled_reporter(one, engine.Transcript((("p", "zz"),) * 2, ("l0",) * 2, True))


def test_premium_example2_value():
    s = fixture("example2")
    mech = Mechanism(s, s.scheme)
    assert mech.premium("a1", "hi") == 1
    assert mech.premium("a2", "hi") == 0


def test_premium_zero_at_bottom_for_every_agent_and_scheme():
    for name in ("example1", "example2", "example4r"):
        s = fixture(name)
        mech = Mechanism(s, s.scheme)
        for agent in s.agents:
            assert mech.premium(agent, s.lattice.bottom) == 0


def brute_force_premium(scenario, scheme, agent, level):
    """Unmemoized re-statement of the recursion, as a second implementation."""
    from elabmech.transfers import y_value
    lattice = scenario.lattice
    model = scenario.outcomes
    if level == lattice.bottom:
        return Fraction(0)
    i = scenario.structure.agent_position[agent]
    best = Fraction(0)
    for lower in lattice.strictly_below(level):
        for coarse in scenario.structure.profiles(lower):
            for fine in scenario.structure.profiles(level):
                x_lo = model.efficient_outcome(coarse)
                bracket = (brute_force_premium(scenario, scheme, agent, lower)
                           + model.value(agent, fine[i], x_lo)
                           + model.opponents_welfare(agent, x_lo, coarse)
                           + y_value(scenario, scheme, agent, lower, coarse)
                           - model.welfare(model.efficient_outcome(fine), fine)
                           - y_value(scenario, scheme, agent, level, fine))
                best = max(best, bracket)
    return best


def test_premium_matches_unmemoized_brute_force_on_generated_scenarios():
    for k in range(6):
        s = generate_scenario(31, k)
        mech = Mechanism(s, s.scheme)
        for agent in s.agents:
            for level in s.lattice.elements:
                assert mech.premium(agent, level) == \
                    brute_force_premium(s, s.scheme, agent, level)


def test_adjustments_example2():
    s, t = run_fixture("example2")
    recipient = first_pooled_reporter(s, t)
    assert recipient == "a1"
    adjustments = awareness_adjustments(Mechanism(s, s.scheme), t.final_pooled, recipient)
    assert adjustments == {"a1": Fraction(1), "a2": Fraction(-1)}


def test_adjustments_zero_when_nobody_is_first():
    s, t = run_fixture("example1")
    recipient = first_pooled_reporter(s, t)
    assert recipient is None
    adjustments = awareness_adjustments(Mechanism(s, s.scheme), t.final_pooled, recipient)
    assert all(v == 0 for v in adjustments.values())


def test_adjustments_sum_to_zero_on_every_feasible_transcript():
    for name in ("example2", "example4r"):
        s = fixture(name)
        mech = Mechanism(s, s.scheme)
        transcripts = _stopped_transcripts(s, 3000)
        for t in transcripts:
            adjustments = awareness_adjustments(mech, t.final_pooled,
                                                first_pooled_reporter(s, t))
            assert sum(adjustments.values()) == 0
        assert transcripts


def test_clarke_transfers_example1():
    s, t = run_fixture("example1")
    report = transfer_report(Mechanism(s, s.scheme), t)
    assert report.outcome == "produce1"
    assert report.transfers == {"s1": Fraction(0), "s2": Fraction(0),
                                "buyer": Fraction(-80)}
    assert report.operator_balance == 80


def test_clarke_transfers_example2():
    # bidder 2 wins and pays the second price, and its premium share funds the
    # discloser's reward: pivot parts are (0, -2), the premium is +1 to a1 and
    # -1 to a2
    s, t = run_fixture("example2")
    report = transfer_report(Mechanism(s, s.scheme), t)
    assert report.outcome == "win2"
    assert report.transfers == {"a1": Fraction(1), "a2": Fraction(-3)}
    assert report.adjustments == {"a1": Fraction(1), "a2": Fraction(-1)}
    assert report.operator_balance == 2


def test_operator_funded_premium_gives_published_pair_and_a_deficit(monkeypatch):
    # Plant the rejected reading: the operator pays the premium and nobody
    # funds a share.  It yields the published (-2, 1) on example2 but makes
    # the example1 pivot scheme run a deficit.
    def operator_funded(mechanism, level, recipient):
        adjustments = awareness_adjustments(mechanism, level, recipient)
        return {a: v if a == recipient else Fraction(0) for a, v in adjustments.items()}

    monkeypatch.setattr(transfers, "awareness_adjustments", operator_funded)
    s, t = run_fixture("example2")
    report = transfer_report(Mechanism(s, s.scheme), t)
    assert report.outcome == "win2"
    assert report.transfers == {"a1": Fraction(1), "a2": Fraction(-2)}
    assert report.operator_balance == 1
    s1 = fixture("example1")
    result = verify.check_budget(s1, s1.scheme, "no_deficit")
    assert not result.holds
    assert result.witnesses[0].replay["sum"] == "2"


def test_single_agent_zero_y_groves():
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
kind: groves
y: only l0 0
""")
    t = engine.Transcript(stages=(("t",), ("t",)), pooled=("l0", "l0"), stopped=True)
    report = transfer_report(Mechanism(solo, solo.scheme), t)
    assert report.transfers == {"only": Fraction(0)}
    assert report.outcome == "x"


def test_single_agent_adjustments_are_zero_even_with_positive_premium():
    # a lone agent could earn a premium for self-disclosure; with nobody to
    # fund it the adjustment terms are defined away
    solo = parse_scenario("""
[lattice]
elements: lo hi
edge: lo hi
[agents]
agents: only
[types]
space: only lo c
space: only hi f
[projections]
map: only hi lo f c
[outcomes]
outcomes: x y
available: lo x
available: hi y
[valuations]
value: only c x 5
value: only f x 5
value: only c y 1
value: only f y 1
[scheme]
kind: clarke
[nature]
draw: main types only=f levels only=hi
""")
    mech = Mechanism(solo, solo.scheme)
    assert mech.premium("only", "hi") == 4
    t = engine.run(solo, solo.draw(), "hi")
    report = transfer_report(Mechanism(solo, solo.scheme), t)
    assert report.premium_recipient == "only"
    assert report.adjustments == {"only": Fraction(0)}
    assert report.transfers == {"only": Fraction(0)}


def test_clarke_y_values():
    s, t = run_fixture("example1")
    assert clarke_y(s, "buyer", t.final) == 0   # restricted outcome is idle
    assert clarke_y(s, "s1", t.final) == -100
    assert clarke_y(s, "s2", t.final) == -20


def test_clarke_y_bounds_opponent_welfare():
    for k in range(6):
        s = generate_scenario(37, k)
        top = s.lattice.top
        for profile in s.structure.profiles(top):
            eff = s.outcomes.efficient_outcome(profile)
            for agent in s.agents:
                assert -clarke_y(s, agent, profile) >= \
                    s.outcomes.opponents_welfare(agent, eff, profile)


def test_static_vickrey_example2():
    s = fixture("example2")
    static = s.scheme._replace(kind="static_vickrey")
    t = engine.run_single_stage(s, s.draw(), "hi")
    report = transfer_report(Mechanism(s, static), t)
    assert report.outcome == "win1"
    assert report.transfers == {"a1": Fraction(-1), "a2": Fraction(0)}
    assert report.premium_recipient is None


def test_missing_y_entry():
    s, t = run_fixture("example2")
    groves = SchemeConfig(kind="groves", y_tables={})
    with pytest.raises(MissingYEntry):
        transfer_report(Mechanism(s, groves), t)


def test_rspa_second_lowest_cost_and_winner():
    s = parse_scenario(PROCUREMENT)
    final = ("s1hi", "s2hi", "bhi")
    assert rspa_auction(s, s.scheme, final) == ("supply_s1", 86)


def test_rspa_transfers_pay_second_price_with_premium_funded_by_buyer():
    s = parse_scenario(PROCUREMENT)
    t = engine.run(s, s.draw(), "hi")
    # seller 2 alone was aware of hi, so she reveals it first and collects
    # the premium even though seller 1 wins the project
    report = transfer_report(Mechanism(s, s.scheme), t)
    assert report.outcome == "supply_s1"
    assert report.premium_recipient == "s2"
    assert report.transfers["s1"] == 86
    assert report.transfers["s2"] == report.adjustments["s2"] >= 0
    assert report.transfers["b"] == -86 - report.adjustments["s2"]
    assert sum(report.transfers.values()) == 0
    assert report.operator_balance == 0


def test_rspa_cost_tie_resolved_by_tie_break():
    text = PROCUREMENT.replace("value: s2 s2hi supply_s2 -86",
                               "value: s2 s2hi supply_s2 -80")
    s = parse_scenario(text)
    final = ("s1hi", "s2hi", "bhi")
    assert rspa_auction(s, s.scheme, final) == ("supply_s1", 80)


def test_rspa_budget_balances_on_every_feasible_transcript():
    s = parse_scenario(PROCUREMENT)
    top = s.lattice.top
    state = engine.initial_state(s, top, next(s.structure.profiles(top)),
                                 (top,) * len(s.agents))
    mech = Mechanism(s, s.scheme)
    seen = 0
    for terminal in engine.iter_completions(s, state, {a: engine.FREE for a in s.agents}):
        report = mech.report(engine.transcript(terminal))
        assert sum(report.transfers.values()) == 0
        seen += 1
    assert seen > 10


def test_rspa_needs_two_sellers():
    s = parse_scenario(PROCUREMENT)
    with pytest.raises(FewerThanTwoSellers):
        rspa_auction(s, s.scheme, ("s1hi",))


COMPETITIVE = """
[lattice]
elements: lo hi
edge: lo hi
[agents]
agents: s1 s2 b
[types]
space: s1 lo s1c s1d
space: s1 hi s1ch s1dh
space: s2 lo s2lo
space: s2 hi s2hi
space: b lo blo
space: b hi bhi
[projections]
map: s1 hi lo s1ch s1c
map: s1 hi lo s1dh s1d
map: s2 hi lo s2hi s2lo
map: b hi lo bhi blo
[outcomes]
outcomes: supply_s1 supply_s2
available: lo supply_s1 supply_s2
available: hi supply_s1 supply_s2
[valuations]
value: s1 s1c supply_s1 -50
value: s1 s1d supply_s1 -70
value: s1 s1ch supply_s1 -55
value: s1 s1dh supply_s1 -75
value: s1 s1c supply_s2 0
value: s1 s1d supply_s2 0
value: s1 s1ch supply_s2 0
value: s1 s1dh supply_s2 0
value: s2 s2lo supply_s2 -60
value: s2 s2hi supply_s2 -65
value: s2 s2lo supply_s1 0
value: s2 s2hi supply_s1 0
value: b blo supply_s1 0
value: b bhi supply_s1 0
value: b blo supply_s2 0
value: b bhi supply_s2 0
[scheme]
kind: rspa
buyer: b
supply: s1 supply_s1
supply: s2 supply_s2
"""


def test_rspa_premium_simplified_cross_check_accepts_competitive_costs():
    # every seller loses for some profile at every level, so the opt-out
    # assumption behind the short recursion holds and the two forms agree
    s = parse_scenario(COMPETITIVE)
    flagged = s.scheme._replace(simplified_premium_ok=True)
    mech = Mechanism(s, flagged)
    for seller in ("s1", "s2"):
        assert mech.premium(seller, "hi") == \
            Mechanism(s, s.scheme).premium(seller, "hi")
    assert mech.premium("s1", "hi") == 10


def test_rspa_premium_simplified_cross_check_rejects_when_assumption_fails():
    # a seller who always wins at every level breaks the opt-out assumption
    text = PROCUREMENT.replace("value: s1 s1lo supply_s1 -64",
                               "value: s1 s1lo supply_s1 -1") \
                      .replace("value: s1 s1hi supply_s1 -80",
                               "value: s1 s1hi supply_s1 -1")
    s = parse_scenario(text)
    flagged = s.scheme._replace(simplified_premium_ok=True)
    mech = Mechanism(s, flagged)
    with pytest.raises(ValueError):
        mech.premium("s1", "hi")


def test_transcript_not_stopped_rejected():
    s = fixture("example2")
    t = engine.Transcript((("a1hi2", "a2lo"),), ("hi",), False)
    with pytest.raises(TranscriptNotStopped):
        transfer_report(Mechanism(s, s.scheme), t)


def test_report_jsonable_renders_exact_and_decimal():
    s, t = run_fixture("example1")
    payload = transfer_report(Mechanism(s, s.scheme), t).jsonable()
    assert payload["transfers"]["buyer"] == {"exact": "-80", "decimal": -80.0}
    assert payload["operator_balance"]["exact"] == "80"


# Seed 2026 generated scenarios of every shape, 10 clarke and 10 procurement,
# whose all-FREE play trees are small enough to walk in full.
SETTLEMENT_CASES = (["example2", "example4r"]
                    + [f"gen2026-{k}" for k in (1, 2, 5, 6, 7, 9, 17, 24, 30, 38)]
                    + [f"proc2026-{k}" for k in (5, 8, 10, 13, 15, 17, 20, 25, 37, 38)])


def _settlement_scenario(name):
    if name.startswith("example"):
        return fixture(name)
    kind, k = name.split("-")
    return generate_scenario(2026, int(k), procurement=kind == "proc2026")


@pytest.mark.parametrize("variant", ["scheme", "ablated", "static"])
@pytest.mark.parametrize("name", SETTLEMENT_CASES)
def test_memoized_settlement_matches_a_fresh_report(name, variant, ablate_premium):
    s = _settlement_scenario(name)
    scheme = SchemeConfig(kind="static_vickrey") if variant == "static" else s.scheme
    if variant == "ablated":
        ablate_premium()
    shared = Mechanism(s, scheme)
    transcripts = _stopped_transcripts(s)
    for transcript in transcripts:
        assert (transfer_report(shared, transcript)
                == transfer_report(Mechanism(s, scheme), transcript)), (name, transcript)
    assert len(transcripts) > len(shared._settlements) > 0


def reference_first_reports(scenario, transcript):
    """Each agent's first stage with a report at the final pooled level, by
    scanning every stage and agent."""
    structure = scenario.structure
    target = transcript.final_pooled
    earliest = {}
    for stage, profile in enumerate(transcript.stages, start=1):
        for agent, report in zip(structure.agents, profile):
            if agent not in earliest and structure.level_of(agent, report) == target:
                earliest[agent] = stage
    return earliest


def reference_first_pooled_reporter(scenario, transcript):
    """The all-stages reading of the first pooled reporter: the unique agent
    with the earliest first report at the final pooled level, else None."""
    earliest = reference_first_reports(scenario, transcript)
    firsts = [a for a, k in earliest.items() if k == min(earliest.values())]
    return firsts[0] if len(firsts) == 1 else None


def test_one_stage_first_reporter_matches_the_all_stages_scan():
    corpus = [(fixture("example1"), _stopped_transcripts(fixture("example1"), 3000)),
              (parse_scenario(TIE), [TIE_TRANSCRIPT])]
    corpus += [(s, _stopped_transcripts(s))
               for s in map(_settlement_scenario, SETTLEMENT_CASES)]
    found = set()
    for s, transcripts in corpus:
        for t in transcripts:
            expected = reference_first_pooled_reporter(s, t)
            assert first_pooled_reporter(s, t) == expected, (s.agents, t)
            found.add(expected is None)
    assert found == {True, False}
    assert {CHAIN2, CHAIN3, DIAMOND} <= {s.lattice.elements for s, _ in corpus}
    assert any(s.scheme.kind == "rspa" for s, _ in corpus)


def test_recipient_found_once_per_settlement(monkeypatch):
    calls = {"transfer_report": 0, "first_pooled_reporter": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(verify, "transfer_report")
    counted(transfers, "first_pooled_reporter")
    s = fixture("example2")
    result = verify.check_budget(s, s.scheme, "no_deficit")
    assert result.checked == 26
    assert calls == {"transfer_report": 26, "first_pooled_reporter": 26}


# Planted first-reporter defects and the property that kills each.

def _tie_read_as_first_agent(scenario, transcript):
    earliest = reference_first_reports(scenario, transcript)
    return min(earliest, key=earliest.get) if earliest else None


def _premium_to_last_reporter(scenario, transcript):
    earliest = reference_first_reports(scenario, transcript)
    return max(earliest, key=earliest.get) if earliest else None


def test_mutant_tie_read_as_first_agent_is_killed_by_ex_ante_participation(monkeypatch):
    s = fixture("example2")
    assert verify.check_participation(s, s.scheme, "ex_ante_anticipated").holds
    monkeypatch.setattr(transfers, "first_pooled_reporter", _tie_read_as_first_agent)
    assert not verify.check_participation(s, s.scheme, "ex_ante_anticipated").holds


def test_mutant_premium_to_last_reporter_is_killed_by_dominance(monkeypatch):
    s = fixture("example2")
    assert verify.check_conditional_dominance(s, s.scheme).holds
    monkeypatch.setattr(transfers, "first_pooled_reporter", _premium_to_last_reporter)
    assert not verify.check_conditional_dominance(s, s.scheme).holds


def test_mechanism_run_plays_the_protocol_of_its_scheme():
    for name in ("example2", "example4r"):
        s = fixture(name)
        top = s.lattice.top
        dynamic = Mechanism(s, s.scheme._replace(kind=transfers.CLARKE))
        static = Mechanism(s, s.scheme._replace(kind=transfers.STATIC_VICKREY))
        draws = 0
        for true_profile in s.structure.profiles(top):
            for awareness in product(s.lattice.elements, repeat=len(s.agents)):
                draw = NatureDraw(true_profile, awareness)
                assert dynamic.run(draw, top) == engine.run(s, draw, top)
                assert static.run(draw, top) == engine.run_single_stage(s, draw, top)
                draws += 1
        assert draws > 1


def test_full_awareness_reduces_to_static_vcg():
    """With every agent aware of the top, the dynamic clarke settlement of
    every top-level profile is the static VCG settlement there: all agents
    reach the top together, so nobody earns a premium."""
    scenarios = [fixture(name) for name in ("example1", "example2", "example4r")]
    scenarios += [generate_scenario(2026, k) for k in range(20)]
    draws = 0
    for s in scenarios:
        assert s.scheme.kind == transfers.CLARKE
        top = s.lattice.top
        dynamic = Mechanism(s, s.scheme)
        static = Mechanism(s, s.scheme._replace(kind=transfers.STATIC_VICKREY))
        for true_profile in s.structure.profiles(top):
            draw = NatureDraw(true_profile, (top,) * len(s.agents))
            assert (dynamic.report(dynamic.run(draw, top))
                    == static.report(static.run(draw, top))), (s.name, true_profile)
            draws += 1
    assert draws == 166
