"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  All rational comparisons are exact; the only tolerances
are the stated wall-clock budgets.

Criterion 2b checks the published settlement of the two-bidder auction
under the documented clarke rule, where the premium is budget-neutral:
the recipient gains m and each other agent funds m/(n-1).  On the truthful
run bidder 2 wins at the second price, so the pivot parts are (0, -2);
bidder 1 first disclosed the pooled level and earns the premium 1, which
bidder 2 funds as a share of -1.  The settlement is therefore (+1, -3)
with operator surplus 2.  The published pair (bidder 2 nets -2, surplus 1)
is the operator-funded reading, in which the operator pays the premium
and bidder 2 pays only the second price; it appears here as the surplus
plus bidder 2's share.  That reading is rejected because it breaks
no-deficit: the example1 pivot scheme would then run a deficit of 2
(``tests/test_transfers.py::test_operator_funded_premium_gives_published_pair_and_a_deficit``).
"""
import time
from fractions import Fraction
from itertools import product

from elabmech import engine, verify
from elabmech.fixtures import fixture
from elabmech.generate import generate_scenario
from elabmech.lattice import lattice_violations
from elabmech.scenario import parse_scenario
from elabmech.transfers import Mechanism, SchemeConfig
from elabmech.typespace import TypeStructureError, build_structure


def _criterion(tag: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in clauses)
    print(f"\ncriterion {tag}: {'PASS' if ok else 'FAIL'}")
    for label, passed in clauses:
        if not passed:
            print(f"  failed clause: {label}")
    assert ok, f"criterion {tag}: " + "; ".join(l for l, p in clauses if not p)


def zero_y_tables(scenario):
    tables = {}
    for agent in scenario.agents:
        others = [a for a in scenario.agents if a != agent]
        for level in scenario.lattice.elements:
            for opp in product(*(scenario.structure.space(o, level) for o in others)):
                tables[(agent, level, opp)] = Fraction(0)
    return tables


def test_criterion_01_example1_reproduction():
    start = time.perf_counter()
    s = fixture("example1")
    t = engine.run(s, s.draw(), s.lattice.top)
    report = Mechanism(s, s.scheme).report(t)
    elapsed = time.perf_counter() - start
    _criterion("1 (procurement example, exact)", [
        ("stops at stage 3", t.stopped and t.n_stages == 3),
        ("outcome is production by seller 1", report.outcome == "produce1"),
        ("transfers exactly (0, 0, -80)",
         report.transfers == {"s1": Fraction(0), "s2": Fraction(0),
                              "buyer": Fraction(-80)}),
        ("operator surplus exactly 80", report.operator_balance == 80),
        ("no first pooled reporter", report.premium_recipient is None),
        ("runtime < 1 s", elapsed < 1.0),
    ])


def test_criterion_02a_example2_reproduction():
    start = time.perf_counter()
    s = fixture("example2")
    static = s.scheme._replace(kind="static_vickrey")
    t_static = engine.run_single_stage(s, s.draw(), "hi")
    r_static = Mechanism(s, static).report(t_static)
    static_pooled = verify.check_pooled_implementation(s, static)
    mech = Mechanism(s, s.scheme)
    t_dyn = engine.run(s, s.draw(), "hi")
    r_dyn = mech.report(t_dyn)
    elapsed = time.perf_counter() - start
    _criterion("2a (auction example: static failure, dynamic core)", [
        ("static mode allocates to bidder 1 at price 1",
         r_static.outcome == "win1" and r_static.transfers["a1"] == -1),
        ("static mode fails pooled implementation", not static_pooled.holds),
        ("dynamic pivot scheme allocates to bidder 2", r_dyn.outcome == "win2"),
        ("premium of the first discloser is exactly 1",
         mech.premium("a1", "hi") == 1),
        ("bidder 1 nets exactly +1", r_dyn.transfers["a1"] == 1),
        ("runtime < 1 s", elapsed < 1.0),
    ])


def test_criterion_02b_example2_published_settlement():
    # The published second price is bidder 2's pivot part; the budget-neutral
    # share of bidder 1's premium comes on top of it.  The published surplus
    # of 1 is what the operator would keep if it funded the premium itself.
    s = fixture("example2")
    r_dyn = Mechanism(s, s.scheme).report(engine.run(s, s.draw(), "hi"))
    pivot_a2 = r_dyn.transfers["a2"] - r_dyn.adjustments["a2"]
    _criterion("2b (auction example: published settlement figures)", [
        ("bidder 2 wins", r_dyn.outcome == "win2"),
        ("bidder 2 pays the second price: pivot part exactly -2", pivot_a2 == -2),
        ("bidder 2 funds the premium: share exactly -1",
         r_dyn.adjustments["a2"] == -1),
        ("bidder 2 nets exactly -3", r_dyn.transfers["a2"] == -3),
        ("bidder 1 nets exactly +1", r_dyn.transfers["a1"] == 1),
        ("adjustments sum to 0", sum(r_dyn.adjustments.values()) == 0),
        ("operator surplus exactly 2", r_dyn.operator_balance == 2),
        ("operator-funded surplus exactly 1 (published)",
         r_dyn.operator_balance + r_dyn.adjustments["a2"] == 1),
    ])


def test_criterion_03_conditional_dominance_at_desk_scale(ablate_premium):
    clauses = []
    for name in ("example1", "example2"):
        s = fixture(name)
        for label, scheme in (("clarke", s.scheme),
                              ("groves zero-y",
                               SchemeConfig(kind="groves", y_tables=zero_y_tables(s)))):
            start = time.perf_counter()
            result = verify.check_conditional_dominance(s, scheme, bound=10 ** 7)
            elapsed = time.perf_counter() - start
            clauses.append((f"{name} {label} dominance holds", result.holds))
            clauses.append((f"{name} {label} under 60 s", elapsed < 60.0))
    for k in range(20):
        s = generate_scenario(301, k)
        start = time.perf_counter()
        ok_clarke = verify.check_conditional_dominance(s, s.scheme).holds
        groves = SchemeConfig(kind="groves", y_tables=zero_y_tables(s))
        ok_groves = verify.check_conditional_dominance(s, groves).holds
        elapsed = time.perf_counter() - start
        clauses.append((f"generated {k} dominance holds (both schemes)",
                        ok_clarke and ok_groves))
        clauses.append((f"generated {k} under 60 s", elapsed < 60.0))
    s2 = fixture("example2")
    ablate_premium()
    result = verify.check_conditional_dominance(s2, s2.scheme)
    concealment = (not result.holds
                   and result.witnesses[0].replay["deviation_stages"][0][0]
                   in ("a1lo1", "a1lo2"))
    clauses.append(("premium-ablated pivot scheme fails with an "
                    "awareness-concealment witness", concealment))
    _criterion("3 (truthful dominance at desk scale)", clauses)


def test_criterion_04_three_stage_bound():
    clauses = []
    for name in ("example1", "example2", "example4r"):
        s = fixture(name)
        clauses.append((f"{name} stops within 3 stages",
                        verify.check_stage_bound(s).holds))
    for k in range(20):
        s = generate_scenario(401, k)
        clauses.append((f"generated {k} stops within 3 stages",
                        verify.check_stage_bound(s).holds))
    _criterion("4 (three-stage bound under truth-telling)", clauses)


def test_criterion_05_no_deficit_and_budget_discrimination():
    clauses = []
    for name in ("example1", "example2", "example4r"):
        s = fixture(name)
        result = verify.check_budget(s, s.scheme, "no_deficit", bound=10 ** 6)
        clauses.append((f"{name} pivot scheme never runs a deficit", result.holds))
    for k in range(20):
        s = generate_scenario(501, k)
        clauses.append((f"generated {k} no deficit",
                        verify.check_budget(s, s.scheme, "no_deficit").holds))
    s2 = fixture("example2")
    y = {key: Fraction(7 if key[0] == "a1" else 0) for key in zero_y_tables(s2)}
    adversarial = SchemeConfig(kind="groves", y_tables=y)
    result = verify.check_budget(s2, adversarial, "balance")
    pinpointed = (not result.holds and result.witnesses
                  and Fraction(result.witnesses[0].replay["sum"]) != 0)
    clauses.append(("adversarial-y groves imbalance is pinpointed", pinpointed))
    _criterion("5 (no deficit; budget discrimination)", clauses)


SEPARABLE = """
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
"""

GENERIC = """
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
"""


def test_criterion_06_budget_balance_characterization_roundtrip():
    separable = parse_scenario(SEPARABLE, name="separable")
    g = verify.find_g(separable)
    clauses = [("separable welfare admits a decomposition", g is not None)]
    if g is not None:
        clauses.append(("decomposition reproduces welfare everywhere",
                        verify.check_holmstrom(separable, g).holds))
        derived = SchemeConfig(kind="groves", y_tables=verify.derive_y_from_g(separable, g))
        clauses.append(("derived-y groves scheme balances exactly on every transcript",
                        verify.check_budget(separable, derived, "balance").holds))
    generic = parse_scenario(GENERIC, name="generic")
    clauses.append(("generic auction welfare is certified infeasible",
                    verify.find_g(generic) is None
                    and not verify.check_decomposition(generic).holds))
    _criterion("6 (budget-balance characterization round-trip)", clauses)


def test_criterion_07_participation():
    clauses = []
    for k in range(20):
        s = generate_scenario(701, k)
        if not verify.check_nonnegative_valuations(s).holds:
            clauses.append((f"generated {k} violates nonnegativity unexpectedly", False))
            continue
        clauses.append((f"generated {k} ex-ante anticipated participation holds",
                        verify.check_participation(s, s.scheme,
                                                   "ex_ante_anticipated").holds))
    s1 = fixture("example1")
    result = verify.check_participation(s1, s1.scheme, "ex_post")
    witness = (not result.holds
               and any(w.replay["agent"] == "s1" and Fraction(w.replay["utility"]) < 0
                       for w in result.witnesses))
    clauses.append(("pivot scheme ex-post participation fails on the procurement "
                    "example with a seller-1 witness", witness))
    _criterion("7 (participation constraints)", clauses)


def test_criterion_08_reconstructed_interim_regret():
    s = fixture("example4r")
    ex_ante = verify.check_participation(s, s.scheme, "ex_ante_anticipated")
    ex_post = verify.check_participation(s, s.scheme, "ex_post")
    interim = [w for w in ex_post.witnesses if w.replay["stage"] > 1]
    _criterion("8 (reconstructed interim participation violation)", [
        ("ex-ante anticipated participation holds", ex_ante.holds),
        ("ex-post participation fails", not ex_post.holds),
        ("the violation sits at an interim information set with strictly "
         "negative utility",
         any(Fraction(w.replay["utility"]) < 0 for w in interim)),
        ("the interim utility is -1, mirroring the premium-share regret",
         any(Fraction(w.replay["utility"]) == -1 for w in interim)),
    ])


def test_criterion_09_reverse_auction_properties():
    clauses = []
    for k in range(20):
        s = generate_scenario(901, k, procurement=True)
        clauses.append((f"procurement {k} budget balances exactly",
                        verify.check_budget(s, s.scheme, "balance").holds))
        clauses.append((f"procurement {k} sellers never regret ex post",
                        verify.check_participation(s, s.scheme, "ex_post").holds))
        clauses.append((f"procurement {k} seller truth-telling is dominant",
                        verify.check_conditional_dominance(s, s.scheme,
                                                           bound=2 * 10 ** 6).holds))
    _criterion("9 (reverse second price auction)", clauses)


def test_criterion_10_structural_suite():
    start = time.perf_counter()
    clauses = []
    intact = 0
    for k in range(100):
        s = generate_scenario(1000 + k, 0, procurement=(k % 3 == 0))
        lat = s.lattice
        order = [(a, b) for a in lat.elements for b in lat.elements if lat.leq(a, b)]
        if lattice_violations(lat.elements, order):
            continue
        st = s.structure
        laws = True
        for agent in s.agents:
            for hi in lat.elements:
                for t in st.space(agent, hi):
                    laws &= st.project(agent, t, hi) == t
                for mid in lat.strictly_below(hi):
                    image = {st.project(agent, t, mid) for t in st.space(agent, hi)}
                    laws &= image == set(st.space(agent, mid))
                    for lo in lat.strictly_below(mid):
                        laws &= all(st.project(agent, st.project(agent, t, mid), lo)
                                    == st.project(agent, t, lo)
                                    for t in st.space(agent, hi))
        if laws:
            intact += 1
    clauses.append(("100 seeded structures satisfy every law", intact == 100))

    import random
    caught = 0
    for k in range(20):
        rng = random.Random(f"acc:{k}")
        s = generate_scenario(1100 + k, 0)
        maps = {}
        for a in s.agents:
            for lo, hi in s.lattice.covers():
                maps[(a, hi, lo)] = {t: s.structure.project(a, t, lo)
                                     for t in s.structure.space(a, hi)}
        agent = rng.choice(s.agents)
        lo, hi = rng.choice(s.lattice.covers())
        victim = rng.choice(s.structure.space(agent, hi))
        del maps[(agent, hi, lo)][victim]
        try:
            build_structure(s.lattice, s.agents, dict(s.structure.spaces), maps)
        except TypeStructureError:
            caught += 1
    clauses.append(("20 mutated structures correctly fail validation", caught == 20))

    monotone = True
    for k in range(10):
        s = generate_scenario(1200 + k, 1)
        top = s.lattice.top
        state = engine.initial_state(s, top, next(s.structure.profiles(top)),
                                     (top,) * len(s.agents))
        from itertools import islice
        for terminal in islice(
                engine.iter_completions(s, state, {a: engine.FREE for a in s.agents}), 300):
            monotone &= all(s.lattice.leq(a, b)
                            for a, b in zip(terminal.pooled, terminal.pooled[1:]))
    clauses.append(("pooled levels weakly increase along every transcript", monotone))
    clauses.append(("runtime < 30 s", time.perf_counter() - start < 30.0))
    _criterion("10 (structural property suite)", clauses)
