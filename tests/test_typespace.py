import pytest

from elabmech.fixtures import fixture
from elabmech.lattice import build_lattice
from elabmech.typespace import (LevelNotBelow, NatureDraw, TypeStructureError,
                                UnknownType, build_structure, validate_draw)


def chain3():
    return build_lattice(["l0", "l1", "l2"], [("l0", "l1"), ("l1", "l2")])


def chain3_structure():
    lat = chain3()
    spaces = {("a", "l0"): ("t0",), ("a", "l1"): ("t1",), ("a", "l2"): ("t2", "t2b")}
    maps = {("a", "l1", "l0"): {"t1": "t0"},
            ("a", "l2", "l1"): {"t2": "t1", "t2b": "t1"}}
    return lat, spaces, maps


def test_fixture_structure_validates_and_projects():
    s = fixture("example1")
    assert s.structure.project("s1", "s1t80", "ab") == "s1ab"
    assert s.structure.project("s1", "s1t79", "ab") == "s1ab"


def test_identity_projection():
    s = fixture("example1")
    for agent in s.agents:
        for level in s.lattice.elements:
            for t in s.structure.space(agent, level):
                assert s.structure.project(agent, t, level) == t


def test_composition_squares_exhaustively():
    # oracle: every two-step path equals the direct projection
    s = fixture("example1")
    lat = s.lattice
    for agent in s.agents:
        for hi in lat.elements:
            for mid in lat.strictly_below(hi):
                for lo in lat.strictly_below(mid):
                    for t in s.structure.space(agent, hi):
                        two_step = s.structure.project(agent,
                                                       s.structure.project(agent, t, mid), lo)
                        assert two_step == s.structure.project(agent, t, lo)


def test_long_edge_cross_checked_against_composition():
    lat = chain3()
    spaces = {("a", "l0"): ("t0", "t0b"), ("a", "l1"): ("t1", "t1b"),
              ("a", "l2"): ("t2", "t2b")}
    maps = {("a", "l1", "l0"): {"t1": "t0", "t1b": "t0b"},
            ("a", "l2", "l1"): {"t2": "t1", "t2b": "t1b"},
            ("a", "l2", "l0"): {"t2": "t0", "t2b": "t0b"}}
    build_structure(lat, ["a"], spaces, maps)  # agreeing long edge is fine
    maps[("a", "l2", "l0")] = {"t2": "t0b", "t2b": "t0"}  # contradicts the composite
    with pytest.raises(TypeStructureError) as err:
        build_structure(lat, ["a"], spaces, maps)
    assert any("disagrees with" in v for v in err.value.violations)


def test_missing_projection_edge_named():
    lat, spaces, maps = chain3_structure()
    del maps[("a", "l2", "l1")]
    with pytest.raises(TypeStructureError) as err:
        build_structure(lat, ["a"], spaces, maps)
    assert any("l2 -> l1" in v for v in err.value.violations)


def test_non_surjective_projection_rejected():
    lat = chain3()
    spaces = {("a", "l0"): ("t0", "t0b"), ("a", "l1"): ("t1",), ("a", "l2"): ("t2",)}
    maps = {("a", "l1", "l0"): {"t1": "t0"}, ("a", "l2", "l1"): {"t2": "t1"}}
    with pytest.raises(TypeStructureError) as err:
        build_structure(lat, ["a"], spaces, maps)
    assert any("surjective" in v for v in err.value.violations)


def test_empty_space_rejected():
    lat = chain3()
    spaces = {("a", "l0"): ("t0",), ("a", "l2"): ("t2",)}
    with pytest.raises(TypeStructureError) as err:
        build_structure(lat, ["a"], spaces, {})
    assert any("l1" in v for v in err.value.violations)


def test_duplicate_type_across_levels_rejected():
    lat = build_lattice(["l0", "l1"], [("l0", "l1")])
    spaces = {("a", "l0"): ("t",), ("a", "l1"): ("t",)}
    with pytest.raises(TypeStructureError) as err:
        build_structure(lat, ["a"], spaces, {("a", "l1", "l0"): {"t": "t"}})
    assert any("declared at both" in v for v in err.value.violations)


def upset(structure, agent, t):
    """All elaborations of ``t`` at weakly higher levels, including ``t``:
    the union of its preimages at every level above its own."""
    lattice = structure.lattice
    own = structure.level_of(agent, t)
    return frozenset(e for hi in lattice.elements if lattice.leq(own, hi)
                     for e in structure.preimage(agent, t, hi))


def perceived_type(structure, agent, draw, level):
    """Type and effective awareness of ``agent`` within the ``level``-partial game."""
    i = structure.agent_index(agent)
    effective = structure.lattice.meet(draw.awareness[i], level)
    return structure.project(agent, draw.true_types[i], effective), effective


def test_upset_contains_all_elaborations():
    s = fixture("example1")
    up = upset(s.structure, "s1", "s1ab")
    assert {"s1ab", "s1t80", "s1t79"} <= up
    # a top-level type only elaborates to itself
    assert upset(s.structure, "s1", "s1t80") == frozenset({"s1t80"})


def test_upset_size_matches_preimage_counts():
    # oracle: 1 + preimages at every strictly higher level, counted directly
    s = fixture("example2")
    st = s.structure
    for agent in s.agents:
        for level in s.lattice.elements:
            for t in st.space(agent, level):
                expected = 1
                for hi in s.lattice.elements:
                    if s.lattice.lt(level, hi):
                        expected += sum(1 for cand in st.space(agent, hi)
                                        if st.project(agent, cand, level) == t)
                assert len(upset(st, agent, t)) == expected


def test_level_of():
    s = fixture("example1")
    assert s.structure.level_of("s1", "s1ab") == "ab"
    assert s.structure.level_of("s1", "s1t80") == "abc"
    with pytest.raises(UnknownType):
        s.structure.level_of("s1", "nope")


def test_level_of_projection_is_target_level():
    s = fixture("example1")
    for t in s.structure.space("s1", "abc"):
        for level in s.lattice.elements:
            assert s.structure.level_of("s1", s.structure.project("s1", t, level)) == level


def test_project_requires_weakly_lower_level():
    s = fixture("example1")
    with pytest.raises(LevelNotBelow):
        s.structure.project("s1", "s1ab", "abc")


def test_pooled_level():
    s = fixture("example1")
    profile = ("s1ab", "s2bc", "bue")
    assert s.structure.pooled_level(profile) == "abc"
    assert s.structure.pooled_level(("s1ab", "s2ab", "buab")) == "ab"


def test_pooled_level_on_diamond_with_incomparable_levels():
    # oracle: brute-force least upper bound
    lat = build_lattice(["bot", "w", "e", "top"],
                        [("bot", "w"), ("bot", "e"), ("w", "top"), ("e", "top")])
    spaces = {}
    maps = {}
    for agent in ("a1", "a2"):
        for level in lat.elements:
            spaces[(agent, level)] = (f"{agent}{level}",)
        for lo, hi in lat.covers():
            maps[(agent, hi, lo)] = {f"{agent}{hi}": f"{agent}{lo}"}
    st = build_structure(lat, ["a1", "a2"], spaces, maps)
    assert st.pooled_level(("a1w", "a2e")) == "top"
    uppers = [c for c in lat.elements if lat.leq("w", c) and lat.leq("e", c)]
    assert min(uppers, key=lambda c: len(lat.down_set(c))) == "top"


def test_perceived_type_in_partial_games():
    s = fixture("example2")
    draw = s.draw("main")  # true (a1hi2, a2hi3), awareness (hi, lo)
    assert perceived_type(s.structure, "a2", draw, "hi") == ("a2lo", "lo")
    assert perceived_type(s.structure, "a1", draw, "hi") == ("a1hi2", "hi")
    # within the lo-partial game agent 1 perceives only the projection
    assert perceived_type(s.structure, "a1", draw, "lo") == ("a1lo2", "lo")


def test_perceived_type_consistent_across_partial_games():
    s = fixture("example1")
    st = s.structure
    for name, draw in s.draws.items():
        for agent in s.agents:
            for game in s.lattice.elements:
                t_game, lvl_game = perceived_type(st, agent, draw, game)
                for lower in s.lattice.down_set(game):
                    t_low, lvl_low = perceived_type(st, agent, draw, lower)
                    meet = s.lattice.meet(lvl_game, lvl_low)
                    assert st.project(agent, t_game, meet) == st.project(agent, t_low, meet)


def test_type_is_in_upset_of_its_projection():
    s = fixture("example2")
    st = s.structure
    for agent in s.agents:
        for level in s.lattice.elements:
            for t in st.space(agent, level):
                for lower in s.lattice.down_set(level):
                    assert t in upset(st, agent, st.project(agent, t, lower))


def test_projection_surjective_by_image_enumeration():
    s = fixture("example1")
    st = s.structure
    for agent in s.agents:
        for hi in s.lattice.elements:
            for lo in s.lattice.strictly_below(hi):
                image = {st.project(agent, t, lo) for t in st.space(agent, hi)}
                assert image == set(st.space(agent, lo))


def test_validate_draw_catches_bad_entries():
    s = fixture("example2")
    bad = NatureDraw(("a1lo1", "a2hi3"), ("hi", "lo"))
    assert validate_draw(s.structure, bad)
    ok = NatureDraw(("a1hi1", "a2hi2"), ("lo", "hi"))
    assert not validate_draw(s.structure, ok)


def _projection_inputs():
    """(lattice, agents, spaces, tables) of the fixtures and 20 generated
    scenarios, with a table for every pair of levels, cover or longer."""
    from elabmech.generate import generate_scenario
    scenarios = [fixture(name) for name in ("example1", "example2", "example4r")]
    scenarios += [generate_scenario(2026, k) for k in range(20)]
    for s in scenarios:
        st, lat = s.structure, s.lattice
        tables = {(agent, hi, lo): {t: st.project(agent, t, lo) for t in st.space(agent, hi)}
                  for agent in s.agents for hi in lat.elements for lo in lat.elements
                  if lat.lt(lo, hi)}
        yield lat, s.agents, st.spaces, tables


def _single_entry_mutations(spaces, tables):
    """Each table set with one entry retargeted to another type, or dropped."""
    for key, table in tables.items():
        agent, _, lo = key
        for t, dst in table.items():
            for other in (*(u for u in spaces[(agent, lo)] if u != dst), None):
                mutated = {k: dict(v) for k, v in tables.items()}
                if other is None:
                    del mutated[key][t]
                else:
                    mutated[key][t] = other
                yield mutated


def _full_or_none(lattice, agents, spaces, tables):
    try:
        return build_structure(lattice, agents, spaces, tables)._proj
    except TypeStructureError:
        return None


def test_composite_matches_the_all_paths_reference_on_single_entry_mutations():
    # oracle: today's composition comparing every covering path
    import reference
    verdicts = set()
    for lattice, agents, spaces, tables in _projection_inputs():
        covers = {(agent, hi, lo) for agent in agents for lo, hi in lattice.covers()}
        for supplied in (tables, {k: v for k, v in tables.items() if k in covers}):
            for mutated in (supplied, *_single_entry_mutations(spaces, supplied)):
                want = reference.compose_projections(lattice, agents, spaces, mutated)
                assert _full_or_none(lattice, agents, spaces, mutated) == want
                verdicts.add(want is None)
    assert verdicts == {True, False}
