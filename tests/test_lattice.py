from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from elabmech.lattice import (EmptyLattice, NotALattice, UnknownLevel,
                              build_lattice, lattice_violations)

ITEMS = ("a", "b", "c")
POWERSET = ["".join(s) or "e" for k in range(4) for s in combinations(ITEMS, k)]


def powerset_lattice():
    def members(name):
        return set() if name == "e" else set(name)
    order = [(x, y) for x in POWERSET for y in POWERSET if members(x) <= members(y)]
    return build_lattice(POWERSET, order)


def test_powerset_is_a_valid_lattice_with_expected_top():
    lat = powerset_lattice()
    assert lat.top == "abc"
    assert lat.bottom == "e"
    assert len(lat.elements) == 8


def test_single_point_lattice():
    lat = build_lattice(["only"], [("only", "only")])
    assert lat.top == lat.bottom == "only"
    assert lat.down_set("only") == frozenset({"only"})


def test_two_incomparable_elements_without_bounds_is_not_a_lattice():
    violations = lattice_violations(["a", "b"], [])
    assert any("join" in v for v in violations)
    with pytest.raises(NotALattice):
        build_lattice(["a", "b"], [])


def test_empty_element_set_rejected():
    with pytest.raises(EmptyLattice):
        build_lattice([], [])


def test_antisymmetry_breach_reported():
    violations = lattice_violations(["x", "y"], [("x", "y"), ("y", "x")])
    assert any("antisymmetry" in v for v in violations)


def test_join_and_meet_examples():
    lat = powerset_lattice()
    assert lat.join("ab", "bc") == "abc"
    assert lat.join("ab", "ab") == "ab"
    assert lat.meet("ab", "bc") == "b"


def test_meet_matches_brute_force_over_lower_bounds():
    # oracle: max-cardinality common lower bound in the powerset order
    lat = powerset_lattice()

    def members(name):
        return set() if name == "e" else set(name)

    for a in lat.elements:
        for b in lat.elements:
            lower = [c for c in lat.elements
                     if members(c) <= members(a) and members(c) <= members(b)]
            best = max(lower, key=lambda c: len(members(c)))
            assert lat.meet(a, b) == best


def test_down_set_and_strictly_below():
    lat = powerset_lattice()
    assert lat.down_set("ab") == frozenset({"e", "a", "b", "ab"})
    assert lat.strictly_below("e") == frozenset()
    assert lat.down_set("abc") == frozenset(lat.elements)


def test_order_join_meet_consistency():
    lat = powerset_lattice()
    for a in lat.elements:
        for b in lat.elements:
            assert lat.leq(a, b) == (lat.join(a, b) == b) == (lat.meet(a, b) == a)


def test_join_meet_laws_exhaustive():
    lat = powerset_lattice()
    for a, b in product(lat.elements, repeat=2):
        assert lat.join(a, b) == lat.join(b, a)
        assert lat.meet(a, b) == lat.meet(b, a)
        assert lat.join(a, a) == a and lat.meet(a, a) == a
    for a, b, c in product(lat.elements, repeat=3):
        assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
        assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


def test_down_set_is_a_sublattice_with_that_top():
    lat = powerset_lattice()
    for level in lat.elements:
        down = lat.down_set(level)
        sub = build_lattice(sorted(down), [(x, y) for x in down for y in down
                                           if lat.leq(x, y)])
        assert sub.top == level


def test_closure_computed_from_hasse_edges():
    lat = build_lattice(["l0", "l1", "l2"], [("l0", "l1"), ("l1", "l2")])
    assert lat.leq("l0", "l2")
    assert lat.top == "l2" and lat.bottom == "l0"
    assert lat.height() == 2


def test_unknown_level_raises():
    lat = powerset_lattice()
    with pytest.raises(UnknownLevel):
        lat.join("ab", "zz")
    with pytest.raises(UnknownLevel):
        lat.down_set("zz")
    queries = [lat.leq, lat.lt, lat.join, lat.meet, lambda a, b: lat.join_all([a, b])]
    for query in queries:
        for args in (("ab", "zz"), ("zz", "ab")):
            with pytest.raises(UnknownLevel, match="'zz'"):
                query(*args)
    for query in (lat.down_set, lat.strictly_below, lambda a: lat.join_all([a])):
        with pytest.raises(UnknownLevel, match="'zz'"):
            query("zz")


def test_covers_are_hasse_edges():
    lat = build_lattice(["bot", "w", "e", "top"],
                        [("bot", "w"), ("bot", "e"), ("w", "top"), ("e", "top")])
    assert set(lat.covers()) == {("bot", "w"), ("bot", "e"), ("w", "top"), ("e", "top")}


@given(st.sets(st.sampled_from(POWERSET), min_size=1).filter(lambda s: "e" in s and "abc" in s))
def test_random_sublattices_of_powerset_validate_or_fail_cleanly(subset):
    def members(name):
        return set() if name == "e" else set(name)
    order = [(x, y) for x in subset for y in subset if members(x) <= members(y)]
    violations = lattice_violations(sorted(subset), order)
    if not violations:
        lat = build_lattice(sorted(subset), order)
        for a in lat.elements:
            for b in lat.elements:
                assert lat.leq(lat.meet(a, b), a)
                assert lat.leq(a, lat.join(a, b))
    else:
        # every reported violation names a concrete witness pair
        assert all("witness" in v or "breach" in v for v in violations)


def test_build_lattice_accepts_a_generator_order():
    pairs = [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")]
    lat = build_lattice(["bot", "a", "b", "top"], (p for p in pairs))
    assert lat.join("a", "b") == "top" and lat.meet("a", "b") == "bot"
    assert lattice_violations(["bot", "a", "b", "top"], (p for p in pairs)) == []
    assert lattice_violations(["a", "b"], (p for p in [])) == [
        "no unique join witness for (a, b)", "no unique meet witness for (a, b)"]
