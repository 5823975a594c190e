from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from elabmech import engine
from elabmech.fixtures import FIXTURES, fixture
from elabmech.generate import generate_scenario
from elabmech.scenario import (ParseError, UnknownDraw, ValidationError, parse_scenario,
                               serialize_scenario)

MINIMAL = """
[lattice]
elements: l0
[agents]
agents: solo
[types]
space: solo l0 t
[projections]
[outcomes]
outcomes: x
available: l0 x
[valuations]
value: solo t x 1
[scheme]
kind: clarke
"""

# One agent on the four-level diamond; both paths from top to bot agree.
DIAMOND = """
[lattice]
elements: bot west east top
edge: bot west
edge: bot east
edge: west top
edge: east top
[agents]
agents: a
[types]
space: a bot b0 b1
space: a west w0 w1
space: a east e0 e1
space: a top t0 t1
[projections]
map: a top west t0 w0
map: a top west t1 w1
map: a top east t0 e0
map: a top east t1 e1
map: a west bot w0 b0
map: a west bot w1 b1
map: a east bot e0 b0
map: a east bot e1 b1
[outcomes]
outcomes: x
available: bot x
available: west x
available: east x
available: top x
[valuations]
value: a b0 x 0
value: a b1 x 0
value: a w0 x 0
value: a w1 x 0
value: a e0 x 0
value: a e1 x 0
value: a t0 x 0
value: a t1 x 0
"""

# Two broken diamonds whose diagnostics once varied with the hash seed: the
# paths through east and west disagree, or both top covers are missing.
DIAMOND_PROBES = {
    "non-commuting": DIAMOND.replace("map: a east bot e0 b0\nmap: a east bot e1 b1",
                                     "map: a east bot e0 b1\nmap: a east bot e1 b0"),
    "missing-covers": "".join(line for line in DIAMOND.splitlines(keepends=True)
                              if not line.startswith("map: a top ")),
}


def test_fixtures_load_with_expected_shape():
    s = fixture("example1")
    assert s.agents == ("s1", "s2", "buyer")
    assert len(s.lattice.elements) == 8
    assert s.lattice.top == "abc"
    assert s.scheme.kind == "clarke"
    assert "main" in s.draws

    s2 = fixture("example2")
    assert s2.agents == ("a1", "a2")
    assert s2.outcomes.tie_break == ("win1", "win2")

    with pytest.raises(KeyError):
        fixture("nope")


def test_minimal_single_agent_file_loads():
    s = parse_scenario(MINIMAL)
    assert s.agents == ("solo",)
    assert s.draws == {}


def test_missing_projection_edge_reported_with_names():
    text = FIXTURES["example2"].replace("map: a2 hi lo a2hi3 a2lo\n", "")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert any("a2" in v and "hi -> lo" in v for v in err.value.violations)


def test_missing_valuation_entry_reported():
    text = FIXTURES["example2"].replace("value: a2 a2hi3 win1 0\n", "")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert any("missing valuation (a2, a2hi3, win1)" in v for v in err.value.violations)


def test_replace_rebuilds_menus_and_stage_cap():
    first, second = fixture("example1"), fixture("example2")
    assert first.stage_cap != second.stage_cap
    moved = first._replace(lattice=second.lattice, structure=second.structure)
    assert moved.menus == second.menus and moved.menus != first.menus
    assert moved.stage_cap == second.stage_cap == engine.max_stages(moved)
    assert (moved.outcomes, moved.scheme, moved.draws, moved.name) == \
        (first.outcomes, first.scheme, first.draws, first.name)
    with pytest.raises(TypeError):
        first._replace(menus={})


def test_roundtrip_fixtures():
    for name in FIXTURES:
        s = fixture(name)
        text = serialize_scenario(s)
        again = parse_scenario(text, name=name)
        assert serialize_scenario(again) == text


def test_roundtrip_generated():
    for k in range(6):
        for procurement in (False, True):
            s = generate_scenario(13, k, procurement=procurement)
            text = serialize_scenario(s)
            assert serialize_scenario(parse_scenario(text)) == text


def test_rational_parsing():
    text = MINIMAL.replace("value: solo t x 1", "value: solo t x -7/3")
    s = parse_scenario(text)
    assert s.outcomes.value("solo", "t", "x") == Fraction(-7, 3)
    with pytest.raises(ParseError):
        parse_scenario(MINIMAL.replace("value: solo t x 1", "value: solo t x nope"))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_scenario("stray: line\n")
    with pytest.raises(ParseError):
        parse_scenario("[lattice]\nnot a record\n")
    with pytest.raises(ParseError):
        parse_scenario("[mystery]\nkey: value\n")
    with pytest.raises(ParseError):
        parse_scenario("[lattice]\nedge: just_one\n")


def test_lattice_violations_surface_at_load():
    bad = MINIMAL.replace("elements: l0", "elements: l0 l1")  # l1 incomparable
    with pytest.raises(ValidationError) as err:
        parse_scenario(bad)
    assert any("lattice" in v for v in err.value.violations)


def test_declared_top_must_match_computed():
    text = FIXTURES["example2"].replace("top: hi", "top: lo")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert any("declared top" in v for v in err.value.violations)


def test_groves_scheme_requires_complete_y_tables():
    text = MINIMAL.replace("kind: clarke", "kind: groves")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert any("missing y entry" in v for v in err.value.violations)
    complete = text.replace("kind: groves", "kind: groves\ny: solo l0 2")
    s = parse_scenario(complete)
    assert s.scheme.y_tables[("solo", "l0", ())] == 2


def test_rspa_needs_two_sellers_at_load():
    base = FIXTURES["example2"]
    with_rspa = base.replace("kind: clarke", "kind: rspa\nbuyer: a2\nsupply: a1 win1")
    with pytest.raises(ValidationError) as err:
        parse_scenario(with_rspa)
    assert any("two sellers" in v for v in err.value.violations)


def test_rspa_rejects_nonzero_off_supply_values():
    from test_transfers import PROCUREMENT
    text = PROCUREMENT.replace("value: s1 s1lo supply_s2 0", "value: s1 s1lo supply_s2 3")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert any("off own supply" in v for v in err.value.violations)


def test_rspa_requires_supply_outcomes_available_everywhere():
    from test_transfers import PROCUREMENT
    text = PROCUREMENT.replace("available: lo supply_s1 supply_s2 idle",
                               "available: lo supply_s1 idle")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert any("unavailable at level lo" in v for v in err.value.violations)


@pytest.mark.parametrize("section, record", [
    ("lattice", "top"), ("lattice", "bottom"), ("outcomes", "available"),
    ("scheme", "kind"), ("scheme", "buyer"), ("scheme", "simplified_premium_ok")])
def test_record_without_a_value_is_a_parse_error(section, record):
    text = MINIMAL.replace(f"[{section}]\n", f"[{section}]\n{record}:\n", 1)
    lineno = text.splitlines().index(f"{record}:") + 1
    with pytest.raises(ParseError, match=f"line {lineno}: record '{record}' has no value"):
        parse_scenario(text)


# (section, line) of every record that takes one value, each valid in MINIMAL
SINGLE_VALUED = [("lattice", "top: l0"), ("lattice", "bottom: l0"), ("scheme", "kind: clarke"),
                 ("scheme", "buyer: solo"), ("scheme", "simplified_premium_ok: true")]


def _with_record(section, line):
    """MINIMAL, less its kind record, with ``line`` first in ``section``."""
    bare = MINIMAL.replace("kind: clarke\n", "")
    return bare.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)


@pytest.mark.parametrize("section, line", SINGLE_VALUED)
def test_surplus_value_on_a_single_valued_record_is_a_parse_error(section, line):
    text = _with_record(section, line)
    parse_scenario(text)
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(ParseError, match=f"line {lineno}: record '{line.split(':')[0]}' takes "
                                         f"exactly 1 value, got 2"):
        parse_scenario(text.replace(line, line + " junk"))


@pytest.mark.parametrize("section, line", SINGLE_VALUED + [("outcomes", "tie_break: x")])
def test_repeated_single_record_is_a_parse_error_naming_both_lines(section, line):
    text = _with_record(section, f"{line}\n{line}")
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(ParseError, match=f"line {lineno + 1}: record '{line.split(':')[0]}' "
                                         f"repeats line {lineno}"):
        parse_scenario(text)


@pytest.mark.parametrize("word, value", [("true", True), ("YES", True), ("1", True),
                                         ("False", False), ("no", False), ("0", False)])
def test_premium_flag_accepts_six_words_in_any_case(word, value):
    text = _with_record("scheme", f"simplified_premium_ok: {word}")
    assert parse_scenario(text).scheme.simplified_premium_ok is value


@pytest.mark.parametrize("word", ["ture", "flase", "2", "on"])
def test_misspelled_premium_flag_is_a_parse_error(word):
    text = _with_record("scheme", f"simplified_premium_ok: {word}")
    lineno = text.splitlines().index(f"simplified_premium_ok: {word}") + 1
    with pytest.raises(ParseError, match=f"line {lineno}: record 'simplified_premium_ok' takes "
                                         f"true/yes/1 or false/no/0, got '{word}'"):
        parse_scenario(text)


def test_draw_naming_an_undeclared_agent_is_a_violation():
    text = FIXTURES["example2"].replace("levels a1=hi", "a9=zz levels a1=hi")
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.violations == ["draw main: undeclared agent a9"]


@pytest.mark.parametrize("section, line, violation", [
    ("types", "space: a2 mid a2m", "types: space (a2, mid) references undeclared names"),
    ("types", "space: a3 hi zz", "types: space (a3, hi) references undeclared names"),
    ("outcomes", "available: mid win1", "outcomes: available(mid) names an undeclared level"),
    ("projections", "map: a3 hi lo zz1 zz0",
     "types: projection (a3, hi -> lo) references undeclared names"),
])
def test_record_naming_an_undeclared_agent_or_level_is_a_violation(section, line, violation):
    text = FIXTURES["example2"] + f"\n[{section}]\n{line}\n"
    with pytest.raises(ValidationError) as err:
        parse_scenario(text)
    assert err.value.violations == [violation]


@pytest.mark.parametrize("old, new", [("types a1=a1hi2", "types a1=a1hi2 a1=a1lo2"),
                                      ("levels a1=hi", "levels a1=hi a1=lo")])
def test_draw_naming_an_agent_twice_is_a_parse_error(old, new):
    text = FIXTURES["example2"].replace(old, new)
    lineno = next(n for n, line in enumerate(text.splitlines(), 1) if new in line)
    with pytest.raises(ParseError, match=f"line {lineno}: draw names a1 twice"):
        parse_scenario(text)


FUZZ_TEXTS = [FIXTURES[name] for name in sorted(FIXTURES)] + [MINIMAL]
JUNK = ["zz", "0", "-1/2", "1/0", "a9=zz", "types", "levels", "[zz]", ":", "x:y", "#"]


@st.composite
def mutated_text(draw):
    """A fixture text with a few tokens deleted, duplicated, swapped or
    replaced, or lines deleted."""
    text = draw(st.sampled_from(FUZZ_TEXTS))
    pool = sorted(set(text.split())) + JUNK
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        op = draw(st.sampled_from(["delete line", "delete", "duplicate", "swap", "replace"]))
        if op == "delete line" or not tokens:
            del lines[i]
            continue
        j = draw(st.integers(0, len(tokens) - 1))
        if op == "delete":
            del tokens[j]
        elif op == "duplicate":
            tokens.insert(j, tokens[j])
        elif op == "swap":
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[j], tokens[k] = tokens[k], tokens[j]
        else:
            tokens[j] = draw(st.sampled_from(pool))
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_text())
def test_mutated_fixture_text_fails_cleanly_or_round_trips(text):
    try:
        scenario = parse_scenario(text)
    except (ParseError, ValidationError):
        return
    once = serialize_scenario(scenario)
    assert serialize_scenario(parse_scenario(once)) == once


@pytest.mark.parametrize("section, first, repeat", [
    ("projections", "map: a1 hi lo a1hi2 a1lo1", "map: a1 hi lo a1hi2 a1lo2"),
    ("valuations", "value: a2 a2hi3 win1 5", "value: a2 a2hi3 win1 0"),
    ("scheme", "supply: a1 win1", "supply: a1 win2"),
    ("scheme", "y: a1 hi a2hi2 1", "y: a1 hi a2hi2 2"),
    ("nature", "draw: main types a1=a1hi1 a2=a2lo levels a1=hi a2=lo",
     "draw: main types a1=a1hi2 a2=a2hi3 levels a1=hi a2=lo"),
], ids=["map", "value", "supply", "y", "draw"])
def test_repeated_keyed_record_is_a_parse_error_naming_both_lines(section, first, repeat):
    text = FIXTURES["example2"].replace(f"[{section}]\n", f"[{section}]\n{first}\n{repeat}\n", 1)
    lineno = text.splitlines().index(first) + 1
    with pytest.raises(ParseError, match=f"line {lineno + 1}: record '{first.split(':')[0]}' "
                                         f"repeats line {lineno}"):
        parse_scenario(text)


def test_keyed_records_with_distinct_keys_load():
    text = FIXTURES["example2"].replace("[scheme]\n", "[scheme]\ny: a1 hi a2hi2 1\n"
                                        "y: a1 hi a2hi3 1\ny: a1 lo a2lo 1\n", 1)
    tables = parse_scenario(text).scheme.y_tables
    assert sorted(tables) == [("a1", "hi", ("a2hi2",)), ("a1", "hi", ("a2hi3",)),
                              ("a1", "lo", ("a2lo",))]


def test_diamond_loads():
    assert parse_scenario(DIAMOND).structure.project("a", "t1", "bot") == "b1"


@pytest.mark.parametrize("text, old, new, error, message", [
    ("example2", "draw: main types a1=a1hi2 a2=a2hi3 levels a1=hi a2=lo\n", "",
     UnknownDraw, "declares no nature draws"),
    ("example2", "a2=a2hi3 levels", "a2 levels", ParseError, "expected name=value, got 'a2'"),
    ("example2", "draw: main types", "draw: main kinds", ParseError,
     "draw wants name types a=t... levels a=l..."),
    ("example2", " levels a1=hi a2=lo", "", ParseError, "draw is missing the levels part"),
    ("example2", "bottom: lo", "bottom: hi", ValidationError,
     "declared bottom hi differs from computed lo"),
    ("example2", "types a1=a1hi2", "types a1=a1lo2", ValidationError,
     "draw main: true type a1lo2 of a1 is not in the top-level space"),
    ("example2", "levels a1=hi", "levels a1=mid", ValidationError,
     "draw main: awareness level mid of a1 is undeclared"),
    ("example2", "kind: clarke", "kind: foo", ValidationError, "unknown scheme kind 'foo'"),
    ("procurement", "supply: s2 supply_s2\n", "", ValidationError,
     "no supply outcome declared for seller s2"),
    ("procurement", "supply: s2 supply_s2", "supply: s2 supply_s9", ValidationError,
     "supply outcome supply_s9 of s2 is undeclared"),
    ("procurement", "supply: s2 supply_s2", "supply: s2 supply_s2\nsupply: b idle",
     ValidationError, "the buyer cannot be a supplier"),
    ("example2", "tie_break: win1 win2", "tie_break: win1", ValidationError,
     "tie_break is not a total order over the declared outcomes"),
    ("example2", "available: lo win1 win2", "available: lo win1 win2 win9", ValidationError,
     "available(lo) lists undeclared outcome win9"),
    ("example2", "agents: a1 a2\n", "", ValidationError, "no agents declared"),
    ("example2", "map: a1 hi lo a1hi1 a1lo1", "map: a1 lo hi a1lo1 a1hi1", ValidationError,
     "projection (a1, lo -> hi) is not downward"),
    ("example2", "map: a1 hi lo a1hi1 a1lo1", "map: a1 hi lo a1hi9 a1lo1", ValidationError,
     "projection (a1, hi -> lo) maps undeclared type a1hi9"),
    ("diamond", "map: a east bot e0 b0", "map: a east bot e0 b1", ValidationError,
     "projection (a, top -> east) disagrees with composition on t0 at bot"),
], ids=["no-draw", "draw-token", "draw-types", "draw-levels", "bottom", "draw-type",
        "draw-level", "kind", "no-supply", "undeclared-supply", "buyer-supplies", "tie-break",
        "available", "no-agents", "upward-map", "map-type", "diamond"])
def test_one_record_edit_raises_its_diagnostic(text, old, new, error, message):
    from test_transfers import PROCUREMENT
    base = {"example2": FIXTURES["example2"], "procurement": PROCUREMENT,
            "diamond": DIAMOND}[text]
    assert old in base
    with pytest.raises(error) as err:
        parse_scenario(base.replace(old, new, 1)).draw()
    assert message in str(err.value)


def _groves_example2():
    """example2 under groves, with a zero y entry for every key groves reads."""
    s = fixture("example2")
    ys = [f"y: {agent} {level} {' '.join(opp)} 0" for agent in s.agents
          for level in s.lattice.elements for opp in s.structure.opponent_profiles(agent, level)]
    return FIXTURES["example2"].replace("kind: clarke", "\n".join(["kind: groves", *ys]))


@pytest.mark.parametrize("base, record, line", [
    ("groves", "y: a1 zz a2lo 1", "y entry (a1, zz, a2lo) is never read"),
    ("groves", "y: zz hi a2lo 1", "y entry (zz, hi, a2lo) is never read"),
    ("groves", "y: a1 hi zz 1", "y entry (a1, hi, zz) is never read"),
    ("groves", "y: a1 hi a2lo a2lo 1", "y entry (a1, hi, a2lo, a2lo) is never read"),
    ("example2", "supply: zz win1", "supplier zz is not a declared agent"),
    ("example2", "buyer: zz", "buyer zz is not a declared agent"),
], ids=["y-level", "y-agent", "y-type", "y-arity", "supply-agent", "buyer-agent"])
def test_stray_scheme_record_exits_two_with_one_diagnostic(tmp_path, capsys, base, record, line):
    from elabmech.cli import main
    text = _groves_example2() if base == "groves" else FIXTURES["example2"]
    path = tmp_path / "stray.scenario"
    path.write_text(text)
    assert main(["report", str(path)]) == 0
    path.write_text(text.replace("[scheme]\n", f"[scheme]\n{record}\n", 1))
    capsys.readouterr()
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == f"error: scheme: {line}\n"
