"""Scenario files: a sectioned, human-writable text format.

Sections appear in square brackets; records are ``key: tokens`` lines;
``#`` starts a comment.  Rationals are written ``p/q`` or as integers.

::

    [lattice]
    elements: lo hi
    edge: lo hi            # Hasse edges; the closure is computed

    [agents]
    agents: a1 a2

    [types]
    space: a1 lo a1lo      # agent level type...

    [projections]
    map: a1 hi lo a1hi a1lo   # agent from to fromtype totype

    [outcomes]
    outcomes: win1 win2
    available: lo win1 win2
    tie_break: win1 win2   # optional; defaults to identifier order

    [valuations]
    value: a1 a1lo win1 2  # agent type outcome rational

    [scheme]
    kind: clarke           # groves | clarke | rspa | static_vickrey
    buyer: b               # rspa only
    supply: s1 win1        # rspa: seller -> supply outcome
    simplified_premium_ok: true
    y: a1 hi a2hi 5/2      # groves: agent level opponent-types... value

    [nature]
    draw: main types a1=a1hi a2=a2hi levels a1=hi a2=lo

``RECORDS`` defines what each record takes: its section, how many values
it carries, and which of them are its key.  A record in the wrong section,
with too few or too many values, or repeating the key of an earlier record
is a :class:`ParseError` naming the line.  ``top``, ``bottom``,
``tie_break``, ``kind``, ``buyer`` and ``simplified_premium_ok`` may appear
once; ``map`` is keyed by its first four values (agent, from, to,
fromtype), ``value`` by its first three, ``y`` by all but its last, and
``supply`` and ``draw`` by their first.  ``simplified_premium_ok`` is one of
true/yes/1/false/no/0 in any case.  A scenario loads only if the lattice
axioms, the projection laws, the valuation-domain rules, and the scheme
requirements all pass; the diagnostics list every violation found.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf

from .engine import report_menus
from .lattice import Lattice, LatticeError, NotALattice, Table, build_lattice
from .outcomes import OutcomeModel
from .transfers import KINDS, RSPA, GROVES, SchemeConfig
from .typespace import NatureDraw, TypeStructure, TypeStructureError, build_structure, validate_draw


class ParseError(Exception):
    pass


class ValidationError(Exception):
    def __init__(self, violations: list[str]):
        super().__init__("\n".join(violations))
        self.violations = violations


class UnknownDraw(Exception):
    pass


class Scenario:
    """A validated scenario.  ``draws`` is a :class:`~lattice.Table` whose miss
    is an :class:`UnknownDraw`; it, ``menus`` (:func:`engine.report_menus`) and
    ``stage_cap`` (:func:`engine.max_stages`) are built by each construction,
    :meth:`_replace` included, and never written afterwards."""

    def __init__(self, lattice: Lattice, structure: TypeStructure, outcomes: OutcomeModel,
                 scheme: SchemeConfig, draws: dict[str, NatureDraw] | None = None,
                 name: str = "scenario"):
        self.lattice = lattice
        self.structure = structure
        self.outcomes = outcomes
        self.scheme = scheme
        names = ", ".join(draws or ())
        self.draws = Table(draws or {},
                           lambda x: UnknownDraw(f"unknown draw {x!r}; declared: {names}"))
        self.name = name
        self.menus = report_menus(structure)
        self.stage_cap = len(structure.agents) * lattice.height() + 2

    def _replace(self, **changes) -> Scenario:
        """A new scenario with ``changes`` to the constructor's fields."""
        fields = dict(lattice=self.lattice, structure=self.structure, outcomes=self.outcomes,
                      scheme=self.scheme, draws=self.draws, name=self.name)
        return Scenario(**{**fields, **changes})

    @property
    def agents(self) -> tuple[str, ...]:
        return self.structure.agents

    def draw(self, name: str | None = None) -> NatureDraw:
        if not self.draws:
            raise UnknownDraw("scenario declares no nature draws")
        if name is None:
            return next(iter(self.draws.values()))
        return self.draws[name]


# Section -> record key -> (least, most, key); least and most bound the
# number of values, most inf meaning unbounded.  ``key`` slices out the
# values that identify a record: a second record with the same key repeats
# the first, so an empty key makes a record once-only, and None lets it
# repeat freely.  Sections and records are written in this order, and record
# keys are unique across sections.
ONCE = slice(0, 0)
RECORDS: dict[str, dict[str, tuple[int, float, slice | None]]] = {
    "lattice": {"elements": (1, inf, None), "edge": (2, 2, None), "top": (1, 1, ONCE),
                "bottom": (1, 1, ONCE)},
    "agents": {"agents": (1, inf, None)},
    "types": {"space": (3, inf, None)},
    "projections": {"map": (5, 5, slice(4))},
    "outcomes": {"outcomes": (1, inf, None), "available": (1, inf, None),
                 "tie_break": (1, inf, ONCE)},
    "valuations": {"value": (4, 4, slice(3))},
    "scheme": {"kind": (1, 1, ONCE), "buyer": (1, 1, ONCE), "supply": (2, 2, slice(1)),
               "simplified_premium_ok": (1, 1, ONCE), "y": (3, inf, slice(-1))},
    "nature": {"draw": (3, inf, slice(1))},
}

_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _records(text: str) -> dict[str, list[tuple[int, list[str]]]]:
    """Each record key's (lineno, values) list, in file order, checked
    against ``RECORDS``."""
    records: dict[str, list[tuple[int, list[str]]]] = {
        key: [] for keys in RECORDS.values() for key in keys}
    section = keys = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            keys = RECORDS.get(section)
            if keys is None:
                raise ParseError(f"line {lineno}: unknown section {section!r}")
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: values', got {raw!r}")
        if keys is None:
            raise ParseError(f"line {lineno}: record outside any section")
        key, rest = line.split(":", 1)
        key, values = key.strip(), rest.split()
        if not values:
            raise ParseError(f"line {lineno}: record {key!r} has no value")
        counts = keys.get(key)
        if counts is None:
            raise ParseError(f"line {lineno}: unknown {section} record {key!r}")
        least, most, _ = counts
        if not least <= len(values) <= most:
            want = f"at least {least}" if most == inf else f"exactly {least}"
            raise ParseError(f"line {lineno}: record {key!r} takes {want} "
                             f"value{'s' if least > 1 else ''}, got {len(values)}")
        records[key].append((lineno, values))
    for keys in RECORDS.values():
        for key, (_, _, ident) in keys.items():
            found = records[key]
            if (ident is None or len(found) < 2
                    or len({tuple(v[ident]) for _, v in found}) == len(found)):
                continue
            first: dict[tuple[str, ...], int] = {}
            for lineno, values in found:
                seen = first.setdefault(tuple(values[ident]), lineno)
                if seen != lineno:
                    raise ParseError(f"line {lineno}: record {key!r} repeats line {seen}")
    return records


def _once(records: dict[str, list[tuple[int, list[str]]]], key: str) -> list[str] | None:
    """The values of a once-only record, or None."""
    found = records[key]
    return found[0][1] if found else None


def _joined(records: dict[str, list[tuple[int, list[str]]]], key: str) -> list[str]:
    """The values of every ``key`` record, in file order."""
    return [value for _, values in records[key] for value in values]


def _fraction(token: str, lineno: int, parsed: dict[str, Fraction]) -> Fraction:
    """``token`` as a rational, parsed once per file into ``parsed``."""
    try:
        return parsed[token] if token in parsed else parsed.setdefault(token, Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: bad rational {token!r}") from None


def _assignments(tokens: list[str], lineno: int) -> dict[str, str]:
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ParseError(f"line {lineno}: expected name=value, got {token!r}")
        name, value = token.split("=", 1)
        if name in out:
            raise ParseError(f"line {lineno}: draw names {name} twice")
        out[name] = value
    return out


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    records = _records(text)
    elements = _joined(records, "elements")
    edges = [tuple(values) for _, values in records["edge"]]
    [declared_top] = _once(records, "top") or [None]
    [declared_bottom] = _once(records, "bottom") or [None]
    agents = _joined(records, "agents")
    spaces: dict[tuple[str, str], list[str]] = {}
    for _, (agent, level, *types) in records["space"]:
        spaces.setdefault((agent, level), []).extend(types)
    edge_maps: dict[tuple[str, str, str], dict[str, str]] = {}
    for _, (agent, hi, lo, src, dst) in records["map"]:
        edge_maps.setdefault((agent, hi, lo), {})[src] = dst
    outcome_ids = _joined(records, "outcomes")
    available: dict[str, list[str]] = {}
    for _, (level, *outcomes) in records["available"]:
        available.setdefault(level, []).extend(outcomes)
    tie_break = _once(records, "tie_break")
    rationals: dict[str, Fraction] = {}
    valuations = {(agent, t, x0): _fraction(v, lineno, rationals)
                  for lineno, (agent, t, x0, v) in records["value"]}
    [scheme_kind] = _once(records, "kind") or ["clarke"]
    [buyer] = _once(records, "buyer") or [None]
    supplies = dict(values for _, values in records["supply"])
    [simplified_ok] = _once(records, "simplified_premium_ok") or ["false"]
    if simplified_ok.lower() not in _BOOLEANS:
        raise ParseError(f"line {records['simplified_premium_ok'][0][0]}: "
                         f"record 'simplified_premium_ok' takes true/yes/1 or false/no/0, "
                         f"got {simplified_ok!r}")
    y_tables = {(agent, level, tuple(opp)): _fraction(v, lineno, rationals)
                for lineno, (agent, level, *opp, v) in records["y"]}
    draw_specs = []
    for lineno, (draw_name, part, *rest) in records["draw"]:
        if part != "types":
            raise ParseError(f"line {lineno}: draw wants name types a=t... levels a=l...")
        if "levels" not in rest:
            raise ParseError(f"line {lineno}: draw is missing the levels part")
        split = rest.index("levels")
        draw_specs.append((draw_name, _assignments(rest[:split], lineno),
                           _assignments(rest[split + 1:], lineno)))
    # Free the raw records before validation allocates: holding them to the
    # end measurably slows a cold load.
    del records

    try:
        lattice = build_lattice(elements, edges)
    except NotALattice as err:
        raise ValidationError([f"lattice: {v}" for v in err.violations]) from None
    except LatticeError as err:
        raise ValidationError([f"lattice: {err}"]) from None
    violations = []
    if declared_top is not None and declared_top != lattice.top:
        violations.append(f"declared top {declared_top} differs from computed {lattice.top}")
    if declared_bottom is not None and declared_bottom != lattice.bottom:
        violations.append(
            f"declared bottom {declared_bottom} differs from computed {lattice.bottom}")
    if violations:
        raise ValidationError(violations)

    try:
        structure = build_structure(lattice, agents,
                                    {k: tuple(v) for k, v in spaces.items()}, edge_maps)
    except TypeStructureError as err:
        raise ValidationError([f"types: {v}" for v in err.violations]) from None

    model = OutcomeModel(structure, outcome_ids, available, valuations, tie_break)
    violations = [f"outcomes: {v}" for v in model.violations()]

    scheme = SchemeConfig(kind=scheme_kind,
                          y_tables=y_tables or None,
                          buyer=buyer,
                          supplies=supplies or None,
                          simplified_premium_ok=_BOOLEANS[simplified_ok.lower()])
    violations.extend(f"scheme: {v}" for v in scheme_violations(structure, model, scheme))
    stray = (("y", GROVES, y_tables), ("simplified_premium_ok", RSPA, scheme.simplified_premium_ok))
    violations.extend(f"scheme: kind {scheme_kind} never reads {record}"
                      for record, reader, found in stray if found and scheme_kind != reader)

    draws: dict[str, NatureDraw] = {}
    for draw_name, type_map, level_map in draw_specs:
        undeclared = [a for a in {**type_map, **level_map} if a not in structure.agents]
        violations.extend(f"draw {draw_name}: undeclared agent {a}" for a in undeclared)
        missing = [a for a in structure.agents if a not in type_map or a not in level_map]
        if missing:
            violations.append(f"draw {draw_name}: missing entries for {', '.join(missing)}")
        if undeclared or missing:
            continue
        draw = NatureDraw(tuple(type_map[a] for a in structure.agents),
                          tuple(level_map[a] for a in structure.agents))
        bad = validate_draw(structure, draw)
        if bad:
            violations.extend(f"draw {draw_name}: {v}" for v in bad)
        else:
            draws[draw_name] = draw

    if violations:
        raise ValidationError(violations)
    return Scenario(lattice, structure, model, scheme, draws, name)


def scheme_violations(structure: TypeStructure, model: OutcomeModel,
                      scheme: SchemeConfig) -> list[str]:
    out = []
    if scheme.kind not in KINDS:
        return [f"unknown scheme kind {scheme.kind!r}"]
    out.extend(f"{role} {agent} is not a declared agent" for role, agent in
               [("buyer", scheme.buyer), *(("supplier", a) for a in scheme.supplies or ())]
               if agent is not None and agent not in structure.agents)
    if scheme.kind == GROVES:
        tables, read = scheme.y_tables or {}, set()
        for agent in structure.agents:
            for level in structure.lattice.elements:
                for opp in structure.opponent_profiles(agent, level):
                    read.add((agent, level, opp))
                    if (agent, level, opp) not in tables:
                        out.append(f"missing y entry ({agent}, {level}, {', '.join(opp) or '-'})")
        out.extend(f"y entry ({agent}, {level}, {', '.join(opp) or '-'}) is never read"
                   for agent, level, opp in tables if (agent, level, opp) not in read)
    if scheme.kind == RSPA:
        if scheme.buyer is None or scheme.buyer not in structure.agents:
            out.append("rspa needs a declared buyer among the agents")
            return out
        supplies = scheme.supplies or {}
        sellers = [a for a in structure.agents if a != scheme.buyer]
        if len(sellers) < 2:
            out.append("rspa needs at least two sellers")
        for seller in sellers:
            x0 = supplies.get(seller)
            if x0 is None:
                out.append(f"no supply outcome declared for seller {seller}")
            elif x0 not in model.outcomes:
                out.append(f"supply outcome {x0} of {seller} is undeclared")
            else:
                for level in structure.lattice.elements:
                    if x0 not in model.available.get(level, ()):
                        out.append(f"supply outcome {x0} unavailable at level {level}")
        if scheme.buyer in supplies:
            out.append("the buyer cannot be a supplier")
        for seller in sellers:
            x0 = supplies.get(seller)
            if x0 is None:
                continue
            for (agent, t, outcome), v in model.valuations.items():
                if agent == seller and outcome != x0 and v != 0:
                    out.append(f"seller {seller} has nonzero value {v} off own supply "
                               f"({t}, {outcome})")
    return out


def read_text(path: str) -> str:
    """A scenario or script file's text; a file that is not UTF-8 is a ParseError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise ParseError(f"{path}: not UTF-8 text "
                             f"({err.reason} {err.object[err.start]:#04x})") from None


def load_scenario(path: str) -> Scenario:
    return parse_scenario(read_text(path), name=path)


def serialize_scenario(scenario: Scenario) -> str:
    """Scenario text in ``RECORDS`` order; a section without records is left out."""
    lattice, structure, outcomes, scheme = (scenario.lattice, scenario.structure,
                                            scenario.outcomes, scenario.scheme)
    agents, levels, covers = scenario.agents, lattice.elements, lattice.covers()
    records = {
        "elements": [levels],
        "edge": covers,
        "top": [[lattice.top]],
        "bottom": [[lattice.bottom]],
        "agents": [agents],
        "space": [(agent, level, *structure.space(agent, level))
                  for agent in agents for level in levels],
        "map": [(agent, hi, lo, t, structure.project(agent, t, lo))
                for agent in agents for lo, hi in covers
                for t in structure.space(agent, hi)],
        "outcomes": [outcomes.outcomes],
        "available": [(level, *outcomes.available[level]) for level in levels],
        "tie_break": [outcomes.tie_break],
        "value": [(agent, t, x0, str(v))
                  for agent in agents for level in levels
                  for t in structure.space(agent, level) for x0 in outcomes.outcomes
                  if (v := outcomes.valuations.get((agent, t, x0))) is not None],
        "kind": [[scheme.kind]],
        "buyer": [[scheme.buyer]] if scheme.buyer is not None else [],
        "supply": (scheme.supplies or {}).items(),
        "simplified_premium_ok": [["true"]] if scheme.simplified_premium_ok else [],
        "y": [(agent, level, *opp, str(v))
              for (agent, level, opp), v in (scheme.y_tables or {}).items()],
        "draw": [(name, "types", *(f"{a}={t}" for a, t in zip(agents, draw.true_types)),
                  "levels", *(f"{a}={l}" for a, l in zip(agents, draw.awareness)))
                 for name, draw in scenario.draws.items()],
    }
    sections = []
    for section, keys in RECORDS.items():
        lines = [f"{key}: {' '.join(values)}" for key in keys for values in records[key]]
        if lines:
            sections.append("\n".join([f"[{section}]", *lines]))
    return "\n\n".join(sections) + "\n"
