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

A scenario loads only if the lattice axioms, the projection laws, the
valuation-domain rules, and the scheme requirements all pass; the
diagnostics list every violation found.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lattice import Lattice, NotALattice, build_lattice
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


@dataclass
class Scenario:
    lattice: Lattice
    structure: TypeStructure
    outcomes: OutcomeModel
    scheme: SchemeConfig
    draws: dict[str, NatureDraw] = field(default_factory=dict)
    name: str = "scenario"
    # feasible-report memo, keyed (agent, awareness, last report, prev pooled)
    feasible_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def agents(self) -> tuple[str, ...]:
        return self.structure.agents

    def draw(self, name: str | None = None) -> NatureDraw:
        if not self.draws:
            raise UnknownDraw("scenario declares no nature draws")
        if name is None:
            return next(iter(self.draws.values()))
        if name not in self.draws:
            raise UnknownDraw(f"unknown draw {name!r}; declared: {', '.join(self.draws)}")
        return self.draws[name]


def _tokens(text: str):
    """Yield (lineno, section, key, args) for every record line."""
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: values', got {raw!r}")
        if section is None:
            raise ParseError(f"line {lineno}: record outside any section")
        key, rest = line.split(":", 1)
        key, args = key.strip(), rest.split()
        if not args:
            raise ParseError(f"line {lineno}: record {key!r} has no value")
        yield lineno, section, key, args


def _fraction(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"line {lineno}: bad rational {token!r}") from None


def _assignments(tokens: list[str], lineno: int) -> dict[str, str]:
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ParseError(f"line {lineno}: expected name=value, got {token!r}")
        name, value = token.split("=", 1)
        out[name] = value
    return out


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    elements: list[str] = []
    edges: list[tuple[str, str]] = []
    declared_top = declared_bottom = None
    agents: list[str] = []
    spaces: dict[tuple[str, str], list[str]] = {}
    edge_maps: dict[tuple[str, str, str], dict[str, str]] = {}
    outcome_ids: list[str] = []
    available: dict[str, list[str]] = {}
    tie_break: list[str] | None = None
    valuations: dict[tuple[str, str, str], Fraction] = {}
    scheme_kind = None
    buyer = None
    supplies: dict[str, str] = {}
    simplified_ok = False
    y_tables: dict[tuple[str, str, tuple[str, ...]], Fraction] = {}
    draws: dict[str, NatureDraw] = {}
    draw_specs: list[tuple[int, str, dict[str, str], dict[str, str]]] = []

    for lineno, section, key, args in _tokens(text):
        if section == "lattice":
            if key == "elements":
                elements.extend(args)
            elif key == "edge":
                if len(args) != 2:
                    raise ParseError(f"line {lineno}: edge wants two levels")
                edges.append((args[0], args[1]))
            elif key == "top":
                declared_top = args[0]
            elif key == "bottom":
                declared_bottom = args[0]
            else:
                raise ParseError(f"line {lineno}: unknown lattice record {key!r}")
        elif section == "agents":
            if key != "agents":
                raise ParseError(f"line {lineno}: unknown agents record {key!r}")
            agents.extend(args)
        elif section == "types":
            if key != "space" or len(args) < 3:
                raise ParseError(f"line {lineno}: space wants agent, level, types...")
            spaces.setdefault((args[0], args[1]), []).extend(args[2:])
        elif section == "projections":
            if key != "map" or len(args) != 5:
                raise ParseError(f"line {lineno}: map wants agent from to fromtype totype")
            agent, hi, lo, src, dst = args
            edge_maps.setdefault((agent, hi, lo), {})[src] = dst
        elif section == "outcomes":
            if key == "outcomes":
                outcome_ids.extend(args)
            elif key == "available":
                available.setdefault(args[0], []).extend(args[1:])
            elif key == "tie_break":
                tie_break = list(args)
            else:
                raise ParseError(f"line {lineno}: unknown outcomes record {key!r}")
        elif section == "valuations":
            if key != "value" or len(args) != 4:
                raise ParseError(f"line {lineno}: value wants agent type outcome rational")
            valuations[(args[0], args[1], args[2])] = _fraction(args[3], lineno)
        elif section == "scheme":
            if key == "kind":
                scheme_kind = args[0]
            elif key == "buyer":
                buyer = args[0]
            elif key == "supply":
                if len(args) != 2:
                    raise ParseError(f"line {lineno}: supply wants seller outcome")
                supplies[args[0]] = args[1]
            elif key == "simplified_premium_ok":
                simplified_ok = args[0].lower() in ("true", "yes", "1")
            elif key == "y":
                if len(args) < 3:
                    raise ParseError(f"line {lineno}: y wants agent level opptypes... value")
                y_tables[(args[0], args[1], tuple(args[2:-1]))] = _fraction(args[-1], lineno)
            else:
                raise ParseError(f"line {lineno}: unknown scheme record {key!r}")
        elif section == "nature":
            if key != "draw" or len(args) < 3 or args[1] != "types":
                raise ParseError(
                    f"line {lineno}: draw wants name types a=t... levels a=l...")
            try:
                split = args.index("levels")
            except ValueError:
                raise ParseError(f"line {lineno}: draw is missing the levels part") from None
            draw_specs.append((lineno, args[0],
                               _assignments(args[2:split], lineno),
                               _assignments(args[split + 1:], lineno)))
        else:
            raise ParseError(f"line {lineno}: unknown section {section!r}")

    try:
        lattice = build_lattice(elements, edges)
    except NotALattice as err:
        raise ValidationError([f"lattice: {v}" for v in err.violations]) from None
    except Exception as err:
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

    scheme = SchemeConfig(kind=scheme_kind or "clarke",
                          y_tables=y_tables or None,
                          buyer=buyer,
                          supplies=supplies or None,
                          simplified_premium_ok=simplified_ok)
    violations.extend(f"scheme: {v}" for v in scheme_violations(structure, model, scheme))

    for lineno, draw_name, type_map, level_map in draw_specs:
        missing = [a for a in structure.agents if a not in type_map or a not in level_map]
        if missing:
            violations.append(f"draw {draw_name}: missing entries for {', '.join(missing)}")
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
    if scheme.kind == GROVES:
        tables = scheme.y_tables or {}
        for agent in structure.agents:
            for level in structure.lattice.elements:
                for opp in structure.opponent_profiles(agent, level):
                    if (agent, level, opp) not in tables:
                        out.append(f"missing y entry ({agent}, {level}, {', '.join(opp) or '-'})")
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


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_scenario(text, name=path)


def serialize_scenario(scenario: Scenario) -> str:
    lines = ["[lattice]",
             "elements: " + " ".join(scenario.lattice.elements)]
    for a, b in scenario.lattice.covers():
        lines.append(f"edge: {a} {b}")
    lines.append(f"top: {scenario.lattice.top}")
    lines.append(f"bottom: {scenario.lattice.bottom}")
    lines.append("")
    lines.append("[agents]")
    lines.append("agents: " + " ".join(scenario.agents))
    lines.append("")
    lines.append("[types]")
    for agent in scenario.agents:
        for level in scenario.lattice.elements:
            lines.append(f"space: {agent} {level} "
                         + " ".join(scenario.structure.space(agent, level)))
    lines.append("")
    lines.append("[projections]")
    for agent in scenario.agents:
        for lo, hi in scenario.lattice.covers():
            for t in scenario.structure.space(agent, hi):
                lines.append(f"map: {agent} {hi} {lo} {t} "
                             f"{scenario.structure.project(agent, t, lo)}")
    lines.append("")
    lines.append("[outcomes]")
    lines.append("outcomes: " + " ".join(scenario.outcomes.outcomes))
    for level in scenario.lattice.elements:
        lines.append(f"available: {level} " + " ".join(scenario.outcomes.available[level]))
    lines.append("tie_break: " + " ".join(scenario.outcomes.tie_break))
    lines.append("")
    lines.append("[valuations]")
    for agent in scenario.agents:
        for level in scenario.lattice.elements:
            for t in scenario.structure.space(agent, level):
                for x0 in scenario.outcomes.outcomes:
                    v = scenario.outcomes.valuations.get((agent, t, x0))
                    if v is not None:
                        lines.append(f"value: {agent} {t} {x0} {v}")
    lines.append("")
    lines.append("[scheme]")
    lines.append(f"kind: {scenario.scheme.kind}")
    if scenario.scheme.buyer is not None:
        lines.append(f"buyer: {scenario.scheme.buyer}")
    for seller, x0 in (scenario.scheme.supplies or {}).items():
        lines.append(f"supply: {seller} {x0}")
    if scenario.scheme.simplified_premium_ok:
        lines.append("simplified_premium_ok: true")
    for (agent, level, opp), v in (scenario.scheme.y_tables or {}).items():
        lines.append(f"y: {agent} {level} " + " ".join(opp) + f" {v}")
    if scenario.draws:
        lines.append("")
        lines.append("[nature]")
        for name, draw in scenario.draws.items():
            types = " ".join(f"{a}={t}" for a, t in zip(scenario.agents, draw.true_types))
            levels = " ".join(f"{a}={l}" for a, l in zip(scenario.agents, draw.awareness))
            lines.append(f"draw: {name} types {types} levels {levels}")
    return "\n".join(lines) + "\n"
