"""Command-line surface.

Subcommands: ``run`` (play a mechanism on a scenario), ``verify`` (property
checks on a scenario or a batch of generated ones), ``report`` (validated
scenario summary with welfare tables), ``fixtures`` (built-in scenarios).

Exit status: 0 success / all properties hold, 1 property violation,
2 input error, 3 enumeration bound exceeded, 4 internal error (any other
exception, reported as one ``internal error: <Type>: <message>`` line).

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call; so handlers treat ``args`` as
read-only and no parse hands one call's state to the next.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import engine, verify
from .engine import StrategySpaceTooLarge
from .fixtures import FIXTURES, fixture
from .generate import generate_scenario
from .scenario import (ParseError, Scenario, UnknownDraw, ValidationError, load_scenario,
                       read_text, scheme_violations)
from .transfers import KINDS, Mechanism, PremiumAssumptionFails


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call: callers parse
    with it and never modify it."""
    parser = argparse.ArgumentParser(prog="elabmech",
                                     description="elaboration mechanisms and their verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="play a mechanism once and print the transfers")
    run.add_argument("scenario", help="scenario file path or fixture name")
    run.add_argument("--draw", default=None, help="named nature draw (default: first declared)")
    run.add_argument("--scheme", default=None, choices=KINDS, help="override the scheme kind")
    run.add_argument("--partial", default=None, help="partial game level (default: top)")
    run.add_argument("--strategy", default="truth",
                     help="'truth' or a script file of lines: agent stage report")
    run.add_argument("--report", default=None, help="also write a JSON report to this path")
    run.set_defaults(handler=cmd_run)

    ver = sub.add_parser("verify", help="run property checks")
    ver.add_argument("scenario", nargs="?", default=None,
                     help="scenario file path or fixture name")
    ver.add_argument("--generated", type=int, default=None, metavar="N",
                     help="verify N generated scenarios instead of a file")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--procurement", action="store_true",
                     help="generate procurement scenarios (reverse auction scheme)")
    ver.add_argument("--scheme", default=None, choices=KINDS, help="override the scheme kind")
    selection = ver.add_mutually_exclusive_group()
    selection.add_argument("--property", dest="properties", action="append",
                           choices=verify.PROPERTIES, help="property to check (repeatable)")
    selection.add_argument("--all", action="store_true", help="run every applicable property")
    ver.add_argument("--expect-fail", dest="expect_fail", action="append",
                     choices=verify.PROPERTIES, metavar="PROP",
                     help="property whose violation is the expected outcome")
    ver.add_argument("--bound", type=int, default=10 ** 6,
                     help="enumeration bound per exhaustive query")
    ver.add_argument("--report", default=None, help="write a JSON report to this path")
    ver.set_defaults(handler=cmd_verify)

    rep = sub.add_parser("report", help="validate a scenario and print its summary")
    rep.add_argument("scenario", help="scenario file path or fixture name")
    rep.add_argument("--out", default=None, help="write the JSON summary to this path")
    rep.set_defaults(handler=cmd_report)

    fix = sub.add_parser("fixtures", help="list built-in fixtures or print one")
    fix.add_argument("name", nargs="?", default=None)
    fix.set_defaults(handler=cmd_fixtures)
    return parser


def _load(ref: str) -> Scenario:
    if ref in FIXTURES:
        return fixture(ref)
    return load_scenario(ref)


def _apply_scheme(scenario: Scenario, kind: str | None) -> Scenario:
    if kind is None or kind == scenario.scheme.kind:
        return scenario
    scheme = scenario.scheme._replace(kind=kind)
    violations = scheme_violations(scenario.structure, scenario.outcomes, scheme)
    if violations:
        raise ValidationError([f"scheme: {v}" for v in violations])
    return scenario._replace(scheme=scheme)


def _script_strategies(path: str, scenario: Scenario):
    """Policies playing a script of ``agent stage report`` lines, and the line
    number of every scripted (agent, stage) the play has not consulted yet.
    An infeasible scripted report is a ParseError naming its line, and a truthful
    one that a scripted report made infeasible names the agent's last line."""
    script: dict[tuple[str, int], tuple[str, int]] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            agent, stage, report = line.split()
            key = (agent, int(stage))
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: expected 'agent stage report', "
                             f"got {line!r}") from None
        if agent not in scenario.agents:
            raise ParseError(f"{path}: line {lineno}: undeclared agent {agent!r}")
        if key in script:
            raise ParseError(f"{path}: line {lineno}: {agent} stage {stage} is already "
                             f"scripted on line {script[key][1]}")
        script[key] = (report, lineno)
    unused = {key: lineno for key, (_, lineno) in script.items()}
    consulted: dict[str, int] = {}  # agent -> line of its last consulted report

    def policy(scenario: Scenario, state: engine.PlayState, agent: str) -> str:
        key = (agent, state.stage)
        unused.pop(key, None)
        if key not in script:
            truth = state.perceived[scenario.structure.agent_position[agent]]
            if agent in consulted and truth not in engine.feasible_reports(scenario, state, agent):
                raise ParseError(f"{path}: line {consulted[agent]}: after this line {agent} "
                                 f"cannot report its perceived type {truth} at unscripted "
                                 f"stage {state.stage}")
            return truth
        report, lineno = script[key]
        consulted[agent] = lineno
        if report not in engine.feasible_reports(scenario, state, agent):
            raise ParseError(f"{path}: line {lineno}: {agent} cannot report {report} "
                             f"at stage {state.stage}")
        return report

    return dict.fromkeys(scenario.agents, policy), unused


def cmd_run(args) -> int:
    scenario = _apply_scheme(_load(args.scenario), args.scheme)
    draw = scenario.draw(args.draw)
    partial = args.partial or scenario.lattice.top
    if partial not in scenario.lattice.elements:
        raise ValidationError([f"undeclared level {partial!r}"])
    strategies, unused = None, {}
    if args.strategy != "truth":
        strategies, unused = _script_strategies(args.strategy, scenario)
    mech = Mechanism(scenario, scenario.scheme)
    path = mech.run(draw, partial, strategies)
    transcript = engine.transcript(path)
    if unused:
        (agent, stage), lineno = next(iter(unused.items()))
        raise ParseError(f"{args.strategy}: line {lineno}: {agent} stage {stage} was never "
                         f"consulted (the play ended after stage {transcript.n_stages})")
    report = mech.report(path[-1])
    print(f"scenario: {scenario.name}   scheme: {scenario.scheme.kind}   "
          f"partial game: {partial}")
    for stage, (profile, pooled) in enumerate(zip(transcript.stages, transcript.pooled), 1):
        row = "  ".join(f"{a}={t}" for a, t in zip(scenario.agents, profile))
        print(f"stage {stage}: {row}   pooled: {pooled}")
    print(f"stopped after stage {transcript.n_stages}")
    print(f"outcome: {report.outcome}")
    for agent in scenario.agents:
        extra = f"  (adjustment {report.adjustments[agent]})" if report.adjustments[agent] else ""
        print(f"transfer to {agent}: {report.transfers[agent]}{extra}")
    print(f"premium recipient: {report.premium_recipient or 'none'}")
    print(f"operator balance: {report.operator_balance}")
    if args.report:
        payload = {"scenario": scenario.name, "scheme": scenario.scheme.kind,
                   "stages": [list(s) for s in transcript.stages],
                   "pooled": list(transcript.pooled),
                   "stop_stage": transcript.n_stages,
                   "transfers": report.jsonable()}
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    return 0


def cmd_verify(args) -> int:
    if args.generated is None and args.scenario is None:
        print("error: verify needs a scenario or --generated N", file=sys.stderr)
        return 2
    if args.generated is not None and args.scenario is not None:
        print(f"error: verify takes a scenario or --generated N, not both "
              f"(got {args.scenario!r})", file=sys.stderr)
        return 2
    for flag, count in (("--generated", args.generated), ("--bound", args.bound)):
        if count is not None and count < 1:
            print(f"error: {flag} must be at least 1, got {count}", file=sys.stderr)
            return 2
    scenarios = [_apply_scheme(scenario, args.scheme) for scenario in (
        [_load(args.scenario)] if args.generated is None else
        (generate_scenario(args.seed, k, procurement=args.procurement)
         for k in range(args.generated)))]
    chosen = list(dict.fromkeys(args.properties or ()))
    runs = [(scenario, chosen or [prop for prop, (_, _, kinds) in verify.PROPERTIES.items()
                                  if scenario.scheme.kind in kinds])
            for scenario in scenarios]
    expect_fail = args.expect_fail or ()
    unchecked = [prop for prop in dict.fromkeys(expect_fail)
                 if not any(prop in props for _, props in runs)]
    if unchecked:
        print(f"error: --expect-fail names a property no scenario in this run checks: "
              f"{', '.join(unchecked)}", file=sys.stderr)
        return 2
    results, worst = [], 0
    try:
        for scenario, props in runs:
            for prop in props:
                try:
                    result = verify.check(prop, scenario, args.bound)
                except StrategySpaceTooLarge as err:
                    print(f"{scenario.name}: {prop}: enumeration bound exceeded ({err})")
                    return 3
                results.append((scenario.name, result))
                verdict = "holds" if result.holds else "VIOLATED"
                expected = prop in expect_fail
                print(f"{scenario.name}: {result.prop}: {verdict} ({result.checked} cases)"
                      + (" [expected violation]" if expected and not result.holds else ""))
                for witness in result.witnesses[:3]:
                    print(f"  witness: {witness.description}")
                if result.holds == expected:
                    worst = max(worst, 1)
        return worst
    finally:
        # Written also when a property ends the run early, with the results so far.
        if args.report:
            payload = [{"scenario": name, **result.jsonable()} for name, result in results]
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2)


def cmd_report(args) -> int:
    scenario = _load(args.scenario)
    payload = {
        "name": scenario.name,
        "agents": list(scenario.agents),
        "levels": list(scenario.lattice.elements),
        "top": scenario.lattice.top,
        "bottom": scenario.lattice.bottom,
        "scheme": scenario.scheme.kind,
        "outcomes": list(scenario.outcomes.outcomes),
        "types": {f"{agent}@{level}": list(scenario.structure.space(agent, level))
                  for agent in scenario.agents for level in scenario.lattice.elements},
        "welfare": {},
        "draws": {name: {"types": list(d.true_types), "awareness": list(d.awareness)}
                  for name, d in scenario.draws.items()},
    }
    for level in scenario.lattice.elements:
        table = {}
        for profile in scenario.structure.profiles(level):
            table["|".join(profile)] = {
                x0: str(scenario.outcomes.welfare(x0, profile))
                for x0 in scenario.outcomes.available[level]}
        payload["welfare"][level] = table
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def cmd_fixtures(args) -> int:
    if args.name is None:
        for name in sorted(FIXTURES):
            print(name)
        return 0
    if args.name not in FIXTURES:
        print(f"error: unknown fixture {args.name!r}", file=sys.stderr)
        return 2
    print(FIXTURES[args.name], end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValidationError, UnknownDraw, verify.InapplicableProperty,
            PremiumAssumptionFails, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
