import hashlib
import json
import os
import subprocess
import sys

import pytest

from elabmech.cli import build_parser, main
from elabmech.fixtures import FIXTURES


def test_parser_run_defaults():
    args = build_parser().parse_args(["run", "example1"])
    assert args.command == "run"
    assert args.scenario == "example1"
    assert args.draw is None
    assert args.scheme is None
    assert args.strategy == "truth"


def test_parser_verify_flags():
    args = build_parser().parse_args(
        ["verify", "--generated", "5", "--seed", "7", "--procurement",
         "--property", "no-deficit", "--bound", "1000"])
    assert args.generated == 5 and args.seed == 7 and args.procurement
    assert args.properties == ["no-deficit"]
    assert args.bound == 1000


def test_parser_rejects_unknown_scheme():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "example1", "--scheme", "mystery"])


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


# Calls that differ only in flags a cached parser must reset between parses.
REUSE_SEQUENCE = [
    ["verify", "example2", "--property", "dominance", "--expect-fail", "dominance"],
    ["verify", "example2", "--property", "dominance"],
    ["run", "example2", "--scheme", "static_vickrey"],
    ["run", "example2"],
    ["verify", "example2", "--property", "nosuch"],
    ["verify", "example2", "--property", "nosuch"],
]


def _outcome(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = ("SystemExit", exit_.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_each_call_as_a_fresh_parser_does(capsys, monkeypatch):
    from elabmech import cli

    reused = [_outcome(argv, capsys) for argv in REUSE_SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [_outcome(argv, capsys) for argv in REUSE_SEQUENCE]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0, ("SystemExit", 2),
                                               ("SystemExit", 2)]
    assert "outcome: win1" in reused[2][1] and "outcome: win2" in reused[3][1]
    assert "invalid choice: 'nosuch'" in reused[4][2]


def test_fixtures_subcommand(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert set(out.split()) == set(FIXTURES)
    assert main(["fixtures", "example2"]) == 0
    assert "[lattice]" in capsys.readouterr().out
    assert main(["fixtures", "nope"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error: unknown fixture 'nope'"


def test_run_example1_prints_exact_transfers(capsys):
    assert main(["run", "example1"]) == 0
    out = capsys.readouterr().out
    assert "stopped after stage 3" in out
    assert "outcome: produce1" in out
    assert "transfer to buyer: -80" in out
    assert "operator balance: 80" in out
    assert "premium recipient: none" in out


def test_run_example2_static_override(capsys):
    assert main(["run", "example2", "--scheme", "static_vickrey"]) == 0
    out = capsys.readouterr().out
    assert "outcome: win1" in out
    assert "transfer to a1: -1" in out


def test_run_example2_dynamic(capsys):
    assert main(["run", "example2"]) == 0
    out = capsys.readouterr().out
    assert "outcome: win2" in out
    assert "premium recipient: a1" in out
    assert "transfer to a1: 1  (adjustment 1)" in out


def test_run_writes_json_report(tmp_path, capsys):
    target = tmp_path / "run.json"
    assert main(["run", "example1", "--report", str(target)]) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["stop_stage"] == 3
    assert payload["transfers"]["transfers"]["buyer"]["exact"] == "-80"


def test_run_with_strategy_script(tmp_path, capsys):
    script = tmp_path / "conceal.txt"
    script.write_text("a1 1 a1lo2\na1 2 a1lo2\n")
    assert main(["run", "example2", "--strategy", str(script)]) == 0
    out = capsys.readouterr().out
    assert "stopped after stage 2" in out
    assert "outcome: win1" in out


def test_run_with_infeasible_script_exits_two(tmp_path, capsys):
    script = tmp_path / "bad.txt"
    script.write_text("a2 1 a2hi3\n")  # beyond a2's awareness at stage 1
    assert main(["run", "example2", "--strategy", str(script)]) == 2
    err = capsys.readouterr().err
    assert "a2" in err
    assert "line 1" in err


def test_infeasible_report_from_a_verifier_defect_exits_four(tmp_path, capsys, monkeypatch):
    from test_engine import uncapped_plan_policy

    from elabmech import engine
    from elabmech.generate import generate_scenario
    from elabmech.scenario import serialize_scenario
    path = tmp_path / "g901.scenario"
    path.write_text(serialize_scenario(generate_scenario(901, 0)))
    monkeypatch.setattr(engine, "plan_policy", uncapped_plan_policy)
    assert main(["verify", str(path), "--property", "dominance"]) == 4
    assert capsys.readouterr().err == "internal error: InfeasibleReport: a2: a2_west_0\n"


def test_verify_fixture_all_properties(capsys):
    assert main(["verify", "example2", "--all"]) == 0
    out = capsys.readouterr().out
    assert "dominance: holds" in out
    assert "no-deficit: holds" in out


def test_verify_participation_violation_exits_one(capsys):
    assert main(["verify", "example1", "--property", "participation-ex-post"]) == 1
    out = capsys.readouterr().out
    assert "participation-ex-post: VIOLATED" in out
    assert "witness" in out


def test_verify_generated_batch(capsys):
    assert main(["verify", "--generated", "3", "--seed", "5",
                 "--property", "no-deficit"]) == 0
    out = capsys.readouterr().out
    assert out.count("no-deficit: holds") == 3


def test_verify_expect_fail_inverts_the_exit_status(capsys):
    assert main(["verify", "example1", "--property", "participation-ex-post",
                 "--expect-fail", "participation-ex-post"]) == 0
    assert "[expected violation]" in capsys.readouterr().out
    # a property that holds while marked expect-fail is itself a failure
    assert main(["verify", "example2", "--property", "stage-bound",
                 "--expect-fail", "stage-bound"]) == 1


def test_verify_bound_exceeded_exits_three(capsys):
    assert main(["verify", "example1", "--property", "dominance", "--bound", "5"]) == 3


def test_verify_without_target_exits_two(capsys):
    assert main(["verify"]) == 2


def test_verify_rejects_a_scenario_given_with_generated(capsys):
    # Without the check the scenario was dropped and only the batch verified.
    assert main(["verify", "example2", "--generated", "2", "--property", "stage-bound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: verify takes a scenario or --generated N, not both (got 'example2')"]


@pytest.mark.parametrize("argv", [
    ["--generated", "0"], ["--generated", "-3"],
    ["example2", "--bound", "0"], ["example2", "--bound", "-5"],
    ["--generated", "2", "--bound", "-5"]])
def test_verify_rejects_non_positive_counts(capsys, argv):
    assert main(["verify", *argv, "--property", "stage-bound"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "must be at least 1" in captured.err


def test_verify_without_a_target_is_an_input_error(capsys):
    assert main(["verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[0] == "error: verify needs a scenario or --generated N"


def test_verify_accepts_counts_of_one(capsys):
    assert main(["verify", "--generated", "1", "--bound", "1",
                 "--property", "stage-bound"]) == 0
    assert "stage-bound: holds" in capsys.readouterr().out


def test_missing_file_exits_two(capsys):
    assert main(["run", "/no/such/file.scenario"]) == 2


def test_invalid_scenario_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[lattice]\nelements: a b\n")
    assert main(["run", str(bad)]) == 2


@pytest.mark.parametrize("command", ["report", "verify"])
def test_scenario_file_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"[lattice]\nelements: l\xe9\n")
    assert main([command, str(bad)]) == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error:") and str(bad) in first


def test_script_that_is_not_utf8_exits_two(tmp_path, capsys):
    script = tmp_path / "script.txt"
    script.write_bytes(b"a2 1 a2hi3\n\xff\n")
    assert main(["run", "example2", "--strategy", str(script)]) == 2
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("error:") and str(script) in first


def test_report_summary(tmp_path, capsys):
    assert main(["report", "example2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agents"] == ["a1", "a2"]
    assert payload["welfare"]["hi"]["a1hi2|a2hi3"]["win2"] == "3"
    target = tmp_path / "report.json"
    assert main(["report", "example2", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["top"] == "hi"


def test_verify_report_file(tmp_path, capsys):
    target = tmp_path / "verify.json"
    assert main(["verify", "example2", "--property", "stage-bound",
                 "--report", str(target)]) == 0
    payload = json.loads(target.read_text())
    assert payload[0]["property"] == "stage-bound"
    assert payload[0]["verdict"] == "holds"


@pytest.mark.parametrize("line", ["a1 2", "a1 two a1lo2"])
def test_run_with_malformed_script_line_exits_two(tmp_path, capsys, line):
    script = tmp_path / "bad.txt"
    script.write_text(f"# conceal\n{line}\n")
    assert main(["run", "example2", "--strategy", str(script)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and len(err.splitlines()) == 1


def test_run_with_a_directory_as_script_exits_two(tmp_path, capsys):
    assert main(["run", "example2", "--strategy", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_run_unknown_partial_level_exits_two(capsys):
    assert main(["run", "example2", "--partial", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and len(err.splitlines()) == 1


def test_unknown_level_from_a_verifier_defect_exits_four(capsys, monkeypatch):
    from elabmech.lattice import UnknownLevel
    from elabmech.typespace import TypeStructure

    def planted(self, profile):
        raise UnknownLevel("undeclared level 'planted'")

    monkeypatch.setattr(TypeStructure, "pooled_level", planted)
    assert main(["verify", "example2", "--property", "efficiency"]) == 4
    assert capsys.readouterr().err == "internal error: UnknownLevel: undeclared level 'planted'\n"


def test_run_unknown_draw_exits_two_and_lists_the_declared_draws(capsys):
    assert main(["run", "example1", "--draw", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "nosuch" in err and "declared: main" in err and len(err.splitlines()) == 1


def test_run_groves_override_without_y_tables_exits_two(capsys):
    assert main(["run", "example2", "--scheme", "groves"]) == 2
    assert "missing y entry" in capsys.readouterr().err


def test_run_rspa_override_without_a_buyer_exits_two(capsys):
    assert main(["run", "example2", "--scheme", "rspa"]) == 2
    assert "rspa needs a declared buyer" in capsys.readouterr().err


def test_verify_holmstrom_solves_each_level_once(tmp_path, capsys, monkeypatch):
    from elabmech import verify
    from test_acceptance import GENERIC

    path = tmp_path / "generic.scenario"
    path.write_text(GENERIC)
    calls = []
    decompose = verify._decompose
    monkeypatch.setattr(verify, "_decompose",
                        lambda scenario, tables: calls.append(1) or decompose(scenario, tables))
    assert main(["verify", str(path), "--property", "holmstrom"]) == 1
    witnesses = [line for line in capsys.readouterr().out.splitlines() if "witness" in line]
    assert witnesses == ["  witness: no additive decomposition of welfare exists at level l0: "
                         "the 4-equation system over 4 unknowns is inconsistent"]
    assert len(calls) == 1  # one closed-form decomposition per check


def _run_script(tmp_path, text, *extra):
    script = tmp_path / "script.txt"
    script.write_text(text)
    return main(["run", "example2", "--strategy", str(script), *extra])


def test_run_script_rejects_an_undeclared_agent(tmp_path, capsys):
    assert _run_script(tmp_path, "a1 1 a1lo2\na3 1 a1lo2\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {tmp_path / 'script.txt'}: line 2: undeclared agent 'a3'"]


def test_run_script_rejects_a_repeated_agent_stage(tmp_path, capsys):
    assert _run_script(tmp_path, "a1 1 a1lo2\na1 1 a1lo1\n") == 2
    err = capsys.readouterr().err
    assert "line 2: a1 stage 1 is already scripted on line 1" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("stage", [0, 9])
def test_run_script_rejects_a_stage_the_play_never_reaches(tmp_path, capsys, stage):
    assert _run_script(tmp_path, f"a1 1 a1lo2\na1 2 a1lo2\na1 {stage} a1lo2\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {tmp_path / 'script.txt'}: line 3: a1 stage {stage} was never consulted "
        f"(the play ended after stage 2)"]


def test_run_script_rejects_every_line_under_the_static_scheme(tmp_path, capsys):
    assert _run_script(tmp_path, "a1 1 a1lo2\n", "--scheme", "static_vickrey") == 2
    err = capsys.readouterr().err
    assert "line 1: a1 stage 1 was never consulted (the play ended after stage 1)" in err
    assert len(err.splitlines()) == 1


def test_verify_dominance_under_the_static_scheme_exits_two(capsys):
    assert main(["verify", "example2", "--scheme", "static_vickrey",
                 "--property", "dominance"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: dominance applies to the dynamic protocol, not to static_vickrey"]


def test_verify_participation_under_the_static_scheme_exits_two(capsys):
    assert main(["verify", "example1", "--property", "participation-ex-post",
                 "--scheme", "static_vickrey"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: participation applies to the dynamic protocol, not to static_vickrey"]


def test_verify_stage_bound_under_the_static_scheme_exits_two(capsys):
    assert main(["verify", "example2", "--property", "stage-bound",
                 "--scheme", "static_vickrey"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the stage bound applies to the dynamic protocol, not to static_vickrey"]


VCG_ALL = ["efficiency", "pooled-implementation", "stage-bound", "no-deficit",
           "participation-ex-ante", "dominance"]


def test_verify_all_runs_each_scheme_kinds_properties_in_order(tmp_path, capsys):
    from elabmech.fixtures import fixture
    from elabmech.scenario import serialize_scenario
    from elabmech.transfers import SchemeConfig
    from test_acceptance import zero_y_tables

    s = fixture("example2")
    groves = tmp_path / "groves.scenario"
    groves.write_text(serialize_scenario(
        s._replace(scheme=SchemeConfig(kind="groves", y_tables=zero_y_tables(s)))))

    def checked(*argv):
        main(["verify", *argv, "--all"])
        return [line.split(": ")[1] for line in capsys.readouterr().out.splitlines()
                if not line.startswith("  witness: ")]

    assert checked(str(groves)) == VCG_ALL
    assert checked("example2") == VCG_ALL
    assert checked("--generated", "1", "--seed", "1", "--procurement") == [
        "pooled-implementation", "stage-bound", "budget-balance", "participation-ex-post",
        "dominance"]
    assert checked("example2", "--scheme", "static_vickrey") == ["pooled-implementation"]


def test_verify_all_with_a_property_is_a_usage_error(capsys):
    # --all used to run its list and drop --property without a word.
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "example2", "--all", "--property", "holmstrom"])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "elabmech verify: error: argument --property: not allowed with argument --all")


def test_verify_repeated_property_runs_once(tmp_path, capsys):
    target = tmp_path / "r.json"
    assert main(["verify", "example2", "--property", "efficiency", "--property", "stage-bound",
                 "--property", "efficiency", "--report", str(target)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "example2: efficiency: holds (12 cases)", "example2: stage-bound: holds (18 cases)"]
    payload = json.loads(target.read_text())
    assert [p["property"] for p in payload] == ["efficiency", "stage-bound"]


# sha256 of the JSON reports, recorded before the package's records became
# NamedTuples; the participation report carries witnesses and their replays.
REPORT_DIGESTS = [
    (["run", "example1"], 0,
     "dc7b14f576755ae2dd7b2cd4e7d09005f8887595bfa7005a1cafb47c26aa13cb"),
    (["verify", "example2", "--all"], 0,
     "08fc24af357716046f5921a1133c6bdcfb45f50246e3406c7b9ccaf17d654404"),
    (["verify", "example4r", "--property", "participation-ex-post"], 1,
     "5136037462a30cac8160607167912eb5a088bcee7a636d4419779fe9fe557979"),
]


@pytest.mark.parametrize("argv, status, digest", REPORT_DIGESTS,
                         ids=[" ".join(argv) for argv, _, _ in REPORT_DIGESTS])
def test_json_reports_keep_their_bytes(tmp_path, capsys, argv, status, digest):
    target = tmp_path / "report.json"
    assert main(argv + ["--report", str(target)]) == status
    capsys.readouterr()
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_import_loads_neither_dataclasses_nor_inspect():
    # A fresh isolated interpreter; modules that site preloads do not count.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
             "import elabmech, elabmech.cli, elabmech.verify; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "elabmech.verify" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ["example2", "--property", "efficiency", "--expect-fail", "dominance"],
    ["example2", "--all", "--expect-fail", "budget-balance"],
])
def test_verify_expect_fail_on_a_property_the_run_never_checks_exits_two(capsys, argv):
    # An expected violation nobody looked for would report success
    # without checking anything.
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and argv[-1] in line


@pytest.mark.parametrize("prop", ["holmstrom", "nonnegative-valuations"])
def test_scheme_free_properties_run_under_the_static_scheme(capsys, prop):
    assert main(["verify", "example2", "--scheme", "static_vickrey",
                 "--property", prop]) == 0
    assert f"{prop}: holds" in capsys.readouterr().out


def test_verify_report_is_written_when_an_inapplicable_property_ends_the_run(tmp_path, capsys):
    target = tmp_path / "r.json"
    assert main(["verify", "example2", "--scheme", "static_vickrey", "--property", "efficiency",
                 "--property", "dominance", "--report", str(target)]) == 2
    payload = json.loads(target.read_text())
    assert [(p["property"], p["verdict"]) for p in payload] == [("efficiency", "holds")]


def test_verify_report_is_written_when_the_bound_ends_the_run(tmp_path, capsys):
    target = tmp_path / "r2.json"
    assert main(["verify", "example1", "--property", "efficiency", "--property", "dominance",
                 "--bound", "5", "--report", str(target)]) == 3
    payload = json.loads(target.read_text())
    assert [(p["property"], p["verdict"]) for p in payload] == [("efficiency", "holds")]


def test_verify_failed_premium_assumption_exits_two(tmp_path, capsys):
    from test_transfers import PROCUREMENT
    # seller s1 always wins, so the simplified premium disagrees with the recursion
    text = PROCUREMENT.replace("value: s1 s1lo supply_s1 -64", "value: s1 s1lo supply_s1 -1") \
                      .replace("value: s1 s1hi supply_s1 -80", "value: s1 s1hi supply_s1 -1") \
                      .replace("kind: rspa", "kind: rspa\nsimplified_premium_ok: true")
    path = tmp_path / "always_s1.scenario"
    path.write_text(text)
    assert main(["verify", str(path), "--property", "budget-balance"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: simplified premium ")
    assert err[0].endswith("the opt-out assumption does not hold here")


def test_failed_premium_assumption_names_the_same_level_under_every_hash_seed(tmp_path):
    """The premium recursion visits lower levels in declaration order, so
    the failing cell it names does not follow the hash seed."""
    import elabmech
    from elabmech.generate import generate_scenario
    from elabmech.scenario import serialize_scenario
    s = generate_scenario(2026, 11, procurement=True)
    path = tmp_path / "flagged.scenario"
    path.write_text(serialize_scenario(s._replace(
        scheme=s.scheme._replace(simplified_premium_ok=True))))
    src = os.path.dirname(os.path.dirname(elabmech.__file__))
    outputs = set()
    for seed in (0, 4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "elabmech.cli", "verify", str(path),
                               "--property", "budget-balance"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        outputs.add(done.stderr)
    assert outputs == {"error: simplified premium 1 for (s1, west) disagrees with the full "
                       "recursion 0; the opt-out assumption does not hold here\n"}


def test_lattice_fault_exits_four_but_an_empty_lattice_exits_two(tmp_path, capsys, monkeypatch):
    from elabmech import lattice

    def planted(elements, pairs):
        raise KeyError("planted")

    monkeypatch.setattr(lattice, "_closure", planted)
    assert main(["report", "example2"]) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'planted'\n"
    monkeypatch.undo()
    path = tmp_path / "empty.scenario"
    path.write_text("[lattice]\n[agents]\nagents: a\n")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == "error: lattice: no elements\n"


@pytest.mark.parametrize("probe", ["non-commuting", "missing-covers"])
def test_projection_diagnostics_do_not_depend_on_the_hash_seed(tmp_path, probe):
    from test_scenario_io import DIAMOND_PROBES

    import elabmech
    path = tmp_path / "diamond.scenario"
    path.write_text(DIAMOND_PROBES[probe])
    src = os.path.dirname(os.path.dirname(elabmech.__file__))
    outputs = set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-m", "elabmech.cli", "report", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        outputs.add(done.stderr)
    assert len(outputs) == 1
    assert outputs.pop().count("types: ") == 2


def test_internal_error_exits_four_with_one_line(capsys, monkeypatch):
    from elabmech import verify

    def broken(scenario):
        raise RuntimeError("table lost its row")

    monkeypatch.setattr(verify, "check_efficiency", broken)
    assert main(["verify", "example2", "--property", "efficiency"]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: table lost its row\n"
