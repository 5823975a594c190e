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


def test_fixtures_subcommand(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert set(out.split()) == set(FIXTURES)
    assert main(["fixtures", "example2"]) == 0
    assert "[lattice]" in capsys.readouterr().out
    assert main(["fixtures", "nope"]) == 2


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
                        lambda scenario: calls.append(1) or decompose(scenario))
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
