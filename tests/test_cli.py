"""CLI dispatch, exit codes, and golden-outcome regressions."""

import json
import pathlib

import pytest

from polyclinch.cli import EXIT_INPUT, EXIT_OK, main

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.outcome.json")))
def test_run_matches_golden_outcome(capsys, name):
    stem = name.replace(".outcome", "")
    code, out, _ = run_cli(capsys, "run", "-i", str(FIXTURES / f"{stem}.json"),
                           "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    golden = json.loads((GOLDEN / f"{stem}.outcome.json").read_text())
    assert report["outcome"]["x"] == golden["x"]
    assert report["outcome"]["pay"] == golden["pay"]
    assert report["outcome"]["exhausted"] == golden["exhausted"]


def test_run_appendix_d_pays_three_one(capsys):
    code, out, _ = run_cli(capsys, "run", "-i", str(FIXTURES / "appendix-d.json"),
                           "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["outcome"]["pay"] == ["3", "1"]


def test_verify_exit_zero_on_polymatroid_fixture(capsys):
    code, out, _ = run_cli(capsys, "verify", "-i", str(FIXTURES / "multi-unit.json"))
    assert code == EXIT_OK
    assert "[PASS] sold-out" in out


def test_trace_file_written(tmp_path, capsys):
    trace_out = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "run", "-i", str(FIXTURES / "appendix-d.json"),
                         "--trace", str(trace_out))
    assert code == EXIT_OK
    trace = json.loads(trace_out.read_text())
    assert trace[0]["step"] == 0
    assert {"p", "rho", "d", "delta", "B_rem", "fhat_full"} <= set(trace[0])


def test_trace_file_written_when_instance_has_trace_off(tmp_path, capsys):
    data = json.loads((FIXTURES / "multi-unit.json").read_text())
    data["config"]["trace"] = False
    instance = tmp_path / "multi-unit-untraced.json"
    instance.write_text(json.dumps(data))
    trace_out = tmp_path / "trace.json"
    code, out, _ = run_cli(capsys, "run", "-i", str(instance), "--trace", str(trace_out),
                           "--format", "json")
    assert code == EXIT_OK
    trace = json.loads(trace_out.read_text())
    assert [snap["step"] for snap in trace] == list(range(len(trace)))
    assert json.loads(out)["outcome"]["x"] == trace[-1]["rho"]


def test_demo_appendix_d_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "demo", "appendix-d")
    assert code == EXIT_OK
    assert "[PASS] rival-clinches-at-price-two" in out


def test_demo_impossibility_reports_honest_failures(capsys):
    code, out, _ = run_cli(capsys, "demo", "impossibility", "--format", "json")
    report = json.loads(out)
    by_name = {p["name"]: p for p in report["properties"]}
    assert {name: p["passed"] for name, p in by_name.items()} == {
        "pareto-failure-detected": True,
        "pinned-profile-on-frontier": True,
        "small-values-no-exhaustion": True,
        "small-values-inefficient": True,
        "small-values-direction-replayed": True,
    }
    assert by_name["pinned-profile-on-frontier"]["witness"] == {
        "x": ["11673353/8731800", "40717447/17463600"], "exhausted": [1],
        "x0+2x1": "6", "direction": None}
    assert by_name["small-values-no-exhaustion"]["witness"] == {"pay": ["0", "3/20"]}
    assert by_name["small-values-inefficient"]["witness"] == {
        "x": ["0", "3"], "welfare": "3/10", "efficient": "2/5"}
    assert by_name["small-values-direction-replayed"]["witness"] == {
        "direction": ["3/2", "-3/2"]}
    assert code == EXIT_OK  # exit code is a function of report content only


def test_malformed_rational_exits_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "environment": {"kind": "multi-unit", "supply": "1"},
        "bidders": [{"value": "1", "budget": "4/0"}],
        "config": {"epsilon": "auto"},
    }))
    code, _, err = run_cli(capsys, "run", "-i", str(bad))
    assert code == EXIT_INPUT
    assert "malformed-rational" in err


def test_unknown_kind_exits_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "environment": {"kind": "matroid-intersection"},
        "bidders": [{"value": "1", "budget": "1"}],
    }))
    code, _, err = run_cli(capsys, "gen", "--kind", "multi-unit", "--n", "2",
                           "--seed", "1", "-o", str(tmp_path / "out.json"))
    assert code == EXIT_OK
    code, _, err = run_cli(capsys, "run", "-i", str(bad))
    assert code == EXIT_INPUT
    assert "unknown-kind" in err


def test_gen_twice_identical_and_verifies(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code, _, _ = run_cli(capsys, "gen", "--kind", "adwords", "--n", "3",
                             "--m", "2", "--seed", "42", "-o", str(dest))
        assert code == EXIT_OK
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("kind", ["multi-unit", "single-keyword", "adwords",
                                  "graphic", "vod-cut"])
def test_gen_output_passes_verify_and_check(tmp_path, capsys, kind):
    dest = tmp_path / f"{kind}.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", kind, "--n", "3", "--m", "2",
                         "--seed", "7", "-o", str(dest))
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "verify", "-i", str(dest))
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "check-submodular", "-i", str(dest))
    assert code == EXIT_OK


def test_check_submodular_fixture(capsys):
    code, out, _ = run_cli(capsys, "check-submodular", "-i",
                           str(FIXTURES / "vod-cut.json"))
    assert code == EXIT_OK
    assert "[PASS] submodular-oracle" in out


def test_verify_pareto_failure_exits_one_with_witness(tmp_path, capsys):
    # tied low values on the fixed 2D polytope land on a dominated corner
    bad = tmp_path / "tied.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "environment": {"kind": "h-polytope-2d",
                        "rows": [["2", "1", "6"], ["1", "2", "6"]]},
        "bidders": [{"value": "1/10", "budget": "1"},
                    {"value": "1/10", "budget": "1"}],
        "config": {"epsilon": "1/20", "max_steps": 100000, "trace": True},
    }))
    code, out, _ = run_cli(capsys, "verify", "-i", str(bad))
    assert code == 1
    assert "[FAIL] pareto-optimal" in out
    assert "witness" in out and "direction" in out
