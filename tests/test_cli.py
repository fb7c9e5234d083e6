"""CLI dispatch, exit codes, and golden-outcome regressions."""

import contextlib
import json
import pathlib
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest

from polyclinch import ClinchError, cli, instances
from polyclinch.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_PROPERTY_FAIL, main
from polyclinch.instances import POLYMATROID_KINDS, generate_instance, write_instance

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



MONITORS = ["conserved-quantity", "post-clinch-dominance", "reclinch-zero",
            "feasibility", "budgets-nonnegative"]
OUTCOME_CHECKS = ["sold-out", "pareto-tight-sets", "individual-rationality",
                  "budget-feasibility", "membership"]
VERIFY_PROPERTIES = {
    "adwords-quality": MONITORS + OUTCOME_CHECKS,
    "adwords": MONITORS + OUTCOME_CHECKS,
    "appendix-d": MONITORS,
    "graphic": MONITORS + OUTCOME_CHECKS,
    "impossibility": ["pareto-optimal"],
    "multi-unit": MONITORS + OUTCOME_CHECKS,
    "single-keyword": MONITORS + OUTCOME_CHECKS,
    "vod-cut": MONITORS + OUTCOME_CHECKS,
}


@pytest.mark.parametrize("stem", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_verify_passes_on_every_fixture(capsys, stem):
    code, out, _ = run_cli(capsys, "verify", "-i", str(FIXTURES / f"{stem}.json"),
                           "--format", "json")
    assert code == EXIT_OK
    report = json.loads(out)
    properties = report["properties"]
    assert [p["name"] for p in properties] == VERIFY_PROPERTIES[stem]
    assert all(p["passed"] for p in properties)
    # verify reaches its outcome by its own path (monitors, base market)
    assert report["outcome"] == json.loads((GOLDEN / f"{stem}.outcome.json").read_text())


def test_verify_checks_a_quality_market_as_its_base_market(tmp_path, capsys):
    # gamma = (2, 1, 1) at epsilon 2: bidder 0's base value 4 is above bidder
    # 2's value 3 and its budget does not bind, yet no tight set separates them
    inst = generate_instance("multi-unit", 3, None, 0)
    inst = replace(inst, quality=(Fraction(2), Fraction(1), Fraction(1)),
                   config=replace(inst.config, epsilon=Fraction(2)))
    dest = tmp_path / "multi-unit-quality.json"
    write_instance(inst, dest)
    code, out, _ = run_cli(capsys, "verify", "-i", str(dest), "--format", "json")
    assert code == EXIT_PROPERTY_FAIL
    report = json.loads(out)
    assert report["outcome"]["x"] == ["1", "0", "7/2"]
    assert [p["name"] for p in report["properties"]] == MONITORS + OUTCOME_CHECKS
    failed = [p for p in report["properties"] if not p["passed"]]
    assert [p["name"] for p in failed] == ["pareto-tight-sets"]
    witness = failed[0]["witness"]
    assert witness == {"i": 0, "j": 2, "min_set": [0], "min_slack": "7/2"}
    # replay in the base market: values gamma_i * v_i, allocation x_i / gamma_i
    gamma = inst.quality
    values = [g * b.value for g, b in zip(gamma, inst.bidders)]
    x = [Fraction(t) / g for t, g in zip(report["outcome"]["x"], gamma)]
    i, j = witness["i"], witness["j"]
    assert values[i] > values[j]
    assert Fraction(report["outcome"]["pay"][i]) < inst.bidders[i].budget
    oracle = inst.build_oracle()
    slacks = {mask: oracle.value_mask(mask) - sum(x[k] for k in range(3) if mask >> k & 1)
              for mask in range(8) if mask >> i & 1 and not mask >> j & 1}
    low = min(slacks.values())
    assert low == Fraction(witness["min_slack"]) > 0
    smallest = min((m for m in slacks if slacks[m] == low), key=lambda m: bin(m).count("1"))
    assert [k for k in range(3) if smallest >> k & 1] == witness["min_set"]


def test_verify_passes_a_seeded_quality_corpus(tmp_path, capsys):
    # random quality factors on every polymatroid kind, auto epsilon: every
    # property of the base market holds, and run reports the same outcome
    rng = random.Random(27)
    factors = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
    for kind in POLYMATROID_KINDS:
        for k in range(5):
            n = 3 + k
            inst = generate_instance(kind, n, 2, rng.randrange(10**6))
            inst = replace(inst, quality=tuple(rng.choice(factors) for _ in range(n)))
            dest = tmp_path / f"{kind}-{k}.json"
            write_instance(inst, dest)
            code, out, _ = run_cli(capsys, "verify", "-i", str(dest), "--format", "json")
            report = json.loads(out)
            assert [p["name"] for p in report["properties"]] == MONITORS + OUTCOME_CHECKS
            assert code == EXIT_OK, (kind, k, report["properties"])
            run_code, run_out, _ = run_cli(capsys, "run", "-i", str(dest), "--format", "json")
            assert (run_code, json.loads(run_out)["outcome"]) == (EXIT_OK, report["outcome"])


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


def test_main_calls_share_no_parsed_state(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a --trace given to one call
    # must not carry over to the next
    seen = []
    execute = cli.execute
    monkeypatch.setattr(cli, "execute", lambda command, inst, args:
                        seen.append((command, args.instance, args.trace_out))
                        or execute(command, inst, args))
    trace_out = tmp_path / "trace.json"
    first, second = str(FIXTURES / "appendix-d.json"), str(FIXTURES / "multi-unit.json")
    assert run_cli(capsys, "run", "-i", first, "--trace", str(trace_out))[0] == EXIT_OK
    trace_out.unlink()
    assert run_cli(capsys, "run", "-i", second)[0] == EXIT_OK
    assert seen == [("run", first, str(trace_out)), ("run", second, None)]
    assert not trace_out.exists()
    assert cli.build_parser() is cli.build_parser()


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
    # a truncated file is not JSON at all
    bad.write_text((FIXTURES / "multi-unit.json").read_text()[:100])
    code, out, err = run_cli(capsys, "run", "-i", str(bad))
    assert (code, out) == (EXIT_INPUT, "")
    assert f"input error [bad-json] at {bad}: invalid JSON" in err


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


@pytest.mark.parametrize("environment, config, code_name", [
    ({"kind": "graphic", "edges": [["a", 1]]}, {}, "bad-value"),
    ({"kind": "multi-unit", "supply": "1"}, {"max_steps": "abc"}, "bad-value"),
    ({"kind": "h-polytope-2d", "rows": [["1", "-1", "2"], ["0", "1", "1"]]}, {},
     "bad-environment")])
def test_malformed_environment_and_config_exit_input_error(tmp_path, capsys, environment,
                                                           config, code_name):
    bad = tmp_path / "bad.json"
    bidders = [{"value": "1", "budget": "1"}] * (2 if "rows" in environment else 1)
    bad.write_text(json.dumps({"schema": 1, "environment": environment,
                               "bidders": bidders, "config": config}))
    code, _, err = run_cli(capsys, "run", "-i", str(bad))
    assert code == EXIT_INPUT
    assert f"input error [{code_name}]" in err


def test_vod_cut_labels_one_dict_key_exit_input_error(tmp_path, capsys):
    # 1 and true would be one node with both arcs into it: f({0}) = 5, not 2.
    bad = tmp_path / "merged-labels.json"
    bad.write_text(json.dumps({
        "schema": 1,
        "environment": {"kind": "vod-cut", "edges": [["s", 1, "2"], ["s", True, "3"]],
                        "source": "s", "bidder_nodes": [1, True]},
        "bidders": [{"value": "3", "budget": "10"}, {"value": "2", "budget": "10"}]}))
    code, out, err = run_cli(capsys, "run", "-i", str(bad))
    assert (code, out) == (EXIT_INPUT, "")
    assert "input error [bad-value] at instance.environment.edges[1]" in err


def test_quality_on_the_generic_polytope_exits_input_error(tmp_path, capsys):
    data = json.loads((FIXTURES / "impossibility.json").read_text())
    bad = tmp_path / "scaled-polytope.json"
    bad.write_text(json.dumps({**data, "quality": ["3", "1"]}))
    code, _, err = run_cli(capsys, "run", "-i", str(bad))
    assert code == EXIT_INPUT
    assert "input error [bad-value] at instance.quality" in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_curves_off_the_supply_exit_input_error(tmp_path, capsys, command):
    data = json.loads((FIXTURES / "appendix-d.json").read_text())
    data["environment"]["supply"] = "3"              # the curves end at 2
    bad = tmp_path / "off-supply.json"
    bad.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, command, "-i", str(bad))
    assert (code, out) == (EXIT_INPUT, "")
    assert "input error [bad-value] at instance.curves" in err


@pytest.mark.parametrize("m", ["0", "-1"])
def test_gen_adwords_without_keywords_exits_input_error(tmp_path, capsys, m):
    dest = tmp_path / "aw.json"
    code, _, err = run_cli(capsys, "gen", "--kind", "adwords", "--n", "3", "--m", m,
                           "--seed", "0", "-o", str(dest))
    assert code == EXIT_INPUT
    assert "input error [bad-value] at m" in err
    assert not dest.exists()


def test_gen_twice_identical_and_verifies(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for dest in (a, b):
        code, _, _ = run_cli(capsys, "gen", "--kind", "adwords", "--n", "3",
                             "--m", "2", "--seed", "42", "-o", str(dest))
        assert code == EXIT_OK
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("kind", POLYMATROID_KINDS)
def test_gen_output_passes_verify_and_check(tmp_path, capsys, kind):
    dest = tmp_path / f"{kind}.json"
    code, _, _ = run_cli(capsys, "gen", "--kind", kind, "--n", "3", "--m", "2",
                         "--seed", "7", "-o", str(dest))
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "verify", "-i", str(dest))
    assert code == EXIT_OK
    code, _, _ = run_cli(capsys, "check-submodular", "-i", str(dest))
    assert code == EXIT_OK


def test_verify_refuses_past_the_cap_before_running(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    # a 20-edge cycle is one 2-connected block, so its graphic oracle has no
    # reduced rank: the first clinch asks for the whole value table, which
    # refuses before any report is written
    dest = tmp_path / "cycle-20.json"
    assert run_cli(capsys, "gen", "--kind", "graphic", "--n", "20", "--seed", "0",
                   "-o", str(dest))[0] == EXIT_OK
    data = json.loads(dest.read_text())
    data["environment"]["edges"] = [[i, (i + 1) % 20] for i in range(20)]
    dest.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "verify", "-i", str(dest))
    assert code == EXIT_INTERNAL and out == ""
    assert "value table of 'graphic(20 edges)' over 20 elements" in err
    assert "exceeds the cap of 16" in err and "CLINCH_BRUTE_FORCE_CAP" in err
    assert ("Single-keyword, multi-unit and vod-cut oracles need no value table "
            "and run past the cap; a graphic oracle needs one per 2-connected block") in err
    # a fault of the library exits 3 as well, named apart from a size refusal
    with mock.patch.object(cli, "execute", side_effect=ClinchError("books do not balance")):
        code, out, err = run_cli(capsys, "verify", "-i", str(dest))
    assert (code, out, err) == (EXIT_INTERNAL, "", "internal error: books do not balance\n")


def test_graphic_verify_runs_past_the_cap_block_by_block(tmp_path, capsys, monkeypatch):
    # seed-0 n = 20 graphic has one block of 11 edges and nine one-edge parts, so verify
    # clinches on an 11-edge table; check-submodular still needs all 2^20 sets
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    dest = tmp_path / "graphic-20.json"
    assert run_cli(capsys, "gen", "--kind", "graphic", "--n", "20", "--seed", "0",
                   "-o", str(dest))[0] == EXIT_OK
    code, out, err = run_cli(capsys, "verify", "-i", str(dest), "--format", "json")
    assert code == EXIT_OK and err == ""
    properties = json.loads(out)["properties"]
    assert len(properties) == 10 and all(p["passed"] for p in properties)
    code, out, err = run_cli(capsys, "check-submodular", "-i", str(dest))
    assert code == EXIT_INTERNAL and out == ""
    assert "pairwise submodularity check on 'graphic(20 edges)'" in err
    assert "exceeds the cap of 16" in err


@pytest.mark.parametrize("kind", ["single-keyword", "multi-unit", "vod-cut"])
def test_verify_runs_past_the_cap_on_reduced_ranks(tmp_path, capsys, monkeypatch, kind):
    # every check decides by reduced ranks, so none needs the value table
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "4")
    dest = tmp_path / f"{kind}-8.json"
    assert run_cli(capsys, "gen", "--kind", kind, "--n", "8", "--seed", "3",
                   "-o", str(dest))[0] == EXIT_OK
    code, out, err = run_cli(capsys, "verify", "-i", str(dest))
    assert code == EXIT_OK and err == "" and "FAIL" not in out
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "8")
    assert run_cli(capsys, "verify", "-i", str(dest))[1] == out


def test_check_submodular_fixture(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "check-submodular", "-i",
                           str(FIXTURES / "vod-cut.json"))
    assert code == EXIT_OK
    assert "[PASS] submodular-oracle" in out
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "abc")
    code, out, err = run_cli(capsys, "check-submodular", "-i",
                             str(FIXTURES / "vod-cut.json"))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "input error: CLINCH_BRUTE_FORCE_CAP must be an integer, got 'abc'\n"


def test_check_submodular_refuses_the_generic_polytope(capsys):
    code, out, err = run_cli(capsys, "check-submodular", "-i",
                             str(FIXTURES / "impossibility.json"))
    assert (code, out) == (EXIT_INPUT, "")
    assert "input error [unknown-kind]" in err


@pytest.mark.parametrize("command", ["run", "verify", "check-submodular"])
@pytest.mark.parametrize("stem", ["single-keyword", "vod-cut", "appendix-d"])
def test_each_command_builds_the_oracle_once(capsys, command, stem):
    # the oracle the parser checked is the one the command runs
    builders = ("single_keyword_oracle", "vod_cut_oracle", "multi_unit_oracle")
    with contextlib.ExitStack() as stack:
        counters = [stack.enter_context(mock.patch.object(
            instances, name, wraps=getattr(instances, name))) for name in builders]
        code, _, _ = run_cli(capsys, command, "-i", str(FIXTURES / f"{stem}.json"))
    assert code == EXIT_OK
    assert sum(c.call_count for c in counters) == 1


def test_check_submodular_past_the_cap_on_rank_lists(tmp_path, capsys, monkeypatch):
    # single-keyword is decided from its rank list; vod-cut still needs the table
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    for kind, n in (("single-keyword", 128), ("vod-cut", 17)):
        assert run_cli(capsys, "gen", "--kind", kind, "--n", str(n), "--seed", "0",
                       "-o", str(tmp_path / f"{kind}.json"))[0] == EXIT_OK
    code, out, err = run_cli(capsys, "check-submodular", "-i",
                             str(tmp_path / "single-keyword.json"))
    assert code == EXIT_OK and err == "" and "[PASS] submodular-oracle" in out
    code, out, err = run_cli(capsys, "check-submodular", "-i", str(tmp_path / "vod-cut.json"))
    assert code == EXIT_INTERNAL and out == "" and "exceeds the cap of 16" in err
    assert "Single-keyword and multi-unit oracles pass it at any size" in err


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
