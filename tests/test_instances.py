"""Instance-file parsing, serialization round-trips and seeded generation."""

import json
from dataclasses import replace
from fractions import Fraction
from functools import partial

import pytest

from polyclinch import DivergenceError, ParseError, SizeError
from polyclinch.cli import _verify
from polyclinch.instances import (
    POLYMATROID_KINDS,
    generate_instance,
    parse_instance,
    parse_instance_data,
    parse_rational,
    serialize_instance,
)

from corpus import FIXTURE_FILES, FIXTURES, mutated_files


def minimal(**overrides):
    data = {
        "schema": 1,
        "environment": {"kind": "multi-unit", "supply": "5"},
        "bidders": [{"value": "3", "budget": "2"}, {"value": "1", "budget": "inf"}],
        "config": {"epsilon": "auto", "max_steps": 1000, "trace": False},
    }
    data.update(overrides)
    return data


def test_fixture_files_exist():
    names = {p.name for p in FIXTURE_FILES}
    assert {"appendix-d.json", "impossibility.json", "multi-unit.json",
            "single-keyword.json", "adwords.json", "graphic.json",
            "vod-cut.json"} <= names


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.name)
def test_parse_serialize_parse_is_identity(path):
    first = parse_instance(path)
    serialized = serialize_instance(first)
    second = parse_instance_data(serialized)
    assert serialize_instance(second) == serialized
    assert second.bidders == first.bidders
    assert second.environment.kind == first.environment.kind
    assert second.curves == first.curves
    assert second.quality == first.quality
    assert second == first                      # the kept oracle is not compared
    if first.environment.kind != "h-polytope-2d":
        # the oracle the parser checked is kept; build_oracle builds anew
        assert first.oracle is first.oracle
        assert first.build_oracle() is not first.oracle
        assert replace(first).oracle is not first.oracle


def test_zero_denominator_budget_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance_data(minimal(bidders=[{"value": "1", "budget": "4/0"}]))
    assert err.value.code == "malformed-rational"


def test_float_rationals_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance_data(minimal(bidders=[{"value": "1.5", "budget": "1"}]))
    assert err.value.code == "malformed-rational"


def test_rationals_with_a_newline_a_space_or_non_ascii_digits_rejected():
    # only ASCII digits, with nothing before or after: "\u0663" is an Arabic-Indic 3
    for raw in ("3\n", "1/2\n", " 3", "3 ", "\u0663", "1/\u0664", "-3/4\n"):
        with pytest.raises(ParseError) as err:
            parse_instance_data(minimal(bidders=[{"value": raw, "budget": "1"}]))
        assert err.value.code == "malformed-rational", raw
    assert parse_rational("-3/4", "x") == Fraction(-3, 4)


def test_unknown_kind_rejected():
    # a kind that is not a string, hashable or not, is unknown too
    for kind in ("matroid-intersection", [], {}, None, 1):
        with pytest.raises(ParseError) as err:
            parse_instance_data(minimal(environment={"kind": kind}))
        assert (err.value.code, err.value.field) == ("unknown-kind", "instance.environment.kind")
    # gen writes polymatroid markets only
    with pytest.raises(ParseError, match="got 'h-polytope-2d'$") as err:
        generate_instance("h-polytope-2d", 2)
    assert (err.value.code, err.value.field) == ("unknown-kind", "kind")


def test_missing_field_named():
    with pytest.raises(ParseError) as err:
        parse_instance_data(minimal(environment={"kind": "multi-unit"}))
    assert err.value.code == "missing-field"
    assert "supply" in err.value.field


def test_inconsistent_interest_graph_rejected():
    env = {"kind": "adwords", "interests": [[0, 5]], "ctrs": [["1", "1"]]}
    data = minimal(environment=env)
    with pytest.raises(ParseError) as err:
        parse_instance_data(data)
    assert err.value.code == "inconsistent-graph"


def test_bidder_listed_twice_in_a_keyword_rejected():
    env = {"kind": "adwords", "interests": [[0, 0]], "ctrs": [["2", "1"]]}
    with pytest.raises(ParseError) as err:
        parse_instance_data(minimal(environment=env))
    assert err.value.code == "inconsistent-graph"
    assert err.value.field.endswith("interests[0]")


@pytest.mark.parametrize("bidder", [True, 0.5, "1", None])
def test_non_int_interest_bidder_rejected(bidder):
    env = {"kind": "adwords", "interests": [[0, bidder]], "ctrs": [["1", "1"]]}
    with pytest.raises(ParseError) as err:
        parse_instance_data(minimal(environment=env))
    assert err.value.code == "inconsistent-graph"


def test_per_keyword_quality_rejected():
    data = minimal(quality=[["1", "2"], ["2", "1"]])
    with pytest.raises(ParseError) as err:
        parse_instance_data(data)
    assert err.value.code == "bad-value"
    assert "not a polymatroid" in str(err.value)


def test_missing_instance_file():
    with pytest.raises(ParseError) as err:
        parse_instance("/nonexistent/instance.json")
    assert err.value.code == "missing-file"


@pytest.mark.parametrize("stem, quality", [("impossibility", ["3", "1"]),
                                            ("appendix-d", ["2", "1"])])
def test_quality_outside_linear_polymatroid_rejected(stem, quality):
    # the generic 2-bidder engine and curve runs take no scale factors
    data = json.loads((FIXTURES / f"{stem}.json").read_text())
    with pytest.raises(ParseError) as err:
        parse_instance_data({**data, "quality": quality})
    assert (err.value.code, err.value.field) == ("bad-value", "instance.quality")


def test_malformed_structures_raise_parse_errors():
    vod_cut = {"kind": "vod-cut", "edges": [["s", "a"]], "source": "s",
               "bidder_nodes": ["a", "b"]}
    two_curves = [[["1", "2"]], [["1", "1"]]]
    cases = [partial(parse_instance_data, data) for data in (
                 ["not", "an", "object"],
                 minimal(schema=2),
                 minimal(environment="multi-unit"),
                 minimal(bidders=["3"]),
                 minimal(bidders={"value": "3"}),
                 minimal(config="fast"),
                 minimal(environment={"kind": "graphic", "edges": [[0], [0, 1]]}),
                 minimal(environment={"kind": "graphic", "edges": [["a", 1], [0, 1]]}),
                 minimal(environment={"kind": "graphic", "edges": [[0, 1.5], [0, 1]]}),
                 minimal(environment=vod_cut),
                 minimal(environment={"kind": "single-keyword", "ctrs": 5}),
                 minimal(environment={"kind": "adwords", "interests": [[0, 1]], "ctrs": 5}),
                 minimal(bidders=[{"budget": "2"}, {"value": "1", "budget": "inf"}]),
                 minimal(quality=5),
                 minimal(quality=["1"]),
                 minimal(quality=["1", "0"]),
                 minimal(environment={"kind": "single-keyword", "ctrs": ["2", "1"]},
                         curves=two_curves),
                 minimal(curves=two_curves[:1]),
                 minimal(curves=[[["1", "1"], ["2", "3"]], [["1", "1"]]]),
                 minimal(config={"max_steps": "abc"}),
                 minimal(config={"max_steps": 0}),
                 minimal(config={"max_steps": 2.7}),
                 minimal(config={"max_steps": True}),
                 minimal(config={"trace": "false"}))]
    cases.append(partial(generate_instance, "multi-unit", 0))
    for case in cases:
        with pytest.raises(ParseError) as err:
            case()
        assert err.value.code and err.value.field, case.args
    # rules the library decides, named at the parser's field in the library's words
    appendix_d = json.loads((FIXTURES / "appendix-d.json").read_text())
    appendix_d["environment"]["supply"] = "3"       # the curves end at 2
    extra_node = {"kind": "vod-cut", "source": "s", "bidder_nodes": ["a", "b", "c"],
                  "edges": [["s", "a", "2"], ["s", "b", "3"], ["s", "c", "1"]]}
    library_rules = [
        (appendix_d, "instance.curves", "curve 0 is defined on [0, 2], expected [0, 3]: "
                                        "its last breakpoint must be at the supply"),
        (minimal(environment={"kind": "single-keyword", "ctrs": ["3", "2", "1"]}),
         "instance.bidders", "expected 3 bidders, got 2"),
        (minimal(environment={"kind": "graphic", "edges": [[0, 1], [1, 2], [0, 2]]}),
         "instance.bidders", "expected 3 bidders, got 2"),
        (minimal(environment=extra_node), "instance.bidders", "expected 3 bidders, got 2"),
        (minimal(bidders=[{"value": "3", "budget": "2"}, {"value": "0", "budget": "1"}]),
         "instance.bidders[1]", "bidder values must be > 0, got 0"),
        (minimal(bidders=[{"value": "3", "budget": "-1"}, {"value": "1", "budget": "1"}]),
         "instance.bidders[0]", "budgets must be >= 0, got -1")]
    for data, field, message in library_rules:
        with pytest.raises(ParseError) as err:
            parse_instance_data(data)
        assert (err.value.code, err.value.field, str(err.value)) == ("bad-value", field, message)


def _vod_cut(edges, bidder_nodes, source="s"):
    return minimal(environment={"kind": "vod-cut", "edges": edges, "source": source,
                                "bidder_nodes": bidder_nodes})


@pytest.mark.parametrize("label", [True, 1.0, [1], {"a": 1}])
def test_vod_cut_labels_json_keeps_apart_rejected(label):
    # 1, true and 1.0 are one dict key, and lists and objects none at all,
    # so a label that is not a string or an int is named by its field.
    cases = [(_vod_cut([["s", 1, "2"], ["s", label, "3"]], [1, 2]), "edges[1]"),
             (_vod_cut([["s", 1, "2"], ["s", 2, "3"]], [1, label]), "bidder_nodes[1]"),
             (_vod_cut([["s", 1, "2"], ["s", 2, "3"]], [1, 2], label), "source")]
    for data, field in cases:
        with pytest.raises(ParseError) as err:
            parse_instance_data(data)
        loc = f"instance.environment.{field}"
        assert (err.value.code, err.value.field, str(err.value)) == (
            "bad-value", loc, f"{loc}: node labels must be strings or ints, got {label!r}")


def test_vod_cut_string_and_int_labels_parse():
    inst = parse_instance_data(_vod_cut([[0, 1, "2"], [0, "1", "3"]], [1, "1"], source=0))
    assert [inst.build_oracle().value({i}) for i in range(2)] == [2, 3]


@pytest.mark.parametrize("rows, match", [
    ([["-1", "1", "3"], ["1", "1", "2"]], "A >= 0; row 0 is"),
    ([["1", "0", "3"]], "coordinate 1 is unbounded"),
    ([["0", "2", "3"], ["0", "1", "1"]], "coordinate 0 is unbounded")])
def test_h_polytope_rows_checked_at_parse_time(rows, match):
    env = {"kind": "h-polytope-2d", "rows": rows}
    with pytest.raises(ParseError, match=match) as err:
        parse_instance_data(minimal(environment=env))
    assert (err.value.code, err.value.field) == ("bad-environment", "instance.environment")


def test_generation_is_deterministic():
    a = serialize_instance(generate_instance("adwords", 3, 2, seed=42))
    b = serialize_instance(generate_instance("adwords", 3, 2, seed=42))
    assert json.dumps(a) == json.dumps(b)
    c = serialize_instance(generate_instance("adwords", 3, 2, seed=43))
    assert json.dumps(a) != json.dumps(c)


def test_generation_refuses_adwords_without_keywords():
    # m < 1 would write a market with no interests, in which nothing is sold
    for m in (0, -1):
        with pytest.raises(ParseError) as err:
            generate_instance("adwords", 3, m)
        assert (err.value.code, err.value.field) == ("bad-value", "m")
    assert len(generate_instance("adwords", 3, 1).environment.payload["interests"]) == 1
    # the other kinds ignore m
    for kind in [k for k in POLYMATROID_KINDS if k != "adwords"]:
        generate_instance(kind, 3, 0).build_oracle()


@pytest.mark.parametrize("kind", POLYMATROID_KINDS)
def test_generated_instances_build_valid_oracles(kind):
    from polyclinch import verify_submodular
    for seed in range(3):
        inst = generate_instance(kind, 3, 2, seed=seed)
        assert verify_submodular(inst.build_oracle()).ok


def test_a_file_that_parses_runs():
    # The parser decides every domain rule by the function the run calls,
    # so a file that parses also runs: it may only stop at the step cap or
    # at the enumeration cap.  The behaviour lock pins the error of each
    # mutant that does not parse.
    for data in mutated_files():
        try:
            inst = parse_instance_data(data)
        except ParseError:
            continue
        inst.config = replace(inst.config, max_steps=min(inst.config.max_steps, 500))
        try:
            _verify(inst)
        except DivergenceError:
            pass
        except SizeError as exc:
            assert exc.cap is not None, (data, exc)
        except Exception as exc:
            pytest.fail(f"{json.dumps(data)} parses, but verifying it raises {exc!r}")
