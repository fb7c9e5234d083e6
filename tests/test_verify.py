"""Outcome checkers, truthfulness fuzzing, monitors, and the demos."""

import json
import random
from dataclasses import replace
from fractions import Fraction

from polyclinch import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    Outcome,
    bidder,
    check_dominated_direction,
    check_outcome,
    curve_deviation_grid,
    demo_appendix_d,
    demo_impossibility,
    fuzz_truthfulness,
    membership,
    multi_unit_oracle,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    run_with_monitors,
    validate_trace,
    value_deviation_grid,
)
from polyclinch.verify import replay_dominated_direction

from corpus import random_bidders, random_oracle

F = Fraction


def outcome_of(x, pay, exhausted=()):
    return Outcome(tuple(F(v) for v in x), tuple(F(v) for v in pay), None,
                   frozenset(exhausted))


# ---------------------------------------------------------------------------
# check_outcome
# ---------------------------------------------------------------------------

def test_check_outcome_passes_on_auction_output():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, rng.choice(("multi-unit", "single-keyword")), n)
        bidders = random_bidders(rng, n)
        out = run_clinching(oracle, bidders)
        assert check_outcome(oracle, bidders, out).ok()


def test_check_outcome_flags_undersold():
    oracle = multi_unit_oracle(1, 2)
    report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                           outcome_of([0, F(1, 2)], [0, 0]))
    assert not report.result("sold-out").passed


def test_check_outcome_flags_missing_separating_set():
    # x=(0,1): the only candidate {0} is not tight (f({0})=1 > 0)
    oracle = multi_unit_oracle(1, 2)
    report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                           outcome_of([0, 1], [0, F(1, 2)]))
    prop = report.result("pareto-tight-sets")
    assert not prop.passed
    assert prop.witness["i"] == 0 and prop.witness["j"] == 1


def test_check_outcome_flags_ir_and_budget_breaches():
    oracle = multi_unit_oracle(1, 2)
    report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                           outcome_of([1, 0], [F(3), 0]))
    assert not report.result("individual-rationality").passed
    assert not report.result("budget-feasibility").passed


def test_check_outcome_flags_infeasible_allocation():
    oracle = multi_unit_oracle(1, 2)
    report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                           outcome_of([1, 1], [0, 0]))
    assert not report.result("membership").passed


def test_check_outcome_witnesses_replay():
    oracle = multi_unit_oracle(1, 2)
    x = (F(0), F(1))
    report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                           outcome_of(x, [0, F(1, 2)]))
    w = report.result("pareto-tight-sets").witness
    # replay: every set containing i and excluding j really has slack
    i, j = w["i"], w["j"]
    slacks = [oracle.value(s) - sum(x[k] for k in s)
              for s in [{i}] if j not in {i}]
    assert min(slacks) == F(w["min_slack"]) > 0

    member_report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                                  outcome_of([1, 1], [0, 0]))
    mw = member_report.result("membership").witness
    violating = set(mw["violating_set"])
    assert oracle.value(violating) - sum(F(1) for _ in violating) == F(mw["deficit"]) < 0


# ---------------------------------------------------------------------------
# dominated directions
# ---------------------------------------------------------------------------

ROWS = ((2, 1), (1, 2))
RHS = (6, 6)


def test_efficient_vertex_admits_no_direction():
    bidders = [bidder(F(1, 10), 1), bidder(F(3, 10), 1)]
    out = outcome_of([0, 3], [0, F(1, 4)])
    assert check_dominated_direction(ROWS, RHS, bidders, out) is None


def test_interior_outcome_is_dominated():
    bidders = [bidder(1, 10), bidder(1, 10)]
    out = outcome_of([1, 1], [0, 0])
    direction = check_dominated_direction(ROWS, RHS, bidders, out)
    assert direction is not None
    assert replay_dominated_direction(ROWS, RHS, bidders, out, direction)


def test_exhausted_bidder_blocks_positive_component():
    bidders = [bidder(1, 1), bidder(10, F(1, 4))]
    out = outcome_of([0, 3], [0, F(1, 4)], exhausted=(1,))
    direction = check_dominated_direction(ROWS, RHS, bidders, out)
    if direction is not None:
        assert direction[1] <= 0
        assert replay_dominated_direction(ROWS, RHS, bidders, out, direction)


def test_wrong_corner_under_tied_values_is_dominated():
    bidders = [bidder(F(1, 10), 1), bidder(F(1, 10), 1)]
    out = run_generic_2player(ROWS, RHS, bidders, AuctionConfig(epsilon=F(1, 20)))
    assert out.allocation == (0, 3)
    direction = check_dominated_direction(ROWS, RHS, bidders, out)
    assert direction is not None
    assert replay_dominated_direction(ROWS, RHS, bidders, out, direction)


# ---------------------------------------------------------------------------
# truthfulness fuzzing
# ---------------------------------------------------------------------------

def test_constant_mechanism_is_truthful():
    def run_fn(reports):
        return outcome_of([1, 1], [0, 0])

    def utility(i, out):
        return F(2) * out.allocation[i] - out.payments[i]

    report = fuzz_truthfulness(run_fn, [F(2), F(2)],
                               [[F(1), F(3)], [F(1), F(3)]], utility)
    assert report.ok()


def test_clinching_fuzz_finds_nothing_small():
    oracle = multi_unit_oracle(2, 2)
    true_values = [F(3), F(2)]
    budgets = [F(2), None]
    eps = F(1, 4)
    cfg = AuctionConfig(epsilon=eps)

    def run_fn(reports):
        return run_clinching(oracle, [Bidder(v, b) for v, b in zip(reports, budgets)], cfg)

    def utility(i, out):
        return true_values[i] * out.allocation[i] - out.payments[i]

    grids = [value_deviation_grid(true_values, i, eps) for i in range(2)]
    assert all(len(g) <= 20 for g in grids)
    report = fuzz_truthfulness(run_fn, true_values, grids, utility)
    assert report.ok()


def appendix_d_fuzz_report():
    truthful = [ConcaveCurve.from_slopes([(1, 4), (1, 1)]),
                ConcaveCurve.from_slopes([(2, 3)])]
    budgets = [None, F(4)]
    cfg = AuctionConfig(epsilon=F(1, 2))

    def run_fn(reports):
        return run_decreasing_marginals(reports, budgets, 2, cfg)

    def utility(i, out):
        return truthful[i].value_at(out.allocation[i]) - out.payments[i]

    grids = [curve_deviation_grid(c) for c in truthful]
    return fuzz_truthfulness(run_fn, truthful, grids, utility)


def test_curve_grid_contains_the_known_witness():
    grid = curve_deviation_grid(ConcaveCurve.from_slopes([(1, 4), (1, 1)]))
    assert any(c.breakpoints == ((1, 4), (2, 6)) for c in grid)


def test_fuzz_finds_appendix_d_deviation():
    report = appendix_d_fuzz_report()
    assert not report.ok()
    witness = report.result("truthfulness").witness
    assert witness["bidder"] == 0
    assert F(witness["gain"]) > 0


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def test_run_with_monitors_passes_on_valid_instances():
    rng = random.Random(55)
    for _ in range(8):
        n = rng.randint(1, 5)
        oracle = random_oracle(rng, rng.choice(("multi-unit", "graphic")), n)
        out, report = run_with_monitors(oracle, random_bidders(rng, n), AuctionConfig())
        assert report.ok(), report.failures()


def test_single_bidder_trace_has_one_zero_price_clinch():
    oracle = multi_unit_oracle(3, 1)
    out, report = run_with_monitors(oracle, [bidder(2, "inf")], AuctionConfig())
    assert report.ok()
    clinching = [s for s in out.trace if any(s.clinched)]
    assert len(clinching) == 1
    assert clinching[0].prices == (0,) and clinching[0].clinched == (3,)


def test_corrupted_trace_fails_conservation_at_the_mutated_step():
    oracle = multi_unit_oracle(2, 2)
    out = run_clinching(oracle, [bidder(3, 2), bidder(1, 2)],
                        AuctionConfig(trace=True))
    snaps = list(out.trace)
    # shave sold quantity off one bidder at the final (sold-out) snapshot:
    # the books no longer balance, so conservation must fail right there
    k = len(snaps) - 1
    assert snaps[k].promised[0] >= F(1, 7)
    shaved = (snaps[k].promised[0] - F(1, 7),) + snaps[k].promised[1:]
    snaps[k] = replace(snaps[k], promised=shaved)
    report = validate_trace(oracle, snaps)
    assert not report.ok()
    conserved = report.result("conserved-quantity")
    assert not conserved.passed and conserved.witness["step"] == snaps[k].step


def test_infeasible_trace_reports_the_violated_set_and_stops():
    oracle = multi_unit_oracle(2, 2)
    out = run_clinching(oracle, [bidder(3, 2), bidder(1, 2)],
                        AuctionConfig(trace=True))
    snaps = list(out.trace)
    k = len(snaps) - 1
    inflated = (snaps[k].promised[0] + 1,) + snaps[k].promised[1:]
    snaps[k] = replace(snaps[k], promised=inflated)
    report = validate_trace(oracle, snaps)
    feasible = report.result("feasibility")
    assert not feasible.passed
    assert feasible.witness == {"step": snaps[k].step,
                                "violating_set": sorted(membership(oracle, inflated).violating)}
    # The snapshots before it are feasible and balance.
    assert report.result("conserved-quantity").passed


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

def test_demo_appendix_d_all_assertions_hold():
    report = demo_appendix_d()
    assert report.ok(), report.failures()
    assert report.result("truthful-payments").witness == {"pay": ["3", "1"]}


def test_demo_appendix_d_deterministic():
    a = json.dumps(demo_appendix_d().to_json(), sort_keys=True)
    b = json.dumps(demo_appendix_d().to_json(), sort_keys=True)
    assert a == b


def test_demo_impossibility_detects_failure_and_is_deterministic():
    report = demo_impossibility()
    assert report.result("pareto-failure-detected").passed
    # the pinned large-gap profile is Pareto-optimal in this mechanism (the
    # rival's budget exhausts exactly); recorded honestly as a failing check
    assert not report.result("pareto-failure-at-pinned-profile").passed
    assert report.result("small-values-no-exhaustion").passed
    assert not report.result("small-values-efficient-vertex").passed
    a = json.dumps(demo_impossibility().to_json(), sort_keys=True)
    b = json.dumps(demo_impossibility().to_json(), sort_keys=True)
    assert a == b
    assert "1.2381" in " ".join(report.narrative)
