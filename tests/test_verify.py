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
from polyclinch.submodular import ResidualOracle, min_constrained
from polyclinch.verify import VerificationReport, replay_dominated_direction

from corpus import KINDS, random_bidders, random_feasible_point, random_oracle

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


def _min_constrained_pareto_witness(oracle, bidders, outcome):
    """check_outcome's tight-set search as first written: one Fraction
    min_constrained per (i, j) pair."""
    n, x, pay = oracle.n, outcome.allocation, outcome.payments
    for i in range(n):
        if bidders[i].budget is not None and pay[i] >= bidders[i].budget:
            continue
        for j in range(n):
            if bidders[j].value >= bidders[i].value:
                continue
            tight_set, slack = min_constrained(
                lambda s: oracle.value(s) - sum((x[k] for k in s), F(0)),
                n, include={i}, exclude={j})
            if slack != 0:
                return {"i": i, "j": j, "min_set": sorted(tight_set), "min_slack": str(slack)}
    return None


def test_check_outcome_tight_sets_match_min_constrained():
    rng = random.Random(9090)
    failing = 0
    for t in range(120):
        n = rng.randint(2, 6)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        bidders = random_bidders(rng, n)
        if t % 2:
            out = run_clinching(oracle, bidders)
            # Shift a little of the allocation between two bidders, or not.
            if t % 4 == 1:
                i, j = rng.sample(range(n), 2)
                step = min(out.allocation[i], F(1, rng.choice((2, 3, 7))))
                x = list(out.allocation)
                x[i] -= step
                x[j] += step
                out = replace(out, allocation=tuple(x))
        else:
            x = random_feasible_point(rng, oracle)
            out = outcome_of(x, [F(rng.randint(0, 3), 4) for _ in range(n)])
        expected = _min_constrained_pareto_witness(oracle, bidders, out)
        assert check_outcome(oracle, bidders, out).result("pareto-tight-sets").witness \
            == expected, t
        failing += expected is not None
    assert 20 <= failing <= 100, failing


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


def _reference_validate_trace(oracle, snapshots):
    """validate_trace as first written: a Fraction ResidualOracle per snapshot."""
    n = oracle.n
    full = (1 << n) - 1
    target = oracle.value_mask(full)
    report = VerificationReport()
    conserved = dominance = reclinch = feasible = budgets_ok = None
    for snap in snapshots:
        if any(v < 0 for v in snap.promised):
            feasible = {"step": snap.step, "violating_set": [],
                        "detail": "negative promised allocation"}
        else:
            member = membership(oracle, snap.promised)
            if not member.ok:
                feasible = {"step": snap.step, "violating_set": sorted(member.violating)}
        if budgets_ok is None:
            for i, b in enumerate(snap.budgets):
                if b is not None and b < 0:
                    budgets_ok = {"step": snap.step, "bidder": i, "budget": str(b)}
                    break
        if feasible is not None:
            break
        res = ResidualOracle(oracle, snap.promised, snap.demands)
        total = res.value_mask(full)
        if conserved is None and sum(snap.promised, F(0)) + total != target:
            conserved = {"step": snap.step,
                         "value": str(sum(snap.promised, F(0)) + total),
                         "expected": str(target)}
        if dominance is None:
            for j in range(n):
                if total > res.value_mask(full ^ (1 << j)):
                    dominance = {"step": snap.step, "j": j}
                    break
        if reclinch is None:
            again = tuple(max(F(0), total - res.value_mask(full ^ (1 << i)))
                          for i in range(n))
            if any(again):
                reclinch = {"step": snap.step, "delta": [str(t) for t in again]}
    report.add("conserved-quantity", conserved is None, conserved,
               f"1'rho + fhat([n]) stays {target}" if conserved is None else "")
    report.add("post-clinch-dominance", dominance is None, dominance)
    report.add("reclinch-zero", reclinch is None, reclinch)
    report.add("feasibility", feasible is None, feasible)
    report.add("budgets-nonnegative", budgets_ok is None, budgets_ok)
    return report


def _corrupt(rng, snaps, how):
    """One snapshot of the trace changed the way a faulty engine might."""
    snaps = list(snaps)
    k = rng.randrange(len(snaps))
    snap = snaps[k]
    i = rng.randrange(len(snap.promised))
    if how == "tampered-demand":
        k = rng.choice([t for t, s in enumerate(snaps) if any(s.demands)] or [k])
        snap = snaps[k]
        i = rng.choice([j for j, q in enumerate(snap.demands) if q] or [i])
    if how == "shaved-promise":
        cut = min(snap.promised[i], F(1, rng.choice((3, 7))))
        snap = replace(snap, promised=snap.promised[:i] + (snap.promised[i] - cut,)
                       + snap.promised[i + 1:])
    elif how == "inflated-promise":
        snap = replace(snap, promised=snap.promised[:i] + (snap.promised[i] + F(1, 2),)
                       + snap.promised[i + 1:])
    elif how == "tampered-demand":
        # A lowered demand can free a rival's clinch or leave supply unsold.
        snap = replace(snap, demands=snap.demands[:i] + (snap.demands[i] / 3,)
                       + snap.demands[i + 1:])
    else:
        snap = replace(snap, budgets=snap.budgets[:i] + (F(-1, 4),) + snap.budgets[i + 1:])
    snaps[k] = snap
    return snaps


def test_validate_trace_matches_fraction_reference():
    rng = random.Random(3131)
    corruptions = ("shaved-promise", "inflated-promise", "tampered-demand",
                   "negative-budget")
    failed = {how: 0 for how in corruptions}
    for t in range(60):
        kind = KINDS[t % len(KINDS)]
        n = rng.randint(1, 8 if t % 6 == 0 else 5)
        oracle = random_oracle(rng, kind, n)
        out = run_clinching(oracle, random_bidders(rng, n), AuctionConfig(trace=True))
        cases = [("clean", out.trace)]
        cases += [(how, _corrupt(rng, out.trace, how)) for how in corruptions]
        for how, snaps in cases:
            expected = _reference_validate_trace(oracle, snaps).to_json()
            assert validate_trace(oracle, snaps).to_json() == expected, (t, kind, how)
            if how == "clean":
                assert expected["ok"]
            else:
                failed[how] += not expected["ok"]
    assert all(count >= 20 for count in failed.values()), failed


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
    # rival's budget exhausts exactly); the tied small values are not
    assert report.result("pinned-profile-on-frontier").passed
    assert report.result("small-values-no-exhaustion").passed
    assert report.result("small-values-inefficient").passed
    assert report.result("small-values-direction-replayed").passed
    assert report.ok()
    a = json.dumps(demo_impossibility().to_json(), sort_keys=True)
    b = json.dumps(demo_impossibility().to_json(), sort_keys=True)
    assert a == b
    assert "1.2381" in " ".join(report.narrative)
