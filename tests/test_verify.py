"""Outcome checkers, truthfulness fuzzing, monitors, and the demos."""

import json
import math
import pathlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from polyclinch import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    DomainError,
    Outcome,
    SizeError,
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
from polyclinch import verify
from polyclinch.auction import _scaled_bidders, _stretched
from polyclinch.instances import generate_instance, parse_instance
from polyclinch.submodular import ReducedRank, ResidualOracle, SubmodularOracle, min_constrained
from polyclinch.verify import VerificationReport, replay_dominated_direction

from corpus import KINDS, random_bidders, random_feasible_point, random_oracle, table_only

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


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



def test_check_outcome_reports_payment_witnesses_in_the_base_view():
    # quality factors gamma = (2, 1): the base bidders hold values gamma_i * v_i
    # and the base allocation x_i / gamma_i, so v * x and the payments are those
    # of the scaled market
    oracle = multi_unit_oracle(2, 2)
    factors, base = _scaled_bidders(2, [2, 1], [bidder(1, 2), bidder(3, 5)])
    assert base == [bidder(2, 2), bidder(3, 5)]
    outcome = outcome_of([1, 1], [3, 0])
    assert _stretched(factors, outcome).allocation == (2, 1)
    report = check_outcome(oracle, base, outcome)
    assert report.result("membership").passed
    assert report.result("individual-rationality").witness == {
        "i": 0, "pay": "3", "value_times_x": "2"}
    assert report.result("budget-feasibility").witness == {
        "i": 0, "pay": "3", "budget": "2"}
    over = check_outcome(oracle, base, outcome_of([2, 1], [0, 0]))   # scaled (4, 1)
    assert over.result("membership").witness == {"violating_set": [0, 1], "deficit": "-1"}
    assert over.result("individual-rationality").passed
    assert over.result("budget-feasibility").passed


def test_verifiers_refuse_a_bidder_list_of_the_wrong_length():
    # bidder 2 pays 5, above its budget 1 and its value x allocation 1; a
    # list without it would hide both failures, so both lengths are refused
    oracle = multi_unit_oracle(3, 3)
    bidders = [bidder(2, 9), bidder(2, 9), bidder(1, 1)]
    outcome = outcome_of([1, 1, 1], [0, 0, 5])
    report = check_outcome(oracle, bidders, outcome)
    assert not report.result("individual-rationality").passed
    assert not report.result("budget-feasibility").passed
    for wrong in (bidders[:2], bidders + [bidder(1, 1)]):
        with pytest.raises(DomainError, match=f"expected 3 bidders, got {len(wrong)}"):
            check_outcome(oracle, wrong, outcome)


def test_check_outcome_flags_infeasible_allocation():
    oracle = multi_unit_oracle(1, 2)
    report = check_outcome(oracle, [bidder(2, 1), bidder(1, 1)],
                           outcome_of([1, 1], [0, 0]))
    assert not report.result("membership").passed


def _counting_rank(oracle, seen):
    """The same set function, whose reduced rank notes in ``seen`` each c it
    solves cold, as Fractions; the solutions' own re-solves go unnoted."""
    rank = oracle.rank()

    def solve(scale, c):
        seen.append(tuple(F(v, rank.den * scale) for v in c))
        return rank.solve(scale, c)
    return SubmodularOracle(oracle.n, oracle.value_mask, oracle.monotone, oracle.name,
                            reduced_rank=ReducedRank(rank.den, solve))


def test_check_outcome_runs_membership_once_per_report():
    # x in P(f) is decided by the one cold solve at x, which the tight-set
    # solves then start from, on the table solver as on a structural
    # reduced rank; a negative or wrong-length allocation is refused before
    # any solve
    bidders = [bidder(2, 1), bidder(1, 1)]
    for base in (multi_unit_oracle(2, 2), table_only(multi_unit_oracle(2, 2))):
        seen = []
        oracle = _counting_rank(base, seen)
        assert check_outcome(oracle, bidders, outcome_of([1, 1], [0, 0])).result(
            "membership").passed
        assert seen == [(1, 1)]
        report = check_outcome(oracle, bidders, outcome_of([2, 1], [0, 0]))
        assert report.result("membership").witness == {"violating_set": [0, 1], "deficit": "-1"}
        assert seen == [(1, 1), (2, 1)]
        for x in ([-1, 1], [1], [1, 1, 0]):
            with pytest.raises(DomainError):
                check_outcome(oracle, bidders, outcome_of(x, [0] * len(x)))
        assert len(seen) == 2
    # the property is membership(oracle, x), result and witness, on the
    # seeded corpus, inside P(f) and outside it
    rng = random.Random(4545)
    infeasible = 0
    for t in range(40):
        n = rng.randint(2, 7)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        oracle = table_only(oracle) if t % 3 == 0 else oracle
        bidders = random_bidders(rng, n)
        for planted in _planted(rng, oracle, run_clinching(oracle, bidders)):
            member = membership(oracle, planted.allocation)
            result = check_outcome(oracle, bidders, planted).result("membership")
            assert (result.passed, result.witness) == (member.ok, None if member.ok else {
                "violating_set": sorted(member.violating), "deficit": str(member.deficit)}), t
            infeasible += not member.ok
    assert infeasible >= 30, infeasible


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


RANK_KINDS = ("single-keyword", "multi-unit", "vod-cut")


def _planted(rng, oracle, out):
    """The outcome and three perturbations of it: a shift between two
    bidders, an inflated allocation (outside P(f)) and a random point of
    P(f) with random payments."""
    n = oracle.n
    i, j = rng.sample(range(n), 2)
    shifted = list(out.allocation)
    step = min(shifted[i], F(1, rng.choice((2, 3, 7))))
    shifted[i] -= step
    shifted[j] += step
    inflated = list(out.allocation)
    inflated[i] += F(1, rng.choice((1, 2, 5)))
    return [out, replace(out, allocation=tuple(shifted)),
            replace(out, allocation=tuple(inflated)),
            outcome_of(random_feasible_point(rng, oracle),
                       [F(rng.randint(0, 3), 4) for _ in range(n)])]


def test_reduced_rank_verifiers_match_the_table_path():
    # check_outcome and validate_trace by R give the reports the integer
    # table gives on the same set function, on clean and planted outcomes
    # and traces, inside P(f) and outside it
    rng = random.Random(2121)
    failing = infeasible = pareto = 0
    for t in range(90):
        n = rng.randint(2, 8)
        oracle = random_oracle(rng, RANK_KINDS[t % 3], n)
        table = table_only(oracle)
        bidders = random_bidders(rng, n)
        out = run_clinching(oracle, bidders, AuctionConfig(trace=True))
        for planted in _planted(rng, oracle, out):
            expected = check_outcome(table, bidders, planted)
            assert check_outcome(oracle, bidders, planted).to_json() == expected.to_json(), t
            failing += not expected.ok()
            feasible = expected.result("membership").passed
            infeasible += not feasible
            pareto += feasible and not expected.result("pareto-tight-sets").passed
        for how in ("clean", "shaved-promise", "inflated-promise", "tampered-demand"):
            snaps = out.trace if how == "clean" else _corrupt(rng, out.trace, how)
            assert validate_trace(oracle, snaps).to_json() == \
                validate_trace(table, snaps).to_json(), (t, how)
    assert failing >= 180 and infeasible >= 90 and pareto >= 80, (failing, infeasible, pareto)


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
    # past X no point of X reaches v.x, so there is no direction to search
    assert check_dominated_direction(ROWS, RHS, bidders, outcome_of([3, 3], [0, 0])) is None


def test_interior_outcome_is_dominated():
    bidders = [bidder(1, 10), bidder(1, 10)]
    out = outcome_of([1, 1], [0, 0])
    direction = check_dominated_direction(ROWS, RHS, bidders, out)
    assert direction is not None
    assert replay_dominated_direction(ROWS, RHS, bidders, out, direction)
    # the replay refuses a direction that lowers v.x, leaves X or leaves y >= 0
    for wrong in ((-1, 0), (3, 3), (-2, 2)):
        assert not replay_dominated_direction(ROWS, RHS, bidders, out, wrong)


def test_exhausted_bidder_blocks_positive_component():
    bidders = [bidder(1, 1), bidder(10, F(1, 4))]
    out = outcome_of([0, 3], [0, F(1, 4)], exhausted=(1,))
    direction = check_dominated_direction(ROWS, RHS, bidders, out)
    if direction is not None:
        assert direction[1] <= 0
        assert replay_dominated_direction(ROWS, RHS, bidders, out, direction)
    # (-1, 1) raises v.x but gives the exhausted bidder 1 more
    assert not replay_dominated_direction(ROWS, RHS, bidders, out, (-1, 1))


def test_replay_refuses_a_point_on_the_frontier():
    # x = (2, 2) is the vertex where both rows bind; (0, 0) stays there and
    # (1, -2) slides along 2x0 + x1 = 6 to (3, 0).  Both keep v.d >= 0 and
    # stay in X, but no coordinate can still grow, so neither is dominated.
    bidders = [bidder(3, 10), bidder(1, 10)]
    out = outcome_of([2, 2], [0, 0])
    for direction in ((0, 0), (1, -2)):
        assert not replay_dominated_direction(ROWS, RHS, bidders, out, direction)


def test_wrong_corner_under_tied_values_is_dominated():
    bidders = [bidder(F(1, 10), 1), bidder(F(1, 10), 1)]
    out = run_generic_2player(ROWS, RHS, bidders, AuctionConfig(epsilon=F(1, 20)))
    assert out.allocation == (0, 3)
    direction = check_dominated_direction(ROWS, RHS, bidders, out)
    assert direction is not None
    assert replay_dominated_direction(ROWS, RHS, bidders, out, direction)


@pytest.mark.parametrize("rows, rhs, message", [
    (((1, 0),), (2,), "coordinate 1 is unbounded"),
    (((-1, 1), (1, 1)), (1, 2), "need A >= 0; row 0 is"),
])
def test_dominated_direction_refuses_rows_outside_bounded_packing(rows, rhs, message):
    # neither polytope is a bounded 2D packing polytope, where alone the search
    # is exact; both used to return a direction, (-2, 1) and (-2/3, 1/3)
    bidders = [bidder(1, 1), bidder(1, 1)]
    out = outcome_of([1, 1], [0, 0])
    with pytest.raises(DomainError, match=message):
        check_dominated_direction(rows, rhs, bidders, out)
    with pytest.raises(DomainError, match=message):
        replay_dominated_direction(rows, rhs, bidders, out, (-1, 1))


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
    with pytest.raises(KeyError, match="sold-out"):
        report.result("sold-out")

    def pay_as_bid(reports):             # each bidder wins one unit at its own report
        return outcome_of([1, 1], reports)

    report = fuzz_truthfulness(pay_as_bid, [F(2), F(2)],
                               [[F(1), F(3)], [F(1), F(3)]], utility)
    witness = report.result("truthfulness").witness
    assert not report.ok()
    assert (witness["bidder"], witness["deviation"], witness["gain"]) == (0, "1", "1")


def test_fuzz_takes_one_grid_per_bidder():
    runs = []

    def run_fn(reports):
        runs.append(list(reports))
        return outcome_of([1, 1], [0, 0])

    def utility(i, out):
        return out.allocation[i]

    for grids in ([[F(1)]], [[F(1)], [F(3)], [F(5)]]):
        message = f"one deviation grid per bidder: 2 reports, {len(grids)} grids"
        with pytest.raises(DomainError, match=message):
            fuzz_truthfulness(run_fn, [F(2), F(2)], grids, utility)
    assert runs == []
    # an empty grid skips its bidder: only bidder 1 deviates
    report = fuzz_truthfulness(run_fn, [F(2), F(2)], [[], [F(3)]], utility)
    assert runs == [[2, 2], [2, 3]]
    assert report.result("truthfulness").detail == "no profitable deviation among 1 misreports"


def test_value_deviation_grid_keeps_the_first_distinct_misreports():
    # two bidders: 16 sweeps, v/1000 and the rival +- eps, less v itself
    assert len(value_deviation_grid([F(7), F(5)], 0, F(1, 7))) == 19
    values = [F(k) for k in range(1, 12)]
    grid = value_deviation_grid(values, 0, F(1, 100))
    assert len(grid) == verify.DEVIATION_GRID_SIZE == 20
    assert len(set(grid)) == 20 and values[0] not in grid and min(grid) > 0
    assert grid[:16] == [values[0] * f for f in (
        F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3), F(3, 4), F(9, 10),
        F(11, 10), F(5, 4), F(4, 3), F(3, 2), F(2), F(5, 2), F(3), F(4))]


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
    # slopes (4, 3): halving the first or doubling the second breaks concavity
    grid = curve_deviation_grid(ConcaveCurve.from_slopes([(1, 4), (1, 3)]))
    assert [c.breakpoints for c in grid] == [((1, 8), (2, 11)), ((1, 4), (2, F(11, 2)))]


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
    assert report.to_json() == _reference_validate_trace(oracle, snaps).to_json()
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
    assert report.to_json() == _reference_validate_trace(oracle, snaps).to_json()
    feasible = report.result("feasibility")
    assert not feasible.passed
    assert feasible.witness == {"step": snaps[k].step,
                                "violating_set": sorted(membership(oracle, inflated).violating)}
    # The snapshots before it are feasible and balance.
    assert report.result("conserved-quantity").passed


def _reference_validate_trace(oracle, snapshots):
    """validate_trace as first written, plus the recorded-total comparison: a
    Fraction ResidualOracle per snapshot."""
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
        elif conserved is None and snap.residual_total != total:
            conserved = {"step": snap.step, "fhat_full": str(snap.residual_total),
                         "recomputed": str(total)}
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
    elif how == "shifted-total":
        # 1/(7 D), D the snapshot's common denominator: a recorded fhat([n])
        # over a denominator no other entry has
        den = math.lcm(*(v.denominator for v in
                         snap.promised + snap.demands + (snap.residual_total,)))
        snap = replace(snap, residual_total=snap.residual_total + F(1, 7 * den))
    else:
        snap = replace(snap, budgets=snap.budgets[:i] + (F(-1, 4),) + snap.budgets[i + 1:])
    snaps[k] = snap
    return snaps


def test_validate_trace_matches_fraction_reference():
    rng = random.Random(3131)
    corruptions = ("shaved-promise", "inflated-promise", "tampered-demand",
                   "negative-budget", "shifted-total")
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


def test_replaced_snapshots_are_judged_as_loop_snapshots():
    # validate_trace reads a loop snapshot's own integers, and the integer
    # view a snapshot made by dataclasses.replace computes from its Fraction
    # fields, as does a loop snapshot whose fields were built: the three
    # give one report, the Fraction reference's, clean or corrupted
    rng = random.Random(5353)
    corruptions = ("shaved-promise", "inflated-promise", "tampered-demand",
                   "negative-budget", "shifted-total")
    for t in range(20):
        n = rng.randint(1, 5)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        bidders = random_bidders(rng, n)
        cfg = AuctionConfig(epsilon=F(1, 4), trace=True)
        loop_report = validate_trace(oracle, run_clinching(oracle, bidders, cfg).trace).to_json()
        trace = run_clinching(oracle, bidders, cfg).trace
        copies = [replace(snap) for snap in trace]
        expected = _reference_validate_trace(oracle, copies).to_json()
        assert validate_trace(oracle, copies).to_json() == loop_report == expected, t
        assert validate_trace(oracle, trace).to_json() == expected, t
        how = corruptions[t % len(corruptions)]
        corrupted = _corrupt(random.Random(t), run_clinching(oracle, bidders, cfg).trace, how)
        expected = _reference_validate_trace(oracle, corrupted).to_json()
        assert validate_trace(oracle, corrupted).to_json() == expected, (t, how)


def test_passing_validate_trace_builds_no_snapshot_fields():
    # the monitors read the loop's integers, so a passing trace's snapshots
    # never build their Fraction fields
    inst = generate_instance("multi-unit", 64, None, 0)
    oracle = inst.build_oracle()
    out = run_clinching(oracle, inst.bidders, replace(inst.config, trace=True))
    assert validate_trace(oracle, out.trace).ok()
    fields = ("prices", "promised", "demands", "clinched", "budgets", "residual_total")
    assert not any(name in vars(snap) for snap in out.trace for name in fields)
    assert len(out.trace) > 64 and out.trace[-1].promised == out.allocation


def test_tampered_skipped_step_fails_at_that_step():
    # a step that skips its clinch repeats the last snapshot's (rho, d), whose
    # membership and residual totals validate_trace reuses; a tampered copy of
    # such a step is no repeat and must fail right there, with the witnesses
    # of a fresh computation
    oracle = multi_unit_oracle(3, 3)
    out = run_clinching(oracle, [bidder(3, 1), bidder(2, 1), bidder(1, "inf")],
                        AuctionConfig(epsilon=F(1, 4), trace=True))
    snaps = list(out.trace)
    k = 9
    snap, before = snaps[k], snaps[k - 1]
    assert not any(snap.clinched)
    assert (snap.promised, snap.demands) == (before.promised, before.demands)
    assert snap.promised == (0, 0, F(1, 3)) and snap.demands[0] == F(4, 3)
    shaved = replace(snap, promised=(0, 0, F(1, 3) - F(1, 7)))
    lowered = replace(snap, demands=(F(4, 9),) + snap.demands[1:])
    # the shaved promise also leaves the recorded fhat([n]) = 8/3 behind the
    # recomputed 59/21; the lowered demand does not move fhat([n])
    conserved = {"step": k, "fhat_full": "8/3", "recomputed": "59/21"}
    for tampered, reclinch, total in ((shaved, ["0", "0", "1/7"], conserved),
                                      (lowered, ["0", "0", "8/9"], None)):
        snaps[k] = tampered
        report = validate_trace(oracle, snaps)
        assert report.to_json() == _reference_validate_trace(oracle, snaps).to_json()
        assert report.result("conserved-quantity").witness == total
        assert [p.name for p in report.failures() if p.name != "conserved-quantity"] == [
            "post-clinch-dominance", "reclinch-zero"]
        assert report.result("post-clinch-dominance").witness == {"step": k, "j": 2}
        assert report.result("reclinch-zero").witness == {"step": k, "delta": reclinch}
    # a wrong recorded fhat([n]) on an otherwise repeated snapshot is no
    # repeat either
    snaps[k] = replace(snap, residual_total=snap.residual_total + 1)
    report = validate_trace(oracle, snaps)
    assert [p.name for p in report.failures()] == ["conserved-quantity"]
    assert report.result("conserved-quantity").witness == {
        "step": k, "fhat_full": "11/3", "recomputed": "8/3"}


def test_tampered_recorded_total_fails_conservation():
    # a snapshot's recorded fhat([n]) must be the one its (rho, d) gives; the
    # other monitors recompute it and cannot see a wrong record
    inst = parse_instance(FIXTURES / "single-keyword.json")
    oracle = inst.build_oracle()
    outcome, clean = run_with_monitors(oracle, inst.bidders, inst.config)
    assert clean.ok()
    snaps = list(outcome.trace)
    k = len(snaps) // 2
    recorded = snaps[k].residual_total
    snaps[k] = replace(snaps[k], residual_total=recorded + 7)
    report = validate_trace(oracle, snaps)
    assert report.to_json() == _reference_validate_trace(oracle, snaps).to_json()
    assert [p.name for p in report.failures()] == ["conserved-quantity"]
    assert report.result("conserved-quantity").witness == {
        "step": snaps[k].step, "fhat_full": str(recorded + 7), "recomputed": str(recorded)}


def test_validate_trace_reports_failures_past_the_cap(monkeypatch):
    # the monitors go by reduced ranks at every n, so a cap below n changes
    # no report: every corruption of a trace on an oracle with a structural
    # solver is reported at cap 1 as at the default cap, which is the
    # Fraction reference's report
    rng = random.Random(4747)
    corruptions = ("shaved-promise", "inflated-promise", "tampered-demand",
                   "negative-budget", "shifted-total")
    oracle = multi_unit_oracle(3, 6)
    out = run_clinching(oracle, [bidder(6 - i, 2) for i in range(6)], AuctionConfig(trace=True))
    snaps = list(out.trace)
    k = len(snaps) - 1
    snaps[k] = replace(snaps[k], promised=(snaps[k].promised[0] - F(1, 7),)
                       + snaps[k].promised[1:])
    cases = [("multi-unit", "shaved-last", oracle, snaps)]
    for kind in RANK_KINDS:
        n = rng.randint(5, 6)
        oracle = random_oracle(rng, kind, n)
        out = run_clinching(oracle, random_bidders(rng, n), AuctionConfig(trace=True))
        cases += [(kind, how, oracle, _corrupt(rng, out.trace, how)) for how in corruptions]
    expected = []
    for kind, how, oracle, snaps in cases:
        report = validate_trace(oracle, snaps).to_json()
        assert report == _reference_validate_trace(oracle, snaps).to_json(), (kind, how)
        expected.append(report)
    assert sum(not report["ok"] for report in expected) >= 14, expected
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "1")
    for (kind, how, oracle, snaps), report in zip(cases, expected):
        assert validate_trace(oracle, snaps).to_json() == report, (kind, how)
    with pytest.raises(SizeError):
        validate_trace(table_only(oracle), snaps)


@pytest.mark.parametrize("cap", [None, "2"])
def test_validate_trace_refuses_malformed_snapshots(monkeypatch, cap):
    # a vector with other than n entries, or a negative demand, is a
    # malformed trace, not a failed monitor: DomainError names the step and
    # the field, at n <= cap and past it
    oracle = multi_unit_oracle(3, 3)
    out = run_clinching(oracle, [bidder(3, 1), bidder(2, 1), bidder(1, "inf")],
                        AuctionConfig(epsilon=F(1, 4), trace=True))
    if cap is not None:
        monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", cap)
    assert validate_trace(oracle, out.trace).ok()
    k = 9
    snap = out.trace[k]
    assert snap.demands[0] > 0
    for name in ("promised", "demands", "clinched", "prices", "budgets"):
        vec = getattr(snap, name)
        for wrong in (vec + vec[-1:], vec[:-1]):
            snaps = list(out.trace)
            snaps[k] = replace(snap, **{name: wrong})
            with pytest.raises(DomainError, match=rf"^trace step {k}: {name} has "
                                                  rf"{len(wrong)} entries, expected one per "
                                                  r"bidder \(3\)$"):
                validate_trace(oracle, snaps)
    snaps = list(out.trace)
    snaps[k] = replace(snap, demands=(-snap.demands[0],) + snap.demands[1:])
    with pytest.raises(DomainError, match=rf"^trace step {k}: demands must be >= 0, "
                                          rf"got demands\[0\] = -{snap.demands[0]}$"):
        validate_trace(oracle, snaps)
    # a negative promise is no malformed snapshot but a failed feasibility monitor
    snaps[k] = replace(snap, promised=(F(-1),) + snap.promised[1:])
    report = validate_trace(oracle, snaps)
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)   # the reference tabulates 2^n
    assert report.to_json() == _reference_validate_trace(oracle, snaps).to_json()
    assert [p.name for p in report.failures()] == ["feasibility"]
    assert report.result("feasibility").witness == {
        "step": k, "violating_set": [], "detail": "negative promised allocation"}


def test_reference_catches_integer_totals_that_leave_it(monkeypatch):
    # the integer residual values drifting from the definition is a bug in
    # the checker, not a failed monitor: its report then leaves the Fraction
    # reference's at the step where the values drift
    oracle = multi_unit_oracle(2, 2)
    out = run_clinching(oracle, [bidder(3, 2), bidder(1, 2)], AuctionConfig(trace=True))
    snaps = list(out.trace)
    k = len(snaps) - 1
    shaved = (snaps[k].promised[0] - F(1, 7),) + snaps[k].promised[1:]
    snaps[k] = replace(snaps[k], promised=shaved)
    nums = verify._clinch_nums

    def shifted(start, scale, rho, d, at=None):
        # fhat([n]) one unit of the snapshot's denominator too high
        total, delta, solution = nums(start, scale, rho, d)
        here = tuple(F(r, oracle.rank().den * scale) for r in rho)
        return (total + 1 if at in (None, here) else total), delta, solution

    def conserved(report):
        return report.to_json(), report.result("conserved-quantity").witness

    # a clean trace whose shifted totals break conservation at step 0
    reference = _reference_validate_trace(oracle, out.trace)
    assert reference.ok()
    monkeypatch.setattr(verify, "_clinch_nums", shifted)
    report, witness = conserved(validate_trace(oracle, out.trace))
    assert report != reference.to_json() and witness["step"] == out.trace[0].step
    # conservation fails on both sides at the shaved step, with other values
    reference, expected = conserved(_reference_validate_trace(oracle, snaps))
    monkeypatch.setattr(verify, "_clinch_nums",
                        lambda start, scale, rho, d: shifted(start, scale, rho, d, at=shaved))
    report, witness = conserved(validate_trace(oracle, snaps))
    assert expected["step"] == witness["step"] == snaps[k].step
    assert witness != expected and report != reference
    monkeypatch.setattr(verify, "_clinch_nums", nums)
    assert validate_trace(oracle, snaps).to_json() == reference


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


def test_demo_impossibility_maps_the_grid_as_direct_runs_do(monkeypatch):
    # a grid profile is mapped exactly when a direct run at epsilon 1/20 has
    # a dominated direction that replays; the demo's runs are untraced
    rows, rhs = verify.IMPOSSIBILITY_ROWS, verify.IMPOSSIBILITY_RHS
    grid = [(F(v0, 10), F(v1, 10)) for v0 in range(1, 7) for v1 in range(1, 7)]
    expected = set()
    for v0, v1 in grid:
        bidders = [Bidder(v0, verify.IMPOSSIBILITY_BUDGETS[0]),
                   Bidder(v1, verify.IMPOSSIBILITY_BUDGETS[1])]
        out = run_generic_2player(rows, rhs, bidders, AuctionConfig(epsilon=F(1, 20)))
        direction = check_dominated_direction(rows, rhs, bidders, out)
        if direction is not None and replay_dominated_direction(
                rows, rhs, bidders, out, direction):
            expected.add(f"v=({v0},{v1})")
    traced = []
    run = verify.run_generic_2player
    monkeypatch.setattr(verify, "run_generic_2player", lambda rows, rhs, bidders, cfg:
                        traced.append(cfg.trace) or run(rows, rhs, bidders, cfg))
    report = demo_impossibility()
    mapped = report.result("pareto-failure-detected")
    profiles = set(mapped.witness["profiles"])
    assert len(expected) == 18
    assert profiles & {f"v=({v0},{v1})" for v0, v1 in grid} == expected
    assert {"v=(1/2,1/2)", "v=(3/10,1/2)", "v=(1/10,1/10)"} <= profiles
    assert mapped.detail == "18 of 39 profiles admit a replayed dominated direction"
    assert len(report.attachments["outcomes"]) == 39
    assert traced == [False] * 39
