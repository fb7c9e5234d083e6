"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  All comparisons are exact rational equalities or
strict inequalities; nothing is tolerance-tuned.

Criterion 9 checks the impossibility on the fixed non-polymatroid
{2x0 + x1 <= 6, x0 + 2x1 <= 6}: clinching is IC and IR there, so it must fail
Pareto optimality somewhere.  It pins what the round-robin engine provably
does at the two profiles: at the large-gap profile (13/20, 10) bidder 1's
budget exhausts on the facet x0 + 2x1 = 6 and no dominated direction exists;
at the small-values profile (1/10, 1/10) no budget binds, welfare falls short
of the efficient 2/5 and a dominated direction is found and replayed.  A
witness at the large-gap profile and efficiency at small values would be
steps of the proof for a hypothetical mechanism that is Pareto optimal
whenever budgets do not bind; clinching is not such a mechanism, and shows
the impossibility the other way round.
"""

import random
import time
from fractions import Fraction

import pytest

from polyclinch import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    SubmodularOracle,
    adwords_oracle,
    check_dominated_direction,
    check_outcome,
    curve_deviation_grid,
    decompose,
    demo_appendix_d,
    demo_impossibility,
    fast_residual_max,
    fuzz_truthfulness,
    membership,
    residual,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    run_scaled,
    run_with_monitors,
    value_deviation_grid,
    verify_submodular,
)
from polyclinch.verify import replay_dominated_direction

from corpus import (
    KINDS,
    random_adwords,
    random_bidders,
    random_demands,
    random_feasible_point,
    random_oracle,
    polymatroid_cases,
    table_only,
)

F = Fraction


def _verdict(num, name, ok, detail=""):
    line = f"ACCEPTANCE CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    return ok


class _budget:
    """Context timing a criterion against its stated wall-clock budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        return False

    def summary(self):
        return f"{self.elapsed:.2f}s of {self.limit}s budget"


# ---------------------------------------------------------------------------
# shared corpus: 200 seeded instances, all five kinds, n <= 6, auto epsilon
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_runs():
    with _budget(120) as clock:
        runs = []
        for label, oracle, bidders in polymatroid_cases(seed=20120519, count=200, n_max=6):
            outcome, monitors = run_with_monitors(oracle, bidders, AuctionConfig())
            runs.append((label, oracle, bidders, outcome, monitors))
    return runs, clock.elapsed


def test_criterion_1_appendix_d_exact():
    with _budget(1) as clock:
        report = demo_appendix_d()
        ok = report.ok()
    assert clock.elapsed < clock.limit, clock.summary()
    assert _verdict(1, "Appendix-D reproduction (exact)", ok,
                    "truthful x=(1,1) pay=(3,1); deviating pay < 3 with a "
                    f"price-2 clinch; {clock.summary()}"), report.failures()


def test_criterion_2_sold_out(corpus_runs):
    runs, elapsed = corpus_runs
    bad = [label for label, oracle, _, outcome, _ in runs
           if sum(outcome.allocation) != oracle.value(range(oracle.n))]
    ok = not bad and elapsed < 120
    assert _verdict(2, "sold-out on 200-instance corpus", ok,
                    f"{len(runs)} runs in {elapsed:.2f}s of 120s budget"), bad[:5]


def test_criterion_3_pareto_characterization(corpus_runs):
    runs, _ = corpus_runs
    with _budget(300) as clock:
        bad = []
        for label, oracle, bidders, outcome, _ in runs:
            report = check_outcome(oracle, bidders, outcome)
            if not report.ok():
                bad.append((label, [p.name for p in report.failures()]))
    ok = not bad and clock.elapsed < clock.limit
    assert _verdict(3, "Pareto tight-set characterization on the corpus", ok,
                    f"exhaustive separating-set search; {clock.summary()}"), bad[:5]


def test_criterion_4_truthfulness_fuzz():
    clock = _budget(300).__enter__()
    eps = F(1, 2)
    cfg = AuctionConfig(epsilon=eps)
    rng = random.Random(4242)
    violations = []
    checked = 0
    for t in range(50):
        kind = ("multi-unit", "single-keyword", "graphic")[t % 3]
        n = rng.randint(2, 4)
        oracle = random_oracle(rng, kind, n)
        bidders = random_bidders(rng, n, max_value=4)
        values = [b.value for b in bidders]
        budgets = [b.budget for b in bidders]

        def run_fn(reports):
            return run_clinching(
                oracle, [Bidder(v, b) for v, b in zip(reports, budgets)], cfg)

        def utility(i, out):
            return values[i] * out.allocation[i] - out.payments[i]

        grids = [value_deviation_grid(values, i, eps) for i in range(n)]
        assert all(len(g) <= 20 for g in grids)
        checked += sum(len(g) for g in grids)
        report = fuzz_truthfulness(run_fn, values, grids, utility)
        if not report.ok():
            violations.append((kind, t, report.result("truthfulness").witness))

    # the identical harness must catch the decreasing-marginals counterexample
    truthful_curves = [ConcaveCurve.from_slopes([(1, 4), (1, 1)]),
                       ConcaveCurve.from_slopes([(2, 3)])]
    curve_budgets = [None, F(4)]

    def curve_run(reports):
        return run_decreasing_marginals(reports, curve_budgets, 2, cfg)

    def curve_utility(i, out):
        return truthful_curves[i].value_at(out.allocation[i]) - out.payments[i]

    curve_report = fuzz_truthfulness(
        curve_run, truthful_curves,
        [curve_deviation_grid(c) for c in truthful_curves], curve_utility)
    found_counterexample = (not curve_report.ok()
                            and curve_report.result("truthfulness").witness["bidder"] == 0)

    clock.__exit__()
    ok = not violations and found_counterexample and clock.elapsed < clock.limit
    assert _verdict(4, "truthfulness fuzz", ok,
                    f"{checked} clinching deviations clean; decreasing-marginals "
                    f"witness found; {clock.summary()}"), (violations[:3], found_counterexample)


def test_criterion_5_greedy_clinch_equivalence():
    clock = _budget(60).__enter__()
    rng = random.Random(505)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(2, 8)
        oracle = random_oracle(rng, "single-keyword", n)
        rho = random_feasible_point(rng, oracle)
        d = random_demands(rng, n)
        if fast_residual_max(oracle.ctrs, rho, d) != residual(oracle, rho, d).full_value():
            mismatches += 1
    run_mismatches = 0
    for kind in ("single-keyword", "multi-unit"):
        for _ in range(40):
            n = rng.randint(2, 6)
            oracle = random_oracle(rng, kind, n)
            bidders = random_bidders(rng, n)
            cfg = AuctionConfig(epsilon=F(1, 4), trace=True)
            fast = run_clinching(oracle, bidders, cfg)
            slow = run_clinching(table_only(oracle), bidders, cfg)
            if (fast.allocation, fast.payments, fast.trace) != \
                    (slow.allocation, slow.payments, slow.trace):
                run_mismatches += 1
    clock.__exit__()
    ok = mismatches == 0 and run_mismatches == 0 and clock.elapsed < clock.limit
    assert _verdict(5, "greedy fast path equals residual oracle", ok,
                    f"500 value triples + 40 full runs per cardinality kind "
                    f"(single-keyword, multi-unit), exact; {clock.summary()}")


def test_criterion_6_step_invariants(corpus_runs):
    runs, _ = corpus_runs
    bad = []
    for label, _, _, _, monitors in runs:
        if not monitors.ok():
            bad.append((label, [p.name for p in monitors.failures()]))
    ok = not bad
    assert _verdict(6, "step invariants on every traced run", ok,
                    "conserved quantity, dominance, re-clinch, feasibility; "
                    "shares criterion 2's runtime"), bad[:5]


def test_criterion_7_mcdiarmid_equivalence():
    clock = _budget(120).__enter__()
    rng = random.Random(777)
    disagreements = []
    for t in range(200):
        inst = random_adwords(rng, rng.randint(1, 4), rng.randint(1, 4))
        oracle = adwords_oracle(inst)
        box = [max(F(1), oracle.singleton(i)) for i in range(inst.n)]
        for _ in range(5):
            point = tuple(F(rng.randint(0, 4 * int(box[i])), 4)
                          for i in range(inst.n))
            member = membership(oracle, point).ok
            split = decompose(inst, point)
            if member != (split is not None):
                disagreements.append((t, point))
            if split is not None:
                totals = [F(0)] * inst.n
                for k, shares in enumerate(split):
                    for i, amount in shares.items():
                        totals[i] += amount
                    share = [shares[i] for i in sorted(shares)]
                    if (set(shares) != inst.keyword_bidders[k]
                            or not membership(inst.keyword_oracle(k), share).ok):
                        disagreements.append((t, point, k, "share outside P(f_k)"))
                if totals != list(point):
                    disagreements.append((t, point, "bad split"))
    clock.__exit__()
    ok = not disagreements and clock.elapsed < clock.limit
    assert _verdict(7, "AdWords aggregation equals decomposition feasibility", ok,
                    f"200 instances x 5 points; {clock.summary()}"), disagreements[:5]


def test_criterion_8_scaled_equivalence():
    clock = _budget(60).__enter__()
    rng = random.Random(88)
    mismatches = []
    for t in range(50):
        n = rng.randint(2, 5)
        kind = ("multi-unit", "single-keyword", "adwords")[t % 3]
        oracle = random_oracle(rng, kind, n)
        bidders = random_bidders(rng, n)
        gamma = ([F(1)] * n if t % 5 == 0 else
                 [F(rng.randint(1, 4), rng.choice((1, 2))) for _ in range(n)])
        cfg = AuctionConfig(epsilon=F(1, 4))
        scaled = run_scaled(oracle, gamma, bidders, cfg)
        base = run_clinching(
            oracle, [Bidder(g * b.value, b.budget) for g, b in zip(gamma, bidders)], cfg)
        if scaled.allocation != tuple(g * x for g, x in zip(gamma, base.allocation)) \
                or scaled.payments != base.payments:
            mismatches.append(t)
    clock.__exit__()
    ok = not mismatches and clock.elapsed < clock.limit
    assert _verdict(8, "scaled-polymatroid equivalence", ok,
                    f"50 instances incl. identity factors; {clock.summary()}"), mismatches


def test_criterion_9_impossibility_demo():
    clock = _budget(1).__enter__()
    rows, rhs = ((2, 1), (1, 2)), (6, 6)
    cfg = AuctionConfig(epsilon=F(1, 20))
    # large value gap: the rival's budget binds on the facet x0 + 2x1 = 6,
    # where every direction that does not raise x1 lowers v.x
    pinned = [Bidder(F(13, 20), F(1)), Bidder(F(10), F(1))]
    pinned_out = run_generic_2player(rows, rhs, pinned, cfg)
    pinned_x = pinned_out.allocation
    facet = pinned_x[0] + 2 * pinned_x[1]
    pinned_on_facet = pinned_out.exhausted == {1} and facet == 6
    pinned_direction = check_dominated_direction(rows, rhs, pinned, pinned_out)

    # tied small values: each bidder's demand blocks the other's clinch until
    # bidder 0's clock reaches its value; bidder 1 then sweeps the corner
    small = [Bidder(F(1, 10), F(1)), Bidder(F(1, 10), F(1))]
    small_out = run_generic_2player(rows, rhs, small, cfg)
    welfare = sum(b.value * x for b, x in zip(small, small_out.allocation))
    efficient = max(F(1, 10) * x0 + F(1, 10) * x1
                    for x0, x1 in ((3, 0), (2, 2), (0, 3)))
    no_exhaustion = not small_out.exhausted
    small_direction = check_dominated_direction(rows, rhs, small, small_out)
    small_replayed = small_direction is not None and replay_dominated_direction(
        rows, rhs, small, small_out, small_direction)

    clock.__exit__()
    ok = pinned_on_facet and pinned_direction is None \
        and no_exhaustion and welfare < efficient and small_replayed \
        and clock.elapsed < clock.limit
    shown = "none" if small_direction is None else \
        f"({small_direction[0]},{small_direction[1]})"
    assert _verdict(
        9, "impossibility demo at the pinned profiles", ok,
        f"pinned: exhausted={sorted(pinned_out.exhausted)}, x0+2x1={facet}, "
        f"direction={'none' if pinned_direction is None else 'found'}; "
        f"small values: x=({small_out.allocation[0]},{small_out.allocation[1]}), "
        f"welfare {welfare} vs efficient {efficient}, direction {shown} "
        f"{'replayed' if small_replayed else 'not replayed'}; "
        f"{clock.summary()}"), (
        pinned_out.to_json(with_trace=False), small_out.to_json(with_trace=False))


def test_criterion_9_addendum_pareto_failure_is_demonstrated():
    # companion check: the demo's headline claim (the mechanism is not
    # Pareto-optimal on this polytope) is demonstrably true
    report = demo_impossibility()
    assert report.result("pareto-failure-detected").passed


def test_criterion_10_oracle_hygiene():
    clock = _budget(60).__enter__()
    rng = random.Random(1010)
    failures = []
    for t in range(100):
        kind = KINDS[t % len(KINDS)]
        n = rng.randint(2, 8)
        if kind == "adwords":
            n = min(n, 6)          # as first written, so the seeded draws stay the same
        oracle = random_oracle(rng, kind, n)
        if not verify_submodular(oracle).ok:
            failures.append((kind, t))
    planted = SubmodularOracle.from_set_function(3, lambda s: len(s) ** 2,
                                                 name="cardinality-squared")
    check = verify_submodular(planted)
    rejected = (not check.ok and check.violation == "submodularity"
                and len(check.witness) == 2)
    clock.__exit__()
    ok = not failures and rejected and clock.elapsed < clock.limit
    assert _verdict(10, "oracle hygiene", ok,
                    "100 constructions verified; planted non-submodular "
                    f"fixture rejected with witness pair; {clock.summary()}"), (failures[:5], rejected)
