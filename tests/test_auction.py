"""Clinching engines: the ascending loop, fast path, scaling, curve demands."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclinch import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    DivergenceError,
    DomainError,
    PreconditionError,
    SizeError,
    bidder,
    check_dominated_direction,
    clinch_generic_2player,
    demand,
    fast_residual_max,
    greedy_vertex,
    membership,
    multi_unit_oracle,
    residual,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    run_scaled,
    single_keyword_oracle,
)

from polyclinch import auction
from polyclinch.submodular import clinch_kernel

from corpus import KINDS, random_bidders, random_oracle

F = Fraction


# ---------------------------------------------------------------------------
# demand rule
# ---------------------------------------------------------------------------

def test_demand_budget_limited():
    assert demand(F(4), F(2), F(3), F(10)) == 2


def test_demand_zero_price_yields_cap():
    assert demand(F(4), F(0), F(3), F(7)) == 7
    assert demand(None, F(0), F(3), F(7)) == 7


def test_demand_zero_at_value():
    assert demand(F(100), F(3), F(3), F(5)) == 0
    assert demand(F(100), F(4), F(3), F(5)) == 0


# ---------------------------------------------------------------------------
# run_clinching examples
# ---------------------------------------------------------------------------

def test_sole_bidder_clinches_everything_free():
    out = run_clinching(multi_unit_oracle(2, 1), [bidder(3, "inf")])
    assert out.allocation == (2,)
    assert out.payments == (0,)


def test_two_bidders_second_price_flavour():
    out = run_clinching(multi_unit_oracle(1, 2),
                        [bidder(2, 100), bidder(1, 100)],
                        AuctionConfig(epsilon=F(1, 100)))
    assert out.allocation == (1, 0)
    assert F(1) <= out.payments[0] < F(1) + F(1, 100)
    assert out.payments[1] == 0


def test_binding_budgets_drain_high_bidder_exactly():
    # v=(3,2), B=(1/2,1/2), supply 1: hand-traced at eps=1/2; bidder 1's clock
    # reaches his value with 1/8 of budget left, so revenue is 7/8, not 1.
    out = run_clinching(multi_unit_oracle(1, 2),
                        [bidder(3, F(1, 2)), bidder(2, F(1, 2))],
                        AuctionConfig(epsilon=F(1, 2)))
    assert out.allocation == (F(7, 18), F(11, 18))
    assert out.payments == (F(1, 2), F(3, 8))
    assert out.exhausted == frozenset({0})
    # the qualitative claims hold at finer clocks too
    fine = run_clinching(multi_unit_oracle(1, 2),
                         [bidder(3, F(1, 2)), bidder(2, F(1, 2))],
                         AuctionConfig(epsilon=F(1, 100)))
    assert sum(fine.allocation) == 1
    assert fine.allocation[0] > fine.allocation[1]
    assert fine.payments[0] == F(1, 2) and 0 in fine.exhausted


def test_divergence_guard_raises():
    with pytest.raises(DivergenceError) as info:
        run_clinching(multi_unit_oracle(1, 2),
                      [bidder(5, 100), bidder(4, 100)],
                      AuctionConfig(epsilon=F(1, 100), max_steps=2))
    # The error reports where it stopped: two steps advanced clocks 0 then 1,
    # and neither bidder clinched (each alone demands the whole unit).
    err = info.value
    assert (err.step, err.prices, err.demands) == \
        (2, (F(1, 100), F(1, 100)), (F(1), F(1)))
    assert "within 2 steps" in str(err)
    assert "prices (1/100, 1/100)" in str(err) and "demands (1, 1)" in str(err)


def test_rejects_wrong_bidder_count():
    with pytest.raises(DomainError):
        run_clinching(multi_unit_oracle(1, 2), [bidder(1, 1)])


# ---------------------------------------------------------------------------
# fast path (greedy clinch on single-keyword environments)
# ---------------------------------------------------------------------------

def test_fast_residual_max_examples():
    assert fast_residual_max([3, 2], [1, 0], [5, 1]) == 3
    assert fast_residual_max([3, 2, 1], [0, 0, 0], [2, 2, 2]) == 6
    assert fast_residual_max([3, 2], [1, 0], [0, 0]) == 0


def test_fast_residual_max_rejects_infeasible_promises():
    with pytest.raises(PreconditionError):
        fast_residual_max([3, 2], [4, 0], [1, 1])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_fast_residual_matches_residual_oracle(data):
    n = data.draw(st.integers(2, 6))
    ctrs = sorted(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                  reverse=True)
    oracle = single_keyword_oracle(ctrs)
    scale = data.draw(st.fractions(0, 1, max_denominator=4))
    vertex = [scale * v for v in greedy_vertex(oracle)]
    d = [F(data.draw(st.integers(0, 8)), 2) for _ in range(n)]
    assert fast_residual_max(ctrs, vertex, d) == residual(oracle, vertex, d).full_value()


def test_fast_and_generic_paths_identical_outcomes_and_traces():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 6)
        oracle = random_oracle(rng, "single-keyword", n)
        bidders = random_bidders(rng, n)
        cfg = AuctionConfig(epsilon=F(1, 4), trace=True)
        fast = run_clinching(oracle, bidders, cfg, fast_path=True)
        slow = run_clinching(oracle, bidders, cfg, fast_path=False)
        assert fast.allocation == slow.allocation
        assert fast.payments == slow.payments
        assert fast.trace == slow.trace     # per-step deltas and fhat agree


def test_fast_path_requires_ctr_oracle():
    with pytest.raises(DomainError):
        run_clinching(multi_unit_oracle(1, 2), [bidder(1, 1), bidder(2, 1)],
                      fast_path=True)


def test_clinch_matches_classic_multi_unit_formula():
    # independent oracle: with uniform supply the clinch reduces to
    # min(d_i, [s_rem - sum of the rivals' demands]^+)
    from polyclinch import clinch_amounts

    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(2, 5)
        total = F(rng.randint(1, 8))
        oracle = multi_unit_oracle(total, n)
        weights = [rng.randint(0, 4) for _ in range(n)]
        used = F(rng.randint(0, 8), 8) * total
        denom = sum(weights) or 1
        rho = [used * w / denom for w in weights]
        s_rem = total - sum(rho)
        d = [min(F(rng.randint(0, 16), 2), total - rho[i]) for i in range(n)]
        classic = tuple(min(d[i], max(F(0), s_rem - (sum(d) - d[i])))
                        for i in range(n))
        assert clinch_amounts(oracle, rho, d) == classic


# ---------------------------------------------------------------------------
# trace structure
# ---------------------------------------------------------------------------

def test_trace_prices_monotone_and_demands_nonincreasing():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, "multi-unit", n)
        out = run_clinching(oracle, random_bidders(rng, n),
                            AuctionConfig(trace=True))
        trace = out.trace
        for a, b in zip(trace, trace[1:]):
            assert all(p1 >= p0 for p0, p1 in zip(a.prices, b.prices))
            assert all(d1 <= d0 for d0, d1 in zip(a.demands, b.demands))


def test_second_demand_recompute_equals_first_minus_clinch():
    # the in-loop demand refresh is observationally the pre-clinch demand
    # minus the clinched amount, so following the written order verbatim
    # cannot change outcomes
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 4)
        oracle = random_oracle(rng, "single-keyword", n)
        bidders = random_bidders(rng, n)
        out = run_clinching(oracle, bidders, AuctionConfig(trace=True))
        values = [b.value for b in bidders]
        for snap in out.trace:
            pre_budget = [None if b.budget is None else
                          snap.budgets[i] + snap.prices[i] * snap.clinched[i]
                          for i, b in enumerate(bidders)]
            pre_rho = [snap.promised[i] - snap.clinched[i] for i in range(n)]
            pre_d = [demand(pre_budget[i], snap.prices[i], values[i],
                            oracle.singleton(i) - pre_rho[i]) for i in range(n)]
            assert tuple(pre_d[i] - snap.clinched[i] for i in range(n)) == snap.demands


def _counting_kernel(monkeypatch):
    calls = []

    def counted(oracle, rho, d):
        calls.append(1)
        return clinch_kernel(oracle, rho, d)
    monkeypatch.setattr(auction, "clinch_kernel", counted)
    return calls


def test_trace_snapshots_reuse_the_clinch(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    rng = random.Random(1806)
    for t in range(20):
        n = rng.randint(1, 6)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        del calls[:]
        out = run_clinching(oracle, random_bidders(rng, n),
                            AuctionConfig(trace=True), fast_path=False)
        assert len(calls) == len(out.trace)          # one kernel run per step
        for snap in out.trace:
            assert snap.residual_total == clinch_kernel(oracle, snap.promised,
                                                        snap.demands)[0]
    for _ in range(10):
        supply = F(rng.randint(1, 4))
        curves = [ConcaveCurve.from_slopes([(supply / 2, rng.randint(3, 6)),
                                            (supply / 2, rng.randint(1, 3))])
                  for _ in range(3)]
        budgets = [None if rng.random() < 0.3 else F(rng.randint(1, 8)) for _ in range(3)]
        del calls[:]
        out = run_decreasing_marginals(curves, budgets, supply,
                                       AuctionConfig(epsilon=F(1, 4), trace=True))
        assert len(calls) == len(out.trace)
        oracle = multi_unit_oracle(supply, 3)
        for snap in out.trace:
            assert snap.residual_total == clinch_kernel(oracle, snap.promised,
                                                        snap.demands)[0]


def test_snapshot_runs_the_kernel_when_rho_plus_d_moved(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    oracle = random_oracle(random.Random(5), "graphic", 4)
    clinch_fn, fhat_fn = auction._kernel_callbacks(oracle)
    rho, d = (F(0),) * 4, (F(1, 2), F(1), F(0), F(2, 3))
    delta = clinch_fn(rho, d)
    moved = (F(1, 3),) + rho[1:]
    assert fhat_fn(moved, d) == clinch_kernel(oracle, moved, d)[0]
    lowered = d[:1] + (F(1, 5),) + d[2:]
    assert fhat_fn(rho, lowered) == clinch_kernel(oracle, rho, lowered)[0]
    assert len(calls) == 3
    after = tuple(r + x for r, x in zip(rho, delta)), tuple(q - x for q, x in zip(d, delta))
    assert any(delta) and fhat_fn(*after) == clinch_kernel(oracle, *after)[0]
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# scaled polymatroids
# ---------------------------------------------------------------------------

def test_scaled_identity_matches_plain_run():
    oracle = multi_unit_oracle(3, 2)
    bidders = [bidder(2, 4), bidder(1, 1)]
    cfg = AuctionConfig(epsilon=F(1, 4))
    scaled = run_scaled(oracle, [1, 1], bidders, cfg)
    plain = run_clinching(oracle, bidders, cfg)
    assert scaled.allocation == plain.allocation
    assert scaled.payments == plain.payments


def test_scaled_sole_bidder():
    out = run_scaled(multi_unit_oracle(2, 1), [2], [bidder(3, "inf")])
    assert out.allocation == (4,)
    assert out.payments == (0,)


def test_scaled_equals_stretched_base_run():
    oracle = multi_unit_oracle(1, 2)
    bidders = [bidder(1, 50), bidder(3, 50)]
    gamma = [F(2), F(1)]
    cfg = AuctionConfig(epsilon=F(1, 8))
    scaled = run_scaled(oracle, gamma, bidders, cfg)
    base = run_clinching(oracle, [bidder(2, 50), bidder(3, 50)], cfg)
    assert scaled.allocation == (2 * base.allocation[0], base.allocation[1])
    assert scaled.payments == base.payments


def test_scaled_rejects_nonpositive_factor():
    with pytest.raises(DomainError):
        run_scaled(multi_unit_oracle(1, 2), [1, 0], [bidder(1, 1), bidder(1, 1)])


# ---------------------------------------------------------------------------
# concave curves and decreasing marginals
# ---------------------------------------------------------------------------

def test_curve_validation():
    with pytest.raises(DomainError):
        ConcaveCurve.from_slopes([(1, 1), (1, 2)])      # increasing marginals
    with pytest.raises(DomainError):
        ConcaveCurve.from_slopes([(1, 0)])              # zero slope
    curve = ConcaveCurve.from_slopes([(1, 4), (1, 1)])
    assert curve.breakpoints == ((1, 4), (2, 5))
    assert curve.value_at(F(3, 2)) == F(9, 2)


def test_curve_demand_quantity_rule():
    curve = ConcaveCurve.from_slopes([(1, 4), (1, 1)])
    # participation is strict in the curve's first marginal
    assert curve.demand_quantity(0, F(4)) == 0
    # interior slope boundaries keep the whole segment
    assert curve.demand_quantity(0, F(1)) == 2
    assert curve.demand_quantity(0, F(1) + F(1, 100)) == 1
    assert curve.demand_quantity(0, F(2)) == 1
    # the reach is holding-independent, so clinching shifts demand exactly
    assert curve.demand_quantity(F(1, 3), F(1)) == F(5, 3)
    assert curve.demand_quantity(1, F(1)) == 1
    assert curve.demand_quantity(2, F(1)) == 0
    flat = ConcaveCurve.from_slopes([(2, 3)])
    assert flat.demand_quantity(0, F(3)) == 0
    assert flat.demand_quantity(0, F(3) - F(1, 100)) == 2


def test_curve_demand_shift_identity():
    rng = random.Random(21)
    for _ in range(200):
        lengths = [F(rng.randint(1, 4), 2) for _ in range(rng.randint(1, 3))]
        slopes = sorted({F(rng.randint(1, 9), rng.choice((1, 2))) for _ in lengths},
                        reverse=True)
        curve = ConcaveCurve.from_slopes(list(zip(lengths, slopes[:len(lengths)])))
        price = F(rng.randint(0, 10), 2)
        start = curve.supply * F(rng.randint(0, 4), 4)
        q = curve.demand_quantity(start, price)
        if q > 0:
            delta = q * F(rng.randint(0, 4), 4)
            assert curve.demand_quantity(start + delta, price) == q - delta


def test_linear_curves_reduce_to_plain_clinching():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(2, 4)
        supply = F(rng.randint(1, 5))
        # keep every value off the eps grid so boundary ticks never occur
        values = [F(rng.randint(1, 6)) + F(1, 7) for _ in range(n)]
        budgets = [None if rng.random() < 0.3 else F(rng.randint(1, 8))
                   for _ in range(n)]
        cfg = AuctionConfig(epsilon=F(1, 4))
        curves = [ConcaveCurve.from_slopes([(supply, v)]) for v in values]
        via_curves = run_decreasing_marginals(curves, budgets, supply, cfg)
        plain = run_clinching(multi_unit_oracle(supply, n),
                              [Bidder(v, b) for v, b in zip(values, budgets)], cfg)
        assert via_curves.allocation == plain.allocation
        assert via_curves.payments == plain.payments


def test_appendix_d_truthful_outcome_exact():
    curves = [ConcaveCurve.from_slopes([(1, 4), (1, 1)]),
              ConcaveCurve.from_slopes([(2, 3)])]
    for eps in (F(1, 2), F(1, 4), F(1, 10)):
        out = run_decreasing_marginals(curves, [None, F(4)], 2,
                                       AuctionConfig(epsilon=eps))
        assert out.allocation == (1, 1)
        assert out.payments == (3, 1)


def test_appendix_d_deviation_trace():
    curves = [ConcaveCurve.from_slopes([(1, 4), (1, 2)]),
              ConcaveCurve.from_slopes([(2, 3)])]
    out = run_decreasing_marginals(curves, [None, F(4)], 2,
                                   AuctionConfig(epsilon=F(1, 2), trace=True))
    assert out.allocation[0] == 1
    assert out.payments[0] < 3
    assert any(s.clinched[1] == 1 and s.prices[1] == 2 for s in out.trace)


def test_curve_supply_mismatch_rejected():
    with pytest.raises(DomainError):
        run_decreasing_marginals([ConcaveCurve.from_slopes([(1, 2)])], [None], 2)


# ---------------------------------------------------------------------------
# generic 2-bidder clinching
# ---------------------------------------------------------------------------

ROWS = ((2, 1), (1, 2))
RHS = (6, 6)


def test_generic_clinch_examples():
    assert clinch_generic_2player(ROWS, RHS, [0, 0], [10, 10]) == (0, 0)
    assert clinch_generic_2player(ROWS, RHS, [0, 0], [1, 0]) == (1, 0)
    assert clinch_generic_2player(ROWS, RHS, [0, 0], [0, 0]) == (0, 0)


def test_generic_clinch_respects_promises():
    # with rho on the boundary nothing more can be clinched
    assert clinch_generic_2player(ROWS, RHS, [2, 2], [5, 5]) == (0, 0)


def test_generic_clinch_rejects_infeasible_rho():
    with pytest.raises(PreconditionError):
        clinch_generic_2player(ROWS, RHS, [4, 0], [1, 1])


def test_generic_clinch_dimension_guard():
    with pytest.raises(SizeError):
        clinch_generic_2player(((1, 1, 1),), (3,), [0, 0, 0], [1, 1, 1])


def test_generic_run_sole_high_value_takes_corner():
    out = run_generic_2player(ROWS, RHS,
                              [bidder(F(1, 10), 1), bidder(F(3, 10), 1)],
                              AuctionConfig(epsilon=F(1, 20)))
    assert out.allocation == (0, 3)
    assert not out.exhausted


@pytest.mark.parametrize("eps", [F(1, 20), F(1, 40), F(1, 80)])
def test_generic_run_large_gap_profile_exhausts_rival_on_facet(eps):
    # the large-gap profile of the impossibility polytope: at every step size,
    # bidder 1's budget binds exactly on the facet x0 + 2x1 = 6, so the outcome
    # is Pareto-optimal and the dominated-direction search finds nothing
    bidders = [Bidder(F(13, 20), F(1)), Bidder(F(10), F(1))]
    out = run_generic_2player(ROWS, RHS, bidders, AuctionConfig(epsilon=eps))
    assert out.exhausted == {1}
    assert out.allocation[0] + 2 * out.allocation[1] == 6
    assert check_dominated_direction(ROWS, RHS, bidders, out) is None


def test_generic_engine_matches_oracle_engine_on_2bidder_polymatroids():
    # dual-route check: a 2-bidder polymatroid is also the H-polytope
    # {x0 <= f({0}), x1 <= f({1}), x0+x1 <= f({0,1})}; the geometric clinch
    # and the residual-oracle clinch must produce identical runs
    from polyclinch import SubmodularOracle

    rng = random.Random(71)
    for _ in range(40):
        f0, f1 = F(rng.randint(1, 6)), F(rng.randint(1, 6))
        f01 = F(rng.randint(max(int(f0), int(f1)), int(f0 + f1)))
        oracle = SubmodularOracle.from_set_function(
            2, lambda s, a=f0, b=f1, c=f01: (0 if not s else
                                             a if s == {0} else
                                             b if s == {1} else c),
            monotone=True, name="pair")
        bidders = [Bidder(F(rng.randint(1, 6)),
                          None if rng.random() < 0.25 else F(rng.randint(1, 5)))
                   for _ in range(2)]
        cfg = AuctionConfig(epsilon=F(1, 4))
        via_oracle = run_clinching(oracle, bidders, cfg)
        via_geometry = run_generic_2player([[1, 0], [0, 1], [1, 1]],
                                           [f0, f1, f01], bidders, cfg)
        assert via_oracle.allocation == via_geometry.allocation
        assert via_oracle.payments == via_geometry.payments


def test_generic_run_keeps_feasibility_and_budgets():
    rng = random.Random(2)
    for _ in range(15):
        bidders = [Bidder(F(rng.randint(1, 40), 10), F(rng.randint(1, 3)))
                   for _ in range(2)]
        out = run_generic_2player(ROWS, RHS, bidders, AuctionConfig(epsilon=F(1, 10)))
        x = out.allocation
        assert 2 * x[0] + x[1] <= 6 and x[0] + 2 * x[1] <= 6
        for i in range(2):
            assert out.payments[i] <= bidders[i].budget
            assert out.payments[i] <= bidders[i].value * x[i]


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------

def test_outcomes_feasible_ir_and_budgeted_across_environments():
    rng = random.Random(404)
    for _ in range(25):
        kind = rng.choice(("multi-unit", "single-keyword", "adwords", "graphic", "vod-cut"))
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, kind, n)
        bidders = random_bidders(rng, n)
        out = run_clinching(oracle, bidders)
        assert membership(oracle, out.allocation).ok
        full = oracle.value(range(n))
        assert sum(out.allocation) == full
        for i, b in enumerate(bidders):
            assert out.payments[i] <= b.value * out.allocation[i]
            if b.budget is not None:
                assert out.payments[i] <= b.budget
