"""Clinching engines: the ascending loop, fast path, scaling, curve demands."""

import json
import pathlib
import random
from dataclasses import replace
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

from polyclinch import auction, submodular
from polyclinch.instances import generate_instance, parse_instance
from polyclinch.submodular import RankSolution, SubmodularOracle, clinch_kernel
from polyclinch.verify import (
    APPENDIX_D_BUDGETS,
    APPENDIX_D_SUPPLY,
    IMPOSSIBILITY_BUDGETS,
    IMPOSSIBILITY_RHS,
    IMPOSSIBILITY_ROWS,
    appendix_d_curves,
    validate_trace,
)

from corpus import (KINDS, polymatroid_cases, random_bidders, random_oracle, reduced_rank,
                    table_only)
from reference_loop import clinching_steps, fraction_rules, reference_run

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


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


def test_integer_demand_rule_matches_fraction_rule_on_pair_caps():
    # _demand_nums with a cap given as a _quotient pair, against demand on
    # the same Fractions: price and value over u, the cap over q, the budget
    # over q * u.  A finite budget that does not bind returns the pair
    # itself; the generic engine asks for a pair cap only at price 0, where
    # the rule returns the cap before reading the budget.
    def over(value, q):                  # an int or a _quotient pair, over q
        return F(value, q) if type(value) is int else F(value[0], value[1] * q)

    returned = 0
    for q, u in ((1, 1), (3, 2), (4, 9)):
        for price, value in ((0, 5), (2, 5), (3, 7), (5, 5), (8, 5)):
            for budget in (None, 0, 1, 7, 40):
                for cap in (0, 3, (7, 2), (40, 3), (1, 5)):
                    got = auction._demand_nums(price, value, budget, cap)
                    want = demand(None if budget is None else F(budget, q * u),
                                  F(price, u), F(value, u), over(cap, q))
                    assert over(got, q) == want, (q, u, price, value, budget, cap)
                    assert type(got) is int or got == auction._quotient(*got)
                    returned += got is cap and type(cap) is tuple and budget is not None \
                        and 0 < price < value
    assert returned >= 20, returned


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
    # nor does a run start on a clock it cannot set
    with pytest.raises(DomainError, match="^epsilon must be a rational or 'auto', got 'fast'$"):
        AuctionConfig(epsilon="fast")
    with pytest.raises(DomainError, match="^auto epsilon needs positive threshold values$"):
        AuctionConfig().resolve_epsilon([])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.fractions(min_value=F(-2), max_value=F(40), max_denominator=12),
                min_size=1, max_size=12))
def test_auto_epsilon_is_half_the_least_gap(values):
    # The least positive gap among the distinct values and 0, halved.
    distinct = sorted(set(values))
    if distinct[0] <= 0:
        with pytest.raises(DomainError, match="^auto epsilon needs positive threshold values$"):
            AuctionConfig().resolve_epsilon(values)
        return
    gaps = [b - a for a, b in zip([F(0)] + distinct, distinct)]
    assert AuctionConfig().resolve_epsilon(values) == min(gaps) / 2


# ---------------------------------------------------------------------------
# cardinality oracles: the reduced rank of a rank list, by one sort
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
    for kind in ("single-keyword", "multi-unit"):
        for _ in range(25):
            n = rng.randint(2, 6)
            oracle = random_oracle(rng, kind, n)
            assert oracle.ctrs is not None
            bidders = random_bidders(rng, n)
            cfg = AuctionConfig(epsilon=F(1, 4), trace=True)
            fast = run_clinching(oracle, bidders, cfg)
            slow = run_clinching(table_only(oracle), bidders, cfg)
            assert fast.allocation == slow.allocation
            assert fast.payments == slow.payments
            assert fast.trace == slow.trace     # per-step deltas and fhat agree


def test_traced_ctr_run_reuses_the_clinch(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return submodular._clinch_nums(*args)
    monkeypatch.setattr(auction, "_clinch_nums", counted)
    rng = random.Random(1010)
    for _ in range(10):
        n = rng.randint(2, 6)
        oracle = random_oracle(rng, "single-keyword", n)
        assert oracle.ctrs is not None
        bidders = random_bidders(rng, n)
        runs = []
        for trace in (False, True):
            del calls[:]
            out = run_clinching(oracle, bidders, AuctionConfig(epsilon=F(1, 4), trace=trace))
            runs.append((out, len(calls)))
        (plain, plain_calls), (traced, traced_calls) = runs
        assert traced_calls == plain_calls > 0
        assert (traced.allocation, traced.payments, traced.exhausted) == \
            (plain.allocation, plain.payments, plain.exhausted)
        assert plain.trace is None and traced.trace[-1].promised == traced.allocation


def test_ctr_clinch_runs_above_the_enumeration_cap(monkeypatch):
    inst = generate_instance("single-keyword", 10, None, 3)
    oracle = inst.build_oracle()
    cfg = AuctionConfig(trace=True)
    reference = run_clinching(table_only(oracle), inst.bidders, cfg)

    def no_table(self):
        raise AssertionError(f"{self.name}: integer table built")
    monkeypatch.setattr(SubmodularOracle, "integer_table", no_table)
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "6")
    out = run_clinching(oracle, inst.bidders, cfg)
    assert out == reference and any(out.allocation)


# ---------------------------------------------------------------------------
# vod-cut: the reduced-rank max-flow clinch against the table
# ---------------------------------------------------------------------------

def _flow_and_table_json(oracle, bidders, cfg=AuctionConfig(trace=True)):
    """The traced outcome's JSON with the flow clinch, then on the same set
    function without its reduced rank, which the kernel clinches on the table."""
    flow = run_clinching(oracle, bidders, cfg)
    oracle.integer_table()              # the reference reads the lattice-walk table
    table = run_clinching(table_only(oracle), bidders, cfg)
    return json.dumps(flow.to_json()), json.dumps(table.to_json())


def test_flow_clinch_matches_the_table_on_the_vod_cut_corpus():
    sold = 0
    for label, oracle, bidders in polymatroid_cases(seed=1803, count=40, n_max=12,
                                                    kinds=("vod-cut",)):
        assert oracle.reduced_rank is not None
        flow, table = _flow_and_table_json(oracle, bidders)
        assert flow == table, label
        sold += any(x != "0" for x in json.loads(flow)["x"])
    assert sold >= 30


def test_flow_clinch_matches_the_table_at_n16(monkeypatch):
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    for seed in range(4):
        inst = generate_instance("vod-cut", 16, None, seed)
        flow, table = _flow_and_table_json(inst.build_oracle(), inst.bidders)
        assert flow == table, seed


def test_flow_clinch_matches_the_table_on_vod_cut_fixtures():
    fixtures = [path for path in sorted(FIXTURES.glob("*.json"))
                if json.loads(path.read_text())["environment"]["kind"] == "vod-cut"]
    assert fixtures
    for path in fixtures:
        inst = parse_instance(path)
        for cfg in (inst.config, AuctionConfig(trace=True)):
            flow, table = _flow_and_table_json(inst.build_oracle(), inst.bidders, cfg)
            assert flow == table, (path.name, cfg)


def test_vod_cut_runs_above_the_enumeration_cap(monkeypatch):
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    inst = generate_instance("vod-cut", 40, None, 0)
    oracle = inst.build_oracle()

    def no_table(self):
        raise AssertionError(f"{self.name}: integer table built")
    monkeypatch.setattr(SubmodularOracle, "integer_table", no_table)
    out = run_clinching(oracle, inst.bidders, AuctionConfig())
    for b, x, pay in zip(inst.bidders, out.allocation, out.payments):
        assert 0 <= pay <= b.value * x                               # individual rationality
        assert b.budget is None or pay <= b.budget                   # budget feasibility
    # x in P(f): the most that fits under x is all of x
    assert reduced_rank(oracle, out.allocation)[0] == sum(out.allocation) > 0


def _classic_multi_unit_kernel(supply):
    # uniform supply, independent of cardinality minima: fhat([n]) is
    # min(d([n]), s_rem) and delta_i = min(d_i, [s_rem - rivals' demands]^+),
    # on the loop's numerators over den = rank.den * scale, as the engines'
    # integer clinch takes them; it hands its start back as the solution, so
    # the clock passes it the reduced rank every time
    def kernel(rank, scale, rho, d):
        whole = supply * rank.den * scale
        assert whole.denominator == 1
        s_rem, total = whole.numerator - sum(rho), sum(d)
        return min(total, s_rem), [min(di, max(0, s_rem - (total - di))) for di in d], rank
    return kernel


def test_multi_unit_runs_above_the_enumeration_cap(monkeypatch):
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    inst = generate_instance("multi-unit", 40, None, 0)
    supply = inst.environment.payload["supply"]
    rng = random.Random(4040)
    curves = []
    for _ in range(20):
        cut = F(rng.randint(1, 5), 6) * supply
        high = rng.randint(2, 6)
        curves.append(ConcaveCurve.from_slopes([(cut, high), (supply - cut, rng.randint(1, high))]))
    budgets = [None if rng.random() < 0.2 else F(rng.randint(1, 6)) for _ in curves]
    runs = [(run_clinching, (inst.build_oracle(), inst.bidders, AuctionConfig(trace=True))),
            (run_decreasing_marginals, (curves, budgets, supply, AuctionConfig(trace=True)))]
    with monkeypatch.context() as patched:
        patched.setattr(auction, "_clinch_nums", _classic_multi_unit_kernel(supply))
        references = [engine(*args) for engine, args in runs]

    def no_table(self):
        raise AssertionError(f"{self.name}: integer table built")
    monkeypatch.setattr(SubmodularOracle, "integer_table", no_table)
    for (engine, args), reference in zip(runs, references):
        out = engine(*args)
        assert out == reference and any(out.allocation)
        assert sum(out.allocation) <= supply


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


def _post_clinch_demand_cases():
    """``(engine, args, oracle)`` for every oracle kind and every engine; the
    oracle is given for the polymatroid engine only."""
    rng = random.Random(13)
    cases = []
    for t in range(15):
        n = rng.randint(2, 4)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        bidders = random_bidders(rng, n)
        cfg = AuctionConfig(epsilon="auto" if t % 2 else F(1, 4), trace=True)
        cases.append((run_clinching, (oracle, bidders, cfg), oracle))
        if oracle.ctrs is not None:
            cases.append((run_clinching, (table_only(oracle), bidders, cfg), oracle))
    cases.append((run_decreasing_marginals,
                  (appendix_d_curves(), list(APPENDIX_D_BUDGETS), APPENDIX_D_SUPPLY,
                   AuctionConfig(epsilon=F(1, 20), trace=True)), None))
    for _ in range(6):
        supply = F(rng.randint(1, 4))
        curves = [ConcaveCurve.from_slopes([(supply / 2, rng.randint(3, 6)),
                                            (supply / 2, rng.randint(1, 3))])
                  for _ in range(3)]
        budgets = [None if rng.random() < 0.3 else F(rng.randint(1, 8)) for _ in range(3)]
        cases.append((run_decreasing_marginals,
                      (curves, budgets, supply, AuctionConfig(epsilon=F(1, 4), trace=True)),
                      None))
    for v0, v1 in ((F(1, 2), F(3, 5)), (F(1), F(1)), (F(1), F(4)), (F(3, 10), F(2))):
        bidders = [Bidder(v, b) for v, b in zip((v0, v1), IMPOSSIBILITY_BUDGETS)]
        cases.append((run_generic_2player,
                      (IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders,
                       AuctionConfig(epsilon=F(1, 20), trace=True)), None))
    return cases


def _check_post_clinch_demands(engine, args, oracle):
    out = engine(*args)
    demands = fraction_rules(engine, *args).demands
    budgets0 = out.trace[0].budgets
    for snap in out.trace:
        after = demands(list(snap.prices), list(snap.promised), list(snap.budgets))
        assert tuple(after) == snap.demands
        pre_budget = [None if budgets0[i] is None else
                      snap.budgets[i] + snap.prices[i] * snap.clinched[i]
                      for i in range(len(budgets0))]
        pre_rho = [r - x for r, x in zip(snap.promised, snap.clinched)]
        pre_d = demands(list(snap.prices), pre_rho, pre_budget)
        assert tuple(q - x for q, x in zip(pre_d, snap.clinched)) == snap.demands
        if oracle is not None:              # the polymatroid rule, written out
            values = [b.value for b in args[1]]
            assert snap.demands == tuple(
                demand(snap.budgets[i], snap.prices[i], values[i],
                       oracle.singleton(i) - snap.promised[i])
                for i in range(oracle.n))


def test_second_demand_recompute_equals_first_minus_clinch():
    # the loop carries d - delta forward as the post-clinch demands instead of
    # asking the demand rule again; the engine's rule in Fraction arithmetic
    # (reference_loop.fraction_rules), applied to the snapshot's promises,
    # budgets and prices, must give the same vector, and so must the rule
    # before the clinch less the clinch
    for engine, args, oracle in _post_clinch_demand_cases():
        _check_post_clinch_demands(engine, args, oracle)


def _counting_kernel(monkeypatch):
    # the engines clinch by _clinch_nums on the loop's integers, and the
    # reference loop by clinch_kernel, which runs the same _clinch_nums
    calls = []
    kernel = submodular._clinch_nums

    def counted(rank, scale, rho, d):
        calls.append(1)
        return kernel(rank, scale, rho, d)
    monkeypatch.setattr(auction, "_clinch_nums", counted)
    monkeypatch.setattr(submodular, "_clinch_nums", counted)
    return calls


def _kernel_runs(calls, engine, *args):
    """``engine(*args)`` with its kernel runs, the reference loop's kernel runs
    and the reference loop's steps."""
    del calls[:]
    _, steps = reference_run(engine, *args)
    reference_runs = len(calls)
    del calls[:]
    return engine(*args), len(calls), reference_runs, steps


def test_trace_snapshots_reuse_the_clinch(monkeypatch):
    # one kernel run per step that clinches: snapshots reuse the clinch, and
    # a step whose demands are the last clinch's d - delta runs no kernel
    calls = _counting_kernel(monkeypatch)
    rng = random.Random(1806)
    for t in range(20):
        n = rng.randint(1, 6)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        out, runs, reference_runs, steps = _kernel_runs(
            calls, run_clinching, table_only(oracle), random_bidders(rng, n),
            AuctionConfig(trace=True))
        assert reference_runs == len(out.trace)     # the reference clinches every step
        assert runs == len(clinching_steps(steps))
        for snap in out.trace:
            assert snap.residual_total == clinch_kernel(oracle, snap.promised,
                                                        snap.demands)[0]
    for _ in range(10):
        supply = F(rng.randint(1, 4))
        curves = [ConcaveCurve.from_slopes([(supply / 2, rng.randint(3, 6)),
                                            (supply / 2, rng.randint(1, 3))])
                  for _ in range(3)]
        budgets = [None if rng.random() < 0.3 else F(rng.randint(1, 8)) for _ in range(3)]
        out, runs, reference_runs, steps = _kernel_runs(
            calls, run_decreasing_marginals, curves, budgets, supply,
            AuctionConfig(epsilon=F(1, 4), trace=True))
        assert reference_runs == len(out.trace)
        assert runs == len(clinching_steps(steps))
        oracle = multi_unit_oracle(supply, 3)
        for snap in out.trace:
            assert snap.residual_total == clinch_kernel(oracle, snap.promised,
                                                        snap.demands)[0]


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


def test_scaled_rejects_a_bidder_list_of_the_wrong_length():
    # a long list used to fail with a bare IndexError
    for k in (1, 3):
        with pytest.raises(DomainError, match=f"expected 2 bidders, got {k}"):
            run_scaled(multi_unit_oracle(1, 2), [1, 2], [bidder(1, 1)] * k)


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
    with pytest.raises(DomainError, match=r"^quantity 5/2 outside \[0, 2\]$"):
        curve.value_at(F(5, 2))


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
    # linear curves make the curve engine the multi-unit auction: the same
    # outcome, trace included, at a fixed and at an auto epsilon, with
    # fractional supplies, values and budgets
    rng = random.Random(42)
    exhausted = fractional = 0
    for t in range(15):
        n = rng.randint(2, 4)
        supply = F(rng.randint(1, 10), rng.choice((1, 2, 3)))
        values = [F(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in range(n)]
        budgets = [None if rng.random() < 0.3 else F(rng.randint(1, 16), rng.choice((1, 2, 5)))
                   for _ in range(n)]
        curves = [ConcaveCurve.from_slopes([(supply, v)]) for v in values]
        for eps in (F(1, 4), "auto"):
            cfg = AuctionConfig(epsilon=eps, trace=True)
            via_curves = run_decreasing_marginals(curves, budgets, supply, cfg)
            plain = run_clinching(multi_unit_oracle(supply, n),
                                  [Bidder(v, b) for v, b in zip(values, budgets)], cfg)
            assert via_curves.trace and via_curves == plain, (t, eps)
            exhausted += bool(plain.exhausted)
            fractional += any(x.denominator > 1 for x in plain.allocation)
    assert exhausted >= 5 and fractional >= 5, (exhausted, fractional)


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
    with pytest.raises(DomainError, match="expected 1 budgets, got 2"):
        run_decreasing_marginals([ConcaveCurve.from_slopes([(2, 2)])], [None, 1], 2)
    with pytest.raises(DomainError, match="^supply must be > 0, got 0$"):
        run_decreasing_marginals([ConcaveCurve.from_slopes([(2, 2)])], [None], 0)


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
    three = [bidder(1, 1)] * 3
    with pytest.raises(SizeError):
        run_generic_2player(ROWS, RHS, three, AuctionConfig(epsilon=F(1, 20)))
    out = run_generic_2player(ROWS, RHS, three[:2], AuctionConfig(epsilon=F(1, 20)))
    with pytest.raises(SizeError):
        check_dominated_direction(ROWS, RHS, three, out)


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


def test_no_run_reads_the_smallest_minimizer(monkeypatch):
    # smallest() is the witness code's alone: planted in every RankSolution,
    # a smallest() that drops T*'s lowest member leaves every traced run and
    # its validate_trace as they were, and is never called.  The markets are
    # the polymatroid fixtures and clinch gen seeds 0-2 of every kind at
    # n = 4, 6 and 12 (m = 3).
    markets = [parse_instance(path) for path in sorted(FIXTURES.glob("*.json"))]
    markets = [inst for inst in markets
               if inst.environment.kind in KINDS and inst.curves is None]
    markets += [generate_instance(kind, n, 3, seed)
                for kind in KINDS for n in (4, 6, 12) for seed in range(3)]
    assert len(markets) == 51

    def traced(inst):
        config = replace(inst.config, trace=True)
        out = (run_scaled(inst.oracle, inst.quality, inst.bidders, config)
               if inst.quality else run_clinching(inst.oracle, inst.bidders, config))
        return out, validate_trace(inst.oracle, out.trace).to_json()

    honest = [traced(inst) for inst in markets]
    calls = []
    init = RankSolution.__init__

    def planted(self, total, smallest, clinch, solve):
        def wrong():
            calls.append(total)
            mask = smallest()
            return mask & mask - 1
        init(self, total, wrong, clinch, solve)
    monkeypatch.setattr(RankSolution, "__init__", planted)
    assert [traced(inst) for inst in markets] == honest
    assert not calls
    assert multi_unit_oracle(2, 3).rank().solve(1, [2, 2, 2]).smallest() == 0b110
