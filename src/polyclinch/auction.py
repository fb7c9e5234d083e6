"""Clinching-auction engines with exact rational price clocks.

The main loop follows the ascending-clock scheme: per-bidder prices start at
zero; each round computes demands, grants every bidder the largest amount
that cannot restrict anyone else (the clinch), charges the current clock
price for it, recomputes demands, then advances one clock by ``epsilon``
round-robin.  The loop ends when every demand is zero.

Engines:

* :func:`run_clinching`            -- polymatroid environments, generic clinch
  via :func:`~polyclinch.submodular.clinch_kernel`, with an automatic greedy
  fast path on single-keyword environments (bit-identical outcomes).
* :func:`run_scaled`               -- scaled polymatroids / quality factors:
  run on the base polytope with values ``gamma_i * v_i``, stretch the
  allocation back by ``gamma``.
* :func:`run_decreasing_marginals` -- uniform supply with piecewise-linear
  concave valuations and the marginal-threshold demand rule (the variant
  that is deliberately not truthful).
* :func:`run_generic_2player`      -- 2-bidder packing H-polytopes, clinching
  straight from the geometric definition; used by the Pareto-failure demo.

A run never charges above the clock, never exceeds a budget, and keeps the
promised allocation inside the polytope at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .errors import DivergenceError, DomainError, PreconditionError, SizeError
from .submodular import (
    Rational,
    SubmodularOracle,
    ZERO,
    as_fraction,
    clinch_kernel,
    vector,
)

UNBOUNDED = None          # budget sentinel: spelled "inf" in instance files


@dataclass(frozen=True)
class Bidder:
    """Per-unit value and a public budget (None for unbounded)."""

    value: Fraction
    budget: Optional[Fraction]

    def __post_init__(self):
        object.__setattr__(self, "value", as_fraction(self.value))
        if self.budget is not None:
            object.__setattr__(self, "budget", as_fraction(self.budget))
        if self.value <= 0:
            raise DomainError(f"bidder values must be > 0, got {self.value}")
        if self.budget is not None and self.budget < 0:
            raise DomainError(f"budgets must be >= 0, got {self.budget}")


def bidder(value: Rational, budget: Union[Rational, str, None] = UNBOUNDED) -> Bidder:
    """Convenience constructor; budget "inf"/None means unbounded."""
    if isinstance(budget, str) and budget == "inf":
        budget = UNBOUNDED
    return Bidder(as_fraction(value), None if budget is None else as_fraction(budget))


@dataclass(frozen=True)
class AuctionConfig:
    """Price-clock configuration.

    ``epsilon`` is an exact positive rational, or "auto" to take half the
    smallest gap between distinct threshold values (capped by half the
    smallest value).  Auto satisfies the Pareto guarantee but depends on the
    reports; truthfulness checks must therefore pin a fixed epsilon.
    """

    epsilon: Union[Fraction, str] = "auto"
    max_steps: int = 1_000_000
    trace: bool = False

    def __post_init__(self):
        if isinstance(self.epsilon, str):
            if self.epsilon != "auto":
                raise DomainError(f"epsilon must be a rational or 'auto', got {self.epsilon!r}")
        else:
            object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
            if self.epsilon <= 0:
                raise DomainError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_steps < 1:
            raise DomainError("max_steps must be positive")

    def resolve_epsilon(self, thresholds: Sequence[Fraction]) -> Fraction:
        if self.epsilon != "auto":
            return self.epsilon
        values = sorted(set(as_fraction(v) for v in thresholds))
        if not values or values[0] <= 0:
            raise DomainError("auto epsilon needs positive threshold values")
        bound = values[0]
        for a, b in zip(values, values[1:]):
            bound = min(bound, b - a)
        return bound / 2


@dataclass(frozen=True)
class TraceSnapshot:
    """One loop iteration, captured after clinching and before the price step."""

    step: int
    prices: tuple
    promised: tuple
    demands: tuple
    clinched: tuple
    budgets: tuple                  # remaining; None marks an unbounded budget
    residual_total: Fraction        # fhat([n]) at this snapshot

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "p": [str(v) for v in self.prices],
            "rho": [str(v) for v in self.promised],
            "d": [str(v) for v in self.demands],
            "delta": [str(v) for v in self.clinched],
            "B_rem": ["inf" if v is None else str(v) for v in self.budgets],
            "fhat_full": str(self.residual_total),
        }


@dataclass(frozen=True)
class Outcome:
    """Final allocation and payments, plus the trace when requested."""

    allocation: tuple
    payments: tuple
    trace: Optional[tuple]
    exhausted: frozenset            # bidders whose payment equals their budget

    def to_json(self, with_trace: bool = True) -> dict:
        out = {
            "x": [str(v) for v in self.allocation],
            "pay": [str(v) for v in self.payments],
            "exhausted": sorted(self.exhausted),
        }
        if with_trace and self.trace is not None:
            out["trace"] = [snap.to_json() for snap in self.trace]
        return out


def demand(budget_rem: Optional[Fraction], price: Fraction, value: Fraction,
           cap: Fraction) -> Fraction:
    """Quantity demanded at the clock price: B/p below the value, capped.

    The cap is the single-bidder feasibility bound (f({i}) - rho_i), which
    keeps the residual polytope unchanged while avoiding an unbounded demand
    at price zero.
    """
    if price >= value:
        return ZERO
    if price == 0 or budget_rem is None:
        return cap
    return min(budget_rem / price, cap)


def fast_residual_max(ctrs: Sequence[Rational], rho: Sequence[Rational],
                      d: Sequence[Rational]) -> Fraction:
    """Greedy evaluation of fhat([n]) on a single-keyword environment.

    Sort bidders by rho_i + d_i nonincreasing and fill positions greedily:
    z_i = min(rho_i + d_i, prefix_alpha_i - z_1 - ... - z_{i-1}); the answer
    is sum(z) - sum(rho) = max{1'x : x + rho in P, 0 <= x <= d}.
    """
    alpha = vector(ctrs)
    n = len(rho)
    prom = vector(rho, n)
    dem = vector(d, n)
    if any(v < 0 for v in dem):
        raise DomainError("demands must be >= 0")
    padded = list(alpha) + [ZERO] * max(0, n - len(alpha))
    order = sorted(range(n), key=lambda i: -(prom[i] + dem[i]))
    # rho must itself be feasible: top-t promises within the top-t CTR budget.
    sorted_rho = sorted(prom, reverse=True)
    run = ZERO
    cap = ZERO
    for t in range(n):
        run += sorted_rho[t]
        cap += padded[t]
        if run > cap:
            raise PreconditionError(
                f"rho is infeasible for the single-keyword polytope: top {t + 1} "
                f"promises sum to {run} > {cap}")
    total = ZERO
    filled = ZERO
    prefix = ZERO
    for rank, i in enumerate(order):
        prefix += padded[rank]
        z = min(prom[i] + dem[i], prefix - filled)
        filled += z
        total += z - prom[i]
    return total


def _clinch_vector_greedy(alpha: Sequence[Fraction], rho: Sequence[Fraction],
                          d: Sequence[Fraction]) -> tuple:
    """Fast-path clinch: delta_i = M - M_{-i} with d_i forced to zero in M_{-i}."""
    total = fast_residual_max(alpha, rho, d)
    out = []
    for i in range(len(rho)):
        if d[i] == 0:
            out.append(ZERO)
            continue
        held = list(d)
        held[i] = ZERO
        out.append(max(ZERO, total - fast_residual_max(alpha, rho, held)))
    return tuple(out)


def _kernel_callbacks(oracle: SubmodularOracle) -> tuple:
    """``(clinch_fn, fhat_fn)`` for :func:`_run_loop` over :func:`clinch_kernel`.

    fhat(S) = d(S) + min over T <= S of h(T) with h = f - (rho + d).  The
    loop clinches delta out of d into rho, so h is unchanged and the
    snapshot's fhat([n]) is the clinch's, less d([n]) before, plus d([n])
    after.  fhat_fn reuses the clinch that way whenever rho + d is the same
    vector, and runs the kernel otherwise.  Only the bidders whose entries
    changed (those that clinched) cost Fraction arithmetic.
    """
    last = [None, None, None]                    # rho, d and fhat([n]) of the last clinch

    def clinch_fn(rho, d):
        total, delta = clinch_kernel(oracle, rho, d)
        last[:] = tuple(rho), tuple(d), total
        return delta

    def fhat_fn(rho, d):
        rho0, d0, total = last
        if rho0 is not None:
            moved = [(a, b, a0, b0) for a, b, a0, b0 in zip(rho, d, rho0, d0)
                     if a != a0 or b != b0]
            if all(a + b == a0 + b0 for a, b, a0, b0 in moved):
                return total + sum((b - b0 for _, b, _, b0 in moved), ZERO)
        return clinch_kernel(oracle, rho, d)[0]

    return clinch_fn, fhat_fn


def _run_loop(n: int, eps: Fraction, max_steps: int,
              budgets0: Sequence[Optional[Fraction]],
              demands_fn: Callable, clinch_fn: Callable,
              fhat_fn: Optional[Callable], want_trace: bool):
    """Shared ascending-clock loop; the exact statement order matters.

    Each iteration: demands, clinch, apply, demands again, snapshot, price
    step, then the exit test on the recomputed demands.  The second demand
    computation always equals the first minus the clinch; it exists so the
    exit test and the snapshots read post-clinch demands.
    """
    prices = [ZERO] * n
    promised = [ZERO] * n
    payments = [ZERO] * n
    budgets = list(budgets0)
    clock = 0
    snapshots: List[TraceSnapshot] = []
    for step in range(max_steps):
        demands = demands_fn(prices, promised, budgets)
        delta = clinch_fn(promised, demands)
        for i in range(n):
            if delta[i] != 0:
                promised[i] += delta[i]
                charge = prices[i] * delta[i]
                payments[i] += charge
                if budgets[i] is not None:
                    budgets[i] -= charge
        demands = demands_fn(prices, promised, budgets)
        if want_trace:
            snapshots.append(TraceSnapshot(
                step, tuple(prices), tuple(promised), tuple(demands),
                tuple(delta), tuple(budgets),
                fhat_fn(promised, demands) if fhat_fn else ZERO))
        prices[clock] += eps
        clock = (clock + 1) % n
        if not any(demands):
            break
    else:
        raise DivergenceError(
            f"auction did not terminate within {max_steps} steps: it stopped at "
            f"prices ({', '.join(map(str, prices))}) with demands "
            f"({', '.join(map(str, demands))}) still positive; raise max_steps "
            "or epsilon, or check the reported values",
            step=max_steps, prices=tuple(prices), demands=tuple(demands))

    exhausted = frozenset(i for i in range(n)
                          if budgets0[i] is not None and payments[i] == budgets0[i])
    return Outcome(tuple(promised), tuple(payments),
                   tuple(snapshots) if want_trace else None, exhausted)


def run_clinching(oracle: SubmodularOracle, bidders: Sequence[Bidder],
                  cfg: AuctionConfig = AuctionConfig(),
                  fast_path: Optional[bool] = None) -> Outcome:
    """Clinching auction over the polymatroid defined by ``oracle``.

    ``fast_path=None`` uses the greedy clinch whenever the oracle carries a
    CTR list (single-keyword environments); True forces it, False forces the
    generic kernel path.  Both paths produce identical outcomes.
    """
    n = oracle.n
    if len(bidders) != n:
        raise DomainError(f"expected {n} bidders, got {len(bidders)}")
    values = [b.value for b in bidders]
    eps = cfg.resolve_epsilon(values)
    singles = [oracle.singleton(i) for i in range(n)]

    def demands_fn(prices, promised, budgets):
        return [demand(budgets[i], prices[i], values[i], singles[i] - promised[i])
                for i in range(n)]

    if fast_path is None:
        fast_path = oracle.ctrs is not None
    if fast_path:
        if oracle.ctrs is None:
            raise DomainError("fast path requires a single-keyword oracle")
        alpha = oracle.ctrs
        clinch_fn = lambda rho, d: _clinch_vector_greedy(alpha, rho, d)   # noqa: E731
        fhat_fn = lambda rho, d: fast_residual_max(alpha, rho, d)         # noqa: E731
    else:
        clinch_fn, fhat_fn = _kernel_callbacks(oracle)

    return _run_loop(n, eps, cfg.max_steps, [b.budget for b in bidders],
                     demands_fn, clinch_fn, fhat_fn if cfg.trace else None,
                     cfg.trace)


def run_scaled(oracle: SubmodularOracle, gamma: Sequence[Rational],
               bidders: Sequence[Bidder],
               cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Auction over the scaled polymatroid P_gamma = {x : (x_i / gamma_i) in P}.

    Runs the ordinary auction on P with values gamma_i * v_i, then stretches
    the allocation back by gamma; payments carry over unchanged.  The trace,
    when requested, is the underlying unit-scale run.
    """
    n = oracle.n
    factors = vector(gamma, n)
    if any(g <= 0 for g in factors):
        raise DomainError("scale factors must be > 0")
    scaled_bidders = [replace(b, value=factors[i] * b.value)
                      for i, b in enumerate(bidders)]
    base = run_clinching(oracle, scaled_bidders, cfg)
    allocation = tuple(factors[i] * base.allocation[i] for i in range(n))
    return Outcome(allocation, base.payments, base.trace, base.exhausted)


@dataclass(frozen=True)
class ConcaveCurve:
    """Piecewise-linear concave valuation on [0, supply].

    Stored as breakpoints (quantity, value) with V(0) = 0 implicit; segment
    slopes must be strictly positive and nonincreasing.
    """

    breakpoints: tuple               # ((q1, V1), ..., (qk, Vk)), q strictly increasing

    def __post_init__(self):
        pts = tuple((as_fraction(q), as_fraction(v)) for q, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if not pts:
            raise DomainError("a curve needs at least one breakpoint")
        prev_q, prev_v = ZERO, ZERO
        prev_slope = None
        for q, v in pts:
            if q <= prev_q:
                raise DomainError("breakpoint quantities must be strictly increasing")
            slope = (v - prev_v) / (q - prev_q)
            if slope <= 0:
                raise DomainError(f"segment slopes must be > 0, got {slope}")
            if prev_slope is not None and slope > prev_slope:
                raise DomainError(
                    f"slopes must be nonincreasing (concavity), got {prev_slope} then {slope}")
            prev_q, prev_v, prev_slope = q, v, slope

    @classmethod
    def from_slopes(cls, segments: Sequence[Tuple[Rational, Rational]]) -> "ConcaveCurve":
        """Build from (length, slope) pairs starting at the origin."""
        pts = []
        q, v = ZERO, ZERO
        for length, slope in segments:
            q += as_fraction(length)
            v += as_fraction(length) * as_fraction(slope)
            pts.append((q, v))
        return cls(tuple(pts))

    @property
    def supply(self) -> Fraction:
        return self.breakpoints[-1][0]

    def segments(self) -> list:
        """(start, end, slope) triples covering [0, supply]."""
        out = []
        prev_q, prev_v = ZERO, ZERO
        for q, v in self.breakpoints:
            out.append((prev_q, q, (v - prev_v) / (q - prev_q)))
            prev_q, prev_v = q, v
        return out

    def value_at(self, q: Rational) -> Fraction:
        q = as_fraction(q)
        if q < 0 or q > self.supply:
            raise DomainError(f"quantity {q} outside [0, {self.supply}]")
        total = ZERO
        for start, end, slope in self.segments():
            if q <= start:
                break
            total += slope * (min(q, end) - start)
        return total

    def demand_quantity(self, start: Rational, price: Fraction) -> Fraction:
        """Additional quantity wanted at a clock price from a current holding.

        A bidder participates only while the curve's first marginal strictly
        exceeds the price; while participating, the demand reaches through
        every segment whose slope weakly exceeds it.  At a slope change the
        lower (right) slope governs quantities beyond the breakpoint, so for
        prices equal to an interior slope the reach keeps the whole segment;
        for a flat (linear) curve this reduces to the strict p < v rule of
        the linear-demand auction.

        The reach depends only on the curve and the price, never on the
        holding, so clinching delta shifts the demand by exactly delta -- the
        identity the step invariants (conservation, re-clinch nullity) rely
        on.
        """
        start = as_fraction(start)
        segments = self.segments()
        if segments[0][2] <= price:
            return ZERO
        reach = ZERO
        for _, end, slope in segments:
            if slope >= price:
                reach = end
            else:
                break
        return max(ZERO, reach - start)


def run_decreasing_marginals(curves: Sequence[ConcaveCurve],
                             budgets: Sequence[Optional[Rational]],
                             supply: Rational,
                             cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Clinching loop over uniform supply with concave-curve demands.

    Demands follow d_i = min(B_i / p, largest x with the marginal beyond
    rho_i + x still at/above p).  With linear curves this coincides with
    :func:`run_clinching` on a multi-unit environment.  The variant is not
    truthful in general; the non-truthfulness witness lives in the verify
    module.
    """
    from .environments import multi_unit_oracle

    n = len(curves)
    total = as_fraction(supply)
    if total <= 0:
        raise DomainError(f"supply must be > 0, got {total}")
    for i, curve in enumerate(curves):
        if curve.supply != total:
            raise DomainError(
                f"curve {i} is defined on [0, {curve.supply}], expected [0, {total}]")
    normalized_budgets = [None if b is None else as_fraction(b) for b in budgets]
    if len(normalized_budgets) != n:
        raise DomainError(f"expected {n} budgets, got {len(normalized_budgets)}")
    oracle = multi_unit_oracle(total, n)

    slopes = [slope for curve in curves for _, _, slope in curve.segments()]
    eps = cfg.resolve_epsilon(slopes)

    def demands_fn(prices, promised, budgets_rem):
        out = []
        for i in range(n):
            quantity = curves[i].demand_quantity(promised[i], prices[i])
            if quantity == 0 or prices[i] == 0 or budgets_rem[i] is None:
                out.append(quantity)
            else:
                out.append(min(budgets_rem[i] / prices[i], quantity))
        return out

    clinch_fn, fhat_fn = _kernel_callbacks(oracle)
    return _run_loop(n, eps, cfg.max_steps, normalized_budgets, demands_fn,
                     clinch_fn, fhat_fn if cfg.trace else None, cfg.trace)


def _validate_packing(rows_a: Sequence[Sequence[Rational]],
                      rhs: Sequence[Rational]) -> Tuple[tuple, tuple]:
    a = tuple(vector(row) for row in rows_a)
    b = vector(rhs, len(a))
    for j, row in enumerate(a):
        if any(c < 0 for c in row):
            raise DomainError(f"packing constraints need A >= 0; row {j} is {row}")
        if b[j] < 0:
            raise DomainError(f"packing constraints need b >= 0; b[{j}] = {b[j]}")
    return a, b


def clinch_generic_2player(rows_a: Sequence[Sequence[Rational]],
                           rhs: Sequence[Rational],
                           rho: Sequence[Rational],
                           d: Sequence[Rational]) -> tuple:
    """Clinch on a 2-bidder packing polytope {x >= 0 : Ax <= b}.

    delta_i is the largest x_i that leaves the other bidder's option set
    untouched: with g(x_0) = max{x_1 : (x_0, x_1) in P_{rho,d}}, delta_0 =
    max{x_0 : (x_0, g(0)) in P_{rho,d}}, symmetrically for delta_1.  Solved
    by exact one-dimensional maximization over the constraint rows.  The
    generic path is deliberately 2-bidder-only.
    """
    a, b = _validate_packing(rows_a, rhs)
    if any(len(row) != 2 for row in a):
        raise SizeError("generic-polytope clinching is restricted to 2 bidders")
    prom = vector(rho, 2)
    dem = vector(d, 2)
    if any(v < 0 for v in dem):
        raise DomainError("demands must be >= 0")
    slack = []
    for j, row in enumerate(a):
        s = b[j] - row[0] * prom[0] - row[1] * prom[1]
        if s < 0:
            raise PreconditionError(
                f"rho violates packing row {j}: slack {s} < 0", witness=j)
        slack.append(s)

    def axis_max(i: int, other_fixed: Fraction) -> Fraction:
        other = 1 - i
        best = dem[i]
        for j, row in enumerate(a):
            if row[i] > 0:
                best = min(best, (slack[j] - row[other] * other_fixed) / row[i])
        return max(ZERO, best)

    g0 = axis_max(1, ZERO)          # most the other bidder could take if i gets 0
    h0 = axis_max(0, ZERO)
    return (axis_max(0, g0), axis_max(1, h0))


def _vertices_from_lines(lines: Sequence[Tuple[Fraction, Fraction, Fraction]]) -> list:
    """Vertices of {y : a0*y0 + a1*y1 <= c for each line}; arbitrary signs allowed."""
    points = set()
    for i in range(len(lines)):
        a0, b0, c0 = lines[i]
        for j in range(i + 1, len(lines)):
            a1, b1, c1 = lines[j]
            det = a0 * b1 - a1 * b0
            if det == 0:
                continue
            y0 = (c0 * b1 - c1 * b0) / det
            y1 = (a0 * c1 - a1 * c0) / det
            if all(l0 * y0 + l1 * y1 <= lc for l0, l1, lc in lines):
                points.add((y0, y1))
    return sorted(points)


def polytope_vertices(rows_a: Sequence[Sequence[Rational]],
                      rhs: Sequence[Rational]) -> list:
    """Vertices of a 2D packing polytope {x >= 0 : Ax <= b}, deduplicated and sorted."""
    a, b = _validate_packing(rows_a, rhs)
    lines = [(row[0], row[1], b[j]) for j, row in enumerate(a)]
    lines.append((Fraction(-1), ZERO, ZERO))     # -x0 <= 0
    lines.append((ZERO, Fraction(-1), ZERO))     # -x1 <= 0
    return _vertices_from_lines(lines)


def run_generic_2player(rows_a: Sequence[Sequence[Rational]],
                        rhs: Sequence[Rational],
                        bidders: Sequence[Bidder],
                        cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Ascending-clock loop with the generic 2-bidder clinch.

    The trace's residual-total field records max{x_0 + x_1 : x in P_{rho,d}}
    (the generic analogue of fhat([n])).
    """
    a, b = _validate_packing(rows_a, rhs)
    if len(bidders) != 2 or any(len(row) != 2 for row in a):
        raise SizeError("the generic engine is restricted to exactly 2 bidders")
    for i in range(2):
        if not any(row[i] > 0 for row in a):
            raise DomainError(f"coordinate {i} is unbounded; the polytope must be bounded")
    values = [bd.value for bd in bidders]
    eps = cfg.resolve_epsilon(values)

    def cap(i: int, promised) -> Fraction:
        best = None
        for j, row in enumerate(a):
            if row[i] > 0:
                s = (b[j] - row[0] * promised[0] - row[1] * promised[1]) / row[i]
                best = s if best is None else min(best, s)
        return max(ZERO, best)

    def demands_fn(prices, promised, budgets_rem):
        return [demand(budgets_rem[i], prices[i], values[i], cap(i, promised))
                for i in range(2)]

    def clinch_fn(promised, demands):
        return clinch_generic_2player(a, b, promised, demands)

    def fhat_fn(promised, demands):
        rows = [(row[0], row[1], b[j] - row[0] * promised[0] - row[1] * promised[1])
                for j, row in enumerate(a)]
        rows.append((Fraction(1), ZERO, demands[0]))
        rows.append((ZERO, Fraction(1), demands[1]))
        verts = polytope_vertices([r[:2] for r in rows], [r[2] for r in rows])
        return max(x + y for x, y in verts)

    return _run_loop(2, eps, cfg.max_steps, [bd.budget for bd in bidders],
                     demands_fn, clinch_fn, fhat_fn if cfg.trace else None,
                     cfg.trace)
