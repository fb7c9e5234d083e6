"""Clinching-auction engines with exact rational price clocks.

The main loop follows the ascending-clock scheme: per-bidder prices start at
zero; each round computes demands, grants every bidder the largest amount
that cannot restrict anyone else (the clinch), charges the current clock
price for it, lowers the demands by the clinched amounts, then advances one
clock by ``epsilon`` round-robin.  A step whose demands are those the last
clinch left behind clinches zero, so it skips the clinch.  The loop ends
when every demand is zero.

Engines:

* :func:`run_clinching`            -- polymatroid environments, clinched by
  :func:`~polyclinch.submodular.clinch_kernel` (by the oracle's reduced
  rank: one sort on single-keyword and multi-unit oracles, one max-flow on
  vod-cut oracles, the 2^n table otherwise).
* :func:`run_scaled`               -- scaled polymatroids / quality factors:
  run on the base polytope with values ``gamma_i * v_i``, stretch the
  allocation back by ``gamma``.
* :func:`run_decreasing_marginals` -- uniform supply with piecewise-linear
  concave valuations and the marginal-threshold demand rule (the variant
  that is deliberately not truthful).
* :func:`run_generic_2player`      -- 2-bidder packing H-polytopes, clinching
  straight from the geometric definition on integer rows; used by the
  Pareto-failure demo.

A run never charges above the clock, never exceeds a budget, and keeps the
promised allocation inside the polytope at every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .environments import _rank_sum_oracle
from .errors import DivergenceError, DomainError, PreconditionError, SizeError
from .submodular import (
    Rational,
    SubmodularOracle,
    ZERO,
    _check_promises,
    _demand_vector,
    _over_common_denominator,
    _rank_list,
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
        if type(self.max_steps) is not int or self.max_steps < 1:
            raise DomainError(f"max_steps must be a positive integer, got {self.max_steps!r}")
        if type(self.trace) is not bool:
            raise DomainError(f"trace must be a boolean, got {self.trace!r}")

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
    at price zero; :func:`run_decreasing_marginals` passes the curve's reach
    beyond the holding instead.
    """
    if price >= value:
        return ZERO
    if price == 0 or budget_rem is None:
        return cap
    return min(budget_rem / price, cap)


def fast_residual_max(ctrs: Sequence[Rational], rho: Sequence[Rational],
                      d: Sequence[Rational]) -> Fraction:
    """fhat([n]) = max{1'x : x + rho in P, 0 <= x <= d} for f(S) = A_|S|.

    A_t is the sum of the first t ``ctrs``, which must be >= 0 and
    nonincreasing: the total of :func:`clinch_kernel` on the cardinality
    oracle of the list, by its reduced rank.  rho must lie in P(f), or
    :class:`PreconditionError` is raised.
    """
    n = len(rho)
    oracle = _rank_sum_oracle(n, [(range(n), _rank_list(ctrs, "rank list"))], "cardinality")
    prom, dem = vector(rho, n), _demand_vector(d, n)
    _check_promises(oracle, prom)
    return clinch_kernel(oracle, prom, dem)[0]


def _clinch_callbacks(oracle: SubmodularOracle) -> tuple:
    """``(clinch_fn, fhat_fn)`` for :func:`_run_loop` over the polymatroid of ``oracle``.

    Every oracle is clinched by :func:`clinch_kernel`, which returns
    ``(fhat([n]), delta)`` and needs no value table on oracles with a
    structural reduced rank (cardinality and vod-cut).

    fhat(S) = d(S) + min over T <= S of h(T) with h = f - (rho + d).  The
    loop calls ``fhat_fn`` right after each clinch, at (rho + delta,
    d - delta): h is unchanged, so fhat([n]) there is the clinch's total
    less the sum of delta.
    """
    last = []                                    # fhat([n]) and delta of the last clinch

    def clinch_fn(rho, d):
        last[:] = clinch_kernel(oracle, rho, d)
        return last[1]

    def fhat_fn(rho, d):
        total, delta = last
        return total - sum(delta, ZERO)

    return clinch_fn, fhat_fn


def _check_bidder_count(n: int, bidders: Sequence[Bidder]) -> None:
    """Refuse a bidder list that does not hold one bidder per element."""
    if len(bidders) != n:
        raise DomainError(f"expected {n} bidders, got {len(bidders)}")


def _demand_schedule(budget_rem: Optional[Fraction], value: Fraction, cap: Fraction) -> Callable:
    """One bidder's :func:`demand` as a function of its own clock price."""
    return lambda price: demand(budget_rem, price, value, cap)


def _run_loop(n: int, eps: Fraction, max_steps: int,
              budgets0: Sequence[Optional[Fraction]],
              demands_fn: Callable, clinch_fn: Callable,
              fhat_fn: Optional[Callable]):
    """Shared ascending-clock loop; the exact statement order matters.

    Each iteration: clinch, apply, snapshot, price step, the exit test on
    the post-clinch demands, then the next step's demands.  A trace is kept
    exactly when ``fhat_fn`` is given: ``fhat_fn(rho, nu)`` runs right after
    each ``clinch_fn`` call, at the post-clinch promises and demands, and
    its value is the residual total of every snapshot up to the next clinch.

    ``demands_fn(prices, promised, budgets)`` returns n schedules: schedule i
    maps a price to bidder i's demand at that clock price while the promises
    and remaining budgets stay as passed.  The loop builds the schedules at
    the start and again after each clinch, at the post-clinch promises and
    budgets, and evaluates all n of them only at the first step.

    The post-clinch demands are d - delta, the demands the engine's own rule
    gives at the new promises and budgets (delta <= d, and a clinch at
    price p lowers the remaining budget by p * delta):

    * :func:`run_clinching`: ``min(B_rem / p, f({i}) - rho_i)``; both
      arguments fall by delta_i (at p = 0 or an unbounded budget only the
      cap is there, and at p >= v_i, d_i = delta_i = 0).
    * :func:`run_decreasing_marginals`: the curve's reach does not depend on
      the holding, so ``demand_quantity`` falls by delta_i, as B_rem / p does.
    * :func:`run_generic_2player`: ``cap_i`` also sees the rival o's
      promise.  The clinch gives o the most it can take beside h(0), the
      most i can take when o takes nothing, and h(0) = min(d_i, cap_i) =
      d_i.  So (d_i, delta_o) lies in P_{rho,d}, and the new cap_i is at
      least d_i - delta_i; it is at most cap_i - delta_i because A >= 0.
      If d_i = cap_i the new cap_i is pinned to d_i - delta_i; otherwise
      d_i = B_rem / p, which falls by delta_i and stays below the new cap.

    So the loop keeps nu = d - delta instead of asking for the demands
    again.  Until the next clinch the promises and budgets stay put and each
    step moves one clock, so nu with the clocked bidder's entry replaced by
    its schedule's value at the new price is the engine's demand vector:
    one schedule evaluation per step is exact.  Clinching again at
    (rho + delta, nu) gives zero (re-clinch nullity: the clinch moves delta
    from d into rho and leaves f - rho - d unchanged), so when that value
    equals nu's entry the step's clinch is zero and ``clinch_fn`` is not
    called.  Such a step leaves rho and nu as they were, so its snapshot
    keeps the last total and nu stays the demand vector at the new prices.
    """
    prices = [ZERO] * n
    promised = [ZERO] * n
    payments = [ZERO] * n
    budgets = list(budgets0)
    clock = 0
    snapshots: List[TraceSnapshot] = []
    no_clinch = (ZERO,) * n
    schedules = demands_fn(prices, promised, budgets)
    demands = [schedule(price) for schedule, price in zip(schedules, prices)]
    for step in range(max_steps):
        if demands is None:              # this step's demands are nu
            delta = no_clinch
        else:
            delta = clinch_fn(promised, demands)
            for i in range(n):
                if delta[i] != 0:
                    promised[i] += delta[i]
                    charge = prices[i] * delta[i]
                    payments[i] += charge
                    if budgets[i] is not None:
                        budgets[i] -= charge
            nu = [q - x for q, x in zip(demands, delta)]
            schedules = demands_fn(prices, promised, budgets)
            if fhat_fn is not None:
                total = fhat_fn(promised, nu)
        if fhat_fn is not None:
            snapshots.append(TraceSnapshot(
                step, tuple(prices), tuple(promised), tuple(nu),
                tuple(delta), tuple(budgets), total))
        moved = clock
        prices[moved] += eps
        clock = (moved + 1) % n
        if not any(nu):
            break
        q = schedules[moved](prices[moved])
        demands = None if q == nu[moved] else nu[:moved] + [q] + nu[moved + 1:]
    else:
        raise DivergenceError(
            f"auction did not terminate within {max_steps} steps: it stopped at "
            f"prices ({', '.join(map(str, prices))}) with demands "
            f"({', '.join(map(str, nu))}) still positive; raise max_steps "
            "or epsilon, or check the reported values",
            step=max_steps, prices=tuple(prices), demands=tuple(nu))

    exhausted = frozenset(i for i in range(n)
                          if budgets0[i] is not None and payments[i] == budgets0[i])
    return Outcome(tuple(promised), tuple(payments),
                   tuple(snapshots) if fhat_fn is not None else None, exhausted)


def run_clinching(oracle: SubmodularOracle, bidders: Sequence[Bidder],
                  cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Clinching auction over the polymatroid defined by ``oracle``.

    Each clinch is one :func:`clinch_kernel` call (see
    :func:`_clinch_callbacks`), so oracles with a reduced rank (single-keyword
    and multi-unit by one sort, vod-cut by one max-flow) run past the
    enumeration cap.
    """
    n = oracle.n
    _check_bidder_count(n, bidders)
    values = [b.value for b in bidders]
    eps = cfg.resolve_epsilon(values)
    singles = [oracle.singleton(i) for i in range(n)]

    def demands_fn(prices, promised, budgets):
        return [_demand_schedule(budgets[i], values[i], singles[i] - promised[i])
                for i in range(n)]

    clinch_fn, fhat_fn = _clinch_callbacks(oracle)
    return _run_loop(n, eps, cfg.max_steps, [b.budget for b in bidders],
                     demands_fn, clinch_fn, fhat_fn if cfg.trace else None)


def run_scaled(oracle: SubmodularOracle, gamma: Sequence[Rational],
               bidders: Sequence[Bidder],
               cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Auction over the scaled polymatroid P_gamma = {x : (x_i / gamma_i) in P}.

    It is the ordinary auction on P at values gamma_i * v_i (:func:`_scaled_bidders`),
    its allocation stretched back by gamma (:func:`_stretched`); payments and
    the trace are the base run's, and ``clinch verify`` checks that base run.
    """
    factors, base_bidders = _scaled_bidders(oracle.n, gamma, bidders)
    return _stretched(factors, run_clinching(oracle, base_bidders, cfg))


def _scaled_bidders(n: int, gamma: Sequence[Rational],
                    bidders: Sequence[Bidder]) -> tuple:
    """The n factors gamma, all > 0, and the n bidders at values gamma_i * v_i."""
    factors = vector(gamma, n)
    if any(g <= 0 for g in factors):
        raise DomainError("scale factors must be > 0")
    _check_bidder_count(n, bidders)
    return factors, [replace(b, value=g * b.value) for g, b in zip(factors, bidders)]


def _stretched(factors: Sequence[Fraction], base: Outcome) -> Outcome:
    """A base-polymatroid outcome with allocation x_i stretched to gamma_i * x_i."""
    return replace(base, allocation=tuple(g * x for g, x in zip(factors, base.allocation)))


@dataclass(frozen=True)
class ConcaveCurve:
    """Piecewise-linear concave valuation on [0, supply].

    Stored as breakpoints (quantity, value) with V(0) = 0 implicit; segment
    slopes must be strictly positive and nonincreasing.
    """

    breakpoints: tuple               # ((q1, V1), ..., (qk, Vk)), q strictly increasing
    _segments: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pts = tuple((as_fraction(q), as_fraction(v)) for q, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        if not pts:
            raise DomainError("a curve needs at least one breakpoint")
        prev_q, prev_v = ZERO, ZERO
        prev_slope = None
        segments = []
        for q, v in pts:
            if q <= prev_q:
                raise DomainError("breakpoint quantities must be strictly increasing")
            slope = (v - prev_v) / (q - prev_q)
            if slope <= 0:
                raise DomainError(f"segment slopes must be > 0, got {slope}")
            if prev_slope is not None and slope > prev_slope:
                raise DomainError(
                    f"slopes must be nonincreasing (concavity), got {prev_slope} then {slope}")
            segments.append((prev_q, q, slope))
            prev_q, prev_v, prev_slope = q, v, slope
        object.__setattr__(self, "_segments", tuple(segments))

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

    def segments(self) -> tuple:
        """(start, end, slope) triples covering [0, supply]."""
        return self._segments

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
        if self._segments[0][2] <= price:
            return ZERO
        reach = ZERO
        for _, end, slope in self._segments:
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

    def schedule(curve, held, budget_rem):
        # the curve's reach beyond the holding caps B_rem / p; its first
        # slope plays the value, above which demand_quantity is zero anyway
        top = curve.segments()[0][2]
        return lambda price: demand(budget_rem, price, top,
                                    curve.demand_quantity(held, price))

    def demands_fn(prices, promised, budgets_rem):
        return [schedule(curves[i], promised[i], budgets_rem[i]) for i in range(n)]

    clinch_fn, fhat_fn = _clinch_callbacks(oracle)
    return _run_loop(n, eps, cfg.max_steps, normalized_budgets, demands_fn,
                     clinch_fn, fhat_fn if cfg.trace else None)


def _validate_packing(rows_a: Sequence[Sequence[Rational]],
                      rhs: Sequence[Rational]) -> Tuple[tuple, tuple]:
    a = tuple(vector(row) for row in rows_a)
    b = vector(rhs, len(a))
    if any(len(row) != 2 for row in a):
        raise SizeError("generic-polytope clinching is restricted to 2 bidders")
    for j, row in enumerate(a):
        if any(c < 0 for c in row):
            raise DomainError(f"packing constraints need A >= 0; row {j} is ({row[0]}, {row[1]})")
        if b[j] < 0:
            raise DomainError(f"packing constraints need b >= 0; b[{j}] = {b[j]}")
    return a, b


def _bounded_packing_2d(rows_a: Sequence[Sequence[Rational]],
                        rhs: Sequence[Rational]) -> Tuple[tuple, tuple]:
    """:func:`_validate_packing`, with each coordinate bounded by some row."""
    a, b = _validate_packing(rows_a, rhs)
    for i in range(2):
        if not any(row[i] > 0 for row in a):
            raise DomainError(f"coordinate {i} is unbounded; the polytope must be bounded")
    return a, b


def _integer_rows(a: Sequence[tuple], b: Sequence[Fraction]) -> tuple:
    """Each packing row (a_j0, a_j1, b_j) times its own lcm: ``(p0, p1, c, scale)``.

    A positive scale leaves {x : a_j x <= b_j} unchanged; dividing a slack
    of the integer row by ``scale`` gives the slack of the given row.
    """
    out = []
    for row, c in zip(a, b):
        scale, nums = _over_common_denominator([*row, c])
        out.append((*nums, scale))
    return tuple(out)


def _row_slacks(rows: Sequence[tuple], den: int, r0: int, r1: int) -> list:
    """c_j * den - p_j . (r0, r1): den times the slack of each integer row at (r0, r1) / den."""
    return [c * den - p0 * r0 - p1 * r1 for p0, p1, c, _ in rows]


def _axis_reach(rows: Sequence[tuple], slack: Sequence[int], i: int,
                bound: Optional[int] = None, other: Tuple[int, int] = (0, 1)) -> tuple:
    """Largest y_i with A y <= slack when y_other is fixed, as ``(num, den)``.

    Everything is on integers over the slacks' denominator D (from
    :func:`_row_slacks`): with ``other = (m, q)``, y_other = m / (q D), the
    cap is ``bound / (q D)``, and the result is y_i = num / (den q D).  The
    candidates num/den (den > 0) are compared by cross-multiplication.  With
    every slack and the bound >= 0 and y_other at most its own reach, as the
    engine calls it, the result is >= 0.
    """
    m, q = other
    num, den = bound, 1
    for row, s in zip(rows, slack):
        coef = row[i]
        if coef > 0:
            reach = s * q - row[1 - i] * m
            if num is None or reach * den < num * coef:
                num, den = reach, coef
    return num, den


def _packing_lines(a: Sequence[tuple], b: Sequence[Fraction]) -> list:
    """{y >= 0 : Ay <= b} as lines l0*y0 + l1*y1 <= c, for :func:`_vertices_from_lines`."""
    return [(row[0], row[1], c) for row, c in zip(a, b)] + [
        (Fraction(-1), ZERO, ZERO), (ZERO, Fraction(-1), ZERO)]      # y0 >= 0, y1 >= 0


def clinch_generic_2player(rows_a: Sequence[Sequence[Rational]],
                           rhs: Sequence[Rational],
                           rho: Sequence[Rational],
                           d: Sequence[Rational]) -> tuple:
    """Clinch on a 2-bidder packing polytope {x >= 0 : Ax <= b}.

    delta_i is the largest x_i that leaves the other bidder's option set
    untouched: with g(x_0) = max{x_1 : (x_0, x_1) in P_{rho,d}}, delta_0 =
    max{x_0 : (x_0, g(0)) in P_{rho,d}}, symmetrically for delta_1.  Solved
    by exact one-dimensional maximization over the constraint rows, each
    scaled to integers by its own lcm (:func:`_clinch_2d`).  Raises
    :class:`DomainError` on a negative demand and :class:`PreconditionError`
    (witness: the row index) when rho violates a row, naming that row's
    slack b_j - a_j rho.  The generic path is deliberately 2-bidder-only.
    """
    a, b = _validate_packing(rows_a, rhs)
    return _clinch_2d(_integer_rows(a, b), vector(rho, 2), vector(d, 2))


def _clinch_2d(rows: Sequence[tuple], rho: Sequence[Fraction],
               d: Sequence[Fraction]) -> tuple:
    """:func:`clinch_generic_2player` on :func:`_integer_rows`, rho and d exact.

    rho and d go over one common denominator D, so the slacks and the four
    axis maxima are integers; the two clinched amounts are the only
    ``Fraction`` values built.
    """
    den, (r0, r1, e0, e1) = _over_common_denominator([*rho, *d])
    if e0 < 0 or e1 < 0:
        raise DomainError("demands must be >= 0")
    slack = _row_slacks(rows, den, r0, r1)
    for j, s in enumerate(slack):
        if s < 0:
            raise PreconditionError(
                f"rho violates packing row {j}: slack {Fraction(s, den * rows[j][3])} < 0",
                witness=j)
    g0, g0_den = _axis_reach(rows, slack, 1, e1)     # most bidder 1 could take if 0 gets 0
    h0, h0_den = _axis_reach(rows, slack, 0, e0)
    x0, x0_den = _axis_reach(rows, slack, 0, e0 * g0_den, (g0, g0_den))
    x1, x1_den = _axis_reach(rows, slack, 1, e1 * h0_den, (h0, h0_den))
    return Fraction(x0, x0_den * g0_den * den), Fraction(x1, x1_den * h0_den * den)


def _line_vertices(lines: Sequence[tuple]) -> Iterator[tuple]:
    """Vertices of {y : l0*y0 + l1*y1 <= c for each line} as ``(n0, n1, det)``.

    The vertex is (n0 / det, n1 / det) with det > 0, from Cramer's rule on
    each pair of lines; feasibility is tested on the numerators, so integer
    lines need no division.  Arbitrary signs allowed; a vertex on more than
    two lines comes once per pair.
    """
    for i in range(len(lines)):
        a0, b0, c0 = lines[i]
        for j in range(i + 1, len(lines)):
            a1, b1, c1 = lines[j]
            det = a0 * b1 - a1 * b0
            if det == 0:
                continue
            n0 = c0 * b1 - c1 * b0
            n1 = a0 * c1 - a1 * c0
            if det < 0:
                det, n0, n1 = -det, -n0, -n1
            if all(l0 * n0 + l1 * n1 <= lc * det for l0, l1, lc in lines):
                yield n0, n1, det


def _vertices_from_lines(lines: Sequence[Tuple[Fraction, Fraction, Fraction]]) -> list:
    """Vertices of {y : a0*y0 + a1*y1 <= c for each line}, deduplicated and sorted.

    Each line is scaled to integers by its own lcm, which leaves its
    half-plane unchanged, and :func:`_line_vertices` runs on those.
    """
    scaled = [_over_common_denominator(line)[1] for line in lines]
    return sorted({(Fraction(n0, det), Fraction(n1, det))
                   for n0, n1, det in _line_vertices(scaled)})


def polytope_vertices(rows_a: Sequence[Sequence[Rational]],
                      rhs: Sequence[Rational]) -> list:
    """Vertices of a 2D packing polytope {x >= 0 : Ax <= b}, deduplicated and sorted."""
    return _vertices_from_lines(_packing_lines(*_validate_packing(rows_a, rhs)))


def run_generic_2player(rows_a: Sequence[Sequence[Rational]],
                        rhs: Sequence[Rational],
                        bidders: Sequence[Bidder],
                        cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Ascending-clock loop with the generic 2-bidder clinch.

    The packing rows are scaled to integers once per run
    (:func:`_integer_rows`).  At each call the loop's promises and demands go
    over one common denominator, so the clinch, the demand caps and the
    traced residual total all run on integers and build ``Fraction`` values
    only for what they return.  The trace's residual-total field records
    max{x_0 + x_1 : x in P_{rho,d}} (the generic analogue of fhat([n])),
    the best sum over the vertices of P_{rho,d}.
    """
    a, b = _bounded_packing_2d(rows_a, rhs)
    if len(bidders) != 2:
        raise SizeError("the generic engine is restricted to exactly 2 bidders")
    rows = _integer_rows(a, b)
    values = [bd.value for bd in bidders]
    eps = cfg.resolve_epsilon(values)

    def demands_fn(prices, promised, budgets_rem):
        den, (r0, r1) = _over_common_denominator(promised)
        slack = _row_slacks(rows, den, r0, r1)
        caps = [_axis_reach(rows, slack, i) for i in range(2)]
        return [_demand_schedule(budgets_rem[i], values[i], Fraction(num, cap_den * den))
                for i, (num, cap_den) in enumerate(caps)]

    def clinch_fn(promised, demands):
        return _clinch_2d(rows, promised, demands)

    def fhat_fn(promised, demands):
        den, (r0, r1, e0, e1) = _over_common_denominator([*promised, *demands])
        lines = [(p0, p1, s) for (p0, p1, _, _), s in zip(rows, _row_slacks(rows, den, r0, r1))]
        lines += [(-1, 0, 0), (0, -1, 0), (1, 0, e0), (0, 1, e1)]
        best, best_den = 0, 1                  # the origin is a vertex of P_{rho,d}
        for n0, n1, det in _line_vertices(lines):
            if (n0 + n1) * best_den > best * det:
                best, best_den = n0 + n1, det
        return Fraction(best, best_den * den)

    return _run_loop(2, eps, cfg.max_steps, [bd.budget for bd in bidders],
                     demands_fn, clinch_fn, fhat_fn if cfg.trace else None)
