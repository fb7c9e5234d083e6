"""Clinching-auction engines with exact rational price clocks.

The main loop follows the ascending-clock scheme: per-bidder prices start at
zero; each round computes demands, grants every bidder the largest amount
that cannot restrict anyone else (the clinch), charges the current clock
price for it, lowers the demands by the clinched amounts, then advances one
clock by ``epsilon`` round-robin.  A step whose demands are those the last
clinch left behind clinches zero, so it skips the clinch.  The loop ends
when every demand is zero.  It keeps its state as integers: clock ticks,
and numerators over one denominator that grows by an integer factor when a
demand or a clinch needs it; ``Fraction`` values are built only for the
outcome and a :class:`DivergenceError`, and a trace snapshot builds its
own when they are first read.

Engines:

* :func:`run_clinching`            -- polymatroid environments, on the
  polymatroid clock :func:`_run_polymatroid`, clinched by the integer core
  of :func:`~polyclinch.submodular.clinch_kernel` (by the oracle's reduced
  rank: one sort on single-keyword and multi-unit oracles, one max-flow on
  vod-cut oracles or one pass up an out-tree, the 2^n table otherwise).
* :func:`run_scaled`               -- scaled polymatroids / quality factors:
  run on the base polytope with values ``gamma_i * v_i``, stretch the
  allocation back by ``gamma``.
* :func:`run_decreasing_marginals` -- the same clock on the uniform
  polymatroid of a supply, with piecewise-linear concave valuations and
  the marginal-threshold demand rule (the variant that is deliberately not
  truthful).
* :func:`run_generic_2player`      -- 2-bidder packing H-polytopes, clinching
  straight from the geometric definition on integer rows; used by the
  Pareto-failure demo.

A run never charges above the clock, never exceeds a budget, and keeps the
promised allocation inside the polytope at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

from .environments import multi_unit_oracle
from .errors import DivergenceError, DomainError, PreconditionError, SizeError
from .submodular import (
    Rational,
    ReducedRank,
    SubmodularOracle,
    ZERO,
    _check_promises,
    _clinch_nums,
    _demand_vector,
    _over_common_denominator,
    _scaled,
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


# The per-bidder vectors of a TraceSnapshot, each of n entries.
_VECTORS = ("promised", "demands", "clinched", "prices", "budgets")


@dataclass(frozen=True)
class TraceSnapshot:
    """One loop iteration, captured after clinching and before the price step.

    A snapshot that :func:`_run_loop` takes keeps the loop's integers and
    builds these fields on first read (:func:`_fill`), so ``==``, ``hash``,
    ``repr``, :meth:`to_json` and :func:`dataclasses.replace` see the
    ``Fraction`` values either way.  ``_nums`` is the integer view that
    :func:`~polyclinch.verify.validate_trace` reads: ``(sizes, den, rho,
    d, total, budgets)``, the lengths of the :data:`_VECTORS`, rho, d and
    fhat([n]) over den, and the remaining budgets as numbers of their sign
    (None for unbounded).  A loop snapshot holds it until its fields are
    built; any other snapshot computes it from its fields on first read.
    """

    step: int
    prices: tuple
    promised: tuple
    demands: tuple
    clinched: tuple
    budgets: tuple                  # remaining; None marks an unbounded budget
    residual_total: Fraction        # fhat([n]) at this snapshot

    def __getattr__(self, name: str):
        # only an attribute the instance lacks gets here
        if name == "_nums":
            p, q = self.residual_total.as_integer_ratio()
            den, (rho, d) = _scaled(q, self.promised, self.demands)
            vars(self)[name] = (tuple(len(getattr(self, v)) for v in _VECTORS), den,
                                tuple(rho), tuple(d), p * (den // q), self.budgets)
        elif name in self.__dataclass_fields__:
            _fill(self)
        else:
            raise AttributeError(name)
        return vars(self)[name]

    def __getstate__(self) -> dict:
        # the fields alone, so a copy holds no chain of unbuilt snapshots
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

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


def _fill(snap: TraceSnapshot) -> None:
    """Build the fields of a snapshot :func:`_run_loop` took, and of the
    unbuilt ones before it, oldest first, with no recursion.

    Each is built from the one before it, as the loop moved: one clock, the
    one the last step moved, gets its new price, and a step that clinched
    converts the entries its clinch moved and its ``fresh`` demands.  Every
    other entry is the last snapshot's own object, and a vector with no
    entry converted is the last snapshot's tuple: a clinch of zero shares
    the promises, the budgets and the run's zero clinch, and a step that
    skipped its clinch shares the demands and the total too.  Once its
    fields are built, a snapshot lets go of the last one and of its
    integers.
    """
    unbuilt = []
    while snap is not None and "prices" not in vars(snap):
        unbuilt.append(snap)
        snap = snap._loop[0]
    for snap in reversed(unbuilt):
        last, (tick, per, zeros), delta, fresh = snap._loop
        _, den, promised, nu, total, budgets = snap._nums
        n = len(nu)
        if last is None:                 # step 0, which clinches: every entry is new
            prices, rho, dem, rem, clinched = zeros, (None,) * n, (None,) * n, (None,) * n, fresh
        else:
            prices = list(last.prices)
            prices[(snap.step - 1) % n] = Fraction(((snap.step - 1) // n + 1) * tick, per)
            prices, rho, dem, rem = tuple(prices), last.promised, last.demands, last.budgets
            clinched = [i for i, x in enumerate(delta) if x] if delta and any(delta) else ()
        if clinched:
            rho, rem = list(rho), list(rem)
            for i in clinched:
                rho[i] = Fraction(promised[i], den)
                rem[i] = None if budgets[i] is None else Fraction(budgets[i], den * per)
            rho, rem = tuple(rho), tuple(rem)
        if delta is not None:
            dem = list(dem)
            for i in {*fresh, *clinched}:
                dem[i] = Fraction(nu[i], den)
            dem, total = tuple(dem), Fraction(total, den)
        else:
            total = last.residual_total
        clinch = tuple(Fraction(x, den) if x else ZERO for x in delta) if clinched else zeros
        built = vars(snap)
        built.update(prices=prices, promised=rho, demands=dem, clinched=clinch, budgets=rem,
                     residual_total=total)
        del built["_loop"], built["_nums"]


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
    beyond the holding instead.  The rule itself is :func:`_demand_nums`,
    on integers over common denominators.
    """
    unit, (p, v) = _over_common_denominator([price, value])
    den, (c, b) = _over_common_denominator([cap, ZERO if budget_rem is None else budget_rem])
    return _fraction(_demand_nums(p, v, None if budget_rem is None else b * unit, c), den)


def _demand_nums(price: int, value: int, budget: Optional[int], cap):
    """:func:`demand` on integers: 0 at or above the value, else min(budget / price, cap).

    ``price`` and ``value`` are over one unit u and ``cap`` over a unit q
    (an int, or a :func:`_quotient` pair over q), ``budget`` over q * u, so
    budget / price is over q; at price 0 or an unbounded budget the demand
    is the cap.  The result is over q: an int, or a :func:`_quotient` pair
    where it is not whole, so no ``Fraction`` is built.
    """
    if price >= value:
        return 0
    if price == 0 or budget is None:
        return cap
    if type(cap) is int:
        if cap * price <= budget:
            return cap
    elif cap[0] * price <= budget * cap[1]:
        return cap
    return _quotient(budget, price)


def _quotient(num: int, den: int):
    """num / den, den > 0, as an int when it is whole, else as the pair
    ``(num, den)`` in lowest terms: how a demand reaches :func:`_run_loop`."""
    whole, rest = divmod(num, den)
    if not rest:
        return whole
    g = math.gcd(rest, den)
    return num // g, den // g


def _ratio(num: int, den: int):
    """:func:`_quotient` with a Fraction in place of the pair: how a clinch
    entry and a traced total reach :func:`_run_loop`."""
    q = _quotient(num, den)
    return q if type(q) is int else Fraction(*q)


def _fraction(q, den: int) -> Fraction:
    """A :func:`_quotient` value over ``den``, as a Fraction."""
    return Fraction(q, den) if type(q) is int else Fraction(q[0], q[1] * den)


def fast_residual_max(ctrs: Sequence[Rational], rho: Sequence[Rational],
                      d: Sequence[Rational]) -> Fraction:
    """fhat([n]) = max{1'x : x + rho in P, 0 <= x <= d} for f(S) = A_|S|.

    A_t is the sum of the first t ``ctrs``, which must be >= 0 and
    nonincreasing: the total of :func:`clinch_kernel` on the cardinality
    oracle of the list, by its reduced rank.  rho must lie in P(f), or
    :class:`PreconditionError` is raised.
    """
    n = len(rho)
    oracle = SubmodularOracle(n, None, True, "cardinality", ctrs=ctrs)
    prom, dem = vector(rho, n), _demand_vector(d, n)
    _check_promises(oracle, prom)
    return clinch_kernel(oracle, prom, dem)[0]


class _Units:
    """The exact units of one :func:`_run_loop` run, shared with its engine's callbacks.

    epsilon = ``tick`` / ``per`` in lowest terms, and a bidder's clock price
    at tick t is t * epsilon.  A quantity (promise, demand, clinch, f, a
    curve's reach) is an integer over ``den``, D; money (payments and
    budgets) is an integer over D * ``per``.  The loop multiplies D by an
    integer whenever a demand or a clinch is not whole over it, and rescales
    its state; a callback reads D when it is called.
    """

    __slots__ = ("tick", "per", "den")

    def __init__(self, eps: Fraction, den: int):
        self.tick, self.per, self.den = eps.numerator, eps.denominator, den


def _demand_rule(units: _Units, values: Sequence[Fraction], budgets: list,
                 cap: Callable) -> Callable:
    """``demand(i, t)``: bidder i's demand over D at its clock tick t.

    ``cap(i, t)`` is the engine's cap over D, an int or a :func:`_quotient`
    pair, and so is the demand.  The rule reads ``budgets``
    (over D * E, E = ``units.per``) and D when it is called: the price
    t * epsilon and the value go over 1 / (E q), q the value's denominator,
    and the budget over D times that, so budget / price is over D.
    """
    terms = [(units.tick * v.denominator, v.numerator * units.per, v.denominator)
             for v in values]

    def demand(i, t):
        rate, top, q = terms[i]
        budget = budgets[i]
        return _demand_nums(t * rate, top, None if budget is None else budget * q, cap(i, t))
    return demand


def _check_bidder_count(n: int, bidders: Sequence[Bidder]) -> None:
    """Refuse a bidder list that does not hold one bidder per element."""
    if len(bidders) != n:
        raise DomainError(f"expected {n} bidders, got {len(bidders)}")


def _run_loop(n: int, units: _Units, max_steps: int,
              budgets0: Sequence[Optional[Fraction]],
              demands_fn: Callable, clinch_fn: Callable,
              fhat_fn: Optional[Callable]):
    """Shared ascending-clock loop; the exact statement order matters.

    Each iteration: clinch, apply, snapshot, price step, the exit test on
    the post-clinch demands, then the next step's demands.  A trace is kept
    exactly when ``fhat_fn`` is given: ``fhat_fn(rho, nu)`` runs right after
    each ``clinch_fn`` call, at the post-clinch promises and demands, and
    its value is the residual total of every snapshot up to the next clinch.

    The state is integers in the :class:`_Units` the engine shares with its
    callbacks: clock ticks, promises and demands over D, payments and
    budgets over D * E.  D starts as the lcm of the engine's D and the
    budgets' denominators.  ``clinch_fn(rho, d)`` returns delta and
    ``fhat_fn`` the residual total over D.  Each callback gives a quantity
    over D as an int where it is whole; where it is not, a demand is a
    :func:`_quotient` pair ``(num, den)`` and a clinch entry or a total a
    Fraction (:func:`_ratio`), so a wrapper of ``clinch_fn`` can read each
    entry's ``.denominator``.  A demand or a clinch that is not whole grows
    D by the lcm of its denominators, and every numerator of the state with
    it (``whole()``, which takes both encodings).  The loop builds
    ``Fraction`` values only for the :class:`Outcome` and the
    :class:`DivergenceError`.  A snapshot keeps copies of the integers
    (those of the last one where a clinch of zero left them, over the same
    D), the last snapshot and which entries its step changed, and builds
    its ``Fraction`` fields only when they are read (:func:`_fill`); its
    prices follow from its step, since the clocks move round-robin, one a
    step.

    ``demands_fn(ticks, promised, budgets)`` runs once, before the first
    step, on the loop's own lists, and returns the engine's demand rule
    ``demand(i, t)``: bidder i's demand over D at its tick t, read from the
    promises, the remaining budgets and D as they stand at the call.  The
    loop changes those lists only in place (a clinch and a growth of D
    mutate them; nothing rebinds them), so the rule always reads the live
    state.  It is bound to these lists: a copy of the loop's state needs
    its own ``demands_fn`` call.  The first step evaluates the rule for
    every bidder, and every later step only for the bidder whose clock just
    moved.

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
    the rule's value at its new tick is the engine's demand vector: one
    demand evaluation per step is exact.  Clinching again at
    (rho + delta, nu) gives zero (re-clinch nullity: the clinch moves delta
    from d into rho and leaves f - rho - d unchanged), so when that value
    equals nu's entry the step's clinch is zero and ``clinch_fn`` is not
    called.  Such a step leaves rho and nu as they were, so its snapshot
    reuses the last one's integers, and its fields the last one's tuples
    and total, with the clocked price moved.
    """
    tick, per = units.tick, units.per
    units.den = math.lcm(units.den, *(b.denominator for b in budgets0 if b is not None))
    money = units.den * per
    ticks = [0] * n
    promised = [0] * n
    payments = [0] * n
    budgets = [None if b is None else b.numerator * (money // b.denominator) for b in budgets0]

    def whole(values: list, carried: list) -> list:
        """``values`` as integers over D: D, the state and ``carried`` grow by
        the lcm of the denominators of the entries that are not ints."""
        for v in values:
            if type(v) is not int:
                break
        else:
            return values
        parts = [v if type(v) is tuple else (v.numerator, v.denominator) for v in values]
        k = math.lcm(*(den for _, den in parts))
        units.den *= k
        for vec in (promised, payments, budgets, carried):
            for i, x in enumerate(vec):
                if x is not None:
                    vec[i] = x * k
        return [num * (k // den) for num, den in parts]

    if fhat_fn is not None:
        snapshots: List[TraceSnapshot] = []
        clock = (tick, per, (ZERO,) * n)       # the prices' units, and the zero prices and clinch
        sizes = (n,) * len(_VECTORS)
    fresh = range(n)                     # the entries of this step's demands not in nu
    demand_of = demands_fn(ticks, promised, budgets)
    demands = whole([demand_of(i, 0) for i in range(n)], [])
    for step in range(max_steps):
        if demands is not None:          # else this step's demands are nu: no clinch
            delta = whole(clinch_fn(promised, demands), demands)
            for i, x in enumerate(delta):
                if x:
                    promised[i] += x
                    charge = ticks[i] * tick * x
                    payments[i] += charge
                    if budgets[i] is not None:
                        budgets[i] -= charge
            nu = [q - x for q, x in zip(demands, delta)]
        if fhat_fn is not None:
            if demands is not None:      # else the last snapshot's integers still hold
                if not snapshots or any(delta) or nums[1] != units.den:
                    held = tuple(promised), tuple(budgets)   # else as the last snapshot's
                nums = (sizes, units.den, held[0], tuple(nu), fhat_fn(promised, nu), held[1])
            snap = object.__new__(TraceSnapshot)
            vars(snap).update(step=step, _nums=nums, _loop=(
                snapshots[-1] if snapshots else None, clock,
                None if demands is None else delta, fresh))
            snapshots.append(snap)
        moved = step % n
        ticks[moved] += 1
        if not any(nu):
            break
        q = demand_of(moved, ticks[moved])
        if type(q) is not int:
            (q,) = whole([q], nu)
        if q == nu[moved]:
            demands = None
        else:
            demands = nu[:moved] + [q] + nu[moved + 1:]
            fresh = (moved,)
    else:
        stopped = tuple(Fraction(t * tick, per) for t in ticks)
        demanded = tuple(Fraction(x, units.den) for x in nu)
        raise DivergenceError(
            f"auction did not terminate within {max_steps} steps: it stopped at "
            f"prices ({', '.join(map(str, stopped))}) with demands "
            f"({', '.join(map(str, demanded))}) still positive; raise max_steps "
            "or epsilon, or check the reported values",
            step=max_steps, prices=stopped, demands=demanded)

    den = units.den
    exhausted = frozenset(i for i in range(n) if budgets[i] == 0)
    return Outcome(tuple(Fraction(x, den) if x else ZERO for x in promised),
                   tuple(Fraction(x, den * per) if x else ZERO for x in payments),
                   tuple(snapshots) if fhat_fn is not None else None, exhausted)


def _run_polymatroid(rank: ReducedRank, base: int, values: Sequence[Fraction],
                     eps: Fraction, budgets: Sequence[Optional[Fraction]],
                     reach: Callable, cfg: AuctionConfig) -> Outcome:
    """The clock of :func:`run_clinching` and :func:`run_decreasing_marginals`
    over the polymatroid of ``rank``.

    ``reach(i, t)`` is the most bidder i may hold at its tick t, over
    ``base``; D starts as the lcm of ``base`` and ``rank.den``, and the
    demand cap is the reach over D less the promise, floored at 0.  Every
    clinch is one :func:`~polyclinch.submodular._clinch_nums` on the loop's
    numerators, which returns ``(fhat([n]), delta, solution)``, its solve
    started from the last clinch's solution: consecutive clinches differ
    in the entry of c the clock moved, with D times an integer.  The
    trace total is asked for right after it, at (rho + delta, d - delta),
    where h = f - (rho + d) is unchanged, so fhat([n]) is the clinch's
    total less the sum of delta.
    """
    units = _Units(eps, math.lcm(rank.den, base))
    last = [None, None, rank]        # fhat([n]), delta and solution of the last clinch; rank: cold

    def demands_fn(ticks, promised, budgets_rem):
        def cap(i, t):
            c = reach(i, t) * (units.den // base) - promised[i]
            return c if c > 0 else 0                 # not max(): this runs once per step
        return _demand_rule(units, values, budgets_rem, cap)

    def clinch_fn(rho, d):
        last[:] = _clinch_nums(last[2], units.den // rank.den, rho, d)
        return last[1]

    def fhat_fn(rho, d):
        total, delta, _ = last
        return total - sum(delta)

    return _run_loop(len(values), units, cfg.max_steps, budgets, demands_fn, clinch_fn,
                     fhat_fn if cfg.trace else None)


def run_clinching(oracle: SubmodularOracle, bidders: Sequence[Bidder],
                  cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Clinching auction over the polymatroid defined by ``oracle``.

    Each clinch is one reduced-rank solve on the loop's integers (see
    :func:`_run_polymatroid`), so oracles with a reduced rank (single-keyword
    and multi-unit by one sort, vod-cut by one max-flow or one pass up an
    out-tree, graphic block by block) run past the enumeration cap.  A bidder's reach is f({i}), which
    rho in P(f) never exceeds.
    """
    n = oracle.n
    _check_bidder_count(n, bidders)
    values = [b.value for b in bidders]
    eps = cfg.resolve_epsilon(values)
    rank = oracle.rank()
    base, singles = _over_common_denominator([oracle.singleton(i) for i in range(n)])
    return _run_polymatroid(rank, base, values, eps, [b.budget for b in bidders],
                            lambda i, t: singles[i], cfg)


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


def _curve_supply(curves: Sequence[ConcaveCurve], supply: Rational) -> Fraction:
    """The supply, which must be > 0 and where every curve ends."""
    total = as_fraction(supply)
    if total <= 0:
        raise DomainError(f"supply must be > 0, got {total}")
    for i, curve in enumerate(curves):
        if curve.supply != total:
            raise DomainError(f"curve {i} is defined on [0, {curve.supply}], expected "
                              f"[0, {total}]: its last breakpoint must be at the supply")
    return total


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
    n = len(curves)
    total = _curve_supply(curves, supply)
    normalized_budgets = [None if b is None else as_fraction(b) for b in budgets]
    if len(normalized_budgets) != n:
        raise DomainError(f"expected {n} budgets, got {len(normalized_budgets)}")
    rank = multi_unit_oracle(total, n).rank()

    slopes = [slope for curve in curves for _, _, slope in curve.segments()]
    eps = cfg.resolve_epsilon(slopes)
    base = math.lcm(*(q.denominator for curve in curves for q, _ in curve.breakpoints))
    # each curve's segments as (the last tick whose price its slope reaches, its end over base);
    # the ends grow, so the reach at tick t is the largest end of a segment still reached
    reaches = [[(slope.numerator * eps.denominator // (eps.numerator * slope.denominator),
                 end.numerator * (base // end.denominator)) for _, end, slope in curve.segments()]
               for curve in curves]
    # each curve's first slope plays the value, above which demand_quantity is zero anyway
    return _run_polymatroid(rank, base, [curve.segments()[0][2] for curve in curves], eps,
                            normalized_budgets, lambda i, t: max(
                                (end for last, end in reaches[i] if t <= last), default=0), cfg)


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
    """Each packing row (a_j0, a_j1, b_j) times its own lcm, as the integer
    line ``(p0, p1, c)``: p0*y0 + p1*y1 <= c is the row's half-plane, the
    form :func:`_line_vertices` reads."""
    return tuple(tuple(_over_common_denominator([*row, c])[1]) for row, c in zip(a, b))


_NONNEGATIVE = ((-1, 0, 0), (0, -1, 0))     # y0 >= 0, y1 >= 0 as integer lines


def _row_slacks(rows: Sequence[tuple], den: int, r0: int, r1: int) -> list:
    """c_j * den - p_j . (r0, r1): den times the slack of each integer row at (r0, r1) / den."""
    return [c * den - p0 * r0 - p1 * r1 for p0, p1, c in rows]


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
    rho, d = vector(rho, 2), vector(d, 2)
    if d[0] < 0 or d[1] < 0:
        raise DomainError("demands must be >= 0")
    for j, (row, c) in enumerate(zip(a, b)):
        slack = c - row[0] * rho[0] - row[1] * rho[1]
        if slack < 0:
            raise PreconditionError(f"rho violates packing row {j}: slack {slack} < 0",
                                    witness=j)
    den, nums = _over_common_denominator([*rho, *d])
    return tuple(Fraction(x, den) for x in _clinch_2d(_integer_rows(a, b), den, *nums))


def _clinch_2d(rows: Sequence[tuple], den: int, r0: int, r1: int, e0: int, e1: int) -> tuple:
    """:func:`clinch_generic_2player` on :func:`_integer_rows`, with rho = (r0, r1) / den
    in P and d = (e0, e1) / den >= 0, unchecked: the engine keeps rho in P.

    The slacks and the four axis maxima are integers; the two clinched
    amounts are over den, each an int or a Fraction (:func:`_ratio`).
    """
    slack = _row_slacks(rows, den, r0, r1)
    g0, g0_den = _axis_reach(rows, slack, 1, e1)     # most bidder 1 could take if 0 gets 0
    h0, h0_den = _axis_reach(rows, slack, 0, e0)
    x0, x0_den = _axis_reach(rows, slack, 0, e0 * g0_den, (g0, g0_den))
    x1, x1_den = _axis_reach(rows, slack, 1, e1 * h0_den, (h0, h0_den))
    return _ratio(x0, x0_den * g0_den), _ratio(x1, x1_den * h0_den)


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


def _integer_vertices(lines: Sequence[tuple]) -> tuple:
    """Vertices of {y : a0*y0 + a1*y1 <= c for each integer line} as ``(D, points)``.

    Each vertex is (n0 / D, n1 / D) for a pair ``(n0, n1)`` of ``points``,
    deduplicated and sorted, D > 0 the lcm of the vertices' dets
    (:func:`_line_vertices`).
    """
    found = list(_line_vertices(lines))
    den = math.lcm(*(det for _, _, det in found))
    return den, sorted({(n0 * (den // det), n1 * (den // det)) for n0, n1, det in found})


def polytope_vertices(rows_a: Sequence[Sequence[Rational]],
                      rhs: Sequence[Rational]) -> list:
    """Vertices of a 2D packing polytope {x >= 0 : Ax <= b}, deduplicated and sorted."""
    den, points = _integer_vertices(_integer_rows(*_validate_packing(rows_a, rhs)) + _NONNEGATIVE)
    return [(Fraction(n0, den), Fraction(n1, den)) for n0, n1 in points]


def run_generic_2player(rows_a: Sequence[Sequence[Rational]],
                        rhs: Sequence[Rational],
                        bidders: Sequence[Bidder],
                        cfg: AuctionConfig = AuctionConfig()) -> Outcome:
    """Ascending-clock loop with the generic 2-bidder clinch.

    The packing rows are scaled to integers once per run
    (:func:`_integer_rows`).  The clinch, the demand caps and the traced
    residual total run on the loop's numerators over D; each returns its
    value over D as an int where it is whole, else the clinch and the total
    as a Fraction (:func:`_ratio`) and a cap as a :func:`_quotient` pair,
    and the loop grows D for a clinch or a demand that is not.  The trace's
    residual-total field records max{x_0 + x_1 : x in P_{rho,d}} (the
    generic analogue of fhat([n])), the best sum over the vertices of
    P_{rho,d}.
    """
    a, b = _bounded_packing_2d(rows_a, rhs)
    if len(bidders) != 2:
        raise SizeError("the generic engine is restricted to exactly 2 bidders")
    rows = _integer_rows(a, b)
    values = [bd.value for bd in bidders]
    units = _Units(cfg.resolve_epsilon(values), 1)

    def demands_fn(ticks, promised, budgets_rem):
        return _demand_rule(units, values, budgets_rem, lambda i, t: _quotient(
            *_axis_reach(rows, _row_slacks(rows, units.den, *promised), i)))

    def clinch_fn(promised, demands):
        return _clinch_2d(rows, units.den, *promised, *demands)

    def fhat_fn(promised, demands):
        lines = [(p0, p1, s) for (p0, p1, _), s in
                 zip(rows, _row_slacks(rows, units.den, *promised))]
        lines += [*_NONNEGATIVE, (1, 0, demands[0]), (0, 1, demands[1])]
        best, best_den = 0, 1                  # the origin is a vertex of P_{rho,d}
        for n0, n1, det in _line_vertices(lines):
            if (n0 + n1) * best_den > best * det:
                best, best_den = n0 + n1, det
        return _ratio(best, best_den)

    return _run_loop(2, units, cfg.max_steps, [bd.budget for bd in bidders],
                     demands_fn, clinch_fn, fhat_fn if cfg.trace else None)
