"""Exact-arithmetic submodular oracles and polymatroid primitives.

A polymatroid is the packing polytope ``P(f) = {x >= 0 : x(S) <= f(S) for all
S}`` of a normalized monotone submodular function ``f`` on the ground set
``{0, .., n-1}``.  Everything here works in :class:`fractions.Fraction`
arithmetic: tightness (``x(S) = f(S)``) and set minimization are decided
exactly, never up to a tolerance.

The central construction is the residual oracle: given promised allocations
``rho`` inside the polytope and per-element demand caps ``d``, the set of
feasible additional allocations ``{x >= 0 : rho + x in P, x <= d}`` is itself
a polymatroid, defined by

    fhat(S) = min over T subset of S of  f(T) - rho(T) + d(S \\ T).

``fhat`` need not be monotone; its monotonization ``fbar(S) = min over
supersets S' of fhat(S')`` defines the same polytope.  Clinch amounts derive
from ``fhat`` evaluated at the full set and at each full-set-minus-one; the
auction engines get both from :func:`clinch_kernel`, which works on integers
over a common denominator, while :class:`ResidualOracle` evaluates the
definition on ``Fraction`` tables and serves as the reference it is checked
against.

The brute-force verifiers decide on the same integer table:
:func:`membership` takes one minimum of f - x, :func:`verify_submodular`
tests local second differences, and :func:`residual_totals` gives the n + 1
residual values a trace check needs.  ``Fraction`` scans run only to name the
witness of a failure, so witnesses stay those of the definition.

All subset enumeration is capped (default 16 elements, override with the
``CLINCH_BRUTE_FORCE_CAP`` environment variable); these oracles are meant for
desk-scale verification, not for large-scale submodular minimization.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import ClinchError, DomainError, PreconditionError, SizeError

DEFAULT_BRUTE_FORCE_CAP = 16
_CAP_ENV = "CLINCH_BRUTE_FORCE_CAP"

Rational = Union[int, str, Fraction]

ZERO = Fraction(0)


def brute_force_cap() -> int:
    """Current subset-enumeration cap (env override, else 16)."""
    raw = os.environ.get(_CAP_ENV)
    if raw is None:
        return DEFAULT_BRUTE_FORCE_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{_CAP_ENV} must be positive, got {cap}")
    return cap


def check_enumeration_size(n: int, what: str = "subset enumeration") -> None:
    cap = brute_force_cap()
    if n > cap:
        raise SizeError(
            f"{what} over {n} elements exceeds the cap of {cap}; set the "
            f"{_CAP_ENV} environment variable to {n} or more to allow it "
            "(the work grows at least as 2^n)", n=n, cap=cap, what=what)


def as_fraction(value: Rational) -> Fraction:
    """Exact conversion; floats are rejected to keep arithmetic exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise DomainError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed rational {value!r}") from exc
    raise DomainError(f"expected an exact rational, got {type(value).__name__}")


def vector(values: Iterable[Rational], n: Optional[int] = None) -> tuple:
    vec = tuple(as_fraction(v) for v in values)
    if n is not None and len(vec) != n:
        raise DomainError(f"expected a vector of length {n}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class GroundSet:
    """Bidders 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"ground set must have n >= 1, got {self.n}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def members(self) -> range:
        return range(self.n)


def mask_of(subset: Iterable[int], n: int) -> int:
    mask = 0
    for i in subset:
        if not 0 <= i < n:
            raise DomainError(f"element {i} is outside the ground set of size {n}")
        mask |= 1 << i
    return mask


def set_of(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _over_common_denominator(values: Sequence[Fraction]) -> tuple:
    """``(D, nums)`` with ``values[k] = nums[k] / D``, D the least common denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def _mask_sums(vec: Sequence[Fraction], n: int) -> list:
    """sums[m] = sum of vec over the members of mask m, for all m."""
    sums = [ZERO] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        sums[m] = sums[m ^ low] + vec[low.bit_length() - 1]
    return sums


class SubmodularOracle:
    """Memoizing value oracle for a normalized set function on {0..n-1}.

    ``monotone`` is a claim by the constructor, checkable with
    :func:`verify_submodular`.  Oracles are immutable after construction and
    safe to share read-only across threads.
    """

    def __init__(self, n: int, fn_mask: Callable[[int], Fraction],
                 monotone: bool, name: str, ctrs: Optional[tuple] = None):
        self.ground = GroundSet(n)
        self.n = n
        self.monotone = monotone
        self.name = name
        # Single-keyword oracles carry their CTR list so the auction engine
        # can dispatch to the greedy clinch path.
        self.ctrs = ctrs
        self._fn = fn_mask
        self._memo = {0: ZERO}
        self._table = None

    @classmethod
    def from_set_function(cls, n: int, fn: Callable[[frozenset], Rational],
                          monotone: bool = False, name: str = "custom") -> "SubmodularOracle":
        return cls(n, lambda m: as_fraction(fn(set_of(m))), monotone, name)

    def value_mask(self, mask: int) -> Fraction:
        cached = self._memo.get(mask)
        if cached is None:
            cached = as_fraction(self._fn(mask))
            self._memo[mask] = cached
        return cached

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.value_mask(mask_of(subset, self.n))

    def singleton(self, i: int) -> Fraction:
        if not 0 <= i < self.n:
            raise DomainError(f"element {i} is outside the ground set of size {self.n}")
        return self.value_mask(1 << i)

    def integer_table(self) -> tuple:
        """``(D, nums)`` with ``f(m) = nums[m] / D`` for every mask m.

        D is the least common denominator of the whole table; both are built
        on first use, from one evaluation per mask, and kept.
        """
        if self._table is None:
            check_enumeration_size(self.n, f"value table of {self.name!r}")
            self._table = _over_common_denominator(
                [self.value_mask(m) for m in range(1 << self.n)])
        return self._table

    def __repr__(self):
        return f"SubmodularOracle({self.name}, n={self.n}, monotone={self.monotone})"


@dataclass(frozen=True)
class OracleCheck:
    """Result of verify_submodular: ok, or a named violation with witness sets."""

    ok: bool
    violation: Optional[str] = None          # normalization | submodularity | monotonicity
    witness: Optional[tuple] = None          # tuple of frozensets reproducing the violation
    detail: str = ""

    def __bool__(self):
        return self.ok


def _locally_submodular(nums: Sequence[int], n: int) -> bool:
    """f(S+i) + f(S+j) >= f(S+i+j) + f(S) for every S and every i < j outside S."""
    for s, base in enumerate(nums):
        grown = [s | 1 << i for i in range(n) if not s >> i & 1]
        for k, si in enumerate(grown):
            for sj in grown[k + 1:]:
                if nums[si] + nums[sj] < nums[si | sj] + base:
                    return False
    return True


def verify_submodular(oracle) -> OracleCheck:
    """Exhaustively check normalization, submodularity and claimed monotonicity.

    Decided on integers over a common denominator.  Submodularity uses the
    local second differences, ``f(S+i) + f(S+j) >= f(S+i+j) + f(S)`` for
    every S and i < j outside it (C(n,2) 2^(n-2) checks), which is equivalent
    to ``f(S|T) + f(S&T) <= f(S) + f(T)`` for all 4^n pairs.  Only on a
    violation does the pairwise scan run, in ascending mask order, so the
    reported pair is the first violating one and failures are reproducible.
    """
    n = oracle.n
    check_enumeration_size(n, f"pairwise submodularity check on {oracle.name!r}")
    if oracle.value_mask(0) != 0:
        return OracleCheck(False, "normalization", (frozenset(),),
                           f"f(empty) = {oracle.value_mask(0)} != 0")
    size = 1 << n
    values = [oracle.value_mask(m) for m in range(size)]
    nums = _over_common_denominator(values)[1]
    if not _locally_submodular(nums, n):
        for s in range(size):
            for t in range(s + 1, size):
                if values[s | t] + values[s & t] > values[s] + values[t]:
                    return OracleCheck(
                        False, "submodularity", (set_of(s), set_of(t)),
                        f"f(S|T)+f(S&T) = {values[s | t] + values[s & t]} > "
                        f"{values[s] + values[t]} = f(S)+f(T)")
        raise ClinchError(f"{oracle.name!r} fails the local submodularity test on "
                          "integers but no pair of sets violates submodularity")
    if oracle.monotone:
        for s in range(size):
            for i in range(n):
                if not s >> i & 1 and nums[s | 1 << i] < nums[s]:
                    return OracleCheck(
                        False, "monotonicity", (set_of(s), set_of(s | 1 << i)),
                        f"f(S) = {values[s]} > {values[s | 1 << i]} = f(S+{i})")
    return OracleCheck(True)


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    violating: Optional[frozenset] = None
    deficit: Optional[Fraction] = None       # f(S) - x(S) on the violating set

    def __bool__(self):
        return self.ok


def _precedes(mask: int, other: int) -> bool:
    """Witness tie-break between two sets of equal value: smaller cardinality
    first, then the lexicographically smaller sorted element tuple."""
    size, other_size = mask.bit_count(), other.bit_count()
    if size != other_size:
        return size < other_size
    return sorted(set_of(mask)) < sorted(set_of(other))


def _slack_table(oracle: SubmodularOracle, *vectors: Sequence[Fraction]) -> tuple:
    """``(D, s, scaled)`` with ``f(m) - v(m) = s[m] / D`` for every mask m, on integers.

    v is the sum of the given Fraction vectors; D is the least common multiple
    of the denominators of the oracle's integer table and of the vectors;
    ``scaled`` holds each vector's numerators over D.
    """
    fden, fnum = oracle.integer_table()
    den = math.lcm(fden, *(v.denominator for vec in vectors for v in vec))
    scaled = [[v.numerator * (den // v.denominator) for v in vec] for vec in vectors]
    sums = [0]
    for weight in map(sum, zip(*scaled)):
        sums += [s + weight for s in sums]
    scale = den // fden
    if scale != 1:
        fnum = [v * scale for v in fnum]
    return den, list(map(operator.sub, fnum, sums)), scaled


def _supersets(n: int, inc: int, exc: int) -> Iterator[int]:
    """Masks m with inc <= m and no bit of exc, in descending order."""
    free = ((1 << n) - 1) & ~inc & ~exc
    sub = free
    while True:
        yield inc | sub
        if sub == 0:
            return
        sub = (sub - 1) & free


def _argmin(masks: Iterable[int], value_of: Callable[[int], object]) -> tuple:
    """``(mask, value)`` minimizing value_of over masks, ties broken by
    :func:`_precedes` so witnesses are deterministic."""
    best_mask, best = None, None
    for m in masks:
        value = value_of(m)
        if best_mask is None or value < best or (value == best and _precedes(m, best_mask)):
            best_mask, best = m, value
    return best_mask, best


def membership(oracle: SubmodularOracle, x: Sequence[Rational]) -> MembershipResult:
    """Decide x in P(f) exactly; on failure report a most-violated set.

    Decided by one minimum of f - x on integers; only an infeasible point
    runs the ``Fraction`` scan that names the violated set.
    """
    n = oracle.n
    vec = vector(x, n)
    for i, xi in enumerate(vec):
        if xi < 0:
            raise DomainError(f"membership requires x >= 0, got x[{i}] = {xi}")
    check_enumeration_size(n, "membership test")
    if min(_slack_table(oracle, vec)[1]) >= 0:
        return MembershipResult(True)
    sums = _mask_sums(vec, n)
    best_mask, best = _argmin(range(1, 1 << n), lambda m: oracle.value_mask(m) - sums[m])
    if best >= 0:
        raise ClinchError(f"membership in P({oracle.name}): the integer table finds a "
                          "violated set but the Fraction scan does not")
    return MembershipResult(False, set_of(best_mask), best)


def min_constrained(evaluator, n: Optional[int] = None,
                    include: Iterable[int] = (), exclude: Iterable[int] = ()):
    """Minimize eval(S) over include <= S <= ground \\ exclude.

    ``evaluator`` is either an oracle (``n`` optional) or a callable taking a
    frozenset.  Ties break by smallest cardinality, then lexicographically on
    the sorted element tuple, so witnesses are deterministic.
    Returns ``(set, value)``.
    """
    if hasattr(evaluator, "value_mask"):
        if n is None:
            n = evaluator.n
        eval_mask = evaluator.value_mask
    else:
        if n is None:
            raise DomainError("min_constrained needs n when given a bare callable")
        fn = evaluator
        eval_mask = lambda m: as_fraction(fn(set_of(m)))  # noqa: E731
    check_enumeration_size(n, "constrained minimization")
    inc = mask_of(include, n)
    exc = mask_of(exclude, n)
    if inc & exc:
        raise DomainError("include and exclude sets overlap")
    best_mask, best = _argmin(_supersets(n, inc, exc), eval_mask)
    return set_of(best_mask), best


def _min_over_subsets(values: list, n: int) -> list:
    """out[m] = min over submasks t of m of values[t]  (subset zeta transform)."""
    out = list(values)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit and out[m ^ bit] < out[m]:
                out[m] = out[m ^ bit]
    return out


def _min_over_supersets(values: list, n: int) -> list:
    out = list(values)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if not m & bit and out[m | bit] < out[m]:
                out[m] = out[m | bit]
    return out


def _demand_vector(d: Sequence[Rational], n: int) -> tuple:
    dem = vector(d, n)
    for i, di in enumerate(dem):
        if di < 0:
            raise DomainError(f"demands must be >= 0, got d[{i}] = {di}")
    return dem


def _check_promises(oracle: SubmodularOracle, rho: Sequence[Fraction], what: str) -> None:
    check_enumeration_size(oracle.n, what)
    result = membership(oracle, rho)
    if not result.ok:
        raise PreconditionError(
            f"rho is not in the base polymatroid: rho(S) exceeds f(S) on "
            f"S = {sorted(result.violating)}", witness=result.violating)


class ResidualOracle:
    """Oracle for the residual polymatroid P_{rho,d} of a base polymatroid.

    Evaluates ``fhat(S) = min over T <= S of f(T) - rho(T) + d(S \\ T)`` by
    exhaustive enumeration with memoized base values.  Since ``d(S \\ T) =
    d(S) - d(T)`` the whole table reduces to a subset-min transform of
    ``h(T) = f(T) - rho(T) - d(T)``, computed once per (rho, d) snapshot.
    Snapshots are immutable, so the table never invalidates.  The engines
    clinch with :func:`clinch_kernel`; this ``Fraction`` evaluation of the
    definition is the independent reference it is checked against.

    ``monotonized`` evaluates ``fbar(S) = min over supersets of fhat``, the
    monotone function defining the same polytope; its table is built only
    when first asked for.
    """

    def __init__(self, base: SubmodularOracle, rho: Sequence[Rational],
                 d: Sequence[Rational]):
        self.base = base
        self.n = base.n
        self.monotone = False
        self.name = f"residual({base.name})"
        self.rho = vector(rho, base.n)
        self.demand = _demand_vector(d, base.n)
        _check_promises(base, self.rho, "residual oracle construction")
        self._fhat = None
        self._fbar = None

    def _fhat_table(self) -> list:
        if self._fhat is None:
            n = self.n
            rsum = _mask_sums(self.rho, n)
            dsum = _mask_sums(self.demand, n)
            h = [self.base.value_mask(m) - rsum[m] - dsum[m] for m in range(1 << n)]
            minh = _min_over_subsets(h, n)
            self._fhat = [dsum[m] + minh[m] for m in range(1 << n)]
        return self._fhat

    def _fbar_table(self) -> list:
        if self._fbar is None:
            self._fbar = _min_over_supersets(self._fhat_table(), self.n)
        return self._fbar

    def value_mask(self, mask: int) -> Fraction:
        return self._fhat_table()[mask]

    def value(self, subset: Iterable[int]) -> Fraction:
        return self.value_mask(mask_of(subset, self.n))

    def monotonized_mask(self, mask: int) -> Fraction:
        return self._fbar_table()[mask]

    def monotonized(self, subset: Iterable[int]) -> Fraction:
        return self.monotonized_mask(mask_of(subset, self.n))

    def full_value(self) -> Fraction:
        """fhat([n]): the total amount the residual polytope can still absorb."""
        return self.value_mask((1 << self.n) - 1)

    def monotonized_oracle(self) -> SubmodularOracle:
        return SubmodularOracle(self.n, self.monotonized_mask, True,
                                f"monotonized({self.name})")


def residual(oracle: SubmodularOracle, rho: Sequence[Rational],
             d: Sequence[Rational]) -> ResidualOracle:
    """Residual-polytope oracle for promises rho (must lie in P) and demands d."""
    return ResidualOracle(oracle, rho, d)


def _min_without_bit(values: list, i: int) -> int:
    """min of values[m] over the masks m that do not contain bit i."""
    width = 1 << i
    period = 2 * width
    size = len(values)
    if width <= size // period:
        # Few residues: each one is a strided slice.
        return min(min(values[r::period]) for r in range(width))
    # Few periods: each one starts with a contiguous run of masks without bit i.
    return min(min(values[s:s + width]) for s in range(0, size, period))


def clinch_kernel(oracle: SubmodularOracle, rho: Sequence[Fraction],
                  d: Sequence[Fraction]) -> tuple:
    """``(fhat([n]), delta)`` with delta_i = max{0, fhat([n]) - fhat([n]\\i)}.

    With ``h = f - rho - d``, ``fhat(S) = d(S) + min over T <= S of h(T)``, so
    the clinch needs only n + 1 minima of h: over all masks, and over the
    masks without bit i.  When a minimizer T* of h avoids i the two minima
    agree and delta_i = d_i, so only the bits of T* need the second minimum.
    h is evaluated on integers: the oracle's cached integer table, rho and d
    scaled to one common denominator.  Exact, and equal to the values
    :class:`ResidualOracle` gives.

    rho and d are Fraction vectors with d >= 0; rho must lie in P(f), which
    is not checked here (the engines keep it invariant; :func:`clinch_amounts`
    checks it).
    """
    den, h, (_, dnum) = _slack_table(oracle, rho, d)
    low = min(h)
    argmin = h.index(low)
    delta = []
    for i in range(oracle.n):
        if argmin >> i & 1:
            delta.append(Fraction(max(0, dnum[i] + low - _min_without_bit(h, i)), den))
        else:
            delta.append(d[i])
    return Fraction(sum(dnum) + low, den), tuple(delta)


def residual_totals(oracle: SubmodularOracle, rho: Sequence[Fraction],
                    d: Sequence[Fraction]) -> tuple:
    """``(fhat([n]), (fhat([n] \\ j) for each j))``, each straight from the definition.

    ``fhat(S) = d(S) + min over T <= S of h(T)`` with ``h = f - rho - d``,
    evaluated on integers over a common denominator.  Unlike
    :func:`clinch_kernel`, every one of the n + 1 minima is taken over its
    whole range, so a check built on these values does not inherit the
    kernel's argmin shortcut.  rho and d are Fraction vectors; rho must lie
    in P(f), which is not checked here.
    """
    den, h, (_, dnum) = _slack_table(oracle, rho, d)
    dtotal = sum(dnum)
    return (Fraction(dtotal + min(h), den),
            tuple(Fraction(dtotal - dnum[j] + _min_without_bit(h, j), den)
                  for j in range(oracle.n)))


def clinch_amounts(oracle: SubmodularOracle, rho: Sequence[Rational],
                   d: Sequence[Rational]) -> tuple:
    """Per-bidder clinch vector: delta_i = max{0, fhat([n]) - fhat([n]\\i)}.

    Checks that rho lies in P(f) and d >= 0 first.  The result satisfies
    0 <= delta <= d and rho + delta in P(f).
    """
    prom = vector(rho, oracle.n)
    dem = _demand_vector(d, oracle.n)
    _check_promises(oracle, prom, "clinch computation")
    return clinch_kernel(oracle, prom, dem)[1]


def greedy_vertex(oracle: SubmodularOracle, order: Optional[Sequence[int]] = None) -> tuple:
    """Greedy vertex x[order[j]] = f(prefix_{j+1}) - f(prefix_j); lies in P(f)."""
    n = oracle.n
    if order is None:
        order = range(n)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise DomainError(f"order must be a permutation of 0..{n - 1}")
    x = [ZERO] * n
    mask = 0
    prev = ZERO
    for i in order:
        mask |= 1 << i
        cur = oracle.value_mask(mask)
        x[i] = cur - prev
        prev = cur
    return tuple(x)
