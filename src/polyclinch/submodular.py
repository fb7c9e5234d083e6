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
from ``fhat`` evaluated at the full set and at each full-set-minus-one;
:func:`clinch_kernel` gives both, on integers over a common denominator (the
auction engines call its integer core, :func:`_clinch_nums`, on the clock
loop's own numerators, and :func:`~polyclinch.verify.validate_trace` on a
snapshot's), while :class:`ResidualOracle` evaluates the definition on
``Fraction`` tables and serves as the reference it is checked against.

Every decision goes through one quantity, the reduced rank ``R(c) = min over
T of f(T) + c([n] \\ T)``: ``fhat([n]) = R(rho + d) - rho([n])``, and x is in
P(f) iff ``R(x) = x([n])``.  Each oracle has one :class:`ReducedRank`
(:meth:`SubmodularOracle.rank`): a fast structural solver when it carries
one (one sort for a cardinality oracle's rank list,
:func:`_cardinality_rank`, the vod-cut max-flow, one pass up a vod-cut
out-tree, :func:`_tree_rank`, or the sum of a graphic oracle's blocks,
:func:`_direct_sum_rank`), else the table solver
:func:`_table_rank`, one minimum over the oracle's integer value table.  A
solve returns a :class:`RankSolution`: its ``clinch(rho)`` is the delta
of :func:`clinch_kernel`, R(c) - R(c with c_j = rho_j) for each j,
computed warm, and its smallest minimizer, computed only on request, is the
violated set :func:`membership` names.  A solution answers ``solve(scale,
c)`` as its reduced rank does, started from its own state, so the clock's clinches and
the verifiers' snapshot checks each start from the last solution they keep;
the oracle keeps none.

That integer table (:meth:`SubmodularOracle.integer_table`) is built once:
by the oracle's own ``table`` builder when it has one (each built-in kind
states its table next to its value, in :mod:`polyclinch.environments`;
vod-cut's augments a parent set's maximum flow only for the sets whose
value no set less one bidder settles), else by one ``fn_mask`` call per
set.
:func:`verify_submodular` tests local second differences on the same table.

All subset enumeration is capped (default 16 elements, override with the
``CLINCH_BRUTE_FORCE_CAP`` environment variable); the verifiers are meant
for desk-scale verification, not for large-scale submodular minimization.
The cap is checked where a table is built, so oracles with a structural
reduced rank clinch, and are checked by :func:`membership` and
:func:`~polyclinch.verify.validate_trace`, past it (a direct sum while
each of its blocks fits under it); only
:func:`verify_submodular` and the ``Fraction`` reference
:class:`ResidualOracle` still need the table there, and the first passes
cardinality oracles, whose rank list the constructor has checked, without
one.
"""

from __future__ import annotations

import functools
import itertools
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


def check_enumeration_size(n: int, what: str = "subset enumeration", hint: str = "") -> None:
    """Raise :class:`SizeError` if n is above the cap; ``hint``, a sentence,
    ends the message."""
    cap = brute_force_cap()
    if n > cap:
        raise SizeError(
            f"{what} over {n} elements exceeds the cap of {cap}; set the "
            f"{_CAP_ENV} environment variable to {n} or more to allow it "
            f"(the work grows at least as 2^n){hint and '. ' + hint}", n=n, cap=cap, what=what)


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


def _nonnegative(values: Iterable[Rational], n: int, what: str, name: str) -> tuple:
    """``values`` as an exact vector, after :class:`DomainError` unless it has
    n entries, all >= 0; the error reads ``{what} >= 0, got {name}[i] = v``."""
    vec = vector(values, n)
    for i, v in enumerate(vec):
        if v < 0:
            raise DomainError(f"{what} >= 0, got {name}[{i}] = {v}")
    return vec


def _rank_list(values: Iterable[Rational], what: str) -> tuple:
    """``values`` as exact rationals, >= 0 and nonincreasing; errors name them ``what``."""
    values = list(values)
    if any(isinstance(a, (list, tuple)) for a in values):
        raise DomainError(f"{what} must be rationals, not lists")
    alpha = vector(values)
    shown = ", ".join(map(str, alpha))
    if any(a < 0 for a in alpha):
        raise DomainError(f"{what} must be >= 0, got ({shown})")
    if any(a < b for a, b in zip(alpha, alpha[1:])):
        raise DomainError(f"{what} must be nonincreasing, got ({shown})")
    return alpha


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


def _scaled(den: int, *vectors: Sequence[Fraction]) -> tuple:
    """``(D, [nums, ...])``: D the least common multiple of ``den`` and the
    denominators of the Fraction vectors, and each vector's numerators over D."""
    ratios = [[v.as_integer_ratio() for v in vec] for vec in vectors]
    den = math.lcm(den, *(q for vec in ratios for _, q in vec))
    return den, [[p * (den // q) for p, q in vec] for vec in ratios]


def _mask_sums(vec: Sequence[Fraction], n: int) -> list:
    """sums[m] = sum of vec over the members of mask m, for all m."""
    sums = [ZERO] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        sums[m] = sums[m ^ low] + vec[low.bit_length() - 1]
    return sums


class ReducedRank:
    """R(c) = min over T of f(T) + c([n] \\ T) for c >= 0, on integers.

    R(c) is also max{y([n]) : y in P(f), y <= c}.  ``solve(scale, c)`` takes
    c_i = c[i] / (``den`` * scale) and returns a :class:`RankSolution` at c,
    solved cold; a solution answers the same call warm.  A solve keeps the
    ``c`` it is given, uncopied, for its solution to read: callers pass a
    tuple or a list they will not change again.
    """

    __slots__ = ("den", "solve")

    def __init__(self, den: int, solve: Callable[[int, Sequence[int]], "RankSolution"]):
        self.den, self.solve = den, solve


class RankSolution:
    """One solve of a :class:`ReducedRank`, all values over ``den`` * scale.

    ``total`` is R(c).  ``clinch(rho)``, for rho <= c, lists delta_j = R(c)
    - R(c with c_j = rho_j) for every j, started from this solve's own work.
    It is the clinch, max(0, fhat([n]) - fhat([n] \\ j)), on any set
    function.  Write R(c with c_j = t) = min(A, B + t): A is the least f(T) +
    c([n] \\ T) over the T that hold j, B the least f(T) + c([n] \\ T \\ j)
    over the T that do not, and fhat([n]) - fhat([n] \\ j) = R(c) - B -
    rho_j.  Both sides are 0 if A <= B + rho_j, and min(A, B + c_j) - B -
    rho_j otherwise, since c_j >= rho_j.  ``smallest()`` is T*, the smallest
    minimizer, as a mask (the minimizers of a submodular function are closed
    under intersection, so one set is contained in all); only the witness
    code reads it.  Both are computed only when called and change nothing,
    so they can be asked in any order, any number of times; the state they
    start from lives here, never on the oracle.

    ``solve(scale, c)`` returns what the reduced rank's ``solve(scale, c)``
    does, started from this solution's state (the table's h, the maximum
    flow) and changing nothing on it, so a caller re-solves by keeping the
    last solution it made.  Where :func:`_warm_start` finds no warm start,
    it is the cold solve.
    """

    __slots__ = ("total", "smallest", "clinch", "solve")

    def __init__(self, total: int, smallest: Callable[[], int],
                 clinch: Callable[[Sequence[int]], list],
                 solve: Callable[[int, Sequence[int]], "RankSolution"]):
        self.total, self.smallest, self.clinch, self.solve = total, smallest, clinch, solve


def _warm_start(scale: int, c: Sequence[int], new_scale: int,
                new_c: Sequence[int]) -> Optional[tuple]:
    """``(k, changed)`` that carry a solution at c over ``den * scale`` to
    new_c over ``den * new_scale``: k = new_scale / scale and ``changed``
    the entries with new_c[i] != k * c[i].  None, for the cold solve, when
    new_scale is not a multiple of scale or a quarter of the entries or
    more changed: each changed entry costs a warm start one pass (the
    table) or one search (the flow), and the cold solve pays for all n.
    With n <= 4 one changed entry is a quarter, so the table solver, whose
    16-entry tables the clock clinches by the thousand, gives those
    solutions its cold solve as ``solve`` and skips this call.
    """
    k, rest = divmod(new_scale, scale)
    if rest:
        return None
    changed = [i for i, (a, b) in enumerate(zip(c, new_c)) if a * k != b]
    return None if 4 * len(changed) >= len(c) else (k, changed)


def _cardinality_rank(ctrs: tuple) -> ReducedRank:
    """The reduced rank of f(S) = A_|S|, A_t the sum of the first t ``ctrs``.

    ``ctrs`` is a list :func:`_rank_list` has checked (>= 0 and
    nonincreasing); it counts as 0 past its end.  Among the sets of size
    t, f(T) - c(T) is least on the t largest entries of c, so R(c) =
    c([n]) + min over t of A_t - (the t largest c summed): one sort and one
    running-sum scan, run_t = sum over s <= t of (a_s - top_s), with a_s
    the CTR steps times the scale and top the sorted c.  The smallest
    minimizing t never splits a tie, since A_t - A_(t-1) does not grow
    with t: if the t-th and (t+1)-th largest entries were equal, t + 1
    would do strictly better than t.  So the entries at least the t-th
    largest are the smallest minimizer.

    ``clinch(rho)`` needs no sort and reads no steps.  f is monotone, so
    delta_j = max(0, R(c) - R(c with c_j = 0) - rho_j), and c with c_j =
    0, sorted, is the sorted c less its entry v = c_j at j's position k,
    with a 0 appended.  Its running sums are run_t for t < k and v + g_t
    for t >= k, where g_t = run_t - top_(t+1) and g_(n-1) = run_(n-1).  So
    R(c) - R(c with c_j = 0) = low + v - min(before_k, v + after_k), low
    the least of 0 and the run, before_k the least of 0 and run_t for t <
    k, and after_k the least g_t for t >= k.  Tied entries give one sorted
    list, so each position answers for its own bidder: one loop down the
    positions builds the suffix minima, and one loop up them keeps the
    prefix minimum and writes each bidder's clinch.

    A solution's ``solve`` is the cold one: the sort and the scan are the
    whole solve, so there is nothing a warm start would skip.
    """
    den, alpha = _over_common_denominator(ctrs)

    def solve(scale: int, c: Sequence[int]) -> RankSolution:
        n = len(c)
        order = sorted(range(n), key=c.__getitem__, reverse=True)
        top = [c[j] for j in order]
        steps = [a * scale for a in alpha[:n]] + [0] * (n - len(alpha))
        run = list(itertools.accumulate(map(operator.sub, steps, top)))
        low = min(run)
        if low < 0:
            size = run.index(low) + 1
        else:
            low = size = 0

        def smallest() -> int:
            if size == 0:
                return 0
            cut = top[size - 1]
            return sum(1 << i for i, ci in enumerate(c) if ci >= cut)

        def clinch(rho: Sequence[int]) -> list:
            after = run[-1]
            suffix = [after] * n
            for t in range(n - 2, -1, -1):
                g = run[t] - top[t + 1]
                if g < after:
                    after = g
                suffix[t] = after
            delta = [0] * n
            before = 0
            for j, v, r, after in zip(order, top, run, suffix):
                after += v
                gap = low + v - rho[j] - (before if before < after else after)
                if gap > 0:
                    delta[j] = gap
                if r < before:
                    before = r
            return delta

        return RankSolution(sum(c) + low, smallest, clinch, solve)

    return ReducedRank(den, solve)


def _cardinality_value(ctrs: tuple, n: int) -> Callable[[int], Fraction]:
    """f(mask) = A_|mask| for a checked rank list ``ctrs``, whose entries
    past its end count as 0: its prefix sums, read by one lookup."""
    sums = list(itertools.accumulate(ctrs[:n], initial=ZERO))
    sums += sums[-1:] * (n + 1 - len(sums))
    return lambda mask: sums[mask.bit_count()]


@functools.cache
def _bit_slices(size: int, i: int) -> tuple:
    """``(without, with_)`` slices that split a list indexed by mask, of
    ``size`` (a power of 2) entries, along bit i.

    ``without`` picks masks that do not contain bit i, ``with_`` the same
    masks with bit i set, in the same order; together the pairs cover
    every mask once.  Few residues: one strided pair per residue r < 2^i.
    Few periods: one contiguous pair per period, which starts with a run
    of masks without bit i.  Kept per (size, i), since the table solver
    asks for the same few on every solve.
    """
    width = 1 << i
    period = 2 * width
    if width <= size // period:
        return tuple((slice(r, None, period), slice(r + width, None, period))
                     for r in range(width))
    return tuple((slice(s, s + width), slice(s + width, s + period))
                 for s in range(0, size, period))


def _min_without_bit(values: list, i: int) -> tuple:
    """``(low, where)``: low the min of values[m] over the masks m that do
    not contain bit i, and where the slice of values, one of
    :func:`_bit_slices`' masks without bit i, that holds a mask attaining it."""
    low = None
    for without, _ in _bit_slices(len(values), i):
        part = min(values[without])
        if low is None or part < low:
            low, where = part, without
    return low, where


def _mask_at(values: list, where: slice, value: int) -> int:
    """The first mask in the slice ``where`` of ``values`` whose entry is ``value``."""
    return where.start + values[where].index(value) * (where.step or 1)


def _table_rank(den: int, nums: Sequence[int]) -> ReducedRank:
    """The reduced rank of f(m) = nums[m] / den, from the 2^n value table.

    ``solve`` tabulates h = f - c over every mask, and R(c) = c([n]) + min h.
    Entry j of ``clinch(rho)`` is max(0, R(c) - B - rho_j), with B = c([n]) -
    c_j + the minimum of h over the masks without j, as
    :class:`RankSolution` defines it, so :func:`clinch_kernel` equals
    :class:`ResidualOracle` on any set function.  That minimum is min h for
    j outside the first minimizer, and a pass over h for j in it.  Every
    minimizer holds j iff it rises above min h, so ``smallest()``, the AND of the minimizers, is
    those bits of the first minimizer; the minima either takes are kept,
    each with the slice of h where a mask attains it.  If the AND is not
    itself a minimizer (f is not submodular), the minimizer
    :func:`_precedes` ranks first stands in for it.

    A solution's ``solve`` takes h from its own: k * h at the new scale (k
    the ratio), and each changed entry's k * c_i - c'_i added over the
    masks that hold its bit (:func:`_bit_slices`), one pass each.  When
    every changed entry fell, the rest of h only rose, so a kept minimum
    whose mask (:func:`_mask_at`, looked up only here) holds no changed bit
    is still one, times k, and carries over.  With n <= 4 it is the cold
    solve.
    """
    def solve(scale: int, c: Sequence[int]) -> RankSolution:
        sums = [0]
        for weight in c:
            sums += [s + weight for s in sums]
        h = list(map(operator.sub, nums if scale == 1 else [v * scale for v in nums], sums))
        return solution(scale, c, h, {})

    def solution(scale: int, c: Sequence[int], h: list, minima: dict) -> RankSolution:
        """The solution at c from its h; ``minima`` the kept minima by bit."""
        low = min(h)
        first = h.index(low)

        def min_without(j: int) -> int:
            if j not in minima:
                minima[j] = _min_without_bit(h, j)
            return minima[j][0]

        def smallest() -> int:
            mask = sum(1 << j for j in range(len(c)) if first >> j & 1 and min_without(j) > low)
            return mask if h[mask] == low else _argmin(range(len(h)), h.__getitem__)[0]

        def resolve(new_scale: int, new_c: Sequence[int]) -> RankSolution:
            warm = _warm_start(scale, c, new_scale, new_c)
            if warm is None:
                return solve(new_scale, new_c)
            k, changed = warm
            g = h[:] if k == 1 else [v * k for v in h]
            for i in changed:
                rise = k * c[i] - new_c[i]
                for _, with_ in _bit_slices(len(g), i):
                    g[with_] = [v + rise for v in g[with_]]
            if any(k * c[i] < new_c[i] for i in changed):
                return solution(new_scale, new_c, g, {})
            bits = sum(1 << i for i in changed)
            return solution(new_scale, new_c, g, {
                j: (v * k, where) for j, (v, where) in minima.items()
                if not _mask_at(h, where, v) & bits})

        def clinch(rho: Sequence[int]) -> list:
            return [gap if (gap := cj - r - (min_without(j) - low if first >> j & 1 else 0)) > 0
                    else 0 for j, (cj, r) in enumerate(zip(c, rho))]

        return RankSolution(sum(c) + low, smallest, clinch,
                            solve if len(c) <= 4 else resolve)     # see _warm_start

    return ReducedRank(den, solve)


def _direct_sum_rank(blocks: Sequence[tuple], singles: Sequence[tuple]) -> ReducedRank:
    """The reduced rank of a direct sum, f(S) = sum over parts of f_k(S & E_k).

    The parts' elements E_k partition the ground set, and every part's
    values are integers, so the rank's denominator is 1 (as a graphic
    rank's is).  ``blocks`` are the parts of two or more elements, as
    ``(elements, oracle)``, element i of the oracle being ``elements[i]``;
    ``singles`` are the one-element parts, as ``(j, f_j)`` with f_j =
    f({j}) an int.  f(T) + c([n] \\ T) splits into the parts' terms, so
    R(c) is the sum of the parts' R, each at its own entries of c, and T*
    is the union of the parts' T*.  Lowering c_j moves only the R of the
    part holding j, so entry j of ``clinch(rho)`` is that part's own.

    A single {j} is read in closed form: it adds min(f_j, c_j) to R (f_j
    is 0 for a loop, its whole value for a coloop), its clinch is that
    less min(f_j, rho_j), and j is in T* exactly when c_j > f_j.  A cold
    solve asks each block's oracle for its :meth:`~SubmodularOracle.rank`,
    so the enumeration cap applies to each block and a :class:`SizeError`
    names it; the oracle keeps its own table.  A solution's ``solve``
    re-solves each block from that block's own solution.
    """
    def solve(scale: int, c: Sequence[int]) -> RankSolution:
        return solution(scale, c, [oracle.rank() for _, oracle in blocks])

    def solution(scale: int, c: Sequence[int], starts: list) -> RankSolution:
        sols = [start.solve(scale, [c[j] for j in elements])
                for (elements, _), start in zip(blocks, starts)]
        kept = [min(f * scale, c[j]) for j, f in singles]
        total = sum(kept)
        for s in sols:
            total += s.total

        def smallest() -> int:
            mask = sum(1 << j for (j, _), r in zip(singles, kept) if r < c[j])
            for (elements, _), s in zip(blocks, sols):
                t = s.smallest()
                mask |= sum(1 << j for i, j in enumerate(elements) if t >> i & 1)
            return mask

        def clinch(rho: Sequence[int]) -> list:
            out = list(c)
            for (j, f), r in zip(singles, kept):
                out[j] = r - min(f * scale, rho[j])
            for (elements, _), s in zip(blocks, sols):
                for j, delta in zip(elements, s.clinch([rho[j] for j in elements])):
                    out[j] = delta
            return out

        return RankSolution(total, smallest, clinch,
                            lambda new_scale, new_c: solution(new_scale, new_c, sols))

    return ReducedRank(1, solve)


def _tree_rank(den: int, parents: Sequence[int], caps: Sequence[int],
               nodes: Sequence[Optional[int]]) -> ReducedRank:
    """The reduced rank of the cut function of an out-tree, f(S) the least
    capacity of arcs whose removal cuts the source from the nodes of S.

    Nodes are numbered in BFS order from the source, node 0; node v > 0 is
    entered by one arc, from ``parents[v]``, of capacity ``caps[v]`` / den.
    Bidder i sits at node ``nodes[i]``, None for a node the source does not
    reach.  R(c) is the maximum flow with a sink arc of capacity c_i at
    each bidder's node (Fujishige, *Submodular Functions and Optimization*,
    2005, section 3.1), and on a tree that flow is forced: filled bottom-up,
    flow(v) = min(cap(v), inner(v)), inner(v) the c of the bidders at v
    plus the flows of v's children, and R(c) = inner(0).

    ``clinch(rho)`` walks from bidder j's node toward the source, carrying
    a = c_j - rho_j, what inner falls by.  At node v the flow falls by
    flow(v) - min(cap(v), inner(v) - a), the next a; the a that reaches the
    source is delta_j, and a walk stops once a is 0.  ``smallest()``: the
    smallest minimum cut cuts arc v exactly when no arc above it is cut and
    cap(v) < inner(v), strictly (on a tie the subtree below stays on the
    source side), so j is in T* iff c_j > 0 and its node is unreached, or
    some arc on its path has cap(v) < inner(v).  A solution's ``solve`` is
    the cold one: one pass is the whole solve.
    """
    def solve(scale: int, c: Sequence[int]) -> RankSolution:
        inner, flow = [0] * len(parents), [0] * len(parents)
        for ci, v in zip(c, nodes):
            if v is not None:
                inner[v] += ci
        for v in range(len(parents) - 1, 0, -1):
            flow[v] = min(caps[v] * scale, inner[v])
            inner[parents[v]] += flow[v]

        def smallest() -> int:
            cut = [False] * len(parents)
            for v in range(1, len(parents)):
                cut[v] = cut[parents[v]] or caps[v] * scale < inner[v]
            return sum(1 << i for i, (ci, v) in enumerate(zip(c, nodes))
                       if ci > 0 and (v is None or cut[v]))

        def clinch(rho: Sequence[int]) -> list:
            out = []
            for cj, r, v in zip(c, rho, nodes):
                a = cj - r
                while a and v:
                    a = flow[v] - min(caps[v] * scale, inner[v] - a)
                    v = parents[v]
                out.append(0 if v is None else a)
            return out

        return RankSolution(inner[0], smallest, clinch, solve)

    return ReducedRank(den, solve)


class SubmodularOracle:
    """Memoizing value oracle for a normalized set function on {0..n-1}.

    f(empty) = 0 by definition, so ``fn_mask`` is never asked for mask 0;
    it evaluates one nonempty mask from scratch.  An oracle may also supply
    ``table``, a builder that takes no argument and returns the whole value
    table as ``(D, nums)``, f(m) = nums[m] / D (the layout of
    :meth:`integer_table`), from which :meth:`integer_table` takes the
    table instead of evaluating each mask; ``fn_mask`` must then give the
    same values, since it serves every read before the table exists and
    the builder every read after.  An oracle whose reduced rank has a
    fast solver may supply it as a :class:`ReducedRank`; a cardinality
    oracle, f(S) = A_|S| with A_t the sum of the first t entries of a
    nonincreasing list >= 0, gives the list as ``ctrs`` instead, and the
    constructor checks it (:func:`_rank_list`), keeps the checked tuple and
    turns it into its :func:`_cardinality_rank` and its values
    (:func:`_cardinality_value`), so the list is its one definition and
    ``fn_mask`` (which may be None) is never called.  :meth:`rank`
    returns that solver, or else the table solver, and the kernel and the
    verifiers decide through it alone.  ``monotone`` is
    a claim by the constructor, checkable with :func:`verify_submodular`.
    Its definition is fixed at construction; :meth:`value_mask` and
    :meth:`integer_table` fill a memo and the value table on first use,
    unlocked, with values that definition fixes, so reads agree in any order.
    """

    def __init__(self, n: int, fn_mask: Optional[Callable[[int], Fraction]],
                 monotone: bool, name: str, ctrs: Optional[tuple] = None,
                 table: Optional[Callable[[], tuple]] = None,
                 reduced_rank: Optional[ReducedRank] = None):
        if n < 1:
            raise DomainError(f"ground set must have n >= 1, got {n}")
        if ctrs is not None:
            if reduced_rank is not None:
                raise DomainError("give an oracle ctrs or a reduced_rank, not both")
            ctrs = _rank_list(ctrs, "rank list")
            reduced_rank = _cardinality_rank(ctrs)
            fn_mask = _cardinality_value(ctrs, n)
        self.n = n
        self.monotone = monotone
        self.name = name
        # The checked rank list of a cardinality oracle, kept so that a
        # wrapper can build the same oracle again; the reduced rank is its use.
        self.ctrs = ctrs
        self.reduced_rank = reduced_rank
        self._fn = fn_mask
        self._build_table = table
        self._memo = {0: ZERO}
        self._table = None

    @classmethod
    def from_set_function(cls, n: int, fn: Callable[[frozenset], Rational],
                          monotone: bool = False, name: str = "custom") -> "SubmodularOracle":
        """The oracle of ``fn`` on frozensets; ``fn`` is never called on the
        empty set, whose value is 0 by definition."""
        return cls(n, lambda m: as_fraction(fn(set_of(m))), monotone, name)

    def value_mask(self, mask: int) -> Fraction:
        cached = self._memo.get(mask)
        if cached is None:
            if self._table is None:
                cached = as_fraction(self._fn(mask))
            else:
                cached = Fraction(self._table[1][mask], self._table[0])
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

        Built on first use and kept, after the enumeration cap is checked.
        An oracle with a ``table`` builder calls it once, and no
        ``Fraction`` is built.  Without one each mask is evaluated once, in
        mask order (memo first, then ``fn_mask``), and D is the least
        common denominator of the table.  Once the table exists, memo
        misses read it.
        """
        if self._table is None:
            check_enumeration_size(
                self.n, f"value table of {self.name!r}",
                "Single-keyword, multi-unit and vod-cut oracles need no value table "
                "and run past the cap; a graphic oracle needs one per 2-connected block "
                "of its edges, so it runs past the cap while each block has at most the cap")
            if self._build_table is not None:
                self._table = self._build_table()
            else:
                self._table = _over_common_denominator(
                    [self.value_mask(m) for m in range(1 << self.n)])
        return self._table

    def rank(self) -> ReducedRank:
        """The oracle's :class:`ReducedRank`: the one it was given, else
        :func:`_table_rank` over :meth:`integer_table`, which checks the cap
        and is built on first use and kept; the solver is one closure."""
        if self.reduced_rank is not None:
            return self.reduced_rank
        return _table_rank(*self.integer_table())

    def __repr__(self):
        return f"SubmodularOracle({self.name}, n={self.n}, monotone={self.monotone})"


@dataclass(frozen=True)
class OracleCheck:
    """Result of verify_submodular: ok, or a named violation with witness sets."""

    ok: bool
    violation: Optional[str] = None          # submodularity | monotonicity
    witness: Optional[tuple] = None          # tuple of frozensets reproducing the violation
    detail: str = ""

    def __bool__(self):
        return self.ok


def verify_submodular(oracle: SubmodularOracle) -> OracleCheck:
    """Exhaustively check submodularity and claimed monotonicity.

    A cardinality oracle (one with ``ctrs``) passes at once, at any n: its
    constructor has checked that the list is >= 0 and nonincreasing, and
    f(S) = A_|S| is then submodular (concave in |S|) and monotone.  Every
    other oracle is decided on its :meth:`~SubmodularOracle.integer_table`,
    which needs the enumeration cap.  Submodularity uses the local second
    differences, ``f(S+i) + f(S+j) >= f(S+i+j) + f(S)`` for every S and
    i < j outside it (C(n,2) 2^(n-2) checks), which is equivalent to
    ``f(S|T) + f(S&T) <= f(S) + f(T)`` for all 4^n pairs.
    :func:`_local_test` decides them, and the marginals of monotonicity,
    on the table packed into one integer, and names the first failure of
    each: the submodularity witness is the first failing ``(S+i, S+j)``
    (S ascending, then i < j), whose union is S+i+j and intersection S, so
    failures are reproducible; a monotonicity witness is the first
    (S, S+i), S ascending, then i.
    """
    if oracle.ctrs is not None:
        return OracleCheck(True)
    n = oracle.n
    check_enumeration_size(n, f"pairwise submodularity check on {oracle.name!r}",
                           "Single-keyword and multi-unit oracles pass it at any size, "
                           "from their rank list")
    f = oracle.value_mask
    pair, drop = _local_test(oracle.integer_table()[1], n)
    if pair is not None:
        s, i, j = pair
        si, sj = s | 1 << i, s | 1 << j
        return OracleCheck(False, "submodularity", (set_of(si), set_of(sj)),
                           f"f(S|T)+f(S&T) = {f(si | sj) + f(s)} > "
                           f"{f(si) + f(sj)} = f(S)+f(T)")
    if oracle.monotone and drop is not None:
        s, i = drop
        return OracleCheck(False, "monotonicity", (set_of(s), set_of(s | 1 << i)),
                           f"f(S) = {f(s)} > {f(s | 1 << i)} = f(S+{i})")
    return OracleCheck(True)


def _local_test(nums: Sequence[int], n: int) -> tuple:
    """``(pair, drop)`` for the set function with value table ``nums``:
    pair the first ``(S, i, j)``, S ascending, then i < j outside S, with
    ``nums[S+i] + nums[S+j] < nums[S+i+j] + nums[S]``, and drop the first
    ``(S, i)``, S ascending, then i, with ``nums[S+i] < nums[S]``; each
    None if there is none.

    Broadword, on one int: entry m, less the least entry, is its field m,
    W bits at bit W m, with W the least multiple of 8 such that 2^(W-2)
    exceeds the spread, so that 2^(W-1) plus any first or second
    difference fits a field.  A shift by W 2^i lines up entry m + 2^i with
    field m, so ``gain`` holds 2^(W-1) + g_i(S) at field S, with g_i(S) =
    nums[S+i] - nums[S], and ``gain`` + bias - (``gain`` >> W 2^j) holds
    2^(W-1) + g_i(S) - g_i(S+j).  The top bit of a field is set iff its
    difference is >= 0.  Only the fields whose index lacks i (and j) are
    read, one AND against their top bits per i and per pair, and the
    lowest clear one names S; the fields a shift runs past the end of the
    table hold bit j, and the carries out of them go up, past every read
    field.
    """
    count = len(nums)
    lo = min(nums)
    size = (max(nums) - lo).bit_length() + 9 >> 3
    width = 8 * size
    fields = map(operator.sub, nums, itertools.repeat(lo))
    table = int.from_bytes(bytes(fields) if size == 1 else b"".join(
        map(int.to_bytes, fields, itertools.repeat(size), itertools.repeat("little"))), "little")
    top = bytes(size - 1) + b"\x80"
    bias = int.from_bytes(top * count, "little")
    lacks = [int.from_bytes((top * (1 << i) + bytes(size << i)) * (count >> i + 1), "little")
             for i in range(n)]

    def first_clear(word: int, tops: int) -> int:
        clear = tops - (word & tops)
        return (clear & -clear).bit_length() // width - 1 if clear else count

    gains = [(table >> (width << i)) + bias - table for i in range(n)]
    drop = min(((first_clear(gain, lacks[i]), i) for i, gain in enumerate(gains)),
               default=(count,))
    pair = min(((first_clear(gain + bias - (gain >> (width << j)), lacks[i] & lacks[j]), i, j)
                for i, gain in enumerate(gains) for j in range(i + 1, n)), default=(count,))
    return (pair if pair[0] < count else None), (drop if drop[0] < count else None)


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

    One R of :meth:`SubmodularOracle.rank` decides it: R(x) - x([n]) is the
    least value of f - x, so x is in P(f) iff R(x) = x([n]).  Otherwise the
    smallest minimizer T* is the violated set: every other minimizer
    contains it, so it is the unique one of least cardinality, which is the
    set the tie-break of :func:`_precedes` names.  :func:`_membership_from`
    reads the result off that solve.
    """
    vec = _nonnegative(x, oracle.n, "membership requires x", "x")
    rank = oracle.rank()
    den, (nums,) = _scaled(rank.den, vec)
    return _membership_from(oracle, vec, rank.solve(den // rank.den, nums), den, sum(nums))


def _membership_from(oracle: SubmodularOracle, x: Sequence[Fraction], solution: RankSolution,
                     den: int, total: int) -> MembershipResult:
    """:func:`membership` of x from a solve at x in hand: ``solution`` is R
    at x's numerators over ``den``, and ``total`` their sum.  One
    evaluation of f(T*) guards the witness: f(T*) - x(T*) must equal the
    deficit, or :class:`ClinchError` is raised."""
    low = solution.total - total
    if low == 0:
        return MembershipResult(True)
    mask, deficit = solution.smallest(), Fraction(low, den)
    violating = set_of(mask)
    if oracle.value_mask(mask) - sum((x[i] for i in violating), ZERO) != deficit:
        raise ClinchError(f"membership in P({oracle.name}): the reduced rank names "
                          f"{sorted(violating)} with deficit {deficit}, which f does not give")
    return MembershipResult(False, violating, deficit)


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


def _check_promises(oracle: SubmodularOracle, rho: Sequence[Fraction]) -> None:
    """Raise :class:`PreconditionError` unless rho lies in P(f), naming the
    set :func:`membership` names."""
    result = membership(oracle, rho)
    if not result.ok:
        raise PreconditionError(
            f"rho is not in the base polymatroid: rho(S) exceeds f(S) on "
            f"S = {sorted(result.violating)}", witness=result.violating)


class ResidualOracle(SubmodularOracle):
    """Oracle for the residual polymatroid P_{rho,d} of a base polymatroid.

    A :class:`SubmodularOracle` like any other, not monotone, whose values
    are ``fhat(S) = min over T <= S of f(T) - rho(T) + d(S \\ T)`` by
    exhaustive enumeration with memoized base values.  Since ``d(S \\ T) =
    d(S) - d(T)`` the whole table reduces to a subset-min transform of
    ``h(T) = f(T) - rho(T) - d(T)``, computed once per (rho, d) snapshot.
    Snapshots are immutable, so the table never invalidates.  The engines
    clinch with :func:`clinch_kernel`; this ``Fraction`` evaluation of the
    definition is the independent reference it is checked against.
    """

    def __init__(self, base: SubmodularOracle, rho: Sequence[Rational],
                 d: Sequence[Rational]):
        check_enumeration_size(base.n, "residual oracle construction")
        super().__init__(base.n, lambda m: self._fhat_table()[m], False,
                         f"residual({base.name})")
        self.base = base
        self.rho = vector(rho, base.n)
        self.demand = _nonnegative(d, base.n, "demands must be", "d")
        _check_promises(base, self.rho)
        self._fhat = None

    def _fhat_table(self) -> list:
        if self._fhat is None:
            n = self.n
            rsum = _mask_sums(self.rho, n)
            dsum = _mask_sums(self.demand, n)
            h = [self.base.value_mask(m) - rsum[m] - dsum[m] for m in range(1 << n)]
            minh = _min_over_subsets(h, n)
            self._fhat = [dsum[m] + minh[m] for m in range(1 << n)]
        return self._fhat

    def full_value(self) -> Fraction:
        """fhat([n]): the total amount the residual polytope can still absorb."""
        return self.value_mask((1 << self.n) - 1)


def residual(oracle: SubmodularOracle, rho: Sequence[Rational],
             d: Sequence[Rational]) -> ResidualOracle:
    """Residual-polytope oracle for promises rho (must lie in P) and demands d."""
    return ResidualOracle(oracle, rho, d)


def clinch_kernel(oracle: SubmodularOracle, rho: Sequence[Fraction],
                  d: Sequence[Fraction]) -> tuple:
    """``(fhat([n]), delta)`` with delta_i = max{0, fhat([n]) - fhat([n]\\i)}.

    By one solve of :meth:`SubmodularOracle.rank`, on integers over one
    common denominator (:func:`_clinch_nums`, which the engines call on the
    clock loop's own integers and :func:`~polyclinch.verify.validate_trace`
    on a snapshot's); exact, and equal to the values :class:`ResidualOracle`
    gives.  It is the definition: one R at c = rho + d and, for each j, R
    with c_j lowered to rho_j, :meth:`RankSolution.clinch`.

    The kernel does not check that rho lies in P(f): the engines keep it
    invariant, and :func:`clinch_amounts` checks it before it calls the
    kernel.

    rho and d are Fraction vectors with d >= 0.
    """
    rank = oracle.rank()
    den, (rnum, dnum) = _scaled(rank.den, rho, d)
    total, delta, _ = _clinch_nums(rank, den // rank.den, rnum, dnum)
    return Fraction(total, den), tuple(Fraction(x, den) for x in delta)


def _clinch_nums(start: Union[ReducedRank, RankSolution], scale: int, rho: Sequence[int],
                 d: Sequence[int]) -> tuple:
    """:func:`clinch_kernel` on numerators over den * scale, den the rank's:
    ``(fhat([n]), delta, solution)``, the numbers over the same denominator
    and the solve at c by ``start``, the reduced rank or a caller's last
    solution.

    With c = rho + d, fhat([n]) = R(c) - rho([n]), and delta_j = R(c) -
    R(c with c_j = rho_j) (:meth:`RankSolution.clinch`, warm from the solve
    at c).
    """
    solution = start.solve(scale, list(map(operator.add, rho, d)))
    return solution.total - sum(rho), solution.clinch(rho), solution


def clinch_amounts(oracle: SubmodularOracle, rho: Sequence[Rational],
                   d: Sequence[Rational]) -> tuple:
    """Per-bidder clinch vector: delta_i = max{0, fhat([n]) - fhat([n]\\i)}.

    Checks that rho >= 0, d >= 0 and rho lies in P(f) (:func:`membership`)
    first; on oracles with a structural reduced rank neither the check nor
    the clinch needs a 2^n table, and both run above
    ``CLINCH_BRUTE_FORCE_CAP``.  The result satisfies 0 <= delta <= d and
    rho + delta in P(f).
    """
    prom = vector(rho, oracle.n)
    dem = _nonnegative(d, oracle.n, "demands must be", "d")
    _check_promises(oracle, prom)
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
