"""``Fraction`` reference for the generic 2-bidder engine's three callbacks
and for the dominated-direction search.

The engine in ``polyclinch.auction`` clinches, caps demands and takes the
traced residual total on integer rows, and
``polyclinch.verify.check_dominated_direction`` searches on integer
triples.  These are the same computations written straight from the
definitions in ``Fraction`` arithmetic, as the code did before it moved to
integers; ``test_generic_engine.py`` checks the code against them.  The
lines, the vertex enumeration and the domination test are written here
again, so a fault in the package's shared vertex code shows as a
difference; only the input validation and the error classes come from the
package.  ``a`` is a tuple of 2-entry ``Fraction`` rows and ``b`` their
right-hand sides, both already validated (A >= 0, b >= 0).
"""

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from polyclinch.auction import _bounded_packing_2d
from polyclinch.errors import DomainError, PreconditionError, SizeError

ZERO = Fraction(0)
ONE = Fraction(1)


def slack(a: Sequence[tuple], b: Sequence[Fraction], rho: Sequence[Fraction]) -> list:
    """b - A rho, row by row."""
    return [c - row[0] * rho[0] - row[1] * rho[1] for row, c in zip(a, b)]


def packing_lines(a: Sequence[tuple], b: Sequence[Fraction]) -> list:
    """{y >= 0 : Ay <= b} as lines l0*y0 + l1*y1 <= c."""
    return [(row[0], row[1], c) for row, c in zip(a, b)] + [(-ONE, ZERO, ZERO), (ZERO, -ONE, ZERO)]


def vertices(lines: Sequence[tuple]) -> list:
    """Vertices of {y : l0*y0 + l1*y1 <= c for each line}, deduplicated and
    sorted: each pair of crossing lines meets at one point (Cramer's rule),
    a vertex where it satisfies every line."""
    found = set()
    for (a0, b0, c0), (a1, b1, c1) in itertools.combinations(lines, 2):
        det = Fraction(a0 * b1 - a1 * b0)
        if det != 0:
            y = ((c0 * b1 - c1 * b0) / det, (a0 * c1 - a1 * c0) / det)
            if all(l0 * y[0] + l1 * y[1] <= c for l0, l1, c in lines):
                found.add(y)
    return sorted(found)


def strictly_dominated(a: Sequence[tuple], b: Sequence[Fraction], y: tuple) -> bool:
    """y is in {y >= 0 : Ay <= b} and some coordinate can still strictly increase there."""
    s = slack(a, b, y)
    if min(y) < 0 or min(s) < 0:
        return False
    return any(all(sj > 0 for row, sj in zip(a, s) if row[i] > 0) for i in (0, 1))


def axis_max(a: Sequence[tuple], slack: Sequence[Fraction], i: int,
             bound: Optional[Fraction] = None, other: Fraction = ZERO) -> Fraction:
    """Largest y_i >= 0 with A y <= slack when y_other = ``other``, capped by ``bound``."""
    reach = [] if bound is None else [bound]
    reach += [(s - row[1 - i] * other) / row[i] for row, s in zip(a, slack) if row[i] > 0]
    return max(ZERO, min(reach))


def clinch_2d(a: Sequence[tuple], b: Sequence[Fraction], rho: Sequence[Fraction],
              d: Sequence[Fraction]) -> tuple:
    """delta_i = max{x_i : (x_i, g_i(0)) in P_{rho,d}}, g_i(0) the rival's reach."""
    if any(v < 0 for v in d):
        raise DomainError("demands must be >= 0")
    s = slack(a, b, rho)
    for j, sj in enumerate(s):
        if sj < 0:
            raise PreconditionError(
                f"rho violates packing row {j}: slack {sj} < 0", witness=j)
    g0 = axis_max(a, s, 1, d[1])              # most bidder 1 could take if 0 gets 0
    h0 = axis_max(a, s, 0, d[0])
    return (axis_max(a, s, 0, d[0], g0), axis_max(a, s, 1, d[1], h0))


def caps(a: Sequence[tuple], b: Sequence[Fraction], rho: Sequence[Fraction]) -> tuple:
    """Each bidder's demand cap: the most it can add to rho alone."""
    s = slack(a, b, rho)
    return axis_max(a, s, 0), axis_max(a, s, 1)


def residual_total(a: Sequence[tuple], b: Sequence[Fraction], rho: Sequence[Fraction],
                   d: Sequence[Fraction]) -> Fraction:
    """max{x_0 + x_1 : x in P_{rho,d}} over the vertices of P_{rho,d}."""
    lines = packing_lines(a, slack(a, b, rho))
    lines += [(ONE, ZERO, d[0]), (ZERO, ONE, d[1])]
    return max(x + y for x, y in vertices(lines))


def dominated_direction(rows_a, rhs, bidders, outcome) -> Optional[tuple]:
    """A direction d with x + d strictly dominated, v.d >= 0 and d_i <= 0 for
    each exhausted bidder, or None: the first of the region's vertices
    (sorted), their midpoints and their centroid that is strictly dominated."""
    if len(bidders) != 2:
        raise SizeError("the dominated-direction search supports exactly 2 bidders")
    a, b = _bounded_packing_2d(rows_a, rhs)
    x = outcome.allocation
    v = [bd.value for bd in bidders]

    lines = packing_lines(a, b)
    lines.append((-v[0], -v[1], -(v[0] * x[0] + v[1] * x[1])))   # v.y >= v.x
    for i in outcome.exhausted:
        row = [ZERO, ZERO]
        row[i] = ONE
        lines.append((row[0], row[1], x[i]))                      # y_i <= x_i

    points = vertices(lines)
    if not points:
        return None
    candidates = list(points)
    for p, q in itertools.combinations(points, 2):
        candidates.append(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2))
    count = Fraction(len(points))
    candidates.append((sum(p[0] for p in points) / count, sum(p[1] for p in points) / count))
    for y in candidates:
        if strictly_dominated(a, b, y):
            return (y[0] - x[0], y[1] - x[1])
    return None
