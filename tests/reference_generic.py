"""``Fraction`` reference for the generic 2-bidder engine's three callbacks
and for the dominated-direction search.

The engine in ``polyclinch.auction`` clinches, caps demands and takes the
traced residual total on integer rows, and
``polyclinch.verify.check_dominated_direction`` searches on integer
triples.  These are the same computations written straight from the
definitions in ``Fraction`` arithmetic, as the code did before it moved to
integers; ``test_generic_engine.py`` checks the code against them.  ``a`` is
a tuple of 2-entry ``Fraction`` rows and ``b`` their right-hand sides, both
already validated (A >= 0, b >= 0).
"""

from fractions import Fraction
from typing import Optional, Sequence

from polyclinch.auction import _bounded_packing_2d, _packing_lines, _vertices_from_lines
from polyclinch.errors import DomainError, PreconditionError, SizeError
from polyclinch.verify import _strictly_dominated

ZERO = Fraction(0)


def slack(a: Sequence[tuple], b: Sequence[Fraction], rho: Sequence[Fraction]) -> list:
    """b - A rho, row by row."""
    return [c - row[0] * rho[0] - row[1] * rho[1] for row, c in zip(a, b)]


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
    lines = _packing_lines(a, slack(a, b, rho))
    lines += [(Fraction(1), ZERO, d[0]), (ZERO, Fraction(1), d[1])]
    return max(x + y for x, y in _vertices_from_lines(lines))


def dominated_direction(rows_a, rhs, bidders, outcome) -> Optional[tuple]:
    """A direction d with x + d strictly dominated, v.d >= 0 and d_i <= 0 for
    each exhausted bidder, or None: the first of the region's vertices
    (sorted), their midpoints and their centroid that is strictly dominated."""
    if len(bidders) != 2:
        raise SizeError("the dominated-direction search supports exactly 2 bidders")
    a, b = _bounded_packing_2d(rows_a, rhs)
    x = outcome.allocation
    v = [bd.value for bd in bidders]

    lines = _packing_lines(a, b)
    lines.append((-v[0], -v[1], -(v[0] * x[0] + v[1] * x[1])))   # v.y >= v.x
    for i in outcome.exhausted:
        row = [ZERO, ZERO]
        row[i] = Fraction(1)
        lines.append((row[0], row[1], x[i]))                      # y_i <= x_i

    vertices = _vertices_from_lines(lines)
    if not vertices:
        return None
    candidates = list(vertices)
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            candidates.append(((vertices[i][0] + vertices[j][0]) / 2,
                               (vertices[i][1] + vertices[j][1]) / 2))
    count = Fraction(len(vertices))
    candidates.append((sum(p[0] for p in vertices) / count,
                       sum(p[1] for p in vertices) / count))
    for y in candidates:
        if _strictly_dominated(a, b, y):
            return (y[0] - x[0], y[1] - x[1])
    return None
