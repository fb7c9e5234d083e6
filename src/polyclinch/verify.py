"""Property checkers for auction outcomes, plus the two counterexample demos.

Checks come in two flavours.  For polymatroid environments,
:func:`check_outcome` verifies the tight-set characterization of Pareto
optimality (everything sold, and every under-budget bidder separated from
every lower-value bidder by a tight set), together with individual
rationality, budget feasibility and membership.  For 2-bidder H-polytopes,
:func:`check_dominated_direction` searches exactly for an improving move into
the dominated region, which is the general Pareto test.

Every failure carries a machine-checkable witness: replaying the witness
reproduces the violation.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .auction import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    Outcome,
    TraceSnapshot,
    _NONNEGATIVE,
    _VECTORS,
    _bounded_packing_2d,
    _check_bidder_count,
    _integer_rows,
    _integer_vertices,
    _row_slacks,
    polytope_vertices,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
)
from .errors import DomainError, SizeError
from .submodular import (
    SubmodularOracle,
    ZERO,
    _clinch_nums,
    _membership_from,
    _nonnegative,
    _over_common_denominator,
    _scaled,
    as_fraction,
    residual,  # no caller here: perfbench asserts that it wraps verify.residual
    set_of,
    vector,
)

DEVIATION_GRID_SIZE = 20       # value_deviation_grid keeps this many misreports


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    witness: Optional[dict] = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class VerificationReport:
    properties: List[PropertyResult] = field(default_factory=list)
    narrative: List[str] = field(default_factory=list)
    attachments: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, passed: bool, witness: Optional[dict] = None,
            detail: str = "") -> None:
        self.properties.append(PropertyResult(name, passed, witness, detail))

    def ok(self) -> bool:
        return all(p.passed for p in self.properties)

    def failures(self) -> List[PropertyResult]:
        return [p for p in self.properties if not p.passed]

    def result(self, name: str) -> PropertyResult:
        for p in self.properties:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_json(self) -> dict:
        out = {
            "ok": self.ok(),
            "properties": [p.to_json() for p in self.properties],
        }
        if self.narrative:
            out["narrative"] = list(self.narrative)
        if self.attachments:
            out["attachments"] = self.attachments
        return out


def check_outcome(oracle: SubmodularOracle, bidders: Sequence[Bidder],
                  outcome: Outcome) -> VerificationReport:
    """Polymatroid outcome checks: sold-out, tight-set separation, IR, budgets.

    Pareto optimality requires, for every bidder i with slack budget and
    every bidder j with a strictly smaller value, a tight set (f(S) = x(S))
    that holds i but not j.  When no set holding i has negative slack
    f(S) - x(S), as when x lies in P(f), the tight sets holding i are closed
    under intersection by submodularity, so that set exists iff some tight
    set holds i and j is outside the smallest one, T_i: one minimum per
    bidder i decides all its pairs.  Otherwise each pair takes its own
    minimum of the slack over the sets holding i and not j.  The first
    failing pair (i, then j, ascending) is named with that minimum and its
    smallest minimizer.  Each i's lower-value bidders are a bitmask, taken
    from one sort of the values.

    Membership is decided as :func:`~polyclinch.submodular.membership`
    decides it (x of the wrong length or not >= 0 raises
    :class:`DomainError` before any solve), by one R at c = x of the
    oracle's :meth:`~polyclinch.submodular.SubmodularOracle.rank`, and each
    minimum is one more R, at c = x with c_i = M (and c_j = 0): as M >
    f([n]) + x([n]), every set without i costs more than any set with it,
    and with c_j = 0 dropping j from a set never costs more, f being
    monotone, as a polymatroid's f is.  So the minimizers of R are those of
    f - x over the sets holding i (and not j), the minimum is R - c([n]) +
    M - x_i, and the smallest minimizer, the unique one of least
    cardinality, is the set :func:`~polyclinch.submodular.min_constrained`
    names.  Each of those solves starts from the solution at x, from which
    its c differs in one or two entries.  No table and no cap on an oracle
    with a structural reduced rank; the value table otherwise.
    """
    n = oracle.n
    _check_bidder_count(n, bidders)
    x = _nonnegative(outcome.allocation, n, "membership requires x", "x")
    pay = outcome.payments
    report = VerificationReport()

    full_value = oracle.value_mask((1 << n) - 1)
    sold = sum(x, ZERO)
    report.add("sold-out", sold == full_value,
               None if sold == full_value else {"x_total": str(sold), "f_full": str(full_value)},
               f"x([n]) = {sold}, f([n]) = {full_value}")

    rank = oracle.rank()
    den, (xnum,) = _scaled(rank.den, x)
    scale, xtotal = den // rank.den, sum(xnum)
    at_x = rank.solve(scale, xnum)
    member = _membership_from(oracle, x, at_x, den, xtotal)
    big = math.floor(full_value * den) + xtotal + 1

    def solved(i: int, j: Optional[int] = None) -> tuple:
        c = list(xnum)
        c[i] = big
        if j is not None:
            c[j] = 0
        solution = at_x.solve(scale, c)
        return solution, solution.total - sum(c) + big - xnum[i]     # the least slack, over den

    order = sorted(range(n), key=lambda k: bidders[k].value)
    ranked = [bidders[k].value for k in order]
    below = list(itertools.accumulate((1 << k for k in order), operator.or_, initial=0))
    pareto_witness = None
    for i in range(n):
        lower = below[bisect.bisect_left(ranked, bidders[i].value)]
        if not lower or bidders[i].budget is not None and pay[i] >= bidders[i].budget:
            continue
        solution, low = solved(i)
        pending = lower if low else lower & solution.smallest()      # T_i separates the rest
        while pending and pareto_witness is None:
            j = (pending & -pending).bit_length() - 1
            pending &= pending - 1
            solution, low = solved(i, j)
            if low:
                pareto_witness = {"i": i, "j": j, "min_set": sorted(set_of(solution.smallest())),
                                  "min_slack": str(Fraction(low, den))}
        if pareto_witness:
            break
    report.add("pareto-tight-sets", pareto_witness is None, pareto_witness,
               "every under-budget bidder is separated from every lower-value "
               "bidder by a tight set" if pareto_witness is None else
               f"no tight set contains bidder {pareto_witness['i']} without "
               f"bidder {pareto_witness['j']}")

    ir_witness = None
    for i, b in enumerate(bidders):
        if pay[i] > b.value * x[i]:
            ir_witness = {"i": i, "pay": str(pay[i]), "value_times_x": str(b.value * x[i])}
            break
    report.add("individual-rationality", ir_witness is None, ir_witness)

    budget_witness = None
    for i, b in enumerate(bidders):
        if b.budget is not None and pay[i] > b.budget:
            budget_witness = {"i": i, "pay": str(pay[i]), "budget": str(b.budget)}
            break
    report.add("budget-feasibility", budget_witness is None, budget_witness)

    report.add("membership", member.ok,
               None if member.ok else {"violating_set": sorted(member.violating),
                                       "deficit": str(member.deficit)})
    return report


def _strictly_dominated(rows_a, rhs, y) -> bool:
    """y is in X and some coordinate can still strictly increase inside X."""
    for j, row in enumerate(rows_a):
        if row[0] * y[0] + row[1] * y[1] > rhs[j]:
            return False
    if y[0] < 0 or y[1] < 0:
        return False
    for i in (0, 1):
        binding = [j for j, row in enumerate(rows_a) if row[i] > 0]
        if all(rhs[j] - rows_a[j][0] * y[0] - rows_a[j][1] * y[1] > 0 for j in binding):
            return True
    return False


def check_dominated_direction(rows_a, rhs, bidders: Sequence[Bidder],
                              outcome: Outcome) -> Optional[tuple]:
    """Search for a dominated improving direction at a 2-bidder outcome.

    A witness is a direction d with x + d strictly below the Pareto frontier
    of X, d.v >= 0, and d_i <= 0 for every budget-exhausted bidder; its
    existence certifies that (x, pay) is not Pareto-optimal.  The search is
    exact and complete for bounded 2D packing polytopes, the only rows it
    accepts (:func:`~polyclinch.auction._bounded_packing_2d`): it enumerates
    the vertices of the constrained region, their midpoints and the centroid,
    which must meet the dominated region whenever it is nonempty.

    It runs on integers.  The constrained region's lines are the packing
    rows of :func:`~polyclinch.auction._integer_rows`, y >= 0 and the two
    conditions above, each scaled to integers by its own lcm.
    :func:`~polyclinch.auction._integer_vertices` gives its vertices over
    one denominator, sorted and deduplicated, and every candidate, in the
    order above, is a triple ``(y0, y1, det)`` for y = (y0, y1) / det; only
    the witness is built as ``Fraction`` values.
    """
    if len(bidders) != 2:
        raise SizeError("the dominated-direction search supports exactly 2 bidders")
    rows = _integer_rows(*_bounded_packing_2d(rows_a, rhs))
    x = outcome.allocation
    v = [bd.value for bd in bidders]

    value_line = _over_common_denominator([-v[0], -v[1], -(v[0] * x[0] + v[1] * x[1])])[1]
    lines = [*rows, *_NONNEGATIVE, value_line]                      # y in X, v.y >= v.x
    for i in outcome.exhausted:                                     # y_i <= x_i
        line = [0, 0, x[i].numerator]
        line[i] = x[i].denominator
        lines.append(line)

    den, vertices = _integer_vertices(lines)
    if not vertices:
        return None
    candidates = itertools.chain(
        ((y0, y1, den) for y0, y1 in vertices),
        ((p0 + q0, p1 + q1, 2 * den)
         for (p0, p1), (q0, q1) in itertools.combinations(vertices, 2)),
        [(sum(p[0] for p in vertices), sum(p[1] for p in vertices), len(vertices) * den)])
    for y0, y1, det in candidates:
        if _strictly_dominated_nums(rows, y0, y1, det):
            return (Fraction(y0, det) - x[0], Fraction(y1, det) - x[1])
    return None


def _strictly_dominated_nums(rows: Sequence[tuple], y0: int, y1: int, det: int) -> bool:
    """:func:`_strictly_dominated` at y = (y0, y1) / det, det > 0, on integer rows, for
    y in X: each candidate of the search is a convex combination of points of X."""
    slack = _row_slacks(rows, det, y0, y1)
    return any(all(s > 0 for row, s in zip(rows, slack) if row[i] > 0) for i in (0, 1))


def replay_dominated_direction(rows_a, rhs, bidders, outcome, direction) -> bool:
    """Independently confirm a witness direction (used for witness soundness),
    on the same bounded 2D packing polytopes as :func:`check_dominated_direction`."""
    a, b = _bounded_packing_2d(rows_a, rhs)
    x = outcome.allocation
    v = [bd.value for bd in bidders]
    d = vector(direction, 2)
    if v[0] * d[0] + v[1] * d[1] < 0:
        return False
    if any(d[i] > 0 for i in outcome.exhausted):
        return False
    return _strictly_dominated(a, b, (x[0] + d[0], x[1] + d[1]))


def fuzz_truthfulness(run_fn: Callable, true_reports: Sequence,
                      deviation_grids: Sequence[Sequence],
                      utility_fn: Callable) -> VerificationReport:
    """Hunt profitable misreports by exhaustive rerun over a deviation grid.

    ``run_fn(reports) -> Outcome`` must be value-independent in its price
    trajectory (fixed epsilon) for the truthfulness guarantee to apply.
    ``utility_fn(i, outcome)`` evaluates bidder i's TRUE utility.  Comparisons
    are exact; the report carries the most profitable deviation found.
    ``deviation_grids`` holds one grid per bidder; an empty grid skips that
    bidder.
    """
    if len(deviation_grids) != len(true_reports):
        raise DomainError(f"expected one deviation grid per bidder: {len(true_reports)} "
                          f"reports, {len(deviation_grids)} grids")
    baseline = run_fn(list(true_reports))
    best = None
    checked = 0
    for i, grid in enumerate(deviation_grids):
        truthful_utility = utility_fn(i, baseline)
        for deviation in grid:
            reports = list(true_reports)
            reports[i] = deviation
            outcome = run_fn(reports)
            gain = utility_fn(i, outcome) - truthful_utility
            checked += 1
            if gain > 0 and (best is None or gain > best[0]):
                best = (gain, i, deviation, outcome)
    report = VerificationReport()
    if best is None:
        report.add("truthfulness", True,
                   detail=f"no profitable deviation among {checked} misreports")
    else:
        gain, i, deviation, outcome = best
        report.add("truthfulness", False,
                   witness={
                       "bidder": i,
                       "deviation": _describe_report(deviation),
                       "gain": str(gain),
                       "deviating_x": [str(t) for t in outcome.allocation],
                       "deviating_pay": [str(t) for t in outcome.payments],
                   },
                   detail=f"bidder {i} gains {gain} by misreporting")
    return report


def _describe_report(report) -> object:
    if isinstance(report, ConcaveCurve):
        return [[str(q), str(v)] for q, v in report.breakpoints]
    return str(report)


def value_deviation_grid(values: Sequence[Fraction], i: int, eps: Fraction) -> list:
    """Deviation grid for linear bidders: multiplicative sweeps of v_i within
    [v/4, 4v], a near-zero report, and the rivals' values +- eps, the first
    :data:`DEVIATION_GRID_SIZE` distinct positive ones other than v_i."""
    v = as_fraction(values[i])
    factors = [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
               Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10),
               Fraction(11, 10), Fraction(5, 4), Fraction(4, 3), Fraction(3, 2),
               Fraction(2), Fraction(5, 2), Fraction(3), Fraction(4)]
    candidates = [v * f for f in factors]
    candidates.append(v / 1000)
    for j, other in enumerate(values):
        if j != i:
            candidates.append(as_fraction(other) + eps)
            candidates.append(as_fraction(other) - eps)
    grid, seen = [], {v}
    for c in candidates:
        if c > 0 and c not in seen:
            seen.add(c)
            grid.append(c)
    return grid[:DEVIATION_GRID_SIZE]


def curve_deviation_grid(curve: ConcaveCurve) -> list:
    """Per-segment slope perturbations (x2 and /2) that keep the curve concave."""
    segments = curve.segments()
    grid = []
    seen = {curve.breakpoints}
    for idx in range(len(segments)):
        for factor in (Fraction(2), Fraction(1, 2)):
            new_segments = [(end - start, slope * factor if t == idx else slope)
                            for t, (start, end, slope) in enumerate(segments)]
            try:
                candidate = ConcaveCurve.from_slopes(new_segments)
            except DomainError:
                continue
            if candidate.breakpoints not in seen:
                seen.add(candidate.breakpoints)
                grid.append(candidate)
    return grid


def validate_trace(oracle: SubmodularOracle, snapshots: Sequence[TraceSnapshot]
                   ) -> VerificationReport:
    """Recompute the step invariants of a traced run from its snapshots.

    Monitors: the conserved quantity 1'rho + fhat([n]) equals f([n]) at every
    snapshot, and the snapshot's recorded fhat([n]) is the recomputed one;
    after each clinch fhat([n]) <= fhat([n] \\ j) for all j; re-clinching
    immediately yields zero; rho stays in the polytope; remaining
    budgets stay nonnegative.  A violation produces a fail entry with the
    first offending step, never a crash.  A malformed snapshot, one whose
    ``promised``, ``demands``, ``clinched``, ``prices`` or ``budgets`` does
    not have n entries or whose demands are not >= 0, raises
    :class:`DomainError` naming the step and the field.

    The monitors are decided on integers, by reduced ranks, so past the
    enumeration cap on oracles with a structural solver.  Each snapshot is
    read through its integer view (``TraceSnapshot._nums``): the loop's own
    integers for a snapshot the loop took, so that a trace whose monitors
    pass builds no ``Fraction``.  Its rho, d and recorded fhat([n]) go over
    one denominator with f([n]), the rank's and the snapshots' before it,
    each by an integer ratio.  rho is in P(f) iff R(rho) = rho([n]), and
    where it is not, the same solve names the violated set as
    :func:`~polyclinch.submodular.membership` would (a rho equal to the one
    before is not solved again).  fhat([n]) and the clinch delta come from
    one solve at rho + d by the engines' own kernel,
    :func:`~polyclinch.submodular._clinch_nums`: dominance and the re-clinch
    fail exactly where some delta_j > 0, that is fhat([n]) > fhat([n] \\ j),
    with delta from the solve's ``clinch(rho)``; a passing trace reads no
    smallest minimizer.  Each solve at rho starts from the last solution at
    rho, and each at rho + d from the last at rho + d, since consecutive
    snapshots differ in a few entries.  Witnesses are built, as
    ``Fraction``s, only where a monitor fails, and every n takes this one
    path; the ``Fraction`` reference that tabulates 2^n sets lives in the
    tests.  A snapshot with the same (rho, d) and recorded fhat([n]) over
    the same denominator as the one before it, as a step that skipped its
    clinch leaves, is skipped after its budget check: its witnesses could
    only repeat ones already found.  Budgets are checked once per budgets
    tuple, which such a step shares with the one before.
    """
    n = oracle.n
    target = oracle.value_mask((1 << n) - 1)
    sizes = (n,) * len(_VECTORS)
    rank = oracle.rank()
    at_rho = at_c = rank                 # the last solutions at rho and at rho + d; rank: cold
    den = math.lcm(rank.den, target.denominator)   # only grows: each solve starts from the last
    report = VerificationReport()
    feasible = budgets_ok = None
    found = (None, None, None)           # conserved, dominance, reclinch
    last = None                          # the integer view of the snapshot before
    budgets = None                       # the budgets tuple checked last

    for snap in snapshots:
        nums = snap._nums
        shape, snap_den, rho, d, recorded, remaining = nums
        if shape != sizes:
            name, size = next((name, size) for name, size in zip(_VECTORS, shape) if size != n)
            raise DomainError(f"trace step {snap.step}: {name} has {size} entries, "
                              f"expected one per bidder ({n})")
        if budgets_ok is None and remaining is not budgets:
            budgets = remaining
            i = next((i for i, b in enumerate(budgets) if b is not None and b < 0), None)
            if i is not None:
                budgets_ok = {"step": snap.step, "bidder": i, "budget": str(snap.budgets[i])}
        if last is not None and nums[1:5] == last[1:5]:
            continue
        # rho seen at the snapshot before, which passed feasibility, passes again
        checked = last is not None and (snap_den, rho) == last[1:3]
        last = nums
        den = math.lcm(den, snap_den)
        k = den // snap_den
        if k != 1:
            rho, d, recorded = [x * k for x in rho], [x * k for x in d], recorded * k
        if min(d) < 0:
            i = next(i for i, v in enumerate(d) if v < 0)
            raise DomainError(f"trace step {snap.step}: demands must be >= 0, "
                              f"got demands[{i}] = {snap.demands[i]}")
        scale, rtotal = den // rank.den, sum(rho)
        if min(rho) < 0:
            feasible = {"step": snap.step, "violating_set": [],
                        "detail": "negative promised allocation"}
        elif not checked:
            at_rho = at_rho.solve(scale, rho)
            if at_rho.total != rtotal:
                member = _membership_from(oracle, snap.promised, at_rho, den, rtotal)
                feasible = {"step": snap.step, "violating_set": sorted(member.violating)}
        if feasible is not None:
            # Without feasibility the residual oracle is undefined; report
            # the feasibility breach and stop recomputing the rest.
            break
        total, delta, at_c = _clinch_nums(at_c, scale, rho, d)
        if (rtotal + total == target.numerator * (den // target.denominator)
                and total == recorded and not any(delta)):
            continue
        witnesses = _residual_witnesses(snap, target, Fraction(total, den),
                                        [Fraction(x, den) for x in delta])
        found = tuple(new if old is None else old for old, new in zip(found, witnesses))
    conserved, dominance, reclinch = found

    report.add("conserved-quantity", conserved is None, conserved,
               f"1'rho + fhat([n]) stays {target}" if conserved is None else "")
    report.add("post-clinch-dominance", dominance is None, dominance)
    report.add("reclinch-zero", reclinch is None, reclinch)
    report.add("feasibility", feasible is None, feasible)
    report.add("budgets-nonnegative", budgets_ok is None, budgets_ok)
    return report


def _residual_witnesses(snap: TraceSnapshot, target: Fraction, total: Fraction,
                        delta: Sequence[Fraction]) -> tuple:
    """Witnesses of the conservation, dominance and re-clinch monitors at one
    snapshot, from fhat([n]) = ``total`` and the clinch ``delta`` there;
    None where a monitor holds."""
    value = sum(snap.promised, ZERO) + total
    conserved = None
    if value != target:
        conserved = {"step": snap.step, "value": str(value), "expected": str(target)}
    elif snap.residual_total != total:
        conserved = {"step": snap.step, "fhat_full": str(snap.residual_total),
                     "recomputed": str(total)}
    # delta_j > 0 is fhat([n]) > fhat([n] \ j): dominance breaks, the re-clinch is nonzero
    j = next((j for j, x in enumerate(delta) if x), None)
    if j is None:
        return conserved, None, None
    return conserved, {"step": snap.step, "j": j}, {
        "step": snap.step, "delta": [str(x) for x in delta]}


def run_with_monitors(oracle: SubmodularOracle, bidders: Sequence[Bidder],
                      cfg: AuctionConfig) -> Tuple[Outcome, VerificationReport]:
    """Run the clinching auction with tracing and recheck every step invariant."""
    outcome = run_clinching(oracle, bidders, replace(cfg, trace=True))
    report = validate_trace(oracle, outcome.trace)
    return outcome, report


# ---------------------------------------------------------------------------
# Counterexample demos
# ---------------------------------------------------------------------------

APPENDIX_D_SUPPLY = Fraction(2)
APPENDIX_D_BUDGETS = (None, Fraction(4))


def appendix_d_curves() -> list:
    """Truthful valuations: marginals (4 then 1) on [0,2], and flat 3."""
    return [ConcaveCurve.from_slopes([(1, 4), (1, 1)]),
            ConcaveCurve.from_slopes([(2, 3)])]


def appendix_d_deviation() -> ConcaveCurve:
    """Bidder 0's profitable lie: inflate the second marginal from 1 to 2."""
    return ConcaveCurve.from_slopes([(1, 4), (1, 2)])


def demo_appendix_d() -> VerificationReport:
    """Reproduce the decreasing-marginals non-truthfulness counterexample.

    Supply 2, budgets (unbounded, 4).  Telling the truth yields x = (1, 1)
    with payments (3, 1).  Misreporting the second marginal as 2 makes the
    rival clinch one unit at clock price 2, exhausting his cheap demand, after
    which bidder 0 buys his unit strictly below 3.
    """
    cfg = AuctionConfig(epsilon=Fraction(1, 2), trace=True)
    curves = appendix_d_curves()
    truthful = run_decreasing_marginals(curves, APPENDIX_D_BUDGETS,
                                        APPENDIX_D_SUPPLY, cfg)
    deviating = run_decreasing_marginals([appendix_d_deviation(), curves[1]],
                                         APPENDIX_D_BUDGETS, APPENDIX_D_SUPPLY, cfg)

    report = VerificationReport()
    report.add("truthful-allocation", truthful.allocation == (Fraction(1), Fraction(1)),
               {"x": [str(t) for t in truthful.allocation]})
    report.add("truthful-payments", truthful.payments == (Fraction(3), Fraction(1)),
               {"pay": [str(t) for t in truthful.payments]})
    report.add("deviating-allocation", deviating.allocation[0] == 1,
               {"x": [str(t) for t in deviating.allocation]})
    report.add("deviating-pays-less", deviating.payments[0] < 3,
               {"pay": [str(t) for t in deviating.payments]})
    clinch_at_two = any(snap.clinched[1] == 1 and snap.prices[1] == 2
                        for snap in deviating.trace)
    report.add("rival-clinches-at-price-two", clinch_at_two)
    true_curve = curves[0]
    gain = ((true_curve.value_at(deviating.allocation[0]) - deviating.payments[0])
            - (true_curve.value_at(truthful.allocation[0]) - truthful.payments[0]))
    report.add("deviation-strictly-profitable", gain > 0, {"gain": str(gain)})
    report.narrative.append(
        "truthful outcome x=(1,1), pay=(3,1); the misreport lets the rival "
        "clinch one unit at price 2 and leaves bidder 0 paying "
        f"{deviating.payments[0]} < 3 (utility gain {gain}).")
    report.attachments["truthful"] = truthful.to_json()
    report.attachments["deviating"] = deviating.to_json()
    return report


IMPOSSIBILITY_ROWS = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(2)))
IMPOSSIBILITY_RHS = (Fraction(6), Fraction(6))
IMPOSSIBILITY_BUDGETS = (Fraction(1), Fraction(1))


def _efficient_value(rows, rhs, values) -> Fraction:
    verts = polytope_vertices(rows, rhs)
    return max(values[0] * p[0] + values[1] * p[1] for p in verts)


def demo_impossibility() -> VerificationReport:
    """Pareto failure of generic 2-bidder clinching on a non-polymatroid.

    Fixed polytope {2x0 + x1 <= 6, x0 + 2x1 <= 6}, budgets (1, 1), epsilon
    1/20.  The untraced sweep covers the large-value-gap profiles singled
    out by the impossibility argument (v0 between the exhaustion threshold
    ~0.619 and 2/3, v1 large) and the grid v0, v1 in {1/10, .., 6/10} of
    close and tied values.  ``pareto-failure-detected`` maps the profiles
    whose dominated-direction witness replays for soundness, and
    ``attachments.outcomes`` holds every profile's outcome.

    The impossibility argument concerns a hypothetical mechanism that is
    Pareto optimal whenever budgets do not bind; the round-robin clinching
    engine is not one, and shows the impossibility the other way round.  The
    properties state what it does, so the report passes exactly when the
    engine behaves as documented:

    * at the pinned profile v = (13/20, 10) the rival's budget exhausts and
      the outcome sits on the facet x0 + 2x1 = 6 with no dominated direction;
    * at tied small values v = (1/10, 1/10) no budget binds, the welfare
      falls short of the efficient (2, 2), and a dominated direction is
      found and replayed.
    """
    cfg = AuctionConfig(epsilon=Fraction(1, 20))
    rows, rhs = IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS
    report = VerificationReport()

    grid = [Fraction(k, 10) for k in range(1, 7)]
    sweep = [(Fraction(13, 20), Fraction(10)),
             (Fraction(5, 8), Fraction(10)),
             (Fraction(16, 25), Fraction(8))] + [(v0, v1) for v0 in grid for v1 in grid]
    found = {}
    outcomes = {}
    runs = {}
    for v0, v1 in sweep:
        bidders = [Bidder(v0, IMPOSSIBILITY_BUDGETS[0]),
                   Bidder(v1, IMPOSSIBILITY_BUDGETS[1])]
        outcome = run_generic_2player(rows, rhs, bidders, cfg)
        direction = check_dominated_direction(rows, rhs, bidders, outcome)
        key = f"v=({v0},{v1})"
        outcomes[key] = outcome.to_json(with_trace=False)
        runs[key] = (bidders, outcome, direction)
        if direction is not None and replay_dominated_direction(
                rows, rhs, bidders, outcome, direction):
            found[key] = {"direction": [str(t) for t in direction]}
    report.add("pareto-failure-detected", bool(found),
               {"profiles": sorted(found), "witnesses": found},
               f"{len(found)} of {len(sweep)} profiles admit a replayed "
               "dominated direction")

    _, pinned_out, pinned_dir = runs["v=(13/20,10)"]
    pinned_x = pinned_out.allocation
    facet = pinned_x[0] + 2 * pinned_x[1]
    report.add("pinned-profile-on-frontier",
               pinned_out.exhausted == {1} and facet == 6 and pinned_dir is None,
               {"x": [str(t) for t in pinned_x], "exhausted": sorted(pinned_out.exhausted),
                "x0+2x1": str(facet),
                "direction": None if pinned_dir is None else [str(t) for t in pinned_dir]},
               "at v = (13/20, 10) the rival's budget exhausts exactly and the "
               "outcome sits on the facet x0 + 2x1 = 6, so no dominated "
               "direction exists")

    small, small_out, small_dir = runs["v=(1/10,1/10)"]
    efficient = _efficient_value(rows, rhs, [b.value for b in small])
    welfare = sum(b.value * x for b, x in zip(small, small_out.allocation))
    report.add("small-values-no-exhaustion", not small_out.exhausted,
               {"pay": [str(t) for t in small_out.payments]})
    report.add("small-values-inefficient", welfare < efficient,
               {"x": [str(t) for t in small_out.allocation],
                "welfare": str(welfare), "efficient": str(efficient)},
               "tied values make (2,2) the unique welfare maximizer, but the "
               "round-robin clock retires one bidder first and the rival "
               "sweeps a corner")
    report.add("small-values-direction-replayed", "v=(1/10,1/10)" in found,
               None if small_dir is None else {"direction": [str(t) for t in small_dir]},
               "no budget binds, yet the corner outcome admits a dominated "
               "direction: the Pareto failure the impossibility predicts")

    # v is the root of log(3v/2) = v/2 on [1, 2], 1.23812..., and v/2 = 0.61906...
    report.narrative.append(
        "budget-exhaustion price threshold from log(3v/2) = v/2: v ~ 1.2381 "
        "(reported to 1e-4; the large-gap sweep uses v0 in (0.61906, 2/3)).")
    report.attachments["outcomes"] = outcomes
    return report
