"""The generic 2-bidder engine on integer rows, against its ``Fraction`` form.

* Pinned traces.  The digests are SHA-256 sums of ``Outcome.to_json()``
  with the full step trace (prices, promises, demands, clinches, budgets and
  the residual total ``fhat_full``), dumped with sorted keys.  They were
  recorded on the ``Fraction`` engine, so any change to the clinch, the caps
  or the traced residual total that moves a single bit of a run shows here.
* The reference.  On random 2D packing polytopes the engine's clinch, demand
  caps and residual total equal those of ``reference_generic.py`` at points
  of P, and :func:`clinch_generic_2player` raises the reference's error at
  an infeasible rho.
* The dominated-direction search.  On 432 markets of the impossibility
  polytope, :func:`check_dominated_direction`, on integers, gives the
  witness of the ``Fraction`` search in ``reference_generic.py``.
* The polymatroid engine.  On 2-bidder polymatroids the generic engine and
  :func:`run_clinching` run one mechanism by independent code, so their
  outcomes are equal, traces included.
* The error contract of :func:`clinch_generic_2player`.
"""

import hashlib
import json
import pathlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_generic as ref
from polyclinch import (
    AuctionConfig,
    Bidder,
    DomainError,
    Outcome,
    PreconditionError,
    SubmodularOracle,
    clinch_generic_2player,
    run_clinching,
    run_generic_2player,
)
from polyclinch import auction
from polyclinch.auction import polytope_vertices
from polyclinch.cli import _run_instance
from polyclinch.instances import parse_instance
from polyclinch.submodular import _over_common_denominator
from polyclinch.verify import (
    IMPOSSIBILITY_BUDGETS,
    IMPOSSIBILITY_RHS,
    IMPOSSIBILITY_ROWS,
    check_dominated_direction,
)

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# rows with three different denominators, a zero coefficient, one unbounded budget
MIXED_ROWS = ((F(1, 3), F(5, 4)), (F(7, 6), F(0)), (F(1), F(1)))
MIXED_RHS = (F(2), F(3), F(5, 2))


def trace_digest(outcome) -> str:
    assert outcome.trace is not None
    return hashlib.sha256(json.dumps(outcome.to_json(), sort_keys=True).encode()).hexdigest()


def sweep_run(v0, v1):
    """One profile of the epsilon = 1/80 sweep on the impossibility polytope, traced."""
    bidders = [Bidder(v, b) for v, b in zip((v0, v1), IMPOSSIBILITY_BUDGETS)]
    return run_generic_2player(IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders,
                               AuctionConfig(epsilon=F(1, 80), trace=True))


PINNED = {
    "impossibility fixture": (
        lambda: _run_instance(parse_instance(FIXTURES / "impossibility.json"), True),
        26, "c988b0e79a7106445c276f32091c1af31f310dcd84898db863e3a43ff4be06ba"),
    # the longest sweep run; its promises reach 185-digit denominators
    "sweep v=(2,10)": (
        lambda: sweep_run(F(2), F(10)),
        320, "fc9dbf594122060c2d8ce445b5b41645f25f7af07b5d0a04408758e7b536d4f3"),
    "sweep v=(13/20,10)": (
        lambda: sweep_run(F(13, 20), F(10)),
        104, "b3e930606baf52ce6ed6c01eecd5e13e02999d2792fc768f7b3bd7d41f115191"),
    "mixed-denominator rows": (
        lambda: run_generic_2player(MIXED_ROWS, MIXED_RHS,
                                    [Bidder(F(3, 2), None), Bidder(F(5, 3), F(2))],
                                    AuctionConfig(epsilon=F(1, 12), trace=True)),
        36, "eaf775a83d45319ea41e10f3e3e6607b190e464ee090cd9b96e89cda27a59659"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_traced_run_matches_pinned_digest(name):
    run, steps, digest = PINNED[name]
    outcome = run()
    assert len(outcome.trace) == steps
    assert trace_digest(outcome) == digest


# ---------------------------------------------------------------------------
# the integer callbacks against the Fraction reference
# ---------------------------------------------------------------------------

COEFFICIENTS = [F(0), F(0), F(1, 3), F(5, 4), F(7, 6), F(1), F(2)]
RIGHT_HAND_SIDES = [F(0), F(1), F(5, 2), F(7, 3), F(3), F(6)]
MIX = [F(0), F(1), F(1, 2), F(1, 3), F(3, 2)]    # weights summing past 1 may leave P
DEMANDS = [F(0), F(1, 4), F(2, 3), F(1), F(7, 2), F(100)]   # 100 lies beyond every cap
AXIS_ROWS = ((F(1, 3), F(0)), (F(0), F(7, 6)))


def engine_callbacks(a, b) -> tuple:
    """``(caps, clinch, fhat)``: the loop callbacks of ``run_generic_2player`` on
    ``Fraction`` values.

    The loop passes numerators over its denominator D, which the callbacks
    read from the run's units; each wrapper puts its vectors over their
    least common denominator, sets D to it and divides what the callback
    returns by D.  ``caps(rho)`` evaluates the demand rule at price 0.
    """
    captured = []

    def capture(n, units, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn):
        captured.extend((units, demands_fn, clinch_fn, fhat_fn))
    with mock.patch.object(auction, "_run_loop", capture):
        run_generic_2player(a, b, [Bidder(F(1), None)] * 2,
                            AuctionConfig(epsilon=F(1), trace=True))
    units, demands_fn, clinch_fn, fhat_fn = captured

    def numerators(*vectors):
        units.den, nums = _over_common_denominator([v for vec in vectors for v in vec])
        return nums[:2], nums[2:]

    def caps(rho):
        rnum, _ = numerators(rho)
        demand = demands_fn([0, 0], rnum, [None, None])
        return tuple(auction._fraction(demand(i, 0), units.den) for i in range(2))

    def clinch(rho, d):
        return tuple(Fraction(x, units.den) for x in clinch_fn(*numerators(rho, d)))

    def fhat(rho, d):
        return Fraction(fhat_fn(*numerators(rho, d)), units.den)

    return caps, clinch, fhat


def outcome_of(fn, *args):
    """fn's value, or the type, message and witness of the error it raised."""
    try:
        return fn(*args)
    except (DomainError, PreconditionError) as err:
        return type(err), str(err), getattr(err, "witness", None)


@st.composite
def packing_cases(draw):
    """A 2D packing polytope, rho drawn around its vertices and demands d.

    Rows mix denominators 3, 4 and 6 and have zero coefficients and b = 0;
    a row may repeat a rescaled earlier one, so rows tie.  rho is a vertex, a
    point on a segment between two vertices (a facet when they are
    adjacent), or such a point pushed out of P.
    """
    n_rows = draw(st.integers(1, 4))
    a = [tuple(draw(st.sampled_from(COEFFICIENTS)) for _ in range(2)) for _ in range(n_rows)]
    b = [draw(st.sampled_from(RIGHT_HAND_SIDES)) for _ in range(n_rows)]
    for i in range(2):                   # bounded, so the demand caps exist
        if not any(row[i] > 0 for row in a):
            a.append(AXIS_ROWS[i])
            b.append(draw(st.sampled_from(RIGHT_HAND_SIDES)))
    if draw(st.booleans()):
        j = draw(st.integers(0, len(a) - 1))
        k = draw(st.sampled_from([F(1), F(3), F(2, 5)]))
        a.append((k * a[j][0], k * a[j][1]))
        b.append(k * b[j])
    vertices = polytope_vertices(a, b)
    p, q = draw(st.sampled_from(vertices)), draw(st.sampled_from(vertices))
    t, u = draw(st.sampled_from(MIX)), draw(st.sampled_from(MIX))
    rho = tuple(t * x + u * y for x, y in zip(p, q))
    d = tuple(draw(st.sampled_from(DEMANDS)) for _ in range(2))
    return tuple(a), tuple(b), rho, d


@settings(max_examples=300, deadline=None)
@given(packing_cases())
def test_integer_callbacks_match_fraction_reference(case):
    a, b, rho, d = case
    clinch = outcome_of(clinch_generic_2player, a, b, rho, d)
    assert clinch == outcome_of(ref.clinch_2d, a, b, rho, d)
    if min(ref.slack(a, b, rho)) < 0:
        return                            # rho outside P: the engine never calls back there
    caps, clinch_fn, fhat_fn = engine_callbacks(a, b)
    assert clinch_fn(rho, d) == clinch
    assert caps(rho) == ref.caps(a, b, rho)
    assert fhat_fn(rho, d) == ref.residual_total(a, b, rho, d)
    after = tuple(q + x for q, x in zip(rho, clinch))   # the post-clinch point the loop uses
    nu = tuple(q - x for q, x in zip(d, clinch))
    assert fhat_fn(after, nu) == ref.residual_total(a, b, after, nu)


# the 6 x 6 value grid of the epsilon = 1/80 sweep: close values and the
# large-gap profiles of the exhaustion argument
SWEEP_V0 = (F(3, 10), F(1, 2), F(5, 8), F(13, 20), F(1), F(2))
SWEEP_V1 = (F(1, 2), F(1), F(2), F(4), F(8), F(10))


def test_dominated_direction_matches_fraction_reference():
    # the integer search against the Fraction one of reference_generic.py on
    # 432 markets of the impossibility polytope: the 36 sweep profiles at
    # three epsilons and four budget pairs; each gives the same witness, or
    # None on both
    markets = found = 0
    for eps in (F(1, 80), F(1, 20), F(1, 7)):
        cfg = AuctionConfig(epsilon=eps)
        for budgets in ((F(1), F(1)), (F(1, 2), None), (None, None), (F(3), F(1, 3))):
            for v0 in SWEEP_V0:
                for v1 in SWEEP_V1:
                    bidders = [Bidder(v0, budgets[0]), Bidder(v1, budgets[1])]
                    out = run_generic_2player(IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders, cfg)
                    direction = check_dominated_direction(
                        IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders, out)
                    assert direction == ref.dominated_direction(
                        IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders, out), (eps, bidders)
                    markets += 1
                    found += direction is not None
    assert (markets, found) == (432, 70)


def test_dominated_direction_matches_fraction_reference_on_random_polytopes():
    # the same on random bounded polytopes, at points mixed from two of
    # their vertices, with random values and exhausted bidders, so that the
    # witness comes from every kind of candidate; first a market where two
    # midpoints are dominated and no vertex is, so that the candidates'
    # order decides the witness
    rows = [(F(7, 6), F(7, 6)), (F(7, 6), F(0)), (F(2), F(1, 3)), (F(2), F(1)), (F(1, 3), F(3, 2))]
    rhs = [F(5, 2), F(6), F(3), F(7, 3), F(3)]
    bidders = [Bidder(F(1), None), Bidder(F(2, 3), None)]
    out = Outcome((F(6, 49), F(290, 147)), (F(0), F(0)), None, frozenset())
    direction = check_dominated_direction(rows, rhs, bidders, out)
    assert direction is not None and direction == ref.dominated_direction(rows, rhs, bidders, out)
    rng = random.Random(4903)
    found = 0
    for _ in range(300):
        rows = [(rng.choice(COEFFICIENTS), rng.choice(COEFFICIENTS))
                for _ in range(rng.randint(0, 3))]
        rows.append((F(rng.randint(1, 4), rng.randint(1, 3)), F(rng.randint(1, 4), rng.randint(1, 3))))
        rhs = [rng.choice(RIGHT_HAND_SIDES) for _ in rows]
        p, q = (rng.choice(polytope_vertices(rows, rhs)) for _ in range(2))
        t, u = rng.choice(MIX[:3]), rng.choice(MIX[:3])
        x = tuple(t * a + (1 - t) * b for a, b in zip(p, q))
        x = tuple(u * a for a in x) if rng.random() < 0.5 else x
        bidders = [Bidder(F(rng.randint(1, 6), rng.randint(1, 3)), None) for _ in range(2)]
        exhausted = frozenset(i for i in range(2) if rng.random() < 0.3)
        out = Outcome(x, (F(0), F(0)), None, exhausted)
        direction = check_dominated_direction(rows, rhs, bidders, out)
        assert direction == ref.dominated_direction(rows, rhs, bidders, out), (rows, rhs, x)
        found += direction is not None
    assert found >= 100, found


# ---------------------------------------------------------------------------
# the polymatroid engine on the same market
# ---------------------------------------------------------------------------

def test_polymatroid_markets_run_the_same_on_both_engines():
    # f({0}), f({1}) with denominators up to 4 and f({0,1}) between their
    # maximum and their sum: the polymatroid is the polytope of the rows
    # x0 <= f0, x1 <= f1, x0 + x1 <= f01
    rng = random.Random(1212)
    exhausted = unbounded = 0
    for t in range(300):
        f0, f1 = (F(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(2))
        f01 = max(f0, f1) + min(f0, f1) * F(rng.randint(0, 4), 4)
        bidders = [Bidder(F(rng.randint(1, 8), rng.randint(1, 3)),
                          None if rng.random() < 0.3 else F(rng.randint(1, 12), rng.randint(1, 4)))
                   for _ in range(2)]
        cfg = AuctionConfig(epsilon=rng.choice((F(1, 4), F(1, 5), F(1, 8))), trace=True)
        f = {frozenset({0}): f0, frozenset({1}): f1, frozenset({0, 1}): f01}
        poly = run_clinching(SubmodularOracle.from_set_function(2, f.__getitem__), bidders, cfg)
        generic = run_generic_2player(((1, 0), (0, 1), (1, 1)), (f0, f1, f01), bidders, cfg)
        assert poly.trace and generic == poly, (t, f0, f1, f01, bidders, cfg.epsilon)
        exhausted += bool(poly.exhausted)
        unbounded += any(b.budget is None for b in bidders)
    assert exhausted >= 30 and unbounded >= 100, (exhausted, unbounded)


# ---------------------------------------------------------------------------
# the error contract of clinch_generic_2player
# ---------------------------------------------------------------------------

def test_negative_demand_is_a_domain_error():
    for d in ((F(1), F(-1)), (F(-1, 3), F(0))):
        with pytest.raises(DomainError) as err:
            clinch_generic_2player(MIXED_ROWS, MIXED_RHS, (F(0), F(0)), d)
        assert str(err.value) == "demands must be >= 0"
    with pytest.raises(DomainError):              # checked before rho's slack
        clinch_generic_2player(MIXED_ROWS, MIXED_RHS, (F(3), F(0)), (F(0), F(-1)))


@pytest.mark.parametrize("rho, row, message", [
    ((F(3), F(0)), 1, "rho violates packing row 1: slack -1/2 < 0"),
    ((F(1, 2), F(3, 2)), 0, "rho violates packing row 0: slack -1/24 < 0"),
])
def test_infeasible_rho_names_its_row_and_the_given_rows_slack(rho, row, message):
    # the slack printed is b_j - a_j rho of the row as given, not of its
    # integer rescaling
    with pytest.raises(PreconditionError) as err:
        clinch_generic_2player(MIXED_ROWS, MIXED_RHS, rho, (F(1), F(1)))
    assert err.value.witness == row
    assert str(err.value) == message


def test_rescaled_rows_clinch_the_same():
    # a row and the same row times a positive integer are one constraint
    for rho, d in (((F(0), F(0)), (F(1), F(1))), ((F(1, 2), F(1)), (F(3), F(1, 5))),
                   ((F(1), F(1, 3)), (F(2, 7), F(100)))):
        clinch = clinch_generic_2player(MIXED_ROWS, MIXED_RHS, rho, d)
        for k in (2, 12, 35):
            rows = [(k * a0, k * a1) for a0, a1 in MIXED_ROWS]
            assert clinch_generic_2player(rows, [k * c for c in MIXED_RHS], rho, d) == clinch
