"""The clock loop skips provably zero clinches: exact against the every-step loop.

Every engine runs twice, once on ``auction._run_loop`` and once on the
reference loop of ``reference_loop.py``, which clinches at every step,
recomputes the post-clinch demands and works in ``Fraction`` arithmetic
throughout.  Outcomes and traces must agree byte for byte; the skipping loop
must clinch at exactly the steps whose demands differ from the previous
step's post-clinch demands, and the reference clinch must be zero at every
other step.
"""

import copy
import json
import pathlib
import pickle
import random
from fractions import Fraction
from unittest import mock

import pytest

from polyclinch import (
    AuctionConfig,
    Bidder,
    ConcaveCurve,
    DivergenceError,
    multi_unit_oracle,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    single_keyword_oracle,
)
from polyclinch import auction
from polyclinch.auction import polytope_vertices
from polyclinch.cli import _run_instance
from polyclinch.instances import generate_instance, parse_instance
from polyclinch.verify import (
    APPENDIX_D_BUDGETS,
    APPENDIX_D_SUPPLY,
    IMPOSSIBILITY_BUDGETS,
    IMPOSSIBILITY_RHS,
    IMPOSSIBILITY_ROWS,
    appendix_d_curves,
    curve_deviation_grid,
)

from corpus import KINDS, polymatroid_cases, random_bidders, random_oracle, table_only
from reference_loop import clinching_steps, recorded_run, reference_run

F = Fraction
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
CONFIGS = [AuctionConfig(epsilon=eps, trace=trace)
           for eps in ("auto", F(1, 4)) for trace in (False, True)]


def assert_matches_reference(engine, *args) -> int:
    """Check one run against the reference loop; returns the steps skipped."""
    new, calls = recorded_run(engine, *args)
    ref, steps = reference_run(engine, *args)
    assert new == ref                    # allocation, payments, trace, exhausted
    assert json.dumps(new.to_json()) == json.dumps(ref.to_json())
    clinched = clinching_steps(steps)
    assert calls == [steps[k][:2] for k in clinched]
    skipped = set(range(len(steps))) - set(clinched)
    for k in skipped:
        assert not any(steps[k].delta), f"step {k} skipped a nonzero clinch"
    return len(skipped)


def test_seeded_corpus_matches_reference_loop():
    skipped = 0
    for label, oracle, bidders in polymatroid_cases(6006, 40, n_max=5):
        for cfg in CONFIGS:
            skipped += assert_matches_reference(run_clinching, oracle, bidders, cfg)
            if label.startswith("single-keyword"):
                skipped += assert_matches_reference(
                    run_clinching, table_only(oracle), bidders, cfg)
    assert skipped > 0


def test_decreasing_marginals_match_reference_loop():
    curves = appendix_d_curves()
    budgets = list(APPENDIX_D_BUDGETS)
    skipped = 0
    for cfg in CONFIGS + [AuctionConfig(epsilon=F(1, 20), trace=True)]:
        skipped += assert_matches_reference(run_decreasing_marginals, curves, budgets,
                                            APPENDIX_D_SUPPLY, cfg)
    cfg = AuctionConfig(epsilon=F(1, 20), trace=True)
    for deviation in curve_deviation_grid(curves[0]):
        skipped += assert_matches_reference(run_decreasing_marginals,
                                            [deviation] + curves[1:], budgets,
                                            APPENDIX_D_SUPPLY, cfg)
    rng = random.Random(62)
    for t in range(12):
        supply = F(rng.randint(1, 4))
        n = rng.randint(2, 4)
        curves = [ConcaveCurve.from_slopes([(supply / 2, rng.randint(3, 6)),
                                            (supply / 2, rng.randint(1, 3))])
                  for _ in range(n)]
        budgets = [None if rng.random() < 0.3 else F(rng.randint(1, 8)) for _ in range(n)]
        skipped += assert_matches_reference(run_decreasing_marginals, curves, budgets,
                                            supply, CONFIGS[t % len(CONFIGS)])
    assert skipped > 0


def test_impossibility_sweep_matches_reference_loop():
    # the grid of the impossibility demo and large-gap profiles
    values = [F(k, 10) for k in range(1, 7)] + [F(1), F(2)]
    skipped = 0
    for v0 in values:
        for v1 in values:
            bidders = [Bidder(v0, IMPOSSIBILITY_BUDGETS[0]),
                       Bidder(v1, IMPOSSIBILITY_BUDGETS[1])]
            for eps, trace in ((F(1, 20), True), (F(1, 40), False)):
                skipped += assert_matches_reference(
                    run_generic_2player, IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders,
                    AuctionConfig(epsilon=eps, trace=trace))
    assert skipped > 0


@pytest.mark.parametrize("stem", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_fixtures_match_reference_loop(stem):
    inst = parse_instance(FIXTURES / f"{stem}.json")
    for trace in (False, True):
        assert_matches_reference(_run_instance, inst, trace)


def callback_events(engine, *args) -> tuple:
    """``engine(*args)`` on ``auction._run_loop``: ``(outcome, events)``, the
    loop's ``clinch_fn`` and ``fhat_fn`` calls in order, as their names."""
    events = []
    loop = auction._run_loop

    def recording(n, units, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn):
        def clinch(rho, d):
            events.append("clinch")
            return clinch_fn(rho, d)

        def fhat(rho, d):
            events.append("fhat")
            return fhat_fn(rho, d)
        return loop(n, units, max_steps, budgets0, demands_fn, clinch, fhat)
    with mock.patch.object(auction, "_run_loop", recording):
        return engine(*args), events


def _traced_runs():
    """``(engine, args)`` of traced runs on every engine."""
    rng = random.Random(909)
    cfg = AuctionConfig(epsilon=F(1, 4), trace=True)
    runs = []
    for t in range(10):
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, KINDS[t % len(KINDS)], n)
        runs.append((run_clinching, (oracle, random_bidders(rng, n), cfg)))
    runs.append((run_decreasing_marginals,
                 (appendix_d_curves(), list(APPENDIX_D_BUDGETS), APPENDIX_D_SUPPLY,
                  AuctionConfig(epsilon=F(1, 20), trace=True))))
    for v0, v1 in ((F(1, 2), F(3, 5)), (F(1), F(4)), (F(13, 20), F(10))):
        bidders = [Bidder(v, b) for v, b in zip((v0, v1), IMPOSSIBILITY_BUDGETS)]
        runs.append((run_generic_2player,
                     (IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders,
                      AuctionConfig(epsilon=F(1, 20), trace=True))))
    return runs


def test_residual_total_is_taken_once_per_clinch():
    # fhat_fn runs right after each clinch_fn call and at no other step: a
    # step that skips its clinch keeps the last residual total
    skipped = 0
    for engine, args in _traced_runs():
        out, events = callback_events(engine, *args)
        clinches = events.count("clinch")
        assert events == ["clinch", "fhat"] * clinches, engine.__name__
        skipped += len(out.trace) - clinches
    assert skipped > 0


def test_generic_trace_totals_are_the_best_vertex_sums():
    # residual_total = max{x0 + x1 : x in P_{rho,d}}, from the snapshot's own
    # rho and d, at every snapshot, the ones that skipped the clinch included
    unit = ((1, 0), (0, 1))
    skipped = 0
    for rows, rhs in ((IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS),
                      (((1, 0), (0, 1), (1, 1)), (F(2), F(3), F(4)))):
        for v0, v1 in ((F(1, 2), F(3, 5)), (F(1), F(4)), (F(3, 10), F(2)), (F(1), F(1))):
            bidders = [Bidder(v, b) for v, b in zip((v0, v1), IMPOSSIBILITY_BUDGETS)]
            out, events = callback_events(run_generic_2player, rows, rhs, bidders,
                                          AuctionConfig(epsilon=F(1, 20), trace=True))
            skipped += len(out.trace) - events.count("clinch")
            for snap in out.trace:
                rho, d = snap.promised, snap.demands
                slack = [c - a0 * rho[0] - a1 * rho[1] for (a0, a1), c in zip(rows, rhs)]
                vertices = polytope_vertices(tuple(rows) + unit, slack + list(d))
                assert snap.residual_total == max(x + y for x, y in vertices)
    assert skipped > 0


def test_snapshots_built_on_first_read_match_the_reference():
    # a loop snapshot keeps the loop's integers and builds its Fraction
    # fields on first read, from the snapshot before it: whichever read comes
    # first (hash, repr, to_json or ==), in whichever order the snapshots are
    # read, last first included, each equals the reference loop's snapshot
    reads = (hash, repr, lambda snap: json.dumps(snap.to_json()), lambda snap: snap)
    runs = _traced_runs()
    for label, oracle, bidders in polymatroid_cases(5151, 12, n_max=6):
        runs.append((run_clinching, (oracle, bidders, AuctionConfig(trace=True))))
    for t, (engine, args) in enumerate(runs):
        trace = engine(*args).trace
        ref = reference_run(engine, *args)[0].trace
        assert not any(name in vars(snap) for snap in trace for name in ("prices", "promised"))
        order = range(len(trace)) if t % 3 else range(len(trace) - 1, -1, -1)
        for k in order:
            read = reads[(k + t) % len(reads)]
            assert read(trace[k]) == read(ref[k]), (engine.__name__, t, k)
        assert trace == ref and list(map(hash, trace)) == list(map(hash, ref))
        # built fields share the unchanged entries' objects with the snapshot before
        for before, snap in zip(trace, trace[1:]):
            assert all(a is b for a, b, x in zip(before.promised, snap.promised, snap.clinched)
                       if not x)


def test_a_late_snapshot_copies_without_its_chain():
    # an unbuilt snapshot links to the one before it; a copy or a pickle of
    # the last snapshot of a long trace holds its fields alone, with no
    # recursion down the chain
    inst = generate_instance("multi-unit", 64, None, 0)
    trace = run_clinching(inst.build_oracle(), inst.bidders,
                          AuctionConfig(epsilon=inst.config.epsilon, trace=True)).trace
    assert len(trace) > 500
    for copied in (copy.deepcopy(trace[-1]), pickle.loads(pickle.dumps(trace[-1]))):
        assert copied == trace[-1] and set(vars(copied)) == set(vars(trace[-1]))


def counted_run(engine, *args) -> tuple:
    """``engine(*args)`` on ``auction._run_loop``: ``(outcome, counts, dens)``,
    the calls of the loop's ``demands_fn`` and ``clinch_fn`` and of the
    demand rule's core, ``_demand_nums``, and D at each ``_demand_nums`` call."""
    counts = {"demands_fn": 0, "clinch_fn": 0, "demand": 0}
    dens = []
    loop, demand = auction._run_loop, auction._demand_nums

    def counting(name, fn):
        def counted(*fn_args):
            counts[name] += 1
            return fn(*fn_args)
        return counted

    def recording(n, units, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn):
        def demand_at_den(*fn_args):
            dens.append(units.den)
            return demand(*fn_args)
        with mock.patch.object(auction, "_demand_nums", counting("demand", demand_at_den)):
            return loop(n, units, max_steps, budgets0, counting("demands_fn", demands_fn),
                        counting("clinch_fn", clinch_fn), fhat_fn)
    with mock.patch.object(auction, "_run_loop", recording):
        return engine(*args), counts, dens


def test_one_demand_per_step_and_one_demand_rule_per_run():
    # demands_fn runs once per run and returns the demand rule, which reads
    # the loop's live state; the first step evaluates it for all n bidders,
    # every later step only for the clocked bidder, with no rebuild after a
    # clinch, also where D grows between clinches
    rng = random.Random(4242)
    cfg = AuctionConfig(epsilon=F(1, 4), trace=True)
    runs = []
    for kind in ("single-keyword", "graphic", "multi-unit"):
        n = rng.randint(3, 5)
        oracle = random_oracle(rng, kind, n)
        assert (oracle.ctrs is not None) == (kind in ("single-keyword", "multi-unit"))
        runs.append((run_clinching, (oracle, random_bidders(rng, n), cfg), n, False))
    runs.append((run_decreasing_marginals,
                 (appendix_d_curves(), list(APPENDIX_D_BUDGETS), APPENDIX_D_SUPPLY,
                  AuctionConfig(epsilon=F(1, 20), trace=True)), len(APPENDIX_D_BUDGETS), False))
    for v0, v1 in ((F(1, 2), F(3, 5)), (F(1), F(4))):
        bidders = [Bidder(v, b) for v, b in zip((v0, v1), IMPOSSIBILITY_BUDGETS)]
        runs.append((run_generic_2player,
                     (IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders,
                      AuctionConfig(epsilon=F(1, 20), trace=True)), 2, False))
    for engine, args in _growing_denominator_runs(AuctionConfig(epsilon=F(1, 7), trace=True)):
        n = len(args[2] if engine is run_generic_2player else args[1])
        runs.append((engine, args, n, True))
    engines = set()
    for engine, args, n, growing in runs:
        out, counts, dens = counted_run(engine, *args)
        steps = len(out.trace)
        assert counts["clinch_fn"] < steps, engine.__name__
        assert counts["demands_fn"] == 1, engine.__name__
        assert counts["demand"] == n + steps - 1, engine.__name__
        if growing:                                      # the rule read several D
            assert len(set(dens)) >= 3, engine.__name__
        engines.add(engine)
    assert engines == {run_clinching, run_decreasing_marginals, run_generic_2player}


def _denominators_at_clinches(engine, *args) -> tuple:
    """``engine(*args)`` on ``auction._run_loop``: ``(outcome, D at each clinch_fn call)``."""
    dens = []
    loop = auction._run_loop

    def recording(n, units, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn):
        def clinch(rho, d):
            dens.append(units.den)
            return clinch_fn(rho, d)
        return loop(n, units, max_steps, budgets0, demands_fn, clinch, fhat_fn)
    with mock.patch.object(auction, "_run_loop", recording):
        return engine(*args), dens


def _growing_denominator_runs(cfg):
    """``(engine, args)`` on every engine at ``cfg``, with budgets 5/3 and 7/11
    that bind for several ticks, so that B / p brings new denominators."""
    budgets = [F(5, 3), F(7, 11), None]
    bidders = [Bidder(F(3), budgets[0]), Bidder(F(5, 2), budgets[1]), Bidder(F(2), None)]
    curves = [ConcaveCurve.from_slopes([(1, 4), (2, F(3, 2))]),
              ConcaveCurve.from_slopes([(F(3, 2), 3), (F(3, 2), 1)])]
    return [
        (run_clinching, (multi_unit_oracle(F(3), 3), bidders, cfg)),
        (run_clinching, (single_keyword_oracle([F(2), F(1), F(1, 2)]), bidders, cfg)),
        (run_decreasing_marginals, (curves, budgets[:2], F(3), cfg)),
        (run_generic_2player, (IMPOSSIBILITY_ROWS, IMPOSSIBILITY_RHS, bidders[:2], cfg)),
    ]


def test_untraced_polymatroid_runs_build_only_the_outcomes_fractions():
    # a demand B / p that is not whole over D reaches the loop as a (num,
    # den) pair, so an untraced polymatroid run builds a Fraction only for
    # the Outcome's nonzero entries, also where D grows between clinches
    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return Fraction(*args, **kwargs)
    runs = 0
    for engine, args in _growing_denominator_runs(AuctionConfig(epsilon=F(1, 7))):
        if engine is run_generic_2player:
            continue
        built.clear()
        with mock.patch.object(auction, "Fraction", Counted):
            out = engine(*args)
        assert out.exhausted, engine.__name__                    # a budget bound
        assert len(built) == sum(1 for x in out.allocation + out.payments if x), (
            engine.__name__, built)
        runs += 1
    assert runs == 3


@pytest.mark.parametrize("trace", [False, True])
def test_growing_denominator_matches_reference_loop(trace):
    # epsilon = 1/7 and budgets 5/3 and 7/11: the demands B / p at the ticks
    # where a budget binds are not whole over the starting D, so D grows
    # between clinches, and outcomes and traces still equal the Fraction loop's
    cfg = AuctionConfig(epsilon=F(1, 7), trace=trace)
    for engine, args in _growing_denominator_runs(cfg):
        out, dens = _denominators_at_clinches(engine, *args)
        assert len(set(dens)) >= 3, engine.__name__           # D grew at least twice
        assert all(b % a == 0 for a, b in zip(dens, dens[1:]))  # by integer factors
        assert out.exhausted, engine.__name__                    # a budget bound
        assert_matches_reference(engine, *args)


def test_divergence_matches_reference_loop():
    # a run cut at max_steps reports the step, prices and demands it stopped
    # at, and the message, exactly as the Fraction loop does
    for max_steps in (1, 4, 9):
        for trace in (False, True):
            cfg = AuctionConfig(epsilon=F(1, 7), max_steps=max_steps, trace=trace)
            for engine, args in _growing_denominator_runs(cfg):
                with pytest.raises(DivergenceError) as new:
                    engine(*args)
                with pytest.raises(DivergenceError) as ref:
                    reference_run(engine, *args)
                assert new.value.step == ref.value.step == max_steps
                assert new.value.prices == ref.value.prices
                assert new.value.demands == ref.value.demands
                assert str(new.value) == str(ref.value)
