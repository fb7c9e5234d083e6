"""The clock loop that clinches at every step: the reference for ``auction._run_loop``.

``reference_run_loop`` is the loop as it stood before it skipped zero
clinches and moved its state to integers.  It runs in ``Fraction``
arithmetic, calls the clinch at every step, evaluates every bidder's demand
at every step, and evaluates them all again for the post-clinch demands.
``auction._run_loop`` takes one demand rule per run from the engine and,
after the first step, evaluates it only for the clocked bidder; it skips a
step's clinch when the step's demands equal the last clinch's d - delta,
carries d - delta forward as the post-clinch demands, and keeps its state as
integers over a growing denominator.  The two must give identical outcomes,
traces and errors.

The reference does not reuse the engines' callbacks, which work on the
loop's integers: ``fraction_rules`` states each engine's demand, clinch and
residual total with the public ``Fraction`` functions (``demand``,
``ConcaveCurve.demand_quantity``, ``clinch_kernel``,
``clinch_generic_2player``) and the ``Fraction`` reference of the generic
engine (``reference_generic.py``).  A snapshot's residual total fhat([n])
is R(rho + d) - rho([n]), from one solve of the oracle's reduced rank
(``corpus.reduced_rank``) and not from a clinch kernel, so counting the
kernel's runs counts the clinches alone.

``reference_run`` and ``recorded_run`` run an engine on either loop and
record what the loop did, so tests can line the two runs up step by step.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from typing import List
from unittest import mock

import reference_generic
from corpus import reduced_rank
from polyclinch import auction
from polyclinch.auction import (
    Outcome,
    TraceSnapshot,
    _scaled_bidders,
    _stretched,
    clinch_generic_2player,
    demand,
    run_clinching,
    run_decreasing_marginals,
    run_generic_2player,
    run_scaled,
)
from polyclinch.cli import _run_instance
from polyclinch.environments import multi_unit_oracle
from polyclinch.errors import DivergenceError
from polyclinch.submodular import ZERO, as_fraction, clinch_kernel, vector

# One reference step: promises and demands the clinch saw, the clinch, and
# the demands recomputed after it.
Step = namedtuple("Step", "promised demands delta after")

# An engine's run in Fraction arithmetic: demands(prices, promised, budgets)
# is every bidder's demand, clinch(rho, d) the clinch vector and fhat(rho, d)
# the residual total of a snapshot.
Rules = namedtuple("Rules", "n eps max_steps budgets0 trace demands clinch fhat")


def _polymatroid_rules(oracle, eps, cfg, budgets0, demands) -> Rules:
    return Rules(oracle.n, eps, cfg.max_steps, budgets0, cfg.trace, demands,
                 lambda rho, d: clinch_kernel(oracle, rho, d)[1],
                 lambda rho, d: (reduced_rank(oracle, [r + q for r, q in zip(rho, d)])[0]
                                 - sum(rho, ZERO)))


def fraction_rules(engine, *args) -> Rules:
    """The :class:`Rules` of ``engine(*args)``, for one of the three engines."""
    if engine is run_clinching:
        oracle, bidders, cfg = args
        values = [b.value for b in bidders]
        singles = [oracle.singleton(i) for i in range(oracle.n)]

        def demands(prices, promised, budgets):
            return [demand(budgets[i], prices[i], values[i], singles[i] - promised[i])
                    for i in range(oracle.n)]
        return _polymatroid_rules(oracle, cfg.resolve_epsilon(values), cfg,
                                  [b.budget for b in bidders], demands)
    if engine is run_decreasing_marginals:
        curves, budgets0, supply, cfg = args
        tops = [curve.segments()[0][2] for curve in curves]

        def demands(prices, promised, budgets):
            return [demand(budgets[i], prices[i], tops[i],
                           curves[i].demand_quantity(promised[i], prices[i]))
                    for i in range(len(curves))]
        eps = cfg.resolve_epsilon([s for curve in curves for _, _, s in curve.segments()])
        return _polymatroid_rules(multi_unit_oracle(supply, len(curves)), eps, cfg,
                                  [None if b is None else as_fraction(b) for b in budgets0],
                                  demands)
    if engine is run_generic_2player:
        rows, rhs, bidders, cfg = args
        a, b = tuple(vector(row) for row in rows), vector(rhs)
        values = [bd.value for bd in bidders]

        def demands(prices, promised, budgets):
            caps = reference_generic.caps(a, b, promised)
            return [demand(budgets[i], prices[i], values[i], caps[i]) for i in range(2)]
        return Rules(2, cfg.resolve_epsilon(values), cfg.max_steps,
                     [bd.budget for bd in bidders], cfg.trace, demands,
                     lambda rho, d: clinch_generic_2player(rows, rhs, rho, d),
                     lambda rho, d: reference_generic.residual_total(a, b, rho, d))
    raise ValueError(f"no Fraction rules for {engine.__name__}")


def reference_run_loop(rules: Rules, steps=None) -> Outcome:
    n, eps = rules.n, rules.eps
    prices = [ZERO] * n
    promised = [ZERO] * n
    payments = [ZERO] * n
    budgets = list(rules.budgets0)
    clock = 0
    snapshots: List[TraceSnapshot] = []
    for step in range(rules.max_steps):
        demands = rules.demands(prices, promised, budgets)
        before = tuple(promised), tuple(demands)
        delta = rules.clinch(promised, demands)
        for i in range(n):
            if delta[i] != 0:
                promised[i] += delta[i]
                charge = prices[i] * delta[i]
                payments[i] += charge
                if budgets[i] is not None:
                    budgets[i] -= charge
        demands = rules.demands(prices, promised, budgets)
        if steps is not None:
            steps.append(Step(*before, tuple(delta), tuple(demands)))
        if rules.trace:
            snapshots.append(TraceSnapshot(
                step, tuple(prices), tuple(promised), tuple(demands),
                tuple(delta), tuple(budgets), rules.fhat(promised, demands)))
        prices[clock] += eps
        clock = (clock + 1) % n
        if not any(demands):
            break
    else:
        raise DivergenceError(
            f"auction did not terminate within {rules.max_steps} steps: it stopped at "
            f"prices ({', '.join(map(str, prices))}) with demands "
            f"({', '.join(map(str, demands))}) still positive; raise max_steps "
            "or epsilon, or check the reported values",
            step=rules.max_steps, prices=tuple(prices), demands=tuple(demands))

    exhausted = frozenset(i for i in range(n) if rules.budgets0[i] is not None
                          and payments[i] == rules.budgets0[i])
    return Outcome(tuple(promised), tuple(payments),
                   tuple(snapshots) if rules.trace else None, exhausted)


def engine_call(inst, trace: bool) -> tuple:
    """``(engine, args)`` that ``cli._run_instance(inst, trace)`` runs."""
    cfg = replace(inst.config, trace=trace)
    if inst.environment.kind == "h-polytope-2d":
        return run_generic_2player, (*inst.polytope_rows(), inst.bidders, cfg)
    if inst.curves is not None:
        return run_decreasing_marginals, (inst.curves, [b.budget for b in inst.bidders],
                                          inst.environment.payload["supply"], cfg)
    if inst.quality is not None:
        return run_scaled, (inst.build_oracle(), inst.quality, inst.bidders, cfg)
    return run_clinching, (inst.build_oracle(), inst.bidders, cfg)


def reference_run(engine, *args):
    """``engine(*args)`` on the reference loop: ``(outcome, steps)``.

    ``engine`` is one of the three engines, :func:`run_scaled` (the base run,
    stretched back) or ``cli._run_instance``.
    """
    if engine is _run_instance:
        engine, args = engine_call(*args)
        return reference_run(engine, *args)
    if engine is run_scaled:
        oracle, gamma, bidders, cfg = args
        factors, base = _scaled_bidders(oracle.n, gamma, bidders)
        outcome, steps = reference_run(run_clinching, oracle, base, cfg)
        return _stretched(factors, outcome), steps
    steps = []
    return reference_run_loop(fraction_rules(engine, *args), steps), steps


def recorded_run(engine, *args):
    """``engine(*args)`` on ``auction._run_loop``: ``(outcome, clinch inputs)``.

    The clinch inputs are the ``(promised, demands)`` pairs ``clinch_fn`` was
    called with, in order, as ``Fraction`` tuples: the loop's numerators over
    its denominator at the call.
    """
    calls = []
    loop = auction._run_loop

    def recording(n, units, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn):
        def clinch(rho, d):
            calls.append((tuple(Fraction(x, units.den) for x in rho),
                          tuple(Fraction(x, units.den) for x in d)))
            return clinch_fn(rho, d)
        return loop(n, units, max_steps, budgets0, demands_fn, clinch, fhat_fn)
    with mock.patch.object(auction, "_run_loop", recording):
        outcome = engine(*args)
    return outcome, calls


def clinching_steps(steps) -> list:
    """Indices of the reference steps whose demands differ from the previous
    step's post-clinch demands: the steps the skipping loop clinches at."""
    return [k for k, s in enumerate(steps) if k == 0 or s.demands != steps[k - 1].after]
