"""The clock loop that clinches at every step: the reference for ``auction._run_loop``.

``reference_run_loop`` is the loop as it stood before it skipped zero
clinches.  It calls ``clinch_fn`` at every step, evaluates every bidder's
demand schedule at every step, and evaluates them all again for the
post-clinch demands.  ``auction._run_loop`` evaluates only the clocked
bidder's schedule, skips a step's clinch when the step's demands equal the
last clinch's d - delta, and carries d - delta forward as the post-clinch
demands.  The two must give identical outcomes and traces.

``reference_run`` and ``recorded_run`` run an engine on either loop and
record what the loop did, so tests can line the two runs up step by step.
"""

from __future__ import annotations

from collections import namedtuple
from typing import List
from unittest import mock

from polyclinch import auction
from polyclinch.auction import Outcome, TraceSnapshot
from polyclinch.errors import DivergenceError
from polyclinch.submodular import ZERO

# One reference step: promises and demands the clinch saw, the clinch, and
# the demands recomputed after it.
Step = namedtuple("Step", "promised demands delta after")


def demands_at(demands_fn, prices, promised, budgets) -> list:
    """Every bidder's demand: its schedule from ``demands_fn`` at its own price."""
    schedules = demands_fn(prices, promised, budgets)
    return [schedule(price) for schedule, price in zip(schedules, prices)]


def reference_run_loop(n, eps, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn,
                       steps=None):
    prices = [ZERO] * n
    promised = [ZERO] * n
    payments = [ZERO] * n
    budgets = list(budgets0)
    clock = 0
    snapshots: List[TraceSnapshot] = []
    for step in range(max_steps):
        demands = demands_at(demands_fn, prices, promised, budgets)
        before = tuple(promised), tuple(demands)
        delta = clinch_fn(promised, demands)
        for i in range(n):
            if delta[i] != 0:
                promised[i] += delta[i]
                charge = prices[i] * delta[i]
                payments[i] += charge
                if budgets[i] is not None:
                    budgets[i] -= charge
        demands = demands_at(demands_fn, prices, promised, budgets)
        if steps is not None:
            steps.append(Step(*before, tuple(delta), tuple(demands)))
        if fhat_fn is not None:
            snapshots.append(TraceSnapshot(
                step, tuple(prices), tuple(promised), tuple(demands),
                tuple(delta), tuple(budgets), fhat_fn(promised, demands)))
        prices[clock] += eps
        clock = (clock + 1) % n
        if not any(demands):
            break
    else:
        raise DivergenceError(
            f"auction did not terminate within {max_steps} steps",
            step=max_steps, prices=tuple(prices), demands=tuple(demands))

    exhausted = frozenset(i for i in range(n)
                          if budgets0[i] is not None and payments[i] == budgets0[i])
    return Outcome(tuple(promised), tuple(payments),
                   tuple(snapshots) if fhat_fn is not None else None, exhausted)


def reference_run(engine, *args):
    """``engine(*args)`` on the reference loop: ``(outcome, steps)``."""
    steps = []

    def loop(*loop_args):
        return reference_run_loop(*loop_args, steps=steps)
    with mock.patch.object(auction, "_run_loop", loop):
        return engine(*args), steps


def recorded_run(engine, *args):
    """``engine(*args)`` on ``auction._run_loop``: ``(outcome, clinch inputs, demands_fn)``.

    The clinch inputs are the ``(promised, demands)`` pairs ``clinch_fn`` was
    called with, in order; ``demands_fn`` is the engine's demand rule, which
    returns one schedule per bidder (``demands_at`` evaluates them).
    """
    calls, rules = [], []
    loop = auction._run_loop

    def recording(n, eps, max_steps, budgets0, demands_fn, clinch_fn, fhat_fn):
        def clinch(rho, d):
            calls.append((tuple(rho), tuple(d)))
            return clinch_fn(rho, d)
        rules.append(demands_fn)
        return loop(n, eps, max_steps, budgets0, demands_fn, clinch, fhat_fn)
    with mock.patch.object(auction, "_run_loop", recording):
        outcome = engine(*args)
    return outcome, calls, rules[0]


def clinching_steps(steps) -> list:
    """Indices of the reference steps whose demands differ from the previous
    step's post-clinch demands: the steps the skipping loop clinches at."""
    return [k for k, s in enumerate(steps) if k == 0 or s.demands != steps[k - 1].after]
