"""The benchmark's workloads: seeded inputs, one pass of operations, output checks.

Every workload runs a fixed list of markets made by
`polyclinch.instances.generate_instance`: for each kind, the first generator
seed (counting from 0) whose market is contested, f([n]) < sum_i f({i}).  An
uncontested market clinches everything at price zero in one step and leaves
the clock idle.

The run seed relabels the bidders of every market: a seeded permutation moves
each bidder together with its part of the environment.  The market stays the
same, but the round-robin clock visits the bidders in another order, so every
outcome changes while the work of a pass stays close to constant.  Fresh
generator seeds per run would not do: a pass of four n = 12 markets took 14
to 30 s across generator seeds 0-7, a spread no affordable run length
averages out.
Seed 0 keeps the generator's labels; the recorded digests are for seed 0.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List

DEFAULT_SEED = 0

MARKETS = {
    "generic-n12": (12, (("multi-unit", None), ("graphic", None), ("vod-cut", None))),
    "certify-n10": (10, (("single-keyword", None), ("vod-cut", None))),
    "fine-clock-n4": (4, (("multi-unit", None), ("single-keyword", None),
                          ("graphic", None), ("adwords", 2))),
}
WORKLOADS = tuple(MARKETS)

FUZZ_EPSILON = Fraction(1, 20)
# value_deviation_grid lists 16 multiplicative misreports, then v/1000 and the
# rivals' values +- epsilon, the near ties.  The fuzz keeps all of the latter
# and two of the former (v/4 and 11v/10), about a third of the full grid.
MULTIPLICATIVE = 16
MULTIPLICATIVE_KEPT = slice(0, MULTIPLICATIVE, 8)
# The 4^n pairwise check costs the same on every kind; one file measures it.
SUBMODULARITY_CHECKED = ("vod-cut",)
SWEEP_EPSILON = Fraction(1, 80)
# Values of the two bidders on the impossibility polytope: close values and
# the large-gap profiles of the paper's exhaustion argument.
SWEEP_V0 = (Fraction(3, 10), Fraction(1, 2), Fraction(5, 8), Fraction(13, 20),
            Fraction(1), Fraction(2))
SWEEP_V1 = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(8),
            Fraction(10))
# Properties that hold at any fixed epsilon; sold-out and the tight-set
# Pareto test are guaranteed only for the automatic epsilon.
FIXED_EPSILON_PROPERTIES = ("individual-rationality", "budget-feasibility", "membership")


@dataclass
class Result:
    """What one task produced: a JSON summary (digested) and its untimed check."""

    summary: object
    check: Callable[[], List[str]]


@dataclass
class Task:
    label: str
    run: Callable[[object], Result]      # takes the pass recorder (its .op times one op)


@dataclass
class Plan:
    workload: str
    seed: int
    pc: SimpleNamespace                  # the polyclinch modules
    tasks: List[Task]
    markets: dict                        # label -> parsed InstanceFile

    def reference_digests(self) -> dict:
        """Digests beyond the task summaries: the full step traces on certify-n10."""
        if self.workload != "certify-n10":
            return {}
        out = {}
        for label, inst in self.markets.items():
            traced = self.pc.auction.run_clinching(
                inst.build_oracle(), inst.bidders, replace(inst.config, trace=True))
            out[f"trace:{label}"] = digest([snap.to_json() for snap in traced.trace])
        return out


def digest(summary) -> str:
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def import_package(fresh: bool) -> SimpleNamespace:
    """Import polyclinch; `fresh` drops the loaded modules first so the import is timed."""
    if fresh:
        for name in [m for m in sys.modules if m == "polyclinch" or m.startswith("polyclinch.")]:
            del sys.modules[name]
    importlib.import_module("polyclinch")
    return SimpleNamespace(**{name: importlib.import_module(f"polyclinch.{name}")
                              for name in ("auction", "cli", "environments", "instances",
                                           "submodular", "verify")})


def relabel(data: dict, perm: List[int]) -> dict:
    """Bidder j of the result is bidder perm[j] of `data`, with its environment part."""
    out = copy.deepcopy(data)
    new_label = {old: new for new, old in enumerate(perm)}
    out["bidders"] = [data["bidders"][p] for p in perm]
    env, old_env = out["environment"], data["environment"]
    if env["kind"] == "adwords":
        env["interests"] = [sorted(new_label[i] for i in members)
                            for members in old_env["interests"]]
    elif env["kind"] == "graphic":
        env["edges"] = [old_env["edges"][p] for p in perm]
    elif env["kind"] == "vod-cut":
        env["bidder_nodes"] = [old_env["bidder_nodes"][p] for p in perm]
    return out


def permutation(seed: int, label: str, n: int) -> List[int]:
    perm = list(range(n))
    if seed != DEFAULT_SEED:
        random.Random(f"relabel:{seed}:{label}").shuffle(perm)
    return perm


def contested(inst) -> bool:
    oracle = inst.build_oracle()
    singles = sum((oracle.singleton(i) for i in range(inst.n)), Fraction(0))
    return oracle.value_mask((1 << inst.n) - 1) < singles


def make_markets(pc, workload: str, seed: int, workdir: Path) -> dict:
    """Generate, relabel, write and parse back the workload's instance files."""
    n, kinds = MARKETS[workload]
    paths = {}
    for kind, m in kinds:
        base_seed = 0
        while not contested(pc.instances.generate_instance(kind, n, m, base_seed)):
            base_seed += 1
        inst = pc.instances.generate_instance(kind, n, m, base_seed)
        data = relabel(pc.instances.serialize_instance(inst), permutation(seed, kind, n))
        path = workdir / f"{workload}-{kind}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
        paths[kind] = path
    return {kind: (path, pc.instances.parse_instance(path)) for kind, path in paths.items()}


def outcome_summary(outcome) -> dict:
    return {"x": [str(v) for v in outcome.allocation],
            "pay": [str(v) for v in outcome.payments]}


def _failed_properties(properties, names=None) -> List[str]:
    """Messages for the failed ones among JSON property entries."""
    return [f"property {p['name']} failed: {json.dumps(p.get('witness'))}"
            for p in properties
            if not p["passed"] and (names is None or p["name"] in names)]


def _auction_task(pc, label: str, inst) -> Task:
    cfg = replace(inst.config, trace=False)     # generated configs ask for a trace

    def run(rec):
        outcome = rec.op(lambda: pc.auction.run_clinching(inst.build_oracle(),
                                                          inst.bidders, cfg))

        def check():
            report = pc.verify.check_outcome(inst.build_oracle(), inst.bidders, outcome)
            return _failed_properties(report.to_json()["properties"])
        return Result(outcome_summary(outcome), check)
    return Task(label, run)


def _cli_task(pc, label: str, command: str, path: Path) -> Task:
    argv = [command, "-i", str(path), "--format", "json"]

    def run(rec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = rec.op(lambda: pc.cli.main(argv))
        report = json.loads(out.getvalue())

        def check():
            fails = _failed_properties(report["properties"])
            if code != 0:
                fails.append(f"exit code {code}")
            return fails
        return Result({"exit": code, "report": report}, check)
    return Task(label, run)


def fuzz_grid(grid: list) -> list:
    return grid[MULTIPLICATIVE_KEPT] + grid[MULTIPLICATIVE:]


def _fuzz_task(pc, label: str, inst) -> Task:
    values = [b.value for b in inst.bidders]
    budgets = [b.budget for b in inst.bidders]
    cfg = pc.auction.AuctionConfig(epsilon=FUZZ_EPSILON)

    def run(rec):
        oracle = inst.build_oracle()
        outcomes = []

        def run_fn(reports):
            bidders = [pc.auction.Bidder(v, b) for v, b in zip(reports, budgets)]
            outcome = rec.op(lambda: pc.auction.run_clinching(oracle, bidders, cfg))
            outcomes.append(outcome)
            return outcome

        def utility(i, outcome):
            return values[i] * outcome.allocation[i] - outcome.payments[i]

        grids = [fuzz_grid(pc.verify.value_deviation_grid(values, i, FUZZ_EPSILON))
                 for i in range(inst.n)]
        report = pc.verify.fuzz_truthfulness(run_fn, values, grids, utility)

        def check():
            baseline = pc.verify.check_outcome(inst.build_oracle(), inst.bidders, outcomes[0])
            return (_failed_properties(report.to_json()["properties"])
                    + [f"truthful run: {message}" for message in _failed_properties(
                        baseline.to_json()["properties"], FIXED_EPSILON_PROPERTIES)])
        return Result({"truthful": report.ok(),
                       "outcomes": [outcome_summary(o) for o in outcomes]}, check)
    return Task(label, run)


def _curve_fuzz_task(pc) -> Task:
    """The Appendix-D market, where the harness must find bidder 0's lie."""
    curves = pc.verify.appendix_d_curves()
    budgets = list(pc.verify.APPENDIX_D_BUDGETS)
    supply = pc.verify.APPENDIX_D_SUPPLY
    cfg = pc.auction.AuctionConfig(epsilon=FUZZ_EPSILON)

    def run(rec):
        outcomes = []

        def run_fn(reports):
            outcome = rec.op(lambda: pc.auction.run_decreasing_marginals(
                reports, budgets, supply, cfg))
            outcomes.append(outcome)
            return outcome

        def utility(i, outcome):
            return curves[i].value_at(outcome.allocation[i]) - outcome.payments[i]

        grids = [pc.verify.curve_deviation_grid(c) for c in curves]
        report = pc.verify.fuzz_truthfulness(run_fn, curves, grids, utility)
        truthfulness = report.result("truthfulness")

        def check():
            if truthfulness.passed or truthfulness.witness["bidder"] != 0:
                return ["the fuzz missed bidder 0's profitable misreport"]
            return []
        return Result({"witness": truthfulness.witness,
                       "outcomes": [outcome_summary(o) for o in outcomes]}, check)
    return Task("appendix-d", run)


def _sweep_task(pc, v0: Fraction, v1: Fraction, swap: bool) -> Task:
    rows, rhs = pc.verify.IMPOSSIBILITY_ROWS, pc.verify.IMPOSSIBILITY_RHS
    values = (v1, v0) if swap else (v0, v1)    # the polytope is symmetric in x0, x1
    bidders = [pc.auction.Bidder(v, b)
               for v, b in zip(values, pc.verify.IMPOSSIBILITY_BUDGETS)]
    cfg = pc.auction.AuctionConfig(epsilon=SWEEP_EPSILON)
    label = f"sweep v=({v0},{v1})" + (" swapped" if swap else "")

    def run(rec):
        def profile():
            outcome = pc.auction.run_generic_2player(rows, rhs, bidders, cfg)
            return outcome, pc.verify.check_dominated_direction(rows, rhs, bidders, outcome)
        outcome, direction = rec.op(profile)

        def check():
            if direction is not None and not pc.verify.replay_dominated_direction(
                    rows, rhs, bidders, outcome, direction):
                return [f"dominated direction {direction} does not replay"]
            return []
        summary = outcome_summary(outcome)
        summary["direction"] = None if direction is None else [str(t) for t in direction]
        return Result(summary, check)
    return Task(label, run)


def setup(workload: str, seed: int, workdir: Path, fresh_import: bool = True) -> Plan:
    """Import the package and build the workload's inputs and its pass of tasks."""
    pc = import_package(fresh_import)
    markets = make_markets(pc, workload, seed, workdir)
    parsed = {kind: inst for kind, (_, inst) in markets.items()}
    tasks = []
    if workload == "generic-n12":
        tasks = [_auction_task(pc, kind, inst) for kind, inst in parsed.items()]
    elif workload == "certify-n10":
        for kind, (path, _) in markets.items():
            if kind in SUBMODULARITY_CHECKED:
                tasks.append(_cli_task(pc, f"check-submodular {kind}", "check-submodular",
                                       path))
            tasks.append(_cli_task(pc, f"verify {kind}", "verify", path))
    else:
        tasks = [_fuzz_task(pc, kind, inst) for kind, inst in parsed.items()]
        tasks.append(_curve_fuzz_task(pc))
        rng = random.Random(f"sweep:{seed}")
        for v0 in SWEEP_V0:
            for v1 in SWEEP_V1:
                swap = seed != DEFAULT_SEED and rng.random() < 0.5
                tasks.append(_sweep_task(pc, v0, v1, swap))
    return Plan(workload, seed, pc, tasks, parsed)
