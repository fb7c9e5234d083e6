"""Spans and exact counts for polyclinch, recorded from outside the package.

`instrument` replaces public functions of the polyclinch modules with
wrappers that open a span around each call, and restores the originals on
exit.  A module that imported a function by name looks that name up in its own
namespace at call time, so every binding of the function object is replaced,
in every polyclinch module.  Oracle constructors are replaced by ones that
wrap the built oracle in a counting `SubmodularOracle`, and the shared clock
loop `polyclinch.auction._run_loop` (the one private name used) gets counting
clinch and demand callbacks, for steps, clinch events and the largest
denominator.

Spans are kept in memory as (id, name, start, end, parent, op) and written
out by `Tracer.write`.  Times are `perf_counter_ns` values.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

OP_SPAN = "bench.op"

# (defining module, function, span name, {calling module: span name}).
SPAN_TARGETS = (
    ("instances", "generate_instance", "instances.generate", {}),
    ("instances", "parse_instance", "instances.parse", {}),
    ("cli", "main", "cli.main", {}),
    ("cli", "execute", "cli.execute", {}),
    ("auction", "run_clinching", "auction.run_clinching", {}),
    ("auction", "run_decreasing_marginals", "auction.run_decreasing_marginals", {}),
    ("auction", "run_generic_2player", "auction.run_generic_2player", {}),
    ("auction", "demand", "auction.demand", {}),
    ("auction", "fast_residual_max", "auction.greedy", {}),
    ("submodular", "residual", "submodular.residual", {"auction": "auction.snapshot"}),
    ("submodular", "membership", "submodular.membership", {}),
    ("submodular", "min_constrained", "submodular.min_constrained", {}),
    ("submodular", "verify_submodular", "submodular.verify_submodular", {}),
    ("verify", "validate_trace", "verify.validate_trace", {}),
    ("verify", "check_outcome", "verify.check_outcome", {}),
    ("verify", "run_with_monitors", "verify.run_with_monitors", {}),
    ("verify", "fuzz_truthfulness", "verify.fuzz", {}),
    ("verify", "check_dominated_direction", "verify.dominated_direction", {}),
)

ORACLE_CONSTRUCTORS = ("multi_unit_oracle", "single_keyword_oracle", "adwords_oracle",
                       "graphic_oracle", "vod_cut_oracle")
ORACLE_EVAL_SPAN = "environments.oracle_eval"

# Engines whose spans make up the clock: their self time is the kernel.
ENGINE_SPANS = ("auction.run_clinching", "auction.run_decreasing_marginals",
                "auction.run_generic_2player")


class Tracer:
    """In-memory spans with per-phase totals, self times and parent/child counts.

    `phase` tags what the spans belong to ("setup" or "pass"), so the
    set-up's share can be reported apart from the passes'.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.phase = "setup"
        self.stats = {}                  # (phase, name id) -> [count, total ns, self ns]
        self.child_count = {}            # (phase, parent name id, name id) -> spans
        self.counters = {"steps": 0, "clinch_events": 0, "max_denominator": 1}
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self._stack = []                 # open spans: [id, name id, child ns]
        self._next_id = 0
        self.op_id = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, nid, 0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                phase = self.phase
                entry = self.stats.get((phase, nid))
                if entry is None:
                    entry = self.stats[(phase, nid)] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[2]
                if parent is None:
                    self.span_parent.append(-1)
                else:
                    parent[2] += dur
                    key = (phase, parent[1], nid)
                    self.child_count[key] = self.child_count.get(key, 0) + 1
                    self.span_parent.append(parent[0])
                self.span_id.append(sid)
                self.span_name.append(nid)
                self.span_start.append(start)
                self.span_end.append(end)
                self.span_op.append(self.op_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def op(self, fn, *args):
        """Run one benchmark operation as a root span with a fresh op id."""
        self.op_id += 1
        return self.wrap(OP_SPAN, fn)(*args)

    def totals(self, phase: str) -> dict:
        """name -> (count, total ns, self ns) over the spans of one phase."""
        return {self.names[nid]: tuple(entry)
                for (p, nid), entry in self.stats.items() if p == phase}

    def children(self, phase: str, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.child_count.get((phase, self._ids[parent], self._ids[child]), 0)

    def write(self, path) -> int:
        """Write every span as gzip CSV, ordered by span id; returns the count."""
        order = sorted(range(len(self.span_id)), key=self.span_id.__getitem__)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start_ns,end_ns,parent,op\n")
            for k in order:
                fh.write(f"{self.span_id[k]},{self.names[self.span_name[k]]},"
                         f"{self.span_start[k]},{self.span_end[k]},"
                         f"{self.span_parent[k]},{self.span_op[k]}\n")
        return len(order)


def _package_modules() -> dict:
    return {name.split(".", 1)[1] if "." in name else "": mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "polyclinch" or name.startswith("polyclinch."))}


def _counting_oracle(tracer: Tracer, SubmodularOracle, base):
    """Same oracle behind a memo of its own; its misses are the fresh evaluations."""
    evaluate = tracer.wrap(ORACLE_EVAL_SPAN, base.value_mask)
    return SubmodularOracle(base.n, evaluate, base.monotone, base.name, ctrs=base.ctrs)


def _forcing_residual(residual):
    """Residual tables are built on first evaluation; every caller evaluates at
    once, so build them inside the span that the call belongs to."""
    def build(oracle, rho, d):
        res = residual(oracle, rho, d)
        res.full_value()
        return res
    return build


def _counting_run_loop(tracer: Tracer, run_loop):
    signature = inspect.signature(run_loop)
    for needed in ("clinch_fn", "demands_fn"):
        if needed not in signature.parameters:
            raise RuntimeError(f"polyclinch.auction._run_loop has no {needed!r} "
                               "parameter; the step counters need updating")
    counters = tracer.counters

    def loop(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        clinch_fn = bound.arguments["clinch_fn"]
        demands_fn = bound.arguments["demands_fn"]

        def counted_clinch(rho, d):
            delta = clinch_fn(rho, d)
            counters["steps"] += 1
            if any(delta):
                counters["clinch_events"] += 1
            den = max(v.denominator for seq in (rho, d, delta) for v in seq)
            if den > counters["max_denominator"]:
                counters["max_denominator"] = den
            return delta

        def counted_demands(prices, promised, budgets):
            den = max(v.denominator for seq in (prices, budgets) for v in seq
                      if v is not None)
            if den > counters["max_denominator"]:
                counters["max_denominator"] = den
            return demands_fn(prices, promised, budgets)

        bound.arguments["clinch_fn"] = counted_clinch
        bound.arguments["demands_fn"] = counted_demands
        return run_loop(*bound.args, **bound.kwargs)

    return loop


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's functions for the duration of the block."""
    modules = _package_modules()
    patched = []

    def replace_everywhere(original, make_wrapper):
        for mod_name, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, make_wrapper(mod_name))

    try:
        for home, fn_name, span, by_caller in SPAN_TARGETS:
            original = getattr(modules[home], fn_name)
            if fn_name == "residual":
                target = _forcing_residual(original)
            else:
                target = original
            replace_everywhere(original, lambda caller, t=target, s=span, c=by_caller:
                               tracer.wrap(c.get(caller, s), t))

        oracle_cls = modules["submodular"].SubmodularOracle
        for fn_name in ORACLE_CONSTRUCTORS:
            original = getattr(modules["environments"], fn_name)

            def constructor(*args, _build=original, **kwargs):
                return _counting_oracle(tracer, oracle_cls, _build(*args, **kwargs))
            replace_everywhere(original, lambda caller, c=constructor: c)

        original_loop = modules["auction"]._run_loop
        replace_everywhere(original_loop,
                           lambda caller: _counting_run_loop(tracer, original_loop))
        yield tracer
    finally:
        for mod, attr, value in reversed(patched):
            setattr(mod, attr, value)
