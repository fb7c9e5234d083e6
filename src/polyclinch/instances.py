"""Instance files: JSON schema, validation, serialization and seeded generation.

An instance file describes one auction: an environment (a kind of :data:`KINDS`
and the payload its parser names), the bidders, and the clock configuration.
All numbers travel as canonical rational strings "p/q" (or a plain integer
string); budgets may be "inf".  Floats never appear, so files round-trip losslessly.

Example::

    {
      "schema": 1,
      "environment": {"kind": "multi-unit", "supply": "5"},
      "bidders": [{"value": "3", "budget": "2"}, {"value": "1", "budget": "inf"}],
      "config": {"epsilon": "auto", "max_steps": 1000000, "trace": false}
    }

``quality`` (uniform per-bidder factors, polymatroid kinds without curves)
and ``curves`` (piecewise-linear breakpoints, multi-unit only) are optional
top-level fields.

The parser checks the JSON shape and names each field; each domain rule,
bidder signs and counts among them, is the library's own, run through
:func:`_checked`, so a file that parses runs on the oracle it was checked with.
"""

from __future__ import annotations

import json
import random
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional

from .auction import (AuctionConfig, Bidder, ConcaveCurve, UNBOUNDED, _bounded_packing_2d,
                      _check_bidder_count, _curve_supply, _scaled_bidders)
from .environments import (
    AdWordsInstance,
    CapacitatedNetwork,
    _check_label,
    _keyword_bidders,
    adwords_oracle,
    graphic_oracle,
    multi_unit_oracle,
    single_keyword_oracle,
    vod_cut_oracle,
)
from .errors import ParseError

SCHEMA_VERSION = 1

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def parse_rational(raw, field_name: str) -> Fraction:
    """Rational string "p/q" or integer string; exact, floats rejected."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return Fraction(raw)
    if not isinstance(raw, str) or not _RATIONAL_RE.fullmatch(raw):
        raise ParseError("malformed-rational", field_name,
                         f"{field_name}: expected a rational string like '3/4', got {raw!r}")
    num, _, den = raw.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ParseError("malformed-rational", field_name,
                         f"{field_name}: zero denominator in {raw!r}") from None
    except ValueError:                  # past the regex, only Python's digit limit
        raise ParseError("malformed-rational", field_name, _too_many_digits(field_name)) from None


def _too_many_digits(where: str) -> str:
    """The message for an integer string longer than Python will convert."""
    return (f"{where}: a number has more than {sys.get_int_max_str_digits()} digits, "
            "Python's limit for reading an integer; set PYTHONINTMAXSTRDIGITS=0 to lift it")


def _require(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ParseError("bad-json", where, f"{where} must be a JSON object")
    if key not in obj:
        raise ParseError("missing-field", f"{where}.{key}", f"missing field {where}.{key}")
    return obj[key]


def _list_of(value, field: str, size: Optional[int] = None) -> list:
    """``value``, which must be a JSON list (of ``size`` entries, if given)."""
    if not isinstance(value, list) or size is not None and len(value) != size:
        shape = "a list" if size is None else f"a list of {size} entries"
        raise ParseError("bad-value", field, f"{field}: expected {shape}, got {value!r}")
    return value


def _rationals(value, field: str, size: Optional[int] = None) -> list:
    """``value``, a JSON list of rationals (see :func:`_list_of`), parsed."""
    return [parse_rational(c, f"{field}[{j}]") for j, c in enumerate(_list_of(value, field, size))]


def _checked(code: str, field: str, check, *args):
    """``check(*args)``, the library's own rule; any error but a ParseError
    it raises is reported as a ParseError with ``code`` at ``field``."""
    try:
        return check(*args)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(code, field, str(exc)) from exc


@dataclass
class EnvironmentSpec:
    kind: str
    payload: dict


@dataclass
class InstanceFile:
    """Parsed and validated instance, ready to run on the oracle it was checked with."""

    environment: EnvironmentSpec
    bidders: List[Bidder]
    config: AuctionConfig
    quality: Optional[tuple] = None
    curves: Optional[List[ConcaveCurve]] = None
    schema: int = SCHEMA_VERSION
    _oracle: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.bidders)

    @property
    def oracle(self):
        """The environment's oracle, built by :meth:`build_oracle` on first use and kept."""
        if self._oracle is None:
            self._oracle = self.build_oracle()
        return self._oracle

    def build_oracle(self):
        """A new oracle from the kind's builder; ParseError for a kind without one."""
        kind = self.environment.kind
        if KINDS[kind].oracle is None:
            raise ParseError("unknown-kind", "environment.kind",
                             f"kind {kind!r} does not define a polymatroid oracle")
        return KINDS[kind].oracle(self.environment.payload, self.n)

    def build_adwords(self) -> AdWordsInstance:
        return _adwords(self.environment.payload, self.n)

    def polytope_rows(self):
        """Checked (rows, rhs) for the h-polytope-2d kind."""
        rows = self.environment.payload["rows"]
        return _bounded_packing_2d([r[:2] for r in rows], [r[2] for r in rows])


def parse_instance_data(data: dict) -> InstanceFile:
    if not isinstance(data, dict):
        raise ParseError("bad-json", "instance", "instance must be a JSON object")
    schema = _require(data, "schema", "instance")
    if schema != SCHEMA_VERSION:
        raise ParseError("bad-schema", "instance.schema",
                         f"unsupported schema version {schema!r}")

    env_raw = _require(data, "environment", "instance")
    kind = _require(env_raw, "kind", "instance.environment")
    if kind not in ALL_KINDS:                   # a tuple test: kinds may be unhashable
        raise ParseError("unknown-kind", "instance.environment.kind",
                         f"unknown environment kind {kind!r}; expected one of {ALL_KINDS}")
    spec = KINDS[kind]

    bidders_raw = _require(data, "bidders", "instance")
    if not isinstance(bidders_raw, list) or not bidders_raw:
        raise ParseError("missing-field", "instance.bidders", "at least one bidder is required")
    curves_raw = data.get("curves")
    bidders = []
    for i, entry in enumerate(bidders_raw):
        loc = f"instance.bidders[{i}]"
        budget_raw = _require(entry, "budget", loc)
        budget = UNBOUNDED if budget_raw == "inf" else parse_rational(budget_raw, f"{loc}.budget")
        if "value" in entry:
            value = parse_rational(entry["value"], f"{loc}.value")
        elif curves_raw is not None:
            value = Fraction(1)          # unused: curve runs ignore linear values
        else:
            raise ParseError("missing-field", f"{loc}.value", f"missing field {loc}.value")
        bidders.append(_checked("bad-value", loc, Bidder, value, budget))
    n = len(bidders)

    payload = spec.parse(env_raw, n, "instance.environment")

    cfg_raw = data.get("config", {})
    if not isinstance(cfg_raw, dict):
        raise ParseError("bad-json", "instance.config", "config must be a JSON object")
    eps_raw = cfg_raw.get("epsilon", "auto")
    epsilon = "auto" if eps_raw == "auto" else parse_rational(eps_raw, "instance.config.epsilon")
    config = _checked("bad-value", "instance.config", AuctionConfig, epsilon,
                      cfg_raw.get("max_steps", 1_000_000), cfg_raw.get("trace", False))

    quality = None
    if "quality" in data and data["quality"] is not None:
        if spec.oracle is None or curves_raw is not None:
            raise ParseError("bad-value", "instance.quality",
                             "quality factors scale a polymatroid of linear bidders; "
                             "drop them for h-polytope-2d and curve instances")
        raw = _list_of(data["quality"], "instance.quality")
        if any(isinstance(g, (list, dict)) for g in raw):
            raise ParseError("bad-value", "instance.quality",
                             "quality factors must be uniform per bidder (one rational "
                             "each); per-keyword factors are not a polymatroid")
        quality = tuple(_rationals(raw, "instance.quality"))
        _checked("bad-value", "instance.quality", _scaled_bidders, n, quality, bidders)

    curves = None
    if curves_raw is not None:
        if not spec.curves:
            raise ParseError("bad-value", "instance.curves",
                             "curves are supported on multi-unit environments only")
        curves = []
        for i, pts in enumerate(_list_of(curves_raw, "instance.curves", n)):
            loc = f"instance.curves[{i}]"
            curves.append(_checked("bad-value", loc, _parse_curve, pts, loc))
        _checked("bad-value", "instance.curves", _curve_supply, curves, payload["supply"])

    inst = InstanceFile(EnvironmentSpec(kind, payload), bidders, config, quality, curves)
    if spec.oracle is None:
        _checked("bad-environment", "instance.environment", inst.polytope_rows)
    else:
        oracle = _checked("bad-environment", "instance.environment", lambda: inst.oracle)
        _checked("bad-value", "instance.bidders", _check_bidder_count, oracle.n, bidders)
    return inst


def _parse_curve(pts, loc: str) -> ConcaveCurve:
    return ConcaveCurve(tuple((parse_rational(q, loc), parse_rational(v, loc)) for q, v in pts))


def parse_instance(path) -> InstanceFile:
    """Load and validate an instance file; all failures are ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ParseError("missing-file", str(path), f"no such instance file: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError("bad-json", str(path), f"invalid JSON in {path}: {exc}") from exc
    except ValueError:                  # an integer literal past Python's digit limit
        raise ParseError("bad-json", str(path), _too_many_digits(str(path))) from None
    return parse_instance_data(data)


def _to_json(value):
    """Parsed payload value in JSON form: Fractions as strings, tuples as lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    return value


def serialize_instance(inst: InstanceFile) -> dict:
    """Canonical JSON form; parse(serialize(parse(f))) == parse(f)."""
    out = {
        "schema": inst.schema,
        "environment": {"kind": inst.environment.kind, **_to_json(inst.environment.payload)},
        "bidders": [{"value": str(b.value), "budget": "inf" if b.budget is None else str(b.budget)}
                    for b in inst.bidders],
        "config": {
            "epsilon": _to_json(inst.config.epsilon),
            "max_steps": inst.config.max_steps,
            "trace": inst.config.trace,
        },
    }
    if inst.quality is not None:
        out["quality"] = _to_json(inst.quality)
    if inst.curves is not None:
        out["curves"] = [_to_json(c.breakpoints) for c in inst.curves]
    return out


def write_instance(inst: InstanceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_instance(inst), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Environment kinds and seeded generation
# ---------------------------------------------------------------------------

class Kind(NamedTuple):
    """An environment kind; the generic 2-bidder kind has no oracle and no generator."""

    parse: Callable                         # (env, n, where) -> checked payload
    oracle: Optional[Callable] = None       # (payload, n) -> polymatroid oracle
    generate: Optional[Callable] = None     # (rng, n, m) -> seeded JSON payload
    curves: bool = False                    # bidders may bring concave value curves


def _parse_multi_unit(env: dict, n: int, where: str) -> dict:
    """``supply``: the number of divisible units."""
    return {"supply": parse_rational(_require(env, "supply", where), f"{where}.supply")}


def _parse_single_keyword(env: dict, n: int, where: str) -> dict:
    """``ctrs``: the slots' click-through rates."""
    return {"ctrs": _rationals(_require(env, "ctrs", where), f"{where}.ctrs")}


def _generate_single_keyword(rng: random.Random, n: int, m: Optional[int]) -> dict:
    ctrs = sorted((rng.randint(0, 5) for _ in range(n)), reverse=True)
    ctrs[0] = max(ctrs[0], 1)
    return {"ctrs": [str(c) for c in ctrs]}


def _parse_adwords(env: dict, n: int, where: str) -> dict:
    """``interests`` (bidder lists per keyword) and per-keyword ``ctrs``."""
    interests = _list_of(_require(env, "interests", where), f"{where}.interests")
    ctrs = _list_of(_require(env, "ctrs", where), f"{where}.ctrs")
    if len(interests) != len(ctrs):
        raise ParseError("inconsistent-graph", f"{where}.interests",
                         f"{len(interests)} keywords but {len(ctrs)} CTR lists")
    for k, members in enumerate(interests):
        loc = f"{where}.interests[{k}]"
        _checked("inconsistent-graph", loc, _keyword_bidders, k, _list_of(members, loc), n)
    return {"interests": [list(m) for m in interests],
            "ctrs": [_rationals(alpha, f"{where}.ctrs[{k}]") for k, alpha in enumerate(ctrs)]}


def _adwords(payload: dict, n: int) -> AdWordsInstance:
    return AdWordsInstance.build(n, payload["interests"], payload["ctrs"])


def _generate_adwords(rng: random.Random, n: int, m: Optional[int]) -> dict:
    if m is not None and m < 1:
        raise ParseError("bad-value", "m", "need m >= 1")
    interests, ctrs = [], []
    for _ in range(m if m is not None else rng.randint(1, 3)):
        members = sorted(rng.sample(range(n), rng.randint(1, n)))
        interests.append(members)
        alpha = sorted((rng.randint(0, 4) for _ in members), reverse=True)
        ctrs.append([str(c) for c in alpha])
    return {"interests": interests, "ctrs": ctrs}


def _parse_graphic(env: dict, n: int, where: str) -> dict:
    """``edges``: one [u, v] per bidder, vertices being ints."""
    edges = _list_of(_require(env, "edges", where), f"{where}.edges")
    for j, edge in enumerate(edges):
        loc = f"{where}.edges[{j}]"
        if any(type(v) is not int for v in _list_of(edge, loc, 2)):
            raise ParseError("bad-value", loc, f"{loc}: vertices must be ints, got {edge!r}")
    return {"edges": [tuple(edge) for edge in edges]}


def _generate_graphic(rng: random.Random, n: int, m: Optional[int]) -> dict:
    edges = [[rng.randrange(n + 1), rng.randrange(n + 1)] for _ in range(n)]
    return {"edges": [[u, v if u != v else (v + 1) % (n + 1)] for u, v in edges]}


def _parse_vod_cut(env: dict, n: int, where: str) -> dict:
    """``edges`` [u, v, cap], ``source`` and ``bidder_nodes``, node labels
    being strings or ints."""
    edges = _list_of(_require(env, "edges", where), f"{where}.edges")
    source = _require(env, "source", where)
    nodes = _list_of(_require(env, "bidder_nodes", where), f"{where}.bidder_nodes")
    edges = [_list_of(edge, f"{where}.edges[{j}]", 3) for j, edge in enumerate(edges)]
    labels = [(source, f"{where}.source")]
    labels += [(v, f"{where}.edges[{j}]") for j, edge in enumerate(edges) for v in edge[:2]]
    labels += [(v, f"{where}.bidder_nodes[{i}]") for i, v in enumerate(nodes)]
    for v, loc in labels:
        _checked("bad-value", loc, _check_label, loc, "node", v)
    return {"edges": [(u, v, parse_rational(c, f"{where}.edges[{j}]"))
                      for j, (u, v, c) in enumerate(edges)],
            "source": source, "bidder_nodes": list(nodes)}


def _generate_vod_cut(rng: random.Random, n: int, m: Optional[int]) -> dict:
    hubs = max(1, n // 2)
    edges = [["s", f"h{h}", str(rng.randint(1, 6))] for h in range(hubs)]
    edges += [[f"h{rng.randrange(hubs)}", f"b{i}", str(rng.randint(0, 5))] for i in range(n)]
    return {"edges": edges, "source": "s", "bidder_nodes": [f"b{i}" for i in range(n)]}


def _parse_h_polytope_2d(env: dict, n: int, where: str) -> dict:
    """Constraint ``rows`` [a0, a1, rhs] on exactly 2 bidders."""
    rows = _list_of(_require(env, "rows", where), f"{where}.rows")
    if n != 2:
        raise ParseError("bad-value", f"{where}", "h-polytope-2d requires exactly 2 bidders")
    return {"rows": [tuple(_rationals(row, f"{where}.rows[{j}]", 3)) for j, row in enumerate(rows)]}


# Builders look the oracle constructors up when called, so rebinding one here reaches them.
KINDS = {
    "multi-unit": Kind(_parse_multi_unit, lambda p, n: multi_unit_oracle(p["supply"], n),
                       lambda rng, n, m: {"supply": str(rng.randint(1, 9))}, curves=True),
    "single-keyword": Kind(_parse_single_keyword, lambda p, n: single_keyword_oracle(p["ctrs"]),
                           _generate_single_keyword),
    "adwords": Kind(_parse_adwords, lambda p, n: adwords_oracle(_adwords(p, n)), _generate_adwords),
    "graphic": Kind(_parse_graphic, lambda p, n: graphic_oracle(p["edges"]), _generate_graphic),
    "vod-cut": Kind(_parse_vod_cut, lambda p, n: vod_cut_oracle(CapacitatedNetwork.build(
        p["edges"], p["source"], p["bidder_nodes"])), _generate_vod_cut),
    "h-polytope-2d": Kind(_parse_h_polytope_2d),
}
POLYMATROID_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.oracle is not None)
ALL_KINDS = tuple(KINDS)


def generate_instance(kind: str, n: int, m: Optional[int] = None,
                      seed: int = 0) -> InstanceFile:
    """Deterministic pseudo-random instance with small integer parameters.

    Same (kind, n, m, seed) always yields the same instance; the output is
    guaranteed to build a valid environment.
    """
    if kind not in POLYMATROID_KINDS:
        raise ParseError("unknown-kind", "kind",
                         f"gen supports {POLYMATROID_KINDS}, got {kind!r}")
    if n < 1:
        raise ParseError("bad-value", "n", "need n >= 1")
    rng = random.Random(f"{kind}:{n}:{m}:{seed}")
    env = {"kind": kind, **KINDS[kind].generate(rng, n, m)}

    bidders = []
    for _ in range(n):
        budget = "inf" if rng.random() < 0.2 else str(rng.randint(1, 6))
        bidders.append({"value": str(rng.randint(1, 6)), "budget": budget})
    # the config is the parser's default: epsilon "auto", 1,000,000 steps, no trace
    return parse_instance_data({"schema": SCHEMA_VERSION, "environment": env, "bidders": bidders})
