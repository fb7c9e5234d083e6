"""Seeded random instances shared by the unit and acceptance suites.

Everything is driven by explicit random.Random seeds so failures replay
exactly.  Environments come from :func:`polyclinch.instances.generate_instance`,
the one seeded generator, at a generator seed drawn from the caller's rng.
Values and parameters are small integers; budgets mix finite and unbounded
so both regimes (value-limited and budget-limited) occur.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from fractions import Fraction
from functools import reduce

from polyclinch import AdWordsInstance, Bidder, SubmodularOracle, greedy_vertex
from polyclinch.instances import POLYMATROID_KINDS, generate_instance, serialize_instance

KINDS = POLYMATROID_KINDS
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))

_SEEDS = 1 << 30


def random_oracle(rng: random.Random, kind: str, n: int) -> SubmodularOracle:
    return generate_instance(kind, n, None, rng.randrange(_SEEDS)).build_oracle()


def random_adwords(rng: random.Random, n: int, m: int) -> AdWordsInstance:
    return generate_instance("adwords", n, m, rng.randrange(_SEEDS)).build_adwords()


def table_only(oracle: SubmodularOracle) -> SubmodularOracle:
    """The same set function with no lattice step and no reduced rank (so no
    rank list either), so engines clinch it on the 2^n table."""
    return SubmodularOracle(oracle.n, oracle.value_mask, oracle.monotone, oracle.name)


def reduced_rank(oracle: SubmodularOracle, c) -> tuple:
    """R(c) as a Fraction and its smallest minimizer T* as a mask, from the
    oracle's :class:`~polyclinch.submodular.ReducedRank`; c holds Fractions."""
    rank = oracle.rank()
    den = math.lcm(rank.den, *(v.denominator for v in c))
    solution = rank.solve(den // rank.den, [int(v * den) for v in c])
    return Fraction(solution.total, den), solution.smallest()


def random_bidders(rng: random.Random, n: int, max_value: int = 6,
                   unbounded_share: float = 0.2) -> list:
    out = []
    for _ in range(n):
        budget = None if rng.random() < unbounded_share else Fraction(rng.randint(1, 6))
        out.append(Bidder(Fraction(rng.randint(1, max_value)), budget))
    return out


def random_feasible_point(rng: random.Random, oracle: SubmodularOracle) -> tuple:
    """A random point of the polymatroid: a scaled random greedy vertex."""
    order = list(range(oracle.n))
    rng.shuffle(order)
    vertex = greedy_vertex(oracle, order)
    scale = Fraction(rng.randint(0, 8), 8)
    return tuple(scale * v for v in vertex)


def random_demands(rng: random.Random, n: int, max_value: int = 6) -> tuple:
    return tuple(Fraction(rng.randint(0, max_value * 2), rng.choice((1, 2, 4)))
                 for _ in range(n))


def polymatroid_cases(seed: int, count: int, n_max: int = 6,
                      kinds=KINDS) -> list:
    """Deterministic list of (label, oracle, bidders) across environment kinds."""
    rng = random.Random(seed)
    cases = []
    for t in range(count):
        kind = kinds[t % len(kinds)]
        n = rng.randint(2, n_max)
        oracle = random_oracle(rng, kind, n)
        bidders = random_bidders(rng, n)
        cases.append((f"{kind}#{t}", oracle, bidders))
    return cases


# What a mutation writes in place of a value: every JSON type, and strings
# that are rationals, malformed rationals or keywords of the schema.
MUTANT_VALUES = (None, True, False, 0, 1, -1, 2, 0.5, "0", "1", "2", "3", "-1", "1/2", "1/0",
                 "1.5", "inf", "auto", "x", [], [0], [0, 1], ["1"], [["1", "1"]], {},
                 {"kind": "multi-unit"})


def _paths(node, path=()):
    """The path to every value in a JSON document, the root's first."""
    yield path
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutant(doc, rng: random.Random):
    """A copy of ``doc`` with one value replaced from MUTANT_VALUES, or one
    key or list entry deleted."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_paths(doc))[1:])
    parent = reduce(lambda node, key: node[key], path[:-1], doc)
    if rng.random() < 0.25:
        del parent[path[-1]]
    else:
        parent[path[-1]] = rng.choice(MUTANT_VALUES)
    return doc


def mutated_files(count: int = 2000, seed: int = 1):
    """The parser's mutated-file stream: ``count`` instance documents, each a
    fixture or a generated n = 4 market with one value replaced or deleted."""
    docs = [json.loads(path.read_text()) for path in FIXTURE_FILES]
    docs += [serialize_instance(generate_instance(kind, 4)) for kind in POLYMATROID_KINDS]
    rng = random.Random(seed)
    for _ in range(count):
        yield _mutant(rng.choice(docs), rng)
