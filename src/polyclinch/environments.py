"""Constructors for the polymatroidal market environments.

Each constructor returns a :class:`~polyclinch.submodular.SubmodularOracle`
for the function defining the feasible-allocation polytope:

* ``multi_unit_oracle``     -- f(S) = Q for nonempty S (uniform supply),
* ``single_keyword_oracle`` -- f(S) = sum of the top |S| click-through rates,
* ``adwords_oracle``        -- f*(S) = sum over keywords k of f_k(S & G(k)),
* ``graphic_oracle``        -- graphic-matroid rank of the bidder-labeled edges,
* ``vod_cut_oracle``        -- exact min-cut from the server to the subset,
  a max-flow on integers over the capacities' least common denominator.

``decompose`` searches for per-keyword click vectors realizing an aggregate
allocation.  It never consults the aggregated oracle: feasibility is decided
by an exact phase-1 simplex over the per-keyword inequality system, so it
serves as an independent cross-check that the aggregate function captures
feasibility exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._simplex import feasible_point
from .errors import DomainError
from .submodular import (
    Rational,
    SubmodularOracle,
    ZERO,
    _over_common_denominator,
    as_fraction,
    check_enumeration_size,
    vector,
)


def multi_unit_oracle(total: Rational, n: int) -> SubmodularOracle:
    """Uniform supply of `total` divisible units shared by n bidders."""
    q = as_fraction(total)
    if q < 0:
        raise DomainError(f"supply must be >= 0, got {q}")
    return SubmodularOracle(n, lambda m: q if m else ZERO, True, f"multi-unit(Q={q})")


def _nonincreasing(values: Sequence[Fraction]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


def single_keyword_oracle(ctrs: Sequence[Rational]) -> SubmodularOracle:
    """Feasible expected clicks for one keyword with CTRs alpha_1 >= ... >= alpha_n.

    f(S) = sum of the top |S| CTRs; a vector is feasible iff x(S) <= f(S)
    for every S.
    """
    alpha = vector(ctrs)
    if not alpha:
        raise DomainError("at least one position is required")
    if any(a < 0 for a in alpha):
        raise DomainError("click-through rates must be >= 0")
    if not _nonincreasing(alpha):
        raise DomainError(f"click-through rates must be nonincreasing, got {alpha}")
    n = len(alpha)
    prefix = [ZERO]
    for a in alpha:
        prefix.append(prefix[-1] + a)

    def fn(mask: int) -> Fraction:
        return prefix[bin(mask).count("1")]

    return SubmodularOracle(n, fn, True, f"single-keyword({len(alpha)} slots)", ctrs=alpha)


@dataclass(frozen=True)
class InterestGraph:
    """Bipartite bidder/keyword adjacency, stored consistently from both sides."""

    n: int
    m: int
    keyword_bidders: tuple          # Gamma(k) as frozensets, one per keyword
    bidder_keywords: tuple          # Gamma(i) as frozensets, one per bidder

    @classmethod
    def from_keyword_side(cls, n: int, interests: Sequence[Iterable[int]]) -> "InterestGraph":
        m = len(interests)
        keyword_bidders = []
        bidder_keywords = [set() for _ in range(n)]
        for k, bidders in enumerate(interests):
            members = frozenset(bidders)
            for i in members:
                if not 0 <= i < n:
                    raise DomainError(f"keyword {k} lists bidder {i} outside 0..{n - 1}")
                bidder_keywords[i].add(k)
            if not members:
                raise DomainError(f"keyword {k} has no interested bidder")
            keyword_bidders.append(members)
        return cls(n, m, tuple(keyword_bidders),
                   tuple(frozenset(s) for s in bidder_keywords))


@dataclass(frozen=True)
class AdWordsInstance:
    """n advertisers, m keywords, per-keyword CTR lists, optional quality factors.

    CTR lists are normalized to exactly |Gamma(k)| positions (padded with
    zeros or truncated).  Quality factors must be uniform per bidder: one
    positive rational each.  Per-keyword quality factors do not yield a
    polymatroid and are rejected at construction.
    """

    n: int
    m: int
    graph: InterestGraph
    ctrs: tuple
    quality: Optional[tuple] = None

    @classmethod
    def build(cls, n: int, interests: Sequence[Iterable[int]],
              ctrs: Sequence[Sequence[Rational]],
              quality: Optional[Sequence[Rational]] = None) -> "AdWordsInstance":
        graph = InterestGraph.from_keyword_side(n, interests)
        if len(ctrs) != graph.m:
            raise DomainError(f"expected {graph.m} CTR lists, got {len(ctrs)}")
        normalized = []
        for k, raw in enumerate(ctrs):
            if any(isinstance(a, (list, tuple)) for a in raw):
                raise DomainError(f"keyword {k}: CTR entries must be rationals, not lists")
            alpha = list(vector(raw))
            if any(a < 0 for a in alpha):
                raise DomainError(f"keyword {k}: click-through rates must be >= 0")
            if not _nonincreasing(alpha):
                raise DomainError(f"keyword {k}: click-through rates must be nonincreasing")
            slots = len(graph.keyword_bidders[k])
            alpha = (alpha + [ZERO] * slots)[:slots]
            normalized.append(tuple(alpha))
        gamma = None
        if quality is not None:
            if any(isinstance(g, (list, tuple)) for g in quality):
                raise DomainError(
                    "per-keyword (heterogeneous) quality factors are not supported: "
                    "the feasible set is not a polymatroid; supply one uniform "
                    "factor per bidder instead")
            gamma = vector(quality, n)
            if any(g <= 0 for g in gamma):
                raise DomainError("quality factors must be > 0")
        return cls(n, graph.m, graph, tuple(normalized), gamma)

    def keyword_oracle(self, k: int) -> SubmodularOracle:
        """Single-keyword oracle for keyword k over its interested bidders."""
        return single_keyword_oracle(self.ctrs[k])


def adwords_oracle(inst: AdWordsInstance) -> SubmodularOracle:
    """Aggregated oracle f*(S) = sum over keywords of f_k(S & Gamma(k)).

    The transversal matroid is the special case of one unit-CTR slot per
    keyword.  Quality factors are handled by the scaled auction path, not here.
    """
    prefixes = []
    for alpha in inst.ctrs:
        prefix = [ZERO]
        for a in alpha:
            prefix.append(prefix[-1] + a)
        prefixes.append(prefix)
    masks = [0 for _ in range(inst.m)]
    for k, bidders in enumerate(inst.graph.keyword_bidders):
        for i in bidders:
            masks[k] |= 1 << i

    def fn(mask: int) -> Fraction:
        total = ZERO
        for k in range(inst.m):
            total += prefixes[k][bin(mask & masks[k]).count("1")]
        return total

    return SubmodularOracle(inst.n, fn, True, f"adwords({inst.n}x{inst.m})")


def graphic_oracle(edges: Sequence[Tuple[int, int]]) -> SubmodularOracle:
    """Graphic-matroid rank: f(S) = |V(S)| - #components of the edges in S.

    Bidder i labels exactly edge i of the undirected multigraph.
    """
    if not edges:
        raise DomainError("at least one bidder-labeled edge is required")
    parsed = []
    for e, edge in enumerate(edges):
        if len(edge) != 2:
            raise DomainError(f"edge {e} must be a pair of vertices, got {edge!r}")
        parsed.append((int(edge[0]), int(edge[1])))
    n = len(parsed)

    def fn(mask: int) -> Fraction:
        parent: Dict[int, int] = {}

        def find(v: int) -> int:
            parent.setdefault(v, v)
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        rank = 0
        for i in range(n):
            if mask >> i & 1:
                ru, rv = find(parsed[i][0]), find(parsed[i][1])
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        return Fraction(rank)

    return SubmodularOracle(n, fn, True, f"graphic({n} edges)")


@dataclass(frozen=True)
class CapacitatedNetwork:
    """Directed network with rational edge capacities for video-on-demand.

    ``bidder_nodes[i]`` is the node bidder i streams to; the source must be a
    distinct node.
    """

    edges: tuple                     # (u, v, capacity)
    source: object
    bidder_nodes: tuple

    @classmethod
    def build(cls, edges: Sequence[Tuple[object, object, Rational]],
              source, bidder_nodes: Sequence[object]) -> "CapacitatedNetwork":
        parsed = []
        for e, (u, v, cap) in enumerate(edges):
            capacity = as_fraction(cap)
            if capacity < 0:
                raise DomainError(f"edge {e}: capacity must be >= 0, got {capacity}")
            parsed.append((u, v, capacity))
        if source in bidder_nodes:
            raise DomainError("the source must be distinct from every bidder node")
        if not bidder_nodes:
            raise DomainError("at least one bidder node is required")
        return cls(tuple(parsed), source, tuple(bidder_nodes))


def vod_cut_oracle(net: CapacitatedNetwork) -> SubmodularOracle:
    """f(S) = min-cut from the source to the nodes of S (0 if unreachable).

    The network is laid out once as flat arc arrays: nodes renumbered to
    ints, arc ``a`` from ``head[a ^ 1]`` to ``head[a]``, its reverse ``a ^ 1``,
    and capacities as integers over their least common denominator D.  Each
    bidder has one arc to a super-sink, closed (capacity 0) until a mask
    opens it above the total capacity.  Each value is one Edmonds-Karp
    max-flow on those integers, returned as ``flow / D``: exact, with no
    ``Fraction`` arithmetic inside the flow.
    """
    n = len(net.bidder_nodes)
    index: Dict[object, int] = {}
    head: List[int] = []
    adj: List[List[int]] = []

    def node(v) -> int:
        if v not in index:
            index[v] = len(adj)
            adj.append([])
        return index[v]

    def arc(u: int, v: int) -> int:
        adj[u].append(len(head))
        head.append(v)
        adj[v].append(len(head))
        head.append(u)
        return len(head) - 2

    source = node(net.source)
    den, nums = _over_common_denominator([capacity for _, _, capacity in net.edges])
    cap: List[int] = []
    for (u, v, _), num in zip(net.edges, nums):
        arc(node(u), node(v))
        cap += [num, 0]
    sink = node(object())                    # a label no network node has
    sink_arcs = [arc(node(b), sink) for b in net.bidder_nodes]
    size = len(adj)
    cap += [0, 0] * n
    bound = sum(nums) + 1                    # above every cut of the network

    def fn(mask: int) -> Fraction:
        residual = cap[:]
        for i in range(n):
            if mask >> i & 1:
                residual[sink_arcs[i]] = bound
        flow = 0
        while True:
            into: List[Optional[int]] = [None] * size    # BFS tree arc into each node
            into[source] = -1
            queue = [source]
            for u in queue:
                for a in adj[u]:
                    v = head[a]
                    if residual[a] and into[v] is None:
                        into[v] = a
                        queue.append(v)
                if into[sink] is not None:
                    break
            if into[sink] is None:
                return Fraction(flow, den)
            path = []
            v = sink
            while v != source:
                a = into[v]
                path.append(a)
                v = head[a ^ 1]
            bottleneck = min(residual[a] for a in path)
            for a in path:
                residual[a] -= bottleneck
                residual[a ^ 1] += bottleneck
            flow += bottleneck

    return SubmodularOracle(n, fn, True, f"vod-cut({n} bidders)")


def decompose(inst: AdWordsInstance, x: Sequence[Rational]
              ) -> Optional[List[Dict[int, Fraction]]]:
    """Split x into per-keyword click vectors, or None if x is infeasible.

    Searches for y[i][k] >= 0 with sum_k y[i][k] = x_i and, for every keyword
    k and every S <= Gamma(k), y^k(S) <= f_k(S).  Feasibility is decided by an
    exact simplex over exactly that inequality system.  Returns one dict per
    keyword mapping interested bidders to their click share.
    """
    vec = vector(x, inst.n)
    for i, xi in enumerate(vec):
        if xi < 0:
            raise DomainError(f"allocations must be >= 0, got x[{i}] = {xi}")
    check_enumeration_size(max(inst.n, inst.m), "adwords decomposition")

    variables = []                   # (bidder, keyword) pairs
    index = {}
    for i in range(inst.n):
        for k in sorted(inst.graph.bidder_keywords[i]):
            index[(i, k)] = len(variables)
            variables.append((i, k))

    eq_rows = []
    for i in range(inst.n):
        coeffs = {index[(i, k)]: Fraction(1) for k in inst.graph.bidder_keywords[i]}
        if not coeffs:
            if vec[i] != 0:
                return None          # bidder with no keywords cannot receive clicks
            continue
        eq_rows.append((coeffs, vec[i]))

    le_rows = []
    for k in range(inst.m):
        members = sorted(inst.graph.keyword_bidders[k])
        check_enumeration_size(len(members), f"keyword {k} subset constraints")
        prefix = [ZERO]
        for a in inst.ctrs[k]:
            prefix.append(prefix[-1] + a)
        for submask in range(1, 1 << len(members)):
            coeffs = {index[(members[t], k)]: Fraction(1)
                      for t in range(len(members)) if submask >> t & 1}
            bound = prefix[min(len(coeffs), len(prefix) - 1)]
            le_rows.append((coeffs, bound))

    solution = feasible_point(len(variables), eq_rows, le_rows)
    if solution is None:
        return None
    split: List[Dict[int, Fraction]] = [dict() for _ in range(inst.m)]
    for (i, k), j in index.items():
        split[k][i] = solution[j]
    return split
