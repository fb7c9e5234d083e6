"""Constructors for the polymatroidal market environments.

Each constructor returns a :class:`~polyclinch.submodular.SubmodularOracle`
for the function defining the feasible-allocation polytope:

* ``multi_unit_oracle``     -- f(S) = Q for nonempty S (uniform supply),
* ``single_keyword_oracle`` -- f(S) = sum of the top |S| click-through rates,
* ``adwords_oracle``        -- f*(S) = sum over keywords k of f_k(S & G(k)),
* ``graphic_oracle``        -- graphic-matroid rank of the bidder-labeled edges,
* ``vod_cut_oracle``        -- exact min-cut from the server to the subset,
  a max-flow on integers over the capacities' least common denominator
  (on an out-tree, its reduced rank in one bottom-up pass).

The multi-unit and single-keyword oracles are cardinality oracles, defined
by their rank list alone (``ctrs``), which gives their values and their
:class:`~polyclinch.submodular.ReducedRank`, R(c) = min over T of f(T) +
c([n] \\ T), by one sort of c.  Each other oracle states its value on one
mask and the builder of its whole integer value table (``table=``) side
by side, by the same rule: one popcount per keyword for AdWords
(:func:`_rank_sum_oracle`), with one pass over the masks per keyword for
the table; component labels for graphic (:func:`_component_labels`),
its table built level by level, one pass per edge over the masks below
it, with no call per mask; for vod-cut, a value is one maximum flow from
zero, and the table augments only the sets that no subset less one bidder
settles, keeping at most n + 1 residual arrays alive.  Vod-cut also
carries a reduced rank, one maximum flow with bidder i's sink arc at c_i,
from which R with one sink arc lowered, and a solution's re-solve at the
next c, re-augment.  So multi-unit, single-keyword and vod-cut auctions
clinch without the 2^n table and run past the enumeration cap.  A graphic
matroid is the direct sum of its 2-connected blocks (:func:`_blocks`), so a
graph of more than one block carries the direct sum of its blocks' reduced
ranks, each block on its own small table and each bridge or self-loop in
closed form; it runs past the cap while every block fits under it.  A
vod-cut network that is an out-tree, every arc into a distinct node and
none into the source (:func:`_out_tree`), as every generated market is,
answers R, its clinch and its smallest minimizer by
:func:`~polyclinch.submodular._tree_rank`, one pass up the tree with no
max flow.  Every other vod-cut question -- a value, or on any other
network R, R with one arc lowered, R at a new c, the smallest minimizer
-- goes to one Edmonds-Karp search, ``_ArcNetwork.max_flow``, with an
optional limit.

``decompose`` splits an aggregate allocation into per-keyword click vectors
with one max-flow on the keywords' threshold network, the same integer
Edmonds-Karp the vod-cut oracle runs.  It never consults the aggregated
oracle, so it serves as an independent cross-check that the aggregate
function captures feasibility exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError
from .submodular import (
    Rational,
    RankSolution,
    ReducedRank,
    SubmodularOracle,
    ZERO,
    _direct_sum_rank,
    _over_common_denominator,
    _rank_list,
    _tree_rank,
    _warm_start,
    as_fraction,
    mask_of,
    vector,
)


def _rank_sum_oracle(n: int, groups: Sequence[tuple], name: str) -> SubmodularOracle:
    """f(S) = sum over (members, alpha) in groups of A_|S & members|.

    A_t is the sum of the first t entries of the rank list alpha.  When one
    group holds every bidder, f is a cardinality oracle, built from alpha as
    ``ctrs`` alone, in which alpha counts as 0 past its end.  Otherwise each
    alpha must have exactly len(members) entries, as
    :meth:`AdWordsInstance.build` makes them.  Each group is then its
    members' mask G and the prefix sums ``run`` of alpha over the lists'
    least common denominator, so f(S) is the sum of run[|S & G|] over the
    groups, one popcount each, and the table is one pass over every mask
    per group.
    """
    if len(groups) == 1 and len(groups[0][0]) == n:
        return SubmodularOracle(n, None, True, name, ctrs=groups[0][1])
    den = _over_common_denominator([a for _, alpha in groups for a in alpha])[0]
    runs = [(mask_of(members, n),
             [int(t * den) for t in itertools.accumulate(alpha, initial=ZERO)])
            for members, alpha in groups]

    def value(mask: int) -> Fraction:
        return Fraction(sum(run[(mask & g).bit_count()] for g, run in runs), den)

    def table() -> tuple:
        nums = [0] * (1 << n)
        for g, run in runs:
            nums = [v + run[(m & g).bit_count()] for m, v in enumerate(nums)]
        return den, nums

    return SubmodularOracle(n, value, True, name, table=table)


def multi_unit_oracle(total: Rational, n: int) -> SubmodularOracle:
    """Uniform supply of `total` divisible units shared by n bidders: alpha = (Q,)."""
    alpha = _rank_list([total], "supply")
    return _rank_sum_oracle(n, [(range(n), alpha)], f"multi-unit(Q={alpha[0]})")


def single_keyword_oracle(ctrs: Sequence[Rational]) -> SubmodularOracle:
    """Feasible expected clicks for one keyword with CTRs alpha_1 >= ... >= alpha_n.

    f(S) = sum of the top |S| CTRs; a vector is feasible iff x(S) <= f(S)
    for every S.
    """
    alpha = _rank_list(ctrs, "click-through rates")
    if not alpha:
        raise DomainError("at least one position is required")
    n = len(alpha)
    return _rank_sum_oracle(n, [(range(n), alpha)], f"single-keyword({n} slots)")


@dataclass(frozen=True)
class AdWordsInstance:
    """n advertisers, m keywords, per-keyword CTR lists.

    ``keyword_bidders[k]`` is Gamma(k), the bidders interested in keyword
    k, as a frozenset.  CTR lists are normalized to exactly |Gamma(k)|
    positions (padded with zeros or truncated).
    """

    n: int
    m: int
    keyword_bidders: tuple
    ctrs: tuple

    @classmethod
    def build(cls, n: int, interests: Sequence[Iterable[int]],
              ctrs: Sequence[Sequence[Rational]]) -> "AdWordsInstance":
        keyword_bidders = [_keyword_bidders(k, bidders, n) for k, bidders in enumerate(interests)]
        if len(ctrs) != len(keyword_bidders):
            raise DomainError(f"expected {len(keyword_bidders)} CTR lists, got {len(ctrs)}")
        normalized = []
        for k, raw in enumerate(ctrs):
            alpha = _rank_list(raw, f"keyword {k}: click-through rates")
            slots = len(keyword_bidders[k])
            normalized.append((alpha + (ZERO,) * slots)[:slots])
        return cls(n, len(keyword_bidders), tuple(keyword_bidders), tuple(normalized))

    def keyword_oracle(self, k: int) -> SubmodularOracle:
        """Single-keyword oracle for keyword k over its interested bidders."""
        return single_keyword_oracle(self.ctrs[k])


def _keyword_bidders(k: int, bidders: Iterable[int], n: int) -> frozenset:
    """Gamma(k) as a frozenset: distinct int indices in 0..n-1, at least one."""
    seen = set()
    for i in bidders:
        if isinstance(i, bool) or not isinstance(i, int):
            raise DomainError(f"keyword {k} lists bidder {i!r}, not an int index")
        if not 0 <= i < n:
            raise DomainError(f"keyword {k} lists bidder {i} outside 0..{n - 1}")
        if i in seen:
            raise DomainError(f"keyword {k} lists bidder {i} twice")
        seen.add(i)
    if not seen:
        raise DomainError(f"keyword {k} has no interested bidder")
    return frozenset(seen)


def adwords_oracle(inst: AdWordsInstance) -> SubmodularOracle:
    """Aggregated oracle f*(S) = sum over keywords of f_k(S & Gamma(k)).

    The transversal matroid is the special case of one unit-CTR slot per
    keyword.  Quality factors are handled by the scaled auction path, not here.
    """
    return _rank_sum_oracle(inst.n, list(zip(inst.keyword_bidders, inst.ctrs)),
                            f"adwords({inst.n}x{inst.m})")


def _joined(labels: Sequence[str], a: int, b: int) -> List[str]:
    """Each forest in ``labels`` plus an edge from vertex a to vertex b.

    A forest is one component label per vertex, a str with one character
    each.  b's component takes a's label; when a and b already share one,
    the labels stay as they are.
    """
    return [s.replace(s[b], s[a]) for s in labels]


def _component_labels(ends: Sequence[Tuple[int, int]], vertices: int) -> tuple:
    """Graphic rank's ``(value, table)``, by component labels.

    A set of edges labels each vertex with its component, one character
    per vertex in a str (not bytes, so that a graph with more than 256
    vertices still folds).  Edge i = (a, b) adds one to the rank exactly
    when a and b have different labels, and the labels with it come from
    :func:`_joined`.  ``value`` folds that over a mask's edges in ascending
    order.  ``table`` goes level by level: the masks with highest bit i are
    the masks below 2^i plus edge i, so each level is one pass over the
    values and labels before it, with no call per mask.
    """
    root = "".join(map(chr, range(vertices)))

    def value(mask: int) -> Fraction:
        rank, labels = 0, root
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                a, b = ends[i]
                rank += labels[a] != labels[b]
                labels = _joined((labels,), a, b)[0]
        return Fraction(rank)

    def table() -> tuple:
        values, labels = [0], [root]
        for i, (a, b) in enumerate(ends):
            values += [v + (s[a] != s[b]) for v, s in zip(values, labels)]
            if i + 1 < len(ends):            # the last level's labels extend nothing
                labels += _joined(labels, a, b)
        return 1, values

    return value, table


def _blocks(ends: Sequence[Tuple[int, int]], vertices: int) -> List[List[int]]:
    """The edge ids of each 2-connected block, and of each self-loop alone.

    Hopcroft and Tarjan's search (1973, "Algorithm 447"), iterative, over
    edge ids: a tree edge skips only itself on the way back, so parallel
    edges close a cycle and share a block.  When the search leaves v for its
    parent u with low(v) >= the depth of u, the edges stacked since tree
    edge u-v are one block.  O(V + E).
    """
    adj: List[list] = [[] for _ in range(vertices)]
    blocks = []
    for e, (a, b) in enumerate(ends):
        if a == b:
            blocks.append([e])
        else:
            adj[a].append((b, e))
            adj[b].append((a, e))
    depth, low = [0] * vertices, [0] * vertices
    stacked: List[int] = []                  # edge ids not yet in a block
    for root in range(vertices):
        if depth[root]:
            continue
        depth[root] = low[root] = 1
        # (vertex, tree edge into it, that edge's place in stacked, neighbours left)
        path = [(root, -1, 0, iter(adj[root]))]
        while path:
            v, into, at, rest = path[-1]
            for w, e in rest:
                if not depth[w]:
                    depth[w] = low[w] = depth[v] + 1
                    path.append((w, e, len(stacked), iter(adj[w])))
                    stacked.append(e)
                    break
                if e != into and depth[w] < depth[v]:        # a back edge
                    stacked.append(e)
                    low[v] = min(low[v], depth[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= depth[u]:
                        blocks.append(sorted(stacked[at:]))
                        del stacked[at:]
    return sorted(blocks)


def _graphic(ends: Sequence[Tuple[int, int]], name: str,
             reduced_rank: Optional[ReducedRank] = None) -> SubmodularOracle:
    """The graphic oracle of edges ``ends``, numbered from 0 in order of first
    appearance; its values and table by :func:`_component_labels`."""
    vertex: Dict[int, int] = {}
    for edge in ends:
        for v in edge:
            vertex.setdefault(v, len(vertex))
    value, table = _component_labels([(vertex[a], vertex[b]) for a, b in ends], len(vertex))
    return SubmodularOracle(len(ends), value, True, name, table=table,
                            reduced_rank=reduced_rank)


def _check_label(where: str, what: str, v) -> None:
    """Refuse a node label that is not a str or an int (bools are refused).

    Nodes are told apart by dict key, and 1, True and 1.0 are one key, so
    only these two types keep equal labels one node and others apart.
    """
    if type(v) not in (str, int):
        raise DomainError(f"{where}: {what} labels must be strings or ints, got {v!r}")


def graphic_oracle(edges: Sequence[Tuple[int, int]]) -> SubmodularOracle:
    """Graphic-matroid rank: f(S) = |V(S)| - #components of the edges in S.

    Bidder i labels exactly edge i of the undirected multigraph, whose
    vertex labels are strings or ints (:func:`_check_label`).  Values and
    table (:func:`_component_labels`) carry each vertex's component label:
    S + i has rank f(S) + 1 exactly when edge i joins two components of S.
    Values are integers, so the table's denominator is 1.

    The rank is the direct sum of the ranks of the graph's 2-connected
    blocks, a self-loop its own part (Oxley, *Matroid Theory*, 2nd ed.,
    2011, ch. 4), so a graph of more than one block carries
    :func:`~polyclinch.submodular._direct_sum_rank` over the blocks' own
    graphic oracles as its reduced rank: a clinch reads each block's table,
    of 2^|block| entries, and a bridge or a self-loop in closed form, and
    the enumeration cap applies to each block.  A graph of one block keeps
    the table solver.  The fold still gives the whole graph's values, and
    the whole table still serves
    :func:`~polyclinch.submodular.verify_submodular`.
    """
    if not edges:
        raise DomainError("at least one bidder-labeled edge is required")
    for e, edge in enumerate(edges):
        if len(edge) != 2:
            raise DomainError(f"edge {e} must be a pair of vertices, got {edge!r}")
        for v in edge:
            _check_label(f"edge {e}", "vertex", v)
    n = len(edges)
    vertex = {v: k for k, v in enumerate(dict.fromkeys(v for edge in edges for v in edge))}
    ends = [(vertex[u], vertex[v]) for u, v in edges]
    blocks = _blocks(ends, len(vertex))
    rank = None if len(blocks) == 1 else _direct_sum_rank([
        (block, _graphic([ends[e] for e in block], f"graphic(block of edges {block})"))
        for block in blocks])
    return _graphic(ends, f"graphic({n} edges)", rank)


@dataclass(frozen=True)
class CapacitatedNetwork:
    """Directed network with rational edge capacities for video-on-demand.

    ``bidder_nodes[i]`` is the node bidder i streams to; the source must be a
    distinct node.  Node labels are strings or ints (:func:`_check_label`).
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
        labels = [("the source", source)]
        labels += [(f"edge {e}", v) for e, edge in enumerate(parsed) for v in edge[:2]]
        labels += [(f"bidder node {i}", v) for i, v in enumerate(bidder_nodes)]
        for where, v in labels:
            _check_label(where, "node", v)
        if source in bidder_nodes:
            raise DomainError("the source must be distinct from every bidder node")
        if not bidder_nodes:
            raise DomainError("at least one bidder node is required")
        return cls(tuple(parsed), source, tuple(bidder_nodes))


class _ArcNetwork:
    """A directed network laid out as flat arc arrays for integer max-flow.

    Node labels are renumbered to ints on first use.  Arc ``a`` runs from
    ``head[a ^ 1]`` to ``head[a]``; ``a ^ 1`` is its reverse, which starts at
    capacity 0.  ``cap`` holds the integer capacities of both, indexed by arc.
    """

    def __init__(self):
        self.index: Dict[object, int] = {}
        self.head: List[int] = []
        self.adj: List[List[int]] = []
        self.cap: List[int] = []

    def node(self, v) -> int:
        if v not in self.index:
            self.index[v] = len(self.adj)
            self.adj.append([])
        return self.index[v]

    def arc(self, u, v, capacity: int = 0) -> int:
        """Add an arc from label u to label v and its reverse; return its index."""
        u, v = self.node(u), self.node(v)
        self.adj[u].append(len(self.head))
        self.head.append(v)
        self.adj[v].append(len(self.head))
        self.head.append(u)
        self.cap += [capacity, 0]
        return len(self.head) - 2

    def max_flow(self, residual: List[int], source, sink,
                 limit: Optional[int] = None) -> tuple:
        """Edmonds-Karp from label ``source`` to label ``sink``.

        ``residual`` holds the residual capacities of any feasible flow, such
        as a copy of ``cap`` (zero flow), possibly changed by the caller.  It
        is augmented in place to those of a maximum flow, so for a zero
        start ``residual[a ^ 1]`` is the flow on arc ``a``; with a ``limit``
        it stops once that much flow has been added.  Returns the value
        added and the last BFS's tree, indexed by node number: ``None`` for
        the nodes the source no longer reaches.  The tree is defined only
        when no limit stopped the search.
        """
        head, adj, size = self.head, self.adj, len(self.adj)
        source, sink = self.index[source], self.index[sink]
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
                return flow, into
            path = []
            v = sink
            while v != source:
                a = into[v]
                path.append(a)
                v = head[a ^ 1]
            bottleneck = min(residual[a] for a in path)
            if limit is not None:
                bottleneck = min(bottleneck, limit - flow)
            for a in path:
                residual[a] -= bottleneck
                residual[a ^ 1] += bottleneck
            flow += bottleneck
            if flow == limit:
                return flow, into


def _out_tree(net: CapacitatedNetwork, nums: Sequence[int]) -> Optional[tuple]:
    """``(parents, caps, nodes)`` for :func:`~polyclinch.submodular._tree_rank`,
    or None unless the network is an out-tree: every arc enters a distinct
    node and no arc enters the source.  Nodes are numbered in BFS order from
    the source, ``nums`` are the arcs' integer capacities, and a bidder on a
    node the source does not reach gets None."""
    heads = [v for _, v, _ in net.edges]
    if net.source in heads or len(set(heads)) < len(heads):
        return None
    children: Dict[object, list] = {}
    for (u, v, _), num in zip(net.edges, nums):
        children.setdefault(u, []).append((v, num))
    order, parents, caps = [net.source], [-1], [0]
    for p, u in enumerate(order):
        for v, num in children.get(u, ()):
            order.append(v)
            parents.append(p)
            caps.append(num)
    index = {v: k for k, v in enumerate(order)}
    return parents, caps, [index.get(b) for b in net.bidder_nodes]


def vod_cut_oracle(net: CapacitatedNetwork) -> SubmodularOracle:
    """f(S) = min-cut from the source to the nodes of S (0 if unreachable).

    The network is laid out once as an :class:`_ArcNetwork`, capacities as
    integers over their least common denominator D.  Each bidder has one arc
    to a super-sink, closed (capacity 0) until a set opens it at ``bound``,
    above the total capacity.  f(S) is one maximum flow from zero with S's
    arcs open, on those integers over D: exact, with no ``Fraction``
    arithmetic inside the flow.  No cut of the network costs ``bound``, so
    f(S) is R(bound * 1_S), the reduced rank below.

    The table starts from the empty set's zero flow, one search, and
    augments only where it must.  The nodes the source reaches in a maximum
    flow's residual are the smallest minimum cut's source side, the same
    for every maximum flow, and that side only shrinks as sink arcs open.
    So the masks walk in ascending order, each with its value and the mask
    of the bidders whose node its side leaves out, and a mask that some
    S - i settles (i left out by S - i) copies both from it.  Only the rest
    augment, each from the flow of S less its lowest bit.  Every set of an
    unsettled mask's highest bits is unsettled too, since S - i settling
    S settles every superset of S, so each augmented flow is kept on a
    chain while masks that hold it as their highest bits follow, and at
    most n + 1 residual arrays are alive.  On the generated seed-0 n = 12
    market, 149 of 4,095 masks augment.  Masks with highest bit h are handled
    together: first copied from the mask less h, then the few that mask
    does not settle are tested and augmented in order.

    The reduced rank R(c) = min over T of f(T) + c([n] \\ T) is one
    maximum flow from zero with bidder i's sink arc at c_i (Fujishige,
    *Submodular Functions and Optimization*, 2005, section 3.1), and the
    solution keeps its residual.  Its smallest minimizer T*, read off that
    residual by one search from the sink, is the bidders with c_i > 0
    whose node still reaches the sink.  (With c_i = 0, dropping i from a
    minimizer keeps it one.)  ``clinch(rho)`` reads T* from that same
    search, as one bool per bidder.  For j outside T*, delta_j = c_j - rho_j,
    since a minimizer avoids j.  For j in T*, R(c with c_j = rho_j) is R(c)
    when sink arc j carries at most rho_j, as the maximum flow stays
    feasible; otherwise a copy of the residual has the arc lowered to rho_j
    and is augmented, and only the number leaves.

    One helper, ``set_sink_arc``, sets a sink arc to a capacity t.  Where
    the arc carries more than t, the excess at the bidder's node goes back
    to the source by a search limited to it: the flow paths through the
    arc, reversed, are residual paths with that much capacity in all (flow
    decomposition), and a path that passes through the sink only shifts
    flow between sink arcs, so what is left is a feasible flow.  A
    solution's ``solve(scale, c')`` starts from a copy of its residual times
    k, the ratio of the scales (a maximum flow at c scaled by k is feasible
    at k c), sets each changed sink arc to c'_i, and augments once to a
    maximum flow at c', whose value is read off the sink arcs.

    An out-tree (:func:`_out_tree`) carries
    :func:`~polyclinch.submodular._tree_rank` instead, whose flow is forced
    and filled bottom-up.  Its values and table stay on maximum flows, an
    independent definition for ``check-submodular`` and ``f([n])``.
    """
    n = len(net.bidder_nodes)
    graph = _ArcNetwork()
    graph.node(net.source)
    den, nums = _over_common_denominator([capacity for _, _, capacity in net.edges])
    for (u, v, _), num in zip(net.edges, nums):
        graph.arc(u, v, num)
    sink = object()                          # a label no network node has
    sink_arcs = [graph.arc(b, sink) for b in net.bidder_nodes]
    bidder_index = [graph.index[b] for b in net.bidder_nodes]
    bound = sum(nums) + 1                    # above every cut of the network

    def set_sink_arc(flow: list, i: int, t: int) -> None:
        """Set sink arc i to capacity t in ``flow``, a feasible flow's residual."""
        a = sink_arcs[i]
        carried = flow[a ^ 1]
        if t >= carried:
            flow[a] = t - carried
        else:
            flow[a], flow[a ^ 1] = 0, t
            graph.max_flow(flow, net.bidder_nodes[i], net.source, carried - t)

    def solve(scale: int, c: Sequence[int]) -> RankSolution:
        residual = [capacity * scale for capacity in graph.cap]
        for a, ci in zip(sink_arcs, c):
            residual[a] = ci
        return solution(scale, c, residual)

    def solution(scale: int, c: Sequence[int], residual: list) -> RankSolution:
        """The solution at c from ``residual``, the residual of a feasible
        flow, which is augmented in place to a maximum one."""
        graph.max_flow(residual, net.source, sink)
        total = sum(residual[a ^ 1] for a in sink_arcs)

        def members() -> list:
            # T*, one bool per bidder, by one search from the sink over the
            # reversed residual arcs: the flow is maximum, so the search adds
            # nothing, and its tree marks the nodes that reach the sink.
            reversed_arcs = residual[:]          # arc a ^ 1 is arc a's reverse
            reversed_arcs[::2], reversed_arcs[1::2] = residual[1::2], residual[::2]
            reaches = graph.max_flow(reversed_arcs, sink, net.source)[1]
            return [ci > 0 and reaches[b] is not None for ci, b in zip(c, bidder_index)]

        def smallest() -> int:
            return sum(1 << i for i, inside in enumerate(members()) if inside)

        def lowered(j: int, r: int) -> int:
            """delta_j for j in T*: R(c) less R with sink arc j at r."""
            excess = residual[sink_arcs[j] ^ 1] - r
            if excess <= 0:
                return 0
            warm = residual[:]
            set_sink_arc(warm, j, r)
            return excess - graph.max_flow(warm, net.source, sink)[0]

        def clinch(rho: Sequence[int]) -> list:
            return [lowered(j, r) if inside else cj - r
                    for j, (inside, cj, r) in enumerate(zip(members(), c, rho))]

        def resolve(new_scale: int, new_c: Sequence[int]) -> RankSolution:
            warm = _warm_start(scale, c, new_scale, new_c)
            if warm is None:
                return solve(new_scale, new_c)
            k, changed = warm
            flow = residual[:] if k == 1 else [v * k for v in residual]
            for i in changed:
                set_sink_arc(flow, i, new_c[i])
            return solution(new_scale, new_c, flow)

        return RankSolution(total, smallest, clinch, resolve)

    def value(mask: int) -> Fraction:
        residual = graph.cap[:]
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                residual[sink_arcs[i]] = bound
        return Fraction(graph.max_flow(residual, net.source, sink)[0], den)

    def unreached(tree: list) -> int:
        """The mask of the bidders whose node the BFS ``tree`` does not reach."""
        return sum(1 << i for i, b in enumerate(bidder_index) if tree[b] is None)

    def table() -> tuple:
        zero = graph.cap[:]
        reach = graph.max_flow(zero, net.source, sink)[1]        # of the empty set's zero flow
        values, free = [0] * (1 << n), [0] * (1 << n)
        free[0] = unreached(reach)
        chain = [(0, zero)]          # the augmented masks whose sets may still grow, and residuals
        for h in range(n):
            top = 1 << h
            values[top:2 * top], free[top:2 * top] = values[:top], free[:top]
            for m in [low | top for low, u in enumerate(free[:top]) if not u >> h & 1]:
                rest = m ^ top           # m less top does not settle m; does m less another bit?
                while rest and not free[m ^ (rest & -rest)] & rest & -rest:
                    rest &= rest - 1
                if rest:
                    values[m], free[m] = values[m ^ (rest & -rest)], free[m ^ (rest & -rest)]
                    continue
                parent = m & m - 1
                while chain[-1][0] != parent:
                    chain.pop()
                residual = chain[-1][1][:]
                residual[sink_arcs[(m ^ parent).bit_length() - 1]] = bound
                extra, tree = graph.max_flow(residual, net.source, sink)
                values[m], free[m] = values[parent] + extra, unreached(tree)
                chain.append((m, residual))
        return den, values

    tree = _out_tree(net, nums)
    return SubmodularOracle(n, value, True, f"vod-cut({n} bidders)", table=table,
                            reduced_rank=ReducedRank(den, solve) if tree is None
                            else _tree_rank(den, *tree))


def decompose(inst: AdWordsInstance, x: Sequence[Rational]
              ) -> Optional[List[Dict[int, Fraction]]]:
    """Split x into per-keyword click vectors, or None if x is infeasible.

    Keyword k's function is a sum of scaled uniform matroids,
    f_k(S) = sum_j w_kj * min(|S & Gamma(k)|, j) with
    w_kj = alpha_kj - alpha_k,j+1.  So x is feasible exactly when one
    max-flow saturates every source arc of the threshold network
    source -> bidder i (capacity x_i) -> node (k, j) (capacity w_kj, for i
    in Gamma(k)) -> sink (capacity j * w_kj), on integers over the least
    common denominator (McDiarmid 1975, "Rado's theorem for polymatroids").
    The network is built from the CTRs and the interest graph, never from
    the aggregated oracle.  Returns one dict per keyword mapping every
    bidder of Gamma(k) to y_ik = sum_j flow(i -> (k, j)).
    """
    vec = vector(x, inst.n)
    for i, xi in enumerate(vec):
        if xi < 0:
            raise DomainError(f"allocations must be >= 0, got x[{i}] = {xi}")
    thresholds = []                          # (k, j, w_kj) with w_kj > 0
    for k, alpha in enumerate(inst.ctrs):
        for j, (a, b) in enumerate(zip(alpha, alpha[1:] + (ZERO,)), 1):
            if a > b:
                thresholds.append((k, j, a - b))
    den, nums = _over_common_denominator(list(vec) + [w for _, _, w in thresholds])

    graph = _ArcNetwork()
    graph.node("source")
    graph.node("sink")
    for i in range(inst.n):
        graph.arc("source", ("bidder", i), nums[i])
    share_arcs = []                          # (i, k, arc from bidder i into (k, j))
    for (k, j, _), w in zip(thresholds, nums[inst.n:]):
        for i in sorted(inst.keyword_bidders[k]):
            share_arcs.append((i, k, graph.arc(("bidder", i), (k, j), w)))
        graph.arc((k, j), "sink", j * w)
    residual = graph.cap[:]
    if graph.max_flow(residual, "source", "sink")[0] != sum(nums[:inst.n]):
        return None
    split = [{i: ZERO for i in sorted(members)} for members in inst.keyword_bidders]
    for i, k, a in share_arcs:
        split[k][i] += Fraction(residual[a ^ 1], den)
    return split
