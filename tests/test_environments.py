"""Environment constructors, the AdWords decomposition, and cut oracles."""

import collections
import dataclasses
import functools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import pytest

from polyclinch import (
    AdWordsInstance,
    CapacitatedNetwork,
    DomainError,
    SubmodularOracle,
    adwords_oracle,
    decompose,
    fast_residual_max,
    graphic_oracle,
    membership,
    multi_unit_oracle,
    run_clinching,
    single_keyword_oracle,
    verify_submodular,
    vod_cut_oracle,
)
from polyclinch import cli, environments, submodular
from polyclinch.environments import _ArcNetwork
from polyclinch.instances import EnvironmentSpec, generate_instance, parse_instance

from corpus import FIXTURES, random_adwords, random_oracle, reduced_rank, table_only

F = Fraction


def two_keyword_instance():
    # keyword 0: ctrs (2,1) shared by bidders {0,1}; keyword 1: ctr (3) for bidder 1
    return AdWordsInstance.build(2, [[0, 1], [1]], [[2, 1], [3]])


# ---------------------------------------------------------------------------
# multi-unit and single-keyword
# ---------------------------------------------------------------------------

def test_multi_unit_values_and_membership():
    oracle = multi_unit_oracle(5, 3)
    assert oracle.value({0, 1}) == 5
    assert oracle.value(set()) == 0
    assert membership(oracle, [2, 2, 1]).ok
    bad = membership(oracle, [3, 3, 0])
    # {0,1} and {0,1,2} tie at deficit -1; smallest-cardinality tie-break wins
    assert not bad.ok and bad.deficit == -1
    assert bad.violating == frozenset({0, 1})
    assert oracle.value(bad.violating) < 3 + 3


def test_multi_unit_rejects_negative_supply():
    with pytest.raises(DomainError):
        multi_unit_oracle(-1, 2)


def test_single_keyword_values():
    oracle = single_keyword_oracle([3, 2, 1])
    assert oracle.value({2}) == 3
    assert oracle.value({0, 1, 2}) == 6
    assert single_keyword_oracle([3, 0, 0]).value({0, 1}) == 3


def test_single_keyword_rejects_increasing_ctrs():
    with pytest.raises(DomainError):
        single_keyword_oracle([1, 2])
    with pytest.raises(DomainError, match="^at least one position is required$"):
        single_keyword_oracle([])


def test_cardinality_oracles_carry_their_rank_list():
    assert multi_unit_oracle(5, 3).ctrs == (5,)
    assert single_keyword_oracle([3, 2, 0]).ctrs == (3, 2, 0)
    assert (multi_unit_oracle(5, 3)._build_table is single_keyword_oracle([3, 2, 0])._build_table
            is None)
    oracle = multi_unit_oracle(F(7, 2), 40)     # no 2^40 table behind it
    assert oracle.value(range(40)) == oracle.value({39}) == F(7, 2)


@pytest.mark.parametrize("bad, match", [
    ([-1, 0], ">= 0"), ([1, 2], "nonincreasing"), ([[1], 0], "not lists"),
    ([1, 3], "nonincreasing"), ([-1], ">= 0")])
def test_ctr_lists_rejected(bad, match):
    with pytest.raises(DomainError, match="click-through rates .*" + match):
        single_keyword_oracle(bad)
    with pytest.raises(DomainError, match="keyword 1: click-through rates .*" + match):
        AdWordsInstance.build(2, [[0], [0, 1]], [[1], bad])
    # also where a list becomes a reduced rank outside the constructors:
    # [1, 3] read as f({i}) = 1, f({0, 1}) = 4 is not submodular
    with pytest.raises(DomainError, match="rank list .*" + match):
        fast_residual_max(bad, [0, 0], [5, 5])
    with pytest.raises(DomainError, match="rank list .*" + match):
        SubmodularOracle(2, lambda m: F(0), True, "bad", ctrs=bad)


def test_an_oracle_takes_ctrs_or_a_reduced_rank_not_both():
    rank = single_keyword_oracle([2, 1]).reduced_rank
    with pytest.raises(DomainError, match="not both"):
        SubmodularOracle(2, lambda m: F(0), True, "both", ctrs=(2, 1), reduced_rank=rank)


@pytest.mark.parametrize("supply, match", [(-1, ">= 0"), ([1], "not lists")])
def test_multi_unit_rejects_bad_supply(supply, match):
    with pytest.raises(DomainError, match="supply .*" + match):
        multi_unit_oracle(supply, 2)


# ---------------------------------------------------------------------------
# adwords oracle and decomposition
# ---------------------------------------------------------------------------

def test_adwords_oracle_aggregates_keywords():
    oracle = adwords_oracle(two_keyword_instance())
    assert oracle.value({1}) == 5          # 2 from keyword 0 plus 3 from keyword 1
    assert oracle.value({0, 1}) == 6
    assert oracle.value(set()) == 0


def test_adwords_transversal_special_case():
    inst = AdWordsInstance.build(3, [[0, 1], [1, 2], [2]], [[1], [1], [1]])
    oracle = adwords_oracle(inst)
    # one unit-CTR slot per keyword: f(S) = number of adjacent keywords
    assert oracle.value({0}) == 1
    assert oracle.value({1}) == 2
    assert oracle.value({2}) == 2
    assert oracle.value({0, 1, 2}) == 3


def test_adwords_ctr_lists_padded_and_truncated():
    inst = AdWordsInstance.build(2, [[0, 1], [1]], [[5], [4, 3, 2]])
    assert inst.ctrs[0] == (5, 0)          # padded to two interested bidders
    assert inst.ctrs[1] == (4,)            # truncated to one interested bidder
    with pytest.raises(DomainError, match="^expected 2 CTR lists, got 1$"):
        AdWordsInstance.build(2, [[0], [1]], [[1]])


def test_adwords_rejects_empty_keyword():
    with pytest.raises(DomainError):
        AdWordsInstance.build(2, [[0], []], [[1], [1]])


def test_adwords_rejects_a_bidder_listed_twice():
    with pytest.raises(DomainError, match="keyword 0 lists bidder 0 twice"):
        AdWordsInstance.build(2, [[0, 0], [1]], [[2, 1], [1]])


def test_adwords_rejects_bool_and_non_int_bidders():
    for interests in ([[0, True], [1]], [[0.5], [1]], [[1, True], [0]], [["0"], [1]]):
        with pytest.raises(DomainError, match="not an int index"):
            AdWordsInstance.build(2, interests, [[1, 1], [1]])


def test_adwords_threshold_identity():
    # f*(S) = sum_k sum_j w_kj * min(|S & Gamma(k)|, j), w_kj = alpha_kj - alpha_k,j+1
    rng = random.Random(12)
    insts = [random_adwords(rng, rng.randint(1, 8), rng.randint(1, 5)) for _ in range(40)]
    # CTR lists padded (keyword 0), truncated (keyword 1) and all zero (keyword 2)
    insts.append(AdWordsInstance.build(
        4, [[0, 1, 2], [1, 3], [0, 2, 3]], [[5], [4, 3, 2, 1], [0, 0, 0]]))
    for inst in insts:
        oracle = adwords_oracle(inst)
        expected = _threshold_table(inst)
        assert [oracle.value_mask(m) for m in range(1 << inst.n)] == expected
        den, nums = adwords_oracle(inst).integer_table()
        assert [F(v, den) for v in nums] == expected


def test_decompose_known_split():
    inst = two_keyword_instance()
    split = decompose(inst, [2, 4])
    assert split is not None
    totals = [F(0), F(0)]
    for k, shares in enumerate(split):
        for i, amount in shares.items():
            assert amount >= 0
            totals[i] += amount
        oracle_k = inst.keyword_oracle(k)
        members = sorted(inst.keyword_bidders[k])
        vec = [shares.get(i, F(0)) for i in members]
        assert membership(oracle_k, vec).ok
    assert totals == [2, 4]


def test_decompose_zero_and_infeasible():
    inst = two_keyword_instance()
    assert decompose(inst, [0, 0]) is not None
    assert decompose(inst, [0, F(5) + F(1, 1000)]) is None   # exceeds f*({1}) = 5
    assert decompose(inst, [4, 3]) is None                   # exceeds f*({0,1}) = 6
    with pytest.raises(DomainError, match=r"allocations must be >= 0, got x\[1\] = -1/2"):
        decompose(inst, [0, F(-1, 2)])


def test_decompose_probes_pin_singleton_value():
    inst = two_keyword_instance()
    assert decompose(inst, [0, 5]) is not None
    oracle = adwords_oracle(inst)
    assert oracle.value({1}) == 5


def test_mcdiarmid_equivalence_small():
    rng = random.Random(99)
    agreements = 0
    for _ in range(60):
        inst = random_adwords(rng, rng.randint(1, 4), rng.randint(1, 4))
        oracle = adwords_oracle(inst)
        point = tuple(F(rng.randint(0, 2 * max(1, int(oracle.singleton(i)))), 2)
                      for i in range(inst.n))
        member = membership(oracle, point).ok
        split = decompose(inst, point)
        assert member == (split is not None)
        agreements += 1
    assert agreements == 60


def test_decompose_past_the_enumeration_cap():
    inst = generate_instance("adwords", 40, 20, seed=0).build_adwords()
    oracle = adwords_oracle(inst)
    singletons = [oracle.singleton(i) for i in range(inst.n)]
    point = [f / inst.n for f in singletons]       # feasible by monotonicity
    split = decompose(inst, point)
    assert split is not None
    totals = [F(0)] * inst.n
    for k, shares in enumerate(split):
        assert set(shares) == inst.keyword_bidders[k]
        for i, amount in shares.items():
            assert amount >= 0
            totals[i] += amount
        # y^k in P(f_k) iff its top-t entries sum to at most alpha_1 + ... + alpha_t
        top = sorted(shares.values(), reverse=True)
        for t in range(1, len(top) + 1):
            assert sum(top[:t]) <= sum(inst.ctrs[k][:t])
    assert totals == point
    raised = point[:]
    raised[7] = singletons[7] + F(1, 3)
    assert decompose(inst, raised) is None


# ---------------------------------------------------------------------------
# graphic matroid
# ---------------------------------------------------------------------------

def test_graphic_triangle():
    oracle = graphic_oracle([(0, 1), (1, 2), (2, 0)])
    assert oracle.value({0, 1, 2}) == 2    # spanning tree of a triangle
    assert oracle.value({0}) == 1
    assert oracle.value(set()) == 0


def test_graphic_forest_rank_equals_cardinality():
    oracle = graphic_oracle([(0, 1), (1, 2), (2, 3), (0, 4)])
    for mask_set in ([0], [1, 2], [0, 1, 2, 3]):
        assert oracle.value(mask_set) == len(mask_set)


def test_graphic_rejects_labels_that_are_one_dict_key():
    # 1, True and 1.0 are one dict key: edge 1 would read as a self-loop
    # (f({1}) = 0) and edge 2 would join vertex 1
    cases = [([(0, 1), (1, True), (1.0, 2)], 1, True), ([(0, 1), (1, 2), (1.0, 2)], 2, 1.0),
             ([("a", None)], 0, None), ([(0, 1), ((0,), 1)], 1, (0,))]
    for edges, e, label in cases:
        with pytest.raises(DomainError) as err:
            graphic_oracle(edges)
        assert str(err.value) == (f"edge {e}: vertex labels must be strings or ints, "
                                  f"got {label!r}")
    # nor is an empty edge list or an edge of other than two vertices a graph
    with pytest.raises(DomainError, match="^at least one bidder-labeled edge is required$"):
        graphic_oracle([])
    with pytest.raises(DomainError, match=r"^edge 0 must be a pair of vertices, got \(0, 1, 2\)$"):
        graphic_oracle([(0, 1, 2)])
    oracle = graphic_oracle([(0, 1), (1, "1"), ("1", 2)])     # 1 and "1" are two vertices
    assert [oracle.value({i}) for i in range(3)] == [1, 1, 1]
    assert oracle.value({0, 1, 2}) == 3


def test_graphic_rank_never_exceeds_cardinality():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        oracle = random_oracle(rng, "graphic", n)
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            assert oracle.value(subset) <= len(subset)


# ---------------------------------------------------------------------------
# value tables: the lattice walk, the fold of one mask, and references that
# share no code with either
# ---------------------------------------------------------------------------

def _walked_and_per_mask(build):
    """A fresh oracle's walked table as Fractions, and another fresh one's
    value_mask on every mask."""
    walked, fresh = build(), build()
    den, nums = walked.integer_table()
    return [F(v, den) for v in nums], [fresh.value_mask(m) for m in range(1 << fresh.n)]


def _prefix_sum_table(alpha, n):
    """f(mask) = sum of the first |mask| entries of alpha, for every mask."""
    return [sum(alpha[:mask.bit_count()], F(0)) for mask in range(1 << n)]


def _threshold_table(inst):
    """f*(mask) = sum_k sum_j w_kj * min(|mask & Gamma(k)|, j), with
    w_kj = alpha_kj - alpha_k,j+1, for every mask."""
    masks = [sum(1 << i for i in members) for members in inst.keyword_bidders]
    by_size = []                                    # f_k by |S & Gamma(k)|
    for alpha, members in zip(inst.ctrs, inst.keyword_bidders):
        w = [a - b for a, b in zip(alpha, alpha[1:] + (0,))]
        by_size.append([sum((w_j * min(size, j) for j, w_j in enumerate(w, 1)), F(0))
                        for size in range(len(members) + 1)])
    return [sum((f_k[(mask & m).bit_count()] for f_k, m in zip(by_size, masks)), F(0))
            for mask in range(1 << inst.n)]


def _forest_rank_table(edges):
    """Graphic rank of every mask: the edges a union-find keeps."""
    table = []
    for mask in range(1 << len(edges)):
        parent = {}

        def root(v):
            while parent.setdefault(v, v) != v:
                v = parent[v]
            return v

        rank = 0
        for e, (u, v) in enumerate(edges):
            if mask >> e & 1 and root(u) != root(v):
                parent[root(u)] = root(v)
                rank += 1
        table.append(F(rank))
    return table


def _min_cut_table(net):
    """f(mask) for every mask, straight from max-flow = min-cut.

    The minimum of cap(X -> V \\ X) over node sets X that hold the source and
    none of the mask's bidder nodes.  Each X's cut is summed once; a
    subset minimum over the other nodes then serves every mask.
    """
    n = len(net.bidder_nodes)
    nodes = {v for u, w, _ in net.edges for v in (u, w)} | set(net.bidder_nodes)
    others = list(nodes - {net.source})
    bit = {v: 1 << k for k, v in enumerate(others)}
    full = (1 << len(others)) - 1
    bit[net.source] = full + 1                      # on the source side of every cut
    den = math.lcm(*(c.denominator for _, _, c in net.edges))
    arcs = [(bit[u], bit[w], int(c * den)) for u, w, c in net.edges]
    best = []
    for side in range(full + 1):
        side |= full + 1
        best.append(sum(c for u, w, c in arcs if side & u and not side & w))
    for b in range(len(others)):                    # best[Y] = min over X <= Y of cut(X)
        for side in range(full + 1):
            if side >> b & 1 and best[side ^ 1 << b] < best[side]:
                best[side] = best[side ^ 1 << b]
    return [F(best[full & ~sum({bit[net.bidder_nodes[i]] for i in range(n) if mask >> i & 1})],
              den) for mask in range(1 << n)]


def _reference_table(inst):
    """Every mask's value for a generated instance, from its payload alone."""
    kind, payload = inst.environment.kind, inst.environment.payload
    if kind == "multi-unit":
        return _prefix_sum_table([payload["supply"]], inst.n)
    if kind == "single-keyword":
        return _prefix_sum_table(payload["ctrs"], inst.n)
    if kind == "adwords":
        return _threshold_table(inst.build_adwords())
    if kind == "graphic":
        return _forest_rank_table(payload["edges"])
    return _min_cut_table(CapacitatedNetwork.build(
        payload["edges"], payload["source"], payload["bidder_nodes"]))


def _random_network(rng, n):
    """Parallel arcs, self-loops, zero capacities, mixed denominators, bidders
    sharing nodes and bidders on a node no arc reaches."""
    inner = ["s"] + [f"v{k}" for k in range(rng.randint(2, 7))]
    edges = [(rng.choice(inner), rng.choice(inner[1:]),
              F(rng.choice((0, 0, 1, 2, 3, 5)), rng.choice((1, 2, 3, 4, 6))))
             for _ in range(rng.randint(1, 20))]
    edges += [(u, u, F(rng.randint(0, 3), 2)) for u in rng.sample(inner, 2)]
    edges += edges[:rng.randint(0, 3)]
    nodes = inner[1:] + ["island"]
    return CapacitatedNetwork.build(edges, "s", [rng.choice(nodes) for _ in range(n)])


def _random_multigraph(rng, n):
    vertices = rng.randint(1, 6)
    edges = [(rng.randrange(vertices), rng.randrange(vertices)) for _ in range(n)]
    for e in rng.sample(range(n), rng.randint(0, n // 3)):
        edges[e] = rng.choice(edges)               # parallel edges
    return edges


def _modular_network(n):
    """Each bidder on its own arc from the source, of capacity i + 1: f(S) is
    the sum of S's capacities, and every set augments its table."""
    return CapacitatedNetwork.build([("s", f"b{i}", i + 1) for i in range(n)], "s",
                                    [f"b{i}" for i in range(n)])


def test_walked_tables_match_per_mask_values():
    rng = random.Random(1512)
    for t in range(120):
        n = rng.randint(1, 10)
        if t % 2:
            net = _random_network(rng, n)
            build = lambda: vod_cut_oracle(net)         # noqa: E731
            reference = _min_cut_table(net)
        else:
            edges = _random_multigraph(rng, n)
            build = lambda: graphic_oracle(edges)       # noqa: E731
            reference = _forest_rank_table(edges)
        walked, per_mask = _walked_and_per_mask(build)
        assert walked == per_mask == reference, t
    # bidders sharing a node, cycles, arcs out of bidder nodes and back to
    # the source, zero and fractional capacities, and a modular network
    for net in _cut_networks(rng, 40) + [_modular_network(9)]:
        walked, per_mask = _walked_and_per_mask(lambda: vod_cut_oracle(net))
        assert walked == per_mask == _min_cut_table(net), net


def test_vod_cut_table_augments_only_unsettled_sets(monkeypatch):
    # one max_flow finds what the empty set's zero flow reaches; then a set S
    # settled by some S - i (f(S) = f(S - i)) copies its value, and the others
    # augment, one max_flow each, from the flow of S less its lowest bit
    calls = []
    max_flow = _ArcNetwork.max_flow
    monkeypatch.setattr(_ArcNetwork, "max_flow",
                        lambda self, *args: calls.append(args) or max_flow(self, *args))
    rng = random.Random(4404)
    builds = [generate_instance("vod-cut", n, None, seed).build_oracle
              for n, seed in ((10, 0), (10, 1), (12, 0), (12, 1))]
    builds += [functools.partial(vod_cut_oracle, net)
               for net in _cut_networks(rng, 10) + [_modular_network(8)]]
    counts = []
    for build in builds:
        oracle = build()
        del calls[:]
        nums = oracle.integer_table()[1]
        unsettled = [m for m in range(1, len(nums))
                     if all(nums[m] > nums[m ^ 1 << i] for i in range(oracle.n) if m >> i & 1)]
        assert len(calls) == 1 + len(unsettled), oracle
        counts.append(len(unsettled))
    assert counts[0] == 47 and counts[2] == 149 and counts[-1] == 255


def test_vod_cut_value_is_one_max_flow(monkeypatch):
    # a value read before any table is one max flow from zero with the set's
    # sink arcs above every cut, R(bound * 1_S): one max_flow call per miss,
    # and equal to the table's value where n allows one
    calls = []
    max_flow = _ArcNetwork.max_flow
    monkeypatch.setattr(_ArcNetwork, "max_flow",
                        lambda self, *args: calls.append(args) or max_flow(self, *args))
    rng = random.Random(1264)
    for n in (12, 64):
        oracle = generate_instance("vod-cut", n, None, 0).build_oracle()
        masks = list(dict.fromkeys([rng.getrandbits(n) | 1 for _ in range(20)] + [(1 << n) - 1]))
        values = []
        for mask in masks:
            del calls[:]
            values.append(oracle.value_mask(mask))
            assert len(calls) == 1, (n, mask)
        if n == 12:
            den, nums = oracle.integer_table()
            assert values == [F(nums[mask], den) for mask in masks]


def test_vod_cut_table_keeps_few_flows_alive():
    # the modular network augments all 2^16 - 1 sets; one flow kept per set
    # peaks near 54 MB, the chain of at most n + 1 flows under 8 MB
    oracle = vod_cut_oracle(_modular_network(16))
    tracemalloc.start()
    try:
        den, nums = oracle.integer_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert den == 1 and nums == [sum(i + 1 for i in range(16) if m >> i & 1)
                                 for m in range(1 << 16)]
    assert peak < 8 << 20, peak


def test_walked_tables_match_per_mask_values_on_generated_markets():
    # the generator draws 1-3 keywords; m = 8 sends eight popcount groups
    # through the AdWords table
    markets = [(kind, None) for kind in
               ("multi-unit", "single-keyword", "adwords", "vod-cut", "graphic")]
    for kind, m in markets + [("adwords", 8)]:
        for n, seeds in ((4, range(8)), (10, range(3)), (12, range(2))):
            for seed in seeds:
                inst = generate_instance(kind, n, m, seed)
                walked, per_mask = _walked_and_per_mask(inst.build_oracle)
                assert walked == per_mask, (kind, m, n, seed)
                if kind != "vod-cut" or n <= 10:
                    assert walked == _reference_table(inst), (kind, m, n, seed)


def test_graphic_level_table_matches_union_find_rank():
    # self-loops, parallel edges and vertices shared by several edges, on int
    # and str vertex labels: the level-by-level table, over denominator 1,
    # and a fresh oracle's per-mask fold equal a union-find
    rng = random.Random(3030)
    for t in range(150):
        n = rng.randint(1, 10)
        edges = _random_multigraph(rng, n)
        loop = rng.randrange(n)
        edges[loop] = (edges[loop][0], edges[loop][0])
        if t % 2:
            edges = [(f"v{u}", f"v{v}") for u, v in edges]
        walked, per_mask = _walked_and_per_mask(lambda: graphic_oracle(edges))
        reference = _forest_rank_table(edges)
        assert walked == per_mask == reference, t
        assert graphic_oracle(edges).integer_table() == (1, reference), t


def test_graphic_level_table_matches_the_per_mask_fold_on_generated_markets():
    for n, seeds in ((4, range(8)), (10, range(3)), (12, range(3)), (16, range(1))):
        for seed in seeds:
            build = generate_instance("graphic", n, None, seed).build_oracle
            walked, per_mask = _walked_and_per_mask(build)
            assert walked == per_mask, (n, seed)
            assert build().integer_table()[0] == 1, (n, seed)


def test_graphic_table_calls_no_step_per_mask(monkeypatch):
    # one relabelling pass per level but the last, and no value per mask
    inst = generate_instance("graphic", 10, None, 0)
    expected = _forest_rank_table(inst.environment.payload["edges"])
    oracle = inst.build_oracle()
    passes = []
    joined = environments._joined
    monkeypatch.setattr(environments, "_joined", lambda labels, a, b:
                        passes.append(len(labels)) or joined(labels, a, b))

    def refuse(mask):
        raise AssertionError("the level loop called the per-mask fold")

    oracle._fn = refuse
    assert oracle.integer_table() == (1, expected)
    assert passes == [1 << i for i in range(9)]


def test_graphic_fold_past_256_vertices():
    full = (1 << 300) - 1
    path = graphic_oracle([(k, k + 1) for k in range(300)])
    assert path.value_mask(full) == 300
    assert path.value_mask(full ^ 1 << 150) == 299
    cycle = graphic_oracle([(k, (k + 1) % 300) for k in range(300)])
    assert cycle.value_mask(full) == 299
    assert cycle.value_mask(full ^ 1 << 150) == 299


# hand-built multigraphs and the edge ids of their blocks, self-loops alone
HAND_BUILT_GRAPHS = {
    "parallel edges": ([(0, 1), (1, 2), (0, 1), (2, 3), (3, 1), (3, 4), (3, 4)],
                       [[0, 2], [1, 3, 4], [5, 6]]),
    "self-loop": ([(0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 3)], [[0, 2, 3], [1], [4], [5]]),
    "forest": ([(0, 1), (1, 2), (1, 3), (4, 5), (5, 6)], [[0], [1], [2], [3], [4]]),
    "disconnected": ([(0, 1), ("a", "b"), (1, 2), ("b", "c"), (2, 0), ("c", "a"), ("c", "d")],
                     [[0, 2, 4], [1, 3, 5], [6]]),
    "2-connected": ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)],
                    [[0, 1, 2, 3, 4, 5]]),
}


def _rho(rng, c):
    """Promises rho <= c, each entry 0, c_j or drawn between."""
    return [rng.choice((0, cj, rng.randint(0, cj))) for cj in c]


def _answers(solution, rho):
    return solution.total, solution.smallest(), solution.clinch(rho)


def test_block_rank_equals_the_table_rank():
    # Graphic's direct sum of block ranks answers as _table_rank on the
    # whole 2^n table: R, every clinch(rho) entry and smallest(), cold, warm
    # after one changed entry and warm at a scale k times larger, with c
    # and rho drawn to tie f({j}) on bridges and self-loops.  A graph that
    # is one block keeps the table solver.
    graphs = [(name, edges) for name, (edges, _) in HAND_BUILT_GRAPHS.items()]
    graphs += [(f"gen n={n} seed={seed}",
                generate_instance("graphic", n, None, seed).environment.payload["edges"])
               for n in (4, 8, 12) for seed in range(10)]
    rng = random.Random(4646)
    summed = 0
    for name, edges in graphs:
        oracle, n = graphic_oracle(edges), len(edges)
        table = submodular._table_rank(*oracle.integer_table())
        if oracle.reduced_rank is None:
            assert name == "2-connected" or n == 4, name
            continue
        summed += 1
        for _ in range(8):
            scale = rng.randint(1, 3)
            c = [rng.choice((0, scale, rng.randint(0, 4 * scale))) for _ in range(n)]
            rho = _rho(rng, c)
            solution = oracle.reduced_rank.solve(scale, c)
            expected = _answers(table.solve(scale, c), rho)
            assert _answers(solution, rho) == expected, (name, c, rho)
            for k in (1, rng.choice((2, 3))):
                new = [v * k for v in c]
                new[rng.randrange(n)] = rng.randint(0, 4 * scale * k)
                warm, at = solution.solve(scale * k, new), _rho(rng, new)
                assert _answers(warm, at) == _answers(table.solve(scale * k, new), at), (
                    name, new, at)
            assert _answers(solution, rho) == expected, (name, c, rho)
    assert summed >= 30, summed


def test_blocks_of_hand_built_graphs():
    for name, (edges, blocks) in HAND_BUILT_GRAPHS.items():
        vertex = {v: k for k, v in enumerate(dict.fromkeys(v for edge in edges for v in edge))}
        ends = [(vertex[a], vertex[b]) for a, b in edges]
        assert environments._blocks(ends, len(vertex)) == blocks, name


def test_cardinality_tables_are_prefix_sums():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(1, 8)
        ctrs = sorted((F(rng.randint(0, 6), rng.choice((1, 2, 3))) for _ in range(n)),
                      reverse=True)
        supply = F(rng.randint(0, 9), rng.choice((1, 4)))
        for oracle, alpha in ((single_keyword_oracle(ctrs), ctrs),
                              (multi_unit_oracle(supply, n), [supply])):
            walked, per_mask = _walked_and_per_mask(lambda: oracle)
            assert walked == per_mask == _prefix_sum_table(alpha, n), (ctrs, supply)


# ---------------------------------------------------------------------------
# video-on-demand cut oracle
# ---------------------------------------------------------------------------

def hub_network():
    return CapacitatedNetwork.build(
        [("s", "hub", 5), ("hub", "a", 3), ("hub", "b", 4)], "s", ["a", "b"])


def test_vod_cut_values():
    oracle = vod_cut_oracle(hub_network())
    assert oracle.value({0}) == 3
    assert oracle.value({1}) == 4
    assert oracle.value({0, 1}) == 5       # bottleneck on the shared s->hub arc
    assert oracle.value(set()) == 0


def test_vod_cut_disconnected_bidder_gets_zero():
    net = CapacitatedNetwork.build([("s", "a", 2)], "s", ["a", "island"])
    oracle = vod_cut_oracle(net)
    assert oracle.value({1}) == 0
    assert oracle.value({0, 1}) == 2


def _awkward_network(rng, source, others, island):
    """Mixed-denominator capacities, parallel arcs, a self-loop, arcs back to
    the source, two bidders on one node and a bidder no arc reaches."""
    caps = [F(1, 3), F(5, 4), F(7, 6), F(2), F(0), F(3, 2)]
    a, b = rng.sample(others, 2)
    edges = [(source, a, F(5, 4)), (source, a, F(1, 3)), (a, a, F(7, 6)),
             (a, source, F(3, 2)), (b, source, F(1, 3))]
    labels = [source] + others
    edges += [(rng.choice(labels), rng.choice(others), rng.choice(caps))
              for _ in range(rng.randint(12, 18))]
    bidders = [a] + rng.sample([v for v in others if v != a], 2)
    return CapacitatedNetwork.build(edges, source, bidders + [bidders[0], island])


def _cut_networks(rng, count):
    """``count`` networks of :func:`_awkward_network`, half on str labels and
    half on int labels."""
    nets = []
    for k in range(count):
        if k % 2:
            labels = rng.sample(range(10), 8)
            nets.append(_awkward_network(rng, labels[0], labels[1:7], labels[7]))
        else:
            nets.append(_awkward_network(rng, "s", ["a", "b", "c", "d", "e", "f"], "island"))
    return nets


def test_vod_cut_matches_brute_force_min_cut():
    rng = random.Random(29)
    nets = [
        CapacitatedNetwork.build([("a", "b", F(1, 3))], "s", ["a", "b"]),  # no arc leaves s
        # The first shortest path s-a-b-x takes the arc a-b, which the
        # maximum flow to {x, y} has to cancel.
        CapacitatedNetwork.build([("s", "a", 1), ("s", "c", 1), ("a", "b", 1), ("c", "b", 1),
                                  ("b", "x", 1), ("a", "d", 1), ("d", "e", 1), ("e", "y", 1)],
                                 "s", ["x", "y"]),
    ]
    for net in nets + _cut_networks(rng, 6):
        oracle = vod_cut_oracle(net)
        assert [oracle.value_mask(m) for m in range(1 << oracle.n)] == _min_cut_table(net), net


def _arc_network(rng, net):
    """The network on integer capacities, each bidder's node joined to a
    super-sink by an arc of random capacity (0 included)."""
    den = math.lcm(*(capacity.denominator for _, _, capacity in net.edges))
    graph = _ArcNetwork()
    graph.node(net.source)
    for u, v, capacity in net.edges:
        graph.arc(u, v, int(capacity * den))
    sink = object()
    sink_arcs = [graph.arc(b, sink, rng.choice((0, 1, 2, 5, 9, 100)))
                 for b in net.bidder_nodes]
    return graph, sink, sink_arcs


def _net_outflow(graph, residual):
    """Flow out of each node minus flow into it, by node number, for a flow
    from zero: residual[a ^ 1] is the flow on every even arc a."""
    out = [0] * len(graph.adj)
    for a in range(0, len(residual), 2):
        out[graph.head[a ^ 1]] += residual[a ^ 1]
        out[graph.head[a]] -= residual[a ^ 1]
    return out


def test_max_flow_stops_at_its_limit():
    # The value is min(limit, maximum flow), the residual stays a flow's
    # (no entry below 0, each arc pair keeping its capacity sum), and flow
    # is conserved at every node but the two ends.  Closing a sink arc that
    # carries flow and sending that flow from the bidder's node back to the
    # source, limited to what the arc carried, leaves a flow conserved
    # everywhere but the source and the sink.
    rng = random.Random(2404)
    closed = 0
    for _ in range(120):
        net = _random_network(rng, rng.randint(1, 6))
        graph, sink, sink_arcs = _arc_network(rng, net)
        source, end = graph.index[net.source], graph.index[sink]
        full = graph.max_flow(graph.cap[:], net.source, sink)[0]
        for limit in (1, full // 2, full, full + 1, None):
            residual = graph.cap[:]
            value = graph.max_flow(residual, net.source, sink, limit)[0]
            assert value == (full if limit is None else min(limit, full)), (net, limit)
            assert min(residual) >= 0, (net, limit)
            assert all(residual[a] + residual[a ^ 1] == graph.cap[a]
                       for a in range(0, len(residual), 2)), (net, limit)
            out = _net_outflow(graph, residual)
            assert out[source] == value == -out[end], (net, limit)
            assert not any(out[v] for v in range(len(out)) if v not in (source, end)), (net, limit)
        for j, a in enumerate(sink_arcs):
            carried = residual[a ^ 1]
            if not carried:
                continue
            warm = residual[:]
            warm[a] = warm[a ^ 1] = 0
            sent = graph.max_flow(warm, net.bidder_nodes[j], net.source, carried)[0]
            assert sent == carried and min(warm) >= 0, (net, j)
            out = _net_outflow(graph, warm)
            assert out[source] == full - carried == -out[end], (net, j)
            assert not any(out[v] for v in range(len(out)) if v not in (source, end)), (net, j)
            closed += 1
    assert closed >= 50, closed


def _random_c(rng, n):
    return tuple(F(rng.choice((0, 0, 1, 2, 3, 5, 8)), rng.choice((1, 2, 3, 5)))
                 for _ in range(n))


def _network(payload):
    """The network of a vod-cut instance's parsed environment."""
    return CapacitatedNetwork.build(payload["edges"], payload["source"], payload["bidder_nodes"])


def _generated_network(n, seed):
    """The network of the generated vod-cut market (n, seed), an out-tree."""
    return _network(generate_instance("vod-cut", n, None, seed).environment.payload)


def _zero_arc_twin(net):
    """``net`` plus an arc of capacity 0 from the source into the head of its
    first arc.  No cut changes, but two arcs enter that node, so the twin is
    no out-tree and its oracle keeps the max-flow solver."""
    return CapacitatedNetwork.build(list(net.edges) + [(net.source, net.edges[0][1], 0)],
                                    net.source, list(net.bidder_nodes))


def _vod_cut_cases():
    """(network, c) pairs: zero capacities, two bidders on one node and
    bidders the source cannot reach, from _random_network, and generated
    out-trees."""
    rng = random.Random(3103)
    nets = [(CapacitatedNetwork.build([("s", "a", 3)], "s", ["a", "a"]), (F(0), F(5))),
            (CapacitatedNetwork.build([("s", "a", 2)], "s", ["a", "island"]), (F(7), F(1, 2))),
            (hub_network(), (F(0), F(0)))]
    for t in range(150):
        n = rng.randint(1, 8)
        net = _random_network(rng, n) if t % 3 else _generated_network(n, t)
        nets.append((net, _random_c(rng, n)))
    return nets


def _reduced_rank_cases():
    """(oracle, c) pairs for the reduced-rank tests.

    Tree and vod-cut: the networks of _vod_cut_cases, the out-trees among
    them on the tree solver, and each out-tree's zero-arc twin on the
    max-flow solver.  Cardinality: zero CTRs, multi-unit lists (Q,) shorter
    than n.  Table: AdWords oracles, graphic oracles of one block, and
    built-in oracles stripped to their value table, all on the table
    solver.  Direct sum: the other graphic oracles, their blocks on the
    table solver.  c mixes ties, zeros and denominators.
    """
    nets = _vod_cut_cases()
    cases = [(vod_cut_oracle(net), c) for net, c in nets]
    cases += [(vod_cut_oracle(_zero_arc_twin(net)), c)
              for (net, c), (oracle, _) in zip(nets, cases) if _bucket(oracle) == "tree"]
    cases += [(single_keyword_oracle([0, 0, 0]), (F(1), F(0), F(1))),
              (single_keyword_oracle([3, 3, 0, 0]), (F(3), F(3), F(3), F(0))),
              (multi_unit_oracle(F(5, 2), 4), (F(5, 2), F(0), F(5, 2), F(1)))]
    rng = random.Random(3104)
    for t in range(100):
        n = rng.randint(1, 8)
        if t % 2:
            oracle = single_keyword_oracle(sorted(
                (F(rng.choice((0, 0, 1, 2, 3)), rng.choice((1, 2))) for _ in range(n)),
                reverse=True))
        else:
            oracle = multi_unit_oracle(F(rng.randint(0, 8), rng.choice((1, 2, 3))), n)
        cases.append((oracle, _random_c(rng, n)))
    rng = random.Random(3105)
    for t in range(90):
        n = rng.randint(1, 8)
        kind = ("graphic", "adwords", "vod-cut", "single-keyword", "multi-unit")[t % 5]
        oracle = random_oracle(rng, kind, n)
        cases.append((oracle if t % 5 < 2 else table_only(oracle), _random_c(rng, n)))
    return cases


def _bucket(oracle):
    if oracle.ctrs is not None:
        return "cardinality"
    if oracle.reduced_rank is None:
        return "table"
    if oracle.reduced_rank.solve.__qualname__.startswith("_tree_rank."):
        return "tree"
    return "vod-cut" if oracle.name.startswith("vod-cut") else "direct-sum"


def _rank_table(oracle, c):
    """f(T) + c([n] \\ T) for every mask T."""
    den, nums = oracle.integer_table()
    inside = [F(0)] * len(nums)                  # c(T), each mask from its lowest bit
    for m in range(1, len(nums)):
        low = m & -m
        inside[m] = inside[m ^ low] + c[low.bit_length() - 1]
    return [F(num, den) + sum(c) - c_in for num, c_in in zip(nums, inside)]


def _smallest_minimizer(values):
    low = min(values)
    return functools.reduce(operator.and_, (m for m, v in enumerate(values) if v == low))


def test_reduced_rank_matches_its_definition():
    ties = collections.Counter()
    for oracle, c in _reduced_rank_cases():
        values = _rank_table(oracle, c)
        total, smallest = reduced_rank(oracle, c)
        assert total == min(values) == values[smallest], (oracle, c)
        minimizers = [m for m, v in enumerate(values) if v == total]
        assert all(m & smallest == smallest for m in minimizers), (oracle, c)
        ties[_bucket(oracle)] += len(minimizers) > 1
    assert min(ties[kind] for kind in ("tree", "vod-cut", "cardinality", "table")) >= 20, ties


def test_clinch_equals_its_definition():
    # Every entry j of clinch(rho), from the solve at c, equals R(c) - R(c
    # with c_j = rho_j), both solved from scratch, inside T* and outside it:
    # at c as drawn, and with one entry above f([n]) + c([n]), as
    # check_outcome's tight-set search sets it.  Each rho_j is 0, c_j, drawn
    # between, g_j or g_j - 1, with g_j = R(c) - R(c with c_j = 0): a
    # maximum flow carries at least g_j on sink arc j, so where it carries
    # exactly g_j the flow's clinch lowers the arc from rho_j and from
    # rho_j + 1, and on a monotone f, rho_j = g_j - 1 >= 0 clinches exactly
    # 1.  Asking for clinch(rho) first leaves total and smallest() as a fresh
    # solve gives them, and smallest() is the intersection of the minimizers.
    rng = random.Random(4747)
    positive, edge = collections.Counter(), collections.Counter()
    for oracle, c in _reduced_rank_cases():
        rank, n = oracle.rank(), oracle.n
        den = math.lcm(rank.den, *(v.denominator for v in c))
        scale = den // rank.den
        nums = [int(v * den) for v in c]
        big = int(oracle.value_mask((1 << n) - 1) * den) + sum(nums) + 1
        for point in [nums] + [nums[:i] + [big] + nums[i + 1:] for i in range(n)]:
            def cold(j, t):
                return rank.solve(scale, point[:j] + [t] + point[j + 1:]).total

            fresh = rank.solve(scale, point)
            gaps = [fresh.total - cold(j, 0) for j in range(n)]
            rho = [rng.choice((0, cj, rng.randint(0, cj), g, max(0, g - 1)))
                   for cj, g in zip(point, gaps)]
            solution = rank.solve(scale, point)
            delta = solution.clinch(rho)
            for j in range(n):
                assert delta[j] == fresh.total - cold(j, rho[j]), (oracle, point, rho, j)
                positive[_bucket(oracle)] += delta[j] > 0
                edge[_bucket(oracle)] += rho[j] == gaps[j] - 1
            assert solution.total == fresh.total, (oracle, point)
            assert solution.smallest() == fresh.smallest() == _smallest_minimizer(
                _rank_table(oracle, [F(v, den) for v in point])), (oracle, point)
    assert min(positive[kind] for kind in (
        "tree", "vod-cut", "cardinality", "table", "direct-sum")) >= 100, positive
    assert edge["vod-cut"] >= 100, edge


def test_solution_solve_equals_a_cold_solve(monkeypatch):
    # A chain of solution.solve() calls equals cold solves at every point,
    # in total, smallest() and clinch at a promise drawn for the point:
    # moves lower, close or raise one entry, change several, scale by an
    # integer k > 1, or go to a scale that is not a multiple (the cold
    # fallback).  Besides the
    # reduced-rank cases, longer chains run on oracles with 9 to 12
    # bidders, where several changed entries can be under a quarter and
    # start warm; for the flow these are zero-arc twins of generated
    # markets, since a generated network is an out-tree, whose solver is
    # always cold.  Each solution is asked before its successor is made or
    # not (the table then has no kept minima to carry), and answers as
    # before once it is.  Some successors come from _clinch_nums started
    # from the kept solution, at a random split of the new point into
    # rho + d: its numbers equal the ones started from the reduced rank, and
    # the solution it returns is checked as any other.
    starts = {kind: collections.Counter()
              for kind in ("tree", "vod-cut", "cardinality", "table", "direct-sum")}
    warm_start = submodular._warm_start

    def counted(scale, c, new_scale, new_c):
        warm = warm_start(scale, c, new_scale, new_c)
        tally = starts[bucket]
        if warm is None:
            tally["cold"] += 1
        else:
            k, changed = warm
            tally.update(["warm"] + ["k > 1"] * (k > 1) + ["several"] * (len(changed) > 1))
        return warm
    monkeypatch.setattr(submodular, "_warm_start", counted)
    monkeypatch.setattr(environments, "_warm_start", counted)
    rng = random.Random(3106)
    wide = [random_oracle(rng, ("graphic", "adwords", "vod-cut")[t % 3], rng.randint(9, 12))
            for t in range(9)]
    wide += [table_only(oracle) for oracle in wide[2::3]]
    wide += [vod_cut_oracle(_zero_arc_twin(_generated_network(n, n))) for n in (9, 10, 11, 12)]
    rng = random.Random(3939)
    split, kernels = random.Random(2718), collections.Counter()    # the kernels' own draws
    promises = random.Random(4848)                                  # each point's promise
    for oracle, c in _reduced_rank_cases() + [(o, _random_c(rng, o.n)) for o in wide]:
        bucket, rank, n = _bucket(oracle), oracle.rank(), oracle.n
        den = math.lcm(rank.den, *(v.denominator for v in c))
        scale, point = den // rank.den, [int(v * den) for v in c]
        solution, promise = rank.solve(scale, point), _rho(promises, point)
        expected = _answers(rank.solve(scale, point), promise)
        for _ in range(6 if n < 9 else 24):
            if rng.random() < 0.5:
                assert _answers(solution, promise) == expected, (oracle, scale, point)
            move = rng.choice(("lower", "close", "raise", "several", "k", "ratio"))
            j = rng.randrange(n)
            new_scale, new = scale, point[:]
            big = int(oracle.value_mask((1 << n) - 1) * rank.den * scale) + sum(point) + 1
            if move == "lower":
                new[j] //= 2
            elif move == "close":
                new[j] = 0
            elif move == "raise":
                new[j] += rng.choice((1, point[j] + 1, big))
            elif move == "several":
                for i in rng.sample(range(n), min(n, rng.randint(2, max(2, n // 3)))):
                    new[i] = rng.choice((0, new[i] // 3, new[i] + 1, big))
            elif move == "k":
                k = rng.choice((2, 3, 6))
                new_scale, new = scale * k, [v * k for v in new]
                new[j] = rng.choice((new[j] // 2, new[j] + 1, new[j]))
            else:
                new_scale = scale + 1 if scale > 1 else 2 * scale + 1
            kernel = split.choice((None, submodular._clinch_nums))
            if kernel is None:
                successor = solution.solve(new_scale, new)
            else:
                rho = [split.randint(0, v) for v in new]
                d = list(map(operator.sub, new, rho))
                *numbers, successor = kernel(solution, new_scale, rho, d)
                assert numbers == list(kernel(rank, new_scale, rho, d)[:2]), (oracle, new)
                kernels[kernel.__name__] += 1
            assert _answers(solution, promise) == expected, (oracle, scale, point)
            promise = _rho(promises, new)
            expected = _answers(rank.solve(new_scale, new), promise)
            solution, scale, point = successor, new_scale, new
        assert _answers(solution, promise) == expected, (oracle, scale, point)
    assert not starts["cardinality"] and not starts["tree"], starts
    assert min(kernels.values()) >= 100, kernels
    for kind in ("vod-cut", "table"):
        assert starts[kind]["cold"] >= 50 and starts[kind]["warm"] >= 200, starts
        assert starts[kind]["k > 1"] >= 30 and starts[kind]["several"] >= 5, starts


def test_two_solves_on_one_oracle_do_not_share_state():
    # Interleaving the questions to two solutions changes neither: the state
    # each starts from is its own, not the oracle's.  Each point's clinch is
    # asked at a promise drawn for it.
    rng = random.Random(5150)
    oracles = [vod_cut_oracle(_random_network(rng, 6)) for _ in range(10)]
    oracles += [single_keyword_oracle([5, 3, 3, 1, 0, 0]), multi_unit_oracle(4, 6)]
    oracles += [random_oracle(rng, kind, 6) for kind in ("graphic", "adwords")]
    oracles.append(table_only(oracles[0]))
    for oracle in oracles:
        rank = oracle.rank()
        points = [[rng.randint(0, 9 * rank.den) for _ in range(6)] for _ in range(2)]
        rhos = [_rho(rng, point) for point in points]
        alone = []
        for point, rho in zip(points, rhos):
            solution = rank.solve(1, point)
            alone.append((solution.total, solution.smallest(), solution.clinch(rho)))
        first, second = (rank.solve(1, point) for point in points)
        asked = [second.smallest(), first.clinch(rhos[0]), second.clinch(rhos[1]),
                 first.smallest()]
        expected = [alone[1][1], alone[0][2], alone[1][2], alone[0][1]]
        assert asked == expected, oracle
        assert (first.total, second.total) == (alone[0][0], alone[1][0]), oracle
        # two chains of solution.solve() from the two points, stepped in turn,
        # each asked between the other's steps: each answers as a cold solve
        # at its point
        chains = [first, second]
        for _ in range(4):
            for side in (0, 1):
                point = points[side] = points[side][:]
                point[rng.randrange(6)] = rng.randint(0, 9 * rank.den)
                rhos[side] = _rho(rng, point)
                chains[side] = chains[side].solve(1, point)
                other = 1 - side
                assert _answers(chains[other], rhos[other]) == _answers(
                    rank.solve(1, points[other]), rhos[other]), oracle
        assert [_answers(chain, rho) for chain, rho in zip(chains, rhos)] == [
            _answers(rank.solve(1, point), rho) for point, rho in zip(points, rhos)], oracle


def test_tree_rank_equals_its_zero_arc_twin():
    # An out-tree's oracle takes the tree solver and its zero-arc twin's the
    # max-flow one.  The twin's arc changes no cut, so both give one R, one
    # clinch(rho) and one smallest(): on every out-tree of the reduced-rank
    # cases and on the generated networks at n = 4, 8, 12 and 64, at scales
    # 1 to 3, with c drawn from small multiples of one unit so that sums of
    # c tie arc capacities.
    nets = [net for net, _ in _vod_cut_cases() if _bucket(vod_cut_oracle(net)) == "tree"]
    nets += [_generated_network(n, seed) for n in (4, 8, 12, 64) for seed in range(10)]
    rng = random.Random(4949)
    seen = collections.Counter()
    for net in nets:
        tree, twin = vod_cut_oracle(net), vod_cut_oracle(_zero_arc_twin(net))
        assert (_bucket(tree), _bucket(twin)) == ("tree", "vod-cut"), net
        rank, flow = tree.rank(), twin.rank()
        assert rank.den == flow.den, net
        for _ in range(6):
            scale = rng.randint(1, 3)
            unit = rank.den * scale
            c = [rng.choice((0, unit, 2 * unit, 3 * unit, rng.randint(0, 6 * unit)))
                 for _ in range(tree.n)]
            rho = _rho(rng, c)
            total, smallest, delta = _answers(rank.solve(scale, c), rho)
            assert (total, smallest, delta) == _answers(flow.solve(scale, c), rho), (
                net, scale, c, rho)
            wanted = sum(1 << i for i, ci in enumerate(c) if ci)
            seen["split"] += 0 < smallest < wanted
            seen["clinched"] += sum(v > 0 for v in delta)
    assert len(nets) >= 90 and seen["split"] >= 200 and seen["clinched"] >= 1000, (len(nets), seen)


def test_tree_markets_run_and_verify_as_their_zero_arc_twins():
    # On the generated vod-cut markets of seeds 0 to 9 and the vod-cut
    # fixture, the tree solver and the max-flow solver of the zero-arc twin
    # give one traced outcome, trace included, and one verify report.
    markets = [generate_instance("vod-cut", 4 + seed % 5, None, seed) for seed in range(10)]
    markets.append(parse_instance(FIXTURES / "vod-cut.json"))
    for inst in markets:
        payload = inst.environment.payload
        edges = list(_zero_arc_twin(_network(payload)).edges)
        twin = dataclasses.replace(inst, environment=EnvironmentSpec(
            "vod-cut", {**payload, "edges": edges}))
        assert (_bucket(inst.oracle), _bucket(twin.oracle)) == ("tree", "vod-cut"), inst
        cfg = dataclasses.replace(inst.config, trace=True)
        runs = [run_clinching(m.oracle, m.bidders, cfg).to_json() for m in (inst, twin)]
        assert runs[0] == runs[1] and runs[0]["trace"], inst
        checked = [(outcome.to_json(), report.to_json())
                   for outcome, report in map(cli._verify, (inst, twin))]
        assert checked[0] == checked[1], inst


def test_vod_cut_rejects_source_as_bidder():
    with pytest.raises(DomainError):
        CapacitatedNetwork.build([("s", "a", 1)], "s", ["s"])
    with pytest.raises(DomainError, match="^at least one bidder node is required$"):
        CapacitatedNetwork.build([("s", "a", 1)], "s", [])


def test_vod_cut_rejects_labels_that_are_one_dict_key():
    # 1, True and 1.0 are one dict key, so the arcs' 2 and 3 would merge
    for other in (True, 1.0):
        with pytest.raises(DomainError) as err:
            vod_cut_oracle(CapacitatedNetwork.build([("s", 1, 2), ("s", other, 3)], "s",
                                                    [1, other]))
        assert "edge 1" in str(err.value) and repr(other) in str(err.value)
    for source, nodes in ((None, ["a"]), ("s", ["a", ("b",)])):
        with pytest.raises(DomainError) as err:
            CapacitatedNetwork.build([("s", "a", 1)], source, nodes)
        assert "strings or ints" in str(err.value)


def test_vod_cut_submodular_and_monotone():
    rng = random.Random(17)
    for _ in range(20):
        oracle = random_oracle(rng, "vod-cut", rng.randint(2, 5))
        assert verify_submodular(oracle).ok


def test_all_constructors_verify_at_small_sizes():
    rng = random.Random(123)
    for kind in ("multi-unit", "single-keyword", "adwords", "graphic", "vod-cut"):
        for _ in range(5):
            oracle = random_oracle(rng, kind, rng.randint(2, 6))
            assert verify_submodular(oracle).ok, kind
