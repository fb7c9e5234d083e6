"""Oracle, residual-polytope and clinch-amount primitives."""

import functools
import math
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyclinch import (
    ClinchError,
    DomainError,
    PreconditionError,
    ResidualOracle,
    SizeError,
    SubmodularOracle,
    clinch_amounts,
    fast_residual_max,
    greedy_vertex,
    membership,
    min_constrained,
    multi_unit_oracle,
    residual,
    single_keyword_oracle,
    verify_submodular,
)

from polyclinch.instances import generate_instance
from polyclinch.submodular import (
    MembershipResult,
    OracleCheck,
    RankSolution,
    ReducedRank,
    _cardinality_rank,
    _local_test,
    _mask_sums,
    as_fraction,
    clinch_kernel,
    set_of,
)

from corpus import KINDS, random_demands, random_feasible_point, random_oracle, table_only

F = Fraction


def _min_over_supersets(values: list, n: int) -> list:
    """out[m] = min over supermasks s of m of values[s]."""
    out = list(values)
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if not m & bit and out[m | bit] < out[m]:
                out[m] = out[m | bit]
    return out


def monotonized_oracle(res: ResidualOracle) -> SubmodularOracle:
    """fbar(S) = min over supersets of fhat: the monotone function of the same polytope."""
    table = _min_over_supersets([res.value_mask(m) for m in range(1 << res.n)], res.n)
    return SubmodularOracle(res.n, table.__getitem__, True, f"monotonized({res.name})")


# ---------------------------------------------------------------------------
# oracle values
# ---------------------------------------------------------------------------

def test_evaluate_single_keyword_top_two():
    oracle = single_keyword_oracle([3, 2, 1])
    assert oracle.value({0, 1}) == 5


def test_evaluate_empty_set_is_zero():
    for oracle in (single_keyword_oracle([3, 2]), multi_unit_oracle(7, 3)):
        assert oracle.value(set()) == 0


def test_evaluate_rejects_out_of_range_index():
    oracle = multi_unit_oracle(1, 2)
    with pytest.raises(DomainError):
        oracle.value({5})
    with pytest.raises(DomainError, match="^element 2 is outside the ground set of size 2$"):
        oracle.singleton(2)
    with pytest.raises(DomainError, match="^ground set must have n >= 1, got 0$"):
        SubmodularOracle(0, lambda m: F(0), True, "empty")


def test_evaluate_is_deterministic_across_calls():
    oracle = single_keyword_oracle([3, 2, 1])
    assert oracle.value({1, 2}) == oracle.value({2, 1})


# ---------------------------------------------------------------------------
# verify_submodular
# ---------------------------------------------------------------------------

def test_multi_unit_oracle_verifies():
    assert verify_submodular(multi_unit_oracle(5, 4)).ok


def test_cardinality_squared_rejected_with_witness():
    bad = SubmodularOracle.from_set_function(3, lambda s: len(s) ** 2, name="square")
    check = verify_submodular(bad)
    assert not check.ok
    assert check.violation == "submodularity"
    s, t = check.witness
    assert (sorted(s), sorted(t)) == ([0], [1])
    # replaying the witness reproduces the violation
    assert bad.value(s | t) + bad.value(s & t) > bad.value(s) + bad.value(t)


def test_nonincreasing_ctrs_always_verify():
    for ctrs in ([3, 2, 1], [5, 5, 0], [1, 0, 0, 0]):
        assert verify_submodular(single_keyword_oracle(ctrs)).ok


def test_false_monotone_claim_caught():
    dipping = SubmodularOracle.from_set_function(
        2, lambda s: [0, 2, 2, 1][sum(1 << i for i in s)], monotone=True, name="dip")
    check = verify_submodular(dipping)
    assert not check.ok


def test_verify_respects_brute_force_cap(monkeypatch):
    # a table oracle: a cardinality oracle is checked from its rank list
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "3")
    with pytest.raises(SizeError) as err:
        verify_submodular(table_only(multi_unit_oracle(1, 4)))
    assert "Single-keyword and multi-unit oracles pass it at any size" in str(err.value)


def test_size_error_names_its_cap_and_how_to_raise_it(monkeypatch):
    # a table oracle: one with a structural reduced rank decides membership
    # past the cap; this one's table solver asks for the value table
    oracle = table_only(multi_unit_oracle(1, 5))
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "3")
    with pytest.raises(SizeError) as err:
        membership(oracle, [0] * 5)
    assert (err.value.n, err.value.cap, err.value.what) == (
        5, 3, "value table of 'multi-unit(Q=1)'")
    assert "CLINCH_BRUTE_FORCE_CAP" in str(err.value) and "5" in str(err.value)
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "5")
    assert membership(oracle, [0] * 5).ok
    # a value that is not a positive integer is refused, not read as a cap
    for raw, message in (("many", "must be an integer, got 'many'"),
                         ("0", "must be positive, got 0")):
        monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", raw)
        with pytest.raises(DomainError, match=f"CLINCH_BRUTE_FORCE_CAP {message}"):
            membership(table_only(multi_unit_oracle(1, 5)), [0] * 5)


def test_as_fraction_is_exact():
    # a float or a bool is no exact rational; strings parse exactly
    assert as_fraction("3/4") == F(3, 4) and as_fraction(-2) == -2
    for raw, message in ((0.5, "exact rational, got float"), (True, "rational, got True"),
                         ("3/0", "malformed rational '3/0'"), ("x", "malformed rational 'x'")):
        with pytest.raises(DomainError, match=message):
            as_fraction(raw)


def _pairwise_verify_submodular(oracle) -> OracleCheck:
    """The 4^n Fraction scan verify_submodular ran before the local test."""
    n = oracle.n
    if oracle.value_mask(0) != 0:
        return OracleCheck(False, "normalization", (frozenset(),),
                           f"f(empty) = {oracle.value_mask(0)} != 0")
    size = 1 << n
    values = [oracle.value_mask(m) for m in range(size)]
    for s in range(size):
        for t in range(s + 1, size):
            if values[s | t] + values[s & t] > values[s] + values[t]:
                return OracleCheck(
                    False, "submodularity", (set_of(s), set_of(t)),
                    f"f(S|T)+f(S&T) = {values[s | t] + values[s & t]} > "
                    f"{values[s] + values[t]} = f(S)+f(T)")
    if oracle.monotone:
        for s in range(size):
            for i in range(n):
                if s >> i & 1:
                    continue
                if values[s | (1 << i)] < values[s]:
                    return OracleCheck(
                        False, "monotonicity", (set_of(s), set_of(s | (1 << i))),
                        f"f(S) = {values[s]} > {values[s | (1 << i)]} = f(S+{i})")
    return OracleCheck(True)


def _first_local_violation(oracle) -> OracleCheck:
    """The witness verify_submodular names, on Fraction values: the first
    (S+i, S+j), S ascending and then i < j outside S, with
    f(S+i) + f(S+j) < f(S+i+j) + f(S); else, if the oracle claims
    monotonicity, the first (S, S+i), S ascending and then i, with
    f(S+i) < f(S)."""
    n = oracle.n
    f = oracle.value_mask
    for s in range(1 << n):
        outside = [i for i in range(n) if not s >> i & 1]
        for k, i in enumerate(outside):
            for j in outside[k + 1:]:
                si, sj = s | 1 << i, s | 1 << j
                if f(si) + f(sj) < f(si | sj) + f(s):
                    return OracleCheck(False, "submodularity", (set_of(si), set_of(sj)),
                                       f"f(S|T)+f(S&T) = {f(si | sj) + f(s)} > "
                                       f"{f(si) + f(sj)} = f(S)+f(T)")
    for s in range(1 << n) if oracle.monotone else ():
        for i in range(n):
            if not s >> i & 1 and f(s | 1 << i) < f(s):
                return OracleCheck(False, "monotonicity", (set_of(s), set_of(s | 1 << i)),
                                   f"f(S) = {f(s)} > {f(s | 1 << i)} = f(S+{i})")
    return OracleCheck(True)


def _check_against_references(oracle) -> OracleCheck:
    """verify_submodular(oracle) against the 4^n scan: the same verdict and
    violation, the same result in full unless it names a submodularity
    witness, which must be the first local violation and replay."""
    got, old = verify_submodular(oracle), _pairwise_verify_submodular(oracle)
    assert (got.ok, got.violation) == (old.ok, old.violation)
    if got.violation != "submodularity":
        assert got == old
        return got
    assert got == _first_local_violation(oracle)
    s, t = got.witness
    assert oracle.value(s | t) + oracle.value(s & t) > oracle.value(s) + oracle.value(t)
    return got


def _table_oracle(table, monotone):
    n = len(table).bit_length() - 1
    return SubmodularOracle(n, lambda m: table[m], monotone, "table")


def _cut_table(rng, n):
    """Cut function of a random weighted graph: submodular, not monotone."""
    edges = [(i, j, F(rng.randint(0, 4), rng.choice((1, 2, 3))))
             for i in range(n) for j in range(i + 1, n)]
    return [sum((w for i, j, w in edges if (m >> i & 1) != (m >> j & 1)), F(0))
            for m in range(1 << n)]


def test_verify_submodular_matches_pairwise_scan_on_seeded_tables():
    rng = random.Random(4040)
    seen = set()
    for t in range(300):
        n = rng.randint(1, 6)
        if t % 3 == 0:
            # Arbitrary tables: mostly not submodular.
            table = [F(0)] + [F(rng.randint(0, 9), rng.choice((1, 2, 5)))
                              for _ in range((1 << n) - 1)]
        elif t % 3 == 1:
            # Cut functions: submodular, so a false monotone claim is caught.
            table = _cut_table(rng, n)
        else:
            # Concave of cardinality plus a modular part of either sign.
            steps = sorted((F(rng.randint(0, 6), 2) for _ in range(n)), reverse=True)
            curve = [sum(steps[:k], F(0)) for k in range(n + 1)]
            weights = [F(rng.randint(-3, 3), 2) for _ in range(n)]
            table = [curve[m.bit_count()] + sum((weights[i] for i in set_of(m)), F(0))
                     for m in range(1 << n)]
        monotone = rng.random() < 0.7
        seen.add(_check_against_references(_table_oracle(table, monotone)).violation)
    assert seen == {None, "submodularity", "monotonicity"}


def test_verify_submodular_matches_pairwise_scan_on_planted_perturbations():
    rng = random.Random(5151)
    caught = {kind: 0 for kind in KINDS}
    for t in range(100):
        kind = KINDS[t % len(KINDS)]
        n = rng.randint(2, 6)
        base = random_oracle(rng, kind, n)
        table = [base.value_mask(m) for m in range(1 << n)]
        mask = rng.randrange(1, 1 << n)
        table[mask] += rng.choice((F(1), F(-1), F(1, 3), F(-1, 7)))
        caught[kind] += not _check_against_references(_table_oracle(table, True)).ok
        assert verify_submodular(base).ok
    assert all(caught.values()), caught


def test_verify_submodular_checks_residual_oracles_like_any_oracle():
    rng = random.Random(6262)
    for _ in range(30):
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, rng.choice(KINDS), n)
        res = residual(oracle, random_feasible_point(rng, oracle), random_demands(rng, n))
        assert isinstance(res, SubmodularOracle)
        assert verify_submodular(res) == _pairwise_verify_submodular(res) == OracleCheck(True)


def _coverage_table(n, weight):
    """f(S) = the sum of weight(a, b) over the pairs a < b that meet S:
    monotone, and f(S+a) + f(S+b) - f(S+a+b) - f(S) = weight(a, b) at every S."""
    pairs = [(a, b, weight(a, b)) for a in range(n) for b in range(a + 1, n)]
    return [sum(w for a, b, w in pairs if (m >> a | m >> b) & 1) for m in range(1 << n)]


def _check_slice_test(table, monotone, expected):
    """The slice test's verdict and verify_submodular's witness against the
    ordered scan of Fraction values, on an integer table."""
    n = len(table).bit_length() - 1
    oracle = _table_oracle([F(v) for v in table], monotone)
    reference = _first_local_violation(oracle)
    assert reference.violation == expected
    submodular, increasing = _local_test(table, n)
    assert submodular == (expected != "submodularity")
    if submodular:
        assert increasing == all(table[m | 1 << i] >= table[m]
                                 for m in range(1 << n) for i in range(n))
    assert verify_submodular(oracle) == reference
    return reference


def test_slice_test_finds_a_planted_violation_at_every_pair():
    # Coverage weights 3, except 1 on the pair (i, j), plus 2 on the sets
    # holding S + i + j: the only failing second differences are those of
    # the pair (i, j) at the sets holding S, so (S+i, S+j) is the witness.
    # With S all the other elements it is the one failing comparison.  n runs
    # to 9, so that bits 0-4 meet both slice layouts of _bit_slices (strided
    # on tables of 2^(2i+1) entries or more) and every bit the blockwise one.
    rng = random.Random(7070)
    for n in range(1, 10):
        _check_slice_test(_coverage_table(n, lambda a, b: 3), True, None)
        for i in range(n):
            for j in range(i + 1, n):
                others = [k for k in range(n) if k not in (i, j)]
                table = _coverage_table(n, lambda a, b: 1 if (a, b) == (i, j) else 3)
                for base in (others, [k for k in others if rng.random() < 0.5]):
                    top = sum(1 << k for k in base) | 1 << i | 1 << j
                    planted = [v + 2 * (m & top == top) for m, v in enumerate(table)]
                    check = _check_slice_test(planted, rng.random() < 0.5, "submodularity")
                    assert check.witness == (frozenset(base) | {i}, frozenset(base) | {j})


def test_slice_test_finds_monotonicity_only_violations():
    # A modular term -m x_k keeps twice a coverage function submodular;
    # element k's marginal at S is twice the weight of its pairs outside
    # S + k, less m, so with m = 1 it dips only at S = [n] - k, and with
    # larger m earlier.  An oracle that makes no monotonicity claim passes.
    rng = random.Random(7171)
    for n in range(1, 10):
        for k in sorted({0, rng.randrange(n), n - 1}):
            weights = {(a, b): rng.choice((1, 2)) for a in range(n) for b in range(a + 1, n)}
            table = _coverage_table(n, lambda a, b: weights[a, b])
            for cut in (1, rng.randint(1, 2 * n)):
                dipping = [2 * v - cut * (m >> k & 1) for m, v in enumerate(table)]
                check = _check_slice_test(dipping, True, "monotonicity")
                if cut == 1:
                    everyone = (1 << n) - 1
                    assert check.witness == (set_of(everyone ^ 1 << k), set_of(everyone))
                _check_slice_test(dipping, False, None)


def test_verify_submodular_names_a_planted_violation_at_n12_quickly():
    # f(S) = A_|S| with steps 100 - 9t, plus 12 on {0..10}: the only failing
    # pairs have union {0..10}, which a scan of all set pairs takes seconds to reach
    alpha = [100 - 9 * t for t in range(12)]
    curve = [sum(alpha[:k]) for k in range(13)]
    bumped = frozenset(range(11))
    oracle = SubmodularOracle.from_set_function(
        12, lambda s: curve[len(s)] + (12 if s == bumped else 0), True, "planted")
    start = time.perf_counter()
    check = verify_submodular(oracle)
    assert time.perf_counter() - start < 1
    assert check == OracleCheck(
        False, "submodularity", (frozenset(range(10)), frozenset(range(9)) | {10}),
        f"f(S|T)+f(S&T) = {curve[11] + 12 + curve[9]} > {2 * curve[10]} = f(S)+f(T)")


def test_cardinality_oracles_are_checked_from_their_rank_list(monkeypatch):
    # Lists of every sign pattern, with ties, shorter and longer than n: a
    # list on which the table check of A_|S| fails is refused by the
    # constructor, so an oracle built with it as ctrs passes with no table.
    rng = random.Random(2207)
    verdicts, accepted, refused = set(), 0, 0
    for _ in range(300):
        n = rng.randint(1, 6)
        alpha = [F(rng.randint(-1, 3), rng.choice((1, 2))) for _ in range(rng.randint(0, n + 1))]
        monotone = rng.random() < 0.7
        expected = verify_submodular(SubmodularOracle.from_set_function(
            n, lambda s: sum(alpha[:len(s)]), monotone, "cardinality"))
        verdicts.add(expected.violation)
        try:
            oracle = SubmodularOracle(n, lambda m: sum(alpha[:m.bit_count()], F(0)), monotone,
                                      "cardinality", ctrs=alpha)
        except DomainError:
            refused += 1
            continue
        accepted += 1
        assert expected.ok, (alpha, n, monotone)
        assert verify_submodular(oracle) == OracleCheck(True)
        assert oracle._table is None
    assert verdicts == {None, "submodularity", "monotonicity"}
    assert accepted and refused
    # past the cap: built-in cardinality oracles pass without a table
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "4")
    for oracle in (single_keyword_oracle(range(200, 0, -1)), multi_unit_oracle(3, 200),
                   single_keyword_oracle([2, 2] + [0] * 30)):
        assert verify_submodular(oracle) == OracleCheck(True)
        assert oracle._table is None


def test_cardinality_oracles_keep_the_checked_rank_list():
    # a caller that changes its list afterwards changes neither .ctrs nor R
    alpha = [3, 2]
    oracle = SubmodularOracle(2, lambda m: F(0), True, "x", ctrs=alpha)
    alpha[1] = 5
    assert oracle.ctrs == (3, 2)
    assert verify_submodular(oracle).ok
    assert oracle.rank().solve(1, [5, 5]).total == 5
    # the list is the oracle's one definition: its values too, not fn_mask's 0
    oracle = SubmodularOracle(2, lambda m: F(0), True, "x", ctrs=(3, 2))
    assert (oracle.value({0}), oracle.value({0, 1})) == (3, 5)


# ---------------------------------------------------------------------------
# value tables: an oracle's own builder, or one fn_mask call per mask
# ---------------------------------------------------------------------------

def _stepped_square(n, calls, builds):
    """f(S) = |S|^2 (not submodular) with a table builder; fn_mask calls
    and builds are recorded."""
    def table():
        builds.append(n)
        return 1, [m.bit_count() ** 2 for m in range(1 << n)]
    return SubmodularOracle(n, lambda m: calls.append(m) or F(m.bit_count() ** 2), False,
                            "stepped square", table=table)


def test_value_mask_reads_the_built_table():
    calls, builds = [], []
    oracle = _stepped_square(5, calls, builds)
    assert oracle.value_mask(0b11) == 4 and calls == [0b11]
    # the oracle takes its table from the builder, once, and calls no fn_mask
    assert oracle.integer_table() == oracle.integer_table() == (
        1, [m.bit_count() ** 2 for m in range(32)])
    assert [oracle.value_mask(m) for m in range(32)] == [F(m.bit_count() ** 2) for m in range(32)]
    assert calls == [0b11] and builds == [5]


def test_verify_submodular_names_violations_from_the_walked_table():
    calls = []
    check = verify_submodular(_stepped_square(4, calls, []))
    assert calls == []
    expected = _pairwise_verify_submodular(
        SubmodularOracle.from_set_function(4, lambda s: len(s) ** 2))
    assert check == expected and check.violation == "submodularity"


def test_integer_table_checks_the_cap_before_it_walks(monkeypatch):
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "4")
    calls, builds = [], []
    for oracle in (_stepped_square(5, calls, builds),
                   SubmodularOracle(5, lambda m: calls.append(m) or F(1), True, "flat")):
        with pytest.raises(SizeError):
            oracle.integer_table()
    assert calls == [] and builds == []


# ---------------------------------------------------------------------------
# residual oracle
# ---------------------------------------------------------------------------

def test_residual_example_alpha_32():
    oracle = single_keyword_oracle([3, 2])
    res = residual(oracle, [1, 0], [5, 1])
    # minimizing T = {0}: f({0}) - rho({0}) + d({1}) = 3 - 1 + 1
    assert res.value([0, 1]) == 3
    assert res.value([0]) == 2
    assert res.value([1]) == 1


def test_residual_zero_demand_vanishes():
    oracle = single_keyword_oracle([3, 2, 1])
    res = residual(oracle, [1, 1, 0], [0, 0, 0])
    for mask_set in ([], [0], [1, 2], [0, 1, 2]):
        assert res.value(mask_set) == 0


def test_residual_recovers_base_at_origin():
    oracle = single_keyword_oracle([4, 2, 1])
    demands = [oracle.singleton(i) for i in range(3)]
    res = residual(oracle, [0, 0, 0], demands)
    for subset in ([0], [1], [0, 2], [0, 1, 2]):
        assert res.value(subset) == oracle.value(subset)


def test_residual_oracle_checks_the_cap(monkeypatch):
    # the reference tabulates 2^n sets even on an oracle with a reduced rank,
    # whose membership test needs no enumeration
    monkeypatch.delenv("CLINCH_BRUTE_FORCE_CAP", raising=False)
    with pytest.raises(SizeError) as err:
        residual(multi_unit_oracle(5, 18), [0] * 18, [1] * 18)
    assert (err.value.n, err.value.cap) == (18, 16)
    assert "CLINCH_BRUTE_FORCE_CAP" in str(err.value)


def test_residual_rejects_infeasible_promises():
    oracle = single_keyword_oracle([3, 2])
    with pytest.raises(PreconditionError) as err:
        residual(oracle, [4, 0], [1, 1])
    assert err.value.witness == frozenset({0})


def test_residual_brute_force_matches_definition():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, "adwords" if n <= 4 else "single-keyword", n)
        rho = random_feasible_point(rng, oracle)
        d = random_demands(rng, n)
        res = residual(oracle, rho, d)
        mask = rng.randrange(1 << n)
        subset = [i for i in range(n) if mask >> i & 1]
        # direct enumeration of min over T <= S of f(T) - rho(T) + d(S \ T)
        best = None
        for t_mask in range(1 << n):
            if t_mask & ~mask:
                continue
            value = (oracle.value_mask(t_mask)
                     - sum(rho[i] for i in range(n) if t_mask >> i & 1)
                     + sum(d[i] for i in range(n) if (mask & ~t_mask) >> i & 1))
            best = value if best is None else min(best, value)
        assert res.value(subset) == best


def test_residual_stays_submodular_200_random_triples():
    rng = random.Random(20260808)
    for _ in range(200):
        n = rng.randint(2, 6)
        kind = rng.choice(("multi-unit", "single-keyword", "graphic", "vod-cut", "adwords"))
        oracle = random_oracle(rng, kind, n)
        res = residual(oracle, random_feasible_point(rng, oracle), random_demands(rng, n))
        assert verify_submodular(res).ok
        mono = monotonized_oracle(res)
        assert verify_submodular(mono).ok


def test_monotonization_defines_same_polytope_values():
    oracle = single_keyword_oracle([3, 2])
    res = residual(oracle, [1, 0], [5, 0])
    # fhat({0}) = 2 but fhat({0,1}) = 2 as well; fbar({1}) folds the full set in
    assert monotonized_oracle(res).value([1]) == min(res.value([1]), res.value([0, 1]))


# ---------------------------------------------------------------------------
# min_constrained
# ---------------------------------------------------------------------------

def test_min_constrained_modular():
    weights = [-1, 2]
    fn = lambda s: sum(weights[i] for i in s)  # noqa: E731
    assert min_constrained(fn, 2) == (frozenset({0}), -1)
    assert min_constrained(fn, 2, include={1}) == (frozenset({0, 1}), 1)


def test_min_constrained_tight_set_search():
    oracle = single_keyword_oracle([3, 2])
    x = (F(3), F(1))
    fn = lambda s: oracle.value(s) - sum(x[i] for i in s)  # noqa: E731
    assert min_constrained(fn, 2, include={0}, exclude={1}) == (frozenset({0}), 0)
    # an oracle is minimized as given, with n read from it
    assert min_constrained(oracle, include={1}) == (frozenset({1}), 3)


def test_min_constrained_tie_break_smallest_then_lexicographic():
    fn = lambda s: 0  # noqa: E731  everything ties
    assert min_constrained(fn, 3) == (frozenset(), 0)
    assert min_constrained(fn, 3, include={2}) == (frozenset({2}), 0)
    pair_fn = lambda s: 0 if len(s) == 2 else 1  # noqa: E731
    assert min_constrained(pair_fn, 3) == (frozenset({0, 1}), 0)


def _old_key_argmin(eval_mask, masks):
    """The witness order as first written: the full key built for every mask."""
    return min(masks, key=lambda m: (eval_mask(m), bin(m).count("1"),
                                     tuple(sorted(set_of(m)))))


def test_witness_tie_break_matches_full_key_under_forced_ties():
    rng = random.Random(808)
    for _ in range(200):
        n = rng.randint(1, 6)
        # Most masks tie; the smallest ties have two or more elements, where
        # the sorted-tuple order differs from the mask order ({0, 3} < {1, 2}).
        table = [rng.randint(0, 1) + (m.bit_count() < 2) for m in range(1 << n)]
        fn = lambda s, t=table: t[sum(1 << i for i in s)]  # noqa: E731
        include = {i for i in range(n) if rng.random() < 0.2}
        exclude = {i for i in range(n) if i not in include and rng.random() < 0.2}
        inc = sum(1 << i for i in include)
        masks = [m for m in range(1 << n)
                 if m & inc == inc and not m & sum(1 << i for i in exclude)]
        best = _old_key_argmin(lambda m: table[m], masks)
        assert min_constrained(fn, n, include, exclude) == (set_of(best), table[best])

        # membership: f - x ties on many sets, negative on some.
        oracle = SubmodularOracle(n, lambda m, t=table: F(t[m] + m.bit_count()),
                                  False, "ties")
        x = [F(rng.randint(0, 2)) for _ in range(n)]
        slack = lambda m: oracle.value_mask(m) - sum(x[i] for i in set_of(m))  # noqa: E731
        best = _old_key_argmin(slack, range(1, 1 << n))
        result = membership(oracle, x)
        if slack(best) < 0:
            assert (result.ok, result.violating, result.deficit) == \
                (False, set_of(best), slack(best))
        else:
            assert result.ok
    # The first minimizer by mask, {0, 1}, is not the witness, {2}.
    table = [0, 1, 1, 0, 0, 2, 2, 3]
    result = membership(SubmodularOracle(3, lambda m: F(table[m]), False, "ties"), [1, 1, 2])
    assert (result.violating, result.deficit) == ({2}, -2)


def test_min_constrained_rejects_overlap():
    with pytest.raises(DomainError):
        min_constrained(lambda s: 0, 2, include={0}, exclude={0})
    with pytest.raises(DomainError, match="^min_constrained needs n when given a bare callable$"):
        min_constrained(lambda s: 0)


# ---------------------------------------------------------------------------
# membership and greedy vertices
# ---------------------------------------------------------------------------

def test_membership_origin_and_greedy_vertex():
    oracle = single_keyword_oracle([3, 2, 1])
    assert membership(oracle, [0, 0, 0]).ok
    assert membership(oracle, [3, 2, 1]).ok
    assert greedy_vertex(oracle, [2, 0, 1]) == (2, 1, 3)
    with pytest.raises(DomainError, match=r"^order must be a permutation of 0\.\.2$"):
        greedy_vertex(oracle, [0, 0, 2])


def test_membership_violation_witness():
    oracle = single_keyword_oracle([3, 2, 1])
    result = membership(oracle, [4, 0, 0])
    assert not result.ok
    assert result.violating == frozenset({0})


def _scan_membership(oracle, x) -> MembershipResult:
    """The Fraction scan membership ran on every point before the integer test."""
    vec = tuple(F(v) for v in x)
    sums = _mask_sums(vec, oracle.n)
    best_mask, best = 1, oracle.value_mask(1) - sums[1]
    for m in range(2, 1 << oracle.n):
        slack = oracle.value_mask(m) - sums[m]
        if slack < best or (slack == best and (m.bit_count(), sorted(set_of(m)))
                            < (best_mask.bit_count(), sorted(set_of(best_mask)))):
            best_mask, best = m, slack
    if best < 0:
        return MembershipResult(False, set_of(best_mask), best)
    return MembershipResult(True)


def test_membership_matches_fraction_scan_on_and_around_facets():
    rng = random.Random(7373)
    outcomes = {"on": 0, "outside": 0}
    rank_outside = 0                # infeasible points decided by one R
    for t in range(200):
        n = rng.randint(1, 7)
        oracle = (_fractional_oracle(rng, n) if t % 6 == 5
                  else random_oracle(rng, KINDS[t % 5], n))
        order = list(range(n))
        rng.shuffle(order)
        vertex = greedy_vertex(oracle, order)       # every prefix set is tight
        mode = t % 3
        if mode == 0:
            x = vertex
        elif mode == 1:
            # Just outside: one coordinate of the vertex raised a little.
            i = rng.randrange(n)
            bump = F(1, rng.choice((3, 7, 60, 1001)))
            x = tuple(v + bump if k == i else v for k, v in enumerate(vertex))
        else:
            # Mixed denominators, on the facet of a prefix set or just past it.
            x = tuple(v * F(rng.randint(1, 12), rng.choice((5, 7, 12))) for v in vertex)
        expected = _scan_membership(oracle, x)
        assert membership(oracle, x) == expected, (t, x)
        outcomes["on" if expected.ok else "outside"] += 1
        rank_outside += not expected.ok and oracle.reduced_rank is not None
    assert min(outcomes.values()) >= 50, outcomes
    assert rank_outside >= 40, rank_outside


def test_membership_by_reduced_rank_needs_no_table(monkeypatch):
    # past the cap: a tight feasible point, and a promise above f({i}) alone,
    # whose smallest violated set is {i}
    def no_table(self):
        raise AssertionError(f"{self.name}: integer table built")
    monkeypatch.setattr(SubmodularOracle, "integer_table", no_table)
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "16")
    for kind, n in (("single-keyword", 64), ("multi-unit", 64), ("vod-cut", 40)):
        oracle = generate_instance(kind, n, None, 0).build_oracle()
        assert membership(oracle, greedy_vertex(oracle, range(n - 1, -1, -1))).ok, kind
        i = n // 3
        x = [0] * n
        x[i] = oracle.singleton(i) + F(1, 3)
        assert membership(oracle, x) == \
            MembershipResult(False, frozenset({i}), F(-1, 3)), kind


def test_membership_raises_when_the_two_scans_disagree():
    # An oracle without a step fills its memo while it builds the table, so
    # the Fraction scan reads the memo, not the tampered table.
    oracle = table_only(single_keyword_oracle([3, 2, 1]))
    den, nums = oracle.integer_table()
    nums[0b101] -= 10 * den         # a violated set the oracle does not have
    with pytest.raises(ClinchError):
        membership(oracle, [1, 1, 1])


def test_membership_raises_when_the_rank_names_a_wrong_set():
    # the solver's total is right but its smallest() names {0}, whose
    # deficit is not the one R gives
    honest = single_keyword_oracle([3, 2, 1])
    rank = honest.reduced_rank

    def solve(scale, c):
        solution = rank.solve(scale, c)
        return RankSolution(solution.total, lambda: 0b001, solution.clinch, solution.solve)
    lying = SubmodularOracle(3, honest.value_mask, True, "lying",
                             reduced_rank=ReducedRank(rank.den, solve))
    assert membership(lying, [1, 1, 1]).ok
    assert membership(honest, [3, 3, 0]).violating == {0, 1}
    with pytest.raises(ClinchError):
        membership(lying, [3, 3, 0])


def test_membership_rejects_negative():
    with pytest.raises(DomainError):
        membership(multi_unit_oracle(1, 2), [-1, 0])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_greedy_vertex_membership_and_prefix_tightness(data):
    n = data.draw(st.integers(2, 5))
    ctrs = sorted(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)),
                  reverse=True)
    oracle = single_keyword_oracle(ctrs)
    order = data.draw(st.permutations(range(n)))
    vertex = greedy_vertex(oracle, order)
    assert membership(oracle, vertex).ok
    identity = greedy_vertex(oracle)
    for prefix_len in range(1, n + 1):
        prefix = set(range(prefix_len))
        assert sum(identity[i] for i in prefix) == oracle.value(prefix)


# ---------------------------------------------------------------------------
# clinch_amounts
# ---------------------------------------------------------------------------

def test_clinch_amounts_example():
    oracle = single_keyword_oracle([3, 2])
    assert clinch_amounts(oracle, [1, 0], [5, 1]) == (2, 1)


def test_clinch_amounts_zero_demand():
    oracle = single_keyword_oracle([3, 2])
    assert clinch_amounts(oracle, [1, 0], [0, 0]) == (0, 0)


def test_clinch_amounts_sole_demander_takes_remaining_supply():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5)
        total = F(rng.randint(1, 8))
        oracle = multi_unit_oracle(total, n)
        rho = random_feasible_point(rng, oracle)
        q = F(rng.randint(0, 10), 2)
        d = (q,) + (F(0),) * (n - 1)
        delta = clinch_amounts(oracle, rho, d)
        assert delta[0] == min(q, total - sum(rho))
        assert delta[1:] == (F(0),) * (n - 1)


def test_clinch_keeps_promises_feasible_and_is_idempotent():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 5)
        kind = rng.choice(("multi-unit", "single-keyword", "graphic"))
        oracle = random_oracle(rng, kind, n)
        rho = random_feasible_point(rng, oracle)
        d = random_demands(rng, n)
        delta = clinch_amounts(oracle, rho, d)
        assert all(0 <= delta[i] <= d[i] for i in range(n))
        new_rho = tuple(rho[i] + delta[i] for i in range(n))
        assert membership(oracle, new_rho).ok
        new_d = tuple(d[i] - delta[i] for i in range(n))
        assert clinch_amounts(oracle, new_rho, new_d) == (F(0),) * n


# ---------------------------------------------------------------------------
# clinch kernel (integer arithmetic) against the Fraction reference
# ---------------------------------------------------------------------------

def _fractional_oracle(rng: random.Random, n: int) -> SubmodularOracle:
    """f = g / 3 + min(|S|, 2) / 4 for a random polymatroid g: mixed denominators."""
    base = random_oracle(rng, rng.choice(KINDS), n)
    return SubmodularOracle(
        n, lambda m: base.value_mask(m) / 3 + F(min(m.bit_count(), 2), 4),
        True, f"fractional({base.name})")


def _reference_clinch(oracle, rho, d):
    res = ResidualOracle(oracle, rho, d)
    full = (1 << oracle.n) - 1
    total = res.value_mask(full)
    return total, tuple(max(F(0), total - res.value_mask(full ^ (1 << i)))
                        for i in range(oracle.n))


def _kernel_case(rng: random.Random, t: int):
    n = rng.randint(1, 8) if t % 5 else rng.randint(9, 10)
    kinds = KINDS + ("fractional",)
    kind = kinds[t % len(kinds)]
    oracle = (_fractional_oracle(rng, n) if kind == "fractional"
              else random_oracle(rng, kind, n))
    order = list(range(n))
    rng.shuffle(order)
    vertex = greedy_vertex(oracle, order)
    mode = t % 3
    if mode == 0:
        # Interior promises, demands over mixed denominators, some zero.
        rho = tuple(F(rng.randint(0, 21), 21) * v for v in vertex)
        d = tuple(F(0) if rng.random() < 0.3 else
                  F(rng.randint(0, 12), rng.choice((1, 2, 3, 5, 7, 12)))
                  for _ in range(n))
    elif mode == 1:
        # Promises on a vertex: every prefix set is tight, so h ties at 0.
        rho = vertex
        d = tuple(F(0) if rng.random() < 0.5 else F(rng.randint(1, 6), 5)
                  for _ in range(n))
    else:
        # rho + d is a vertex: h ties at 0 on every prefix of the order.
        scale = F(rng.randint(0, 9), 9)
        rho = tuple(scale * v for v in vertex)
        d = tuple(v - r for v, r in zip(vertex, rho))
    return kind, oracle, rho, d


def test_clinch_kernel_matches_residual_oracle():
    rng = random.Random(1205)
    ties = zero_demands = 0
    kinds = set()
    for t in range(150):
        kind, oracle, rho, d = _kernel_case(rng, t)
        kinds.add(kind)
        expected = _reference_clinch(oracle, rho, d)
        assert clinch_kernel(oracle, rho, d) == expected, (t, kind, rho, d)
        delta = expected[1]
        assert all(0 <= delta[i] <= d[i] for i in range(oracle.n))
        weights = [F(0)]
        for r, q in zip(rho, d):
            weights += [w + r + q for w in weights]
        h = [oracle.value_mask(m) - w for m, w in enumerate(weights)]
        ties += h.count(min(h)) > 1
        zero_demands += 0 in d
    assert kinds == set(KINDS) | {"fractional"}
    assert ties >= 50 and zero_demands >= 50, (ties, zero_demands)   # both exercised


def test_smallest_minimizer_answers_the_leave_one_outs_outside_it():
    # the rule the clinch kernel runs on: with c = rho + d, fhat([n]) =
    # R(c) - rho([n]) and clinch(rho)[j] = max(0, fhat([n]) - fhat([n] \ j)),
    # and for j outside T*, the solve's smallest(), clinch(rho)[j] is d_j;
    # the Fraction reference ResidualOracle must agree on every kernel case
    # and on a table that is not submodular
    rng = random.Random(2206)
    cases = [_kernel_case(rng, t) for t in range(80)]
    lumpy = SubmodularOracle.from_set_function(
        4, lambda s: [0, 3, 4, 6, 9][len(s)] + (0 in s and 2 in s), name="lumpy")
    assert not verify_submodular(lumpy).ok
    # at c = (0, 2, 2, 3) the minimizers are {1, 3}, {2, 3} and {1, 2, 3}, with
    # no smallest one: smallest() falls back to a minimizer, and 2 is outside it
    assert lumpy.rank().solve(1, [0, 2, 2, 3]).smallest() == 0b1010
    cases += [("lumpy", lumpy, (F(0),) * 4, tuple(map(F, d)))
              for d in ((0, 2, 2, 3), (3, 3, 3, 3), (1, F(5, 2), 2, F(7, 3)))]
    inside = outside = 0
    for kind, oracle, rho, d in cases:
        n, rank = oracle.n, oracle.rank()
        c = [r + q for r, q in zip(rho, d)]
        den = math.lcm(rank.den, *(v.denominator for v in rho + d))
        solution = rank.solve(den // rank.den, [int(v * den) for v in c])
        total, smallest = F(solution.total, den), solution.smallest()
        res = ResidualOracle(oracle, rho, d)
        full = (1 << n) - 1
        assert res.value_mask(full) == total - sum(rho), (kind, rho, d)
        for j, delta in enumerate(solution.clinch([int(r * den) for r in rho])):
            if smallest >> j & 1:
                inside += 1
            else:
                assert F(delta, den) == d[j], (kind, rho, d, j)
                outside += 1
            gap = res.value_mask(full) - res.value_mask(full ^ (1 << j))
            assert F(delta, den) == max(0, gap), (kind, rho, d, j)
    assert inside >= 100 and outside >= 100, (inside, outside)


def _cardinality_by_subsets(ctrs: tuple, c: list) -> tuple:
    """``(R(c), T*)`` for f(T) = A_|T| from every subset: the least f(T) +
    c([n] \\ T) and the intersection of the sets that reach it."""
    n = len(c)
    sums = [sum(ctrs[:t], F(0)) for t in range(n + 1)]
    values = [sums[bin(m).count("1")] + sum(c[i] for i in range(n) if not m >> i & 1)
              for m in range(1 << n)]
    low = min(values)
    return low, functools.reduce(operator.and_, (m for m, v in enumerate(values) if v == low))


def test_rank_list_solutions_answer_after_solves_at_other_scales():
    # a rank-list solution asked after solves of the same rank at other
    # scales and sizes still gives its own total, clinch and smallest
    # minimizer, so it reads nothing a later solve made; on entries with
    # many ties and zeros and with n past the list's end
    rng = random.Random(4901)
    asked = 0
    for _ in range(60):
        ctrs = tuple(sorted((F(rng.randint(0, 4), rng.choice((1, 2, 3)))
                             for _ in range(rng.randint(1, 3))), reverse=True))
        rank = _cardinality_rank(ctrs)
        made = []
        for _ in range(5):
            n, scale = rng.randint(1, 6), rng.choice((1, 2, 3, 6))
            c = [rng.choice((0, 0, 1, 2, 2, 3)) * rng.choice((1, 1, scale)) for _ in range(n)]
            rho = [rng.randint(0, ci) for ci in c]
            made.append((scale, c, rho, rank.solve(scale, c)))
        rng.shuffle(made)
        for scale, c, rho, solution in made:
            unit = rank.den * scale
            total, smallest = _cardinality_by_subsets(ctrs, [F(ci, unit) for ci in c])
            assert F(solution.total, unit) == total, (ctrs, scale, c)
            assert solution.smallest() == smallest, (ctrs, scale, c)
            for j, delta in enumerate(solution.clinch(rho)):
                lowered = [F(ci, unit) for ci in c]
                lowered[j] = F(rho[j], unit)
                assert F(delta, unit) == total - _cardinality_by_subsets(ctrs, lowered)[0], (
                    ctrs, scale, c, rho, j)
            asked += 1
    assert asked == 300


def test_clinch_kernel_builds_the_integer_table_once():
    calls = []
    base = multi_unit_oracle(F(7, 3), 4)
    oracle = SubmodularOracle(4, lambda m: calls.append(m) or base.value_mask(m),
                              True, "counted")
    first = oracle.integer_table()
    assert first[0] == 3 and first[1][0b1111] == 7
    clinch_kernel(oracle, (F(0),) * 4, (F(1, 2),) * 4)
    clinch_kernel(oracle, (F(1, 5),) * 4, (F(1, 7),) * 4)
    assert oracle.integer_table() is first
    assert sorted(calls) == list(range(1, 16))
    # without a step: 2^n - 1 evaluations, each mask once, then reads only
    assert [oracle.value_mask(m) for m in range(16)] == [F(v, 3) for v in first[1]]
    assert len(calls) == 15


def test_clinch_amounts_keeps_its_prechecks():
    oracle = single_keyword_oracle([3, 2])
    with pytest.raises(PreconditionError):
        clinch_amounts(oracle, [4, 0], [1, 1])
    with pytest.raises(DomainError):
        clinch_amounts(oracle, [1, 0], [1, -1])
    with pytest.raises(DomainError):
        clinch_amounts(oracle, [-1, 0], [1, 1])
    with pytest.raises(DomainError):
        clinch_amounts(multi_unit_oracle(3, 2), [-1, 0], [1, 1])


def test_clinch_amounts_on_ctr_oracles_needs_no_table(monkeypatch):
    # Single-keyword oracles past the enumeration cap: one reduced rank of
    # the CTR list decides rho in P(f) without a 2^n membership test.
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "16")
    assert clinch_amounts(single_keyword_oracle([3] * 20), [0] * 20, [1] * 20) == (1,) * 20
    # feasible for every single bidder, but the top two promises exceed 20 + 19
    with pytest.raises(PreconditionError):
        clinch_amounts(single_keyword_oracle(range(20, 0, -1)), [20, 20] + [0] * 18, [1] * 20)


def test_clinch_amounts_on_vod_cut_checks_promises_by_flow(monkeypatch):
    # rho in P(f) is decided by R(rho) = rho([n]); a failure names the set
    # membership names, and a pass gives the table kernel's clinch
    rng = random.Random(3141)
    failed = 0
    for _ in range(80):
        n = rng.randint(1, 8)
        oracle = random_oracle(rng, "vod-cut", n)
        total = oracle.value_mask((1 << n) - 1)
        rho = tuple(F(rng.randint(0, 3), rng.choice((1, 2))) * total / n for _ in range(n))
        d = random_demands(rng, n)
        expected = membership(table_only(oracle), rho)
        assert membership(oracle, rho) == expected
        if expected.ok:
            assert clinch_amounts(oracle, rho, d) == clinch_amounts(table_only(oracle), rho, d)
            continue
        with pytest.raises(PreconditionError) as err:
            clinch_amounts(oracle, rho, d)
        assert err.value.witness == expected.violating
        failed += 1
    assert failed >= 20
    with pytest.raises(DomainError):
        clinch_amounts(oracle, (F(-1),) + rho[1:], d)

    # past the cap, without the table
    def no_table(self):
        raise AssertionError(f"{self.name}: integer table built")
    monkeypatch.setattr(SubmodularOracle, "integer_table", no_table)
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "16")
    oracle = generate_instance("vod-cut", 20, None, 0).build_oracle()
    delta = clinch_amounts(oracle, [0] * 20, [1] * 20)
    assert all(0 <= x <= 1 for x in delta) and any(delta)
    with pytest.raises(PreconditionError) as err:
        clinch_amounts(oracle, [oracle.singleton(0) + 1] + [0] * 19, [1] * 20)
    assert err.value.witness == frozenset({0})


def test_cardinality_precondition_witness_matches_membership():
    # planted infeasible promises on a few levels, so many of them tie
    rng = random.Random(2718)
    checked = 0
    for kind in ("single-keyword", "multi-unit"):
        for _ in range(60):
            n = rng.randint(1, 8)
            oracle = random_oracle(rng, kind, n)
            total = oracle.value_mask((1 << n) - 1)
            rho = tuple(F(rng.randint(0, 3), rng.choice((1, 2))) * total / n for _ in range(n))
            expected = membership(table_only(oracle), rho)
            assert membership(oracle, rho) == expected
            if expected.ok:
                continue
            d = random_demands(rng, n)
            for call in (lambda: clinch_amounts(oracle, rho, d),
                         lambda: fast_residual_max(oracle.ctrs, rho, d)):
                with pytest.raises(PreconditionError) as err:
                    call()
                assert err.value.witness == expected.violating
            checked += 1
    assert checked >= 40
