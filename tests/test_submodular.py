"""Oracle, residual-polytope and clinch-amount primitives."""

import random
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
    greedy_vertex,
    membership,
    min_constrained,
    multi_unit_oracle,
    residual,
    single_keyword_oracle,
    verify_submodular,
)

from polyclinch import submodular
from polyclinch.submodular import (
    MembershipResult,
    OracleCheck,
    _mask_sums,
    clinch_kernel,
    residual_totals,
    set_of,
)

from corpus import KINDS, random_demands, random_feasible_point, random_oracle

F = Fraction


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
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "3")
    with pytest.raises(SizeError):
        verify_submodular(multi_unit_oracle(1, 4))


def test_size_error_names_its_cap_and_how_to_raise_it(monkeypatch):
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "3")
    with pytest.raises(SizeError) as err:
        membership(multi_unit_oracle(1, 5), [0] * 5)
    assert (err.value.n, err.value.cap, err.value.what) == (5, 3, "membership test")
    assert "CLINCH_BRUTE_FORCE_CAP" in str(err.value) and "5" in str(err.value)
    monkeypatch.setenv("CLINCH_BRUTE_FORCE_CAP", "5")
    assert membership(multi_unit_oracle(1, 5), [0] * 5).ok


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
        expected = _pairwise_verify_submodular(_table_oracle(table, monotone))
        assert verify_submodular(_table_oracle(table, monotone)) == expected, (t, table)
        seen.add(expected.violation)
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
        expected = _pairwise_verify_submodular(_table_oracle(table, True))
        assert verify_submodular(_table_oracle(table, True)) == expected, (t, kind, mask)
        caught[kind] += not expected.ok
        assert verify_submodular(base).ok
    assert all(caught.values()), caught


def test_verify_submodular_works_without_an_integer_table():
    rng = random.Random(6262)
    for _ in range(30):
        n = rng.randint(2, 5)
        oracle = random_oracle(rng, rng.choice(KINDS), n)
        res = residual(oracle, random_feasible_point(rng, oracle), random_demands(rng, n))
        assert not hasattr(res, "integer_table")
        assert verify_submodular(res) == _pairwise_verify_submodular(res) == OracleCheck(True)


def test_verify_submodular_raises_when_the_two_scans_disagree(monkeypatch):
    monkeypatch.setattr(submodular, "_locally_submodular", lambda nums, n: False)
    with pytest.raises(ClinchError):
        verify_submodular(multi_unit_oracle(2, 3))


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
        mono = res.monotonized_oracle()
        assert verify_submodular(mono).ok


def test_monotonization_defines_same_polytope_values():
    oracle = single_keyword_oracle([3, 2])
    res = residual(oracle, [1, 0], [5, 0])
    # fhat({0}) = 2 but fhat({0,1}) = 2 as well; fbar({1}) folds the full set in
    assert res.monotonized([1]) == min(res.value([1]), res.value([0, 1]))


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


def test_min_constrained_rejects_overlap():
    with pytest.raises(DomainError):
        min_constrained(lambda s: 0, 2, include={0}, exclude={0})


# ---------------------------------------------------------------------------
# membership and greedy vertices
# ---------------------------------------------------------------------------

def test_membership_origin_and_greedy_vertex():
    oracle = single_keyword_oracle([3, 2, 1])
    assert membership(oracle, [0, 0, 0]).ok
    assert membership(oracle, [3, 2, 1]).ok


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
    assert min(outcomes.values()) >= 50, outcomes


def test_membership_raises_when_the_two_scans_disagree():
    oracle = single_keyword_oracle([3, 2, 1])
    den, nums = oracle.integer_table()
    nums[0b101] -= 10 * den         # a violated set the oracle does not have
    with pytest.raises(ClinchError):
        membership(oracle, [1, 1, 1])


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


def test_residual_totals_match_residual_oracle():
    rng = random.Random(2206)
    for t in range(80):
        kind, oracle, rho, d = _kernel_case(rng, t)
        res = ResidualOracle(oracle, rho, d)
        full = (1 << oracle.n) - 1
        assert residual_totals(oracle, rho, d) == (
            res.value_mask(full),
            tuple(res.value_mask(full ^ (1 << j)) for j in range(oracle.n))), (t, kind)


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


def test_clinch_amounts_keeps_its_prechecks():
    oracle = single_keyword_oracle([3, 2])
    with pytest.raises(PreconditionError):
        clinch_amounts(oracle, [4, 0], [1, 1])
    with pytest.raises(DomainError):
        clinch_amounts(oracle, [1, 0], [1, -1])
