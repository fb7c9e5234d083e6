"""Tests of the benchmark itself: run with `python3 -m pytest perfbench`.

The exact-count test runs one traced pass of every workload twice (about a
minute and a half); the others take seconds.
"""

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import speed
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def pc():
    return workloads.import_package(fresh=False)


@pytest.mark.parametrize("kind, m", [("multi-unit", None), ("single-keyword", None),
                                     ("adwords", 2), ("graphic", None), ("vod-cut", None)])
def test_relabel_keeps_the_market(pc, kind, m):
    n = 5
    inst = pc.instances.generate_instance(kind, n, m, 3)
    perm = workloads.permutation(7, kind, n)
    assert sorted(perm) == list(range(n)) and perm != list(range(n))
    moved = pc.instances.parse_instance_data(
        workloads.relabel(pc.instances.serialize_instance(inst), perm))
    before, after = inst.build_oracle(), moved.build_oracle()
    for mask in range(1 << n):
        old_mask = sum(1 << perm[j] for j in range(n) if mask >> j & 1)
        assert after.value_mask(mask) == before.value_mask(old_mask)
    assert moved.bidders == [inst.bidders[p] for p in perm]


def test_seed_zero_keeps_generator_labels():
    assert workloads.permutation(workloads.DEFAULT_SEED, "vod-cut", 6) == list(range(6))


def _bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("polyclinch") for attr, value in vars(mod).items()}


def test_instrument_wraps_and_restores_every_binding():
    pc = workloads.import_package(fresh=False)
    before = _bindings()
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert pc.verify.residual is not before[("polyclinch.verify", "residual")]
        assert pc.auction._run_loop is not before[("polyclinch.auction", "_run_loop")]
        oracle = pc.instances.generate_instance("single-keyword", 3, None, 0).build_oracle()
        assert oracle.ctrs is not None            # the greedy dispatch survives the wrap
        assert tracer.totals("setup")["instances.generate"][0] == 1
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_leaves_out_children():
    tracer = tracing.Tracer()
    child = tracer.wrap("child", lambda: sum(range(20000)))
    parent = tracer.wrap("parent", lambda: [child() for _ in range(3)])
    tracer.op(parent)
    totals = tracer.totals("setup")
    count, total, self_ns = totals["parent"]
    assert count == 1 and totals["child"][0] == 3
    assert self_ns == total - totals["child"][1]
    assert tracer.children("setup", "parent", "child") == 3
    assert tracer.children("setup", tracing.OP_SPAN, "parent") == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_between_runs(tmp_path, workload):
    plan = workloads.setup(workload, 1, tmp_path)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.phase = "pass"
        with speed.Clock() as clock:
            result, pass_counts = run.traced_pass(plan, tracer, clock)
        assert not result.errors
        counts.append(pass_counts)
    assert counts[0] == counts[1]
    assert counts[0]["auction.steps"] > 0 and counts[0]["environments.oracle_evals"] > 0


def test_incomplete_beta_closed_forms():
    for x in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
        assert run._incomplete_beta(1, 1, x) == pytest.approx(x)
        assert run._incomplete_beta(2, 2, x) == pytest.approx(3 * x * x - 2 * x ** 3)
        assert run._incomplete_beta(0.5, 0.5, x) == pytest.approx(
            1 - run._incomplete_beta(0.5, 0.5, 1 - x))


def test_quantile_is_a_weighted_mean_of_the_sample():
    rng = random.Random(4)
    values = [rng.random() for _ in range(143)]
    assert run.quantile([0.25] * 7, 0.9) == pytest.approx(0.25)
    assert run.quantile([3.0], 0.5) == 3.0
    assert min(values) < run.quantile(values, 0.5) < run.quantile(values, 0.9) < max(values)
    assert run.quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)   # symmetric weights


def test_clock_takes_out_its_own_samples():
    with speed.Clock() as clock:
        mark = clock.mark()
        while len(clock.samples) < 5:
            sum(range(1000))
        interval = clock.interval(mark)
        while len(clock.samples) < 6:
            sum(range(1000))
    start, first, end, last = interval
    assert last - first >= 4
    busy = end - start - sum(clock.samples[first:last])
    assert 0 < busy < end - start
    around = [s for s, t in zip(clock.samples, clock.times)
              if start - speed.WINDOW_S <= t <= end + speed.WINDOW_S]
    assert len(around) >= last - first
    assert clock.seconds(interval) == pytest.approx(
        busy * sum(speed.REFERENCE_S / s for s in around) / len(around))


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "generic-n12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_task_labels_are_unique(tmp_path, workload):
    labels = [task.label for task in workloads.setup(workload, 5, tmp_path).tasks]
    assert len(labels) == len(set(labels))
