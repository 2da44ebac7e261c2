"""Tests of the benchmark harness itself: tracing, records digest, generator.

Run from the root of the repository:

    python3 -m pytest -q benchmarks/tests
"""
import hashlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from gradevade import cap_features, synthetic_pdf_dataset  # noqa: E402
from gradevade.cli import cmd_sweep  # noqa: E402
from gradevade.config import parse_config  # noqa: E402
from gradevade.evaluation import sweep  # noqa: E402
from tracing import Tracer  # noqa: E402

TINY_DOC = {
    "seed": 4,
    "dataset": {"kind": "synthetic_pdf", "n_legit": 60, "n_malicious": 60, "dim": 30, "feature_cap": 100},
    "split": {"n_train": 40, "n_test": 40, "n_splits": 2},
    "models": [{"kind": "linear_svm", "C": 1.0}, {"kind": "svm", "C": 1.0, "kernel": {"kind": "rbf", "gamma": 0.01}}],
    "scenario": {"kinds": ["PK"]},
    "attack": {"d_max_grid": [0, 2, 4, 6], "lambdas": [0, 50], "bounds": {"lower": 0, "upper": 100}},
}


def _tiny_sweep(jobs: int = 1):
    cfg = parse_config(TINY_DOC)
    data = cap_features(synthetic_pdf_dataset(60, 60, 30, seed=cfg.seed), 100.0)
    return sweep(
        data,
        model_grid=cfg.model_grid,
        scenario=cfg.scenario,
        scenario_kinds=cfg.scenario_kinds,
        attack=cfg.attack,
        lambdas=cfg.lambdas,
        d_max_grid=cfg.d_max_grid,
        n_splits=cfg.n_splits,
        n_train=cfg.n_train,
        n_test=cfg.n_test,
        fp_target=cfg.fp_target,
        kde=cfg.kde,
        seed=cfg.seed,
        jobs=jobs,
    )


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def leaf():
        clock.now += 2.0

    def inner():
        clock.now += 1.0
        ns.leaf()
        ns.leaf()

    def outer():
        clock.now += 0.5
        ns.inner()
        clock.now += 3.0
        return "done"

    ns.leaf, ns.inner, ns.outer = leaf, inner, outer
    tracer = Tracer(clock=clock)
    tracer.wrap(ns, "outer", "a.outer", "a", span=True)
    tracer.wrap(ns, "inner", "b.inner", "b", span=True)
    tracer.wrap(ns, "leaf", "a.leaf", "a")

    assert ns.outer() == "done"
    # outer: 0.5 + 3.0 own; inner: 1.0 own; leaf: 2 x 2.0 own, same layer as outer
    assert tracer.self_s["a"] == pytest.approx(3.5 + 4.0)
    assert tracer.self_s["b"] == pytest.approx(1.0)
    assert tracer.total_busy("a.outer") == pytest.approx(8.5)
    assert tracer.total_busy("b.inner") == pytest.approx(5.0)
    # hot calls are keyed by the enclosing span
    assert tracer.total_calls("a.leaf", "b.inner") == 2
    assert tracer.total_calls("a.leaf", "a.outer") == 0
    # spans: (id, name, start, end, parent id), recorded as they close
    assert tracer.spans == [(1, "b.inner", 0.5, 5.5, 0), (0, "a.outer", 0.0, 8.5, None)]


def test_wrapper_records_time_when_the_call_raises():
    clock = FakeClock()
    ns = types.SimpleNamespace()

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    ns.boom = boom
    tracer = Tracer(clock=clock)
    tracer.wrap(ns, "boom", "a.boom", "a")
    with pytest.raises(ValueError):
        ns.boom()
    assert tracer.total_calls("a.boom") == 1
    assert tracer.self_s["a"] == pytest.approx(1.0)
    assert tracer._stack == []


def test_install_and_restore_put_back_every_original():
    tracer = Tracer()
    tracer.install()
    patched = [(owner, attr, original) for owner, attr, original in tracer._patches]
    assert patched, "install() wrapped nothing"
    try:
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        result = _tiny_sweep()
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patched)
    metrics = tracer.per_layer_metrics()
    assert metrics["attack.runs"][0] > 0
    assert metrics["models.train_svm.calls"][0] == 4  # 2 splits x 2 models, PK only
    assert metrics["mimicry.density.calls"][0] > 0   # lambda = 50 half
    assert metrics["models.train_mlp.calls"][0] == 0
    assert metrics["attack.project.calls"][0] == 0   # discrete mode never projects
    assert sum(metrics[f"attack.term.{t}"][0] for t in ("converged", "budget_boundary_converged",
                                                       "max_iters", "zero_gradient")) == metrics["attack.runs"][0]
    assert len(result.records) == 2 * 2 * 2 * 4  # splits x models x lambdas x budgets


# ---------------------------------------------------------------------------
# Records digest.
# ---------------------------------------------------------------------------

def test_digest_equals_hash_of_cli_results_csv(tmp_path):
    cfg = parse_config(TINY_DOC)
    assert cmd_sweep(cfg, tmp_path) == 0
    on_disk = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert harness.records_digest(_tiny_sweep().records) == on_disk


def test_digest_is_stable_across_runs_tracing_and_jobs():
    reference = harness.records_digest(_tiny_sweep().records)
    assert harness.records_digest(_tiny_sweep().records) == reference
    tracer = Tracer()
    tracer.install()
    try:
        traced = _tiny_sweep()
    finally:
        tracer.restore()
    assert harness.records_digest(traced.records) == reference
    assert harness.records_digest(_tiny_sweep(jobs=2).records) == reference


def test_records_check_flags_a_changed_record():
    result = _tiny_sweep()
    wl = workloads.Workload("tiny", 0, None, [{"model_grid": [None, None], "n_splits": 2}])
    check = harness.RecordsCheck(wl, {"tiny": {"0": [harness.records_digest(result.records)]}})
    check(0, result)
    assert check.ok
    result.records[0] = dict(result.records[0], fn=0.5 if result.records[0]["fn"] != 0.5 else 0.25)
    check(0, result)
    assert not check.ok and check.mismatched == 1 and check.sweeps == 2


def test_reference_table_covers_every_workload_and_input_set():
    table = harness.load_reference_digests()
    for name in workloads.WORKLOAD_NAMES:
        assert sorted(table[name], key=int) == [str(s) for s in range(workloads.N_INPUT_SETS)]
        for row in table[name].values():
            assert len(row) == workloads.SIZES[name]["rounds"]


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------

def test_synthetic_digits_is_deterministic_and_bounded():
    a = workloads.synthetic_digits(15, seed=3)
    b = workloads.synthetic_digits(15, seed=3)
    c = workloads.synthetic_digits(15, seed=4)
    assert a.X.shape == (30, 784)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.X, c.X)
    assert a.X.min() >= 0.0 and a.X.max() <= 1.0
    assert a.class_counts() == (15, 15)


def test_build_workload_is_deterministic_in_the_seed():
    for name in workloads.WORKLOAD_NAMES:
        a = workloads.build_workload(name, 3)
        b = workloads.build_workload(name, 3 + workloads.N_INPUT_SETS)
        np.testing.assert_array_equal(a.dataset.X, b.dataset.X)
        assert [r["seed"] for r in a.rounds] == [r["seed"] for r in b.rounds]
        assert len({r["seed"] for r in a.rounds}) == len(a.rounds)
    with pytest.raises(ValueError):
        workloads.build_workload("nope", 0)

