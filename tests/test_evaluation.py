import concurrent.futures
import json
import statistics
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gradevade.evaluation as evaluation_module
import gradevade.scenario as scenario_module
from gradevade.attack import AttackSpec, AttackTrace, DistanceSpec
from gradevade.config import load_config, load_dataset_from_config
from gradevade.data import Dataset, FeatureBounds
from gradevade.evaluation import (
    SweepResult,
    _run_cell,
    _SweepPlan,
    aggregate_curves,
    calibrate_threshold,
    calibrated,
    cell_model,
    cell_split,
    fn_rates,
    nearest_evasion,
    sweep,
    trace_profile,
)
from gradevade.mimicry import KdeParams
from gradevade.kernels import KernelSpec
from gradevade.models import LinearModel, MlpModel, ModelSpec, SvmModel
from gradevade.scenario import ScenarioSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def enumeration_threshold_oracle(scores, fp_target):
    """Try every candidate threshold (just above each score, plus extremes)
    and return the smallest one meeting the FP constraint."""
    scores = np.asarray(scores, float)
    candidates = sorted(set(np.nextafter(s, np.inf) for s in scores) | {scores.min()})
    for theta in candidates:
        if np.mean(scores >= theta) <= fp_target:
            return theta
    raise AssertionError("no feasible threshold")


class TestCalibrateThreshold:
    def test_quarter_fp_hand_case(self):
        scores = [0.1, 0.2, 0.3, 0.9]
        theta = calibrate_threshold(scores, 0.25)
        assert np.mean(np.asarray(scores) >= theta) == 0.25
        assert 0.3 < theta <= 0.9
        assert theta == enumeration_threshold_oracle(scores, 0.25)

    def test_zero_fp(self):
        scores = [0.5, 1.5, -2.0]
        theta = calibrate_threshold(scores, 0.0)
        assert theta > 1.5
        assert np.mean(np.asarray(scores) >= theta) == 0.0

    def test_tied_top_scores(self):
        scores = [0.9, 0.9, 0.1, 0.2]
        theta = calibrate_threshold(scores, 0.5)
        realized = np.mean(np.asarray(scores) >= theta)
        assert realized <= 0.5
        assert theta == enumeration_threshold_oracle(scores, 0.5)

    def test_matches_enumeration_oracle_randomly(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            scores = np.round(rng.normal(size=n), 2)  # ties likely
            fp = float(rng.uniform(0, 0.8))
            assert calibrate_threshold(scores, fp) == enumeration_threshold_oracle(scores, fp)

    def test_realized_fp_and_minimality(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            scores = rng.normal(size=25)
            fp = float(rng.uniform(0, 0.5))
            theta = calibrate_threshold(scores, fp)
            assert np.mean(scores >= theta) <= fp
            below = np.sort(scores)[::-1][int(np.floor(fp * 25))]
            assert np.mean(scores >= below) > fp  # one notch lower violates


def trace_of(points, model):
    pts = [np.asarray(p, float) for p in points]
    return AttackTrace(points=pts, objective_values=[model.discriminant(p) for p in pts], termination="converged")


class TestFnRate:
    def setup_method(self):
        self.model = LinearModel(np.array([1.0]), 0.0)

    def rates(self, theta, traces, budgets):
        """fn_rates of the traces' nearest evasions of the model with its threshold calibrated to theta."""
        target = replace(self.model, decision_offset=theta)
        return fn_rates([nearest_evasion(target, t) for t in traces], budgets)

    def test_budget_zero_equals_clean_fn(self):
        theta = 0.5
        traces = [
            trace_of([[0.2], [-1.0]], self.model),  # starts below theta: clean FN
            trace_of([[2.0], [-1.0]], self.model),  # starts above: clean TP
        ]
        assert self.rates(theta, traces, [0.0]) == [0.5]

    def test_all_evaded_saturates(self):
        traces = [trace_of([[2.0], [-1.0]], self.model) for _ in range(4)]
        assert self.rates(0.0, traces, [3.0]) == [1.0]

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(19)
        traces = []
        for _ in range(30):
            start = float(rng.uniform(0.5, 3.0))
            path = [[start]]
            for _ in range(int(rng.integers(1, 8))):
                path.append([path[-1][0] - float(rng.uniform(0.1, 0.6))])
            traces.append(trace_of(path, self.model))
        budgets = list(np.linspace(0, 5, 11))
        rates = self.rates(0.1, traces, budgets)
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        # brute force: a trace counts when some point within the budget scores below theta
        for b, rate in zip(budgets, rates):
            hits = [
                any(abs(p[0] - t.points[0][0]) <= b + 1e-9 and self.model.discriminant(p) < 0.1 for p in t.points)
                for t in traces
            ]
            assert rate == sum(hits) / len(traces)

    def test_misclassified_at_start_counts_at_every_budget(self):
        traces = [trace_of([[-0.5]], self.model)]
        assert self.rates(0.0, traces, [0.0, 1.0, 10.0]) == [1.0, 1.0, 1.0]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self.rates(0.0, [], [1.0])

    def test_needs_within_budget_point(self):
        # evading point sits at distance 2; budget 1 cannot use it
        traces = [trace_of([[1.5], [-0.5]], self.model)]
        assert self.rates(0.0, traces, [1.0, 2.0]) == [0.0, 1.0]

    def test_a_trace_that_never_evades_counts_at_no_budget(self):
        never = trace_of([[2.0], [0.5]], self.model)
        assert nearest_evasion(self.model, never) == np.inf
        assert self.rates(0.0, [never, trace_of([[1.0], [-0.5]], self.model)], [0.0, 2.0, np.inf]) == [0.0, 0.5, 0.5]


def separable_counts(n_per_class=40, seed=0, n_dup=1):
    rng = np.random.default_rng(seed)
    neg = rng.poisson(4.0, size=(n_per_class, 3)).astype(float)
    pos = neg + np.array([0.0, 6.0, 6.0])
    X = np.vstack([np.tile(neg, (n_dup, 1)), np.tile(pos, (n_dup, 1))])
    y = np.array([-1] * n_per_class * n_dup + [1] * n_per_class * n_dup)
    return Dataset(X, y)


def small_attack():
    return AttackSpec(
        distance=DistanceSpec("l1"), d_max=6.0, step_t=1.0,
        bounds=FeatureBounds(0.0, 30.0, increment_only=True), mode="discrete", max_iters=50,
    )


class TestSweep:
    def test_single_split_matches_direct_computation(self):
        data = separable_counts(seed=1)
        grid = [ModelSpec(kind="linear_svm", C=1.0)]
        res = sweep(
            dataset=data, model_grid=grid, scenario=ScenarioSpec(kind="PK"),
            scenario_kinds=["PK"], attack=small_attack(), lambdas=[0.0],
            d_max_grid=[0.0, 3.0, 6.0], n_splits=1, n_train=40, n_test=40,
            fp_target=0.1, kde=None, seed=5,
        )
        curve = res.curve_rows
        assert len({(r["classifier"], r["scenario"], r["lam"]) for r in curve}) == 1
        # recompute one point from the raw records
        rows = [r for r in res.records if r["d_max"] == 3.0]
        assert curve[1]["d_max"] == 3.0
        assert curve[1]["mean_fn"] == pytest.approx(np.mean([r["fn"] for r in rows]))
        assert np.all(np.diff([r["mean_fn"] for r in curve]) >= 0)

    def test_identical_splits_zero_std(self):
        # one prototype per class: every stratified split is the same multiset
        X = np.vstack([np.zeros((40, 3)), np.full((40, 3), 8.0)])
        base = Dataset(X, np.array([-1] * 40 + [1] * 40))
        res = sweep(
            dataset=base, model_grid=[ModelSpec(kind="linear_svm", C=1.0)],
            scenario=ScenarioSpec(kind="PK"), scenario_kinds=["PK"],
            attack=small_attack(), lambdas=[0.0], d_max_grid=[0.0, 6.0],
            n_splits=3, n_train=30, n_test=30, fp_target=0.1, kde=None, seed=6,
        )
        np.testing.assert_allclose([r["std_fn"] for r in res.curve_rows], 0.0, atol=1e-12)

    def test_deterministic_across_runs_and_jobs(self):
        data = separable_counts(seed=3)
        kw = dict(
            dataset=data, model_grid=[ModelSpec(kind="linear_svm", C=1.0)],
            scenario=ScenarioSpec(kind="LK", n_q=20, n_surrogate_repeats=2),
            scenario_kinds=["PK", "LK"], attack=small_attack(), lambdas=[0.0],
            d_max_grid=[0.0, 6.0], n_splits=2, n_train=40, n_test=40,
            fp_target=0.1, kde=None, seed=7,
        )
        a = sweep(**kw)
        b = sweep(**kw)
        c = sweep(**kw, jobs=2)
        assert a.records == b.records == c.records

    def test_starts_at_most_one_worker_per_cell(self, monkeypatch):
        # the pool forks all max_workers processes at its first submit; a
        # serial stand-in records max_workers and starts no process
        seen = []

        class SerialPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        kw = dict(
            dataset=separable_counts(seed=3), model_grid=[ModelSpec(kind="linear_svm", C=1.0)],
            scenario=ScenarioSpec(kind="PK"), scenario_kinds=["PK"], attack=small_attack(), lambdas=[0.0],
            d_max_grid=[0.0, 6.0], n_train=40, n_test=40, fp_target=0.1, seed=7,
        )
        for n_splits, jobs in ((2, 8), (3, 2), (1, 8)):
            assert sweep(**kw, n_splits=n_splits, jobs=jobs).records == sweep(**kw, n_splits=n_splits).records
        assert seen == [2, 2]  # a one-cell sweep runs in this process

    def test_lk_repeats_appear_in_records(self):
        data = separable_counts(seed=4)
        res = sweep(
            dataset=data, model_grid=[ModelSpec(kind="linear_svm", C=1.0)],
            scenario=ScenarioSpec(kind="LK", n_q=20, n_surrogate_repeats=3),
            scenario_kinds=["LK"], attack=small_attack(), lambdas=[0.0],
            d_max_grid=[0.0, 6.0], n_splits=1, n_train=40, n_test=40,
            fp_target=0.1, kde=None, seed=8,
        )
        repeats = {r["repeat"] for r in res.records}
        assert repeats == {0, 1, 2}

    def test_failing_cell_is_isolated(self):
        data = separable_counts(seed=5)
        grid = [ModelSpec(kind="linear_svm", C=1.0), ModelSpec(kind="mlp", m=2, epochs=3, learning_rate=1e308)]
        res = sweep(
            dataset=data, model_grid=grid, scenario=ScenarioSpec(kind="PK"),
            scenario_kinds=["PK"], attack=small_attack(), lambdas=[0.0],
            d_max_grid=[0.0, 6.0], n_splits=1, n_train=40, n_test=40,
            fp_target=0.1, kde=None, seed=9,
        )
        assert len(res.failures) == 1
        assert "mlp" in res.failures[0]["classifier"]
        assert {r["classifier"] for r in res.records} == {"linear_svm(C=1)"}


def test_sweep_holds_no_finished_trace_when_a_descent_starts(monkeypatch):
    # each trace is counted as its round yields it and released before the
    # next one is asked for, so no finished trace is alive when a descent starts
    alive_at_start = []
    traces = []

    def recorded(model, spec, x0, _original=scenario_module.run_attack):
        alive_at_start.append(sum(ref() is not None for ref in traces))
        trace = _original(model, spec, x0)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(scenario_module, "run_attack", recorded)
    res = sweep(
        dataset=separable_counts(seed=11), model_grid=[ModelSpec(kind="linear_svm", C=1.0)],
        scenario=ScenarioSpec(kind="LK", n_q=20, n_surrogate_repeats=2), scenario_kinds=["PK", "LK"],
        attack=replace(small_attack(), mode="continuous", step_t=0.5), lambdas=[0.0],
        d_max_grid=[0.0, 6.0], n_splits=1, n_train=40, n_test=40, fp_target=0.1, kde=None, seed=12,
    )
    assert not res.failures and len(res.records) == 3 * 2
    assert len(alive_at_start) >= 3 * 4
    assert max(alive_at_start) == 0


def reference_trace_profile(target, points):
    """`trace_profile` as it was when a trace kept a list of point arrays:
    `np.stack` copies them, the copy is scored, then turned into the
    distances in place."""
    diff = np.stack(points).astype(float, copy=False)
    scores = target.discriminant_many(diff)
    diff -= diff[0].copy()
    return np.abs(diff, out=diff).sum(axis=1), scores


def _random_target(kind, d, rng):
    if kind == "linear":
        return LinearModel(rng.normal(size=d), 0.3)
    if kind == "rbf":
        coefs = rng.uniform(-1.0, 1.0, size=20)
        return SvmModel(KernelSpec("rbf", gamma=0.5 / d), rng.random((20, d)), coefs - coefs.mean(), 0.1, C=2.0)
    return MlpModel(rng.normal(size=(6, d)) / np.sqrt(d), rng.normal(size=6), rng.normal(size=6), 0.2)


class TestTraceProfile:
    @pytest.mark.parametrize("kind", ["linear", "rbf", "mlp"])
    def test_same_bits_as_stacking_the_points(self, kind):
        # on a trace array with rows to spare, as the engines reserve them,
        # for 1, 51 and 501 points of 5 to 784 features
        rng = np.random.default_rng(23)
        for d in (5, 100, 784):
            target = _random_target(kind, d, rng)
            for n in (1, 51, 501):
                points = list(rng.random(d) + np.cumsum(rng.normal(scale=0.1, size=(n, d)), axis=0))
                want_dists, want_scores = reference_trace_profile(target, points)
                trace = AttackTrace(points[:1], [0.0], capacity=n + 7)
                for p in points[1:]:
                    trace.add(p, 0.0)
                dists, scores = trace_profile(target, trace)
                assert dists.tobytes() == want_dists.tobytes(), (d, n)
                assert scores.tobytes() == want_scores.tobytes(), (d, n)
                assert trace.points.tobytes() == np.stack(points).tobytes()

    def test_allocates_a_quarter_of_the_trace_beyond_its_outputs(self):
        # a full-length digits trace, 501 x 784: scored as it is, and the
        # distances come one 64-row block at a time, not from a copy
        rng = np.random.default_rng(24)
        trace = AttackTrace(list(rng.random((501, 784))), [0.0] * 501)
        target = LinearModel(rng.normal(size=784), 0.0)
        tracemalloc.start()
        try:
            dists, scores = trace_profile(target, trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - dists.nbytes - scores.nbytes <= 0.25 * (501 * 784 * 8)


class TestSurrogateReuse:
    """LK surrogates do not depend on lambda: each cell trains them once."""

    KW = dict(
        model_grid=[ModelSpec(kind="linear_svm", C=1.0), ModelSpec(kind="svm", C=1.0)],
        scenario=ScenarioSpec(kind="LK", n_q=20, n_surrogate_repeats=2),
        scenario_kinds=["PK", "LK"], attack=small_attack(), d_max_grid=[0.0, 3.0, 6.0],
        n_splits=2, n_train=40, n_test=40, fp_target=0.1,
        kde=KdeParams(h=2.0, truncation_k=50), seed=10,
    )

    def test_one_training_per_repeat_and_rows_of_one_lambda_sweeps(self, monkeypatch):
        data = separable_counts(seed=6)
        calls = []
        original = scenario_module._train_surrogate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(scenario_module, "_train_surrogate", counted)
        both = sweep(dataset=data, lambdas=[0.0, 50.0], **self.KW)
        assert len(calls) == 2 * 2 * 2   # n_splits x models x repeats
        monkeypatch.undo()
        # cells run split-major, and within a cell lambda is the outer loop
        by_cell: dict = {}
        for lam in (0.0, 50.0):
            for row in sweep(dataset=data, lambdas=[lam], **self.KW).records:
                by_cell.setdefault((row["split"], row["classifier"]), []).append(row)
        assert not both.failures
        assert json.dumps(both.records) == json.dumps([row for rows in by_cell.values() for row in rows])


def test_lambda_500_is_inert_on_the_flagship_rbf_svm(monkeypatch):
    # split 0's rbf PK cell of the flagship config at full size (a smaller
    # cell thins the KDE's reference set and lowers the density): every
    # descent ends on the budget boundary, and the KDE density along the
    # paths stays so low that lambda * p(x) <= 0.5 barely moves F
    cfg = load_config(CONFIGS / "synthetic_pdf.json")
    model_idx, spec = 1, cfg.model_grid[1]
    assert spec.kernel.kind == "rbf" and 500.0 in cfg.lambdas
    descents = []

    def recorded(model, spec, x0, _original=scenario_module.run_attack):
        trace = _original(model, spec, x0)
        descents.append((spec.mimicry, trace))
        return trace

    monkeypatch.setattr(scenario_module, "run_attack", recorded)
    plan = _SweepPlan(load_dataset_from_config(cfg), cfg.scenario, ["PK"], cfg.attack, [500.0], sorted(cfg.d_max_grid),
                      cfg.n_train, cfg.n_test, cfg.fp_target, cfg.kde, cfg.seed)
    _run_cell(plan, (0, model_idx, spec))
    assert len(descents) > 200
    assert {trace.termination for _, trace in descents} == {"budget_boundary_converged"}
    density = max(est.density(x) for est, trace in descents for x in trace.points)
    assert 0 < density <= 1e-3


class BatchRecordingLinear(LinearModel):
    """A linear target that keeps each batch it scores and each point it scores alone."""

    def __post_init__(self):
        super().__post_init__()
        self.batches, self.points = [], []

    def discriminant_many(self, X):
        self.batches.append(np.array(X))
        return super().discriminant_many(X)

    def discriminant(self, x):
        self.points.append(np.array(x))
        return super().discriminant(x)


class OneRowUlpAbove(LinearModel):
    """A linear target whose score of a one-row batch is one ulp above the
    score of the same row in a larger batch, as a BLAS call's last bits
    can differ between the two."""

    def discriminant_many(self, X):
        scores = super().discriminant_many(X)
        return np.nextafter(scores, np.inf) if len(X) == 1 else scores


class TestRunCell:
    """`_run_cell` owns the start verdict: the target scores a cell's
    malicious rows in one batch, and a row that already evades by that
    score counts at every budget without being attacked."""

    def run_cell(self, monkeypatch, target, test, kinds=("PK",), lambdas=(0.0,), d_grid=(0.0, 4.0), kde=None,
                 scenario=ScenarioSpec()):
        """The records of one cell whose test split is `test` and whose calibrated target is `target`."""
        monkeypatch.setattr(evaluation_module, "cell_split", lambda *args: (test, test))
        monkeypatch.setattr(evaluation_module, "cell_model", lambda *args: target)
        monkeypatch.setattr(evaluation_module, "calibrated", lambda model, test, fp_target: model)
        attack = AttackSpec(distance=DistanceSpec("l1"), step_t=0.5, bounds=FeatureBounds(-np.inf, np.inf), mode="continuous")
        plan = _SweepPlan(test, scenario, list(kinds), attack, list(lambdas), list(d_grid), test.n, test.n, 0.1, kde, 0)
        return _run_cell(plan, (0, 0, ModelSpec("linear_svm")))

    def descended(self, monkeypatch):
        """Each (start, trace) of the descents run from here on."""
        runs = []

        def recorded(model, spec, x0, _original=scenario_module.run_attack):
            runs.append((np.array(x0), _original(model, spec, x0)))
            return runs[-1][1]

        monkeypatch.setattr(scenario_module, "run_attack", recorded)
        return runs

    def test_misclassified_sample_recorded_as_evading(self, monkeypatch):
        # row 0 already evades; row 1 needs an l1 move of more than 2 to evade,
        # out of reach at budget 1, so every run reads FN 0.5 at every budget
        rng = np.random.default_rng(0)
        X = np.vstack([[[-1.0, 0.0], [2.0, 0.0]], rng.normal(size=(10, 2)) - 3])
        test = Dataset(X, np.array([1, 1] + [-1] * 10))
        target = BatchRecordingLinear(np.array([1.0, 0.0]), 0.0)
        runs = self.descended(monkeypatch)
        scenario = ScenarioSpec(n_q=test.n, n_surrogate_repeats=2)
        rows = self.run_cell(monkeypatch, target, test, kinds=("PK", "LK"), lambdas=(0.0, 5.0), d_grid=(0.0, 1.0),
                             kde=KdeParams(h=2.0), scenario=scenario)
        assert [(r["lam"], r["scenario"], r["repeat"]) for r in rows[::2]] == [
            (lam, kind, repeat) for lam in (0.0, 5.0) for kind, n in (("PK", 1), ("LK", 2)) for repeat in range(n)]
        assert [r["fn"] for r in rows] == [0.5] * 12
        # the rows' verdict comes from one batched scoring per cell, not one per run
        mal = X[:2]
        assert sum(b.shape == mal.shape and np.array_equal(b, mal) for b in target.batches) == 1
        assert LinearModel.discriminant_many(target, mal)[0] == -1.0
        # the skipped row is never descended nor scored alone; row 1 is descended in each of the 6 runs
        assert len(runs) == 2 * (1 + 2)
        assert all(np.array_equal(x0, X[1]) and trace.iterations > 0 for x0, trace in runs)
        assert not any(np.array_equal(x, X[0]) for x in target.points)

    def test_a_nan_start_score_is_descended_and_never_counted_as_evading(self, monkeypatch):
        # models.evading: a NaN score does not evade, so the row is attacked,
        # and no point the target scores NaN counts toward FN
        class NanScores(LinearModel):
            def discriminant_many(self, X):
                return np.full(len(X), np.nan)

        target = NanScores(np.array([1.0, 0.0]), 0.0)
        runs = self.descended(monkeypatch)
        rows = self.run_cell(monkeypatch, target, Dataset(np.array([[2.0, 0.0]]), np.array([1])))
        [(x0, trace)] = runs
        np.testing.assert_array_equal(x0, [2.0, 0.0])
        assert trace.iterations > 0
        assert target.discriminant(trace.points[-1]) < 0  # the descent's own scores evade
        assert nearest_evasion(target, trace) == np.inf
        assert [r["fn"] for r in rows] == fn_rates([nearest_evasion(target, trace)], [0.0, 4.0]) == [0.0, 0.0]

    def test_a_start_is_judged_by_its_batch_score_alone(self, monkeypatch):
        # theta lies between row 0's score in the batch and its score alone:
        # the batch verdict says it evades, and it counts so at every budget,
        # without a second, one-row verdict that would say it does not
        X = np.array([[0.25, 0.0], [5.0, 0.0]])
        target = OneRowUlpAbove(np.array([1.0, 0.0]), 0.0, decision_offset=float(np.nextafter(0.25, np.inf)))
        assert target.discriminant_many(X)[0] < target.decision_offset == target.discriminant_many(X[:1])[0]
        runs = self.descended(monkeypatch)
        rows = self.run_cell(monkeypatch, target, Dataset(X, np.array([1, 1])), d_grid=(0.0, 1.0))
        assert [r["fn"] for r in rows] == [0.5, 0.5]
        assert [x0.tolist() for x0, _ in runs] == [[5.0, 0.0]]


class TestAggregate:
    def test_mean_std_recomputable(self):
        records = [
            {"classifier": "m", "scenario": "PK", "lam": 0.0, "split": s, "repeat": 0, "d_max": b, "fn": fn}
            for s, b, fn in [(0, 0.0, 0.0), (1, 0.0, 0.5), (0, 5.0, 1.0), (1, 5.0, 0.5)]
        ]
        rows = aggregate_curves(records)
        np.testing.assert_allclose([r["mean_fn"] for r in rows], [0.25, 0.75])
        np.testing.assert_allclose([r["std_fn"] for r in rows], [0.25, 0.25])

    def test_per_curve_view_of_the_rows(self):
        # benchmarks/record_digests.py reads each curve's mean FN at its first and last budget
        records = [
            {"classifier": c, "scenario": "PK", "lam": 0.0, "split": 0, "repeat": 0, "d_max": b, "fn": fn}
            for c, b, fn in [("b", 5.0, 0.5), ("a", 5.0, 1.0), ("b", 0.0, 0.25), ("a", 0.0, 0.0)]
        ]
        result = SweepResult(curve_rows=aggregate_curves(records), records=records, failures=[])
        assert [(c.classifier, c.scenario, c.lam, c.mean_fn) for c in result.curves] == [
            ("a", "PK", 0.0, [0.0, 1.0]), ("b", "PK", 0.0, [0.25, 0.5]),
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.fixed_dictionaries({
            "classifier": st.sampled_from(["linear_svm(C=1)", "svm(rbf,gamma=0.002,C=1)", "mlp(m=10)"]),
            "scenario": st.sampled_from(["PK", "LK"]),
            "lam": st.sampled_from([0.0, 50.0, 500.0]),
            "split": st.integers(0, 4),
            "repeat": st.integers(0, 4),
            "d_max": st.sampled_from([0.0, 5.0, 10.0, 50.0]),
            "fn": st.integers(0, 250).map(lambda k: k / 250) | st.floats(0.0, 1.0),
        }),
        min_size=1, max_size=60,
    ))
    def test_rows_of_random_records(self, records):
        rows = aggregate_curves(records)
        keys = [(r["classifier"], r["scenario"], r["lam"], r["d_max"]) for r in rows]
        # sorted and one row a point: each curve's budgets strictly increase
        assert keys == sorted(set(keys))
        fns: dict = {}
        for rec in records:
            fns.setdefault((rec["classifier"], rec["scenario"], rec["lam"], rec["d_max"]), []).append(rec["fn"])
        assert set(keys) == set(fns)
        for key, row in zip(keys, rows):
            assert list(row) == ["classifier", "scenario", "lam", "d_max", "mean_fn", "std_fn"]
            assert all(type(row[k]) is float for k in ("lam", "d_max", "mean_fn", "std_fn"))
            assert 0.0 <= row["mean_fn"] <= 1.0
            assert row["mean_fn"] == pytest.approx(statistics.fmean(fns[key]), rel=0, abs=1e-12)
            assert row["std_fn"] == pytest.approx(statistics.pstdev(fns[key]), rel=0, abs=1e-12)
