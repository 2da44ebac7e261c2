import numpy as np
import pytest

from gradevade.attack import AttackSpec, DistanceSpec, evade_continuous
from gradevade.data import Dataset, FeatureBounds
from gradevade.mimicry import KdeParams
from gradevade.evaluation import trace_profile
from gradevade.models import LinearModel, predict, train_linear_svm
from gradevade.scenario import ScenarioSpec, build_surrogate, run_scenario

FREE = FeatureBounds(lower=-np.inf, upper=np.inf)


def toy_pool(n=60, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.normal(size=(n // 2, 2)) - 3
    pos = rng.normal(size=(n // 2, 2)) + 3
    X = np.vstack([neg, pos])
    y = np.array([-1] * (n // 2) + [1] * (n // 2))
    return Dataset(X, y)


class RecordingLinear(LinearModel):
    """LinearModel that records which access paths get used.

    Subclasses the real family so the scenario can still infer the
    classifier type (which the attacker legitimately knows).
    """

    def __post_init__(self):
        super().__post_init__()
        self.calls = []

    def discriminant(self, x):
        self.calls.append("discriminant")
        return super().discriminant(x)

    def discriminant_many(self, X):
        self.calls.append("discriminant_many")
        return super().discriminant_many(X)

    def gradient(self, x):
        self.calls.append("gradient")
        return super().gradient(x)


class TestBuildSurrogate:
    def test_exact_size_and_distinct(self):
        pool = toy_pool(n=500)
        target = LinearModel(np.array([1.0, 1.0]), 0.0)
        spec = ScenarioSpec(kind="LK", n_q=100)
        surr = build_surrogate(target, pool, spec, seed=1)
        assert surr.n == 100
        assert len({tuple(r) for r in surr.X}) == 100

    def test_relabel_with_accurate_target_keeps_labels(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 1.0]), 0.0)  # perfectly splits the blobs
        spec = ScenarioSpec(kind="LK", n_q=30, relabel_with_target=True)
        surr = build_surrogate(target, pool, spec, seed=2)
        # recover true labels by matching rows
        truth = {tuple(x): y for x, y in zip(pool.X, pool.y)}
        assert all(truth[tuple(x)] == y for x, y in zip(surr.X, surr.y))

    def test_seed_determinism(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 1.0]), 0.0)
        spec = ScenarioSpec(kind="LK", n_q=20)
        a = build_surrogate(target, pool, spec, seed=7)
        b = build_surrogate(target, pool, spec, seed=7)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_untrainable_surrogate_errors(self):
        pool = toy_pool()
        always_pos = LinearModel(np.array([0.0, 0.0]), 5.0)  # predicts +1 everywhere
        spec = ScenarioSpec(kind="LK", n_q=10, relabel_with_target=True)
        with pytest.raises(ValueError, match="surrogate untrainable"):
            build_surrogate(always_pos, pool, spec, seed=0)


def attack_spec(d_max=4.0):
    return AttackSpec(distance=DistanceSpec("l1"), d_max=d_max, step_t=0.5, bounds=FREE, mode="continuous")


class TestRunScenario:
    def test_pk_matches_direct_attack(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 0.0]), 0.0)
        atk = attack_spec()
        attack_set = Dataset(np.array([[2.0, 0.0]]), np.array([1]))
        traces = run_scenario(target, pool, atk, ScenarioSpec(kind="PK"), attack_set)
        direct = evade_continuous(target, atk, np.array([2.0, 0.0]))
        assert len(traces) == 1
        np.testing.assert_allclose(traces[0].points[-1], direct.points[-1])
        assert predict(target, traces[0].points[-1][None])[0] == predict(target, direct.points[-1][None])[0]
        assert traces[0].sample_index == 0 and traces[0].repeat is None

    def test_lk_repeat_count(self):
        pool = toy_pool(n=200, seed=3)
        target = train_linear_svm(pool, C=10.0)
        atk = attack_spec(d_max=2.0)
        mal = pool.X[pool.y == 1][:4]
        attack_set = Dataset(mal, np.ones(4, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=60, n_surrogate_repeats=5, seed=11)
        traces = run_scenario(target, pool, atk, scen, attack_set)
        assert len(traces) == 20
        for i in range(4):
            repeats = sorted(t.repeat for t in traces if t.sample_index == i)
            assert repeats == [0, 1, 2, 3, 4]

    def test_lk_equals_pk_when_surrogate_reproduces_target(self):
        # surrogate trained on the whole pool with the target's own params
        pool = toy_pool(n=200, seed=4)
        target = train_linear_svm(pool, C=50.0)
        atk = attack_spec(d_max=8.0)
        mal = pool.X[pool.y == 1][:6]
        attack_set = Dataset(mal, np.ones(6, dtype=int))
        scen = ScenarioSpec(
            kind="LK", n_q=pool.n, n_surrogate_repeats=1,
            relabel_with_target=True, surrogate_params={"C": 50.0}, seed=5,
        )
        lk = run_scenario(target, pool, atk, scen, attack_set)
        pk = run_scenario(target, pool, atk, ScenarioSpec(kind="PK"), attack_set)
        assert [predict(target, t.points[-1][None])[0] for t in lk] == [predict(target, t.points[-1][None])[0] for t in pk]

    def test_lk_touches_target_only_via_predict(self):
        # models.predict labels rows through discriminant_many, the only
        # access path the scenario may use on the target
        pool = toy_pool(n=200, seed=6)
        inner = train_linear_svm(pool, C=10.0)
        target = RecordingLinear(inner.w, inner.b, inner.decision_offset)
        atk = attack_spec(d_max=2.0)
        mal = pool.X[pool.y == 1][:3]
        attack_set = Dataset(mal, np.ones(3, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=50, n_surrogate_repeats=2, seed=7)
        run_scenario(target, pool, atk, scen, attack_set)
        assert set(target.calls) == {"discriminant_many"}
        assert "gradient" not in target.calls

    def test_pk_ignores_surrogate_fields(self):
        pool = toy_pool(n=100, seed=8)
        target = LinearModel(np.array([1.0, 0.5]), 0.0)
        atk = attack_spec(d_max=3.0)
        attack_set = Dataset(pool.X[pool.y == 1][:3], np.ones(3, dtype=int))
        a = run_scenario(target, pool, atk, ScenarioSpec(kind="PK", n_q=10, n_surrogate_repeats=2), attack_set)
        b = run_scenario(target, pool, atk, ScenarioSpec(kind="PK", n_q=90, n_surrogate_repeats=9), attack_set)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.points[-1], tb.points[-1])

    def test_misclassified_sample_recorded_as_evading(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 0.0]), 0.0)
        attack_set = Dataset(np.array([[-1.0, 0.0], [2.0, 0.0]]), np.array([1, 1]))
        for scenario, repeats in ((ScenarioSpec(kind="PK"), [None]),
                                  (ScenarioSpec(kind="LK", n_q=30, n_surrogate_repeats=3), [0, 1, 2])):
            traces = run_scenario(target, pool, attack_spec(), scenario, attack_set)
            skipped = [t for t in traces if t.sample_index == 0]
            # one single-point trace per repeat, evading the target at its start
            assert [t.repeat for t in skipped] == repeats
            for t in skipped:
                assert t.iterations == 0 and t.termination == "converged"
                np.testing.assert_array_equal(t.points[0], attack_set.X[0])
                _, scores = trace_profile(target, t, DistanceSpec("l1"))
                assert scores.tolist() == [-1.0] and scores[0] - target.decision_offset < 0

    def test_rejects_legitimate_samples_in_attack_set(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 0.0]), 0.0)
        bad = Dataset(np.array([[1.0, 0.0]]), np.array([-1]))
        with pytest.raises(ValueError, match="malicious"):
            run_scenario(target, pool, attack_spec(), ScenarioSpec(kind="PK"), bad)

    def test_lk_kde_reference_points_come_from_surrogate(self):
        # with one repeat and a tiny pool, the mimicry estimator must be
        # built from the surrogate's legitimately-labeled rows only
        pool = toy_pool(n=40, seed=9)
        target = train_linear_svm(pool, C=10.0)
        atk = AttackSpec(
            distance=DistanceSpec("l1"), d_max=2.0, step_t=0.5, bounds=FREE,
            mode="continuous", lam=5.0,
            mimicry=KdeParams(kernel_kind="laplacian", h=2.0, truncation_k=50).build(np.zeros((1, 2))),
        )
        attack_set = Dataset(pool.X[pool.y == 1][:2], np.ones(2, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=20, n_surrogate_repeats=1, seed=10)
        traces = run_scenario(target, pool, atk, scen, attack_set,
                              kde=KdeParams(kernel_kind="laplacian", h=2.0, truncation_k=50))
        assert len(traces) == 2  # runs fine with surrogate-derived references
