from dataclasses import asdict, replace

import numpy as np
import pytest

import gradevade.scenario as scenario_module

from gradevade.attack import AttackSpec, DistanceSpec, evade_continuous
from gradevade.data import LEGITIMATE, Dataset, FeatureBounds
from gradevade.mimicry import KdeParams
from gradevade.evaluation import fn_rates, trace_profile
from gradevade.kernels import KernelSpec
from gradevade.models import (
    LinearModel,
    MlpModel,
    ModelSpec,
    SvmModel,
    TrainedModel,
    predict,
    train_from_spec,
    train_kernel_svm,
    train_mlp,
)
from gradevade.scenario import ScenarioSpec, build_surrogate, descent_rounds, run_scenario, surrogate_spec

FREE = FeatureBounds(lower=-np.inf, upper=np.inf)
# the recipe of the linear targets built by hand below
LINEAR_SPEC = ModelSpec("linear_svm")


def toy_pool(n=60, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.normal(size=(n // 2, 2)) - 3
    pos = rng.normal(size=(n // 2, 2)) + 3
    X = np.vstack([neg, pos])
    y = np.array([-1] * (n // 2) + [1] * (n // 2))
    return Dataset(X, y)


def linear_target(pool, C):
    """A linear SVM target trained on `pool`, and its recipe."""
    spec = ModelSpec("linear_svm", C=C)
    return train_from_spec(spec, pool), spec


class RecordingLinear(LinearModel):
    """LinearModel that records which access paths get used.

    A real model of the family, so it scores like the target it stands for;
    the scenario learns the family from the target's `ModelSpec`.
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


class TestSurrogateSpec:
    @pytest.mark.parametrize("params, named", [
        ({"m": 2.5, "C": "7", "epochs": True}, "C must be a real number, not '7'"),
        ({"m": 2.5}, "m must be an integer, not 2.5"),
        ({"epochs": True}, "epochs must be an integer, not True"),
        ({"epochs": 10.0}, "epochs must be an integer, not 10.0"),
        ({"gamma": "0.1"}, "gamma must be a real number, not '0.1'"),
        ({"learning_rate": False}, "learning_rate must be a real number, not False"),
    ])
    def test_a_value_of_the_wrong_type_is_refused_naming_its_key(self, params, named):
        with pytest.raises(ValueError, match=f"^{named}$"):
            surrogate_spec(ModelSpec("mlp"), params)

    def test_a_key_it_does_not_read_is_refused_by_name(self):
        # a misspelt gamma would otherwise leave the default 0.1 in place
        with pytest.raises(ValueError, match="^unknown surrogate key 'gama'$"):
            surrogate_spec(ModelSpec("svm"), {"gama": 5.0})

    def test_real_values_are_widened_and_integers_kept(self):
        got = surrogate_spec(ModelSpec("svm"), {"C": 7, "gamma": 1, "m": np.int64(3), "epochs": 5, "learning_rate": 2})
        assert (got.C, got.kernel.gamma, got.m, got.epochs, got.learning_rate) == (7.0, 1.0, 3, 5, 2.0)
        assert all(isinstance(v, float) for v in (got.C, got.kernel.gamma, got.learning_rate))
        assert surrogate_spec(ModelSpec("svm"), {}) == replace(ModelSpec("svm"), C=100.0, kernel=KernelSpec("rbf", 0.1))


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

    def test_without_relabel_keeps_the_pool_labels(self):
        pool = toy_pool()
        always_pos = LinearModel(np.array([0.0, 0.0]), 5.0)  # would relabel every row +1
        spec = ScenarioSpec(kind="LK", n_q=30, relabel_with_target=False)
        surr = build_surrogate(always_pos, pool, spec, seed=2)
        truth = {tuple(x): y for x, y in zip(pool.X, pool.y)}
        assert [truth[tuple(x)] for x in surr.X] == surr.y.tolist()
        assert set(surr.y.tolist()) == {-1, 1}

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
        rounds = descent_rounds(target, LINEAR_SPEC, pool, ScenarioSpec(kind="PK"))
        [traces] = [list(r) for r in run_scenario(target, rounds, atk, attack_set)]
        direct = evade_continuous(target, atk, np.array([2.0, 0.0]))
        assert len(traces) == 1
        np.testing.assert_allclose(traces[0].points[-1], direct.points[-1])
        assert predict(target, traces[0].points[-1][None])[0] == predict(target, direct.points[-1][None])[0]

    def test_lk_repeat_count(self):
        pool = toy_pool(n=200, seed=3)
        target, target_spec = linear_target(pool, 10.0)
        atk = attack_spec(d_max=2.0)
        mal = pool.X[pool.y == 1][:4]
        attack_set = Dataset(mal, np.ones(4, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=60, n_surrogate_repeats=5, seed=11)
        surrogates = descent_rounds(target, target_spec, pool, scen)
        rounds = [list(r) for r in run_scenario(target, surrogates, atk, attack_set)]
        assert len(rounds) == 5 and len(surrogates) == 5
        for traces, (_, surrogate) in zip(rounds, surrogates):
            assert len(traces) == 4
            for x0, trace in zip(mal, traces):
                # round r descends on surrogate r, from the sample of its row
                direct = evade_continuous(surrogate, atk, x0)
                np.testing.assert_array_equal(np.stack(trace.points), np.stack(direct.points))

    def test_lk_equals_pk_when_surrogate_reproduces_target(self):
        # surrogate trained on the whole pool with the target's own params
        pool = toy_pool(n=200, seed=4)
        target, target_spec = linear_target(pool, 50.0)
        atk = attack_spec(d_max=8.0)
        mal = pool.X[pool.y == 1][:6]
        attack_set = Dataset(mal, np.ones(6, dtype=int))
        scen = ScenarioSpec(
            kind="LK", n_q=pool.n, n_surrogate_repeats=1,
            relabel_with_target=True, surrogate_params={"C": 50.0}, seed=5,
        )
        [lk] = run_scenario(target, descent_rounds(target, target_spec, pool, scen), atk, attack_set)
        [pk] = run_scenario(target, descent_rounds(target, target_spec, pool, ScenarioSpec(kind="PK")), atk, attack_set)
        assert [predict(target, t.points[-1][None])[0] for t in lk] == [predict(target, t.points[-1][None])[0] for t in pk]

    def test_lk_touches_target_only_via_predict(self):
        # models.predict labels rows through discriminant_many, the only
        # access path the scenario may use on the target
        pool = toy_pool(n=200, seed=6)
        inner, target_spec = linear_target(pool, 10.0)
        target = RecordingLinear(inner.w, inner.b, inner.decision_offset)
        atk = attack_spec(d_max=2.0)
        mal = pool.X[pool.y == 1][:3]
        attack_set = Dataset(mal, np.ones(3, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=50, n_surrogate_repeats=2, seed=7)
        [list(r) for r in run_scenario(target, descent_rounds(target, target_spec, pool, scen), atk, attack_set)]
        assert set(target.calls) == {"discriminant_many"}
        assert "gradient" not in target.calls

    def test_pk_ignores_surrogate_fields(self):
        pool = toy_pool(n=100, seed=8)
        target = LinearModel(np.array([1.0, 0.5]), 0.0)
        atk = attack_spec(d_max=3.0)
        attack_set = Dataset(pool.X[pool.y == 1][:3], np.ones(3, dtype=int))
        rounds_a = descent_rounds(target, LINEAR_SPEC, pool, ScenarioSpec(kind="PK", n_q=10, n_surrogate_repeats=2))
        rounds_b = descent_rounds(target, LINEAR_SPEC, pool, ScenarioSpec(kind="PK", n_q=90, n_surrogate_repeats=9))
        for [(data, model)] in (rounds_a, rounds_b):
            assert data is pool and model is target
        [a] = [list(r) for r in run_scenario(target, rounds_a, atk, attack_set)]
        [b] = [list(r) for r in run_scenario(target, rounds_b, atk, attack_set)]
        assert len(a) == len(b) == 3
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.points[-1], tb.points[-1])

    def test_misclassified_sample_recorded_as_evading(self):
        pool = toy_pool()
        target = RecordingLinear(np.array([1.0, 0.0]), 0.0)
        attack_set = Dataset(np.array([[-1.0, 0.0], [2.0, 0.0]]), np.array([1, 1]))
        batch_scores = target.discriminant_many(attack_set.X)
        for scenario, n_rounds in ((ScenarioSpec(kind="PK"), 1),
                                   (ScenarioSpec(kind="LK", n_q=30, n_surrogate_repeats=3), 3)):
            descents = descent_rounds(target, LINEAR_SPEC, pool, scenario)
            target.calls.clear()
            rounds = list(run_scenario(target, descents, attack_spec(), attack_set))
            assert len(rounds) == n_rounds
            # the rows' labels come from one batched scoring, made in the call
            assert target.calls == ["discriminant_many"]
            for traces in rounds:
                target.calls.clear()
                skipped = next(traces)
                # no scalar call for the skipped row: its value is the batch score
                assert target.calls == []
                assert skipped.objective_values == [batch_scores[0]] == [-1.0]
                attacked, = traces
                # a single-point trace in its row's place, evading the target at its start
                assert skipped.iterations == 0 and skipped.termination == "converged"
                np.testing.assert_array_equal(skipped.points[0], attack_set.X[0])
                _, scores = trace_profile(target, skipped)
                assert scores.tolist() == [-1.0] and scores[0] - target.decision_offset < 0
                np.testing.assert_array_equal(attacked.points[0], attack_set.X[1])
                assert attacked.iterations > 0

    def test_a_nan_start_score_is_descended_and_never_counted_as_evading(self):
        # models.evading: a NaN score does not evade, so the row is attacked,
        # and no point the target scores NaN counts toward FN
        class NanScores(LinearModel):
            def discriminant_many(self, X):
                return np.full(len(X), np.nan)

        target = NanScores(np.array([1.0, 0.0]), 0.0)
        attack_set = Dataset(np.array([[2.0, 0.0]]), np.array([1]))
        rounds = descent_rounds(target, LINEAR_SPEC, toy_pool(), ScenarioSpec(kind="PK"))
        [[trace]] = [list(r) for r in run_scenario(target, rounds, attack_spec(), attack_set)]
        assert trace.iterations > 0
        assert target.discriminant(trace.points[-1]) < 0  # the descent's own scores evade
        assert fn_rates(target, [trace], [0.0, 4.0]) == [0.0, 0.0]

    def test_rejects_legitimate_samples_in_attack_set(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 0.0]), 0.0)
        bad = Dataset(np.array([[1.0, 0.0]]), np.array([-1]))
        with pytest.raises(ValueError, match="malicious"):
            run_scenario(target, descent_rounds(target, LINEAR_SPEC, pool, ScenarioSpec(kind="PK")), attack_spec(), bad)

    def test_lk_kde_reference_points_come_from_surrogate(self, monkeypatch):
        # with one repeat and a tiny pool, the mimicry estimator must be
        # built from `kde` over the surrogate's legitimately-labeled rows only
        pool = toy_pool(n=40, seed=9)
        target, target_spec = linear_target(pool, 10.0)
        atk = AttackSpec(
            distance=DistanceSpec("l1"), d_max=2.0, step_t=0.5, bounds=FREE, mode="continuous", lam=5.0,
        )
        attack_set = Dataset(pool.X[pool.y == 1][:2], np.ones(2, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=20, n_surrogate_repeats=1, seed=10)
        kde = KdeParams(h=2.0, truncation_k=50)
        estimators = []

        def recorded(model, spec, x0, _original=scenario_module.run_attack):
            estimators.append(spec.mimicry)
            return _original(model, spec, x0)

        monkeypatch.setattr(scenario_module, "run_attack", recorded)
        surrogates = descent_rounds(target, target_spec, pool, scen)
        [traces] = [list(r) for r in run_scenario(target, surrogates, atk, attack_set, kde=kde)]
        assert len(traces) == 2
        [(surrogate_data, _)] = surrogates
        legit = surrogate_data.X[surrogate_data.y == LEGITIMATE]
        assert 0 < len(legit) < len(pool.X[pool.y == LEGITIMATE])
        assert len(estimators) == 2
        for est in estimators:
            np.testing.assert_array_equal(est.reference_points, legit)
            assert (est.h, est.truncation_k) == (kde.h, kde.truncation_k)

    def test_rounds_do_not_depend_on_the_order_they_are_consumed_in(self, monkeypatch):
        # every round binds its surrogate and its mimicry estimator when it
        # is created: rounds materialized first and consumed last to first
        # descend exactly as rounds consumed one by one
        pool = toy_pool(n=200, seed=12)
        target, target_spec = linear_target(pool, 10.0)
        atk = replace(attack_spec(d_max=3.0), lam=5.0)
        attack_set = Dataset(pool.X[pool.y == 1][:3], np.ones(3, dtype=int))
        scen = ScenarioSpec(kind="LK", n_q=30, n_surrogate_repeats=3, seed=13)
        kde = KdeParams(h=2.0, truncation_k=50)
        in_order = [list(r) for r in run_scenario(target, descent_rounds(target, target_spec, pool, scen), atk, attack_set, kde=kde)]

        descents = []

        def recorded(model, spec, x0, _original=scenario_module.run_attack):
            descents.append((model, spec.mimicry))
            return _original(model, spec, x0)

        monkeypatch.setattr(scenario_module, "run_attack", recorded)
        surrogates = descent_rounds(target, target_spec, pool, scen)
        rounds = list(run_scenario(target, surrogates, atk, attack_set, kde=kde))
        assert len(rounds) == 3 and len(surrogates) == 3 and not descents
        reversed_order = [list(r) for r in reversed(rounds)][::-1]

        assert len(descents) == 9
        for r, (surrogate_data, surrogate) in enumerate(surrogates):
            legit = surrogate_data.X[surrogate_data.y == LEGITIMATE]
            # round r was consumed (2 - r)-th, one descent per row
            for model, est in descents[3 * (2 - r):3 * (3 - r)]:
                assert model is surrogate
                np.testing.assert_array_equal(est.reference_points, legit)
        for got, want in zip(reversed_order, in_order):
            assert len(got) == len(want) == 3
            for a, b in zip(got, want):
                assert np.stack(a.points).tobytes() == np.stack(b.points).tobytes()
                assert a.objective_values == b.objective_values
                assert a.termination == b.termination
        # the surrogates differ, so a round descended on another's would show
        assert len({tuple(f for t in traces for f in t.objective_values) for traces in in_order}) == 3

    def test_lam_positive_requires_kde_params(self):
        pool = toy_pool()
        target = LinearModel(np.array([1.0, 0.0]), 0.0)
        attack_set = Dataset(np.array([[2.0, 0.0]]), np.array([1]))
        prebuilt = KdeParams(h=2.0).build(pool.X[pool.y == LEGITIMATE])
        atk = replace(attack_spec(), lam=5.0, mimicry=prebuilt)
        for kind in ("PK", "LK"):
            with pytest.raises(ValueError, match="requires kde parameters"):
                run_scenario(target, descent_rounds(target, LINEAR_SPEC, pool, ScenarioSpec(kind=kind, n_q=30)), atk, attack_set)


def test_lk_repeat_seeds_are_pinned(monkeypatch):
    # repeat r draws its data and trains its surrogate from the seed pair
    # SeedSequence([scenario.seed, 0xA77AC]).spawn(n)[r].generate_state(2);
    # these are the values of repeat 2 with scenario.seed = 13
    pool = toy_pool(n=200, seed=12)
    target, target_spec = linear_target(pool, 10.0)
    seen = []
    for name in ("build_surrogate", "_train_surrogate"):
        # the first argument is the trained target for build_surrogate, its recipe for _train_surrogate
        def recorded(target_or_spec, data, spec, seed, _name=name, _original=getattr(scenario_module, name)):
            seen.append((_name, seed))
            return _original(target_or_spec, data, spec, seed)

        monkeypatch.setattr(scenario_module, name, recorded)
    descent_rounds(target, target_spec, pool, ScenarioSpec(kind="LK", n_q=30, n_surrogate_repeats=3, seed=13))
    assert [name for name, _ in seen] == ["build_surrogate", "_train_surrogate"] * 3
    assert seen[4:] == [("build_surrogate", 2629606423), ("_train_surrogate", 3981232412)]


def reference_train_surrogate(target: TrainedModel, data: Dataset, spec: ScenarioSpec, seed: int) -> TrainedModel:
    """Oracle: the surrogate trainer that read the family off the trained
    target's type, with its own copy of the LK defaults. Verbatim, but for
    its linear branch, which inlines the body of the linear SVM trainer it
    called."""
    params = spec.surrogate_params
    C = float(params.get("C", 100.0))
    if isinstance(target, LinearModel):
        return train_kernel_svm(data, KernelSpec(kind="linear"), C, tol=1e-3)
    if isinstance(target, SvmModel):
        kernel = replace(target.kernel, gamma=float(params.get("gamma", 0.1)))
        return train_kernel_svm(data, kernel, C=C)
    if isinstance(target, MlpModel):
        return train_mlp(
            data,
            m=int(params.get("m", target.hidden_weights.shape[0])),
            epochs=int(params.get("epochs", 2000)),
            learning_rate=float(params.get("learning_rate", 1.0)),
            seed=seed,
        )
    raise TypeError(f"unknown target model type {type(target).__name__}")


def parameter_bytes(model) -> dict:
    """Each field of a trained model, its arrays and floats as their bytes."""
    return {name: np.asarray(value).tobytes() if isinstance(value, (np.ndarray, float)) else value
            for name, value in asdict(model).items()}


@pytest.mark.parametrize("params", [
    {},
    {"C": 100.0, "gamma": 0.002},  # the flagship's
    {"C": 5.0, "gamma": 0.05, "m": 3, "epochs": 300, "learning_rate": 0.5},
], ids=["defaults", "flagship", "all_keys"])
@pytest.mark.parametrize("target_spec", [
    ModelSpec("linear_svm", C=1.0),
    ModelSpec("svm", C=1.0, kernel=KernelSpec("rbf", gamma=0.002)),
    ModelSpec("mlp", m=6, epochs=200, learning_rate=10.0),
], ids=lambda s: s.kind)
def test_surrogate_recipe_trains_the_reference_surrogate_bit_for_bit(target_spec, params):
    pool = toy_pool(n=60, seed=14)
    target = train_from_spec(target_spec, pool, seed=3)
    data = build_surrogate(target, pool, ScenarioSpec(kind="LK", n_q=40), seed=5)
    scen = ScenarioSpec(kind="LK", n_q=40, surrogate_params=params)
    ours = scenario_module._train_surrogate(target_spec, data, scen, seed=7)
    ref = reference_train_surrogate(target, data, scen, seed=7)
    assert type(ours) is type(ref)
    assert parameter_bytes(ours) == parameter_bytes(ref)

