from dataclasses import fields, replace

import numpy as np
import pytest

import gradevade.attack as attack_module
import gradevade.models as models_module
from gradevade.attack import AttackSpec, DistanceSpec, evade_continuous
from gradevade.benchmark import synthetic_pdf_dataset
from gradevade.data import Dataset, FeatureBounds, cap_features
from gradevade.kernels import KernelSpec, kernel_grad_combination, kernel_row
from gradevade.models import (
    LinearModel,
    MlpModel,
    SvmModel,
    _sigmoid,
    load_model,
    predict,
    save_model,
    train_kernel_svm,
    train_linear_svm,
    train_mlp,
)


def central_diff(fn, x, step=1e-5):
    """Central finite differences of a scalar function, one coordinate at a time."""
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (fn(hi) - fn(lo)) / (2 * step)
    return g


def assert_grad_close(analytic, numeric, rel=1e-4, abs_tol=1e-8):
    norm = np.linalg.norm(numeric)
    if norm > 1e-8:
        assert np.linalg.norm(analytic - numeric) <= rel * norm + abs_tol
    else:
        assert np.linalg.norm(analytic - numeric) <= abs_tol


def pair_value(k, x, xi):
    """k(x, xi) for one pair, through the one-row kernel routine."""
    return float(kernel_row(k, x, np.asarray(xi, float)[None, :])[0])


def pair_grad(k, x, xi):
    """grad_x k(x, xi) for one pair, through the weighted-sum routine."""
    return kernel_grad_combination(k, x, np.asarray(xi, float)[None, :], np.ones(1))


class TestKernels:
    def test_rbf_at_same_point(self):
        k = KernelSpec("rbf", gamma=0.7)
        x = np.array([1.0, -2.0])
        assert pair_value(k, x, x) == 1.0
        np.testing.assert_allclose(pair_grad(k, x, x), [0.0, 0.0])

    def test_linear_hand_values(self):
        k = KernelSpec("linear")
        assert pair_value(k, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
        np.testing.assert_allclose(pair_grad(k, np.array([9.0, 9.0]), np.array([3.0, 4.0])), [3.0, 4.0])

    def test_polynomial_hand_values(self):
        k = KernelSpec("polynomial", degree=2, coef0=1.0)
        assert pair_value(k, np.array([1.0, 0.0]), np.array([2.0, 1.0])) == 9.0
        np.testing.assert_allclose(pair_grad(k, np.array([1.0, 0.0]), np.array([2.0, 1.0])), [12.0, 6.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            pair_value(KernelSpec("linear"), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("kind", ["linear", "rbf", "polynomial"])
    def test_grad_matches_finite_differences(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = KernelSpec(kind, gamma=float(rng.uniform(0.1, 2.0)),
                           degree=int(rng.integers(1, 4)), coef0=float(rng.uniform(0.0, 2.0)))
            x = rng.normal(size=4)
            xi = rng.normal(size=4)
            numeric = central_diff(lambda v: pair_value(k, v, xi), x)
            assert_grad_close(pair_grad(k, x, xi), numeric, rel=1e-6)


def blobs(n_per_class=20, sep=4.0, seed=0, d=2):
    rng = np.random.default_rng(seed)
    neg = rng.normal(size=(n_per_class, d)) - sep / 2
    pos = rng.normal(size=(n_per_class, d)) + sep / 2
    X = np.vstack([neg, pos])
    y = np.array([-1] * n_per_class + [1] * n_per_class)
    return Dataset(X, y)


class TestLinearSvm:
    def test_hand_solved_max_margin(self):
        ds = Dataset(np.array([[-1.0], [1.0]]), np.array([-1, 1]))
        m = train_linear_svm(ds, C=1000.0)
        assert abs(m.w[0] - 1.0) < 1e-6
        assert abs(m.b) < 1e-6

    def test_duplication_invariance_hard_margin(self):
        # separable data trained past the hard-margin threshold: duplicating
        # every point leaves the solution unchanged (solver property)
        ds = blobs(15, sep=5.0, seed=3)
        dup = Dataset(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]))
        m1 = train_linear_svm(ds, C=1000.0, tol=1e-6)
        m2 = train_linear_svm(dup, C=1000.0, tol=1e-6)
        np.testing.assert_allclose(m1.w, m2.w, atol=1e-6)
        assert abs(m1.b - m2.b) < 1e-6

    def test_separable_blobs_perfect_training_accuracy(self):
        ds = blobs(25, sep=6.0, seed=1)
        m = train_linear_svm(ds, C=10.0)
        assert np.all(predict(m, ds.X) == ds.y)

    def test_degenerate_data_rejected(self):
        ds = Dataset(np.ones((4, 2)), np.array([-1, -1, 1, 1]))
        with pytest.raises(ValueError, match="degenerate"):
            train_linear_svm(ds, C=1.0)


def kkt_violation(model: SvmModel, ds: Dataset) -> float:
    """Worst violation of the dual optimality conditions, measured directly."""
    scores = model.discriminant_many(ds.X)
    # recover alpha per training point by matching support vectors
    worst = 0.0
    sv_map = {tuple(v): c for v, c in zip(model.support_vectors, model.dual_coefs)}
    for x, y, s in zip(ds.X, ds.y, scores):
        coef = sv_map.get(tuple(x), 0.0)
        alpha = coef * y  # dual_coefs store alpha_i y_i
        margin = y * s
        if alpha <= 1e-8:
            worst = max(worst, 1.0 - margin)      # must have margin >= 1
        elif alpha >= model.C - 1e-8:
            worst = max(worst, margin - 1.0)      # must have margin <= 1
        else:
            worst = max(worst, abs(margin - 1.0))  # free: margin == 1
    return worst


class TestKernelSvm:
    def test_linear_kernel_collapse_matches(self):
        ds = blobs(20, sep=3.0, seed=7)
        svm = train_kernel_svm(ds, KernelSpec("linear"), C=1.0)
        lin = svm.collapse_linear()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2)) * 3
        for x in X:
            assert abs(svm.discriminant(x) - lin.discriminant(x)) < 1e-6
        np.testing.assert_array_equal(predict(svm, X), predict(lin, X))

    def test_xor_rbf(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([-1, -1, 1, 1])
        ds = Dataset(X, y)
        m = train_kernel_svm(ds, KernelSpec("rbf", gamma=1.0), C=100.0)
        assert np.all(predict(m, X) == y)

    def test_dual_constraints_and_kkt(self):
        ds = blobs(25, sep=2.0, seed=5)  # overlapping: some alphas at bound
        m = train_kernel_svm(ds, KernelSpec("rbf", gamma=0.5), C=1.0)
        assert np.all(np.abs(m.dual_coefs) <= m.C + 1e-9)
        assert abs(m.dual_coefs.sum()) <= 1e-6
        assert kkt_violation(m, ds) <= 1e-3

    def test_identical_positive_points_kkt(self):
        X = np.vstack([np.tile([2.0, 2.0], (5, 1)), np.array([[0.0, 0.0], [0.5, 0.1], [-1.0, 0.3]])])
        y = np.array([1] * 5 + [-1] * 3)
        ds = Dataset(X, y)
        m = train_kernel_svm(ds, KernelSpec("rbf", gamma=1.0), C=10.0)
        assert kkt_violation(m, ds) <= 1e-3

    def test_discriminant_matches_hand_sum(self):
        k = KernelSpec("rbf", gamma=0.3)
        sv = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        coefs = np.array([0.5, -0.75, 0.25])
        m = SvmModel(kernel=k, support_vectors=sv, dual_coefs=coefs, b=0.1, C=1.0)
        x = np.array([0.5, 0.25])
        by_hand = sum(c * np.exp(-0.3 * np.sum((x - v) ** 2)) for c, v in zip(coefs, sv)) + 0.1
        assert abs(m.discriminant(x) - by_hand) < 1e-9


def masked_sigmoid(z):
    """The two-pass masked logistic that _sigmoid replaced, as its oracle."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_matches_masked_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    z = np.concatenate(
        [rng.normal(scale=s, size=25_000) for s in (1.0, 10.0, 100.0, 800.0)]
        + [[0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan]]
    )
    got, want = _sigmoid(z), masked_sigmoid(z)
    nan = np.isnan(want)
    assert nan.sum() == 1 and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestMlp:
    def test_separable_blobs_accuracy(self):
        ds = blobs(30, sep=4.0, seed=2)
        m = train_mlp(ds, m=3, epochs=800, learning_rate=2.0, seed=0)
        assert np.mean(predict(m, ds.X) == ds.y) >= 0.95

    def test_zero_epochs_returns_init(self):
        ds = blobs(5, seed=4)
        m0 = train_mlp(ds, m=4, epochs=0, seed=9)
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(m0.hidden_weights, rng.uniform(-0.5, 0.5, size=(4, 2)))

    def test_seed_determinism(self):
        ds = blobs(10, seed=6)
        m1 = train_mlp(ds, m=3, epochs=50, learning_rate=1.0, seed=42)
        m2 = train_mlp(ds, m=3, epochs=50, learning_rate=1.0, seed=42)
        np.testing.assert_array_equal(m1.hidden_weights, m2.hidden_weights)
        np.testing.assert_array_equal(m1.output_weights, m2.output_weights)
        assert m1.output_bias == m2.output_bias

    def test_loss_decreases(self):
        ds = blobs(20, sep=3.0, seed=8)
        init = train_mlp(ds, m=3, epochs=0, seed=1)
        trained = train_mlp(ds, m=3, epochs=300, learning_rate=1.0, seed=1)

        def loss(model):
            t = (ds.y + 1) / 2
            g = model.discriminant_many(ds.X)
            return -np.mean(t * np.log(g) + (1 - t) * np.log(1 - g))

        assert loss(trained) <= loss(init)

    def test_divergence_reports_epoch(self):
        ds = blobs(10, sep=2.0, seed=3)
        with pytest.raises(RuntimeError, match="epoch"):
            train_mlp(ds, m=3, epochs=5, learning_rate=1e308, seed=0)

    def test_constant_network_half(self):
        m = MlpModel(
            hidden_weights=np.ones((3, 2)),
            hidden_biases=np.zeros(3),
            output_weights=np.zeros(3),
            output_bias=0.0,
        )
        for x in (np.zeros(2), np.array([5.0, -3.0])):
            assert m.discriminant(x) == 0.5
            np.testing.assert_allclose(m.gradient(x), 0.0)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            m = MlpModel(
                hidden_weights=rng.normal(size=(4, 3)),
                hidden_biases=rng.normal(size=4),
                output_weights=rng.normal(size=4),
                output_bias=float(rng.normal()),
            )
            g = m.discriminant(rng.normal(size=3) * 3)
            assert 0.0 < g < 1.0


def reference_sigmoid(z):
    """`_sigmoid` before it took the max(e, z >= 0) numerator, verbatim."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def reference_train_mlp(train, m, epochs=2000, learning_rate=1.0, seed=0):
    """`train_mlp` before its epoch loop worked in place, verbatim, as its oracle."""
    rng = np.random.default_rng(seed)
    d = train.dim
    V = rng.uniform(-0.5, 0.5, size=(m, d))
    bk = rng.uniform(-0.5, 0.5, size=m)
    w = rng.uniform(-0.5, 0.5, size=m)
    b = float(rng.uniform(-0.5, 0.5))
    X = train.X
    t = (train.y + 1.0) / 2.0
    n = train.n
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            H = reference_sigmoid(X @ V.T + bk)      # (n, m)
            z = H @ w + b                    # output logits
            # stable logistic loss: softplus(z) - t z
            loss = float(np.mean(np.logaddexp(0.0, z) - t * z))
        if not np.isfinite(loss):
            raise RuntimeError(f"MLP training diverged (non-finite loss at epoch {epoch})")
        dz = (reference_sigmoid(z) - t) / n           # (n,)
        gw = H.T @ dz
        gb = float(dz.sum())
        dH = np.outer(dz, w) * H * (1.0 - H)
        gV = dH.T @ X
        gbk = dH.sum(axis=0)
        w -= learning_rate * gw
        b -= learning_rate * gb
        V -= learning_rate * gV
        bk -= learning_rate * gbk
    return MlpModel(hidden_weights=V, hidden_biases=bk, output_weights=w, output_bias=b)


def mlp_bytes(model: MlpModel) -> tuple:
    return tuple(
        np.asarray(a, dtype=float).tobytes()
        for a in (model.hidden_weights, model.hidden_biases, model.output_weights, model.output_bias)
    )


def pdf_rows(n, seed=0):
    """n rows (both classes) of the capped synthetic PDF counts the benchmarks use."""
    ds = cap_features(synthetic_pdf_dataset(n_legit=250, n_malicious=250, dim=100, seed=seed), 100.0)
    return ds.subset(np.random.default_rng(seed).permutation(ds.n)[:n])


class TestTrainMlpMatchesReference:
    """train_mlp's in-place epoch must give the allocating loop's weights bit for bit."""

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("pdf_n", [None, 100, 500])   # None: 2-D blobs
    @pytest.mark.parametrize("epochs", [0, 60])
    def test_weights_byte_equal(self, m, pdf_n, epochs):
        ds = blobs(20, sep=2.0, seed=m) if pdf_n is None else pdf_rows(pdf_n, seed=m)
        got = train_mlp(ds, m=m, epochs=epochs, learning_rate=1.0, seed=m)
        want = reference_train_mlp(ds, m=m, epochs=epochs, learning_rate=1.0, seed=m)
        assert mlp_bytes(got) == mlp_bytes(want)

    @pytest.mark.parametrize("m", [1, 3, 10])
    def test_saturating_run_byte_equal(self, m):
        # raw counts up to 100 at learning rate 10 saturate the hidden units
        ds = pdf_rows(100, seed=11)
        got = train_mlp(ds, m=m, epochs=300, learning_rate=10.0, seed=5)
        want = reference_train_mlp(ds, m=m, epochs=300, learning_rate=10.0, seed=5)
        assert mlp_bytes(got) == mlp_bytes(want)
        H = reference_sigmoid(ds.X @ want.hidden_weights.T + want.hidden_biases)
        assert np.mean(H * (1.0 - H) < 1e-6) > 0.5

    def test_diverging_fits_raise_at_the_same_epoch(self):
        ds = blobs(10, sep=2.0, seed=3)
        epochs_seen = set()
        for m, learning_rate, seed in [(1, 4e307, 0), (1, 4e307, 2), (1, 4e307, 1), (1, 4e307, 7),
                                       (3, 4e307, 2), (3, 1e308, 0), (1, 1.7e308, 5)]:
            with pytest.raises(RuntimeError, match="epoch") as want:
                reference_train_mlp(ds, m=m, epochs=30, learning_rate=learning_rate, seed=seed)
            with pytest.raises(RuntimeError, match="epoch") as got:
                train_mlp(ds, m=m, epochs=30, learning_rate=learning_rate, seed=seed)
            assert str(got.value) == str(want.value)
            epochs_seen.add(str(want.value))
        assert len(epochs_seen) >= 4

    def test_logits_past_the_check_bound_with_a_finite_loss(self):
        # after one epoch at learning rate 1e200 the logits pass the bound
        # above which the loss is evaluated, and the loss is still finite
        ds = blobs(10, sep=2.0, seed=3)
        one = reference_train_mlp(ds, m=3, epochs=1, learning_rate=1e200, seed=0)
        z = reference_sigmoid(ds.X @ one.hidden_weights.T + one.hidden_biases) @ one.output_weights + one.output_bias
        t = (ds.y + 1.0) / 2.0
        assert np.abs(z).max() >= models_module._LOSS_CHECK_BOUND
        assert np.isfinite(np.mean(np.logaddexp(0.0, z) - t * z))
        got = train_mlp(ds, m=3, epochs=6, learning_rate=1e200, seed=0)
        want = reference_train_mlp(ds, m=3, epochs=6, learning_rate=1e200, seed=0)
        assert mlp_bytes(got) == mlp_bytes(want)


class TestDiscriminantGradients:
    def test_linear_gradient_constant(self):
        m = LinearModel(np.array([2.0, 1.0]), 0.5)
        assert m.discriminant(np.array([1.0, 1.0])) == 3.5
        np.testing.assert_array_equal(m.gradient(np.array([7.0, -2.0])), [2.0, 1.0])

    def test_all_families_match_finite_differences(self):
        rng = np.random.default_rng(21)
        d = 4
        models = []
        for _ in range(8):
            models.append(LinearModel(rng.normal(size=d), float(rng.normal())))
            sv = rng.normal(size=(6, d))
            raw = rng.uniform(0.1, 0.9, size=6)
            coefs = raw - raw.mean()  # sums to zero, |coef| < 1
            models.append(SvmModel(KernelSpec("rbf", gamma=float(rng.uniform(0.2, 1.5))), sv, coefs, 0.0, C=1.0))
            models.append(SvmModel(KernelSpec("polynomial", degree=3, coef0=1.0), sv, coefs, 0.1, C=1.0))
            models.append(
                MlpModel(rng.normal(size=(3, d)), rng.normal(size=3), rng.normal(size=3), float(rng.normal()))
            )
        for model in models:
            for _ in range(4):
                x = rng.normal(size=d)
                numeric = central_diff(model.discriminant, x)
                assert_grad_close(model.gradient(x), numeric)


class TwoPassSvm(SvmModel):
    """SvmModel scored with two independent kernel passes, one for g and one
    for its gradient: the oracle for the memoised single pass."""

    def discriminant(self, x):
        x, k, basis = np.asarray(x, float), self.kernel, self.support_vectors
        if k.kind == "linear":
            row = basis @ x
        elif k.kind == "rbf":
            diff = basis - x
            row = np.exp(-k.gamma * np.einsum("ij,ij->i", diff, diff))
        else:
            row = (basis @ x + k.coef0) ** k.degree
        return float(self.dual_coefs @ row + self.b)

    def gradient(self, x):
        x, k, basis, coefs = np.asarray(x, float), self.kernel, self.support_vectors, self.dual_coefs
        if k.kind == "linear":
            return coefs @ basis
        if k.kind == "rbf":
            diff = x[None, :] - basis
            w = coefs * np.exp(-k.gamma * np.einsum("ij,ij->i", diff, diff))
            return -2.0 * k.gamma * (w @ diff)
        w = coefs * k.degree * (basis @ x + k.coef0) ** (k.degree - 1)
        return w @ basis


def two_pass_copy(model: SvmModel) -> TwoPassSvm:
    return TwoPassSvm(**{f.name: getattr(model, f.name) for f in fields(SvmModel)})


SVM_KERNELS = [KernelSpec("linear"), KernelSpec("rbf", gamma=0.3), KernelSpec("polynomial", degree=3, coef0=1.0)]


class TestKernelPassMemo:
    @pytest.mark.parametrize("kernel", SVM_KERNELS, ids=lambda k: k.kind)
    def test_values_follow_the_query_contents(self, kernel):
        rng = np.random.default_rng(17)
        sv = rng.normal(size=(12, 5))
        raw = rng.uniform(0.1, 1.0, size=12)
        args = (kernel, sv, raw - raw.mean(), 0.3, 2.0)
        model = SvmModel(*args)
        a, b = rng.normal(size=5), rng.normal(size=5)

        def check(x, grad_first):
            fresh, two_pass = SvmModel(*args), two_pass_copy(model)
            if grad_first:
                grad, g = model.gradient(x), model.discriminant(x)
            else:
                g, grad = model.discriminant(x), model.gradient(x)
            assert g == fresh.discriminant(x) == two_pass.discriminant(x)
            assert grad.tobytes() == fresh.gradient(x).tobytes() == two_pass.gradient(x).tobytes()

        check(a, False)
        a[2] += 0.5  # same array object, new contents
        check(a, True)
        for x, grad_first in ((b, False), (a, False), (b, True), (a, True), (a, False)):
            check(x, grad_first)

    def test_one_rbf_pass_per_distinct_point(self, monkeypatch):
        # lambda = 0 continuous descent: g at every candidate, then the
        # gradient at the accepted one, which is the point scored just before
        passes, queried = [], set()
        for name in ("rbf_row_and_diff", "kernel_row", "kernel_grad_combination"):
            original = getattr(models_module, name, None)

            def counted(*args, _original=original, **kwargs):
                passes.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(models_module, name, counted, raising=False)
        for name in ("objective_F", "objective_grad"):
            original = getattr(attack_module, name)

            def recorded(model, spec, x, _original=original):
                queried.add(np.asarray(x, float).tobytes())
                return _original(model, spec, x)

            monkeypatch.setattr(attack_module, name, recorded)
        rng = np.random.default_rng(19)
        sv = rng.normal(size=(10, 4))
        raw = rng.uniform(0.1, 1.0, size=10)
        model = SvmModel(KernelSpec("rbf", gamma=0.4), sv, raw - raw.mean(), 0.5, C=2.0)
        spec = AttackSpec(distance=DistanceSpec("l2"), d_max=3.0, step_t=0.1,
                          bounds=FeatureBounds(-np.inf, np.inf), max_iters=40)
        tr = evade_continuous(model, spec, sv[0] + 0.1)
        assert tr.iterations >= 5
        assert len(passes) == len(queried) >= tr.iterations + 1


class TestPredict:
    def test_sign_and_tie(self):
        m = LinearModel(np.array([1.0]), 0.0)
        # rows 3.0 and -0.5 fall on either side; 0.0 is a tie, which goes to +1
        np.testing.assert_array_equal(predict(m, np.array([[3.0], [-0.5], [0.0]])), [1, -1, 1])

    def test_offset_convention(self):
        m = MlpModel(np.zeros((2, 1)), np.zeros(2), np.zeros(2), -0.4)
        # g = sigmoid(-0.4) ~ 0.401 < 0.5 -> legitimate under the MLP offset
        assert predict(m, np.zeros((1, 1)))[0] == -1
        assert predict(replace(m, decision_offset=0.0), np.zeros((1, 1)))[0] == 1


class TestModelIO:
    def test_linear_round_trip(self, tmp_path):
        m = LinearModel(np.array([0.1, -0.25, 3.0]), 1.75, decision_offset=0.5)
        p = tmp_path / "m.json"
        save_model(m, p)
        m2 = load_model(p)
        np.testing.assert_array_equal(m.w, m2.w)
        assert m.b == m2.b and m.decision_offset == m2.decision_offset

    def test_svm_round_trip_probe_oracle(self, tmp_path):
        rng = np.random.default_rng(3)
        sv = rng.normal(size=(50, 5))
        raw = rng.uniform(0.0, 1.0, size=50)
        coefs = raw - raw.mean()
        m = SvmModel(KernelSpec("rbf", gamma=0.37), sv, coefs, -0.2, C=2.0)
        p = tmp_path / "svm.json"
        save_model(m, p)
        m2 = load_model(p)
        for _ in range(20):
            x = rng.normal(size=5)
            assert abs(m.discriminant(x) - m2.discriminant(x)) < 1e-12

    def test_mlp_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = MlpModel(rng.normal(size=(3, 2)), rng.normal(size=3), rng.normal(size=3), 0.5)
        p = tmp_path / "mlp.json"
        save_model(m, p)
        m2 = load_model(p)
        for _ in range(20):
            x = rng.normal(size=2)
            assert abs(m.discriminant(x) - m2.discriminant(x)) < 1e-12

    def test_version_mismatch(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format_version": "gradevade-model/99", "kind": "linear"}\n')
        with pytest.raises(ValueError, match="version"):
            load_model(p)

    def test_missing_or_unknown_field_is_a_value_error(self, tmp_path):
        p = tmp_path / "m.json"
        save_model(SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.zeros(2), 0.0, C=1.0), p)
        good = p.read_text()
        for bad in (good.replace('"b": 0.0, ', ""), good.replace('"gamma"', '"gama"')):
            p.write_text(bad)
            with pytest.raises(ValueError, match="malformed svm model"):
                load_model(p)

    def test_corrupted_payload(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="corrupted"):
            load_model(p)
