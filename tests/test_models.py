import json
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import gradevade.attack as attack_module
import gradevade.kernels as kernels_module
import gradevade.models as models_module
from gradevade.attack import AttackSpec, DistanceSpec, evade_continuous, evade_discrete
from gradevade.data import Dataset, FeatureBounds, cap_features, synthetic_pdf_dataset
from gradevade.kernels import KernelSpec, kernel_grad_combination, kernel_matrix, kernel_row
from gradevade.mimicry import MimicryEstimator
from gradevade.models import (
    LinearModel,
    MlpModel,
    ModelSpec,
    SvmModel,
    _sigmoid,
    _smo_solve,
    evading,
    load_model,
    predict,
    save_model,
    train_from_spec,
    train_kernel_svm,
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


def rbf_sum(k, x, basis, coefs):
    """sum_i coefs[i] k(x, basis[i]) and its gradient, through the row and
    gradient routines, from distances built here."""
    x = np.asarray(x, float)
    diffs = x - basis
    row = kernel_row(k, np.einsum("ij,ij->i", diffs, diffs))
    return float(coefs @ row), kernel_grad_combination(k, row, coefs, x, basis, diffs)


class TestKernels:
    def test_rbf_at_same_point(self):
        k = KernelSpec("rbf", gamma=0.7)
        x = np.array([1.0, -2.0])
        value, grad = rbf_sum(k, x, x[None, :], np.ones(1))
        assert value == 1.0
        np.testing.assert_allclose(grad, [0.0, 0.0])
        assert kernel_matrix(k, x[None, :], x[None, :]).tolist() == [[1.0]]

    def test_linear_hand_values(self):
        K = kernel_matrix(KernelSpec("linear"), np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([[3.0, 4.0]]))
        assert K.tolist() == [[11.0], [-4.0]]

    def test_dimension_mismatch(self):
        for kind in ("linear", "rbf"):
            with pytest.raises(ValueError, match="dimension"):
                kernel_matrix(KernelSpec(kind), np.zeros((1, 2)), np.zeros((1, 3)))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = KernelSpec("rbf", gamma=float(rng.uniform(0.1, 2.0)))
            basis = rng.normal(size=(int(rng.integers(1, 6)), 4))
            coefs = rng.normal(size=len(basis))
            x = rng.normal(size=4)
            value, grad = rbf_sum(k, x, basis, coefs)
            assert_grad_close(grad, central_diff(lambda v: rbf_sum(k, v, basis, coefs)[0], x), rel=1e-6)
            # without the differences, the gradient is summed from the expansion
            row = kernel_row(k, np.einsum("ij,ij->i", x - basis, x - basis))
            expanded = kernel_grad_combination(k, row, coefs, x, basis)
            np.testing.assert_allclose(expanded, grad, rtol=1e-12, atol=1e-12 * np.abs(coefs).sum())
            # the row is the Gram matrix row of x, up to rounding
            np.testing.assert_allclose(value, kernel_matrix(k, x[None, :], basis)[0] @ coefs, rtol=1e-12, atol=1e-12)


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
        m = train_kernel_svm(ds, KernelSpec("linear"), C=1000.0)
        assert abs(m.w[0] - 1.0) < 1e-6
        assert abs(m.b) < 1e-6

    def test_duplication_invariance_hard_margin(self):
        # separable data trained past the hard-margin threshold: duplicating
        # every point leaves the solution unchanged (solver property)
        ds = blobs(15, sep=5.0, seed=3)
        dup = Dataset(np.vstack([ds.X, ds.X]), np.concatenate([ds.y, ds.y]))
        m1 = train_kernel_svm(ds, KernelSpec("linear"), C=1000.0, tol=1e-6)
        m2 = train_kernel_svm(dup, KernelSpec("linear"), C=1000.0, tol=1e-6)
        np.testing.assert_allclose(m1.w, m2.w, atol=1e-6)
        assert abs(m1.b - m2.b) < 1e-6

    def test_separable_blobs_perfect_training_accuracy(self):
        ds = blobs(25, sep=6.0, seed=1)
        m = train_from_spec(ModelSpec("linear_svm", C=10.0), ds)
        assert np.all(predict(m, ds.X) == ds.y)

    def test_degenerate_data_rejected(self):
        ds = Dataset(np.ones((4, 2)), np.array([-1, -1, 1, 1]))
        with pytest.raises(ValueError, match="degenerate"):
            train_from_spec(ModelSpec("linear_svm", C=1.0), ds)


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
        # the linear kernel's dual solution comes back folded: w = sum_i alpha_i y_i x_i
        ds = blobs(20, sep=3.0, seed=7)
        lin = train_kernel_svm(ds, KernelSpec("linear"), C=1.0)
        alpha, b, _ = _smo_solve(kernel_matrix(KernelSpec("linear"), ds.X, ds.X), ds.y, 1.0)
        assert isinstance(lin, LinearModel) and 0 < np.count_nonzero(alpha) < ds.n
        np.testing.assert_allclose(lin.w, (alpha * ds.y) @ ds.X, rtol=1e-9, atol=1e-9)
        assert lin.b == b
        assert lin.w.tobytes() == train_from_spec(ModelSpec("linear_svm", C=1.0), ds).w.tobytes()

    def test_svm_model_refuses_a_linear_kernel(self):
        with pytest.raises(ValueError, match="an svm model takes an rbf kernel, not 'linear'"):
            SvmModel(KernelSpec("linear"), np.zeros((2, 1)), np.zeros(2), 0.0, C=1.0)

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


def reference_kernel_matrix(k, A, B):
    """`kernel_matrix` before it built the rbf Gram in place, verbatim, as its oracle."""
    if A.shape[-1] != B.shape[-1]:
        raise ValueError(f"dimension mismatch: {A.shape[-1]} vs {B.shape[-1]}")
    G = A @ B.T
    if k.kind == "linear":
        return G
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * G
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-k.gamma * sq)


def reference_smo_solve(K, y, C, tol=1e-3, max_iter=None):
    """`_smo_solve` before it dropped the y-scaled copy Ky of K, verbatim, as its oracle."""
    n = len(y)
    if max_iter is None:
        max_iter = max(20_000, 400 * n)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    yv = y.astype(float)
    Ky = K * yv[None, :]  # Ky[t, j] = K_tj y_j

    def working_sets():
        return (((yv > 0) & (alpha < C - 1e-12)) | ((yv < 0) & (alpha > 1e-12)),
                ((yv < 0) & (alpha < C - 1e-12)) | ((yv > 0) & (alpha > 1e-12)))

    for _ in range(max_iter):
        viol = -yv * grad
        up, low = working_sets()
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(viol[up])])
        j = int(np.flatnonzero(low)[np.argmin(viol[low])])
        gap = viol[i] - viol[j]
        if gap < tol:
            break
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        t_star = gap / quad if quad > 1e-12 else np.inf
        t_max_i = C - alpha[i] if yv[i] > 0 else alpha[i]
        t_max_j = alpha[j] if yv[j] > 0 else C - alpha[j]
        t = min(t_star, t_max_i, t_max_j)
        if t <= 0:
            break
        d_ai = yv[i] * t
        d_aj = -yv[j] * t
        alpha[i] += d_ai
        alpha[j] += d_aj
        grad += yv * (Ky[:, i] * d_ai + Ky[:, j] * d_aj)

    viol = -yv * grad
    up, low = working_sets()
    m_up = viol[up].max() if up.any() else -np.inf
    m_low = viol[low].min() if low.any() else np.inf
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(viol[free]))
    elif np.isfinite(m_up) and np.isfinite(m_low):
        b = float((m_up + m_low) / 2.0)
    else:
        b = 0.0
    gap = float(m_up - m_low) if np.isfinite(m_up) and np.isfinite(m_low) else 0.0
    return alpha, b, gap


def gram_rows(rng, n, d, integer):
    """n seeded rows of d features: small integer counts, or real values of mixed scale."""
    if integer:
        return rng.integers(0, 12, size=(n, d)).astype(float)
    return rng.normal(size=(n, d)) * rng.choice([0.01, 1.0, 30.0])


class TestGramAndSmoMatchReference:
    """The in-place rbf Gram and the Ky-free SMO step give the allocating forms' bits."""

    # (rows of A, rows of B, d): 1 x 1, one block, blocks that are not a multiple of 64
    SHAPES = [(1, 1, 1), (1, 7, 3), (5, 1, 4), (63, 64, 5), (64, 65, 2), (65, 63, 8), (129, 40, 100), (200, 200, 17)]

    @pytest.mark.parametrize("integer", [True, False])
    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_kernel_matrix_byte_equal(self, integer, kind):
        rng = np.random.default_rng(31 + integer)
        for na, nb, d in self.SHAPES:
            k = KernelSpec(kind, gamma=float(rng.choice([1e-3, 0.05, 1.0, 20.0])))
            A, B = gram_rows(rng, na, d, integer), gram_rows(rng, nb, d, integer)
            for a, b in ((A, B), (A, A), (np.asfortranarray(A), B), (A[:, ::-1], B[:, ::-1])):
                got, want = kernel_matrix(k, a, b), reference_kernel_matrix(k, a, b)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (na, nb, d)

    def test_kernel_matrix_of_the_benchmark_rows_byte_equal(self):
        X = pdf_rows(300, seed=4).X
        for gamma in (0.001, 0.01, 0.1):
            k = KernelSpec("rbf", gamma=gamma)
            assert kernel_matrix(k, X, X).tobytes() == reference_kernel_matrix(k, X, X).tobytes()
            assert kernel_matrix(k, X[:101], X).tobytes() == reference_kernel_matrix(k, X[:101], X).tobytes()

    @staticmethod
    def smo_cases():
        """60 seeded (kernel, X, y, C) problems: linear and rbf, integer and real rows."""
        rng = np.random.default_rng(41)
        for case in range(60):
            kind = ("linear", "rbf")[case % 2]
            integer = case % 4 >= 2
            C = (0.1, 1.0, 100.0)[case % 3]
            n, d = int(rng.integers(2, 70)), int(rng.integers(1, 9))
            X = gram_rows(rng, n, d, integer)
            y = np.where(rng.random(n) < 0.5, -1, 1)
            y[:2] = (-1, 1)
            # shift one class so that some problems separate and some overlap
            X[y > 0] += rng.choice([0.0, 1.0, 4.0])
            yield KernelSpec(kind, gamma=float(rng.choice([0.05, 0.5, 2.0]))), X, y, C

    def test_smo_solve_byte_equal(self):
        outcomes = Counter()
        for case, (k, X, y, C) in enumerate(self.smo_cases()):
            # overlapping linear problems can take 20,000 steps: 1,500 keep the test fast
            got = _smo_solve(kernel_matrix(k, X, X), y, C, max_iter=1500)
            want = reference_smo_solve(reference_kernel_matrix(k, X, X), y, C, max_iter=1500)
            assert got[0].tobytes() == want[0].tobytes(), case
            assert np.array(got[1:]).tobytes() == np.array(want[1:]).tobytes(), case
            alpha = got[0]
            outcomes["at_C"] += bool(np.any(alpha >= C - 1e-8))
            outcomes["free"] += bool(np.any((alpha > 1e-8) & (alpha < C - 1e-8)))
        # the cases reach both bounded and free multipliers
        assert outcomes["at_C"] > 0 and outcomes["free"] > 0

    def test_step_cap_can_leave_the_gap_above_tol(self):
        # case 26: 39 one-dimensional integer rows with heavy class overlap, a
        # linear kernel and C = 100; its gap still reads 4.57 after the default
        # 20,000 steps, and falls below tol only by 100,000
        k, X, y, C = list(self.smo_cases())[26]
        assert (k.kind, X.shape, C) == ("linear", (39, 1), 100.0)
        K = kernel_matrix(k, X, X)
        _, _, gap = _smo_solve(K, y, C)
        assert gap > 1.0
        assert _smo_solve(K, y, C, max_iter=100_000)[2] < 1e-3


class TestSvmTrainingMemory:
    """tracemalloc peaks at n = 400: one n x n float64 array, plus small blocks."""

    N = 400
    NN = N * N * 8  # bytes of one n x n float64 array

    @staticmethod
    def traced_peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_rbf_gram_allocates_its_output_plus_half_an_n_by_n(self):
        X = np.random.default_rng(0).normal(size=(self.N, 10))
        K, peak = self.traced_peak(lambda: kernel_matrix(KernelSpec("rbf", gamma=0.1), X, X))
        assert K.nbytes == self.NN
        assert peak <= K.nbytes + 0.5 * self.NN

    def test_svm_training_peaks_at_one_and_a_half_n_by_n(self):
        ds = blobs(self.N // 2, sep=2.0, seed=9, d=10)
        model, peak = self.traced_peak(lambda: train_kernel_svm(ds, KernelSpec("rbf", gamma=0.1), C=1.0))
        assert isinstance(model, SvmModel)
        assert peak <= 1.5 * self.NN


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

    def test_a_network_its_training_rows_overflow_is_refused(self):
        # on counts up to 100, one epoch at rate 1e308 leaves a finite loss but
        # weights so large that the network's hidden pre-activations are not finite
        ds = cap_features(synthetic_pdf_dataset(20, 20, 30, seed=0), 100.0)
        want = reference_train_mlp(ds, m=3, epochs=1, learning_rate=1e308, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(ds.X @ want.hidden_weights.T + want.hidden_biases).all()
        with pytest.raises(RuntimeError, match=r"^MLP training diverged \(non-finite hidden pre-activation after training, epochs=1\)$"):
            train_mlp(ds, m=3, epochs=1, learning_rate=1e308, seed=0)

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
    for its gradient: the oracle for the single pass of the point state."""

    def discriminant(self, x):
        x, k, basis = np.asarray(x, float), self.kernel, self.support_vectors
        diff = basis - x
        row = np.exp(-k.gamma * np.einsum("ij,ij->i", diff, diff))
        return float(self.dual_coefs @ row + self.b)

    def gradient(self, x):
        x, k, basis, coefs = np.asarray(x, float), self.kernel, self.support_vectors, self.dual_coefs
        diff = x[None, :] - basis
        w = coefs * np.exp(-k.gamma * np.einsum("ij,ij->i", diff, diff))
        return -2.0 * k.gamma * (w @ diff)


def two_pass_copy(model: SvmModel) -> TwoPassSvm:
    return TwoPassSvm(**{f.name: getattr(model, f.name) for f in fields(SvmModel)})


def assert_near_two_pass(model: SvmModel, x, g, grad, rel=1e-12):
    """g and grad at x, from the expansion |x|^2 + |sv|^2 - 2 sv.x, against
    the two-pass oracle, which sums over x - sv: each within `rel` of the
    sum of the magnitudes of the terms it adds up, and grad also against
    central differences of g."""
    two_pass = two_pass_copy(model)
    diff = np.asarray(x, float) - model.support_vectors
    w = np.abs(model.dual_coefs * np.exp(-model.kernel.gamma * np.einsum("ij,ij->i", diff, diff)))
    assert abs(g - two_pass.discriminant(x)) <= rel * (w.sum() + abs(model.b))
    scale = 2.0 * model.kernel.gamma * (w @ (np.abs(x) + np.abs(model.support_vectors)))
    assert np.all(np.abs(grad - two_pass.gradient(x)) <= rel * scale)
    assert_grad_close(grad, central_diff(two_pass.discriminant, np.asarray(x, float)))


SVM_KERNELS = [KernelSpec("rbf", gamma=0.3)]


class TestKernelPasses:
    @pytest.mark.parametrize("kernel", SVM_KERNELS, ids=lambda k: k.kind)
    def test_values_follow_the_query_contents(self, kernel):
        rng = np.random.default_rng(17)
        sv = rng.normal(size=(12, 5))
        raw = rng.uniform(0.1, 1.0, size=12)
        args = (kernel, sv, raw - raw.mean(), 0.3, 2.0)
        model = SvmModel(*args)
        a, b = rng.normal(size=5), rng.normal(size=5)

        def check(x, grad_first):
            # the queries are off the integers: no exact state, so the
            # two-pass oracle is matched to rounding, and a fresh model bit for bit
            fresh = SvmModel(*args)
            if grad_first:
                grad, g = model.gradient(x), model.discriminant(x)
            else:
                g, grad = model.discriminant(x), model.gradient(x)
            assert g == fresh.discriminant(x)
            assert grad.tobytes() == fresh.gradient(x).tobytes()
            assert_near_two_pass(model, x, g, grad)

        check(a, False)
        a[2] += 0.5  # same array object, new contents
        check(a, True)
        for x, grad_first in ((b, False), (a, False), (b, True), (a, True), (a, False)):
            check(x, grad_first)

    def test_one_rbf_pass_per_candidate_of_a_continuous_descent(self, monkeypatch):
        # lambda = 0 continuous descent: the state's one full pass at x0, then
        # one full pass per candidate, and none again at an accepted one
        passes = count_state_passes(monkeypatch)
        rng = np.random.default_rng(19)
        sv = rng.normal(size=(10, 4))
        raw = rng.uniform(0.1, 1.0, size=10)
        model = SvmModel(KernelSpec("rbf", gamma=0.4), sv, raw - raw.mean(), 0.5, C=2.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=3.0, step_t=0.1,
                          bounds=FeatureBounds(-np.inf, np.inf), max_iters=40)
        tr = evade_continuous(model, spec, sv[0] + 0.1)
        assert tr.iterations >= 5
        # a run that stalls scores a last candidate it does not move to (and
        # records it only if it still improved)
        stalled = tr.termination != "max_iters"
        assert passes["reset"] == passes["stateless"] == 1 and passes["patch"] == 0
        assert passes["full"] == passes["moved_full"] + stalled
        assert tr.iterations - stalled <= passes["moved_full"] <= tr.iterations


    def test_exact_rbf_and_kde_descent_patches_every_move(self, monkeypatch):
        # an exact rbf + KDE discrete run: each state makes one full pass, at
        # x0, and patches every move it accepts; F(x0) is one one-point call each
        passes = count_state_passes(monkeypatch, by_kind=True)
        rng = np.random.default_rng(23)
        sv = rng.integers(0, 6, size=(12, 5)).astype(float)
        coefs = rng.uniform(0.1, 1.0, size=12) * np.where(np.arange(12) < 6, 1.0, -1.0)
        model = SvmModel(KernelSpec("rbf", gamma=0.05), sv, coefs - coefs.mean(), 0.5, C=2.0)
        est = MimicryEstimator(rng.integers(0, 6, size=(20, 5)).astype(float), h=3.0, truncation_k=8)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=12.0, mode="discrete", lam=2.0, mimicry=est,
                          bounds=FeatureBounds(0.0, 20.0, increment_only=True), max_iters=40)
        tr = evade_discrete(model, spec, sv[0])
        assert tr.iterations >= 5
        for kind in ("rbf", "kde"):
            assert passes[("reset", kind)] == passes[("stateless", kind)] == 1, kind
            assert passes[("full", kind)] == passes[("moved_full", kind)] == 0, kind
            assert passes[("moved_patch", kind)] == tr.iterations, kind
            assert passes[("patch", kind)] >= tr.iterations, kind


ONE_POINT_CALLS = {("gradevade.models", "discriminant"), ("gradevade.models", "gradient"),
                   ("gradevade.mimicry", "density"), ("gradevade.mimicry", "density_grad")}


def pass_kind(frame) -> str:
    """The kind of the `Basis.distances` pass that `frame` called: "stateless"
    when a one-point call of an SvmModel or a MimicryEstimator is among the
    calling frames (the state it reads is its own), else by the immediate
    caller, "reset" for a `DistanceState` built at a descent's start and
    "full" for `try_point`."""
    caller = frame.f_code.co_name
    while frame is not None:
        if (frame.f_globals.get("__name__"), frame.f_code.co_name) in ONE_POINT_CALLS:
            return "stateless"
        frame = frame.f_back
    return {"__init__": "reset", "try_point": "full"}[caller]


def count_state_passes(monkeypatch, by_kind: bool = False) -> Counter:
    """Count the passes of every `kernels.Basis` by `pass_kind`: "reset",
    "full" or "stateless" (a one-point call); "patch" (a candidate
    `try_step` scored without a full pass); and the moves `accept` makes,
    "moved_patch" and "moved_full". With `by_kind`, each key is (kind,
    "kde" or "rbf")."""
    counts = Counter()
    distances = kernels_module.Basis.distances
    try_step, accept = kernels_module.DistanceState.try_step, kernels_module.DistanceState.accept

    def key(basis, kind):
        return (kind, "kde" if basis.manhattan else "rbf") if by_kind else kind

    def counted_distances(basis, x):
        counts[key(basis, pass_kind(sys._getframe(1)))] += 1
        return distances(basis, x)

    def counted_try_step(state, j):
        full = counts[key(state.basis, "full")]
        out = try_step(state, j)
        if counts[key(state.basis, "full")] == full:
            counts[key(state.basis, "patch")] += 1
        return out

    def counted_accept(state):
        j = accept(state)
        counts[key(state.basis, "moved_full" if j is None else "moved_patch")] += 1
        return j

    monkeypatch.setattr(kernels_module.Basis, "distances", counted_distances)
    monkeypatch.setattr(kernels_module.DistanceState, "try_step", counted_try_step)
    monkeypatch.setattr(kernels_module.DistanceState, "accept", counted_accept)
    return counts


def step_walk(rng, state, d: int, rounds: int, check):
    """Drive a point state as a discrete descent does: each round scores one
    to three +1 candidates of random features from the state's point x and
    moves to the last. `check(y, value)` sees each candidate y with the
    value the state gave it, and `check(x, None)` each point moved to."""
    x = state.x.copy()
    check(x, None)
    for _ in range(rounds):
        for _ in range(rng.integers(1, 4)):
            j = int(rng.integers(d))
            y = x.copy()
            y[j] += 1.0
            check(y, state.try_step(j))
        state.accept()
        x = y
        check(x, None)
    return x


def patch_bound(d: int) -> int:
    """Largest M with d (2M)^2 < 2^53: the point magnitude up to which patches are exact."""
    m = math.isqrt((2**53 - 1) // (4 * d))
    assert d * (2 * m) ** 2 < 2**53 <= d * (2 * m + 2) ** 2
    return m


class TestKernelPointState:
    """The rbf point state, patched for +1 moves, against fresh one-point calls."""

    def model_args(self, sv, gamma=0.05):
        raw = np.random.default_rng(29).uniform(0.1, 1.0, size=len(sv))
        return (KernelSpec("rbf", gamma=gamma), sv, raw - raw.mean(), 0.3, 2.0)

    def checker(self, state, args, exact=True):
        """check(y, value) for `step_walk`: a candidate's value, or at a point
        moved to its gradient, against a fresh model bit for bit, and against
        the two-pass oracle bit for bit where `exact` (an integer point on
        integer support vectors, within the bound), else to rounding."""
        fresh, two_pass = SvmModel(*args), two_pass_copy(SvmModel(*args))

        def check(y, value):
            if value is not None:
                assert value == fresh.discriminant(y)
                if exact:
                    assert value == two_pass.discriminant(y)
                return
            grad = state.grad()
            assert grad.tobytes() == fresh.gradient(y).tobytes()
            assert (state.diffs is not None) == exact  # x - sv is kept in exact states only
            if exact:
                assert grad.tobytes() == two_pass.gradient(y).tobytes()
            else:
                assert_near_two_pass(fresh, y, fresh.discriminant(y), grad)

        return check

    def test_integer_walk_is_patched_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(31)
        args = self.model_args(rng.integers(-4, 9, size=(15, 6)).astype(float))
        state = SvmModel(*args).point_state(rng.integers(0, 5, size=6).astype(float))
        check = self.checker(state, args)
        passes = count_state_passes(monkeypatch)
        step_walk(rng, state, 6, 40, check)
        assert passes["patch"] > 40 and passes["moved_patch"] == 40
        assert passes["full"] == passes["reset"] == passes["moved_full"] == 0

    def test_each_fallback_runs_a_full_pass(self, monkeypatch):
        d = 4
        bound = patch_bound(d)
        sv = np.random.default_rng(37).integers(0, 6, size=(9, d)).astype(float)
        args = self.model_args(sv)
        passes = count_state_passes(monkeypatch)
        # a start off the integers: every candidate is a full pass
        state = SvmModel(*args).point_state(np.array([0.0, 0.0, 0.0, 0.5]))
        step_walk(np.random.default_rng(41), state, d, 5, self.checker(state, args, exact=False))
        assert passes["patch"] == 0 and passes["full"] > 5
        # a +1 move past the bound is a full pass, and leaves no exact state;
        # a move up to the bound itself is patched
        for start, patched in ((bound, False), (bound - 1.0, True)):
            state = SvmModel(*args).point_state(np.array([0.0, 0.0, 0.0, float(start)]))
            passes.clear()
            value = state.try_step(3)
            assert value == SvmModel(*args).discriminant(np.array([0.0, 0.0, 0.0, start + 1.0]))
            assert passes["patch"] == patched and passes["full"] == (not patched)
            state.accept()
            assert state.exact == patched
        # a candidate two coordinates away is a full pass, and a +1 move from
        # the exact point reached is patched again
        state = SvmModel(*args).point_state(np.zeros(d))
        passes.clear()
        state.try_point(np.array([1.0, 0.0, 1.0, 0.0]))
        state.accept()
        step_walk(np.random.default_rng(43), state, d, 3, self.checker(state, args))
        assert passes["full"] == 1 and passes["patch"] >= 3
        # of two candidates, an exact one that keeps x - sv and one off the
        # integers, the second is taken: it keeps no x - sv, and reads none
        state = SvmModel(*args).point_state(np.zeros(d))
        state.try_point(np.array([1.0, 0.0, 1.0, 0.0]))
        y = np.array([1.0, 0.0, 1.0, 0.5])
        assert state.try_point(y) == SvmModel(*args).discriminant(y)
        state.accept()
        self.checker(state, args, exact=False)(y, None)
        # a point of the wrong dimension is refused
        with pytest.raises(ValueError, match="dimension mismatch"):
            SvmModel(*args).point_state(np.zeros(d - 1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            SvmModel(*args).discriminant(np.zeros(d - 1))
        # support vectors off the integers, or past the bound, are never patched
        for bad in (sv + 0.25, np.vstack([sv, np.full(d, bound + 1.0)])):
            bad_args = self.model_args(bad)
            state = SvmModel(*bad_args).point_state(np.zeros(d))
            passes.clear()
            step_walk(np.random.default_rng(47), state, d, 5, self.checker(state, bad_args, exact=False))
            assert passes["patch"] == 0 and passes["full"] > 0


@pytest.mark.parametrize("kind", ["rbf", "kde"])
def test_two_live_states_on_one_model_are_independent(kind):
    # each descent owns its distances: two states on one model, or on one
    # estimator, moved in turn, read as fresh one-point calls bit for bit
    rng = np.random.default_rng(71)
    d = 4
    ref = rng.integers(0, 5, size=(20, d)).astype(float)
    if kind == "rbf":
        raw = rng.uniform(0.1, 1.0, size=20)
        make, value, grad = (lambda: SvmModel(KernelSpec("rbf", gamma=0.05), ref, raw - raw.mean(), 0.3, 2.0),
                             "discriminant", "gradient")
    else:
        make, value, grad = lambda: MimicryEstimator(ref, h=2.0, truncation_k=6), "density", "density_grad"
    shared, fresh = make(), make()
    points = [rng.integers(0, 5, size=d).astype(float) for _ in range(2)]
    states = [shared.point_state(x) for x in points]
    for step in range(24):
        for i, state in enumerate(states):
            j = int(rng.integers(d))
            points[i] = y = points[i].copy()
            y[j] += 1.0
            if step % 4 == 3:  # a full pass two coordinates away
                y[(j + 1) % d] += 1.0
                got = state.try_point(y)
            else:
                got = state.try_step(j)
            assert got == getattr(fresh, value)(y)
        for state, x in zip(states, points):
            state.accept()
            assert state.grad().tobytes() == getattr(fresh, grad)(x).tobytes()


class TestExpansionPass:
    """rbf queries outside an exact state: distances from |x|^2 + |sv|^2 -
    2 sv.x and the gradient from (sum_i w_i) x - w @ sv, with no x - sv."""

    def model(self, rng, d=5, gamma=0.7):
        raw = rng.uniform(0.1, 1.0, size=8) * np.where(np.arange(8) % 2 == 0, 1.0, -1.0)
        sv = rng.uniform(-2.0, 2.0, size=(8, d))
        return SvmModel(KernelSpec("rbf", gamma=gamma), sv, raw - raw.mean(), 0.2, C=2.0)

    def test_query_next_to_a_support_vector(self):
        # |x|^2 + |sv|^2 and 2 sv.x agree in all but their last bits there:
        # the expansion's worst cancellation
        rng = np.random.default_rng(47)
        model = self.model(rng)
        for sv in model.support_vectors:
            x = sv + 1e-6 * rng.normal(size=len(sv))
            state = model.point_state(x)
            g, grad = model.discriminant(x), state.grad()
            assert state.diffs is None
            assert grad.tobytes() == model.gradient(x).tobytes()
            assert_near_two_pass(model, x, g, grad)

    def test_far_query_whose_row_underflows_has_an_exact_zero_gradient(self):
        rng = np.random.default_rng(53)
        model = self.model(rng)
        x = np.full(5, 60.5)  # gamma |x - sv|^2 > 745 for every sv: exp underflows to 0
        two_pass = two_pass_copy(model)
        g, grad = model.discriminant(x), model.gradient(x)
        state = model.point_state(x)
        assert state.diffs is None
        assert np.all(state.held == 0.0) and np.all(state.grad() == 0.0)
        assert g == two_pass.discriminant(x) == model.b
        assert np.all(grad == 0.0) and np.all(two_pass.gradient(x) == 0.0)
        assert np.all(central_diff(model.discriminant, x) == 0.0)
        tr = evade_continuous(model, AttackSpec(d_max=5.0, step_t=0.5, bounds=FeatureBounds(-np.inf, np.inf)), x)
        assert (tr.iterations, tr.termination) == (0, "zero_gradient")

    def test_continuous_descent_on_a_non_integer_basis_allocates_no_n_by_d_array(self):
        rng = np.random.default_rng(59)
        n, d = 400, 300
        sv = rng.uniform(0.0, 1.0, size=(n, d))
        raw = rng.uniform(0.1, 1.0, size=n) * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        spec = AttackSpec(d_max=5.0, step_t=0.5, bounds=FeatureBounds(0.0, 1.0), max_iters=10)
        x0 = rng.uniform(0.0, 1.0, size=d)

        def descend():
            model = SvmModel(KernelSpec("rbf", gamma=0.01), sv, raw - raw.mean(), 0.0, C=2.0)
            return evade_continuous(model, spec, x0)

        trace, peak = TestSvmTrainingMemory.traced_peak(descend)
        assert trace.iterations == spec.max_iters
        assert peak < sv.nbytes


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

    def test_a_score_evades_only_below_the_offset_and_nan_never_does(self):
        m = LinearModel(np.array([1.0]), 0.0, decision_offset=0.5)
        scores = np.array([-1.0, 0.5, np.nextafter(0.5, 0.0), np.nan, np.inf, -np.inf])
        np.testing.assert_array_equal(evading(m, scores), [True, False, True, False, False, True])
        # predict labels a row -1 exactly where it evades: a NaN score is malicious
        np.testing.assert_array_equal(predict(m, np.array([[-1.0], [0.5], [np.nan]])), [-1, 1, 1])


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

    def test_rbf_file_with_the_retired_polynomial_keys_loads_bit_for_bit(self, tmp_path):
        # rbf files written while the polynomial kernel existed carry degree and coef0
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.0, 1.0, size=30)
        m = SvmModel(KernelSpec("rbf", gamma=0.29), rng.normal(size=(30, 4)), raw - raw.mean(), 0.3, C=2.0)
        p = tmp_path / "svm.json"
        save_model(m, p, trained_on="ab" * 32)
        doc = json.loads(p.read_text())
        doc["kernel"].update(degree=2, coef0=0.0)
        p.write_text(json.dumps(doc, sort_keys=True) + "\n")
        m2 = load_model(p)
        assert m2.kernel == m.kernel
        X = rng.normal(size=(20, 4))
        assert m2.discriminant_many(X).tobytes() == m.discriminant_many(X).tobytes()
        for x in X:
            assert m2.discriminant(x) == m.discriminant(x)
            assert m2.gradient(x).tobytes() == m.gradient(x).tobytes()

    def test_polynomial_file_is_a_value_error(self, tmp_path):
        # and a linear-kernel file, which an svm model no longer takes either
        p = tmp_path / "svm.json"
        save_model(SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.zeros(2), 0.0, C=1.0), p)
        doc = json.loads(p.read_text())
        for kernel, message in (
            ({"coef0": 1.0, "degree": 2, "gamma": 1.0, "kind": "polynomial"}, "unknown kernel kind 'polynomial'"),
            ({"gamma": 1.0, "kind": "linear"}, "an svm model takes an rbf kernel, not 'linear'"),
        ):
            p.write_text(json.dumps({**doc, "kernel": kernel}))
            with pytest.raises(ValueError) as exc:
                load_model(p)
            assert str(exc.value) == f"{p}: malformed svm model: ValueError: {message}"

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

    @pytest.mark.parametrize(
        "model, field, value, message",
        [
            (LinearModel(np.array([1.0, 2.0]), 0.5), "w", [1.0, float("nan")], "non-finite"),
            (SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.array([0.5, -0.5]), 0.0, C=1.0),
             "dual_coefs", [0.5, -0.25, -0.25], "one dual coefficient per support vector"),
            (SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.array([0.5, -0.5]), 0.0, C=1.0),
             "dual_coefs", [2.0, -2.0], "exceeds the box constraint"),
            (SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.array([0.5, -0.5]), 0.0, C=1.0),
             "dual_coefs", [0.5, -0.25], "sum"),
            (MlpModel(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0), "output_weights", [0.0, 0.0],
             "inconsistent MLP shapes"),
            (MlpModel(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0), "hidden_biases", [0.0, float("inf"), 0.0],
             "non-finite"),
            # field None: the value replaces the whole document
            (LinearModel(np.array([1.0, 2.0]), 0.5), None, [1, 2], "a model file holds a JSON object, not list"),
            (LinearModel(np.array([1.0, 2.0]), 0.5), "kind", ["linear"], r"unknown model kind \['linear'\]"),
        ],
    )
    def test_bad_content_is_a_value_error(self, tmp_path, model, field, value, message):
        p = tmp_path / "m.json"
        save_model(model, p)
        doc = json.loads(p.read_text())
        if field is None:
            doc = value
        else:
            doc[field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as refused:
            load_model(p)
        assert str(refused.value).startswith(f"{p}: ")

    SCALARS = {"linear": (LinearModel(np.array([1.0, 2.0]), 0.5), "b"),
               "svm": (SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.array([0.5, -0.5]), 0.0, C=1.0), "b"),
               "mlp": (MlpModel(np.zeros((3, 2)), np.zeros(3), np.zeros(3), 0.0), "output_bias")}

    @pytest.mark.parametrize("kind", SCALARS)
    @pytest.mark.parametrize("value", [None, "0.5", [1.0], True, float("nan")], ids=repr)
    def test_intercept_that_is_not_a_finite_real_is_a_value_error(self, tmp_path, kind, value):
        # each would load and fail later, in scoring, with a TypeError or a NaN score
        model, field = self.SCALARS[kind]
        p = tmp_path / "m.json"
        save_model(model, p)
        p.write_text(json.dumps({**json.loads(p.read_text()), field: value}))
        with pytest.raises(ValueError) as refused:
            load_model(p)
        assert str(refused.value) == (
            f"{p}: malformed {kind} model: ValueError: {field} must be a finite real number, not {value!r}"
        )

    NON_FINITE = "svm model has non-finite support vectors or dual coefficients"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("support_vectors", [[0.0], [float("inf")]], NON_FINITE),
            ("support_vectors", [[float("nan")], [0.0]], NON_FINITE),
            ("dual_coefs", [float("nan"), 0.5], NON_FINITE),
            ("C", float("inf"), "C must be a finite real number, not inf"),
            ("C", float("nan"), "C must be a finite real number, not nan"),
            ("C", True, "C must be a finite real number, not True"),
            ("C", "1.0", "C must be a finite real number, not '1.0'"),
            ("C", 0.0, "C must be positive"),
            ("C", -1.0, "C must be positive"),
            ("support_vectors", [[], []], "a basis needs at least one feature column"),
        ],
    )
    def test_svm_array_or_box_bound_out_of_range_is_a_value_error(self, tmp_path, field, value, message):
        p = tmp_path / "svm.json"
        save_model(SvmModel(KernelSpec("rbf"), np.zeros((2, 1)), np.zeros(2), 0.0, C=1.0), p)
        p.write_text(json.dumps({**json.loads(p.read_text()), field: value}))
        with pytest.raises(ValueError) as refused:
            load_model(p)
        assert str(refused.value) == f"{p}: malformed svm model: ValueError: {message}"

    def test_corrupted_payload(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValueError, match="corrupted"):
            load_model(p)
