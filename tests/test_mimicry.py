import numpy as np
import pytest

from gradevade.mimicry import GRAD_FORMS, KDE_KERNELS, KdeParams, MimicryEstimator

from test_models import assert_grad_close, central_diff, count_memo_steps, descent_queries, expected_steps, patch_bound


class TestDensity:
    def test_single_reference_laplacian_closed_form(self):
        est = MimicryEstimator(np.zeros((1, 2)), h=1.0, kernel_kind="laplacian")
        assert abs(est.density(np.array([1.0, 0.0])) - np.exp(-1.0)) < 1e-15
        # the corrected gradient: sign(x - x_i), not x - x_i itself
        pts = np.array([[2.0, -1.0]])
        est = MimicryEstimator(pts, h=1.0)
        x = np.zeros(2)
        np.testing.assert_allclose(est.density_grad(x), -np.exp(-3.0) * np.sign(x - pts[0]))

    def test_zero_distance_is_one(self):
        est = MimicryEstimator(np.array([[2.0, -1.0]]), h=3.0)
        assert est.density(np.array([2.0, -1.0])) == 1.0

    def test_truncation_equals_full_sum(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 3))
        x = rng.normal(size=3)
        full = MimicryEstimator(pts, h=2.0, truncation_k=100)
        # untruncated oracle: direct mean over all points
        oracle = np.mean(np.exp(-np.abs(x - pts).sum(axis=1) / 2.0))
        assert abs(full.density(x) - oracle) < 1e-12
        over = MimicryEstimator(pts, h=2.0, truncation_k=500)
        assert abs(over.density(x) - oracle) < 1e-12

    def test_truncation_keeps_nearest(self):
        pts = np.array([[0.0], [1.0], [100.0]])
        est = MimicryEstimator(pts, h=1.0, kernel_kind="laplacian", truncation_k=2)
        x = np.array([0.5])
        expected = np.mean(np.exp(-np.array([0.5, 0.5])))
        assert abs(est.density(x) - expected) < 1e-12

    def test_density_bounds(self):
        rng = np.random.default_rng(1)
        est = MimicryEstimator(rng.normal(size=(30, 4)), h=1.5, truncation_k=10)
        for _ in range(50):
            v = est.density(rng.normal(size=4) * 2)
            assert 0.0 < v <= 1.0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3))
        shift = rng.normal(size=3) * 5
        a = MimicryEstimator(pts, h=2.0, truncation_k=7)
        b = MimicryEstimator(pts + shift, h=2.0, truncation_k=7)
        for _ in range(10):
            x = rng.normal(size=3)
            assert abs(a.density(x) - b.density(x + shift)) < 1e-12

    def test_dimension_mismatch(self):
        est = MimicryEstimator(np.zeros((2, 3)), h=1.0)
        with pytest.raises(ValueError, match="dimension"):
            est.density(np.zeros(2))


class TestDensityGrad:
    def test_zero_at_sole_reference_point(self):
        est = MimicryEstimator(np.array([[1.0, 2.0]]), h=1.0)
        np.testing.assert_allclose(est.density_grad(np.array([1.0, 2.0])), 0.0)

    def test_laplacian_matches_finite_differences_off_kinks(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(5, 3))
        est = MimicryEstimator(pts, h=1.3, kernel_kind="laplacian", truncation_k=5)
        for _ in range(20):
            x = rng.normal(size=3)  # coordinate ties have probability zero
            assert_grad_close(est.density_grad(x), central_diff(est.density, x))

    def test_symmetric_pair_cancels(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        est = MimicryEstimator(pts, h=1.0)
        g = est.density_grad(np.array([0.0, 0.0]))
        assert abs(g[0]) < 1e-15

    def test_sign_zero_at_kink(self):
        pts = np.array([[1.0, 5.0]])
        est = MimicryEstimator(pts, h=1.0, kernel_kind="laplacian")
        g = est.density_grad(np.array([1.0, 0.0]))  # first coordinate sits on the kink
        assert g[0] == 0.0


class TestNeighborMemo:
    @pytest.mark.parametrize("kind", KDE_KERNELS)
    @pytest.mark.parametrize("form", GRAD_FORMS)
    def test_values_follow_the_query_contents(self, kind, form):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 6, size=(40, 4)).astype(float)
        settings = dict(h=3.0, kernel_kind=kind, truncation_k=10, grad_form=form)
        est = MimicryEstimator(pts, **settings)
        a = rng.integers(0, 6, size=4).astype(float)
        b = rng.integers(0, 6, size=4).astype(float)

        def check(x, grad_first):
            fresh = MimicryEstimator(pts, **settings)
            if grad_first:
                g, dens = est.density_grad(x), est.density(x)
            else:
                dens, g = est.density(x), est.density_grad(x)
            assert dens == fresh.density(x)
            assert g.tobytes() == fresh.density_grad(x).tobytes()

        check(a, False)
        a[1] += 1.0  # same array object, new contents
        check(a, True)
        for x, grad_first in ((b, False), (a, False), (b, True), (a, True)):
            check(x, grad_first)


def reference_density_and_grad(est: MimicryEstimator, x: np.ndarray):
    """Density and gradient from a full neighbour search, with np.mean: the
    estimator's formulas without any kept state."""
    diffs = x[None, :] - est.reference_points
    dists = np.abs(diffs).sum(axis=1)
    k = min(est.truncation_k, len(est.reference_points))
    if k < len(dists):
        sel = np.argpartition(dists, k - 1)[:k]
        diffs, dists = diffs[sel], dists[sel]
    w = np.exp(-dists / est.h)
    grad = (-1.0 / (len(dists) * est.h)) * (w @ np.sign(diffs))
    return float(np.mean(w)), grad


class TestNeighborPatch:
    """The kept search, patched for one-coordinate steps, against fresh searches."""

    def check_against_fresh(self, est, settings, x, grad_first):
        fresh = MimicryEstimator(est.reference_points, **settings)
        if grad_first:
            g, dens = est.density_grad(x), est.density(x)
        else:
            dens, g = est.density(x), est.density_grad(x)
        ref_dens, ref_g = reference_density_and_grad(est, x)
        assert dens == fresh.density(x) == ref_dens
        assert g.tobytes() == fresh.density_grad(x).tobytes() == ref_g.tobytes()

    @pytest.mark.parametrize("kind", KDE_KERNELS)
    @pytest.mark.parametrize("form", GRAD_FORMS)
    @pytest.mark.parametrize("k", [8, 60])
    def test_integer_walk_is_patched_bit_for_bit(self, monkeypatch, kind, form, k):
        rng = np.random.default_rng(43)
        # few distinct values in few dimensions: many tied distances, so the
        # truncation (k = 8 < N = 40) has to break ties the way a full search does
        pts = rng.integers(0, 3, size=(40, 3)).astype(float)
        settings = dict(h=2.0, kernel_kind=kind, truncation_k=k, grad_form=form)
        est = MimicryEstimator(pts, **settings)
        points = descent_queries(rng, rng.integers(0, 3, size=3).astype(float), 40)
        steps = count_memo_steps(monkeypatch)
        for i, x in enumerate(points):
            self.check_against_fresh(est, settings, x, grad_first=bool(i % 2))
        walk = expected_steps([p for x in points for p in (x, x)])
        assert steps["patch"] == walk["patch"] > 20
        assert steps["full"] == walk["full"] + len(points)
        assert walk["full"] > 1

    @pytest.mark.parametrize("kind", KDE_KERNELS)
    def test_each_fallback_runs_a_full_search(self, monkeypatch, kind):
        d = 3
        bound = patch_bound(d)
        pts = np.random.default_rng(47).integers(0, 4, size=(30, d)).astype(float)
        settings = dict(h=2.0, kernel_kind=kind, truncation_k=10)
        steps = count_memo_steps(monkeypatch)
        for x in ([0.0, 0.0, 0.5], [1.0, 0.0, 1.0], [0.0, 0.0, bound + 1.0]):
            est = MimicryEstimator(pts, **settings)
            est.density(np.zeros(d))
            steps.clear()
            self.check_against_fresh(est, settings, np.array(x), grad_first=False)
            assert steps["patch"] == 0, x
        est = MimicryEstimator(pts, **settings)
        est.density(np.array([0.0, 0.0, bound - 1.0]))
        steps.clear()
        self.check_against_fresh(est, settings, np.array([0.0, 0.0, float(bound)]), grad_first=False)
        assert steps["patch"] == 1
        est = MimicryEstimator(pts + 0.25, **settings)
        steps.clear()
        for x in descent_queries(np.random.default_rng(53), np.zeros(d), 5):
            self.check_against_fresh(est, settings, x, grad_first=False)
        assert steps["patch"] == 0 and steps["full"] > 0


class TestValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(ValueError):
            MimicryEstimator(np.zeros((1, 2)), h=0.0)

    def test_empty_reference(self):
        with pytest.raises(ValueError):
            MimicryEstimator(np.zeros((0, 2)), h=1.0)

    def test_kde_params_build(self):
        params = KdeParams(kernel_kind="laplacian", h=2.0, truncation_k=3, grad_form="corrected")
        est = params.build(np.zeros((5, 2)))
        assert est.kernel_kind == "laplacian" and est.truncation_k == 3
        assert KdeParams.from_estimator(est) == params

    @pytest.mark.parametrize(
        "setting, named",
        [({"kernel_kind": "rbf"}, "unknown KDE kernel 'rbf'"), ({"grad_form": "paper"}, "unknown grad_form 'paper'")],
    )
    def test_kde_params_refuse_the_rbf_kernel_and_the_paper_gradient(self, setting, named):
        with pytest.raises(ValueError, match=named):
            KdeParams(**setting)
        with pytest.raises(ValueError, match=named):
            MimicryEstimator(np.zeros((5, 2)), h=1.0, **setting)
