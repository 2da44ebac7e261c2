import numpy as np
import pytest

from gradevade.mimicry import KdeParams, MimicryEstimator

from test_models import assert_grad_close, central_diff, count_state_passes, patch_bound, step_walk


class TestDensity:
    def test_single_reference_laplacian_closed_form(self):
        est = MimicryEstimator(np.zeros((1, 2)), h=1.0)
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
        est = MimicryEstimator(pts, h=1.0, truncation_k=2)
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
        est = MimicryEstimator(pts, h=1.3, truncation_k=5)
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
        est = MimicryEstimator(pts, h=1.0)
        g = est.density_grad(np.array([1.0, 0.0]))  # first coordinate sits on the kink
        assert g[0] == 0.0


class TestOnePointCalls:
    def test_values_follow_the_query_contents(self):
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 6, size=(40, 4)).astype(float)
        settings = dict(h=3.0, truncation_k=10)
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


class TestNeighborPointState:
    """The KDE point state, patched for +1 moves, against fresh searches."""

    def checker(self, state, settings):
        """check(y, value) for `test_models.step_walk`: a candidate's density,
        or at a point moved to its gradient, against a fresh estimator and a
        full search, bit for bit."""
        fresh = MimicryEstimator(state.est.reference_points, **settings)

        def check(y, value):
            ref_dens, ref_g = reference_density_and_grad(fresh, y)
            if value is not None:
                assert value == fresh.density(y) == ref_dens
            else:
                assert state.grad().tobytes() == fresh.density_grad(y).tobytes() == ref_g.tobytes()

        return check

    @pytest.mark.parametrize("k", [8, 60])
    def test_integer_walk_is_patched_bit_for_bit(self, monkeypatch, k):
        rng = np.random.default_rng(43)
        # few distinct values in few dimensions: many tied distances, so the
        # truncation (k = 8 < N = 40) has to break ties the way a full search does
        pts = rng.integers(0, 3, size=(40, 3)).astype(float)
        settings = dict(h=2.0, truncation_k=k)
        state = MimicryEstimator(pts, **settings).point_state(rng.integers(0, 3, size=3).astype(float))
        passes = count_state_passes(monkeypatch)
        step_walk(rng, state, 3, 40, self.checker(state, settings))
        assert passes["patch"] > 40 and passes["moved_patch"] == 40
        assert passes["full"] == passes["reset"] == passes["moved_full"] == 0

    def test_each_fallback_runs_a_full_search(self, monkeypatch):
        d = 3
        bound = patch_bound(d)
        pts = np.random.default_rng(47).integers(0, 4, size=(30, d)).astype(float)
        settings = dict(h=2.0, truncation_k=10)
        passes = count_state_passes(monkeypatch)
        # a start off the integers, or reference points off them: full searches only
        for ref, x0 in ((pts, np.array([0.0, 0.0, 0.5])), (pts + 0.25, np.zeros(d))):
            state = MimicryEstimator(ref, **settings).point_state(x0)
            passes.clear()
            step_walk(np.random.default_rng(53), state, d, 5, self.checker(state, settings))
            assert passes["patch"] == 0 and passes["full"] > 5
        # a +1 move past the bound is a full search; one up to the bound is patched
        for start, patched in ((bound, False), (bound - 1.0, True)):
            state = MimicryEstimator(pts, **settings).point_state(np.array([0.0, 0.0, float(start)]))
            passes.clear()
            y = np.array([0.0, 0.0, start + 1.0])
            assert state.try_step(2) == reference_density_and_grad(state.est, y)[0]
            assert passes["patch"] == patched and passes["full"] == (not patched)
        # a candidate two coordinates away is a full search; from the exact
        # point it reaches, +1 moves are patched again
        state = MimicryEstimator(pts, **settings).point_state(np.zeros(d))
        passes.clear()
        state.try_point(np.array([1.0, 0.0, 1.0]))
        state.accept()
        step_walk(np.random.default_rng(59), state, d, 3, self.checker(state, settings))
        assert passes["full"] == 1 and passes["patch"] >= 3

    def test_negative_zero_start_is_patched_bit_for_bit(self, monkeypatch):
        # x0 - x_i is -0.0 where x0 has -0.0 and x_i has +0.0: a +1 move there
        # still adds |1| - |-0.0| = +1 to the Manhattan distance
        rng = np.random.default_rng(61)
        pts = rng.integers(0, 3, size=(40, 3)).astype(float)
        pts[::2, 0] = 0.0
        settings = dict(h=2.0, truncation_k=8)
        x0 = np.array([-0.0, 1.0, -0.0])
        assert np.signbit(x0[0]) and not np.signbit(pts[::2, 0]).any()
        state = MimicryEstimator(pts, **settings).point_state(x0)
        check = self.checker(state, settings)
        passes = count_state_passes(monkeypatch)
        for j in (0, 2):
            y = x0.copy()
            y[j] += 1.0
            check(y, state.try_step(j))
        state.accept()
        check(y, None)
        step_walk(rng, state, 3, 10, check)
        assert passes["patch"] >= 12 and passes["full"] == 0

    def test_one_point_calls_between_a_try_and_its_accept_leave_the_state(self):
        # a one-point call makes its own x - x_i, and leaves the state's as they are
        rng = np.random.default_rng(67)
        pts = rng.integers(0, 4, size=(30, 3)).astype(float)
        settings = dict(h=2.0, truncation_k=10)
        est = MimicryEstimator(pts, **settings)
        state = est.point_state(np.zeros(3))
        check = self.checker(state, settings)
        other = np.array([3.0, 0.5, 2.0])
        for y in (np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.25, 2.0]), np.array([2.0, 1.0, 2.0])):
            check(y, state.try_point(y))
            est.density_grad(other)
            state.accept()
            check(y, None)
            check(y + np.eye(3)[1], state.try_step(1))
            est.density(other)
            state.accept()
            check(y + np.eye(3)[1], None)


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
        assert (est.h, est.truncation_k) == (2.0, 3)

    @pytest.mark.parametrize(
        "setting, named",
        [({"kernel_kind": "rbf"}, "unknown KDE kernel 'rbf'"), ({"grad_form": "paper"}, "unknown grad_form 'paper'")],
    )
    def test_kde_params_refuse_the_rbf_kernel_and_the_paper_gradient(self, setting, named):
        with pytest.raises(ValueError, match=named):
            KdeParams(**setting)
