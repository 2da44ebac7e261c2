import math
from dataclasses import replace

import numpy as np
import pytest

import gradevade.attack as attack_module
from gradevade.attack import (
    _FEAS_TOL,
    _ZERO_GRAD_NORM,
    AttackSpec,
    AttackTrace,
    DistanceSpec,
    _start,
    evade_continuous,
    evade_discrete,
    objective_F,
    objective_grad,
    project_feasible,
    project_l1_ball,
    run_attack,
)
from gradevade.data import LEGITIMATE, MALICIOUS, FeatureBounds
from gradevade.evaluation import trace_profile
from gradevade.mimicry import MimicryEstimator
from gradevade.models import LinearModel, MlpModel, SvmModel, predict
from gradevade.kernels import KernelSpec

from test_models import assert_grad_close, assert_near_two_pass, central_diff
from test_scenario import RecordingLinear

FREE = FeatureBounds(lower=-np.inf, upper=np.inf)


def box_of(spec, x0):
    """The box of `spec` around x0, the bounds with lo raised to x0 under
    increment_only, built apart from `_start` and without its check of x0."""
    lo = np.broadcast_to(np.asarray(spec.bounds.lower, float), np.shape(x0))
    hi = np.broadcast_to(np.asarray(spec.bounds.upper, float), np.shape(x0))
    return (np.maximum(lo, x0) if spec.bounds.increment_only else lo), hi


def project(spec, x0, x):
    """`project_feasible` onto the box that `_start` builds for x0."""
    x0, box = _start(spec, x0)
    return project_feasible(spec, x0, x, box)


def is_feasible(spec, x0, x, tol=_FEAS_TOL):
    """Whether x lies in the box of `spec` around x0 and within its budget,
    each to `tol`."""
    lo, hi = box_of(spec, x0)
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        return False
    return spec.distance.of(x, x0) <= spec.d_max + tol


def reference_check_start(spec, x0):
    """The start check of the reference engines: x0 is a feasible point of
    its own budget ball, by `is_feasible`."""
    if not is_feasible(spec, x0, np.asarray(x0, float)):
        raise ValueError("x0 is not feasible under the given bounds")


def spec_l1(d_max, **kw):
    kw.setdefault("bounds", FREE)
    return AttackSpec(distance=DistanceSpec("l1"), d_max=d_max, step_t=kw.pop("step_t", 1.0), **kw)


class TestObjective:
    def test_lambda_zero_is_plain_discriminant(self):
        model = LinearModel(np.array([1.0, -2.0]), 0.3)
        spec = spec_l1(5.0)
        x = np.array([0.5, 0.25])
        assert objective_F(model, spec, x) == model.discriminant(x)
        np.testing.assert_array_equal(objective_grad(model, spec, x), model.w)

    def test_scalar_composition(self):
        # w=(1,0), b=0, one legit reference at origin, laplacian h=1, lam=1
        model = LinearModel(np.array([1.0, 0.0]), 0.0)
        est = MimicryEstimator(np.zeros((1, 2)), h=1.0)
        spec = spec_l1(5.0, lam=1.0, mimicry=est)
        val = objective_F(model, spec, np.array([1.0, 0.0]))
        assert abs(val - (1.0 - np.exp(-1.0))) < 1e-12

    def test_density_increase_lowers_F(self):
        model = LinearModel(np.array([0.0, 0.0]), 1.0)  # constant g
        est = MimicryEstimator(np.zeros((1, 2)), h=1.0)
        spec = spec_l1(5.0, lam=1.0, mimicry=est)
        far = objective_F(model, spec, np.array([3.0, 0.0]))
        near = objective_F(model, spec, np.array([1.0, 0.0]))
        assert near < far

    def test_lambda_without_estimator_rejected_at_use(self):
        model = LinearModel(np.array([1.0]), 0.0)
        spec = spec_l1(5.0, lam=1.0)
        with pytest.raises(ValueError, match="mimicry"):
            objective_F(model, spec, np.array([0.0]))
        with pytest.raises(ValueError, match="mimicry"):
            objective_grad(model, spec, np.array([0.0]))

    def test_grad_matches_finite_differences_mlp_laplacian_kde(self):
        rng = np.random.default_rng(7)
        model = MlpModel(rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=4), 0.1)
        est = MimicryEstimator(rng.normal(size=(10, 3)), h=5.0, truncation_k=10)
        spec = spec_l1(10.0, lam=500.0, mimicry=est)
        for _ in range(20):
            x = rng.normal(size=3)  # off the KDE's kinks: coordinate ties have probability zero
            numeric = central_diff(lambda v: objective_F(model, spec, v), x)
            assert_grad_close(objective_grad(model, spec, x), numeric)

    def test_huge_lambda_dominated_by_density_direction(self):
        rng = np.random.default_rng(8)
        model = LinearModel(rng.normal(size=3) * 0.01, 0.0)
        est = MimicryEstimator(rng.normal(size=(5, 3)), h=2.0, truncation_k=5)
        spec = spec_l1(10.0, lam=1e6, mimicry=est)
        x = est.reference_points.mean(axis=0) + 0.1
        g = objective_grad(model, spec, x)
        dg = -est.density_grad(x)
        cos = (g @ dg) / (np.linalg.norm(g) * np.linalg.norm(dg))
        assert cos >= 0.99


class TestRefusedValues:
    def test_distance_spec_is_l1_only(self):
        assert DistanceSpec().of(np.array([1.0, -2.0]), np.zeros(2)) == 3.0
        with pytest.raises(ValueError, match="unknown distance kind 'l2'"):
            DistanceSpec("l2")

    @pytest.mark.parametrize(
        "settings, named",
        [
            (dict(mode="continuous", step_norm="l2"), "continuous mode takes an l1 step_norm, not 'l2'"),
            (dict(mode="discrete", bounds=FeatureBounds(0.0, 10.0)), "requires bounds.increment_only"),
        ],
    )
    def test_attack_spec_refuses_an_l2_step_and_two_signed_moves(self, settings, named):
        with pytest.raises(ValueError, match=named):
            AttackSpec(d_max=1.0, **settings)
        # discrete mode ignores step_norm, so "l2" still passes there
        inc = FeatureBounds(0.0, 10.0, increment_only=True)
        assert AttackSpec(d_max=1.0, mode="discrete", step_norm="l2", bounds=inc).step_norm == "l2"
        assert AttackSpec(d_max=1.0).step_norm == "l1"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["step_t", "epsilon"])
    def test_attack_spec_refuses_a_step_or_tolerance_that_is_not_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive$"):
            AttackSpec(d_max=1.0, **{name: value})
        assert getattr(AttackSpec(d_max=1.0, **{name: 1e308}), name) == 1e308

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1e-300])
    def test_attack_spec_refuses_a_lam_that_is_not_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="^lam must be nonnegative and finite$"):
            AttackSpec(d_max=1.0, lam=value)
        assert AttackSpec(d_max=1.0, lam=0.0).lam == 0.0 and AttackSpec(d_max=1.0, lam=1e308).lam == 1e308


def brute_force_projection(spec, x0, x, step=1e-3):
    """Full grid search at the given step over the feasible set's lattice.

    Independent of the analytic projection: relies only on the feasibility
    predicate and euclidean distance. The grid is anchored at x0 so box
    edges and the l1-ball facets (all multiples of `step` in the test
    cases) carry exact lattice points.
    """
    lo = np.maximum(np.broadcast_to(np.asarray(spec.bounds.lower, float), x0.shape), x0 - spec.d_max)
    hi = np.minimum(np.broadcast_to(np.asarray(spec.bounds.upper, float), x0.shape), x0 + spec.d_max)
    if spec.bounds.increment_only:
        lo = np.maximum(lo, x0)
    axes = [
        x0[j] + step * np.arange(np.ceil((lo[j] - x0[j]) / step - 1e-9), np.floor((hi[j] - x0[j]) / step + 1e-9) + 1)
        for j in range(len(x0))
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    feas = np.abs(pts - x0).sum(axis=1) <= spec.d_max + 1e-12
    pts = pts[feas]
    d = np.linalg.norm(pts - x, axis=1)
    return pts[int(np.argmin(d))]


def dykstra_projection(spec, x0, x, max_rounds=1000):
    """Dykstra's alternating projections onto the box and the budget ball,
    as `project_feasible` computed them before the capped soft threshold;
    returns the point and whether the loop hit `max_rounds`.

    Kept as a comparison: the exact projection is never farther from x.
    """
    lo, hi = box_of(spec, x0)

    def ball(p):
        return x0 + project_l1_ball(p - x0, spec.d_max)

    boxed = np.clip(x, lo, hi)
    if spec.distance.of(boxed, x0) <= spec.d_max:
        return boxed, False
    balled = ball(x)
    if np.all(balled >= lo) and np.all(balled <= hi):
        return balled, False
    z, p, q = x.copy(), np.zeros_like(x), np.zeros_like(x)
    for _ in range(max_rounds):
        y = np.clip(z + p, lo, hi)
        p = z + p - y
        z_new = ball(y + q)
        q = y + q - z_new
        if float(np.abs(y - z_new).max()) <= 1e-12 and float(np.abs(z_new - z).max()) <= 1e-12:
            return ball(np.clip(z_new, lo, hi)), False
        z = z_new
    return ball(np.clip(z, lo, hi)), True


def bisection_projection(spec, x0, x):
    """Projection onto the budget ball and the box by bisection on theta.

    For a box around x0, each coordinate of the projection minimises
    (u - v)^2 / 2 + theta |u| over its box interval: the soft threshold of
    v = x - x0 by theta, clipped to the box. The l1 norm falls as theta
    grows, so halving [0, max |v|] finds the theta that meets the budget.
    Independent of `project_l1_ball`: no sort, no caps.
    """
    lo, hi = box_of(spec, x0)
    v = x - x0

    def at(theta):
        return np.clip(x0 + np.sign(v) * np.maximum(np.abs(v) - theta, 0.0), lo, hi)

    if spec.distance.of(at(0.0), x0) <= spec.d_max:
        return at(0.0)
    below, above = 0.0, float(np.abs(v).max())
    for _ in range(200):
        mid = 0.5 * (below + above)
        if mid in (below, above):
            break
        if spec.distance.of(at(mid), x0) > spec.d_max:
            below = mid
        else:
            above = mid
    return at(above)


def _random_projection_case(rng):
    """A seeded box around x0 with zero-width and unbounded sides, a budget
    (0 at times) and a point x, often outside the budget."""
    d = int(rng.integers(1, 40))
    x0 = rng.uniform(-1.0, 1.0, size=d)
    lo = x0 - rng.uniform(0.0, 1.0, size=d) * (rng.random(d) < 0.9)
    hi = x0 + rng.uniform(0.0, 1.0, size=d) * (rng.random(d) < 0.9)
    hi[rng.random(d) < 0.1] = np.inf
    spec = AttackSpec(
        distance=DistanceSpec("l1"),
        d_max=float(rng.uniform(0.0, 3.0)) if rng.random() < 0.9 else 0.0,
        bounds=FeatureBounds(lo, hi, increment_only=bool(rng.integers(0, 2))),
    )
    x = x0 + rng.normal(size=d) * rng.uniform(0.1, 3.0)
    return spec, x0, x


class TestL1BallProjection:
    def test_hand_cases(self):
        np.testing.assert_allclose(project_l1_ball(np.array([2.0, 2.0]), 2.0), [1.0, 1.0])
        np.testing.assert_allclose(project_l1_ball(np.array([3.0, 0.0]), 2.0), [2.0, 0.0])

    def test_inside_untouched(self):
        v = np.array([0.25, -0.5])
        np.testing.assert_array_equal(project_l1_ball(v, 2.0), v)

    def test_kkt_soft_threshold_property(self):
        # on the boundary the projection is a soft threshold: all surviving
        # coordinates shrink by the same theta, others vanish
        rng = np.random.default_rng(10)
        for _ in range(100):
            v = rng.normal(size=5) * 3
            r = float(rng.uniform(0.1, np.abs(v).sum()))
            p = project_l1_ball(v, r)
            assert abs(np.abs(p).sum() - r) < 1e-9
            shrink = np.abs(v) - np.abs(p)
            active = np.abs(p) > 1e-12
            if active.any():
                theta = shrink[active]
                assert np.ptp(theta) < 1e-9
                assert np.all(np.abs(v[~active]) <= theta.max() + 1e-9)
            assert np.all(np.sign(p[active]) == np.sign(v[active]))


    def test_radius_below_the_rounding_unit_of_the_largest_entry(self):
        # no kink passes its test in floats here; the first kink's theta
        # clears every coordinate, as bisection on theta does
        for v, radius in (([1e20], 1.0), ([3e16, 1.0], 0.5), ([-1e20, 2.0], 1.0)):
            v = np.array(v)
            p = project_l1_ball(v, radius)
            assert np.abs(p).sum() <= radius
            spec = spec_l1(radius)
            np.testing.assert_array_equal(p, bisection_projection(spec, np.zeros_like(v), v))


class TestProjectFeasible:
    def test_feasible_point_unchanged(self):
        spec = spec_l1(2.0, bounds=FeatureBounds(0.0, 1.0))
        x0 = np.array([0.5, 0.5])
        x = np.array([0.75, 0.25])
        np.testing.assert_allclose(project(spec, x0, x), x, atol=1e-12)

    def test_hand_l1_cases(self):
        spec = spec_l1(2.0)
        x0 = np.zeros(2)
        np.testing.assert_allclose(project(spec, x0, np.array([2.0, 2.0])), [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(project(spec, x0, np.array([3.0, 0.0])), [2.0, 0.0], atol=1e-9)

    def test_infeasible_x0_rejected(self):
        spec = spec_l1(1.0, bounds=FeatureBounds(0.0, 1.0))
        with pytest.raises(ValueError, match="x0"):
            project(spec, np.array([2.0, 0.0]), np.array([0.5, 0.5]))

    def test_box_corner_case_beats_plain_alternation(self):
        # plain project-box-then-ball lands on (0.7, 0.3); the true nearest
        # feasible point to (2, 0.6) is the corner (1, 0)
        spec = spec_l1(1.0, bounds=FeatureBounds(0.0, 1.0))
        out = project(spec, np.zeros(2), np.array([2.0, 0.6]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-6)

    def test_matches_brute_force_random_cases(self):
        # every case parameter on the 1e-3 lattice; 2-D cases wide, 3-D
        # cases narrow so the full fine grid stays enumerable
        rng = np.random.default_rng(12)
        for trial in range(25):
            d = int(rng.integers(2, 4))
            scale = 1.0 if d == 2 else 0.25
            x0 = np.round(rng.uniform(-0.5, 0.5, size=d), 3)
            lo = x0 - np.round(rng.uniform(0.05, 0.4 * scale, size=d), 3)
            hi = x0 + np.round(rng.uniform(0.05, 0.4 * scale, size=d), 3)
            inc = bool(rng.integers(0, 2))
            spec = AttackSpec(
                distance=DistanceSpec("l1"),
                d_max=float(np.round(rng.uniform(0.1, 0.6 * scale), 3)),
                step_t=1.0,
                bounds=FeatureBounds(lo, hi, increment_only=inc),
            )
            x = rng.uniform(-1.0, 1.0, size=d)
            ours = project(spec, x0, x)
            ref = brute_force_projection(spec, x0, x)
            assert np.linalg.norm(ours - ref) <= 2e-3, (trial, ours, ref)
            assert is_feasible(spec, x0, ours)

    def test_start_just_outside_the_box_moves_no_further_out(self):
        # x0 may sit up to _FEAS_TOL above the box; that side's cap is 0, so
        # the coordinate stays at x0 and the whole budget goes to the other one
        spec = spec_l1(0.25, bounds=FeatureBounds(0.0, 1.0))
        x0 = np.array([1.0 + _FEAS_TOL / 2, 0.5])
        out = project(spec, x0, np.array([3.0, 3.0]))
        np.testing.assert_array_equal(out, [x0[0], 0.75])

    def test_matches_bisection_oracle_random_cases(self):
        rng = np.random.default_rng(31)
        ball_bound = 0
        for case in range(400):
            spec, x0, x = _random_projection_case(rng)
            ours = project(spec, x0, x)
            ref = bisection_projection(spec, x0, x)
            scale = max(1.0, float(np.abs(x).max()))
            assert float(np.abs(ours - ref).max()) <= 1e-12 * scale, case
            assert is_feasible(spec, x0, ours), case
            lo, hi = box_of(spec, x0)
            ball_bound += spec.distance.of(np.clip(x, lo, hi), x0) > spec.d_max > 0
        assert ball_bound >= 200  # most cases leave the budget after the box clip

    def test_never_farther_than_dykstra_and_closer_where_it_stops_early(self):
        # Dykstra's loop stops at max_rounds short of the projection: on a
        # seeded case where it does, the exact projection is strictly closer
        rng = np.random.default_rng(32)
        cut_short = 0
        for case in range(500):
            spec, x0, x = _random_projection_case(rng)
            ours = project(spec, x0, x)
            theirs, hit_cap = dykstra_projection(spec, x0, x)
            gap = np.linalg.norm(theirs - x) - np.linalg.norm(ours - x)
            assert gap >= -1e-12 * max(1.0, float(np.abs(x).max())), case
            cut_short += hit_cap and gap > 1e-9
        assert cut_short >= 1


class TestDistancesFromStart:
    def test_equals_distance_of_each_point_bit_for_bit(self):
        rng = np.random.default_rng(16)
        weights = np.random.default_rng(17)
        dist = DistanceSpec("l1")
        for d in (1, 3, 100, 784, 1000):
            points = [rng.random(d) * 100 for _ in range(int(rng.integers(1, 30)))]
            kept = np.stack(points)
            tr = AttackTrace(points, [0.0] * len(points), "converged")
            model = LinearModel(weights.normal(size=d), 0.5)
            want = np.array([dist.of(p, points[0]) for p in points])
            dists, scores = trace_profile(model, tr)
            assert dists.tobytes() == want.tobytes()
            # the stacked points' scores, and the trace is untouched
            assert scores.tobytes() == model.discriminant_many(kept).tobytes()
            assert np.stack(tr.points).tobytes() == kept.tobytes()


class TestTraceArray:
    """A run's points live in one array, sized for the most points it can write."""

    def test_discrete_reserves_one_row_per_move_the_budget_allows(self):
        model = LinearModel(np.array([-1.0, -2.0]), 0.0)  # every +1 move lowers F
        bounds = FeatureBounds(0.0, np.inf, increment_only=True)
        for d_max, max_iters, rows in ((3.5, 500, 4), (3.0, 500, 4), (0.0, 500, 1), (10.0, 2, 3)):
            spec = spec_l1(d_max, mode="discrete", max_iters=max_iters, bounds=bounds)
            tr = evade_discrete(model, spec, np.zeros(2))
            assert tr.points.base.shape == (rows, 2) and len(tr.points) == rows
            assert rows <= math.floor(d_max) + 1

    def test_continuous_reserves_max_iters_plus_one_rows(self):
        tr = evade_continuous(LinearModel(np.array([1.0]), 0.0), spec_l1(3.0, max_iters=20), np.array([2.0]))
        assert tr.points.base.shape == (21, 1) and len(tr.points) == 4


class TestEvadeContinuous:
    def test_one_dimensional_hand_trace(self):
        model = LinearModel(np.array([1.0]), 0.0)
        spec = spec_l1(3.0)
        tr = evade_continuous(model, spec, np.array([2.0]))
        np.testing.assert_allclose(np.concatenate(tr.points), [2.0, 1.0, 0.0, -1.0], atol=1e-9)
        assert trace_profile(model, tr)[1][-1] == pytest.approx(-1.0)
        assert predict(model, tr.points[-1][None])[0] == LEGITIMATE
        assert tr.iterations == 3
        assert tr.termination == "budget_boundary_converged"

    def test_linear_descent_rate(self):
        # unprojected steps t w / ||w||_1 on a linear model drop F by exactly t ||w||_2^2 / ||w||_1
        w = np.array([2.0, -1.0, 0.5])
        model = LinearModel(w, 5.0)
        spec = spec_l1(100.0, step_t=0.25, max_iters=10)
        tr = evade_continuous(model, spec, np.zeros(3))
        drops = -np.diff(tr.objective_values)
        assert len(drops) == 10
        np.testing.assert_allclose(drops, 0.25 * (w @ w) / np.abs(w).sum(), atol=1e-9)

    def test_flat_region_stops_immediately(self):
        model = MlpModel(np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0)
        spec = spec_l1(5.0)
        tr = evade_continuous(model, spec, np.array([1.0, 1.0]))
        assert tr.termination == "zero_gradient"
        assert tr.iterations == 0
        assert predict(model, tr.points[-1][None])[0] == MALICIOUS  # g = 0.5 at offset 0.5 ties to +1

    def test_trace_invariants(self):
        rng = np.random.default_rng(13)
        sv = rng.normal(size=(8, 3))
        raw = rng.uniform(0.1, 1.0, size=8)
        model = SvmModel(KernelSpec("rbf", gamma=0.5), sv, raw - raw.mean(), 0.2, C=2.0)
        bounds = FeatureBounds(-2.0, 2.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=2.5, step_t=0.3, bounds=bounds, max_iters=50)
        x0 = np.clip(sv[0] + 0.5, -2.0, 2.0)
        tr = evade_continuous(model, spec, x0)
        assert len(tr.points) == len(tr.objective_values) == tr.iterations + 1
        dists = trace_profile(model, tr)[0]
        assert np.all(dists <= spec.d_max + 1e-9)
        for p in tr.points:
            assert np.all(p >= -2.0 - 1e-9) and np.all(p <= 2.0 + 1e-9)
        assert np.all(np.diff(tr.objective_values) <= 0)

    def test_l1_step_norm_policy(self):
        model = LinearModel(np.array([3.0, 4.0]), 0.0)
        spec = AttackSpec(
            distance=DistanceSpec("l1"), d_max=100.0, step_t=10 / 255,
            bounds=FREE, step_norm="l1", max_iters=3,
        )
        tr = evade_continuous(model, spec, np.zeros(2))
        step = tr.points[1] - tr.points[0]
        assert abs(np.abs(step).sum() - 10 / 255) < 1e-12

    def test_infeasible_start_rejected(self):
        model = LinearModel(np.array([1.0]), 0.0)
        spec = spec_l1(1.0, bounds=FeatureBounds(0.0, 1.0))
        with pytest.raises(ValueError, match="x0"):
            evade_continuous(model, spec, np.array([2.0]))

    @pytest.mark.parametrize("bad", [[np.nan, 1.0], [np.inf, 1.0], [-1e308, -1e308]],
                             ids=["nan", "inf", "l1_overflow"])
    def test_non_finite_gradient_is_refused(self, bad):
        # both modes raise on a gradient whose l1 length is not finite, naming
        # the iterate: an entry that is not finite, or finite entries whose
        # sum overflows; each run takes the move to (1, 0) first
        table = {(0.0, 0.0): (1.0, [-1.0, 0.0]), (1.0, 0.0): (0.0, bad)}
        continuous = spec_l1(5.0, bounds=FeatureBounds(-5.0, 5.0))
        discrete = spec_l1(5.0, mode="discrete", bounds=FeatureBounds(0.0, 5.0, increment_only=True))
        for run, spec in ((evade_continuous, continuous), (reference_evade_continuous, continuous),
                          (evade_discrete, discrete), (reference_evade_discrete, discrete)):
            with pytest.raises(ValueError, match="gradient of F is not finite at iterate 1"):
                run(TableModel(table), spec, np.zeros(2))


def brute_force_discrete(model, spec, x0):
    """Enumerate every feasible integer point x >= x0 and return the minimal F."""
    radius = int(np.ceil(spec.d_max))
    hi = np.broadcast_to(np.asarray(spec.bounds.upper, float), x0.shape)
    axes = [np.arange(x0[j], min(hi[j], x0[j] + radius) + 0.5) for j in range(len(x0))]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[np.abs(pts - x0).sum(axis=1) <= spec.d_max + 1e-9]
    return min(objective_F(model, spec, p) for p in pts)


class TestEvadeDiscrete:
    def test_hand_case(self):
        # both +1 moves lower g; the steeper feature takes the whole budget
        model = LinearModel(np.array([-2.0, -1.0]), 0.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=2.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0, increment_only=True), mode="discrete")
        tr = evade_discrete(model, spec, np.array([1.0, 1.0]))
        assert [p.tolist() for p in tr.points] == [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]
        assert trace_profile(model, tr)[1][-1] == -7.0
        assert tr.termination == "budget_boundary_converged"

    def test_increment_only_monotone_model_stays_put(self):
        model = LinearModel(np.array([1.5, 0.5]), 0.0)  # all-positive weights
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=5.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0, increment_only=True), mode="discrete")
        tr = evade_discrete(model, spec, np.array([2.0, 2.0]))
        assert tr.iterations == 0
        np.testing.assert_array_equal(tr.points[-1], [2.0, 2.0])
        assert tr.termination == "converged"

    def test_increment_only_most_negative_weight_first(self):
        model = LinearModel(np.array([0.5, -2.0, -1.0]), 0.0)
        cap = 4.0
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=6.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, cap, increment_only=True), mode="discrete")
        tr = evade_discrete(model, spec, np.array([1.0, 1.0, 1.0]))
        moves = [int(np.argmax(np.abs(b - a))) for a, b in zip(tr.points, tr.points[1:])]
        # feature 1 (weight -2) fills to its cap, then feature 2 takes over
        assert moves == [1, 1, 1] + [2] * (len(moves) - 3)

    def test_non_integer_start_rejected(self):
        model = LinearModel(np.array([1.0]), 0.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=2.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0, increment_only=True), mode="discrete")
        with pytest.raises(ValueError, match="integer"):
            evade_discrete(model, spec, np.array([0.5]))

    def test_greedy_matches_exhaustive_on_linear_models(self):
        rng = np.random.default_rng(14)
        for trial in range(60):
            d = int(rng.integers(1, 4))
            w = rng.normal(size=d)
            model = LinearModel(w, float(rng.normal()))
            budget = int(rng.integers(1, 5))
            lo = rng.integers(-1, 1, size=d).astype(float)
            hi = lo + rng.integers(2, 7, size=d)
            x0 = np.array([float(rng.integers(l, h + 1)) for l, h in zip(lo, hi)])
            spec = AttackSpec(distance=DistanceSpec("l1"), d_max=float(budget), step_t=1.0,
                              bounds=FeatureBounds(lo, hi, increment_only=True), mode="discrete")
            tr = evade_discrete(model, spec, x0)
            best = brute_force_discrete(model, spec, x0)
            assert tr.objective_values[-1] == pytest.approx(best, abs=1e-9), trial

    def test_strictly_decreasing_objective(self):
        rng = np.random.default_rng(15)
        sv = rng.integers(0, 5, size=(6, 4)).astype(float)
        raw = rng.uniform(0.1, 1.0, size=6)
        model = SvmModel(KernelSpec("rbf", gamma=0.1), sv, raw - raw.mean(), 0.0, C=2.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=6.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0, increment_only=True), mode="discrete")
        tr = evade_discrete(model, spec, np.array([3.0, 3.0, 3.0, 3.0]))
        assert tr.iterations >= 2
        assert np.all(np.diff(tr.objective_values) < 0)


def reference_evade_discrete(model, spec, x0):
    """Oracle for evade_discrete: the same descent, but it computes each
    candidate's distance with DistanceSpec.of and the gradient norm with
    np.linalg.norm instead of tracking them, and orders the candidates by
    a full sort of -|grad|."""
    if spec.mode != "discrete":
        raise ValueError("spec.mode must be 'discrete'")
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 != np.round(x0)):
        raise ValueError("discrete mode requires an integer-valued x0")
    reference_check_start(spec, x0)
    lo, hi = box_of(spec, x0)
    path = AttackTrace([x0.copy()], [objective_F(model, spec, x0)], capacity=spec.max_iters + 1)
    termination = "max_iters"
    for _ in range(spec.max_iters):
        x = path.points[-1]
        grad = objective_grad(model, spec, x)
        with np.errstate(over="ignore"):  # a sum that overflows is refused, and a norm that does is not 0
            length, norm = float(np.abs(grad).sum()), float(np.linalg.norm(grad))
        if not math.isfinite(length):
            raise ValueError(f"gradient of F is not finite at iterate {path.iterations}")
        if norm <= _ZERO_GRAD_NORM:
            termination = "zero_gradient"
            break
        order = np.argsort(-np.abs(grad), kind="stable")
        accepted = False
        budget_blocked = False
        any_candidate = False
        for j in order:
            gj = grad[j]
            if gj == 0.0:
                break  # sorted by |grad|; the rest are zeros too
            s = -1.0 if gj > 0 else 1.0
            if spec.bounds.increment_only and s < 0:
                continue
            nv = x[j] + s
            if nv < lo[j] - _FEAS_TOL or nv > hi[j] + _FEAS_TOL:
                continue
            cand = x.copy()
            cand[j] = nv
            if spec.distance.of(cand, x0) > spec.d_max + _FEAS_TOL:
                budget_blocked = True
                continue
            any_candidate = True
            f_new = objective_F(model, spec, cand)
            if f_new < path.objective_values[-1]:
                path.add(cand, f_new)
                accepted = True
                break
        if not accepted:
            if not any_candidate and budget_blocked:
                termination = "budget_boundary_converged"
            else:
                termination = "converged"
            break
    path.termination = termination
    return path


def _random_discrete_case(rng):
    """A seeded model, start point and discrete spec; returns (kind, model, spec, x0)."""
    d = int(rng.integers(2, 7))
    kind = str(rng.choice(["linear", "rbf", "mlp"]))
    if kind == "linear":
        model = LinearModel(rng.normal(size=d), float(rng.normal()))
    elif kind == "rbf":
        sv = rng.integers(0, 6, size=(6, d)).astype(float)
        raw = rng.uniform(0.1, 1.0, size=6) * rng.choice([-1.0, 1.0], size=6)
        model = SvmModel(KernelSpec("rbf", gamma=float(rng.uniform(0.05, 1.0))), sv, raw - raw.mean(), 0.0, C=2.0)
    else:
        # a large output bias saturates the output sigmoid: exact zero gradient
        bias = float(rng.choice([rng.normal(), 40.0]))
        model = MlpModel(rng.normal(scale=2.0, size=(4, d)), rng.normal(size=4), rng.normal(scale=3.0, size=4), bias)
    lo = rng.integers(-2, 1, size=d).astype(float)
    hi = lo + rng.integers(3, 9, size=d)
    x0 = np.array([float(rng.integers(l, h + 1)) for l, h in zip(lo, hi)])
    lam, est = 0.0, None
    if rng.random() < 0.5:
        est = MimicryEstimator(
            rng.integers(-2, 7, size=(15, d)).astype(float),
            h=float(rng.uniform(2.0, 10.0)),
            truncation_k=int(rng.integers(3, 16)),
        )
        lam = float(rng.uniform(0.5, 5.0))
    spec = AttackSpec(
        distance=DistanceSpec("l1"),
        # budgets a hair under a reachable distance exercise the tolerance
        d_max=float(rng.choice([0.0, 1.0, 2.0, 2.5, 3.0 - 1e-10, 6.0, 30.0])),
        lam=lam,
        max_iters=int(rng.choice([2, 5, 100])),
        bounds=FeatureBounds(lo, hi, increment_only=True),
        mode="discrete",
        mimicry=est,
    )
    return kind, model, spec, x0


class StubGradientModel:
    """A model whose gradients are drawn from a palette with ties across both
    signs and signed zeros, seeded by the point itself.

    The discriminant is a fixed linear part plus noise seeded the same way,
    so a move along -grad is as often rejected as accepted.
    """

    PALETTE = np.array([2.0, -2.0, 1.0, -1.0, 0.0, -0.0])
    WEIGHTS = np.array([0.22, 0.22, 0.18, 0.18, 0.1, 0.1])

    def __init__(self, seed: int, w: np.ndarray):
        self.seed, self.w = seed, w

    def _rng(self, x, stream):
        return np.random.default_rng([self.seed, stream, *(np.asarray(x).astype(np.int64) + 1000).tolist()])

    def discriminant(self, x):
        return float(self.w @ x + self._rng(x, 0).uniform(0.0, 2.0))

    def gradient(self, x):
        return self._rng(x, 1).choice(self.PALETTE, size=len(x), p=self.WEIGHTS)


class TableModel:
    """A model given as {point: (discriminant, gradient)}; records each point it scores."""

    def __init__(self, table):
        self.table, self.scored = table, []

    def discriminant(self, x):
        self.scored.append(tuple(x.tolist()))
        return self.table[tuple(x.tolist())][0]

    def gradient(self, x):
        return np.array(self.table[tuple(x.tolist())][1])


def _stub_discrete_case(rng):
    """A random discrete spec at lam 0 with a StubGradientModel; returns (kind, model, spec, x0)."""
    _kind, _model, spec, x0 = _random_discrete_case(rng)
    model = StubGradientModel(int(rng.integers(2**31)), rng.normal(size=len(x0)))
    return "stub", model, replace(spec, lam=0.0, mimicry=None), x0


def _first_candidate_outcome(model, spec, x0, trace, i):
    """What became of the first candidate of the stable |grad| order at iterate i.

    None when the gradient has no negative entry for a +1 move; else "box_blocked",
    "budget_blocked", "accepted", "rejected_later_accepted" (another move
    was taken) or "rejected" (the descent stopped there).
    """
    x = trace.points[i]
    grad = objective_grad(model, spec, x)
    usable = [j for j in np.argsort(-np.abs(grad), kind="stable") if grad[j] < 0]
    if not usable:
        return None
    j = usable[0]
    cand = x.copy()
    cand[j] += 1.0
    lo, hi = box_of(spec, x0)
    if not lo[j] - _FEAS_TOL <= cand[j] <= hi[j] + _FEAS_TOL:
        return "box_blocked"
    if spec.distance.of(cand, x0) > spec.d_max + _FEAS_TOL:
        return "budget_blocked"
    if i + 1 == len(trace.points):
        return "rejected"
    return "accepted" if np.array_equal(trace.points[i + 1], cand) else "rejected_later_accepted"


def _budget_shortcut_applies(model, spec, x0, x):
    """Whether evade_discrete settles the iterate x with its one-vector budget
    test: every +1 move is over budget."""
    return spec.distance.of(x, x0) + 1.0 > spec.d_max + _FEAS_TOL


def _gradient_features(grad):
    """Which of the stub palette's hard cases a gradient contains."""
    return {
        name for name, present in (
            ("negative_zero", (np.signbit(grad) & (grad == 0.0)).any()),
            ("tie_across_signs", np.intersect1d(grad[grad > 0], -grad[grad < 0]).size > 0),
        ) if present
    }


class TestDiscreteMatchesReference:
    def test_same_trace_as_reference_on_random_cases(self, monkeypatch):
        f_calls = []
        original_F = attack_module.objective_F

        def counted_F(model, spec, x):
            f_calls.append(1)
            return original_F(model, spec, x)

        # evade_discrete and reference_evade_discrete both look objective_F up at call time
        monkeypatch.setattr(attack_module, "objective_F", counted_F)
        monkeypatch.setitem(globals(), "objective_F", counted_F)
        walks = []
        original_candidates = attack_module._candidates

        def counted_candidates(*args):
            walks.append(1)
            return original_candidates(*args)

        monkeypatch.setattr(attack_module, "_candidates", counted_candidates)
        rng = np.random.default_rng(2024)
        seen = {"kinds": set(), "lam_positive": set(),
                "terminations": set(), "first_candidate_rejected": False, "first_candidate": set(),
                "stub_gradients": set(), "budget_shortcut": set()}
        for case in range(600):
            kind, model, spec, x0 = _random_discrete_case(rng) if case < 400 else _stub_discrete_case(rng)
            if spec.lam > 0:
                assert spec.mimicry.density(x0) > 1e-6, case  # the KDE term is live
            f_calls.clear()
            walks.clear()
            got = evade_discrete(model, spec, x0)
            got_f_calls, got_walks = len(f_calls), len(walks)
            f_calls.clear()
            want = reference_evade_discrete(model, spec, x0)
            # a rejected first candidate is scored once, not again by the scan
            assert got_f_calls == len(f_calls), case
            assert len(got.points) == len(want.points), case
            for a, b in zip(got.points, want.points):
                assert np.array_equal(a, b), case
            assert got.termination == want.termination, case
            assert got.objective_values == want.objective_values, case
            seen["kinds"].add(kind)
            seen["lam_positive"].add(spec.lam > 0)
            seen["terminations"].add(got.termination)
            # one F for x0, one per accepted move; any more scored a rejected candidate
            if got_f_calls > got.iterations + 1:
                seen["first_candidate_rejected"] = True
            # every iterate that took a move, and the last one when nothing was accepted there
            stopped_on_a_scan = got.termination in ("converged", "budget_boundary_converged")
            for i in range(got.iterations + stopped_on_a_scan):
                seen["first_candidate"].add(_first_candidate_outcome(model, spec, x0, got, i))
                if kind == "stub":
                    seen["stub_gradients"] |= _gradient_features(model.gradient(got.points[i]))
            if stopped_on_a_scan and _budget_shortcut_applies(model, spec, x0, got.points[-1]):
                # the final iterate was settled without a candidate walk
                assert got_walks == got.iterations, case
                seen["budget_shortcut"].add(got.termination)
        assert seen == {
            "kinds": {"linear", "rbf", "mlp", "stub"},
            "lam_positive": {False, True},
            "terminations": set(attack_module.TERMINATIONS),
            "first_candidate_rejected": True,
            "first_candidate": {None, "box_blocked", "budget_blocked", "accepted",
                                "rejected_later_accepted", "rejected"},
            "stub_gradients": {"negative_zero", "tie_across_signs"},
            "budget_shortcut": {"converged", "budget_boundary_converged"},
        }

    def test_rejected_first_candidate_counts_as_tried(self):
        # at (1, 0) the first candidate (2, 0) is inside the budget and rejected,
        # and the only other move leaves the upper bound: a candidate was tried,
        # so this is "converged", not "budget_boundary_converged"
        table = {(0.0, 0.0): (0.0, [-1.0, 0.5]), (1.0, 0.0): (-1.0, [-1.0, -0.5]), (2.0, 0.0): (0.0, None)}
        model = TableModel(table)
        spec = spec_l1(2.0, mode="discrete", bounds=FeatureBounds(0.0, np.array([10.0, 0.0]), increment_only=True))
        tr = evade_discrete(model, spec, np.zeros(2))
        assert [p.tolist() for p in tr.points] == [[0.0, 0.0], [1.0, 0.0]]
        assert tr.termination == reference_evade_discrete(model, spec, np.zeros(2)).termination == "converged"
        assert model.scored == [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)] * 2

    def test_gradient_without_a_negative_entry_converges_without_a_sort(self, monkeypatch):
        # no +1 move goes against the gradient: the argmin alone settles it
        sorts = []
        original_argsort = np.argsort

        def counted_argsort(*args, **kwargs):
            sorts.append(1)
            return original_argsort(*args, **kwargs)

        model = TableModel({(0.0, 0.0): (0.0, [1.0, 0.0])})
        spec = spec_l1(5.0, mode="discrete", bounds=FeatureBounds(0.0, 10.0, increment_only=True))
        assert reference_evade_discrete(model, spec, np.zeros(2)).termination == "converged"
        monkeypatch.setattr(np, "argsort", counted_argsort)
        tr = evade_discrete(model, spec, np.zeros(2))
        assert (tr.iterations, tr.termination, sorts) == (0, "converged", [])

    def test_finite_gradient_whose_square_overflows_still_descends(self):
        # grad @ grad overflows to inf, but the l1 length is finite: no refusal, and no warning.
        # The discrete move is (1, 0); the continuous step of l1 length 1 is (0.5, -0.5)
        table = {(0.0, 0.0): (1.0, [-1e200, 1e200]), (1.0, 0.0): (0.0, [1.0, 1.0]),
                 (0.5, -0.5): (0.0, [0.0, 0.0])}
        discrete = spec_l1(5.0, mode="discrete", bounds=FeatureBounds(0.0, 10.0, increment_only=True))
        continuous = spec_l1(5.0, bounds=FeatureBounds(-5.0, 5.0))
        for run, spec, end, termination in (
            (evade_discrete, discrete, [1.0, 0.0], "converged"),
            (reference_evade_discrete, discrete, [1.0, 0.0], "converged"),
            (evade_continuous, continuous, [0.5, -0.5], "zero_gradient"),
            (reference_evade_continuous, continuous, [0.5, -0.5], "zero_gradient"),
        ):
            tr = run(TableModel(table), spec, np.zeros(2))
            assert ([p.tolist() for p in tr.points], tr.termination) == ([[0.0, 0.0], end], termination)

    def test_settles_the_final_budget_blocked_iterate_without_a_sort(self, monkeypatch):
        # increment-only l1 on an rbf SVM whose every first candidate is taken
        # until the budget runs out: the last iterate is settled by the budget
        # test, so no iterate sorts. The third support vector makes feature 3 the
        # largest |grad| at x0, with the sign that increment_only forbids.
        grads, sorts = [], []
        original_grad, original_argsort = attack_module.objective_grad, np.argsort

        def counted_grad(model, spec, x):
            grads.append(1)
            return original_grad(model, spec, x)

        def counted_argsort(*args, **kwargs):
            sorts.append(len(grads))
            return original_argsort(*args, **kwargs)

        sv = np.array([[0.0, 0.0, 0.0, 0.0], [6.0, 3.0, 5.0, 4.0], [0.0, 0.0, 0.0, 2.0]])
        model = SvmModel(KernelSpec("rbf", gamma=0.05), sv, np.array([1.0, -2.0, 1.0]), 0.0, C=3.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=7.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0, increment_only=True), mode="discrete")
        monkeypatch.setattr(attack_module, "objective_grad", counted_grad)
        monkeypatch.setattr(np, "argsort", counted_argsort)
        x0 = np.zeros(4)
        assert int(np.abs(model.gradient(x0)).argmax()) == 3 and model.gradient(x0)[3] > 0
        tr = evade_discrete(model, spec, x0)
        assert tr.termination == "budget_boundary_converged"
        assert tr.iterations == 7
        assert len(grads) == tr.iterations + 1
        assert sorts == []


class TestScoresOncePerF:
    @pytest.mark.parametrize("mode", ["continuous", "discrete"])
    def test_lam_positive_scores_g_once_per_objective(self, mode, monkeypatch):
        # the trace keeps F only, so g is computed inside objective_F and nowhere else
        f_calls = []
        original_F = attack_module.objective_F

        def counted_F(model, spec, x):
            f_calls.append(1)
            return original_F(model, spec, x)

        monkeypatch.setattr(attack_module, "objective_F", counted_F)
        rng = np.random.default_rng(21)
        model = RecordingLinear(np.array([1.0, -0.5, 2.0]), 0.5)
        est = MimicryEstimator(rng.integers(0, 6, size=(20, 3)).astype(float), h=3.0, truncation_k=10)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=6.0, step_t=0.5, lam=2.0,
                          bounds=FeatureBounds(0.0, 10.0, increment_only=True), mode=mode, mimicry=est)
        x0 = np.array([3.0, 3.0, 3.0])
        assert est.density(x0) > 1e-6  # the KDE term is live
        tr = run_attack(model, spec, x0)
        assert tr.iterations >= 2
        assert model.calls.count("discriminant") == len(f_calls) >= tr.iterations + 1


def reference_evade_continuous(model, spec, x0):
    """Oracle for evade_continuous: the same descent, with the start check
    of `reference_check_start`, the box of `box_of`, the gradient norm of
    np.linalg.norm and the budget test inline."""
    if spec.mode != "continuous":
        raise ValueError("spec.mode must be 'continuous'")
    x0 = np.asarray(x0, dtype=float)
    reference_check_start(spec, x0)
    box = box_of(spec, x0)
    path = AttackTrace([x0.copy()], [objective_F(model, spec, x0)], capacity=spec.max_iters + 1)
    termination = "max_iters"
    for _ in range(spec.max_iters):
        x = path.points[-1]
        grad = objective_grad(model, spec, x)
        with np.errstate(over="ignore"):  # a sum that overflows is refused, and a norm that does is not 0
            length, norm = float(np.abs(grad).sum()), float(np.linalg.norm(grad))
        if not math.isfinite(length):
            raise ValueError(f"gradient of F is not finite at iterate {path.iterations}")
        if norm <= _ZERO_GRAD_NORM:
            termination = "zero_gradient"
            break
        # fix the l1 length of the raw step instead of its l2 length
        step = spec.step_t * grad / length
        cand = attack_module.project_feasible(spec, x0, x - step, box)
        f_new = objective_F(model, spec, cand)
        if f_new - path.objective_values[-1] > -spec.epsilon:
            # improvement stalled; keep the point only if it still improved
            if f_new < path.objective_values[-1]:
                path.add(cand, f_new)
            at_budget = spec.distance.of(path.points[-1], x0) >= spec.d_max - _FEAS_TOL
            termination = "budget_boundary_converged" if at_budget else "converged"
            break
        path.add(cand, f_new)
    path.termination = termination
    return path


def count_capped_projections(monkeypatch):
    """Patch `attack.project_l1_ball` to record, per call, whether a cap
    binds: whether the capped projection differs from the uncapped one."""
    capped = []
    original = attack_module.project_l1_ball

    def counted(v, radius, cap=np.inf):
        out = original(v, radius, cap)
        capped.append(not np.array_equal(out, original(v, radius)))
        return out

    monkeypatch.setattr(attack_module, "project_l1_ball", counted)
    return capped


def _random_continuous_case(rng):
    """A seeded model, start point and continuous spec; returns (kind, model, spec, x0)."""
    d = int(rng.integers(2, 6))
    kind = str(rng.choice(["linear", "rbf", "mlp"]))
    if kind == "linear":
        model = LinearModel(rng.normal(size=d), float(rng.normal()))
    elif kind == "mlp":
        # a large output bias saturates the output sigmoid: exact zero gradient
        bias = float(rng.choice([rng.normal(), 40.0]))
        model = MlpModel(rng.normal(scale=2.0, size=(4, d)), rng.normal(size=4), rng.normal(scale=3.0, size=4), bias)
    else:
        kernel = KernelSpec("rbf", gamma=float(rng.uniform(0.1, 1.5)))
        raw = rng.uniform(0.1, 1.0, size=6) * rng.choice([-1.0, 1.0], size=6)
        model = SvmModel(kernel, rng.uniform(-2.0, 2.0, size=(6, d)), raw - raw.mean(), float(rng.normal()), C=2.0)
    lo = -rng.uniform(0.2, 2.0, size=d)
    hi = rng.uniform(0.2, 2.0, size=d)
    x0 = rng.uniform(lo, hi)
    lam, est = 0.0, None
    if rng.random() < 0.5:
        est = MimicryEstimator(
            rng.uniform(lo, hi, size=(15, d)),
            h=float(rng.uniform(0.5, 3.0)),
            truncation_k=int(rng.integers(3, 16)),
        )
        lam = float(rng.uniform(0.5, 5.0))
    spec = AttackSpec(
        distance=DistanceSpec("l1"),
        d_max=float(rng.choice([0.0, 0.3, 1.0, 2.5, 10.0])),
        step_t=float(rng.uniform(0.05, 0.6)),
        lam=lam,
        max_iters=int(rng.choice([3, 20, 60])),
        bounds=FeatureBounds(lo, hi, increment_only=bool(rng.integers(0, 2))),
        mode="continuous",
        mimicry=est,
    )
    return kind, model, spec, x0


class TestContinuousMatchesReference:
    def test_same_trace_as_reference_on_random_cases(self, monkeypatch):
        capped = count_capped_projections(monkeypatch)
        rng = np.random.default_rng(2025)
        seen = {"kinds": set(), "increment_only": set(), "lam_positive": set(), "terminations": set(),
                "capped": False}
        for case in range(300):
            kind, model, spec, x0 = _random_continuous_case(rng)
            if spec.lam > 0:
                assert spec.mimicry.density(x0) > 1e-6, case  # the KDE term is live
            got = evade_continuous(model, spec, x0)
            # the oracle descends on a fresh copy of the model, whose kept
            # kernel pass starts empty; along an rbf trace, g and its gradient
            # also match the SVM scored with two kernel passes, to rounding
            want = reference_evade_continuous(replace(model), spec, x0)
            if kind == "rbf":
                for p in got.points:
                    assert_near_two_pass(model, p, model.discriminant(p), model.gradient(p))
            assert len(got.points) == len(want.points), case
            for a, b in zip(got.points, want.points):
                assert np.array_equal(a, b), case
            assert got.objective_values == want.objective_values, case
            assert got.termination == want.termination, case
            seen["kinds"].add(kind)
            seen["increment_only"].add(spec.bounds.increment_only)
            seen["lam_positive"].add(spec.lam > 0)
            seen["terminations"].add(got.termination)
            seen["capped"] |= any(capped)
        assert seen == {
            "kinds": {"linear", "rbf", "mlp"},
            "increment_only": {False, True},
            "lam_positive": {False, True},
            "terminations": set(attack_module.TERMINATIONS),
            "capped": True,
        }


class TestStartCheck:
    """The engines check x0 against the box they build; the reference
    engines keep the old check, x0 a feasible point of its own budget ball."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_is_refused_by_every_engine(self, bad):
        # a non-finite x0 is at no finite distance from itself, so the budget
        # ball refused it even where the box holds it; the box check must too
        model = LinearModel(np.array([1.0, 1.0]), 0.0)
        x0 = np.array([0.0, bad])
        continuous = spec_l1(5.0)
        runs = [(evade_continuous, continuous), (reference_evade_continuous, continuous)]
        if bad == np.inf:  # the only non-finite value that passes discrete mode's integer test
            discrete = spec_l1(5.0, mode="discrete", bounds=FeatureBounds(0.0, np.inf, increment_only=True))
            runs += [(evade_discrete, discrete), (reference_evade_discrete, discrete)]
        for run, spec in runs:
            # np.errstate: the reference check's inf - inf warns
            with pytest.raises(ValueError, match="x0 is not feasible"), np.errstate(invalid="ignore"):
                run(model, spec, x0)
        with pytest.raises(ValueError, match="x0 is not feasible under the given bounds"):
            _start(continuous, x0)

    def test_box_check_agrees_with_the_budget_ball_check(self):
        # starts within a few tolerances of a box face, on either side of it
        rng = np.random.default_rng(41)
        refused = 0
        for case in range(400):
            d = int(rng.integers(1, 4))
            lo = rng.uniform(-1.0, 0.0, size=d)
            hi = lo + rng.uniform(0.0, 2.0, size=d)
            spec = spec_l1(float(rng.uniform(0.0, 1.0)),
                           bounds=FeatureBounds(lo, hi, increment_only=bool(rng.integers(0, 2))))
            x0 = np.where(rng.random(d) < 0.5, lo, hi) + rng.uniform(-3, 3, size=d) * _FEAS_TOL
            try:
                reference_check_start(spec, x0)
                want = None
            except ValueError as exc:
                want = str(exc)
                refused += 1
            try:
                _start(spec, x0)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, case
        assert 100 < refused < 300
