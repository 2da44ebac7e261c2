import numpy as np
import pytest

import gradevade.attack as attack_module
from gradevade.attack import (
    _FEAS_TOL,
    _ZERO_GRAD_NORM,
    AttackSpec,
    AttackTrace,
    DistanceSpec,
    _check_start,
    _effective_box,
    _TraceBuilder,
    evade_continuous,
    evade_discrete,
    is_feasible,
    normalize_step,
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

from test_models import assert_grad_close, central_diff
from test_scenario import RecordingLinear

FREE = FeatureBounds(lower=-np.inf, upper=np.inf)


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
        est = MimicryEstimator(np.zeros((1, 2)), h=1.0, kernel_kind="laplacian")
        spec = spec_l1(5.0, lam=1.0, mimicry=est)
        val = objective_F(model, spec, np.array([1.0, 0.0]))
        assert abs(val - (1.0 - np.exp(-1.0))) < 1e-12

    def test_density_increase_lowers_F(self):
        model = LinearModel(np.array([0.0, 0.0]), 1.0)  # constant g
        est = MimicryEstimator(np.zeros((1, 2)), h=1.0, kernel_kind="laplacian")
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

    def test_grad_matches_finite_differences_mlp_rbf_kde(self):
        rng = np.random.default_rng(7)
        model = MlpModel(rng.normal(size=(4, 3)), rng.normal(size=4), rng.normal(size=4), 0.1)
        est = MimicryEstimator(rng.normal(size=(10, 3)), h=5.0, kernel_kind="rbf", truncation_k=10)
        spec = spec_l1(10.0, lam=500.0, mimicry=est)
        for _ in range(20):
            x = rng.normal(size=3)
            numeric = central_diff(lambda v: objective_F(model, spec, v), x)
            assert_grad_close(objective_grad(model, spec, x), numeric)

    def test_huge_lambda_dominated_by_density_direction(self):
        rng = np.random.default_rng(8)
        model = LinearModel(rng.normal(size=3) * 0.01, 0.0)
        est = MimicryEstimator(rng.normal(size=(5, 3)), h=2.0, kernel_kind="rbf", truncation_k=5)
        spec = spec_l1(10.0, lam=1e6, mimicry=est)
        x = est.reference_points.mean(axis=0) + 0.1
        g = objective_grad(model, spec, x)
        dg = -est.density_grad(x)
        cos = (g @ dg) / (np.linalg.norm(g) * np.linalg.norm(dg))
        assert cos >= 0.99


class TestNormalizeStep:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize_step(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_zero_signals_none(self):
        assert normalize_step(np.zeros(3)) is None

    def test_unit_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.normal(size=5) * rng.uniform(1e-6, 1e3)
            assert abs(np.linalg.norm(normalize_step(v)) - 1.0) < 1e-12


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


def l2_ball_box_oracle(x0, lo, hi, radius, x, tol=1e-12):
    """Exact l2-ball-plus-box projection via bisection on the multiplier.

    The Lagrangian subproblem min ||p - x||^2 + mu ||p - x0||^2 over the box
    separates per coordinate: clip((x + mu x0) / (1 + mu)); the multiplier
    is bisected until the ball constraint is active (or zero if slack).
    """

    def candidate(mu):
        return np.clip((x + mu * x0) / (1.0 + mu), lo, hi)

    p = candidate(0.0)
    if np.linalg.norm(p - x0) <= radius:
        return p
    mu_lo, mu_hi = 0.0, 1.0
    while np.linalg.norm(candidate(mu_hi) - x0) > radius:
        mu_hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (mu_lo + mu_hi)
        if np.linalg.norm(candidate(mid) - x0) > radius:
            mu_lo = mid
        else:
            mu_hi = mid
        if mu_hi - mu_lo < tol * (1.0 + mu_hi):
            break
    return candidate(mu_hi)


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


class TestProjectFeasible:
    def test_feasible_point_unchanged(self):
        spec = spec_l1(2.0, bounds=FeatureBounds(0.0, 1.0))
        x0 = np.array([0.5, 0.5])
        x = np.array([0.75, 0.25])
        np.testing.assert_allclose(project_feasible(spec, x0, x), x, atol=1e-12)

    def test_hand_l1_cases(self):
        spec = spec_l1(2.0)
        x0 = np.zeros(2)
        np.testing.assert_allclose(project_feasible(spec, x0, np.array([2.0, 2.0])), [1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(project_feasible(spec, x0, np.array([3.0, 0.0])), [2.0, 0.0], atol=1e-9)

    def test_infeasible_x0_rejected(self):
        spec = spec_l1(1.0, bounds=FeatureBounds(0.0, 1.0))
        with pytest.raises(ValueError, match="x0"):
            project_feasible(spec, np.array([2.0, 0.0]), np.array([0.5, 0.5]))

    def test_box_corner_case_beats_plain_alternation(self):
        # plain project-box-then-ball lands on (0.7, 0.3); the true nearest
        # feasible point to (2, 0.6) is the corner (1, 0)
        spec = spec_l1(1.0, bounds=FeatureBounds(0.0, 1.0))
        out = project_feasible(spec, np.zeros(2), np.array([2.0, 0.6]))
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
            ours = project_feasible(spec, x0, x)
            ref = brute_force_projection(spec, x0, x)
            assert np.linalg.norm(ours - ref) <= 2e-3, (trial, ours, ref)
            assert is_feasible(spec, x0, ours)

    def test_l2_budget_matches_bisection_oracle(self):
        rng = np.random.default_rng(16)
        for trial in range(40):
            d = int(rng.integers(2, 5))
            x0 = rng.uniform(-0.5, 0.5, size=d)
            lo = x0 - rng.uniform(0.1, 0.8, size=d)
            hi = x0 + rng.uniform(0.1, 0.8, size=d)
            r = float(rng.uniform(0.2, 1.0))
            spec = AttackSpec(
                distance=DistanceSpec("l2"), d_max=r, step_t=1.0, bounds=FeatureBounds(lo, hi)
            )
            x = rng.uniform(-2.0, 2.0, size=d)
            ours = project_feasible(spec, x0, x)
            ref = l2_ball_box_oracle(x0, lo, hi, r, x)
            assert np.linalg.norm(ours - ref) <= 1e-6, (trial, ours, ref)
            assert is_feasible(spec, x0, ours)


class TestDistancesFromStart:
    @pytest.mark.parametrize("kind", ["l1", "l2"])
    def test_equals_distance_of_each_point_bit_for_bit(self, kind):
        rng = np.random.default_rng(16)
        dist = DistanceSpec(kind)
        for d in (1, 3, 100, 784, 1000):
            points = [rng.random(d) * 100 for _ in range(int(rng.integers(1, 30)))]
            tr = AttackTrace(points, [0.0] * len(points), "converged")
            want = np.array([dist.of(p, points[0]) for p in points])
            assert tr.distances_from_start(dist).tobytes() == want.tobytes()


class TestEvadeContinuous:
    def test_one_dimensional_hand_trace(self):
        model = LinearModel(np.array([1.0]), 0.0)
        spec = spec_l1(3.0)
        tr = evade_continuous(model, spec, np.array([2.0]))
        np.testing.assert_allclose(np.concatenate(tr.points), [2.0, 1.0, 0.0, -1.0], atol=1e-9)
        assert trace_profile(model, tr, spec.distance)[1][-1] == pytest.approx(-1.0)
        assert predict(model, tr.points[-1][None])[0] == LEGITIMATE
        assert tr.iterations == 3
        assert tr.termination == "budget_boundary_converged"

    def test_linear_descent_rate(self):
        # unprojected steps on a linear model drop F by exactly t * ||w||_2
        w = np.array([2.0, -1.0, 0.5])
        model = LinearModel(w, 5.0)
        spec = AttackSpec(distance=DistanceSpec("l2"), d_max=100.0, step_t=0.25, bounds=FREE, max_iters=10)
        tr = evade_continuous(model, spec, np.zeros(3))
        drops = -np.diff(tr.objective_values)
        np.testing.assert_allclose(drops, 0.25 * np.linalg.norm(w), atol=1e-9)

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
        dists = tr.distances_from_start(spec.distance)
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


def brute_force_discrete(model, spec, x0):
    """Enumerate every feasible integer point and return the minimal F."""
    d = len(x0)
    radius = int(np.ceil(spec.d_max))
    lo, hi = spec.bounds.lower, spec.bounds.upper
    lo = np.broadcast_to(np.asarray(lo, float), x0.shape)
    hi = np.broadcast_to(np.asarray(hi, float), x0.shape)
    axes = []
    for j in range(d):
        low = x0[j] if spec.bounds.increment_only else max(lo[j], x0[j] - radius)
        high = min(hi[j], x0[j] + radius)
        axes.append(np.arange(low, high + 0.5))
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    if spec.distance.kind == "l1":
        feas = np.abs(pts - x0).sum(axis=1) <= spec.d_max + 1e-9
    else:
        feas = np.linalg.norm(pts - x0, axis=1) <= spec.d_max + 1e-9
    pts = pts[feas]
    return min(objective_F(model, spec, p) for p in pts)


class TestEvadeDiscrete:
    def test_hand_case(self):
        model = LinearModel(np.array([2.0, 1.0]), 0.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=2.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0), mode="discrete")
        tr = evade_discrete(model, spec, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(tr.points[-1], [0.0, 0.0])
        assert trace_profile(model, tr, spec.distance)[1][-1] == 0.0

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
                          bounds=FeatureBounds(0.0, 10.0), mode="discrete")
        with pytest.raises(ValueError, match="integer"):
            evade_discrete(model, spec, np.array([0.5]))

    def test_greedy_matches_exhaustive_on_linear_models(self):
        rng = np.random.default_rng(14)
        for trial in range(60):
            d = int(rng.integers(1, 4))
            w = rng.normal(size=d)
            model = LinearModel(w, float(rng.normal()))
            budget = int(rng.integers(1, 5))
            inc = bool(rng.integers(0, 2))
            lo = rng.integers(-1, 1, size=d).astype(float)
            hi = lo + rng.integers(2, 7, size=d)
            x0 = np.array([float(rng.integers(l, h + 1)) for l, h in zip(lo, hi)])
            spec = AttackSpec(distance=DistanceSpec("l1"), d_max=float(budget), step_t=1.0,
                              bounds=FeatureBounds(lo, hi, increment_only=inc), mode="discrete")
            tr = evade_discrete(model, spec, x0)
            best = brute_force_discrete(model, spec, x0)
            assert tr.objective_values[-1] == pytest.approx(best, abs=1e-9), trial

    def test_strictly_decreasing_objective(self):
        rng = np.random.default_rng(15)
        sv = rng.integers(0, 5, size=(6, 4)).astype(float)
        raw = rng.uniform(0.1, 1.0, size=6)
        model = SvmModel(KernelSpec("rbf", gamma=0.1), sv, raw - raw.mean(), 0.0, C=2.0)
        spec = AttackSpec(distance=DistanceSpec("l1"), d_max=6.0, step_t=1.0,
                          bounds=FeatureBounds(0.0, 10.0), mode="discrete")
        tr = evade_discrete(model, spec, np.array([3.0, 3.0, 3.0, 3.0]))
        assert np.all(np.diff(tr.objective_values) < 0)


def reference_evade_discrete(model, spec, x0):
    """Oracle for evade_discrete: the same descent, but it computes each
    candidate's distance with DistanceSpec.of and the gradient norm with
    np.linalg.norm instead of tracking them."""
    if spec.mode != "discrete":
        raise ValueError("spec.mode must be 'discrete'")
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 != np.round(x0)):
        raise ValueError("discrete mode requires an integer-valued x0")
    _check_start(spec, x0)
    lo, hi = _effective_box(spec, x0)
    path = _TraceBuilder(x0, objective_F(model, spec, x0))
    termination = "max_iters"
    for _ in range(spec.max_iters):
        x = path.points[-1]
        grad = objective_grad(model, spec, x)
        if float(np.linalg.norm(grad)) <= _ZERO_GRAD_NORM:
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
            if f_new < path.f_vals[-1]:
                path.add(cand, f_new)
                accepted = True
                break
        if not accepted:
            if not any_candidate and budget_blocked:
                termination = "budget_boundary_converged"
            else:
                termination = "converged"
            break
    return path.finish(termination)


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
        kde_kind = str(rng.choice(["laplacian", "rbf"]))
        # the rbf KDE works on squared distances: a wider h keeps it alive
        est = MimicryEstimator(
            rng.integers(-2, 7, size=(15, d)).astype(float),
            h=float(rng.uniform(2.0, 10.0)) * (d if kde_kind == "rbf" else 1),
            kernel_kind=kde_kind,
            truncation_k=int(rng.integers(3, 16)),
            grad_form=str(rng.choice(["corrected", "paper"])),
        )
        lam = float(rng.uniform(0.5, 5.0))
    spec = AttackSpec(
        distance=DistanceSpec(str(rng.choice(["l1", "l2"]))),
        # budgets a hair under a reachable distance exercise the tolerance
        d_max=float(rng.choice([0.0, 1.0, 2.0, 2.5, 3.0 - 1e-10, 8.0 ** 0.5, 5.0 ** 0.5 - 1e-10, 6.0, 30.0])),
        lam=lam,
        max_iters=int(rng.choice([2, 5, 100])),
        bounds=FeatureBounds(lo, hi, increment_only=bool(rng.integers(0, 2))),
        mode="discrete",
        mimicry=est,
    )
    return kind, model, spec, x0


class TestDiscreteMatchesReference:
    def test_same_trace_as_reference_on_random_cases(self, monkeypatch):
        f_calls = []
        original_F = attack_module.objective_F

        def counted_F(model, spec, x):
            f_calls.append(1)
            return original_F(model, spec, x)

        monkeypatch.setattr(attack_module, "objective_F", counted_F)
        rng = np.random.default_rng(2024)
        seen = {"kinds": set(), "distances": set(), "increment_only": set(), "lam_positive": set(),
                "terminations": set(), "first_candidate_rejected": False}
        for case in range(400):
            kind, model, spec, x0 = _random_discrete_case(rng)
            if spec.lam > 0:
                assert spec.mimicry.density(x0) > 1e-6, case  # the KDE term is live
            f_calls.clear()
            got = evade_discrete(model, spec, x0)
            got_f_calls = len(f_calls)
            want = reference_evade_discrete(model, spec, x0)
            assert len(got.points) == len(want.points), case
            for a, b in zip(got.points, want.points):
                assert np.array_equal(a, b), case
            assert got.termination == want.termination, case
            assert got.objective_values == want.objective_values, case
            seen["kinds"].add(kind)
            seen["distances"].add(spec.distance.kind)
            seen["increment_only"].add(spec.bounds.increment_only)
            seen["lam_positive"].add(spec.lam > 0)
            seen["terminations"].add(got.termination)
            # one F for x0, one per accepted move; any more scored a rejected candidate
            if got_f_calls > got.iterations + 1:
                seen["first_candidate_rejected"] = True
        assert seen == {
            "kinds": {"linear", "rbf", "mlp"},
            "distances": {"l1", "l2"},
            "increment_only": {False, True},
            "lam_positive": {False, True},
            "terminations": set(attack_module.TERMINATIONS),
            "first_candidate_rejected": True,
        }



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
                          bounds=FeatureBounds(0.0, 10.0), mode=mode, mimicry=est)
        x0 = np.array([3.0, 3.0, 3.0])
        assert est.density(x0) > 1e-6  # the KDE term is live
        tr = run_attack(model, spec, x0)
        assert tr.iterations >= 2
        assert model.calls.count("discriminant") == len(f_calls) >= tr.iterations + 1
