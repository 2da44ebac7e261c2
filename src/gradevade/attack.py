"""Evasion engine: objective F(x), feasible-set projection, and descent.

Continuous mode follows the projected gradient scheme: step along the
unit gradient of F, project back into {d(x, x0) <= d_max} intersected
with the box (and the increment constraint when set), stop when the
improvement in F stalls below epsilon. Discrete mode moves one feature
by +-1 per iteration, picking the feasible move best aligned with -grad F
that strictly decreases F. Its moves are +-1 from an integer start, so it
tracks the distance from x0 exactly as a running integer sum (l1, or the
squared l2 norm) instead of recomputing it for every candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import FeatureBounds
from .mimicry import MimicryEstimator
from .models import TrainedModel

TERMINATIONS = ("converged", "budget_boundary_converged", "max_iters", "zero_gradient")
_ZERO_GRAD_NORM = 1e-12
_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class DistanceSpec:
    kind: str = "l1"

    def __post_init__(self):
        if self.kind not in ("l1", "l2"):
            raise ValueError(f"unknown distance kind {self.kind!r}")

    def of(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.asarray(a, float) - np.asarray(b, float)
        if self.kind == "l1":
            return float(np.abs(diff).sum())
        return float(np.sqrt(diff @ diff))


@dataclass
class AttackSpec:
    """Everything one evasion run needs besides the model and start point."""

    distance: DistanceSpec = DistanceSpec("l1")
    d_max: float = 0.0
    step_t: float = 1.0
    lam: float = 0.0
    epsilon: float = 1e-9
    max_iters: int = 500
    bounds: FeatureBounds = field(default_factory=FeatureBounds)
    mode: str = "continuous"
    step_norm: str = "l2"
    mimicry: MimicryEstimator | None = None

    def __post_init__(self):
        # `not x >= 0` rather than `x < 0`, so that NaN fails too
        if not self.d_max >= 0:
            raise ValueError("d_max must be nonnegative")
        if not self.step_t > 0:
            raise ValueError("step_t must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.mode not in ("continuous", "discrete"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.step_norm not in ("l1", "l2"):
            raise ValueError(f"unknown step_norm {self.step_norm!r}")
        if not self.lam >= 0:
            raise ValueError("lam must be nonnegative")
        # lam > 0 additionally needs a mimicry estimator, but scenarios bind
        # the estimator after construction; enforced when F is evaluated


@dataclass
class AttackTrace:
    """What one attack run did: every iterate, F at each, and why it stopped.

    points[0] is x0 and points[-1] is x*. F is the attacked model's
    objective (the surrogate's, under LK). Whether a point evades the
    target is not recorded here: `evaluation.trace_profile` scores the
    points on the target.
    """

    points: list
    objective_values: list
    termination: str
    sample_index: int | None = None
    repeat: int | None = None

    @property
    def iterations(self) -> int:
        return len(self.points) - 1

    def distances_from_start(self, dist: DistanceSpec) -> np.ndarray:
        """dist.of(p, points[0]) for every point, bit for bit, in one pass."""
        diff = np.stack(self.points).astype(float, copy=False)
        diff -= diff[0].copy()
        if dist.kind == "l1":
            return np.abs(diff, out=diff).sum(axis=1)
        # stacked vector @ vector reduces like the 1-D `diff @ diff` of `of`
        # (einsum would sum in another order)
        return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


def objective_F(model: TrainedModel, spec: AttackSpec, x: np.ndarray) -> float:
    """g(x) minus lam times the legitimate-class density at x."""
    g = model.discriminant(x)
    if spec.lam == 0.0:
        return g
    if spec.mimicry is None:
        raise ValueError("lam > 0 requires a mimicry estimator")
    return g - spec.lam * spec.mimicry.density(x)


def objective_grad(model: TrainedModel, spec: AttackSpec, x: np.ndarray) -> np.ndarray:
    grad = model.gradient(x)
    if spec.lam == 0.0:
        return grad
    if spec.mimicry is None:
        raise ValueError("lam > 0 requires a mimicry estimator")
    return grad - spec.lam * spec.mimicry.density_grad(x)


def normalize_step(grad: np.ndarray) -> np.ndarray | None:
    """grad scaled to unit l2 norm; None signals a vanishing gradient."""
    norm = float(np.linalg.norm(grad))
    if norm <= _ZERO_GRAD_NORM:
        return None
    return grad / norm


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------

def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of v onto {u : ||u||_1 <= radius}.

    Sort-based soft thresholding: find the shift theta such that
    sum(max(|v| - theta, 0)) = radius and shrink coordinates by it.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    if a.sum() <= radius:
        return np.asarray(v, float).copy()
    if radius == 0.0:
        return np.zeros_like(v, dtype=float)
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, len(u) + 1)
    rho = int(np.nonzero(u - (css - radius) / ks > 0)[0].max())
    theta = (css[rho] - radius) / (rho + 1)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _project_budget(spec: AttackSpec, x0: np.ndarray, p: np.ndarray) -> np.ndarray:
    v = p - x0
    if spec.distance.kind == "l1":
        return x0 + project_l1_ball(v, spec.d_max)
    norm = float(np.linalg.norm(v))
    if norm <= spec.d_max:
        return p.copy()
    if norm == 0.0:
        return x0.copy()
    return x0 + v * (spec.d_max / norm)


def _effective_box(spec: AttackSpec, x0: np.ndarray):
    lo = np.broadcast_to(np.asarray(spec.bounds.lower, float), x0.shape).copy()
    hi = np.broadcast_to(np.asarray(spec.bounds.upper, float), x0.shape).copy()
    if spec.bounds.increment_only:
        lo = np.maximum(lo, x0)
    return lo, hi


def is_feasible(spec: AttackSpec, x0: np.ndarray, x: np.ndarray, tol: float = _FEAS_TOL) -> bool:
    lo, hi = _effective_box(spec, x0)
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        return False
    return spec.distance.of(x, x0) <= spec.d_max + tol


def project_feasible(spec: AttackSpec, x0: np.ndarray, x: np.ndarray, max_rounds: int = 1000) -> np.ndarray:
    """Nearest point (in l2) of the budget ball intersected with the box.

    Dykstra's scheme with correction terms: plain alternation between the
    two exact projectors reaches a feasible point but not generally the
    nearest one, while the corrected iteration converges to the true
    projection for convex sets. A final box-then-ball pass pins exact
    feasibility (shrinking toward x0 never leaves the box, since x0 is
    inside it).
    """
    x0 = np.asarray(x0, float)
    x = np.asarray(x, float)
    lo, hi = _effective_box(spec, x0)
    if np.any(x0 < lo - _FEAS_TOL) or np.any(x0 > hi + _FEAS_TOL):
        raise ValueError("infeasible configuration: x0 violates the bounds")
    # fast paths: the projection onto one set alone is valid whenever it
    # already lands in the other (projection onto a superset that happens
    # to fall inside the subset is the subset projection)
    boxed = np.clip(x, lo, hi)
    if spec.distance.of(boxed, x0) <= spec.d_max:
        return boxed
    balled = _project_budget(spec, x0, x)
    if np.all(balled >= lo) and np.all(balled <= hi):
        return balled
    z = x.copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_rounds):
        y = np.clip(z + p, lo, hi)
        p = z + p - y
        z_new = _project_budget(spec, x0, y + q)
        q = y + q - z_new
        # converged when both projections agree and the cycle is stationary
        # (z alone can stall transiently while the corrections still move)
        if float(np.abs(y - z_new).max()) <= 1e-12 and float(np.abs(z_new - z).max()) <= 1e-12:
            z = z_new
            break
        z = z_new
    return _project_budget(spec, x0, np.clip(z, lo, hi))


# ---------------------------------------------------------------------------
# Descent drivers.
# ---------------------------------------------------------------------------

def _check_start(spec: AttackSpec, x0: np.ndarray):
    if not is_feasible(spec, x0, np.asarray(x0, float)):
        raise ValueError("x0 is not feasible under the given bounds")


def _at_budget(spec: AttackSpec, x0: np.ndarray, x: np.ndarray) -> bool:
    return spec.distance.of(x, x0) >= spec.d_max - _FEAS_TOL


class _TraceBuilder:
    """The iterates of one run and F at each."""

    def __init__(self, x0: np.ndarray, f0: float):
        self.points, self.f_vals = [x0.copy()], [f0]

    def add(self, x: np.ndarray, f: float):
        self.points.append(x)
        self.f_vals.append(f)

    def finish(self, termination: str) -> AttackTrace:
        return AttackTrace(self.points, self.f_vals, termination)


def evade_continuous(model: TrainedModel, spec: AttackSpec, x0: np.ndarray) -> AttackTrace:
    """Projected gradient descent on F from x0 (Algorithm follows module doc)."""
    if spec.mode != "continuous":
        raise ValueError("spec.mode must be 'continuous'")
    x0 = np.asarray(x0, dtype=float)
    _check_start(spec, x0)
    path = _TraceBuilder(x0, objective_F(model, spec, x0))
    termination = "max_iters"
    for _ in range(spec.max_iters):
        x = path.points[-1]
        grad = objective_grad(model, spec, x)
        unit = normalize_step(grad)
        if unit is None:
            termination = "zero_gradient"
            break
        if spec.step_norm == "l1":
            # fix the l1 length of the raw step instead of its l2 length
            step = spec.step_t * grad / float(np.abs(grad).sum())
        else:
            step = spec.step_t * unit
        cand = project_feasible(spec, x0, x - step)
        f_new = objective_F(model, spec, cand)
        if f_new - path.f_vals[-1] > -spec.epsilon:
            # improvement stalled; keep the point only if it still improved
            if f_new < path.f_vals[-1]:
                path.add(cand, f_new)
            termination = "budget_boundary_converged" if _at_budget(spec, x0, path.points[-1]) else "converged"
            break
        path.add(cand, f_new)
    return path.finish(termination)


def evade_discrete(model: TrainedModel, spec: AttackSpec, x0: np.ndarray) -> AttackTrace:
    """Steepest feasible coordinate descent with +-1 moves on integer features."""
    if spec.mode != "discrete":
        raise ValueError("spec.mode must be 'discrete'")
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 != np.round(x0)):
        raise ValueError("discrete mode requires an integer-valued x0")
    _check_start(spec, x0)
    lo, hi = (b.tolist() for b in _effective_box(spec, x0))
    l1 = spec.distance.kind == "l1"
    # x - x0 and its l1 norm or squared l2 norm: integers, so exact in floats
    delta = [0.0] * len(x0)
    dist_sum = 0.0
    path = _TraceBuilder(x0, objective_F(model, spec, x0))
    termination = "max_iters"
    for _ in range(spec.max_iters):
        x = path.points[-1]
        grad = objective_grad(model, spec, x)
        if math.sqrt(grad @ grad) <= _ZERO_GRAD_NORM:  # np.linalg.norm of a vector
            termination = "zero_gradient"
            break
        order = np.argsort(-np.abs(grad), kind="stable").tolist()
        grad = grad.tolist()
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
            nv = float(x[j]) + s
            if nv < lo[j] - _FEAS_TOL or nv > hi[j] + _FEAS_TOL:
                continue
            dj, nd = delta[j], delta[j] + s
            if l1:
                cand_sum = dist_sum - abs(dj) + abs(nd)
                cand_dist = cand_sum
            else:
                cand_sum = dist_sum - dj * dj + nd * nd
                cand_dist = math.sqrt(cand_sum)
            if cand_dist > spec.d_max + _FEAS_TOL:
                budget_blocked = True
                continue
            any_candidate = True
            cand = x.copy()
            cand[j] = nv
            f_new = objective_F(model, spec, cand)
            if f_new < path.f_vals[-1]:
                path.add(cand, f_new)
                delta[j], dist_sum = nd, cand_sum
                accepted = True
                break
        if not accepted:
            if not any_candidate and budget_blocked:
                termination = "budget_boundary_converged"
            else:
                termination = "converged"
            break
    return path.finish(termination)


def run_attack(model: TrainedModel, spec: AttackSpec, x0: np.ndarray) -> AttackTrace:
    """Dispatch on spec.mode."""
    if spec.mode == "discrete":
        return evade_discrete(model, spec, x0)
    return evade_continuous(model, spec, x0)
