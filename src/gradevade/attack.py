"""Evasion engine: objective F(x), feasible-set projection, and descent.

Distances are l1, the count of added keywords in the source paper's PDF
attack. Continuous mode follows the projected gradient scheme: step along
the gradient of F scaled to l1 length step_t, project back into
{||x - x0||_1 <= d_max} intersected with the box (and the increment
constraint when set), stop when the improvement in F stalls below epsilon.
Discrete mode only inserts: it moves one feature by +1 per iteration,
picking the feasible move best aligned with -grad F that strictly
decreases F. Every move adds exactly 1 to the distance from x0, so the
distance is the trace's iteration count and no candidate's is recomputed.
Its first candidate comes from one argmin; the gradient is sorted only
when that candidate is blocked or rejected.

Both descents score F(x0) with `objective_F`, then move one explicit
state of F from point to point (`_point_F`): F and grad F at the current
point, and F at a candidate, come from the point states that the model
and the KDE make for this descent alone (`point_state`) where they have
one, so a +1 move is scored from an O(N) patch and descents on one model
do not share state. Both check x0 with `_start` and test the gradient with
`_norm`, so both raise on a gradient whose l1 length is not finite.
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
    """The attack's distance: l1, the only kind."""

    kind: str = "l1"

    def __post_init__(self):
        if self.kind != "l1":
            raise ValueError(f"unknown distance kind {self.kind!r}: the attack distance is l1")

    def of(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.abs(np.asarray(a, float) - np.asarray(b, float)).sum())


@dataclass
class AttackSpec:
    """Everything one evasion run needs besides the model and start point.

    `step_norm` is "l1"; discrete mode ignores it and also accepts "l2"."""

    distance: DistanceSpec = DistanceSpec("l1")
    d_max: float = 0.0
    step_t: float = 1.0
    lam: float = 0.0
    epsilon: float = 1e-9
    max_iters: int = 500
    bounds: FeatureBounds = field(default_factory=FeatureBounds)
    mode: str = "continuous"
    step_norm: str = "l1"
    mimicry: MimicryEstimator | None = None

    def __post_init__(self):
        # `not x >= 0` rather than `x < 0`, so that NaN fails too
        if not self.d_max >= 0:
            raise ValueError("d_max must be nonnegative")
        if not 0 < self.step_t < math.inf:
            raise ValueError("step_t must be finite and positive")
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.mode not in ("continuous", "discrete"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.step_norm not in ("l1", "l2"):
            raise ValueError(f"unknown step_norm {self.step_norm!r}")
        if self.mode == "continuous" and self.step_norm != "l1":
            raise ValueError(f"continuous mode takes an l1 step_norm, not {self.step_norm!r}")
        if self.mode == "discrete" and not self.bounds.increment_only:
            raise ValueError("discrete mode makes +1 moves only: it requires bounds.increment_only")
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be nonnegative and finite")
        # lam > 0 additionally needs a mimicry estimator, but each round of
        # `scenario.descent_rounds` binds its own; enforced when F is evaluated


class AttackTrace:
    """What one attack run did: every iterate, F at each, and why it stopped.

    points[0] is x0 and points[-1] is x*. F is the attacked model's
    objective (the surrogate's, under LK). Whether a point evades the
    target is not recorded here: `evaluation.trace_profile` scores the
    points on the target.

    The points live in one float64 (capacity, d) array, and `points` is the
    (n, d) view of the n rows written so far. A caller that adds points
    passes as `capacity` the most points its run can record.
    """

    def __init__(self, points, objective_values: list, termination: str = "max_iters", capacity: int = 0):
        first = np.asarray(points, dtype=float)
        self._rows = np.empty((max(capacity, len(first)), first.shape[1]))
        self._rows[:len(first)] = first
        self._n = len(first)
        self.objective_values = objective_values
        self.termination = termination

    @property
    def points(self) -> np.ndarray:
        return self._rows[:self._n]

    def add(self, x: np.ndarray, f: float):
        self._rows[self._n] = x
        self._n += 1
        self.objective_values.append(f)

    def add_move(self, j: int, v: float, f: float):
        """Add the last point with its coordinate j set to v."""
        self._rows[self._n] = self._rows[self._n - 1]
        self._rows[self._n, j] = v
        self._n += 1
        self.objective_values.append(f)

    @property
    def iterations(self) -> int:
        return self._n - 1


def objective_F(model: TrainedModel, spec: AttackSpec, x: np.ndarray) -> float:
    """g(x) minus lam times the legitimate-class density at x."""
    g = model.discriminant(x)
    if spec.lam == 0.0:
        return g
    if spec.mimicry is None:
        raise ValueError("lam > 0 requires a mimicry estimator")
    return g - spec.lam * spec.mimicry.density(x)


class _OnePoint:
    """The point state of a model without one (linear, MLP, or any model
    with `discriminant` and `gradient`): its one-point calls at each point."""

    def __init__(self, model, x0: np.ndarray):
        self.model, self.x, self._next = model, x0, None

    def grad(self) -> np.ndarray:
        return self.model.gradient(self.x)

    def try_step(self, j: int) -> float:
        y = self.x.copy()
        y[j] += 1.0
        return self.try_point(y)

    def try_point(self, y: np.ndarray) -> float:
        self._next = y
        return self.model.discriminant(y)

    def accept(self):
        self.x = self._next


class _MimicryF:
    """F = g - lam p from the point states of the model (g) and of the KDE (p)."""

    def __init__(self, g, p, lam: float):
        self.g, self.p, self.lam = g, p, lam

    def grad(self) -> np.ndarray:
        return self.g.grad() - self.lam * self.p.grad()

    def try_step(self, j: int) -> float:
        return self.g.try_step(j) - self.lam * self.p.try_step(j)

    def try_point(self, y: np.ndarray) -> float:
        return self.g.try_point(y) - self.lam * self.p.try_point(y)

    def accept(self):
        self.g.accept()
        self.p.accept()


def _point_F(model: TrainedModel, spec: AttackSpec, x0: np.ndarray):
    """The state of F for one descent from x0, which the descent moves: F and
    grad F at its current point x, from `grad()`, and F at a candidate, from
    `try_step(j)` (x + e_j, a +1 move) or `try_point(y)`; neither moves the
    state, and `accept()` moves it to the last candidate scored.

    It is the model's own point state (`point_state`), or `_OnePoint` for a
    model without one, and for lam > 0 that and the KDE's, as `_MimicryF`.
    Each value has the bits of `objective_F` at the same point, and each
    gradient those of grad g - lam grad p."""
    start = getattr(model, "point_state", None)
    g = start(x0) if start is not None else _OnePoint(model, x0)
    return g if spec.lam == 0.0 else _MimicryF(g, spec.mimicry.point_state(x0), spec.lam)


# ---------------------------------------------------------------------------
# Projections.
# ---------------------------------------------------------------------------

def project_l1_ball(v: np.ndarray, radius: float, cap: np.ndarray | float = np.inf) -> np.ndarray:
    """Euclidean projection of v onto {u : ||u||_1 <= radius, |u_i| <= cap_i}.

    A capped soft threshold, u_i = sign(v_i) min(max(|v_i| - theta, 0), cap_i)
    (Duchi et al., ICML 2008; with caps, the continuous quadratic knapsack of
    Kiwiel, Math. Prog. 2008). The l1 norm of u is linear in theta between
    the kinks |v_i| and |v_i| - cap_i, so one stable sort of the positive
    kinks and two cumulative sums find the theta at which it equals radius.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    a = np.abs(v)
    capped = np.minimum(a, cap)
    if capped.sum() <= radius:
        return np.copysign(capped, v)
    if radius == 0.0:
        return np.zeros_like(v, dtype=float)
    # each |v_i| kink adds a unit of slope and its |v_i| - cap_i kink takes it
    # back; the stable sort puts |v_i| kinks first among ties, so the count of
    # units never goes negative
    kinks = np.concatenate([a, a - cap])
    slopes = np.repeat([1.0, -1.0], len(a))
    order = np.argsort(-kinks, kind="stable")
    order = order[kinks[order] > 0]
    kinks, slopes = kinks[order], slopes[order]
    css = np.cumsum(kinks * slopes)
    count = np.cumsum(slopes)
    # the norm is flat below a kink whose count is 0, so theta is never there
    live = count > 0
    kinks, css, count = kinks[live], css[live], count[live]
    # the first kink passes in exact arithmetic; with radius below the rounding
    # unit of max |v_i| none may, and the first kink's theta clears u to 0
    rho = int(np.nonzero(kinks - (css - radius) / count > 0)[0].max(initial=0))
    theta = (css[rho] - radius) / count[rho]
    return np.copysign(np.minimum(np.maximum(a - theta, 0.0), cap), v)


def _start(spec: AttackSpec, x0: np.ndarray):
    """x0 as float64 and the box (lo, hi) of `spec` around it: the bounds,
    with lo raised to x0 under increment_only. Refuses an x0 that is not
    finite or lies more than `_FEAS_TOL` outside the box."""
    x0 = np.asarray(x0, dtype=float)
    lo = np.broadcast_to(np.asarray(spec.bounds.lower, float), x0.shape).copy()
    hi = np.broadcast_to(np.asarray(spec.bounds.upper, float), x0.shape).copy()
    if spec.bounds.increment_only:
        lo = np.maximum(lo, x0)
    if not np.isfinite(x0).all() or np.any(x0 < lo - _FEAS_TOL) or np.any(x0 > hi + _FEAS_TOL):
        raise ValueError("x0 is not feasible under the given bounds")
    return x0, (lo, hi)


def project_feasible(spec: AttackSpec, x0: np.ndarray, x: np.ndarray, box) -> np.ndarray:
    """Nearest point (in l2) of the budget ball intersected with `box`, the
    box that `_start` built for x0 and checked it against.

    The box holds x0, so the projection of v = x - x0 keeps each sign and
    caps each coordinate at the room from x0 to the box on its side: the box
    clip when that is within budget, else the capped soft threshold of
    `project_l1_ball`. The caps are clamped at 0, since `_start` lets x0 sit
    up to `_FEAS_TOL` outside the box.
    """
    lo, hi = box
    boxed = np.clip(x, lo, hi)
    if spec.distance.of(boxed, x0) <= spec.d_max:
        return boxed
    v = x - x0
    cap = np.maximum(np.where(v > 0, hi - x0, x0 - lo), 0.0)
    return x0 + project_l1_ball(v, spec.d_max, cap)


# ---------------------------------------------------------------------------
# Descent drivers.
# ---------------------------------------------------------------------------

def _norm(grad: np.ndarray, k: int) -> float:
    """The l2 norm of grad F at the iterate number k. Refuses a gradient
    whose l1 length is not finite: no step of l1 length step_t scales from it.
    That length overflows only where the norm does, so it is summed only then.
    Neither overflow warns: np.vdot, unlike np.dot, does not check for it."""
    norm = math.sqrt(np.vdot(grad, grad))
    if not math.isfinite(norm):
        with np.errstate(over="ignore"):
            length = np.abs(grad).sum()
        if not math.isfinite(length):
            raise ValueError(f"gradient of F is not finite at iterate {k}")
    return norm


def evade_continuous(model: TrainedModel, spec: AttackSpec, x0: np.ndarray) -> AttackTrace:
    """Projected gradient descent on F from x0 (Algorithm follows module doc)."""
    if spec.mode != "continuous":
        raise ValueError("spec.mode must be 'continuous'")
    x0, box = _start(spec, x0)
    path = AttackTrace([x0], [objective_F(model, spec, x0)], capacity=spec.max_iters + 1)
    state = _point_F(model, spec, x0)
    for _ in range(spec.max_iters):
        grad = state.grad()
        norm = _norm(grad, path.iterations)
        # the l2 norm only tests for zero; the step has l1 length step_t
        if norm <= _ZERO_GRAD_NORM:
            path.termination = "zero_gradient"
            break
        step = spec.step_t * grad / float(np.abs(grad).sum())
        cand = project_feasible(spec, x0, path.points[-1] - step, box)
        f_new = state.try_point(cand)
        if f_new - path.objective_values[-1] > -spec.epsilon:
            # improvement stalled; keep the point only if it still improved
            if f_new < path.objective_values[-1]:
                path.add(cand, f_new)
            at_budget = spec.distance.of(path.points[-1], x0) >= spec.d_max - _FEAS_TOL
            path.termination = "budget_boundary_converged" if at_budget else "converged"
            break
        state.accept()
        path.add(cand, f_new)
    return path


def _later_move(state, x: list, grad: np.ndarray, top: list, f: float):
    """The move of a discrete iterate x whose first candidate, argmin(grad),
    was blocked or rejected: the first later feature j, in the stable order
    of increasing grad over grad[j] < 0 (which puts argmin, the first index
    among ties, first), whose +1 move stays within top[j] and scores F
    below f, as (j, x[j] + 1, F there); None without one."""
    values = grad.tolist()
    for j in np.argsort(grad, kind="stable")[1:].tolist():
        if not values[j] < 0.0:
            return None
        v = x[j] + 1.0
        if v <= top[j]:
            f_new = state.try_step(j)
            if f_new < f:
                return j, v, f_new
    return None


def evade_discrete(model: TrainedModel, spec: AttackSpec, x0: np.ndarray) -> AttackTrace:
    """Steepest feasible coordinate descent with +1 moves on integer features.

    Each iterate takes the first +1 move, in the stable order of increasing
    grad F over the features with grad[j] < 0, that the upper bound allows
    and that strictly decreases F; without one the run ends `converged`.
    The first, argmin(grad F), is tried inline; only when it is blocked or
    rejected does `_later_move` sort the gradient. Every move adds 1 to the
    l1 distance from x0, so that distance is `path.iterations`. Once the
    next move would leave the budget, no move is scored: one vector test
    settles `budget_boundary_converged` if a move the bound allows goes
    against the gradient, else `converged`. An x0 that is not
    integer-valued is refused before `_start` checks it.
    """
    if spec.mode != "discrete":
        raise ValueError("spec.mode must be 'discrete'")
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 != np.round(x0)):
        raise ValueError("discrete mode requires an integer-valued x0")
    x0, (_, hi) = _start(spec, x0)
    # a +1 move from x >= x0 stays above the lower bound, so only hi is tested
    top = (hi + _FEAS_TOL).tolist()
    # x0 and at most one point per move that fits in the budget
    capacity = math.floor(min(spec.d_max + _FEAS_TOL, spec.max_iters)) + 1
    f = objective_F(model, spec, x0)
    path = AttackTrace([x0], [f], capacity=capacity)
    state = _point_F(model, spec, x0)
    x = x0.tolist()  # the current point; k is its index in the trace
    for k in range(spec.max_iters):
        grad = state.grad()
        if _norm(grad, k) <= _ZERO_GRAD_NORM:
            path.termination = "zero_gradient"
            break
        if k + 1.0 > spec.d_max + _FEAS_TOL:
            blocked = np.any((grad < 0.0) & (path.points[-1] + 1.0 <= hi + _FEAS_TOL))
            path.termination = "budget_boundary_converged" if blocked else "converged"
            break
        j = int(grad.argmin())
        if not grad[j] < 0.0:
            path.termination = "converged"
            break
        v = x[j] + 1.0
        f_new = state.try_step(j) if v <= top[j] else math.inf  # inf: blocked
        if not f_new < f:
            move = _later_move(state, x, grad, top, f)
            if move is None:
                path.termination = "converged"
                break
            j, v, f_new = move
        state.accept()
        x[j], f = v, f_new
        path.add_move(j, v, f)
    return path


def run_attack(model: TrainedModel, spec: AttackSpec, x0: np.ndarray) -> AttackTrace:
    """Dispatch on spec.mode."""
    if spec.mode == "discrete":
        return evade_discrete(model, spec, x0)
    return evade_continuous(model, spec, x0)
