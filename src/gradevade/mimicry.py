"""Kernel density estimation over legitimate samples, and its gradient.

The estimator averages the laplacian kernel exp(-||x - x_i||_1 / h) over
the `truncation_k` reference points nearest to the point in Manhattan
distance. The neighbour set is re-selected at every point.

`density` and `density_grad` are stateless one-point calls, each with a
full neighbour search. A descent instead moves one explicit point state
(`point_state`): the point's differences and distances to all N reference
points, the signs of the differences and exp(-d/h) of its neighbours, so
the density and its gradient at one point share one search, and a
discrete +1 move patches the distances in O(N) where that is bit-identical
to a full search (`kernels.DistanceState`).

The gradient is the corrected one: the true subgradient, with an
elementwise sign(x - x_i) factor and sign(0) = 0. (A published variant of
the formula keeps the raw x - x_i instead of its sign; it is not offered.)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import DistanceState


@dataclass
class MimicryEstimator:
    """KDE over fixed reference points; they are not reassigned after
    construction, since the distance state is built on them."""

    reference_points: np.ndarray      # (N, d) samples labeled legitimate
    h: float
    truncation_k: int = 50

    def __post_init__(self):
        pts = np.asarray(self.reference_points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("reference_points must be a non-empty 2-D array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("reference_points contain non-finite values")
        KdeParams(h=self.h, truncation_k=self.truncation_k)  # checks the settings
        self.reference_points = pts
        # a descent's current point: its x - x_i, Manhattan distances, and the
        # signs of each x - x_i, reused by every descent
        self._distances = DistanceState(pts, manhattan=True)
        self._signs = np.empty_like(pts)

    def _near(self, dists: np.ndarray):
        """(indices or None for all, exp(-distance/h), the density) of the
        truncation_k nearest reference points, from their distances. d / -h
        has the bits of -d / h, without a negation pass."""
        k = self.truncation_k
        sel = np.argpartition(dists, k - 1)[:k] if k < len(dists) else None
        w = np.exp((dists if sel is None else dists[sel]) / -self.h)
        return sel, w, float(w.sum() / len(w))  # the reduction np.mean makes

    def _grad(self, signs: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The gradient from sign(x - x_i) and exp(-distance/h) of the nearest."""
        return (-1.0 / (len(w) * self.h)) * (w @ signs)

    def density(self, x: np.ndarray) -> float:
        """(1/n) sum of exp(-d(x, x_i)/h) over the n nearest reference points."""
        dists, _ = self._distances.full_pass(np.asarray(x, dtype=float))
        return self._near(dists)[2]

    def density_grad(self, x: np.ndarray) -> np.ndarray:
        """-(1/(n h)) sum of exp(-d(x, x_i)/h) sign(x - x_i) over the n nearest."""
        dists, diffs = self._distances.full_pass(np.asarray(x, dtype=float))
        sel, w, _ = self._near(dists)
        rows = diffs if sel is None else diffs[sel]  # scratch: no state holds it now
        return self._grad(np.sign(rows, out=rows), w)

    def point_state(self, x0: np.ndarray) -> _KdePoint:
        """The density and its gradient at x0, as the state a descent from x0
        moves. It lives in the estimator's own storage, so an estimator
        serves one descent at a time."""
        return _KdePoint(self, x0)


class _KdePoint:
    """The density and its gradient at the current point of a descent: the
    neighbours of the point, and of the last candidate tried, from the
    distances its `kernels.DistanceState` moves (`try_step`, `try_point`,
    `accept`). The signs of x - x_i change in the patched column only."""

    def __init__(self, est: MimicryEstimator, x0: np.ndarray):
        self.est, self.dist = est, est._distances
        self.dist.reset(x0)
        np.sign(self.dist.diffs, out=est._signs)
        self.near = est._near(self.dist.dists)
        self._next_near = None

    def grad(self) -> np.ndarray:
        sel, w, _ = self.near
        return self.est._grad(self.est._signs if sel is None else self.est._signs[sel], w)

    def try_step(self, j: int) -> float:
        return self._score(self.dist.try_step(j))

    def try_point(self, y: np.ndarray) -> float:
        return self._score(self.dist.try_point(y))

    def _score(self, dists: np.ndarray) -> float:
        """The density at the candidate with these distances, whose
        neighbours are kept."""
        self._next_near = near = self.est._near(dists)
        return near[2]

    def accept(self):
        j = self.dist.accept()
        cols = slice(None) if j is None else j
        np.sign(self.dist.own_diffs()[:, cols], out=self.est._signs[:, cols])
        self.near = self._next_near


@dataclass(frozen=True)
class KdeParams:
    """Estimator settings without a reference set; scenarios bind the points.

    `kernel_kind` and `grad_form` accept one value each; they stay because
    the benchmark workloads name them."""

    kernel_kind: str = "laplacian"
    h: float = 10.0
    truncation_k: int = 50
    grad_form: str = "corrected"

    def __post_init__(self):
        if not self.h > 0:  # NaN fails too
            raise ValueError("bandwidth h must be positive")
        if self.truncation_k < 1:
            raise ValueError("truncation_k must be >= 1")
        if self.kernel_kind != "laplacian":
            raise ValueError(f"unknown KDE kernel {self.kernel_kind!r}: the KDE is laplacian")
        if self.grad_form != "corrected":
            raise ValueError(f"unknown grad_form {self.grad_form!r}: the KDE gradient is the corrected one")

    def build(self, reference_points: np.ndarray) -> MimicryEstimator:
        return MimicryEstimator(reference_points, h=self.h, truncation_k=self.truncation_k)
