"""Kernel density estimation over legitimate samples, and its gradient.

The estimator averages the laplacian kernel exp(-||x - x_i||_1 / h) over
the `truncation_k` reference points nearest to the point in Manhattan
distance. The neighbour set is re-selected at every point.

The density and its gradient are read from a point state (`point_state`,
a `kernels.DistanceState`): the point's differences and distances to all
N reference points, the signs of the differences and exp(-d/h) of its
neighbours, so the density and its gradient at one point share one
search. A one-point call reads a fresh state; a descent moves one of its
own, and a discrete +1 move patches the distances in O(N) where that is
bit-identical to a full search.

The gradient is the corrected one: the true subgradient, with an
elementwise sign(x - x_i) factor and sign(0) = 0. (A published variant of
the formula keeps the raw x - x_i instead of its sign; it is not offered.)
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Basis, DistanceState


@dataclass
class MimicryEstimator:
    """KDE over fixed reference points; they are not reassigned after
    construction, since the distance basis is built on them."""

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
        self._basis = Basis(pts, manhattan=True)

    def density(self, x: np.ndarray) -> float:
        """(1/n) sum of exp(-d(x, x_i)/h) over the n nearest reference points."""
        return self.point_state(x).value

    def density_grad(self, x: np.ndarray) -> np.ndarray:
        """-(1/(n h)) sum of exp(-d(x, x_i)/h) sign(x - x_i) over the n nearest."""
        return self.point_state(x).grad()

    def point_state(self, x0: np.ndarray) -> _KdePoint:
        """The density and its gradient at x0, as the state a descent from x0 moves."""
        return _KdePoint(self, x0)


class _KdePoint(DistanceState):
    """The density and its gradient at the current point x of a state, from
    the point's neighbours (`held`) and its own array of the signs of
    x - x_i, built by the first `grad()` and changed in the patched column
    only; and the density at a candidate, whose neighbours are kept until
    `accept`."""

    def __init__(self, est: MimicryEstimator, x0: np.ndarray):
        self.est = est
        super().__init__(est._basis, x0)
        self.signs = None  # a one-point density never reads them

    def _read(self, dists: np.ndarray):
        """The density from the truncation_k nearest reference points, and
        (their indices or None for all, their exp(-distance/h)) as `held`.
        d / -h has the bits of -d / h, without a negation pass."""
        k = self.est.truncation_k
        sel = np.argpartition(dists, k - 1)[:k] if k < len(dists) else None
        w = np.exp((dists if sel is None else dists[sel]) / -self.est.h)
        return float(w.sum() / len(w)), (sel, w)  # the reduction np.mean makes

    def grad(self) -> np.ndarray:
        if self.signs is None:
            self.signs = np.sign(self.diffs)
        sel, w = self.held
        return (-1.0 / (len(w) * self.est.h)) * (w @ (self.signs if sel is None else self.signs[sel]))

    def accept(self) -> int | None:
        j = super().accept()
        if self.signs is not None:
            cols = slice(None) if j is None else j
            np.sign(self.diffs[:, cols], out=self.signs[:, cols])
        return j


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
