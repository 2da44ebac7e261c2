"""Kernel density estimation over legitimate samples, and its gradient.

The estimator averages the laplacian kernel exp(-||x - x_i||_1 / h) over
the `truncation_k` reference points nearest to the query in Manhattan
distance. The neighbor set is re-selected at every query.

The latest query's differences and distances to all N reference points
are kept, with exp(-d/h) of its neighbours, so density and density_grad
at one point share one search, and a discrete +1 move patches the kept
distances in O(N) where that is bit-identical to a full search
(`kernels._DistanceMemo`).

The gradient is the corrected one: the true subgradient, with an
elementwise sign(x - x_i) factor and sign(0) = 0. (A published variant of
the formula keeps the raw x - x_i instead of its sign; it is not offered.)
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .kernels import _SAME_QUERY, _DistanceMemo

# the one accepted value of each setting; the fields stay because configs name them
KDE_KERNELS = ("laplacian",)
GRAD_FORMS = ("corrected",)


@dataclass
class MimicryEstimator:
    """KDE over fixed reference points; the settings are not reassigned after
    construction, since the kept search of the latest query depends on them."""

    reference_points: np.ndarray      # (N, d) samples labeled legitimate
    h: float
    kernel_kind: str = "laplacian"
    truncation_k: int = 50
    grad_form: str = "corrected"

    def __post_init__(self):
        pts = np.asarray(self.reference_points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValueError("reference_points must be a non-empty 2-D array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("reference_points contain non-finite values")
        KdeParams.from_estimator(self)  # checks the settings
        self.reference_points = pts
        # the latest query's x - x_i and Manhattan distances, the signs of
        # each x - x_i, and (signs, exp(-distance/h)) of its nearest points
        self._kept = _DistanceMemo(pts, manhattan=True)
        self._signs = np.empty_like(pts)
        self._near = None

    def _neighbors(self, x: np.ndarray):
        """(sign(x - x_i), exp(-distance/h)) of the truncation_k nearest
        reference points.

        The latest query's result is kept, so density(x) followed by
        density_grad(x) searches once. The distances come from
        `self._kept`, which patches a one-coordinate step where that is
        exact; the kept signs then change in that column only, and the
        neighbours are selected from the same distances as a full search's.
        """
        x = np.asarray(x, dtype=float)
        j = self._kept.query(x)
        if j == _SAME_QUERY:
            return self._near
        cols = slice(None) if j is None else j
        np.sign(self._kept.diffs[:, cols], out=self._signs[:, cols])
        signs, dists = self._signs, self._kept.dists
        k = self.truncation_k
        if k < len(dists):
            sel = np.argpartition(dists, k - 1)[:k]
            signs, dists = signs[sel], dists[sel]
        self._near = (signs, np.exp(-dists / self.h))
        return self._near

    def density(self, x: np.ndarray) -> float:
        """(1/n) sum of exp(-d(x, x_i)/h) over the n nearest reference points."""
        _, w = self._neighbors(x)
        return float(w.sum() / len(w))  # the reduction np.mean makes

    def density_grad(self, x: np.ndarray) -> np.ndarray:
        """-(1/(n h)) sum of exp(-d(x, x_i)/h) sign(x - x_i) over the n nearest."""
        signs, w = self._neighbors(x)
        return (-1.0 / (len(w) * self.h)) * (w @ signs)


@dataclass(frozen=True)
class KdeParams:
    """Estimator settings without a reference set; scenarios bind the points."""

    kernel_kind: str = "laplacian"
    h: float = 10.0
    truncation_k: int = 50
    grad_form: str = "corrected"

    def __post_init__(self):
        if not self.h > 0:  # NaN fails too
            raise ValueError("bandwidth h must be positive")
        if self.truncation_k < 1:
            raise ValueError("truncation_k must be >= 1")
        if self.kernel_kind not in KDE_KERNELS:
            raise ValueError(f"unknown KDE kernel {self.kernel_kind!r}: the KDE is laplacian")
        if self.grad_form not in GRAD_FORMS:
            raise ValueError(f"unknown grad_form {self.grad_form!r}: the KDE gradient is the corrected one")

    def build(self, reference_points: np.ndarray) -> MimicryEstimator:
        return MimicryEstimator(reference_points, **asdict(self))

    @classmethod
    def from_estimator(cls, est: MimicryEstimator) -> "KdeParams":
        return cls(**{f.name: getattr(est, f.name) for f in fields(cls)})
