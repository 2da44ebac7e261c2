"""Kernel density estimation over legitimate samples, and its gradient.

The estimator averages exp(-d(x, x_i)/h) over the `truncation_k` reference
points nearest to the query, where d is the Manhattan distance for the
laplacian kernel and the squared euclidean distance for the rbf kernel.
The neighbor set is re-selected at every query, with the same distance.

The laplacian gradient ships in two forms. "corrected" (default) is the
true subgradient, with an elementwise sign(x - x_i) factor and sign(0)=0.
"paper" keeps a raw (x - x_i) factor instead; it reproduces a published
variant of the formula and is selectable for comparison runs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KDE_KERNELS = ("laplacian", "rbf")
GRAD_FORMS = ("corrected", "paper")


@dataclass
class MimicryEstimator:
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
        if self.h <= 0:
            raise ValueError("bandwidth h must be positive")
        if self.truncation_k < 1:
            raise ValueError("truncation_k must be >= 1")
        if self.kernel_kind not in KDE_KERNELS:
            raise ValueError(f"unknown KDE kernel {self.kernel_kind!r}")
        if self.grad_form not in GRAD_FORMS:
            raise ValueError(f"unknown grad_form {self.grad_form!r}")
        self.reference_points = pts
        self._last = None   # (query bytes, (diffs, dists)) of the latest query

    @property
    def n_used(self) -> int:
        """Points per query: min(truncation_k, reference set size)."""
        return min(self.truncation_k, len(self.reference_points))

    def _neighbors(self, x: np.ndarray):
        """(diffs, distances) of the truncation_k nearest reference points.

        The latest query's result is kept, keyed on the query's contents, so
        density(x) followed by density_grad(x) searches once.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.reference_points.shape[1]:
            raise ValueError(
                f"dimension mismatch: query {x.shape[0]}, reference {self.reference_points.shape[1]}"
            )
        key = x.tobytes()
        if self._last is not None and self._last[0] == key:
            return self._last[1]
        diffs = x[None, :] - self.reference_points
        if self.kernel_kind == "laplacian":
            dists = np.abs(diffs).sum(axis=1)
        else:
            dists = np.einsum("ij,ij->i", diffs, diffs)
        k = self.n_used
        if k < len(dists):
            sel = np.argpartition(dists, k - 1)[:k]
            diffs, dists = diffs[sel], dists[sel]
        self._last = (key, (diffs, dists))
        return diffs, dists

    def density(self, x: np.ndarray) -> float:
        """(1/n) sum of exp(-d(x, x_i)/h) over the n nearest reference points."""
        _, dists = self._neighbors(x)
        return float(np.mean(np.exp(-dists / self.h)))

    def density_grad(self, x: np.ndarray) -> np.ndarray:
        """Gradient of density at x; see module docstring for the l1 variants."""
        diffs, dists = self._neighbors(x)
        n = len(dists)
        w = np.exp(-dists / self.h)
        if self.kernel_kind == "rbf":
            return (-2.0 / (n * self.h)) * (w @ diffs)
        factor = np.sign(diffs) if self.grad_form == "corrected" else diffs
        return (-1.0 / (n * self.h)) * (w @ factor)


def lambda_guidance(est: MimicryEstimator, g_range: float) -> float:
    """Smallest mimicry weight making lambda/(n h) match the discriminant range."""
    if g_range <= 0:
        raise ValueError("g_range must be positive")
    return g_range * est.n_used * est.h


@dataclass(frozen=True)
class KdeParams:
    """Estimator settings without a reference set; scenarios bind the points."""

    kernel_kind: str = "laplacian"
    h: float = 10.0
    truncation_k: int = 50
    grad_form: str = "corrected"

    def build(self, reference_points: np.ndarray) -> MimicryEstimator:
        return MimicryEstimator(
            reference_points=reference_points,
            h=self.h,
            kernel_kind=self.kernel_kind,
            truncation_k=self.truncation_k,
            grad_form=self.grad_form,
        )

    @classmethod
    def from_estimator(cls, est: MimicryEstimator) -> "KdeParams":
        return cls(
            kernel_kind=est.kernel_kind,
            h=est.h,
            truncation_k=est.truncation_k,
            grad_form=est.grad_form,
        )
