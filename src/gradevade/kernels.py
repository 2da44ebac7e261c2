"""Kernel functions and their gradients with respect to the query point."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("linear", "rbf", "polynomial")


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"
    gamma: float = 1.0      # rbf
    degree: int = 2         # polynomial
    coef0: float = 0.0      # polynomial offset

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        # `not a < x < b` rather than `x <= a`, so that NaN fails too
        if self.kind == "rbf" and not 0 < self.gamma < math.inf:
            raise ValueError("rbf kernel requires a finite gamma > 0")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial kernel requires degree >= 1")


def _check_dims(x: np.ndarray, xi: np.ndarray):
    if x.shape[-1] != xi.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {xi.shape[-1]}")


def rbf_row_and_diff(
    gamma: float, x: np.ndarray, basis: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rbf kernel pass at x: the row exp(-gamma ||x - basis[i]||^2), the
    differences x - basis[i], which are all its gradient needs besides, and
    the squared distances ||x - basis[i]||^2 the row exponentiates.

    The differences are written into `out` (shaped like `basis`) if given.
    """
    _check_dims(x, basis)
    diff = np.subtract(x, basis, out=out)
    sq = np.einsum("ij,ij->i", diff, diff)
    return np.exp(-gamma * sq), diff, sq


def rbf_grad_combination(gamma: float, row: np.ndarray, diff: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] * grad_x k(x, basis[i]) from the pass `rbf_row_and_diff` made at x."""
    return -2.0 * gamma * ((coefs * row) @ diff)


def kernel_row(k: KernelSpec, x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Vector of k(x, basis[i]) over the rows of `basis`."""
    x = np.asarray(x, float)
    _check_dims(x, basis)
    if k.kind == "linear":
        return basis @ x
    if k.kind == "rbf":
        return rbf_row_and_diff(k.gamma, x, basis)[0]
    return (basis @ x + k.coef0) ** k.degree


def kernel_grad_combination(k: KernelSpec, x: np.ndarray, basis: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] * grad_x k(x, basis[i]), vectorized over the basis."""
    x = np.asarray(x, float)
    _check_dims(x, basis)
    if k.kind == "linear":
        return coefs @ basis
    if k.kind == "rbf":
        row, diff, _ = rbf_row_and_diff(k.gamma, x, basis)
        return rbf_grad_combination(k.gamma, row, diff, coefs)
    w = coefs * k.degree * (basis @ x + k.coef0) ** (k.degree - 1)
    return w @ basis


def kernel_matrix(k: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j])."""
    _check_dims(A, B)
    G = A @ B.T
    if k.kind == "linear":
        return G
    if k.kind == "polynomial":
        return (G + k.coef0) ** k.degree
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * G
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-k.gamma * sq)


# what `_DistanceMemo.step` returns for the query whose state it keeps
_SAME_QUERY = -1


class _DistanceMemo:
    """x - basis[i] and the distances summed from `term` of them (np.square:
    squared euclidean, np.abs: Manhattan) at the latest query of a one-entry
    memo, with the key that tells a repeated query and an exact one-coordinate
    step apart from a query that needs a full pass.

    A step is patched, not recomputed, when the basis and both queries are
    integer-valued with magnitudes at most `bound`, the largest M with
    d (2M)^2 < 2^53. Every entry of x - basis[i] is then an integer of
    magnitude <= 2M, and each distance, with every partial sum of it, is an
    integer below 2^53: exact in float64 in any summation order. Rewriting
    column j of the differences and adding term(new) - term(old) of that
    column to the distances therefore gives the bits of a full pass. `bound`
    is None for a basis that is not integer-valued or exceeds M.
    """

    def __init__(self, basis: np.ndarray, term):
        self.basis, self.term = basis, term
        bound = math.isqrt((2**53 - 1) // basis.shape[1]) // 2
        # the magnitude test first: it fails for inf and NaN
        integral = np.all(np.abs(basis) <= bound) and np.all(basis == np.round(basis))
        self.bound = bound if integral else None
        self.diffs = np.empty_like(basis)
        self.dists = None
        self.key = None      # bytes of the kept query; None while no state is kept
        self.bits = None     # the same bytes as int64 words
        self.exact = False   # whether steps from the kept query can be patched

    def step(self, x: np.ndarray) -> int | None:
        """Bring the kept state to x where no full pass is needed.

        Returns _SAME_QUERY when x is the kept query, and the coordinate j
        when x is the kept query with x[j] changed and the state was patched
        to x. Returns None when x needs a full pass: the caller writes
        x - basis into `diffs` and hands x and its distances to `keep`.
        """
        key = x.tobytes()
        if key == self.key:
            return _SAME_QUERY
        if self.exact and len(key) == len(self.key):
            # compared bitwise, so that -0.0 and 0.0 differ as in the key
            bits = np.frombuffer(key, np.int64)
            changed = (bits != self.bits).nonzero()[0]
            if len(changed) == 1:
                j = int(changed[0])
                v = float(x[j])
                if v.is_integer() and abs(v) <= self.bound:
                    col = self.diffs[:, j]
                    self.dists -= self.term(col)
                    np.subtract(v, self.basis[:, j], out=col)
                    self.dists += self.term(col)
                    self.key, self.bits = key, bits
                    return j
        self.key, self.exact = None, False  # a full pass that raises leaves nothing kept
        return None

    def keep(self, x: np.ndarray, dists: np.ndarray):
        """Record the full pass at x: `diffs` holds x - basis, `dists` its distances."""
        self.dists = dists
        self.key = x.tobytes()
        self.bits = np.frombuffer(self.key, np.int64)
        self.exact = self.bound is not None and bool(np.all(np.abs(x) <= self.bound) and np.all(x == np.round(x)))
