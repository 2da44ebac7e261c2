"""The rbf kernel of `svm` models, its row and gradient at a query point
from that point's distances to the basis (kept by `_DistanceMemo`), and the
Gram matrices SMO solves on: rbf, or linear for a `linear_svm`."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KERNEL_KINDS = ("linear", "rbf")


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "linear"
    gamma: float = 1.0      # rbf

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        # `not a < x < b` rather than `x <= a`, so that NaN fails too
        if self.kind == "rbf" and not 0 < self.gamma < math.inf:
            raise ValueError("rbf kernel requires a finite gamma > 0")


def _check_dims(x: np.ndarray, xi: np.ndarray):
    if x.shape[-1] != xi.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {xi.shape[-1]}")


def kernel_row(k: KernelSpec, sq_dists: np.ndarray) -> np.ndarray:
    """The rbf row exp(-gamma |x - basis[i]|^2) from the squared distances."""
    return np.exp(-k.gamma * sq_dists)


def kernel_grad_combination(k: KernelSpec, row: np.ndarray, diffs: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] * grad_x k(x, basis[i]) for the rbf kernel, from its
    row at x and diffs[i] = x - basis[i]."""
    return -2.0 * k.gamma * ((coefs * row) @ diffs)


_BLOCK = 64  # rows per block of the rbf Gram's temporaries


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """np.sum(A * A, axis=1) without an n x d A * A copy: summed per _BLOCK
    rows, which leaves each row's sum, and so its bits, as they are."""
    out = np.empty(len(A))
    for s in range(0, len(A), _BLOCK):
        out[s:s + _BLOCK] = np.sum(A[s:s + _BLOCK] * A[s:s + _BLOCK], axis=1)
    return out


def kernel_matrix(k: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(A[i], B[j]) of float64 rows.

    The rbf Gram is built in place in G = A @ B.T, its one n x m array:
    G *= 2, then per _BLOCK rows G = (a + b) - G with a, b the squared row
    norms, then G = max(G, 0), G *= -gamma and G = exp(G). Each entry sees
    the IEEE operations of exp(-gamma * max((a + b) - 2 G, 0)) in that
    order, so its bits are those of the allocating form.
    """
    _check_dims(A, B)
    G = A @ B.T
    if k.kind == "linear":
        return G
    a, b = _sq_norms(A), _sq_norms(B)
    G *= 2.0
    for s in range(0, len(A), _BLOCK):
        np.subtract(a[s:s + _BLOCK, None] + b, G[s:s + _BLOCK], out=G[s:s + _BLOCK])
    np.maximum(G, 0.0, out=G)
    G *= -k.gamma
    return np.exp(G, out=G)


# what `_DistanceMemo.query` returns for the query whose state it keeps
_SAME_QUERY = -1


class _DistanceMemo:
    """x - basis[i] and its distances to x (squared euclidean, or Manhattan
    with `manhattan`) for the latest query of a one-entry memo, brought to
    each new query by a full pass or, for an exact one-coordinate step, by
    a patch.

    A step is patched, not recomputed, when the basis and both queries are
    integer-valued with magnitudes at most `bound`, the largest M with
    d (2M)^2 < 2^53. Every entry of x - basis[i] is then an integer of
    magnitude <= 2M, and each distance, with every partial sum of it, is an
    integer below 2^53: exact in float64 in any summation order. Rewriting
    column j of the differences and adding term(new) - term(old) of that
    column to the distances (term: np.square or np.abs) therefore gives the
    bits of a full pass. `bound` is None for a basis that is not
    integer-valued or exceeds M.
    """

    def __init__(self, basis: np.ndarray, manhattan: bool = False):
        self.basis, self.term = basis, np.abs if manhattan else np.square
        bound = math.isqrt((2**53 - 1) // basis.shape[1]) // 2
        # the magnitude test first: it fails for inf and NaN
        integral = np.all(np.abs(basis) <= bound) and np.all(basis == np.round(basis))
        self.bound = bound if integral else None
        self.diffs = np.empty_like(basis)
        self.dists = None
        self.key = None      # bytes of the kept query; None while no state is kept
        self.bits = None     # the same bytes as int64 words
        self.exact = False   # whether steps from the kept query can be patched

    def query(self, x: np.ndarray) -> int | None:
        """Bring `diffs` and `dists` to the float array x.

        Returns _SAME_QUERY when x is the kept query, the coordinate j when
        x is the kept query with x[j] changed and the state was patched, and
        None after a full pass.
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
        self.key, self.exact = None, False  # a pass that raises leaves nothing kept
        _check_dims(x, self.basis)
        diffs = np.subtract(x, self.basis, out=self.diffs)
        self.dists = np.abs(diffs).sum(axis=1) if self.term is np.abs else np.einsum("ij,ij->i", diffs, diffs)
        self.key, self.bits = key, np.frombuffer(key, np.int64)
        self.exact = self.bound is not None and bool(np.all(np.abs(x) <= self.bound) and np.all(x == np.round(x)))
        return None
