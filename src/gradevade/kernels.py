"""The rbf kernel of `svm` models, its row and gradient at a query point
from that point's distances to the basis (kept by `_DistanceMemo`), and the
Gram matrices SMO solves on: rbf, or linear for a `linear_svm`.

A query's squared distances to the basis rows v come from the expansion
|x|^2 + |v|^2 - 2 v.x, as in the Gram matrix, except in an exact state of
`_DistanceMemo` (integer query and basis within its bound), which keeps
x - v so that +1 steps are patched."""
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


def kernel_grad_combination(k: KernelSpec, row: np.ndarray, coefs: np.ndarray, x: np.ndarray,
                            basis: np.ndarray, diffs: np.ndarray | None = None) -> np.ndarray:
    """sum_i coefs[i] * grad_x k(x, basis[i]) for the rbf kernel, from its
    row at x: -2 gamma sum_i w_i (x - basis[i]) with w = coefs * row, over
    diffs[i] = x - basis[i] where given, else as (sum_i w_i) x - w @ basis."""
    w = coefs * row
    if diffs is not None:
        return -2.0 * k.gamma * (w @ diffs)
    return -2.0 * k.gamma * (w.sum() * x - w @ basis)


_BLOCK = 64  # rows per block of the rbf Gram's temporaries


def _sq_norms(A: np.ndarray) -> np.ndarray:
    """np.sum(A * A, axis=1) without an n x d A * A copy: summed per _BLOCK
    rows, which leaves each row's sum, and so its bits, as they are."""
    out = np.empty(len(A))
    for s in range(0, len(A), _BLOCK):
        out[s:s + _BLOCK] = np.sum(A[s:s + _BLOCK] * A[s:s + _BLOCK], axis=1)
    return out


def _integral(A: np.ndarray, bound: int) -> bool:
    """Whether every entry of the 2-D A is an integer of magnitude at most
    `bound`, tested per _BLOCK rows, without an A-sized temporary."""
    for s in range(0, len(A), _BLOCK):
        block = A[s:s + _BLOCK]
        # the magnitude test first: it fails for inf and NaN
        if not (np.all(np.abs(block) <= bound) and np.all(block == np.round(block))):
            return False
    return True


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
    """The distances of the latest query x of a one-entry memo to each
    basis row (squared euclidean, or Manhattan with `manhattan`), brought to
    each new query by a full pass or, for an exact one-coordinate step, by
    a patch. `diffs`, x - basis[i], is kept for Manhattan and in an exact
    state; otherwise it is None, and the squared euclidean distances come
    from (|x|^2 + |basis[i]|^2) - 2 basis[i].x clamped at 0, in the order
    of operations of `kernel_matrix`.

    A step is patched, not recomputed, when the basis and both queries are
    integer-valued with magnitudes at most `bound`, the largest M with
    d (2M)^2 < 2^53 (the exact state). Every entry of x - basis[i] is then
    an integer of magnitude <= 2M, and each distance, with every partial sum
    of it, is an integer below 2^53: exact in float64 in any summation
    order. Rewriting column j of the differences and adding
    term(new) - term(old) of that column to the distances (term: np.square
    or np.abs) therefore gives the bits of a full pass. `bound` is None for
    a basis that is not integer-valued or exceeds M.
    """

    def __init__(self, basis: np.ndarray, manhattan: bool = False):
        self.basis, self.term = basis, np.abs if manhattan else np.square
        bound = math.isqrt((2**53 - 1) // basis.shape[1]) // 2
        self.bound = bound if _integral(basis, bound) else None
        self.sq_norms = None if manhattan else _sq_norms(basis)  # for the expansion
        self._buf = None     # storage of `diffs`, allocated by the first pass that keeps them
        self.diffs = None
        self.dists = None
        self.key = None      # bytes of the kept query; None while no state is kept
        self.bits = None     # the same bytes as int64 words
        self.exact = False   # whether steps from the kept query can be patched

    def query(self, x: np.ndarray) -> int | None:
        """Bring `dists`, and `diffs` where kept, to the float array x.

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
        exact = self.bound is not None and _integral(x[None], self.bound)
        if exact or self.term is np.abs:
            if self._buf is None:
                self._buf = np.empty_like(self.basis)
            self.diffs = diffs = np.subtract(x, self.basis, out=self._buf)
            self.dists = np.abs(diffs).sum(axis=1) if self.term is np.abs else np.einsum("ij,ij->i", diffs, diffs)
        else:
            self.diffs = None
            dists = self.basis @ x
            dists *= 2.0
            np.subtract(np.sum(x * x) + self.sq_norms, dists, out=dists)
            self.dists = np.maximum(dists, 0.0, out=dists)
        self.key, self.bits = key, np.frombuffer(key, np.int64)
        self.exact = exact
        return None
