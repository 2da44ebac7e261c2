"""The rbf kernel of `svm` models, its row and gradient at a point from
that point's distances to a `Basis`, the distances of a point as a state
that a descent moves (`DistanceState`), and the Gram matrices SMO solves
on: rbf, or linear for a `linear_svm`.

A point's squared distances to the basis rows v come from the expansion
|x|^2 + |v|^2 - 2 v.x, as in the Gram matrix, except at an exact point
(integer point and basis within its bound), where x - v is kept so that a
+1 move is patched. Every pass that keeps x - v allocates its own N x d
array: each state, and each full-pass candidate, such as a continuous KDE
candidate (which no benchmark workload runs)."""
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


class Basis:
    """The rows v that a point's distances are taken to (squared euclidean,
    or Manhattan with `manhattan`), built once per model or estimator.
    `distances(x)` is the one pass at a point x, and it keeps no state.

    `bound` is the largest M with d (2M)^2 < 2^53, or None for rows that
    are not integers of magnitude at most M. An integer x within it makes
    an exact pair with the rows: every entry of x - v is then an integer
    of magnitude <= 2M, and each distance, with every partial sum of it,
    is an integer below 2^53, exact in float64 in any order.
    """

    def __init__(self, rows: np.ndarray, manhattan: bool = False):
        if rows.shape[1] == 0:
            raise ValueError("a basis needs at least one feature column")
        self.rows, self.manhattan = rows, manhattan
        bound = math.isqrt((2**53 - 1) // rows.shape[1]) // 2
        self.bound = bound if _integral(rows, bound) else None
        self.sq_norms = None if manhattan else _sq_norms(rows)  # for the expansion

    def distances(self, x: np.ndarray):
        """(distances, x - v or None, exact) at x, where `exact` says whether
        x and the rows are an exact pair (the class docstring); a fresh
        x - v is kept for Manhattan or an exact pair. Squared distances
        without x - v come from the expansion (|x|^2 + |v|^2) - 2 v.x
        clamped at 0, in the order of operations of `kernel_matrix`; in an
        exact pair it sums integers below 2^53 as x - v does, so the two
        give the same bits there. A Manhattan pass subtracts from x + 0.0,
        in which -0.0 is +0.0, so that no entry of x - v is -0.0; |x - v|
        and sign(x - v), all it is read through, are the same."""
        _check_dims(x, self.rows)
        exact = self.bound is not None and _integral(x[None], self.bound)
        if exact or self.manhattan:
            diffs = np.subtract(x + 0.0 if self.manhattan else x, self.rows)
            dists = np.abs(diffs).sum(axis=1) if self.manhattan else np.einsum("ij,ij->i", diffs, diffs)
            return dists, diffs, exact
        dists = self.rows @ x
        dists *= 2.0
        np.subtract(np.sum(x * x) + self.sq_norms, dists, out=dists)
        return np.maximum(dists, 0.0, out=dists), None, False


class DistanceState:
    """The distances from a point x to the rows of a `Basis`, which a
    descent moves from point to point itself; one state per descent, and a
    fresh one per one-point call. A subclass reads its value from distances
    with `_read(dists) -> (value, held)`, and `held` is what it keeps of
    them; `value` and `held` are those at x.

    The state is built at x0 by a full pass. A candidate is scored without
    moving the state: `try_step(j)` gives the value at x + e_j (a +1 move
    of feature j), `try_point(y)` that at y, a copy of which it keeps, and
    `accept()` moves the state to the last candidate tried. `diffs`, x - v,
    is kept for Manhattan and at an exact point, else it is None.

    At an exact point a +1 move is patched in O(N) while x[j] + 1 stays
    within the bound: column j of x - v goes from c to c + 1, which changes
    a squared distance by (c + 1)^2 - c^2 = c + (c + 1) and a Manhattan one
    by |c + 1| - |c| = +1 for c >= 0 and -1 below, the sign of c; added to
    the distances, each gives the bits of a full pass, and so does c + 1,
    computed with the candidate and written into x - v when it is accepted.
    Any other candidate is a full pass of its own, with its own x - v where
    it keeps them.
    """

    def __init__(self, basis: Basis, x0: np.ndarray):
        self.basis = basis
        self.x = np.array(x0, dtype=float)
        self.dists, self.diffs, self.exact = basis.distances(self.x)
        self.value, self.held = self._read(self.dists)
        # the last candidate: ((j, its column j of x - v) for a patch, or
        # (None, (y, x - v or None, exact)) for a full pass), distances, value, held
        self._next = None

    def _try(self, move, dists: np.ndarray) -> float:
        self._next = move, dists, *self._read(dists)
        return self._next[2]

    def try_step(self, j: int) -> float:
        """The value at x + e_j: patched at an exact point while x[j] + 1
        stays within the bound, else by a full pass."""
        if self.exact and self.x[j] + 1.0 <= self.basis.bound:
            old = self.diffs[:, j]
            col = old + 1.0
            dists = np.copysign(1.0, old) if self.basis.manhattan else old + col
            dists += self.dists
            return self._try((j, col), dists)
        y = self.x.copy()
        y[j] += 1.0
        return self.try_point(y)

    def try_point(self, y: np.ndarray) -> float:
        """The value at y, by a full pass."""
        y = np.array(y, dtype=float)
        dists, diffs, exact = self.basis.distances(y)
        return self._try((None, (y, diffs, exact)), dists)

    def accept(self) -> int | None:
        """Move to the last candidate tried. Returns the patched coordinate
        j, or None after a full pass."""
        (j, new), self.dists, self.value, self.held = self._next
        if j is None:
            self.x, self.diffs, self.exact = new
            return None
        self.diffs[:, j] = new
        self.x[j] += 1.0
        return j
