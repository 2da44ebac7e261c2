"""The rbf kernel of `svm` models, its row and gradient at a point from
that point's distances to the basis, the distances of a descent's current
point as an explicit state (`DistanceState`), and the Gram matrices SMO
solves on: rbf, or linear for a `linear_svm`.

A point's squared distances to the basis rows v come from the expansion
|x|^2 + |v|^2 - 2 v.x, as in the Gram matrix, except in an exact state
(integer point and basis within its bound), which keeps x - v so that a
+1 move is patched."""
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


class DistanceState:
    """The distances from one point x to each basis row v (squared
    euclidean, or Manhattan with `manhattan`), which a descent moves from
    point to point itself.

    `reset(x)` makes a full pass at x. A candidate is scored without moving
    the state: `try_step(j)` gives the distances at x + e_j (a +1 move of
    feature j), `try_point(y)` those at y, and `accept()` moves the state to
    the last candidate tried. `full_pass(x)` is the pass of a one-point
    call. `own_diffs()`, x - v, is kept for Manhattan and in an exact state;
    otherwise it is None, and the squared euclidean distances come from
    (|x|^2 + |v|^2) - 2 v.x clamped at 0, in the order of operations of
    `kernel_matrix`.

    A +1 move is patched, not recomputed, when the basis and both points are
    integer-valued with magnitudes at most `bound`, the largest M with
    d (2M)^2 < 2^53 (the exact state). Every entry of x - v is then an
    integer of magnitude <= 2M, and each distance, with every partial sum
    of it, is an integer below 2^53: exact in float64 in any summation
    order. Column j of x - v goes from c to c + 1, which changes a squared
    distance by (c + 1)^2 - c^2 = c + (c + 1) and a Manhattan one by
    |c + 1| - |c| = +1 for c >= 0 and -1 below, the sign of c: added to the
    distances, each gives the bits of a full pass. A Manhattan pass
    subtracts from x + 0.0, in which -0.0 is +0.0, so that no c is -0.0;
    |x - v| and sign(x - v), all it is read through, are the same.
    `bound` is None for a basis that is not integer-valued or exceeds M.

    Every pass that keeps x - v writes it into one buffer, allocated once
    per state. `diffs` is that buffer while it holds the state's own; after
    a pass at a candidate or a one-point call wrote over them, it is None
    and `own_diffs` recomputes them from x, with the same bits.
    """

    def __init__(self, basis: np.ndarray, manhattan: bool = False):
        self.basis, self.manhattan = basis, manhattan
        bound = math.isqrt((2**53 - 1) // basis.shape[1]) // 2
        self.bound = bound if _integral(basis, bound) else None
        self.sq_norms = None if manhattan else _sq_norms(basis)  # for the expansion
        self._buf = None     # storage of x - v, allocated by the first pass that keeps it
        self._holder = None  # whose x - v the buffer holds: "x", "candidate" or None
        self.x = self.dists = self.diffs = None  # diffs: the buffer while it holds x - v at x
        self.exact = False
        self._patch = None  # the last candidate: (j, new column j of diffs) for a patch,
        self._pass = None   # else (y, exact) of its full pass,
        self._dists = None  # and its distances

    def full_pass(self, x: np.ndarray, exact: bool = False, holder: str | None = None):
        """(distances, diffs or None) at x, keeping diffs for Manhattan or
        where `exact`, in the state's buffer, marked as `holder`'s. Squared
        distances without diffs come from the expansion: in an exact state
        it sums integers below 2^53 as the diffs do, so the two give the
        same bits there."""
        _check_dims(x, self.basis)
        if exact or self.manhattan:
            diffs = self._write_diffs(x, holder)
            dists = np.abs(diffs).sum(axis=1) if self.manhattan else np.einsum("ij,ij->i", diffs, diffs)
            return dists, diffs
        dists = self.basis @ x
        dists *= 2.0
        np.subtract(np.sum(x * x) + self.sq_norms, dists, out=dists)
        return np.maximum(dists, 0.0, out=dists), None

    def _write_diffs(self, x: np.ndarray, holder: str | None) -> np.ndarray:
        if self._buf is None:
            self._buf = np.empty_like(self.basis)
        self._holder = holder
        self.diffs = self._buf if holder == "x" else None
        return np.subtract(x + 0.0 if self.manhattan else x, self.basis, out=self._buf)

    def own_diffs(self) -> np.ndarray | None:
        """x - v at the state's point where it is kept, else None."""
        if self.diffs is None and (self.exact or self.manhattan):
            self._write_diffs(self.x, "x")
        return self.diffs

    def exact_at(self, x: np.ndarray) -> bool:
        """Whether x and the basis make an exact state."""
        return self.bound is not None and _integral(x[None], self.bound)

    def reset(self, x: np.ndarray):
        """Bring the state to x by a full pass."""
        exact = self.exact_at(x)
        self.diffs = None
        self.dists, _ = self.full_pass(x, exact, "x")
        self.x, self.exact = np.array(x, dtype=float), exact

    def try_step(self, j: int) -> np.ndarray:
        """The distances at x + e_j: patched in an exact state while x[j] + 1
        stays within the bound, else by a full pass."""
        if self.exact and self.x[j] + 1.0 <= self.bound:
            old = (self.diffs if self.diffs is not None else self.own_diffs())[:, j]
            col = old + 1.0
            dists = np.copysign(1.0, old) if self.manhattan else old + col
            dists += self.dists
            self._patch, self._dists = (j, col), dists
            return dists
        y = self.x.copy()
        y[j] += 1.0
        return self.try_point(y)

    def try_point(self, y: np.ndarray) -> np.ndarray:
        """The distances at y, by a full pass."""
        exact = self.exact_at(y)
        dists, _ = self.full_pass(y, exact, "candidate")
        self._patch, self._pass, self._dists = None, (y, exact), dists
        return dists

    def accept(self) -> int | None:
        """Move to the last candidate tried. Returns the patched coordinate
        j, or None after a full pass."""
        self.dists = self._dists
        if self._patch is not None:
            j, col = self._patch
            (self.diffs if self.diffs is not None else self.own_diffs())[:, j] = col
            self.x[j] += 1.0
            return j
        y, self.exact = self._pass
        self.x[...] = y
        # the buffer holds the candidate's x - v if it kept them and no later
        # pass wrote over them
        held = self._holder == "candidate" and (self.exact or self.manhattan)
        self._holder, self.diffs = ("x", self._buf) if held else (None, None)
        return None
