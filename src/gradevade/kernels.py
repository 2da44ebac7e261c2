"""Kernel functions and their gradients with respect to the query point."""
from __future__ import annotations

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
        if self.kind == "rbf" and self.gamma <= 0:
            raise ValueError("rbf kernel requires gamma > 0")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial kernel requires degree >= 1")


def _check_dims(x: np.ndarray, xi: np.ndarray):
    if x.shape[-1] != xi.shape[-1]:
        raise ValueError(f"dimension mismatch: {x.shape[-1]} vs {xi.shape[-1]}")


def kernel_row(k: KernelSpec, x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Vector of k(x, basis[i]) over the rows of `basis`."""
    x = np.asarray(x, float)
    _check_dims(x, basis)
    if k.kind == "linear":
        return basis @ x
    if k.kind == "rbf":
        diff = basis - x
        return np.exp(-k.gamma * np.einsum("ij,ij->i", diff, diff))
    return (basis @ x + k.coef0) ** k.degree


def kernel_grad_combination(k: KernelSpec, x: np.ndarray, basis: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_i coefs[i] * grad_x k(x, basis[i]), vectorized over the basis."""
    x = np.asarray(x, float)
    _check_dims(x, basis)
    if k.kind == "linear":
        return coefs @ basis
    if k.kind == "rbf":
        diff = x[None, :] - basis
        w = coefs * np.exp(-k.gamma * np.einsum("ij,ij->i", diff, diff))
        return -2.0 * k.gamma * (w @ diff)
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
