"""The three classifier families: training, discriminant g(x), and its gradient.

All models expose:
  discriminant(x)      -> float     the raw score g(x)
  discriminant_many(X) -> ndarray   g over the rows of X
  gradient(x)          -> ndarray   exact analytic grad_x g(x)

`predict(model, X)` labels rows by the sign of g(x) - decision_offset,
tie -> +1. The decision offset is 0 for SVM variants and 0.5 for the
sigmoid-output MLP; security evaluation replaces it with an FP-calibrated
threshold.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import LEGITIMATE, MALICIOUS, Dataset
from .kernels import (
    KernelSpec,
    kernel_grad_combination,
    kernel_matrix,
    kernel_row,
)

MODEL_FORMAT_VERSION = "gradevade-model/1"


def _sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LinearModel:
    w: np.ndarray
    b: float
    decision_offset: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float).reshape(-1)
        if not (np.all(np.isfinite(self.w)) and np.isfinite(self.b)):
            raise ValueError("linear model has non-finite parameters")

    @property
    def dim(self) -> int:
        return len(self.w)

    def discriminant(self, x: np.ndarray) -> float:
        return float(self.w @ np.asarray(x, float) + self.b)

    def discriminant_many(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.w.copy()


@dataclass
class SvmModel:
    """Kernel SVM in dual form: g(x) = sum_i dual_coefs[i] k(x, sv[i]) + b.

    dual_coefs[i] is alpha_i * y_i, so |dual_coefs[i]| <= C and the
    coefficients sum to ~0 (equality constraint of the dual).
    """

    kernel: KernelSpec
    support_vectors: np.ndarray
    dual_coefs: np.ndarray
    b: float
    C: float
    decision_offset: float = 0.0

    def __post_init__(self):
        self.support_vectors = np.asarray(self.support_vectors, dtype=float)
        self.dual_coefs = np.asarray(self.dual_coefs, dtype=float).reshape(-1)
        if self.support_vectors.ndim != 2 or len(self.support_vectors) == 0:
            raise ValueError("support_vectors must be a non-empty 2-D array")
        if len(self.dual_coefs) != len(self.support_vectors):
            raise ValueError("one dual coefficient per support vector required")
        if np.any(np.abs(self.dual_coefs) > self.C + 1e-9):
            raise ValueError("|alpha_i| exceeds the box constraint C")
        if abs(float(self.dual_coefs.sum())) > 1e-6:
            raise ValueError("dual coefficients do not satisfy sum(alpha_i y_i) = 0")

    @property
    def dim(self) -> int:
        return self.support_vectors.shape[1]

    def discriminant(self, x: np.ndarray) -> float:
        return float(self.dual_coefs @ kernel_row(self.kernel, np.asarray(x, float), self.support_vectors) + self.b)

    def discriminant_many(self, X: np.ndarray) -> np.ndarray:
        return kernel_matrix(self.kernel, X, self.support_vectors) @ self.dual_coefs + self.b

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return kernel_grad_combination(self.kernel, np.asarray(x, float), self.support_vectors, self.dual_coefs)

    def collapse_linear(self) -> LinearModel:
        """For the linear kernel only: fold the dual form into w = sum a_i y_i x_i."""
        if self.kernel.kind != "linear":
            raise ValueError("only a linear-kernel SVM collapses to a LinearModel")
        return LinearModel(self.dual_coefs @ self.support_vectors, self.b)


@dataclass
class MlpModel:
    """Single hidden layer, sigmoid activations, sigmoid output in (0, 1)."""

    hidden_weights: np.ndarray   # (m, d)
    hidden_biases: np.ndarray    # (m,)
    output_weights: np.ndarray   # (m,)
    output_bias: float
    decision_offset: float = 0.5

    def __post_init__(self):
        self.hidden_weights = np.asarray(self.hidden_weights, dtype=float)
        self.hidden_biases = np.asarray(self.hidden_biases, dtype=float).reshape(-1)
        self.output_weights = np.asarray(self.output_weights, dtype=float).reshape(-1)
        m = self.hidden_weights.shape[0]
        if self.hidden_weights.ndim != 2 or len(self.hidden_biases) != m or len(self.output_weights) != m:
            raise ValueError("inconsistent MLP shapes")
        for arr in (self.hidden_weights, self.hidden_biases, self.output_weights):
            if not np.all(np.isfinite(arr)):
                raise ValueError("MLP has non-finite parameters")

    @property
    def dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def m(self) -> int:
        return self.hidden_weights.shape[0]

    def _forward(self, x: np.ndarray):
        delta = _sigmoid(self.hidden_weights @ x + self.hidden_biases)
        h = float(self.output_weights @ delta + self.output_bias)
        return delta, h

    def discriminant(self, x: np.ndarray) -> float:
        _, h = self._forward(np.asarray(x, float))
        return float(_sigmoid(np.array([h]))[0])

    def discriminant_many(self, X: np.ndarray) -> np.ndarray:
        delta = _sigmoid(X @ self.hidden_weights.T + self.hidden_biases)
        return _sigmoid(delta @ self.output_weights + self.output_bias)

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        delta, h = self._forward(x)
        g = float(_sigmoid(np.array([h]))[0])
        inner = self.output_weights * delta * (1.0 - delta)
        return g * (1.0 - g) * (inner @ self.hidden_weights)


TrainedModel = LinearModel | SvmModel | MlpModel


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Label of each row of X: +1 where g(x) - decision_offset >= 0, else -1."""
    scores = model.discriminant_many(X)
    return np.where(scores - model.decision_offset >= 0, MALICIOUS, LEGITIMATE)


# ---------------------------------------------------------------------------
# SVM training: SMO with maximal-violating-pair working set selection.
# ---------------------------------------------------------------------------

def _smo_solve(K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-3, max_iter: int | None = None):
    """Solve the soft-margin SVM dual: min 1/2 a'Qa - e'a, 0 <= a <= C, y'a = 0.

    Q_ij = y_i y_j K_ij. Each step picks the maximal violating pair
    (i from I_up maximizing y_t - s_t, j from I_low minimizing it, where
    s_t is the biasless discriminant at sample t) and solves the
    two-variable subproblem exactly. Stops when the KKT violation gap
    drops below `tol`. Returns (alpha, b, gap).
    """
    n = len(y)
    if max_iter is None:
        max_iter = max(20_000, 400 * n)
    alpha = np.zeros(n)
    # grad of the dual objective: Q alpha - 1; maintained incrementally.
    grad = -np.ones(n)
    yv = y.astype(float)
    Ky = K * yv[None, :]  # Ky[t, j] = K_tj y_j

    for _ in range(max_iter):
        viol = -yv * grad  # equals y_t - s_t, where s_t is the biasless score
        up = ((yv > 0) & (alpha < C - 1e-12)) | ((yv < 0) & (alpha > 1e-12))
        low = ((yv < 0) & (alpha < C - 1e-12)) | ((yv > 0) & (alpha > 1e-12))
        if not up.any() or not low.any():
            break
        i = int(np.flatnonzero(up)[np.argmax(viol[up])])
        j = int(np.flatnonzero(low)[np.argmin(viol[low])])
        gap = viol[i] - viol[j]
        if gap < tol:
            break
        # step t along d = y_i e_i - y_j e_j preserves y'a = 0; the
        # one-dimensional subproblem has curvature K_ii + K_jj - 2 K_ij
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        t_star = gap / quad if quad > 1e-12 else np.inf
        t_max_i = C - alpha[i] if yv[i] > 0 else alpha[i]
        t_max_j = alpha[j] if yv[j] > 0 else C - alpha[j]
        t = min(t_star, t_max_i, t_max_j)
        if t <= 0:
            break
        d_ai = yv[i] * t
        d_aj = -yv[j] * t
        alpha[i] += d_ai
        alpha[j] += d_aj
        grad += yv * (Ky[:, i] * d_ai + Ky[:, j] * d_aj)

    viol = -yv * grad
    up = ((yv > 0) & (alpha < C - 1e-12)) | ((yv < 0) & (alpha > 1e-12))
    low = ((yv < 0) & (alpha < C - 1e-12)) | ((yv > 0) & (alpha > 1e-12))
    m_up = viol[up].max() if up.any() else -np.inf
    m_low = viol[low].min() if low.any() else np.inf
    free = (alpha > 1e-8) & (alpha < C - 1e-8)
    if free.any():
        b = float(np.mean(viol[free]))
    elif np.isfinite(m_up) and np.isfinite(m_low):
        b = float((m_up + m_low) / 2.0)
    else:
        b = 0.0
    gap = float(m_up - m_low) if np.isfinite(m_up) and np.isfinite(m_low) else 0.0
    return alpha, b, gap


def train_kernel_svm(train: Dataset, kernel: KernelSpec, C: float, tol: float = 1e-3) -> SvmModel:
    """Soft-margin SVM via SMO; KKT violation of the result is below `tol`."""
    train.require_both_classes()
    if C <= 0:
        raise ValueError("C must be positive")
    if np.all(train.X == train.X[0]):
        raise ValueError("degenerate training data: all points identical")
    K = kernel_matrix(kernel, train.X, train.X)
    alpha, b, gap = _smo_solve(K, train.y, C, tol=tol)
    keep = alpha > 1e-10
    if not keep.any():
        # all-zero dual: classes were not pushed apart; keep one flat term
        keep = np.zeros_like(keep)
        keep[0] = True
    sv = train.X[keep].copy()
    coefs = alpha[keep] * train.y[keep]
    # re-center the tiny equality drift from dropping near-zero alphas
    coefs -= coefs.sum() / len(coefs) if abs(coefs.sum()) > 0 else 0.0
    return SvmModel(kernel=kernel, support_vectors=sv, dual_coefs=coefs, b=b, C=C)


def train_linear_svm(train: Dataset, C: float, tol: float = 1e-3) -> LinearModel:
    """Linear soft-margin SVM: SMO on the linear kernel, folded to (w, b)."""
    svm = train_kernel_svm(train, KernelSpec(kind="linear"), C, tol=tol)
    return svm.collapse_linear()


# ---------------------------------------------------------------------------
# MLP training: full-batch gradient descent on the logistic loss.
# ---------------------------------------------------------------------------

def train_mlp(
    train: Dataset,
    m: int,
    epochs: int = 2000,
    learning_rate: float = 1.0,
    seed: int = 0,
) -> MlpModel:
    """Train the single-hidden-layer sigmoid MLP.

    Weights start uniform(-0.5, 0.5) from the given seed; zero epochs
    returns the initialized network unchanged. Divergence (non-finite
    loss) raises with the offending epoch index.
    """
    if m < 1:
        raise ValueError("hidden width m must be >= 1")
    train.require_both_classes()
    rng = np.random.default_rng(seed)
    d = train.dim
    V = rng.uniform(-0.5, 0.5, size=(m, d))
    bk = rng.uniform(-0.5, 0.5, size=m)
    w = rng.uniform(-0.5, 0.5, size=m)
    b = float(rng.uniform(-0.5, 0.5))
    X = train.X
    t = (train.y + 1.0) / 2.0
    n = train.n
    for epoch in range(epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            H = _sigmoid(X @ V.T + bk)      # (n, m)
            z = H @ w + b                    # output logits
            # stable logistic loss: softplus(z) - t z
            loss = float(np.mean(np.logaddexp(0.0, z) - t * z))
        if not np.isfinite(loss):
            raise RuntimeError(f"MLP training diverged (non-finite loss at epoch {epoch})")
        dz = (_sigmoid(z) - t) / n           # (n,)
        gw = H.T @ dz
        gb = float(dz.sum())
        dH = np.outer(dz, w) * H * (1.0 - H)
        gV = dH.T @ X
        gbk = dH.sum(axis=0)
        w -= learning_rate * gw
        b -= learning_rate * gb
        V -= learning_rate * gV
        bk -= learning_rate * gbk
    return MlpModel(hidden_weights=V, hidden_biases=bk, output_weights=w, output_bias=b)


# ---------------------------------------------------------------------------
# Grid cells: one trainable configuration, picklable for worker pools.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One point of the classifier grid (kind plus its hyperparameters)."""

    kind: str                      # "linear_svm" | "svm" | "mlp"
    C: float = 1.0
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("rbf"))
    m: int = 10
    epochs: int = 2000
    learning_rate: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear_svm", "svm", "mlp"):
            raise ValueError(f"unknown model kind {self.kind!r}")

    def descriptor(self) -> str:
        if self.kind == "linear_svm":
            return f"linear_svm(C={self.C:g})"
        if self.kind == "svm":
            k = self.kernel
            if k.kind == "rbf":
                return f"svm(rbf,gamma={k.gamma:g},C={self.C:g})"
            if k.kind == "polynomial":
                return f"svm(poly,p={k.degree},c={k.coef0:g},C={self.C:g})"
            return f"svm(linear,C={self.C:g})"
        return f"mlp(m={self.m})"


def train_from_spec(spec: ModelSpec, train: Dataset, seed: int = 0) -> TrainedModel:
    if spec.kind == "linear_svm":
        return train_linear_svm(train, C=spec.C)
    if spec.kind == "svm":
        return train_kernel_svm(train, spec.kernel, C=spec.C)
    return train_mlp(train, m=spec.m, epochs=spec.epochs, learning_rate=spec.learning_rate, seed=seed)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON documents.
# ---------------------------------------------------------------------------

_MODEL_KINDS = {"linear": LinearModel, "svm": SvmModel, "mlp": MlpModel}


def save_model(model: TrainedModel, path):
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"unknown model type {type(model).__name__}")
    doc = {"format_version": MODEL_FORMAT_VERSION, "kind": kind}
    for name, value in asdict(model).items():
        doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupted model file: {exc}") from None
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: model format version {version!r}, expected {MODEL_FORMAT_VERSION!r}")
    cls = _MODEL_KINDS.get(doc.get("kind"))
    if cls is None:
        raise ValueError(f"{path}: unknown model kind {doc.get('kind')!r}")
    try:
        args = {f.name: doc[f.name] for f in fields(cls)}
        if cls is SvmModel:
            args["kernel"] = KernelSpec(**args["kernel"])
        return cls(**args)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed {doc['kind']} model: {type(exc).__name__}: {exc}") from None
