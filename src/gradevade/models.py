"""The classifier families linear_svm, svm (rbf) and mlp: training, g(x), and its gradient.

All models expose:
  discriminant(x)      -> float     the raw score g(x)
  discriminant_many(X) -> ndarray   g over the rows of X
  gradient(x)          -> ndarray   exact analytic grad_x g(x)

`SvmModel` is the rbf SVM; the linear SVM is solved on the linear Gram
matrix and folded to a `LinearModel`. g and its gradient are read from a
point state (`point_state`, a `kernels.DistanceState`) that shares one
kernel pass over the support vectors: a fresh one per one-point call, and
one per descent, which scores a candidate from a patch of that pass or a
full pass of its own. The pass keeps x - sv only at an exact point, where
a discrete +1 move patches it in O(N), bit-identical to a full pass;
elsewhere it scores from |x|^2 + |sv|^2 - 2 sv.x with no N x d array.
Linear and MLP models have no point state: a descent calls them per point.

`evading` is the one evasion verdict: g(x) - decision_offset < 0 (a tie or
a NaN score does not evade); `predict` labels -1 there and +1 elsewhere.
The decision offset is 0 for SVM variants and 0.5 for the sigmoid-output
MLP; security evaluation replaces it with an FP-calibrated threshold.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import LEGITIMATE, MALICIOUS, Dataset
from .kernels import Basis, DistanceState, KernelSpec, kernel_grad_combination, kernel_matrix, kernel_row

MODEL_FORMAT_VERSION = "gradevade-model/1"


def _sigmoid(z):
    """1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, without overflow.

    With e = exp(-|z|) <= 1, the numerator max(e, z >= 0) is 1 where
    z >= 0 and e elsewhere (NaN stays NaN).
    """
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def _finite_real(value, name: str):
    """`value` if it is a finite real number; a bool, which JSON `true`
    loads as, is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, not {value!r}")
    return value


@dataclass
class LinearModel:
    w: np.ndarray
    b: float
    decision_offset: float = 0.0

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float).reshape(-1)
        _finite_real(self.b, "b")
        if not np.all(np.isfinite(self.w)):
            raise ValueError("linear model has non-finite parameters")

    def discriminant(self, x: np.ndarray) -> float:
        return float(self.w @ np.asarray(x, float) + self.b)

    def discriminant_many(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.w.copy()


@dataclass
class SvmModel:
    """rbf SVM in dual form: g(x) = sum_i dual_coefs[i] k(x, sv[i]) + b.

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
        if self.kernel.kind != "rbf":
            raise ValueError(f"an svm model takes an rbf kernel, not {self.kernel.kind!r}")
        self.support_vectors = np.asarray(self.support_vectors, dtype=float)
        self.dual_coefs = np.asarray(self.dual_coefs, dtype=float).reshape(-1)
        if self.support_vectors.ndim != 2 or len(self.support_vectors) == 0:
            raise ValueError("support_vectors must be a non-empty 2-D array")
        if len(self.dual_coefs) != len(self.support_vectors):
            raise ValueError("one dual coefficient per support vector required")
        if not (np.all(np.isfinite(self.support_vectors)) and np.all(np.isfinite(self.dual_coefs))):
            raise ValueError("svm model has non-finite support vectors or dual coefficients")
        _finite_real(self.b, "b")
        if not _finite_real(self.C, "C") > 0:
            raise ValueError("C must be positive")
        if np.any(np.abs(self.dual_coefs) > self.C + 1e-9):
            raise ValueError("|alpha_i| exceeds the box constraint C")
        if abs(float(self.dual_coefs.sum())) > 1e-6:
            raise ValueError("dual coefficients do not satisfy sum(alpha_i y_i) = 0")
        self._basis = Basis(self.support_vectors)

    def discriminant(self, x: np.ndarray) -> float:
        return self.point_state(x).value

    def discriminant_many(self, X: np.ndarray) -> np.ndarray:
        return kernel_matrix(self.kernel, X, self.support_vectors) @ self.dual_coefs + self.b

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.point_state(x).grad()

    def point_state(self, x0: np.ndarray) -> _RbfPoint:
        """g and its gradient at x0, as the state a descent from x0 moves."""
        return _RbfPoint(self, x0)


class _RbfPoint(DistanceState):
    """g and grad g at the current point x of a state on an SvmModel, from
    the point's kernel row (`held`), and g at a candidate, whose row is
    kept until `accept`."""

    def __init__(self, model: SvmModel, x0: np.ndarray):
        self.model = model
        super().__init__(model._basis, x0)

    def _read(self, dists: np.ndarray):
        row = kernel_row(self.model.kernel, dists)
        return float(self.model.dual_coefs @ row) + self.model.b, row

    def grad(self) -> np.ndarray:
        m = self.model
        return kernel_grad_combination(m.kernel, self.held, m.dual_coefs, self.x, m.support_vectors, self.diffs)


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
        _finite_real(self.output_bias, "output_bias")

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


def evading(model: TrainedModel, scores: np.ndarray) -> np.ndarray:
    """Where the scores g(x) that `model` gave evade it (the module docstring's verdict)."""
    return scores - model.decision_offset < 0


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Label of each row of X: -1 where it evades (`evading`), else +1."""
    return np.where(evading(model, model.discriminant_many(X)), LEGITIMATE, MALICIOUS)


# ---------------------------------------------------------------------------
# SVM training: SMO with maximal-violating-pair working set selection.
# ---------------------------------------------------------------------------

def _smo_solve(K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-3, max_iter: int | None = None):
    """Solve the soft-margin SVM dual: min 1/2 a'Qa - e'a, 0 <= a <= C, y'a = 0.

    Q_ij = y_i y_j K_ij. Each step picks the maximal violating pair
    (i from I_up maximizing y_t - s_t, j from I_low minimizing it, where
    s_t is the biasless discriminant at sample t) and solves the
    two-variable subproblem exactly. Stops when the KKT violation gap
    drops below `tol`, or after `max_iter` steps (max(20,000, 400 n) by
    default) with the gap still above it. Returns (alpha, b, gap).

    A step t moves alpha_i by y_i t and alpha_j by -y_j t, and grad by
    y * (K[:, i] y_i y_i t - K[:, j] y_j y_j t). With y in {-1, +1} each
    factor y_i only flips a sign, exactly, so grad += y * (K[:, i] t -
    K[:, j] t) has the same bits and needs no y-scaled n x n copy of K.
    """
    n = len(y)
    if max_iter is None:
        max_iter = max(20_000, 400 * n)
    alpha = np.zeros(n)
    # grad of the dual objective: Q alpha - 1; maintained incrementally.
    grad = -np.ones(n)
    yv = y.astype(float)

    def working_sets():  # I_up and I_low at the current alpha
        return (((yv > 0) & (alpha < C - 1e-12)) | ((yv < 0) & (alpha > 1e-12)),
                ((yv < 0) & (alpha < C - 1e-12)) | ((yv > 0) & (alpha > 1e-12)))

    for _ in range(max_iter):
        viol = -yv * grad  # equals y_t - s_t, where s_t is the biasless score
        up, low = working_sets()
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
        alpha[i] += yv[i] * t
        alpha[j] -= yv[j] * t
        grad += yv * (K[:, i] * t - K[:, j] * t)

    viol = -yv * grad
    up, low = working_sets()
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


def train_kernel_svm(train: Dataset, kernel: KernelSpec, C: float, tol: float = 1e-3) -> SvmModel | LinearModel:
    """Soft-margin SVM via SMO, stopped when the KKT violation gap falls below
    `tol` or at `_smo_solve`'s step cap, max(20,000, 400 n) steps, where the
    gap can still exceed `tol`; the model is returned either way.
    On the linear kernel the dual is folded into LinearModel(sum_i a_i y_i x_i, b)."""
    train.require_both_classes()
    if not C > 0:  # NaN fails too
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
    if kernel.kind == "linear":
        return LinearModel(coefs @ sv, b)
    return SvmModel(kernel=kernel, support_vectors=sv, dual_coefs=coefs, b=b, C=C)


# ---------------------------------------------------------------------------
# MLP training: full-batch gradient descent on the logistic loss.
# ---------------------------------------------------------------------------

# Each epoch only checks that the loss is finite. Each of its terms
# softplus(z) - t z has softplus(z) <= |z| + log 2 and |t z| <= |z|, so
# while every |z| is below this bound the n terms sum to less than
# n * 3e150, which cannot overflow for any n < 1e150: the loss is finite.
_LOSS_CHECK_BOUND = 1e150


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
    loss) raises with the offending epoch index, as does a trained network
    whose hidden pre-activations on the training rows are not finite.

    Each epoch is one full-batch step on the logistic loss, whose
    gradients all come from the old weights. The loss is only checked for
    finiteness, so it is computed only in the epochs where some |logit|
    reaches _LOSS_CHECK_BOUND; below it the loss is finite.
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
            H = _sigmoid(X @ V.T + bk)       # (n, m) hidden activations
            z = H @ w + b                    # output logits
            # stable logistic loss: softplus(z) - t z
            finite = np.abs(z).max() < _LOSS_CHECK_BOUND or np.isfinite(
                float(np.mean(np.logaddexp(0.0, z) - t * z))
            )
        if not finite:
            raise RuntimeError(f"MLP training diverged (non-finite loss at epoch {epoch})")
        dz = (_sigmoid(z) - t) / n           # (n,)
        dH = dz[:, None] * w * H * (1.0 - H)
        w -= learning_rate * (H.T @ dz)
        b -= learning_rate * float(dz.sum())
        V -= learning_rate * (dH.T @ X)
        bk -= learning_rate * dH.sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(X @ V.T + bk).all()
    if not finite:
        raise RuntimeError(f"MLP training diverged (non-finite hidden pre-activation after training, epochs={epochs})")
    return MlpModel(hidden_weights=V, hidden_biases=bk, output_weights=w, output_bias=b)


# ---------------------------------------------------------------------------
# Grid cells: one trainable configuration, picklable for worker pools.
# ---------------------------------------------------------------------------

# each model kind -> the ModelSpec fields it reads, the keys of its config entry
MODEL_KEYS = {
    "linear_svm": ("kind", "C"),
    "svm": ("kind", "C", "kernel"),
    "mlp": ("kind", "m", "epochs", "learning_rate"),
}


@dataclass(frozen=True)
class ModelSpec:
    """One point of the classifier grid (kind plus its hyperparameters)."""

    kind: str                      # "linear_svm" | "svm" | "mlp"
    C: float = 1.0
    kernel: KernelSpec = field(default_factory=lambda: KernelSpec("rbf"))  # svm only, always rbf
    m: int = 10
    epochs: int = 2000
    learning_rate: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in MODEL_KEYS):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "svm" and self.kernel.kind != "rbf":
            raise ValueError(f"an svm model takes an rbf kernel, not {self.kernel.kind!r}")
        # `not x > 0` rather than `x <= 0`, so that NaN fails too
        if not self.C > 0:
            raise ValueError("C must be positive")
        if self.C == math.inf:  # a trained svm model refuses it
            raise ValueError("C must be finite")
        if self.m < 1:
            raise ValueError("hidden width m must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")

    def descriptor(self) -> str:
        if self.kind == "linear_svm":
            return f"linear_svm(C={self.C:g})"
        if self.kind == "svm":
            return f"svm(rbf,gamma={self.kernel.gamma:g},C={self.C:g})"
        return f"mlp(m={self.m})"


def train_from_spec(spec: ModelSpec, train: Dataset, seed: int = 0) -> TrainedModel:
    """Train `spec`, a target or an LK surrogate; `seed` draws the MLP's initial weights."""
    if spec.kind == "linear_svm":
        return train_kernel_svm(train, KernelSpec("linear"), C=spec.C)
    if spec.kind == "svm":
        return train_kernel_svm(train, spec.kernel, C=spec.C)
    return train_mlp(train, m=spec.m, epochs=spec.epochs, learning_rate=spec.learning_rate, seed=seed)


# ---------------------------------------------------------------------------
# Serialization: versioned JSON documents.
# ---------------------------------------------------------------------------

_MODEL_KINDS = {"linear": LinearModel, "svm": SvmModel, "mlp": MlpModel}


def save_model(model: TrainedModel, path, trained_on: str | None = None):
    """Write model as JSON, with `trained_on` under that key if given."""
    kind = next((k for k, cls in _MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"unknown model type {type(model).__name__}")
    doc = {"format_version": MODEL_FORMAT_VERSION, "kind": kind}
    for name, value in asdict(model).items():
        doc[name] = value.tolist() if isinstance(value, np.ndarray) else value
    if trained_on is not None:
        doc["trained_on"] = trained_on
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> TrainedModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: corrupted model file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a model file holds a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{path}: model format version {version!r}, expected {MODEL_FORMAT_VERSION!r}")
    kind = doc.get("kind")
    cls = _MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    try:
        args = {f.name: doc[f.name] for f in fields(cls)}
        if cls is SvmModel:
            # files written before the polynomial kernel went also carry degree and coef0
            args["kernel"] = KernelSpec(args["kernel"]["kind"], args["kernel"]["gamma"])
        return cls(**args)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {doc['kind']} model: {type(exc).__name__}: {exc}") from None
