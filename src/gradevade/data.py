"""Datasets: synthetic PDF generation, file loading, validation, splitting, capping.

Label convention everywhere in this package: -1 is legitimate, +1 is
malicious. Input files carrying {0, 1} labels are remapped on load.
"""
from __future__ import annotations

import csv
import gzip
import struct
from dataclasses import dataclass

import numpy as np

LEGITIMATE = -1
MALICIOUS = +1

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class FeatureBounds:
    """Per-feature box constraints plus the increment-only flag (x0 <= x).

    `lower`/`upper` may be scalars or per-feature arrays. The increment
    constraint is relative to an attack's start point and is enforced by
    the attack engine, not here.
    """

    lower: float | np.ndarray = 0.0
    upper: float | np.ndarray = np.inf
    increment_only: bool = False

    def __post_init__(self):
        lo, hi = np.asarray(self.lower, dtype=float), np.asarray(self.upper, dtype=float)
        if not np.all(lo <= hi):  # NaN fails too
            raise ValueError("FeatureBounds: lower must be <= upper elementwise, and not NaN")


@dataclass
class Dataset:
    """Dense labeled samples: X is (n, d) float64, y is (n,) in {-1, +1}.

    Arrays are frozen after validation; derived datasets are fresh copies,
    so instances are safe to share across workers.
    """

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.int64).reshape(-1)
        if X.ndim != 2 or X.shape[1] == 0:
            raise ValueError(f"X must be 2-D with at least one feature column, got shape {X.shape}")
        if len(y) != X.shape[0]:
            raise ValueError(f"{X.shape[0]} rows but {len(y)} labels")
        if not np.all(np.isfinite(X)):
            bad = int(np.argwhere(~np.isfinite(X).all(axis=1))[0][0])
            raise ValueError(f"non-finite feature value in sample {bad}")
        if not np.all(np.isin(y, (LEGITIMATE, MALICIOUS))):
            bad = int(np.argwhere(~np.isin(y, (LEGITIMATE, MALICIOUS)))[0][0])
            raise ValueError(f"label of sample {bad} is {y[bad]}, expected -1 or +1")
        X.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.X[idx], self.y[idx])  # indexing copies

    def class_counts(self) -> tuple[int, int]:
        """(legitimate count, malicious count)."""
        return int(np.sum(self.y == LEGITIMATE)), int(np.sum(self.y == MALICIOUS))

    def require_both_classes(self):
        n_neg, n_pos = self.class_counts()
        if n_neg == 0 or n_pos == 0:
            raise ValueError("dataset must contain both classes")


def _dataset(path, X: np.ndarray, y: np.ndarray) -> Dataset:
    """Dataset(X, y) of a file's data, naming the file if it is refused."""
    try:
        return Dataset(X, y)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _map_label(raw: float, where: str) -> int:
    if raw == -1:
        return LEGITIMATE
    if raw == 0:
        return LEGITIMATE
    if raw == 1:
        return MALICIOUS
    raise ValueError(f"unknown label value {raw!r} at {where}")


def load_dense_csv(path, label_column: str = "label") -> Dataset:
    """Load a dense CSV of decimal feature values plus one label column.

    A header row is optional; without one the label is taken from the last
    column. Labels may be {-1, +1} or {0, 1} (remapped). Malformed rows are
    reported with their 1-based line number.
    """
    rows = []
    labels = []
    label_idx = None
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1:
                try:
                    [float(c) for c in row]
                except ValueError:
                    names = [c.strip() for c in row]
                    if label_column not in names:
                        raise ValueError(
                            f"header present but no {label_column!r} column in {path}"
                        )
                    label_idx = names.index(label_column)
                    width = len(names)
                    continue
            if width is None:
                width = len(row)
                label_idx = width - 1
            if len(row) != width:
                raise ValueError(f"{path}:{lineno}: row has {len(row)} fields, expected {width}")
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            labels.append(_map_label(values[label_idx], f"{path}:{lineno}"))
            rows.append([v for i, v in enumerate(values) if i != label_idx])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return _dataset(path, np.array(rows), np.array(labels))


def load_sparse_counts(path) -> Dataset:
    """Load `label index:value ...` lines (1-based indices) into dense form."""
    entries = []
    labels = []
    max_idx = 0
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            try:
                labels.append(_map_label(float(parts[0]), f"{path}:{lineno}"))
                pairs = {}
                for tok in parts[1:]:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    if idx < 1:
                        raise ValueError(f"index {idx} is not 1-based")
                    if idx - 1 in pairs:
                        raise ValueError(f"index {idx} given twice")
                    pairs[idx - 1] = float(val_s)
                    max_idx = max(max_idx, idx)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            entries.append(pairs)
    if not entries:
        raise ValueError(f"{path}: no data rows")
    X = np.zeros((len(entries), max_idx))
    for i, pairs in enumerate(entries):
        for j, v in pairs.items():
            X[i, j] = v
    return _dataset(path, X, np.array(labels))


def _read_exact(fh, count: int, path) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise ValueError(f"{path}: truncated payload (wanted {count} bytes, got {len(buf)})")
    return buf


def _open_maybe_gz(path):
    return gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb")


def load_idx_images(images_path, labels_path, class_neg: int, class_pos: int) -> Dataset:
    """Load the big-endian IDX image/label pair, keeping only two digit classes.

    Pixels are scaled to [0, 1] by dividing by 255; `class_pos` maps to +1.
    Transparently handles .gz files.
    """
    if class_neg == class_pos:
        raise ValueError("class_neg and class_pos must differ")
    with _open_maybe_gz(images_path) as fh:
        magic, n_images, n_rows, n_cols = struct.unpack(">IIII", _read_exact(fh, 16, images_path))
        if magic != _IDX_IMAGES_MAGIC:
            raise ValueError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
        pixels = np.frombuffer(
            _read_exact(fh, n_images * n_rows * n_cols, images_path), dtype=np.uint8
        ).reshape(n_images, n_rows * n_cols)
    with _open_maybe_gz(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", _read_exact(fh, 8, labels_path))
        if magic != _IDX_LABELS_MAGIC:
            raise ValueError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
        digits = np.frombuffer(_read_exact(fh, n_labels, labels_path), dtype=np.uint8)
    if n_images != n_labels:
        raise ValueError(f"{n_images} images but {n_labels} labels")
    keep = (digits == class_neg) | (digits == class_pos)
    X = pixels[keep].astype(np.float64) / 255.0
    y = np.where(digits[keep] == class_pos, MALICIOUS, LEGITIMATE)
    return _dataset(images_path, X, y)


def _stratified_quota(class_sizes: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder allocation of `total` over classes, proportional to size."""
    exact = total * class_sizes / class_sizes.sum()
    counts = np.floor(exact).astype(int)
    remainder = total - counts.sum()
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:remainder]] += 1
    return counts


def derive_seeds(words: list[int], n: int = 1, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """`n` 32-bit seeds from numpy's `SeedSequence(words, spawn_key=...)`: the
    package's one seed derivation. `spawn_key=(r,)` gives the state of child r
    of `SeedSequence(words).spawn(...)`, bit for bit."""
    return [int(s) for s in np.random.SeedSequence(words, spawn_key=spawn_key).generate_state(n)]


def split_train_test(ds: Dataset, n_train: int, n_test: int, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint stratified split, deterministic given the seed.

    Class proportions in each part match the input within one sample.
    """
    if n_train + n_test > ds.n:
        raise ValueError(f"need {n_train + n_test} samples, dataset has {ds.n}")
    rng = np.random.default_rng(seed)
    classes = np.array([LEGITIMATE, MALICIOUS])
    sizes = np.array([np.sum(ds.y == c) for c in classes])
    train_quota = _stratified_quota(sizes, n_train)
    test_quota = _stratified_quota(sizes, n_test)
    # A tie in the largest-remainder step can overdraw one class; shift the
    # overdraft to the other class rather than fail.
    for k in range(len(classes)):
        over = train_quota[k] + test_quota[k] - sizes[k]
        if over > 0:
            test_quota[k] -= over
            test_quota[1 - k] += over
    train_idx, test_idx = [], []
    for c, tr, te in zip(classes, train_quota, test_quota):
        members = np.flatnonzero(ds.y == c)
        perm = rng.permutation(members)
        train_idx.extend(perm[:tr])
        test_idx.extend(perm[tr : tr + te])
    return ds.subset(np.sort(train_idx)), ds.subset(np.sort(test_idx))


def cap_features(ds: Dataset, cap: float) -> Dataset:
    """Clamp every feature value to at most `cap` (outlier limiting)."""
    if cap <= 0:
        raise ValueError("cap must be positive")
    return Dataset(np.minimum(ds.X, cap), ds.y.copy())


# ---------------------------------------------------------------------------
# Synthetic keyword-count data for the increment-only protocol.
#
# A stand-in for a real structural-malware corpus: two classes of integer
# count vectors over `dim` keyword features. A block of marker keywords is
# frequent in legitimate files and near-absent in malicious ones; a second
# block is the reverse, with high counts (script-heavy payload keywords);
# the rest is shared background noise. A small slice of the legitimate
# class carries moderate payload-keyword counts too (macro-heavy but
# benign documents), which keeps some legitimate neighbors within reach
# of a bandwidth-10 laplacian density along attack paths. Numbers produced
# here do not reproduce any published corpus results; ordering effects
# (which classifier family resists longest) are the meaningful output.
# ---------------------------------------------------------------------------

N_LEGIT_MARKERS = 10
N_MALWARE_MARKERS = 10
MACRO_FRACTION = 0.15       # share of legitimate files with payload keywords
MACRO_PAYLOAD_SCALE = 0.8   # their payload counts relative to malware
MACRO_MARKER_SCALE = 1.0    # their benign-marker counts relative to plain docs


def synthetic_pdf_dataset(
    n_legit: int = 500,
    n_malicious: int = 500,
    dim: int = 100,
    seed: int = 0,
) -> Dataset:
    """Seeded two-class integer count dataset."""
    if dim < N_LEGIT_MARKERS + N_MALWARE_MARKERS + 1:
        raise ValueError(f"dim must be at least {N_LEGIT_MARKERS + N_MALWARE_MARKERS + 1}")
    rng = np.random.default_rng(seed)
    n_bg = dim - N_LEGIT_MARKERS - N_MALWARE_MARKERS

    legit_marker_rates = rng.uniform(3.0, 8.0, size=N_LEGIT_MARKERS)
    malware_marker_rates = rng.uniform(15.0, 30.0, size=N_MALWARE_MARKERS)
    background_rates = rng.uniform(0.05, 0.3, size=n_bg)

    def draw(n: int, legit_scale: float, malware_scale: float) -> np.ndarray:
        cols = [
            rng.poisson(legit_marker_rates * legit_scale, size=(n, N_LEGIT_MARKERS)),
            rng.poisson(malware_marker_rates * malware_scale, size=(n, N_MALWARE_MARKERS)),
            rng.poisson(background_rates, size=(n, n_bg)),
        ]
        return np.concatenate(cols, axis=1).astype(float)

    n_macro = int(round(MACRO_FRACTION * n_legit))
    X_plain = draw(n_legit - n_macro, 1.0, 0.02)
    X_macro = draw(n_macro, MACRO_MARKER_SCALE, MACRO_PAYLOAD_SCALE)
    X_mal = draw(n_malicious, 0.02, 1.0)
    X = np.concatenate([X_plain, X_macro, X_mal], axis=0)
    y = np.concatenate([-np.ones(n_legit, dtype=int), np.ones(n_malicious, dtype=int)])
    return Dataset(X, y)
