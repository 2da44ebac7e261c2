"""Synthetic keyword-count benchmark for the increment-only protocol.

A stand-in for a real structural-malware corpus: two classes of integer
count vectors over `dim` keyword features. A block of marker keywords is
frequent in legitimate files and near-absent in malicious ones; a second
block is the reverse, with high counts (script-heavy payload keywords);
the rest is shared background noise. A small slice of the legitimate
class carries moderate payload-keyword counts too (macro-heavy but
benign documents), which keeps some legitimate neighbors within reach
of a bandwidth-10 laplacian density along attack paths. Numbers produced
here do not reproduce any published corpus results; ordering effects
(which classifier family resists longest) are the meaningful output.
"""
from __future__ import annotations

import numpy as np

from .data import Dataset

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
