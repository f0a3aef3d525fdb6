"""Probability-distribution primitives shared by the losses and the metric suite.

All divergences here use base-2 logarithms, so Jensen-Shannon divergence is
bounded in [0, 1] and entropy is measured in bits. Zero probabilities follow
the 0 * log 0 := 0 convention via explicit masking; the metric path never
clamps its inputs (clamping exists only inside gradient formulas, see
`autodiff`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Construction renormalizes distributions whose sum drifts by at most this
# much (file-format rounding); larger deviations are treated as corrupt data.
SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RaterVotes:
    """Per-class annotator vote counts for a single sample."""

    counts: np.ndarray
    n_raters: int

    def __init__(self, counts, n_raters=None):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 1 or counts.shape[0] < 2:
            raise ValueError("vote counts must be a 1-D vector with at least 2 classes")
        if np.any(counts < 0):
            raise ValueError("vote counts must be non-negative")
        total = int(counts.sum())
        if n_raters is None:
            n_raters = total
        elif int(n_raters) != total:
            raise ValueError(f"vote counts sum to {total}, expected {n_raters} raters")
        if total < 1:
            raise ValueError("at least one rater vote is required")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n_raters", int(n_raters))

    @property
    def n_classes(self):
        return self.counts.shape[0]


@dataclass(frozen=True)
class SoftLabel:
    """A probability distribution over emotion classes.

    Entries are non-negative and sum to one; inputs whose sum deviates from
    one by at most `SUM_TOLERANCE` are renormalized, anything worse is
    rejected.
    """

    probs: np.ndarray

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if probs.ndim != 1 or probs.shape[0] < 2:
            raise ValueError("a soft label needs a 1-D vector with at least 2 classes")
        if not np.all(np.isfinite(probs)):
            raise ValueError("soft label entries must be finite")
        if np.any(probs < 0):
            raise ValueError("soft label entries must be non-negative")
        total = probs.sum()
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"soft label sums to {total!r}, outside tolerance {SUM_TOLERANCE}")
        probs = probs / total
        object.__setattr__(self, "probs", probs)

    @property
    def n_classes(self):
        return self.probs.shape[0]


def aggregate_votes(votes: RaterVotes) -> SoftLabel:
    """Normalize annotator vote counts into a soft label, y_c = n_c / N."""
    return SoftLabel(votes.counts / votes.n_raters)


def _rows(p) -> np.ndarray:
    """Coerce a vector or row matrix into a 2-D float64 array."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim == 1:
        p = p[np.newaxis, :]
    if p.ndim != 2:
        raise ValueError(f"expected a distribution vector or row matrix, got ndim={p.ndim}")
    return p


def _paired_rows(p, q):
    p, q = _rows(p), _rows(q)
    if p.shape != q.shape:
        raise ValueError(f"distribution shapes differ: {p.shape} vs {q.shape}")
    return p, q


def entropy_bits_rows(p) -> np.ndarray:
    """Row-wise Shannon entropy in bits, -sum p log2 p, with 0 log 0 = 0."""
    p = _rows(p)
    terms = np.where(p > 0, p * np.log2(np.where(p > 0, p, 1.0)), 0.0)
    return -terms.sum(axis=1)


def js_divergence_rows(p, q) -> np.ndarray:
    """Row-wise base-2 Jensen-Shannon divergence.

    JS(p || q) = 0.5 KL(p || m) + 0.5 KL(q || m) with m = (p + q) / 2,
    bounded in [0, 1] because logarithms are base 2.
    """
    p, q = _paired_rows(p, q)
    m = 0.5 * (p + q)
    log_m = np.log2(np.where(m > 0, m, 1.0))

    def half_kl(a):
        return np.where(a > 0, a * (np.log2(np.where(a > 0, a, 1.0)) - log_m), 0.0).sum(axis=1)

    return 0.5 * (half_kl(p) + half_kl(q))


def bhattacharyya_rows(p, q) -> np.ndarray:
    """Row-wise Bhattacharyya coefficient, sum_c sqrt(p_c q_c), in [0, 1]."""
    p, q = _paired_rows(p, q)
    return np.sqrt(p * q).sum(axis=1)


def _vector(p) -> np.ndarray:
    """Validate a single distribution (SoftLabel or 1-D vector)."""
    if not isinstance(p, SoftLabel):
        p = SoftLabel(p)
    return p.probs


def entropy_bits(p) -> float:
    """Shannon entropy of one distribution, in bits."""
    return float(entropy_bits_rows(_vector(p))[0])


def js_divergence(p, q) -> float:
    """Base-2 Jensen-Shannon divergence between two distributions."""
    return float(js_divergence_rows(_vector(p), _vector(q))[0])


def bhattacharyya(p, q) -> float:
    """Bhattacharyya coefficient between two distributions."""
    return float(bhattacharyya_rows(_vector(p), _vector(q))[0])
