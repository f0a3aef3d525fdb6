"""Dataset ingestion, the synthetic dual-ambiguity generator and fold bookkeeping.

Interchange format is JSON lines with an explicit header record:

    {"schema": "amber-ds-v1", "C": int, "dim_a": int, "dim_t": int, "folds": int}
    {"id": str, "h_a": [...], "h_t": [...], "votes": [int x C]}          # + optional "y"

Fold membership is positional: record i belongs to fold i mod folds. The
generator shuffles samples with its seed before writing, which realizes a
seeded round-robin assignment while keeping the record schema free of any
bookkeeping fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataValidationError

SCHEMA = "amber-ds-v1"

# Stored soft labels may disagree with the recomputed vote normalization by
# at most this much before the record is treated as corrupt.
Y_CROSSCHECK_TOL = 1e-6


def _soft_labels(votes: np.ndarray) -> np.ndarray:
    """Rows of vote counts normalized to distributions, y_c = n_c / N.

    The second division repeats the renormalization a `SoftLabel` applies,
    which can move values by an ulp; keeping it keeps labels bit-equal to
    `aggregate_votes`.
    """
    q = votes / votes.sum(axis=1, keepdims=True)
    return q / q.sum(axis=1, keepdims=True)


@dataclass
class Dataset:
    """Columns of per-sample data; row i belongs to fold i % fold_count.

    `y` (soft labels) is derived from `votes` once, at construction.
    """

    ids: np.ndarray
    h_a: np.ndarray
    h_t: np.ndarray
    votes: np.ndarray
    fold_count: int

    def __post_init__(self):
        if self.fold_count < 1:
            raise ValueError("fold_count must be >= 1")
        if not len(self.ids) == len(self.h_a) == len(self.h_t) == len(self.votes):
            raise ValueError("dataset columns must have the same number of rows")
        if 0 < len(self.ids) < self.fold_count:
            raise ValueError("folds must partition the samples with every fold non-empty")
        self.y = _soft_labels(self.votes)

    def __len__(self):
        return len(self.ids)

    @property
    def n_classes(self):
        return self.votes.shape[1]

    @property
    def dim_a(self):
        return self.h_a.shape[1]

    @property
    def dim_t(self):
        return self.h_t.shape[1]

    def matrices(self):
        """The (h_a, h_t, y) matrices."""
        return self.h_a, self.h_t, self.y

    def with_fold_count(self, fold_count: int) -> "Dataset":
        """Re-partition by record order into a different number of folds."""
        if not 1 <= fold_count <= len(self):
            raise ValueError(f"fold_count must be in [1, {len(self)}]")
        return replace(self, fold_count=fold_count)


@dataclass
class SynthConfig:
    n_samples: int
    n_classes: int
    dim_a: int
    dim_t: int
    n_raters: int
    ambiguity_alpha: float
    conflict_rate: float
    noise_sigma: float
    seed: int
    fold_count: int = 5

    def __post_init__(self):
        if self.n_samples < 1 or self.n_classes < 2 or self.dim_a < 1 or self.dim_t < 1:
            raise ValueError("n_samples >= 1, n_classes >= 2 and positive dims required")
        if not 1 <= self.n_raters < 2**63:  # load_jsonl's bound on a vote total
            raise ValueError("n_raters must be in [1, 2**63)")
        # beyond this the Dirichlet draw overflows to an all-zero pi (one-hot votes)
        if not (0 < self.ambiguity_alpha and self.n_classes * self.ambiguity_alpha < 1e300):
            raise ValueError("ambiguity_alpha must be > 0 with n_classes * ambiguity_alpha below 1e300")
        if not 0.0 <= self.conflict_rate <= 1.0:
            raise ValueError("conflict_rate must be in [0, 1]")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")
        if self.fold_count < 1:
            raise ValueError("fold_count must be >= 1")
        if self.n_samples < self.fold_count:
            raise ValueError("need at least one sample per fold")


def class_anchors(rng, n_classes: int, dim: int) -> np.ndarray:
    """Seeded unit-norm anchor vector per class, pairwise distinct."""
    if n_classes > dim:
        raise ValueError(
            f"anchor construction needs n_classes <= dim, got {n_classes} > {dim}"
        )
    anchors = rng.standard_normal((n_classes, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    diffs = anchors[:, None, :] - anchors[None, :, :]
    dist = np.linalg.norm(diffs, axis=2) + np.eye(n_classes)
    if dist.min() < 1e-6:
        raise ValueError("degenerate anchor draw, use a different seed")
    return anchors


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Seeded synthetic dataset with controllable rater and modality ambiguity.

    Per sample: pi ~ Dirichlet(alpha), votes ~ Multinomial(N, pi). The text
    cue class is argmax pi; with probability conflict_rate the audio cue is a
    different class drawn uniformly. Features are the cue-class anchors plus
    Gaussian noise whose expected norm is noise_sigma, so the signal-to-noise
    ratio against the unit-norm anchors does not depend on the feature dims.
    """
    rng = np.random.default_rng(cfg.seed)
    anchors_a = class_anchors(rng, cfg.n_classes, cfg.dim_a)
    anchors_t = class_anchors(rng, cfg.n_classes, cfg.dim_t)
    sd_a = cfg.noise_sigma / np.sqrt(cfg.dim_a)
    sd_t = cfg.noise_sigma / np.sqrt(cfg.dim_t)

    n = cfg.n_samples
    h_a = np.empty((n, cfg.dim_a))
    h_t = np.empty((n, cfg.dim_t))
    votes = np.empty((n, cfg.n_classes), dtype=np.int64)
    alpha = np.full(cfg.n_classes, cfg.ambiguity_alpha)
    for i in range(n):
        pi = rng.dirichlet(alpha)
        votes[i] = rng.multinomial(cfg.n_raters, pi)
        c_t = int(np.argmax(pi))
        c_a = c_t
        if rng.random() < cfg.conflict_rate:
            offset = int(rng.integers(1, cfg.n_classes))
            c_a = (c_t + offset) % cfg.n_classes
        h_a[i] = anchors_a[c_a] + sd_a * rng.standard_normal(cfg.dim_a)
        h_t[i] = anchors_t[c_t] + sd_t * rng.standard_normal(cfg.dim_t)

    order = rng.permutation(n)
    ids = np.array([f"synth-{i:06d}" for i in range(n)], dtype=object)
    return Dataset(ids[order], h_a[order], h_t[order], votes[order], cfg.fold_count)


def fold_split(ds: Dataset, fold: int):
    """(train, val, test) datasets: test = fold k, val = fold k+1 cyclic, train = rest."""
    if ds.fold_count < 3:
        raise ValueError("cross-validation splits need at least 3 folds")
    if not 0 <= fold < ds.fold_count:
        raise ValueError(f"fold must be in [0, {ds.fold_count}), got {fold}")
    folds = np.arange(len(ds)) % ds.fold_count
    val_fold = (fold + 1) % ds.fold_count

    def subset(mask):
        return Dataset(ds.ids[mask], ds.h_a[mask], ds.h_t[mask], ds.votes[mask], 1)

    train = subset((folds != fold) & (folds != val_fold))
    return train, subset(folds == val_fold), subset(folds == fold)


# ---------------------------------------------------------------------------
# JSONL serialization


def write_text_atomic(path, text):
    """Write `text` to `path` as UTF-8, whole or not at all.

    `text` is a string or an iterable of strings, written in turn. It goes
    to a temporary file in the same directory, which then replaces `path`
    (`os.replace`). A write that fails part-way, an iterable that raises
    included, leaves `path` as it was and removes the temporary file. This
    guards against a process that stops or fails mid-write, not against
    power loss (no fsync).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_jsonl(ds: Dataset, path):
    """Write the dataset in record order, atomically; floats round-trip exactly via repr."""
    header = {
        "schema": SCHEMA,
        "C": ds.n_classes,
        "dim_a": ds.dim_a,
        "dim_t": ds.dim_t,
        "folds": ds.fold_count,
    }

    def lines():
        yield json.dumps(header) + "\n"
        for ident, h_a, h_t, votes in zip(ds.ids, ds.h_a.tolist(), ds.h_t.tolist(), ds.votes.tolist()):
            yield json.dumps({"id": ident, "h_a": h_a, "h_t": h_t, "votes": votes}) + "\n"

    write_text_atomic(path, lines())


def load_jsonl(path) -> Dataset:
    """Parse and validate a dataset file; every failure names its line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataValidationError("empty dataset file", path=path)

    header = _parse_json(lines[0], 1, path)
    if header.get("schema") != SCHEMA:
        raise DataValidationError(f"unknown schema {header.get('schema')!r}", line=1, path=path)
    for key in ("C", "dim_a", "dim_t", "folds"):
        if type(header.get(key)) is not int:
            raise DataValidationError(f"bad header: {key!r} must be an integer", line=1, path=path)
    n_classes, dim_a, dim_t, folds = header["C"], header["dim_a"], header["dim_t"], header["folds"]
    if n_classes < 2 or dim_a < 1 or dim_t < 1 or folds < 1:
        raise DataValidationError("header dimensions out of range", line=1, path=path)

    # One row per line at most; blank lines leave unused rows at the end.
    rows = len(lines) - 1
    h_a = np.empty((rows, dim_a))
    h_t = np.empty((rows, dim_t))
    votes = np.empty((rows, n_classes), dtype=np.int64)
    ids = []
    seen_ids = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        record = _parse_json(raw, line_no, path)
        i = len(ids)
        sample_id = _parse_record(record, h_a[i], h_t[i], votes[i], line_no, path)
        if sample_id in seen_ids:
            raise DataValidationError(f"duplicate id {sample_id!r}", line=line_no, path=path)
        seen_ids.add(sample_id)
        ids.append(sample_id)

    n = len(ids)
    if n < folds:
        raise DataValidationError(f"{n} records cannot fill {folds} folds", path=path)
    return Dataset(np.array(ids, dtype=object), h_a[:n], h_t[:n], votes[:n], folds)


def _parse_json(raw, line_no, path):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"malformed JSON ({exc.msg})", line=line_no, path=path) from None
    if not isinstance(value, dict):
        raise DataValidationError("expected a JSON object", line=line_no, path=path)
    return value


# JSON numbers parse to these types; bool, str, list and None are rejected.
_NUMBER_TYPES = {int, float}


def _parse_record(record, h_a, h_t, votes, line_no, path):
    """Validate one record into the given rows; returns its id."""

    def fail(msg):
        raise DataValidationError(msg, line=line_no, path=path)

    sample_id = record.get("id")
    if not isinstance(sample_id, str) or not sample_id:
        fail("missing or invalid 'id'")

    def vector(key, out):
        v = record.get(key)
        if not isinstance(v, list) or len(v) != len(out):
            fail(f"'{key}' must be a list of length {len(out)}")
        if not set(map(type, v)) <= _NUMBER_TYPES:
            fail(f"'{key}' entries must be numbers")
        try:
            out[:] = v
        except OverflowError:  # an integer literal beyond the float range
            fail(f"non-finite values in '{key}'")
        if not np.all(np.isfinite(out)):
            fail(f"non-finite values in '{key}'")

    vector("h_a", h_a)
    vector("h_t", h_t)

    raw_votes = record.get("votes")
    if not isinstance(raw_votes, list) or len(raw_votes) != len(votes):
        fail(f"'votes' must be a list of length {len(votes)}")
    if not set(map(type, raw_votes)) <= {int} or min(raw_votes) < 0:
        fail("'votes' entries must be non-negative integers")
    total = sum(raw_votes)
    if total < 1:
        fail("invalid votes: at least one rater vote is required")
    if total >= 2**63:
        fail("invalid votes: the vote total exceeds the int64 range")
    votes[:] = raw_votes

    if "y" in record:
        stored = np.empty(len(votes))
        vector("y", stored)
        if np.max(np.abs(stored - _soft_labels(votes[np.newaxis])[0])) > Y_CROSSCHECK_TOL:
            fail("stored 'y' disagrees with normalized votes")

    return sample_id
