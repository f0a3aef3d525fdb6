"""Dataset ingestion, the synthetic dual-ambiguity generator and fold bookkeeping.

Interchange format is JSON lines (a line ends at LF alone; a line of JSON
whitespace alone is blank and skipped) with an explicit header record:

    {"schema": "amber-ds-v1", "C": int, "dim_a": int, "dim_t": int, "folds": int}
    {"id": str, "h_a": [...], "h_t": [...], "votes": [int x C]}          # + optional "y"

Fold membership is positional: record i belongs to fold i mod folds. The
generator shuffles samples with its seed before writing, which realizes a
seeded round-robin assignment while keeping the record schema free of any
bookkeeping fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataValidationError

SCHEMA = "amber-ds-v1"

# Format tag of the column cache beside a dataset file (see `load_jsonl`).
# Bump it whenever its layout or the checks a parse makes change, so that no
# sidecar written under the old ones is read.
CACHE_FORMAT = "amber-ds-cache-v4"

# Stored soft labels may disagree with the recomputed vote normalization by
# at most this much before the record is treated as corrupt.
Y_CROSSCHECK_TOL = 1e-6


def _soft_labels(votes: np.ndarray) -> np.ndarray:
    """Rows of vote counts normalized to distributions, y_c = n_c / N.

    The second division renormalizes as a `SoftLabel` does and can move a
    value by an ulp; it stays because it keeps `y`, and with it every report
    and log, byte-identical.
    """
    q = votes / votes.sum(axis=1, keepdims=True)
    return q / q.sum(axis=1, keepdims=True)


@dataclass
class Dataset:
    """Columns of per-sample data; row i belongs to fold i % fold_count.

    Construction checks the partition (1 <= fold_count <= rows: no dataset is empty) and the columns (>= 2 classes
    and >= 1 feature per modality, finite features, non-negative signed-integer votes whose row totals lie in
    [1, 2**63)), then derives `y` (soft labels) from `votes` once. `dataclasses.replace` re-partitions.
    `sha256` is the hex digest of the file `load_jsonl` read the rows from, None for a dataset made in memory.
    """

    ids: np.ndarray
    h_a: np.ndarray
    h_t: np.ndarray
    votes: np.ndarray
    fold_count: int
    sha256: str | None = None

    def __post_init__(self):
        if not len(self.ids) == len(self.h_a) == len(self.h_t) == len(self.votes):
            raise ValueError("dataset columns must have the same number of rows")
        if not 1 <= self.fold_count <= len(self.ids):
            raise ValueError("folds must partition the samples with every fold non-empty")
        if self.n_classes < 2 or self.dim_a < 1 or self.dim_t < 1:
            raise ValueError("a dataset needs >= 2 classes and >= 1 feature per modality")
        if not (np.isfinite(self.h_a).all() and np.isfinite(self.h_t).all()):
            raise ValueError("features must be finite")
        if self.votes.dtype.kind != "i" or not (self.votes >= 0).all():
            raise ValueError("votes must be non-negative integers")
        total = np.zeros(len(self.votes), dtype=np.uint64)  # each vote < 2**63: a total below 2**63 never wraps
        for column in self.votes.T.astype(np.uint64):
            total += column
            if (total >= 2**63).any():
                raise ValueError("a row's vote total must be below 2**63")
        if not (total >= 1).all():
            raise ValueError("every row needs at least one vote")
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


@dataclass
class SynthConfig:
    n_samples: int
    n_classes: int
    dim_a: int = 16
    dim_t: int = 16
    n_raters: int = 10
    ambiguity_alpha: float = 0.7
    conflict_rate: float = 0.3
    noise_sigma: float = 0.5
    seed: int = 0
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

    The per-sample loop makes only the random draws, in the order that fixes
    the output: pi, votes, the conflict coin, the class offset when the coin
    says conflict, then one normal draw for both noise vectors. The cue
    classes and the features are computed for all rows after it.
    """
    rng = np.random.default_rng(cfg.seed)
    anchors_a = class_anchors(rng, cfg.n_classes, cfg.dim_a)
    anchors_t = class_anchors(rng, cfg.n_classes, cfg.dim_t)
    sd_a = cfg.noise_sigma / np.sqrt(cfg.dim_a)
    sd_t = cfg.noise_sigma / np.sqrt(cfg.dim_t)

    n = cfg.n_samples
    pi = np.empty((n, cfg.n_classes))
    votes = np.empty((n, cfg.n_classes), dtype=np.int64)
    offset = np.zeros(n, dtype=np.int64)  # 0: the audio cue agrees with the text cue
    h = np.empty((n, cfg.dim_a + cfg.dim_t))  # [h_a | h_t]: the noise, then the features in place
    h_a, h_t = h[:, :cfg.dim_a], h[:, cfg.dim_a:]
    alpha = np.full(cfg.n_classes, cfg.ambiguity_alpha)
    for i in range(n):
        pi[i] = rng.dirichlet(alpha)
        votes[i] = rng.multinomial(cfg.n_raters, pi[i])
        if rng.random() < cfg.conflict_rate:
            offset[i] = rng.integers(1, cfg.n_classes)
        h[i] = rng.standard_normal(cfg.dim_a + cfg.dim_t)

    c_t = np.argmax(pi, axis=1)
    c_a = (c_t + offset) % cfg.n_classes
    with np.errstate(over="ignore"):  # a feature that overflows is refused by `Dataset` as not finite
        h_a *= sd_a
        h_t *= sd_t
    h_a += anchors_a[c_a]
    h_t += anchors_t[c_t]
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
    """Write `text` to `path`, whole or not at all.

    `text` is bytes, written as they are, or a string or an iterable of
    strings, written in turn as UTF-8. It goes to a temporary file in the
    same directory, which then replaces `path` (`os.replace`). A write that
    fails part-way, an iterable that raises included, leaves `path` as it
    was and removes the temporary file. This guards against a process that
    stops or fails mid-write, not against power loss (no fsync). An
    `OSError` with an errno is raised again naming `path`, not the
    temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(text, bytes):
            with open(tmp, "wb") as fh:
                fh.write(text)
        else:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _decode(data, path=None):
    """UTF-8 `data` as text; a byte that is not UTF-8 raises a `DataValidationError` naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[:exc.start].count(b"\n") + 1
        raise DataValidationError(f"invalid UTF-8 ({exc.reason})", line=line, path=path) from None


def read_json(data, path=None, line=None):
    """The JSON value in `data`, UTF-8 bytes or text: the one JSON reader of every input.

    A fault raises a `DataValidationError` naming `path` and the line where
    the decoder stopped, counted from `line` (the file line `data` is, None
    for a whole file); a literal too long or nesting too deep names `line`.
    """
    text = _decode(data, path) if isinstance(data, bytes) else data
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason, line = exc.msg, (line or 1) + exc.lineno - 1
    except ValueError:  # an integer literal longer than int() converts
        reason = "integer literal too long"
    except RecursionError:
        reason = "nested too deeply"
    raise DataValidationError(f"malformed JSON ({reason})", line=line, path=path) from None


def write_json(path, blob):
    """Write `blob` to `path` as JSON indented by 2 and a newline, through `write_text_atomic`."""
    write_text_atomic(path, json.dumps(blob, indent=2) + "\n")


def check_keys(obj, required=(), optional=(), what="keys"):
    """Raise `ValueError` unless `obj` is a dict holding every key of `required`
    and no key outside `required` and `optional`; `what` names the keys, as in
    "unknown config keys: ['data']"."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object of {what}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ValueError(f"missing {what}: {missing}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"unknown {what}: {unknown}")


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
    """Parse and validate a dataset file; every failure names its line.

    The file is read once and its bytes hashed (sha256). The validated
    columns are cached in a sidecar `.<name>.amber-cache` next to the file,
    keyed by that digest, so a load of unchanged bytes takes the columns
    from there; otherwise the same bytes are parsed. A sidecar that is
    missing, unreadable, keyed to other bytes or failing its checks (see
    `_read_cache`) is ignored and rewritten after the parse; where it cannot
    be written (a read-only directory) the load goes on without it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    cache = Path(path).with_name(f".{Path(path).name}.amber-cache")
    ds = _read_cache(cache, digest)
    if ds is None:
        ds = _parse(data, path, digest)
        try:
            write_text_atomic(cache, _cache_bytes(ds))
        except OSError:
            pass
    return ds


def _parse(data, path, digest):
    """The dataset in `data`, the bytes of `path` whose sha256 is `digest`, checked line by line."""
    text = _decode(data, path)
    if not text:
        raise DataValidationError("empty dataset file", path=path)
    lines = text.split("\n")  # JSON Lines: a "\r" before it is JSON whitespace, so CRLF files load too

    header = _read_object(lines[0], 1, path)
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
    try:
        h_a = np.empty((rows, dim_a))
        h_t = np.empty((rows, dim_t))
        votes = np.empty((rows, n_classes), dtype=np.int64)
    except (ValueError, MemoryError):
        raise DataValidationError("header dimensions too large to allocate", line=1, path=path) from None
    ids = []
    seen_ids = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip(" \t\r"):  # blank: JSON whitespace only; U+00A0, "\v" and the like are not
            continue
        record = _read_object(raw, line_no, path)
        sample_id = _parse_record(record, len(ids), h_a, h_t, votes, line_no, path)
        if sample_id in seen_ids:
            raise DataValidationError(f"duplicate id {sample_id!r}", line=line_no, path=path)
        seen_ids.add(sample_id)
        ids.append(sample_id)

    n = len(ids)
    if n < folds:
        raise DataValidationError(f"{n} records cannot fill {folds} folds", path=path)
    return Dataset(np.array(ids, dtype=object), h_a[:n], h_t[:n], votes[:n], folds, digest)


def _read_object(raw, line_no, path):
    value = read_json(raw, path, line_no)
    if not isinstance(value, dict):
        raise DataValidationError("expected a JSON object", line=line_no, path=path)
    return value


# JSON numbers parse to these types; bool, str, list and None are rejected.
_NUMBER_TYPES = {int, float}
_INT_TYPES = {int}


def _parse_record(record, i, h_a, h_t, votes, line_no, path):
    """Validate one record into row `i` of the given columns; returns its id."""
    sample_id = record.get("id")
    if not isinstance(sample_id, str) or not sample_id:
        raise DataValidationError("missing or invalid 'id'", line=line_no, path=path)
    _fill_numbers(record.get("h_a"), "h_a", h_a, i, line_no, path)
    _fill_numbers(record.get("h_t"), "h_t", h_t, i, line_no, path)

    raw_votes = record.get("votes")
    n_classes = votes.shape[1]
    if not isinstance(raw_votes, list) or len(raw_votes) != n_classes:
        raise DataValidationError(f"'votes' must be a list of length {n_classes}", line=line_no, path=path)
    if not set(map(type, raw_votes)) <= _INT_TYPES or min(raw_votes) < 0:
        raise DataValidationError("'votes' entries must be non-negative integers", line=line_no, path=path)
    total = sum(raw_votes)
    if total < 1:
        raise DataValidationError("invalid votes: at least one rater vote is required", line=line_no, path=path)
    if total >= 2**63:
        raise DataValidationError("invalid votes: the vote total exceeds the int64 range", line=line_no, path=path)
    votes[i] = raw_votes

    if "y" in record:
        stored = np.empty((1, n_classes))
        _fill_numbers(record["y"], "y", stored, 0, line_no, path)
        if np.max(np.abs(stored - _soft_labels(votes[i:i + 1]))) > Y_CROSSCHECK_TOL:
            raise DataValidationError("stored 'y' disagrees with normalized votes", line=line_no, path=path)

    return sample_id


def _fill_numbers(values, key, out, i, line_no, path):
    """Copy `values`, which must be a list of finite JSON numbers, into row `i` of `out`."""
    width = out.shape[1]
    if not isinstance(values, list) or len(values) != width:
        raise DataValidationError(f"'{key}' must be a list of length {width}", line=line_no, path=path)
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise DataValidationError(f"'{key}' entries must be numbers", line=line_no, path=path)
    try:
        finite = all(map(math.isfinite, values))
        out[i] = values
    except OverflowError:  # an integer literal beyond the float range
        finite = False
    if not finite:
        raise DataValidationError(f"non-finite values in '{key}'", line=line_no, path=path)


# ---------------------------------------------------------------------------
# column cache


def _cache_bytes(ds):
    """The sidecar of a dataset parsed from the bytes whose sha256 is `ds.sha256`.

    One JSON header line (no raw newline: `json.dumps` escapes those inside
    ids), then each column's little-endian bytes in C order.
    """
    header = json.dumps({
        "format": CACHE_FORMAT,
        "sha256": ds.sha256,
        "C": ds.n_classes,
        "dim_a": ds.dim_a,
        "dim_t": ds.dim_t,
        "folds": ds.fold_count,
        "ids": ds.ids.tolist(),
    }) + "\n"
    return b"".join([header.encode("ascii"), np.ascontiguousarray(ds.h_a, dtype="<f8"),
                     np.ascontiguousarray(ds.h_t, dtype="<f8"), np.ascontiguousarray(ds.votes, dtype="<i8")])


def _read_cache(cache, digest):
    """The dataset a sidecar holds for the bytes of `digest`, or None.

    The file is read with one `read`. A header of another format, digest or
    key set, dims or folds that are not non-negative integers, ids that are
    not unique non-empty strings, a body of other length than the columns
    need, and columns or folds `Dataset` rejects are each a miss.
    """
    try:
        with open(cache, "rb") as fh:
            data = fh.read()
        end = data.index(b"\n")
        blob = read_json(data[:end])
        check_keys(blob, ("format", "sha256", "C", "dim_a", "dim_t", "folds", "ids"))
    except (OSError, ValueError):  # ValueError: no newline, or a header that is not JSON or has other keys
        return None
    if blob["format"] != CACHE_FORMAT or blob["sha256"] != digest:
        return None
    n_classes, dim_a, dim_t, folds, ids = (blob[key] for key in ("C", "dim_a", "dim_t", "folds", "ids"))
    if any(type(v) is not int or v < 0 for v in (n_classes, dim_a, dim_t, folds)) or not isinstance(ids, list):
        return None
    rows = len(ids)
    if (not set(map(type, ids)) <= {str} or "" in ids or len(set(ids)) != rows
            or len(data) - end - 1 != 8 * rows * (dim_a + dim_t + n_classes)):
        return None
    columns, offset = [], end + 1
    for dtype, width in (("<f8", dim_a), ("<f8", dim_t), ("<i8", n_classes)):
        raw = np.frombuffer(data, dtype=dtype, count=rows * width, offset=offset)
        columns.append(raw.astype(raw.dtype.newbyteorder("=")).reshape(rows, width))  # a writable copy
        offset += raw.nbytes
    try:
        return Dataset(np.array(ids, dtype=object), *columns, folds, digest)
    except ValueError:
        return None
