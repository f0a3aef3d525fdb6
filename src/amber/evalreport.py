"""Distributional and classification metrics, entropy binning, report emission.

JS and BC are means of the row-wise `distlib` values, sharing one code
path with the losses. R-squared is a pooled goodness-of-fit over every
(sample, class) cell against the class-mean baseline; the reported value is
clamped to [0, 1] while the raw value is kept alongside for audit. Hard
labels come from argmax with ties broken toward the lowest class index, for
predictions and targets alike.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import distlib
from .dataio import write_text_atomic
from .errors import DataValidationError

METRIC_ORDER = ("JS", "BC", "R2", "R2_raw", "F1_macro", "WF1", "ACC")
LOWER_IS_BETTER = ("JS",)

CSV_COLUMNS = ("system", "fold", "seed", "bin", "metric", "value", "mean", "std")


@dataclass
class EvalReport:
    """Metrics of one system evaluation, with the entropy-binned breakdown."""

    system: str
    fold: object
    seed: object
    metrics: dict
    bins: list = field(default_factory=list)
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, blob):
        return cls(
            system=blob["system"],
            fold=blob["fold"],
            seed=blob["seed"],
            metrics=blob["metrics"],
            bins=blob.get("bins", []),
            provenance=blob.get("provenance", {}),
        )


def _as_matrices(preds, targets):
    """(p, y): two array-like (n, C) matrices of distributions as float64.

    Rows are checked as a `SoftLabel` checks one: finite, non-negative and
    summing to one within `distlib.SUM_TOLERANCE`. Both must have the same
    non-empty shape. Each public entry point checks once, then works on the
    checked matrices.
    """
    p, y = np.asarray(preds, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    for m in (p, y):
        if m.ndim != 2:
            raise ValueError(f"expected an (n, C) matrix of distributions, got ndim={m.ndim}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("distribution entries must be finite and non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > distlib.SUM_TOLERANCE):
            raise ValueError(f"distribution rows must sum to one within {distlib.SUM_TOLERANCE}")
    if p.shape != y.shape or p.shape[0] < 1:
        raise ValueError(f"prediction/target shapes differ: {p.shape} vs {y.shape}")
    return p, y


def dist_metrics(preds, targets) -> dict:
    """JS / BC / R2 over a split; R2 is missing when all targets coincide.

    JS and BC are row means over renormalized rows, equal to the means of
    `distlib.js_divergence` / `distlib.bhattacharyya` per sample.
    """
    return _dist_metrics(*_as_matrices(preds, targets))


def _dist_metrics(p, y):
    p_norm = p / p.sum(axis=1, keepdims=True)
    y_norm = y / y.sum(axis=1, keepdims=True)
    js = float(distlib.js_divergence_rows(p_norm, y_norm).mean())
    bc = float(distlib.bhattacharyya_rows(p_norm, y_norm).mean())
    y_bar = y.mean(axis=0)
    ss_tot = float(((y - y_bar) ** 2).sum())
    if ss_tot == 0.0:
        r2_raw, r2 = None, None
    else:
        r2_raw = 1.0 - float(((y - p) ** 2).sum()) / ss_tot
        r2 = min(max(r2_raw, 0.0), 1.0)
    return {"JS": js, "BC": bc, "R2": r2, "R2_raw": r2_raw}


def cls_metrics(preds, targets) -> dict:
    """Macro-F1, support-weighted F1 and accuracy on argmax labels.

    Classes absent from both targets and predictions contribute F1 = 0 to
    the macro average and zero weight to the weighted one.
    """
    return _cls_metrics(*_as_matrices(preds, targets))


def _cls_metrics(p, y):
    n_classes = y.shape[1]
    p_hat = np.argmax(p, axis=1)
    y_hat = np.argmax(y, axis=1)

    f1 = np.zeros(n_classes)
    support = np.zeros(n_classes)
    for c in range(n_classes):
        tp = int(np.sum((p_hat == c) & (y_hat == c)))
        fp = int(np.sum((p_hat == c) & (y_hat != c)))
        fn = int(np.sum((p_hat != c) & (y_hat == c)))
        support[c] = tp + fn
        if 2 * tp + fp + fn > 0:
            f1[c] = 2.0 * tp / (2 * tp + fp + fn)

    acc = float(np.mean(p_hat == y_hat))
    macro = float(f1.mean())
    wf1 = float((f1 * support).sum() / support.sum()) if support.sum() > 0 else 0.0
    return {"F1_macro": macro, "WF1": wf1, "ACC": acc}


def all_metrics(preds, targets) -> dict:
    return _all_metrics(*_as_matrices(preds, targets))


def _all_metrics(p, y):
    return {**_dist_metrics(p, y), **_cls_metrics(p, y)}


def bin_edges(n_classes: int, n_bins: int) -> np.ndarray:
    return np.linspace(0.0, np.log2(n_classes), n_bins + 1)


def assign_bin(entropy, edges: np.ndarray):
    """Equal-width entropy bin of one entropy or of each in an array; boundaries go to the lower bin."""
    h = np.clip(entropy, edges[0], edges[-1])
    return np.maximum(np.searchsorted(edges, h, side="left") - 1, 0)


def ambiguity_bins(preds, targets, n_bins: int = 4) -> list:
    """Per-bin metric rows stratified by target-label entropy (in bits)."""
    if n_bins < 2:
        raise ValueError("need at least 2 ambiguity bins")
    p, y = _as_matrices(preds, targets)
    edges = bin_edges(y.shape[1], n_bins)
    membership = assign_bin(distlib.entropy_bits_rows(y), edges)

    rows = []
    for b in range(n_bins):
        mask = membership == b
        count = int(mask.sum())
        row = {"bin": b, "lo": float(edges[b]), "hi": float(edges[b + 1]), "count": count}
        row["metrics"] = _all_metrics(p[mask], y[mask]) if count else None
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# aggregation and emission


def _stats(values) -> dict:
    return {"mean": float(np.mean(values)), "std": float(np.std(values)), "n": len(values)}


def aggregate(reports) -> dict:
    """Mean/std (population) per metric over runs, overall and per bin."""
    if not reports:
        raise ValueError("nothing to aggregate")
    metrics = {}
    for name in METRIC_ORDER:
        values = [r.metrics[name] for r in reports if r.metrics.get(name) is not None]
        if values:
            metrics[name] = _stats(values)
    bins = []
    n_bins = max((len(r.bins) for r in reports), default=0)
    for b in range(n_bins):
        cell = {"bin": b, "count": 0, "metrics": {}}
        per_run = [r.bins[b] for r in reports if len(r.bins) > b]
        if per_run:
            cell["lo"] = per_run[0]["lo"]
            cell["hi"] = per_run[0]["hi"]
        cell["count"] = int(sum(row["count"] for row in per_run))
        for name in METRIC_ORDER:
            values = [
                row["metrics"][name]
                for row in per_run
                if row["metrics"] is not None and row["metrics"].get(name) is not None
            ]
            if values:
                cell["metrics"][name] = _stats(values)
        bins.append(cell)
    return {"metrics": metrics, "bins": bins}


def _fmt(x):
    return "" if x is None else repr(float(x))


def _order_key(value):
    text = str(value)
    return (0, int(text), "") if text.lstrip("-").isdigit() else (1, 0, text)


def csv_text(header, rows) -> str:
    """Rows as CSV text with "\n" line ends, quoting only where needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_csv(reports, summary) -> str:
    rows = []
    for r in sorted(reports, key=lambda r: (str(r.system), _order_key(r.fold), _order_key(r.seed))):
        for name in METRIC_ORDER:
            if r.metrics.get(name) is None:
                continue
            rows.append([r.system, r.fold, r.seed, "all", name, _fmt(r.metrics[name]), "", ""])
        for row in r.bins:
            rows.append([r.system, r.fold, r.seed, row["bin"], "count", row["count"], "", ""])
            if row["metrics"] is None:
                continue
            for name in METRIC_ORDER:
                if row["metrics"].get(name) is None:
                    continue
                rows.append(
                    [r.system, r.fold, r.seed, row["bin"], name, _fmt(row["metrics"][name]), "", ""]
                )
    system = reports[0].system if reports else ""
    for name, cell in summary["metrics"].items():
        rows.append([system, "all", "all", "all", name, "", _fmt(cell["mean"]), _fmt(cell["std"])])
    for row in summary["bins"]:
        rows.append([system, "all", "all", row["bin"], "count", row["count"], "", ""])
        for name, cell in row["metrics"].items():
            rows.append(
                [system, "all", "all", row["bin"], name, "", _fmt(cell["mean"]), _fmt(cell["std"])]
            )
    return csv_text(CSV_COLUMNS, rows)


def render_markdown(reports, summary) -> str:
    system = reports[0].system if reports else ""
    lines = [f"### {system}: {len(reports)} run(s)", ""]
    lines.append("| metric | mean | std | n |")
    lines.append("|---|---|---|---|")
    for name, cell in summary["metrics"].items():
        lines.append(f"| {name} | {cell['mean']:.4f} | {cell['std']:.4f} | {cell['n']} |")
    if summary["bins"]:
        lines.append("")
        lines.append("| bin | entropy range (bits) | count | " + " | ".join(
            name for name in METRIC_ORDER if name != "R2_raw") + " |")
        lines.append("|---" * (3 + len(METRIC_ORDER) - 1) + "|")
        for row in summary["bins"]:
            cells = [str(row["bin"]), f"[{row.get('lo', 0):.3f}, {row.get('hi', 0):.3f}]", str(row["count"])]
            for name in METRIC_ORDER:
                if name == "R2_raw":
                    continue
                cell = row["metrics"].get(name)
                cells.append(f"{cell['mean']:.4f}" if cell else "-")
            lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def render_json(reports, summary) -> str:
    blob = {
        "reports": [asdict(r) for r in reports],
        "aggregate": summary,
    }
    return json.dumps(blob, indent=2) + "\n"


def emit_report(reports, path, fmt: str):
    """Write runs + aggregate in one of {csv, markdown, json}, deterministically."""
    if not reports:
        raise ValueError("emit_report needs at least one report")
    summary = aggregate(reports)
    renderers = {"csv": render_csv, "markdown": render_markdown, "json": render_json}
    if fmt not in renderers:
        raise ValueError(f"unknown report format {fmt!r}")
    write_text_atomic(path, renderers[fmt](reports, summary))
    return path


def _is_number(value) -> bool:
    """A finite JSON number: an int or float, not a bool, within the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _check_metric_cells(metrics):
    if not isinstance(metrics, dict):
        raise TypeError("'metrics' must be an object")
    for name, cell in metrics.items():
        if not (isinstance(cell, dict) and _is_number(cell.get("mean")) and _is_number(cell.get("std"))):
            raise TypeError(f"metric {name!r} needs a number 'mean' and 'std'")


def load_report(path):
    """Read back a JSON report: (reports, aggregate), with every aggregate cell checked."""
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
            reports = [EvalReport.from_dict(r) for r in blob["reports"]]
            summary = blob["aggregate"]
            if not isinstance(summary["bins"], list):
                raise TypeError("aggregate needs a 'bins' list")
            _check_metric_cells(summary["metrics"])
            for row in summary["bins"]:
                if not isinstance(row, dict) or not all(_is_number(row.get(k, 0)) for k in ("lo", "hi")):
                    raise TypeError("a bin row must be an object with number 'lo' and 'hi'")
                _check_metric_cells(row["metrics"])
        except (ValueError, KeyError, TypeError) as exc:
            raise DataValidationError(f"not a report file ({type(exc).__name__}: {exc})", path=path) from None
    return reports, summary
