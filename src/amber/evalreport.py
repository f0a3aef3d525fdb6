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
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import distlib
from .dataio import check_keys, read_json, write_json, write_text_atomic
from .errors import DataValidationError

METRIC_ORDER = ("JS", "BC", "R2", "R2_raw", "F1_macro", "WF1", "ACC")
BIN_METRICS = tuple(name for name in METRIC_ORDER if name != "R2_raw")  # the binned tables' columns
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


def _as_matrices(preds, targets):
    """(p, y): two array-like (n, C) matrices of distributions as float64.

    Rows are checked as a `SoftLabel` checks one: finite, non-negative and
    summing to one within `distlib.SUM_TOLERANCE`. Both must have the same
    non-empty shape. Each public metric function checks its pair once and
    computes through the private helpers, which check nothing.
    """
    p, y = np.asarray(preds, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    for m in (p, y):
        if m.ndim != 2:
            raise ValueError(f"expected an (n, C) matrix of distributions, got ndim={m.ndim}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("distribution entries must be finite and non-negative")
        if np.any(np.abs(m.sum(axis=1) - 1.0) > distlib.SUM_TOLERANCE):
            raise ValueError(f"distribution rows must sum to one within {distlib.SUM_TOLERANCE}")
    if p.shape != y.shape:
        raise ValueError(f"prediction/target shapes differ: {p.shape} vs {y.shape}")
    if p.shape[0] < 1:
        raise ValueError(f"no rows to score: predictions and targets have shape {p.shape}")
    return p, y


def dist_metrics(preds, targets) -> dict:
    """JS / BC / R2 over a split; R2 is missing when all targets coincide."""
    return _dist_metrics(*_as_matrices(preds, targets))


def _dist_metrics(p, y):
    """`dist_metrics` of checked matrices. JS and BC are row means over rows
    renormalized once more, which keeps every report and log byte-identical."""
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


def all_metrics(preds, targets) -> dict:
    """`dist_metrics`, then macro-F1, weighted F1 and accuracy on argmax labels, in `METRIC_ORDER`."""
    return _all_metrics(*_as_matrices(preds, targets))


def _all_metrics(p, y):
    """`all_metrics` of checked matrices. The label metrics come from the confusion matrix's marginals.

    Classes absent from both targets and predictions contribute F1 = 0 to
    the macro average and zero weight to the weighted one.
    """
    n_classes = y.shape[1]
    p_hat = np.argmax(p, axis=1)
    y_hat = np.argmax(y, axis=1)
    # its diagonal (tp) and row sums (support), counted without its C x C cells
    tp = np.bincount(y_hat[p_hat == y_hat], minlength=n_classes)
    support = np.bincount(y_hat, minlength=n_classes)
    # 2 * tp + fp + fn is the row sum plus the column sum; where that is 0, tp and F1 are 0
    f1 = 2.0 * tp / np.maximum(support + np.bincount(p_hat, minlength=n_classes), 1)
    return {**_dist_metrics(p, y), "F1_macro": float(f1.mean()),
            "WF1": float((f1 * support).sum() / support.sum()), "ACC": float(tp.sum() / len(y_hat))}


def bin_edges(n_classes: int, n_bins: int) -> np.ndarray:
    return np.linspace(0.0, np.log2(n_classes), n_bins + 1)


def assign_bin(entropy, edges: np.ndarray):
    """Equal-width entropy bin of one entropy or of each in an array; boundaries go to the lower bin."""
    h = np.clip(entropy, edges[0], edges[-1])
    return np.maximum(np.searchsorted(edges, h, side="left") - 1, 0)


def ambiguity_bins(preds, targets, n_bins: int) -> list:
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


def _cells(metric_dicts) -> dict:
    """Mean/std cell of each metric, in METRIC_ORDER, over the dicts that hold a value for it."""
    cells = {}
    for name in METRIC_ORDER:
        values = [m[name] for m in metric_dicts if m.get(name) is not None]
        if values:
            cells[name] = _stats(values)
    return cells


def aggregate(reports) -> dict:
    """Mean/std (population) per metric over runs, overall and per bin.

    The bins and their edges are the first report's; every report must
    have as many bins.
    """
    if not reports:
        raise ValueError("nothing to aggregate")
    first = reports[0].bins
    if any(len(r.bins) != len(first) for r in reports):
        raise ValueError("reports differ in their number of bins")
    bins = []
    for b, row in enumerate(first):
        per_run = [r.bins[b] for r in reports]
        bins.append({
            "bin": b,
            "count": sum(x["count"] for x in per_run),
            "metrics": _cells([x["metrics"] or {} for x in per_run]),
            "lo": row["lo"],
            "hi": row["hi"],
        })
    return {"metrics": _cells([r.metrics for r in reports]), "bins": bins}


def _fmt(x):
    return "" if x is None else repr(float(x))


def csv_text(header, rows) -> str:
    """Rows as CSV text with "\n" line ends, quoting only where needed."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_rows(key, metrics, bins, values):
    """CSV rows of one run, or of the aggregate: overall metrics, then each bin's count and metrics.

    `key` is (system, fold, seed); `values` maps a metric entry to its
    (value, mean, std) cells.
    """
    def metric_rows(scope, cells):
        return [[*key, scope, name, *values(cells[name])]
                for name in METRIC_ORDER if cells.get(name) is not None]

    rows = metric_rows("all", metrics)
    for row in bins:
        rows.append([*key, row["bin"], "count", row["count"], "", ""])
        rows += metric_rows(row["bin"], row["metrics"] or {})
    return rows


def render_csv(reports, summary) -> str:
    rows = []
    for r in reports:
        rows += _csv_rows((r.system, r.fold, r.seed), r.metrics, r.bins, lambda x: (_fmt(x), "", ""))
    rows += _csv_rows((reports[0].system, "all", "all"), summary["metrics"], summary["bins"],
                      lambda cell: ("", _fmt(cell["mean"]), _fmt(cell["std"])))
    return csv_text(CSV_COLUMNS, rows)


def markdown_table(header, rows) -> str:
    """Rows of strings as a Markdown table under `header`, its lines joined by "\n" with no final one."""
    lines = ["| " + " | ".join(cells) + " |" for cells in (header, *rows)]
    lines.insert(1, "|---" * len(header) + "|")
    return "\n".join(lines)


def render_markdown(reports, summary) -> str:
    metric_rows = [(name, f"{cell['mean']:.4f}", f"{cell['std']:.4f}", str(cell["n"]))
                   for name, cell in summary["metrics"].items()]
    parts = [f"### {reports[0].system}: {len(reports)} run(s)",
             markdown_table(("metric", "mean", "std", "n"), metric_rows)]
    if summary["bins"]:
        bin_rows = []
        for row in summary["bins"]:
            cells = [str(row["bin"]), f"[{row['lo']:.3f}, {row['hi']:.3f}]", str(row["count"])]
            cells += [f"{row['metrics'][name]['mean']:.4f}" if name in row["metrics"] else "-"
                      for name in BIN_METRICS]
            bin_rows.append(cells)
        parts.append(markdown_table(("bin", "entropy range (bits)", "count", *BIN_METRICS), bin_rows))
    return "\n\n".join(parts) + "\n"


def emit_report(reports, stem) -> str:
    """Write runs + aggregate to `<stem>.json`, `<stem>.csv` and `<stem>.md`; return the Markdown.

    The aggregate is computed and the Markdown rendered once. The output is
    deterministic.
    """
    summary = aggregate(reports)
    markdown = render_markdown(reports, summary)
    write_json(f"{stem}.json", {"reports": [asdict(r) for r in reports], "aggregate": summary})
    write_text_atomic(f"{stem}.csv", render_csv(reports, summary))
    write_text_atomic(f"{stem}.md", markdown)
    return markdown


def _is_number(value) -> bool:
    """A finite JSON number: an int or float, not a bool, within the float range."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def load_report(path):
    """Read back a JSON report: (reports, aggregate), with every key and aggregate cell checked
    and every aggregate `mean` and `std` a float."""
    try:
        blob = read_json(Path(path).read_bytes())
        check_keys(blob, ("reports", "aggregate"), (), "report keys")
        runs, summary = blob["reports"], blob["aggregate"]
        check_keys(summary, ("metrics", "bins"), (), "aggregate keys")
        if not (isinstance(runs, list) and isinstance(summary["bins"], list)):
            raise ValueError("'reports' and the aggregate's 'bins' must be lists")
        for run in runs:
            check_keys(run, ("system", "fold", "seed", "metrics", "bins", "provenance"), (), "run keys")
            if not isinstance(run["system"], str):
                raise ValueError("a run needs a string 'system'")
        for row in summary["bins"]:
            check_keys(row, ("bin", "count", "lo", "hi", "metrics"), (), "bin row keys")
            if not (_is_number(row["lo"]) and _is_number(row["hi"])):
                raise ValueError("a bin row needs number 'lo' and 'hi'")
        for metrics in [summary["metrics"]] + [row["metrics"] for row in summary["bins"]]:
            check_keys(metrics, (), METRIC_ORDER, "metric names")
            for name, cell in metrics.items():
                check_keys(cell, ("mean", "std", "n"), (), f"keys in metric {name!r}")
                if not (_is_number(cell["mean"]) and _is_number(cell["std"]) and type(cell["n"]) is int
                        and cell["n"] >= 1):
                    raise ValueError(f"metric {name!r} needs a number 'mean' and 'std' and a positive int 'n'")
                cell["mean"], cell["std"] = float(cell["mean"]), float(cell["std"])
    except ValueError as exc:
        raise DataValidationError(f"invalid report: {exc}", path=path) from None
    return [EvalReport(**run) for run in runs], summary
