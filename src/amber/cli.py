"""Command-line entry point: gen / train / eval / compare / bins.

Configuration precedence is flags > config file (JSON) > built-in defaults.
The fully resolved configuration is frozen into a manifest next to the
outputs; the manifest hash covers the command, config, dataset hash and
artifact version (not the output paths), so re-running a manifest anywhere
reproduces byte-identical logs, checkpoints and reports.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical abort, 4 a `train --jobs` worker process died.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__, evalreport, model, trainer
from .dataio import (SynthConfig, check_keys, fold_split, generate_synthetic, load_jsonl, read_json, save_jsonl,
                     write_text_atomic)
from .errors import DataValidationError, NumericalAbortError, WorkerDiedError
from .losses import EXPERT_SUPERVISION, MAI_EXPERT_GRAD, LossConfig
from .model import ModelConfig
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4

MAX_SEEDS = 10_000  # every seed is one run per fold; train builds the seed tuple up front
# Parameters of one run, counted over model.param_shapes. Each takes 8 bytes in
# the parameters, the gradients and both AdamW moments (3.2 GB at the bound); a
# model numpy cannot allocate would otherwise fail mid-run, after the manifest.
MAX_PARAMS = 100_000_000


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# key -> (SynthConfig field, type); the flag is the key with "-" for "_". The
# field's default is the flag's; a field without one is a required flag.
GEN_OPTIONS = {
    "samples": ("n_samples", int),
    "classes": ("n_classes", int),
    "dim_a": ("dim_a", int),
    "dim_t": ("dim_t", int),
    "raters": ("n_raters", int),
    "alpha": ("ambiguity_alpha", float),
    "conflict": ("conflict_rate", float),
    "noise": ("noise_sigma", float),
    "seed": ("seed", int),
    "folds": ("fold_count", int),
}

# key -> (config class, field, type, choices, help); the flag is the key with "-" for "_", the
# default is the field's dataclass default (seeds, folds and jobs set no field). Rows are in manifest order.
TRAIN_OPTIONS = {
    "objective": (TrainConfig, "objective", str, trainer.OBJECTIVES, None),
    "student": (ModelConfig, "student", str, model.MODALITIES, None),
    "lambda_rai": (LossConfig, "lambda_rai", float, None, None),
    "lambda_mai": (LossConfig, "lambda_mai", float, None, None),
    "kappa": (LossConfig, "kappa", float, None, None),
    "expert_supervision": (LossConfig, "expert_supervision", str, EXPERT_SUPERVISION, None),
    "mai_grad": (LossConfig, "mai_expert_grad", str, MAI_EXPERT_GRAD, None),
    "hidden": (ModelConfig, "hidden", int, None, None),
    "fusion_dim": (ModelConfig, "fusion_dim", int, None, None),
    "lr": (TrainConfig, "lr", float, None, None),
    "weight_decay": (TrainConfig, "weight_decay", float, None, None),
    "batch": (TrainConfig, "batch", int, None, None),
    "epochs": (TrainConfig, "epochs", int, None, None),
    "seeds": (None, None, int, None, "number of seeds (0..N-1)"),
    "folds": (None, None, int, None, "re-partition into this many folds"),
    "bins": (TrainConfig, "n_bins", int, None, "entropy bins in reports"),
    "jobs": (None, None, int, None, "parallel (fold, seed) workers"),
}
TRAIN_DEFAULTS = {key: getattr(cls, name) for key, (cls, name, *_) in TRAIN_OPTIONS.items() if cls}
TRAIN_DEFAULTS.update(seeds=len(TrainConfig.seeds), folds=None, jobs=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="amber", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    for key, (name, typ) in GEN_OPTIONS.items():
        default = getattr(SynthConfig, name, None)
        gen.add_argument("--" + key.replace("_", "-"), type=typ, default=default, required=default is None)
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="cross-validated training + evaluation")
    train.add_argument("--data", required=True)
    train.add_argument("--config", help="JSON config file or a previous manifest")
    train.add_argument("--out-dir", required=True)
    for key, (_, _, typ, choices, help_) in TRAIN_OPTIONS.items():
        train.add_argument("--" + key.replace("_", "-"), dest=key, type=typ, choices=choices, help=help_)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    ev.add_argument("--bins", type=int, default=TrainConfig.n_bins)
    ev.add_argument("--out-dir", required=True)

    cmp_ = sub.add_parser("compare", help="side-by-side aggregate of two report files")
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("--candidate", required=True)
    cmp_.add_argument("--out", help="write the comparison table as CSV")

    bins = sub.add_parser("bins", help="entropy-binned table from report files")
    bins.add_argument("--report", action="append", required=True, help="repeatable, max twice")
    bins.add_argument("--out", help="write the binned table as CSV")

    return parser


# ---------------------------------------------------------------------------
# helpers


def _manifest(command, config, dataset_sha=None, execution=None):
    """Resolved-run record; the hash covers identity, not execution details.

    `config` must contain everything that determines the outputs. Paths and
    worker counts go into `execution`, which is recorded but not hashed, so
    a parallel re-run in another directory reproduces the same hash.
    """
    core = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "dataset_sha256": dataset_sha,
    }
    canonical = json.dumps(core, sort_keys=True, separators=(",", ":"))
    core["manifest_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
    core["execution"] = execution or {}
    return core


def _write_json(path, blob):
    write_text_atomic(path, json.dumps(blob, indent=2) + "\n")


def _load_config_file(path):
    try:
        blob = read_json(Path(path).read_bytes())
        if isinstance(blob, dict) and "config" in blob and "command" in blob:
            blob = blob["config"]  # accept a prior manifest
        if not isinstance(blob, dict):
            raise ValueError("expected a JSON object")
    except ValueError as exc:
        raise DataValidationError(f"invalid config: {exc}", path=path) from None
    return blob


def _typed(key, value, typ, parser):
    """`value` as `typ` (a bool is no number; a float takes a finite int or float) or exit 1."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if typ is float else typ):
        parser.error(f"option {key!r} must be {typ.__name__}, not {type(value).__name__}")
    if typ is not float:
        return value
    if not abs(value) <= sys.float_info.max:  # nan, inf and ints beyond the float range
        parser.error(f"option {key!r} must be a finite float")
    return float(value)


def _resolve_train_config(ns, parser):
    file_cfg = _load_config_file(ns.config) if ns.config else {}
    try:
        check_keys(file_cfg, (), TRAIN_OPTIONS, "config keys")
    except ValueError as exc:
        parser.error(str(exc))
    flags = {key: value for key, value in vars(ns).items() if key in TRAIN_OPTIONS and value is not None}
    values = {**TRAIN_DEFAULTS, **file_cfg, **flags}
    resolved = {key: None if key == "folds" and values[key] is None else _typed(key, values[key], typ, parser)
                for key, (_, _, typ, _, _) in TRAIN_OPTIONS.items()}
    if not 1 <= resolved["seeds"] <= MAX_SEEDS:
        parser.error(f"--seeds must lie in [1, {MAX_SEEDS}]")
    if resolved["jobs"] < 1:
        parser.error("--jobs must be >= 1")
    if resolved["bins"] < 2:
        parser.error("--bins must be >= 2")
    return resolved


def _train_config(resolved, ds, parser) -> TrainConfig:
    kwargs = {cls: {name: resolved[key] for key, (owner, name, *_) in TRAIN_OPTIONS.items() if owner is cls}
              for cls in (TrainConfig, ModelConfig, LossConfig)}
    try:
        cfg = TrainConfig(
            model=ModelConfig(dim_a=ds.dim_a, dim_t=ds.dim_t, n_classes=ds.n_classes, **kwargs[ModelConfig]),
            loss=LossConfig(**kwargs[LossConfig]),
            seeds=tuple(range(resolved["seeds"])),
            **kwargs[TrainConfig],
        )
    except ValueError as exc:
        parser.error(str(exc))
    n_params = sum(math.prod(shape) for shape in model.param_shapes(cfg.model).values())
    if n_params > MAX_PARAMS:
        parser.error(f"--hidden {cfg.model.hidden} and --fusion-dim {cfg.model.fusion_dim} give "
                     f"{n_params} parameters per run, more than {MAX_PARAMS}")
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(ns, parser):
    try:
        cfg = SynthConfig(**{name: getattr(ns, key) for key, (name, _) in GEN_OPTIONS.items()})
        ds = generate_synthetic(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    save_jsonl(ds, ns.out)
    manifest = _manifest(
        "gen",
        asdict(cfg),
        dataset_sha=hashlib.sha256(Path(ns.out).read_bytes()).hexdigest(),
        execution={"outputs": {"dataset": str(ns.out)}},
    )
    _write_json(str(ns.out) + ".manifest.json", manifest)
    print(f"wrote {len(ds)} samples to {ns.out}")
    return EXIT_OK


def cmd_train(ns, parser):
    resolved = _resolve_train_config(ns, parser)
    ds = load_jsonl(ns.data)
    if resolved["folds"] is not None:
        if not 3 <= resolved["folds"] <= len(ds):
            parser.error(f"--folds must lie in [3, {len(ds)}], the rows of the dataset")
        ds = ds.with_fold_count(resolved["folds"])
    elif ds.fold_count < 3:
        raise DataValidationError(
            f"dataset declares {ds.fold_count} folds; training needs >= 3", path=ns.data
        )
    smallest_fold = len(ds) // ds.fold_count
    if resolved["bins"] > smallest_fold:
        parser.error(f"--bins {resolved['bins']} exceeds the {smallest_fold} rows of the smallest test fold")
    cfg = _train_config(resolved, ds, parser)

    out_dir = Path(ns.out_dir)
    checkpoints = out_dir / "checkpoints"
    checkpoints.mkdir(parents=True, exist_ok=True)
    # An earlier train's outputs in this directory go first, so an abort leaves no mix of two runs.
    for name in ("report.json", "report.csv", "report.md", "train-log.jsonl"):
        (out_dir / name).unlink(missing_ok=True)
    for stale in checkpoints.glob("ckpt-f*-s*.json"):
        stale.unlink()

    stable = {k: v for k, v in resolved.items() if k != "jobs"}
    manifest = _manifest(
        "train",
        stable,
        ds.sha256,
        execution={
            "data": str(ns.data),
            "jobs": resolved["jobs"],
            "outputs": {
                "log": str(out_dir / "train-log.jsonl"),
                "checkpoints": str(checkpoints),
                "report": str(out_dir / "report.json"),
            },
        },
    )
    _write_json(out_dir / "manifest.json", manifest)

    reports, log_lines = [], []

    def finish(rec):  # checkpoint one finished run; keep its report and log lines for the end
        r = rec.report
        run_id = f"f{r.fold}-s{r.seed}"
        r.provenance["manifest"] = manifest["manifest_sha256"]
        provenance = {"system": r.system, "fold": r.fold, "seed": r.seed, "folds": ds.fold_count, **r.provenance}
        model.save_checkpoint(checkpoints / f"ckpt-{run_id}.json", cfg.model, rec.selected_params, provenance)
        reports.append(r)
        log_lines.extend(json.dumps({"run_id": run_id, "epoch": entry["epoch"], "split": split, **entry[split]}) + "\n"
                         for entry in rec.epochs for split in ("train", "val"))

    trainer.cross_validate(ds, cfg, finish, jobs=resolved["jobs"])
    write_text_atomic(out_dir / "train-log.jsonl", log_lines)
    print(evalreport.emit_report(reports, out_dir / "report"))
    return EXIT_OK


def cmd_eval(ns, parser):
    model_cfg, params, provenance = model.load_checkpoint(ns.checkpoint)
    ds = load_jsonl(ns.data)
    mismatch = [f"{k} {getattr(model_cfg, k)} vs {getattr(ds, k)}"
                for k in ("dim_a", "dim_t", "n_classes") if getattr(model_cfg, k) != getattr(ds, k)]
    if mismatch:
        raise DataValidationError(f"checkpoint and dataset differ: {', '.join(mismatch)}", path=ns.data)
    if ns.split == "all":
        subset = ds
    else:
        if "fold" not in provenance:
            raise DataValidationError("no fold provenance; use --split all", path=ns.checkpoint)
        try:  # the run's own partition; a checkpoint without `folds` keeps the dataset's
            ds = ds.with_fold_count(provenance.get("folds", ds.fold_count))
            train, val, test = fold_split(ds, provenance["fold"])
        except ValueError as exc:
            raise DataValidationError(str(exc), path=ns.data) from None
        subset = {"train": train, "val": val, "test": test}[ns.split]
    if not 2 <= ns.bins <= len(subset):
        parser.error(f"--bins must lie in [2, {len(subset)}], the rows of the {ns.split} split")

    h_a, h_t, y = subset.matrices()
    preds = model.predict(params, model_cfg, h_a, h_t)[model_cfg.student]
    report = evalreport.EvalReport(
        system=provenance.get("system", "checkpoint"),
        fold=provenance.get("fold", "all"),
        seed=provenance.get("seed", "all"),
        metrics=evalreport.all_metrics(preds, y),
        bins=evalreport.ambiguity_bins(preds, y, ns.bins),
        provenance={**provenance, "split": ns.split},
    )
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(evalreport.emit_report([report], out_dir / "eval-report"))
    return EXIT_OK


def _relative_improvement(metric, base, cand):
    if base == 0:
        return None
    if metric in evalreport.LOWER_IS_BETTER:
        return (base - cand) / base
    return (cand - base) / base


def cmd_compare(ns, parser):
    _, base_agg = evalreport.load_report(ns.baseline)
    _, cand_agg = evalreport.load_report(ns.candidate)
    base_metrics, cand_metrics = base_agg["metrics"], cand_agg["metrics"]
    if set(base_metrics) != set(cand_metrics):
        missing = set(base_metrics) ^ set(cand_metrics)
        raise DataValidationError(f"metric sets differ from baseline {ns.baseline}: {sorted(missing)}",
                                  path=ns.candidate)

    rows = []
    for name in evalreport.METRIC_ORDER:
        if name not in base_metrics:
            continue
        b, c = base_metrics[name]["mean"], cand_metrics[name]["mean"]
        rel = _relative_improvement(name, b, c)
        rows.append((name, b, c, c - b, rel))

    lines = ["| metric | baseline | candidate | delta | improvement |", "|---|---|---|---|---|"]
    for name, b, c, delta, rel in rows:
        rel_txt = f"{100 * rel:+.1f}%" if rel is not None else "-"
        lines.append(f"| {name} | {b:.4f} | {c:.4f} | {delta:+.4f} | {rel_txt} |")
    table = "\n".join(lines)
    print(table)

    if ns.out:
        header = ["metric", "baseline_mean", "candidate_mean", "delta", "relative_improvement"]
        cells = [[name, repr(b), repr(c), repr(delta), "" if rel is None else repr(rel)]
                 for name, b, c, delta, rel in rows]
        write_text_atomic(ns.out, evalreport.csv_text(header, cells))
    return EXIT_OK


def cmd_bins(ns, parser):
    if len(ns.report) > 2:
        parser.error("--report may be given at most twice")
    names, tables = [], []
    for path in ns.report:
        reports, agg = evalreport.load_report(path)
        names.append(reports[0].system if reports else path)
        tables.append(agg["bins"])
    edges = [[[row["lo"], row["hi"]] for row in bins] for bins in tables]
    if edges[-1] != edges[0]:
        raise DataValidationError(f"bin edges differ from those of {ns.report[0]}: {edges[-1]} vs {edges[0]}",
                                  path=ns.report[-1])
    if len(set(names)) < len(names):  # a run and its ablation: number the columns by --report
        names = [f"{name}#{k}" for k, name in enumerate(names, 1)]

    header = ["bin", "lo", "hi"] + [f"{name}:{m}" for name in names for m in evalreport.BIN_METRICS]
    rows = []
    for i, (lo, hi) in enumerate(edges[0]):
        row = [i, f"{lo:.4f}", f"{hi:.4f}"]
        for bins in tables:
            cells = bins[i]["metrics"]
            row += [repr(cells[m]["mean"]) if m in cells else "" for m in evalreport.BIN_METRICS]
        rows.append(row)

    text = evalreport.csv_text(header, rows)
    print(text, end="")
    if ns.out:
        write_text_atomic(ns.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen": cmd_gen,
        "train": cmd_train,
        "eval": cmd_eval,
        "compare": cmd_compare,
        "bins": cmd_bins,
    }
    try:
        return handlers[ns.command](ns, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataValidationError as exc:
        sys.stderr.write(f"amber: data validation error: {exc}\n")
        return EXIT_DATA
    except NumericalAbortError as exc:
        sys.stderr.write(f"amber: numerical abort: {exc}\n")
        return EXIT_NUMERIC
    except WorkerDiedError as exc:
        sys.stderr.write(f"amber: worker process died: {exc}\n")
        return EXIT_WORKER
    except OSError as exc:  # a missing input, or a directory given as a file
        sys.stderr.write(f"amber: {exc}\n")
        return EXIT_DATA


def app():
    sys.exit(main())


if __name__ == "__main__":
    app()
