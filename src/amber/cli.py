"""Command-line entry point: gen / train / eval / compare.

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
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__, evalreport, model, trainer
from .dataio import (SynthConfig, check_keys, fold_split, generate_synthetic, load_jsonl, read_json, save_jsonl,
                     write_json, write_text_atomic)
from .errors import DataValidationError, NumericalAbortError, WorkerDiedError
from .losses import EXPERT_SUPERVISION, MAI_EXPERT_GRAD, LossConfig
from .model import ModelConfig
from .trainer import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_WORKER = 4


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
# default is the field's dataclass default (folds and jobs set no field). Rows are in manifest order.
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
    "seeds": (TrainConfig, "seeds", int, None, "number of seeds (0..N-1)"),
    "folds": (None, None, int, None, "re-partition into this many folds"),
    "bins": (TrainConfig, "n_bins", int, None, "entropy bins in reports"),
    "jobs": (None, None, int, None, "parallel (fold, seed) workers"),
}
TRAIN_DEFAULTS = {key: getattr(cls, name) for key, (cls, name, *_) in TRAIN_OPTIONS.items() if cls}
TRAIN_DEFAULTS.update(folds=None, jobs=1)


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

    cmp_ = sub.add_parser("compare", help="overall and per-bin means of two report files, side by side")
    cmp_.add_argument("--baseline", required=True)
    cmp_.add_argument("--candidate", required=True)
    cmp_.add_argument("--out", help="write the comparison table as CSV")

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
    if resolved["jobs"] < 1:
        parser.error("--jobs must be >= 1")
    return resolved


def _train_config(resolved, ds, parser) -> TrainConfig:
    kwargs = {cls: {name: resolved[key] for key, (owner, name, *_) in TRAIN_OPTIONS.items() if owner is cls}
              for cls in (TrainConfig, ModelConfig, LossConfig)}
    try:
        return TrainConfig(
            model=ModelConfig(dim_a=ds.dim_a, dim_t=ds.dim_t, n_classes=ds.n_classes, **kwargs[ModelConfig]),
            loss=LossConfig(**kwargs[LossConfig]),
            **kwargs[TrainConfig],
        )
    except ValueError as exc:
        parser.error(str(exc))


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
    write_json(str(ns.out) + ".manifest.json", manifest)
    print(f"wrote {len(ds)} samples to {ns.out}")
    return EXIT_OK


def cmd_train(ns, parser):
    resolved = _resolve_train_config(ns, parser)
    ds = load_jsonl(ns.data)
    if resolved["folds"] is not None:
        if not 3 <= resolved["folds"] <= len(ds):
            parser.error(f"--folds must lie in [3, {len(ds)}], the rows of the dataset")
        ds = replace(ds, fold_count=resolved["folds"])
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
    write_json(out_dir / "manifest.json", manifest)

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
        if not {"fold", "folds"} <= provenance.keys():
            raise DataValidationError("no fold provenance; use --split all", path=ns.checkpoint)
        try:  # the run's own partition
            train, val, test = fold_split(replace(ds, fold_count=provenance["folds"]), provenance["fold"])
        except ValueError as exc:
            raise DataValidationError(str(exc), path=ns.data) from None
        subset = {"train": train, "val": val, "test": test}[ns.split]
    if not 2 <= ns.bins <= len(subset):
        parser.error(f"--bins must lie in [2, {len(subset)}], the rows of the {ns.split} split")

    report = trainer.evaluate(params, model_cfg, subset, ns.bins, system=provenance.get("system", "checkpoint"),
                              fold=provenance.get("fold", "all"), seed=provenance.get("seed", "all"),
                              provenance={**provenance, "split": ns.split})
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(evalreport.emit_report([report], out_dir / "eval-report"))
    return EXIT_OK


def _compare_row(scope, name, base, cand):
    """(bin, metric, baseline, candidate, delta, improvement) of one metric's means; None where a side has none.

    The improvement is the change over |baseline|, signed so that a positive value is better (also over a
    negative baseline); None where that quotient is not finite, as for a baseline of 0 or near 0.
    """
    b, c = (cells[name]["mean"] if name in cells else None for cells in (base, cand))
    if b is None or c is None:
        return scope, name, b, c, None, None
    gain = b - c if name in evalreport.LOWER_IS_BETTER else c - b
    rel = gain / abs(b) if b else math.inf
    return scope, name, b, c, c - b, rel if math.isfinite(rel) else None


def cmd_compare(ns, parser):
    _, base = evalreport.load_report(ns.baseline)
    _, cand = evalreport.load_report(ns.candidate)
    if set(base["metrics"]) != set(cand["metrics"]):
        missing = set(base["metrics"]) ^ set(cand["metrics"])
        raise DataValidationError(f"metric sets differ from baseline {ns.baseline}: {sorted(missing)}",
                                  path=ns.candidate)
    base_edges, cand_edges = ([[row["lo"], row["hi"]] for row in agg["bins"]] for agg in (base, cand))
    if cand_edges != base_edges:
        raise DataValidationError(f"bin edges differ from baseline {ns.baseline}: {cand_edges} vs {base_edges}",
                                  path=ns.candidate)

    rows = [_compare_row("all", name, base["metrics"], cand["metrics"])
            for name in evalreport.METRIC_ORDER if name in base["metrics"]]
    for i, (b, c) in enumerate(zip(base["bins"], cand["bins"])):
        rows += [_compare_row(i, name, b["metrics"], c["metrics"])
                 for name in evalreport.BIN_METRICS if name in b["metrics"] or name in c["metrics"]]
    for scope, name, _, _, delta, _ in rows:
        if delta is not None and not math.isfinite(delta):
            raise DataValidationError(f"{name} (bin {scope}) differs from baseline {ns.baseline} "
                                      "by more than the float range", path=ns.candidate)

    if ns.out:  # written before the table is printed, so a failed write prints nothing
        header = ["bin", "metric", "baseline_mean", "candidate_mean", "delta", "relative_improvement"]
        write_text_atomic(ns.out, evalreport.csv_text(
            header, [[scope, name, *("" if x is None else repr(x) for x in numbers)]
                     for scope, name, *numbers in rows]))

    def cell(x, spec):
        return "-" if x is None else format(x, spec)

    print(evalreport.markdown_table(
        ("bin", "metric", "baseline", "candidate", "delta", "improvement"),
        [(str(scope), name, cell(b, ".4f"), cell(c, ".4f"), cell(delta, "+.4f"), cell(rel, "+.1%"))
         for scope, name, b, c, delta, rel in rows]))
    return EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    handlers = {"gen": cmd_gen, "train": cmd_train, "eval": cmd_eval, "compare": cmd_compare}
    try:  # parsing and the handler alike exit through SystemExit: --help 0, a usage error 1
        ns = parser.parse_args(argv)
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
