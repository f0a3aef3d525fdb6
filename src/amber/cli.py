"""Command-line entry point: gen / train / eval / compare / bins.

Configuration precedence is flags > config file (JSON) > built-in defaults.
The fully resolved configuration is frozen into a manifest next to the
outputs; the manifest hash covers the command, config, dataset hash and
artifact version (not the output paths), so re-running a manifest anywhere
reproduces byte-identical logs, checkpoints and reports.

Exit codes: 0 success, 1 usage error, 2 data validation error,
3 numerical abort.
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
from .dataio import SynthConfig, fold_split, generate_synthetic, load_jsonl, save_jsonl, write_text_atomic
from .errors import DataValidationError, NumericalAbortError
from .losses import LossConfig
from .model import ModelConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

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


# key -> (type, default, choices, help); the flag is the key with "-" for "_".
# Defaults come from the config dataclasses. Row order is the manifest's order.
TRAIN_OPTIONS = {
    "objective": (str, trainer.TrainConfig.objective, trainer.OBJECTIVES, None),
    "student": (str, ModelConfig.student, model.MODALITIES, None),
    "lambda_rai": (float, LossConfig.lambda_rai, None, None),
    "lambda_mai": (float, LossConfig.lambda_mai, None, None),
    "kappa": (float, LossConfig.kappa, None, None),
    "expert_supervision": (str, LossConfig.expert_supervision, ("rai", "none"), None),
    "mai_grad": (str, LossConfig.mai_expert_grad, ("detached", "coupled"), None),
    "hidden": (int, ModelConfig.hidden, None, None),
    "fusion_dim": (int, ModelConfig.fusion_dim, None, None),
    "lr": (float, trainer.TrainConfig.lr, None, None),
    "weight_decay": (float, trainer.TrainConfig.weight_decay, None, None),
    "batch": (int, trainer.TrainConfig.batch, None, None),
    "epochs": (int, trainer.TrainConfig.epochs, None, None),
    "seeds": (int, len(trainer.TrainConfig.seeds), None, "number of seeds (0..N-1)"),
    "folds": (int, None, None, "re-partition into this many folds"),
    "bins": (int, trainer.TrainConfig.n_bins, None, "entropy bins in reports"),
    "jobs": (int, 1, None, "parallel (fold, seed) workers"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="amber", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", parents=[], help="generate a synthetic dataset")
    gen.add_argument("--samples", type=int, required=True)
    gen.add_argument("--classes", type=int, required=True)
    gen.add_argument("--dim-a", type=int, default=16)
    gen.add_argument("--dim-t", type=int, default=16)
    gen.add_argument("--raters", type=int, default=10)
    gen.add_argument("--alpha", type=float, default=0.7)
    gen.add_argument("--conflict", type=float, default=0.3)
    gen.add_argument("--noise", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--folds", type=int, default=5)
    gen.add_argument("--out", required=True)

    train = sub.add_parser("train", help="cross-validated training + evaluation")
    train.add_argument("--data", required=True)
    train.add_argument("--config", help="JSON config file or a previous manifest")
    train.add_argument("--out-dir", required=True)
    for key, (typ, _, choices, help_) in TRAIN_OPTIONS.items():
        train.add_argument("--" + key.replace("_", "-"), dest=key, type=typ, choices=choices, help=help_)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    ev.add_argument("--bins", type=int, default=4)
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


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


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
    with open(path, encoding="utf-8") as fh:
        try:
            blob = json.load(fh)
        except ValueError as exc:
            raise DataValidationError(f"malformed JSON config ({exc})", path=path) from None
    if isinstance(blob, dict) and "config" in blob and "command" in blob:
        blob = blob["config"]  # accept a prior manifest
    if not isinstance(blob, dict):
        raise DataValidationError("config file must hold a JSON object", path=path)
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
    unknown = set(file_cfg) - set(TRAIN_OPTIONS) - {"data"}
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (typ, default, _, _) in TRAIN_OPTIONS.items():
        value = getattr(ns, key)
        if value is None:
            value = file_cfg.get(key, default)
        resolved[key] = None if key == "folds" and value is None else _typed(key, value, typ, parser)
    if not 1 <= resolved["seeds"] <= MAX_SEEDS:
        parser.error(f"--seeds must lie in [1, {MAX_SEEDS}]")
    if resolved["jobs"] < 1:
        parser.error("--jobs must be >= 1")
    if resolved["bins"] < 2:
        parser.error("--bins must be >= 2")
    return resolved


def _train_config(resolved, ds, parser) -> trainer.TrainConfig:
    try:
        model_cfg = ModelConfig(
            dim_a=ds.dim_a,
            dim_t=ds.dim_t,
            n_classes=ds.n_classes,
            hidden=resolved["hidden"],
            fusion_dim=resolved["fusion_dim"],
            student=resolved["student"],
        )
        loss_cfg = LossConfig(
            lambda_rai=resolved["lambda_rai"],
            lambda_mai=resolved["lambda_mai"],
            kappa=resolved["kappa"],
            expert_supervision=resolved["expert_supervision"],
            mai_expert_grad=resolved["mai_grad"],
        )
        cfg = trainer.TrainConfig(
            model=model_cfg,
            loss=loss_cfg,
            objective=resolved["objective"],
            lr=resolved["lr"],
            weight_decay=resolved["weight_decay"],
            batch=resolved["batch"],
            epochs=resolved["epochs"],
            seeds=tuple(range(resolved["seeds"])),
            n_bins=resolved["bins"],
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
        cfg = SynthConfig(
            n_samples=ns.samples,
            n_classes=ns.classes,
            dim_a=ns.dim_a,
            dim_t=ns.dim_t,
            n_raters=ns.raters,
            ambiguity_alpha=ns.alpha,
            conflict_rate=ns.conflict,
            noise_sigma=ns.noise,
            seed=ns.seed,
            fold_count=ns.folds,
        )
        ds = generate_synthetic(cfg)
    except ValueError as exc:
        parser.error(str(exc))
    save_jsonl(ds, ns.out)
    manifest = _manifest(
        "gen",
        asdict(cfg),
        dataset_sha=_sha256_file(ns.out),
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
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)

    stable = {k: v for k, v in resolved.items() if k != "jobs"}
    manifest = _manifest(
        "train",
        stable,
        _sha256_file(ns.data),
        execution={
            "data": str(ns.data),
            "jobs": resolved["jobs"],
            "outputs": {
                "log": str(out_dir / "train-log.jsonl"),
                "checkpoints": str(out_dir / "checkpoints"),
                "report": str(out_dir / "report.json"),
            },
        },
    )
    _write_json(out_dir / "manifest.json", manifest)

    records, _ = trainer.cross_validate(ds, cfg, jobs=resolved["jobs"])
    for rec in records:
        rec.report.provenance["manifest"] = manifest["manifest_sha256"]

    log_lines = [
        json.dumps({"run_id": f"f{rec.fold}-s{rec.seed}", "epoch": entry["epoch"], "split": split,
                    **entry[split]}) + "\n"
        for rec in records for entry in rec.epochs for split in ("train", "val")
    ]
    write_text_atomic(out_dir / "train-log.jsonl", log_lines)

    for rec in records:
        model.save_checkpoint(
            out_dir / "checkpoints" / f"ckpt-f{rec.fold}-s{rec.seed}.json",
            cfg.model,
            rec.selected_params,
            provenance={
                "system": cfg.objective,
                "fold": rec.fold,
                "seed": rec.seed,
                "selected_epoch": rec.selected_epoch,
                "manifest": manifest["manifest_sha256"],
            },
        )

    reports = [rec.report for rec in records]
    evalreport.emit_report(reports, out_dir / "report.json", "json")
    evalreport.emit_report(reports, out_dir / "report.csv", "csv")
    evalreport.emit_report(reports, out_dir / "report.md", "markdown")
    print(evalreport.render_markdown(reports, evalreport.aggregate(reports)))
    return EXIT_OK


def cmd_eval(ns, parser):
    model_cfg, params, provenance = model.load_checkpoint(ns.checkpoint)
    ds = load_jsonl(ns.data)
    mismatch = [f"{k} {getattr(model_cfg, k)} vs {getattr(ds, k)}"
                for k in ("dim_a", "dim_t", "n_classes") if getattr(model_cfg, k) != getattr(ds, k)]
    if mismatch:
        raise DataValidationError(f"checkpoint and dataset differ: {', '.join(mismatch)}", path=ns.data)
    for key, typ in (("system", str), ("fold", int), ("seed", int)):
        if key in provenance and type(provenance[key]) is not typ:
            raise DataValidationError(f"provenance {key!r} must be {typ.__name__}", path=ns.checkpoint)
    if ns.split == "all":
        subset = ds
    else:
        if "fold" not in provenance:
            raise DataValidationError("no fold provenance; use --split all", path=ns.checkpoint)
        try:
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
    evalreport.emit_report([report], out_dir / "eval-report.json", "json")
    evalreport.emit_report([report], out_dir / "eval-report.csv", "csv")
    print(evalreport.render_markdown([report], evalreport.aggregate([report])))
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
        raise DataValidationError(f"metric sets differ between reports: {sorted(missing)}")

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
    loaded = []
    for path in ns.report:
        reports, agg = evalreport.load_report(path)
        name = reports[0].system if reports else path
        loaded.append((name, agg["bins"]))

    metric_names = [m for m in evalreport.METRIC_ORDER if m != "R2_raw"]
    header = ["bin", "lo", "hi"]
    for name, _ in loaded:
        header.extend(f"{name}:{m}" for m in metric_names)
    rows = []
    n_bins = max(len(b) for _, b in loaded)
    for i in range(n_bins):
        cells = {}
        row = [i]
        for _, bins_list in loaded:
            if i < len(bins_list):
                cells = bins_list[i]
                break
        row.extend([f"{cells.get('lo', 0):.4f}", f"{cells.get('hi', 0):.4f}"])
        for _, bins_list in loaded:
            bin_row = bins_list[i] if i < len(bins_list) else {"metrics": {}}
            for m in metric_names:
                cell = bin_row["metrics"].get(m)
                row.append(repr(cell["mean"]) if cell else "")
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
    except OSError as exc:  # a missing input, or a directory given as a file
        sys.stderr.write(f"amber: {exc}\n")
        return EXIT_DATA


def app():
    sys.exit(main())


if __name__ == "__main__":
    app()
