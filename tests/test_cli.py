import contextlib
import copy
import csv
import errno
import functools
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amber import model, trainer
from amber.cli import TRAIN_DEFAULTS, TRAIN_OPTIONS, _resolve_train_config, _train_config, build_parser, main
from amber.dataio import load_jsonl
from amber.errors import DataValidationError, NumericalAbortError
from amber.evalreport import (
    BIN_METRICS,
    EvalReport,
    all_metrics,
    ambiguity_bins,
    emit_report,
    load_report,
)
from amber.model import ModelConfig, init_params, save_checkpoint
from amber.trainer import TrainConfig

SRC = Path(trainer.__file__).resolve().parents[1]


def _gen_args(out, samples=40, folds=4, **overrides):
    flags = {
        "--samples": samples, "--classes": 3, "--dim-a": 4, "--dim-t": 4,
        "--raters": 6, "--alpha": 0.7, "--conflict": 0.3, "--noise": 0.4,
        "--seed": 9, "--folds": folds, "--out": out,
    }
    flags.update(overrides)
    args = ["gen"]
    for key, value in flags.items():
        args.extend([key, str(value)])
    return args


def _train_args(data, out_dir, **overrides):
    flags = {
        "--data": data, "--out-dir": out_dir, "--epochs": 2, "--batch": 16,
        "--hidden": 8, "--fusion-dim": 8, "--seeds": 1, "--bins": 3,
    }
    flags.update(overrides)
    args = ["train"]
    for key, value in flags.items():
        args.extend([key, str(value)])
    return args


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "ds.jsonl"
    assert main(_gen_args(path)) == 0
    return path


def test_gen_writes_header_and_manifest(tmp_path):
    out = tmp_path / "data.jsonl"
    assert main(_gen_args(out, samples=25, folds=5)) == 0
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header == {"schema": "amber-ds-v1", "C": 3, "dim_a": 4, "dim_t": 4, "folds": 5}
    assert len(lines) == 26
    manifest = json.loads((tmp_path / "data.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["config"]["n_samples"] == 25
    assert "manifest_sha256" in manifest


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(_gen_args(a)) == 0
    assert main(_gen_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_defaults_are_the_synth_config_defaults(tmp_path):
    implicit, explicit = tmp_path / "implicit.jsonl", tmp_path / "explicit.jsonl"
    required = ["gen", "--samples", "30", "--classes", "3"]
    assert main(required + ["--out", str(implicit)]) == 0
    assert main(required + ["--dim-a", "16", "--dim-t", "16", "--raters", "10", "--alpha", "0.7",
                            "--conflict", "0.3", "--noise", "0.5", "--seed", "0", "--folds", "5",
                            "--out", str(explicit)]) == 0
    assert implicit.read_bytes() == explicit.read_bytes()
    manifests = [json.loads(Path(f"{path}.manifest.json").read_text()) for path in (implicit, explicit)]
    assert manifests[0]["manifest_sha256"] == manifests[1]["manifest_sha256"]


def test_train_defaults_resolve_to_the_documented_values():
    parser = build_parser()
    ns = parser.parse_args(["train", "--data", "d", "--out-dir", "o"])
    assert list(_resolve_train_config(ns, parser).items()) == [
        ("objective", "amber"), ("student", "at"), ("lambda_rai", 1.0), ("lambda_mai", 0.5),
        ("kappa", 4.0), ("expert_supervision", "rai"), ("mai_grad", "detached"), ("hidden", 256),
        ("fusion_dim", 256), ("lr", 3e-4), ("weight_decay", 1e-2), ("batch", 128), ("epochs", 30),
        ("seeds", 5), ("folds", None), ("bins", 4), ("jobs", 1),
    ]
    assert parser.parse_args(["eval", "--checkpoint", "c", "--data", "d", "--out-dir", "o"]).bins == 4


def test_gen_rejects_out_of_range_conflict(tmp_path, capsys):
    code = main(_gen_args(tmp_path / "x.jsonl", **{"--conflict": 1.5}))
    assert code == 1
    assert "conflict" in capsys.readouterr().err


def test_gen_rejects_an_alpha_the_dirichlet_draw_overflows_on(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert main(_gen_args(out, **{"--alpha": 1e308})) == 1
    assert "ambiguity_alpha" in capsys.readouterr().err
    assert not out.exists()


def test_gen_rejects_zero_folds_before_drawing_any_sample(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("generate_synthetic must not run for an invalid config")

    monkeypatch.setattr("amber.cli.generate_synthetic", never)
    out = tmp_path / "x.jsonl"
    assert main(_gen_args(out, folds=0)) == 1
    assert "fold_count" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["gen", "--samples", "10", "--classes", "3", "--frobnicate", "1"]) == 1


def test_train_produces_outputs_and_prints_table(dataset, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(_train_args(dataset, out_dir)) == 0
    printed = capsys.readouterr().out
    assert "| JS |" in printed
    assert (out_dir / "train-log.jsonl").exists()
    assert (out_dir / "report.json").exists()
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "report.md").exists()
    assert (out_dir / "manifest.json").exists()
    ckpts = sorted((out_dir / "checkpoints").glob("*.json"))
    assert len(ckpts) == 4  # 4 folds x 1 seed

    log_lines = [json.loads(l) for l in (out_dir / "train-log.jsonl").read_text().splitlines()]
    assert {l["split"] for l in log_lines} == {"train", "val"}
    assert all("run_id" in l and "epoch" in l for l in log_lines)

    report = json.loads((out_dir / "report.json").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert report["reports"][0]["provenance"]["manifest"] == manifest["manifest_sha256"]


def test_train_rerun_is_bit_identical(dataset, tmp_path):
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_train_args(dataset, run1)) == 0
    assert main(_train_args(dataset, run2)) == 0
    for name in ("train-log.jsonl", "report.json", "report.csv", "report.md"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name
    for ckpt in (run1 / "checkpoints").glob("*.json"):
        assert ckpt.read_bytes() == (run2 / "checkpoints" / ckpt.name).read_bytes()


def test_train_rerun_from_manifest_reproduces_reports(dataset, tmp_path):
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(_train_args(dataset, run1)) == 0
    manifest = run1 / "manifest.json"
    assert main(["train", "--data", str(dataset), "--out-dir", str(run2),
                 "--config", str(manifest)]) == 0
    for name in ("train-log.jsonl", "report.json", "report.csv", "report.md"):
        assert (run1 / name).read_bytes() == (run2 / name).read_bytes(), name


def test_parallel_jobs_match_serial(dataset, tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    assert main(_train_args(dataset, serial)) == 0
    assert main(_train_args(dataset, parallel, **{"--jobs": 2})) == 0
    for name in ("train-log.jsonl", "report.json", "report.csv", "report.md"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes(), name


def test_train_frees_each_run_once_its_checkpoint_is_written(dataset, tmp_path, monkeypatch):
    save, earlier, alive = model.save_checkpoint, [], []

    def checked_save(path, cfg, params, provenance):
        gc.collect()
        alive.append(sum(ref() is not None for ref in earlier))
        earlier.extend(weakref.ref(value) for value in params.values())
        save(path, cfg, params, provenance)

    monkeypatch.setattr(model, "save_checkpoint", checked_save)
    assert main(_train_args(dataset, tmp_path / "run", **{"--seeds": 2})) == 0
    assert alive == [0] * 8  # 4 folds x 2 seeds: no earlier run's parameters outlive its checkpoint


_train_one = trainer.train_one


def _abort_in_last_run(ds, fold, seed, cfg):
    if (fold, seed) == (ds.fold_count - 1, cfg.seeds - 1):
        raise NumericalAbortError("injected into the last run")
    return _train_one(ds, fold, seed, cfg)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_train_aborted_in_its_last_run_keeps_every_earlier_checkpoint(dataset, tmp_path, capsys, monkeypatch, jobs):
    full, cut = tmp_path / "full", tmp_path / "cut"
    assert main(_train_args(dataset, full, **{"--seeds": 2})) == 0
    monkeypatch.setattr(trainer, "train_one", _abort_in_last_run)
    assert main(_train_args(dataset, cut, **{"--seeds": 2, "--jobs": jobs})) == 3
    assert capsys.readouterr().err == "amber: numerical abort: injected into the last run\n"
    expected = [f"ckpt-f{fold}-s{seed}.json" for fold in range(4) for seed in range(2)][:-1]
    assert sorted(path.name for path in (cut / "checkpoints").iterdir()) == sorted(expected)
    for name in expected:
        assert (cut / "checkpoints" / name).read_bytes() == (full / "checkpoints" / name).read_bytes(), name
    assert sorted(path.name for path in cut.iterdir()) == ["checkpoints", "manifest.json"]
    assert not list(cut.rglob("*.tmp"))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("jobs", [1, 2])
def test_an_abort_into_a_finished_runs_out_dir_leaves_only_its_manifest(dataset, tmp_path, capsys, jobs):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run, **{"--seeds": 2})) == 0
    assert main(_train_args(dataset, run, **{"--lr": "1e308", "--jobs": jobs})) == 3
    assert capsys.readouterr().err.startswith("amber: numerical abort: ")
    assert sorted(path.name for path in run.iterdir()) == ["checkpoints", "manifest.json"]
    assert not list((run / "checkpoints").iterdir())
    assert json.loads((run / "manifest.json").read_text())["config"]["lr"] == 1e308


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_train_into_a_used_out_dir_replaces_only_the_outputs_of_a_train(dataset, tmp_path, jobs):
    fresh, run = tmp_path / "fresh", tmp_path / "run"
    assert main(_train_args(dataset, fresh)) == 0
    assert main(_train_args(dataset, run, **{"--seeds": 2})) == 0
    (run / "notes.txt").write_text("kept")
    (run / "checkpoints" / "best.json").write_text("{}")
    assert main(_train_args(dataset, run, **{"--jobs": jobs})) == 0
    assert sorted(path.name for path in (run / "checkpoints").iterdir()) == (
        ["best.json"] + [f"ckpt-f{fold}-s0.json" for fold in range(4)])
    for path in fresh.rglob("*"):
        if path.is_file() and path.name != "manifest.json":  # the manifest records the out-dir
            assert path.read_bytes() == (run / path.relative_to(fresh)).read_bytes(), path.name
    manifests = [json.loads((out / "manifest.json").read_text())["manifest_sha256"] for out in (fresh, run)]
    assert manifests[0] == manifests[1]
    assert (run / "notes.txt").read_text() == "kept" and (run / "checkpoints" / "best.json").read_text() == "{}"


def test_train_and_eval_print_the_markdown_report_they_write(dataset, tmp_path, capsys):
    run, ev = tmp_path / "run", tmp_path / "ev"
    assert main(_train_args(dataset, run)) == 0
    assert capsys.readouterr().out == (run / "report.md").read_text() + "\n"
    assert main(["eval", "--checkpoint", str(run / "checkpoints" / "ckpt-f0-s0.json"), "--data", str(dataset),
                 "--out-dir", str(ev)]) == 0
    assert capsys.readouterr().out == (ev / "eval-report.md").read_text() + "\n"
    assert sorted(path.name for path in ev.iterdir()) == ["eval-report.csv", "eval-report.json", "eval-report.md"]


def test_train_flag_overrides_config_file(dataset, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"epochs": 2, "hidden": 8, "fusion_dim": 8,
                                    "batch": 16, "seeds": 1, "objective": "cbce"}))
    out_dir = tmp_path / "run"
    assert main(["train", "--data", str(dataset), "--out-dir", str(out_dir),
                 "--config", str(cfg_file), "--objective", "amber", "--bins", "3"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["objective"] == "amber"  # flag wins
    assert manifest["config"]["epochs"] == 2  # file wins over default


def test_eval_emits_binned_report(dataset, tmp_path):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run)) == 0
    ckpt = sorted((run / "checkpoints").glob("*.json"))[0]
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset),
                 "--bins", "4", "--out-dir", str(out)]) == 0
    report = json.loads((out / "eval-report.json").read_text())
    assert len(report["reports"][0]["bins"]) == 4
    assert load_report(out / "eval-report.json")[1] == report["aggregate"]
    csv_text = (out / "eval-report.csv").read_text()
    assert csv_text.startswith("system,fold,seed,bin,metric,value,mean,std")


@pytest.mark.parametrize("flags", [{}, {"--objective": "cbce", "--student": "a"}], ids=["amber", "cbce-student-a"])
def test_eval_splits_with_the_fold_count_the_run_trained_with(dataset, tmp_path, capsys, flags):
    # 40 rows under a 4-fold header: --folds 5 tests each run on 8 rows, the header's folds hold 10
    run = tmp_path / "run"
    assert main(_train_args(dataset, run, **{"--folds": 5}, **flags)) == 0
    trained = json.loads((run / "report.json").read_text())["reports"][0]
    ckpt = run / "checkpoints" / "ckpt-f0-s0.json"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset), "--bins", "3",
                 "--out-dir", str(tmp_path / "ev")]) == 0
    evaluated = json.loads((tmp_path / "ev" / "eval-report.json").read_text())["reports"][0]
    assert (evaluated["fold"], evaluated["seed"]) == (trained["fold"], trained["seed"]) == (0, 0)
    assert (evaluated["metrics"], evaluated["bins"]) == (trained["metrics"], trained["bins"])
    assert sum(row["count"] for row in evaluated["bins"]) == 8
    assert json.loads(ckpt.read_text())["provenance"]["folds"] == 5
    capsys.readouterr()
    for folds, rule in [(2, "cross-validation splits need at least 3 folds"),  # the dataset has 40 rows
                        (41, "folds must partition the samples with every fold non-empty")]:
        blob = json.loads(ckpt.read_text())
        blob["provenance"]["folds"] = folds
        bad = tmp_path / f"folds-{folds}.json"
        bad.write_text(json.dumps(blob))
        out_dir = tmp_path / f"ev-{folds}"
        assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset), "--split", "test",
                     "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"amber: data validation error: {dataset}: {rule}\n"
        assert not out_dir.exists()


def test_eval_of_a_split_needs_the_run_fold_count(dataset, tmp_path, capsys):
    # without `folds` the header's 4 folds would test on 10 rows, not the run's 8
    run = tmp_path / "run"
    assert main(_train_args(dataset, run, **{"--folds": 5})) == 0
    blob = json.loads((run / "checkpoints" / "ckpt-f0-s0.json").read_text())
    del blob["provenance"]["folds"]
    ckpt = tmp_path / "no-folds.json"
    ckpt.write_text(json.dumps(blob))
    capsys.readouterr()
    for split in ("train", "val", "test"):
        out_dir = tmp_path / f"ev-{split}"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset), "--split", split,
                     "--out-dir", str(out_dir)]) == 2, split
        err = capsys.readouterr().err
        assert err == f"amber: data validation error: {ckpt}: no fold provenance; use --split all\n", err
        assert not out_dir.exists()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset), "--split", "all",
                 "--out-dir", str(tmp_path / "ev-all")]) == 0


def test_eval_rejects_checkpoint_that_does_not_fit_with_exit_2(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run)) == 0
    ckpt = run / "checkpoints" / "ckpt-f0-s0.json"
    for name, overrides in {"dims": {"--dim-a": 5}, "classes": {"--classes": 4}}.items():
        other = tmp_path / f"{name}.jsonl"
        assert main(_gen_args(other, **overrides)) == 0
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(other),
                     "--out-dir", str(tmp_path / name)]) == 2, name
        assert "checkpoint and dataset differ" in capsys.readouterr().err
    blob = json.loads(ckpt.read_text())
    blob["config"]["extra"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                 "--out-dir", str(tmp_path / "bad")]) == 2
    assert "invalid checkpoint" in capsys.readouterr().err
    provenance_cases = [{"system": [1, 2]}, {"seed": {"x": 1}}, {"fold": True}, {"fold": 0.0},
                        {"seed": None}, {"system": 3}, {"folds": 5.0}, {"folds": "5"}, {"note": math.nan},
                        {"extra": [1, {"x": -math.inf}]}]
    for split in ("test", "all"):
        for case in provenance_cases:
            blob = json.loads(ckpt.read_text())
            blob["provenance"].update(case)
            bad.write_text(json.dumps(blob))
            out_dir = tmp_path / "prov"
            assert main(["eval", "--checkpoint", str(bad), "--data", str(dataset),
                         "--split", split, "--out-dir", str(out_dir)]) == 2, (split, case)
            err = capsys.readouterr().err
            assert "bad.json" in err and repr(next(iter(case))) in err, (split, case)
            assert not out_dir.exists()
    blob = json.loads(ckpt.read_text())
    blob["provenance"] = {"system": "random-init"}
    bad.write_text(json.dumps(blob))
    args = ["eval", "--checkpoint", str(bad), "--data", str(dataset), "--out-dir", str(out_dir)]
    assert main(args) == 2
    assert "no fold provenance" in capsys.readouterr().err
    assert main(args + ["--split", "all"]) == 0


def test_train_rejects_more_bins_than_the_smallest_test_fold(dataset, tmp_path, capsys):
    # 40 rows: 10 per test fold at the file's 4 folds, 8 at --folds 5
    assert main(_train_args(dataset, tmp_path / "ok", **{"--bins": 10, "--epochs": 1})) == 0
    assert main(_train_args(dataset, tmp_path / "r1", **{"--bins": 11})) == 1
    assert main(_train_args(dataset, tmp_path / "r2", **{"--bins": 9, "--folds": 5})) == 1
    assert "smallest test fold" in capsys.readouterr().err
    assert main(_train_args(dataset, tmp_path / "r3", **{"--folds": 41})) == 1
    assert "--folds must lie in [3, 40]" in capsys.readouterr().err
    assert main(_train_args(dataset, tmp_path / "r4", **{"--bins": 1})) == 1
    assert "n_bins must be >= 2" in capsys.readouterr().err
    assert not any((tmp_path / run).exists() for run in ("r1", "r2", "r3", "r4"))


@pytest.mark.parametrize("flag, value", [("--hidden", 10**10), ("--hidden", 10**20), ("--fusion-dim", 10**10)])
def test_train_rejects_a_model_too_large_to_allocate(dataset, tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr(trainer, "cross_validate", lambda *args, **kwargs: pytest.fail("training started"))
    assert main(_train_args(dataset, tmp_path / "run", **{flag: value})) == 1
    assert "parameters per run, more than" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [".ds.jsonl.amber-cache", "ds.jsonl", "ds.jsonl.manifest.json"]


def test_eval_rejects_more_bins_than_the_split_rows(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run)) == 0
    ckpt = str(run / "checkpoints" / "ckpt-f0-s0.json")
    args = ["eval", "--checkpoint", ckpt, "--data", str(dataset), "--out-dir", str(tmp_path / "ev")]
    assert main(args + ["--bins", "11"]) == 1  # the test split holds 10 rows
    assert "rows of the test split" in capsys.readouterr().err
    assert main(args + ["--bins", "1"]) == 1
    assert main(args + ["--bins", "11", "--split", "all"]) == 0
    assert main(args + ["--bins", "41", "--split", "all"]) == 1


def _write_report(path, metrics):
    report = EvalReport(system="x", fold=0, seed=0, metrics=metrics)
    emit_report([report], path.with_suffix(""))


def test_compare_identical_reports_zero_deltas(tmp_path, capsys):
    metrics = {"JS": 0.2, "BC": 0.8, "ACC": 0.7}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_report(a, metrics)
    _write_report(b, metrics)
    assert main(["compare", "--baseline", str(a), "--candidate", str(b)]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("|") and "metric" not in line and "---" not in line:
            assert "+0.0000" in line


def test_compare_relative_improvement_matches_reported_numbers(tmp_path, capsys):
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    # R2_raw can be negative: a better candidate over a negative baseline still improves by a positive share;
    # over a subnormal BC baseline the share leaves the float range, so it has none, as over a baseline of 0
    _write_report(base, {"JS": 0.216, "BC": 1e-310, "R2_raw": -0.0886})
    _write_report(cand, {"JS": 0.193, "BC": 1.0, "R2_raw": 0.0043})
    out_csv = tmp_path / "cmp.csv"
    assert main(["compare", "--baseline", str(base), "--candidate", str(cand),
                 "--out", str(out_csv)]) == 0
    out = capsys.readouterr().out
    assert "| all | JS | 0.2160 | 0.1930 | -0.0230 | +10.6% |" in out
    assert "| all | BC | 0.0000 | 1.0000 | +1.0000 | - |" in out
    assert "| all | R2_raw | -0.0886 | 0.0043 | +0.0929 | +104.9% |" in out
    js, bc, r2_raw = (row.split(",") for row in out_csv.read_text().splitlines()[1:])
    assert abs(float(js[5]) - (0.216 - 0.193) / 0.216) < 1e-12
    assert bc[1:] == ["BC", "1e-310", "1.0", "1.0", ""]
    assert abs(float(r2_raw[5]) - (0.0043 + 0.0886) / 0.0886) < 1e-12


def test_compare_prints_its_markdown_table_byte_for_byte(tmp_path, capsys):
    base, cand = tmp_path / "base.json", tmp_path / "cand.json"
    _write_report(base, {"JS": 0.25, "BC": 0.75, "R2": 0.0, "ACC": 0.5})
    _write_report(cand, {"JS": 0.125, "BC": 0.875, "R2": 0.25, "ACC": 0.375})
    assert main(["compare", "--baseline", str(base), "--candidate", str(cand)]) == 0
    assert capsys.readouterr().out == (
        "| bin | metric | baseline | candidate | delta | improvement |\n"
        "|---|---|---|---|---|---|\n"
        "| all | JS | 0.2500 | 0.1250 | -0.1250 | +50.0% |\n"
        "| all | BC | 0.7500 | 0.8750 | +0.1250 | +16.7% |\n"
        "| all | R2 | 0.0000 | 0.2500 | +0.2500 | - |\n"
        "| all | ACC | 0.5000 | 0.3750 | -0.1250 | -25.0% |\n"
    )


def _with_integer_cells(path, metric, mean):
    """Hand-edit the aggregate cell of `metric` to an integer `mean` and `std` 0, as `emit_report` never writes them."""
    blob = json.loads(path.read_text())
    blob["aggregate"]["metrics"][metric].update(mean=mean, std=0)
    path.write_text(json.dumps(blob))


def test_compare_reads_integer_means_as_the_floats_they_equal(tmp_path, capsys):
    base, cand, out = tmp_path / "base.json", tmp_path / "cand.json", tmp_path / "cmp.csv"
    _write_report(base, {"BC": 0.0})
    _write_report(cand, {"BC": 1.0})
    seen = []
    for integers in (False, True):
        if integers:
            _with_integer_cells(base, "BC", 0)
            _with_integer_cells(cand, "BC", 1)
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand), "--out", str(out)]) == 0
        seen.append((capsys.readouterr().out, out.read_text()))
    assert seen[0] == seen[1]
    assert seen[1][1].splitlines()[1] == "all,BC,0.0,1.0,1.0,"


def test_compare_with_a_delta_outside_the_float_range_exits_2_naming_both_files(tmp_path, capsys):
    base, cand, out = tmp_path / "base.json", tmp_path / "cand.json", tmp_path / "cmp.csv"
    for path, mean in [(base, -10**308), (cand, 10**308)]:
        _write_report(path, {"JS": 0.25, "BC": 0.5})
        _with_integer_cells(path, "BC", mean)
    assert main(["compare", "--baseline", str(base), "--candidate", str(cand), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (f"amber: data validation error: {cand}: BC (bin all) differs from baseline {base} "
                            "by more than the float range\n")


def _report_with_bins(path, metrics, bin_metrics):
    """A one-run report whose bin k spans [k/2, (k+1)/2] and holds `bin_metrics[k]` (None: an empty bin)."""
    bins = [{"bin": k, "lo": k / 2, "hi": (k + 1) / 2, "count": 0 if cells is None else 4, "metrics": cells}
            for k, cells in enumerate(bin_metrics)]
    emit_report([EvalReport(system="x", fold=0, seed=0, metrics=metrics, bins=bins)], path.with_suffix(""))


def test_compare_prints_overall_and_per_bin_rows_byte_for_byte(tmp_path, capsys):
    """Bin 1 is empty in both reports and bin 2 in the baseline alone; R2 is undefined in the candidate's bin 0."""
    base, cand, out = tmp_path / "base.json", tmp_path / "cand.json", tmp_path / "cmp.csv"
    _report_with_bins(base, {"JS": 0.25, "ACC": 0.5}, [{"JS": 0.125, "R2": 0.5, "ACC": 1.0}, None, None])
    _report_with_bins(cand, {"JS": 0.125, "ACC": 0.625}, [{"JS": 0.0625, "ACC": 0.5}, None, {"JS": 0.75, "ACC": 0.0}])
    assert main(["compare", "--baseline", str(base), "--candidate", str(cand), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "| bin | metric | baseline | candidate | delta | improvement |\n"
        "|---|---|---|---|---|---|\n"
        "| all | JS | 0.2500 | 0.1250 | -0.1250 | +50.0% |\n"
        "| all | ACC | 0.5000 | 0.6250 | +0.1250 | +25.0% |\n"
        "| 0 | JS | 0.1250 | 0.0625 | -0.0625 | +50.0% |\n"
        "| 0 | R2 | 0.5000 | - | - | - |\n"
        "| 0 | ACC | 1.0000 | 0.5000 | -0.5000 | -50.0% |\n"
        "| 2 | JS | - | 0.7500 | - | - |\n"
        "| 2 | ACC | - | 0.0000 | - | - |\n"
    )
    assert out.read_text() == (
        "bin,metric,baseline_mean,candidate_mean,delta,relative_improvement\n"
        "all,JS,0.25,0.125,-0.125,0.5\n"
        "all,ACC,0.5,0.625,0.125,0.25\n"
        "0,JS,0.125,0.0625,-0.0625,0.5\n"
        "0,R2,0.5,,,\n"
        "0,ACC,1.0,0.5,-0.5,-0.5\n"
        "2,JS,,0.75,,\n"
        "2,ACC,,0.0,,\n"
    )


def test_compare_metric_set_mismatch_is_data_error(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_report(a, {"JS": 0.2, "BC": 0.8})
    _write_report(b, {"JS": 0.2})
    assert main(["compare", "--baseline", str(a), "--candidate", str(b)]) == 2
    assert capsys.readouterr().err == (
        f"amber: data validation error: {b}: metric sets differ from baseline {a}: ['BC']\n")


def _binned_report(path, system, n_bins, seed=0, n_classes=3):
    rng = np.random.default_rng(seed)
    preds, targets = rng.dirichlet(np.ones(n_classes), size=(2, 40))
    report = EvalReport(system=system, fold=0, seed=seed, metrics=all_metrics(preds, targets),
                        bins=ambiguity_bins(preds, targets, n_bins))
    emit_report([report], path.with_suffix(""))


def test_compare_prints_every_bin_of_a_train_report(dataset, tmp_path, capsys):
    run, other, out = tmp_path / "run", tmp_path / "other.json", tmp_path / "cmp.csv"
    assert main(_train_args(dataset, run)) == 0
    _binned_report(other, "amber", 3)  # the train's system, class count and bin count: the same edges
    capsys.readouterr()
    assert main(["compare", "--baseline", str(run / "report.json"), "--candidate", str(other),
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(capsys.readouterr().out.splitlines()) == 2 + len(rows)

    def mean(cells, name):
        return repr(cells[name]["mean"]) if name in cells else ""

    (_, base), (_, cand) = load_report(run / "report.json"), load_report(other)
    expected = [("all", name, mean(base["metrics"], name), mean(cand["metrics"], name)) for name in base["metrics"]]
    for k, (b, c) in enumerate(zip(base["bins"], cand["bins"])):
        expected += [(str(k), name, mean(b["metrics"], name), mean(c["metrics"], name))
                     for name in BIN_METRICS if name in b["metrics"] or name in c["metrics"]]
    assert len(base["bins"]) == 3 and len(expected) > len(base["metrics"])
    assert [(row["bin"], row["metric"], row["baseline_mean"], row["candidate_mean"]) for row in rows] == expected


def test_compare_rejects_reports_with_different_bin_edges(tmp_path, capsys):
    four, two, four_classes, out = (tmp_path / name for name in ("four.json", "two.json", "c4.json", "cmp.csv"))
    _binned_report(four, "amber", 4)
    _binned_report(two, "cbce", 2)
    _binned_report(four_classes, "amber", 4, n_classes=4)  # as many bins as `four`, over [0, 2] bits
    for base, cand in [(four, two), (four, four_classes)]:
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"amber: data validation error: {cand}: bin edges differ from baseline {base}: ")
        assert captured.err.count("\n") == 1


def test_bins_is_no_longer_a_command(tmp_path, capsys):
    report = tmp_path / "report.json"
    _binned_report(report, "amber", 3)
    assert main(["bins", "--report", str(report)]) == 1
    assert "invalid choice: 'bins'" in capsys.readouterr().err


def test_malformed_datasets_exit_2_with_line_numbers(tmp_path, capsys):
    header = {"schema": "amber-ds-v1", "C": 3, "dim_a": 2, "dim_t": 2, "folds": 3}

    def record(i, **kw):
        rec = {"id": f"s{i}", "h_a": [0.0, 1.0], "h_t": [1.0, 0.0], "votes": [2, 1, 1]}
        rec.update(kw)
        return rec

    cases = {
        "votes.jsonl": [header, record(0), record(1, votes=[0, 0, 0]), record(2)],
        "dims.jsonl": [header, record(0), record(1, h_a=[1.0, 2.0, 3.0]), record(2)],
        "dup.jsonl": [header, record(0), record(1), record(2, id="s0")],
        "bool-votes.jsonl": [header, record(0), record(1, votes=[True, 2, 1]), record(2)],
        "str-feats.jsonl": [header, record(0), record(1, h_a=["1.0", "2"]), record(2)],
        "nested-h_a.jsonl": [header, record(0), record(1, h_a=[[1], [2]]), record(2)],
        "nested-h_t.jsonl": [header, record(0), record(1), record(2, h_t=[[1.0], [0.0]])],
        "float-header.jsonl": [{**header, "C": 3.7}, record(0), record(1), record(2)],
        "huge-feature.jsonl": [header, record(0), record(1, h_t=[10**400, 0.0]), record(2)],
        "huge-votes.jsonl": [header, record(0), record(1, votes=[2**63, 1, 1]), record(2)],
    }
    for name, lines in cases.items():
        path = tmp_path / name
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        out_dir = tmp_path / (name + ".out")
        code = main(["train", "--data", str(path), "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2, name
        assert "line" in err, name


@pytest.mark.parametrize("command", ["train", "eval"])
def test_invalid_utf8_in_a_dataset_exits_2_naming_its_line(dataset, tmp_path, capsys, command):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run)) == 0
    lines = dataset.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b'"id": "', b'"id": "\xff', 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    if command == "train":
        args = _train_args(bad, tmp_path / "bad-run")
    else:
        args = ["eval", "--checkpoint", str(run / "checkpoints" / "ckpt-f0-s0.json"), "--data", str(bad),
                "--out-dir", str(tmp_path / "bad-eval")]
    assert main(args) == 2
    assert f"amber: data validation error: {bad}: line 4: invalid UTF-8" in capsys.readouterr().err


_HEADER = '{"schema": "amber-ds-v1", "C": 3, "dim_a": 2, "dim_t": 2, "folds": 3}'
_RECORDS = [f'{{"id": "s{i}", "h_a": [0.0, 1.0], "h_t": [1.0, 0.0], "votes": [2, 1, 1]}}' for i in range(3)]


def test_records_separated_only_by_a_unicode_line_break_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(_HEADER + "\n" + _RECORDS[0] + "\n" + "\u2028".join(_RECORDS[1:]) + "\n", encoding="utf-8")
    assert main(_train_args(bad, tmp_path / "run")) == 2
    assert capsys.readouterr().err == f"amber: data validation error: {bad}: line 3: malformed JSON (Extra data)\n"


@pytest.mark.parametrize("char", ["\u00a0", "\u2028", "\v", "\u3000"], ids=["U+00A0", "U+2028", "VT", "U+3000"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "over-a-clean-sidecar"])
def test_a_line_of_whitespace_outside_json_exits_2_naming_it(tmp_path, capsys, char, warm):
    data = tmp_path / "data.jsonl"
    if warm:  # the sidecar of the clean file is keyed to other bytes, so the bad file is parsed
        data.write_text("\n".join([_HEADER, *_RECORDS]) + "\n", encoding="utf-8")
        load_jsonl(data)
        assert data.with_name(".data.jsonl.amber-cache").exists()
    data.write_text("\n".join([_HEADER, _RECORDS[0], char, *_RECORDS[1:]]) + "\n", encoding="utf-8")
    assert main(_train_args(data, tmp_path / "run")) == 2
    assert capsys.readouterr().err == f"amber: data validation error: {data}: line 3: malformed JSON (Expecting value)\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("lines, message", [
    ([_HEADER.replace('"dim_a": 2', '"dim_a": 1' + "0" * 400), *_RECORDS],
     "line 1: header dimensions too large to allocate"),
    ([_HEADER, _RECORDS[0], _RECORDS[1].replace("0.0", "1" * 5000, 1), _RECORDS[2]],
     "line 3: malformed JSON (integer literal too long)"),
    ([_HEADER, *_RECORDS[:2], _RECORDS[2].replace("[0.0, 1.0]", "[" * 100_000 + "]" * 100_000)],
     "line 4: malformed JSON (nested too deeply)"),
], ids=["dim-10**400", "5000-digit-literal", "nested-100000-deep"])
def test_a_dataset_beyond_the_parser_limits_exits_2_naming_its_line(tmp_path, capsys, command, lines, message):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    if command == "train":
        args = _train_args(bad, tmp_path / "run")
    else:
        cfg = ModelConfig(dim_a=2, dim_t=2, n_classes=3, hidden=4, fusion_dim=4)
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(ckpt, cfg, init_params(cfg, 0), {"system": "amber", "fold": 0, "seed": 0})
        args = ["eval", "--checkpoint", str(ckpt), "--data", str(bad), "--out-dir", str(tmp_path / "ev")]
    assert main(args) == 2
    assert f"amber: data validation error: {bad}: {message}\n" == capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exits_3(dataset, tmp_path, capsys):
    out_dir = tmp_path / "boom"
    code = main(_train_args(dataset, out_dir, **{"--lr": "1e30"}))
    assert code == 3
    assert "numerical abort" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("batch, where", [(16, "(epoch 1, batch 1)"), (32, "(epoch 1)")])
def test_overflowing_forward_pass_in_train_exits_3(dataset, tmp_path, capsys, batch, where):
    # 20 training rows: batch 16 overflows the fused embedding in the second
    # step, batch 32 (one step per epoch) in the validation pass after it
    code = main(_train_args(dataset, tmp_path / "boom", **{"--lr": "1e308", "--batch": batch}))
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("amber: numerical abort: ") and err.endswith(f"{where}\n"), err


def _overflowing_checkpoint(path):
    """A checkpoint for `dataset` whose parameters overflow the forward pass."""
    cfg = ModelConfig(dim_a=4, dim_t=4, n_classes=3, hidden=4, fusion_dim=4)
    params = {name: np.full_like(value, 1e307) for name, value in init_params(cfg, 0).items()}
    save_checkpoint(path, cfg, params, {"system": "amber", "fold": 0, "seed": 0, "folds": 4})
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_forward_pass_in_eval_exits_3(dataset, tmp_path, capsys):
    ckpt = _overflowing_checkpoint(tmp_path / "ckpt.json")
    out = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("amber: numerical abort: ") and err.count("\n") == 1, err
    assert not (out / "eval-report.json").exists()


# train flags that overflow: the forward pass after a step, the AdamW update
# (lr * weight decay * theta), and the AdamW second moment (g * g), which
# without a check would freeze the model at v = inf and exit 0
OVERFLOWING_TRAIN_FLAGS = {
    "train": {"--lr": "1e308"},
    "adamw-update": {"--lr": "1e308", "--weight-decay": "1e300"},
    "adamw-moment": {"--lambda-rai": "1e308", "--lambda-mai": "1e308"},
}


@pytest.mark.parametrize("command, jobs", [("train", 1), ("train", 2), ("eval", None), ("adamw-update", 1),
                                           ("adamw-update", 2), ("adamw-moment", 1), ("adamw-moment", 2)])
def test_a_numerical_abort_prints_one_stderr_line(dataset, tmp_path, command, jobs):
    # a fresh interpreter with warnings shown, so numpy's RuntimeWarnings would reach stderr
    if command == "eval":
        ckpt = _overflowing_checkpoint(tmp_path / "ckpt.json")
        args = ["eval", "--checkpoint", ckpt, "--data", dataset, "--out-dir", tmp_path / "ev"]
    else:
        args = _train_args(dataset, tmp_path / "boom", **OVERFLOWING_TRAIN_FLAGS[command], **{"--jobs": jobs})
    proc = subprocess.run([sys.executable, "-m", "amber.cli", *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "default"}, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("amber: numerical abort: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_gen_whose_noise_overflows_prints_only_its_usage_error(tmp_path):
    # a fresh interpreter with warnings shown, so numpy's RuntimeWarnings would reach stderr
    args = ["gen", "--samples", 20, "--classes", 2, "--dim-a", 2, "--dim-t", 2, "--noise", 1.7e308,
            "--out", tmp_path / "x.jsonl"]
    proc = subprocess.run([sys.executable, "-m", "amber.cli", *map(str, args)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "default"}, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert proc.stderr.splitlines()[-1] == "amber: error: features must be finite", proc.stderr
    assert os.listdir(tmp_path) == []


def _exit_in_last_run(checkpoints, ds, fold, seed, cfg):
    """Train every run but the last, which exits its worker once every earlier checkpoint is written."""
    if fold < ds.fold_count - 1:
        return _train_one(ds, fold, seed, cfg)
    deadline = time.monotonic() + 60
    while len(list(checkpoints.glob("*.json"))) < fold and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(7)


def test_dead_worker_exits_4_with_a_message(dataset, tmp_path, capsys, monkeypatch):
    checkpoints = tmp_path / "dead" / "checkpoints"
    monkeypatch.setattr(trainer, "train_one", functools.partial(_exit_in_last_run, checkpoints))
    code = main(_train_args(dataset, tmp_path / "dead", **{"--jobs": 2}))
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("amber: worker process died:") and "Traceback" not in err
    # the runs that finished before the dead one keep their checkpoints
    assert sorted(path.name for path in checkpoints.iterdir()) == [f"ckpt-f{fold}-s0.json" for fold in range(3)]


def test_malformed_config_file_exits_2(dataset, tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text('{"epochs": 2,')
    assert main(_train_args(dataset, tmp_path / "run", **{"--config": cfg_file})) == 2
    err = capsys.readouterr().err
    assert "data validation error" in err and "bad.json" in err


def test_compare_rejects_non_report_json_with_exit_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    _write_report(good, {"JS": 0.2})
    malformed_aggregates = (
        {"metrics": {}, "bins": [1]},
        {"metrics": {"JS": 1}, "bins": []},
        {"metrics": {"JS": {"mean": "x", "std": 0.0}}, "bins": []},
        {"metrics": {"JS": {"mean": True, "std": 0.0}}, "bins": []},
        {"metrics": {"JS": {"mean": 1e400, "std": 0.0}}, "bins": []},
        {"metrics": {"JS": {"mean": 0.1, "std": 0.0}}, "bins": []},
        {"metrics": {"JS": {"mean": 0.1, "std": 0.0, "n": "many"}}, "bins": []},
        {"metrics": {"JS": {"mean": 0.1, "std": 0.0, "n": True}}, "bins": []},
        {"metrics": {"JS": {"mean": 0.1, "std": 0.0, "n": 0}}, "bins": []},
        {"metrics": {"JS": {"mean": 0.1, "std": 0.0, "n": 1, "extra": 1}}, "bins": []},
        {"metrics": {}, "bins": [{"bin": 0, "count": 1, "lo": 0, "hi": 1,
                                  "metrics": {"JS": {"mean": 0.1, "std": 0.0, "n": 1.0}}}]},
        {"metrics": {}, "bins": [{"bin": 0}]},
        {"metrics": {}, "bins": [{"metrics": {"JS": {"mean": 0.1}}}]},
        {"metrics": {}, "bins": [{"lo": "x", "metrics": {}}]},
    )
    blobs = [{"runs": []}, {"reports": []}, {"reports": [], "aggregate": {"metrics": {}}}, []]
    blobs += [{"reports": [], "aggregate": agg} for agg in malformed_aggregates]
    for blob in blobs:
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        assert main(["compare", "--baseline", str(bad), "--candidate", str(good)]) == 2, blob
        assert main(["compare", "--baseline", str(good), "--candidate", str(bad)]) == 2, blob
        assert "data validation error" in capsys.readouterr().err
    unknown_names = {  # names that no aggregate of `emit_report` holds
        "unknown aggregate keys: ['extra']": lambda agg: agg.update(extra=5),
        "unknown bin row keys: ['extra']": lambda agg: agg["bins"][0].update(extra=5),
        "unknown metric names: ['XYZ']": lambda agg: agg["metrics"].update(XYZ=agg["metrics"]["JS"]),
        "unknown metric names: ['R2_clamped']": lambda agg: agg["bins"][1]["metrics"].update(
            R2_clamped={"mean": 0.5, "std": 0.0}),
    }
    for named, edit in unknown_names.items():
        blob = json.loads(_REPORT_TEXT)
        edit(blob["aggregate"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        assert main(["compare", "--baseline", str(bad), "--candidate", str(good)]) == 2, named
        assert main(["compare", "--baseline", str(good), "--candidate", str(bad)]) == 2, named
        assert capsys.readouterr().err.count(named) == 2, named


def test_compare_rejects_a_report_without_a_key_emit_report_writes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(_REPORT_TEXT)
    cases = {"missing run keys: ['bins']": lambda blob: blob["reports"][0].pop("bins"),
             "missing run keys: ['provenance']": lambda blob: blob["reports"][1].pop("provenance"),
             "missing bin row keys: ['bin']": lambda blob: blob["aggregate"]["bins"][0].pop("bin"),
             "missing bin row keys: ['count']": lambda blob: blob["aggregate"]["bins"][2].pop("count")}
    for named, edit in cases.items():
        blob = json.loads(_REPORT_TEXT)
        edit(blob)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        assert main(["compare", "--baseline", str(bad), "--candidate", str(good)]) == 2, named
        assert main(["compare", "--baseline", str(good), "--candidate", str(bad)]) == 2, named
        assert capsys.readouterr().err.count(named) == 2, named


def _fuzz_report_text():
    rng = np.random.default_rng(3)
    reports = []
    for fold in range(2):
        preds, targets = rng.dirichlet(np.ones(3), size=(2, 12))
        reports.append(EvalReport(system="amber", fold=fold, seed=0, metrics=all_metrics(preds, targets),
                                  bins=ambiguity_bins(preds, targets, 3)))
    with tempfile.TemporaryDirectory() as tmp:
        emit_report(reports, Path(tmp) / "r")
        return (Path(tmp) / "r.json").read_text()


_REPORT_TEXT = _fuzz_report_text()
_REPORT_CELLS = [True, False, None, "x", "", [], {}, [0.5], {"mean": 0.5}, {"mean": 0.5, "std": 0.0},
                 {"mean": 0.5, "std": 0.0, "n": 1}, {"mean": 0.5, "std": 0.0, "n": 0},
                 {"mean": 0.5, "std": 0.0, "n": True}, {"mean": 0.5, "std": 0.0, "n": 2, "extra": 1},
                 0, -1, 0.5, 5e-324, 1e308, -1e308, 2**70, -2**70, 2**1100, math.inf, math.nan]


def _json_paths(node, prefix=()):
    """The key path of every value below `node`, the root excluded."""
    keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield prefix + (key,)
        yield from _json_paths(node[key], prefix + (key,))


def _report_mutant(draw):
    """One to three value edits of a valid report.json, its file then maybe cut short."""
    blob = json.loads(_REPORT_TEXT)
    depth = draw(st.sampled_from([2, 50, 100_000]))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_json_paths(blob))
        if not paths:  # every key is gone; `{}` is a mutant too
            break
        *parents, last = draw(st.sampled_from(paths))
        node = blob
        for key in parents:
            node = node[key]
        kind = draw(st.sampled_from(["replace", "remove", "deep"]))
        if kind == "replace":
            node[last] = copy.deepcopy(draw(st.sampled_from(_REPORT_CELLS)))
        elif kind == "remove":
            del node[last]
        else:
            node[last] = "__deep__"
    text = json.dumps(blob, indent=2).replace('"__deep__"', "[" * depth + "]" * depth)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def _metric_cells_are_exact(text):
    """Every aggregate and bin-row metric cell holds just `mean`, `std` and a positive int `n`."""
    summary = json.loads(text)["aggregate"]
    return all(set(cell) == {"mean", "std", "n"} and type(cell["n"]) is int and cell["n"] >= 1
               for metrics in [summary["metrics"]] + [row["metrics"] for row in summary["bins"]]
               for cell in metrics.values())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_mutant_report_compares_or_exits_2_with_a_named_error(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("report")
    good, bad, out = folder / "good.json", folder / "bad.json", folder / "out.csv"
    good.write_text(_REPORT_TEXT, encoding="utf-8")
    text = _report_mutant(data.draw)
    bad.write_text(text, encoding="utf-8")
    shapes = (
        ["compare", "--baseline", str(bad), "--candidate", str(good)],
        ["compare", "--baseline", str(good), "--candidate", str(bad), "--out", str(out)],
    )
    for args in shapes:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        err = stderr.getvalue()
        if code == 0:
            assert err == "" and _metric_cells_are_exact(text), args
        else:
            assert code == 2, (args, err)
            assert err.startswith("amber: data validation error: ") and err.count("\n") == 1, err


# fault -> (file bytes, the reason its one stderr line holds; {line} is "line 1: " or, on a dataset line, "line 2: ")
_JSON_FAULTS = {
    "truncated": (b'{"a": ', "{line}malformed JSON (Expecting value)"),
    "0xff-byte": (b'{"a": "\xff"}', "{line}invalid UTF-8 (invalid start byte)"),
    "5000-digits": (b'{"a": 1' + b"0" * 4999 + b"}", "malformed JSON (integer literal too long)"),
    "nested-100000-deep": (b"[" * 100_000 + b"]" * 100_000, "malformed JSON (nested too deeply)"),
    "top-level-array": (b"[1, 2]", "expected a JSON object"),
}


@pytest.mark.parametrize("command", ["eval", "compare", "train", "data"])
def test_json_nested_too_deeply_exits_2_naming_the_file(dataset, tmp_path, capsys, command):
    """Every fault of `_JSON_FAULTS`, in the file one reader takes in, exits 2 with one line naming the file."""
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    _write_report(good, {"JS": 0.2})
    for fault, (text, reason) in _JSON_FAULTS.items():
        out = tmp_path / f"out-{fault}"
        args = {
            "eval": ["eval", "--checkpoint", str(bad), "--data", str(dataset), "--out-dir", str(out)],
            "compare": ["compare", "--baseline", str(good), "--candidate", str(bad)],
            "train": _train_args(dataset, out, **{"--config": bad}),
            "data": _train_args(bad, out),
        }[command]
        if command == "data":
            text = _HEADER.encode() + b"\n" + text + b"\n"
            reason = "line 2: " + reason.format(line="")
        bad.write_bytes(text)
        assert main(args) == 2, fault
        err = capsys.readouterr().err
        assert err.startswith(f"amber: data validation error: {bad}: ") and err.count("\n") == 1, (fault, err)
        assert reason.format(line="line 1: ") in err, (fault, err)
        for name in ("Traceback", "JSONDecodeError", "UnicodeDecodeError", "KeyError", "TypeError:"):
            assert name not in err, (fault, err)
        assert not out.exists(), fault


def test_missing_dataset_file_exits_2(tmp_path, dataset, capsys):
    missing, folder, out = str(tmp_path / "missing.jsonl"), str(tmp_path), str(tmp_path / "out")
    cases = [
        ["train", "--data", missing, "--out-dir", out],
        ["train", "--data", folder, "--out-dir", out],
        ["train", "--data", str(dataset), "--config", folder, "--out-dir", out],
        ["eval", "--checkpoint", folder, "--data", str(dataset), "--out-dir", out],
        ["compare", "--baseline", folder, "--candidate", folder],
    ]
    for args in cases:
        assert main(args) == 2, args
        assert "amber: " in capsys.readouterr().err, args
    assert not (tmp_path / "out").exists()
    # an output that cannot be written: the error names it, not the temporary file beside it
    report, in_missing, a_folder = tmp_path / "report.json", tmp_path / "missing" / "x.csv", tmp_path / "w"
    _write_report(report, {"JS": 0.2})
    a_folder.mkdir()
    for args, out, code in [
        (["compare", "--baseline", str(report), "--candidate", str(report)], in_missing, errno.ENOENT),
        (["compare", "--baseline", str(report), "--candidate", str(report)], a_folder, errno.EISDIR),
    ]:
        before = sorted(os.listdir(tmp_path))
        assert main(args + ["--out", str(out)]) == 2, args
        captured = capsys.readouterr()  # the CSV is written before the table is printed
        assert captured.out == "" and captured.err == f"amber: [Errno {code}] {os.strerror(code)}: '{out}'\n", args
        assert sorted(os.listdir(tmp_path)) == before and not list(a_folder.iterdir()), args


_CONFIG_VALUE_CASES = {
    "epochs-float": ('{"epochs": 1.9}', [], "option 'epochs'", 1),
    "epochs-bool": ('{"epochs": true}', [], "option 'epochs'", 1),
    "lr-string": ('{"lr": "0.001"}', [], "option 'lr'", 1),
    "jobs-float": ('{"jobs": 2.5}', [], "option 'jobs'", 1),
    "lr-nan": ('{"lr": NaN}', [], "option 'lr'", 1),
    "lr-inf": ('{"lr": 1e400}', [], "option 'lr'", 1),
    "lr-huge-int": ('{"lr": 1' + "0" * 400 + "}", [], "option 'lr'", 1),
    "lr-nan-flag": ("{}", ["--lr", "nan"], "option 'lr'", 1),
    "hidden-null": ('{"hidden": null}', [], "option 'hidden'", 1),
    "data-key": ('{"data": "nope.jsonl"}', [], "unknown config keys: ['data']", 1),  # --data is a flag only
    "misspelt-key": ('{"epoch": 2, "epochs": 2}', [], "unknown config keys: ['epoch']", 1),
    "lr-int": ('{"lr": 1, "epochs": 1, "seeds": 1, "hidden": 8, "fusion_dim": 8, "bins": 3}', [], None, 0),
}


@pytest.mark.parametrize("text, flags, error, code", _CONFIG_VALUE_CASES.values(), ids=list(_CONFIG_VALUE_CASES))
def test_config_values_are_type_checked_before_the_manifest(dataset, tmp_path, capsys, text, flags, error, code):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    out_dir = tmp_path / "run"
    assert main(["train", "--data", str(dataset), "--out-dir", str(out_dir),
                 "--config", str(cfg_file)] + flags) == code
    if code:
        assert error in capsys.readouterr().err
        assert not out_dir.exists()
    else:  # an int is a float value, recorded as a float
        manifest = (out_dir / "manifest.json").read_text()
        assert json.loads(manifest)["config"]["lr"] == 1.0 and '"lr": 1.0,' in manifest


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**400, -(10**400)])
    | st.floats() | st.text(max_size=8)
    | st.sampled_from(["amber", "cbce", "a", "t", "at", "rai", "none", "detached", "coupled"])
)
_JSON_FLAT = st.lists(_JSON_SCALARS, max_size=3) | st.dictionaries(st.text(max_size=4), _JSON_SCALARS, max_size=3)
# scalars, flat containers and one nested level: about 40% of the test's draws are scalars, the values a config holds
_JSON_VALUES = st.one_of(
    _JSON_SCALARS,
    _JSON_FLAT,
    st.lists(_JSON_FLAT, max_size=2) | st.dictionaries(st.text(max_size=4), _JSON_FLAT, max_size=2),
)
_DATASET_SHAPE = SimpleNamespace(dim_a=4, dim_t=4, n_classes=3)  # all _train_config reads of a dataset


@settings(max_examples=500, deadline=None)
@given(key=st.sampled_from(sorted(TRAIN_OPTIONS)), value=_JSON_VALUES)
@example("lr", math.nan)
@example("kappa", -math.inf)
@example("lr", 10**400)
@example("seeds", 2**63)
@example("seeds", 10**400)
@example("epochs", True)
@example("hidden", None)
@example("folds", None)
def test_any_config_value_resolves_to_its_row_type_or_exits_1_or_2(key, value):
    parser = build_parser()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_file = Path(tmp) / "cfg.json"
        cfg_file.write_text(json.dumps({key: value}))
        ns = parser.parse_args(["train", "--data", "-", "--out-dir", "-", "--config", str(cfg_file)])
        try:
            resolved = _resolve_train_config(ns, parser)
            cfg = _train_config(resolved, _DATASET_SHAPE, parser)
        except SystemExit as exc:
            assert exc.code == 1
            return
        except DataValidationError:
            return
    typ = TRAIN_OPTIONS[key][2]
    assert isinstance(cfg, TrainConfig)
    for name, (_, _, row_type, _, _) in TRAIN_OPTIONS.items():
        got, default = resolved[name], TRAIN_DEFAULTS[name]
        if name == "folds" and got is None:
            continue
        assert type(got) is row_type, (name, got)
        assert row_type is not float or math.isfinite(got), (name, got)
        assert name == key or got == default, (name, got)
    assert resolved[key] == value or (typ is float and resolved[key] == float(value))
