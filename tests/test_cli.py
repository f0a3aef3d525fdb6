import json
import math
import os
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amber import trainer
from amber.cli import TRAIN_OPTIONS, _resolve_train_config, _train_config, build_parser, main
from amber.errors import DataValidationError
from amber.evalreport import EvalReport, emit_report
from amber.trainer import TrainConfig


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
    csv_text = (out / "eval-report.csv").read_text()
    assert csv_text.startswith("system,fold,seed,bin,metric,value,mean,std")


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
                        {"seed": None}, {"system": 3}]
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
    assert not any((tmp_path / run).exists() for run in ("r1", "r2", "r3"))


@pytest.mark.parametrize("flag, value", [("--hidden", 10**10), ("--hidden", 10**20), ("--fusion-dim", 10**10)])
def test_train_rejects_a_model_too_large_to_allocate(dataset, tmp_path, capsys, monkeypatch, flag, value):
    monkeypatch.setattr(trainer, "cross_validate", lambda *args, **kwargs: pytest.fail("training started"))
    assert main(_train_args(dataset, tmp_path / "run", **{flag: value})) == 1
    assert "parameters per run, more than" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.jsonl", "ds.jsonl.manifest.json"]


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
    emit_report([report], path, "json")


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
    _write_report(base, {"JS": 0.216})
    _write_report(cand, {"JS": 0.193})
    out_csv = tmp_path / "cmp.csv"
    assert main(["compare", "--baseline", str(base), "--candidate", str(cand),
                 "--out", str(out_csv)]) == 0
    assert "+10.6%" in capsys.readouterr().out
    row = out_csv.read_text().splitlines()[1].split(",")
    assert abs(float(row[4]) - (0.216 - 0.193) / 0.216) < 1e-12


def test_compare_metric_set_mismatch_is_data_error(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _write_report(a, {"JS": 0.2, "BC": 0.8})
    _write_report(b, {"JS": 0.2})
    assert main(["compare", "--baseline", str(a), "--candidate", str(b)]) == 2
    assert "metric sets differ" in capsys.readouterr().err


def test_bins_command_prints_table(dataset, tmp_path, capsys):
    run = tmp_path / "run"
    assert main(_train_args(dataset, run)) == 0
    out_csv = tmp_path / "bins.csv"
    assert main(["bins", "--report", str(run / "report.json"), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("bin,lo,hi,")
    assert len(lines) == 4  # 3 bins + header


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exits_3(dataset, tmp_path, capsys):
    out_dir = tmp_path / "boom"
    code = main(_train_args(dataset, out_dir, **{"--lr": "1e30"}))
    assert code == 3
    assert "numerical abort" in capsys.readouterr().err


def _exit_in_worker(cell):
    os._exit(7)


def test_dead_worker_exits_4_with_a_message(dataset, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(trainer, "_run_cell", _exit_in_worker)
    code = main(_train_args(dataset, tmp_path / "dead", **{"--jobs": 2}))
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("amber: worker process died:") and "Traceback" not in err


def test_malformed_config_file_exits_2(dataset, tmp_path, capsys):
    cfg_file = tmp_path / "bad.json"
    cfg_file.write_text('{"epochs": 2,')
    assert main(_train_args(dataset, tmp_path / "run", **{"--config": cfg_file})) == 2
    err = capsys.readouterr().err
    assert "data validation error" in err and "bad.json" in err


def test_compare_and_bins_reject_non_report_json_with_exit_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    _write_report(good, {"JS": 0.2})
    malformed_aggregates = (
        {"metrics": {}, "bins": [1]},
        {"metrics": {"JS": 1}, "bins": []},
        {"metrics": {"JS": {"mean": "x", "std": 0.0}}, "bins": []},
        {"metrics": {"JS": {"mean": True, "std": 0.0}}, "bins": []},
        {"metrics": {"JS": {"mean": 1e400, "std": 0.0}}, "bins": []},
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
        assert main(["bins", "--report", str(bad)]) == 2, blob
        assert "data validation error" in capsys.readouterr().err


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


_CONFIG_VALUE_CASES = {
    "epochs-float": ('{"epochs": 1.9}', [], "epochs", 1),
    "epochs-bool": ('{"epochs": true}', [], "epochs", 1),
    "lr-string": ('{"lr": "0.001"}', [], "lr", 1),
    "jobs-float": ('{"jobs": 2.5}', [], "jobs", 1),
    "lr-nan": ('{"lr": NaN}', [], "lr", 1),
    "lr-inf": ('{"lr": 1e400}', [], "lr", 1),
    "lr-huge-int": ('{"lr": 1' + "0" * 400 + "}", [], "lr", 1),
    "lr-nan-flag": ("{}", ["--lr", "nan"], "lr", 1),
    "hidden-null": ('{"hidden": null}', [], "hidden", 1),
    "lr-int": ('{"lr": 1, "epochs": 1, "seeds": 1, "hidden": 8, "fusion_dim": 8, "bins": 3}', [], "lr", 0),
}


@pytest.mark.parametrize("text, flags, key, code", _CONFIG_VALUE_CASES.values(), ids=list(_CONFIG_VALUE_CASES))
def test_config_values_are_type_checked_before_the_manifest(dataset, tmp_path, capsys, text, flags, key, code):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(text)
    out_dir = tmp_path / "run"
    assert main(["train", "--data", str(dataset), "--out-dir", str(out_dir),
                 "--config", str(cfg_file)] + flags) == code
    if code:
        assert f"option {key!r}" in capsys.readouterr().err
        assert not out_dir.exists()
    else:  # an int is a float value, recorded as a float
        manifest = (out_dir / "manifest.json").read_text()
        assert json.loads(manifest)["config"]["lr"] == 1.0 and '"lr": 1.0,' in manifest


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**400, -(10**400)])
    | st.floats() | st.text(max_size=8)
    | st.sampled_from(["amber", "cbce", "a", "t", "at", "rai", "none", "detached", "coupled"])
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
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
    typ = TRAIN_OPTIONS[key][0]
    assert isinstance(cfg, TrainConfig)
    for name, (row_type, default, _, _) in TRAIN_OPTIONS.items():
        got = resolved[name]
        if name == "folds" and got is None:
            continue
        assert type(got) is row_type, (name, got)
        assert row_type is not float or math.isfinite(got), (name, got)
        assert name == key or got == default, (name, got)
    assert resolved[key] == value or (typ is float and resolved[key] == float(value))
