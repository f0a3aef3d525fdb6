"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The direction-of-effect
criteria (5, 6) share one cross-validated training of both systems on the
pinned synthetic configuration; expect a few minutes of wall time.
"""

import json
import math
import os
import time
import zlib

import numpy as np
import pytest

from amber import autodiff as ad
from amber.cli import main as cli_main
from amber.dataio import SynthConfig, fold_split, generate_synthetic
from amber.distlib import bhattacharyya_rows, entropy_bits_rows, js_divergence_rows
from amber.evalreport import aggregate, ambiguity_bins
from amber.losses import LossConfig, cbce_loss, expert_weights
from amber.model import ModelConfig, predict
from amber.trainer import TrainConfig, cross_validate

from helpers import full_amber_grad_check, grad_check
from test_autodiff import OP_NAMES, _op_case
from test_distlib import ENTROPY_06_04, JS_HALF_VS_POINT, JS_ONEHOT_VS_UNIFORM4, soft_labels
from test_evalreport import _brute_force_cls, _classification_metrics, _one_hot

# Pinned direction-of-effect configuration: 2000 samples, 4 classes, 16/16
# feature dims, 10 raters, alpha 0.7, conflict rate 0.3, noise 0.5,
# 5 folds x 5 seeds, AmbER (1.0 / 0.5 / kappa 4) vs CB-CE.
SYNTH = SynthConfig(
    n_samples=2000, n_classes=4, dim_a=16, dim_t=16, n_raters=10,
    ambiguity_alpha=0.7, conflict_rate=0.3, noise_sigma=0.5, seed=20250811,
)
RUN_BUDGET_SECONDS = 300.0


@pytest.fixture(scope="module")
def effect_runs():
    # Runs are bit-identical at any worker count (criterion 7), so the fixture
    # uses one worker per core it may run on; `cross_validate` starts no more
    # workers than the 25 runs. Busy workers take no less time per run than
    # one alone, so elapsed * jobs / runs never understates it.
    jobs = len(os.sched_getaffinity(0))
    ds = generate_synthetic(SYNTH)
    model_cfg = ModelConfig(dim_a=SYNTH.dim_a, dim_t=SYNTH.dim_t, n_classes=SYNTH.n_classes)
    results = {}
    for objective in ("amber", "cbce"):
        cfg = TrainConfig(
            model=model_cfg,
            loss=LossConfig(lambda_rai=1.0, lambda_mai=0.5, kappa=4.0),
            objective=objective,
        )
        start = time.monotonic()
        records = []
        cross_validate(ds, cfg, records.append, jobs=jobs)
        elapsed = time.monotonic() - start
        results[objective] = {
            "records": records,
            "aggregate": aggregate([r.report for r in records]),
            "seconds_per_run": elapsed * jobs / len(records),
        }
    return results


def test_criterion_1_metric_oracles_and_properties():
    start = time.monotonic()
    assert abs(entropy_bits_rows([1, 0, 0, 0])[0]) < 1e-6
    assert abs(entropy_bits_rows([0.25] * 4)[0] - 2.0) < 1e-6
    assert abs(entropy_bits_rows([0.6, 0.4, 0, 0])[0] - ENTROPY_06_04) < 1e-6
    assert abs(js_divergence_rows([1, 0], [0, 1])[0] - 1.0) < 1e-6
    assert abs(js_divergence_rows([0.5, 0.5], [1, 0])[0] - JS_HALF_VS_POINT) < 1e-6
    assert abs(js_divergence_rows([1, 0, 0, 0], [0.25] * 4)[0] - JS_ONEHOT_VS_UNIFORM4) < 1e-6
    assert abs(bhattacharyya_rows([0.3, 0.7], [0.3, 0.7])[0] - 1.0) < 1e-6
    assert abs(bhattacharyya_rows([1, 0], [0, 1])[0]) < 1e-6
    assert abs(bhattacharyya_rows([0.5, 0.5], [1, 0])[0] - math.sqrt(0.5)) < 1e-6
    y = soft_labels([[2, 1, 1, 0], [5, 0, 0, 0], [3, 2, 0, 0]])
    assert np.allclose(y[0], [0.5, 0.25, 0.25, 0.0])
    assert np.allclose(y[1], [1, 0, 0, 0])
    assert np.allclose(y[2], [0.6, 0.4, 0, 0])

    rng = np.random.default_rng(101)
    for _ in range(10_000):
        c = int(rng.integers(2, 7))
        p = rng.dirichlet(np.full(c, 0.5))
        q = rng.dirichlet(np.full(c, 0.5))
        d, d_rev = js_divergence_rows(p, q)[0], js_divergence_rows(q, p)[0]
        assert abs(d - d_rev) < 1e-12 and -1e-12 <= d <= 1 + 1e-12
        b = bhattacharyya_rows(p, q)[0]
        assert -1e-12 <= b <= 1 + 1e-9
        assert js_divergence_rows(p, p)[0] < 1e-12
        assert bhattacharyya_rows(p, p)[0] >= 1 - 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"property suite took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS - metric oracles and 10^4-pair properties in {elapsed:.2f}s")


def test_criterion_2_gradient_fidelity():
    start = time.monotonic()
    for name in OP_NAMES:
        for seed in range(100):
            rng = np.random.default_rng(1000 * zlib.crc32(name.encode()) % (2**32) + seed)
            f, inputs = _op_case(name, rng)
            result = grad_check(f, inputs, h=1e-4, tol=1e-4)
            assert result.passed, f"{name} seed {seed}: {result.max_rel_err}"
    worst = 0.0
    for seed in range(100):
        bitwise, result = full_amber_grad_check(seed, h=1e-4, tol=1e-4)
        assert bitwise, f"frozen objective diverged from training graph at seed {seed}"
        assert result.passed, f"objective seed {seed}: {result.max_rel_err}"
        worst = max(worst, result.max_rel_err)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"gradient checks took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 2: PASS - all ops + full objective over 100 micro-models, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_3_adaptive_weight_properties():
    rng = np.random.default_rng(202)
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        d = {f"e{i}": float(rng.uniform(0, 2)) for i in range(n)}
        kappa = float(rng.uniform(0, 10))
        u = expert_weights(d, kappa)
        values = np.asarray(list(u.values()))
        assert abs(values.sum() - 1.0) <= 1e-9
        assert np.all(values >= 0)
        if kappa > 0:
            for a in d:
                for b in d:
                    if d[a] < d[b]:
                        assert u[a] > u[b]
        uniform = expert_weights(d, 0.0)
        assert np.allclose(list(uniform.values()), 1.0 / n, atol=1e-12)
    u = expert_weights({"a": 0.10, "t": 0.30}, kappa=4.0)
    assert abs(u["a"] - 0.6900) < 1e-4
    assert abs(u["t"] - 0.3100) < 1e-4
    print("ACCEPTANCE 3: PASS - adaptive weights: simplex, monotone in D, kappa fixtures")


def test_criterion_4_reduction_identities(monkeypatch):
    from test_trainer import test_amber_with_mai_off_matches_pure_rai_trajectory_bitwise

    test_amber_with_mai_off_matches_pure_rai_trajectory_bitwise(monkeypatch)

    rng = np.random.default_rng(303)
    y = rng.dirichlet(np.ones(4), size=64)
    s_rows = rng.dirichlet(np.ones(4), size=64)
    weighted = float(cbce_loss(y, ad.constant(s_rows), np.ones(4)).data)
    plain = float(np.mean(-(y * np.log(s_rows)).sum(axis=1)))
    assert abs(weighted - plain) <= 1e-12
    print("ACCEPTANCE 4: PASS - MAI-off trajectory bit-identical to pure-RAI; "
          "unit-weight CB-CE == soft cross-entropy")


def test_criterion_5_direction_of_effect(effect_runs):
    def per_seed_mean(records, metric):
        by_seed = {}
        for r in records:
            by_seed.setdefault(r.report.seed, []).append(r.report.metrics[metric])
        return {s: float(np.mean(v)) for s, v in by_seed.items()}

    js_amber = per_seed_mean(effect_runs["amber"]["records"], "JS")
    js_cbce = per_seed_mean(effect_runs["cbce"]["records"], "JS")
    bc_amber = per_seed_mean(effect_runs["amber"]["records"], "BC")
    bc_cbce = per_seed_mean(effect_runs["cbce"]["records"], "BC")

    js_wins = sum(js_amber[s] < js_cbce[s] for s in js_amber)
    bc_wins = sum(bc_amber[s] > bc_cbce[s] for s in bc_amber)
    assert js_wins >= 4, f"AmbER lowered JS in only {js_wins}/5 seeds"
    assert bc_wins >= 4, f"AmbER raised BC in only {bc_wins}/5 seeds"
    for system in ("amber", "cbce"):
        per_run = effect_runs[system]["seconds_per_run"]
        assert per_run < RUN_BUDGET_SECONDS, f"{system}: {per_run:.1f}s per run"

    agg_a = effect_runs["amber"]["aggregate"]["metrics"]
    agg_c = effect_runs["cbce"]["aggregate"]["metrics"]
    print(
        f"ACCEPTANCE 5: PASS - JS wins {js_wins}/5 (amber {agg_a['JS']['mean']:.4f} "
        f"vs cbce {agg_c['JS']['mean']:.4f}), BC wins {bc_wins}/5 "
        f"(amber {agg_a['BC']['mean']:.4f} vs cbce {agg_c['BC']['mean']:.4f})"
    )


def test_criterion_6_ambiguity_trend(effect_runs):
    # each run's test predictions, made again from its selected parameters
    ds = generate_synthetic(SYNTH)
    model_cfg = ModelConfig(dim_a=SYNTH.dim_a, dim_t=SYNTH.dim_t, n_classes=SYNTH.n_classes)
    preds, targets = [], []
    for r in effect_runs["cbce"]["records"]:
        h_a, h_t, y = fold_split(ds, r.report.fold)[2].matrices()
        preds.append(predict(r.selected_params, model_cfg, h_a, h_t)[model_cfg.student])
        targets.append(y)
    preds, targets = np.concatenate(preds), np.concatenate(targets)
    rows = ambiguity_bins(preds, targets, 4)
    assert all(r["count"] > 0 for r in rows)
    for metric in ("ACC", "WF1"):
        values = [r["metrics"][metric] for r in rows]
        for lower, upper in zip(values, values[1:]):
            assert upper <= lower + 0.02, f"baseline {metric} rose across bins: {values}"
    summary = {m: [round(r["metrics"][m], 3) for r in rows] for m in ("ACC", "WF1")}
    print(f"ACCEPTANCE 6: PASS - baseline per-bin decline {summary}")


def test_criterion_7_determinism(tmp_path):
    data = tmp_path / "ds.jsonl"
    assert cli_main(["gen", "--samples", "60", "--classes", "3", "--dim-a", "5",
                     "--dim-t", "5", "--raters", "8", "--alpha", "0.7",
                     "--conflict", "0.3", "--noise", "0.4", "--seed", "17",
                     "--folds", "3", "--out", str(data)]) == 0
    base = ["train", "--data", str(data), "--epochs", "3", "--batch", "16",
            "--hidden", "8", "--fusion-dim", "8", "--seeds", "2", "--bins", "3"]
    outputs = ("train-log.jsonl", "report.json", "report.csv", "report.md")

    run1, run2, run3, run4 = (tmp_path / f"r{i}" for i in range(1, 5))
    assert cli_main(base + ["--out-dir", str(run1)]) == 0
    assert cli_main(base + ["--out-dir", str(run2)]) == 0
    assert cli_main(["train", "--data", str(data), "--out-dir", str(run3),
                     "--config", str(run1 / "manifest.json")]) == 0
    assert cli_main(base + ["--out-dir", str(run4), "--jobs", "2"]) == 0

    for name in outputs:
        reference = (run1 / name).read_bytes()
        assert (run2 / name).read_bytes() == reference, f"rerun differs: {name}"
        assert (run3 / name).read_bytes() == reference, f"manifest replay differs: {name}"
        assert (run4 / name).read_bytes() == reference, f"parallel run differs: {name}"
    for ckpt in (run1 / "checkpoints").glob("*.json"):
        reference = ckpt.read_bytes()
        for other in (run2, run3, run4):
            assert (other / "checkpoints" / ckpt.name).read_bytes() == reference
    print("ACCEPTANCE 7: PASS - rerun, manifest replay and parallel run all bit-identical")


def test_criterion_8_data_validation(tmp_path, capsys):
    header = {"schema": "amber-ds-v1", "C": 3, "dim_a": 2, "dim_t": 2, "folds": 3}

    def record(i, **kw):
        rec = {"id": f"s{i}", "h_a": [0.0, 1.0], "h_t": [1.0, 0.0], "votes": [2, 1, 1]}
        rec.update(kw)
        return rec

    fixtures = {
        "vote-sum mismatch": [header, record(0), record(1, votes=[0, 0, 0]), record(2)],
        "dim mismatch": [header, record(0), record(1, h_a=[1.0, 2.0, 3.0]), record(2)],
        "duplicate id": [header, record(0), record(1), record(2, id="s0")],
    }
    for label, lines in fixtures.items():
        path = tmp_path / f"{label.replace(' ', '-')}.jsonl"
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        code = cli_main(["train", "--data", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, f"{label}: exit code {code}"
        assert "line" in err, f"{label}: no line diagnostic in {err!r}"
    print("ACCEPTANCE 8: PASS - malformed fixtures rejected with exit 2 + line numbers")


def test_criterion_9_classification_metric_oracle():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        t_hat = rng.integers(0, c, size=n)
        p_hat = rng.integers(0, c, size=n)
        got = _classification_metrics(_one_hot(p_hat, c), _one_hot(t_hat, c))
        want = _brute_force_cls(p_hat, t_hat, c)
        assert got == want

    targets = _one_hot([0, 0, 1, 1], 2)
    preds = _one_hot([0, 1, 1, 1], 2)
    m = _classification_metrics(preds, targets)
    assert abs(m["ACC"] - 0.75) <= 1e-9
    assert abs(m["F1_macro"] - (2 / 3 + 4 / 5) / 2) <= 1e-9
    assert abs(m["WF1"] - (2 / 3 + 4 / 5) / 2) <= 1e-9
    print("ACCEPTANCE 9: PASS - confusion-matrix oracle exact on 10^3 labelings + fixture")
