import csv
import io

import numpy as np
import pytest

from amber.distlib import bhattacharyya, js_divergence
from amber.evalreport import (
    EvalReport,
    aggregate,
    all_metrics,
    ambiguity_bins,
    assign_bin,
    bin_edges,
    cls_metrics,
    dist_metrics,
    emit_report,
    load_report,
    render_markdown,
)

# Hand-computed two-sample fixture (mpmath oracle for JS/BC, exact fractions
# for R2): targets/preds below give ss_res = 0.045, ss_tot = 0.0475.
FIX_TARGETS = np.asarray([[0.5, 0.25, 0.25, 0.0], [0.7, 0.1, 0.1, 0.1]])
FIX_PREDS = np.asarray([[0.4, 0.3, 0.2, 0.1], [0.6, 0.2, 0.1, 0.1]])
FIX_JS = 0.03634906624483098565
FIX_BC = 0.96708854904030774681
FIX_R2 = 1.0 - 0.045 / 0.0475


def _one_hot(indices, n_classes):
    out = np.zeros((len(indices), n_classes))
    out[np.arange(len(indices)), indices] = 1.0
    return out


def test_dist_metrics_perfect_fit():
    y = np.asarray([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
    m = dist_metrics(y, y)
    assert m["JS"] == 0.0
    assert abs(m["BC"] - 1.0) <= 1e-12
    assert m["R2"] == 1.0


def test_dist_metrics_constant_mean_prediction_has_zero_r2():
    rng = np.random.default_rng(0)
    y = rng.dirichlet(np.ones(4), size=20)
    preds = np.tile(y.mean(axis=0), (20, 1))
    m = dist_metrics(preds, y)
    assert abs(m["R2_raw"]) <= 1e-12
    assert m["R2"] == 0.0


def test_dist_metrics_two_sample_fixture():
    m = dist_metrics(FIX_PREDS, FIX_TARGETS)
    assert abs(m["JS"] - FIX_JS) <= 1e-9
    assert abs(m["BC"] - FIX_BC) <= 1e-9
    assert abs(m["R2_raw"] - FIX_R2) <= 1e-9


def test_dist_metrics_negative_r2_is_clamped_with_raw_kept():
    y = np.asarray([[0.9, 0.1], [0.1, 0.9]])
    preds = np.asarray([[0.1, 0.9], [0.9, 0.1]])
    m = dist_metrics(preds, y)
    assert m["R2_raw"] < 0
    assert m["R2"] == 0.0


def test_dist_metrics_degenerate_targets_report_missing_r2():
    y = np.tile([0.5, 0.5], (4, 1))
    preds = np.asarray([[0.6, 0.4]] * 4)
    m = dist_metrics(preds, y)
    assert m["R2"] is None and m["R2_raw"] is None
    assert m["JS"] > 0


def test_dist_metrics_length_mismatch():
    ok = np.ones((2, 3)) / 3
    for preds in (np.ones((3, 3)) / 3, [[1.2, -0.2, 0.0], [0.5, 0.5, 0.0]], [[0.5, 0.6, 0.0], [0.5, 0.5, 0.0]]):
        with pytest.raises(ValueError):
            dist_metrics(preds, ok)


def test_dist_metrics_equal_mean_of_per_sample_divergences():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, c = int(rng.integers(1, 300)), int(rng.integers(2, 9))
        logits = 3.0 * rng.standard_normal((n, c))
        preds = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets = rng.multinomial(10, np.ones(c) / c, size=n) / 10
        m = dist_metrics(preds, targets)
        assert m["JS"] == float(np.mean([js_divergence(p, y) for p, y in zip(preds, targets)]))
        assert m["BC"] == float(np.mean([bhattacharyya(p, y) for p, y in zip(preds, targets)]))


def test_cls_metrics_perfect():
    y = _one_hot([0, 1, 2, 1], 3)
    m = cls_metrics(y, y)
    assert m == {"F1_macro": 1.0, "WF1": 1.0, "ACC": 1.0}


def test_cls_metrics_fixture():
    targets = _one_hot([0, 0, 1, 1], 2)
    preds = _one_hot([0, 1, 1, 1], 2)
    m = cls_metrics(preds, targets)
    assert abs(m["ACC"] - 0.75) <= 1e-12
    assert abs(m["F1_macro"] - (2 / 3 + 4 / 5) / 2) <= 1e-9
    assert abs(m["WF1"] - (2 / 3 + 4 / 5) / 2) <= 1e-9


def test_cls_metrics_absent_class_convention():
    # class 2 never appears in targets or predictions: zero F1 in the macro
    # average, zero weight in the weighted one
    targets = _one_hot([0, 1, 0, 1], 3)
    preds = _one_hot([0, 1, 0, 1], 3)
    m = cls_metrics(preds, targets)
    assert abs(m["F1_macro"] - 2 / 3) <= 1e-12
    assert m["WF1"] == 1.0 and m["ACC"] == 1.0


def _brute_force_cls(preds_hat, targets_hat, n_classes):
    confusion = np.zeros((n_classes, n_classes), dtype=int)
    for p, t in zip(preds_hat, targets_hat):
        confusion[t, p] += 1
    f1 = np.zeros(n_classes)
    support = np.zeros(n_classes)
    for c in range(n_classes):
        tp = int(confusion[c, c])
        fp = int(confusion[:, c].sum()) - tp
        fn = int(confusion[c, :].sum()) - tp
        support[c] = tp + fn
        if 2 * tp + fp + fn > 0:
            f1[c] = 2.0 * tp / (2 * tp + fp + fn)
    acc = float(np.mean(preds_hat == targets_hat))
    macro = float(f1.mean())
    wf1 = float((f1 * support).sum() / support.sum())
    return {"F1_macro": macro, "WF1": wf1, "ACC": acc}


def test_cls_metrics_match_brute_force_oracle_exactly():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        t_hat = rng.integers(0, c, size=n)
        p_hat = rng.integers(0, c, size=n)
        got = cls_metrics(_one_hot(p_hat, c), _one_hot(t_hat, c))
        want = _brute_force_cls(p_hat, t_hat, c)
        assert got == want


def test_argmax_tie_breaks_to_lowest_class():
    targets = np.asarray([[0.5, 0.5]])
    preds = np.asarray([[0.5, 0.5]])
    m = cls_metrics(preds, targets)
    assert m["ACC"] == 1.0  # both argmax to class 0


def test_bin_assignment_rules():
    edges = bin_edges(4, 4)  # [0, .5, 1, 1.5, 2]
    assert assign_bin(0.0, edges) == 0
    assert assign_bin(0.5, edges) == 0  # boundary goes to the lower bin
    assert assign_bin(0.500001, edges) == 1
    assert assign_bin(1.5, edges) == 2
    assert assign_bin(2.0, edges) == 3
    assert assign_bin(2.0 + 1e-12, edges) == 3  # clamped


def test_all_one_hot_targets_land_in_bin_zero():
    y = _one_hot([0, 1, 2, 3], 4)
    preds = np.full((4, 4), 0.25)
    rows = ambiguity_bins(preds, y, 4)
    assert rows[0]["count"] == 4
    assert all(r["count"] == 0 and r["metrics"] is None for r in rows[1:])


def test_all_uniform_targets_land_in_top_bin():
    y = np.full((5, 4), 0.25)
    preds = _one_hot([0, 1, 2, 3, 0], 4)
    rows = ambiguity_bins(preds, y, 4)
    assert rows[3]["count"] == 5
    assert sum(r["count"] for r in rows) == 5


def test_mixed_fixture_bin_assignment():
    # entropies: 0.0, ~0.811, ~1.5, 2.0 bits -> bins 0, 1, 2, 3
    y = np.asarray(
        [[1, 0, 0, 0], [0.75, 0.25, 0, 0], [0.5, 0.25, 0.25, 0], [0.25, 0.25, 0.25, 0.25]],
        dtype=float,
    )
    preds = np.full((4, 4), 0.25)
    rows = ambiguity_bins(preds, y, 4)
    assert [r["count"] for r in rows] == [1, 1, 1, 1]
    assert sum(r["count"] for r in rows) == len(y)


def _fake_reports(n=3):
    rng = np.random.default_rng(7)
    reports = []
    for i in range(n):
        y = rng.dirichlet(np.ones(4), size=30)
        preds = rng.dirichlet(np.ones(4), size=30)
        reports.append(
            EvalReport(
                system="demo",
                fold=i % 2,
                seed=i,
                metrics=all_metrics(preds, y),
                bins=ambiguity_bins(preds, y, 4),
                provenance={"manifest": "x"},
            )
        )
    return reports


def test_aggregate_mean_matches_hand_average():
    reports = _fake_reports(4)
    agg = aggregate(reports)
    hand = np.mean([r.metrics["JS"] for r in reports])
    assert abs(agg["metrics"]["JS"]["mean"] - hand) <= 1e-15
    assert agg["metrics"]["JS"]["n"] == 4


def test_aggregate_constant_metric_has_zero_std():
    reports = _fake_reports(1) * 3
    agg = aggregate(reports)
    assert agg["metrics"]["JS"]["std"] == 0.0


def test_emit_report_single_and_deterministic(tmp_path):
    reports = _fake_reports(1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report(reports, p1, "csv")
    emit_report(reports, p2, "csv")
    assert p1.read_bytes() == p2.read_bytes()
    rows = list(csv.reader(io.StringIO(p1.read_text())))
    assert rows[0] == ["system", "fold", "seed", "bin", "metric", "value", "mean", "std"]
    data_rows = [r for r in rows[1:] if r[3] == "all" and r[5]]
    assert len(data_rows) == len([v for v in reports[0].metrics.values() if v is not None])


def test_emit_report_json_round_trip(tmp_path):
    reports = _fake_reports(3)
    path = tmp_path / "r.json"
    emit_report(reports, path, "json")
    back, agg = load_report(path)
    assert len(back) == 3
    assert back[0].metrics == reports[0].metrics
    assert agg["metrics"]["JS"]["mean"] == aggregate(reports)["metrics"]["JS"]["mean"]


def test_markdown_round_trips_through_column_schema(tmp_path):
    reports = _fake_reports(2)
    agg = aggregate(reports)
    text = render_markdown(reports, agg)
    lines = [l for l in text.splitlines() if l.startswith("|") and "---" not in l]
    table = {}
    for line in lines[1:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        if cells[0] in agg["metrics"]:
            table[cells[0]] = (float(cells[1]), float(cells[2]))
    for name, cell in agg["metrics"].items():
        mean, std = table[name]
        assert abs(mean - cell["mean"]) <= 5e-5
        assert abs(std - cell["std"]) <= 5e-5


def test_emit_report_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "x.csv", "csv")
    with pytest.raises(ValueError):
        emit_report(_fake_reports(1), tmp_path / "x.xml", "xml")
