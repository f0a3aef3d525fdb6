import errno
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amber.dataio import (
    SCHEMA,
    Dataset,
    SynthConfig,
    class_anchors,
    fold_split,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    write_text_atomic,
)
from amber import dataio
from amber.cli import main as cli_main
from amber.distlib import entropy_bits_rows
from amber.errors import DataValidationError

from helpers import oracle_generate_synthetic

HEADER = {"schema": SCHEMA, "C": 3, "dim_a": 2, "dim_t": 2, "folds": 3}


def _write(tmp_path, lines, name="ds.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    return path


def _record(i, votes=(2, 2, 1), **extra):
    rec = {"id": f"s{i}", "h_a": [0.1 * i, -0.2], "h_t": [0.3, 0.4 * i], "votes": list(votes)}
    rec.update(extra)
    return rec


def test_load_three_line_fixture_round_trip(tmp_path):
    path = _write(tmp_path, [HEADER, _record(0), _record(1), _record(2)])
    ds = load_jsonl(path)
    assert len(ds) == 3
    assert ds.n_classes == 3 and ds.fold_count == 3
    assert list(np.arange(len(ds)) % ds.fold_count) == [0, 1, 2]
    assert np.allclose(ds.y[0], [0.4, 0.4, 0.2])


def test_save_load_round_trip_is_exact(tmp_path):
    ds = generate_synthetic(
        SynthConfig(n_samples=12, n_classes=3, dim_a=3, dim_t=4, n_raters=6,
                    ambiguity_alpha=0.8, conflict_rate=0.5, noise_sigma=0.4, seed=5, fold_count=3)
    )
    path = tmp_path / "ds.jsonl"
    save_jsonl(ds, path)
    back = load_jsonl(path)
    again = tmp_path / "again.jsonl"
    save_jsonl(back, again)
    assert again.read_bytes() == path.read_bytes()
    assert len(back) == len(ds)
    assert np.array_equal(ds.ids, back.ids) and ds.fold_count == back.fold_count
    assert np.array_equal(ds.h_a, back.h_a)
    assert np.array_equal(ds.h_t, back.h_t)
    assert np.array_equal(ds.votes, back.votes)


def _assert_votes_rejected_on_line_3(tmp_path, capsys, votes, message):
    """`load_jsonl` names the line and the fault; `amber train` exits 2 with both."""
    path = _write(tmp_path, [HEADER, _record(0), _record(1, votes=votes), _record(2)])
    with pytest.raises(DataValidationError) as err:
        load_jsonl(path)
    assert err.value.line == 3
    assert str(err.value) == f"{path}: line 3: {message}"
    assert cli_main(["train", "--data", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"amber: data validation error: {path}: line 3: {message}\n"


def test_zero_votes_rejected_with_line_number(tmp_path, capsys):
    _assert_votes_rejected_on_line_3(tmp_path, capsys, (0, 0, 0),
                                     "invalid votes: at least one rater vote is required")


def test_negative_votes_rejected_with_line_number(tmp_path, capsys):
    _assert_votes_rejected_on_line_3(tmp_path, capsys, (2, -1, 3),
                                     "'votes' entries must be non-negative integers")


def test_stored_y_mismatch_rejected(tmp_path):
    path = _write(tmp_path, [HEADER, _record(0, y=[0.5, 0.3, 0.2]), _record(1), _record(2)])
    with pytest.raises(DataValidationError) as err:
        load_jsonl(path)
    assert err.value.line == 2
    # consistent stored y is accepted
    ok = _write(tmp_path, [HEADER, _record(0, y=[0.4, 0.4, 0.2]), _record(1), _record(2)], "ok.jsonl")
    assert len(load_jsonl(ok)) == 3


def test_dim_mismatch_rejected(tmp_path):
    bad = _record(1)
    bad["h_a"] = [1.0, 2.0, 3.0]
    path = _write(tmp_path, [HEADER, _record(0), bad, _record(2)])
    with pytest.raises(DataValidationError) as err:
        load_jsonl(path)
    assert err.value.line == 3


def test_duplicate_id_rejected(tmp_path):
    records = [_record(0), _record(1), _record(2)]
    records[2]["id"] = "s0"
    path = _write(tmp_path, [HEADER] + records)
    with pytest.raises(DataValidationError) as err:
        load_jsonl(path)
    assert err.value.line == 4


def test_malformed_json_line_reported(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text(json.dumps(HEADER) + "\n" + json.dumps(_record(0)) + "\n{not json\n")
    with pytest.raises(DataValidationError) as err:
        load_jsonl(path)
    assert err.value.line == 3


def test_bad_header_rejected(tmp_path):
    records = [_record(0), _record(1), _record(2)]
    for bad in ({"schema": "other"}, {"C": 3.7}, {"C": 3.0}, {"C": True}, {"folds": "3"}, {"dim_a": None}):
        path = _write(tmp_path, [{**HEADER, **bad}] + records)
        with pytest.raises(DataValidationError) as err:
            load_jsonl(path)
        assert err.value.line == 1, bad


def test_generator_determinism():
    cfg = SynthConfig(n_samples=40, n_classes=4, dim_a=5, dim_t=6, n_raters=8,
                      ambiguity_alpha=0.7, conflict_rate=0.3, noise_sigma=0.5, seed=11)
    a, b = generate_synthetic(cfg), generate_synthetic(cfg)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.h_a, b.h_a)
    assert np.array_equal(a.h_t, b.h_t)
    assert np.array_equal(a.votes, b.votes)
    assert np.all(a.votes >= 0) and np.all(a.votes.sum(axis=1) == cfg.n_raters)


def _same_dataset(a, b):
    return (a.fold_count == b.fold_count and a.ids.tolist() == b.ids.tolist()
            and all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                    for x, y in ((a.h_a, b.h_a), (a.h_t, b.h_t), (a.votes, b.votes), (a.y, b.y))))


@pytest.mark.parametrize("overrides", [
    {},  # the acceptance test's pinned config
    {"n_classes": 2, "ambiguity_alpha": 0.05},
    {"ambiguity_alpha": 50.0, "conflict_rate": 1.0},
    {"conflict_rate": 0.0, "noise_sigma": 0.0},
    {"dim_a": 5, "dim_t": 9, "n_raters": 1},
])
def test_generator_is_byte_equal_to_the_per_sample_oracle(overrides):
    cfg = SynthConfig(**{**dict(n_samples=400, n_classes=4, dim_a=16, dim_t=16, n_raters=10,
                                ambiguity_alpha=0.7, conflict_rate=0.3, noise_sigma=0.5,
                                seed=20250811), **overrides})
    assert _same_dataset(generate_synthetic(cfg), oracle_generate_synthetic(cfg))


@settings(max_examples=60, deadline=None)
@given(n_samples=st.integers(3, 40), n_classes=st.integers(2, 5), dim_a=st.integers(0, 3),
       dim_t=st.integers(0, 3), n_raters=st.integers(1, 30), alpha=st.floats(1e-3, 1e3),
       conflict=st.floats(0.0, 1.0), noise=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1),
       folds=st.integers(1, 3))
def test_any_synth_config_is_byte_equal_to_the_per_sample_oracle(
        n_samples, n_classes, dim_a, dim_t, n_raters, alpha, conflict, noise, seed, folds):
    # the dims are drawn as an excess over n_classes, which the anchors need
    cfg = SynthConfig(n_samples=n_samples, n_classes=n_classes, dim_a=n_classes + dim_a,
                      dim_t=n_classes + dim_t, n_raters=n_raters, ambiguity_alpha=alpha,
                      conflict_rate=conflict, noise_sigma=noise, seed=seed, fold_count=folds)
    assert _same_dataset(generate_synthetic(cfg), oracle_generate_synthetic(cfg))


def test_conflict_rate_one_always_disagrees():
    # with zero feature noise each feature vector equals its cue anchor, so
    # cue classes can be recovered exactly
    cfg = SynthConfig(n_samples=60, n_classes=4, dim_a=6, dim_t=6, n_raters=5,
                      ambiguity_alpha=0.7, conflict_rate=1.0, noise_sigma=0.0, seed=3)
    ds = generate_synthetic(cfg)
    rng = np.random.default_rng(cfg.seed)
    anchors_a = class_anchors(rng, 4, 6)
    anchors_t = class_anchors(rng, 4, 6)
    for h_a, h_t in zip(ds.h_a, ds.h_t):
        c_a = int(np.argmin(np.linalg.norm(anchors_a - h_a, axis=1)))
        c_t = int(np.argmin(np.linalg.norm(anchors_t - h_t, axis=1)))
        assert c_a != c_t


def test_conflict_rate_zero_agrees_and_votes_sharp():
    cfg = SynthConfig(n_samples=60, n_classes=4, dim_a=6, dim_t=6, n_raters=10,
                      ambiguity_alpha=0.01, conflict_rate=0.0, noise_sigma=0.0, seed=4)
    ds = generate_synthetic(cfg)
    rng = np.random.default_rng(cfg.seed)
    anchors_a = class_anchors(rng, 4, 6)
    anchors_t = class_anchors(rng, 4, 6)
    share = []
    for h_a, h_t, votes in zip(ds.h_a, ds.h_t, ds.votes):
        c_a = int(np.argmin(np.linalg.norm(anchors_a - h_a, axis=1)))
        c_t = int(np.argmin(np.linalg.norm(anchors_t - h_t, axis=1)))
        assert c_a == c_t
        share.append(votes.max() / votes.sum())
    assert np.mean(share) > 0.95


def test_anchor_construction_requires_enough_dims():
    with pytest.raises(ValueError):
        generate_synthetic(
            SynthConfig(n_samples=10, n_classes=5, dim_a=3, dim_t=8, n_raters=5,
                        ambiguity_alpha=1.0, conflict_rate=0.0, noise_sigma=0.1, seed=0, fold_count=2)
        )


def test_entropy_grows_with_ambiguity_alpha():
    means = []
    for alpha in (0.1, 0.5, 1.0, 3.0):
        cfg = SynthConfig(n_samples=2000, n_classes=4, dim_a=4, dim_t=4, n_raters=10,
                          ambiguity_alpha=alpha, conflict_rate=0.0, noise_sigma=0.1, seed=21)
        ds = generate_synthetic(cfg)
        means.append(np.mean(entropy_bits_rows(ds.y)))
    assert all(a < b for a, b in zip(means, means[1:])), means


def test_fold_split_layout_and_partition():
    ds = generate_synthetic(
        SynthConfig(n_samples=25, n_classes=3, dim_a=3, dim_t=3, n_raters=5,
                    ambiguity_alpha=1.0, conflict_rate=0.0, noise_sigma=0.2, seed=1)
    )
    train, val, test = fold_split(ds, 0)
    assert len(train) == 15 and len(val) == 5 and len(test) == 5
    folds = np.arange(len(ds)) % ds.fold_count
    test_ids = set(ds.ids[folds == 0])
    val_ids = set(ds.ids[folds == 1])
    assert set(test.ids) == test_ids
    assert set(val.ids) == val_ids

    ids = [set(part.ids) for part in (train, val, test)]
    assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
    assert ids[0] | ids[1] | ids[2] == set(ds.ids)

    # validation fold wraps around
    _, val4, test4 = fold_split(ds, 4)
    assert set(val4.ids) == set(ds.ids[folds == 0])
    assert set(test4.ids) == set(ds.ids[folds == 4])


def test_fold_split_validation():
    ds = generate_synthetic(
        SynthConfig(n_samples=10, n_classes=3, dim_a=3, dim_t=3, n_raters=5,
                    ambiguity_alpha=1.0, conflict_rate=0.0, noise_sigma=0.2, seed=1, fold_count=2)
    )
    with pytest.raises(ValueError):
        fold_split(ds, 0)
    ds5 = ds.with_fold_count(5)
    with pytest.raises(ValueError):
        fold_split(ds5, 5)


def test_with_fold_count_repartitions_positionally():
    ds = generate_synthetic(
        SynthConfig(n_samples=12, n_classes=3, dim_a=3, dim_t=3, n_raters=5,
                    ambiguity_alpha=1.0, conflict_rate=0.0, noise_sigma=0.2, seed=2, fold_count=3)
    )
    ds4 = ds.with_fold_count(4)
    assert list(np.arange(len(ds4)) % ds4.fold_count) == [i % 4 for i in range(12)]
    assert ds4.n_classes == ds.n_classes


def test_synth_config_validation():
    base = dict(n_samples=10, n_classes=3, dim_a=3, dim_t=3, n_raters=5,
                ambiguity_alpha=1.0, conflict_rate=0.0, noise_sigma=0.2, seed=0, fold_count=2)
    SynthConfig(**base)
    for bad in ({"conflict_rate": 1.5}, {"ambiguity_alpha": 0.0}, {"n_raters": 0},
                {"n_samples": 1}, {"noise_sigma": -0.1}, {"noise_sigma": float("nan")},
                {"noise_sigma": float("inf")}, {"ambiguity_alpha": float("nan")},
                {"ambiguity_alpha": float("inf")}, {"n_raters": 2**63}, {"n_raters": 10**19},
                {"ambiguity_alpha": 1e308}, {"n_classes": 1000, "ambiguity_alpha": 1e306}):
        with pytest.raises(ValueError):
            SynthConfig(**{**base, **bad})


def _columns():
    """Valid columns of a 3-row, 3-class in-memory dataset, keyed by `Dataset` field."""
    return {"ids": np.array(["s0", "s1", "s2"], dtype=object), "h_a": np.zeros((3, 2)), "h_t": np.ones((3, 1)),
            "votes": np.array([[1, 2, 0], [3, 0, 1], [0, 4, 4]]), "fold_count": 3}


def _set(key, index, value):
    def edit(columns):
        columns[key][index] = value
    return edit


@pytest.mark.parametrize("edit, rule", [
    (_set("h_a", (1, 0), np.nan), "features must be finite"),
    (_set("h_t", (2, 0), -np.inf), "features must be finite"),
    (_set("votes", (0, 1), -1), "votes must be non-negative integers"),
    (lambda columns: columns.update(votes=columns["votes"] / 2), "votes must be non-negative integers"),
    (_set("votes", 1, 0), "every row needs at least one vote"),
    (_set("votes", 2, [2**62, 2**62, 0]), r"vote total must be below 2\*\*63"),
    # each vote fits int64; their total, 2**64 + 1, wraps to 1 in a 64-bit sum
    (_set("votes", 2, [2**63 - 1, 2**63 - 1, 3]), r"vote total must be below 2\*\*63"),
    (lambda columns: columns.update(votes=columns["votes"][:, :1]), ">= 2 classes"),
    (lambda columns: columns.update(h_t=np.ones((3, 0))), ">= 1 feature per modality"),
], ids=["nan-feature", "inf-feature", "negative-vote", "fractional-votes", "zero-vote-row", "vote-total-2**63",
        "vote-total-2**64+1", "one-class", "no-text-feature"])
def test_an_in_memory_dataset_rejects_invalid_columns(edit, rule):
    assert Dataset(**_columns()).y.sum(axis=1).tolist() == [1.0, 1.0, 1.0]
    columns = _columns()
    edit(columns)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rule raises before any soft label is computed
        with pytest.raises(ValueError, match=rule):
            Dataset(**columns)


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply:RuntimeWarning")
def test_gen_whose_noise_overflows_a_feature_exits_1_and_writes_no_file(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    assert cli_main(["gen", "--samples", "20", "--classes", "2", "--dim-a", "2", "--dim-t", "2",
                     "--noise", "1.7e308", "--out", str(out)]) == 1
    assert capsys.readouterr().err.endswith("amber: error: features must be finite\n")
    assert os.listdir(tmp_path) == []


def _open_failing_half_way(path, mode, **kwargs):
    """`open` whose file takes half of one write, then fails as on a full disk."""
    fh = open(path, mode, **kwargs)
    real_write = fh.write

    def write(text):
        real_write(text[: len(text) // 2])
        fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    fh.write = write
    return fh


def _failing_replace(src, dst):
    raise OSError("replace failed")


@pytest.mark.parametrize("old", [None, "old\n"])
@pytest.mark.parametrize("failure", ["half-written", "unencodable", "replace"])
def test_write_text_atomic_leaves_no_partial_or_temporary_file(tmp_path, monkeypatch, old, failure):
    path = tmp_path / "out.json"
    if old is not None:
        path.write_text(old)
    text = "x" * 100_000
    if failure == "half-written":
        monkeypatch.setattr(dataio, "open", _open_failing_half_way, raising=False)
    elif failure == "unencodable":
        text += "\udc80"  # a lone surrogate has no UTF-8 encoding
    else:
        monkeypatch.setattr(os, "replace", _failing_replace)
    with pytest.raises((OSError, UnicodeEncodeError)):
        write_text_atomic(path, text)
    assert os.listdir(tmp_path) == ([] if old is None else ["out.json"])
    if old is not None:
        assert path.read_text() == old
    monkeypatch.undo()
    write_text_atomic(path, text[:10])
    assert path.read_text() == "x" * 10 and os.listdir(tmp_path) == ["out.json"]


def test_save_jsonl_that_fails_mid_write_keeps_the_old_file(tmp_path, monkeypatch):
    ds = generate_synthetic(
        SynthConfig(n_samples=12, n_classes=3, dim_a=3, dim_t=4, n_raters=6,
                    ambiguity_alpha=0.8, conflict_rate=0.5, noise_sigma=0.4, seed=5, fold_count=3)
    )
    path = tmp_path / "ds.jsonl"
    path.write_text("old\n")
    monkeypatch.setattr(dataio, "open", _open_failing_half_way, raising=False)
    with pytest.raises(OSError):
        save_jsonl(ds, path)
    assert os.listdir(tmp_path) == ["ds.jsonl"] and path.read_text() == "old\n"
