import base64
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amber import autodiff as ad
from amber import model
from amber.errors import DataValidationError, NumericalAbortError
from amber.model import (
    MODALITIES,
    ModelConfig,
    forward_all,
    fuse,
    init_params,
    load_checkpoint,
    param_shapes,
    predict,
    save_checkpoint,
    wrap_params,
)

from helpers import traced_peak_bytes


def _zeros_params(cfg):
    return {name: np.zeros(shape) for name, shape in param_shapes(cfg).items()}


def _np_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _head_a(params, cfg, h_a):
    """The rows of head "a" alone, through `forward_all`."""
    h_t = ad.constant(np.zeros((len(h_a), cfg.dim_t)))
    return forward_all(wrap_params(params, requires_grad=False), ad.constant(h_a), h_t, cfg, ("a",))["a"]


def test_zero_weights_give_uniform_rows():
    cfg = ModelConfig(dim_a=3, dim_t=4, n_classes=5, hidden=6, fusion_dim=4)
    out = _head_a(_zeros_params(cfg), cfg, np.random.default_rng(0).standard_normal((4, 3)))
    assert np.allclose(out.data, 0.2)


def test_head_rows_sum_to_one():
    cfg = ModelConfig(dim_a=3, dim_t=3, n_classes=4, hidden=5, fusion_dim=3)
    out = _head_a(init_params(cfg, 1), cfg, np.random.default_rng(2).standard_normal((1, 3)) * 10)
    assert abs(out.data.sum() - 1.0) <= 1e-9


def test_head_matches_hand_evaluated_two_layer_formula():
    cfg = ModelConfig(dim_a=2, dim_t=2, n_classes=3, hidden=2, fusion_dim=2)
    params = _zeros_params(cfg)
    params["a.w1"] = np.asarray([[0.1, -0.2], [0.3, 0.05]])
    params["a.b1"] = np.asarray([0.01, -0.02])
    params["a.w2"] = np.asarray([[0.2, -0.1, 0.4], [-0.3, 0.25, 0.1]])
    params["a.b2"] = np.asarray([0.05, 0.0, -0.05])
    h = np.asarray([[0.5, -1.5], [2.0, 0.25]])

    hidden = np.maximum(h @ params["a.w1"] + params["a.b1"], 0.0)
    expected = _np_softmax(hidden @ params["a.w2"] + params["a.b2"])

    out = _head_a(params, cfg, h)
    assert np.max(np.abs(out.data - expected)) <= 1e-9


def test_fuse_neutral_gate_averages_projections():
    cfg = ModelConfig(dim_a=2, dim_t=3, n_classes=2, hidden=2, fusion_dim=4)
    rng = np.random.default_rng(3)
    params = _zeros_params(cfg)
    params["fuse.proj_a"] = rng.standard_normal((2, 4))
    params["fuse.proj_t"] = rng.standard_normal((3, 4))
    h_a, h_t = rng.standard_normal((5, 2)), rng.standard_normal((5, 3))
    out = fuse(wrap_params(params, requires_grad=False), ad.constant(h_a), ad.constant(h_t))
    expected = 0.5 * (h_a @ params["fuse.proj_a"]) + 0.5 * (h_t @ params["fuse.proj_t"])
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_fuse_saturated_gate_keeps_audio_projection():
    cfg = ModelConfig(dim_a=2, dim_t=2, n_classes=2, hidden=2, fusion_dim=3)
    rng = np.random.default_rng(4)
    params = _zeros_params(cfg)
    params["fuse.gate_b"] = np.full(3, 30.0)
    params["fuse.proj_a"] = rng.standard_normal((2, 3))
    params["fuse.proj_t"] = rng.standard_normal((2, 3))
    h_a, h_t = rng.standard_normal((4, 2)), rng.standard_normal((4, 2))
    out = fuse(wrap_params(params, requires_grad=False), ad.constant(h_a), ad.constant(h_t))
    assert np.max(np.abs(out.data - h_a @ params["fuse.proj_a"])) <= 1e-9


def test_fuse_matches_hand_evaluated_gate_formula():
    cfg = ModelConfig(dim_a=2, dim_t=2, n_classes=2, hidden=2, fusion_dim=2)
    rng = np.random.default_rng(5)
    params = {name: rng.standard_normal(shape) for name, shape in param_shapes(cfg).items()}
    h_a, h_t = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))

    z = np.concatenate([h_a, h_t], axis=1) @ params["fuse.gate_w"] + params["fuse.gate_b"]
    g = 1.0 / (1.0 + np.exp(-z))
    expected = g * (h_a @ params["fuse.proj_a"]) + (1 - g) * (h_t @ params["fuse.proj_t"])

    out = fuse(wrap_params(params, requires_grad=False), ad.constant(h_a), ad.constant(h_t))
    assert np.max(np.abs(out.data - expected)) <= 1e-9


def test_fuse_swap_symmetry():
    # swapping modalities together with the projections and negating the gate
    # pre-activation leaves the fused features unchanged
    cfg = ModelConfig(dim_a=3, dim_t=3, n_classes=2, hidden=2, fusion_dim=4)
    rng = np.random.default_rng(6)
    params = {name: rng.standard_normal(shape) for name, shape in param_shapes(cfg).items()}
    h_a, h_t = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    out = fuse(wrap_params(params, requires_grad=False), ad.constant(h_a), ad.constant(h_t))

    swapped = dict(params)
    w = params["fuse.gate_w"]
    swapped["fuse.gate_w"] = -np.concatenate([w[3:], w[:3]], axis=0)
    swapped["fuse.gate_b"] = -params["fuse.gate_b"]
    swapped["fuse.proj_a"] = params["fuse.proj_t"]
    swapped["fuse.proj_t"] = params["fuse.proj_a"]
    out_swapped = fuse(wrap_params(swapped, requires_grad=False), ad.constant(h_t), ad.constant(h_a))
    assert np.max(np.abs(out.data - out_swapped.data)) <= 1e-12


def test_forward_all_zero_params_uniform():
    cfg = ModelConfig(dim_a=2, dim_t=3, n_classes=4, hidden=3, fusion_dim=2)
    tensors = wrap_params(_zeros_params(cfg), requires_grad=False)
    rng = np.random.default_rng(8)
    out = forward_all(tensors, ad.constant(rng.standard_normal((3, 2))),
                      ad.constant(rng.standard_normal((3, 3))), cfg)
    for m in MODALITIES:
        assert np.allclose(out[m].data, 0.25)


def test_all_heads_emit_valid_distributions_over_random_params():
    cfg = ModelConfig(dim_a=3, dim_t=4, n_classes=4, hidden=6, fusion_dim=5)
    rng = np.random.default_rng(9)
    h_a = ad.constant(rng.standard_normal((2, 3)))
    h_t = ad.constant(rng.standard_normal((2, 4)))
    for draw in range(1000):
        tensors = wrap_params(init_params(cfg, draw), requires_grad=False)
        out = forward_all(tensors, h_a, h_t, cfg)
        for m in MODALITIES:
            rows = out[m].data
            assert np.all(rows > 0)
            assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9


def test_dimension_and_input_validation():
    cfg = ModelConfig(dim_a=3, dim_t=4, n_classes=3, hidden=4, fusion_dim=4)
    tensors = wrap_params(init_params(cfg, 0), requires_grad=False)
    h_t = ad.constant(np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"head 'a' expects input dim 3, got \(2, 5\)"):
        forward_all(tensors, ad.constant(np.zeros((2, 5))), h_t, cfg)
    with pytest.raises(ValueError, match="non-finite input to head 'a'"):
        forward_all(tensors, ad.constant(np.full((2, 3), np.nan)), h_t, cfg)
    with pytest.raises(ValueError):
        fuse(tensors, ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 4))))
    with pytest.raises(ValueError):
        ModelConfig(dim_a=3, dim_t=4, n_classes=1)
    with pytest.raises(ValueError):
        ModelConfig(dim_a=3, dim_t=4, n_classes=3, student="video")


def _b64(a):
    return base64.b64encode(a.astype("<f8").tobytes()).decode()


def _assert_bit_equal(loaded, params):
    assert list(loaded) == list(params)
    for name, a in params.items():
        b = loaded[name]
        assert b.dtype == np.float64 and b.shape == a.shape and b.tobytes() == a.tobytes(), name
        assert b.flags.c_contiguous and b.flags.writeable


def test_checkpoint_round_trip(tmp_path):
    cfg = ModelConfig(dim_a=3, dim_t=2, n_classes=3, hidden=4, fusion_dim=3, student="t")
    params = init_params(cfg, 7)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, params, provenance={"fold": 1, "seed": 7})
    cfg2, params2, prov = load_checkpoint(path)
    assert cfg2 == cfg
    assert prov == {"fold": 1, "seed": 7}
    _assert_bit_equal(params2, params)


def _edge_value_checkpoint():
    # at.w1 holds 100 x 100 numbers, more than one encoding piece
    cfg = ModelConfig(dim_a=3, dim_t=2, n_classes=3, hidden=100, fusion_dim=100, student="t")
    params = init_params(cfg, 3)
    params["a.b1"][:5] = [-0.0, 5e-324, 1e-05, 1e308, 0.1]
    return cfg, params, {"system": "système-ü", "fold": 2, "seed": 0}


def test_checkpoint_v2_layout_is_json_dumps_with_base64_data(tmp_path):
    cfg, params, provenance = _edge_value_checkpoint()
    blob = {
        "format": "amber-ckpt-v2",
        "config": asdict(cfg),
        "provenance": provenance,
        "params": {name: {"shape": list(a.shape), "data": _b64(a)} for name, a in params.items()},
    }
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, params, provenance=provenance)
    assert path.read_bytes() == (json.dumps(blob) + "\n").encode()


def test_checkpoint_load_save_reproduces_the_file(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    _, original, _ = _edge_value_checkpoint()
    save_checkpoint(first, *_edge_value_checkpoint())
    cfg, params, provenance = load_checkpoint(first)
    _assert_bit_equal(params, original)
    assert np.signbit(params["a.b1"][0]) and params["a.b1"][1] == 5e-324 and params["a.b1"][3] == 1e308
    assert provenance == {"system": "système-ü", "fold": 2, "seed": 0}
    save_checkpoint(second, cfg, params, provenance=provenance)
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_rejects_parameters_that_are_not_float64(tmp_path):
    cfg, params, provenance = _edge_value_checkpoint()
    for dtype in (np.float32, np.int64):
        with pytest.raises(TypeError, match="float64"):
            save_checkpoint(tmp_path / "ckpt.json", cfg, {**params, "fuse.gate_b": params["fuse.gate_b"].astype(dtype)})
    assert os.listdir(tmp_path) == []


def test_checkpoint_that_fails_mid_write_leaves_the_file_as_it_was(tmp_path):
    cfg, params, provenance = _edge_value_checkpoint()
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, params, provenance=provenance)
    before = path.read_bytes()
    unencodable = {**params, "fuse.proj_t": params["fuse.proj_t"].astype(complex)}  # the last one written
    with pytest.raises(TypeError):
        save_checkpoint(path, cfg, unencodable, provenance=provenance)
    assert os.listdir(tmp_path) == ["ckpt.json"] and path.read_bytes() == before


def test_checkpoint_rejects_wrong_format(tmp_path):
    cfg = ModelConfig(dim_a=3, dim_t=2, n_classes=3, hidden=4, fusion_dim=3)
    good = tmp_path / "good.json"
    save_checkpoint(good, cfg, init_params(cfg, 1), provenance={"fold": 0})
    load_checkpoint(good)
    blob = json.loads(good.read_text())

    def edited(**changes):
        return json.dumps({**blob, **changes})

    def param(name, **entry):
        return edited(params={**blob["params"], name: {**blob["params"][name], **entry}})

    cases = {
        "format": '{"format": "other", "config": {}, "params": {}}',
        "top-level-list": "[]",
        "malformed": '{"format": ',
        "config-string": edited(config="x"),
        "config-unknown-key": edited(config={**blob["config"], "extra": 1}),
        "config-missing-key": edited(config={k: v for k, v in blob["config"].items() if k != "hidden"}),
        "config-bool-dim": edited(config={**blob["config"], "dim_a": True}),
        "config-out-of-range": edited(config={**blob["config"], "n_classes": 1}),
        "unknown-top-key": edited(extra=1),
        "provenance-list": edited(provenance=[]),
        "provenance-nan": edited(provenance={"fold": 0, "note": float("nan"), "extra": float("inf")}),
        "provenance-nested-inf": edited(provenance={"fold": 0, "note": {"x": [1.0, -float("inf")]}}),
        "params-missing": edited(params={k: v for k, v in blob["params"].items() if k != "a.b1"}),
        "entry-not-object": edited(params={**blob["params"], "a.b1": [0.0] * 4}),
        "bool-data": param("a.b1", data=[True, False, True, False]),
        "string-data": param("a.b1", data=["0.1", 0.0, 0.0, 0.0]),
        "nested-data": param("a.b1", data=[[0.1], [0.0], [0.0], [0.0]]),
        "short-data": param("a.b1", data=[0.0] * 3),
        "wrong-shape": param("a.w1", shape=[2, 6]),
        "float-shape": param("a.b1", shape=[4.0]),
        "nan-data": param("a.b1", data=[float("nan"), 0.0, 0.0, 0.0]),
        "huge-data": param("a.b1", data=[10**400, 0.0, 0.0, 0.0]),
        "v1-file": edited(format="amber-ckpt-v1", params={
            name: {"shape": entry["shape"], "data": np.frombuffer(base64.b64decode(entry["data"])).tolist()}
            for name, entry in blob["params"].items()}),
        "non-base64-char": param("a.b1", data="*" + blob["params"]["a.b1"]["data"][1:]),
        "base64-newline": param("a.b1", data=blob["params"]["a.b1"]["data"] + "\n"),
        "non-ascii-data": param("a.b1", data="é" + blob["params"]["a.b1"]["data"][1:]),
        "8-bytes-short": param("a.b1", data=_b64(np.zeros(3))),
        "8-bytes-long": param("a.b1", data=_b64(np.zeros(5))),
        "nan-bits": param("a.b1", data=_b64(np.array([0.0, np.nan, 0.0, 0.0]))),
        "inf-bits": param("a.b1", data=_b64(np.array([0.0, 0.0, -np.inf, 0.0]))),
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        with pytest.raises(DataValidationError, match="invalid checkpoint"):
            load_checkpoint(path)


def test_checkpoint_over_the_parameter_budget_is_rejected_before_any_parameter_is_decoded(tmp_path, monkeypatch):
    cfg = ModelConfig(dim_a=3, dim_t=2, n_classes=3, hidden=4, fusion_dim=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, cfg, init_params(cfg, 1), provenance={"fold": 0})
    blob = json.loads(path.read_text())
    blob["config"].update(hidden=20000, fusion_dim=20000)  # 400,000,000 weights in the fused head's first layer
    path.write_text(json.dumps(blob))
    monkeypatch.setattr(model, "_decode_array", lambda *args: pytest.fail("decoded a parameter"))
    with pytest.raises(DataValidationError, match="parameters per run, more than 100000000") as err:
        load_checkpoint(path)
    assert err.value.path == path
    with pytest.raises(ValueError, match="hidden 20000 and fusion_dim 20000 give"):
        ModelConfig(**blob["config"])


_FUZZ_CFG = ModelConfig(dim_a=2, dim_t=3, n_classes=2, hidden=3, fusion_dim=2)
_FUZZ_BLOB = json.loads("".join(model._checkpoint_text(
    _FUZZ_CFG, init_params(_FUZZ_CFG, 5), {"system": "amber", "fold": 1, "seed": 0})))
_B64_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="


def _mutant(draw):
    """(text, must_fail) of one edit of `_FUZZ_BLOB`; `must_fail` if no valid checkpoint can result."""
    blob = json.loads(json.dumps(_FUZZ_BLOB))
    name = draw(st.sampled_from(sorted(blob["params"])))
    entry = blob["params"][name]
    kind = draw(st.sampled_from(["flip", "truncate", "pad", "shape", "config", "deep", "cut-file"]))
    must_fail = kind in ("truncate", "shape")
    if kind == "flip":
        at = draw(st.integers(0, len(entry["data"]) - 1))
        char = draw(st.sampled_from(_B64_CHARS + "*-_ \n\x00é"))
        entry["data"] = entry["data"][:at] + char + entry["data"][at + 1:]
    elif kind == "truncate":
        cut = draw(st.integers(1, len(entry["data"])))
        entry["data"] = entry["data"][cut:] if draw(st.booleans()) else entry["data"][:-cut]
    elif kind == "pad":
        entry["data"] += draw(st.sampled_from(["=", "==", "====", "A", "AA", "AAAA", "AAAAAAAAAAA=", " ", "\n"]))
    elif kind == "shape":
        shape = list(entry["shape"])
        entry["shape"] = draw(st.sampled_from([
            shape + [1], shape[:-1], [v + 1 for v in shape], [float(v) for v in shape], [True] * len(shape),
            [-v for v in shape], [str(v) for v in shape], {"0": shape[0]}, None, math.prod(shape)]))
    elif kind == "config":
        key = draw(st.sampled_from(sorted(blob["config"])))
        blob["config"][key] = draw(st.sampled_from(
            [0, -1, 1, 2, 3, 4, 2**63, 10**30, 2.0, 3.0, True, False, None, "2", [2], 1.5, "a", "t", "at", "x"]))
    elif kind == "deep":
        where = draw(st.sampled_from(["provenance", "config", "shape", "data", "top"]))
        depth = draw(st.sampled_from([2, 50, 100_000]))
        nested = "[" * depth + "]" * depth
        marker = '"__deep__"'
        if where == "provenance":
            blob["provenance"]["note"] = "__deep__"
        elif where == "config":
            blob["config"]["hidden"] = "__deep__"
        elif where == "shape":
            entry["shape"] = "__deep__"
        elif where == "data":
            entry["data"] = "__deep__"
        else:
            blob = "__deep__"
        must_fail = where != "provenance" or depth == 100_000
        return json.dumps(blob).replace(marker, nested), must_fail
    text = json.dumps(blob) + "\n"
    if kind == "cut-file":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text, must_fail


def _assert_loads_what_the_file_holds(text, loaded):
    cfg, params, provenance = loaded
    blob = json.loads(text)
    assert [(k, type(v), v) for k, v in asdict(cfg).items()] == \
        [(k, type(v), v) for k, v in blob["config"].items()]
    assert provenance == blob.get("provenance", {})
    assert list(params) == list(param_shapes(cfg))
    for name, arr in params.items():
        entry = blob["params"][name]
        assert arr.dtype == np.float64 and list(arr.shape) == entry["shape"], name
        assert arr.astype("<f8").tobytes() == base64.b64decode(entry["data"], validate=True), name
        assert np.isfinite(arr).all() and arr.flags.writeable, name


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_any_mutant_checkpoint_loads_what_it_holds_or_raises_a_named_error(tmp_path_factory, data):
    text, must_fail = _mutant(data.draw)
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    path.write_text(text, encoding="utf-8")
    try:
        loaded = load_checkpoint(path)
    except DataValidationError as exc:
        assert str(exc).startswith(f"{path}: invalid checkpoint: ")
        return
    assert not must_fail, f"loaded {text[:200]!r}"
    _assert_loads_what_the_file_holds(text, loaded)


@pytest.mark.parametrize("student", MODALITIES)
def test_an_overflowing_head_aborts_forward_all_and_predict_naming_it(student):
    cfg = ModelConfig(dim_a=3, dim_t=4, n_classes=3, hidden=5, fusion_dim=4, student=student)
    params = init_params(cfg, 0)
    params[f"{student}.b1"][:] = 10.0  # every hidden unit is active, so every logit overflows to inf
    params[f"{student}.w2"][:] = 1e308
    rng = np.random.default_rng(6)
    h_a, h_t = 1e-3 * rng.standard_normal((7, 3)), 1e-3 * rng.standard_normal((7, 4))
    message = f"non-finite output of head {student!r}"
    with np.errstate(all="ignore"), pytest.raises(NumericalAbortError, match=message):
        forward_all(wrap_params(params, requires_grad=False), ad.constant(h_a), ad.constant(h_t), cfg)
    with pytest.raises(NumericalAbortError, match=message):
        predict(params, cfg, h_a, h_t)


@pytest.mark.parametrize("student", MODALITIES)
def test_predict_runs_the_student_alone_byte_equal_to_forward_all(student):
    # hidden and fusion width 8 is what CI and bench/smoke.py train at; 1667 rows span seven blocks
    for dim_a, dim_t, hidden, fusion_dim, rows in ((5, 3, 7, 6, 50), (4, 4, 8, 8, 1667)):
        cfg = ModelConfig(dim_a=dim_a, dim_t=dim_t, n_classes=4, hidden=hidden, fusion_dim=fusion_dim,
                          student=student)
        params = init_params(cfg, 4)
        rng = np.random.default_rng(5)
        h_a, h_t = rng.standard_normal((rows, dim_a)), rng.standard_normal((rows, dim_t))
        full = forward_all(wrap_params(params, requires_grad=False), ad.constant(h_a), ad.constant(h_t), cfg)
        out = predict(params, cfg, h_a, h_t)
        assert list(out) == [student]
        assert out[student].dtype == full[student].data.dtype
        assert out[student].tobytes() == full[student].data.tobytes(), hidden


@pytest.mark.parametrize("student", MODALITIES)
def test_blocked_predict_is_byte_equal_to_forward_all_at_every_block_edge(student):
    # 513 rows end in a 1-row tail, which joins the block before it.
    cfg = ModelConfig(dim_a=16, dim_t=16, n_classes=4, hidden=256, fusion_dim=256, student=student)
    params = init_params(cfg, 2)
    tensors = wrap_params(params, requires_grad=False)
    rng = np.random.default_rng(6)
    for rows in (1, 2, 255, 256, 257, 513, 514):
        h_a, h_t = rng.standard_normal((rows, 16)), rng.standard_normal((rows, 16))
        full = forward_all(tensors, ad.constant(h_a), ad.constant(h_t), cfg)[student].data
        assert predict(params, cfg, h_a, h_t)[student].tobytes() == full.tobytes(), rows


def test_predict_names_a_malformed_input_by_its_whole_shape():
    # The inputs are checked before the fusion reads them, so for student "at"
    # too a fault is the input's ValueError, not the fusion's abort or a shape
    # mismatch inside it. `forward_all` with every head reads both inputs.
    cfg = ModelConfig(dim_a=3, dim_t=4, n_classes=3, hidden=4, fusion_dim=4)
    params = init_params(cfg, 0)
    tensors = wrap_params(params, requires_grad=False)
    cases = [
        ("a", np.zeros((600, 5)), np.zeros((600, 4)), "head 'a' expects input dim 3, got (600, 5)"),
        ("a", np.zeros(600), np.zeros((600, 4)), "head 'a' expects input dim 3, got (600,)"),
        ("at", np.zeros((600, 3)), np.zeros((599, 4)), "batch sizes differ: 600 vs 599"),
        ("t", np.zeros((600, 3)), np.full((600, 4), np.nan), "non-finite input to head 't'"),
        ("at", np.full((600, 3), np.nan), np.zeros((600, 4)), "non-finite input to head 'a'"),
        ("at", np.zeros((600, 5)), np.zeros((600, 4)), "head 'a' expects input dim 3, got (600, 5)"),
    ]
    for student, h_a, h_t, message in cases:
        with pytest.raises(ValueError) as err:
            predict(params, ModelConfig(**{**asdict(cfg), "student": student}), h_a, h_t)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            forward_all(tensors, ad.constant(h_a), ad.constant(h_t), cfg)
        assert str(err.value) == message


def test_predict_holds_at_most_1_6_batch_by_width_arrays_at_once():
    # A unit is one rows x width float64 array. The hidden layer of all rows
    # is one; the blocks of 256 rows add about a third of one at 4000 rows.
    rows, width = 4000, 256
    cfg = ModelConfig(dim_a=16, dim_t=16, n_classes=4, hidden=width, fusion_dim=width)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(1)
    h_a, h_t = rng.standard_normal((rows, 16)), rng.standard_normal((rows, 16))
    units = traced_peak_bytes(lambda: predict(params, cfg, h_a, h_t)) / (rows * width * 8)
    assert units <= 1.6, f"predict peaked at {units:.2f} units"
