"""Modality heads, gated fusion and student/expert role assignment.

Three heads produce class distributions: "a" and "t" consume their own
embeddings, "at" consumes the gated fusion of both. Each head is a two-layer
MLP (linear, ReLU, linear, softmax). One head is designated the student; the
other two act as experts.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .dataio import write_text_atomic
from .errors import DataValidationError

MODALITIES = ("a", "t", "at")

CHECKPOINT_FORMAT = "amber-ckpt-v2"


@dataclass
class ModelConfig:
    dim_a: int
    dim_t: int
    n_classes: int
    hidden: int = 256
    fusion_dim: int = 256
    student: str = "at"

    def __post_init__(self):
        for name in ("dim_a", "dim_t", "n_classes", "hidden", "fusion_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.student not in MODALITIES:
            raise ValueError(f"student must be one of {MODALITIES}, got {self.student!r}")

    @property
    def experts(self):
        return tuple(m for m in MODALITIES if m != self.student)

    def head_input_dim(self, modality):
        return {"a": self.dim_a, "t": self.dim_t, "at": self.fusion_dim}[modality]


def param_shapes(cfg: ModelConfig) -> dict:
    """Name -> shape for every trainable array, in canonical creation order.

    Each bias directly follows the weight whose output it shifts.
    """
    shapes = {}
    for m in MODALITIES:
        d = cfg.head_input_dim(m)
        shapes[f"{m}.w1"] = (d, cfg.hidden)
        shapes[f"{m}.b1"] = (cfg.hidden,)
        shapes[f"{m}.w2"] = (cfg.hidden, cfg.n_classes)
        shapes[f"{m}.b2"] = (cfg.n_classes,)
    d_cat = cfg.dim_a + cfg.dim_t
    shapes["fuse.gate_w"] = (d_cat, cfg.fusion_dim)
    shapes["fuse.gate_b"] = (cfg.fusion_dim,)
    shapes["fuse.proj_a"] = (cfg.dim_a, cfg.fusion_dim)
    shapes["fuse.proj_t"] = (cfg.dim_t, cfg.fusion_dim)
    return shapes


def init_params(cfg: ModelConfig, rng) -> dict:
    """Fresh parameter dict, each array uniform in +-1/sqrt(fan_in).

    `rng` is a `numpy.random.Generator` (or a seed). Creation order is fixed
    so a given seed always yields the same parameters. A bias shares the
    bound of the weight before it.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[0])
        params[name] = rng.uniform(-bound, bound, size=shape)
    return params


def wrap_params(params: dict, requires_grad=True) -> dict:
    return {k: ad.Tensor(v, requires_grad=requires_grad) for k, v in params.items()}


def head_forward(tensors: dict, modality: str, h: ad.Tensor) -> ad.Tensor:
    """p_m = softmax(W2 @ relu(W1 @ h + b1) + b2), rows are distributions."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    w1 = tensors[f"{modality}.w1"]
    if h.data.ndim != 2 or h.data.shape[1] != w1.data.shape[0]:
        raise ValueError(
            f"head {modality!r} expects input dim {w1.data.shape[0]}, got {h.data.shape}"
        )
    if not np.all(np.isfinite(h.data)):
        raise ValueError(f"non-finite input to head {modality!r}")
    hid = ad.relu(ad.linear(h, w1, tensors[f"{modality}.b1"]))
    logits = ad.linear(hid, tensors[f"{modality}.w2"], tensors[f"{modality}.b2"])
    return ad.softmax(logits)


def fuse(tensors: dict, h_a: ad.Tensor, h_t: ad.Tensor) -> ad.Tensor:
    """Gated fusion of the projected embeddings.

    g = sigmoid([h_a; h_t] @ W_g + b_g)
    h_at = g * (h_a @ W_a) + (1 - g) * (h_t @ W_t)
    """
    if h_a.data.shape[0] != h_t.data.shape[0]:
        raise ValueError(
            f"batch sizes differ: {h_a.data.shape[0]} vs {h_t.data.shape[0]}"
        )
    gate = ad.sigmoid(
        ad.linear(ad.concat(h_a, h_t), tensors["fuse.gate_w"], tensors["fuse.gate_b"])
    )
    proj_a = ad.matmul(h_a, tensors["fuse.proj_a"])
    proj_t = ad.matmul(h_t, tensors["fuse.proj_t"])
    return ad.gated_mix(gate, proj_a, proj_t)


def forward_all(tensors: dict, h_a: ad.Tensor, h_t: ad.Tensor, cfg: ModelConfig) -> dict:
    """All three head distributions; `outputs[cfg.student]` is the student."""
    h_at = fuse(tensors, h_a, h_t)
    return {
        "a": head_forward(tensors, "a", h_a),
        "t": head_forward(tensors, "t", h_t),
        "at": head_forward(tensors, "at", h_at),
    }


def predict(params: dict, cfg: ModelConfig, h_a: np.ndarray, h_t: np.ndarray) -> dict:
    """Gradient-free forward pass; returns plain arrays per modality."""
    tensors = wrap_params(params, requires_grad=False)
    outputs = forward_all(tensors, ad.constant(h_a), ad.constant(h_t), cfg)
    return {m: out.data for m, out in outputs.items()}


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, cfg: ModelConfig, params: dict, provenance=None):
    """Write config + parameter arrays as a versioned JSON blob.

    Each parameter's `data` is the base64 of its float64 values as
    little-endian bytes in C order, so a load returns them bit for bit. The
    file is written whole (`write_text_atomic`) from the pieces of
    `_checkpoint_text`; a parameter that is not float64 raises `TypeError`.
    """
    write_text_atomic(path, _checkpoint_text(cfg, params, provenance or {}))


def _checkpoint_text(cfg, params, provenance):
    """The checkpoint's JSON text: the head, then one piece per parameter.

    The pieces join to `json.dumps` of the whole blob (default separators
    ", " and ": "), and at most one parameter's encoding exists at a time.
    """
    head = json.dumps({"format": CHECKPOINT_FORMAT, "config": asdict(cfg), "provenance": provenance, "params": {}})
    yield head[:-2]  # without the "}}" that closes the empty params
    for i, (name, arr) in enumerate(params.items()):
        if arr.dtype.type is not np.float64:
            raise TypeError(f"parameter {name!r} must be float64, got {arr.dtype}")
        # no local keeps the encoding, so the previous one is gone before the next is made
        yield (f'{", " if i else ""}{json.dumps(name)}: {{"shape": {json.dumps(list(arr.shape))}, "data": "'
               f'{base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")).decode("ascii")}"}}')
    yield "}}\n"


def load_checkpoint(path):
    """(config, params, provenance) of a checkpoint written by `save_checkpoint`.

    A file of any other structure, keys, entry types, values or shapes
    raises a `DataValidationError` naming the file.
    """

    def invalid(message):
        return DataValidationError(f"invalid checkpoint: {message}", path=path)

    def check_keys(obj, required, optional, what):
        if not isinstance(obj, dict):
            raise invalid(f"{what} must be a JSON object")
        missing = sorted(set(required) - set(obj))
        unknown = sorted(set(obj) - set(required) - set(optional))
        if missing:
            raise invalid(f"{what} lacks keys {missing}")
        if unknown:
            raise invalid(f"{what} has unknown keys {unknown}")

    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except ValueError as exc:
        raise invalid(f"malformed JSON ({exc})") from None
    check_keys(blob, ("format", "config", "params"), ("provenance",), "checkpoint")
    if blob["format"] != CHECKPOINT_FORMAT:
        raise invalid(f"unsupported format {blob['format']!r}")
    config = blob["config"]
    check_keys(config, [f.name for f in fields(ModelConfig)], (), "config")
    for name, value in config.items():
        if type(value) is not (str if name == "student" else int):
            raise invalid(f"config {name!r} has the wrong type: {value!r}")
    try:
        cfg = ModelConfig(**config)
    except ValueError as exc:
        raise invalid(str(exc)) from None
    provenance = blob.get("provenance", {})
    if not isinstance(provenance, dict):
        raise invalid("provenance must be a JSON object")

    expected = param_shapes(cfg)
    check_keys(blob["params"], expected, (), "params")
    params = {}
    for name, shape in expected.items():
        entry = blob["params"][name]
        check_keys(entry, ("shape", "data"), (), f"parameter {name!r}")
        data = entry["data"]
        if entry["shape"] != list(shape) or any(type(v) is not int for v in entry["shape"]):
            raise invalid(f"parameter {name!r} has shape {entry['shape']!r}, its config needs {list(shape)}")
        if not isinstance(data, str):
            raise invalid(f"parameter {name!r} data must be a base64 string")
        try:
            raw = base64.b64decode(data, validate=True)
        except ValueError:
            raise invalid(f"parameter {name!r} data is not valid base64") from None
        if len(raw) != 8 * np.prod(shape):
            raise invalid(f"parameter {name!r} data holds {len(raw)} bytes, its shape needs {8 * np.prod(shape)}")
        arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise invalid(f"non-finite values in parameter {name!r}")
        params[name] = arr
    return cfg, params, provenance
