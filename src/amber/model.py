"""Modality heads, gated fusion and student/expert role assignment.

Three heads produce class distributions: "a" and "t" consume their own
embeddings, "at" consumes the gated fusion of both. Each head is a two-layer
MLP (linear, ReLU, linear, softmax). One head is designated the student; the
other two act as experts. Training and `predict` share each head's two steps,
`head_hidden` and `head_output`; `predict` runs the first in row blocks.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .dataio import write_text_atomic
from .errors import DataValidationError, NumericalAbortError

MODALITIES = ("a", "t", "at")

CHECKPOINT_FORMAT = "amber-ckpt-v2"

# errstate of a pass checked for non-finite results right after: its abort replaces the warnings
QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

# rows per block of `predict`'s fusion and hidden layer: one 256 x 256 float64 array is 512 KB
PREDICT_ROWS = 256


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


def head_hidden(tensors: dict, modality: str, h: ad.Tensor) -> ad.Tensor:
    """relu(W1 @ h + b1): the hidden layer of head `modality`, after checking its input."""
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}")
    w1 = tensors[f"{modality}.w1"]
    if h.data.ndim != 2 or h.data.shape[1] != w1.data.shape[0]:
        raise ValueError(
            f"head {modality!r} expects input dim {w1.data.shape[0]}, got {h.data.shape}"
        )
    if not np.all(np.isfinite(h.data)):
        raise ValueError(f"non-finite input to head {modality!r}")
    return ad.relu(ad.linear(h, w1, tensors[f"{modality}.b1"]))


def head_output(tensors: dict, modality: str, hid: ad.Tensor) -> ad.Tensor:
    """softmax(W2 @ hid + b2): the class distributions of head `modality` from its hidden layer."""
    return ad.softmax(ad.linear(hid, tensors[f"{modality}.w2"], tensors[f"{modality}.b2"]))


def head_forward(tensors: dict, modality: str, h: ad.Tensor) -> ad.Tensor:
    """p_m = softmax(W2 @ relu(W1 @ h + b1) + b2), rows are distributions."""
    return head_output(tensors, modality, head_hidden(tensors, modality, h))


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
    h_at = ad.gated_mix(gate, proj_a, proj_t)
    if not np.all(np.isfinite(h_at.data)):  # parameters too large: a numerical fault, not bad input
        raise NumericalAbortError("non-finite fused embedding")
    return h_at


def forward_all(tensors: dict, h_a: ad.Tensor, h_t: ad.Tensor, cfg: ModelConfig) -> dict:
    """All three head distributions; `outputs[cfg.student]` is the student."""
    h_at = fuse(tensors, h_a, h_t)
    return {
        "a": head_forward(tensors, "a", h_a),
        "t": head_forward(tensors, "t", h_t),
        "at": head_forward(tensors, "at", h_at),
    }


def predict(params: dict, cfg: ModelConfig, h_a: np.ndarray, h_t: np.ndarray) -> dict:
    """Gradient-free forward pass of the student alone: `{cfg.student: rows}`.

    Only the student head runs, after the fusion if the student is "at".
    The fusion and the hidden layer run on blocks of `PREDICT_ROWS` rows
    (`_row_blocks`), written into one (rows, hidden) array; the output layer
    then runs once over all rows. A block's arrays stay in cache, and the
    call holds one rows x hidden array instead of five or six.

    The rows are bit-equal to `forward_all(...)[cfg.student]` when each
    matrix product gives a block's rows the bits it gives them in one
    product over all rows. On OpenBLAS 0.3.31 (x86-64 with AVX-512, one
    thread) that holds for the fusion and hidden-layer products at width
    256 (inner dim 16, 32 or 256) at every row count from 2 to 5000 tried.
    It does not hold for a 1-row product (gemv), so a 1-row tail joins the
    block before it; nor for the output layer (256 x 4), so that layer is
    not blocked. The small-matrix kernel this OpenBLAS uses for products of
    at most 10^6 multiply-adds gives other bits than its large kernel at
    some widths (4 and 100 columns, not 8 or 256), so at such a hidden or
    fusion width a split of more rows than one block can differ in the
    last bits from an unblocked pass.

    Inputs that are not (rows, width) matrices of one row count run as one
    block, so they fail with the messages an unblocked pass gives.
    Parameters that overflow the pass to a non-finite value raise
    `NumericalAbortError`.
    """
    tensors = wrap_params(params, requires_grad=False)
    inputs = {"a": np.asarray(h_a, dtype=np.float64), "t": np.asarray(h_t, dtype=np.float64)}
    read = ("a", "t") if cfg.student == "at" else (cfg.student,)

    def hidden(rows):
        h = {m: ad.constant(inputs[m][rows]) for m in read}
        if cfg.student == "at":
            h["at"] = fuse(tensors, h["a"], h["t"])
        return head_hidden(tensors, cfg.student, h[cfg.student]).data

    n = len(inputs[read[0]]) if inputs[read[0]].ndim else 0
    with np.errstate(**QUIET_OVERFLOW):
        if all(inputs[m].shape == (n, cfg.head_input_dim(m)) for m in read):
            hid = np.empty((n, cfg.hidden))
            for block in _row_blocks(n):
                hid[block] = hidden(block)
        else:
            hid = hidden(...)  # every row at once, so a malformed input fails as an unblocked pass does
        rows = head_output(tensors, cfg.student, ad.constant(hid)).data
    if not np.all(np.isfinite(rows)):
        raise NumericalAbortError(f"non-finite output of head {cfg.student!r}")
    return {cfg.student: rows}


def _row_blocks(n):
    """Slices of `PREDICT_ROWS` rows over `n` rows; a 1-row tail joins the block before it."""
    starts = list(range(0, n, PREDICT_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n])]


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
    Pieces are faster too, as `json.dumps` scans each base64 character for
    escapes: 2.9 against 8.1 ms at 94,220 parameters (2-vCPU Xeon, Python 3.11).
    """
    head = json.dumps({"format": CHECKPOINT_FORMAT, "config": asdict(cfg), "provenance": provenance, "params": {}})
    yield head[:-2]  # without the "}}" that closes the empty params
    for i, (name, arr) in enumerate(params.items()):
        if arr.dtype.type is not np.float64:
            raise TypeError(f"parameter {name!r} must be float64, got {arr.dtype}")
        # no local keeps the encoding, so the previous one is gone before the next is made
        yield (f'{", " if i else ""}{json.dumps(name)}: {{"shape": {json.dumps(list(arr.shape))}, "data": "'
               f'{_encode_array(arr)}"}}')
    yield "}}\n"


def _encode_array(arr) -> str:
    """Standard base64 of `arr`'s values as little-endian float64, in C order."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8")).decode("ascii")


def _decode_array(text, shape) -> np.ndarray:
    """The writable native-order float64 array of `shape` that `_encode_array` wrote as `text`.

    Raises `ValueError` if `text` is not a base64 string of exactly the bytes
    `shape` needs; its message reads on from "data", as in "data is not
    valid base64".
    """
    if not isinstance(text, str):
        raise ValueError("must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        raise ValueError("is not valid base64") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"holds {len(raw)} bytes, its shape needs {need}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


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
    except RecursionError:
        raise invalid("malformed JSON (nested too deeply)") from None
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
        if entry["shape"] != list(shape) or any(type(v) is not int for v in entry["shape"]):
            raise invalid(f"parameter {name!r} has shape {entry['shape']!r}, its config needs {list(shape)}")
        try:
            arr = _decode_array(entry["data"], shape)
        except ValueError as exc:
            raise invalid(f"parameter {name!r} data {exc}") from None
        if not np.all(np.isfinite(arr)):
            raise invalid(f"non-finite values in parameter {name!r}")
        params[name] = arr
    return cfg, params, provenance
