"""Modality heads, gated fusion and student/expert role assignment.

Three heads produce class distributions: "a" and "t" consume their own
embeddings, "at" consumes the gated fusion of both. Each head is a two-layer
MLP: one fused node (`ad.linear_relu`) that keeps only its activated output,
then `head_output` (linear, softmax). One head is designated the student;
the other two act as experts.

A forward builds only the heads its caller reads: `forward_all` builds the
`heads` it is given (all three by default, which the amber objective needs),
and the fusion (one `ad.gated_fusion` node) only for "at". The cbce
objective and `predict` build the student alone; `predict` runs the fusion
and first layer in row blocks.

`forward_all` and `predict` check their inputs once, on entry, before the
fusion reads them: an input fault (shape, row count, a non-finite value) is
a `ValueError`. A non-finite fused embedding (`fuse`) or head output
(`head_output`) comes from the parameters: a `NumericalAbortError`.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .dataio import check_keys, read_json, write_text_atomic
from .errors import DataValidationError, NumericalAbortError

MODALITIES = ("a", "t", "at")

CHECKPOINT_FORMAT = "amber-ckpt-v2"

# errstate of a pass checked for non-finite results right after: its abort replaces the warnings
QUIET_OVERFLOW = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

# rows per block of `predict`'s fusion and hidden layer: one 256 x 256 float64 array is 512 KB
PREDICT_ROWS = 256

# Parameters of one run, counted over param_shapes: 8 bytes each in the parameters, the gradients and both
# AdamW moments (3.2 GB at the bound). A model numpy cannot allocate would otherwise fail mid-run.
MAX_PARAMS = 100_000_000


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
        n_params = sum(math.prod(shape) for shape in param_shapes(self).values())
        if n_params > MAX_PARAMS:
            raise ValueError(f"hidden {self.hidden} and fusion_dim {self.fusion_dim} give "
                             f"{n_params} parameters per run, more than {MAX_PARAMS}")

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


def head_output(tensors: dict, modality: str, hid: ad.Tensor) -> ad.Tensor:
    """softmax(W2 @ hid + b2): the class distributions of head `modality` from its hidden layer.
    A non-finite row (parameters too large) raises `NumericalAbortError`."""
    out = ad.softmax(ad.linear(hid, tensors[f"{modality}.w2"], tensors[f"{modality}.b2"]))
    if not np.all(np.isfinite(out.data)):
        raise NumericalAbortError(f"non-finite output of head {modality!r}")
    return out


def fuse(tensors: dict, h_a: ad.Tensor, h_t: ad.Tensor) -> ad.Tensor:
    """Gated fusion of the projected embeddings.

    g = sigmoid([h_a; h_t] @ W_g + b_g)
    h_at = g * (h_a @ W_a) + (1 - g) * (h_t @ W_t)
    """
    h_at = ad.gated_fusion(h_a, h_t, tensors["fuse.gate_w"], tensors["fuse.gate_b"],
                           tensors["fuse.proj_a"], tensors["fuse.proj_t"])
    if not np.all(np.isfinite(h_at.data)):  # parameters too large: a numerical fault, not bad input
        raise NumericalAbortError("non-finite fused embedding")
    return h_at


def _checked_inputs(cfg: ModelConfig, h_a: ad.Tensor, h_t: ad.Tensor, heads) -> dict:
    """`{modality: tensor}` of the embeddings `heads` read: both if "at" is among
    them, else each head's own. Each must be a finite (rows, width) matrix of its
    head's input width, and the two of one row count; else `ValueError`."""
    h = {m: x for m, x in (("a", h_a), ("t", h_t)) if m in heads or "at" in heads}
    for m, x in h.items():
        if x.data.ndim != 2 or x.data.shape[1] != cfg.head_input_dim(m):
            raise ValueError(f"head {m!r} expects input dim {cfg.head_input_dim(m)}, got {x.data.shape}")
    if len(h) == 2 and len(h_a.data) != len(h_t.data):
        raise ValueError(f"batch sizes differ: {len(h_a.data)} vs {len(h_t.data)}")
    for m, x in h.items():
        if not np.all(np.isfinite(x.data)):
            raise ValueError(f"non-finite input to head {m!r}")
    return h


def forward_all(tensors: dict, h_a: ad.Tensor, h_t: ad.Tensor, cfg: ModelConfig,
                heads=MODALITIES) -> dict:
    """The distributions of `heads` (all three by default), keyed in `MODALITIES`
    order; `outputs[cfg.student]` is the student. The fusion runs only for "at"."""
    if not set(heads) <= set(MODALITIES):
        raise ValueError(f"heads must be among {MODALITIES}, got {heads!r}")
    h = _checked_inputs(cfg, h_a, h_t, heads)
    if "at" in heads:
        h["at"] = fuse(tensors, h_a, h_t)
    return {m: head_output(tensors, m, ad.linear_relu(h[m], tensors[f"{m}.w1"], tensors[f"{m}.b1"]))
            for m in MODALITIES if m in heads}


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

    Inputs are checked as `forward_all` checks them. Parameters that
    overflow the pass to a non-finite value raise `NumericalAbortError`.
    """
    tensors = wrap_params(params, requires_grad=False)
    student = cfg.student
    inputs = _checked_inputs(cfg, ad.constant(h_a), ad.constant(h_t), (student,))
    n = len(next(iter(inputs.values())).data)
    hid = np.empty((n, cfg.hidden))
    with np.errstate(**QUIET_OVERFLOW):
        for rows in _row_blocks(n):
            h = {m: ad.constant(x.data[rows]) for m, x in inputs.items()}
            if student == "at":
                h["at"] = fuse(tensors, h["a"], h["t"])
            hid[rows] = ad.linear_relu(h[student], tensors[f"{student}.w1"], tensors[f"{student}.b1"]).data
        return {student: head_output(tensors, student, ad.constant(hid)).data}


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


def _decode_array(text, shape, name) -> np.ndarray:
    """The writable native-order float64 array of `shape` that `_encode_array` wrote as `text`;
    `ValueError` naming parameter `name` if `text` is not base64 of exactly the bytes `shape` needs."""
    if not isinstance(text, str):
        raise ValueError(f"parameter {name!r} data must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:
        raise ValueError(f"parameter {name!r} data is not valid base64") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"parameter {name!r} data holds {len(raw)} bytes, its shape needs {need}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load_checkpoint(path):
    """(config, params, provenance) of a checkpoint written by `save_checkpoint`.

    A file of any other structure, keys, entry types, values or shapes, whose
    config `ModelConfig` rejects (one over `MAX_PARAMS` too, before any
    parameter is decoded), or whose provenance has a `system` that is not a
    string, a `fold`, `seed` or `folds` that is not an integer or a non-finite
    number anywhere, raises one `DataValidationError` naming the file.
    """
    try:
        blob = read_json(Path(path).read_bytes())
        check_keys(blob, ("format", "config", "params"), ("provenance",), "checkpoint keys")
        if blob["format"] != CHECKPOINT_FORMAT:
            raise ValueError(f"unsupported format {blob['format']!r}")
        config = blob["config"]
        check_keys(config, [f.name for f in fields(ModelConfig)], (), "config keys")
        for name, value in config.items():
            if type(value) is not (str if name == "student" else int):
                raise ValueError(f"config {name!r} has the wrong type: {value!r}")
        cfg = ModelConfig(**config)
        provenance = blob.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError("provenance must be a JSON object")
        for key, typ in (("system", str), ("fold", int), ("seed", int), ("folds", int)):
            if key in provenance and type(provenance[key]) is not typ:
                raise ValueError(f"provenance {key!r} must be {typ.__name__}")
        for key, value in provenance.items():  # NaN and Infinity parse, but would reach reports as non-JSON
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise ValueError(f"provenance {key!r} holds a non-finite number") from None

        expected = param_shapes(cfg)
        check_keys(blob["params"], expected, (), "params")
        params = {}
        for name, shape in expected.items():
            entry = blob["params"][name]
            check_keys(entry, ("shape", "data"), (), f"keys of parameter {name!r}")
            if entry["shape"] != list(shape) or any(type(v) is not int for v in entry["shape"]):
                raise ValueError(f"parameter {name!r} has shape {entry['shape']!r}, its config needs {list(shape)}")
            params[name] = _decode_array(entry["data"], shape, name)
            if not np.all(np.isfinite(params[name])):
                raise ValueError(f"non-finite values in parameter {name!r}")
    except ValueError as exc:
        raise DataValidationError(f"invalid checkpoint: {exc}", path=path) from None
    return cfg, params, provenance
