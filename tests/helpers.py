"""Shared test oracles: finite-difference gradient checks, the composite
autodiff ops the fused nodes replaced, the dataset parse before the column
cache and the per-sample synthetic generator.

The adaptive expert weights and (in detached mode) the expert branch of the
consistency term are non-differentiable by design: they enter the graph as
detached values. A finite-difference sweep differentiates the *actual*
function, so the oracle must hold those pieces fixed. We therefore rebuild
the objective with the weights and detached predictions frozen at the
evaluation point, assert its gradients match the production graph bitwise,
and finite-difference the frozen reconstruction.
"""

import json
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from amber import autodiff as ad
from amber.dataio import SCHEMA, Y_CROSSCHECK_TOL, Dataset, SynthConfig, _soft_labels, class_anchors
from amber.errors import DataValidationError
from amber.losses import LossConfig, amber_loss
from amber.model import MODALITIES, ModelConfig, forward_all, init_params, wrap_params


RELU_KINK_MARGIN = 1e-2


# ---------------------------------------------------------------------------
# autodiff oracles


def concat(a, b):
    """Column-wise concatenation of two matrices that take no gradient."""
    if a.requires_grad or b.requires_grad or a.data.ndim != 2 or b.data.ndim != 2 or len(a.data) != len(b.data):
        raise ValueError(f"concat expects two constant matrices of equal rows: {a.data.shape} vs {b.data.shape}")
    return ad.constant(np.concatenate([a.data, b.data], axis=1))


def elementwise_mul(a, b):
    """Elementwise product node: with `concat`, `matmul`, `add`, `sigmoid`
    and `scalar_mul`, the composite that `ad.gated_fusion` must match byte
    for byte."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"elementwise_mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            ad._accumulate(a, g * b.data)
        if b.requires_grad:
            ad._accumulate(b, g * a.data)

    return ad._node(a.data * b.data, (a, b), bwd)


def mean(x):
    """Scalar mean node over every entry of `x`."""
    n = x.data.size

    def bwd(g):
        ad._accumulate(x, np.full_like(x.data, float(g) / n))

    return ad._node(np.asarray(x.data.mean()), (x,), bwd)


@dataclass
class GradCheckResult:
    """Per-input worst relative error between backward and central differences."""

    max_rel_err: float
    per_input: list = field(default_factory=list)
    tol: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def grad_check(f, inputs, h=1e-4, tol=1e-4) -> GradCheckResult:
    """Compare backward gradients of `f(*inputs)` against central differences.

    `f` must build a fresh graph on each call and return a scalar tensor.
    The error measure is |analytic - numeric| / max(1, |analytic|, |numeric|),
    which is relative for large gradients and absolute near zero.
    """

    def run():
        out = f(*inputs)
        if out.data.size != 1:
            raise ValueError("grad_check requires a scalar-valued function")
        if not np.isfinite(out.data):
            raise ValueError("non-finite value in forward pass")
        return out

    for t in inputs:
        if t.grad is not None:
            t.grad = np.zeros_like(t.data)
    ad.backward(run())
    analytic = [t.grad.copy() if t.requires_grad else None for t in inputs]

    per_input = []
    worst = 0.0
    for t, a in zip(inputs, analytic):
        if a is None:
            continue
        err = 0.0
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = float(run().data)
            flat[i] = orig - h
            down = float(run().data)
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            ai = a.reshape(-1)[i]
            err = max(err, abs(ai - numeric) / max(1.0, abs(ai), abs(numeric)))
        per_input.append(err)
        worst = max(worst, err)
    return GradCheckResult(max_rel_err=worst, per_input=per_input, tol=tol)


# ---------------------------------------------------------------------------
# the full objective at a frozen evaluation point


def _relu_margin(cfg, params, h_a, h_t):
    """Smallest |pre-activation| feeding a ReLU anywhere in the model."""
    z_a = h_a @ params["a.w1"] + params["a.b1"]
    z_t = h_t @ params["t.w1"] + params["t.b1"]
    gate_z = np.concatenate([h_a, h_t], axis=1) @ params["fuse.gate_w"] + params["fuse.gate_b"]
    gate = 1.0 / (1.0 + np.exp(-gate_z))
    h_at = gate * (h_a @ params["fuse.proj_a"]) + (1 - gate) * (h_t @ params["fuse.proj_t"])
    z_at = h_at @ params["at.w1"] + params["at.b1"]
    return min(np.abs(z).min() for z in (z_a, z_t, z_at))


def micro_model(seed, batch=3, n_classes=3):
    """Small random model + batch with dims <= 8.

    Points with a ReLU pre-activation within `RELU_KINK_MARGIN` of zero are
    redrawn: central differences straddle the kink there and disagree with
    the (correct) one-sided derivative, which would fail any implementation.
    """
    for attempt in range(100):
        rng = np.random.default_rng(100_000 * seed + attempt)
        cfg = ModelConfig(
            dim_a=int(rng.integers(2, 5)),
            dim_t=int(rng.integers(2, 5)),
            n_classes=n_classes,
            hidden=int(rng.integers(3, 8)),
            fusion_dim=int(rng.integers(3, 8)),
        )
        params = init_params(cfg, rng)
        h_a = rng.standard_normal((batch, cfg.dim_a))
        h_t = rng.standard_normal((batch, cfg.dim_t))
        y = rng.dirichlet(np.ones(n_classes), size=batch)
        if _relu_margin(cfg, params, h_a, h_t) >= RELU_KINK_MARGIN:
            return cfg, params, h_a, h_t, y
    raise AssertionError("could not sample a kink-free micro model")


def production_amber_grads(cfg, params, h_a, h_t, y, loss_cfg):
    tensors = wrap_params(params)
    outputs = forward_all(tensors, ad.constant(h_a), ad.constant(h_t), cfg)
    total, fields = amber_loss(y, outputs, loss_cfg, cfg.student)
    ad.backward(total)
    grads = {k: t.grad.copy() for k, t in tensors.items()}
    p_star = {m: outputs[m].data.copy() for m in _experts(cfg)}
    return float(total.data), grads, fields, p_star


def _experts(cfg):
    return [m for m in MODALITIES if m != cfg.student]


def frozen_amber_fn(cfg, param_names, h_a, h_t, y, loss_cfg, u_star, p_star):
    """Objective with u (and detached expert branches) frozen at the base point.

    Mirrors the production graph structure term by term so its gradients are
    bitwise identical to the training gradients at the evaluation point.
    """
    detached = loss_cfg.mai_expert_grad == "detached"

    def f(*tensors):
        td = dict(zip(param_names, tensors))
        outputs = forward_all(td, ad.constant(h_a), ad.constant(h_t), cfg)
        s = outputs[cfg.student]
        total = ad.scalar_mul(loss_cfg.lambda_rai, ad.js_loss_node(ad.constant(y), s))
        if loss_cfg.lambda_mai > 0:
            mai = None
            for m in _experts(cfg):
                q = ad.constant(p_star[m]) if detached else outputs[m]
                term = ad.scalar_mul(u_star[m], ad.js_loss_node(s, q))
                mai = term if mai is None else ad.add(mai, term)
            total = ad.add(total, ad.scalar_mul(loss_cfg.lambda_mai, mai))
        if loss_cfg.expert_supervision == "rai":
            y_const = ad.constant(y)
            for m in _experts(cfg):
                total = ad.add(total, ad.js_loss_node(y_const, outputs[m]))
        return total

    return f


def full_amber_grad_check(seed, loss_cfg=None, h=1e-4, tol=1e-4):
    """(bitwise_match, GradCheckResult) for one random micro-model."""
    loss_cfg = loss_cfg or LossConfig()
    cfg, params, h_a, h_t, y = micro_model(seed)
    _, prod_grads, fields, p_star = production_amber_grads(cfg, params, h_a, h_t, y, loss_cfg)
    u_star = {m: fields[f"u_{m}"] for m in _experts(cfg)}

    names = list(params)
    inputs = [ad.Tensor(params[k], requires_grad=True) for k in names]
    f = frozen_amber_fn(cfg, names, h_a, h_t, y, loss_cfg, u_star, p_star)
    out = f(*inputs)
    ad.backward(out)
    bitwise = all(np.array_equal(prod_grads[k], t.grad) for k, t in zip(names, inputs))
    result = grad_check(f, inputs, h=h, tol=tol)
    return bitwise, result


def traced_peak_bytes(fn):
    """Peak bytes allocated above the starting level while `fn()` runs.

    numpy reports its array buffers to `tracemalloc`, so the figure counts
    every array the call holds at once and does not depend on the allocator
    or on what the process held before.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# dataset parse oracle


def oracle_load_jsonl(path) -> Dataset:
    """`load_jsonl` as it was before the column cache: the oracle of its parse.

    Lines end at LF alone, the JSON Lines rule: a CR before it is JSON
    whitespace, and no other line break (U+2028, U+0085, a lone CR) ends one.
    """
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if not text:
        raise DataValidationError("empty dataset file", path=path)
    lines = text.split("\n")

    header = _oracle_parse_json(lines[0], 1, path)
    if header.get("schema") != SCHEMA:
        raise DataValidationError(f"unknown schema {header.get('schema')!r}", line=1, path=path)
    for key in ("C", "dim_a", "dim_t", "folds"):
        if type(header.get(key)) is not int:
            raise DataValidationError(f"bad header: {key!r} must be an integer", line=1, path=path)
    n_classes, dim_a, dim_t, folds = header["C"], header["dim_a"], header["dim_t"], header["folds"]
    if n_classes < 2 or dim_a < 1 or dim_t < 1 or folds < 1:
        raise DataValidationError("header dimensions out of range", line=1, path=path)

    # One row per line at most; blank lines leave unused rows at the end.
    rows = len(lines) - 1
    h_a = np.empty((rows, dim_a))
    h_t = np.empty((rows, dim_t))
    votes = np.empty((rows, n_classes), dtype=np.int64)
    ids = []
    seen_ids = set()
    for line_no, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        record = _oracle_parse_json(raw, line_no, path)
        i = len(ids)
        sample_id = _oracle_parse_record(record, h_a[i], h_t[i], votes[i], line_no, path)
        if sample_id in seen_ids:
            raise DataValidationError(f"duplicate id {sample_id!r}", line=line_no, path=path)
        seen_ids.add(sample_id)
        ids.append(sample_id)

    n = len(ids)
    if n < folds:
        raise DataValidationError(f"{n} records cannot fill {folds} folds", path=path)
    return Dataset(np.array(ids, dtype=object), h_a[:n], h_t[:n], votes[:n], folds)


def _oracle_parse_json(raw, line_no, path):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"malformed JSON ({exc.msg})", line=line_no, path=path) from None
    if not isinstance(value, dict):
        raise DataValidationError("expected a JSON object", line=line_no, path=path)
    return value


# JSON numbers parse to these types; bool, str, list and None are rejected.
_ORACLE_NUMBER_TYPES = {int, float}


def _oracle_parse_record(record, h_a, h_t, votes, line_no, path):
    """Validate one record into the given rows; returns its id."""

    def fail(msg):
        raise DataValidationError(msg, line=line_no, path=path)

    sample_id = record.get("id")
    if not isinstance(sample_id, str) or not sample_id:
        fail("missing or invalid 'id'")

    def vector(key, out):
        v = record.get(key)
        if not isinstance(v, list) or len(v) != len(out):
            fail(f"'{key}' must be a list of length {len(out)}")
        if not set(map(type, v)) <= _ORACLE_NUMBER_TYPES:
            fail(f"'{key}' entries must be numbers")
        try:
            out[:] = v
        except OverflowError:  # an integer literal beyond the float range
            fail(f"non-finite values in '{key}'")
        if not np.all(np.isfinite(out)):
            fail(f"non-finite values in '{key}'")

    vector("h_a", h_a)
    vector("h_t", h_t)

    raw_votes = record.get("votes")
    if not isinstance(raw_votes, list) or len(raw_votes) != len(votes):
        fail(f"'votes' must be a list of length {len(votes)}")
    if not set(map(type, raw_votes)) <= {int} or min(raw_votes) < 0:
        fail("'votes' entries must be non-negative integers")
    total = sum(raw_votes)
    if total < 1:
        fail("invalid votes: at least one rater vote is required")
    if total >= 2**63:
        fail("invalid votes: the vote total exceeds the int64 range")
    votes[:] = raw_votes

    if "y" in record:
        stored = np.empty(len(votes))
        vector("y", stored)
        if np.max(np.abs(stored - _soft_labels(votes[np.newaxis])[0])) > Y_CROSSCHECK_TOL:
            fail("stored 'y' disagrees with normalized votes")

    return sample_id


# ---------------------------------------------------------------------------
# synthetic generator oracle


def oracle_generate_synthetic(cfg: SynthConfig) -> Dataset:
    """`generate_synthetic` as it was before its loop kept only the draws:
    every row's cue classes and features computed inside the loop."""
    rng = np.random.default_rng(cfg.seed)
    anchors_a = class_anchors(rng, cfg.n_classes, cfg.dim_a)
    anchors_t = class_anchors(rng, cfg.n_classes, cfg.dim_t)
    sd_a = cfg.noise_sigma / np.sqrt(cfg.dim_a)
    sd_t = cfg.noise_sigma / np.sqrt(cfg.dim_t)

    n = cfg.n_samples
    h_a = np.empty((n, cfg.dim_a))
    h_t = np.empty((n, cfg.dim_t))
    votes = np.empty((n, cfg.n_classes), dtype=np.int64)
    alpha = np.full(cfg.n_classes, cfg.ambiguity_alpha)
    for i in range(n):
        pi = rng.dirichlet(alpha)
        votes[i] = rng.multinomial(cfg.n_raters, pi)
        c_t = int(np.argmax(pi))
        c_a = c_t
        if rng.random() < cfg.conflict_rate:
            offset = int(rng.integers(1, cfg.n_classes))
            c_a = (c_t + offset) % cfg.n_classes
        h_a[i] = anchors_a[c_a] + sd_a * rng.standard_normal(cfg.dim_a)
        h_t[i] = anchors_t[c_t] + sd_t * rng.standard_normal(cfg.dim_t)

    order = rng.permutation(n)
    ids = np.array([f"synth-{i:06d}" for i in range(n)], dtype=object)
    return Dataset(ids[order], h_a[order], h_t[order], votes[order], cfg.fold_count)
