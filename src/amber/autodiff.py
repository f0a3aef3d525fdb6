"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine supports exactly the shapes the classifier needs: 2-D matrices,
1-D bias vectors and 0-d scalars, with the only broadcast being a bias row
added to every row of a matrix. Each op function returns a new `Tensor`
recording its parents and a closure that routes the upstream gradient;
`backward` replays the graph in reverse topological order. An op may build
its result in place in arrays it just allocated, but forward values and
gradient arrays are never written once a node holds them, and the traversal
order is a pure function of graph structure, so repeated runs are
bit-identical.

Gradient buffers: a `requires_grad` leaf holds a zero buffer from
construction, so a parameter the root never reaches reads zero. An interior
node has `grad = None` until `backward` reaches it. `backward` resets every
node it reaches to `None`; the first accumulation assigns the incoming array
(so nodes may share one) and later ones add out of place. Once an interior
node's closure has routed its gradient on to its parents, `backward` drops
that node's `grad` again, so only the leaves keep theirs and an interior
gradient lives no longer than the step that consumes it. `stop_grad` is the
one way to detach.

Fused nodes: `linear` is `add(matmul(x, w), b)` and `gated_mix` is the gated
fusion `g * a + (1 - g) * b`, each as one node that gives the same bytes as
the composite, forward and backward, in fewer arrays.

Gradient formulas clamp logarithm arguments at `GRAD_LOG_FLOOR`; forward
values never clamp (the metric path must see exact zeros).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distlib

GRAD_LOG_FLOOR = 1e-12
_LOG2 = np.log(2.0)


class Tensor:
    """A node of the computation graph.

    A leaf created with `requires_grad=True` gets a zero gradient buffer
    up front; an interior node (built by `_node`) starts with `grad = None`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "op")

    def __init__(self, data, requires_grad=False, *, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None
        self.op = op

    def zero_grad(self):
        if self.grad is not None:
            self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """A tensor that never receives gradient (e.g. targets, frozen weights)."""
    return Tensor(data, requires_grad=False, op="const")


def _accumulate(t: Tensor, g: np.ndarray):
    t.grad = g if t.grad is None else t.grad + g


def _node(data, parents, backward, op) -> Tensor:
    out = Tensor(data, op=op)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def backward(root: Tensor):
    """Fill the `grad` buffers of the graph under `root` with d(root)/d(node).

    `root` must hold a single value. Visits nodes in reverse topological
    order (children before parents), depth-first over the ordered parent
    tuples, so the accumulation order is deterministic. Every node reachable
    from the root is reset to `grad = None` first, so each call yields
    exactly the gradient of this root, never a mix of calls. An interior
    node's `grad` is released (set back to `None`) as soon as its closure
    has passed it on; the leaves keep theirs.
    """
    if root.data.size != 1:
        raise ValueError(f"backward requires a scalar root, got shape {root.data.shape}")
    topo = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in reversed(node._parents):
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    for node in topo:
        node.grad = None
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _node(a.data @ b.data, (a, b), bwd, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; as the sole broadcast, a 1-D bias may be added to a matrix."""
    bias = a.data.ndim == 2 and b.data.ndim == 1 and b.data.shape[0] == a.data.shape[1]
    if not bias and a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} + {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0) if bias else g)

    return _node(a.data + b.data, (a, b), bwd, "add")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` with a 1-D bias `b`: the bytes of `add(matmul(x, w), b)`
    in one node, the bias added in place into the product."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear bias shape {b.data.shape} does not fit {w.data.shape}")
    y = x.data @ w.data
    y += b.data

    def bwd(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0))

    return _node(y, (x, w, b), bwd, "linear")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    # fmax maps NaN to 0 like the select `x if x > 0 else 0`; `+= 0.0` turns -0.0 into +0.0
    y = np.fmax(x.data, 0.0)
    y += 0.0

    def bwd(g):
        _accumulate(x, g * mask)

    return _node(y, (x,), bwd, "relu")


def sigmoid(x: Tensor) -> Tensor:
    """Overflow-safe 1 / (1 + e^-x), bit-equal to the piecewise form.

    With z = e^-|x| (never overflows) and p = [x >= 0], the result is
    1 / (1 + z) where p = 1 and z / (1 + z) where p = 0; `p + (1 - p) * z`
    picks the numerator exactly. min(x, -x) is -|x| but keeps a NaN's sign.
    """
    z = np.negative(x.data)
    np.minimum(x.data, z, out=z)
    np.exp(z, out=z)
    p = (x.data >= 0).astype(np.float64)
    y = 1.0 - p
    y *= z
    y += p
    z += 1.0
    y /= z

    def bwd(g):
        dx = g * y
        dx *= 1.0 - y
        _accumulate(x, dx)

    return _node(y, (x,), bwd, "sigmoid")


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the class axis of a 2-D tensor."""
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ValueError(f"softmax expects a non-empty 2-D tensor, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=1, keepdims=True)
        _accumulate(x, y * (g - dot))

    return _node(y, (x,), bwd, "softmax")


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Column-wise concatenation of two matrices with equal batch size."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat shape mismatch: {a.data.shape} vs {b.data.shape}")
    split = a.data.shape[1]

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g[:, :split])
        if b.requires_grad:
            _accumulate(b, g[:, split:])

    return _node(np.concatenate([a.data, b.data], axis=1), (a, b), bwd, "concat")


def elementwise_mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ValueError(f"elementwise_mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _node(a.data * b.data, (a, b), bwd, "elementwise_mul")


def gated_mix(g: Tensor, a: Tensor, b: Tensor) -> Tensor:
    """`g * a + (1 - g) * b` in two arrays it owns, `1 - g` recomputed in backward.

    Bit-equal, forward and backward, to the composite
    `add(elementwise_mul(g, a), elementwise_mul(add(ones, scalar_mul(-1, g)), b))`:
    each array is built by the same float operations on the same operands in
    the same order, and d/dg = -1 * (up * b) + up * a sums in the order the
    composite's backward accumulates.
    """
    if not g.data.shape == a.data.shape == b.data.shape:
        raise ValueError(f"gated_mix shape mismatch: {g.data.shape}, {a.data.shape}, {b.data.shape}")
    y = g.data * a.data
    rest = 1.0 - g.data
    rest *= b.data
    y += rest

    def bwd(up):
        if b.requires_grad:
            db = 1.0 - g.data
            _accumulate(b, np.multiply(up, db, out=db))
        if g.requires_grad:
            dg = up * b.data
            np.multiply(-1.0, dg, out=dg)
            dg += up * a.data
            _accumulate(g, dg)
        if a.requires_grad:
            _accumulate(a, up * g.data)

    return _node(y, (g, a, b), bwd, "gated_mix")


def scalar_mul(c: float, x: Tensor) -> Tensor:
    c = float(c)

    def bwd(g):
        _accumulate(x, c * g)

    return _node(c * x.data, (x,), bwd, "scalar_mul")


def mean(x: Tensor) -> Tensor:
    n = x.data.size

    def bwd(g):
        _accumulate(x, np.full_like(x.data, float(g) / n))

    return _node(np.asarray(x.data.mean()), (x,), bwd, "mean")


def stop_grad(x: Tensor) -> Tensor:
    """Graph node that passes the value through and blocks all gradient."""
    return Tensor(x.data, requires_grad=False, op="stop_grad")


# ---------------------------------------------------------------------------
# fused loss nodes


def js_loss_node(p: Tensor, q: Tensor) -> Tensor:
    """Scalar mean base-2 Jensen-Shannon divergence over paired rows.

    Forward values come from `distlib` (exact 0 log 0 handling); the
    gradient is 0.5 * log2(x / m) / batch with arguments clamped at
    `GRAD_LOG_FLOOR`. To detach one side, pass it through `stop_grad`.
    """
    if p.data.shape != q.data.shape or p.data.ndim != 2:
        raise ValueError(f"js_loss_node shape mismatch: {p.data.shape} vs {q.data.shape}")
    batch = p.data.shape[0]
    value = distlib.js_divergence_rows(p.data, q.data).mean()
    m = 0.5 * (p.data + q.data)
    log_m = np.log(np.maximum(m, GRAD_LOG_FLOOR))

    def bwd(g):
        scale = float(g) * 0.5 / (batch * _LOG2)
        if p.requires_grad:
            _accumulate(p, scale * (np.log(np.maximum(p.data, GRAD_LOG_FLOOR)) - log_m))
        if q.requires_grad:
            _accumulate(q, scale * (np.log(np.maximum(q.data, GRAD_LOG_FLOOR)) - log_m))

    return _node(np.asarray(value), (p, q), bwd, "js_loss")


def soft_ce_node(s: Tensor, targets: np.ndarray, class_weights: np.ndarray) -> Tensor:
    """Scalar class-weighted soft cross-entropy, natural log clamped at 1e-12.

    value = mean_i ( -sum_c w_c * y_ic * ln max(s_ic, 1e-12) ); gradient
    flows into the predictions only, targets and weights are plain arrays.
    """
    targets = np.asarray(targets, dtype=np.float64)
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if s.data.shape != targets.shape or class_weights.shape != (s.data.shape[1],):
        raise ValueError(
            f"soft_ce_node shape mismatch: preds {s.data.shape}, targets {targets.shape}, "
            f"weights {class_weights.shape}"
        )
    batch = s.data.shape[0]
    clamped = np.maximum(s.data, GRAD_LOG_FLOOR)
    value = -(class_weights * targets * np.log(clamped)).sum() / batch

    def bwd(g):
        grad = np.where(s.data > GRAD_LOG_FLOOR, -class_weights * targets / clamped, 0.0)
        _accumulate(s, float(g) * grad / batch)

    return _node(np.asarray(value), (s,), bwd, "soft_ce")


# ---------------------------------------------------------------------------
# finite-difference gradient checking


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
        t.zero_grad()
    backward(run())
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
