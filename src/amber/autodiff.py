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
construction, and an interior node `grad = None`. `backward` resets every
node it reaches to `None`; a node it does not reach keeps what it held, the
zero buffer or the gradient of an earlier root that reached it. The first
accumulation assigns the incoming array (so nodes may share one) and later
ones add out of place. Once an interior node's closure has routed its
gradient on to its parents, `backward` drops that node's `grad` again, so
only the leaves keep theirs and an interior gradient lives no longer than
the step that consumes it. `stop_grad` is the one way to detach.

Fused nodes: `linear` is `add(matmul(x, w), b)`, `linear_relu` is `relu` of
it, and `gated_fusion` is the whole gated fusion of two inputs, each as one
node that gives the same bytes as the composite, forward and backward, in
fewer arrays. A graph node keeps only the arrays its backward reads:
`linear_relu` keeps its output and not the pre-activation, and
`gated_fusion` keeps its gate and output and recomputes the rest in
backward from inputs that take no gradient.

Gradient formulas clamp logarithm arguments at `GRAD_LOG_FLOOR`; forward
values never clamp (the metric path must see exact zeros).
"""

from __future__ import annotations

import numpy as np

from . import distlib

GRAD_LOG_FLOOR = 1e-12
_LOG2 = np.log(2.0)


class Tensor:
    """A node of the computation graph.

    A leaf created with `requires_grad=True` gets a zero gradient buffer
    up front; an interior node (built by `_node`) starts with `grad = None`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    """A tensor that never receives gradient (e.g. targets, frozen weights)."""
    return Tensor(data, requires_grad=False)


def _accumulate(t: Tensor, g: np.ndarray):
    t.grad = g if t.grad is None else t.grad + g


def _node(data, parents, backward) -> Tensor:
    out = Tensor(data)
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
    from the root is reset to `grad = None` first, so it holds the gradient
    of this root alone; a node the root does not reach keeps what it held
    before the call. An interior node's `grad` is released (set back to
    `None`) as soon as its closure has passed it on; the leaves keep theirs.
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

    return _node(a.data @ b.data, (a, b), bwd)


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

    return _node(a.data + b.data, (a, b), bwd)


def _affine(x: Tensor, w: Tensor, b: Tensor) -> np.ndarray:
    """`x @ w + b` as a fresh array, the bias added in place into the product."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear bias shape {b.data.shape} does not fit {w.data.shape}")
    y = x.data @ w.data
    y += b.data
    return y


def _affine_bwd(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray):
    """Route the gradient `g` of `x @ w + b` to its operands."""
    if x.requires_grad:
        _accumulate(x, g @ w.data.T)
    if w.requires_grad:
        _accumulate(w, x.data.T @ g)
    if b.requires_grad:
        _accumulate(b, g.sum(axis=0))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`x @ w + b` with a 1-D bias `b`: the bytes of `add(matmul(x, w), b)` in one node."""
    return _node(_affine(x, w, b), (x, w, b), lambda g: _affine_bwd(x, w, b, g))


# The activations' math, shared by the standalone ops and the fused nodes.
# Each forward writes its result into `out` (a fresh array when None, or its
# own input when that is an array the caller just made); each backward reads
# only the activated output `y`.


def _relu_values(x: np.ndarray, out=None) -> np.ndarray:
    # fmax maps NaN to 0 like the select `x if x > 0 else 0`; `+= 0.0` turns -0.0 into +0.0
    y = np.fmax(x, 0.0, out=out)
    y += 0.0
    return y


def _relu_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    # y > 0 exactly where x > 0: fmax gives +0.0 for NaN, -0.0 and every x <= 0
    return g * (y > 0)


def _sigmoid_values(x: np.ndarray, out=None) -> np.ndarray:
    """Overflow-safe 1 / (1 + e^-x), bit-equal to the piecewise form.

    With z = e^-|x| (never overflows) and p = [x >= 0], the result is
    1 / (1 + z) where p = 1 and z / (1 + z) where p = 0; `p + (1 - p) * z`
    picks the numerator exactly. min(x, -x) is -|x| but keeps a NaN's sign.
    `x` is read only before `out` is first written.
    """
    z = np.negative(x)
    np.minimum(x, z, out=z)
    np.exp(z, out=z)
    p = (x >= 0).astype(np.float64)
    y = np.subtract(1.0, p, out=out)
    y *= z
    y += p
    z += 1.0
    y /= z
    return y


def _sigmoid_grad(g: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    dx = np.multiply(g, y, out=out)
    dx *= 1.0 - y
    return dx


def relu(x: Tensor) -> Tensor:
    y = _relu_values(x.data)
    return _node(y, (x,), lambda g: _accumulate(x, _relu_grad(g, y)))


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function; see `_sigmoid_values` for the overflow-safe form."""
    y = _sigmoid_values(x.data)
    return _node(y, (x,), lambda g: _accumulate(x, _sigmoid_grad(g, y)))


def linear_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """`relu(linear(x, w, b))` in one node that keeps only its output.

    The pre-activation is overwritten by the activation, so the graph holds
    one array where the composite holds two; backward takes relu's mask from
    the output. Forward and backward give the composite's bytes.
    """
    z = _affine(x, w, b)
    y = _relu_values(z, out=z)
    return _node(y, (x, w, b), lambda g: _affine_bwd(x, w, b, _relu_grad(g, y)))


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

    return _node(y, (x,), bwd)


def gated_fusion(h_a: Tensor, h_t: Tensor, gate_w: Tensor, gate_b: Tensor,
                 proj_a: Tensor, proj_t: Tensor) -> Tensor:
    """`g * (h_a @ proj_a) + (1 - g) * (h_t @ proj_t)` with `g = sigmoid([h_a | h_t] @ gate_w + gate_b)`,
    in one node that keeps only `g` and its output.

    The inputs `h_a`, `h_t` take no gradient (`ValueError` if one requires it), so backward
    recomputes `[h_a | h_t]` and both projections from them, finishing each parameter's gradient
    before the next. Bit-equal, forward and backward, to the composite of `matmul`, `add`,
    `sigmoid`, `scalar_mul` and the oracles `concat` and `elementwise_mul` in `tests/helpers.py`:
    the same float operations on the same operands in the same order, with
    d/dg = -1 * (up * (h_t @ proj_t)) + up * (h_a @ proj_a) summed as the composite sums it.
    """
    if h_a.requires_grad or h_t.requires_grad:
        raise ValueError("gated_fusion inputs take no gradient")
    if h_a.data.ndim == h_t.data.ndim == 2 and len(h_a.data) != len(h_t.data):  # other shapes fail below
        raise ValueError(f"batch sizes differ: {len(h_a.data)} vs {len(h_t.data)}")
    g = _affine(constant(np.concatenate([h_a.data, h_t.data], axis=1)), gate_w, gate_b)
    _sigmoid_values(g, out=g)
    width = g.shape[1]
    if proj_a.data.shape != (h_a.data.shape[1], width) or proj_t.data.shape != (h_t.data.shape[1], width):
        raise ValueError(f"gated_fusion projections {proj_a.data.shape}, {proj_t.data.shape} do not fit "
                         f"inputs {h_a.data.shape}, {h_t.data.shape} and gate width {width}")
    y = np.multiply(g, h_a.data @ proj_a.data)  # `g * (... @ ...)` may swap the operands of a temporary
    rest = 1.0 - g
    rest *= h_t.data @ proj_t.data
    y += rest

    def bwd(up):
        if proj_t.requires_grad:
            _accumulate(proj_t, h_t.data.T @ np.multiply(up, 1.0 - g))
        if proj_a.requires_grad:
            _accumulate(proj_a, h_a.data.T @ (up * g))
        if gate_w.requires_grad or gate_b.requires_grad:
            dg = h_t.data @ proj_t.data
            np.multiply(up, dg, out=dg)
            np.multiply(-1.0, dg, out=dg)
            d = h_a.data @ proj_a.data
            dg += np.multiply(up, d, out=d)
            del d
            cat = constant(np.concatenate([h_a.data, h_t.data], axis=1))
            _affine_bwd(cat, gate_w, gate_b, _sigmoid_grad(dg, g, out=dg))

    return _node(y, (h_a, h_t, gate_w, gate_b, proj_a, proj_t), bwd)


def scalar_mul(c: float, x: Tensor) -> Tensor:
    c = float(c)

    def bwd(g):
        _accumulate(x, c * g)

    return _node(c * x.data, (x,), bwd)


def stop_grad(x: Tensor) -> Tensor:
    """Graph node that passes the value through and blocks all gradient."""
    return Tensor(x.data, requires_grad=False)


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

    return _node(np.asarray(value), (p, q), bwd)


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

    return _node(np.asarray(value), (s,), bwd)

