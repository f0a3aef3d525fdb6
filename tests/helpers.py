"""Shared fixtures for gradient checks on the full training objective.

The adaptive expert weights and (in detached mode) the expert branch of the
consistency term are non-differentiable by design: they enter the graph as
detached values. A finite-difference sweep differentiates the *actual*
function, so the oracle must hold those pieces fixed. We therefore rebuild
the objective with the weights and detached predictions frozen at the
evaluation point, assert its gradients match the production graph bitwise,
and finite-difference the frozen reconstruction.
"""

import tracemalloc

import numpy as np

from amber import autodiff as ad
from amber.losses import LossConfig, amber_loss
from amber.model import ModelConfig, forward_all, init_params, wrap_params


RELU_KINK_MARGIN = 1e-2


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
    total, breakdown = amber_loss(y, outputs, loss_cfg, cfg.student)
    ad.backward(total)
    grads = {k: t.grad.copy() for k, t in tensors.items()}
    p_star = {m: outputs[m].data.copy() for m in cfg.experts}
    return float(total.data), grads, breakdown, p_star


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
            for m in cfg.experts:
                q = ad.constant(p_star[m]) if detached else outputs[m]
                term = ad.scalar_mul(u_star[m], ad.js_loss_node(s, q))
                mai = term if mai is None else ad.add(mai, term)
            total = ad.add(total, ad.scalar_mul(loss_cfg.lambda_mai, mai))
        if loss_cfg.expert_supervision == "rai":
            y_const = ad.constant(y)
            for m in cfg.experts:
                total = ad.add(total, ad.js_loss_node(y_const, outputs[m]))
        return total

    return f


def full_amber_grad_check(seed, loss_cfg=None, h=1e-4, tol=1e-4):
    """(bitwise_match, GradCheckResult) for one random micro-model."""
    loss_cfg = loss_cfg or LossConfig()
    cfg, params, h_a, h_t, y = micro_model(seed)
    _, prod_grads, breakdown, p_star = production_amber_grads(cfg, params, h_a, h_t, y, loss_cfg)

    names = list(params)
    inputs = [ad.Tensor(params[k], requires_grad=True) for k in names]
    f = frozen_amber_fn(cfg, names, h_a, h_t, y, loss_cfg, breakdown.u, p_star)
    out = f(*inputs)
    ad.backward(out)
    bitwise = all(np.array_equal(prod_grads[k], t.grad) for k, t in zip(names, inputs))
    for t in inputs:
        t.zero_grad()
    result = ad.grad_check(f, inputs, h=h, tol=tol)
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
