"""Per-op microbenchmarks of the autodiff engine at the shapes training uses.

Each op is timed as a forward node construction (which includes building
its backward closure); `backward` replays the full model + loss graph of
that shape. `raw_matmul` is plain numpy `a @ b` on the first-layer operands,
so the share of a node's cost spent outside the matmul shows.
"""

from __future__ import annotations

import statistics
import time

# name -> (batch, input dim, hidden/fusion width, classes, objective)
SHAPES = {
    "b128": (128, 16, 256, 4, "amber"),  # cv-amber-b128
    "b512": (512, 64, 256, 8, "cbce"),  # wide inputs, BLAS-heavy
}
OPS = ("matmul", "add", "relu", "sigmoid", "softmax", "js_loss_node", "soft_ce_node",
       "backward", "raw_matmul")


def per_call_us(fn, min_time, repeats):
    """Median over `repeats` batches of the mean time of one call, in µs."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time:
            break
        n *= 2
    samples = [elapsed / n]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def shape_ops(batch, dim, width, classes, objective):
    """Callables for every op in OPS, on seeded operands of the given shape."""
    import numpy as np
    from amber import autodiff as ad
    from amber.losses import LossConfig, amber_loss, cbce_loss, class_weights_from
    from amber.model import ModelConfig, forward_all, init_params, wrap_params

    rng = np.random.default_rng(0)
    x = ad.constant(rng.standard_normal((batch, dim)))
    w = ad.Tensor(rng.standard_normal((dim, width)) / np.sqrt(dim), requires_grad=True)
    h = ad.Tensor(rng.standard_normal((batch, width)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(width), requires_grad=True)
    logits = ad.Tensor(rng.standard_normal((batch, classes)), requires_grad=True)
    s = ad.softmax(logits)
    y = rng.dirichlet(np.ones(classes), size=batch)
    y_const = ad.constant(y)
    weights = class_weights_from(y)

    cfg = ModelConfig(dim, dim, classes, hidden=width, fusion_dim=width)
    tensors = wrap_params(init_params(cfg, rng))
    outputs = forward_all(tensors, ad.constant(rng.standard_normal((batch, dim))),
                          ad.constant(rng.standard_normal((batch, dim))), cfg)
    if objective == "amber":
        total, _ = amber_loss(y, outputs, LossConfig(), cfg.student)
    else:
        total = cbce_loss(y, outputs[cfg.student], weights)

    return {
        "matmul": lambda: ad.matmul(x, w),
        "add": lambda: ad.add(h, b),
        "relu": lambda: ad.relu(h),
        "sigmoid": lambda: ad.sigmoid(h),
        "softmax": lambda: ad.softmax(logits),
        "js_loss_node": lambda: ad.js_loss_node(y_const, s),
        "soft_ce_node": lambda: ad.soft_ce_node(s, y, weights),
        "backward": lambda: ad.backward(total),
        "raw_matmul": lambda: x.data @ w.data,
    }


def op_metrics(min_time=0.02, repeats=5):
    """{"autodiff.op.<op>.<shape>.us": (value, "us")} for every op and shape."""
    out = {}
    for shape, spec in SHAPES.items():
        for op, fn in shape_ops(*spec).items():
            out[f"autodiff.op.{op}.{shape}.us"] = (per_call_us(fn, min_time, repeats), "us")
    return out
