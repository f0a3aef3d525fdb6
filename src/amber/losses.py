"""Training objectives: dual-ambiguity loss, adaptive expert weights, CB-CE baseline.

The dual-ambiguity objective combines two terms. The rater term pulls the
student distribution toward the annotator soft labels with base-2 JS
divergence. The modality term is a reliability-weighted JS consistency loss
between the student and the expert heads, where an expert's weight grows as
its own divergence from the soft labels shrinks.

Gradient-flow policy: the reliability weights u_m are computed from detached
forward values and never carry gradient. In the default "detached" mode the
expert predictions inside the consistency term pass through stop-gradient
nodes as well (experts teach, the student learns); "coupled" mode lets the
consistency term pull experts toward the student and is kept for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import distlib
from .model import MODALITIES


@dataclass
class LossConfig:
    lambda_rai: float = 1.0
    lambda_mai: float = 0.5
    kappa: float = 4.0
    expert_supervision: str = "rai"  # "rai" | "none"
    mai_expert_grad: str = "detached"  # "detached" | "coupled"

    def __post_init__(self):
        if self.lambda_rai < 0 or self.lambda_mai < 0 or self.kappa < 0:
            raise ValueError("lambda_rai, lambda_mai and kappa must be non-negative")
        if self.expert_supervision not in ("rai", "none"):
            raise ValueError(f"expert_supervision must be 'rai' or 'none', got {self.expert_supervision!r}")
        if self.mai_expert_grad not in ("detached", "coupled"):
            raise ValueError(f"mai_expert_grad must be 'detached' or 'coupled', got {self.mai_expert_grad!r}")


@dataclass
class LossBreakdown:
    """Per-batch forward values of every objective component."""

    rai: float = 0.0
    mai: float = 0.0
    total: float = 0.0
    u: dict = field(default_factory=dict)
    d: dict = field(default_factory=dict)
    expert_rai: dict = field(default_factory=dict)

    def as_log_dict(self):
        out = {"rai": self.rai, "mai": self.mai, "total": self.total}
        for m, v in self.u.items():
            out[f"u_{m}"] = v
        for m, v in self.d.items():
            out[f"d_{m}"] = v
        for m, v in self.expert_rai.items():
            out[f"expert_rai_{m}"] = v
        return out


def rai_loss(y: np.ndarray, s: ad.Tensor) -> ad.Tensor:
    """Batch-mean JS divergence between soft labels and the student rows.

    The labels are constants; gradient flows into the student only.
    """
    y = np.asarray(y, dtype=np.float64)
    return ad.js_loss_node(ad.constant(y), s)


def expert_weights(d: dict, kappa: float) -> dict:
    """Softmax of -kappa * divergence over the expert set.

    Computed on plain floats (detached values); closer-to-label experts get
    larger weights, kappa sharpens the contrast, kappa = 0 is uniform.
    """
    if not d:
        raise ValueError("expert_weights needs at least one expert")
    names = list(d)
    values = np.asarray([float(d[m]) for m in names], dtype=np.float64)
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise ValueError("expert divergences must be finite and non-negative")
    scores = -float(kappa) * values
    scores -= scores.max()
    e = np.exp(scores)
    w = e / e.sum()
    return {m: float(w[i]) for i, m in enumerate(names)}


def mai_loss(s: ad.Tensor, experts: dict, y: np.ndarray, cfg: LossConfig):
    """Reliability-weighted consistency between the student and each expert.

    Returns (scalar node, weights u, divergences d). d_m is the batch-mean
    JS between expert m and the soft labels, computed on detached values;
    the loss is sum_m u_m * mean JS(s || p_m).
    """
    if not experts:
        raise ValueError("mai_loss needs a non-empty expert set")
    y = np.asarray(y, dtype=np.float64)
    detach = cfg.mai_expert_grad == "detached"
    d = {m: float(distlib.js_divergence_rows(p.data, y).mean()) for m, p in experts.items()}
    u = expert_weights(d, cfg.kappa)
    node = None
    for m, p in experts.items():
        term = ad.scalar_mul(u[m], ad.js_loss_node(s, ad.stop_grad(p) if detach else p))
        node = term if node is None else ad.add(node, term)
    return node, u, d


def amber_loss(y: np.ndarray, outputs: dict, cfg: LossConfig, student: str):
    """Full dual-ambiguity objective for one batch.

    total = lambda_rai * rai + lambda_mai * mai, plus a unit-weight JS pull
    of each expert toward the labels when expert_supervision = "rai" (the
    expert divergences are only informative if something trains the experts).
    A zero lambda_mai leaves the consistency term out of the total (its value
    is still logged), so the gradients reduce exactly to the rater term.
    """
    if student not in MODALITIES:
        raise ValueError(f"unknown student {student!r}")
    if set(outputs) != set(MODALITIES):
        raise ValueError(f"outputs must cover {MODALITIES}, got {sorted(outputs)}")
    y = np.asarray(y, dtype=np.float64)
    s = outputs[student]
    experts = {m: outputs[m] for m in MODALITIES if m != student}

    breakdown = LossBreakdown()
    rai_node = rai_loss(y, s)
    breakdown.rai = float(rai_node.data)
    total = ad.scalar_mul(cfg.lambda_rai, rai_node)

    mai_node, breakdown.u, breakdown.d = mai_loss(s, experts, y, cfg)
    breakdown.mai = float(mai_node.data)
    if cfg.lambda_mai > 0:
        total = ad.add(total, ad.scalar_mul(cfg.lambda_mai, mai_node))

    if cfg.expert_supervision == "rai":
        for m, p in experts.items():
            node = rai_loss(y, p)
            breakdown.expert_rai[m] = float(node.data)
            total = ad.add(total, node)

    breakdown.total = float(total.data)
    return total, breakdown


def cbce_loss(y: np.ndarray, s: ad.Tensor, class_weights: np.ndarray) -> ad.Tensor:
    """Class-balanced soft cross-entropy of the student against soft labels."""
    class_weights = np.asarray(class_weights, dtype=np.float64)
    if np.any(class_weights < 0):
        raise ValueError("class weights must be non-negative")
    return ad.soft_ce_node(s, np.asarray(y, dtype=np.float64), class_weights)


def class_weights_from(train) -> np.ndarray:
    """Inverse-frequency class weights from a training split, mean-normalized.

    freq_c is the share of total soft-label mass on class c; weights are
    1 / max(freq_c, 1e-6) scaled so their mean is one. Accepts a Dataset or
    a plain (n, C) matrix of soft labels.
    """
    y = np.asarray(getattr(train, "y", train), dtype=np.float64)
    if y.ndim != 2 or y.shape[0] == 0:
        raise ValueError("class weights need a non-empty (n, C) label matrix")
    freq = y.sum(axis=0) / y.sum()
    w = 1.0 / np.maximum(freq, 1e-6)
    return w / w.mean()
