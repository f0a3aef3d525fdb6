"""Training objectives: dual-ambiguity loss, adaptive expert weights, CB-CE baseline.

The dual-ambiguity objective combines two terms. The rater term pulls the
student distribution toward the annotator soft labels with base-2 JS
divergence. The modality term is a reliability-weighted JS consistency loss
between the student and the expert heads, where an expert's weight grows as
its own divergence from the soft labels shrinks. `amber_loss` builds the whole
objective in one pass: one JS node per head against the labels gives the rater
term, those divergences and the expert supervision. `cbce_loss` is the
baseline's objective, a `soft_ce_node`, which checks its inputs.

Gradient-flow policy: the reliability weights u_m are computed from detached
forward values and never carry gradient. In the default "detached" mode the
expert predictions enter the consistency term as constants as well (experts
teach, the student learns); "coupled" mode lets the consistency term pull
experts toward the student and is kept for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .model import MODALITIES


EXPERT_SUPERVISION = ("rai", "none")
MAI_EXPERT_GRAD = ("detached", "coupled")


@dataclass
class LossConfig:
    lambda_rai: float = 1.0
    lambda_mai: float = 0.5
    kappa: float = 4.0
    expert_supervision: str = "rai"  # one of EXPERT_SUPERVISION
    mai_expert_grad: str = "detached"  # one of MAI_EXPERT_GRAD

    def __post_init__(self):
        if self.lambda_rai < 0 or self.lambda_mai < 0 or self.kappa < 0:
            raise ValueError("lambda_rai, lambda_mai and kappa must be non-negative")
        if self.expert_supervision not in EXPERT_SUPERVISION:
            raise ValueError(f"expert_supervision must be 'rai' or 'none', got {self.expert_supervision!r}")
        if self.mai_expert_grad not in MAI_EXPERT_GRAD:
            raise ValueError(f"mai_expert_grad must be 'detached' or 'coupled', got {self.mai_expert_grad!r}")


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


def amber_loss(y: np.ndarray, outputs: dict, cfg: LossConfig, student: str):
    """Full dual-ambiguity objective for one batch: (loss node, train-log fields).

    total = lambda_rai * rai + lambda_mai * mai, plus a unit-weight JS pull
    of each expert toward the labels when expert_supervision = "rai" (the
    expert divergences are only informative if something trains the experts).
    Each head gets one `ad.js_loss_node` against the constant labels: the
    student's is rai, an expert's gives its divergence d_m and its pull. The
    consistency term is mai = sum_m u_m * mean JS(s || p_m), u = expert_weights(d, kappa).
    A zero lambda_mai leaves the consistency term out of the total (its value
    is still logged), so the gradients reduce exactly to the rater term.
    The fields are the forward values `rai`, `mai`, `total`, each expert's `u_<m>`
    and `d_<m>`, then its supervision term `expert_rai_<m>` (= `d_<m>`) if any.
    """
    if student not in MODALITIES:
        raise ValueError(f"unknown student {student!r}")
    if set(outputs) != set(MODALITIES):
        raise ValueError(f"outputs must cover {MODALITIES}, got {sorted(outputs)}")
    s = outputs[student]
    experts = {m: outputs[m] for m in MODALITIES if m != student}
    rai = {m: ad.js_loss_node(ad.constant(y), outputs[m]) for m in (student, *experts)}
    total = ad.scalar_mul(cfg.lambda_rai, rai[student])

    d = {m: float(rai[m].data) for m in experts}
    u = expert_weights(d, cfg.kappa)
    detach = cfg.mai_expert_grad == "detached"
    mai = None
    for m, p in experts.items():
        term = ad.scalar_mul(u[m], ad.js_loss_node(s, ad.constant(p.data) if detach else p))
        mai = term if mai is None else ad.add(mai, term)
    if cfg.lambda_mai > 0:
        total = ad.add(total, ad.scalar_mul(cfg.lambda_mai, mai))
    supervised = experts if cfg.expert_supervision == "rai" else ()
    for m in supervised:
        total = ad.add(total, rai[m])

    fields = {"rai": float(rai[student].data), "mai": float(mai.data), "total": float(total.data),
              **{f"u_{m}": w for m, w in u.items()}, **{f"d_{m}": v for m, v in d.items()},
              **{f"expert_rai_{m}": d[m] for m in supervised}}
    return total, fields


def cbce_loss(y: np.ndarray, s: ad.Tensor, class_weights: np.ndarray) -> ad.Tensor:
    """Class-balanced soft cross-entropy of the student against soft labels."""
    return ad.soft_ce_node(s, y, class_weights)


def class_weights_from(y) -> np.ndarray:
    """Inverse-frequency class weights from a training split's (n, C) soft labels, mean-normalized.

    freq_c is the share of total soft-label mass on class c; weights are
    1 / max(freq_c, 1e-6) scaled so their mean is one.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] == 0:
        raise ValueError("class weights need a non-empty (n, C) label matrix")
    freq = y.sum(axis=0) / y.sum()
    w = 1.0 / np.maximum(freq, 1e-6)
    return w / w.mean()
