"""AdamW optimization, the mini-batch training loop and CV orchestration.

Every run is a pure function of (dataset, fold, seed, config): one seeded
generator drives parameter init and the per-epoch shuffles, batches keep a
fixed order and the last incomplete batch is trained. Model selection keeps
the parameters of the epoch with the lowest validation JS (ties go to the
earliest epoch); those parameters produce the final test evaluation.

Runs are independent, so cross_validate can farm them out to worker
processes; results are aggregated in (fold, seed) order either way, which
keeps parallel and serial output identical.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evalreport
from .dataio import Dataset, fold_split
from .errors import NumericalAbortError
from .losses import LossConfig, amber_loss, cbce_loss, class_weights_from
from .model import ModelConfig, forward_all, init_params, predict, wrap_params

OBJECTIVES = ("amber", "cbce")

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW moment decay rates and epsilon


@dataclass
class TrainConfig:
    model: ModelConfig
    loss: LossConfig = field(default_factory=LossConfig)
    objective: str = "amber"
    lr: float = 3e-4
    weight_decay: float = 1e-2
    batch: int = 128
    epochs: int = 30
    seeds: tuple = (0, 1, 2, 3, 4)
    n_bins: int = 4

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.batch < 1 or self.epochs < 1:
            raise ValueError("batch and epochs must be >= 1")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ValueError("at least one seed is required")


@dataclass
class OptState:
    step: int
    m: dict
    v: dict


def init_opt_state(params: dict) -> OptState:
    return OptState(
        step=0,
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def opt_step(params: dict, grads: dict, state: OptState, cfg: TrainConfig):
    """One decoupled-weight-decay adaptive-moment update, in place on `params`.

    All gradients are checked before anything is touched, so a non-finite
    gradient never corrupts the parameters.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalAbortError(f"non-finite gradient in {name!r}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, g in grads.items():
        state.m[name] = BETA1 * state.m[name] + (1.0 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1.0 - BETA2) * g * g
        m_hat = state.m[name] / bias1
        v_hat = state.v[name] / bias2
        params[name] = params[name] - cfg.lr * (
            m_hat / (np.sqrt(v_hat) + EPS) + cfg.weight_decay * params[name]
        )


@dataclass
class RunRecord:
    fold: int
    seed: int
    epochs: list
    selected_epoch: int
    report: "evalreport.EvalReport"
    test_preds: np.ndarray
    test_targets: np.ndarray
    selected_params: dict


def _batch_objective(objective, y, outputs, loss_cfg, student, class_weights):
    if objective == "amber":
        total, breakdown = amber_loss(y, outputs, loss_cfg, student)
        return total, breakdown.as_log_dict()
    total = cbce_loss(y, outputs[student], class_weights)
    return total, {"cbce": float(total.data), "total": float(total.data)}


def train_one(ds: Dataset, fold: int, seed: int, cfg: TrainConfig) -> RunRecord:
    """Train on one (fold, seed) cell and evaluate the selected epoch on test."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg.model, rng)
    state = init_opt_state(params)
    train, val, test = fold_split(ds, fold)
    student = cfg.model.student

    class_weights = None
    if cfg.objective == "cbce":
        class_weights = class_weights_from(train)

    ha_tr, ht_tr, y_tr = train.matrices()
    ha_val, ht_val, y_val = val.matrices()
    ha_te, ht_te, y_te = test.matrices()

    epochs_log = []
    best_js = np.inf
    best_epoch = -1
    best_params = None

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train))
        batch_fields = []
        for start in range(0, len(order), cfg.batch):
            rows = order[start : start + cfg.batch]
            tensors = wrap_params(params)
            outputs = forward_all(
                tensors, ad.constant(ha_tr[rows]), ad.constant(ht_tr[rows]), cfg.model
            )
            for m, out in outputs.items():
                if not np.all(np.isfinite(out.data)):
                    raise NumericalAbortError(
                        f"non-finite output of head {m!r}", epoch=epoch, batch=start // cfg.batch
                    )
            total, fields = _batch_objective(
                cfg.objective, y_tr[rows], outputs, cfg.loss, student, class_weights
            )
            if not np.isfinite(total.data):
                raise NumericalAbortError(
                    "non-finite training loss", epoch=epoch, batch=start // cfg.batch
                )
            try:
                ad.backward(total)
                grads = {name: t.grad for name, t in tensors.items()}
                opt_step(params, grads, state, cfg)
            except NumericalAbortError as exc:
                raise NumericalAbortError(
                    str(exc), epoch=epoch, batch=start // cfg.batch
                ) from None
            batch_fields.append(fields)

        train_fields = {
            key: float(np.mean([b[key] for b in batch_fields]))
            for key in batch_fields[0]
        }
        val_out = predict(params, cfg.model, ha_val, ht_val)[student]
        if not np.all(np.isfinite(val_out)):
            raise NumericalAbortError("non-finite validation predictions", epoch=epoch)
        val_metrics = evalreport.dist_metrics(val_out, y_val)
        epochs_log.append(
            {"epoch": epoch, "train": train_fields, "val": val_metrics}
        )
        if val_metrics["JS"] < best_js:
            best_js = val_metrics["JS"]
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}

    test_preds = predict(best_params, cfg.model, ha_te, ht_te)[student]
    metrics = evalreport.all_metrics(test_preds, y_te)
    bins = evalreport.ambiguity_bins(test_preds, y_te, cfg.n_bins)
    report = evalreport.EvalReport(
        system=cfg.objective,
        fold=fold,
        seed=seed,
        metrics=metrics,
        bins=bins,
        provenance={"selected_epoch": best_epoch},
    )
    return RunRecord(
        fold=fold,
        seed=seed,
        epochs=epochs_log,
        selected_epoch=best_epoch,
        report=report,
        test_preds=test_preds,
        test_targets=y_te,
        selected_params=best_params,
    )


def _run_cell(args):
    return train_one(*args)


def cross_validate(ds: Dataset, cfg: TrainConfig, jobs: int = 1):
    """All (fold, seed) runs plus the aggregate mean/std per metric.

    Returns (records, aggregate); records are ordered by (fold, seed)
    regardless of how many workers executed them.
    """
    cells = [(ds, fold, seed, cfg) for fold in range(ds.fold_count) for seed in cfg.seeds]
    if jobs > 1:  # a pool may start all its workers at once, so never more than there are runs
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            records = list(pool.map(_run_cell, cells))
    else:
        records = [_run_cell(cell) for cell in cells]
    aggregate = evalreport.aggregate([r.report for r in records])
    return records, aggregate
