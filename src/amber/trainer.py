"""AdamW optimization, the mini-batch training loop and CV orchestration.

Every run is a pure function of (dataset, fold, seed, config): one seeded
generator drives parameter init and the per-epoch shuffles, batches keep a
fixed order and the last incomplete batch is trained. Model selection keeps
the parameters of the epoch with the lowest validation JS (ties go to the
earliest epoch); `evaluate` scores them on test, as it scores `amber eval`'s split.

Runs are independent, so cross_validate can farm them out to worker
processes; records reach the sink in (fold, seed) order either way,
which keeps parallel and serial output identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evalreport
from .dataio import Dataset, fold_split
from .errors import NumericalAbortError, WorkerDiedError
from .losses import LossConfig, amber_loss, cbce_loss, class_weights_from
from .model import MODALITIES, QUIET_OVERFLOW, ModelConfig, forward_all, init_params, predict, wrap_params

OBJECTIVES = ("amber", "cbce")

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # AdamW moment decay rates and epsilon
MAX_SEEDS = 10_000  # every seed is one run per fold; cross_validate builds the run list up front


@dataclass
class TrainConfig:
    model: ModelConfig
    loss: LossConfig = field(default_factory=LossConfig)
    objective: str = "amber"
    lr: float = 3e-4
    weight_decay: float = 1e-2
    batch: int = 128
    epochs: int = 30
    seeds: int = 5  # runs seeds 0..seeds-1 on every fold
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
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if not 1 <= self.seeds <= MAX_SEEDS:
            raise ValueError(f"seeds must lie in [1, {MAX_SEEDS}]")


@dataclass
class OptState:
    """AdamW step count and moments, each moment one flat float64 vector over
    the parameters in `params` order."""

    step: int
    m: np.ndarray
    v: np.ndarray


def init_opt_state(params: dict) -> OptState:
    size = sum(p.size for p in params.values())
    return OptState(step=0, m=np.zeros(size), v=np.zeros(size))


def opt_step(params: dict, grads: dict, state: OptState, cfg: TrainConfig):
    """One decoupled-weight-decay adaptive-moment update of `params`.

    All gradients are checked before anything is touched, so a non-finite
    gradient never corrupts the parameters; an overflow in a moment or the update
    (an inf second moment would make every later update 0) raises
    `NumericalAbortError` before they are replaced. The moments are updated in
    place; gradients and the old parameter arrays are never written (the
    previous step's graph and the best-epoch snapshot may hold them). The new
    parameters are one fresh flat vector, and `params[name]` become reshaped
    views of it. Each element goes through the same operations, in the same
    order, as the per-parameter formula in the comments below.
    """
    g = np.concatenate([np.ravel(grads[name]) for name in params])
    if not np.isfinite(g).all():
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise NumericalAbortError(f"non-finite gradient in {bad!r}")
    state.step += 1
    t = state.step
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    m, v = state.m, state.v
    try:
        with np.errstate(over="raise"):
            # m = BETA1 * m + (1 - BETA1) * g
            m *= BETA1
            tmp = np.multiply(g, 1.0 - BETA1)
            m += tmp
            # v = BETA2 * v + (1 - BETA2) * g * g
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=tmp)
            tmp *= g
            v += tmp
            # update = (m / bias1) / (sqrt(v / bias2) + EPS) + weight_decay * theta
            np.divide(v, bias2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += EPS
            update = np.divide(m, bias1, out=g)
            update /= tmp
            # a fresh copy, so writing it leaves the old parameter arrays as they were
            theta = np.concatenate([np.ravel(params[name]) for name in params])
            np.multiply(theta, cfg.weight_decay, out=tmp)
            update += tmp
            # theta = theta - lr * update
            update *= cfg.lr
            theta -= update
    except FloatingPointError:
        raise NumericalAbortError("overflow in the AdamW step") from None
    offset = 0
    for name, old in params.items():
        params[name] = theta[offset : offset + old.size].reshape(old.shape)
        offset += old.size


@dataclass
class RunRecord:
    """One run's epoch log, test report (fold, seed, selected epoch) and selected parameters."""

    epochs: list
    report: "evalreport.EvalReport"
    selected_params: dict


def _train_step(params, state, cfg, h_a, h_t, y, class_weights):
    """Forward, loss, backward and `opt_step` on one batch; the loss fields.

    The forward builds only the heads the objective reads: all three for
    amber, the student alone for cbce, so a head cbce does not train is not
    run and cannot abort the step. A parameter `backward` does not reach (a
    head the objective does not train) steps with a zero gradient. The
    batch's graph lives only in this call's locals, so it is freed on return,
    before the next batch's forward starts.
    """
    tensors = wrap_params(params)
    heads = MODALITIES if cfg.objective == "amber" else (cfg.model.student,)
    with np.errstate(**QUIET_OVERFLOW):
        outputs = forward_all(tensors, ad.constant(h_a), ad.constant(h_t), cfg.model, heads)
        if cfg.objective == "amber":
            total, fields = amber_loss(y, outputs, cfg.loss, cfg.model.student)
        else:
            total = cbce_loss(y, outputs[cfg.model.student], class_weights)
            fields = {"cbce": float(total.data), "total": float(total.data)}
        if not np.isfinite(total.data):
            raise NumericalAbortError("non-finite training loss")
        ad.backward(total)
    opt_step(params, {name: np.zeros_like(t.data) if t.grad is None else t.grad
                      for name, t in tensors.items()}, state, cfg)
    return fields


def train_one(ds: Dataset, fold: int, seed: int, cfg: TrainConfig) -> RunRecord:
    """Train on one (fold, seed) cell and evaluate the selected epoch on test."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg.model, rng)
    state = init_opt_state(params)
    train, val, test = fold_split(ds, fold)

    class_weights = class_weights_from(train.y) if cfg.objective == "cbce" else None

    ha_tr, ht_tr, y_tr = train.matrices()
    ha_val, ht_val, y_val = val.matrices()

    epochs_log = []
    best_js = np.inf
    best_epoch = -1
    best_params = None

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train))
        batch_fields = []
        for start in range(0, len(order), cfg.batch):
            rows = order[start : start + cfg.batch]
            try:
                fields = _train_step(
                    params, state, cfg, ha_tr[rows], ht_tr[rows], y_tr[rows], class_weights
                )
            except NumericalAbortError as exc:
                raise NumericalAbortError(
                    str(exc), epoch=epoch, batch=start // cfg.batch
                ) from None
            batch_fields.append(fields)

        train_fields = {
            key: float(np.mean([b[key] for b in batch_fields]))
            for key in batch_fields[0]
        }
        try:
            val_out = predict(params, cfg.model, ha_val, ht_val)[cfg.model.student]
        except NumericalAbortError as exc:
            raise NumericalAbortError(f"validation: {exc}", epoch=epoch) from None
        val_metrics = evalreport.dist_metrics(val_out, y_val)
        epochs_log.append(
            {"epoch": epoch, "train": train_fields, "val": val_metrics}
        )
        if val_metrics["JS"] < best_js:
            best_js = val_metrics["JS"]
            best_epoch = epoch
            best_params = dict(params)  # opt_step replaces these arrays, never writes them

    report = evaluate(best_params, cfg.model, test, cfg.n_bins, system=cfg.objective, fold=fold, seed=seed,
                      provenance={"selected_epoch": best_epoch})
    return RunRecord(epochs=epochs_log, report=report, selected_params=best_params)


def evaluate(params: dict, model_cfg: ModelConfig, split: Dataset, n_bins: int, **labels) -> "evalreport.EvalReport":
    """`split`'s report: the student's metrics and `n_bins` ambiguity bins, under `labels` as given
    (system, fold, seed, provenance)."""
    h_a, h_t, y = split.matrices()
    preds = predict(params, model_cfg, h_a, h_t)[model_cfg.student]
    return evalreport.EvalReport(metrics=evalreport.all_metrics(preds, y),
                                 bins=evalreport.ambiguity_bins(preds, y, n_bins), **labels)


def cross_validate(ds: Dataset, cfg: TrainConfig, sink, jobs: int = 1) -> None:
    """Train every (fold, seed) run and call `sink(record)` in (fold, seed) order,
    whatever the worker count, as soon as that run and every earlier one are done.

    A worker process that dies mid-run raises `WorkerDiedError`.
    """
    cells = [(ds, fold, seed, cfg) for fold in range(ds.fold_count) for seed in range(cfg.seeds)]
    if jobs <= 1:
        for record in map(train_one, *zip(*cells)):
            sink(record)
        return
    import concurrent.futures  # with its logging import, about 7 ms that --jobs 1 never needs

    # a pool may start all its workers at once, so never more than there are runs
    try:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            for record in pool.map(train_one, *zip(*cells)):
                sink(record)
    except concurrent.futures.BrokenExecutor as exc:  # a worker was killed or exited
        raise WorkerDiedError(str(exc)) from None
