import concurrent.futures

import numpy as np
import pytest

from amber import autodiff as ad
from amber import losses as losses_mod
from amber import trainer as trainer_mod
from amber.dataio import SynthConfig, generate_synthetic
from amber.errors import NumericalAbortError
from amber.losses import LossConfig, rai_loss
from amber.model import ModelConfig
from amber.trainer import TrainConfig, cross_validate, init_opt_state, opt_step, train_one

from helpers import traced_peak_bytes


def _model_cfg(hidden=16):
    return ModelConfig(dim_a=6, dim_t=6, n_classes=4, hidden=hidden, fusion_dim=hidden)


def _dataset(**overrides):
    cfg = dict(n_samples=250, n_classes=4, dim_a=6, dim_t=6, n_raters=10,
               ambiguity_alpha=0.7, conflict_rate=0.3, noise_sigma=0.5, seed=13)
    cfg.update(overrides)
    return generate_synthetic(SynthConfig(**cfg))


def test_opt_step_zero_gradient_is_fixed_point():
    cfg = TrainConfig(model=_model_cfg(), weight_decay=0.0)
    params = {"x": np.asarray([1.0, -2.0])}
    state = init_opt_state(params)
    opt_step(params, {"x": np.zeros(2)}, state, cfg)
    assert np.array_equal(params["x"], [1.0, -2.0])


def test_opt_step_single_scalar_first_update():
    # theta=1, g=1, lr=0.1: bias-corrected ratio is 1/(1 + 1e-8)
    cfg = TrainConfig(model=_model_cfg(), lr=0.1, weight_decay=0.0)
    params = {"x": np.asarray([1.0])}
    state = init_opt_state(params)
    opt_step(params, {"x": np.asarray([1.0])}, state, cfg)
    assert abs(params["x"][0] - 0.9) < 1e-7
    assert abs(params["x"][0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-15


def test_opt_step_decoupled_decay_shrinks_without_gradient():
    cfg = TrainConfig(model=_model_cfg(), lr=0.1, weight_decay=0.5)
    params = {"x": np.asarray([2.0])}
    state = init_opt_state(params)
    opt_step(params, {"x": np.zeros(1)}, state, cfg)
    assert abs(params["x"][0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-15
    opt_step(params, {"x": np.zeros(1)}, state, cfg)
    assert abs(params["x"][0] - 2.0 * (1 - 0.1 * 0.5) ** 2) < 1e-15


def test_opt_step_rejects_non_finite_gradient_before_any_update():
    cfg = TrainConfig(model=_model_cfg())
    params = {"a": np.asarray([1.0]), "b": np.asarray([2.0]), "c": np.asarray([3.0])}
    state = init_opt_state(params)
    grads = {"a": np.asarray([0.5]), "b": np.asarray([np.nan]), "c": np.asarray([np.inf])}
    with pytest.raises(NumericalAbortError, match="'b'"):  # the first non-finite one
        opt_step(params, grads, state, cfg)
    # nothing was touched, not even the finite-gradient parameter
    assert params["a"][0] == 1.0 and params["b"][0] == 2.0
    assert state.step == 0
    assert not state.m.any() and not state.v.any()


def test_opt_step_converges_on_convex_quadratic():
    cfg = TrainConfig(model=_model_cfg(), lr=0.05, weight_decay=0.0)
    target = np.asarray([1.7, -0.4, 3.14])
    params = {"x": np.zeros(3)}
    state = init_opt_state(params)
    for step in range(1, 5001):
        opt_step(params, {"x": params["x"] - target}, state, cfg)
        if np.max(np.abs(params["x"] - target)) < 1e-6:
            break
    assert np.max(np.abs(params["x"] - target)) < 1e-6
    assert step <= 5000


def _adamw_oracle(params, grads, m, v, step, cfg):
    """The per-parameter AdamW update `opt_step` must reproduce bit for bit."""
    b1, b2, eps = trainer_mod.BETA1, trainer_mod.BETA2, trainer_mod.EPS
    bias1, bias2 = 1.0 - b1**step, 1.0 - b2**step
    for name, g in grads.items():
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        m_hat = m[name] / bias1
        v_hat = v[name] / bias2
        params[name] = params[name] - cfg.lr * (
            m_hat / (np.sqrt(v_hat) + eps) + cfg.weight_decay * params[name]
        )


def test_opt_step_is_byte_equal_to_per_parameter_adamw():
    rng = np.random.default_rng(21)
    cfg = TrainConfig(model=_model_cfg(), lr=3e-2, weight_decay=1e-2)
    shapes = {"w": (7, 5), "b": (5,), "s": (), "col": (6, 1), "big": (40, 33)}
    params = {k: rng.standard_normal(s) for k, s in shapes.items()}
    want = {k: p.copy() for k, p in params.items()}
    want_m = {k: np.zeros(s) for k, s in shapes.items()}
    want_v = {k: np.zeros(s) for k, s in shapes.items()}
    state = init_opt_state(params)
    for step in range(1, 6):
        grads = {k: np.asarray(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3))
                 for k, s in shapes.items()}
        grads["w"][0, 0] = 0.0
        grads["big"][:, 3] = 5e-324
        for g in grads.values():
            g.setflags(write=False)
        before = {k: (p, p.copy()) for k, p in params.items()}
        opt_step(params, grads, state, cfg)
        _adamw_oracle(want, grads, want_m, want_v, step, cfg)
        for k in shapes:
            assert params[k].shape == shapes[k]
            assert params[k].tobytes() == want[k].tobytes()
            old, snapshot = before[k]
            assert old.tobytes() == snapshot.tobytes()  # the previous arrays are not written
    assert state.step == 5
    flat_m = np.concatenate([want_m[k].ravel() for k in shapes])
    flat_v = np.concatenate([want_v[k].ravel() for k in shapes])
    assert state.m.tobytes() == flat_m.tobytes() and state.v.tobytes() == flat_v.tobytes()


def test_train_one_is_bit_identical():
    ds = _dataset()
    cfg = TrainConfig(model=_model_cfg(), epochs=4, batch=64)
    a = train_one(ds, 0, 3, cfg)
    b = train_one(ds, 0, 3, cfg)
    assert a.selected_epoch == b.selected_epoch
    assert a.epochs == b.epochs
    assert a.report.metrics == b.report.metrics
    for name in a.selected_params:
        assert np.array_equal(a.selected_params[name], b.selected_params[name])


def test_easy_synthetic_set_reaches_high_accuracy():
    ds = _dataset(ambiguity_alpha=0.01, conflict_rate=0.0, noise_sigma=0.1, n_samples=400)
    cfg = TrainConfig(model=_model_cfg(hidden=32), objective="cbce", epochs=15, batch=64)
    rec = train_one(ds, 0, 0, cfg)
    assert rec.report.metrics["ACC"] > 0.9


@pytest.mark.parametrize("objective", ["amber", "cbce"])
def test_train_loss_decreases_over_epochs(objective):
    ds = _dataset()
    cfg = TrainConfig(model=_model_cfg(hidden=32), objective=objective, epochs=30, batch=64)
    rec = train_one(ds, 0, 1, cfg)
    assert rec.epochs[-1]["train"]["total"] < rec.epochs[0]["train"]["total"]


def test_selected_epoch_is_earliest_validation_js_minimum():
    ds = _dataset()
    cfg = TrainConfig(model=_model_cfg(), epochs=6, batch=64)
    rec = train_one(ds, 1, 0, cfg)
    vals = [e["val"]["JS"] for e in rec.epochs]
    best = min(vals)
    assert rec.selected_epoch == vals.index(best) + 1


def test_amber_with_mai_off_matches_pure_rai_trajectory_bitwise(monkeypatch):
    ds = _dataset()
    cfg = TrainConfig(
        model=_model_cfg(),
        loss=LossConfig(lambda_rai=1.0, lambda_mai=0.0, expert_supervision="none"),
        epochs=3,
        batch=64,
    )
    baseline = train_one(ds, 0, 2, cfg)

    def rai_only(y, outputs, loss_cfg, student):
        node = ad.scalar_mul(loss_cfg.lambda_rai, rai_loss(y, outputs[student]))
        breakdown = losses_mod.LossBreakdown(rai=float(node.data), total=float(node.data))
        return node, breakdown

    monkeypatch.setattr(trainer_mod, "amber_loss", rai_only)
    pure = train_one(ds, 0, 2, cfg)

    for name in baseline.selected_params:
        assert np.array_equal(baseline.selected_params[name], pure.selected_params[name])
    assert [e["train"]["total"] for e in baseline.epochs] == [e["train"]["total"] for e in pure.epochs]
    assert baseline.report.metrics == pure.report.metrics


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts_with_coordinates():
    ds = _dataset(n_samples=100)
    # a huge learning rate overflows the parameters within a few steps
    cfg = TrainConfig(model=_model_cfg(), lr=1e30, epochs=3, batch=32)
    with pytest.raises(NumericalAbortError) as err:
        train_one(ds, 0, 0, cfg)
    assert err.value.epoch is not None


def test_cross_validate_shape_and_aggregate():
    ds = _dataset(n_samples=150)
    cfg = TrainConfig(model=_model_cfg(), epochs=2, batch=64, seeds=(0, 1))
    records, agg = cross_validate(ds, cfg)
    assert len(records) == ds.fold_count * 2
    assert [(r.fold, r.seed) for r in records] == [
        (f, s) for f in range(ds.fold_count) for s in (0, 1)
    ]
    hand = np.mean([r.report.metrics["JS"] for r in records])
    assert abs(agg["metrics"]["JS"]["mean"] - hand) <= 1e-15


def test_duplicate_seeds_have_zero_std():
    ds = _dataset(n_samples=150)
    cfg = TrainConfig(model=_model_cfg(), epochs=2, batch=64, seeds=(7, 7))
    records, agg = cross_validate(ds, cfg)
    per_fold = {}
    for r in records:
        per_fold.setdefault(r.fold, []).append(r.report.metrics["JS"])
    for fold, values in per_fold.items():
        assert values[0] == values[1]


def test_parallel_and_serial_cross_validation_agree():
    ds = _dataset(n_samples=150)
    cfg = TrainConfig(model=_model_cfg(), epochs=2, batch=64, seeds=(0,))
    serial_records, serial_agg = cross_validate(ds, cfg, jobs=1)
    par_records, par_agg = cross_validate(ds, cfg, jobs=2)
    assert serial_agg == par_agg
    for a, b in zip(serial_records, par_records):
        assert (a.fold, a.seed) == (b.fold, b.seed)
        assert a.report.metrics == b.report.metrics
        for name in a.selected_params:
            assert np.array_equal(a.selected_params[name], b.selected_params[name])


def test_cross_validate_asks_for_no_more_workers_than_runs(monkeypatch):
    asked = []

    class InlinePool:  # records the worker count and starts no process
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    ds = _dataset(n_samples=60)
    cfg = TrainConfig(model=_model_cfg(), epochs=1, batch=64, seeds=(0,))
    records, _ = cross_validate(ds, cfg, jobs=10**6)
    assert asked == [len(records)] == [ds.fold_count]


def test_train_config_validation():
    mc = _model_cfg()
    with pytest.raises(ValueError):
        TrainConfig(model=mc, objective="hinge")
    with pytest.raises(ValueError):
        TrainConfig(model=mc, lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(model=mc, seeds=())


@pytest.mark.parametrize("objective", ["amber", "cbce"])
def test_train_one_frees_each_batch_graph_and_interior_gradients(objective):
    # A unit is one batch x width float64 array; the peak is about 19.6.
    # Keeping the previous batch's graph alive through the next forward, or
    # every interior gradient until backward ends, each raises the amber peak
    # to about 29 units; both together, with the unfused ops, to 59.
    batch, width = 600, 256
    ds = _dataset(n_samples=3000, dim_a=16, dim_t=16, seed=5)
    cfg = TrainConfig(model=ModelConfig(dim_a=16, dim_t=16, n_classes=4, hidden=width, fusion_dim=width),
                      objective=objective, batch=batch, epochs=3, seeds=(0,))
    units = traced_peak_bytes(lambda: train_one(ds, 0, 0, cfg)) / (batch * width * 8)
    assert units <= 25.0, f"train_one peaked at {units:.2f} units"
