import math

import numpy as np
import pytest

from amber import autodiff as ad
from amber import distlib
from amber.dataio import SynthConfig, generate_synthetic
from amber.losses import (
    LossConfig,
    amber_loss,
    cbce_loss,
    class_weights_from,
    expert_weights,
)
from amber.model import ModelConfig, forward_all, init_params, wrap_params

from helpers import full_amber_grad_check, grad_check

# Oracle values (mpmath, 40 digits): base-2 JS of a one-hot row against the
# 4-class uniform, and the softmax-of-negatives weights at kappa=4, D=(.1, .3).
JS_ONEHOT_VS_UNIFORM4 = 0.54879494069539853
U_A_FIXTURE = 0.68997448112761244
U_T_FIXTURE = 0.31002551887238756


def _micro_outputs(seed=0, batch=4, n_classes=3):
    cfg = ModelConfig(dim_a=3, dim_t=4, n_classes=n_classes, hidden=5, fusion_dim=4)
    rng = np.random.default_rng(seed)
    tensors = wrap_params(init_params(cfg, rng))
    h_a = ad.constant(rng.standard_normal((batch, cfg.dim_a)))
    h_t = ad.constant(rng.standard_normal((batch, cfg.dim_t)))
    outputs = forward_all(tensors, h_a, h_t, cfg)
    y = rng.dirichlet(np.ones(n_classes), size=batch)
    return cfg, tensors, outputs, y


def test_rai_zero_when_student_matches_labels():
    y = np.asarray([[0.5, 0.25, 0.25], [0.2, 0.2, 0.6]])
    s = ad.Tensor(y.copy(), requires_grad=True)
    assert float(ad.js_loss_node(ad.constant(y), s).data) == 0.0


def test_rai_one_hot_vs_uniform_fixture():
    y = np.asarray([[1.0, 0, 0, 0], [1.0, 0, 0, 0]])
    s = ad.constant(np.full((2, 4), 0.25))
    assert abs(float(ad.js_loss_node(ad.constant(y), s).data) - JS_ONEHOT_VS_UNIFORM4) < 1e-12


def test_rai_gradient_against_finite_differences():
    rng = np.random.default_rng(1)
    y = rng.dirichlet(np.ones(4), size=3)
    logits = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)

    def f(logits):
        return ad.js_loss_node(ad.constant(y), ad.softmax(logits))

    assert grad_check(f, [logits], h=1e-4, tol=1e-4).passed


def test_expert_weights_symmetry_and_kappa_zero():
    assert expert_weights({"a": 0.2, "t": 0.2}, kappa=4.0) == {"a": 0.5, "t": 0.5}
    u = expert_weights({"a": 0.05, "t": 0.4}, kappa=0.0)
    assert u == {"a": 0.5, "t": 0.5}


def test_expert_weights_fixture():
    u = expert_weights({"a": 0.10, "t": 0.30}, kappa=4.0)
    assert abs(u["a"] - U_A_FIXTURE) < 1e-12
    assert abs(u["t"] - U_T_FIXTURE) < 1e-12


def test_expert_weights_validation():
    with pytest.raises(ValueError):
        expert_weights({}, kappa=4.0)
    with pytest.raises(ValueError):
        expert_weights({"a": -0.1}, kappa=4.0)


def test_expert_weight_properties_bulk():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        d = {f"e{i}": float(rng.uniform(0, 2)) for i in range(n)}
        kappa = float(rng.uniform(0, 10))
        u = expert_weights(d, kappa)
        values = np.asarray(list(u.values()))
        assert abs(values.sum() - 1.0) <= 1e-9
        assert np.all(values >= 0)
        if kappa > 0:
            for a in d:
                for b in d:
                    if d[a] < d[b]:
                        assert u[a] > u[b]


# the consistency term alone: no rater term, no expert supervision
MAI_ONLY = {"lambda_rai": 0.0, "expert_supervision": "none"}


def test_mai_zero_when_all_heads_agree():
    rows = np.asarray([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
    outputs = {"at": ad.Tensor(rows.copy(), requires_grad=True),
               "a": ad.constant(rows.copy()), "t": ad.constant(rows.copy())}
    y = np.asarray([[0.4, 0.3, 0.3], [0.1, 0.8, 0.1]])
    node, fields = amber_loss(y, outputs, LossConfig(**MAI_ONLY), "at")
    assert fields["mai"] == 0.0 and float(node.data) == 0.0
    assert abs(fields["u_a"] + fields["u_t"] - 1.0) <= 1e-12


def test_mai_saturates_to_best_expert_at_large_kappa():
    rng = np.random.default_rng(3)
    y = rng.dirichlet(np.ones(3), size=4)
    s = ad.Tensor(rng.dirichlet(np.ones(3), size=4), requires_grad=True)
    outputs = {"at": s, "a": ad.constant(y.copy()), "t": ad.constant(rng.dirichlet(np.ones(3), size=4))}
    _, fields = amber_loss(y, outputs, LossConfig(kappa=50.0, **MAI_ONLY), "at")
    assert fields["u_a"] > 0.999
    direct = ad.js_loss_node(s, ad.constant(y.copy()))
    assert abs(fields["mai"] - float(direct.data)) < 1e-3


def test_mai_detached_blocks_expert_gradient():
    cfg, tensors, outputs, y = _micro_outputs(seed=5)
    node, _ = amber_loss(y, outputs, LossConfig(**MAI_ONLY), "at")
    ad.backward(node)
    for name in ("a.w1", "a.b1", "a.w2", "a.b2", "t.w1", "t.w2"):
        assert tensors[name].grad is None
    assert np.any(tensors["at.w2"].grad != 0)


def test_mai_coupled_lets_gradient_reach_experts():
    cfg, tensors, outputs, y = _micro_outputs(seed=6)
    node, _ = amber_loss(y, outputs, LossConfig(mai_expert_grad="coupled", **MAI_ONLY), "at")
    ad.backward(node)
    assert np.any(tensors["a.w2"].grad != 0)


@pytest.mark.parametrize("supervision", ["rai", "none"])
def test_amber_loss_makes_one_js_pass_per_head_pair(monkeypatch, supervision):
    # five pairs: each head against the labels, the student against each expert
    real = distlib.js_divergence_rows
    calls = []

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(distlib, "js_divergence_rows", counted)
    cfg, tensors, outputs, y = _micro_outputs(seed=11)
    _, fields = amber_loss(y, outputs, LossConfig(expert_supervision=supervision), "at")
    assert len(calls) == 5
    # the train log's keys, in its order
    supervised = ["expert_rai_a", "expert_rai_t"] if supervision == "rai" else []
    assert list(fields) == ["rai", "mai", "total", "u_a", "u_t", "d_a", "d_t", *supervised]
    # the same bits as JS taken with the expert first, so train logs keep their bytes
    for m in ("a", "t"):
        assert fields[f"d_{m}"] == float(real(outputs[m].data, y).mean())
        assert fields.get(f"expert_rai_{m}", fields[f"d_{m}"]) == fields[f"d_{m}"]


def test_amber_reduces_to_rai_when_mai_and_supervision_off():
    cfg, tensors, outputs, y = _micro_outputs(seed=7)
    loss_cfg = LossConfig(lambda_rai=1.0, lambda_mai=0.0, expert_supervision="none")
    total, _ = amber_loss(y, outputs, loss_cfg, "at")
    direct = ad.scalar_mul(1.0, ad.js_loss_node(ad.constant(y), outputs["at"]))
    assert float(total.data) == float(direct.data)

    ad.backward(total)
    grads = {k: t.grad for k, t in tensors.items()}
    for t in tensors.values():
        t.grad = None
    ad.backward(direct)
    for k, t in tensors.items():
        if k.startswith(("a.", "t.")):
            assert grads[k] is None and t.grad is None  # neither root reaches an expert head
        else:
            assert np.array_equal(grads[k], t.grad)


def test_amber_zero_when_every_head_predicts_labels():
    y = np.asarray([[0.5, 0.3, 0.2], [0.25, 0.5, 0.25]])
    outputs = {m: ad.Tensor(y.copy(), requires_grad=True) for m in ("a", "t", "at")}
    total, fields = amber_loss(y, outputs, LossConfig(), "at")
    assert float(total.data) == 0.0
    assert fields["rai"] == 0.0 and fields["mai"] == 0.0


def test_amber_breakdown_composition():
    cfg, tensors, outputs, y = _micro_outputs(seed=8)
    loss_cfg = LossConfig(lambda_rai=1.0, lambda_mai=0.5, kappa=4.0)
    total, b = amber_loss(y, outputs, loss_cfg, "at")
    recomposed = (
        loss_cfg.lambda_rai * b["rai"]
        + loss_cfg.lambda_mai * b["mai"]
        + b["expert_rai_a"] + b["expert_rai_t"]
    )
    assert b["total"] == float(total.data)
    assert abs(b["total"] - recomposed) <= 1e-9
    assert abs(b["u_a"] + b["u_t"] - 1.0) <= 1e-9
    assert b["u_a"] >= 0 and b["u_t"] >= 0
    assert b["total"] >= 0


def test_amber_full_gradient_check_micro_model():
    for seed in (0, 1):
        bitwise, result = full_amber_grad_check(seed)
        assert bitwise
        assert result.passed, result.max_rel_err
    bitwise, result = full_amber_grad_check(2, LossConfig(mai_expert_grad="coupled"))
    assert bitwise
    assert result.passed, result.max_rel_err


def test_detached_expert_gradients_match_mai_ablated_run_bitwise():
    # with the consistency term detached, expert-head gradients must be exactly
    # the ones an MAI-free objective produces
    cfg, tensors, outputs, y = _micro_outputs(seed=9)
    total, _ = amber_loss(y, outputs, LossConfig(lambda_mai=0.5), "at")
    ad.backward(total)
    with_mai = {k: t.grad.copy() for k, t in tensors.items()}

    cfg2, tensors2, outputs2, y2 = _micro_outputs(seed=9)
    total2, _ = amber_loss(y2, outputs2, LossConfig(lambda_mai=0.0), "at")
    ad.backward(total2)
    for name in tensors:
        if name.startswith(("a.", "t.")):
            assert np.array_equal(with_mai[name], tensors2[name].grad), name


def test_cbce_one_hot_is_plain_cross_entropy():
    y = np.asarray([[1.0, 0, 0], [0, 1.0, 0]])
    s_rows = np.asarray([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25]])
    s = ad.Tensor(s_rows, requires_grad=True)
    expected = -np.mean([math.log(0.7), math.log(0.5)])
    assert abs(float(cbce_loss(y, s, np.ones(3)).data) - expected) < 1e-12


def test_cbce_uniform_fixture_log4():
    y = np.full((2, 4), 0.25)
    s = ad.Tensor(y.copy(), requires_grad=True)
    assert abs(float(cbce_loss(y, s, np.ones(4)).data) - math.log(4.0)) < 1e-12


def test_cbce_weighted_matches_hand_computation():
    y = np.asarray([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]])
    s_rows = np.asarray([[0.6, 0.3, 0.1], [0.2, 0.3, 0.5]])
    w = np.asarray([0.5, 1.0, 1.5])
    expected = -0.5 * (
        (0.5 * 0.5 * math.log(0.6) + 1.0 * 0.5 * math.log(0.3))
        + (1.0 * 0.25 * math.log(0.3) + 1.5 * 0.75 * math.log(0.5))
    )
    got = float(cbce_loss(y, ad.Tensor(s_rows, requires_grad=True), w).data)
    assert abs(got - expected) < 1e-12


def test_cbce_unit_weights_equal_unweighted_soft_ce():
    rng = np.random.default_rng(10)
    y = rng.dirichlet(np.ones(4), size=16)
    s_rows = rng.dirichlet(np.ones(4), size=16)
    got = float(cbce_loss(y, ad.constant(s_rows), np.ones(4)).data)
    plain = float(np.mean(-(y * np.log(s_rows)).sum(axis=1)))
    assert abs(got - plain) <= 1e-12


def test_negative_class_weight_is_rejected():
    y = np.full((2, 3), 1 / 3)
    s = ad.Tensor(y.copy(), requires_grad=True)
    w = np.asarray([1.0, -0.5, 1.0])
    for objective in (lambda: cbce_loss(y, s, w), lambda: ad.soft_ce_node(s, y, w)):
        with pytest.raises(ValueError, match="class weights must be non-negative"):
            objective()


def test_class_weights_balanced_and_capped():
    balanced = np.full((10, 4), 0.25)
    assert np.allclose(class_weights_from(balanced), 1.0)

    zero_mass = np.zeros((4, 3))
    zero_mass[:, 0] = 0.5
    zero_mass[:, 1] = 0.5
    w = class_weights_from(zero_mass)
    assert np.isfinite(w).all()
    assert w[2] == w.max()  # epsilon-capped class gets the largest weight


def test_class_weights_fixture():
    # frequencies [0.5, 0.25, 0.125, 0.125] -> inverse [2, 4, 8, 8],
    # mean-normalized to [4/11, 8/11, 16/11, 16/11]
    y = np.zeros((8, 4))
    y[:4, 0] = 1.0
    y[4:6, 1] = 1.0
    y[6, 2] = 1.0
    y[7, 3] = 1.0
    w = class_weights_from(y)
    assert np.max(np.abs(w - np.asarray([4 / 11, 8 / 11, 16 / 11, 16 / 11]))) < 1e-12
    assert abs(w.mean() - 1.0) < 1e-12


def test_class_weights_from_dataset_split():
    ds = generate_synthetic(
        SynthConfig(n_samples=50, n_classes=3, dim_a=4, dim_t=4, n_raters=5,
                    ambiguity_alpha=1.0, conflict_rate=0.2, noise_sigma=0.3, seed=0)
    )
    w = class_weights_from(ds.y)
    assert w.shape == (3,)
    assert abs(w.mean() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        class_weights_from(np.zeros((0, 3)))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(lambda_rai=-0.1)
    with pytest.raises(ValueError):
        LossConfig(expert_supervision="always")
    with pytest.raises(ValueError):
        LossConfig(mai_expert_grad="sometimes")
