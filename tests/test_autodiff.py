import zlib

import numpy as np
import pytest

from amber import autodiff as ad

from helpers import concat, elementwise_mul, full_amber_grad_check, grad_check, mean


def _scalarizer(rng, shape):
    """Fixed random linear functional + mean, so per-entry errors cannot cancel."""
    weights = ad.constant(rng.standard_normal(shape))
    return lambda t: mean(elementwise_mul(t, weights))


def _away_from(rng, shape, margin=1e-3):
    x = rng.standard_normal(shape)
    while np.any(np.abs(x) < margin):
        x = rng.standard_normal(shape)
    return x


def _positive_rows(rng, shape, floor=0.05):
    rows = rng.dirichlet(np.ones(shape[1]), size=shape[0])
    return (rows + floor) / (1.0 + floor * shape[1])


def _op_case(name, rng):
    """(f, inputs) building a scalar through the named op."""
    if name == "matmul":
        m, k, n = (int(rng.integers(1, 6)) for _ in range(3))
        a = ad.Tensor(rng.standard_normal((m, k)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((k, n)), requires_grad=True)
        down = _scalarizer(rng, (m, n))
        return lambda a, b: down(ad.matmul(a, b)), [a, b]
    if name == "add":
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        down = _scalarizer(rng, shape)
        return lambda a, b: down(ad.add(a, b)), [a, b]
    if name == "add_bias":
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(shape[1]), requires_grad=True)
        down = _scalarizer(rng, shape)
        return lambda a, b: down(ad.add(a, b)), [a, b]
    if name == "linear":
        m, k, n = (int(rng.integers(1, 6)) for _ in range(3))
        x = ad.Tensor(rng.standard_normal((m, k)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((k, n)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(n), requires_grad=True)
        down = _scalarizer(rng, (m, n))
        return lambda x, w, b: down(ad.linear(x, w, b)), [x, w, b]
    if name == "relu":
        x = ad.Tensor(_away_from(rng, (3, 4)), requires_grad=True)
        down = _scalarizer(rng, (3, 4))
        return lambda x: down(ad.relu(x)), [x]
    if name == "sigmoid":
        x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        down = _scalarizer(rng, (3, 4))
        return lambda x: down(ad.sigmoid(x)), [x]
    if name == "softmax":
        x = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        down = _scalarizer(rng, (4, 5))
        return lambda x: down(ad.softmax(x)), [x]
    if name == "elementwise_mul":
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        a = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        down = _scalarizer(rng, shape)
        return lambda a, b: down(elementwise_mul(a, b)), [a, b]
    if name == "gated_fusion":
        rows, dim_a, dim_t, width = (int(rng.integers(1, 5)) for _ in range(4))
        h_a = ad.constant(rng.standard_normal((rows, dim_a)))
        h_t = ad.constant(rng.standard_normal((rows, dim_t)))
        params = [ad.Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((dim_a + dim_t, width), (width,), (dim_a, width), (dim_t, width))]
        down = _scalarizer(rng, (rows, width))
        return lambda *p: down(ad.gated_fusion(h_a, h_t, *p)), params
    if name == "scalar_mul":
        c = float(rng.standard_normal())
        x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        down = _scalarizer(rng, (3, 3))
        return lambda x: down(ad.scalar_mul(c, x)), [x]
    if name == "mean":
        x = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        return lambda x: mean(x), [x]
    if name == "js_loss":
        shape = (int(rng.integers(1, 5)), int(rng.integers(2, 6)))
        p = ad.Tensor(_positive_rows(rng, shape), requires_grad=True)
        q = ad.Tensor(_positive_rows(rng, shape), requires_grad=True)
        return lambda p, q: ad.js_loss_node(p, q), [p, q]
    if name == "soft_ce":
        shape = (int(rng.integers(1, 5)), int(rng.integers(2, 6)))
        s = ad.Tensor(_positive_rows(rng, shape), requires_grad=True)
        y = _positive_rows(rng, shape)
        w = rng.uniform(0.5, 2.0, size=shape[1])
        return lambda s: ad.soft_ce_node(s, y, w), [s]
    raise AssertionError(name)


OP_NAMES = (
    "matmul",
    "add",
    "add_bias",
    "linear",
    "relu",
    "sigmoid",
    "softmax",
    "elementwise_mul",
    "gated_fusion",
    "scalar_mul",
    "mean",
    "js_loss",
    "soft_ce",
)


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_passes_100_gradient_checks(name):
    for seed in range(100):
        rng = np.random.default_rng(1000 * zlib.crc32(name.encode()) % (2**32) + seed)
        f, inputs = _op_case(name, rng)
        result = grad_check(f, inputs, h=1e-4, tol=1e-4)
        assert result.passed, f"{name} seed {seed}: max rel err {result.max_rel_err}"


def test_matmul_identity_and_zeros():
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(ad.constant(np.eye(2)), x).data, x.data)
    assert np.array_equal(ad.matmul(ad.constant(np.zeros((2, 2))), x).data, np.zeros((2, 2)))


def test_matmul_gradient_vs_central_differences():
    rng = np.random.default_rng(42)
    a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    result = grad_check(lambda a, b: mean(ad.matmul(a, b)), [a, b], h=1e-4, tol=1e-4)
    assert result.passed


def test_elementwise_forward_values():
    assert np.array_equal(ad.relu(ad.constant([[-1.0, 2.0]])).data, [[0.0, 2.0]])
    assert np.allclose(ad.softmax(ad.constant([[0.0, 0.0, 0.0, 0.0]])).data, [[0.25] * 4])
    assert ad.sigmoid(ad.constant(np.zeros((1, 1)))).data[0, 0] == 0.5


def test_softmax_rows_are_distributions():
    rng = np.random.default_rng(5)
    out = ad.softmax(ad.constant(rng.standard_normal((50, 6)) * 30)).data
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(out > 0)


def test_shape_mismatches_raise():
    a = ad.constant(np.zeros((2, 3)))
    b = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ad.matmul(a, b)
    with pytest.raises(ValueError):
        ad.add(a, ad.constant(np.zeros((3, 2))))
    with pytest.raises(ValueError):
        ad.js_loss_node(a, ad.constant(np.zeros((2, 4))))
    with pytest.raises(ValueError):
        ad.linear(a, ad.constant(np.zeros((2, 4))), ad.constant(np.zeros(4)))
    with pytest.raises(ValueError):
        ad.linear(a, ad.constant(np.zeros((3, 4))), ad.constant(np.zeros(3)))


def test_gated_fusion_rejects_misfit_shapes_and_inputs_that_take_gradient():
    def fusion(rows_t=2, width_t=4, grad_input=False, gate_rows=5):
        h_a = ad.Tensor(np.zeros((2, 2)), requires_grad=grad_input)
        return ad.gated_fusion(h_a, ad.constant(np.zeros((rows_t, 3))), ad.constant(np.zeros((gate_rows, 4))),
                               ad.constant(np.zeros(4)), ad.constant(np.zeros((2, 4))),
                               ad.constant(np.zeros((3, width_t))))

    assert fusion().data.shape == (2, 4)
    # a projection of width 1 would broadcast against the gate if its shape went unchecked
    for bad in ({"rows_t": 3}, {"width_t": 1}, {"grad_input": True}, {"gate_rows": 4}):
        with pytest.raises(ValueError):
            fusion(**bad)


def test_js_loss_identical_inputs_zero_value_zero_grad():
    p_rows = np.asarray([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
    p = ad.Tensor(p_rows, requires_grad=True)
    out = ad.js_loss_node(p, ad.constant(p_rows.copy()))
    assert float(out.data) == 0.0
    ad.backward(out)
    assert np.allclose(p.grad, 0.0, atol=1e-12)


def test_js_loss_gradient_through_softmax_logits():
    rng = np.random.default_rng(9)
    logits = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    q = rng.dirichlet(np.ones(4), size=3)

    def f(logits):
        return ad.js_loss_node(ad.softmax(logits), ad.constant(q))

    result = grad_check(f, [logits], h=1e-4, tol=1e-4)
    assert result.passed


def test_stop_grad_q_keeps_gradient_buffer_zero():
    rng = np.random.default_rng(21)
    p = ad.Tensor(rng.dirichlet(np.ones(3), size=2), requires_grad=True)
    q = ad.Tensor(rng.dirichlet(np.ones(3), size=2), requires_grad=True)
    out = ad.js_loss_node(p, ad.stop_grad(q))
    ad.backward(out)
    assert np.array_equal(q.grad, np.zeros_like(q.data))
    assert np.any(p.grad != 0)


def test_backward_twice_on_one_graph_gives_the_same_leaf_gradients():
    rng = np.random.default_rng(41)
    x = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    unreached = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    h = ad.add(ad.matmul(x, w), b)
    out = mean(elementwise_mul(h, h))
    assert h.grad is None and out.grad is None
    ad.backward(out)
    first = [t.grad.copy() for t in (x, w, b)]
    ad.backward(out)
    for t, g in zip((x, w, b), first):
        assert np.array_equal(t.grad, g)
    assert np.array_equal(unreached.grad, np.zeros(2))


def test_a_leaf_a_later_root_does_not_reach_keeps_what_it_held():
    rng = np.random.default_rng(47)
    x = ad.constant(rng.standard_normal((4, 3)))
    w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b1, b2 = (ad.Tensor(rng.standard_normal(2), requires_grad=True) for _ in range(2))
    ad.backward(mean(ad.linear(x, w, b1)))
    held = b1.grad.copy()
    assert np.any(held != 0)
    ad.backward(mean(ad.linear(x, w, b2)))
    assert np.array_equal(b1.grad, held)  # root 2 does not reach b1: it keeps root 1's gradient
    fresh_w, fresh_b2 = ad.Tensor(w.data, requires_grad=True), ad.Tensor(b2.data, requires_grad=True)
    ad.backward(mean(ad.linear(x, fresh_w, fresh_b2)))
    assert np.array_equal(w.grad, fresh_w.grad)  # a reached leaf holds root 2's gradient alone
    assert np.array_equal(b2.grad, fresh_b2.grad)


def test_backward_releases_interior_gradients_and_leaves_keep_theirs():
    rng = np.random.default_rng(43)
    x = ad.constant(rng.standard_normal((4, 3)))
    w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal(2), requires_grad=True)
    fusion = [ad.Tensor(rng.standard_normal(shape), requires_grad=True) for shape in ((6, 2), (2,), (3, 2), (3, 2))]
    h = ad.linear(x, w, b)
    gate = ad.sigmoid(h)
    hid = ad.relu(h)
    fused = ad.gated_fusion(x, x, *fusion)
    mix = ad.add(fused, hid)
    prod = elementwise_mul(mix, gate)
    probs = ad.softmax(prod)
    out = ad.js_loss_node(probs, ad.constant(np.full((4, 2), 0.5)))
    interior = (h, gate, hid, fused, mix, prod, probs, out)
    ad.backward(out)
    assert all(t.grad is None for t in interior)
    for leaf in (w, b, *fusion):
        assert leaf.grad is not None and leaf.grad.shape == leaf.data.shape
        assert np.any(leaf.grad != 0)
    assert x.grad is None


def test_grad_check_sum_of_squares():
    x = ad.Tensor(np.asarray([1.0, 2.0]).reshape(1, 2), requires_grad=True)

    def f(x):
        return ad.scalar_mul(x.data.size, mean(elementwise_mul(x, x)))

    out = f(x)
    ad.backward(out)
    assert np.allclose(x.grad, [[2.0, 4.0]])
    result = grad_check(f, [x], h=1e-4, tol=1e-6)
    assert result.passed


def test_grad_check_dead_relu_region():
    x = ad.Tensor(np.full((2, 3), -1.0), requires_grad=True)
    result = grad_check(lambda x: mean(ad.relu(x)), [x], h=1e-4, tol=1e-12)
    assert result.passed
    out = mean(ad.relu(x))
    ad.backward(out)
    assert np.array_equal(x.grad, np.zeros_like(x.data))


def test_grad_check_full_objective_micro_model():
    bitwise, result = full_amber_grad_check(seed=4)
    assert bitwise
    assert result.passed, result.max_rel_err


def test_grad_check_rejects_non_scalar_and_nan():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda x: ad.relu(x), [x])
    bad = ad.Tensor(np.asarray([[np.nan]]), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda x: mean(x), [bad])


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.relu(x))


def test_backward_is_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(33)
        a = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        out = mean(ad.softmax(ad.matmul(ad.relu(a), b)))
        ad.backward(out)
        return a.grad, b.grad

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


# Reference oracles: the straightforward `np.where` formulas the kernels
# replaced. The kernels must give the same bytes, NaN payloads included.


def _relu_oracle(x, g):
    mask = x > 0
    return np.where(mask, x, 0.0), g * mask


def _sigmoid_oracle(x, g):
    pos = x >= 0
    z = np.exp(np.where(pos, -x, x))
    y = np.where(pos, 1.0 / (1.0 + z), z / (1.0 + z))
    return y, g * y * (1.0 - y)


_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 745.2, -745.2])


def _with_specials(rng, x, every=3):
    """A copy of `x` with every `every`-th entry replaced by a random special value."""
    x = x.copy()
    picks = rng.integers(0, len(_SPECIALS), size=x.size)
    flat = x.reshape(-1)
    flat[::every] = _SPECIALS[picks[::every]]
    return x


def _kernel_inputs():
    rng = np.random.default_rng(8)
    for scale in (1e-310, 1.0, 800.0):
        for shape in ((128, 256), (7, 3), (1, 1), (5,)):
            x = rng.standard_normal(shape) * scale
            yield x, rng.standard_normal(shape)
            yield _with_specials(rng, x), rng.standard_normal(shape)
    yield _SPECIALS.reshape(2, 5), np.linspace(-2.0, 2.0, 10).reshape(2, 5)


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("op,oracle", [(ad.relu, _relu_oracle), (ad.sigmoid, _sigmoid_oracle)],
                         ids=["relu", "sigmoid"])
def test_elementwise_kernels_are_byte_equal_to_their_oracles(op, oracle):
    for x_data, g in _kernel_inputs():
        want_y, want_dx = oracle(x_data, g)
        x = ad.Tensor(x_data.copy(), requires_grad=True)
        g.setflags(write=False)
        y = op(x)
        assert _same_bytes(y.data, want_y)
        assert _same_bytes(x.data, x_data)
        x.grad = None
        y._backward(g)
        assert _same_bytes(x.grad, want_dx)


# The fused nodes against the composites they replace, through `backward`'s
# own traversal, so the order in which a shared input sums its contributions
# is part of what is compared.


def _route(out, upstream, leaves):
    """Forward bytes of `out` and each leaf's gradient when `upstream` flows into `out`."""
    probe = ad._node(np.asarray(0.0), (out,), lambda _: ad._accumulate(out, upstream))
    ad.backward(probe)
    return [out.data] + [t.grad for t in leaves]


def _linear_composite(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _linear_relu_composite(x, w, b):
    return ad.relu(ad.linear(x, w, b))


def _gated_fusion_composite(h_a, h_t, gate_w, gate_b, proj_a, proj_t):
    gate = ad.sigmoid(ad.add(ad.matmul(concat(h_a, h_t), gate_w), gate_b))
    inv_gate = ad.add(ad.constant(np.ones_like(gate.data)), ad.scalar_mul(-1.0, gate))
    return ad.add(elementwise_mul(gate, ad.matmul(h_a, proj_a)), elementwise_mul(inv_gate, ad.matmul(h_t, proj_t)))


def _fused_op_inputs():
    """{op name: (operands, upstream)} per case, specials included."""
    rng = np.random.default_rng(12)
    for scale in (1e-310, 1.0, 800.0):
        for m, k, n in ((128, 16, 256), (7, 3, 5), (1, 1, 1)):
            for special in (False, True):
                lin = [rng.standard_normal((m, k)) * scale, rng.standard_normal((k, n)),
                       rng.standard_normal(n) * scale]
                k_t = k + (m < 128)  # unequal input widths, and the training widths at 128 rows
                fusion = [rng.standard_normal((m, k)) * scale, rng.standard_normal((m, k_t)) * scale,
                          rng.standard_normal((k + k_t, n)), rng.standard_normal(n) * scale,
                          rng.standard_normal((k, n)), rng.standard_normal((k_t, n))]
                up = rng.standard_normal((m, n))
                if special:
                    lin, fusion = [_with_specials(rng, v) for v in lin], [_with_specials(rng, v) for v in fusion]
                    up = _with_specials(rng, up, every=2)
                yield {"linear": (lin, up), "linear_relu": (lin, up), "gated_fusion": (fusion, up)}
    lin = ([_SPECIALS.reshape(2, 5), _SPECIALS[::-1].reshape(5, 2), _SPECIALS[3:5]],
           _SPECIALS[[5, 4, 2, 3]].reshape(2, 2))
    # pre-activations exactly 0.0, +-inf, NaN and +-tiny (one input, unit
    # weight), negative and NaN upstream; the product never gives -0.0 here,
    # so the kernel test above pins relu's mask at -0.0
    act = ([np.ones((1, 1)), _SPECIALS.reshape(1, 10), np.zeros(10)],
           np.array([[-1.0, 2.0, -3.0, np.nan, -0.0, 0.0, -5e-324, 4.0, -np.inf, 1.0]]))
    for case in (lin, act):
        yield {"linear": case, "linear_relu": case}
    # specials everywhere; then gate pre-activations exactly 0.0, +-inf, NaN
    # and +-tiny (unit inputs) and a text projection of NaNs of both signs;
    # each under an upstream of NaNs of both signs
    nans, snan = _SPECIALS[[4, 5] * 5].reshape(2, 5), _SPECIALS[[5, 4] * 5].reshape(2, 5)
    yield {"gated_fusion": ([_SPECIALS.reshape(2, 5), _SPECIALS[::-1].reshape(2, 5), np.resize(_SPECIALS, (10, 5)),
                             _SPECIALS[5:], np.resize(_SPECIALS[::-1], (5, 5)), np.resize(_SPECIALS[3:], (5, 5))],
                            snan)}
    yield {"gated_fusion": ([np.ones((2, 1)), np.ones((2, 1)), np.stack([_SPECIALS[:5], np.zeros(5)]), np.zeros(5),
                             _SPECIALS[5:].reshape(1, 5), nans[:1]], snan)}


@pytest.mark.parametrize("fused,composite", [(ad.linear, _linear_composite),
                                             (ad.linear_relu, _linear_relu_composite),
                                             (ad.gated_fusion, _gated_fusion_composite)],
                         ids=["linear", "linear_relu", "gated_fusion"])
def test_fused_ops_are_byte_equal_to_their_composites(fused, composite):
    inputs = 2 if fused is ad.gated_fusion else 0  # leading operands that take no gradient
    for case in _fused_op_inputs():
        if fused.__name__ not in case:
            continue
        operands, up = case[fused.__name__]
        up.setflags(write=False)
        results = []
        for build in (fused, composite):
            leaves = [ad.Tensor(v.copy(), requires_grad=i >= inputs) for i, v in enumerate(operands)]
            with np.errstate(all="ignore"):  # inf - inf and the like are part of the cases
                results.append(_route(build(*leaves), up, leaves[inputs:]))
            assert all(_same_bytes(t.data, v) for t, v in zip(leaves, operands))
        for got, want in zip(*results):
            assert _same_bytes(got, want)
