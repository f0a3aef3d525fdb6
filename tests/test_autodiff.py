import numpy as np
import pytest

from amber import autodiff as ad

from helpers import full_amber_grad_check


def _scalarizer(rng, shape):
    """Fixed random linear functional + mean, so per-entry errors cannot cancel."""
    weights = ad.constant(rng.standard_normal(shape))
    return lambda t: ad.mean(ad.elementwise_mul(t, weights))


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
    if name == "concat":
        rows = int(rng.integers(1, 5))
        a = ad.Tensor(rng.standard_normal((rows, int(rng.integers(1, 5)))), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((rows, int(rng.integers(1, 5)))), requires_grad=True)
        down = _scalarizer(rng, (rows, a.data.shape[1] + b.data.shape[1]))
        return lambda a, b: down(ad.concat(a, b)), [a, b]
    if name == "elementwise_mul":
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        a = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(shape), requires_grad=True)
        down = _scalarizer(rng, shape)
        return lambda a, b: down(ad.elementwise_mul(a, b)), [a, b]
    if name == "scalar_mul":
        c = float(rng.standard_normal())
        x = ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        down = _scalarizer(rng, (3, 3))
        return lambda x: down(ad.scalar_mul(c, x)), [x]
    if name == "mean":
        x = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        return lambda x: ad.mean(x), [x]
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
    "relu",
    "sigmoid",
    "softmax",
    "concat",
    "elementwise_mul",
    "scalar_mul",
    "mean",
    "js_loss",
    "soft_ce",
)


@pytest.mark.parametrize("name", OP_NAMES)
def test_every_op_passes_100_gradient_checks(name):
    for seed in range(100):
        rng = np.random.default_rng(1000 * hash(name) % (2**32) + seed)
        f, inputs = _op_case(name, rng)
        result = ad.grad_check(f, inputs, h=1e-4, tol=1e-4)
        assert result.passed, f"{name} seed {seed}: max rel err {result.max_rel_err}"


def test_matmul_identity_and_zeros():
    x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(ad.constant(np.eye(2)), x).data, x.data)
    assert np.array_equal(ad.matmul(ad.constant(np.zeros((2, 2))), x).data, np.zeros((2, 2)))


def test_matmul_gradient_vs_central_differences():
    rng = np.random.default_rng(42)
    a = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = ad.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    result = ad.grad_check(lambda a, b: ad.mean(ad.matmul(a, b)), [a, b], h=1e-4, tol=1e-4)
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
        ad.concat(a, ad.constant(np.zeros((3, 3))))
    with pytest.raises(ValueError):
        ad.js_loss_node(a, ad.constant(np.zeros((2, 4))))


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

    result = ad.grad_check(f, [logits], h=1e-4, tol=1e-4)
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
    out = ad.mean(ad.elementwise_mul(h, h))
    assert h.grad is None and out.grad is None
    ad.backward(out)
    first = [t.grad.copy() for t in (x, w, b)]
    ad.backward(out)
    for t, g in zip((x, w, b), first):
        assert np.array_equal(t.grad, g)
    assert np.array_equal(unreached.grad, np.zeros(2))


def test_grad_check_sum_of_squares():
    x = ad.Tensor(np.asarray([1.0, 2.0]).reshape(1, 2), requires_grad=True)

    def f(x):
        return ad.scalar_mul(x.data.size, ad.mean(ad.elementwise_mul(x, x)))

    out = f(x)
    ad.backward(out)
    assert np.allclose(x.grad, [[2.0, 4.0]])
    x.zero_grad()
    result = ad.grad_check(f, [x], h=1e-4, tol=1e-6)
    assert result.passed


def test_grad_check_dead_relu_region():
    x = ad.Tensor(np.full((2, 3), -1.0), requires_grad=True)
    result = ad.grad_check(lambda x: ad.mean(ad.relu(x)), [x], h=1e-4, tol=1e-12)
    assert result.passed
    out = ad.mean(ad.relu(x))
    ad.backward(out)
    assert np.array_equal(x.grad, np.zeros_like(x.data))


def test_grad_check_full_objective_micro_model():
    bitwise, result = full_amber_grad_check(seed=4)
    assert bitwise
    assert result.passed, result.max_rel_err


def test_grad_check_rejects_non_scalar_and_nan():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.grad_check(lambda x: ad.relu(x), [x])
    bad = ad.Tensor(np.asarray([[np.nan]]), requires_grad=True)
    with pytest.raises(ValueError):
        ad.grad_check(lambda x: ad.mean(x), [bad])


def test_backward_requires_scalar_root():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.backward(ad.relu(x))


def test_backward_is_deterministic_bitwise():
    def run():
        rng = np.random.default_rng(33)
        a = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        b = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        out = ad.mean(ad.softmax(ad.matmul(ad.relu(a), b)))
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


def _kernel_inputs():
    rng = np.random.default_rng(8)
    for scale in (1e-310, 1.0, 800.0):
        for shape in ((128, 256), (7, 3), (1, 1), (5,)):
            x = rng.standard_normal(shape) * scale
            yield x, rng.standard_normal(shape)
            x = x.copy()
            picks = rng.integers(0, len(_SPECIALS), size=x.size)
            flat = x.reshape(-1)
            flat[::3] = _SPECIALS[picks[::3]]
            yield x, rng.standard_normal(shape)
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
