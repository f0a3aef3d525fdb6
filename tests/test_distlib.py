import math

import numpy as np
import pytest

from amber.dataio import Dataset
from amber.distlib import SoftLabel, bhattacharyya_rows, entropy_bits_rows, js_divergence_rows

# Frozen oracle values, computed with mpmath at 40 digits from the plain
# definitions (-sum p log2 p, half-sum of base-2 KLs against the mixture).
ENTROPY_06_04 = 0.970950594454668639
JS_HALF_VS_POINT = 0.31127812445913286
JS_ONEHOT_VS_UNIFORM4 = 0.54879494069539853


def soft_labels(votes):
    """The soft labels `Dataset` derives from rows of vote counts."""
    votes = np.asarray(votes, dtype=np.int64)
    n = len(votes)
    return Dataset(np.arange(n), np.zeros((n, 1)), np.zeros((n, 1)), votes, 1).y


def test_aggregate_votes_direct_division():
    y = soft_labels([[2, 1, 1, 0], [5, 0, 0, 0], [3, 2, 0, 0]])
    assert np.allclose(y[0], [0.5, 0.25, 0.25, 0.0])
    assert np.allclose(y[1], [1, 0, 0, 0])
    assert np.allclose(y[2], [0.6, 0.4, 0, 0])


def test_entropy_examples():
    assert entropy_bits_rows([1, 0, 0, 0])[0] == 0.0
    assert abs(entropy_bits_rows([0.25, 0.25, 0.25, 0.25])[0] - 2.0) < 1e-12
    assert abs(entropy_bits_rows([0.6, 0.4, 0, 0])[0] - ENTROPY_06_04) < 1e-12


def test_js_examples():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p = rng.dirichlet(np.ones(4))
        assert js_divergence_rows(p, p)[0] < 1e-12
    assert abs(js_divergence_rows([1, 0], [0, 1])[0] - 1.0) < 1e-12
    assert abs(js_divergence_rows([0.5, 0.5], [1, 0])[0] - JS_HALF_VS_POINT) < 1e-12
    assert abs(js_divergence_rows([1, 0, 0, 0], [0.25, 0.25, 0.25, 0.25])[0] - JS_ONEHOT_VS_UNIFORM4) < 1e-12


def test_bhattacharyya_examples():
    assert abs(bhattacharyya_rows([0.3, 0.7], [0.3, 0.7])[0] - 1.0) < 1e-12
    assert bhattacharyya_rows([1, 0], [0, 1])[0] == 0.0
    assert abs(bhattacharyya_rows([0.5, 0.5], [1, 0])[0] - math.sqrt(0.5)) < 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        js_divergence_rows([0.5, 0.5], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        bhattacharyya_rows([0.5, 0.5], [0.5, 0.25, 0.25])


def test_softlabel_renormalizes_small_drift_and_rejects_large():
    drifted = SoftLabel([0.5, 0.5 + 5e-7])
    assert abs(drifted.probs.sum() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        SoftLabel([0.5, 0.6])
    with pytest.raises(ValueError):
        SoftLabel([1.1, -0.1])
    with pytest.raises(ValueError):
        SoftLabel([1.0])


def test_aggregate_votes_always_valid():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        c = int(rng.integers(2, 9))
        n = int(rng.integers(1, 30))
        counts = rng.multinomial(n, rng.dirichlet(np.ones(c)))
        (y,) = soft_labels([counts])
        assert y.min() >= 0
        assert abs(y.sum() - 1.0) <= 1e-9
        assert y.shape == (c,)


def test_js_symmetry_and_bounds_bulk():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        c = int(rng.integers(2, 7))
        p = rng.dirichlet(np.full(c, 0.5))
        q = rng.dirichlet(np.full(c, 0.5))
        d1 = js_divergence_rows(p, q)[0]
        d2 = js_divergence_rows(q, p)[0]
        assert abs(d1 - d2) < 1e-12
        assert -1e-12 <= d1 <= 1.0 + 1e-12
    p = np.asarray([0.2, 0.3, 0.5])
    assert js_divergence_rows(p, p)[0] < 1e-12


def test_bhattacharyya_bounds_and_identity():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        c = int(rng.integers(2, 7))
        p = rng.dirichlet(np.full(c, 0.5))
        q = rng.dirichlet(np.full(c, 0.5))
        b = bhattacharyya_rows(p, q)[0]
        assert -1e-12 <= b <= 1.0 + 1e-9
        assert bhattacharyya_rows(p, p)[0] >= 1.0 - 1e-9
    assert bhattacharyya_rows([0.5, 0.5, 0, 0], [0, 0, 0.5, 0.5])[0] == 0.0


def test_entropy_increases_when_mixing_toward_uniform():
    rng = np.random.default_rng(17)
    for _ in range(200):
        c = int(rng.integers(2, 7))
        p = rng.dirichlet(np.full(c, 0.3))
        uniform = np.full(c, 1.0 / c)
        last = entropy_bits_rows(p)[0]
        for t in np.linspace(0.0, 1.0, 11):
            h = entropy_bits_rows((1 - t) * p + t * uniform)[0]
            assert h >= last - 1e-12
            last = h
