import numpy as np
import pytest

from nclb import quadrature
from nclb.quadrature import gl_nodes, integrate_1d

BOXES = [(-1.0, 1.0), (0.0, 1.0), (-3.25, 7.5), (2.0, -0.5), (1e-3, 1e-3 + 1e-9)]


@pytest.mark.parametrize("n", [1, 2, 7, 32, 96])
def test_rule_is_the_affine_map_of_leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    for lo, hi in BOXES:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        nodes, weights = gl_nodes(n, lo, hi)
        assert np.array_equal(nodes, mid + half * x)
        assert np.array_equal(weights, half * w)


def test_leggauss_runs_once_per_node_count(monkeypatch):
    calls = []
    real = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return real(n)

    quadrature._reference_rule.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    try:
        for k in range(200):
            for n in (5, 11, 24):
                gl_nodes(n, -0.01 * k, 0.5 + 0.02 * k)
        integrate_1d(np.cos, 0.0, 1.0, n=5, tol=1e-14)
    finally:
        quadrature._reference_rule.cache_clear()
    assert sorted(calls) == sorted(set(calls))
    assert {5, 11, 24} <= set(calls)


def test_mutating_a_rule_cannot_change_a_later_one():
    x0, w0 = gl_nodes(16, 0.0, 2.0)
    want_x, want_w = x0.copy(), w0.copy()
    x0[:] = 7.0
    w0 *= -1.0
    x1, w1 = gl_nodes(16, 0.0, 2.0)
    assert np.array_equal(x1, want_x)
    assert np.array_equal(w1, want_w)
    ref_x, ref_w = quadrature._reference_rule(16)
    with pytest.raises(ValueError):
        ref_x[0] = 0.0
    with pytest.raises(ValueError):
        ref_w[0] = 0.0

