import numpy as np
import pytest

from nclb import quadrature
from nclb.quadrature import gl_nodes, integrate_1d
from nclb.report import InconclusiveError

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
        integrate_1d(np.cos, 0.0, 1.0)
    finally:
        quadrature._reference_rule.cache_clear()
    assert sorted(calls) == sorted(set(calls))
    assert {5, 11, 24, 96, 192} <= set(calls)


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


def counted(f):
    """f, recording the length of each node array it is called on."""
    def g(x):
        g.calls.append(len(x))
        return f(x)

    g.calls = []
    return g


def test_the_first_two_rules_take_one_call_and_are_summed_apart():
    f = counted(lambda x: np.exp(1j * x))
    val, n, change = integrate_1d(f, 0.0, 2.0)
    assert f.calls == [96 + 192] and n == 192
    # the same bits as each rule evaluated and summed on its own
    (x1, w1), (x2, w2) = gl_nodes(96, 0.0, 2.0), gl_nodes(192, 0.0, 2.0)
    assert val == np.sum(w2 * np.exp(1j * x2))
    assert change == abs(val - np.sum(w1 * np.exp(1j * x1))) <= 1e-12
    assert abs(val - (np.exp(2j) - 1) / 1j) <= 1e-14


def test_later_rules_take_one_call_each():
    # poles at +-i/50 slow the convergence to ~(1.02)^(-2n)
    f = counted(lambda x: 1.0 / (1.0 + 2500.0 * x * x))
    val, n, change = integrate_1d(f, -1.0, 1.0)
    assert f.calls == [288, 384, 768, 1536] and n == 1536
    assert change <= 1e-12 and abs(val - np.arctan(50.0) / 25.0) <= 1e-14


def test_an_integrand_that_does_not_settle_raises_naming_the_nodes():
    f = counted(lambda x: np.exp(1e5j * x))
    with pytest.raises(InconclusiveError, match=r"did not settle below 1e-12 by n=3072$"):
        integrate_1d(f, 0.0, 1.5)
    assert f.calls == [288, 384, 768, 1536, 3072]


@pytest.mark.parametrize("f, n", [
    (lambda x: np.full(x.shape, np.nan), 96),
    (lambda x: np.exp(1e3 * x), 96),  # overflows to inf
    (lambda x: np.sqrt(x - 0.5), 96),  # NaN below 0.5
    # inf at one node of the 192-node rule alone
    (lambda x: 1.0 / (x - gl_nodes(192, 0.0, 1.0)[0][5]), 192),
], ids=["nan", "inf", "nan-part", "inf-second-rule"])
def test_an_integrand_that_is_not_finite_raises_at_once(f, n):
    f = counted(f)
    with np.errstate(all="ignore"), pytest.raises(
            InconclusiveError, match=rf"the integrand is not finite, its sum at n={n} is"):
        integrate_1d(f, 0.0, 1.0)
    assert f.calls == [288]
