import random
from fractions import Fraction as F

import pytest

from nclb import ratlinalg as rl


def rand_matrix(rng, n, bound=6):
    return [[F(rng.randint(-bound, bound), rng.randint(1, bound))
             for _ in range(n)] for _ in range(n)]


def test_rref_identity():
    r, pivots = rl.rref(rl.eye(3))
    assert r == rl.eye(3)
    assert pivots == [0, 1, 2]


def test_inverse_round_trip():
    rng = random.Random(1)
    for _ in range(25):
        m = rand_matrix(rng, 4)
        if rl.det(m) == 0:
            continue
        inv = rl.inverse(m)
        assert rl.mat_mul(m, inv) == rl.eye(4)
        assert rl.mat_mul(inv, m) == rl.eye(4)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        rl.inverse([[F(1), F(2)], [F(2), F(4)]])


def test_kernel_rank_sum():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_matrix(rng, 4)
        ker = rl.kernel(m)
        assert rl.rank(m) + len(ker) == 4
        for v in ker:
            assert all(x == 0 for x in rl.mat_vec(m, v))


def test_det_multiplicative():
    rng = random.Random(3)
    for _ in range(15):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        assert rl.det(rl.mat_mul(a, b)) == rl.det(a) * rl.det(b)


def test_congruent_diagonalization_signature():
    # x^2 + 2yz has signature (2, 1)
    m = [[F(1), F(0), F(0)], [F(0), F(0), F(1)], [F(0), F(1), F(0)]]
    assert rl.signature(m) == (2, 1)
    # the split form on 4 letters has signature (2, 2)
    m4 = [[F(0), F(0), F(1), F(1)],
          [F(0), F(0), F(0), F(1)],
          [F(1), F(0), F(0), F(0)],
          [F(1), F(1), F(0), F(0)]]
    assert rl.signature(m4) == (2, 2)


def test_signature_invariant_under_congruence():
    rng = random.Random(4)
    base = [[F(1), F(0), F(0)], [F(0), F(-2), F(0)], [F(0), F(0), F(3)]]
    for _ in range(10):
        t = rand_matrix(rng, 3)
        if rl.det(t) == 0:
            continue
        m = rl.mat_mul(rl.transpose(t), rl.mat_mul(base, t))
        assert rl.signature(m) == (2, 1)
