import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
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


def _leibniz_det(m):
    """det as the signed sum over permutations, an oracle independent of
    any elimination."""
    n = len(m)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


def _oracle_signature(m, rank):
    """(n_plus, n_minus) from numpy's eigenvalues, with the n - rank of
    least modulus taken as the zero ones."""
    eig = sorted(np.linalg.eigvalsh(np.array(m, dtype=float)), key=abs)[len(m) - rank:]
    return sum(1 for e in eig if e > 0), sum(1 for e in eig if e < 0)


def _random_matrices(rng, symmetric):
    """Rational matrices with n = 1..5, each second one singular: a row (or
    a row and its column) repeats a combination of two others, or is zero."""
    for trial in range(400):
        n = 1 + trial % 5
        m = rand_matrix(rng, n)
        if symmetric:
            m = [[m[i][j] if i <= j else m[j][i] for j in range(n)] for i in range(n)]
        if trial % 2:
            k = rng.randrange(n)
            if n < 3:
                m[k] = [F(0)] * n
            else:
                i, j = rng.sample([r for r in range(n) if r != k], 2)
                a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
                m[k] = [a * x + b * y for x, y in zip(m[i], m[j])]
            if symmetric:
                for r in range(n):
                    m[r][k] = m[k][r]
                if n >= 3:
                    m[k][k] = a * m[i][k] + b * m[j][k]
        yield m


def test_det_matches_the_leibniz_sum():
    rng = random.Random(5)
    singular = 0
    for m in _random_matrices(rng, symmetric=False):
        d = rl.det(m)
        assert d == _leibniz_det(m)
        singular += d == 0
    assert singular >= 150


def test_signature_matches_numpy_eigenvalues():
    rng = random.Random(6)
    degenerate = 0
    for m in _random_matrices(rng, symmetric=True):
        assert m == rl.transpose(m)
        rank = rl.rank(m)
        p, q = rl.signature(m)
        assert (p, q) == _oracle_signature(m, rank)
        assert p + q == rank
        degenerate += rank < len(m)
    assert degenerate >= 150
