import random
from fractions import Fraction as F

import pytest

from nclb import ratlinalg as rl
from nclb.algebra import Subspace, g47_algebra, heisenberg_algebra
from nclb.bilinear import (BilinearForm, CoisotropyError, DegenerateFormError,
                           coisotropy_check, form_from_json, laplacian_data,
                           orth_complement)
from nclb.models import load_model


def span(dim, *indices):
    return Subspace.spanned_by_indices(dim, indices)


def h3_form():
    return BilinearForm.from_matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def g1_form(alpha=F(1), beta=F(1)):
    return BilinearForm.from_matrix([
        [0, 0, 1, alpha],
        [0, 0, 0, beta],
        [1, 0, 0, 0],
        [alpha, beta, 0, 0],
    ])


class TestInvert:
    def test_h3_self_inverse(self):
        gm = h3_form()
        assert gm.inverse == gm.matrix

    def test_identity(self):
        gm = BilinearForm.from_matrix(rl.eye(4))
        assert [list(r) for r in gm.inverse] == rl.eye(4)

    def test_g1_block_structure(self):
        for alpha, beta in ((F(1), F(1)), (F(2), F(3)), (F(-1), F(2))):
            inv = g1_form(alpha, beta).inverse
            assert inv[0][2] == 1
            assert inv[1][2] == -alpha / beta
            assert inv[1][3] == 1 / beta
            assert inv[0][3] == 0
            for a in (2, 3):
                for b in (2, 3):
                    assert inv[a][b] == 0
            # upper-left block also vanishes for this family
            for a in (0, 1):
                for b in (0, 1):
                    assert inv[a][b] == 0

    def test_singular_rejected(self):
        with pytest.raises(DegenerateFormError):
            BilinearForm.from_matrix([[1, 1], [1, 1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(DegenerateFormError):
            BilinearForm.from_matrix([[0, 1], [2, 0]])


class TestOrthComplement:
    def test_h3_center(self):
        perp = orth_complement(h3_form(), span(3, 1, 3))
        assert perp.same_as(span(3, 3))

    def test_identity_form(self):
        gm = BilinearForm.from_matrix(rl.eye(4))
        perp = orth_complement(gm, span(4, 1))
        assert perp.same_as(span(4, 2, 3, 4))

    def test_g1_ideal_is_its_own_complement(self):
        perp = orth_complement(g1_form(), span(4, 1, 2))
        assert perp.rank == 2
        assert span(4, 1, 2).contains_subspace(perp)
        assert perp.same_as(span(4, 1, 2))

    def test_double_complement(self):
        rng = random.Random(5)
        gm = g1_form(F(2), F(5))
        for _ in range(10):
            gens = tuple(
                tuple(F(rng.randint(-4, 4)) for _ in range(4))
                for _ in range(2))
            H = Subspace(gens)
            if H.rank != 2:
                continue
            assert orth_complement(gm, orth_complement(gm, H)).same_as(H)

    def test_rank_sum(self):
        gm = g1_form(F(1), F(-1))
        for idx in ((1,), (1, 2), (1, 2, 3)):
            H = span(4, *idx)
            assert H.rank + orth_complement(gm, H).rank == 4


class TestCoisotropy:
    def test_h3_null_center(self):
        rep = coisotropy_check(heisenberg_algebra(), h3_form(), span(3, 1, 3))
        assert rep.verdict and rep.hperp_in_h and rep.block_zero

    def test_g47_g1(self):
        rep = coisotropy_check(g47_algebra(), g1_form(), span(4, 1, 2))
        assert rep.verdict

    def test_h3_euclidean_fails(self):
        gm = BilinearForm.from_matrix(rl.eye(3))
        rep = coisotropy_check(heisenberg_algebra(), gm, span(3, 1, 3))
        assert not rep.verdict and not rep.hperp_in_h and not rep.block_zero

    def test_membership_block_equivalence_random(self):
        # the two routes must agree for any symmetric nondegenerate form
        rng = random.Random(0xC0FFEE)
        L = g47_algebra()
        H = span(4, 1, 2)
        checked = 0
        while checked < 200:
            m = [[F(0)] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    m[i][j] = m[j][i] = F(rng.randint(-5, 5), rng.randint(1, 3))
            if rl.det(m) == 0:
                continue
            rep = coisotropy_check(L, BilinearForm.from_matrix(m), H)
            assert rep.hperp_in_h == rep.block_zero
            checked += 1

    def test_null_dimension_bound(self):
        # verdict true forces rank(H) >= n - min(p, n-p)
        for L, gm, H in (
            (heisenberg_algebra(), h3_form(), span(3, 1, 3)),
            (g47_algebra(), g1_form(), span(4, 1, 2)),
            (g47_algebra(), g1_form(F(2), F(3)), span(4, 1, 2)),
        ):
            rep = coisotropy_check(L, gm, H)
            assert rep.verdict
            p, q = gm.signature()
            assert H.rank >= L.dim - min(p, q)


@pytest.mark.parametrize("name, alpha, beta, signature", [
    ("heisenberg", F(1), F(1), (2, 1)),
    ("heisenberg", F(2), F(-3), (2, 1)),
    ("g4_7", F(1), F(1), (2, 2)),
    ("g4_7", F(2), F(3), (2, 2)),
    ("g4_7", F(-1), F(2), (2, 2)),
    ("g4_7", F(3), F(-1), (2, 2)),
    ("g4_7", F(1, 2), F(-1, 32), (2, 2)),
])
def test_bundled_form_signature(name, alpha, beta, signature):
    # the Lorentzian metric of H3(R) and the split metric of g4,7
    assert load_model(name, alpha=alpha, beta=beta).form.signature() == signature


class TestLaplacianData:
    def test_h3_unimodular(self):
        data = laplacian_data(heisenberg_algebra(), h3_form())
        assert data.c_vec == (0, 0, 0)

    def test_h3_b_vanishes(self):
        data = laplacian_data(heisenberg_algebra(), h3_form(), span(3, 1, 3))
        assert data.b_vec == (0, 0)

    def test_g47_values(self):
        for alpha, beta in ((F(1), F(1)), (F(2), F(3)), (F(-1), F(2))):
            data = laplacian_data(g47_algebra(), g1_form(alpha, beta),
                                  span(4, 1, 2))
            assert data.c_vec == (0, 4 / beta, 0, 0)
            assert data.b_vec == (alpha / beta, 3 / beta)

    def test_abelian_all_zero(self):
        from nclb.algebra import abelian_algebra
        gm = BilinearForm.from_matrix(rl.eye(3))
        data = laplacian_data(abelian_algebra(3), gm, span(3, 1, 2, 3))
        assert data.c_vec == (0, 0, 0)
        assert data.b_vec == (0, 0, 0)

    def test_non_coisotropic_rejected(self):
        gm = BilinearForm.from_matrix(rl.eye(3))
        with pytest.raises(CoisotropyError):
            laplacian_data(heisenberg_algebra(), gm, span(3, 1, 3))


class TestFormJson:
    def test_parse_plain(self):
        gm = form_from_json({"matrix": [["1", "0"], ["0", "-1/2"]]})
        assert gm.matrix[1][1] == F(-1, 2)

    def test_parameter_substitution(self):
        doc = {"matrix": [["0", "alpha"], ["alpha", "beta"]]}
        gm = form_from_json(doc, {"alpha": "2", "beta": "1/3"})
        assert gm.matrix[0][1] == 2 and gm.matrix[1][1] == F(1, 3)

    def test_unresolved_parameter_rejected(self):
        with pytest.raises(DegenerateFormError):
            form_from_json({"matrix": [["0", "alpha"], ["alpha", "0"]]})
