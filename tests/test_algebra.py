import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nclb import ratlinalg as rl
from nclb.algebra import (Covector, LieAlgebra, MalformedAlgebraError, Subspace,
                          abelian_algebra, adapted_basis, algebra_from_json,
                          annihilator, g47_algebra,
                          heisenberg_algebra, index, index_witness,
                          is_polarization, jacobi_defect, kirillov_matrix,
                          subspace_flags, transform_structure_constants)


def span(dim, *indices):
    return Subspace.spanned_by_indices(dim, indices)


class TestJacobi:
    def test_heisenberg_clean(self):
        assert jacobi_defect(heisenberg_algebra()) == []

    def test_abelian_clean(self):
        assert jacobi_defect(abelian_algebra(5)) == []

    def test_g47_clean(self):
        assert jacobi_defect(g47_algebra()) == []

    def test_violation_detected(self):
        # [[e3,e1],e2] = -e3 is not cancelled by the other two cyclic terms
        bad = LieAlgebra(3, ("e1", "e2", "e3"), {
            (1, 2): {3: F(1)},
            (1, 3): {1: F(1)},
        })
        defects = jacobi_defect(bad)
        assert defects and defects[0][0] == (1, 2, 3)

    def test_malformed_index_rejected(self):
        with pytest.raises(MalformedAlgebraError):
            LieAlgebra(2, ("e1", "e2"), {(1, 2): {5: F(1)}})


class TestKirillov:
    def test_heisenberg_e3(self):
        b = kirillov_matrix(heisenberg_algebra(), Covector((0, 0, 1)))
        assert b == [[F(0), F(1), F(0)], [F(-1), F(0), F(0)], [F(0), F(0), F(0)]]

    def test_zero_covector(self):
        b = kirillov_matrix(g47_algebra(), Covector((0, 0, 0, 0)))
        assert all(all(x == 0 for x in row) for row in b)

    def test_g47_e1(self):
        b = kirillov_matrix(g47_algebra(), Covector((1, 0, 0, 0)))
        assert b[0][3] == 2 and b[1][2] == 1
        upper = [(i, j) for i in range(4) for j in range(i + 1, 4)
                 if (i, j) not in ((0, 3), (1, 2))]
        assert all(b[i][j] == 0 for i, j in upper)
        assert rl.det(b) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kirillov_matrix(heisenberg_algebra(), Covector((1, 2)))

    @given(st.lists(st.fractions(min_value=-5, max_value=5), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, comps):
        b = kirillov_matrix(g47_algebra(), Covector(tuple(comps)))
        assert b == [[-b[j][i] for j in range(4)] for i in range(4)]


class TestAnnihilator:
    def test_heisenberg_center(self):
        ann = annihilator(heisenberg_algebra(), Covector((0, 0, 1)))
        assert ann.same_as(span(3, 3))
        assert ann.rank == 1

    def test_zero_covector_full(self):
        ann = annihilator(g47_algebra(), Covector((0, 0, 0, 0)))
        assert ann.rank == 4

    def test_g47_regular_trivial(self):
        ann = annihilator(g47_algebra(), Covector((1, 0, 0, 0)))
        assert ann.rank == 0

    def test_rank_sum_random(self):
        rng = random.Random(11)
        for L in (heisenberg_algebra(), g47_algebra()):
            for _ in range(100):
                lam = Covector(tuple(
                    F(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(L.dim)))
                b = kirillov_matrix(L, lam)
                assert annihilator(L, lam).rank + rl.rank(b) == L.dim


class TestIndex:
    def test_heisenberg(self):
        assert index(heisenberg_algebra()) == 1

    def test_g47_frobenius(self):
        assert index(g47_algebra()) == 0

    def test_abelian(self):
        assert index(abelian_algebra(3)) == 3

    def test_deterministic_and_seed_stable(self):
        L = heisenberg_algebra()
        assert index(L, seed=7) == index(L, seed=7)
        assert {index(L, seed=s) for s in (1, 2, 3)} == {1}

    def test_witness_attains_minimum(self):
        L = g47_algebra()
        idx, lam = index_witness(L)
        assert annihilator(L, lam).rank == idx

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            index(heisenberg_algebra(), trials=0)


class TestSpannedByIndices:
    def test_coordinate_subspace(self):
        assert Subspace.spanned_by_indices(3, [3, 1]).standard_indices() == [1, 3]

    @pytest.mark.parametrize("indices, message", [
        ([0], "basis index 0 outside 1..3"),
        ([-1], "basis index -1 outside 1..3"),
        ([1, 5], "basis index 5 outside 1..3"),
        ([3, 3], "repeated basis index 3"),
    ])
    def test_out_of_range_or_repeated_index_is_malformed(self, indices, message):
        # 0 and -1 used to reach e3 and e2 by negative indexing
        with pytest.raises(MalformedAlgebraError, match=message):
            Subspace.spanned_by_indices(3, indices)


class TestSubspaceFlags:
    def test_heisenberg_ideal(self):
        flags = subspace_flags(heisenberg_algebra(), span(3, 1, 3))
        assert flags == {"is_subalgebra": True, "is_ideal": True,
                         "is_commutative": True}

    def test_g47_ideal(self):
        flags = subspace_flags(g47_algebra(), span(4, 1, 2))
        assert flags == {"is_subalgebra": True, "is_ideal": True,
                         "is_commutative": True}

    def test_heisenberg_horizontal_plane(self):
        # [e1, e2] = e3 escapes span{e1, e2}, so none of the flags hold
        flags = subspace_flags(heisenberg_algebra(), span(3, 1, 2))
        assert flags == {"is_subalgebra": False, "is_ideal": False,
                         "is_commutative": False}

    def test_subalgebra_not_ideal(self):
        flags = subspace_flags(g47_algebra(), span(4, 1, 4))
        assert flags["is_subalgebra"] is True
        assert flags["is_ideal"] is False
        assert flags["is_commutative"] is False


class TestPolarization:
    def test_heisenberg(self):
        L = heisenberg_algebra()
        rep = is_polarization(L, Covector((0, 0, 1)), span(3, 1, 3), ind=1)
        assert rep == {"subordinate": True, "dim_ok": True}

    def test_g47(self):
        L = g47_algebra()
        rep = is_polarization(L, Covector((1, 0, 0, 0)), span(4, 1, 2), ind=0)
        assert rep == {"subordinate": True, "dim_ok": True}

    def test_not_subordinate(self):
        L = heisenberg_algebra()
        # the horizontal plane is not even a subalgebra here
        with pytest.raises(ValueError):
            is_polarization(L, Covector((0, 0, 1)), span(3, 1, 2), ind=1)
        # span{e2, e3} is a subalgebra subordinate to e^3 but of honest use:
        rep = is_polarization(L, Covector((0, 0, 1)), span(3, 2, 3), ind=1)
        assert rep == {"subordinate": True, "dim_ok": True}

    def test_dimension_counts(self):
        # 2 dim P = dim + ind and dim Q = (dim - ind)/2 for both models
        h = heisenberg_algebra()
        assert 2 * span(3, 1, 3).rank == h.dim + index(h)
        assert h.dim - span(3, 1, 3).rank == (h.dim - index(h)) // 2
        g = g47_algebra()
        assert 2 * span(4, 1, 2).rank == g.dim + index(g)
        assert g.dim - span(4, 1, 2).rank == (g.dim - index(g)) // 2


class TestAdaptedBasis:
    def test_heisenberg_permutation(self):
        t = adapted_basis(heisenberg_algebra(), span(3, 1, 3))
        cols = rl.transpose(t)
        assert cols[0] == [F(1), F(0), F(0)]
        assert cols[1] == [F(0), F(0), F(1)]
        assert cols[2] == [F(0), F(1), F(0)]  # greedy complement picks e2

    def test_full_space_identity(self):
        t = adapted_basis(heisenberg_algebra(), span(3, 1, 2, 3))
        assert t == rl.eye(3)

    def test_g47_already_adapted(self):
        assert adapted_basis(g47_algebra(), span(4, 1, 2)) == rl.eye(4)

    def test_degenerate_generators_rejected(self):
        H = Subspace(((F(1), F(0), F(0)), (F(2), F(0), F(0))))
        with pytest.raises(ValueError):
            adapted_basis(heisenberg_algebra(), H)

    def test_transformed_constants_stay_lie(self):
        L = g47_algebra()
        t = adapted_basis(L, Subspace(((F(1), F(1), F(0), F(0)),
                                       (F(0), F(1), F(1), F(0)))))
        assert jacobi_defect(transform_structure_constants(L, t)) == []


def _to_json(L):
    """An algebra document in the README's format, written by hand."""
    return {"dim": L.dim, "basis": list(L.basis_names),
            "brackets": [{"i": i, "j": j,
                          "c": {str(k): str(v) for k, v in sorted(comp.items())}}
                         for (i, j), comp in sorted(L.c.items())]}


class TestJson:
    def test_round_trip(self):
        for L in (heisenberg_algebra(), g47_algebra(), abelian_algebra(2)):
            back = algebra_from_json(_to_json(L))
            assert back.dim == L.dim
            assert back.c == L.c

    def test_rational_strings(self):
        doc = {"dim": 2, "basis": ["a", "b"],
               "brackets": [{"i": 1, "j": 2, "c": {"1": "3/4"}}]}
        L = algebra_from_json(doc)
        assert L.bracket_basis(1, 2)[0] == F(3, 4)

    def test_malformed_rejected(self):
        with pytest.raises(MalformedAlgebraError):
            algebra_from_json({"dim": 2, "brackets": [{"i": 1, "c": {}}]})
