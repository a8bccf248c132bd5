import json
import math
import os
import random
from dataclasses import replace as dc_replace
from fractions import Fraction as F

import pytest

from nclb import expr as ex
from nclb.algebra import jacobi_defect
from nclb.bilinear import form_from_json
from nclb.diffop import DiffOp, SampleSpec, apply, op_equal
from nclb.expr import Airy, Exp, I, Power, Var, evaluate, simplify
from nclb import models
from nclb.models import (CasimirReport, ModelParameterError,
                         airy_identity_check, casimir_scalar_check,
                         chart_samples, coordinate_expansion_report,
                         haar_invariance_check,
                         invariant_frame_check, lambda_roots, laplace_operator,
                         load_model, mode_solution_h3, pde_residual,
                         validate_model)
from nclb.report import DEFAULT_SEED, InconclusiveError

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


class TestLoadModel:
    def test_heisenberg_fields(self, h3):
        assert apply(h3.xi[1], Var("x3")) == Var("x1")
        eta1 = h3.eta[0]
        assert eta1.coeff((0, 0, 1)) == Var("x2")
        assert h3.haar.unimodular

    def test_g47_twist_and_haar(self, g47):
        assert g47.modular_multiplier == Power(Var("q2"), 4)
        assert g47.haar.left_density == Exp(4 * Var("x4"))
        assert not g47.haar.unimodular

    def test_bad_parameters(self):
        with pytest.raises(ModelParameterError):
            load_model("g4_7", alpha=0, beta=0)
        with pytest.raises(ModelParameterError):
            load_model("g4_7", alpha=1, beta=-1)  # alpha^2 + 4 beta < 0
        with pytest.raises(ModelParameterError):
            load_model("nope")

    def test_alternate_parameters_validate(self):
        m = load_model("g4_7", alpha=F(-1), beta=F(2))
        lam1, lam2 = lambda_roots(**m.params)
        assert abs(evaluate(lam1).real - 1.0) < 1e-14
        assert abs(evaluate(lam2).real + 2.0) < 1e-14

    def test_structural_records(self, h3, g47):
        for model in (h3, g47):
            records = validate_model(model)
            assert all(r.passed for r in records)
            assert jacobi_defect(model.algebra) == []

    def test_structural_check_on_no_evaluated_sample_is_inconclusive(self):
        # validate_model's sampled path used to pass here on zero samples
        spec = SampleSpec(ranges={"x1": (-2.0, -1.0)}, n=5, seed=3)
        with pytest.raises(InconclusiveError):
            models._symbolic_or_sampled_zero([ex.Log(Var("x1"))], spec)

    def test_partly_evaluated_sample_contributes_nothing(self):
        # 999 x1 evaluates everywhere, x1^(1/2) only for x1 >= 0: a negative
        # sample is skipped whole, its 999 |x1| included
        x1 = Var("x1")
        spec = SampleSpec(ranges={"x1": (-2.0, 2.0)}, n=5, seed=3)
        used = [x for (x,) in spec.points(["x1"]) if x >= 0]
        dev, n_used, skipped = models._symbolic_or_sampled_zero(
            [999 * x1, Power(x1, F(1, 2)) - x1], spec)
        assert (n_used, skipped) == (len(used), 5 - len(used)) == (3, 2)
        assert dev == max(max(999 * x, abs(math.sqrt(x) - x)) for x in used)


class TestFrameChecks:
    def test_h3_counts(self, h3):
        rec = invariant_frame_check(h3)[0]
        assert rec.passed
        assert rec.detail["relation_counts"] == {"left": 3, "right": 3, "mixed": 9}

    def test_g47_counts(self, g47):
        rec = invariant_frame_check(g47)[0]
        assert rec.passed
        assert rec.detail["relation_counts"] == {"left": 6, "right": 6, "mixed": 16}

    def test_corrupted_eta_detected(self, h3):
        bad_eta1 = DiffOp.partial(h3.x_vars, "x1")  # drop the x2 d/dx3 term
        bad = dc_replace(h3, eta=(bad_eta1,) + h3.eta[1:])
        rec = invariant_frame_check(bad)[0]
        assert not rec.passed
        assert ("right", 1, 2) in rec.detail["failing"]

    def test_failing_relation_counts_its_samples(self, h3):
        # [2 eta_1, eta_2] = -2 eta_3 against the target -eta_3 is the one
        # relation whose defect is not a symbolic zero, so it alone is sampled
        bad = dc_replace(h3, eta=(h3.eta[0].scale(2),) + h3.eta[1:])
        rec = invariant_frame_check(bad)[0]
        assert rec.max_residual == 0.5
        assert rec.detail["failing"] == [("right", 1, 2)]
        assert (rec.samples_used, rec.skipped_samples) == (40, 0)

    def test_haar_invariance(self, h3, g47):
        assert haar_invariance_check(h3).passed
        rec = haar_invariance_check(g47)
        assert rec.passed
        assert rec.max_residual <= 1e-10

    def test_haar_figures_for_the_default_seed(self, h3, g47):
        rec = haar_invariance_check(h3)
        assert (rec.max_residual, rec.detail["left"], rec.detail["right"]) == (0.0, 0.0, 0.0)
        rec = haar_invariance_check(g47)
        assert rec.detail["left"] == rec.max_residual == 6.661338147750939e-16
        assert rec.detail["right"] == 0.0
        assert (rec.samples_used, rec.skipped_samples) == (20, 0)

    def test_chart_samples_draw_the_box_coordinate_by_coordinate(self, h3, g47):
        for model in (h3, g47):
            rng = random.Random(DEFAULT_SEED)
            ranges = [model.lrep.sample_ranges[v] for v in model.lrep.q_vars]
            expected = [tuple(rng.uniform(lo, hi) for lo, hi in ranges)
                        for _ in range(30)]
            assert chart_samples(model, 30) == expected


class TestLaplacian:
    def test_h3_printed_exactly(self, h3):
        delta = laplace_operator(h3)
        assert delta.coefficients == h3.printed_laplacian.coefficients

    def test_assembled_once_per_model(self, h3, monkeypatch):
        calls = []
        assemble = models.laplacian_image
        monkeypatch.setattr(models, "laplacian_image",
                            lambda *a: calls.append(a) or assemble(*a))
        model = dc_replace(h3)  # a new model assembles its own Laplacian
        psi = mode_solution_h3(F(1, 2), 1, 1)
        for _ in range(2):
            pde_residual(model, psi, 1, [(0.1, 0.2, 0.3)])
        assert len(calls) == 1
        assert (model.laplacian.coefficients
                == h3.printed_laplacian.coefficients)

    def test_altered_frames_get_their_own_laplacian(self, h3):
        # the shared model keeps its Laplacian; a copy with a rescaled xi1
        # assembles 4 d1^2 in place of d1^2
        assert h3.laplacian.coeff((2, 0, 0)) == ex.ONE
        xi = (h3.xi[0].scale(2),) + h3.xi[1:]
        assert dc_replace(h3, xi=xi).laplacian.coeff((2, 0, 0)) == ex.const(4)
        assert h3.laplacian.coeff((2, 0, 0)) == ex.ONE

    def test_g47_expansion_report_clean(self, g47):
        rows = coordinate_expansion_report(g47)
        assert len(rows) == 9
        assert all(row["match"] for row in rows)

    def test_g47_frame_form(self, g47):
        # assembled operator equals 2 xi1 xi3 + (2/b) xi2 (xi4 - a xi3)
        #                            + (1/b)(a xi1 + 3 xi2)
        from nclb.diffop import compose
        a = ex.Const(g47.params["alpha"])
        binv = Power(ex.Const(g47.params["beta"]), -1)
        xi = g47.xi
        expected = (compose(xi[0], xi[2]).scale(2)
                    + compose(xi[1], xi[3] + xi[2].scale(-1 * a)).scale(2 * binv)
                    + (xi[0].scale(a) + xi[1].scale(3)).scale(binv))
        cmp = op_equal(laplace_operator(g47), expected, g47.x_sample_spec(n=25))
        assert cmp.equal

    def test_abelian_identity_form(self):
        # flat 2d toy assembled directly from the definition
        from nclb.algebra import abelian_algebra
        from nclb.bilinear import BilinearForm, laplacian_data
        from nclb.diffop import compose
        L = abelian_algebra(2)
        gm = BilinearForm.from_matrix([[1, 0], [0, 1]])
        data = laplacian_data(L, gm)
        xv = ("x1", "x2")
        xi = (DiffOp.partial(xv, "x1"), DiffOp.partial(xv, "x2"))
        out = DiffOp.zero(xv)
        for i in range(2):
            for j in range(2):
                if data.g_inv[i][j]:
                    out = out + compose(xi[i], xi[j]).scale(ex.Const(data.g_inv[i][j]))
        assert out.coefficients == {(2, 0): ex.ONE, (0, 2): ex.ONE}


def grid3(lo=-1.0, hi=1.0, n=5):
    step = (hi - lo) / (n - 1)
    axis = [lo + i * step for i in range(n)]
    return [(a, b, c) for a in axis for b in axis for c in axis]


class TestModeSolution:
    def test_airy_argument_half_one_one(self):
        psi = mode_solution_h3(F(1, 2), F(1), F(1))
        # Ai((2 x1 + 2)/2^(2/3)): check the argument at x1 = 3
        arg_at_3 = (2.0 * 3 + 2.0) / 2 ** (2 / 3)
        v = evaluate(psi, {"x1": 3.0, "x2": 0.0, "x3": 0.0})
        from nclb.airyfun import airy
        assert abs(v - airy("Ai", arg_at_3)) <= 1e-14

    def test_zero_shifts(self):
        psi = mode_solution_h3(F(0), F(1), F(0))
        v = evaluate(psi, {"x1": 0.5, "x2": 0.0, "x3": 0.0})
        from nclb.airyfun import airy
        assert abs(v - airy("Ai", 2 ** (1 / 3) * 0.5)) <= 1e-14

    def test_nu_zero_rejected(self):
        with pytest.raises(ModelParameterError):
            mode_solution_h3(F(1), F(0), F(1))

    def test_bi_branch_constructible(self, h3):
        psi = mode_solution_h3(F(1, 2), F(1), F(1), kind="Bi")
        rep = pde_residual(h3, psi, F(1), grid3(n=3))
        assert rep.symbolic_zero  # Bi solves the same ODE

    def test_residual_mode(self, h3):
        rep = pde_residual(h3, mode_solution_h3(F(1, 2), F(1), F(1)), F(1),
                           grid3(n=5))
        assert rep.max_residual <= 1e-8
        assert rep.symbolic_zero
        assert rep.fd_cross_deviation <= 1e-5

    def test_harmonic_trivia(self, h3, g47):
        assert pde_residual(h3, ex.ONE, F(0), grid3(n=3)).max_residual == 0.0
        pts4 = [(a, b, 0.1, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
        assert pde_residual(g47, ex.ONE, F(0), pts4).max_residual == 0.0
        assert pde_residual(h3, Var("x1"), F(0), grid3(n=3)).max_residual == 0.0
        assert pde_residual(h3, Var("x3"), F(0), grid3(n=3)).max_residual == 0.0
        # x1 x3 happens to be annihilated as well; x2 x3 is not
        assert pde_residual(h3, Var("x1") * Var("x3"), F(0),
                            grid3(n=3)).max_residual == 0.0
        flagged = pde_residual(h3, Var("x2") * Var("x3"), F(0), grid3(n=3))
        assert flagged.max_residual > 0.5


class TestAiryIdentity:
    def test_unit_scale_point(self):
        # at t = 1/3 the scale factor collapses to 1 and both sides are Ai(0)
        assert airy_identity_check(0.0, 1.0 / 3.0) <= 1e-6
        from nclb.quadrature import oscillatory_cubic_phase
        assert abs(oscillatory_cubic_phase(0.0, 1.0 / 3.0) - 0.3550280539) <= 1e-9

    @pytest.mark.parametrize("x,t", [(1.0, 1.0), (-1.0, 2.0), (0.5, -0.7)])
    def test_points(self, x, t):
        assert airy_identity_check(x, t) <= 1e-6

    def test_t_zero_rejected(self):
        with pytest.raises(ModelParameterError):
            airy_identity_check(1.0, 0.0)


class TestKernelData:
    def test_identity_collapse(self, h3, g47):
        # at the group identity the constraints force q = q' and the phase
        # vanishes, i.e. the kernel starts from the delta distribution
        for model in (h3, g47):
            x_zero = {v: ex.ZERO for v in model.x_vars}
            phase0 = ex.subst(model.kernel.phase, x_zero)
            assert phase0 == ex.ZERO
            assert evaluate(Exp(I * phase0)) == 1
            m = len(model.lrep.q_vars)
            for k, constraint in enumerate(model.kernel.delta_constraints):
                at_e = ex.subst(constraint, x_zero)
                # each collapsed constraint becomes (chart coord) - (primed)
                vs = sorted(ex.free_vars(at_e))
                assert len(vs) == 2 and vs[1] == vs[0] + "p"
            subs0 = [ex.subst(s, x_zero) for s in model.kernel.collapsed.substitutions]
            assert subs0 == [simplify(Var(v)) for v in model.lrep.q_vars]
            assert ex.subst(model.kernel.collapsed.phase, x_zero) == ex.ZERO

    def test_collapsed_action_h3_form(self, h3):
        # T(x) phi (q) = exp(-iJ(q + x2) x1 + iJ x3) phi(q + x2)
        ka = h3.kernel.collapsed
        assert ka.substitutions == (simplify(Var("q") + Var("x2")),)
        expected = simplify(-Var("J") * (Var("q") + Var("x2")) * Var("x1")
                            + Var("J") * Var("x3"))
        assert simplify(ka.phase) == expected


class TestPlaneWaveConvention:
    def test_swapped_factor_is_not_a_solution(self, h3):
        # with exp(i mu x2 + i nu x3) the Airy mode solves the equation;
        # swapping the plane-wave slots breaks it unless mu^2 = nu^2
        mu, nu, e_val = F(1, 2), F(1), F(1)
        good = mode_solution_h3(mu, nu, e_val)
        arg = (2 * nu * nu * Var("x1") + 2 * mu * nu + e_val) \
            * Power(ex.Const(2 * nu * nu), F(-2, 3))
        swapped = simplify(Exp(I * nu * Var("x2") + I * mu * Var("x3"))
                           * Airy("Ai", arg))
        pts = grid3(n=3)
        assert pde_residual(h3, good, e_val, pts).max_residual == 0.0
        bad = pde_residual(h3, swapped, e_val, pts)
        assert bad.max_residual > 1e-2


class TestCasimir:
    def test_h3_center_scalar(self, h3):
        rep = casimir_scalar_check(h3, element=3)
        assert isinstance(rep, CasimirReport)
        assert rep.acts_as_scalar
        assert abs(rep.values[1] - 1j) <= 1e-15
        assert abs(rep.values[-1] + 1j) <= 1e-15

    def test_non_central_rejected(self, h3):
        with pytest.raises(ValueError):
            casimir_scalar_check(h3, element=2)


class TestCanonicalFormFixtures:
    @pytest.mark.parametrize("name,subs", [
        ("g47_g1.json", {"alpha": "1", "beta": "1"}),
        ("g47_g2.json", {"alpha": "1", "beta": "1"}),
        ("g47_g3.json", {"eps": "1", "alpha": "2"}),
        ("g47_g4.json", {"eps": "1", "alpha": "1"}),
        ("g47_g5.json", {"eps": "1", "alpha": "1"}),
    ])
    def test_all_families_are_coisotropic_data(self, g47, name, subs):
        # shipped as data only; each satisfies the null-ideal criterion
        from nclb.algebra import Subspace
        from nclb.bilinear import coisotropy_check
        with open(os.path.join(FIXTURES, name)) as fh:
            doc = json.load(fh)
        gm = form_from_json(doc, subs)
        rep = coisotropy_check(g47.algebra, gm,
                               Subspace.spanned_by_indices(4, (1, 2)))
        assert rep.verdict
