import cmath
import json
import math
import os
import random
import re
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from nclb import expr as ex
from nclb.algebra import jacobi_defect
from nclb.bilinear import form_from_json
from nclb.diffop import DiffOp, SampleSpec, apply, op_equal
from nclb.expr import Airy, Exp, I, Power, Var, evaluate, simplify
from nclb import models
from nclb.models import (CasimirReport, ModelParameterError, SmearedGaussian,
                         SmokeQuadratureError, SmokeSpec,
                         airy_identity_check, casimir_scalar_check,
                         chart_samples, coordinate_expansion_report,
                         haar_invariance_check,
                         invariant_frame_check, kernel_orthogonality_smoke,
                         lambda_roots, laplace_operator,
                         load_model, mode_solution_h3, pde_residual,
                         _pair_inner_product, validate_model)
from nclb.quadrature import gl_nodes
from nclb.report import DEFAULT_SEED, FAIL, PASS, CheckRecord, InconclusiveError, replace

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


class TestLoadModel:
    def test_heisenberg_fields(self, h3):
        assert apply(h3.xi[1], Var("x3")) == Var("x1")
        eta1 = h3.eta[0]
        assert eta1.coeff((0, 0, 1)) == Var("x2")
        assert haar_invariance_check(h3).detail["unimodular"] is True

    def test_g47_twist_and_haar(self, g47):
        assert g47.modular_multiplier == Power(Var("q2"), 4)
        assert g47.haar.left_density == Exp(4 * Var("x4"))
        assert haar_invariance_check(g47).detail["unimodular"] is False

    def test_bad_parameters(self):
        with pytest.raises(ModelParameterError):
            load_model("g4_7", alpha=0, beta=0)
        with pytest.raises(ModelParameterError):
            load_model("g4_7", alpha=1, beta=-1)  # alpha^2 + 4 beta < 0
        with pytest.raises(ModelParameterError):
            load_model("nope")

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    @pytest.mark.parametrize("value, why", [
        ("1/0", "not a rational: '1/0'"), ("pony", "not a rational: 'pony'"),
        (0.5, "cannot coerce 0.5 to a rational"),
    ])
    def test_a_parameter_that_is_no_rational_is_a_parameter_error(self, name, value, why):
        with pytest.raises(ModelParameterError, match=f"^g4_7 parameter {name}: {why}$"):
            load_model("g4_7", **{name: value})

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


def _law_records(**failing):
    """The records `validate_model` returns at DEFAULT_SEED when each check
    named in `failing` fails with that max_residual and every other one is
    proved: identity_law exactly, the other three over 50 samples."""
    records = [CheckRecord(check="jacobi", status=PASS, max_residual=0.0)]
    for check in ("coframe_duality", "identity_law", "associativity", "inverse_law"):
        dev = failing.get(check)
        sampled = check != "identity_law"
        records.append(CheckRecord(
            check=check, status=PASS if dev is None else FAIL,
            max_residual=0.0 if dev is None else dev,
            samples_used=50 if sampled and dev is not None else 0,
            seed=DEFAULT_SEED if sampled else None))
    return records


def _h3_law(extra):
    """The Heisenberg law with `extra` added to its z3."""
    def build(h3, _g47):
        z1, z2, z3 = h3.mult_law
        return replace(h3, mult_law=(z1, z2, z3 + extra))
    return build


def _h3_coframe_row3(h3, _g47):
    """The Heisenberg coframe with omega^3_2 = +x1 where it is -x1."""
    return replace(h3, dual_forms=h3.dual_forms[:2] + ((ex.ZERO, Var("x1"), ex.ONE),))


def _g47_z4(_h3, g47):
    """The g4,7 law with z4 = x4 + y4 + x1 y1."""
    z4 = Var("x4") + Var("y4") + Var("x1") * Var("y1")
    return replace(g47, mult_law=g47.mult_law[:3] + (z4,))


class TestLawRecords:
    """`validate_model`'s records of a faulty law or coframe, figures
    included: a fault fails the record it breaks and every record its
    figures reach; the models as built prove every record."""

    @pytest.mark.parametrize("fault, failing", [
        # z3 = x3 + y3 + 2 x1 y2 is associative, with the wrong inverse
        (_h3_law(Var("x1") * Var("y2")),
         {"inverse_law": 1.849802620732936}),
        (_h3_law(Var("x1") ** 2 * Var("y2")),
         {"associativity": 1.7050967867884406, "inverse_law": 2.6447662880226748}),
        (_h3_law(Var("y1") * Var("y2")),
         {"identity_law": 1.0, "associativity": 2.0100713866456204,
          "inverse_law": 1.849802620732936}),
        (_h3_coframe_row3, {"coframe_duality": 2.9896877892485447}),
        (_g47_z4, {"associativity": 55.06679345952827, "inverse_law": 3.583339203161784}),
        (lambda h3, _g47: h3, {}),
        (lambda _h3, g47: g47, {}),
    ], ids=["h3-z3-2x1y2", "h3-z3-x1sq-y2", "h3-z3-y1y2", "h3-coframe-32", "g47-z4-x1y1",
            "h3-as-built", "g47-as-built"])
    def test_law_records_figures_included(self, h3, g47, fault, failing):
        assert validate_model(fault(h3, g47)) == _law_records(**failing)


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
        bad = replace(h3, eta=(bad_eta1,) + h3.eta[1:])
        rec = invariant_frame_check(bad)[0]
        assert not rec.passed
        assert ("right", 1, 2) in rec.detail["failing"]

    def test_failing_relation_counts_its_samples(self, h3):
        # [2 eta_1, eta_2] = -2 eta_3 against the target -eta_3 is the one
        # relation whose defect is not a symbolic zero, so it alone is sampled
        bad = replace(h3, eta=(h3.eta[0].scale(2),) + h3.eta[1:])
        rec = invariant_frame_check(bad)[0]
        assert rec.max_residual == 0.5
        assert rec.detail["failing"] == [("right", 1, 2)]
        assert (rec.samples_used, rec.skipped_samples) == (40, 0)

    def test_haar_invariance(self, h3, g47):
        assert haar_invariance_check(h3).passed
        rec = haar_invariance_check(g47)
        assert rec.passed
        assert rec.max_residual <= 1e-10

    def test_haar_figures_for_the_default_seed(self, h3):
        # proved exactly: no sample is drawn, on H3 and on g4,7 at three (alpha, beta)
        for model in [h3] + [load_model("g4_7", alpha=F(a), beta=F(b))
                             for a, b in ((1, 1), (3, F(-1, 8)), (1, 2))]:
            rec = haar_invariance_check(model)
            assert (rec.max_residual, rec.detail["left"], rec.detail["right"]) == (0.0, 0.0, 0.0)
            assert (rec.samples_used, rec.skipped_samples) == (0, 0)

    @pytest.mark.parametrize("name, side, density", [
        ("g4_7", "left", Exp(3 * Var("x4"))),
        ("heisenberg", "right", Exp(Var("x1"))),
    ], ids=["g4_7-left", "heisenberg-right"])
    def test_a_wrong_density_fails_with_a_sampled_deviation(self, name, side, density):
        model = load_model(name)
        bad = replace(model, haar=replace(model.haar, **{f"{side}_density": density}))
        rec = haar_invariance_check(bad)
        assert not rec.passed
        assert math.isfinite(rec.max_residual) and rec.max_residual > 0.0
        assert rec.detail[side] == rec.max_residual
        assert rec.detail["right" if side == "left" else "left"] == 0.0
        assert rec.samples_used > 0

    def test_chart_samples_draw_the_box_coordinate_by_coordinate(self, h3, g47):
        for model in (h3, g47):
            rng = random.Random(DEFAULT_SEED)
            ranges = [model.lrep.sample_ranges[v] for v in model.lrep.q_vars]
            expected = [tuple(rng.uniform(lo, hi) for lo, hi in ranges)
                        for _ in range(30)]
            assert chart_samples(model, 30) == expected

    def test_every_chart_domain_answers_an_array_as_it_answers_points(self):
        # `solve_reduced` calls the domain once on the (m, N) float array of
        # a characteristic's points; each column must get the verdict its
        # point gets as a tuple, inside and just outside the chart
        checked = 0
        for name in sorted(models.BUILDERS):
            model = load_model(name)
            domain = model.chart_domain
            if domain is None:
                continue
            points = [np.array(p) for p in chart_samples(model, 30)]
            for p in list(points):
                for step in np.concatenate((np.eye(len(p)), -np.eye(len(p)))):
                    out = next((p + 2.0 ** k * step for k in range(-3, 12)
                                if not domain(tuple(p + 2.0 ** k * step))), None)
                    if out is None:
                        continue
                    lo, hi = p, out  # bisect to the boundary: lo inside, hi outside
                    for _ in range(80):
                        mid = (lo + hi) / 2
                        lo, hi = (mid, hi) if domain(tuple(mid)) else (lo, mid)
                    points += [lo, hi]
            each = [bool(domain(tuple(p.tolist()))) for p in points]
            assert any(each) and not all(each)
            verdicts = domain(np.array(points).T)
            assert isinstance(verdicts, np.ndarray) and verdicts.dtype == bool
            assert verdicts.tolist() == each
            checked += 1
        assert checked


class TestTranslationDeterminant:
    """`models._det` of the translation Jacobians against numpy's det of the
    evaluated Jacobians, the oracle."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_symbolic_det_matches_numpy(self, h3, g47, side):
        for model in (h3, g47):
            n = model.dim
            x_names = list(model.x_vars)
            y_names = [f"y{i + 1}" for i in range(n)]
            wrt = y_names if side == "left" else x_names
            jac = [[ex.differentiate(z, v) for v in wrt] for z in model.mult_law]
            det = models._det(jac)
            fn = ex.compile_expr((det,) + tuple(e for row in jac for e in row),
                                 x_names + y_names)
            rng = random.Random(DEFAULT_SEED)
            for _ in range(100):
                vals = [v.real for v in fn(*(rng.uniform(-1.0, 1.0)
                                             for _ in range(2 * n)))]
                oracle = np.linalg.det(np.array(vals[1:]).reshape(n, n))
                assert abs(vals[0] - oracle) <= 1e-13 * abs(oracle), (model.name, vals)

    def test_small_matrices(self):
        x, y = Var("x"), Var("y")
        assert models._det([]) == ex.ONE
        assert models._det([[ex.ZERO]]) == ex.ZERO
        assert models._det([[x, y], [y, x]]) == simplify(x * x - y * y)
        assert models._det([[x, y, ex.ONE], [2 * x, 2 * y, ex.ONE],
                            [ex.ONE, x, y]]) == simplify(x * x - y)
        assert models._det([[x, y, ex.ONE], [2 * x, 2 * y, 2 * ex.ONE],
                            [ex.ONE, x, y]]) == ex.ZERO  # singular


class TestLaplacian:
    def test_h3_printed_exactly(self, h3):
        delta = laplace_operator(h3)
        assert delta.coefficients == h3.printed_laplacian.coefficients

    def test_assembled_once_per_model(self, h3, monkeypatch):
        calls = []
        assemble = models.laplacian_image
        monkeypatch.setattr(models, "laplacian_image",
                            lambda *a: calls.append(a) or assemble(*a))
        model = replace(h3)  # a new model assembles its own Laplacian
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
        assert replace(h3, xi=xi).laplacian.coeff((2, 0, 0)) == ex.const(4)
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


def _drawn_members(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        # |mu| <= 2, 1/4 <= |nu| <= 3 and |E| <= 5 keep the Airy argument
        # moderate on grid3, so the field is not numerically zero
        mu = F(rng.randint(-400, 400), 200)
        nu = F(rng.choice((-1, 1)) * rng.randint(50, 600), 200)
        yield mu, nu, F(rng.randint(-900, 900), 180), "Ai"
    # nu < 0, nu = 1, mu = 0 (the 2 mu nu term drops) and the Bi kind
    yield F(1, 3), F(-5, 4), F(2), "Ai"
    yield F(3, 7), F(1), F(-1, 2), "Ai"
    yield F(0), F(2, 3), F(5, 2), "Ai"
    yield F(-3, 5), F(7, 4), F(-1, 3), "Bi"
    yield F(0.3), F(0.7), F(1.1), "Ai"  # float-exact rationals


class TestModeFamily:
    def test_fields(self, h3, g47):
        mu, nu, e = Var("mu"), Var("nu"), Var("E")
        assert h3.mode_family == {kind: mode_solution_h3(mu, nu, e, kind)
                                  for kind in models.MODE_KINDS}
        assert g47.mode_family is None

    def test_the_proof_is_not_part_of_loading(self):
        model = load_model("heisenberg")
        assert "mode_family" not in vars(model) and "mode_proofs" not in vars(model)
        assert models._family_solves(model, "Ai") and models._family_solves(model, "Bi")
        assert model.mode_proofs == {"Ai": True, "Bi": True}

    @pytest.mark.parametrize("mu,nu,e_val,kind", list(_drawn_members(21, 6)))
    def test_family_path_gives_the_members_own_report(self, h3, monkeypatch,
                                                      mu, nu, e_val, kind):
        # the oracle proves the member itself: operator_residual on its tree
        from nclb import reduction
        psi = mode_solution_h3(mu, nu, e_val, kind)
        pts = grid3(n=3)
        oracle = reduction.operator_residual(h3.laplacian, psi, e_val, pts,
                                             fd_step=0.02)
        assert oracle.symbolic_zero
        applied = []
        monkeypatch.setattr(reduction, "apply",
                            lambda op, f: applied.append(f) or apply(op, f))
        assert pde_residual(h3, psi, e_val, pts) == oracle
        assert applied == []
        # a tree equal to the member, built apart from it, takes the same path
        assert pde_residual(h3, ex.subst(psi, {}), e_val, pts) == oracle

    def test_another_energy_takes_the_concrete_path(self, h3, monkeypatch):
        from nclb import reduction
        psi = mode_solution_h3(F(1, 2), F(3, 2), F(1))
        applied = []
        monkeypatch.setattr(reduction, "apply",
                            lambda op, f: applied.append(f) or apply(op, f))
        for energy in (F(2), 1.0):
            applied.clear()
            rep = pde_residual(h3, psi, energy, grid3(n=3))
            assert applied == [psi]
            assert not rep.symbolic_zero
            # (E_member - energy) psi, relative to psi
            assert rep.max_residual == pytest.approx(float(energy) - 1.0, abs=1e-12)

    def test_a_new_member_runs_no_apply_and_no_exec(self, h3, monkeypatch):
        import builtins
        from nclb import diffop, reduction
        pts = grid3(n=3)
        names = list(h3.x_vars)
        for mu, nu, e_val in ((F(1, 3), F(4, 5), F(7, 6)), (F(-2, 9), F(5, 3), F(-3, 4))):
            psi = mode_solution_h3(mu, nu, e_val)
            pde_residual(h3, psi, e_val, pts)
            ex.compile_expr(psi, names)
        calls = []
        real_exec = builtins.exec
        monkeypatch.setattr(builtins, "exec",
                            lambda *a: calls.append("exec") or real_exec(*a))
        for mod in (diffop, reduction, models):
            monkeypatch.setattr(mod, "apply",
                                lambda op, f: calls.append("apply") or apply(op, f))
        psi = mode_solution_h3(F(5, 11), F(-6, 7), F(9, 4))
        rep = pde_residual(h3, psi, F(9, 4), pts)
        values = [ex.compile_expr(psi, names)(*p) for p in pts]
        assert calls == []
        assert rep.symbolic_zero and rep.max_residual == 0.0
        assert values == [evaluate(psi, dict(zip(names, p))) for p in pts]

    def test_every_held_member_keeps_the_proved_path(self, monkeypatch):
        # 80 members built before any is checked: a cap of 64 on the
        # remembered members sent the oldest 16 back to apply
        from nclb import diffop, reduction
        model = load_model("heisenberg")
        drawn = list(_drawn_members(44, 75))
        members = [mode_solution_h3(mu, nu, e_val, kind) for mu, nu, e_val, kind in drawn]
        assert len(set(members)) == 80
        calls = []
        for mod in (diffop, reduction, models):
            monkeypatch.setattr(mod, "apply", lambda op, f, mod=mod:
                                calls.append(mod.__name__) or apply(op, f))
        pts = grid3(n=3)
        for psi, (_, _, e_val, _) in zip(members, drawn):
            assert pde_residual(model, psi, e_val, pts).symbolic_zero
        # only the family proofs, one per kind
        assert calls == ["nclb.models"] * len(models.MODE_KINDS)


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

    @pytest.mark.parametrize("x,t", [(1.0, math.inf), (1.0, -math.inf),
                                     (1.0, math.nan), (math.nan, 1.0),
                                     (math.inf, 1.0)])
    def test_non_finite_arguments_rejected(self, x, t):
        # an infinite t passed vacuously with 0.0, and a NaN ran six
        # quadrature doublings before giving up
        with pytest.raises(ModelParameterError, match="finite"):
            airy_identity_check(x, t)

    def test_an_overflowing_contour_is_inconclusive_without_warnings(self):
        # two numpy RuntimeWarnings came first (warnings fail the suite)
        with pytest.raises(InconclusiveError, match="not finite"):
            airy_identity_check(-60.0, 1e-3)


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
        # 0 reported e3's values, -1 e2's verdict, 7 raised IndexError and
        # 3.0 TypeError
        for element in (2, 0, -1, 4, 7, 3.0):
            with pytest.raises(ValueError, match=f"basis element {element} is not central"):
                casimir_scalar_check(h3, element=element)


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


class TestVerifyChecks:
    def test_each_entry_names_its_record_and_passes(self, h3, g47):
        for model in (h3, g47):
            records = [check(model, DEFAULT_SEED) for _, check in model.checks]
            assert [r.check for r in records] == [name for name, _ in model.checks]
            assert all(r.passed for r in records)
        assert g47.mode_solution is None and g47.inverse_gft is None

    def test_a_wrong_printed_term_fails_the_coordinate_expansion(self, h3):
        printed = DiffOp(h3.x_vars, {**h3.printed_laplacian.coefficients,
                                     (0, 0, 2): 3 * Var("x1")})
        bad = replace(h3, printed_laplacian=printed)
        rec = dict(bad.checks)["coordinate_expansion"](bad, DEFAULT_SEED)
        assert rec.status == "fail"
        assert rec.detail == {"terms": 3, "mismatched": [(0, 0, 2)]}
        assert 1.0 < rec.max_residual <= 1.5  # |x1| on [-1.5, 1.5]
        # the one mismatched term is sampled at the spec's 40 points
        assert (rec.samples_used, rec.skipped_samples, rec.seed) == (
            40, 0, DEFAULT_SEED)


# --- kernel smoke ------------------------------------------------------------

def _smoke_heisenberg_per_x2(a, b, j_val, jt_val, spec):
    """The Heisenberg smoke pairing by quadrature over s, x1 and x2, as it
    was computed before it went in closed form: two matrix-vector products
    per x2 node.  Its s rule has 256 nodes in both passes, so it converges
    and the refinement change measures the x1 and x2 rules only."""
    wq_a, wq_b = a.width, b.width
    ca1, ca2 = a.centers
    cb1, cb2 = b.centers
    s3 = models._WINDOW
    sx1 = math.sqrt(2.0) / (min(abs(j_val), abs(jt_val)) * min(wq_a, wq_b))
    lx1 = 7.0 * sx1
    c_x2 = [ca2 - ca1, cb2 - cb1]
    lo_x2 = min(c_x2) - 7.0 * (wq_a + wq_b)
    hi_x2 = max(c_x2) + 7.0 * (wq_a + wq_b)
    q_lo = min(ca1, cb1, ca2, cb2) - 7.0 * max(wq_a, wq_b)
    q_hi = max(ca1, cb1, ca2, cb2) + 7.0 * max(wq_a, wq_b)

    def compute(n_outer):
        x1, w1 = gl_nodes(n_outer, -lx1, lx1)
        x2, w2 = gl_nodes(n_outer, lo_x2, hi_x2)
        s, ws = gl_nodes(256, q_lo, q_hi)
        phase_a = np.exp(1j * j_val * np.outer(s, x1))
        phase_b = np.exp(-1j * jt_val * np.outer(s, x1))
        total = 0j
        for x2v, w2v in zip(x2, w2):
            fa = np.exp(-((s - x2v - ca1) ** 2 + (s - ca2) ** 2)
                        / (2.0 * wq_a ** 2)) * ws
            fb = np.exp(-((s - x2v - cb1) ** 2 + (s - cb2) ** 2)
                        / (2.0 * wq_b ** 2)) * ws
            total += w2v * np.sum(w1 * (fa @ phase_a) * (fb @ phase_b))
        return total

    coarse = compute(spec.n_outer)
    refined = compute(spec.n_outer * 2)
    w3_hat = math.sqrt(2.0 * math.pi) * s3 * math.exp(-0.5 * (s3 * (jt_val - j_val)) ** 2)
    inner = models._pair_inner_product(a, b)
    predicted = (2.0 * math.pi / abs(j_val)) * w3_hat * inner
    w3_hat0 = math.sqrt(2.0 * math.pi) * s3
    scale = (2.0 * math.pi / abs(j_val)) * w3_hat0 * math.sqrt(
        models._pair_inner_product(a, a)) * math.sqrt(models._pair_inner_product(b, b))
    conv = abs(refined - coarse) * w3_hat0 / scale
    dev = abs(w3_hat * refined - predicted) / scale
    return dev, conv, complex(w3_hat * refined), complex(predicted), scale


C12_H3 = (SmearedGaussian(centers=(0.1, -0.2), width=0.5),
          SmearedGaussian(centers=(-0.1, 0.15), width=0.45))


def _g47_tensor_rule(a, b, j_val, spec):
    """The 4d smoke's refined pass by brute force: the integrand at u = t
    = 0 on a tensor rule over (s, q1, x3), with b's Gaussian taken at the
    chart map and x4 the overlap of a's and b's x4 Gaussians.  The s rule is
    the refined pass's.  The q1 rule has 64 nodes on ca1 +- 10 wa, and the
    x3 rule 64 nodes per (s, q1) node, on 10 product widths around where
    a's and b's q1' Gaussians meet, so both converge."""
    wa, wb = a.width, b.width
    ca1, cas, ca1p, casp = a.centers
    cb1, cbs, cb1p, cbsp = b.centers
    s, ws = (x[:, None, None] for x in gl_nodes(spec.n_outer, cas - 8.0 * wa,
                                                cas + 8.0 * wa))
    q1, wq1 = (x[:, None] for x in gl_nodes(64, ca1 - 10.0 * wa, ca1 + 10.0 * wa))
    q2 = np.exp(s)
    p_c = 0.5 * (ca1p + cb1p)
    p_half = 10.0 * wa * wb / math.sqrt(wa * wa + wb * wb) + 0.5 * abs(ca1p - cb1p)
    x3, wx3 = gl_nodes(64, (q1 - p_c - p_half) / q2, (q1 - p_c + p_half) / q2)
    t0 = 0.5 * j_val * q2 * (2.0 * q1 - q2 * x3)
    qt1 = t0 / (j_val * q2) + 0.5 * q2 * x3
    a_free = np.exp(-((q1 - ca1) ** 2 + (s - cas) ** 2 + (q1 - q2 * x3 - ca1p) ** 2)
                    / (2.0 * wa * wa))
    b_free = np.exp(-((qt1 - cb1) ** 2 + (s - cbs) ** 2 + (qt1 - q2 * x3 - cb1p) ** 2)
                    / (2.0 * wb * wb))
    # 2 pi from each delta times the u measure q2/2
    integrand = (2.0 * math.pi) ** 2 * 0.5 * q2 * a_free * b_free * models._gauss_overlap_1d(
        s - casp, wa, s - cbsp, wb)
    return float(np.sum(ws * wq1 * wx3 * integrand))


# c12's g4,7 pair, and a pair drawn as the benchmark draws its smoke pairs
C12_G47 = (SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.3),
           SmearedGaussian(centers=(1.1, 0.05, 1.05, -0.05), width=0.28))
BENCH_G47 = (SmearedGaussian(centers=(1.23, 0.07, 0.98, 0.04), width=0.31),
             SmearedGaussian(centers=(1.08, 0.09, 1.02, -0.01), width=0.265))
# c12's pair at width 0.15, and with its s centres moved to -1.0 and -1.05
NARROW_G47 = (SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.15),
              SmearedGaussian(centers=(1.1, 0.05, 1.05, -0.05), width=0.15))
LOW_S_G47 = (SmearedGaussian(centers=(1.2, -1.0, 1.0, 0.0), width=0.3),
             SmearedGaussian(centers=(1.1, -1.05, 1.05, -0.05), width=0.28))


def _h3_pairs():
    """c12's Heisenberg pair and 5 drawn as the benchmark draws its smoke
    pairs: centres within 0.05 and widths within 0.02 of c12's."""
    rng = np.random.default_rng(36)

    def near(g):
        return SmearedGaussian(centers=tuple(g.centers + rng.uniform(-0.05, 0.05, 2)),
                               width=g.width + rng.uniform(-0.02, 0.02))
    return [C12_H3] + [(near(C12_H3[0]), near(C12_H3[1])) for _ in range(5)]


class TestSmoke:
    @pytest.mark.parametrize("pair", _h3_pairs())
    @pytest.mark.parametrize("j_val, jt_val", [(1.0, 1.0), (1.0, -1.0), (2.0, 2.0),
                                               (-2.0, 2.0), (0.5, 0.5)])
    def test_closed_form_heisenberg_matches_the_quadrature(self, pair, j_val, jt_val):
        # the quadrature over s, x1 and x2 converges to ~2e-14 of the scale;
        # the closed form refines no rule
        got = models._smoke_heisenberg(*pair, j_val, jt_val, SmokeSpec())
        want = _smoke_heisenberg_per_x2(*pair, j_val, jt_val, SmokeSpec())
        scale = want[4]
        assert abs(got[2] - want[2]) <= 1e-13 * scale
        assert abs(got[0] - want[0]) <= 1e-13
        assert got[1] == 0.0 and got[3:] == want[3:]
        if j_val == jt_val:
            # the closed form meets the prediction to rounding
            assert got[0] <= 1e-15

    def test_heisenberg_reads_no_node_count(self, h3):
        # n_outer set the x1 and x2 rules and n_inner the s rule; 8 x1 and
        # x2 nodes were inconclusive
        for jt_val in (1.0, -1.0):
            got = {models._smoke_heisenberg(*C12_H3, 1.0, jt_val, spec)
                   for spec in (SmokeSpec(8, 8), SmokeSpec(), SmokeSpec(97, 40))}
            assert len(got) == 1
        (rec,) = kernel_orthogonality_smoke(h3, [(*C12_H3, 1, 1)], SmokeSpec(8, 8))
        assert rec.status == "pass" and rec.detail["refinement_change"] == 0.0

    @pytest.mark.parametrize("j_val", [1e-170, -1e-170, 1e200, -1e200])
    def test_a_heisenberg_j_whose_square_under_or_overflows_raises(self, h3, j_val):
        # 1e-170 ended in numpy overflow warnings, 1e200 in a bare
        # OverflowError from a float power
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SmokeQuadratureError,
                               match=re.escape(f"J = {j_val!r}, Jt = {j_val!r}")):
                kernel_orthogonality_smoke(h3, [(*C12_H3, j_val, j_val)])

    def test_a_large_heisenberg_orbit_gap_gives_zero(self, h3):
        # (3 (Jt - J))^2 overflowed a float power; the x3 window is 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (rec,) = kernel_orthogonality_smoke(h3, [(*C12_H3, 1e154, 1.0)])
        assert rec.passed
        assert rec.detail["measured"] == [0.0, 0.0] == rec.detail["predicted"]

    @pytest.mark.parametrize("pair", [C12_G47, BENCH_G47, NARROW_G47, LOW_S_G47])
    @pytest.mark.parametrize("j_val", [1, -1])
    def test_g47_meets_the_sharp_limit(self, g47, pair, j_val):
        # x1/x2 windows of width 128 left deviations of 5.05e-4 on c12's
        # pair, 1.45e-3 (fail) at width 0.15 and 1.7e-2 (fail) at s centre
        # -1.0, while the refinement change read ~1e-9
        same, opposite = kernel_orthogonality_smoke(
            g47, [(*pair, j_val, j_val), (*pair, j_val, -j_val)])
        assert same.passed and same.detail["measured"][1] == 0.0
        assert same.max_residual < 1e-9 and same.detail["refinement_change"] < 1e-9
        # across orbits the pairing is 0 by support
        assert opposite.passed and opposite.max_residual == 0.0
        assert opposite.detail["measured"] == [0.0, 0.0] == opposite.detail["predicted"]

    @pytest.mark.parametrize("pair", [C12_G47, BENCH_G47, NARROW_G47, LOW_S_G47])
    @pytest.mark.parametrize("j_val", [1.0, -1.0, 2.0])
    def test_the_refined_pass_matches_a_tensor_rule(self, pair, j_val):
        spec = SmokeSpec()
        got = models._smoke_g47(*pair, j_val, j_val, spec)[2]
        want = _g47_tensor_rule(*pair, j_val, spec)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("j_val", [1.0, -1.0, 2.0])
    def test_the_g47_exponent_is_a_and_b_at_the_chart_map(self, j_val):
        # the exponent's (M, b, c), in the offsets from a's centre point, at
        # a seeded (q1, eta, x4, s) grid within 3 widths of a's centres,
        # against the logs of a's Gaussian at (q1, s, q1 - q2 x3, s - x4)
        # and b's at qt1 = t0/(J q2) + q2 x3/2, st = s, qt1' = qt1 - q2 x3
        # and st' = s - x4, evaluated directly
        a, b = BENCH_G47
        ca1, cas, ca1p, casp = a.centers
        rng = np.random.default_rng(41)
        q1, eta, x4, s = np.meshgrid(*(rng.uniform(c - 3.0 * a.width, c + 3.0 * a.width, 6)
                                       for c in (ca1, -ca1p, cas - casp, cas)),
                                     indexing="ij")
        q2 = np.exp(s)
        x3 = (q1 + eta) / q2
        t0 = 0.5 * j_val * q2 * (2.0 * q1 - q2 * x3)
        qt1 = t0 / (j_val * q2) + 0.5 * q2 * x3

        def log_gauss(g, point):
            return -sum((p - c) ** 2 for p, c in zip(point, g.centers)) / (2.0 * g.width ** 2)

        want = (log_gauss(a, (q1, s, q1 - q2 * x3, s - x4))
                + log_gauss(b, (qt1, s, qt1 - q2 * x3, s - x4)))
        m, lin, c = models._g47_exponent(a, b, j_val, s)
        x = (q1 - ca1, eta + ca1p, x4 - (s - casp))
        got = c + sum(lin[i] * x[i] - sum(m[i][j] * x[i] * x[j] for j in range(3))
                      for i in range(3))
        assert np.all(np.abs(got - want) <= 1e-13)

    def test_the_refinement_change_sees_the_s_box(self):
        # b's s centre 5 widths off a's: the s integrand is a Gaussian of
        # centre 0.75 and width 0.3/sqrt(2), and the coarse pass's box
        # (+-6.5 widths, to 1.95) clips its upper tail, 0.5 erfc(4) of the
        # pairing, while the refined pass's (+-8) clips ~4e-15 of it.  Both
        # rules converge at these node counts, so that tail is the change
        a = SmearedGaussian(centers=(1.2, 0.0, 1.0, 0.0), width=0.3)
        b = SmearedGaussian(centers=(1.1, 1.5, 1.05, 0.0), width=0.3)
        dev, conv, measured, _, scale = models._smoke_g47(a, b, 1.0, 1.0,
                                                          SmokeSpec(300, 299))
        assert dev <= 1e-15
        assert conv == pytest.approx(0.5 * math.erfc(4.0) * measured.real / scale,
                                     rel=1e-4)

    def test_the_x4_integral_is_the_gaussian_overlap(self):
        # a's x4 Gaussian times b's at 16 seeded (s, st) points of the
        # benchmark-drawn pair, by quad on 12 product widths around the
        # product's centre, against the overlap over the whole line that
        # the 4d prediction and the tensor rule take
        from scipy.integrate import quad

        a, b = BENCH_G47
        wa, wb = a.width, b.width
        cas, casp, cbsp = a.centers[1], a.centers[3], b.centers[3]
        rng = np.random.default_rng(38)
        s = rng.uniform(cas - 6.5 * wa, cas + 6.5 * wa, 16)
        st = s + rng.uniform(-0.5, 0.5, 16)
        got = models._gauss_overlap_1d(s - casp, wa, st - cbsp, wb)
        w2 = wa * wa + wb * wb
        half = 12.0 * wa * wb / math.sqrt(w2)
        for sv, stv, g in zip(s, st, got):
            mid = (wb * wb * (sv - casp) + wa * wa * (stv - cbsp)) / w2
            want, _ = quad(lambda x: math.exp(-(sv - x - casp) ** 2 / (2.0 * wa * wa)
                                              - (stv - x - cbsp) ** 2 / (2.0 * wb * wb)),
                           mid - half, mid + half, epsabs=0.0, epsrel=2e-14, limit=200)
            assert abs(g - want) <= 1e-13 * want
        # on scalars the overlap products stay plain floats
        assert type(models._pair_inner_product(a, b)) is float

    @pytest.mark.parametrize("big_a, big_b, big_c", [
        (1.0, 0.0, 0.0),
        (2.5, 1.0 - 0.5j, 0.3j),
        (1.0 + 0.01j, -0.3 + 1.5j, 0.2),
        # |Im A| >> Re A: a chirp under a wide envelope
        (0.5 + 6.0j, 0.7 + 2.0j, -0.2 + 1.0j),
        (0.3 - 4.0j, -1.5 + 0.5j, 0.1),
        (0.2 + 3.0j, 0.0, 0.0),
    ])
    def test_a_one_variable_gaussian_integral_matches_quad(self, big_a, big_b, big_c):
        from scipy.integrate import quad

        def f(x):
            return np.exp(-big_a * x * x + big_b * x + big_c)

        # the envelope e^{-Re A x^2 + Re B x} is below e^{-80} of its peak
        # outside this box
        mid = np.real(big_b) / (2.0 * np.real(big_a))
        half = math.sqrt(80.0 / np.real(big_a))
        re, im = (quad(lambda x: part(f(x)), mid - half, mid + half,
                       limit=2000, epsabs=1e-15, epsrel=1e-12)[0]
                  for part in (np.real, np.imag))
        got = complex(models._gaussian_integral(
            [[np.array([big_a], complex)]], [np.array([big_b], complex)],
            np.array([big_c], complex))[0])
        assert got.real == pytest.approx(re, rel=1e-12, abs=1e-300)
        assert got.imag == pytest.approx(im, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("big_a", [0.0, -1.0, 2.0j, -0.5 + 3.0j, math.nan])
    def test_a_gaussian_integral_raises_unless_its_pivot_has_re_above_0(self, big_a):
        # a good pivot beside the bad one does not hide it
        with pytest.raises(SmokeQuadratureError, match="pivot 0 .* Re > 0"):
            models._gaussian_integral([[np.array([1.0, big_a], complex)]],
                                      [np.zeros(2, complex)], np.zeros(2, complex))

    def test_a_two_variable_chirp_matches_nested_quad(self):
        # a complex off-diagonal couples the variables, and Im M is not small
        # beside Re M, whose eigenvalues are about 0.51 and 1.19
        from scipy.integrate import quad

        m = [[1.0 + 0.5j, 0.3 + 0.8j], [0.3 + 0.8j, 0.7 - 0.2j]]
        lin = [0.2 + 0.4j, -0.5j]
        c = 0.1 - 0.2j

        def f(x1, x2):
            return cmath.exp(c + lin[0] * x1 + lin[1] * x2 - m[0][0] * x1 * x1
                             - 2.0 * m[0][1] * x1 * x2 - m[1][1] * x2 * x2)

        # the envelope is below e^{-60} of its peak outside this box
        half = 12.0
        want = complex(*(quad(lambda x1: quad(lambda x2: part(f(x1, x2)), -half, half,
                                              limit=400, epsabs=1e-13, epsrel=1e-13)[0],
                              -half, half, limit=400, epsabs=1e-12, epsrel=1e-12)[0]
                         for part in (lambda z: z.real, lambda z: z.imag)))
        got = complex(models._gaussian_integral(m, lin, c))
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_heisenberg_with_x1_first_raises(self, monkeypatch):
        # x1 has no square of its own: its pivot has a real part only once s
        # and s' are integrated out.  First it raises rather than take a
        # branch of sqrt(pi/p) at p = 0; after s and s', in either place, it
        # gives the smoke's value.
        seen = []
        real = models._gaussian_integral
        monkeypatch.setattr(models, "_gaussian_integral",
                            lambda *mbc: seen.append(mbc) or real(*mbc))
        models._smoke_heisenberg(*C12_H3, 1.0, -1.0, SmokeSpec())
        ((m, lin, c),) = seen

        def ordered(order):
            return ([[m[i][j] for j in order] for i in order], [lin[i] for i in order], c)

        with pytest.raises(SmokeQuadratureError, match="pivot 0 .* Re > 0"):
            real(*ordered([3, 0, 1, 2]))
        want = real(m, lin, c)
        assert abs(real(*ordered([0, 1, 3, 2])) - want) <= 1e-14 * abs(want)

    def test_one_gaussian_integral_per_pass(self, monkeypatch):
        # at SmokeSpec(72, 48) the coarse pass has 48 s nodes and the refined
        # pass 72: per pass one integral over (q1, eta, x4) at all its s
        # nodes, and no q1, x3 or x4 nodes
        shapes = []
        real = models._gaussian_integral

        def counted(*mbc):
            value = real(*mbc)
            shapes.append(np.shape(value))
            return value

        monkeypatch.setattr(models, "_gaussian_integral", counted)
        models._smoke_g47(*BENCH_G47, 1.0, 1.0, SmokeSpec(72, 48))
        assert shapes == [(48,), (72,)]

    @pytest.mark.parametrize("name, pair", [
        ("heisenberg", ((0.1, -0.2), (0.1 + 1e-8, -0.2 - 1e-8))),
        ("g4_7", ((1.2, 0.1, 1.0, 0.0), (1.2 + 1e-8, 0.1 - 1e-8, 1.0 + 1e-8, 5e-9))),
    ])
    def test_a_narrow_pair_a_width_apart_meets_the_sharp_limit(self, name, pair, request):
        # width 1e-8: the exponent's constant terms are the centres' squares
        # over the widths', ~1e14, unless it is stated from a's centres; the
        # Heisenberg smoke read a deviation of 0.047 when they cancelled
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        a, b = (SmearedGaussian(centers=c, width=1e-8) for c in pair)
        (rec,) = kernel_orthogonality_smoke(model, [(a, b, 1, 1)])
        assert rec.passed and rec.max_residual <= 1e-11
        assert rec.detail["measured"][0] > 0.5 * rec.detail["predicted"][0] > 0

    @pytest.mark.parametrize("width", [1e-154, 1e-100, 1e-20, 0.01, 1e20, 1e100, 1e154])
    @pytest.mark.parametrize("name", ["heisenberg", "g4_7"])
    def test_every_accepted_width_ends_in_a_record_or_a_quadrature_error(
            self, name, width, request):
        # c12's pairs at one width for both sides.  1e-100 raised a bare
        # ZeroDivisionError in the Heisenberg smoke and 1e100 failed it with
        # NaN; the g4,7 smoke warned from 1e-20 up, and at 0.01 it failed
        # with NaN (a factor of 0 times one of inf) where the pairing is
        # 1.95e-25.  A width whose pairing or scale leaves the doubles
        # raises SmokeQuadratureError; every record it gives passes.
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        a, b = (replace(g, width=width) for g in (C12_G47 if name == "g4_7" else C12_H3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                records = kernel_orthogonality_smoke(model, [(a, b, 1, 1), (a, b, 1, -1)])
            except SmokeQuadratureError:
                return
        assert all(r.passed for r in records)
        if name == "g4_7" and width == 0.01:
            assert records[0].max_residual <= 1e-9

    @pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-12, 1e-15, 1e-17, 1e-20, 1e-60])
    @pytest.mark.parametrize("name, centers", [
        ("heisenberg", (1.2, 0.1)), ("g4_7", (1.2, 0.1, 1.0, 0.0))])
    def test_a_narrow_pair_a_width_apart_passes_or_raises_naming_the_width(
            self, name, centers, width, request):
        # below 1e-10 of the largest centre the centres' rounding is a
        # sizeable part of a width: at 1e-15 both smokes failed (0.036 on
        # H3, 4.6e-3 on g4,7), and from 1e-20 the g4,7 smoke failed with 0.78
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        a = SmearedGaussian(centers=centers, width=width)
        b = SmearedGaussian(centers=tuple(c + width for c in centers), width=width)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                (rec,) = kernel_orthogonality_smoke(model, [(a, b, 1, 1)])
            except SmokeQuadratureError as err:
                assert width < 1.2e-10 and f"the width {width!r} is below" in str(err)
                return
        assert rec.passed and rec.max_residual <= 1e-6

    @pytest.mark.parametrize("j_val", [1.0, -1.0])
    def test_a_pair_far_down_in_s_is_finite_and_meets_the_sharp_limit(self, j_val):
        # around s = -1.8, q2^2 ~ 0.027: the u window of width 128 put some
        # of its nodes off the physical region there
        a = SmearedGaussian(centers=(1.2, -1.8, 1.0, -1.8), width=0.3)
        b = SmearedGaussian(centers=(1.1, -1.75, 1.05, -1.85), width=0.28)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev, conv, measured, predicted, scale = models._smoke_g47(
                a, b, j_val, j_val, SmokeSpec())
        assert np.all(np.isfinite([dev, conv, measured, predicted, scale]))
        assert measured != 0
        assert dev < 1e-9 and conv < 1e-9

    @pytest.mark.parametrize("changes, status", [
        ({0: math.nan}, "fail"), ({0: math.inf}, "fail"),
        ({1: math.nan}, "inconclusive"), ({1: -math.inf}, "inconclusive"),
        ({2: complex(math.nan, 0.0)}, "fail"), ({2: complex(1.0, math.inf)}, "fail"),
        ({3: complex(math.nan, 0.0)}, "fail"),
        ({4: math.nan}, "fail"), ({4: math.inf}, "fail"),
        # a non-finite deviation fails even when the passes disagree
        ({0: math.nan, 1: 1.0}, "fail"), ({0: math.nan, 1: math.nan}, "fail"),
    ])
    def test_a_non_finite_smoke_value_decides_no_pass(self, h3, changes, status):
        # a NaN refinement change read `pass`, since NaN > 1e-3 is False
        result = [0.0, 0.0, 1.0 + 0j, 1.0 + 0j, 1.0]
        for slot, value in changes.items():
            result[slot] = value
        model = replace(h3, smoke_scheme=lambda *args: tuple(result))
        (rec,) = kernel_orthogonality_smoke(model, [(*C12_H3, 1, 1)])
        assert rec.status == status

    @pytest.mark.parametrize("name", ["heisenberg", "g4_7"])
    @pytest.mark.parametrize("counts", [{"n_outer": 0}, {"n_inner": -3},
                                        {"n_outer": 9.5}, {"n_outer": True},
                                        {"n_inner": False}])
    def test_a_bad_node_count_is_a_parameter_error(self, name, counts, request):
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        a = (SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.3)
             if name == "g4_7" else C12_H3[0])
        with pytest.raises(ModelParameterError, match="SmokeSpec"):
            kernel_orthogonality_smoke(model, [(a, a, 1, 1)], SmokeSpec(**counts))

    @pytest.mark.parametrize("width", [0, 0.0, -0.3, math.inf, math.nan, None, "0.3",
                                       1e-200, 1e-160, 1e155])
    def test_a_bad_width_is_a_parameter_error(self, width):
        # width 0 raised a bare ZeroDivisionError, and a negative one passed;
        # 1e-200 passed and then raised a bare ZeroDivisionError in both
        # smokes, and 1e-160 and 1e155 made the g4,7 smoke warn
        with pytest.raises(ModelParameterError, match="SmearedGaussian.*width"):
            SmearedGaussian(centers=(0.1, -0.2), width=width)

    @pytest.mark.parametrize("name, centers", [
        ("heisenberg", (0.1, -0.2, 0.3)), ("heisenberg", (0.1,)),
        ("g4_7", (1.2, 0.1)), ("g4_7", (1.2, 0.1, 1.0, 0.0, 0.5)),
    ])
    def test_centres_of_the_wrong_length_are_a_parameter_error(self, name, centers,
                                                                request):
        # the wrong count raised an unpacking ValueError, or was truncated
        # by the overlap's zip
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        good = C12_G47[0] if name == "g4_7" else C12_H3[0]
        bad = SmearedGaussian(centers=centers, width=0.3)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(ModelParameterError, match="centres"):
                kernel_orthogonality_smoke(model, [(*pair, 1, 1)])

    @pytest.mark.parametrize("centers", [(0.1, math.nan), (0.1, math.inf),
                                         (-math.inf, 0.2), (0.1, "0.2"), (None, 0.2),
                                         0.1, None])
    def test_a_bad_centre_is_a_parameter_error(self, centers):
        # a NaN or infinite centre gave a failed verdict with a NaN residual,
        # and a string centre or a number for the centres a bare TypeError
        with pytest.raises(ModelParameterError, match="SmearedGaussian.*centres"):
            SmearedGaussian(centers=centers)

    def test_centres_given_as_a_list_are_kept_as_a_tuple(self):
        # a list was kept as given: hash() raised TypeError, and the record
        # was unequal to its tuple twin
        listed = SmearedGaussian(centers=[0.1, -0.2])
        tupled = SmearedGaussian(centers=(0.1, -0.2))
        assert listed.centers == (0.1, -0.2) and type(listed.centers) is tuple
        assert listed == tupled and hash(listed) == hash(tupled)

    def test_unequal_centre_counts_are_a_parameter_error(self):
        # the overlap's zip truncated 1 centre against 3 to a value of 0.620
        one, three = SmearedGaussian(centers=(0.1,)), SmearedGaussian(centers=(0.1, 0.2, 0.3))
        for a, b in ((one, three), (three, one)):
            with pytest.raises(ModelParameterError, match="centre counts"):
                _pair_inner_product(a, b)

    def test_a_g47_refined_pass_with_fewer_nodes_is_a_parameter_error(self, g47):
        # n_outer 3 gives the refined pass fewer s nodes than the coarse
        # pass's 64
        a = SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.3)
        with pytest.raises(ModelParameterError, match=r"SmokeSpec.*refined pass"):
            kernel_orthogonality_smoke(g47, [(a, a, 1, 1)], SmokeSpec(n_outer=3))
