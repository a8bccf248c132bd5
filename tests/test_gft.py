import math

import numpy as np
import pytest

from nclb.airyfun import airy
from nclb import models
from nclb.models import (ModelParameterError, QuadSpec2D, SingularMeasureError,
                         SmearedGaussian, SmokeSpec, inverse_gft_h3,
                         inverse_gft_h3_evaluator,
                         kernel_orthogonality_smoke, mode_solution_h3,
                         mode_superposition_h3, pde_residual_field)
from nclb.expr import evaluate
from nclb.reduction import SpectralLabelError
from nclb.report import NclbError


def bump(center_k, center_j, width):
    def phi(k, j):
        return np.exp(-((k - center_k) ** 2 + (j - center_j) ** 2)
                      / (2.0 * width ** 2))
    return phi


GRID = [(a * 0.4, b * 0.4, c * 0.4)
        for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]


class TestInverseGft:
    def test_zero_amplitude(self):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=16)
        vals = inverse_gft_h3(lambda k, j: np.zeros_like(k), 1.0, GRID, spec)
        assert np.max(np.abs(vals)) == 0.0

    def test_support_touching_zero_rejected(self):
        spec = QuadSpec2D(box=((-1.0, 1.0), (-0.5, 1.5)), n=16)
        with pytest.raises(SingularMeasureError):
            inverse_gft_h3(bump(0, 1, 0.2), 1.0, GRID, spec)

    def test_reconstruction_pde_residual(self, h3):
        ev = inverse_gft_h3_evaluator(
            bump(0.0, 1.0, 0.2), 1.0,
            QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=64))
        rep = pde_residual_field(h3, ev, 1.0, GRID, fd_step=0.05)
        assert rep.max_residual <= 1e-3

    def test_narrow_bump_approaches_single_mode(self):
        k0, j0, width = 0.25, 1.0, 0.05
        spec = QuadSpec2D(box=((k0 - 0.4, k0 + 0.4), (j0 - 0.4, j0 + 0.4)), n=96)
        vals = inverse_gft_h3(bump(k0, j0, width), 1.0, GRID[:9], spec)
        mass = 2.0 * math.pi * width ** 2
        pref = (2.0 * j0 * j0) ** (1.0 / 3.0) / (2.0 * math.pi) ** 2
        worst = 0.0
        for (x1, x2, x3), v in zip(GRID[:9], vals):
            arg = (2 * j0 * j0 * x1 + 2 * k0 * j0 + 1.0) / (2 * j0 * j0) ** (2 / 3)
            mode = pref * airy("Ai", arg) * np.exp(1j * (k0 * x2 + j0 * x3))
            worst = max(worst, abs(v / mass - mode) / abs(mode))
        assert worst <= 1e-2

    @pytest.mark.parametrize("bad", [(0.0, 0.0, 0.0), (0.05, 0.0, 0.0)])
    def test_nan_in_field_is_never_a_finite_residual(self, h3, bad):
        # bad is a sample point, or only a stencil point of one
        def psi(p):
            if tuple(p) == bad:
                return complex("nan")
            return np.exp(1j * (0.3 * p[1] + 0.7 * p[2]))

        rep = pde_residual_field(h3, psi, 1.0, GRID, fd_step=0.05)
        assert not math.isfinite(rep.max_residual)
        assert not rep.max_residual <= 1e-3

    def test_agreement_with_mode_superposition(self):
        e_val = 1
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=64)
        phi = bump(0.0, 1.0, 0.2)

        def amp(mu, nu):
            return (2 * nu * nu) ** (1 / 3) / (2 * math.pi) ** 2 * phi(mu, nu)

        direct = mode_superposition_h3(amp, e_val, GRID[:9], spec)
        via_kernel = inverse_gft_h3(phi, float(e_val), GRID[:9], spec)
        scale = float(np.max(np.abs(direct)))
        assert np.max(np.abs(direct - via_kernel)) <= 1e-6 * scale


G47_A = SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.3)
G47_B = SmearedGaussian(centers=(1.1, 0.05, 1.05, -0.05), width=0.28)


class TestKernelSmoke:
    def test_heisenberg_matching(self, h3):
        a = SmearedGaussian(centers=(0.1, -0.2), width=0.5)
        b = SmearedGaussian(centers=(-0.1, 0.15), width=0.45)
        recs = kernel_orthogonality_smoke(h3, [(a, b, 1.0, 1.0)])
        assert recs[0].passed
        assert recs[0].max_residual <= 1e-3

    def test_heisenberg_distinct_parameters_decouple(self, h3):
        a = SmearedGaussian(centers=(0.1, -0.2), width=0.5)
        b = SmearedGaussian(centers=(-0.1, 0.15), width=0.45)
        recs = kernel_orthogonality_smoke(h3, [(a, b, 1.0, -1.0)])
        assert recs[0].passed
        measured = complex(*recs[0].detail["measured"])
        assert abs(measured) <= 1e-3 * recs[0].detail["scale"]

    def test_g47_twisted_pairing(self, g47):
        a = SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.3)
        b = SmearedGaussian(centers=(1.1, 0.05, 1.05, -0.05), width=0.28)
        recs = kernel_orthogonality_smoke(g47, [(a, b, 1, 1), (a, b, 1, -1)])
        assert all(r.passed for r in recs)
        assert recs[0].max_residual <= 1e-3

    def test_under_resolved_is_inconclusive(self, h3):
        a = SmearedGaussian(centers=(0.1, -0.2), width=0.5)
        b = SmearedGaussian(centers=(-0.1, 0.15), width=0.45)
        recs = kernel_orthogonality_smoke(
            h3, [(a, b, 1.0, 1.0)], spec=SmokeSpec(n_outer=8, n_inner=8))
        assert recs[0].status == "inconclusive"

    def test_g47_under_resolved_is_inconclusive(self, g47):
        recs = kernel_orthogonality_smoke(
            g47, [(G47_A, G47_B, 1, 1)], spec=SmokeSpec(n_outer=12, n_inner=12))
        assert recs[0].status == "inconclusive"

    def test_g47_refinement_must_add_nodes(self, g47):
        # n_outer 8 gives the coarse and the refined pass 2 x3 and x4 nodes
        # each, so their agreement says nothing
        with pytest.raises(ModelParameterError, match="refined pass"):
            kernel_orthogonality_smoke(
                g47, [(G47_A, G47_B, 1, 1)], spec=SmokeSpec(n_outer=8, n_inner=8))

    @pytest.mark.parametrize("j_val, dev", [(-1, 5.047970918706612e-4),
                                            (1, 5.047970918706612e-4)])
    def test_g47_deviation_is_kept(self, g47, j_val, dev):
        # the deviations the 20-node t-window sum gave on both orbits; the
        # closed form adds the window's tail beyond 6 widths, ~1.5e-8 of scale
        rec = kernel_orthogonality_smoke(g47, [(G47_A, G47_B, j_val, j_val)])[0]
        assert rec.passed
        assert abs(rec.max_residual - dev) <= 1e-7

    @pytest.mark.parametrize("name, j_val, jt_val", [
        # 0.5 and -0.5 used to truncate to the same orbit and fail with
        # residual 1.0; J = 0 divided by zero
        ("g4_7", 0.5, -0.5), ("g4_7", 1, 2), ("heisenberg", 0.0, 1.0),
        ("heisenberg", 1.0, math.inf), ("heisenberg", math.nan, 1.0),
    ])
    def test_off_label_j_is_an_input_error(self, name, j_val, jt_val, request):
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        a = G47_A if name == "g4_7" else SmearedGaussian(centers=(0.1, -0.2), width=0.5)
        with pytest.raises(SpectralLabelError) as info:
            kernel_orthogonality_smoke(model, [(a, a, j_val, jt_val)])
        assert isinstance(info.value, NclbError)
        assert isinstance(info.value, ValueError)


def _t_window_sum(q1v, sv, b, j_val, x3n, un, sw):
    """The 4d smoke test's t integral at one (q1, s) node as a 20-node
    Gauss-Legendre sum over +-6 window widths, on the (x3, u) grid."""
    cb1, cbs, cb1p, _ = b.centers
    tn, wtn = np.polynomial.legendre.leggauss(20)
    tn, wtn = tn * 6.0 / sw, wtn * 6.0 / sw
    win_t = wtn * math.sqrt(2.0 * math.pi) * sw * np.exp(-0.5 * (sw * tn) ** 2)
    q2v = math.exp(sv)
    q2t_sq = (un + j_val * q2v * q2v) / j_val
    q2t = np.sqrt(np.where(q2t_sq > 1e-12, q2t_sq, 1.0))
    st = np.log(q2t)
    t_base = 0.5 * j_val * q2v * (2.0 * q1v - q2v * x3n)
    tt = t_base[:, None, None] + tn
    x3, q2t_b, st_b = x3n[:, None, None], q2t[None, :, None], st[None, :, None]
    q1t = tt / (j_val * q2t_b) + 0.5 * q2t_b * x3
    b_free = np.exp(-((q1t - cb1) ** 2 + (st_b - cbs) ** 2
                      + (q1t - q2t_b * x3 - cb1p) ** 2) / (2.0 * b.width ** 2))
    phase = np.exp(1j * (tt * x3 * st_b - (t_base * x3n * sv)[:, None, None]))
    return (b_free * phase) @ win_t, q2t, st, t_base


@pytest.mark.parametrize("q1v, sv, j_val", [(1.2, 0.1, 1), (0.5, -1.8, 1),
                                            (1.9, 1.0, -1), (1.2, 0.1, 2)])
def test_t_window_closed_form_matches_quadrature(q1v, sv, j_val):
    # (0.5, -1.8) puts 6 of the 20 u nodes off the physical region
    sw = models._WINDOW_UV
    un = np.polynomial.legendre.leggauss(20)[0] * 6.0 / sw
    q2v = math.exp(sv)
    x3n = np.linspace((q1v - 2.4) / q2v, (q1v + 0.35) / q2v, 33)
    want, q2t, st, t_base = _t_window_sum(q1v, sv, G47_B, j_val, x3n, un, sw)
    got = models._t_window_integral(t_base[:, None], x3n[:, None], q2t, st,
                                    sv, j_val, G47_B, sw)
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))
