import math

import numpy as np
import pytest

from nclb.airyfun import airy
from nclb.models import (QuadSpec2D, SingularMeasureError, SmearedGaussian,
                         SmokeSpec, inverse_gft_h3, inverse_gft_h3_evaluator,
                         kernel_orthogonality_smoke, mode_solution_h3,
                         mode_superposition_h3, pde_residual_field)
from nclb.expr import evaluate


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

    def test_node_doubling_convergence(self):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=24, tol=1e-8)
        vals = inverse_gft_h3(bump(0.0, 1.0, 0.2), 1.0, GRID, spec)
        spec_hi = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=128)
        ref = inverse_gft_h3(bump(0.0, 1.0, 0.2), 1.0, GRID, spec_hi)
        assert np.max(np.abs(vals - ref)) <= 1e-7 * max(1e-12, np.max(np.abs(ref)))

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
