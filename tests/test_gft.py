import functools
import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from nclb.airyfun import airy
from nclb import airyfun, models
from nclb.models import (ModelParameterError, QuadSpec2D, SingularMeasureError,
                         SmearedGaussian, SmokeSpec, inverse_gft_h3,
                         inverse_gft_h3_evaluator,
                         kernel_orthogonality_smoke, mode_solution_h3,
                         mode_superposition_h3, pde_residual_field,
                         _pair_inner_product)
from nclb import expr as ex
from nclb.expr import Var, evaluate
from nclb.quadrature import gl_nodes
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

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, False, "16", None])
    def test_a_bad_node_count_is_a_parameter_error(self, n):
        # 0 and -3 reached leggauss's bare ValueError, 2.5 a TypeError, and
        # True integrated with one node
        with pytest.raises(ModelParameterError, match="QuadSpec2D.*node count"):
            QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=n)
        assert QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=1).n == 1

    @pytest.mark.parametrize("box", [
        ((0.0, 1.0), (2.0, 0.5)), ((1.0, 0.0), (0.5, 2.0)),  # inverted
        ((0.0, 0.0), (0.5, 2.0)),                            # empty
        ((0.0, math.nan), (0.5, 2.0)), ((-math.inf, 1.0), (0.5, 2.0)),
        ((0.0, 1.0),), ((0.0, 1.0, 2.0), (0.5, 2.0)), None, (("0", "1"), (0.5, 2.0)),
    ])
    def test_a_bad_box_is_a_parameter_error(self, box):
        # an inverted box gave -psi from both the kernel and the mode
        # superposition, and a NaN bound an AiryDomainError
        with pytest.raises(ModelParameterError, match="QuadSpec2D.*box"):
            QuadSpec2D(box=box, n=8)
        assert QuadSpec2D(box=((0, 1), (F(1, 2), 2)), n=8).box == ((0, 1), (F(1, 2), 2))

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

    def test_a_wrapped_evaluator_keeps_its_batch_and_its_report(self, h3):
        # a functools.wraps wrapper, as a tracer puts around the evaluator,
        # copies the batched entry, so the residual takes the same path
        ev = inverse_gft_h3_evaluator(
            bump(0.0, 1.0, 0.2), 1.0,
            QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=32))
        calls = []

        @functools.wraps(ev)
        def traced(point):
            calls.append(point)
            return ev(point)

        assert traced.batch is ev.batch
        bare = pde_residual_field(h3, ev, 1.0, GRID, fd_step=0.05)
        assert pde_residual_field(h3, traced, 1.0, GRID, fd_step=0.05) == bare
        assert calls == []

    def test_a_call_is_a_batch_of_one_point(self):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=24)
        ev = inverse_gft_h3_evaluator(bump(0.0, 1.0, 0.2), 1.0, spec)
        batch = ev.batch(GRID)
        assert batch.tolist() == inverse_gft_h3(bump(0.0, 1.0, 0.2), 1.0, GRID,
                                                spec).tolist()
        # one point's sum is a vector-matrix product, a batch's a matrix one
        single = np.array([ev(p) for p in GRID])
        assert np.max(np.abs(single - batch)) <= 1e-15 * np.max(np.abs(batch))

    def test_pointwise_calls_compute_each_x1_row_once(self, monkeypatch):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=16)
        ev = inverse_gft_h3_evaluator(bump(0.0, 1.0, 0.2), 1.0, spec)
        sizes = []
        real = airyfun.airy_array
        monkeypatch.setattr(airyfun, "airy_array",
                            lambda kind, x: sizes.append(np.size(x)) or real(kind, x))
        single = [ev(p) for p in GRID]
        assert sizes == [16 * 16] * 3  # GRID has 3 distinct x1 values
        monkeypatch.setattr(airyfun, "airy_array", real)
        # each value is the one a batch of that point alone gives; a larger
        # batch multiplies matrices and agrees to rounding (above)
        assert single == [ev.batch([p])[0] for p in GRID]
        assert [ev(p) for p in GRID] == single

    def test_pointwise_rows_are_bounded(self, monkeypatch):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=16)
        ev = inverse_gft_h3_evaluator(bump(0.0, 1.0, 0.2), 1.0, spec)
        calls = []
        real = airyfun.airy_array
        monkeypatch.setattr(airyfun, "airy_array",
                            lambda kind, x: calls.append(1) or real(kind, x))
        pts = [(0.01 * i, 0.1, -0.2) for i in range(20)]
        first = [ev(p) for p in pts]
        assert len(calls) == 20
        # the last 16 rows are kept: the first 4 points need theirs again
        assert [ev(p) for p in pts[4:]] == first[4:]
        assert len(calls) == 20
        assert [ev(p) for p in pts[:4]] == first[:4]
        assert len(calls) == 24

    def test_rows_come_in_bounded_airy_calls(self, monkeypatch):
        sizes = []
        real = airyfun.airy_array
        monkeypatch.setattr(airyfun, "airy_array",
                            lambda kind, x: sizes.append(np.size(x)) or real(kind, x))
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=64)
        grid = models._GftGrid(bump(0.0, 1.0, 0.2), 1.0, spec.box, spec.n)
        pts = [(0.01 * i, 0.1, -0.2) for i in range(5)] * 2
        vals = grid.values(pts)
        assert sum(sizes) == 5 * 64 * 64
        assert max(sizes) <= models._GftGrid.ROW_BUDGET
        assert vals[:5].tolist() == vals[5:].tolist()

    def test_superposition_calls_the_amplitude_once_on_the_node_grids(self):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=16)
        phi = bump(0.0, 1.0, 0.2)
        shapes = []

        def amp(mu, nu):
            shapes.append((np.shape(mu), np.shape(nu)))
            return (2 * nu * nu) ** (1 / 3) / (2 * math.pi) ** 2 * phi(mu, nu)

        direct = mode_superposition_h3(amp, 1, GRID[:9], spec)
        assert shapes == [((16, 16), (16, 16))]
        via = inverse_gft_h3(phi, 1.0, GRID[:9], spec)
        assert np.max(np.abs(direct - via)) <= 1e-6 * np.max(np.abs(direct))

    @pytest.mark.parametrize("phi, box", [
        (bump(0.0, 1.0, 0.2), ((-1.0, 1.0), (0.2, 1.8))),      # c10's
        (bump(0.1, -1.0, 0.25), ((-0.8, 0.6), (-1.7, -0.3))),  # negative J
    ])
    def test_separable_sum_matches_the_full_phase_grid(self, phi, box):
        grid = models._GftGrid(phi, 1.0, box, 64)
        kg, jg = np.meshgrid(grid.k, grid.j, indexing="ij")
        rng = np.random.default_rng(5)
        x1s = rng.uniform(-1.5, 1.5, 8)
        points, want = [], []
        for x1, row in zip(x1s, grid.rows(x1s)):
            for x2, x3 in rng.uniform(-3.0, 3.0, (8, 2)):
                points.append((x1, x2, x3))
                # the n^2 sum the separable form replaces
                want.append(np.sum(row * np.exp(1j * (kg * x2 + jg * x3))))
        got, want = grid.values(points), np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def per_group_values(grid, points):
    """The per-group formula the separable batch replaces: phases at every
    point, and each x1's points picked out of all of them."""
    pts = np.asarray(points, dtype=float).reshape(len(points), 3)
    x1s, which = np.unique(pts[:, 0], return_inverse=True)
    e2 = np.exp(1j * np.outer(pts[:, 1], grid.k))
    e3 = np.exp(1j * np.outer(pts[:, 2], grid.j))
    out = np.empty(len(pts), dtype=complex)
    for i, row in enumerate(grid.rows(x1s)):
        at = np.flatnonzero(which == i)
        out[at] = np.sum((e2[at] @ row) * e3[at], axis=1)
    return out


def superposition_amplitude(phi):
    def amp(mu, nu):
        return (2 * nu * nu) ** (1 / 3) / (2 * math.pi) ** 2 * phi(mu, nu)
    return amp


_RNG = np.random.default_rng(43)
SCATTERED = [tuple(p) for p in _RNG.uniform(-1.0, 1.0, (30, 3))]  # no coordinate repeated
REPEATED = [GRID[i] for i in _RNG.permutation(np.arange(54) % 27)]
TENSOR = [(0.3 * a, 0.25 * b, 0.2 * c) for a in range(-2, 2) for b in range(-2, 2)
          for c in range(-2, 2)]


class TestSeparableBatch:
    SPEC = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=32)
    PHI = staticmethod(bump(0.0, 1.0, 0.2))

    @pytest.mark.parametrize("points", [SCATTERED, REPEATED, TENSOR],
                             ids=["scattered", "repeated", "tensor"])
    def test_the_batch_is_the_per_group_formula(self, points):
        grid = models._GftGrid(self.PHI, 1.0, self.SPEC.box, self.SPEC.n)
        got = grid.values(points)
        want = per_group_values(grid, points)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale
        direct = mode_superposition_h3(superposition_amplitude(self.PHI), 1, points,
                                       self.SPEC)
        assert np.max(np.abs(got - direct)) <= 1e-12 * scale

    def test_an_empty_point_list_gives_an_empty_array(self):
        ev = inverse_gft_h3_evaluator(self.PHI, 1.0, self.SPEC)
        for vals in (inverse_gft_h3(self.PHI, 1.0, [], self.SPEC), ev.batch([]),
                     mode_superposition_h3(superposition_amplitude(self.PHI), 1, [],
                                           self.SPEC)):
            assert vals.shape == (0,) and vals.dtype == complex

    def test_a_batch_computes_each_distinct_x1_row_once(self, airy_array_sizes):
        grid = models._GftGrid(self.PHI, 1.0, self.SPEC.box, self.SPEC.n)
        x1s = np.linspace(-0.9, 0.9, 20)
        points = [(x1, 0.1 * i, -0.05 * i) for i in range(3) for x1 in x1s]
        grid.values(points)
        # 1024 arguments a row, 8 rows a call
        assert airy_array_sizes == [8192, 8192, 4096]
        assert sum(airy_array_sizes) == len(x1s) * self.SPEC.n ** 2
        assert max(airy_array_sizes) <= models._GftGrid.ROW_BUDGET

    def test_a_call_at_a_batched_x1_makes_no_airy_call(self, airy_array_sizes):
        ev = inverse_gft_h3_evaluator(self.PHI, 1.0, self.SPEC)
        # the residual's stencil cloud: 15 distinct x1, within the 16 kept
        cloud = [(x1 + 0.05 * s, x2, x3) for (x1, x2, x3) in GRID for s in range(-2, 3)]
        batch = ev.batch(cloud)
        assert airy_array_sizes == [8 * 32 * 32, 7 * 32 * 32]  # 15 rows, 8 a call
        single = np.array([ev(p) for p in cloud])
        assert len(airy_array_sizes) == 2
        assert np.max(np.abs(single - batch)) <= 1e-15 * np.max(np.abs(batch))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_coordinate_is_a_parameter_error(self, airy_array_sizes,
                                                          axis, bad):
        # inf at x3 gave nan+nanj with a RuntimeWarning, NaN at x1 an
        # AiryDomainError, from the kernel and from the mode superposition
        point = [0.1, -0.2, 0.3]
        point[axis] = bad
        ev = inverse_gft_h3_evaluator(self.PHI, 1.0, self.SPEC)
        amp = superposition_amplitude(self.PHI)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: inverse_gft_h3(self.PHI, 1.0, [GRID[0], point], self.SPEC),
                         lambda: ev.batch([GRID[0], point]), lambda: ev(point),
                         lambda: mode_superposition_h3(amp, 1, [GRID[0], point], self.SPEC)):
                with pytest.raises(ModelParameterError, match="finite coordinates") as info:
                    call()
                assert str(tuple(point)) in str(info.value)
        assert airy_array_sizes == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_amplitude_is_a_parameter_error(self, airy_array_sizes, bad):
        # phi_hat * nan gave [nan+nanj] with no error, and an infinite one a
        # RuntimeWarning, from the transform and from the mode superposition
        def phi(k, j):
            return np.where((k > 0.5) & (j > 1.0), bad, self.PHI(k, j))

        amp = superposition_amplitude(phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, name in (
                    (lambda: inverse_gft_h3(phi, 1.0, GRID[:2], self.SPEC), "phi_hat"),
                    (lambda: inverse_gft_h3_evaluator(phi, 1.0, self.SPEC), "phi_hat"),
                    (lambda: mode_superposition_h3(amp, 1, GRID[:2], self.SPEC),
                     "amplitude")):
                with pytest.raises(ModelParameterError,
                                   match=f"needs a finite {name}, got .*{bad}"):
                    call()
        assert airy_array_sizes == []

    def test_superposition_batches_its_points_within_the_row_budget(
            self, airy_array_sizes):
        spec = QuadSpec2D(box=((-1.0, 1.0), (0.2, 1.8)), n=48)
        amp = superposition_amplitude(self.PHI)
        points = [tuple(p) for p in _RNG.uniform(-1.0, 1.0, (40, 3))]
        got = mode_superposition_h3(amp, 1, points, spec)
        # 2304 nodes a point, 3 points a call
        assert airy_array_sizes == [3 * 2304] * 13 + [2304]
        assert max(airy_array_sizes) <= models._GftGrid.ROW_BUDGET
        # the per-point loop the batch replaces
        f_mode = ex.compile_array(mode_solution_h3(Var("mu"), Var("nu"), Var("E")),
                                  ["mu", "nu", "x1", "x2", "x3"], bind={"E": 1})
        k, wk = gl_nodes(48, -1.0, 1.0)
        j, wj = gl_nodes(48, 0.2, 1.8)
        kg, jg = np.meshgrid(k, j, indexing="ij")
        weighted = (np.outer(wk, wj) * amp(kg, jg)).ravel()
        want = np.array([np.sum(weighted * f_mode(kg.ravel(), jg.ravel(), *p)[0])
                         for p in points])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


G47_A = SmearedGaussian(centers=(1.2, 0.1, 1.0, 0.0), width=0.3)
G47_B = SmearedGaussian(centers=(1.1, 0.05, 1.05, -0.05), width=0.28)
H3_A = SmearedGaussian(centers=(0.1, -0.2), width=0.5)
H3_B = SmearedGaussian(centers=(-0.1, 0.15), width=0.45)


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

    def test_g47_under_resolved_is_inconclusive(self, g47):
        # 6 and 9 s nodes: the passes differ by ~1.19 of the scale
        recs = kernel_orthogonality_smoke(
            g47, [(G47_A, G47_B, 1, 1)], spec=SmokeSpec(n_outer=9, n_inner=6))
        assert recs[0].status == "inconclusive"
        assert recs[0].detail["refinement_change"] > 1.0

    @pytest.mark.parametrize("jt_val", [1, -1])
    def test_g47_refinement_must_add_nodes(self, g47, jt_val):
        # 8 s nodes in both passes would say nothing about the s rule, on
        # the opposite orbit too
        with pytest.raises(ModelParameterError, match="refined pass"):
            kernel_orthogonality_smoke(
                g47, [(G47_A, G47_B, 1, jt_val)], spec=SmokeSpec(n_outer=8, n_inner=8))

    def test_g47_records_share_the_scale_and_hold_plain_floats(self, g47):
        # the opposite orbit reported scale 1.0, and the same orbit's
        # refinement change read np.float64(...) in the record's repr
        same, opposite = kernel_orthogonality_smoke(
            g47, [(G47_A, G47_B, 1, 1), (G47_A, G47_B, 1, -1)])
        scale = 2.0 * math.pi ** 2 * math.sqrt(
            _pair_inner_product(G47_A, G47_A) * _pair_inner_product(G47_B, G47_B))
        assert same.detail["scale"] == opposite.detail["scale"] == scale
        assert (opposite.max_residual, opposite.detail["refinement_change"]) == (0.0, 0.0)
        assert opposite.detail["measured"] == [0.0, 0.0] == opposite.detail["predicted"]
        for rec in (same, opposite):
            assert type(rec.max_residual) is float
            assert type(rec.detail["refinement_change"]) is float
            assert "np." not in repr(rec)

    @pytest.mark.parametrize("j_val, jt_val", [(1, 0.9), (1, 0.7), (1, 0.5),
                                               (1, 1.5), (2, 1)])
    def test_a_close_heisenberg_gap_is_inconclusive(self, h3, j_val, jt_val):
        # the x3 window's transform at the gap is >= 9e-3 of the scale, and
        # these read fail with deviations of 1.6e-3 to 6.8e-2
        (rec,) = kernel_orthogonality_smoke(h3, [(H3_A, H3_B, j_val, jt_val)])
        assert rec.status == "inconclusive"
        assert "window still weighs the gap" in rec.detail["reason"]
        assert abs(complex(*rec.detail["predicted"])) >= 9e-3 * rec.detail["scale"]

    @pytest.mark.parametrize("j_val, jt_val", [(1, -1), (3, 1), (1, 2.5), (1, 3)])
    def test_a_wide_heisenberg_gap_still_passes(self, h3, j_val, jt_val):
        (rec,) = kernel_orthogonality_smoke(h3, [(H3_A, H3_B, j_val, jt_val)])
        assert rec.status == "pass" and "reason" not in rec.detail
        assert abs(complex(*rec.detail["predicted"])) <= 3.4e-5 * rec.detail["scale"]

    @pytest.mark.parametrize("name, j_val, jt_val", [
        ("heisenberg", 1.0, 1.0), ("heisenberg", 1.0, -1.0),
        ("g4_7", 1, 1), ("g4_7", 1, -1), ("g4_7", -1, 1)])
    def test_c12_pairs_and_the_g47_opposite_orbit_keep_their_status(
            self, name, j_val, jt_val, request):
        # g4,7 predicts 0 across orbits, so its window weighs no gap
        model = request.getfixturevalue({"g4_7": "g47", "heisenberg": "h3"}[name])
        pair = (G47_A, G47_B) if name == "g4_7" else (H3_A, H3_B)
        (rec,) = kernel_orthogonality_smoke(model, [(*pair, j_val, jt_val)])
        assert rec.status == "pass" and "reason" not in rec.detail

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
