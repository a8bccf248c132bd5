import cmath
import math
import random
import re
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from nclb import expr as ex
from nclb import reduction
from nclb.diffop import DiffOp, SampleSpec
from nclb.expr import Exp, I, Log, Power, Var, simplify, to_text
from nclb.models import (chart_domain, chart_samples, lambda_roots, load_model,
                         pde_residual_field, rectifying_coordinates,
                         reduction_normalizer)
from nclb.reduction import (ChartFieldError, Characteristic, DomainExitError, Grid,
                            InconclusiveError, NotFirstOrderError, ReducedOperator,
                            StepError, _chart_names, _spectrum, build_reduced,
                            conjugate_by_multiplier, extract_first_order,
                            infinitesimal_action, local_lift_check, operator_residual,
                            rectify_check, reduced_residual, solve_reduced,
                            verify_lambda_rep)
from nclb.report import NclbError, VerificationError, replace

q = Var("q")
J = Var("J")
E = Var("E")
q1, q2 = Var("q1"), Var("q2")


class TestVerifyLambdaRep:
    def test_h3_passes(self, h3):
        records = verify_lambda_rep(h3)
        assert all(r.passed for r in records)

    def test_g47_passes(self, g47):
        records = verify_lambda_rep(g47)
        assert all(r.passed for r in records)

    def test_sign_flip_fails_on_first_pair(self, h3):
        bad_ops = (h3.lrep.ops[0], h3.lrep.ops[1], h3.lrep.ops[2].scale(-1))
        bad = replace(h3, lrep=replace(h3.lrep, ops=bad_ops))
        records = verify_lambda_rep(bad)
        comm = next(r for r in records if r.check == "lambda_rep_commutators")
        assert not comm.passed
        assert (1, 2) in comm.detail["failing_pairs"]
        with pytest.raises(VerificationError):
            verify_lambda_rep(bad, strict=True)

    def test_real_multiplier_fails_imaginary_check(self, h3):
        bad_ops = (DiffOp.scalar(("q",), J * q), h3.lrep.ops[1], h3.lrep.ops[2])
        bad = replace(h3, lrep=replace(h3.lrep, ops=bad_ops))
        records = verify_lambda_rep(bad)
        imag = next(r for r in records
                    if r.check == "multiplication_operators_imaginary")
        assert not imag.passed

    def test_an_ideal_operator_with_a_derivative_fails_the_coverage(self, h3):
        # index 3 spans the ideal with index 1; d/dq makes its operator first order
        ops = h3.lrep.ops
        bad_ops = ops[:2] + (ops[2] + DiffOp.partial(("q",), "q"),)
        bad = replace(h3, lrep=replace(h3.lrep, ops=bad_ops))
        cover = next(r for r in verify_lambda_rep(bad)
                     if r.check == "multiplication_indices_cover_ideal")
        assert cover.status == "fail"


class TestLocalLift:
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_h3_generators(self, h3, i):
        assert local_lift_check(h3, i) <= 1e-12

    @pytest.mark.parametrize("i", [1, 2, 3, 4])
    def test_g47_generators(self, g47, i):
        assert local_lift_check(g47, i) <= 1e-12

    def test_generator_forms(self, h3, g47):
        gen1 = infinitesimal_action(h3, 1)
        assert gen1.is_multiplication()
        assert gen1.coeff((0,)) == simplify(-I * J * q)
        gen4 = infinitesimal_action(g47, 4)
        assert gen4.coeff((0, 1)) == simplify(-q2)

    @pytest.mark.parametrize("name, i", [("heisenberg", 2), ("g4_7", 3)])
    def test_scaled_operator_fails_the_lift(self, h3, g47, name, i):
        # 2 lambda_i against the generator: a relative coefficient gap of 1/2
        model = {"heisenberg": h3, "g4_7": g47}[name]
        ops = tuple(op.scale(2) if k == i - 1 else op
                    for k, op in enumerate(model.lrep.ops))
        bad = replace(model, lrep=replace(model.lrep, ops=ops))
        assert local_lift_check(bad, i) == 0.5

    def test_missing_kernel_rejected(self, h3):
        broken = replace(h3, kernel=None)
        with pytest.raises(ValueError):
            local_lift_check(broken, 1)


class TestBuildReduced:
    def test_h3_raw(self, h3):
        red = build_reduced(h3)
        raw = red.raw
        assert raw.coeff((1,)) == simplify(2 * I * J)
        assert raw.coeff((0,)) == simplify(-J * J * q * q)
        assert raw.order == 1

    def test_g47_first_order_with_twist(self, g47):
        raw = build_reduced(g47).raw
        assert raw.order == 1  # second-order coefficients vanish symbolically
        assert raw.coeff((1, 0)) == simplify(2 * I * J * q2 * q2 * (q1 - q2))
        assert raw.coeff((0, 1)) == simplify(-2 * I * J * q1 * q2 * q2)

    def test_twist_shifts_l4(self, g47):
        l4t = conjugate_by_multiplier(g47.lrep.ops[3], g47.modular_multiplier)
        expected = g47.lrep.ops[3] + DiffOp.scalar(("q1", "q2"), -4)
        assert l4t.coefficients == expected.coefficients

    def test_abelian_toy_scalar(self):
        # constant multiplication operators compose to a plain scalar:
        # sum_i l_i l_i with the identity inverse form and l_i = i lambda_i
        from nclb.diffop import compose
        qv = ("q",)
        ops = (DiffOp.scalar(qv, I * 2), DiffOp.scalar(qv, I * 3))
        raw = compose(ops[0], ops[0]) + compose(ops[1], ops[1])
        assert raw.is_multiplication()
        assert raw.coeff((0,)) == simplify(ex.const(-13))

    def test_verify_gate(self, h3):
        bad_ops = (h3.lrep.ops[0], h3.lrep.ops[1], h3.lrep.ops[2].scale(-1))
        bad = replace(h3, lrep=replace(h3.lrep, ops=bad_ops))
        with pytest.raises(VerificationError):
            build_reduced(bad, verify=True)


class TestExtractFirstOrder:
    def test_h3_split(self, h3):
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        fo = red.first_order
        assert fo.Z == (ex.ONE,)
        expected_v = simplify((I * (E + J * J * q * q)) / (2 * J))
        assert fo.V == expected_v

    def test_g47_matches_printed_forms(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        fo = red.first_order
        assert fo.Z == (simplify(q1 - q2), simplify(-q1))
        # the printed potential, with 1/J realized as J on the orbit labels
        printed = simplify(
            ex.const(1, 2)
            - I * J * q1 * Log(q2) * (q1 - q2)
            + I * E * Power(J, -1) * Power(q2, -2) / 2
            - ex.const(5, 2) * q1 * Power(q2, -1)
        )
        assert fo.V == printed

    def test_scalar_raw(self):
        qv = ("q",)
        red = ReducedOperator(raw=DiffOp.scalar(qv, I * J * 3))
        red = extract_first_order(red, 2 * I * J)
        assert red.first_order.Z == (ex.ZERO,)
        assert red.first_order.V == simplify(
            (3 * I * J - E) * Power(2 * I * J, -1))

    def test_second_order_rejected(self):
        qv = ("q",)
        raw = DiffOp(qv, {(2,): ex.ONE})
        with pytest.raises(NotFirstOrderError):
            extract_first_order(ReducedOperator(raw=raw), 2 * I * J)


def first_order(model):
    red = extract_first_order(build_reduced(model, verify=False),
                              reduction_normalizer(model))
    return red.first_order.Z, red.first_order.V


def solve_one(Z, V, target, v_ref, step=1e-2, params=None, domain=None, phi=None):
    """The characteristic of `solve_reduced` through one target, with v the
    first chart variable, so that t_end = v_ref - target[0]."""
    params = {"E": 1.0, **(params or {})}
    _, chars = solve_reduced(Z, V, params["E"], phi or (lambda u, p: 1.0), [target],
                             step, v=Var(_chart_names(len(Z))[0]), v_ref=v_ref,
                             params=params, domain=domain)
    return chars[0]


class TestCharacteristicErrors:
    """What `solve_reduced` raises, and when, on its way along a
    characteristic."""

    def test_a_target_outside_the_domain_raises_at_time_zero(self):
        # before any phase, so even for a characteristic of length zero
        def upper(p):
            return p[1] > 1e-10

        for v_ref in (1.0, 2.0):
            with pytest.raises(DomainExitError) as err:
                solve_one((ex.ONE, ex.ONE), ex.ZERO, (1.0, -0.5), v_ref, domain=upper)
            assert err.value.exit_time == 0.0
            assert err.value.point == (1.0, -0.5)

    def test_the_first_grid_point_outside_raises_with_its_time_and_point(self, g47):
        # forward in time q2 falls through 0; a potential defined everywhere
        # leaves the exit to the domain test, at a grid point
        Z, _ = first_order(g47)
        with pytest.raises(DomainExitError) as err:
            solve_one(Z, I * J * q1 * q2, (1.0, 0.4), 7.0, params={"J": 1.0},
                      domain=chart_domain(g47))
        h = 6.0 / 600
        k = round(err.value.exit_time / h)
        assert err.value.exit_time == k * h and 0 < k < 600
        before, at = (solve_one(Z, ex.ZERO, (1.0, 0.4), 1.0 + t, step=h).end
                      for t in ((k - 1) * h, k * h))
        assert chart_domain(g47)([x.real for x in before])
        assert not chart_domain(g47)([x.real for x in at])
        assert err.value.point == pytest.approx(at, abs=1e-12)

    def test_a_domain_error_of_the_potential_wins_over_a_later_exit(self, g47):
        # g4,7's log(q2) fails once q2 <= 0; a domain that lets q2 go down
        # to -0.5 is left only after that, and without one no exit comes
        Z, V = first_order(g47)
        for domain in (None, lambda p: p[1] > -0.5):
            with pytest.raises(ex.DomainError, match="^log requires positive real part"):
                solve_one(Z, V, (1.0, 0.4), 7.0, params={"J": 1.0}, domain=domain)

    def test_a_bad_bound_value_of_the_potential_raises_on_the_first_step(self, h3):
        # 1/J in the potential at J = 0; a characteristic of length zero
        # takes no step and evaluates no potential
        Z, V = first_order(h3)
        with pytest.raises(ex.DomainError, match="^ZeroDivisionError"):
            solve_one(Z, V, (0.3,), 1.0, params={"J": 0.0})
        ch = solve_one(Z, V, (0.3,), 0.3, params={"J": 0.0})
        assert (tuple(ch.ts), ch.end, ch.phase) == ((0.0,), (0.3 + 0j,), 0j)

    def test_a_state_that_overflows_raises_with_its_time(self):
        # q = e^(2000 t) passes the double range between t = 0.35 and 0.36;
        # a domain it never leaves does not hide that
        for domain in (None, lambda p: p[0] > 0.0):
            with pytest.raises(ex.DomainError,
                               match=f"^the chart point is not finite at t = {0.01 * 36!r}$"):
                solve_one((J * q,), ex.ZERO, (1.0,), 2.0, params={"J": 2000.0},
                          domain=domain)

    @pytest.mark.parametrize("target", [(1.0,), (1.0 + 1e-30j,)],
                             ids=["array-pass", "per-target"])
    def test_a_phase_whose_exponential_overflows_raises_naming_it(self, target):
        # the phase of V = -1000 from q = 1 back to 0 is 1000, and e^1000
        # is beyond the double range; a complex start takes the per-target
        # steps
        message = (rf"^the phase at \({re.escape(repr(target[0]))},\) overflows its "
                   r"exponential: \((1000|999\.99)")
        with pytest.raises(ex.DomainError, match=message):
            solve_reduced((ex.ONE,), ex.Const(-1000), 0.0, lambda u, p: 1.0, [(0.5,), target],
                          0.01, v=q, u=(), v_ref=0.0)

    @pytest.mark.parametrize("v_ref, step", [
        (2.0, 0.0), (2.0, -0.01), (2.0, math.inf), (2.0, math.nan),
        (math.nan, 1e-2), (math.inf, 1e-2), (-math.inf, 1e-2),
        (1e300, 1e-300),  # |t_end| / step beyond the float range
        (2.0, 1e-300),  # finite, but far more than MAX_STEPS steps
    ])
    def test_a_bad_step_or_end_time_raises_before_any_work(self, v_ref, step):
        calls = []
        with pytest.raises(StepError) as err:
            solve_one((ex.ONE,), Log(q - 5), (1.0,), v_ref, step=step,
                      phi=lambda u, p: calls.append(u) or 1.0)
        assert isinstance(err.value, NclbError) and isinstance(err.value, ValueError)
        assert calls == []

    def test_step_count_ceiling(self, monkeypatch):
        monkeypatch.setattr(reduction, "MAX_STEPS", 4)
        assert len(solve_one((ex.ONE,), ex.ZERO, (0.0,), 1.0, step=0.25).ts) == 5
        with pytest.raises(StepError, match="more than 4"):
            solve_one((ex.ONE,), ex.ZERO, (0.0,), 1.0, step=0.2)

    @pytest.mark.parametrize("Z, q0", [((ex.ONE,), (0.0, 1.0)), ((ex.ONE, q1), (0.5,)),
                                       ((ex.ONE, q1), (0.5, 0.1, 0.2))])
    def test_a_target_of_the_wrong_length_raises(self, Z, q0):
        # each target is checked before the first is evaluated, and before
        # the field is read
        calls = []
        good = (0.0,) * len(Z)
        with pytest.raises(ValueError, match=f"target has {len(q0)} coordinates, Z has {len(Z)}"):
            solve_reduced(Z, ex.ZERO, 0.0, lambda u, p: calls.append(u) or 1.0,
                          [good, q0], 1e-2, v=Var(_chart_names(len(Z))[0]))
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_a_target_that_is_not_finite_raises(self, bad):
        calls = []
        with pytest.raises(ValueError, match="target's coordinate q is not finite"):
            solve_reduced((ex.ONE,), ex.ZERO, 0.0, lambda u, p: calls.append(u) or 1.0,
                          [(0.5,), (bad,)], 1e-2, v=q)
        assert calls == []

    @pytest.mark.parametrize("Z, message", [
        ((q ** 2,), r"^Z = \(q\^2\) is not affine in q$"),
        ((ex.ONE, q1), r"^Z = \(1, q1\) has a defective linear part"),
        ((ex.ONE, ex.ONE, ex.ONE), r"^Z = \(1, 1, 1\) has 3 chart variables"),
    ])
    def test_a_field_without_a_closed_form_raises_naming_it(self, Z, message):
        with pytest.raises(ChartFieldError, match=message) as err:
            solve_reduced(Z, ex.ZERO, 0.0, lambda u, p: 1.0, [(0.5,) * len(Z)], 1e-2,
                          v=Var(_chart_names(len(Z))[0]))
        assert isinstance(err.value, NclbError)


ORACLE_CASES = ["heisenberg", (1, 1), (3, F(-1, 8)), (1, 2), "rotation", "singular", "zero"]


@pytest.fixture(scope="module", params=ORACLE_CASES, ids=str)
def oracle_case(request):
    """(Z, V, params, characteristics) of `solve_reduced` for H3, g4,7 at
    three (alpha, beta) pairs, a rotation, whose A has the eigenvalues +-i,
    a singular A, whose eigenvalue 0 meets a constant part outside its
    range, and the zero field."""
    case = request.param
    if case == "heisenberg":
        (Z, V), params = first_order(load_model("heisenberg")), {"J": -1.0, "E": 0.8}
        targets, v, v_ref = [(0.3,), (-1.4,)], q, 1.7
    elif case == "rotation":
        Z, V, params = (-q2, q1), I * q1 * q2 + q1 - Exp(q2) / 3, {"E": 0.0}
        targets, v, v_ref = [(0.4, -0.3), (1.1, 0.2)], q1, -2.5
    elif case == "singular":
        Z, V, params = (q1 + q2 + 1, (q1 + q2) / 2 - 2), I * q1 - q2 ** 2 / 4, {"E": 0.0}
        targets, v, v_ref = [(0.4, -0.3), (-0.2, 0.5)], q1, 0.9
    elif case == "zero":
        Z, V, params = (ex.ZERO, ex.ZERO), q1 * q2, {"E": 0.0}
        targets, v, v_ref = [(0.4, 0.7)], q1, 2.4
    else:
        g47 = load_model("g4_7", F(case[0]), F(case[1]))
        (Z, V), params = first_order(g47), {"J": 1.0, "E": 1.3}
        targets, (v, _), v_ref = [(1.2, 0.5), (2.2, 0.9)], rectifying_coordinates(g47), -1.0
    _, chars = solve_reduced(Z, V, params["E"], lambda u, p: 1.0, targets, 1e-3,
                             v=v, v_ref=v_ref, params=params)
    return Z, V, params, chars


def assert_end_is_the_matrix_exponential(Z, params, ch):
    # dq/dt = A q + c is the linear flow of [[A, c], [0, 0]] on (q, 1)
    from scipy.linalg import expm

    m = len(Z)
    z = ex.compile_expr(tuple(Z), _chart_names(m), bind=params)
    c = np.array(z(*[0.0] * m))
    a = np.array([np.array(z(*np.eye(m)[j])) - c for j in range(m)]).T
    gen = np.zeros((m + 1, m + 1), dtype=complex)
    gen[:m, :m], gen[:m, m] = a, c
    want = expm(ch.ts[-1] * gen) @ np.append(np.array(ch.start, dtype=complex), 1)
    assert np.abs(np.array(ch.end) - want[:m]).max() <= 1e-14 * (1 + np.abs(want).max())


class TestClosedFormAgainstScipy:
    """The closed-form states and Gauss-Legendre phases against scipy, which
    is used by the tests alone."""

    def test_states_match_the_matrix_exponential(self, oracle_case):
        Z, _, params, chars = oracle_case
        for ch in chars:
            assert_end_is_the_matrix_exponential(Z, params, ch)

    def test_phases_match_an_ode_solver(self, oracle_case):
        from scipy.integrate import solve_ivp

        Z, V, params, chars = oracle_case
        names = _chart_names(len(Z))
        rates = ex.compile_expr(tuple(Z) + (V,), names, bind=params)
        for ch in chars:
            sol = solve_ivp(lambda t, y: rates(*y[:-1]), (0.0, ch.ts[-1]),
                            np.array(list(ch.start) + [0.0], dtype=complex),
                            method="DOP853", rtol=1e-12, atol=1e-14)
            assert sol.success
            want = sol.y[-1, -1]
            # the solver's own error, at rtol 1e-12, is the larger part
            assert abs(ch.phase - want) <= 1e-11 * max(1.0, abs(want))
            assert np.abs(np.array(ch.end) - sol.y[:-1, -1]).max() <= 1e-11


class TestClosedFormFlow:
    """The chart points and phases of `solve_reduced` on fields whose flow
    is known by hand."""

    def test_constant_field(self):
        ch = solve_one((ex.ONE,), ex.ZERO, (0.0,), 1.0)
        assert abs(ch.end[0] - 1.0) < 1e-14

    def test_zero_field(self):
        ch = solve_one((ex.ZERO, ex.ZERO), ex.ZERO, (0.4, 0.7), 2.4)
        assert ch.end == (0.4 + 0j, 0.7 + 0j)

    def test_trajectory_recorded(self):
        ch = solve_one((ex.ONE,), ex.ZERO, (0.0,), 0.1)
        assert isinstance(ch, Characteristic)
        assert (ch.start, ch.step) == ((0.0,), 1e-2)
        assert len(ch.ts) == 11

    @pytest.mark.parametrize("Z, q0, params", [
        ((ex.ONE,), (0.2,), {}),
        ((1 + I,), (0.2,), {}),
        ((J * J, ex.const(2)), (0.2, -0.1), {"J": 2.9}),
    ])
    @pytest.mark.parametrize("t_end", [1.7, -1.3, 0.0])
    @pytest.mark.parametrize("with_domain", [False, True])
    def test_constant_field_with_phase(self, Z, q0, params, t_end, with_domain):
        # q(t) = q0 + c t, and V = q1 has the phase q1(0) t + c1 t^2 / 2,
        # which the Gauss-Legendre rule integrates exactly.  The domain
        # |Re q1| < 0.9005 is left either way, between two grid points and
        # far from both
        c = [ex.evaluate(z, params) for z in Z]
        v_ref = q0[0] + t_end
        domain = (lambda p: abs(p[0]) < 0.9005) if with_domain else None
        n = round(abs(t_end) / 1e-3)
        h = (v_ref - q0[0]) / max(n, 1)
        if with_domain and t_end:
            k = next(k for k in range(1, n + 1) if not domain([(q0[0] + c[0] * k * h).real]))
            with pytest.raises(DomainExitError) as err:
                solve_one(Z, Var(_chart_names(len(Z))[0]), q0, v_ref, step=1e-3,
                          params=params, domain=domain)
            assert err.value.exit_time == k * h
            assert err.value.point == pytest.approx([x + cx * k * h for x, cx in zip(q0, c)],
                                                    abs=1e-13)
            return
        ch = solve_one(Z, Var(_chart_names(len(Z))[0]), q0, v_ref, step=1e-3,
                       params=params, domain=domain)
        t = ch.ts[-1]
        assert len(ch.ts) == n + 1 and t == n * h
        assert ch.end == pytest.approx([x + cx * t for x, cx in zip(q0, c)], abs=1e-13)
        want = q0[0] * t + c[0] * t * t / 2
        assert abs(ch.phase - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (3, F(-1, 8)), (1, 2)])
    @pytest.mark.parametrize("t_end", [0.5, -0.9])
    def test_g47_eigenstructure(self, alpha, beta, t_end):
        # q1 + lam_1 q2 grows as e^(lam_2 t), and q1 + lam_2 q2 as
        # e^(lam_1 t), lam the roots of r^2 - alpha r - beta
        g47 = load_model("g4_7", F(alpha), F(beta))
        Z, _ = first_order(g47)
        lam1, lam2 = (ex.evaluate(x).real for x in lambda_roots(**g47.params))
        q0 = (1.5, 0.9)
        ch = solve_one(Z, ex.ZERO, q0, q0[0] + t_end, step=1e-3, params={"J": 1.0})
        t = ch.ts[-1]
        for mu, nu in ((lam1, lam2), (lam2, lam1)):
            want = (q0[0] + mu * q0[1]) * math.exp(nu * t)
            assert abs(ch.end[0] + mu * ch.end[1] - want) <= 1e-13 * (1 + abs(want))
        # a real field from a real start gives real chart points
        assert all(x.imag == 0.0 for x in ch.end)

    @pytest.mark.parametrize("Z, q0, params", [
        ((q2, -q1), (1.5, 0.7 + 0.4j), {}),
        ((J * q2, -q1), (1.5, 0.7), {"J": 1 + 0.5j}),
        ((J * J, ex.const(2)), (0.2, -0.1), {"J": 2.9 + 0.1j}),
        ((1 + I, ex.ONE), (0.2, -0.1j), {}),
    ])
    def test_complex_inputs_follow_the_matrix_exponential(self, Z, q0, params):
        # a complex start coordinate, bound value or I in the field
        ch = solve_one(Z, ex.ZERO, q0, q0[0] + 0.5, params=params)
        assert_end_is_the_matrix_exponential(Z, dict(params, E=1.0), ch)
        assert any(x.imag != 0.0 for x in ch.end)

    @pytest.mark.parametrize("t_end", [1.7, -1.3, 0.0])
    def test_h3_phase_is_the_potential_s_antiderivative(self, h3, t_end):
        # H3 has Z = 1 and a V quadratic in q, which the Gauss-Legendre rule
        # integrates exactly: the phase is F(q0) - F(q0 + t), F the
        # exponent of the closed-form solution
        Z, V = first_order(h3)
        params = {"J": -1.0, "E": 0.8}
        exponent = ex.compile_expr(-I * J * q ** 3 / F(6) - I * E * q * Power(J, -1) / F(2),
                                   ["q"], bind=params)
        ch = solve_one(Z, V, (0.3,), 0.3 + t_end, step=1e-3, params=params)
        t = ch.ts[-1]
        assert len(ch.ts) == round(abs(t_end) / 1e-3) + 1
        want = exponent(0.3) - exponent(0.3 + t)
        assert abs(ch.phase - want) <= 1e-13 * (1 + abs(want))

    @pytest.mark.parametrize("case", ["heisenberg", "g4_7", "rotation"])
    def test_the_end_point_does_not_depend_on_the_step(self, case):
        # the chart points carry no truncation error, so only rounding
        # separates the ends of grids of 10, 20 and 500 steps
        if case == "rotation":
            Z, params = (-q2, q1), {}
        else:
            Z, params = first_order(load_model(case))[0], {"J": 1.0}
        q0 = (0.4, -0.3)[:len(Z)]
        ends = [solve_one(Z, ex.ZERO, q0, q0[0] - 0.5, step=step, params=params).end
                for step in (0.05, 0.025, 1e-3)]
        for end in ends[1:]:
            assert end == pytest.approx(ends[0], rel=1e-14, abs=1e-15)


G47_PAIRS = [(1, 1), (3, F(-1, 8)), (1, 2)]


def field_parts(Z, params):
    """(A's entries row by row, c) of an affine field Z = A q + c, bound
    and compiled as `solve_reduced` reads them."""
    m = len(Z)
    parts = ex.compile_expr(reduction._affine_parts(tuple(Z), _chart_names(m)), (),
                            bind=params)()
    return parts[:m * m], parts[m * m:]


class TestSpectrum:
    """`_spectrum`'s eigenvalues and Sylvester projections of at most 2 x 2
    matrices, whose entries come row by row: A = sum_i lam_i E_i."""

    @pytest.mark.parametrize("a", [
        (2.5,),
        (1.0, 0.0, 0.0, -2.0),  # diagonal
        (1.0, 2.0, 3.0, 4.0),
        (0.0, -1.0, 1.0, 0.0),  # a rotation: +-i
        (1.0, -1.0, -1.0, 0.0),  # g4,7 at alpha = beta = 1
        (1.0, 1.0, 1.0, 1.0),  # singular: 2 and 0
        (1.0, 5.0, 0.0, 2.0),  # upper triangular
        (2.0, 0.0, 3.0, -1.0),  # lower triangular
        (1e-3, 2.0, 1e-6, 1e-3),  # eigenvalues that nearly cancel in the trace
        (3.0, 0.0, 0.0, 3.0),  # a multiple of I
    ], ids=str)
    def test_the_projections_resolve_the_matrix_and_the_identity(self, a):
        m = math.isqrt(len(a))
        lams, projs = _spectrum(tuple(complex(x) for x in a), (ex.ONE,) * m)
        projs, mat = np.array(projs), np.array(a).reshape(m, m)
        # the projections' norm bounds the condition of the eigenbasis
        scale = 1e-14 * max(np.linalg.norm(e, 2) for e in projs)
        assert len(lams) == len(projs) == (1 if a in ((2.5,), (3.0, 0.0, 0.0, 3.0)) else 2)
        assert np.abs(sum(lam * e for lam, e in zip(lams, projs)) - mat).max() <= (
            scale * (1 + np.abs(mat).max()))
        assert np.abs(projs.sum(axis=0) - np.eye(m)).max() <= scale
        for i, e in enumerate(projs):
            for j, f in enumerate(projs):
                assert np.abs(e @ f - (e if i == j else 0)).max() <= scale

    @pytest.mark.parametrize("a", [
        (1.0, 1.0, 0.0, 1.0),  # a Jordan block
        (0.0, 1.0, 0.0, 0.0),  # nilpotent
        (1.0, 1.0, 1e-20, 1.0),  # eigenvectors 1e-10 apart
    ], ids=str)
    def test_a_defective_matrix_raises_naming_the_field(self, a):
        with pytest.raises(ChartFieldError, match=r"^Z = \(q1, 1\) has a defective linear part"):
            _spectrum(tuple(complex(x) for x in a), (q1, ex.ONE))

    @pytest.mark.parametrize("alpha, beta", G47_PAIRS)
    def test_g47_gives_floats(self, alpha, beta):
        Z, _ = first_order(load_model("g4_7", F(alpha), F(beta)))
        a, _ = field_parts(Z, {"J": 1.0})
        assert all(type(x) is complex for x in a)  # as `solve_reduced` reads them
        lams, projs = _spectrum(a, Z)
        assert all(type(x) is float for x in lams + sum(sum(projs, ()), ()))
        assert lams[0] * lams[1] == pytest.approx(-float(beta), rel=1e-14)

    @pytest.mark.parametrize("a", [(0.0, -1.0, 1.0, 0.0), (0j, -1 + 0j, 1 + 0j, 0j),
                                   (1.0, 1j, 0.0, 2.0)], ids=str)
    def test_complex_eigenvalues_or_entries_give_complexes(self, a):
        # the rotation's +-i, as floats or complexes, and a complex entry
        lams, projs = _spectrum(a, (q1, ex.ONE))
        assert all(type(x) is complex for x in lams + sum(sum(projs, ()), ()))
        assert np.abs(sum(lam * np.array(e) for lam, e in zip(lams, projs))
                      - np.array(a).reshape(2, 2)).max() <= 1e-14


class TestRealPath:
    """Real A, c and start points run the flow on float64 arrays; anything
    complex keeps the complex path, and both give the same chart points."""

    @pytest.fixture
    def flow_dtypes(self, monkeypatch):
        """The dtype of each `_affine_flow` result, in call order."""
        dtypes = []
        flow = reduction._affine_flow

        def recorded(*args):
            qs = flow(*args)
            dtypes.append(qs.dtype)
            return qs

        monkeypatch.setattr(reduction, "_affine_flow", recorded)
        return dtypes

    @pytest.mark.parametrize("case", G47_PAIRS + ["singular"], ids=str)
    def test_the_real_flow_matches_the_matrix_exponential(self, case):
        from scipy.linalg import expm

        if case == "singular":  # eigenvalue 0 with c outside A's range
            Z = (q1 + q2 + 1, (q1 + q2) / 2 - 2)
        else:
            Z, _ = first_order(load_model("g4_7", F(case[0]), F(case[1])))
        a, c = field_parts(Z, {"J": 1.0})
        q0, times = (1.2, 0.5), np.linspace(-0.9, 0.7, 9)
        qs = reduction._affine_flow(_spectrum(a, Z), tuple(x.real for x in c), q0, times)
        assert qs.dtype == np.float64 and qs.shape == (2, len(times))
        gen = np.zeros((3, 3))
        gen[:2, :2], gen[:2, 2] = np.array(a).real.reshape(2, 2), np.array(c).real
        for k, t in enumerate(times):
            want = (expm(t * gen) @ np.array(q0 + (1.0,)))[:2]
            assert np.abs(qs[:, k] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("case", G47_PAIRS + ["rotation", "complex"], ids=str)
    def test_the_flow_starts_at_the_target_bit_for_bit(self, case):
        # column 0 is q0 plus an exact zero, not P (P^-1 q0)
        rng = random.Random(43)
        if case == "rotation":  # the eigenvalues +-i
            Z, params = (-q2, q1), {}
        elif case == "complex":
            Z, params = (J * q2, -q1), {"J": 1 + 0.5j}
        else:
            Z, params = first_order(load_model("g4_7", F(case[0]), F(case[1])))[0], {"J": 1.0}
        a, c = field_parts(Z, params)
        spectrum, c = _spectrum(a, Z), tuple(x.real for x in c)
        times = np.linspace(0.0, 0.7, 8)
        for _ in range(50):
            q0 = (rng.uniform(1.2, 2.2), rng.uniform(0.5, 0.9))
            if case == "complex":
                q0 = (q0[0] + 0.3j, q0[1])
            qs = reduction._affine_flow(spectrum, c, q0, times)
            assert tuple(qs[:, 0].tolist()) == q0

    @pytest.mark.parametrize("alpha, beta", G47_PAIRS)
    def test_a_start_with_a_tiny_imaginary_part_takes_the_complex_path(
            self, alpha, beta, flow_dtypes):
        Z, V = first_order(load_model("g4_7", F(alpha), F(beta)))
        real, tiny = (solve_one(Z, V, (1.2, q2_0), 0.9, step=1e-3, params={"J": 1.0})
                      for q2_0 in (0.5, 0.5 + 1e-30j))
        assert flow_dtypes == [np.float64, np.complex128]
        assert all(type(x) is complex for x in real.end + tiny.end)
        assert tuple(real.ts) == tuple(tiny.ts)
        assert np.abs(np.array(real.end) - np.array(tiny.end)).max() <= 1e-13
        assert abs(real.phase - tiny.phase) <= 1e-13 * (1 + abs(real.phase))

    def test_a_complex_field_or_bound_value_keeps_the_complex_path(self, flow_dtypes):
        for Z, params in (((1 + I, ex.ONE), {}), ((J * q2, -q1), {"J": 1 + 0.5j})):
            solve_one(Z, ex.ZERO, (0.2, 0.1), 0.7, params=params)
        assert flow_dtypes == [np.complex128] * 2

    def test_a_real_field_with_complex_eigenvalues_runs_in_float64(self, flow_dtypes):
        # the rotation (q2, -q1) has the eigenvalues +-i; it took the
        # complex path while A's eigenvalues decided it
        real, tiny = (solve_one((q2, -q1), ex.ZERO, (0.2, q2_0), 0.7)
                      for q2_0 in (0.1, 0.1 + 1e-30j))
        assert flow_dtypes == [np.float64, np.complex128]
        assert np.abs(np.array(real.end) - np.array(tiny.end)).max() <= 1e-15

    def test_the_rotation_matches_the_matrix_exponential(self):
        from scipy.linalg import expm

        Z = (-q2, q1)
        a, c = field_parts(Z, {})
        q0, times = (1.2, 0.5), np.linspace(-2.0, 2.0, 9)
        qs = reduction._affine_flow(_spectrum(a, Z), tuple(x.real for x in c), q0, times)
        assert qs.dtype == np.float64 and qs.shape == (2, len(times))
        gen = np.zeros((3, 3))
        gen[:2, :2] = np.array(a).real.reshape(2, 2)
        for k, t in enumerate(times):
            want = (expm(t * gen) @ np.array(q0 + (1.0,)))[:2]
            assert np.abs(qs[:, k] - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("eps, bound", [(1e-4, 2.95e-15), (1e-8, 2.12e-13),
                                            (1e-12, 3.44e-11)])
    def test_a_nearly_defective_flow_against_mpmath(self, eps, bound):
        # A = [[1, 1], [eps, 1]] has eigenvalues 1 +- sqrt(eps) and
        # projections of norm about 1 / (2 sqrt(eps)); the bounds are the
        # errors of the eigenvector decomposition this flow replaced
        a, c, q0 = (1.0, 1.0, eps, 1.0), (0.3, -0.2), (0.7, 1.1)
        times = np.linspace(-2.0, 2.0, 9)
        qs = reduction._affine_flow(_spectrum(a, (q1, ex.ONE)), c, q0, times)
        assert qs.dtype == np.float64
        with mpmath.workdps(40):
            gen = mpmath.matrix([[a[0], a[1], c[0]], [a[2], a[3], c[1]], [0, 0, 0]])
            start = mpmath.matrix([q0[0], q0[1], 1])
            want = np.array([[float(x) for x in (mpmath.expm(mpmath.mpf(t) * gen) * start)[:2]]
                             for t in times.tolist()]).T
        assert np.abs(qs - want).max() <= bound * np.abs(want).max()


class TestDomainCalls:
    """`solve_reduced` calls the domain predicate once per target, on the
    (m, N) float array of the target and the grid points after it."""

    def test_one_call_per_target_on_every_grid_point(self, g47):
        shapes = []

        def counting(p):
            shapes.append((type(p), p.dtype, p.shape))
            return g47.chart_domain(p)

        Z, V = first_order(g47)
        targets = [(1.2, 0.5), (2.2, 0.9), (1.5, 0.7), (0.9, 0.6)]
        _, chars = solve_reduced(Z, V, 1.3, lambda u, p: 1.0, targets, 1e-3,
                                 v=g47.flow_box[0], v_ref=-1.0, params={"J": 1.0},
                                 domain=counting)
        assert shapes == [(np.ndarray, np.float64, (2, len(ch.ts))) for ch in chars]

    def test_one_call_for_an_exit(self, g47):
        calls = []
        Z, _ = first_order(g47)
        with pytest.raises(DomainExitError):
            solve_one(Z, I * J * q1 * q2, (1.0, 0.4), 7.0, params={"J": 1.0},
                      domain=lambda p: calls.append(p.shape) or g47.chart_domain(p))
        assert calls == [(2, 601)]

    def test_a_length_zero_characteristic_ends_at_its_target_bit_for_bit(self, g47):
        # the flow at t = 0 was P (P^-1 q0), and 193 of these 200 ends
        # missed the target by up to 4.4e-16; the domain saw the target
        rng = random.Random(41)
        Z, V = first_order(g47)
        v, u = rectifying_coordinates(g47)
        params = {"J": 1.0, "E": 1.3}
        v_at = ex.compile_expr(v, _chart_names(2), bind=params)
        for _ in range(200):
            target = (rng.uniform(1.2, 2.2), rng.uniform(0.5, 0.9))
            seen = []
            _, (ch,) = solve_reduced(
                Z, V, 1.3, lambda u, p: 1.0, [target], 1e-3, v=v, u=u,
                v_ref=v_at(*map(complex, target)).real, params=params,
                domain=lambda p: seen.append(p.copy()) or g47.chart_domain(p))
            assert ch.ts.steps == 0 and ch.end == target
            assert tuple(seen[0][:, 0]) == target

    @pytest.mark.parametrize("domain, got", [
        (lambda p: True, r"bool of shape \(\) and dtype bool"),
        (lambda p: np.bool_(True), r"bool_? of shape \(\) and dtype bool"),
        (lambda p: p > 0.0, r"ndarray of shape \(2, 11\) and dtype bool"),
        (lambda p: (p[1] > 0.0)[1:], r"ndarray of shape \(10,\) and dtype bool"),
        (lambda p: np.where(p[1] > 0.0, 1.0, np.nan),
         r"ndarray of shape \(11,\) and dtype float64"),
        (lambda p: list(p[1] > 0.0), r"list of shape \(11,\) and dtype bool"),
    ], ids=["bool", "numpy-bool", "per-coordinate", "short", "float", "list"])
    def test_a_result_that_is_not_one_boolean_per_point_raises(self, domain, got):
        # before any phase: the potential would fail on the first step
        with pytest.raises(ValueError, match=r"^the domain predicate must return a boolean "
                                             rf"array of shape \(11,\).*; got {got}$"):
            solve_one((ex.ONE, ex.ONE), Log(q1 - 5), (1.0, 0.5), 1.1, domain=domain)


@pytest.mark.parametrize("t_end, step", [(1.7, 1e-3), (-1.3, 1e-3), (0.6, 0.25),
                                         (1e-5, 1e-2), (-0.64, 0.64 / 37)])
def test_grid_step_count(t_end, step):
    # round(|t_end| / step) equal steps, at least one: a benchmark reads
    # this count; t_end = 0 takes none
    ch = solve_one((ex.ONE,), ex.ZERO, (0.3,), 0.3 + t_end, step=step)
    t_end = (0.3 + t_end) - 0.3
    assert len(ch.ts) - 1 == max(1, round(abs(t_end) / step))
    assert ch.ts[0] == 0.0 and ch.ts[-1] == pytest.approx(t_end, rel=1e-12)
    ch = solve_one((ex.ONE,), ex.ZERO, (0.3,), 0.3, step=step)
    assert (tuple(ch.ts), ch.end, ch.phase) == ((0.0,), (0.3 + 0j,), 0j)


class TestGrid:
    """`Characteristic.ts` is a Grid(end, steps): the sequence of the
    steps + 1 times end / steps * k, without a float per time."""

    @pytest.mark.parametrize("end, steps", [(1.7, 1700), (-0.64, 37), (1e-5, 1), (0.0, 0)])
    def test_the_times_are_those_of_the_array_grid(self, end, steps):
        grid = Grid(end, steps)
        want = (end / max(steps, 1) * np.arange(steps + 1.0)).tolist()
        assert len(grid) == steps + 1
        assert list(grid) == want and [grid[k] for k in range(len(grid))] == want
        assert grid[-1] == want[-1] and grid[-len(grid)] == want[0] == 0.0
        assert grid[1:4] == tuple(want[1:4]) and grid[::-1] == tuple(want[::-1])
        for k in (len(grid), -len(grid) - 1):
            with pytest.raises(IndexError):
                grid[k]
        with pytest.raises(TypeError):
            grid[1.0]

    def test_a_characteristic_keeps_its_grid(self):
        ch = solve_one((ex.ONE,), ex.ZERO, (0.3,), 0.3 + 1.7, step=1e-3)
        assert ch.ts == Grid((0.3 + 1.7) - 0.3, 1700) and len(ch.ts) - 1 == 1700


def per_step_phase(Z, V, params, start, t_end, step):
    """An oracle for the phase: the 4-point Gauss-Legendre rule on each of
    round(|t_end| / step) equal steps, summed, at chart points from numpy's
    eigen-decomposition of an invertible A."""
    m = len(Z)
    names = _chart_names(m)
    z = ex.compile_expr(tuple(Z), names, bind=params)
    c = np.array(z(*[0.0] * m))
    a = np.array([np.array(z(*np.eye(m)[j])) - c for j in range(m)]).T
    lams, p = np.linalg.eig(a)
    shift = np.linalg.solve(a, c)  # q + A^-1 c grows as e^(tA)
    n = max(1, round(abs(t_end) / step))
    x, w = np.polynomial.legendre.leggauss(4)
    times = t_end / n * (np.arange(n)[:, None] + (1 + x) / 2).ravel()
    y0 = np.linalg.solve(p, np.array(start) + shift)
    qs = p @ (np.exp(np.outer(lams, times)) * y0[:, None]) - shift[:, None]
    values, ok = ex.compile_array(V, names, bind=params)(*qs)
    assert ok.all()
    return complex(t_end / n / 2 * (values.reshape(n, 4) * w).sum())


class TestPhaseRule:
    """The phase is one Gauss-Legendre rule over the whole characteristic,
    doubled from 96 nodes until it settles; each Characteristic records the
    rule's node count and the change it settled with."""

    def test_h3_settles_at_192_nodes(self, h3):
        Z, V = first_order(h3)
        ch = solve_one(Z, V, (0.3,), 1.7, step=1e-3, params={"J": -1.0, "E": 0.8})
        assert ch.phase_nodes == 192
        assert 0.0 <= ch.phase_change <= 1e-12
        ch = solve_one(Z, V, (0.3,), 0.3, params={"J": -1.0})
        assert (ch.phase, ch.phase_nodes, ch.phase_change) == (0j, 0, 0.0)

    def test_one_flow_call_per_characteristic_and_one_potential_call_per_solve(
            self, h3, monkeypatch):
        # each target's grid and its first two rules' 96 + 192 nodes in one
        # flow call, and V once on the nodes of all targets; an exit adds
        # one flow call and one potential call on the 96-node rule up to it
        calls = []
        flow, compile_array = reduction._affine_flow, ex.compile_array

        def counted_flow(*args):
            qs = flow(*args)
            calls.append(("flow", qs.shape[1]))
            return qs

        def counted_compile(*args, **kwargs):
            f = compile_array(*args, **kwargs)

            def g(*columns, **kw):
                values, ok = f(*columns, **kw)
                calls.append(("V", values.shape[-1]))
                return values, ok

            return g

        monkeypatch.setattr(reduction, "_affine_flow", counted_flow)
        monkeypatch.setattr(ex, "compile_array", counted_compile)
        reduction._field.cache_clear()  # V is compiled, and counted, afresh
        Z, V = first_order(h3)
        solve_one(Z, V, (0.3,), 1.7, params={"J": 1.0})
        assert calls == [("flow", 141 + 288), ("V", 288)]
        calls.clear()
        solve_reduced(Z, V, 1.0, lambda u, p: 1.0, [(0.3,), (0.5,), (-0.2,)], 1e-2, v=q,
                      v_ref=1.7, params={"J": 1.0})
        assert calls == [("flow", 141 + 288), ("flow", 121 + 288), ("flow", 191 + 288),
                         ("V", 3 * 288)]
        calls.clear()
        with pytest.raises(DomainExitError):
            solve_one(Z, V, (0.3,), 1.7, params={"J": 1.0}, domain=lambda p: p[0] < 1.0)
        assert calls == [("flow", 141 + 288), ("flow", 96), ("V", 96)]

    def test_a_potential_too_oscillatory_to_settle_raises_naming_the_nodes(self):
        with pytest.raises(InconclusiveError, match=r"did not settle below 1e-12 by n=3072$"):
            solve_one((ex.ONE,), Exp(I * 10 ** 5 * q), (0.0,), 1.5)

    def test_random_g47_targets_agree_with_the_per_step_rule(self, g47):
        rng = random.Random(47)
        Z, V = first_order(g47)
        v, u = rectifying_coordinates(g47)
        for energy in (0.5, 1.5):
            params = {"J": 1.0, "E": energy}
            targets = [(rng.uniform(1.2, 2.2), rng.uniform(0.5, 0.9)) for _ in range(6)]
            _, chars = solve_reduced(Z, V, energy, lambda u, p: 1.0, targets, 1e-3, v=v,
                                     u=u, v_ref=-1.0, params=params, domain=chart_domain(g47))
            for ch in chars:
                want = per_step_phase(Z, V, params, ch.start, ch.ts[-1], 1e-3)
                assert abs(ch.phase - want) <= 1e-13 * max(1.0, abs(want))
                assert ch.phase_nodes == 192 and ch.phase_change <= 1e-12


def per_target_solve(Z, V, energy, phi, q_targets, step, *, v, u=(), v_ref=0.0,
                     params=None, domain=None):
    """An oracle for the array pass: `solve_reduced` as it was before it,
    one target at a time, each with its own flow, grid test and
    `integrate_1d` call, and `ts` a tuple of floats."""
    from nclb.quadrature import COUNTS, gl_nodes, integrate_1d

    q_targets = list(q_targets)
    for target in q_targets:
        reduction._check_point(target, len(Z), "target")
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise StepError(f"the step must be positive and finite, got {step!r}")
    params = dict(params or {})
    params.setdefault("E", energy)
    q_vars = _chart_names(len(Z))
    Z = tuple(ex.as_expr(z) for z in Z)
    parts = ex.compile_expr(reduction._affine_parts(Z, q_vars), (), bind=params)()
    m = len(q_vars)
    spectrum, c = _spectrum(parts[:m * m], Z), parts[m * m:]
    real = not any(x.imag for x in parts)
    if real:
        c = tuple(x.real for x in c)
    potential = ex.compile_array(ex.as_expr(V), q_vars, bind=params)
    v_fn = ex.compile_expr(ex.as_expr(v), q_vars, bind=params)
    u_fn = ex.compile_expr(tuple(ex.as_expr(ue) for ue in u), q_vars, bind=params)

    values = []
    chars = []
    for target in q_targets:
        q0 = [complex(x) for x in target]
        v_here = v_fn(*q0)
        if abs(v_here.imag) > 1e-9 * (1.0 + abs(v_here)):
            raise ex.DomainError(f"v is not real at {target}: {v_here}")
        t_end = float(v_ref) - v_here.real
        if not math.isfinite(t_end):
            raise StepError(f"the end time must be finite, got {t_end!r}")
        if not abs(t_end) / step <= reduction.MAX_STEPS:
            raise StepError(f"too many steps: |t_end| / step = {abs(t_end)!r} / {step!r}"
                            f" = {abs(t_end) / step:.6g}, more than {reduction.MAX_STEPS}")
        n = max(1, round(abs(t_end) / step)) if t_end else 0
        ts = t_end / max(n, 1) * np.arange(n + 1.0)
        start = [x.real for x in q0] if real and not any(x.imag for x in q0) else q0

        def flow(times):
            with np.errstate(all="ignore"):
                return reduction._affine_flow(spectrum, c, start, times)

        def checked(grid):
            finite = np.isfinite(grid).all(axis=0)
            stop, exited = (len(ts) if finite.all() else int(finite.argmin())), False
            if domain is not None:
                points = np.array(grid[:, :max(stop, 1)].real)
                points[:, 0] = [x.real for x in q0]
                inside = reduction._inside(domain, points)
                if not inside[0]:
                    raise DomainExitError(0.0, tuple(target))
                if not inside.all():
                    stop, exited = int(inside.argmin()), True
            if stop == len(ts):
                return grid
            potential(*flow(gl_nodes(COUNTS[0], 0.0, ts[stop])[0]))
            if exited:
                raise DomainExitError(float(ts[stop]),
                                      tuple(map(complex, grid[:, stop].tolist())))
            raise ex.DomainError(f"the chart point is not finite at t = {float(ts[stop])!r}")

        if n:
            grid = None

            def along(times):
                nonlocal grid
                if grid is not None:
                    return potential(*flow(times))[0]
                qs = flow(np.concatenate((ts, times)))
                grid = checked(qs[:, :n + 1])
                return potential(*qs[:, n + 1:])[0]

            phase, nodes, change = integrate_1d(along, 0.0, t_end)
        else:
            grid, phase, nodes, change = checked(flow(ts)), 0j, 0, 0.0
        phase = complex(phase)
        values.append(phi(u_fn(*q0), params) * cmath.exp(phase))
        chars.append(Characteristic(start=tuple(target), step=step, ts=tuple(ts.tolist()),
                                    end=tuple(map(complex, grid[:, n].tolist())),
                                    phase=phase, phase_nodes=nodes,
                                    phase_change=float(change)))
    return values, chars


# a field whose targets, with v = q1 and v_ref = 0, each take one path: q1
# runs from the target to 0 while q2 grows as e^(50 |t|); the domain has a
# hole at 0.5 < q1 < 0.7, and V = e^(100 i q1) settles at 192 nodes over a
# short characteristic and at 384 over q1's run from -3
MIXED_FIELD = dict(Z=(ex.ONE, -50 * q2), V=Exp(100 * I * q1), energy=0.0,
                   v=q1, v_ref=0.0, domain=lambda p: (p[0] < 0.5) | (p[0] > 0.7))
MIXED_TARGETS = {
    "clean": (0.3, 0.4),
    "clean-back": (-0.4, -1.5),
    "zero": (0.0, 0.7),
    "exit": (1.0, 0.2),
    "non-finite": (20.0, 1.0),
    "complex-start": (0.2, 0.3 + 0.2j),
    "settles-at-384": (-3.0, 0.5),
    "outside": (0.6, 0.1),
}


def mixed(*names, solve=solve_reduced, **kwargs):
    field = dict(MIXED_FIELD, **kwargs)
    Z, V, energy = field.pop("Z"), field.pop("V"), field.pop("energy")
    return solve(Z, V, energy, lambda u, p: 2.0 - 1j, [MIXED_TARGETS[k] for k in names],
                 1e-2, **field)


def assert_agrees(got, want):
    """`solve_reduced`'s values and characteristics are `per_target_solve`'s
    bit for bit."""
    (vals, chars), (want_vals, want_chars) = got, want
    assert len(vals) == len(want_vals) and len(chars) == len(want_chars)
    assert [ch.phase_nodes for ch in chars] == [ch.phase_nodes for ch in want_chars]
    for val, want, ch, ref in zip(vals, want_vals, chars, want_chars):
        assert val == want
        assert tuple(ch.ts) == ref.ts and len(ch.ts) == len(ref.ts)
        assert (ch.start, ch.step, ch.end) == (ref.start, ref.step, ref.end)
        assert ch.phase == ref.phase
        # numpy's array abs of a complex can differ from the scalar abs in
        # the last bit, which moves the change on the scale of the phase
        assert abs(ch.phase_change - ref.phase_change) <= 1e-15 * abs(ref.phase)


class TestArrayPass:
    """`solve_reduced` solves all targets of a call in one array pass; a
    target it cannot finish there goes through the per-target steps.  Both
    must give what the targets give one at a time (`per_target_solve`)."""

    @pytest.mark.parametrize("names", [
        ("clean", "clean-back", "zero"),
        ("complex-start", "clean", "settles-at-384", "clean-back"),
        ("settles-at-384", "zero", "complex-start"),
        ("clean",) * 3 + ("settles-at-384",) * 2,
    ], ids="+".join)
    def test_values_and_characteristics_agree_with_the_per_target_code(self, names):
        _, chars = got = mixed(*names)
        assert_agrees(got, mixed(*names, solve=per_target_solve))
        assert {192, 384} & {ch.phase_nodes for ch in chars}
        if "settles-at-384" in names:
            assert chars[names.index("settles-at-384")].phase_nodes == 384

    def test_random_g47_targets_agree_with_the_per_target_code(self, g47):
        rng = random.Random(42)
        Z, V = first_order(g47)
        v, u = rectifying_coordinates(g47)
        targets = [(rng.uniform(1.2, 2.2), rng.uniform(0.5, 0.9)) for _ in range(12)]
        got, want = (solve(Z, V, 1.3, lambda u, p: 2.0 - 1j * u[0], targets, 1e-3, v=v, u=u,
                           v_ref=-1.0, params={"J": 1.0}, domain=chart_domain(g47))
                     for solve in (solve_reduced, per_target_solve))
        assert_agrees(got, want)

    @pytest.mark.parametrize("names, error", [
        (("clean", "exit", "non-finite"), DomainExitError),
        (("clean", "non-finite", "exit"), ex.DomainError),
        (("complex-start", "exit", "clean"), DomainExitError),
        (("settles-at-384", "outside", "exit"), DomainExitError),
        (("clean", "exit", "too-long"), DomainExitError),
        (("clean", "too-long", "exit"), StepError),
        (("too-long", "exit"), StepError),
    ], ids=lambda x: "+".join(x) if isinstance(x, tuple) else x.__name__)
    def test_the_first_target_that_raises_raises_its_error(self, monkeypatch, names, error):
        monkeypatch.setitem(MIXED_TARGETS, "too-long", (25.0, 0.0))
        monkeypatch.setattr(reduction, "MAX_STEPS", 2000)  # too-long takes 2500
        with pytest.raises(error) as err:
            mixed(*names)
        with pytest.raises(error) as want:
            mixed(*names, solve=per_target_solve)
        assert str(err.value) == str(want.value)
        if error is DomainExitError:
            assert err.value.exit_time == want.value.exit_time
            assert err.value.point == want.value.point

    @pytest.mark.parametrize("names, error, match", [
        (("clean", "exit", "log-fails"), DomainExitError, r"^trajectory left .* t = -0\.3"),
        (("clean", "log-fails", "exit"), ex.DomainError, "^log requires positive real part"),
    ], ids=lambda x: "+".join(x) if isinstance(x, tuple) else None)
    def test_an_error_of_v_at_a_later_target_does_not_pre_empt_an_earlier_one(
            self, monkeypatch, names, error, match):
        # log(q1 + 5) fails on the way from q1 = -6 to 0, and nowhere else
        monkeypatch.setitem(MIXED_TARGETS, "log-fails", (-6.0, 0.1))
        for solve in (solve_reduced, per_target_solve):
            with pytest.raises(error, match=match):
                mixed(*names, solve=solve, V=Log(q1 + 5))

    def test_one_potential_call_when_every_target_is_clean(self, monkeypatch):
        calls = []
        compile_array = ex.compile_array

        def counted_compile(*args, **kwargs):
            f = compile_array(*args, **kwargs)

            def g(*columns, **kw):
                values, ok = f(*columns, **kw)
                calls.append(values.shape)
                return values, ok

            return g

        monkeypatch.setattr(ex, "compile_array", counted_compile)
        reduction._field.cache_clear()
        names = ("clean", "clean-back", "zero", "clean")
        mixed(*names)
        # the target at q1 = 0 has a characteristic of length zero and no nodes
        assert calls == [(3 * 288,)]

    def test_grids_are_not_held_together(self):
        # each grid goes before the next target's flow is taken, so eight
        # characteristics of 2e5 steps need about the memory of one
        import tracemalloc

        def peak(targets):
            tracemalloc.start()
            try:
                solve_reduced((ex.ONE, -q2), I * q1, 0.0, lambda u, p: 1.0, targets, 1e-5,
                              v=q1, v_ref=2.0, domain=lambda p: p[1] > 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        targets = [(0.0, 1.0 + k / 8) for k in range(8)]
        peak(targets[:1])  # the set-up is cached
        one, eight = peak(targets[:1]), peak(targets)
        assert one > 2e5 * 8  # a grid's times alone take that much
        assert eight < 2 * one


class TestInvariantsAndRectify:
    def samples(self, g47, n=100):
        return chart_samples(g47, n)

    def invariant_dev(self, g47, u):
        """rectify_check's max |Z u| / (|u| * ||Z||) for one candidate u."""
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        v, _ = rectifying_coordinates(g47)
        rep = rectify_check(red.first_order.Z, v, (u,), self.samples(g47),
                            params={"J": 1.0})
        assert (rep.samples_used, rep.skipped_samples) == (100, 0)
        return rep.max_dev_u

    def test_u_is_invariant(self, g47):
        _, (u,) = rectifying_coordinates(g47)
        assert self.invariant_dev(g47, u) <= 1e-12

    def test_constant_invariant(self, g47):
        assert self.invariant_dev(g47, ex.const(7)) == 0.0

    def test_coordinate_not_invariant(self, g47):
        assert self.invariant_dev(g47, q1) > 1e-3

    def test_rectification(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        v, u = rectifying_coordinates(g47)
        rep = rectify_check(red.first_order.Z, v, u, self.samples(g47),
                            params={"J": 1.0})
        assert rep.max_dev_v <= 1e-12
        assert rep.max_dev_u <= 1e-12

    def test_h3_trivial_chart(self, h3):
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        v, u = rectifying_coordinates(h3)
        rep = rectify_check(red.first_order.Z, v, u,
                            [(-1.0,), (0.0,), (1.0,)], params={"J": 1.0})
        assert rep.max_dev_v == 0.0 and rep.max_dev_u == 0.0

    def test_wrong_sign_v(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        v, u = rectifying_coordinates(g47)
        rep = rectify_check(red.first_order.Z, simplify(-1 * v), u,
                            self.samples(g47), params={"J": 1.0})
        assert abs(rep.max_dev_v - 2.0) <= 1e-9


def h3_closed_form():
    return Exp(-I * J * q ** 3 / F(6) - I * E * q * Power(J, -1) / F(2))


class TestSolveReduced:
    def test_h3_matches_closed_form(self, h3):
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        f = ex.compile_expr(h3_closed_form(), ["q", "J", "E"])
        targets = [(x / 10,) for x in range(-20, 21)]
        vals, chars = solve_reduced(
            red.first_order.Z, red.first_order.V, 1.0, lambda u, p: 1.0,
            targets, 1e-3, v=q, u=(), v_ref=0.0, params={"J": 1.0})
        sup = max(abs(v - f(t[0], 1.0, 1.0)) for v, t in zip(vals, targets))
        assert sup <= 1e-8
        assert all(abs(v - cmath.exp(ch.phase)) == 0.0 for v, ch in zip(vals, chars))

    def test_zero_potential_constant(self):
        vals, _ = solve_reduced((ex.ONE,), ex.ZERO, 0.0,
                                lambda u, p: 2.5, [(0.7,), (-0.3,)],
                                1e-2, v=q, u=())
        assert all(abs(v - 2.5) < 1e-12 for v in vals)

    def test_the_phase_does_not_depend_on_the_step(self, h3):
        # an exponential bump makes the potential more than a polynomial;
        # the phase is one settled rule over the whole characteristic, so
        # the step of the grid leaves it as it is
        from scipy.integrate import quad

        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        bumped = red.first_order.V + Exp(q) * F(1, 5)
        params = {"J": 1.0, "E": 1.0}
        phases = [solve_one(red.first_order.Z, bumped, (1.5,), 0.0, step=step,
                            params=params).phase
                  for step in (1.5, 0.75, 1e-3)]
        assert phases[0] == phases[1] == phases[2]
        potential = ex.compile_expr(bumped, ["q"], bind=params)
        # over t from 0 to -1.5, taken as minus the integral from -1.5 to 0
        want, _ = quad(lambda t: potential(1.5 + t), -1.5, 0.0, complex_func=True,
                       epsabs=0.0, epsrel=2e-14)
        assert abs(phases[0] + want) <= 1e-13 * abs(want)

    def test_g47_solution_satisfies_reduced_equation(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        v_expr, u_exprs = rectifying_coordinates(g47)

        def phi(u, p):
            return cmath.exp(-abs(u[0]) ** 2 / 4.0)

        def psi(qt):
            vals, _ = solve_reduced(
                red.first_order.Z, red.first_order.V, 1.0, phi, [qt], 1e-3,
                v=v_expr, u=u_exprs, v_ref=-1.0, params={"J": 1.0},
                domain=chart_domain(g47))
            return vals[0]

        pts = [(1.2, 0.5), (1.8, 0.7), (2.2, 0.9)]
        rep = reduced_residual(red, psi, 1.0, pts, params={"J": 1.0},
                               fd_step=2e-3)
        assert rep.max_residual <= 1e-6


class TestCompiledOnce:
    def test_second_solve_on_the_same_field_compiles_nothing(self, h3, monkeypatch):
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        generated = []
        source = ex._source

        def counting(*args):
            generated.append(args)
            return source(*args)

        monkeypatch.setattr(ex, "_source", counting)
        for cache in (ex._closure_maker, ex.evaluate_const, reduction._field):
            cache.cache_clear()

        def solve(energy, target):
            vals, _ = solve_reduced(red.first_order.Z, red.first_order.V, energy,
                                    lambda u, p: 1.0, [target], 1e-2, v=q, u=(),
                                    params={"J": 1.0})
            return vals[0]

        first = solve(1.0, (0.4,))
        # Z's affine parts, V's array form and the constant exponent of its
        # J^-1, v and u
        assert len(generated) == 5
        second = solve(2.0, (0.9,))
        assert len(generated) == 5
        # the energy is bound per call, not baked into the cached code
        assert second != first
        assert solve(1.0, (0.4,)) == first

    def test_the_set_up_is_shared_by_calls_that_bind_the_same_doubles(self, h3):
        Z, V = first_order(h3)
        reduction._field.cache_clear()
        for energy in (1.0, 1, F(1), 1.0 + 0j, -0.0, 0.0):
            solve_one(Z, V, (0.3,), 0.5, params={"J": 1.0, "E": energy})
        # 1.0, 1, F(1) and 1 + 0j bind the same double; -0.0 and 0.0 do not
        assert reduction._field.cache_info()[:2] == (3, 3)  # hits, misses

    def test_values_and_expressions_the_cache_cannot_key_raise_as_before(self, h3):
        Z, V = first_order(h3)
        with pytest.raises(ex.DomainError, match="value bound to J is outside the double range"):
            solve_one(Z, V, (0.3,), 0.5, params={"J": 10 ** 400})
        with pytest.raises(TypeError, match="cannot treat list as an expression"):
            solve_one(Z, [V], (0.3,), 0.5, params={"J": 1.0})


class TestReducedResidual:
    def test_h3_symbolic_zero(self, h3):
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        rep = reduced_residual(red, h3_closed_form(), 1.0,
                               [(-1.0,), (0.2,), (1.4,)], params={"J": 1.0})
        assert rep.max_residual == 0.0

    @pytest.mark.parametrize("energy", [1.0, F(1), F(3, 2)])
    def test_closed_form_is_an_exact_zero_for_every_energy(self, h3, energy):
        # a float energy stays the symbol E; an exact one is folded into psi
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        rep = reduced_residual(red, h3_closed_form(), energy,
                               [(-1.0,), (0.2,), (1.4,)], params={"J": 1.0})
        assert rep.symbolic_zero
        assert rep.max_residual == 0.0
        assert rep.samples_used == 3
        assert rep.fd_cross_deviation <= 1e-5

    def test_constant_field_flags(self, h3):
        red = build_reduced(h3, verify=False)
        rep = reduced_residual(red, ex.ONE, 0.0, [(0.5,), (1.0,)],
                               params={"J": 1.0})
        assert rep.max_residual > 0.1  # J^2 q^2 does not vanish

    def test_degenerate_field_inconclusive(self, h3):
        red = build_reduced(h3, verify=False)
        with pytest.raises(InconclusiveError):
            reduced_residual(red, lambda pt: 0.0, 0.0, [(0.3,), (0.9,)],
                             params={"J": 1.0})
        with pytest.raises(InconclusiveError, match="numerically zero"):
            pde_residual_field(h3, lambda pt: 0j, 1.0, [(0.1, 0.2, 0.3)])

    def test_each_stencil_point_evaluated_once(self, g47):
        calls = []

        def psi(pt):
            calls.append(pt)
            return cmath.exp(1j * pt[0] - pt[-1] ** 2)

        # g4,7's reduced operator is first order in (q1, q2): the centre and
        # four shifts per axis, 9 distinct points per sample
        red = build_reduced(g47, verify=False)
        rep = reduced_residual(red, psi, 1.0, [(1.2, 0.5), (1.8, 0.7)],
                               params={"J": 1.0}, fd_step=1e-2)
        assert rep.samples_used == 2
        assert len(calls) == len(set(calls)) == 2 * 9

        # the second-order stencil shares its points with the first-order one
        calls.clear()
        red = ReducedOperator(raw=DiffOp(("q",), {(0,): ex.ONE, (1,): ex.ONE,
                                                  (2,): ex.ONE}))
        reduced_residual(red, psi, 0.0, [(0.3,), (0.9,)], fd_step=1e-2)
        assert len(calls) == len(set(calls)) == 2 * 5

        # the Heisenberg Laplacian: the centre, four shifts along x1 and x3,
        # and the 4x4 block of its mixed x2 x3 term, 25 points per sample
        calls.clear()
        rep = pde_residual_field(load_model("heisenberg"), psi, 1.0,
                                 [(0.1, 0.2, 0.3), (0.4, -0.2, 0.1)])
        assert rep.samples_used == 2
        assert len(calls) == len(set(calls)) == 2 * 25


    @pytest.mark.parametrize("samples", [[(-1.0,), (0.5,)], [(0.5,), (-1.0,)]])
    def test_nan_field_gives_nan_in_either_order(self, h3, samples):
        def psi(pt):
            if abs(pt[0] - 0.5) < 0.05:
                return complex(math.nan, 0.0)
            return cmath.exp(1j * pt[0])

        red = build_reduced(h3, verify=False)
        rep = reduced_residual(red, psi, 1.0, samples, params={"J": 1.0})
        assert math.isnan(rep.max_residual)


class TestStencilTable:
    """One stencil table per operator: every sample's stencil points in one
    block, each distinct point evaluated once per check."""

    PTS = [(0.1, 0.2, 0.3), (0.4, -0.2, 0.1), (0.7, 0.5, -0.3)]

    @staticmethod
    def plane_wave(pt):
        return cmath.exp(1j * (0.3 * pt[1] + 0.7 * pt[2]) - pt[0] ** 2)

    @pytest.mark.parametrize("step", [0.0, -0.05, math.nan, math.inf])
    def test_a_step_that_is_not_positive_and_finite_raises(self, h3, step):
        with pytest.raises(StepError, match="stencil step"):
            pde_residual_field(h3, self.plane_wave, 1.0, self.PTS, fd_step=step)
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        with pytest.raises(StepError, match="stencil step"):
            reduced_residual(red, h3_closed_form(), 1.0, [(0.5,)],
                             params={"J": 1.0}, fd_step=step)

    def test_a_point_that_raises_skips_exactly_the_samples_that_need_it(self, h3):
        # (0.1 + 2 * 0.05, 0.2, 0.3) is a stencil point of the first sample
        # and the centre of the last one
        pts = self.PTS + [(0.2, 0.2, 0.3)]
        calls = []

        def psi(pt):
            calls.append(pt)
            if pt in ((0.2, 0.2, 0.3), (0.4, -0.2, 0.1 - 0.05)):
                raise ex.DomainError("off the field")
            return self.plane_wave(pt)

        rep = pde_residual_field(h3, psi, 1.0, pts, fd_step=0.05)
        assert (rep.samples_used, rep.skipped_samples) == (1, 3)
        assert calls.count((0.2, 0.2, 0.3)) == 1
        assert len(calls) == len(set(calls))

    def test_batch_entry_gives_the_per_point_report(self, h3):
        batches = []

        def psi(pt):
            return self.plane_wave(pt)

        def batch(points):
            batches.append(len(points))
            return [self.plane_wave(p) for p in points.tolist()]

        plain = pde_residual_field(h3, psi, 1.0, self.PTS)
        psi.batch = batch
        assert pde_residual_field(h3, psi, 1.0, self.PTS) == plain
        assert batches == [3 * 25]

    def test_expression_field_skips_where_its_closure_raises(self, h3):
        x1, x2 = Var("x1"), Var("x2")
        psi = Log(x1) * Exp(I * x2)
        pts = [(a, 0.1 * a, -0.2) for a in (-0.6, -0.1, 0.3, 0.8, 1.5)]
        rep = operator_residual(h3.laplacian, psi, 1.0, pts)
        f = ex.compile_expr(psi, h3.x_vars)
        expected = 0
        for p in pts:
            try:
                f(*p)
            except ex.DomainError:
                expected += 1
        assert (rep.samples_used, rep.skipped_samples) == (5 - expected, expected) == (3, 2)
        assert rep.max_residual > 0.1

    def test_matches_the_per_point_stencil_loop(self, h3, g47):
        # the reference: each multi-index's stencil summed point by point
        def loop_residual(op, psi, energy, samples, h, params):
            coeffs = {idx: ex.compile_expr(c, op.variables, bind=params)
                      for idx, c in op.coefficients.items()}
            fd1 = ((-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12))
            fd2 = ((-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12))

            def at(q, shifts):
                p = list(q)
                for axis, k in shifts:
                    p[axis] += k * h
                return psi(tuple(p))

            rows = []
            for q in samples:
                total = 0j
                for idx, cf in coeffs.items():
                    axes = [a for a, k in enumerate(idx) if k]
                    if not axes:
                        acc, div = at(q, ()), 1.0
                    elif sum(idx) == 1:
                        acc, div = sum(w * at(q, ((axes[0], k),)) for k, w in fd1), h
                    elif len(axes) == 1:
                        acc, div = sum(w * at(q, ((axes[0], k),)) for k, w in fd2), h * h
                    else:
                        acc = sum(w1 * w2 * at(q, ((axes[0], k1), (axes[1], k2)))
                                  for k1, w1 in fd1 for k2, w2 in fd1)
                        div = h * h
                    total += cf(*q) * acc / div
                rows.append((abs(total - energy * at(q, ())), abs(at(q, ()))))
            return max(r for r, _ in rows) / max(p for _, p in rows)

        red = build_reduced(g47, verify=False)
        g47_field = lambda pt: cmath.exp(1j * pt[0] - pt[-1] ** 2)  # noqa: E731
        for op, psi, pts, params in (
                (h3.laplacian, self.plane_wave, self.PTS, {}),
                (red.raw, g47_field, [(1.2, 0.5), (1.8, 0.7), (2.2, 0.9)], {"J": 1.0})):
            rep = operator_residual(op, psi, 1.0, pts, params=params, fd_step=0.05)
            want = loop_residual(op, psi, 1.0, pts, 0.05, dict(params, E=1.0))
            assert rep.max_residual == pytest.approx(want, rel=1e-12)


class TestExpressionResidualPass:
    """An expression field is compiled alone and evaluated once, at the
    samples and the stencil points of the first 10; its residual is
    evaluated at the samples only, and only when it is not zero."""

    SAMPLES = [(0.1 * a, 0.2 * b - 0.2, 0.15 * c) for a in range(4)
               for b in range(3) for c in range(3)]

    @staticmethod
    def two_pass(op, psi, energy, samples, h):
        """The report's figures from per-point closures of (residual, psi)
        at the samples and of psi at the stencil points."""
        from nclb.diffop import apply
        resid = simplify(apply(op, psi) - ex.as_expr(energy) * psi)
        rp = ex.compile_expr((resid, psi), op.variables)
        f = ex.compile_expr(psi, op.variables)
        coeffs = [ex.compile_expr(c, op.variables) for c in op.coefficients.values()]
        offsets, weights, orders, _ = reduction._stencil(op)
        values = [rp(*s) for s in samples]
        cross = 0.0
        for s, (r, p) in zip(samples[:10], values):
            stencil = [f(*(np.array(s) + h * off)) for off in offsets]
            lhs = sum(c(*s) * (w @ stencil) / h ** o
                      for c, w, o in zip(coeffs, weights, orders))
            sym = r + complex(energy) * p
            cross = max(cross, abs(lhs - sym) / max(abs(sym), 1.0))
        return (max(abs(r) for r, _ in values) / max(abs(p) for _, p in values), cross)

    def test_a_proved_mode_makes_one_airy_call(self, h3, airy_array_sizes):
        from nclb.models import mode_solution_h3, pde_residual
        psi = mode_solution_h3(F(1, 3), F(5, 4), F(2))
        rep = pde_residual(h3, psi, F(2), self.SAMPLES)
        assert rep.symbolic_zero and rep.max_residual == 0.0
        # the 36 samples and the 25 stencil points of each of the first 10
        assert airy_array_sizes == [36 + 10 * 25]

    @pytest.mark.parametrize("case", ["log", "mode at another energy"])
    def test_a_residual_that_is_not_zero_reports_the_same_figures(self, h3, case):
        from nclb.models import mode_solution_h3
        if case == "log":
            psi, energy = Log(Var("x1") + 1) * Exp(I * Var("x2")), F(1)
        else:
            psi, energy = mode_solution_h3(F(1, 2), F(3, 2), F(1)), F(2)
        rep = operator_residual(h3.laplacian, psi, energy, self.SAMPLES, fd_step=0.05)
        assert not rep.symbolic_zero
        assert (rep.samples_used, rep.skipped_samples) == (36, 0)
        residual, cross = self.two_pass(h3.laplacian, psi, energy, self.SAMPLES, 0.05)
        assert rep.max_residual == pytest.approx(residual, rel=1e-12)
        assert rep.fd_cross_deviation == pytest.approx(cross, rel=1e-9)

    # x1 = 0.06 has the stencil point x1 = -0.04 at step 0.05, where log
    # raises; x1 = -0.3 raises at the sample itself
    LOG = Log(Var("x1")) * Exp(I * Var("x2"))
    NEAR_ZERO = (0.06, 0.1, 0.2)

    def test_an_error_at_a_sample_raises_before_one_at_a_stencil_point(
            self, h3, monkeypatch):
        samples = [self.NEAR_ZERO, (-0.3, 0.1, 0.2), (0.5, 0.0, 0.0)]
        rep = operator_residual(h3.laplacian, self.LOG, 1.0, samples, fd_step=0.05)
        assert (rep.samples_used, rep.skipped_samples) == (2, 1)
        # with nothing skipped, the errors propagate: the sample's first
        monkeypatch.setattr(reduction, "SKIPPED", ())
        with pytest.raises(ex.DomainError, match=r"got \(-0\.3\+0j\)"):
            operator_residual(h3.laplacian, self.LOG, 1.0, samples, fd_step=0.05)

    def test_an_error_at_a_stencil_point_drops_the_sample_from_the_cross_check(self, h3):
        rest = [(0.3 + 0.1 * i, 0.1 * i, -0.1 * i) for i in range(5)]
        rep = operator_residual(h3.laplacian, self.LOG, 1.0, [self.NEAR_ZERO] + rest,
                                fd_step=0.05)
        assert (rep.samples_used, rep.skipped_samples) == (6, 0)
        without = operator_residual(h3.laplacian, self.LOG, 1.0, rest, fd_step=0.05)
        assert math.isfinite(rep.fd_cross_deviation)
        assert rep.fd_cross_deviation == without.fd_cross_deviation
        assert rep.max_residual != without.max_residual

    def test_the_stencil_table_is_built_once_and_read_only(self, h3):
        table = reduction._stencil(h3.laplacian)
        copy = DiffOp(h3.laplacian.variables, dict(h3.laplacian.coefficients))
        assert all(a is b for a, b in zip(table, reduction._stencil(copy)))
        for array in table[:3]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
