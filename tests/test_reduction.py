import cmath
import math
import random
from dataclasses import replace as dc_replace
from fractions import Fraction as F

import pytest

from nclb import expr as ex
from nclb.diffop import DiffOp, SampleSpec
from nclb.expr import Exp, I, Log, Power, Var, evaluate, simplify, to_text
from nclb.models import (chart_domain, chart_samples, lambda_roots, load_model,
                         pde_residual_field, rectifying_coordinates,
                         reduction_normalizer)
from nclb.reduction import (Characteristic, DomainExitError, InconclusiveError,
                            NotFirstOrderError, ReducedOperator, StepError,
                            _characteristic, build_reduced,
                            conjugate_by_multiplier, extract_first_order, flow,
                            infinitesimal_action, local_lift_check,
                            rectify_check, reduced_residual, solve_reduced,
                            verify_lambda_rep)
from nclb.report import NclbError, VerificationError

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
        bad = dc_replace(h3, lrep=dc_replace(h3.lrep, ops=bad_ops))
        records = verify_lambda_rep(bad)
        comm = next(r for r in records if r.check == "lambda_rep_commutators")
        assert not comm.passed
        assert (1, 2) in comm.detail["failing_pairs"]
        with pytest.raises(VerificationError):
            verify_lambda_rep(bad, strict=True)

    def test_real_multiplier_fails_imaginary_check(self, h3):
        bad_ops = (DiffOp.scalar(("q",), J * q), h3.lrep.ops[1], h3.lrep.ops[2])
        bad = dc_replace(h3, lrep=dc_replace(h3.lrep, ops=bad_ops))
        records = verify_lambda_rep(bad)
        imag = next(r for r in records
                    if r.check == "multiplication_operators_imaginary")
        assert not imag.passed


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
        bad = dc_replace(model, lrep=dc_replace(model.lrep, ops=ops))
        assert local_lift_check(bad, i) == 0.5

    def test_missing_kernel_rejected(self, h3):
        broken = dc_replace(h3, kernel=None)
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
        bad = dc_replace(h3, lrep=dc_replace(h3.lrep, ops=bad_ops))
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


class TestFlow:
    def test_constant_field(self):
        ch = flow((ex.ONE,), (0.0,), 1.0, 1e-2)
        assert abs(ch.end[0] - 1.0) < 1e-14

    def test_zero_field(self):
        ch = flow((ex.ZERO, ex.ZERO), (0.4, 0.7), 2.0, 1e-2)
        assert ch.end == (0.4 + 0j, 0.7 + 0j)

    def test_g47_eigenstructure(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        lam1, lam2 = (evaluate(x).real for x in lambda_roots(**g47.params))
        q0 = (1.5, 0.9)
        ch = flow(red.first_order.Z, q0, 0.5, 1e-3, params={"J": 1.0})
        p_exact = (q0[0] + lam1 * q0[1]) * math.exp(lam2 * 0.5)
        m_exact = (q0[0] + lam2 * q0[1]) * math.exp(lam1 * 0.5)
        assert abs(ch.end[0].real + lam1 * ch.end[1].real - p_exact) <= 1e-8
        assert abs(ch.end[0].real + lam2 * ch.end[1].real - m_exact) <= 1e-8

    def test_step_halving_fourth_order(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        lam1, lam2 = (evaluate(x).real for x in lambda_roots(**g47.params))
        q0 = (1.5, 0.9)

        def err(step):
            ch = flow(red.first_order.Z, q0, 0.5, step, params={"J": 1.0})
            p = (q0[0] + lam1 * q0[1]) * math.exp(lam2 * 0.5)
            m = (q0[0] + lam2 * q0[1]) * math.exp(lam1 * 0.5)
            return math.hypot(ch.end[0].real + lam1 * ch.end[1].real - p,
                              ch.end[0].real + lam2 * ch.end[1].real - m)

        e1, e2 = err(0.05), err(0.025)
        assert e1 / e2 >= 8.0  # design order 4: expect ~16x

    def test_domain_exit(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        # forward flow pushes q2 through zero eventually
        with pytest.raises(DomainExitError) as err:
            flow(red.first_order.Z, (1.0, 0.4), 6.0, 1e-2, params={"J": 1.0},
                 domain=chart_domain(g47))
        assert 0.0 < err.value.exit_time <= 6.0

    def test_start_point_outside_the_domain_raises(self):
        # tested before any step, so a zero-length characteristic raises too
        def upper(q):
            return q[1] > 1e-10

        for t_end in (0.0, 1e-3):
            with pytest.raises(DomainExitError) as err:
                flow((ex.ONE, ex.ONE), (1.0, -0.5), t_end, 1e-2, domain=upper)
            assert err.value.exit_time == 0.0
            assert err.value.point == (1.0, -0.5)
        # solve_reduced reports the chart point too, without its phase
        for v_ref in (1.0, 2.0):
            with pytest.raises(DomainExitError) as err:
                solve_reduced((ex.ONE, ex.ONE), ex.ZERO, 0.0, lambda u, p: 1.0,
                              [(1.0, -0.5)], 1e-2, v=q1, v_ref=v_ref,
                              domain=upper)
            assert err.value.point == (1.0, -0.5)

    def test_trajectory_recorded(self):
        ch = flow((ex.ONE,), (0.0,), 0.1, 1e-2)
        assert isinstance(ch, Characteristic)
        assert len(ch.ts) == len(ch.qs) == 11


    @pytest.mark.parametrize("t_end, step", [
        (1.0, 0.0), (1.0, -0.01), (1.0, math.inf), (1.0, math.nan),
        (math.nan, 1e-2), (math.inf, 1e-2), (-math.inf, 1e-2),
        (1e300, 1e-300),  # |t_end| / step beyond the float range
    ])
    def test_bad_step_or_end_time_raises(self, t_end, step):
        with pytest.raises(StepError) as err:
            flow((ex.ONE,), (0.0,), t_end, step)
        assert isinstance(err.value, NclbError) and isinstance(err.value, ValueError)

    def test_bad_step_raises_in_solve_reduced(self):
        with pytest.raises(StepError):
            solve_reduced((ex.ONE,), ex.ZERO, 0.0, lambda u, p: 1.0, [(0.7,)],
                          -1e-2, v=q, u=())


def scalar_characteristic(rates, q0, t_end, step, domain=None, phase=False):
    """The reference RK4 driver: one `compile_expr` closure call per stage
    and list arithmetic per step, as `_characteristic` ran before its loop
    was generated."""
    m = len(q0)
    state = [complex(x) for x in q0] + ([0j] if phase else [])
    t = 0.0
    ts, qs, phases = [t], [tuple(state[:m])], [0j]

    def check(t, q):
        if domain is not None and not domain(tuple(s.real for s in q)):
            raise DomainExitError(t, q)

    check(t, qs[0])
    nsteps = max(1, round(abs(t_end) / step)) if t_end else 0
    h = t_end / max(nsteps, 1)
    h2, h6 = h / 2, h / 6
    for _ in range(nsteps):
        q = state[:m]
        k1 = rates(*q)
        k2 = rates(*[s + h2 * k for s, k in zip(q, k1)])
        k3 = rates(*[s + h2 * k for s, k in zip(q, k2)])
        k4 = rates(*[s + h * k for s, k in zip(q, k3)])
        state = [s + h6 * (a + 2 * b + 2 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
        t += h
        ts.append(t)
        qs.append(tuple(state[:m]))
        if phase:
            phases.append(state[-1])
        check(t, qs[-1])
    return Characteristic(start=tuple(q0), step=step, ts=tuple(ts), qs=tuple(qs),
                          phases=tuple(phases) if phase else None)


def outcome(driver, *args):
    """A characteristic's fields, or the type, message, exit time and exit
    point of the error it raised."""
    try:
        c = driver(*args)
    except (DomainExitError, ex.DomainError) as err:
        return (type(err), str(err), getattr(err, "exit_time", None),
                getattr(err, "point", None))
    return c.start, c.step, c.ts, c.qs, c.phases


class TestGeneratedLoopMatchesScalarDriver:
    """The generated RK4 loop gives `==` the values, exits and errors of the
    scalar reference driver."""

    def same(self, fields, names, q0, t_end, step, params, domain=None,
             phase=False):
        new = outcome(_characteristic, ex.compile_rk4(fields, names, bind=params),
                      q0, t_end, step, domain, phase)
        ref = outcome(scalar_characteristic,
                      ex.compile_expr(fields, names, bind=params),
                      q0, t_end, step, domain, phase)
        assert new == ref
        return new

    def g47_field(self, g47):
        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        return red.first_order.Z, red.first_order.V

    @pytest.mark.parametrize("t_end", [1.7, -1.3, 0.0])
    def test_h3_with_phase(self, h3, t_end):
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        fields = tuple(red.first_order.Z) + (red.first_order.V,)
        out = self.same(fields, ("q",), (0.3,), t_end, 1e-3,
                        {"J": -1.0, "E": 0.8}, phase=True)
        assert len(out[2]) == round(abs(t_end) / 1e-3) + 1

    @pytest.mark.parametrize("with_domain", [False, True])
    def test_g47_flow(self, g47, with_domain):
        Z, _ = self.g47_field(g47)
        domain = chart_domain(g47) if with_domain else None
        # backward in time q2 grows, so the flow stays inside the chart
        ch = flow(Z, (1.5, 0.7), -0.9, 1e-3, params={"J": 1.0}, domain=domain)
        ref = scalar_characteristic(
            ex.compile_expr(tuple(Z), ("q1", "q2"), bind={"J": 1.0}),
            (1.5, 0.7), -0.9, 1e-3, domain)
        assert (ch.start, ch.ts, ch.qs, ch.phases) == (ref.start, ref.ts,
                                                       ref.qs, ref.phases)

    @pytest.mark.parametrize("with_domain", [False, True])
    def test_g47_solve_reduced(self, g47, with_domain):
        Z, V = self.g47_field(g47)
        domain = chart_domain(g47) if with_domain else None
        v_expr, u_exprs = rectifying_coordinates(g47)
        params = {"J": 1.0, "E": 1.3}
        targets = [(1.2, 0.5), (2.2, 0.9)]
        _, chars = solve_reduced(Z, V, 1.3, lambda u, p: 1.0, targets, 1e-3,
                                 v=v_expr, u=u_exprs, v_ref=-1.0,
                                 params=params, domain=domain)
        v_fn = ex.compile_expr(v_expr, ("q1", "q2"), bind=params)
        rates = ex.compile_expr(tuple(Z) + (V,), ("q1", "q2"), bind=params)
        for target, ch in zip(targets, chars):
            ref = scalar_characteristic(rates, target, -1.0 - v_fn(*target).real,
                                        1e-3, domain, phase=True)
            assert (ch.start, ch.ts, ch.qs, ch.phases) == (ref.start, ref.ts,
                                                           ref.qs, ref.phases)

    def test_domain_exit_time_and_point(self, g47):
        Z, _ = self.g47_field(g47)
        out = self.same(Z, ("q1", "q2"), (1.0, 0.4), 6.0, 1e-2, {"J": 1.0},
                        chart_domain(g47))
        assert out[0] is DomainExitError and 0.0 < out[2] <= 6.0

    def test_domain_error_inside_the_field(self, g47):
        # without a domain predicate the phase's log(q2) fails once q2 <= 0
        Z, V = self.g47_field(g47)
        out = self.same(tuple(Z) + (V,), ("q1", "q2"), (1.0, 0.4), 6.0, 1e-2,
                        {"J": 1.0, "E": 1.0}, phase=True)
        assert out[0] is ex.DomainError
        assert out[1].startswith("log requires positive real part, got")
        with pytest.raises(ex.DomainError) as err:
            solve_reduced(Z, V, 1.0, lambda u, p: 1.0, [(1.0, 0.4)], 1e-2,
                          v=q1, v_ref=7.0, params={"J": 1.0})
        assert str(err.value) == out[1]


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
        assert chars[0].phases is not None

    def test_zero_potential_constant(self):
        vals, _ = solve_reduced((ex.ONE,), ex.ZERO, 0.0,
                                lambda u, p: 2.5, [(0.7,), (-0.3,)],
                                1e-2, v=q, u=())
        assert all(abs(v - 2.5) < 1e-12 for v in vals)

    def test_phase_step_halving(self, h3):
        # polynomial potentials up to cubic are integrated exactly (the RK4
        # quadrature is Simpson's rule), so perturb with an exponential
        red = extract_first_order(build_reduced(h3, verify=False), 2 * I * J)
        bumped = red.first_order.V + Exp(q) * F(1, 5)
        target = [(1.5,)]

        def solve(step):
            vals, _ = solve_reduced(red.first_order.Z, bumped, 1.0,
                                    lambda u, p: 1.0, target, step,
                                    v=q, u=(), params={"J": 1.0})
            return vals[0]

        ref = solve(1e-4)
        e1 = abs(solve(4e-2) - ref)
        e2 = abs(solve(2e-2) - ref)
        assert e1 / e2 >= 8.0

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
        ex._closure_maker.cache_clear()

        def solve(energy, target):
            vals, _ = solve_reduced(red.first_order.Z, red.first_order.V, energy,
                                    lambda u, p: 1.0, [target], 1e-2, v=q, u=(),
                                    params={"J": 1.0})
            return vals[0]

        first = solve(1.0, (0.4,))
        assert len(generated) == 3  # (Z, V), v and u
        second = solve(2.0, (0.9,))
        assert len(generated) == 3
        # the energy is bound per call, not baked into the cached code
        assert second != first
        assert solve(1.0, (0.4,)) == first


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
