import cmath
import math
import random
import sys
from fractions import Fraction as F

import pytest

from nclb import expr as ex
from nclb import reduction
from nclb.diffop import DiffOp, SampleSpec
from nclb.expr import Exp, I, Log, Power, Var, evaluate, simplify, to_text
from nclb.models import (chart_domain, chart_samples, lambda_roots, load_model,
                         pde_residual_field, rectifying_coordinates,
                         reduction_normalizer)
from nclb.reduction import (Characteristic, DomainExitError, InconclusiveError,
                            NotFirstOrderError, ReducedOperator, StepError,
                            _characteristic, _chart_names, build_reduced,
                            conjugate_by_multiplier, extract_first_order, flow,
                            infinitesimal_action, local_lift_check,
                            operator_residual, rectify_check, reduced_residual, solve_reduced,
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

    @pytest.mark.parametrize("Z, q0", [((ex.ONE,), (0.0, 1.0)), ((ex.ONE, q1), (0.5,)),
                                       ((ex.ONE, q1), (0.5, 0.1, 0.2))])
    def test_a_start_point_of_the_wrong_length_raises(self, Z, q0):
        # the generated loop raised an unpacking error, or solve_reduced's
        # compiled v a TypeError; each target is checked before the first
        # is evaluated
        names = f"{len(q0)} coordinates, Z has {len(Z)}"
        with pytest.raises(ValueError, match=f"start point has {names}"):
            flow(Z, q0, 1.0, 0.1)
        calls = []
        good = (0.0,) * len(Z)
        with pytest.raises(ValueError, match=f"target has {names}"):
            solve_reduced(Z, ex.ZERO, 0.0, lambda u, p: calls.append(u) or 1.0,
                          [good, q0], 1e-2, v=Var(_chart_names(len(Z))[0]))
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_a_start_point_that_is_not_finite_raises(self, bad):
        # the loop carried it to NaN states, and solve_reduced solved the
        # targets before it, then raised a StepError about the end time
        with pytest.raises(ValueError, match="start point's coordinate q2 is not finite"):
            flow((ex.ONE, q1), (0.5, bad), 1.0, 0.5)
        calls = []
        with pytest.raises(ValueError, match="target's coordinate q is not finite"):
            solve_reduced((ex.ONE,), ex.ZERO, 0.0, lambda u, p: calls.append(u) or 1.0,
                          [(0.5,), (bad,)], 1e-2, v=q)
        assert calls == []

    def test_a_state_that_overflows_raises(self):
        # dq/dt = c q from a real start runs on floats and overflows to inf;
        # with c bound as a complex, or a complex start, the states overflow
        # to NaN on the same step.  Each raises, naming that step's time,
        # whether the domain is left there (NaN > 0 is false) or not
        for c, q0, t_end, step, time in ((1e200, 1e200, 1.0, 0.25, 0.25),
                                         (2000.0, 1.0, 1.0, 0.01, 0.7900000000000005)):
            outcomes = set()
            for c_val, start in ((c, q0), (complex(c), q0), (c, complex(q0))):
                for domain in (None, lambda p: p[0] > 0.0):
                    with pytest.raises(ex.DomainError) as err:
                        flow((J * q,), (start,), t_end, step, params={"J": c_val},
                             domain=domain)
                    outcomes.add(str(err.value))
            assert outcomes == {f"the RK4 state is not finite at t = {time!r}"}
        with pytest.raises(ex.DomainError, match="not finite at t = 0.25$"):
            flow((ex.Const(10 ** 200) * q,), (1e200,), 1.0, 0.25)

    def test_trajectory_recorded(self):
        ch = flow((ex.ONE,), (0.0,), 0.1, 1e-2)
        assert isinstance(ch, Characteristic)
        assert len(ch.ts) == len(ch.qs) == 11


    @pytest.mark.parametrize("t_end, step", [
        (1.0, 0.0), (1.0, -0.01), (1.0, math.inf), (1.0, math.nan),
        (math.nan, 1e-2), (math.inf, 1e-2), (-math.inf, 1e-2),
        (1e300, 1e-300),  # |t_end| / step beyond the float range
        (1.0, 1e-300),  # finite, but far more than MAX_RK4_STEPS steps
    ])
    def test_bad_step_or_end_time_raises(self, t_end, step):
        with pytest.raises(StepError) as err:
            flow((ex.ONE,), (0.0,), t_end, step)
        assert isinstance(err.value, NclbError) and isinstance(err.value, ValueError)

    def test_bad_step_raises_in_solve_reduced(self):
        for step in (-1e-2, 1e-300):
            with pytest.raises(StepError):
                solve_reduced((ex.ONE,), ex.ZERO, 0.0, lambda u, p: 1.0, [(0.7,)],
                              step, v=q, u=())

    def test_step_count_ceiling(self, monkeypatch):
        monkeypatch.setattr(reduction, "MAX_RK4_STEPS", 4)
        assert len(flow((ex.ONE,), (0.0,), 1.0, 0.25).ts) == 5
        with pytest.raises(StepError, match="more than 4"):
            flow((ex.ONE,), (0.0,), 1.0, 0.2)


def scalar_characteristic(rates, q0, t_end, step, domain=None, phase=False):
    """The reference RK4 driver: one `compile_expr` closure call per stage
    and list arithmetic per step, as `_characteristic` ran before its loop
    was generated.  With phase=True the last rate is the phase's, carried
    as one more state component, as `solve_reduced` ran before its phase
    became a quadrature after the loop."""
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
    scalar reference driver, and `solve_reduced`, which integrates the phase
    after the loop, the same times, points and errors, with the phase
    carried as one more state component in the reference."""

    def same(self, fields, names, q0, t_end, step, params, domain=None):
        new = outcome(_characteristic, ex.compile_rk4(fields, names, bind=params),
                      q0, t_end, step, domain)
        ref = outcome(scalar_characteristic,
                      ex.compile_expr(fields, names, bind=params),
                      q0, t_end, step, domain)
        assert new == ref
        return new

    def solved(self, Z, V, target, v_ref, step, params, domain=None):
        """The outcomes of `solve_reduced` through target, with v its first
        chart variable, and of the scalar driver over (Z, V) with the phase."""
        names = ("q",) if len(Z) == 1 else ("q1", "q2")

        def solve():
            _, chars = solve_reduced(Z, V, params["E"], lambda u, p: 1.0, [target],
                                     step, v=Var(names[0]), v_ref=v_ref,
                                     params=params, domain=domain)
            return chars[0]

        rates = ex.compile_expr(tuple(Z) + (V,), names, bind=params)
        return (outcome(solve), outcome(scalar_characteristic, rates, target,
                                        v_ref - target[0], step, domain, True))

    def field(self, model):
        red = extract_first_order(build_reduced(model, verify=False),
                                  reduction_normalizer(model))
        return red.first_order.Z, red.first_order.V

    @pytest.mark.parametrize("t_end", [1.7, -1.3, 0.0])
    def test_h3_with_phase(self, h3, t_end):
        Z, V = self.field(h3)
        v_ref = 0.3 + t_end
        new, ref = self.solved(Z, V, (0.3,), v_ref, 1e-3, {"J": -1.0, "E": 0.8})
        assert new == ref
        assert len(new[2]) == round(abs(v_ref - 0.3) / 1e-3) + 1
        if t_end == 0.0:
            assert new[4] == (0j,)

    @pytest.mark.parametrize("with_domain", [False, True])
    def test_g47_flow(self, g47, with_domain):
        Z, _ = self.field(g47)
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
        Z, V = self.field(g47)
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
            assert (ch.start, ch.ts, ch.qs) == (ref.start, ref.ts, ref.qs)
            # numpy's complex log rounds differently from cmath's on some
            # arguments, so each phase is within a few ulps of the path's
            # total variation up to its step
            bound = 0.0
            assert ch.phases[0] == ref.phases[0] == 0j
            for i in range(1, len(ref.phases)):
                bound += abs(ref.phases[i] - ref.phases[i - 1])
                assert abs(ch.phases[i] - ref.phases[i]) <= 4 * sys.float_info.epsilon * bound

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (3, F(-1, 8)), (1, 2)])
    @pytest.mark.parametrize("with_domain", [False, True])
    def test_a_real_field_runs_on_floats(self, alpha, beta, with_domain):
        # g4,7's real Z from a real start point: float states, `==` to the
        # complex states of the scalar driver
        g47 = load_model("g4_7", F(alpha), F(beta))
        Z, _ = self.field(g47)
        domain = chart_domain(g47) if with_domain else None
        out = self.same(tuple(Z), ("q1", "q2"), (1.5, 0.7), -0.9, 1e-3, {"J": 1.0}, domain)
        assert len(out[3]) == 901
        assert all(type(x) is float for point in out[3] for x in point)

    @pytest.mark.parametrize("fields, q0, params", [
        ((q2, -q1), (1.5 + 0j, 0.7), {}),
        ((J * q2, -q1), (1.5, 0.7), {"J": 1 + 0j}),
        ((J * J, ex.const(2)), (0.2, -0.1), {"J": 2.9 + 0j}),
        ((1 + I, ex.ONE), (0.2, -0.1), {}),
    ])
    def test_complex_inputs_keep_every_state_complex(self, fields, q0, params):
        # a complex start coordinate, bound value or I in the field: the
        # states, the start included, are complex
        out = self.same(fields, ("q1", "q2"), q0, 0.5, 1e-2, params)
        assert all(type(x) is complex for point in out[3] for x in point)

    def test_domain_exit_time_and_point(self, g47):
        Z, V = self.field(g47)
        out = self.same(Z, ("q1", "q2"), (1.0, 0.4), 6.0, 1e-2, {"J": 1.0},
                        chart_domain(g47))
        assert out[0] is DomainExitError and 0.0 < out[2] <= 6.0
        # solve_reduced evaluates the potential on the step that leaves the
        # chart too: g4,7's log(q2) fails there, and a potential defined on
        # every step taken exits at the same time and point
        for potential, error in ((V, ex.DomainError), (I * J * q1 * q2, DomainExitError)):
            new, ref = self.solved(Z, potential, (1.0, 0.4), 7.0, 1e-2,
                                   {"J": 1.0, "E": 1.0}, chart_domain(g47))
            assert new == ref
            assert new[0] is error
        assert new[2:] == out[2:]

    @pytest.mark.parametrize("fields, names, q0, params", [
        ((ex.ONE,), ("q",), (0.2,), {}),
        ((1 + I,), ("q",), (0.2,), {}),
        # 8.41 + 2*8.41 + 2*8.41 + 8.41 is not 6 * 8.41 in floating point
        ((J * J, ex.const(2)), ("q1", "q2"), (0.2, -0.1), {"J": 2.9}),
    ])
    @pytest.mark.parametrize("t_end", [1.7, -1.3, 0.0])
    @pytest.mark.parametrize("with_domain", [False, True])
    def test_constant_field(self, fields, names, q0, params, t_end, with_domain):
        # the loop of a field that reads no chart variable adds one
        # increment per step; a domain of |Re q1| < 0.9 is left either way
        domain = (lambda p: abs(p[0]) < 0.9) if with_domain else None
        out = self.same(fields, names, q0, t_end, 1e-3, params, domain)
        if with_domain and t_end:
            assert out[0] is DomainExitError
        else:
            assert len(out[2]) == round(abs(t_end) / 1e-3) + 1

    def test_a_bad_bound_value_of_the_potential_raises(self, h3):
        # 1/J in the potential fails with J = 0 on the first step taken, and
        # a characteristic of length zero takes none
        Z, V = self.field(h3)
        params = {"J": 0.0, "E": 0.8}
        new, ref = self.solved(Z, V, (0.3,), 1.0, 1e-3, params)
        assert new == ref
        assert new[0] is ex.DomainError and new[1].startswith("ZeroDivisionError")
        new, ref = self.solved(Z, V, (0.3,), 0.3, 1e-3, params)
        assert new == ref and new[4] == (0j,)

    def test_domain_error_inside_the_field(self, g47):
        # without a domain predicate the phase's log(q2) fails once q2 <= 0;
        # with one that lets q2 go below 0 the failure comes first, and it
        # comes before a domain exit found after it
        Z, V = self.field(g47)
        params = {"J": 1.0, "E": 1.0}
        for domain in (None, lambda p: p[1] > -0.5):
            new, ref = self.solved(Z, V, (1.0, 0.4), 7.0, 1e-2, params, domain)
            assert new == ref
            assert new[0] is ex.DomainError
            assert new[1].startswith("log requires positive real part, got")
        with pytest.raises(ex.DomainError) as err:
            solve_reduced(Z, V, 1.0, lambda u, p: 1.0, [(1.0, 0.4)], 1e-2,
                          v=q1, v_ref=7.0, params={"J": 1.0})
        assert str(err.value) == ref[1]


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
        assert len(generated) == 5  # Z's loop and array form, V's, v and u
        second = solve(2.0, (0.9,))
        assert len(generated) == 5
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
