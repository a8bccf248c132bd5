import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

from nclb import expr as ex
from nclb.airyfun import AiryOverflowError
from nclb.algebra import heisenberg_algebra
from nclb.diffop import (DiffOp, DomainExitError, SampleSpec,
                         UnsupportedOrderError, apply, bracket_defects,
                         commutator, compose, laplacian_image, op_equal,
                         sampled)
from nclb.expr import Exp, I, Log, Power, Var, ZERO, simplify
from nclb.report import InconclusiveError

X3 = ("x1", "x2", "x3")
x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
QV = ("q1", "q2")
q1, q2, J = Var("q1"), Var("q2"), Var("J")


def h3_xi():
    return (
        DiffOp.partial(X3, "x1"),
        DiffOp.partial(X3, "x2") + DiffOp.partial(X3, "x3", x1),
        DiffOp.partial(X3, "x3"),
    )


def g47_ell():
    return (
        DiffOp.scalar(QV, I * J * q2 * q2),
        DiffOp.scalar(QV, I * J * q1 * q2),
        DiffOp.partial(QV, "q1", -q2) + DiffOp.scalar(QV, I * J * q1 * q2 * Log(q2)),
        DiffOp.partial(QV, "q2", -q2),
    )


def q_spec(n=30, seed=5):
    return SampleSpec(ranges={"q1": (0.5, 2.0), "q2": (0.2, 1.5),
                              "J": (-1, 1)}, n=n, seed=seed)


class TestApply:
    def test_xi2_on_x3(self):
        _, xi2, _ = h3_xi()
        assert apply(xi2, x3) == x1

    def test_zero_operator(self):
        assert apply(DiffOp.zero(X3), x1 * x2 + Exp(x3)) == ZERO

    def test_eta4_on_x1(self):
        X4 = ("x1", "x2", "x3", "x4")
        eta4 = (DiffOp.partial(X4, "x4")
                + DiffOp.partial(X4, "x1", -2 * Var("x1"))
                + DiffOp.partial(X4, "x2", -(Var("x2") + Var("x3")))
                + DiffOp.partial(X4, "x3", -Var("x3")))
        assert apply(eta4, Var("x1")) == simplify(-2 * Var("x1"))


class TestCompose:
    def test_h3_second_order(self):
        _, xi2, xi3 = h3_xi()
        comp = compose(xi2, xi3)
        assert comp.coeff((0, 1, 1)) == ex.ONE
        assert comp.coeff((0, 0, 2)) == x1
        assert comp.order == 2

    def test_identity_scalar(self):
        _, xi2, _ = h3_xi()
        one = DiffOp.scalar(X3, 1)
        assert compose(one, xi2).coefficients == xi2.coefficients
        assert compose(xi2, one).coefficients == xi2.coefficients

    def test_mult_times_first_order(self):
        l1, _, l3, _ = g47_ell()
        comp = compose(l1, l3)
        assert comp.order == 1
        assert comp.coeff((1, 0)) == simplify(-I * J * q2 ** 3)

    def test_leibniz_property(self):
        rng = random.Random(6)
        spec_vars = ("x1", "x2")
        for _ in range(50):
            a = _random_first_order(rng, spec_vars)
            b = _random_first_order(rng, spec_vars)
            e = _random_poly(rng)
            lhs = apply(compose(a, b), e)
            rhs = apply(a, apply(b, e))
            diff = simplify(lhs - rhs)
            if diff == ZERO:
                continue
            f = ex.compile_expr(diff, ["x1", "x2"])
            for _ in range(5):
                v = abs(f(rng.uniform(0.2, 1.2), rng.uniform(0.2, 1.2)))
                assert v <= 1e-10

    def test_order_overflow(self):
        _, xi2, xi3 = h3_xi()
        with pytest.raises(UnsupportedOrderError):
            compose(compose(xi2, xi3), xi3)


class TestCommutator:
    def test_h3_canonical(self):
        xi1, xi2, xi3 = h3_xi()
        assert op_equal(commutator(xi1, xi2), xi3).equal

    def test_self_commutator(self):
        _, xi2, _ = h3_xi()
        assert not commutator(xi2, xi2).coefficients

    def test_g47_pair(self):
        l1, l2, l3, l4 = g47_ell()
        assert op_equal(commutator(l2, l3), l1).equal
        assert op_equal(commutator(l1, l4), l1.scale(2)).equal

    def test_first_order_cap(self):
        _, xi2, xi3 = h3_xi()
        with pytest.raises(UnsupportedOrderError):
            commutator(compose(xi2, xi3), xi2)

    def test_jacobi_identity_sampled(self):
        rng = random.Random(8)
        spec = SampleSpec(ranges={"x1": (0.2, 1.2), "x2": (0.2, 1.2)},
                          n=10, seed=3)
        for _ in range(30):
            a = _random_first_order(rng, ("x1", "x2"))
            b = _random_first_order(rng, ("x1", "x2"))
            c = _random_first_order(rng, ("x1", "x2"))
            total = (commutator(commutator(a, b), c)
                     + commutator(commutator(b, c), a)
                     + commutator(commutator(c, a), b))
            cmp = op_equal(total, DiffOp.zero(("x1", "x2")), spec, tol=1e-10)
            assert cmp.equal


class TestRealizationCore:
    def test_h3_frame_brackets_are_symbolic_zeros(self):
        devs, failing, used, skipped = bracket_defects(heisenberg_algebra(),
                                                       h3_xi(), None)
        assert (devs, failing, used, skipped) == ([0.0, 0.0, 0.0], [], 0, 0)

    def test_wrong_sign_fails_the_one_nonzero_bracket(self):
        # [xi1, xi2] = d3 against -xi3 = -d3: a relative gap of 2 on the
        # constant coefficient, read at each of the 5 samples
        spec = SampleSpec(ranges={"x1": (-1.0, 1.0)}, n=5, seed=3)
        devs, failing, used, skipped = bracket_defects(heisenberg_algebra(),
                                                       h3_xi(), spec, sign=-1)
        assert (devs, failing, used, skipped) == ([2.0, 0.0, 0.0], [(1, 2)], 5, 0)

    def test_laplacian_image_sums_the_form_data(self):
        xv = ("x", "y")
        ops = (DiffOp.partial(xv, "x"), DiffOp.partial(xv, "y", Var("x")))
        data = SimpleNamespace(g_inv=((1, F(1, 2)), (F(1, 2), 0)), c_vec=(0, 3))
        # d_x d_x + (1/2)(d_x x d_y + x d_y d_x) + 3 x d_y
        #   = d_x^2 + x d_x d_y + (1/2 + 3 x) d_y
        image = laplacian_image(ops, data)
        assert image.coefficients == DiffOp(xv, {
            (2, 0): ex.ONE, (1, 1): Var("x"),
            (0, 1): ex.const(1, 2) + 3 * Var("x"),
        }).coefficients


class TestOpEqual:
    def test_symbolic_fast_path(self):
        xi1, xi2, xi3 = h3_xi()
        cmp = op_equal(commutator(xi1, xi2), xi3)
        assert cmp.equal and cmp.symbolic and cmp.max_deviation == 0.0

    def test_sign_flip_deviation(self):
        qv = ("q",)
        l1 = DiffOp.scalar(qv, -I * J * Var("q"))
        l2 = DiffOp.partial(qv, "q")
        l3 = DiffOp.scalar(qv, I * J)
        wrong = l3.scale(-1)
        spec = SampleSpec(ranges={"q": (-1, 1), "J": [1.0]}, n=10, seed=1)
        cmp = op_equal(commutator(l1, l2), wrong, spec, tol=1e-12)
        assert not cmp.equal
        assert abs(cmp.max_deviation - 2.0) < 1e-12

    def test_variable_set_mismatch(self):
        with pytest.raises(ValueError):
            op_equal(DiffOp.zero(("a",)), DiffOp.zero(("b",)))

    def test_inconclusive_without_spec(self):
        a = DiffOp.scalar(("q",), Var("q"))
        b = DiffOp.scalar(("q",), Var("q") + Exp(Var("q")))
        with pytest.raises(InconclusiveError):
            op_equal(a, b)

    def test_all_samples_skipped(self):
        a = DiffOp.scalar(("q",), Log(Var("q")))
        b = DiffOp.zero(("q",))
        spec = SampleSpec(ranges={"q": (-2.0, -1.0)}, n=5, seed=1)
        with pytest.raises(InconclusiveError):
            op_equal(a, b, spec)

    def test_domain_errors_reported(self):
        a = DiffOp.scalar(("q",), Power(Var("q"), F(1, 2)))
        b = DiffOp.zero(("q",))
        spec = SampleSpec(ranges={"q": (-1.0, 1.0)}, n=40, seed=2)
        cmp = op_equal(a, b, spec, tol=1e-12)
        assert cmp.skipped_samples > 0
        assert cmp.samples_used > 0
        assert not cmp.equal

    @pytest.mark.parametrize("choices", [[0.5, 1e100], [1e100, 0.5]])
    def test_nan_sample_is_unequal_in_either_order(self, choices):
        # x1^8 at 1e100 is nan+nanj on both sides; the 1e-20 term is far
        # below tol at 0.5, so only the NaN can decide the verdict
        spec = SampleSpec(ranges={"x1": choices}, n=4, seed=1)
        assert {p[0] for p in spec.points(["x1"])} == {0.5, 1e100}
        a = DiffOp.scalar(("x1",), x1 ** 8)
        b = DiffOp.scalar(("x1",), x1 ** 8 + F(1, 10 ** 20) * x1)
        cmp = op_equal(a, b, spec)
        assert not cmp.equal
        assert math.isnan(cmp.max_deviation)

    def test_points_follow_draw_order(self):
        spec = q_spec(n=7, seed=11)
        names = ["J", "q2", "q1"]
        assert spec.points(names) == [tuple(p[v] for v in names)
                                      for p in spec.draw()]


class TestSampled:
    def test_domain_errors_skip_and_count(self):
        def fn(x):
            if x == 1:
                raise ex.DomainError("outside")
            if x == 2:
                raise AiryOverflowError("overflow")
            if x == 3:
                raise DomainExitError(0.5, (x,))
            return x * 10

        assert sampled(fn, [(0,), (1,), (2,), (3,), (4,)]) == ([0, 40], 3)

    def test_other_errors_propagate(self):
        def fn(x):
            raise ZeroDivisionError("not a domain error")

        with pytest.raises(ZeroDivisionError):
            sampled(fn, [(0,)])

    def test_no_evaluated_sample_is_inconclusive(self):
        def fn(x):
            raise ex.DomainError("outside")

        with pytest.raises(InconclusiveError,
                           match="all samples failed to evaluate"):
            sampled(fn, [(0,), (1,)])


def test_order_cap_enforced_at_construction():
    with pytest.raises(UnsupportedOrderError):
        DiffOp(("x", "y"), {(2, 1): ex.ONE})


def _random_first_order(rng, variables):
    op = DiffOp.zero(variables)
    for v in variables:
        if rng.random() < 0.8:
            op = op + DiffOp.partial(variables, v, _random_poly(rng))
    if rng.random() < 0.6:
        op = op + DiffOp.scalar(variables, _random_poly(rng))
    return op


def _random_poly(rng):
    vs = (Var("x1"), Var("x2"), ex.ONE)
    e = ex.Const(F(rng.randint(-3, 3)))
    for _ in range(rng.randint(1, 3)):
        e = e + rng.choice(vs) * F(rng.randint(-2, 2), rng.randint(1, 2))
        if rng.random() < 0.4:
            e = e * rng.choice(vs)
    return simplify(e)
