import cmath
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclb import expr as ex
from nclb.expr import (Airy, Const, DomainError, Exp, I, Log,
                       MissingVariableError, Power, Var, ZERO, as_expr,
                       compile_expr, differentiate, evaluate, free_vars, parse,
                       simplify, subst, to_text)

q = Var("q")
x = Var("x")
J = Var("J")


class TestSimplify:
    def test_cancel_to_zero(self):
        assert simplify(x + (-1) * x) == ZERO

    def test_unit_power_product(self):
        assert simplify(q * Power(q, -1)) == ex.ONE

    def test_difference_of_squares(self):
        assert simplify((q + 1) * (q - 1) - q * q + 1) == ZERO

    def test_exp_merge(self):
        assert simplify(Exp(q) * Exp(-q)) == ex.ONE
        assert simplify(Exp(ZERO)) == ex.ONE

    def test_imaginary_unit_folding(self):
        assert simplify(I * I) == Const(F(-1))
        assert simplify(I * I * I * I) == ex.ONE

    def test_power_exponent_arithmetic(self):
        nu = Var("nu")
        e = Power(2 * nu * nu, F(2, 3)) * Power(2 * nu * nu, F(-2, 3))
        assert simplify(e) == ex.ONE

    def test_quadratic_surd_arithmetic(self):
        root5 = Power(Const(F(5)), F(1, 2))
        lam1 = (1 + root5) / 2
        lam2 = (1 - root5) / 2
        assert simplify(lam1 + lam2) == ex.ONE
        assert simplify(lam1 * lam2) == Const(F(-1))

    def test_idempotent(self):
        rng = random.Random(3)
        for e in _random_exprs(rng, 40):
            s = simplify(e)
            assert simplify(s) == s

    def test_preserves_value(self):
        rng = random.Random(4)
        count = 0
        for e in _random_exprs(rng, 200):
            a = {v: complex(rng.uniform(0.2, 1.5), 0) for v in free_vars(e)}
            try:
                before = evaluate(e, a)
            except DomainError:
                continue
            after = evaluate(simplify(e), a)
            assert abs(before - after) <= 1e-12 * (1 + abs(before))
            count += 1
        assert count > 120


class TestDifferentiate:
    def test_linear_phase(self):
        e = -I * J * q
        assert differentiate(e, "q") == simplify(-I * J)

    def test_exp_phase(self):
        nu = Var("nu")
        e = Exp(I * nu * x)
        assert differentiate(e, "x") == simplify(I * nu * Exp(I * nu * x))

    def test_airy_chain_rule(self):
        c = Const(F(126, 100))
        e = Airy("Ai", c * x + F(1, 2))
        d = differentiate(e, "x")
        assert d == simplify(c * Airy("AiPrime", c * x + F(1, 2)))
        # central-difference oracle at x = 0.3
        f = compile_expr(e, ["x"])
        fd = (f(0.3 + 5e-6) - f(0.3 - 5e-6)) / 1e-5
        dv = evaluate(d, {"x": 0.3})
        assert abs(fd - dv) <= 1e-7

    def test_airy_second_derivative_closes(self):
        e = Airy("Ai", x)
        assert differentiate(differentiate(e, "x"), "x") == simplify(x * Airy("Ai", x))

    def test_log_and_power(self):
        e = Log(q) * Power(q, F(1, 2))
        d = differentiate(e, "q")
        f = compile_expr(e, ["q"])
        fd = (f(2.0 + 5e-6) - f(2.0 - 5e-6)) / 1e-5
        assert abs(evaluate(d, {"q": 2.0}) - fd) <= 1e-7

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    @example(216679)  # Ai(1/(2(x - 1/2))) at x = 0.427, 0.07 from the pole
    def test_matches_central_differences(self, seed):
        rng = random.Random(seed)
        e = _random_expr(rng, depth=3)
        if "x" not in free_vars(e):
            return
        point = {v: rng.uniform(0.3, 1.4) for v in free_vars(e)}
        h = 1e-5
        try:
            d = differentiate(e, "x")
            f = {k: evaluate(e, dict(point, x=point["x"] + k * h))
                 for k in (1, -1, 0.5, -0.5)}
            dv = evaluate(d, point)
        except DomainError:
            return
        fd_h = (f[1] - f[-1]) / (2 * h)
        fd_half = (f[0.5] - f[-0.5]) / h
        richardson = (4 * fd_half - fd_h) / 3
        # the quotients' own error: truncation, bounded by their gap, and
        # rounding of the values they difference
        quotient_err = (abs(fd_h - fd_half) + 64 * sys.float_info.epsilon
                        * max(map(abs, f.values())) / (h / 2))
        assert abs(dv - richardson) <= 1e-6 * (1 + abs(dv)) + quotient_err


class TestEvaluate:
    def test_exp_zero(self):
        assert evaluate(Exp(ZERO)) == 1

    def test_airy_at_zero(self):
        v = evaluate(Airy("Ai", ZERO))
        assert abs(v - 0.3550280538878172) < 1e-15

    def test_exp_i(self):
        assert abs(evaluate(Exp(I * 1)) - cmath.exp(1j)) < 1e-15

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            evaluate(q)

    def test_log_branch(self):
        with pytest.raises(DomainError):
            evaluate(Log(q), {"q": -2.0})

    def test_fractional_power_branch(self):
        with pytest.raises(DomainError):
            evaluate(Power(q, F(1, 2)), {"q": -1.0})
        assert abs(evaluate(Power(q, F(1, 2)), {"q": 4.0}) - 2.0) < 1e-14

    def test_integer_power_of_negative(self):
        assert evaluate(Power(q, 3), {"q": -2.0}) == -8.0

    def test_compiled_matches_evaluate(self):
        rng = random.Random(9)
        for e in _random_exprs(rng, 60):
            names = sorted(free_vars(e))
            f = compile_expr(e, names)
            point = {v: rng.uniform(0.3, 1.4) for v in names}
            try:
                tree = evaluate(e, point)
            except DomainError:
                continue
            fast = f(*[point[v] for v in names])
            assert abs(tree - fast) <= 1e-12 * (1 + abs(tree))

    def test_tuple_closure_matches_single_closures(self):
        rng = random.Random(12)
        y = Var("y")
        exprs = (Exp(q * x * F(1, 4)), Power(q, F(1, 2)) * y,
                 Airy("Ai", 3 * (q - y)), Power(q * x - y, -2) + I,
                 Log(q - x), q * x * J)
        names = ["q", "x", "y"]
        both = compile_expr(exprs, names, bind={"J": 0.75})
        singles = [compile_expr(e, names + ["J"]) for e in exprs]
        raised = 0
        for _ in range(40):
            args = [rng.uniform(0.2, 1.5) for _ in names]
            try:
                want = tuple(f(*args, 0.75) for f in singles)
            except DomainError as err:
                with pytest.raises(DomainError) as got:
                    both(*args)
                assert str(got.value) == str(err)
                raised += 1
                continue
            assert both(*args) == want
        assert 0 < raised < 40

    def test_bound_variable_not_passed(self):
        f = compile_expr(q * J, ["q"], bind={"J": 2})
        assert f(1.5) == 3.0
        with pytest.raises(MissingVariableError):
            compile_expr((q, q * J), ["q"])


class TestOneSemantics:
    """`evaluate` and the closures of `compile_expr` come from one generator
    and raise DomainError in the same places."""

    @pytest.mark.parametrize("e, value", [
        (q ** 2, 1e200),                # OverflowError of a power
        (Exp(q), 1000.0),               # OverflowError of exp
        (Airy("Ai", q), -2e5),          # below LEFT_CUT
        (Airy("Ai", q), float("nan")),  # not a finite real argument
        (Power(q, -1), 0.0),            # zero to a negative power
        (Log(q), -2.0),
        (Power(q, F(1, 2)), -1.0),
    ])
    def test_domain_errors_from_both_entry_points(self, e, value):
        with pytest.raises(DomainError):
            evaluate(e, {"q": value})
        f = compile_expr(e, ["q"])
        with pytest.raises(DomainError):
            f(value)
        with pytest.raises(DomainError):
            f(complex(value))

    def test_non_finite_value_raises_only_in_evaluate(self):
        f = compile_expr(q ** 8, ["q"])
        assert not cmath.isfinite(f(1e100))
        with pytest.raises(DomainError):
            evaluate(q ** 8, {"q": 1e100})

    def test_simplify_may_drop_a_domain_restriction(self):
        e = Log(q) - Log(q)
        with pytest.raises(DomainError):
            evaluate(e, {"q": -1.0})
        assert compile_expr(e, ["q"])(-1.0) == 0

    def test_constant_beyond_double_range(self):
        huge = Const(F(10) ** 400) * q
        with pytest.raises(DomainError):
            compile_expr(huge, ["q"])
        with pytest.raises(DomainError):
            evaluate(huge, {"q": 1.0})

    def test_float_and_complex_arguments_agree_bit_for_bit(self):
        e = Power(q + x, 3) * Power(q * x, -2) + Power(q, 5)
        f = compile_expr(e, ["q", "x"])
        assert f(0.7, 1.3) == f(0.7 + 0j, 1.3 + 0j)
        assert f(-0.7, 1.3) == f(-0.7 + 0j, 1.3 + 0j)

    def test_cached_code_honours_each_bound_value(self, monkeypatch):
        e = Exp(q * J) + J
        generated = []
        source = ex._source
        monkeypatch.setattr(ex, "_source", lambda *a: generated.append(a) or source(*a))
        ex._closure_maker.cache_clear()
        f = compile_expr(e, ["q"], bind={"J": 0.5})
        g = compile_expr(e, ["q"], bind={"J": -2.0})
        assert len(generated) == 1
        assert f(1.0) == cmath.exp(0.5) + 0.5
        assert g(1.0) == cmath.exp(-2.0) - 2.0

    def test_a_repeated_compile_neither_simplifies_nor_walks(self, monkeypatch):
        rates = (q * J, Log(q) * J + Var("E"))
        compile_expr(rates, ["q"], bind={"J": 1.0, "E": 0.5})
        ex.compile_rk4(rates, ["q"], bind={"J": 1.0, "E": 0.5})
        walks = []
        free = ex.free_vars
        monkeypatch.setattr(ex, "free_vars", lambda e: walks.append(e) or free(e))
        before = ex.simplify.cache_info()
        f = compile_expr(rates, ["q"], bind={"J": 2.0, "E": 0.5})
        ex.compile_rk4(rates, ["q"], bind={"J": 2.0, "E": 0.5})
        assert ex.simplify.cache_info() == before
        assert walks == []
        assert f(1.0) == (2.0, 0.5)

    def test_trees_with_one_normal_form_share_one_code_generation(self, monkeypatch):
        generated = []
        source = ex._source
        monkeypatch.setattr(ex, "_source", lambda *a: generated.append(a) or source(*a))
        ex._closure_maker.cache_clear()
        f = compile_expr(q + q, ["q"])
        g = compile_expr(2 * q, ["q"])
        assert len(generated) == 1
        assert f(1.5) == g(1.5) == 3.0


class TestEachSubtreeOnce:
    """A subtree that occurs twice in a field is computed, and its domain
    tested, once per evaluation."""

    def test_g47_potential_takes_one_log_per_evaluation(self, g47, monkeypatch):
        from nclb.models import reduction_normalizer
        from nclb.reduction import build_reduced, extract_first_order

        red = extract_first_order(build_reduced(g47, verify=False),
                                  reduction_normalizer(g47))
        potential = red.first_order.V
        assert to_text(potential).count("log(q2)") == 2
        logs = []

        def counting_log(z):
            logs.append(z)
            return cmath.log(z)

        monkeypatch.setitem(ex._RUNTIME, "_log", counting_log)
        ex._closure_maker.cache_clear()
        try:
            params = {"J": 1.0, "E": 0.7}
            f = compile_expr(potential, ["q1", "q2"], bind=params)
            f(1.2, 0.5)
            assert len(logs) == 1
            run = ex.compile_rk4(tuple(red.first_order.Z) + (potential,),
                                 ["q1", "q2"], bind=params)
            logs.clear()
            run(3, 1e-2, [0.0], [(1.2 + 0j, 0.5 + 0j)], [0j], None)
            assert len(logs) == 3 * 4
        finally:
            ex._closure_maker.cache_clear()

    def test_repeated_domain_test_keeps_its_message(self):
        e = Log(q) * Log(q) + Log(q)
        f = compile_expr(e, ["q"])
        with pytest.raises(DomainError, match="log requires positive real part"):
            f(-1.0)
        assert f(2.0) == cmath.log(2.0) * cmath.log(2.0) + cmath.log(2.0)


class TestCompileRk4:
    def test_rates_must_match_the_chart(self):
        for rates in ((), (q, q, q)):
            with pytest.raises(ValueError, match="rates"):
                ex.compile_rk4(rates, ["q"])

    def test_appends_each_state(self):
        # dq/dt = 1 with phase rate q: q = t, phase = t^2 / 2 exactly in RK4
        run = ex.compile_rk4((ex.ONE, q), ["q"])
        ts, qs, phases = [0.0], [(0j,)], [0j]
        run(4, 0.5, ts, qs, phases, None)
        assert ts == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert qs == [(t,) for t in ts]
        assert phases == [t * t / 2 for t in ts]

    def test_check_sees_every_step_and_may_stop_the_loop(self):
        seen = []

        def check(t, point):
            seen.append((t, point))
            if t >= 1.0:
                raise RuntimeError("stop")

        run = ex.compile_rk4((ex.ONE,), ["q"])
        ts, qs = [0.0], [(0j,)]
        with pytest.raises(RuntimeError):
            run(10, 0.5, ts, qs, [], check)
        assert seen == [(0.5, (0.5 + 0j,)), (1.0, (1.0 + 0j,))]
        assert ts == [0.0, 0.5, 1.0]

    def test_overflow_becomes_a_domain_error(self):
        run = ex.compile_rk4((q ** 2,), ["q"])
        with pytest.raises(DomainError, match="OverflowError"):
            run(1, 1.0, [0.0], [(1e200 + 0j,)], [], None)


class TestSubst:
    def test_basic(self):
        assert subst(q * q + J, {"q": Var("a") + 1}) == simplify(
            (Var("a") + 1) ** 2 + J)

    def test_constant_collapse(self):
        assert subst(q * x, {"q": ZERO}) == ZERO


class TestParsePrint:
    def test_round_trip_examples(self):
        cases = [
            q * q - 3 * Exp(I * q) / 4,
            Power(q + 1, F(-1, 2)),
            Airy("BiPrime", q - 2),
            Log(q) * I - 5,
            Power(Const(F(5)), F(1, 2)) * q,
        ]
        for e in cases:
            s = simplify(e)
            assert simplify(parse(to_text(s))) == s

    def test_round_trip_random(self):
        rng = random.Random(12)
        for e in _random_exprs(rng, 60):
            s = simplify(e)
            assert simplify(parse(to_text(s))) == s

    def test_functions(self):
        assert parse("Ai'(x)") == Airy("AiPrime", x)
        assert parse("exp(I*x)") == Exp(I * x)
        assert parse("3/4") == Product_or_const()

    def test_errors(self):
        with pytest.raises(ex.ExprSyntaxError):
            parse("q +")
        with pytest.raises(ex.ExprSyntaxError):
            parse("foo(x)")
        with pytest.raises(ex.ExprSyntaxError):
            parse("q $ 2")


def Product_or_const():
    # 3/4 parses as a quotient; simplification folds it to the constant
    return parse("3/4")


def test_three_quarters_value():
    assert simplify(parse("3/4")) == Const(F(3, 4))


def test_power_requires_constant_exponent():
    with pytest.raises(ValueError):
        Power(q, x)


def test_float_coercion_rejected():
    with pytest.raises(TypeError):
        as_expr(0.5)


# --- random expression generator ---------------------------------------------

def _random_expr(rng, depth):
    if depth == 0:
        return rng.choice([
            q, x, Var("y"), Const(F(rng.randint(-4, 4), rng.randint(1, 4))), I,
        ])
    kind = rng.randrange(8)
    if kind <= 1:
        return _random_expr(rng, depth - 1) + _random_expr(rng, depth - 1)
    if kind <= 3:
        return _random_expr(rng, depth - 1) * _random_expr(rng, depth - 1)
    if kind == 4:
        return Exp(_random_expr(rng, depth - 1) * F(1, 4))
    if kind == 5:
        return Log(Power(_random_expr(rng, depth - 1), 2) + 1)
    if kind == 6:
        return Airy(rng.choice(("Ai", "AiPrime", "Bi", "BiPrime")),
                    _random_expr(rng, depth - 1) * F(1, 2))
    return Power(_random_expr(rng, depth - 1),
                 F(rng.choice((-2, -1, 1, 2, 3)), rng.choice((1, 2))))


def _random_exprs(rng, n):
    return [_random_expr(rng, rng.randint(1, 4)) for _ in range(n)]
