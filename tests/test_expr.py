import ast
import cmath
import dataclasses
import functools
import gc
import operator
import pickle
import random
import re
import sys
import threading
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclb import expr as ex
from nclb.airyfun import AiryOverflowError, airy
from nclb.expr import (Airy, Const, DomainError, Exp, I, Log,
                       MissingVariableError, Power, Var, ZERO, as_expr,
                       compile_expr, differentiate, evaluate, free_vars,
                       simplify, subst, to_text)

q = Var("q")
x = Var("x")
J = Var("J")


def _assert_normal(s):
    """Normalize s again from scratch, with every stored map and the
    `simplify` cache cleared, and check the result is s itself."""
    nodes, stack = {}, [s]
    while stack:
        n = stack.pop()
        if id(n) in nodes:
            continue
        nodes[id(n)] = n
        for name in n.__slots__:
            v = getattr(n, name)
            stack.extend(c for c in (v if isinstance(v, tuple) else (v,))
                         if isinstance(c, ex.Expr))
    saved = [(n, n._nf) for n in nodes.values()]
    try:
        for n, _ in saved:
            object.__setattr__(n, "_nf", None)
        simplify.cache_clear()
        again = ex._emit(ex._norm(s))
    finally:
        for n, nf in saved:
            object.__setattr__(n, "_nf", nf)
        simplify.cache_clear()
    assert again is s, f"{to_text(s)} normalizes again to {to_text(again)}"


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
            _assert_normal(s)

    @pytest.mark.parametrize("e, text", [
        (ex.Product((Power(2 * Var("nu") ** 2, F(-2, 3)),) * 3), "(1/4)*nu^(-4)"),
        (Var("y") * Power(x + 1, F(1, 2)) * Power(x + 1, F(1, 2)), "x*y + y"),
        (Var("y") * Power(2 * x, F(1, 3)) * Power(2 * x, F(2, 3)), "2*x*y"),
    ])
    def test_merged_powers_are_normalized_again(self, e, text):
        """A merged power of a base other than a variable is normal:
        normalizing the result again from scratch gives it back."""
        s = simplify(e)
        assert to_text(s) == text
        assert simplify(s) is s
        _assert_normal(s)

    @pytest.mark.parametrize("fixture", ["h3", "g47"])
    def test_the_operators_of_both_models_are_fixed_points(self, fixture, request):
        from nclb.reduction import build_reduced, extract_first_order

        model = request.getfixturevalue(fixture)
        first_order = extract_first_order(build_reduced(model, verify=False),
                                          model.normalizer).first_order
        trees = [*model.laplacian.coefficients.values(), *first_order.Z,
                 first_order.V, *(model.mode_family or {}).values()]
        assert len(trees) > 5
        for c in trees:
            assert simplify(c) is c
            _assert_normal(c)

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
        walks = []
        free = ex.free_vars
        monkeypatch.setattr(ex, "free_vars", lambda e: walks.append(e) or free(e))
        before = ex.simplify.cache_info()
        f = compile_expr(rates, ["q"], bind={"J": 2.0, "E": 0.5})
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


ONE_SEMANTICS_CASES = [
    (q ** 2, 1e200),                # OverflowError of a power
    (Exp(q), 1000.0),               # OverflowError of exp
    (Airy("Ai", q), -2e5),          # below LEFT_CUT
    (Airy("Ai", q), float("nan")),  # not a finite real argument
    (Power(q, -1), 0.0),            # zero to a negative power
    (Log(q), -2.0),
    (Power(q, F(1, 2)), -1.0),
    (Exp(-Exp(q)), 1000.0),         # an overflow the array code would hide
    (Power(Exp(q), -1), 1000.0),    # and one a negative power would hide
]


def _closure_outcome(f, value):
    try:
        return ("value", f(value))
    except DomainError:
        return ("raises", None)


class TestArrayMode:
    """`compile_array` runs the one generator over point arrays and agrees
    with `compile_expr`'s closure on what raises, what is skipped and what
    returns a non-finite value."""

    @pytest.mark.parametrize("e, bad", ONE_SEMANTICS_CASES)
    def test_rows_raise_or_skip_where_the_closure_raises(self, e, bad):
        f, g = ex.compile_array(e, ["q"]), compile_expr(e, ["q"])
        col = np.array([0.5, bad, 2.0])
        vals, ok = f(col, skip=(DomainError,))
        assert ok.tolist() == [True, False, True]
        assert _closure_outcome(g, bad)[0] == "raises"
        for v, got in zip(col[ok], vals[ok]):
            assert got == pytest.approx(g(v), rel=1e-14)
        with pytest.raises(DomainError):
            f(col)

    def test_non_finite_values_are_returned_as_the_closure_returns_them(self):
        f, g = ex.compile_array(q ** 8, ["q"]), compile_expr(q ** 8, ["q"])
        vals, ok = f(np.array([1e100, 2.0]))
        assert ok.all()
        assert not cmath.isfinite(vals[0]) and not cmath.isfinite(g(1e100))
        assert vals[1] == g(2.0)

    def test_simplify_may_drop_a_domain_restriction(self):
        vals, ok = ex.compile_array(Log(q) - Log(q), ["q"])(np.array([-1.0, 2.0]))
        assert ok.all() and vals.tolist() == [0, 0]

    def test_bi_overflow_raises_where_the_closure_raises(self):
        # airy_array would raise for the whole array; the closure turns
        # the AiryOverflowError of its row into a DomainError
        f = ex.compile_array(Airy("Bi", q), ["q"])
        with pytest.raises(AiryOverflowError):
            airy("Bi", 200.0)
        vals, ok = f(np.array([1.0, 200.0]), skip=(DomainError,))
        assert ok.tolist() == [True, False]
        assert vals[0] == pytest.approx(airy("Bi", 1.0), rel=1e-14)
        with pytest.raises(DomainError, match="Bi overflows"):
            f(np.array([1.0, 200.0]))

    def test_an_error_of_constant_arithmetic_hands_every_row_to_the_closure(self):
        # 0^-1 stays atomic in the normal form; Python raises on it at once
        f = ex.compile_array(q * Power(ex.ZERO, -1), ["q"])
        vals, ok = f(np.array([1.0, 2.0]), skip=(DomainError,))
        assert not ok.any()
        with pytest.raises(DomainError, match="ZeroDivisionError"):
            f(np.array([1.0, 2.0]))

    def test_tuple_bound_values_and_broadcast_columns(self):
        e = (Exp(q * J) * Airy("Ai", x), Log(x) + J)
        f = ex.compile_array(e, ["q", "x"], bind={"J": 0.5})
        g = compile_expr(e, ["q", "x"], bind={"J": 0.5})
        xs = np.linspace(-3.0, 3.0, 13)
        vals, ok = f(0.7, xs, skip=(DomainError,))
        assert vals.shape == (2, 13)
        for v, good, col in zip(xs, ok, vals.T):
            assert good == (v > 0)
            if good:
                assert col == pytest.approx(g(0.7, v), rel=1e-13)

    @pytest.mark.parametrize("e, value", [
        (tuple(Airy(k, x) for k in ex.AIRY_KINDS), -2.0),
        (x ** 2, 3.0),
    ], ids=["airy tuple", "square"])
    def test_number_columns_are_one_point(self, e, value):
        f = ex.compile_array(e, ["x"])
        vals, ok = f(value)
        want_vals, want_ok = f([value])
        assert vals.shape == want_vals.shape and vals.dtype == want_vals.dtype
        assert vals.tolist() == want_vals.tolist()
        assert ok.tolist() == want_ok.tolist() == [True]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_trees_agree_with_the_closure(self, seed):
        rng = random.Random(seed)
        e = _random_expr(rng, 3)
        names = ["q", "x", "y"]
        g = compile_expr(e, names)
        pts = np.array([[rng.uniform(-2, 2) for _ in names] for _ in range(6)])
        vals, ok = ex.compile_array(e, names)(*pts.T, skip=(DomainError,))
        for p, v, good in zip(pts, vals, ok):
            kind, want = _closure_outcome(lambda a: g(*a), p.tolist())
            assert good == (kind == "value")
            if good and cmath.isfinite(want):
                assert abs(v - want) <= 1e-12 * max(1.0, abs(want))


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
        finally:
            ex._closure_maker.cache_clear()

    def test_repeated_domain_test_keeps_its_message(self):
        e = Log(q) * Log(q) + Log(q)
        f = compile_expr(e, ["q"])
        with pytest.raises(DomainError, match="log requires positive real part"):
            f(-1.0)
        assert f(2.0) == cmath.log(2.0) * cmath.log(2.0) + cmath.log(2.0)


def _with_literal_constants(e, varnames, bind, wrapper):
    """e compiled as the generator emitted it before constants were bound:
    the shape's code with each `_c{i}` written as its `(float+0j)` literal."""
    bound, shape, consts = ex._lifted(e, tuple(varnames), tuple(sorted(bind)), True)
    head, body = ex._source(shape, tuple(varnames), bound, wrapper).split("\n", 1)
    body = re.sub(r"\b_c(\d+)\b",
                  lambda m: f"({consts[int(m.group(1))].real!r}+0j)", body)
    assert "_c" not in body.replace("_cx(", "")
    ns = dict(ex._array_runtime() if wrapper == "array" else ex._RUNTIME)
    exec(head + "\n" + body, ns)
    return ns["_make"](*(complex(bind[v]) for v in bound), *consts)


def _mode(mu, nu, e_val):
    from nclb.models import mode_solution_h3
    return mode_solution_h3(mu, nu, e_val)


class TestConstantLifting:
    def test_a_constant_beyond_the_double_range_raises_when_bound(self):
        huge = Const(F(10) ** 400)
        with pytest.raises(DomainError, match="double range"):
            compile_expr(huge * q, ["q"])
        with pytest.raises(DomainError, match="double range"):
            ex.compile_array((q, huge * q), ["q"])
        # the same shape with a constant in range compiles and runs
        assert compile_expr(Const(F(10) ** 300) * q, ["q"])(2.0) == 2e300

    @pytest.mark.parametrize("big", [10 ** 400, F(10) ** 400, -(10 ** 400)])
    def test_a_bound_value_beyond_the_double_range_raises(self, big):
        # as a constant of the same size does, not as a bare OverflowError
        for compile_ in (compile_expr, ex.compile_array):
            with pytest.raises(DomainError, match="value bound to J is outside the double range"):
                compile_(J * q, ["q"], bind={"J": big})
        assert compile_expr(J * q, ["q"], bind={"J": 10 ** 300})(2.0) == 2e300

    def test_one_shape_one_code_generation(self, monkeypatch):
        generated = []
        source = ex._source
        monkeypatch.setattr(ex, "_source", lambda *a: generated.append(a) or source(*a))
        ex._closure_maker.cache_clear()
        names = ["x1", "x2", "x3"]
        members = [_mode(F(1, 3), F(4, 5), F(7, 6)), _mode(F(-2, 9), F(5, 3), F(-3, 4))]
        pts = [(0.3, -0.2, 0.5), (-1.1, 0.4, 0.0)]
        lifted = [[compile_expr(psi, names)(*p) for p in pts] for psi in members]
        # (evaluating the exponent -2/3 may generate code of its own)
        assert len([a for a in generated if a[1] == tuple(names)]) == 1
        for psi, values in zip(members, lifted):
            ex._closure_maker.cache_clear()
            ex._lifted.cache_clear()
            assert [compile_expr(psi, names)(*p) for p in pts] == values

    def test_equal_constants_share_a_slot_and_exponents_stay_in_the_code(self):
        same, consts = ex._lift(2 * q + 2 * x)
        assert consts == (2,)
        assert ex._lift(3 * q + 3 * x)[0] == same
        assert ex._lift(2 * q + 3 * x)[0] != same
        assert ex._lift(Power(q, 2))[0] != ex._lift(Power(q, 3))[0]
        assert ex._lift(Power(q, 2))[1] == ()
        assert compile_expr(2 * q + 3 * x, ["q", "x"])(1.0, 1.0) == 5.0

    def test_values_are_those_of_literal_constants(self):
        # a bound complex(float(c)) is the literal (float+0j), so no float
        # operation changes: closure and array code of modes
        names = ("x1", "x2", "x3")
        pts = np.array([(a, b, c) for a in (-1.3, 0.2, 0.9) for b in (-0.7, 0.4)
                        for c in (0.1, 1.2)])
        for psi in (_mode(F(1, 3), F(4, 5), F(7, 6)), _mode(F(0), F(-5, 3), F(-3, 4)),
                    _mode(F(0.3), F(0.7), F(1.1))):
            f, g = compile_expr(psi, names), _with_literal_constants(psi, names, {}, "closure")
            assert [f(*p) for p in pts.tolist()] == [g(*p) for p in pts.tolist()]
            arr = ex._compiled((ZERO, psi), names, {}, "array")
            lit = _with_literal_constants((ZERO, psi), names, {}, "array")
            for u, v in zip(arr(*pts.T), lit(*pts.T)):
                assert np.array_equal(u, v)

    @pytest.mark.parametrize("fixture", ["h3", "g47"])
    def test_affine_parts_are_those_of_literal_constants(self, fixture, request):
        # the entries of A and c that the characteristics are solved from
        from nclb.models import reduction_normalizer
        from nclb.reduction import (_affine_parts, _chart_names, build_reduced,
                                    extract_first_order)

        model = request.getfixturevalue(fixture)
        red = extract_first_order(build_reduced(model, verify=False),
                                  reduction_normalizer(model))
        Z = tuple(red.first_order.Z)
        parts = _affine_parts(Z, _chart_names(len(Z)))
        assert len(parts) == len(Z) ** 2 + len(Z)
        bind = {"J": 1.0, "E": 0.7}
        values = compile_expr(parts, (), bind=bind)()
        assert values == _with_literal_constants(parts, (), bind, "closure")()
        assert all(v.imag == 0.0 for v in values)


class TestSubst:
    def test_basic(self):
        assert subst(q * q + J, {"q": Var("a") + 1}) == simplify(
            (Var("a") + 1) ** 2 + J)

    def test_constant_collapse(self):
        assert subst(q * x, {"q": ZERO}) == ZERO


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_CALLS = {"exp": Exp, "log": Log,
          **{kind: functools.partial(Airy, kind)
             for kind in ("Ai", "AiPrime", "Bi", "BiPrime")}}


def _read(text):
    """A tree from the `to_text` syntax, read by Python's own parser: `^`
    becomes `**` and the primed Airy names become AiPrime and BiPrime."""
    source = (text.replace("^", "**").replace("Ai'(", "AiPrime(")
              .replace("Bi'(", "BiPrime("))
    return _rebuild(ast.parse(source, mode="eval").body)


def _rebuild(node):
    if isinstance(node, ast.BinOp):
        return _BINARY[type(node.op)](_rebuild(node.left), _rebuild(node.right))
    if isinstance(node, ast.UnaryOp):
        operand = _rebuild(node.operand)
        return -operand if isinstance(node.op, ast.USub) else operand
    if isinstance(node, ast.Call):
        (arg,) = node.args
        return _CALLS[node.func.id](_rebuild(arg))
    if isinstance(node, ast.Name):
        return I if node.id == "I" else Var(node.id)
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return Const(node.value)
    raise ValueError(f"not in the to_text syntax: {ast.dump(node)}")


class TestParsePrint:
    """`to_text` prints a tree that reads back to the same normal form."""

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
            assert simplify(_read(to_text(s))) == s

    def test_round_trip_random(self):
        rng = random.Random(12)
        for e in _random_exprs(rng, 60):
            s = simplify(e)
            assert simplify(_read(to_text(s))) == s


def test_three_quarters_value():
    assert simplify(Const(3) / 4) == Const(F(3, 4))


def test_power_requires_constant_exponent():
    with pytest.raises(ValueError):
        Power(q, x)


def test_float_coercion_rejected():
    with pytest.raises(TypeError):
        as_expr(0.5)


# --- node hashing and depth --------------------------------------------------

def _mode_like():
    # built from scratch on every call; interning makes the results one object
    return Exp(I * (Var("mu") * Var("x2") + F(-3, 7) * Var("x3"))) * Airy(
        "Ai", (2 * Var("nu") ** 2 * Var("x1") + 2 * Var("mu") * Var("nu") + Var("E"))
        * Power(Const(F(2)), Const(F(-2, 3))))


def _alternating(depth):
    e = x
    for i in range(depth):
        e = (ex.Sum((x, e)), ex.Product((q, e)), Exp(e))[i % 3]
    return e


class TestNodeHash:
    def test_equal_trees_have_equal_hashes(self):
        a, b = _mode_like(), _mode_like()
        assert a is b
        assert a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_printing_does_not_show_the_stored_hash(self):
        """A node stores no hash, only its normal-form map; neither the
        object hash nor the map shows in the printed forms."""
        e = simplify(_mode_like())
        assert e._nf is not None
        object_hash = str(hash(e))
        assert object_hash not in repr(e)
        assert object_hash not in to_text(e)
        assert repr(e) == f"<expr {to_text(e)}>"

    def test_nodes_are_slotted_and_frozen(self):
        e = _mode_like()
        for node in (e, Const(1), I, x, e.factors[1].arg):
            assert not hasattr(node, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.factors = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            Const(1).value = F(2)

    def test_distinct_constants_differ(self):
        assert Const(1) != Const(2)
        assert Const(F(2, 4)) == Const(F(1, 2))
        assert hash(Const(F(2, 4))) == hash(Const(F(1, 2)))

    def test_pickle_rebuilds_the_hash(self):
        """The object hash survives a pickle round trip, because the
        constructor returns the live node."""
        e = _mode_like()
        back = pickle.loads(pickle.dumps(e))
        assert back == e
        assert hash(back) == hash(e)

    def test_a_pickle_round_trip_returns_the_live_node(self):
        e = simplify(_mode_like())
        assert pickle.loads(pickle.dumps(e)) is e
        assert pickle.loads(pickle.dumps((e, e.factors[0]))) == (e, e.factors[0])

    def test_the_sort_key_is_computed_once_per_node(self, monkeypatch):
        calls = []
        build = ex._new_sort_key
        monkeypatch.setattr(ex, "_new_sort_key", lambda e: calls.append(e) or build(e))
        u = Var("u_sort_key")
        e = Exp(I * u) * Airy("Ai", 3 * u + 1) + Power(u + 2, F(1, 2)) + u
        key = ex._sort_key(e)
        assert len(calls) == len(set(calls))  # each distinct subtree once
        assert u in calls and e in calls
        calls.clear()
        assert ex._sort_key(e) is key
        assert ex._sort_key(e.terms[0]) is e.terms[0]._key
        assert calls == []

    def test_dropped_trees_leave_the_intern_table(self):
        def drop_and_count():
            simplify.cache_clear()
            gc.collect()
            return len(ex._NODES)

        def build_and_simplify():
            rng = random.Random(5)
            for _ in range(1000):
                c = Const(F(rng.randrange(10 ** 9), rng.randrange(1, 10 ** 9)))
                simplify(Exp(I * c * x) * Airy("Ai", c * q + 1) + Log(c + x))
            return len(ex._NODES)

        before = drop_and_count()
        assert build_and_simplify() > before
        assert drop_and_count() == before

    def test_threads_building_one_tree_get_one_node(self):
        def build(out):
            for i in range(500):
                out.append(Exp(Var("t") * Const(F(i, 7919))) + Const(F(i, 7907)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            built = [[] for _ in range(4)]
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert all(len(out) == 500 for out in built)
        for trees in zip(*built):
            assert all(t is trees[0] for t in trees)


class TestDepth:
    def test_deep_alternating_tree_evaluates_simplifies_and_compiles(self):
        e = _alternating(250)
        value = evaluate(e, {"x": 0.1, "q": 0.1})
        assert cmath.isfinite(value)
        assert compile_expr(e, ("x", "q"))(0.1, 0.1) == pytest.approx(value, rel=1e-12)
        assert free_vars(simplify(e)) == {"x", "q"}

    def test_hash_of_a_deep_chain_does_not_recurse(self):
        a, b = _alternating(2000), _alternating(2000)
        assert hash(a) == hash(b)

    def test_equality_of_deep_trees_does_not_recurse(self):
        a, b = _alternating(2000), _alternating(2000)
        assert a is b
        assert a == b
        assert not a != b
        assert {a: 1}[b] == 1
        assert a != _alternating(1999)
        # one leaf deep down differs
        assert ex.Sum((x, a)) != ex.Sum((q, b))
        assert ex.Exp(ex.Sum((q, a))) != ex.Exp(ex.Sum((x, b)))


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
