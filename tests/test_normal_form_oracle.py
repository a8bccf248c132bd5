"""sympy as an independent prover of the normal form: for random trees e,
sympy must prove e - simplify(e) = 0, and reject the claim once one
coefficient of simplify(e) is perturbed.

The trees reach sympy through `to_sympy`, which walks the tree, so a printer
bug cannot hide a prover bug.  Variables are positive symbols, the domain on
which the normal form's power merging holds.
"""

from fractions import Fraction as F

import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nclb import expr as ex
from nclb.expr import Airy, Const, Exp, I, Log, Power, Product, Sum, Var, ZERO, simplify

_AIRY = {"Ai": sp.airyai, "AiPrime": sp.airyaiprime,
         "Bi": sp.airybi, "BiPrime": sp.airybiprime}


def to_sympy(e):
    """The sympy expression of the tree e, node by node."""
    if isinstance(e, Const):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, ex.ImagUnit):
        return sp.I
    if isinstance(e, Var):
        return sp.Symbol(e.name, positive=True)
    if isinstance(e, Sum):
        return sp.Add(*map(to_sympy, e.terms))
    if isinstance(e, Product):
        return sp.Mul(*map(to_sympy, e.factors))
    if isinstance(e, Power):
        return sp.Pow(to_sympy(e.base), to_sympy(e.exponent))
    if isinstance(e, Exp):
        return sp.exp(to_sympy(e.arg))
    if isinstance(e, Log):
        return sp.log(to_sympy(e.arg))
    if isinstance(e, Airy):
        return _AIRY[e.kind](to_sympy(e.arg))
    raise TypeError(f"not an expression: {e!r}")


def proved_zero(d):
    """sympy proves the sympy expression d equal to 0: its expansion, with
    sympy's own merging of powers and exponentials, is 0."""
    return sp.expand(d) == 0


def perturbed(s):
    """The normal tree s with its first term's coefficient raised by 1/7."""
    terms = s.terms if isinstance(s, Sum) else (s,)
    first = terms[0]
    if isinstance(first, Const):
        first = Const(first.value + F(1, 7))
    elif isinstance(first, Product) and isinstance(first.factors[0], Const):
        first = Product((Const(first.factors[0].value + F(1, 7)),) + first.factors[1:])
    else:
        first = Product((Const(F(8, 7)), first))
    return Sum((first,) + terms[1:])


COEFFICIENTS = [F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(2), F(3, 4)]
leaves = st.one_of(st.sampled_from(COEFFICIENTS).map(Const),
                   st.sampled_from([Var("x"), Var("y"), I]))
# negative and fractional exponents only on variables, which are positive
var_powers = st.builds(Power, st.sampled_from([Var("x"), Var("y")]),
                       st.sampled_from([F(-1), F(1, 2), F(-2), F(3, 2)]))


def _nodes(children):
    parts = st.lists(children, min_size=2, max_size=3).map(tuple)
    return st.one_of(parts.map(Sum), parts.map(Product),
                     st.builds(Power, children, st.sampled_from([2, 3])),
                     children.map(Exp))


trees = st.recursive(st.one_of(leaves, var_powers), _nodes, max_leaves=8)


@settings(max_examples=120, deadline=None)
@given(trees)
@example((Var("x") + 1) * (Var("x") - 1))
@example(Exp(Var("x")) * Exp(-Var("x") + F(1, 2)) * Power(Var("y"), F(1, 2)) ** 2)
@example(I * I * (Var("x") + I) ** 3)
def test_sympy_proves_each_tree_equal_to_its_normal_form(e):
    s = simplify(e)
    assert proved_zero(to_sympy(e) - to_sympy(s)), (ex.to_text(e), ex.to_text(s))
    if s != ZERO:
        wrong = perturbed(s)
        assert not proved_zero(to_sympy(e) - to_sympy(wrong)), ex.to_text(wrong)


def test_the_converter_walks_every_node_kind():
    x = Var("x")
    e = Sum((Product((Const(F(-2, 3)), I, Power(x, F(1, 2)))),
             Exp(x), Log(x), Airy("BiPrime", x)))
    sx = sp.Symbol("x", positive=True)
    assert to_sympy(e) == (sp.Rational(-2, 3) * sp.I * sp.sqrt(sx) + sp.exp(sx)
                           + sp.log(sx) + sp.airybiprime(sx))
