"""Small immutable symbolic expression kernel.

Nodes: rational constants, the imaginary unit, variables, sums, products,
powers with constant exponents, exp, log, and the four Airy kinds.  The
kernel provides exact differentiation, an expand-and-collect normal form
(`simplify`), numeric evaluation, and a parse/print pair for a plain infix
syntax.

Numeric evaluation has one code generator.  It turns an expression (or a
tuple of them) into flat Python code over complex doubles, one local per
distinct subtree, and wraps that body in one of two functions, compiled once
per expression, argument names, bound names and wrapper:

* a closure: `compile_expr` returns it for the normal form, and `evaluate`
  compiles the tree as given and calls it once;
* an RK4 loop: `compile_rk4` returns a function that runs n classical RK4
  steps for a tuple of rates, with the body inlined in each of the four
  stages, and appends every state to the caller's lists.

Both raise DomainError in the same places: log, fractional powers and Airy
test their arguments inline, and an OverflowError or ZeroDivisionError of
the arithmetic becomes one.

The normal form is a sum of monomials: rational coefficient times sorted
factors, with same-base powers merged by exponent arithmetic, exponential
factors merged by argument addition, and powers of the imaginary unit folded
mod 4.  It is idempotent and strong enough to cancel every operator identity
the rest of the library relies on symbolically.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .airyfun import LEFT_CUT, airy as _airy_numeric
from .report import NclbError


class ExprError(NclbError):
    pass


class MissingVariableError(ExprError):
    pass


class DomainError(ExprError):
    pass


class ExprSyntaxError(ExprError):
    pass


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Expr:
    __slots__ = ()

    def __add__(self, other):
        return Sum((self, as_expr(other)))

    def __radd__(self, other):
        return Sum((as_expr(other), self))

    def __sub__(self, other):
        return Sum((self, Product((Const(Fraction(-1)), as_expr(other)))))

    def __rsub__(self, other):
        return Sum((as_expr(other), Product((Const(Fraction(-1)), self))))

    def __mul__(self, other):
        return Product((self, as_expr(other)))

    def __rmul__(self, other):
        return Product((as_expr(other), self))

    def __truediv__(self, other):
        return Product((self, Power(as_expr(other), Const(Fraction(-1)))))

    def __rtruediv__(self, other):
        return Product((as_expr(other), Power(self, Const(Fraction(-1)))))

    def __neg__(self):
        return Product((Const(Fraction(-1)), self))

    def __pow__(self, other):
        return Power(self, as_expr(other))

    def __repr__(self):
        return f"<expr {to_text(self)}>"


@dataclass(frozen=True, repr=False)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _as_fraction(self.value))


@dataclass(frozen=True, repr=False)
class ImagUnit(Expr):
    pass


I = ImagUnit()


@dataclass(frozen=True, repr=False)
class Var(Expr):
    name: str


@dataclass(frozen=True, repr=False)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(as_expr(t) for t in self.terms))


@dataclass(frozen=True, repr=False)
class Product(Expr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(as_expr(f) for f in self.factors))


@dataclass(frozen=True, repr=False)
class Power(Expr):
    base: Expr
    exponent: Expr

    def __post_init__(self):
        object.__setattr__(self, "base", as_expr(self.base))
        object.__setattr__(self, "exponent", as_expr(self.exponent))
        if free_vars(self.exponent):
            raise ValueError("power exponents must be constant expressions")


@dataclass(frozen=True, repr=False)
class Exp(Expr):
    arg: Expr

    def __post_init__(self):
        object.__setattr__(self, "arg", as_expr(self.arg))


@dataclass(frozen=True, repr=False)
class Log(Expr):
    arg: Expr

    def __post_init__(self):
        object.__setattr__(self, "arg", as_expr(self.arg))


AIRY_KINDS = ("Ai", "AiPrime", "Bi", "BiPrime")


@dataclass(frozen=True, repr=False)
class Airy(Expr):
    kind: str
    arg: Expr

    def __post_init__(self):
        object.__setattr__(self, "arg", as_expr(self.arg))
        if self.kind not in AIRY_KINDS:
            raise ValueError(f"unknown Airy kind {self.kind!r}")


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot treat {type(x).__name__} as an expression (floats "
                    "are not exact; use Fraction)")


def const(p, q=1) -> Const:
    return Const(Fraction(p, q))


def free_vars(e) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Sum):
        out = frozenset()
        for t in e.terms:
            out |= free_vars(t)
        return out
    if isinstance(e, Product):
        out = frozenset()
        for f in e.factors:
            out |= free_vars(f)
        return out
    if isinstance(e, Power):
        return free_vars(e.base) | free_vars(e.exponent)
    if isinstance(e, (Exp, Log, Airy)):
        return free_vars(e.arg)
    return frozenset()


# --- canonical ordering -----------------------------------------------------

def _sort_key(e):
    if isinstance(e, Const):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, ImagUnit):
        return (1,)
    if isinstance(e, Var):
        return (2, e.name)
    if isinstance(e, Power):
        return (3, _sort_key(e.base), _sort_key(e.exponent))
    if isinstance(e, Exp):
        return (4, _sort_key(e.arg))
    if isinstance(e, Log):
        return (5, _sort_key(e.arg))
    if isinstance(e, Airy):
        return (6, e.kind, _sort_key(e.arg))
    if isinstance(e, Sum):
        return (7, tuple(_sort_key(t) for t in e.terms))
    if isinstance(e, Product):
        return (8, tuple(_sort_key(f) for f in e.factors))
    raise TypeError(f"not an expression: {e!r}")


def _factor_key(f):
    if f[0] == "i":
        return (0,)
    if f[0] == "exp":
        return (1, _sort_key(f[1]))
    return (2, _sort_key(f[1]), _sort_key(f[2]))


# --- normal form ------------------------------------------------------------
# NF is a dict {monomial: Fraction}; a monomial is a sorted tuple of factors
# ("i",), ("exp", arg) or ("pow", base, exponent) with canonical sub-exprs.

def _nf_const(c):
    return {(): c} if c != 0 else {}


def _nf_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        acc = out.get(mono, Fraction(0)) + coeff
        if acc == 0:
            out.pop(mono, None)
        else:
            out[mono] = acc
    return out


def _merge_monomials(m1, m2):
    """Combine two factor tuples; returns (coeff_multiplier, monomial)."""
    mult = Fraction(1)
    i_count = 0
    exp_args = []
    pows = {}  # base expr -> list of exponent exprs
    order = []  # first-seen bases, for stable grouping
    for f in m1 + m2:
        if f[0] == "i":
            i_count += 1
        elif f[0] == "exp":
            exp_args.append(f[1])
        else:
            _, base, ex = f
            if base not in pows:
                pows[base] = []
                order.append(base)
            pows[base].append(ex)
    i_count %= 4
    if i_count == 2:
        mult = -mult
        i_count = 0
    elif i_count == 3:
        mult = -mult
        i_count = 1
    factors = []
    if i_count:
        factors.append(("i",))
    if exp_args:
        total = simplify(Sum(tuple(exp_args))) if len(exp_args) > 1 else exp_args[0]
        if total != ZERO:
            factors.append(("exp", total))
    for base in order:
        exps = pows[base]
        ex = simplify(Sum(tuple(exps))) if len(exps) > 1 else exps[0]
        if ex == ZERO:
            continue
        if (isinstance(base, Const) and isinstance(ex, Const)
                and ex.value.denominator == 1
                and not (base.value == 0 and ex.value < 0)):
            mult *= base.value ** int(ex.value)
            continue
        factors.append(("pow", base, ex))
    factors.sort(key=_factor_key)
    return mult, tuple(factors)


def _nf_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mult, mono = _merge_monomials(m1, m2)
            acc = out.get(mono, Fraction(0)) + c1 * c2 * mult
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
    return out


def _nf_pow_int(a, n):
    out = _nf_const(Fraction(1))
    for _ in range(n):
        out = _nf_mul(out, a)
    return out


def _atom_nf(factor):
    return {(factor,): Fraction(1)}


def _norm(e):
    if isinstance(e, Const):
        return _nf_const(e.value)
    if isinstance(e, ImagUnit):
        return _atom_nf(("i",))
    if isinstance(e, Var):
        return _atom_nf(("pow", e, ONE))
    if isinstance(e, Sum):
        out = {}
        for t in e.terms:
            out = _nf_add(out, _norm(t))
        return out
    if isinstance(e, Product):
        out = _nf_const(Fraction(1))
        for f in e.factors:
            out = _nf_mul(out, _norm(f))
        return out
    if isinstance(e, Exp):
        na = simplify(e.arg)
        if na == ZERO:
            return _nf_const(Fraction(1))
        return _atom_nf(("exp", na))
    if isinstance(e, Log):
        na = simplify(e.arg)
        if na == ONE:
            return {}
        return _atom_nf(("pow", Log(na), ONE))
    if isinstance(e, Airy):
        return _atom_nf(("pow", Airy(e.kind, simplify(e.arg)), ONE))
    if isinstance(e, Power):
        return _norm_power(e)
    raise TypeError(f"not an expression: {e!r}")


def _norm_power(e):
    nb = simplify(e.base)
    ne = simplify(e.exponent)
    if ne == ZERO:
        return _nf_const(Fraction(1))
    if ne == ONE:
        return _norm(nb)
    int_exp = isinstance(ne, Const) and ne.value.denominator == 1
    if isinstance(nb, Const):
        if int_exp:
            n = int(ne.value)
            if nb.value == 0 and n < 0:
                # ill-defined; stays atomic and evaluation reports it
                return _atom_nf(("pow", nb, ne))
            return _nf_const(nb.value ** n)
        if nb.value == 1:
            return _nf_const(Fraction(1))
        return _atom_nf(("pow", nb, ne))
    if isinstance(nb, ImagUnit) and int_exp:
        k = int(ne.value) % 4
        table = {0: _nf_const(Fraction(1)), 1: _atom_nf(("i",)),
                 2: _nf_const(Fraction(-1)), 3: _nf_mul(_nf_const(Fraction(-1)), _atom_nf(("i",)))}
        return table[k]
    if isinstance(nb, Power):
        inner = nb.exponent
        if int_exp and isinstance(inner, Const) and inner.value.denominator == 1:
            merged = Const(inner.value * ne.value)
            return _norm(Power(nb.base, merged))
        return _atom_nf(("pow", nb, ne))
    if isinstance(nb, Product) and int_exp:
        out = _nf_const(Fraction(1))
        for f in nb.factors:
            out = _nf_mul(out, _norm(Power(f, ne)))
        return out
    if isinstance(nb, Sum) and int_exp:
        n = int(ne.value)
        if 2 <= n <= 4:
            return _nf_pow_int(_norm(nb), n)
        return _atom_nf(("pow", nb, ne))
    return _atom_nf(("pow", nb, ne))


def _emit_factor(f):
    if f[0] == "i":
        return I
    if f[0] == "exp":
        return Exp(f[1])
    _, base, ex = f
    if ex == ONE:
        return base
    return Power(base, ex)


def _emit(nf):
    if not nf:
        return ZERO
    terms = []
    for mono in sorted(nf, key=lambda m: tuple(_factor_key(f) for f in m)):
        coeff = nf[mono]
        factors = [_emit_factor(f) for f in mono]
        parts = []
        if coeff != 1 or not factors:
            parts.append(Const(coeff))
        parts.extend(factors)
        terms.append(parts[0] if len(parts) == 1 else Product(tuple(parts)))
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


@functools.lru_cache(maxsize=None)
def simplify(e: Expr) -> Expr:
    """Expand-and-collect normal form; idempotent.

    The result has the value of e wherever e evaluates.  It may evaluate
    where e does not: cancelling log q - log q to 0, for one, drops the
    restriction q > 0.
    """
    return _emit(_norm(e))


# --- differentiation --------------------------------------------------------

_AIRY_DERIV = {"Ai": "AiPrime", "Bi": "BiPrime"}


def _diff(e, var):
    if isinstance(e, (Const, ImagUnit)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Sum):
        return Sum(tuple(_diff(t, var) for t in e.terms))
    if isinstance(e, Product):
        terms = []
        fs = e.factors
        for i in range(len(fs)):
            terms.append(Product(fs[:i] + (_diff(fs[i], var),) + fs[i + 1:]))
        return Sum(tuple(terms))
    if isinstance(e, Power):
        # exponent is constant, so only the base varies
        c = e.exponent
        return Product((c, Power(e.base, Sum((c, Const(Fraction(-1))))), _diff(e.base, var)))
    if isinstance(e, Exp):
        return Product((_diff(e.arg, var), e))
    if isinstance(e, Log):
        return Product((_diff(e.arg, var), Power(e.arg, Const(Fraction(-1)))))
    if isinstance(e, Airy):
        du = _diff(e.arg, var)
        if e.kind in _AIRY_DERIV:
            return Product((du, Airy(_AIRY_DERIV[e.kind], e.arg)))
        base = "Ai" if e.kind == "AiPrime" else "Bi"
        return Product((du, e.arg, Airy(base, e.arg)))
    raise TypeError(f"not an expression: {e!r}")


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative, returned in normal form."""
    return simplify(_diff(e, var))


# --- substitution -----------------------------------------------------------

def subst(e: Expr, mapping) -> Expr:
    """Replace variables by expressions; result is simplified."""

    def rec(x):
        if isinstance(x, Var):
            return as_expr(mapping.get(x.name, x))
        if isinstance(x, Sum):
            return Sum(tuple(rec(t) for t in x.terms))
        if isinstance(x, Product):
            return Product(tuple(rec(f) for f in x.factors))
        if isinstance(x, Power):
            return Power(rec(x.base), x.exponent)
        if isinstance(x, Exp):
            return Exp(rec(x.arg))
        if isinstance(x, Log):
            return Log(rec(x.arg))
        if isinstance(x, Airy):
            return Airy(x.kind, rec(x.arg))
        return x

    return simplify(rec(e))


# --- evaluation -------------------------------------------------------------

_REAL_TOL = 1e-10
_RUNTIME = {"_exp": cmath.exp, "_log": cmath.log, "_airy": _airy_numeric,
            "DomainError": DomainError, "_LEFT_CUT": LEFT_CUT, "_INF": math.inf}


def _source(e, varnames, bound, loop):
    """Source of `_make(*bound values)`, which returns `_f(*varnames)` or,
    with loop, the RK4 loop `_run` of `compile_rk4`.

    The body computes one local per inner node in evaluation order, so the
    source stays flat however deep the tree is.  A node whose code text was
    already emitted reuses that local (and its domain test), so each distinct
    subtree is computed once per evaluation.
    """
    names = {v: f"_a{i}" for i, v in enumerate(varnames)}
    names.update((v, f"_b{i}") for i, v in enumerate(bound))
    lines = []
    local_of = {}  # code text -> its local
    checks = set()

    def local(code):
        if code not in local_of:
            local_of[code] = f"_t{len(lines)}"
            lines.append(f"{local_of[code]} = {code}")
        return local_of[code]

    def check(test, what, t):
        line = f"if {test}: raise DomainError(f'{what}, got {{complex({t})!r}}')"
        if line not in checks:
            checks.add(line)
            lines.append(line)

    def real(t):
        return f"abs({t}.imag) > {_REAL_TOL!r} * (1.0 + abs({t}.real))"

    def maybe_real(x):
        # float arguments stay floats through their sums and products, and
        # a power must see a complex base to round the same for any caller
        if isinstance(x, (Sum, Product)):
            return all(maybe_real(t) for t in (x.terms if isinstance(x, Sum) else x.factors))
        return isinstance(x, Var) and x.name in varnames

    def gen(x):
        if isinstance(x, Const):
            try:
                return f"({float(x.value)!r}+0j)"
            except OverflowError:
                raise DomainError("a constant is outside the double range") from None
        if isinstance(x, ImagUnit):
            return "1j"
        if isinstance(x, Var):
            if x.name not in names:
                raise MissingVariableError(
                    f"free variable {x.name!r} not among compile arguments {list(varnames)}"
                )
            return names[x.name]
        if isinstance(x, Sum):
            return local("+".join(gen(t) for t in x.terms)) if x.terms else "0j"
        if isinstance(x, Product):
            return local("*".join(gen(f) for f in x.factors)) if x.factors else "(1+0j)"
        if isinstance(x, Exp):
            return local(f"_exp({gen(x.arg)})")
        if isinstance(x, Log):
            t = gen(x.arg)
            check(f"{t}.real <= 0.0", "log requires positive real part", t)
            return local(f"_log({t})")
        if isinstance(x, Airy):
            t = gen(x.arg)
            check(f"{real(t)} or not _LEFT_CUT <= {t}.real < _INF",
                  f"Airy requires a finite real argument >= {LEFT_CUT!r}", t)
            return local(f"complex(_airy({x.kind!r}, {t}.real))")
        if isinstance(x, Power):
            ev = evaluate_const(x.exponent)
            t = gen(x.base)
            if ev.imag == 0.0 and ev.real == int(ev.real):
                if maybe_real(x.base):
                    t = f"complex({t})"
                return local(f"{t}**{int(ev.real)}")
            check(f"{real(t)} or {t}.real <= 0.0",
                  "fractional power needs a positive real base", t)
            return local(f"_exp({ev!r} * _log({t}))")
        raise TypeError(f"not an expression: {x!r}")

    results = [gen(x) for x in e] if isinstance(e, tuple) else gen(e)
    make = f"def _make({', '.join(names[v] for v in bound)}):\n"
    arith = ("except (OverflowError, ZeroDivisionError) as exc:\n"
             "    raise DomainError(f'{type(exc).__name__}: {exc}') from None\n")
    if not loop:
        result = ("(" + "".join(f"{r}, " for r in results) + ")"
                  if isinstance(e, tuple) else results)
        body = "".join(f"{line}\n" for line in lines) + f"return {result}\n"
        return (make + f"    def _f({', '.join(names[v] for v in varnames)}):\n"
                + _indent(f"try:\n{_indent(body, 4)}{arith}", 8) + "    return _f\n")
    return make + _indent(_rk4_source(lines, results, len(varnames), arith), 4)


def _indent(text, n):
    return "".join(" " * n + line + "\n" for line in text.splitlines())


def _rk4_source(lines, results, m, arith):
    """`_run` for `compile_rk4`: the body `lines` (computing `results` from
    the chart arguments `_a0.._a{m-1}`) inlined in each of the four stages,
    with the driver's arithmetic in its order."""
    n = len(results)
    s = [f"_s{i}" for i in range(n)]
    k = [[f"_k{j}_{i}" for i in range(n)] for j in range(4)]
    body = "".join(f"{line}\n" for line in lines)
    # stage j + 1 evaluates the rates at s + h_j * (stage j's rates)
    stage_args = [s[:m]] + [[f"{s[i]} + {h} * {k[j][i]}" for i in range(m)]
                            for j, h in enumerate(("_h2", "_h2", "_h"))]
    stages = ["".join(f"_a{i} = {a}\n" for i, a in enumerate(args)) + body
              + "".join(f"{k[j][i]} = {r}\n" for i, r in enumerate(results))
              for j, args in enumerate(stage_args)]
    update = "".join(f"{s[i]} = {s[i]} + _h6 * ({k[0][i]} + 2 * {k[1][i]} + 2 * {k[2][i]}"
                     f" + {k[3][i]})\n" for i in range(n))
    point = "(" + "".join(f"{x}, " for x in s[:m]) + ")"
    extra = f"_phases.append({s[m]})\n" if n > m else ""
    start = f"{s[m]} = _phases[-1]\n" if n > m else ""
    step = (f"try:\n{_indent(''.join(stages) + update or 'pass', 4)}{arith}"
            f"_time += _h\n_ts.append(_time)\n_q = {point}\n_qs.append(_q)\n{extra}"
            f"if _check is not None:\n    _check(_time, _q)\n")
    return ("def _run(_n, _h, _ts, _qs, _phases, _check):\n"
            + _indent(f"_time = _ts[-1]\n{point} = _qs[-1]\n{start}"
                      f"_h2, _h6 = _h / 2, _h / 6\nfor _ in range(_n):\n{_indent(step, 4)}", 4)
            + "return _run\n")


@functools.lru_cache(maxsize=128)
def _closure_maker(e, varnames, names, loop, normal):
    """(bound names, `_make`) for e.  Without normal, e is compiled as given
    with bound names `names`.  With normal, `names` are a caller's bind names
    and the key shares the entry of e's normal form and the bound names among
    them, so a repeated compile does no `simplify` and no free-variable walk.
    """
    if normal:
        nf = tuple(simplify(x) for x in e) if isinstance(e, tuple) else simplify(e)
        free = free_vars(Sum(nf) if isinstance(nf, tuple) else nf) - set(varnames)
        bound = tuple(sorted(free.intersection(names)))
        return _closure_maker(nf, varnames, bound, loop, False)
    ns = dict(_RUNTIME)
    exec(_source(e, varnames, names, loop), ns)  # noqa: S102 - generated from the tree
    return names, ns["_make"]


def evaluate(e: Expr, assignment=None) -> complex:
    """Evaluate e, as given (not its normal form), to a complex double.

    Compiles e like `compile_expr` and calls the closure once with complex
    arguments.  DomainError is raised for a log with non-positive real part,
    a fractional power off the positive reals, zero to a negative power, an
    Airy argument that is not real or lies below LEFT_CUT, a Python
    OverflowError and, here only, a non-finite result.  A variable missing
    from `assignment` raises MissingVariableError.
    """
    a = assignment or {}
    names = tuple(sorted(free_vars(e)))
    try:
        args = [complex(a[v]) for v in names]
    except KeyError as exc:
        raise MissingVariableError(f"no value for variable {exc.args[0]!r}") from None
    val = _closure_maker(e, names, (), False, False)[1]()(*args)
    if not cmath.isfinite(val):
        raise DomainError(f"evaluation produced a non-finite value: {val!r}")
    return val


@functools.lru_cache(maxsize=None)
def evaluate_const(e: Expr) -> complex:
    if free_vars(e):
        raise MissingVariableError("expression is not constant")
    return evaluate(e, {})


def compile_expr(e, varnames, bind=None):
    """Compile the normal form of e to a Python closure f(*values) -> complex.

    The closure raises DomainError exactly where `evaluate` does, except for
    a non-finite result, which it returns.  Because `simplify` may drop a
    domain restriction (log q - log q is 0), the closure can return a value
    where `evaluate` of the raw tree raises.

    `e` may also be a tuple of expressions: the closure then returns the
    tuple of their values from one call, evaluated left to right, so the
    first failing entry raises.  `bind` maps names to numbers; e's free
    variables among them that are not in `varnames` are fixed into the
    closure as complex constants.  A free variable in neither raises
    MissingVariableError.  Code is generated once per (normal form,
    varnames, bound names) in a bounded cache; bound values are not code.
    """
    return _compiled(e, tuple(varnames), bind, False)


def compile_rk4(rates, varnames, bind=None):
    """Compile classical RK4 for dq/dt = rates(q) to one loop function.

    `rates` is a tuple of len(varnames) expressions, the rates of the chart
    variables `varnames`, optionally followed by one more: the rate of an
    extra state component (a phase) that rides along but is not an
    argument of the rates.  The loop

        run(n, h, ts, qs, phases, check)

    continues the characteristic whose last time, chart point (a tuple) and,
    with the extra component, phase end the lists ts, qs and phases, by n
    steps of length h, appending each new state to them; check(t, q), unless
    None, is called after every step and may raise.  The rates' body is
    inlined in each of the four stages, which evaluate `s + h/2*k` (twice)
    and `s + h*k`; a step ends with `s + h/6*(k1 + 2*k2 + 2*k3 + k4)` and
    `t += h`.  The rates raise DomainError as `compile_expr`'s closure does,
    and `bind` is handled, and code cached, as there.
    """
    varnames = tuple(varnames)
    if not len(varnames) <= len(rates) <= len(varnames) + 1:
        raise ValueError(f"expected {len(varnames)} rates and at most one more, "
                         f"got {len(rates)}")
    return _compiled(tuple(rates), varnames, bind, True)


def _compiled(e, varnames, bind, loop):
    bind = bind or {}
    bound, make = _closure_maker(e, varnames, tuple(sorted(bind)), loop, True)
    return make(*(complex(bind[v]) for v in bound))


# --- printing ---------------------------------------------------------------

_AIRY_NAMES = {"Ai": "Ai", "AiPrime": "Ai'", "Bi": "Bi", "BiPrime": "Bi'"}


def _print_atom(e):
    """Printable without parens in any context."""
    return isinstance(e, (Var, ImagUnit, Exp, Log, Airy)) or (
        isinstance(e, Const) and e.value.denominator == 1 and e.value >= 0
    )


def to_text(e: Expr) -> str:
    if isinstance(e, Const):
        v = e.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(e, ImagUnit):
        return "I"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Exp):
        return f"exp({to_text(e.arg)})"
    if isinstance(e, Log):
        return f"log({to_text(e.arg)})"
    if isinstance(e, Airy):
        return f"{_AIRY_NAMES[e.kind]}({to_text(e.arg)})"
    if isinstance(e, Power):
        b = to_text(e.base) if _print_atom(e.base) else f"({to_text(e.base)})"
        x = e.exponent
        if isinstance(x, Const) and x.value.denominator == 1 and x.value >= 0:
            return f"{b}^{to_text(x)}"
        return f"{b}^({to_text(x)})"
    if isinstance(e, Product):
        parts = []
        for f in e.factors:
            t = to_text(f)
            if isinstance(f, Sum) or (isinstance(f, Const) and (f.value < 0 or f.value.denominator != 1)):
                t = f"({t})"
            parts.append(t)
        return "*".join(parts) if parts else "1"
    if isinstance(e, Sum):
        if not e.terms:
            return "0"
        out = to_text(e.terms[0])
        for t in e.terms[1:]:
            txt = to_text(t)
            if txt.startswith("-"):
                out += f" - {txt[1:]}"
            else:
                out += f" + {txt}"
        return out
    raise TypeError(f"not an expression: {e!r}")


# --- parsing ----------------------------------------------------------------

_FUNCTIONS = {"exp": Exp, "log": Log}
_AIRY_FUNCS = {"Ai": "Ai", "Ai'": "AiPrime", "Bi": "Bi", "Bi'": "BiPrime"}


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "'":
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", n))
    return tokens


def parse(text: str) -> Expr:
    """Parse the infix syntax emitted by `to_text`."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def take(kind=None):
        nonlocal pos
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r} at position {tok[2]}, got {tok[1]!r}")
        pos += 1
        return tok

    def parse_sum():
        node = parse_term()
        while peek()[0] in ("+", "-"):
            op = take()[0]
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_unary()
        while peek()[0] in ("*", "/"):
            op = take()[0]
            rhs = parse_unary()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_unary():
        if peek()[0] == "-":
            take()
            return -parse_unary()
        if peek()[0] == "+":
            take()
            return parse_unary()
        return parse_power()

    def parse_power():
        base = parse_atom()
        if peek()[0] == "^":
            take()
            expo = parse_unary()  # right-assoc, allows x^-2 and x^(a+b)
            return Power(base, expo)
        return base

    def parse_atom():
        tok = peek()
        if tok[0] == "num":
            take()
            return Const(Fraction(int(tok[1])))
        if tok[0] == "(":
            take()
            node = parse_sum()
            take(")")
            return node
        if tok[0] == "name":
            take()
            name = tok[1]
            if peek()[0] == "(":
                take()
                arg = parse_sum()
                take(")")
                if name in _FUNCTIONS:
                    return _FUNCTIONS[name](arg)
                if name in _AIRY_FUNCS:
                    return Airy(_AIRY_FUNCS[name], arg)
                raise ExprSyntaxError(f"unknown function {name!r} at position {tok[2]}")
            if name == "I":
                return I
            if name.endswith("'"):
                raise ExprSyntaxError(f"stray prime in name {name!r} at position {tok[2]}")
            return Var(name)
        raise ExprSyntaxError(f"unexpected token {tok[1]!r} at position {tok[2]}")

    node = parse_sum()
    take("end")
    return node
