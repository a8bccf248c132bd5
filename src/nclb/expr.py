"""Small immutable symbolic expression kernel.

Nodes: rational constants, the imaginary unit, variables, sums, products,
powers with constant exponents, exp, log, and the four Airy kinds.  The
kernel provides exact differentiation, an expand-and-collect normal form
(`simplify`), numeric evaluation, and a printer to a plain infix syntax
(`to_text`).

Nodes are frozen, slotted and interned (hash-consed): a constructor returns
the live node with equal fields if there is one, from one table of weak
references keyed by the class and the fields, so equal trees are one
object, `==` is `is` and the hash is the object's, and neither walks a
tree.  A node lives while something outside the table holds it, and a
pickle round trip returns the live node.

Numeric evaluation has one code generator.  It turns an expression (or a
tuple of them) into flat code, one local per distinct subtree, and wraps
that body in a function.  Constants and bound values are complex doubles
passed in, not code (exponents excepted), so code is compiled once per
shape (the tree up to its constants), argument names, bound names and
wrapper, and trees that differ only in their constants share it.

Its scalar emit gives a closure on complex doubles: `compile_expr` returns
it for the normal form, and `evaluate` compiles the tree as given and
calls it once.  Both raise DomainError in the same places: log, fractional
powers and Airy test their arguments inline, and an OverflowError or
ZeroDivisionError of the arithmetic becomes one.  Its array emit runs the
same body on numpy arrays of points, one row per point (`compile_array`):
a domain test marks rows instead of raising, Airy runs as one `airy_array`
call on the rows still valid, and every marked row, or row with a
non-finite value the closure could have raised on, is handed to the
closure, so the array form raises, skips and returns non-finite values
where the closure does.

Importing this module imports neither numpy nor `airyfun`, so the exact
work (normal forms, derivatives, closures without Airy nodes) runs without
them.  The scalar emit binds `airyfun.airy`, which imports numpy, when it
first emits an Airy node; the array emit binds numpy and
`airyfun.airy_array` on the first `compile_array`.  Each binds the modules'
own functions once, into the namespace generated code runs in.

The normal form is a sum of monomials: rational coefficient times sorted
factors, with same-base powers merged by exponent arithmetic (a merged
power of a base other than a variable is normalized again), exponential
factors merged by argument addition, and powers of the imaginary unit folded
mod 4.  It is strong enough to cancel every operator identity the rest of
the library relies on symbolically, and it is kept: a tree `simplify`
returns records the map from monomials to coefficients it was built from,
normalizing reads that map back instead of rebuilding it, and `simplify`
returns a normal tree unchanged, so it is idempotent and sums, products and
powers of normal trees merge their stored maps.  A stored map is shared and
never mutated: `_nf_add` copies before it writes.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
import weakref
from fractions import Fraction

from .report import BI_OVERFLOW, LEFT_CUT, NclbError, frozen_delattr, frozen_setattr


class ExprError(NclbError):
    pass


class MissingVariableError(ExprError):
    pass


class DomainError(ExprError):
    pass


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


class Expr:
    """Base of the node classes.  `_nf` is the normal-form map `simplify`
    built the node from, or None, and `_key` the node's canonical sort key
    once `_sort_key` has computed it, or None; they are slots, not fields,
    so `repr`, `to_text` and pickling never see them."""

    __slots__ = ("_nf", "_key", "__weakref__")

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    def __reduce__(self):
        # rebuild through the constructor, which returns the live node
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __add__(self, other):
        return Sum((self, as_expr(other)))

    def __radd__(self, other):
        return Sum((as_expr(other), self))

    def __sub__(self, other):
        return Sum((self, Product((MINUS_ONE, as_expr(other)))))

    def __rsub__(self, other):
        return Sum((as_expr(other), Product((MINUS_ONE, self))))

    def __mul__(self, other):
        return Product((self, as_expr(other)))

    def __rmul__(self, other):
        return Product((as_expr(other), self))

    def __truediv__(self, other):
        return Product((self, Power(as_expr(other), MINUS_ONE)))

    def __rtruediv__(self, other):
        return Product((as_expr(other), Power(self, MINUS_ONE)))

    def __neg__(self):
        return Product((MINUS_ONE, self))

    def __pow__(self, other):
        return Power(self, as_expr(other))

    def __repr__(self):
        return f"<expr {to_text(self)}>"


_NODES = weakref.WeakValueDictionary()  # (class, *fields) -> the live node
_NODES_LOCK = threading.Lock()  # one live node per key in every thread


def _intern(key, *values):
    """The live node keyed by key, else a new node of class key[0] whose
    fields, in slot order, are values."""
    with _NODES_LOCK:
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(key[0])
            for name, value in zip(node.__slots__, values):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_nf", None)
            object.__setattr__(node, "_key", None)
            _NODES[key] = node
    return node


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        # keyed by the integers: hashing a Fraction costs about a microsecond
        v = _as_fraction(value)
        return _intern((cls, v.numerator, v.denominator), v)


class ImagUnit(Expr):
    __slots__ = ()

    def __new__(cls):
        return _intern((cls,))


I = ImagUnit()


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name):
        return _intern((cls, name), name)


class Sum(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms):
        terms = tuple(as_expr(t) for t in terms)
        return _intern((cls, terms), terms)


class Product(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(as_expr(f) for f in factors)
        return _intern((cls, factors), factors)


class Power(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base, exponent):
        base, exponent = as_expr(base), as_expr(exponent)
        if free_vars(exponent):
            raise ValueError("power exponents must be constant expressions")
        return _intern((cls, base, exponent), base, exponent)


class Exp(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg):
        arg = as_expr(arg)
        return _intern((cls, arg), arg)


class Log(Expr):
    __slots__ = ("arg",)

    def __new__(cls, arg):
        arg = as_expr(arg)
        return _intern((cls, arg), arg)


AIRY_KINDS = ("Ai", "AiPrime", "Bi", "BiPrime")


class Airy(Expr):
    __slots__ = ("kind", "arg")

    def __new__(cls, kind, arg):
        arg = as_expr(arg)
        if kind not in AIRY_KINDS:
            raise ValueError(f"unknown Airy kind {kind!r}")
        return _intern((cls, kind, arg), kind, arg)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


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
    """e's canonical sort key, computed once per node and kept on it."""
    key = e._key
    if key is None:
        key = _new_sort_key(e)
        object.__setattr__(e, "_key", key)
    return key


def _new_sort_key(e):
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
# Every coefficient is a nonzero Fraction.  The builders' +-1 are these two
# shared values, and `_times` skips the multiplication by either.

_Q1, _QM1 = Fraction(1), Fraction(-1)


def _nf_const(c):
    return {(): c} if c != 0 else {}


def _nf_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        _add_term(out, mono, coeff)
    return out


def _add_term(out, mono, coeff):
    """Add coeff times mono into the map out; a new monomial takes coeff
    itself, and one that cancels leaves the map."""
    acc = out.get(mono)
    if acc is None:
        out[mono] = coeff
        return
    acc += coeff
    if acc:
        out[mono] = acc
    else:
        del out[mono]


def _times(c, d):
    """c * d, with no rational multiplication when either is +-1."""
    if d is _Q1:
        return c
    if c is _Q1:
        return d
    if d is _QM1:
        return -c
    if c is _QM1:
        return -d
    return c * d


def _merge_monomials(m1, m2):
    """The normal form of the product of two factor tuples.  A merged power
    of a base other than a variable goes back through `_norm_power`: the
    result may be a constant, an expanded sum or a factor of another kind."""
    i_count = 0
    exp_args = []
    pows = {}  # base expr -> its exponent exprs, in first-seen order
    for f in m1 + m2:
        if f[0] == "i":
            i_count += 1
        elif f[0] == "exp":
            exp_args.append(f[1])
        else:
            pows.setdefault(f[1], []).append(f[2])
    factors = [("i",)] if i_count % 2 else []
    if exp_args:
        total = simplify(Sum(tuple(exp_args))) if len(exp_args) > 1 else exp_args[0]
        if total != ZERO:
            factors.append(("exp", total))
    renormed = []
    for base, exps in pows.items():
        if len(exps) == 1:
            factors.append(("pow", base, exps[0]))
            continue
        ex = simplify(Sum(tuple(exps)))
        if not isinstance(base, Var):
            renormed.append(_norm_power(Power(base, ex)))
        elif ex != ZERO:
            factors.append(("pow", base, ex))
    factors.sort(key=_factor_key)
    out = {tuple(factors): _QM1 if i_count % 4 >= 2 else _Q1}
    for nf in renormed:
        out = _nf_mul(out, nf)
    return out


def _nf_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = _times(c1, c2)
            for mono, mult in _merge_monomials(m1, m2).items():
                _add_term(out, mono, _times(c, mult))
    return out


def _nf_pow_int(a, n):
    out = _nf_const(_Q1)
    for _ in range(n):
        out = _nf_mul(out, a)
    return out


def _atom_nf(factor):
    return {(factor,): _Q1}


def _norm(e):
    """The normal-form map of e; for a tree `simplify` returned, the map it
    recorded.  The map may be shared, so no caller mutates it."""
    if e._nf is not None:
        return e._nf
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
        out = _nf_const(_Q1)
        for f in e.factors:
            out = _nf_mul(out, _norm(f))
        return out
    if isinstance(e, Exp):
        na = simplify(e.arg)
        if na == ZERO:
            return _nf_const(_Q1)
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
        return _nf_const(_Q1)
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
            return _nf_const(_Q1)
        return _atom_nf(("pow", nb, ne))
    if isinstance(nb, ImagUnit) and int_exp:
        k = int(ne.value) % 4
        table = {0: _nf_const(_Q1), 1: _atom_nf(("i",)),
                 2: _nf_const(_QM1), 3: _nf_mul(_nf_const(_QM1), _atom_nf(("i",)))}
        return table[k]
    if isinstance(nb, Power):
        inner = nb.exponent
        if int_exp and isinstance(inner, Const) and inner.value.denominator == 1:
            merged = Const(inner.value * ne.value)
            return _norm(Power(nb.base, merged))
        return _atom_nf(("pow", nb, ne))
    if isinstance(nb, Product) and int_exp:
        out = _nf_const(_Q1)
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
    """The tree of the map nf, which records nf as its `_nf` unless it is a
    variable, log or Airy atom."""
    terms = []
    for mono in sorted(nf, key=lambda m: tuple(_factor_key(f) for f in m)):
        coeff = nf[mono]
        factors = [_emit_factor(f) for f in mono]
        parts = []
        if coeff != 1 or not factors:
            parts.append(Const(coeff))
        parts.extend(factors)
        terms.append(parts[0] if len(parts) == 1 else Product(tuple(parts)))
    tree = ZERO if not terms else terms[0] if len(terms) == 1 else Sum(tuple(terms))
    if not isinstance(tree, (Var, Log, Airy)):
        # the map of such an atom holds the atom: recorded, it would make a
        # reference cycle, which only the cyclic collector frees
        object.__setattr__(tree, "_nf", nf)
    return tree


@functools.lru_cache(maxsize=512)
def simplify(e: Expr) -> Expr:
    """Expand-and-collect normal form; idempotent: a normal tree is
    returned unchanged.

    The result has the value of e wherever e evaluates.  It may evaluate
    where e does not: cancelling log q - log q to 0, for one, drops the
    restriction q > 0.  Results are cached for the 512 most recently used
    trees, which keeps nearly every repeat inside one verdict or command: a
    g4,7 `model verify` simplifies 662 distinct trees and recomputes 8.
    """
    return e if e._nf is not None else _emit(_norm(e))


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
        return Product((c, Power(e.base, Sum((c, MINUS_ONE))), _diff(e.base, var)))
    if isinstance(e, Exp):
        return Product((_diff(e.arg, var), e))
    if isinstance(e, Log):
        return Product((_diff(e.arg, var), Power(e.arg, MINUS_ONE)))
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

def _rebuild(e, leaf):
    """e with each leaf x (a constant, I or a variable) replaced by leaf(x);
    a power's exponent is kept as it is."""

    def rec(x):
        if isinstance(x, Sum):
            return Sum(tuple(rec(t) for t in x.terms))
        if isinstance(x, Product):
            return Product(tuple(rec(f) for f in x.factors))
        if isinstance(x, Power):
            return Power(rec(x.base), x.exponent)
        if isinstance(x, (Exp, Log)):
            return type(x)(rec(x.arg))
        if isinstance(x, Airy):
            return Airy(x.kind, rec(x.arg))
        return leaf(x)

    return rec(e)


def subst(e: Expr, mapping) -> Expr:
    """Replace variables by expressions; result is simplified."""
    return simplify(_rebuild(e, lambda x: as_expr(mapping.get(x.name, x))
                             if isinstance(x, Var) else x))


# --- evaluation -------------------------------------------------------------

_REAL_TOL = 1e-10
# the scalar emit's names; `_bind_airy` adds `_airy` when it is first needed
_RUNTIME = {"_exp": cmath.exp, "_log": cmath.log,
            "DomainError": DomainError, "_LEFT_CUT": LEFT_CUT, "_INF": math.inf}


def _bind_airy():
    """Bind `airyfun.airy`, and with it numpy, as the scalar emit's `_airy`;
    the code generator calls this when it emits its first Airy node."""
    if "_airy" not in _RUNTIME:
        from .airyfun import airy
        _RUNTIME["_airy"] = airy


@functools.cache
def _array_runtime():
    """The array emit's names, bound on the first array compile: numpy's
    ufuncs and `_airy`, the Airy values of the real parts of t on the rows
    not yet marked bad, from one `airy_array` call (0 on the bad rows)."""
    import numpy as np

    from .airyfun import airy_array

    def airy_rows(kind, t, bad):
        out = np.zeros(bad.shape, dtype=complex)
        out[~bad] = airy_array(kind, np.broadcast_to(t.real, bad.shape)[~bad])
        return out

    return {"_exp": np.exp, "_log": np.log, "_airy": airy_rows,
            "_LEFT_CUT": LEFT_CUT, "_INF": math.inf, "_BI_MAX": BI_OVERFLOW,
            "_isfinite": np.isfinite, "_zeros": np.zeros,
            "_shape": lambda *a: np.broadcast_shapes(*map(np.shape, a)),
            "_cx": lambda a: np.asarray(a, dtype=complex)}


class _Slot(Expr):
    """The code generator's stand-in for the constant bound as `_c{index}`."""

    __slots__ = ("index",)

    def __new__(cls, index):
        return _intern((cls, index), index)


def _lift(e):
    """(shape, constants): e (or a tuple of them) with each constant outside
    a power's exponent replaced by a `_Slot`, one per distinct value in
    first-seen order, and those values.  Trees that differ only in such
    constants have one shape."""
    slots = {}

    def leaf(x):
        if isinstance(x, Const):
            return _Slot(slots.setdefault(x.value, len(slots)))
        return x

    shape = tuple(_rebuild(x, leaf) for x in e) if isinstance(e, tuple) else _rebuild(e, leaf)
    return shape, tuple(slots)


def _double(x, what="a constant"):
    """x as a complex double; one outside the double range raises
    DomainError naming it as what."""
    try:
        return complex(x)
    except OverflowError:
        raise DomainError(f"{what} is outside the double range") from None


def _source(e, varnames, bound, wrapper):
    """Source of `_make(*bound values, *constants)`, which returns the
    function of `wrapper`: "closure" `_f(*varnames)` or "array"
    `_f(*columns) -> (bad, *values)`.  e is a shape (`_lift`): its
    constants are the `_Slot`s bound as `_c0, _c1, ...`; the exponents of
    powers stay in the code.

    The body computes one local per inner node in evaluation order, so the
    source stays flat however deep the tree is.  A node whose code text was
    already emitted reuses that local (and its domain test), so each distinct
    subtree is computed once per evaluation.  The array body runs the same
    code on numpy arrays: a failing domain test marks its rows in `_bad`
    instead of raising, and so does a non-finite value at the arguments of
    exp, log and powers or in a result.
    """
    array = wrapper == "array"
    names = {v: f"_a{i}" for i, v in enumerate(varnames)}
    names.update((v, f"_b{i}") for i, v in enumerate(bound))
    lines = []
    local_of = {}  # code text -> its local
    checks = set()
    slots = set()
    watched = []  # array: locals whose non-finite rows go to the closure

    def local(code):
        if code not in local_of:
            local_of[code] = f"_t{len(local_of)}"
            lines.append(f"{local_of[code]} = {code}")
        return local_of[code]

    def check(tests, what, t):
        """Each of tests is true where t is outside the domain."""
        if array:
            line = "_bad = _bad | " + " | ".join(f"({c})" for c in tests)
        else:
            line = (f"if {' or '.join(tests)}: "
                    f"raise DomainError(f'{what}, got {{complex({t})!r}}')")
        if line not in checks:
            checks.add(line)
            lines.append(line)

    def watch(t):
        if array and t not in watched:
            watched.append(t)
        return t

    def real(t):
        return f"abs({t}.imag) > {_REAL_TOL!r} * (1.0 + abs({t}.real))"

    def maybe_real(x):
        # float arguments stay floats through their sums and products, and
        # a power must see a complex base to round the same for any caller
        if isinstance(x, (Sum, Product)):
            return all(maybe_real(t) for t in (x.terms if isinstance(x, Sum) else x.factors))
        return isinstance(x, Var) and x.name in varnames

    def gen(x):
        if isinstance(x, _Slot):
            slots.add(x.index)
            return f"_c{x.index}"
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
            t = watch(gen(x.arg))
            return local(f"_exp({t})")
        if isinstance(x, Log):
            t = watch(gen(x.arg))
            check([f"{t}.real <= 0.0"], "log requires positive real part", t)
            return local(f"_log({t})")
        if isinstance(x, Airy):
            _bind_airy()
            t = gen(x.arg)
            tests = [real(t), f"{t}.real < _LEFT_CUT", f"{t}.real != {t}.real",
                     f"{t}.real == _INF"]
            if array and x.kind.startswith("Bi"):
                # the closure's `airy` raises AiryOverflowError there
                tests.append(f"{t}.real > _BI_MAX")
            check(tests, f"Airy requires a finite real argument >= {LEFT_CUT!r}", t)
            if array:
                return local(f"_airy({x.kind!r}, {t}, _bad)")
            return local(f"complex(_airy({x.kind!r}, {t}.real))")
        if isinstance(x, Power):
            ev = evaluate_const(x.exponent)
            t = watch(gen(x.base))
            if ev.imag == 0.0 and ev.real == int(ev.real):
                if not array and maybe_real(x.base):
                    t = f"complex({t})"
                return local(f"{t}**{int(ev.real)}")
            check([real(t), f"{t}.real <= 0.0"],
                  "fractional power needs a positive real base", t)
            return local(f"_exp({ev!r} * _log({t}))")
        raise TypeError(f"not an expression: {x!r}")

    results = [gen(x) for x in e] if isinstance(e, tuple) else [gen(e)]
    params = [names[v] for v in bound] + [f"_c{i}" for i in range(len(slots))]
    make = f"def _make({', '.join(params)}):\n"
    args = ", ".join(names[v] for v in varnames)
    arith = ("except (OverflowError, ZeroDivisionError) as exc:\n"
             "    raise DomainError(f'{type(exc).__name__}: {exc}') from None\n")
    body = "".join(f"{line}\n" for line in lines)
    if array:
        head = "".join(f"{names[v]} = _cx({names[v]})\n" for v in varnames)
        head += f"_bad = _zeros(_shape({args}), dtype=bool)\n"
        seen = watched + [r for r in results if r not in watched]
        body = (head + body + f"_bad = _bad | ~_isfinite({' + '.join(seen) or '0j'})\n"
                + "return (_bad, " + "".join(f"{r}, " for r in results) + ")\n")
        return make + f"    def _f({args}):\n" + _indent(body, 8) + "    return _f\n"
    result = ("(" + "".join(f"{r}, " for r in results) + ")"
              if isinstance(e, tuple) else results[0])
    body += f"return {result}\n"
    return (make + f"    def _f({args}):\n"
            + _indent(f"try:\n{_indent(body, 4)}{arith}", 8) + "    return _f\n")


def _indent(text, n):
    return "".join(" " * n + line + "\n" for line in text.splitlines())


@functools.lru_cache(maxsize=128)
def _lifted(e, varnames, names, normal):
    """(bound names, shape, constant values) of e.  Without normal, e is
    compiled as given with bound names `names`.  With normal, `names` are a
    caller's bind names and the key shares the entry of e's normal form and
    the bound names among them, so a repeated compile does no `simplify` and
    no free-variable walk.  A constant outside the double range raises
    DomainError here, when its value is bound.
    """
    if normal:
        nf = tuple(simplify(x) for x in e) if isinstance(e, tuple) else simplify(e)
        free = free_vars(Sum(nf) if isinstance(nf, tuple) else nf) - set(varnames)
        bound = tuple(sorted(free.intersection(names)))
        return _lifted(nf, varnames, bound, False)
    shape, consts = _lift(e)
    return names, shape, tuple(_double(c) for c in consts)


@functools.lru_cache(maxsize=128)
def _closure_maker(shape, varnames, names, wrapper):
    """`_make` of a shape: code is generated and compiled once per shape,
    argument names, bound names and wrapper."""
    src = _source(shape, varnames, names, wrapper)  # binds `_airy` if it needs it
    ns = dict(_array_runtime() if wrapper == "array" else _RUNTIME)
    exec(src, ns)  # noqa: S102 - generated from the tree
    return ns["_make"]


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
    _, shape, consts = _lifted(e, names, (), False)
    val = _closure_maker(shape, names, (), "closure")(*consts)(*args)
    if not cmath.isfinite(val):
        raise DomainError(f"evaluation produced a non-finite value: {val!r}")
    return val


@functools.lru_cache(maxsize=128)
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
    MissingVariableError.  Code is generated once per (shape of the normal
    form, varnames, bound names) in a bounded cache: bound values and the
    normal form's constants, each bound as a complex double, are not code,
    but the exponents of powers are.  A constant or bound value outside the
    double range raises DomainError.
    """
    return _compiled(e, tuple(varnames), bind, "closure")


def compile_array(e, varnames, bind=None):
    """Compile the normal form of e (or a tuple of them) to a function
    f(*columns, skip=()) -> (values, ok) over arrays of points.

    The columns are arrays (or numbers) of the values of `varnames` that
    broadcast to one 1-D shape (N,).  values has shape (N,) for one
    expression and (len(e), N) for a tuple; ok marks the rows that
    evaluated.  Columns that are all numbers are one point, N = 1: the call
    returns what the call with one-element lists returns.  The array code
    runs on all rows at once with numpy; a row whose domain test fails or
    whose value it cannot vouch for (a non-finite argument of exp, log or a
    power, or a non-finite result) is evaluated by `compile_expr`'s closure
    instead, so every row raises, returns a value or a non-finite number
    exactly where that closure does.  An error of that closure in `skip`
    leaves the row's ok False, any other propagates.  `bind` is handled,
    and code cached, as in `compile_expr`.
    """
    import numpy as np  # once per compile: `f` reads it per batch

    varnames = tuple(varnames)
    arr = _compiled(e, varnames, bind, "array")

    def f(*columns, skip=()):
        try:
            with np.errstate(all="ignore"):
                bad, *vals = arr(*columns)
        except (OverflowError, ZeroDivisionError):
            # Python arithmetic on constants: the closure decides every row
            bad = np.ones(np.broadcast_shapes(*map(np.shape, columns)), dtype=bool)
            vals = ()
        if not bad.ndim:  # every column a number
            return f(*([c] for c in columns), skip=skip)
        out = np.empty((len(e) if isinstance(e, tuple) else 1,) + bad.shape, dtype=complex)
        for row, v in zip(out, vals):
            row[...] = v
        ok = ~bad
        if bad.any():
            scalar = _compiled(e, varnames, bind, "closure")
            cols = [np.broadcast_to(c, bad.shape) for c in columns]
            for i in np.flatnonzero(bad):
                try:
                    out[:, i] = scalar(*(c[i].item() for c in cols))
                except skip:
                    continue
                ok[i] = True
        return (out if isinstance(e, tuple) else out[0]), ok

    return f


def _compiled(e, varnames, bind, wrapper):
    bind = bind or {}
    bound, shape, consts = _lifted(e, varnames, tuple(sorted(bind)), True)
    values = [_double(bind[v], f"the value bound to {v}") for v in bound]
    return _closure_maker(shape, varnames, bound, wrapper)(*values, *consts)


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
    if isinstance(e, _Slot):
        return f"_c{e.index}"
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
