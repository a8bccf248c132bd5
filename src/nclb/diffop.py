"""Differential operators of order <= 2 with symbolic coefficients.

An operator is a map multi-index -> Expr over an ordered variable tuple;
free variables of coefficients beyond the declared ones (J, E, ...) are
parameters bound at sampling time.  Composition is Leibniz-exact, the
commutator of first-order operators is again first-order (the second-order
parts cancel identically and this is asserted), and operator equality is
decided by a symbolic-zero fast path with seeded numeric sampling as the
fallback.  Every family of operators realizing a Lie algebra (the invariant
frames, the chart operators of a representation) has its bracket relations
checked by `bracket_defects` and its Laplacian assembled by
`laplacian_image`.
"""

from __future__ import annotations

import math
import random

from . import expr as ex
from .expr import Expr, ZERO, simplify
from .report import (DEFAULT_SEED, AiryOverflowError, InconclusiveError, NclbError,
                     factory, record, worst)


class UnsupportedOrderError(NclbError, ValueError):
    pass


class DomainExitError(NclbError, RuntimeError):
    """A characteristic left the evaluation domain (raised by
    `reduction.solve_reduced`; a sampled field that integrates one skips
    the sample)."""

    def __init__(self, exit_time, point):
        self.exit_time = exit_time
        self.point = point
        super().__init__(f"trajectory left the evaluation domain at t = {exit_time}")


@record
class DiffOp:
    variables: tuple
    coefficients: dict = factory(dict)

    def __post_init__(self):
        cleaned = {}
        nv = len(self.variables)
        for idx, coeff in self.coefficients.items():
            idx = tuple(int(k) for k in idx)
            if len(idx) != nv or any(k < 0 for k in idx):
                raise ValueError(f"bad multi-index {idx} for variables {self.variables}")
            if sum(idx) > 2:
                raise UnsupportedOrderError("operators are capped at order 2")
            c = simplify(ex.as_expr(coeff))
            if c != ZERO:
                cleaned[idx] = c
        object.__setattr__(self, "coefficients", cleaned)

    @property
    def order(self):
        return max((sum(idx) for idx in self.coefficients), default=0)

    def coeff(self, idx):
        return self.coefficients.get(tuple(idx), ZERO)

    def is_multiplication(self):
        return all(sum(idx) == 0 for idx in self.coefficients)

    def __add__(self, other):
        if self.variables != other.variables:
            raise ValueError("operator variable sets differ")
        out = dict(self.coefficients)
        for idx, c in other.coefficients.items():
            out[idx] = ex.Sum((out.get(idx, ZERO), c))
        return DiffOp(self.variables, out)

    def __sub__(self, other):
        return self + other.scale(ex.const(-1))

    def scale(self, factor):
        f = ex.as_expr(factor)
        return DiffOp(
            self.variables,
            {idx: ex.Product((f, c)) for idx, c in self.coefficients.items()},
        )

    def __repr__(self):
        if not self.coefficients:
            return "<diffop 0>"
        bits = []
        for idx in sorted(self.coefficients):
            c = self.coefficients[idx]
            ds = "".join(
                f"d{v}" * k for v, k in zip(self.variables, idx)
            )
            bits.append(f"({ex.to_text(c)}){'*' + ds if ds else ''}")
        return "<diffop " + " + ".join(bits) + ">"

    @staticmethod
    def zero(variables):
        return DiffOp(tuple(variables), {})

    @staticmethod
    def scalar(variables, value):
        nv = len(tuple(variables))
        return DiffOp(tuple(variables), {(0,) * nv: ex.as_expr(value)})

    @staticmethod
    def partial(variables, var, coeff=1):
        variables = tuple(variables)
        idx = [0] * len(variables)
        idx[variables.index(var)] = 1
        return DiffOp(variables, {tuple(idx): ex.as_expr(coeff)})


def _partial(e, variables, idx):
    out = e
    for v, k in zip(variables, idx):
        for _ in range(k):
            out = ex.differentiate(out, v)
    return out


def apply(op: DiffOp, e: Expr) -> Expr:
    """Apply the operator to an expression; result is in normal form.

    Each partial derivative is taken once: d^alpha e is the derivative of
    the memoized d^beta e along alpha's first variable, beta being alpha with
    one order fewer there, so the mixed d2 d3 e of the Heisenberg Laplacian
    reuses its d3 e.
    """
    e = ex.as_expr(e)
    partials = {(0,) * len(op.variables): e}

    def partial(idx):
        if idx not in partials:
            axis = next(a for a, k in enumerate(idx) if k)
            lower = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1:]
            partials[idx] = ex.differentiate(partial(lower), op.variables[axis])
        return partials[idx]

    terms = [ex.Product((c, partial(idx))) for idx, c in op.coefficients.items()]
    return simplify(ex.Sum(tuple(terms))) if terms else ZERO


def _binom_prod(alpha, gamma):
    n = 1
    for a, g in zip(alpha, gamma):
        n *= math.comb(a, g)
    return n


def _sub_indices(alpha):
    ranges = [range(a + 1) for a in alpha]
    out = [()]
    for r in ranges:
        out = [p + (k,) for p in out for k in r]
    return out


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product a . b, Leibniz-exact.

    apply(compose(a, b), e) == apply(a, apply(b, e)) for every e; requires
    order(a) + order(b) <= 2 so the result stays representable.
    """
    if a.variables != b.variables:
        raise ValueError("operator variable sets differ")
    if a.order + b.order > 2:
        raise UnsupportedOrderError(
            f"composition would have order {a.order + b.order} > 2"
        )
    variables = a.variables
    acc = {}
    for alpha, ca in a.coefficients.items():
        for beta, cb in b.coefficients.items():
            for gamma in _sub_indices(alpha):
                coeff = _binom_prod(alpha, gamma)
                dcb = _partial(cb, variables, gamma)
                if dcb == ZERO:
                    continue
                target = tuple(
                    al - g + be for al, g, be in zip(alpha, gamma, beta)
                )
                term = ex.Product((ex.const(coeff), ca, dcb))
                acc[target] = ex.Sum((acc.get(target, ZERO), term))
    return DiffOp(variables, acc)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] for operators of order <= 1; the result has order <= 1."""
    if a.order > 1 or b.order > 1:
        raise UnsupportedOrderError("commutator is defined for order <= 1 operators")
    out = compose(a, b) - compose(b, a)
    bad = [idx for idx in out.coefficients if sum(idx) > 1]
    assert not bad, f"second-order residue in a first-order commutator: {bad}"
    return out


@record
class SampleSpec:
    """Seeded sampling box for numeric operator comparison.

    ranges maps variable/parameter names to either a 2-tuple (lo, hi) drawn
    uniformly, or a list of discrete choices (e.g. the two orbit labels).
    Declared operator variables and all coefficient parameters must be
    covered.
    """

    ranges: dict
    n: int = 50
    seed: int = DEFAULT_SEED

    def draw(self):
        rng = random.Random(self.seed)
        for _ in range(self.n):
            point = {}
            for name, spec in self.ranges.items():
                if isinstance(spec, tuple) and len(spec) == 2 and all(
                    isinstance(v, (int, float)) for v in spec
                ):
                    lo, hi = spec
                    point[name] = rng.uniform(lo, hi)
                else:
                    point[name] = rng.choice(list(spec))
            yield point

    def points(self, names):
        """The drawn points as tuples of the values of `names`, in draw order."""
        return [tuple(point[n] for n in names) for point in self.draw()]


# the errors that skip a sample: a DomainError from an expression, and
# AiryOverflowError or DomainExitError from a callable field
SKIPPED = (ex.DomainError, AiryOverflowError, DomainExitError)


def sampled(fn, points):
    """(rows, skipped): fn(*p) at each point p, and the count of points skipped.

    This is the one place that decides which errors skip a sample (SKIPPED),
    for rows evaluated one at a time here and for the rows of an
    `expr.compile_array` function called with skip=SKIPPED.  A skipped point
    contributes nothing, even when fn raised part-way through its row.  Any
    other error propagates, and when no point evaluates the check is
    inconclusive.  Callers fold the rows with `report.worst`, so a NaN or inf
    in a row makes the figure NaN.
    """
    rows = []
    skipped = 0
    for p in points:
        try:
            rows.append(fn(*p))
        except SKIPPED:
            skipped += 1
    if not rows:
        raise InconclusiveError("all samples failed to evaluate")
    return rows, skipped


@record
class OpComparison:
    equal: bool
    max_deviation: float
    symbolic: bool
    samples_used: int
    skipped_samples: int


def op_equal(a: DiffOp, b: DiffOp, sample_spec: SampleSpec | None = None,
             tol: float = 1e-12) -> OpComparison:
    """Decide a == b, symbolically when possible, else by seeded sampling.

    The deviation is max |a-b| over coefficients and samples, relative to
    max(1, largest coefficient magnitude seen on either side).  Samples are
    taken through `sampled`: a point outside a coefficient's domain is
    skipped and counted, and a NaN or inf coefficient value makes the
    deviation NaN and the operators unequal, whatever the sample order.
    Raises InconclusiveError when the operators differ symbolically and no
    spec is given, or when no sample evaluates.
    """
    if a.variables != b.variables:
        raise ValueError("operator variable sets differ")
    diff = a - b
    if not diff.coefficients:
        return OpComparison(True, 0.0, True, 0, 0)
    if sample_spec is None:
        raise InconclusiveError(
            "operators differ symbolically and no sample spec was given"
        )
    names = set()
    for op in (a, b, diff):
        for c in op.coefficients.values():
            names |= ex.free_vars(c)
    missing = names - set(sample_spec.ranges)
    if missing:
        raise ValueError(f"sample spec misses variables {sorted(missing)}")

    indices = sorted(set(a.coefficients) | set(b.coefficients) | set(diff.coefficients))
    arg_names = sorted(names)
    k = len(indices)
    coeffs = ex.compile_expr(tuple(a.coeff(idx) for idx in indices)
                             + tuple(b.coeff(idx) for idx in indices), arg_names)

    def row(*args):
        vals = coeffs(*args)
        return (worst(abs(v) for v in vals),
                worst(abs(va - vb) for va, vb in zip(vals[:k], vals[k:])))

    rows, skipped = sampled(row, sample_spec.points(arg_names))
    rel = worst(d for _, d in rows) / worst((s for s, _ in rows), 1.0)
    return OpComparison(rel <= tol, rel, False, len(rows), skipped)


def bracket_defects(L, ops, spec: SampleSpec | None, sign=1):
    """[A_i, A_j] against sign * sum_k c_ij^k A_k for each pair i < j.

    ops realize the basis of the Lie algebra L in order (A_k = ops[k - 1]):
    the left-invariant frame with sign +1, the right-invariant one with -1,
    the chart operators of a representation with +1.  Each pair goes through
    `op_equal`.  Returns (deviations, failing_pairs, samples_used,
    skipped_samples): one deviation per pair in (i, j) order, the 1-based
    pairs that fail, and the sample counts summed over the pairs.
    """
    devs, failing = [], []
    used = skipped = 0
    for i in range(1, L.dim + 1):
        for j in range(i + 1, L.dim + 1):
            target = DiffOp.zero(ops[0].variables)
            for k, c in enumerate(L.bracket_basis(i, j)):
                if c != 0:
                    target = target + ops[k].scale(ex.Const(sign * c))
            cmp = op_equal(commutator(ops[i - 1], ops[j - 1]), target, spec)
            devs.append(cmp.max_deviation)
            used += cmp.samples_used
            skipped += cmp.skipped_samples
            if not cmp.equal:
                failing.append((i, j))
    return devs, failing, used, skipped


def laplacian_image(ops, data) -> DiffOp:
    """sum_ij G^{ij} A_i A_j + sum_i C^i A_i for operators A_i realizing the
    algebra's basis, with G and C from `bilinear.laplacian_data`.

    The invariant Laplacian for the left-invariant frame, its image under the
    generalized Fourier transform for the chart operators.
    """
    out = DiffOp.zero(ops[0].variables)
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            gij = data.g_inv[i][j]
            if gij != 0:
                out = out + compose(a, b).scale(ex.Const(gij))
        if data.c_vec[i] != 0:
            out = out + a.scale(ex.Const(data.c_vec[i]))
    return out
