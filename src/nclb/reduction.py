"""Reduction of an invariant Laplacian to a first-order operator, and its
explicit integration along characteristics.

Inputs come as representation data bundled with a group model: first-order
operators satisfying the algebra's commutation relations, the indices acting
by multiplication, a modular multiplier for non-unimodular groups, and the
kernel's collapsed action.  The pipeline verifies the data, assembles the
transformed Laplacian, certifies that it is first order, extracts the
characteristic field Z and potential V, rectifies, and integrates.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from . import expr as ex
from .bilinear import laplacian_data
from .diffop import (SKIPPED, DiffOp, DomainExitError, SampleSpec, apply,
                     bracket_defects, compose, laplacian_image, op_equal,
                     sampled)
from .expr import Expr, Var, ZERO, simplify
from .quadrature import _COUNTS, _reference_rule, gl_nodes, integrate_1d
from .report import (DEFAULT_SEED, FAIL, PASS, CheckRecord, InconclusiveError,
                     NclbError, VerificationError, record, replace, worst)


class NotFirstOrderError(NclbError, RuntimeError):
    pass


class StepError(NclbError, ValueError):
    """A step, end time or step count that gives no characteristic grid."""


class ChartFieldError(NclbError, ValueError):
    """A chart field whose characteristics have no closed form here."""


class SpectralLabelError(NclbError, ValueError):
    """A J that labels no representation of the model."""


_J_SAMPLE_RANGE = (0.25, 2.0)  # |J| range used when sampling the real line


@record
class LambdaRep:
    """First-order operator representation on functions over the orbit chart.

    ops[i] realizes basis element i+1; indices in mult_only act by
    multiplication (order 0).  sample_ranges feeds numeric comparisons and
    must cover the q variables and every coefficient parameter except J,
    which is drawn from the orbit labels j_values, or from the punctured
    real line when j_values is empty.
    """

    q_vars: tuple
    ops: tuple
    j_values: tuple
    mult_only: tuple
    sample_ranges: dict

    @property
    def dim_q(self):
        return len(self.q_vars)

    def check_j(self, j):
        """j if it is a spectral label: one of j_values, or, when j_values
        is empty, a finite nonzero real; otherwise SpectralLabelError."""
        if self.j_values:
            if j not in self.j_values:
                raise SpectralLabelError(
                    f"J = {j} is not an orbit label: one of {list(self.j_values)}")
        elif not (math.isfinite(j) and j != 0):
            raise SpectralLabelError(f"J = {j} is off the spectrum: it must be "
                                     "finite and nonzero")
        return j

    def sample_spec(self, n=50, seed=DEFAULT_SEED):
        ranges = dict(self.sample_ranges)
        if self.j_values:
            ranges["J"] = list(self.j_values)
        else:
            # a discrete spread of +-|J| values keeps samples away from 0
            lo, hi = _J_SAMPLE_RANGE
            mid = 0.5 * (lo + hi)
            ranges["J"] = [v * s for v in (lo, mid, hi) for s in (1, -1)]
        return SampleSpec(ranges=ranges, n=n, seed=seed)


@record
class FirstOrderData:
    Z: tuple
    V: Expr
    normalizer: Expr


@record
class ReducedOperator:
    raw: DiffOp
    first_order: FirstOrderData | None = None


@record
class Grid(Sequence):
    """The times of a characteristic's grid, `steps` equal steps from 0 to
    `end`, as a sequence of steps + 1 floats: grid[k] is
    end / steps * k, and a grid of no steps holds the one time 0."""

    end: float
    steps: int

    def __len__(self):
        return self.steps + 1

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        i = operator.index(k)
        i += len(self) if i < 0 else 0
        if not 0 <= i < len(self):
            raise IndexError(f"grid index {k} is out of range for {len(self)} times")
        return self.end / max(self.steps, 1) * i

    def __iter__(self):
        h = self.end / max(self.steps, 1)
        return (h * k for k in range(self.steps + 1))


@record
class Characteristic:
    """The characteristic through one target: the target as given, the step
    asked for, the `Grid` of times from 0 to the end time, and at the end
    time the chart point, as complexes, and the phase, the integral of the
    potential along the way.  len(ts) - 1 is the step count.  phase_nodes
    is the node count of the Gauss-Legendre rule the phase settled at, and
    phase_change how far that rule moved it from the rule of half as many
    nodes (both 0 for a characteristic of length zero)."""

    start: tuple
    step: float
    ts: Grid
    end: tuple
    phase: complex
    phase_nodes: int
    phase_change: float


# --- representation checks --------------------------------------------------

def verify_lambda_rep(model, seed=DEFAULT_SEED, strict=False):
    """Commutator closure, multiplication-index coverage, and the
    imaginary-multiplier check for the model's representation data.

    Returns a list of CheckRecords; with strict=True a failing record raises
    VerificationError naming the offending pairs.
    """
    lrep = model.lrep
    spec = lrep.sample_spec(n=40, seed=seed)
    records = []

    devs, bad_pairs, used, skipped = bracket_defects(model.algebra, lrep.ops, spec)
    records.append(CheckRecord(
        check="lambda_rep_commutators",
        status=PASS if not bad_pairs else FAIL,
        max_residual=worst(devs), samples_used=used, seed=seed,
        skipped_samples=skipped,
        detail={"failing_pairs": bad_pairs} if bad_pairs else {},
    ))

    ideal_idx = model.ideal.standard_indices()
    mult_ok = ideal_idx is not None and set(ideal_idx) <= set(lrep.mult_only)
    order_ok = all(lrep.ops[a - 1].is_multiplication() for a in lrep.mult_only)
    records.append(CheckRecord(
        check="multiplication_indices_cover_ideal",
        status=PASS if (mult_ok and order_ok) else FAIL,
        detail={"ideal": ideal_idx, "mult_only": list(lrep.mult_only)},
    ))

    # skew-symmetry witness for multiplication operators: the order-0
    # coefficient i*chi must be purely imaginary at real points
    chis = tuple(lrep.ops[a - 1].coeff((0,) * lrep.dim_q) for a in lrep.mult_only)
    names = sorted(set().union(*map(ex.free_vars, chis)) | set(lrep.q_vars))
    chi_fn = ex.compile_expr(chis, names)
    rows, skipped = sampled(
        lambda *p: worst(abs(v.real) / (1.0 + abs(v)) for v in chi_fn(*p)),
        spec.points(names))
    worst_re = worst(rows)
    records.append(CheckRecord(
        check="multiplication_operators_imaginary",
        status=PASS if worst_re <= 1e-12 else FAIL,
        max_residual=worst_re, samples_used=len(rows), seed=seed,
        skipped_samples=skipped,
    ))

    if strict and any(not r.passed for r in records):
        raise VerificationError(records)
    return records


def infinitesimal_action(model, i) -> DiffOp:
    """Generator d/dt of the collapsed kernel action along basis direction i.

    The collapsed action is phi -> exp(i P(q, x)) phi(S(q, x)) with S(q,0)=q
    and P(q,0)=0, so the generator is i dP/dx_i|_0 + sum_A dS_A/dx_i|_0 d_A.
    """
    ka = model.kernel.collapsed
    x_zero = {v: ZERO for v in model.x_vars}
    xi_name = model.x_vars[i - 1]
    q_vars = model.lrep.q_vars
    coeffs = {}
    phase_rate = ex.subst(ex.differentiate(ka.phase, xi_name), x_zero)
    coeffs[(0,) * len(q_vars)] = ex.Product((ex.I, phase_rate))
    for a, s_expr in enumerate(ka.substitutions):
        rate = ex.subst(ex.differentiate(s_expr, xi_name), x_zero)
        if rate != ZERO:
            idx = [0] * len(q_vars)
            idx[a] = 1
            coeffs[tuple(idx)] = rate
    return DiffOp(q_vars, coeffs)


def local_lift_check(model, i, seed=DEFAULT_SEED) -> float:
    """`op_equal`'s deviation between the collapsed-action generator and the
    representation operator for basis direction i: 0.0 when they agree
    symbolically, else their relative coefficient gap at 30 points of the
    representation's sample spec."""
    if model.kernel is None or model.kernel.collapsed is None:
        raise ValueError(f"model {model.name} ships no collapsed kernel action")
    lrep = model.lrep
    return op_equal(infinitesimal_action(model, i), lrep.ops[i - 1],
                    lrep.sample_spec(n=30, seed=seed)).max_deviation


# --- assembly ---------------------------------------------------------------

def conjugate_by_multiplier(op: DiffOp, multiplier: Expr) -> DiffOp:
    """Lambda^{-1} . op . Lambda for a nowhere-zero multiplier Lambda(q)."""
    multiplier = simplify(ex.as_expr(multiplier))
    if multiplier == ex.ONE:
        return op
    left = DiffOp.scalar(op.variables, ex.Power(multiplier, -1))
    right = DiffOp.scalar(op.variables, multiplier)
    return compose(left, compose(op, right))


def build_reduced(model, verify=True) -> ReducedOperator:
    """Assemble the transformed Laplacian from representation data.

    raw = sum_ij G^{ij} l~_i l~_j + sum_i C^i l~_i, with l~ the operators
    conjugated by the model's modular multiplier (identity for unimodular
    groups).  When the null-ideal criterion holds, every G^{ij} pairing two
    derivative operators vanishes, so raw has order <= 1; this is not
    assumed here, only produced by the data.
    """
    if verify:
        verify_lambda_rep(model, strict=True)
    ops_t = tuple(conjugate_by_multiplier(op, model.modular_multiplier)
                  for op in model.lrep.ops)
    return ReducedOperator(
        raw=laplacian_image(ops_t, laplacian_data(model.algebra, model.form)))


def extract_first_order(red: ReducedOperator, normalizer: Expr) -> ReducedOperator:
    """Split (raw - E)/normalizer into sum Z^A d_A + V, E the symbol E.

    Every second-order coefficient of raw must have simplified to zero; one
    that survives raises NotFirstOrderError.
    """
    raw = red.raw
    second = sorted(idx for idx in raw.coefficients if sum(idx) == 2)
    if second:
        raise NotFirstOrderError(
            f"second-order coefficients survive simplification: {second}")
    normalizer = ex.as_expr(normalizer)
    inv = ex.Power(normalizer, -1)
    nvars = len(raw.variables)
    z = []
    for a in range(nvars):
        idx = tuple(1 if t == a else 0 for t in range(nvars))
        z.append(simplify(ex.Product((raw.coeff(idx), inv))))
    scalar = raw.coeff((0,) * nvars)
    v = simplify(ex.Product((ex.Sum((scalar, -Var("E"))), inv)))
    return replace(red, first_order=FirstOrderData(Z=tuple(z), V=v, normalizer=simplify(normalizer)))


# --- characteristics --------------------------------------------------------

# a ceiling on one characteristic's steps, far above the 2 000 the largest
# caller takes, so a step too small for its end time raises instead of
# filling memory
MAX_STEPS = 10**6


def _chart_names(m):
    return ("q",) if m == 1 else tuple(f"q{i + 1}" for i in range(m))


def _check_point(point, m, what):
    if len(point) != m:
        raise ValueError(f"the {what} has {len(point)} coordinates, Z has {m}")
    for name, x in zip(_chart_names(m), point):
        if not cmath.isfinite(complex(x)):
            raise ValueError(f"the {what}'s coordinate {name} is not finite, got {x!r}")


def _inside(domain, points):
    """The domain predicate's verdicts on the (m, N) float array of chart
    points, one column each: a boolean array of shape (N,), or ValueError
    naming what came back instead."""
    import numpy as np

    inside = domain(points)
    shape = (points.shape[1],)
    if not (isinstance(inside, np.ndarray) and inside.dtype == bool and inside.shape == shape):
        got = np.asarray(inside)
        raise ValueError(f"the domain predicate must return a boolean array of shape {shape}, "
                         f"one entry per grid point; got {type(inside).__name__} of shape "
                         f"{got.shape} and dtype {got.dtype}")
    return inside


def _named(Z):
    return f"Z = ({', '.join(map(ex.to_text, Z))})"


@functools.lru_cache(maxsize=32)
def _affine_parts(Z, q_vars):
    """The entries of A, row by row, then those of c, for a field
    Z = A q + c over the chart variables q_vars, as expressions in its
    parameters.  Any other field raises ChartFieldError."""
    if len(q_vars) > 2:
        raise ChartFieldError(f"{_named(Z)} has {len(q_vars)} chart variables; closed-form "
                              "characteristics take at most 2")
    jacobian = tuple(ex.differentiate(z, var) for z in Z for var in q_vars)
    if any(ex.free_vars(a) & set(q_vars) for a in jacobian):
        raise ChartFieldError(f"{_named(Z)} is not affine in {', '.join(q_vars)}")
    return jacobian + tuple(ex.subst(z, dict.fromkeys(q_vars, ZERO)) for z in Z)


def _spectrum(a, Z):
    """(eigenvalues, projections) of the m x m matrix A (m <= 2) whose
    entries, row by row, are a: A = sum_i lam_i E_i, with sum_i E_i = I and
    E_i E_j = delta_ij E_i.  With tau = tr A / m and N = A - tau I,
    N^2 = delta^2 I: the eigenvalues are tau +- delta, the projections
    (delta I +- N) / (2 delta), and a multiple of I has the one eigenvalue
    tau and the projection I.  A real A with real eigenvalues gives floats,
    any other A complexes.  An A that is defective, or so nearly that
    ||E_+|| exceeds 1e8, raises ChartFieldError naming the field Z."""
    if not any(x.imag for x in a):
        a = tuple(x.real for x in a)
    if len(a) == 1:
        return a, (((1.0,),),)
    a11, a12, a21, a22 = a
    tau, h = (a11 + a22) / 2, (a11 - a22) / 2
    if not (h or a12 or a21):
        return (a11,), (((1.0, 0.0), (0.0, 1.0)),)
    d2 = h * h + a12 * a21  # N = [[h, a12], [a21, -h]] squares to d2 I
    delta = math.sqrt(d2) if isinstance(d2, float) and d2 >= 0 else cmath.sqrt(d2)
    # E_+ has rank one, so its Frobenius norm is its 2-norm, which is
    # 1 / |det P| for the eigenvector matrix P of unit columns
    if not math.hypot(abs(delta + h), abs(a12), abs(a21), abs(delta - h)) <= 2e8 * abs(delta):
        raise ChartFieldError(f"{_named(Z)} has a defective linear part A = "
                              f"[[{a11}, {a12}], [{a21}, {a22}]]")
    s = 0.5 / delta
    return (tau + delta, tau - delta), (((0.5 + h * s, a12 * s), (a21 * s, 0.5 - h * s)),
                                        ((0.5 - h * s, -a12 * s), (-a21 * s, 0.5 + h * s)))


def _affine_flow(spectrum, c, q0, times):
    """The chart points q(t), one row per chart variable, at the float
    array `times` of the flow dq/dt = A q + c from q0, with `spectrum` the
    `_spectrum` of A (as tuples or arrays):
    q(t) = q0 + sum_i g_i(t) E_i (A q0 + c), g_i(t) = expm1(lam_i t) / lam_i
    (t when lam_i is 0), and E_i A = lam_i E_i.  That is one expm1 call per
    nonzero eigenvalue and one matrix product, and the column of a time 0
    is q0 bit for bit.  A real c and q0 stand for a real A too, and give
    float64 rows: the terms of a conjugate pair of eigenvalues are
    conjugates, whose imaginary parts cancel.  Other rows are complex."""
    import numpy as np

    lams, projs = map(np.asarray, spectrum)
    q0, c = np.asarray(q0), np.asarray(c)
    rates = lams[:, None] * (projs @ q0) + projs @ c
    growth = np.empty((len(lams), len(times)), dtype=np.result_type(lams, times))
    for row, lam in zip(growth, lams.tolist()):
        if lam:
            np.expm1(np.multiply(lam, times, out=row), out=row)
            row /= lam
        else:
            row[...] = times
    qs = q0[:, None] + rates.T @ growth
    return qs if np.iscomplexobj(q0) or np.iscomplexobj(c) else qs.real


@record
class ResidualReport:
    """A sampled residual.  symbolic_zero says an expression field's
    residual simplified to 0; fd_cross_deviation is the worst relative gap
    between its symbolic operator value and the stencils (0.0 for a
    callable field, which has no symbolic side)."""

    max_residual: float
    samples_used: int
    skipped_samples: int
    symbolic_zero: bool = False
    fd_cross_deviation: float = 0.0


def _along(Z, e):
    """Z e: the derivative of e along the field Z, in normal form."""
    return simplify(ex.Sum(tuple(
        ex.Product((ex.as_expr(z), ex.differentiate(ex.as_expr(e), var)))
        for z, var in zip(Z, _chart_names(len(Z)))
    )))


def _invariants_family(Z, u):
    """(Z u_1, u_1, ..., Z u_k, u_k, Z_1, ..., Z_m) for `_invariant_ratios`."""
    return (tuple(e for ue in u for e in (_along(Z, ue), ex.as_expr(ue)))
            + tuple(ex.as_expr(z) for z in Z))


def _invariant_ratios(vals, k):
    """max over the k invariants of |Z u| / (|u| * ||Z||), from the values
    of `_invariants_family`."""
    znorm = worst(abs(z) for z in vals[2 * k:])
    return worst(abs(zu) / worst((abs(uv) * znorm,), 1e-300)
                 for zu, uv in zip(vals[:2 * k:2], vals[1:2 * k:2]))


@record
class RectifyReport:
    max_dev_v: float
    max_dev_u: float
    samples_used: int
    skipped_samples: int


def rectify_check(Z, v: Expr, u, samples, params=None) -> RectifyReport:
    """Certify flow-box coordinates: Zv = 1 and Zu = 0 on the sampled chart,
    max_dev_u being the worst |Z u| / (|u| * ||Z||); domain errors skipped."""
    fn = ex.compile_expr((_along(Z, v),) + _invariants_family(Z, u),
                         _chart_names(len(Z)), bind=params or {})

    def row(*q):
        zv, *vals = fn(*q)
        return abs(zv - 1.0), _invariant_ratios(vals, len(u))

    rows, skipped = sampled(row, samples)
    return RectifyReport(worst(d for d, _ in rows), worst(d for _, d in rows),
                         len(rows), skipped)


@functools.lru_cache(maxsize=None)
def _first_rules():
    """The nodes on [-1, 1] of `integrate_1d`'s first two rules, the 96
    then the 192, and their weights in the same order; both arrays are
    read-only."""
    import numpy as np

    (x1, w1), (x2, w2) = map(_reference_rule, _COUNTS[:2])
    nodes, weights = np.concatenate((x1, x2)), np.concatenate((w1, w2))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@record
class _Field:
    """What `solve_reduced` reads of a field Z = A q + c, its potential and
    its flow-box coordinates: A's `_spectrum` and c as arrays, whether A and
    c are real, V's `compile_array` function and the closures of v and u."""

    spectrum: tuple
    c: object
    real: bool
    potential: object
    v: object
    u: object


@functools.lru_cache(maxsize=32)
def _field(Z, V, v, u, bound):
    """The `_Field` of Z, V, v and u, with `bound` the (name, value, ...)
    tuples of the values bound to free names.  A field without a closed
    form raises ChartFieldError."""
    import numpy as np

    params = {item[0]: item[1] for item in bound}
    q_vars = _chart_names(len(Z))
    parts = ex.compile_expr(_affine_parts(Z, q_vars), (), bind=params)()
    m, real = len(q_vars), not any(x.imag for x in parts)
    c = parts[m * m:]
    return _Field(tuple(map(np.array, _spectrum(parts[:m * m], Z))),
                  np.array([x.real for x in c] if real else c),
                  real, ex.compile_array(ex.as_expr(V), q_vars, bind=params),
                  ex.compile_expr(ex.as_expr(v), q_vars, bind=params),
                  ex.compile_expr(tuple(ex.as_expr(ue) for ue in u), q_vars, bind=params))


def _set_up(Z, V, v, u, params):
    """`_field` of these, from its cache when V, v and u hash and every
    value in params is a number of the double range.  The key holds the
    complex double `expr` binds for each value and the signs of its parts,
    so 0.0 and -0.0 are told apart."""
    key = []
    for name, x in params.items():
        try:
            z = complex(x)
        except (TypeError, ValueError, OverflowError):
            break
        key.append((name, z, math.copysign(1.0, z.real), math.copysign(1.0, z.imag)))
    else:
        try:
            hash((V, v, u))
        except TypeError:
            pass
        else:
            return _field(Z, V, v, u, tuple(key))
    return _field.__wrapped__(Z, V, v, u, tuple(params.items()))


@record
class _Track:
    """A target of `solve_reduced` once its grid is tested.  q0 is the
    target as complexes and start the point the flow starts from; stop is
    the first grid column that is not finite or is outside the domain
    (steps + 1 when there is none) and exited says it is outside; point is
    the chart point at stop, or at the end when there is none.  nodes are
    the chart points at the 288 nodes of its first two phase rules when its
    grid runs to its end, else None."""

    target: tuple
    q0: list
    start: list
    grid: Grid
    stop: int
    exited: bool
    point: tuple
    nodes: object


def _trace(field, target, v_ref, step, domain):
    """The `_Track` of one target: its end time and grid, one flow call on
    the grid and the 288 nodes of the first two phase rules, and the
    finiteness and domain tests of the grid.  Of the flow's points, only
    the chart point at the stop and the nodes outlive the call, the nodes
    only when the grid passes both tests."""
    import numpy as np

    q0 = [complex(x) for x in target]
    v_here = field.v(*q0)
    if abs(v_here.imag) > 1e-9 * (1.0 + abs(v_here)):
        raise ex.DomainError(f"v is not real at {target}: {v_here}")
    t_end = float(v_ref) - v_here.real
    if not math.isfinite(t_end):
        raise StepError(f"the end time must be finite, got {t_end!r}")
    if not abs(t_end) / step <= MAX_STEPS:
        raise StepError(f"too many steps: |t_end| / step = {abs(t_end)!r} / {step!r}"
                        f" = {abs(t_end) / step:.6g}, more than {MAX_STEPS}")
    n = max(1, round(abs(t_end) / step)) if t_end else 0
    grid = Grid(t_end, n)
    start = [x.real for x in q0] if field.real and not any(x.imag for x in q0) else q0
    times = t_end / max(n, 1) * np.arange(n + 1.0)
    if n:
        # the nodes where gl_nodes(count, 0, t_end) places them
        half, mid = 0.5 * (t_end - 0.0), 0.5 * (t_end + 0.0)
        times = np.concatenate((times, mid + half * _first_rules()[0]))
    with np.errstate(all="ignore"):
        qs = _affine_flow(field.spectrum, field.c, start, times)
    finite = np.isfinite(qs[:, :n + 1]).all(axis=0)
    stop, exited = (n + 1 if finite.all() else int(finite.argmin())), False
    if domain is not None:
        # the target itself, then the finite grid points after it
        inside = _inside(domain, np.array(qs[:, :max(stop, 1)].real))
        if not inside[0]:
            raise DomainExitError(0.0, tuple(target))
        if not inside.all():
            stop, exited = int(inside.argmin()), True
    return _Track(tuple(target), q0, start, grid, stop, exited,
                  tuple(map(complex, qs[:, min(stop, n)].tolist())),
                  qs[:, n + 1:].copy() if n and stop > n else None)


def solve_reduced(Z, V, energy, phi, q_targets, step, *, v: Expr, u=(),
                  v_ref=0.0, params=None, domain=None):
    """Values of the solution Phi(u) exp(-int_{v_ref}^{v(q)} V dv) at targets.

    The potential is integrated along the characteristic through each
    target, back to the reference section v = v_ref, so over the time
    t_end = v_ref - v(target).  Z must be affine, Z = A q + c, over at most
    two chart variables, with an A that is not defective; any other field
    raises ChartFieldError.  A and c are read from Z's Jacobian, and V, v
    and u compiled, once per field and bound values (`_field`, a bounded
    cache).  The chart points come in closed form from A's eigenvalues
    lam_i and projections E_i (`_spectrum`, `_affine_flow`),
    q(t) = q0 + sum_i g_i(t) E_i (A q0 + c) with g_i(0) = 0, so the flow
    starts at the target bit for bit.  They are float64 when A, c and the
    target are real, and complex otherwise.  The time runs over a grid
    (`Grid`) of round(|t_end| / step) equal steps (at least one unless
    t_end is 0), on which the chart domain and finiteness are tested.  The
    phase does not depend on the step: it is `quadrature.integrate_1d` of V
    over [0, t_end], Gauss-Legendre rules of 96 nodes, then 192, doubling
    up to 3072 until the result settles to 1e-12 relative, else
    InconclusiveError.  v must be real at every target.

    The targets are solved in one array pass.  In order, each takes one
    `_affine_flow` call on its grid and the first two rules' 288 nodes,
    placed as `gl_nodes` places them, and its grid is tested; the nodes of
    every target whose grid runs to its end, real or complex, are kept,
    the grid is not.  V then takes one `expr.compile_array` call on all
    kept nodes, and each rule is summed on its own as `integrate_1d` sums
    it, so a settled phase is bit for bit that of the target alone.  A
    target whose nodes meet an error of V, whose sum is not finite or that
    does not settle by 192 nodes takes `integrate_1d` afresh, which
    recomputes its 288 chart points once and raises or doubles as the
    target alone would.  A target whose grid stops takes V on the 96-node
    rule up to the stop and raises.  Each target is finished in its place
    in the order, so the first target that raises raises what it would
    raise alone.

    The domain predicate is called once per target, on the (m, N) float
    array of the real parts of the target (column 0) and of the finite grid
    points after it, one point per column; it must return a boolean array
    of shape (N,), or ValueError names what it returned.  The first column
    outside raises DomainExitError with its time and chart point, a target
    outside before any phase is taken.  A grid point that is not finite
    raises DomainError with its time instead.  Either error comes after V
    is evaluated on the 96-node rule's nodes from the target to that point,
    so a DomainError of V on the way wins; V is not evaluated beyond it.
    A phase whose exponential overflows raises DomainError naming the
    target and the phase.  The energy value is bound into V's symbol E.  A
    target whose length is not len(Z), or with a coordinate that is not
    finite, raises ValueError before any is evaluated.  A step that is not
    positive and finite, an end time that is not finite, or more than
    MAX_STEPS steps raises StepError before that target's characteristic
    is computed.  Returns (values, characteristics).
    """
    import numpy as np

    q_targets = list(q_targets)
    for target in q_targets:
        _check_point(target, len(Z), "target")
    step = float(step)
    if not (math.isfinite(step) and step > 0.0):
        raise StepError(f"the step must be positive and finite, got {step!r}")
    params = dict(params or {})
    params.setdefault("E", energy)
    Z = tuple(ex.as_expr(z) for z in Z)
    field = _set_up(Z, V, v, tuple(u), params)

    # each target's grid is tested, and the nodes of its phase rules kept,
    # before the next target's flow is taken; an error waits for the
    # targets before it
    tracks, error = [], None
    for target in q_targets:
        try:
            tracks.append(_trace(field, target, v_ref, step, domain))
        except Exception as exc:  # noqa: BLE001 - raised below, in its place
            error = exc
            break

    passing = [t for t in tracks if t.nodes is not None]
    settled = iter(())
    if passing:
        half = np.array([0.5 * (t.grid.end - 0.0) for t in passing])
        vals, ok = field.potential(*np.concatenate([t.nodes for t in passing], axis=1),
                                   skip=Exception)
        with np.errstate(all="ignore"):
            # each rule summed on its own, as `integrate_1d` sums it
            terms = (half[:, None] * _first_rules()[1]) * vals.reshape(len(passing), -1)
            first, second = terms[:, :_COUNTS[0]].sum(axis=1), terms[:, _COUNTS[0]:].sum(axis=1)
            change = abs(second - first)
            done = (ok.reshape(len(passing), -1).all(axis=1) & np.isfinite(first)
                    & np.isfinite(second) & (change <= 1e-12 * np.maximum(1.0, abs(second))))
        settled = iter(zip(done.tolist(), second.tolist(), change.tolist()))

    def along(track, times):
        with np.errstate(all="ignore"):
            qs = _affine_flow(field.spectrum, field.c, track.start, times)
        return field.potential(*qs)[0]

    values, chars = [], []
    for track in tracks:
        grid = track.grid
        if track.nodes is not None:
            done, phase, change = next(settled)
            nodes = _COUNTS[1]
            if not done:
                # an error of V, a sum that is not finite or more nodes:
                # the target's own rules raise or settle as they would alone
                phase, nodes, change = integrate_1d(functools.partial(along, track),
                                                    0.0, grid.end)
                phase, change = complex(phase), float(change)
        elif track.stop <= grid.steps:
            # V on the 96-node rule up to the stop, so that an error of V
            # there wins
            t_stop = grid[track.stop]
            along(track, gl_nodes(_COUNTS[0], 0.0, t_stop)[0])
            if track.exited:
                raise DomainExitError(t_stop, track.point)
            raise ex.DomainError(f"the chart point is not finite at t = {t_stop!r}")
        else:
            phase, nodes, change = 0j, 0, 0.0
        amplitude = phi(field.u(*track.q0), params)
        try:
            # the phase is -int_{v_ref}^{v(q)} V dv along the characteristic
            growth = cmath.exp(phase)
        except OverflowError:
            raise ex.DomainError(f"the phase at {track.target} overflows its exponential: "
                                 f"{phase!r}") from None
        values.append(amplitude * growth)
        chars.append(Characteristic(start=track.target, step=step, ts=grid,
                                    end=track.point, phase=phase, phase_nodes=nodes,
                                    phase_change=change))
    if error is not None:
        raise error
    return values, chars


# --- residuals --------------------------------------------------------------

_FD1 = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))
_FD2 = ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
        (1, 16.0 / 12.0), (2, -1.0 / 12.0))
_FAILED = object()  # a stencil point whose field value raised a SKIPPED error


def _stencil(op):
    """(offsets, weights, orders, centre): op's 4th-order stencils as one table.

    offsets is the (K, d) array of the distinct stencil points of all of op's
    multi-indices, as integer multiples of the step, in the order the
    stencils first use them; row `centre` is the zero offset.  The stencil of
    multi-index i at q with step h is
    sum_k weights[i, k] f(q + h offsets[k]) / h**orders[i].  Mixed second
    derivatives use the tensor product of first-derivative stencils.  The
    table is built once per number of variables and multi-indices, and its
    arrays are read-only.
    """
    return _stencil_table(len(op.variables), tuple(op.coefficients))


@functools.lru_cache(maxsize=32)
def _stencil_table(d, indices):
    import numpy as np

    column = {}
    table = []
    for idx in indices:
        axes = [a for a, k in enumerate(idx) if k]
        if not axes:
            terms = [((), 1.0)]
        elif sum(idx) == 1:
            terms = [(((axes[0], k),), w) for k, w in _FD1]
        elif len(axes) == 1:
            terms = [(((axes[0], k),), w) for k, w in _FD2]
        else:
            terms = [(((axes[0], k1), (axes[1], k2)), w1 * w2)
                     for k1, w1 in _FD1 for k2, w2 in _FD1]
        row = {}
        for shift, w in terms:
            off = [0] * d
            for axis, k in shift:
                off[axis] = k
            row[column.setdefault(tuple(off), len(column))] = w
        table.append(row)
    centre = column.setdefault((0,) * d, len(column))
    weights = np.zeros((len(table), len(column)))
    for i, row in enumerate(table):
        for k, w in row.items():
            weights[i, k] = w
    offsets = np.array(list(column), dtype=float).reshape(len(column), d)
    orders = np.array([sum(idx) for idx in indices])
    for a in (offsets, weights, orders):
        a.flags.writeable = False
    return offsets, weights, orders, centre


def _field_at(psi):
    """values(block, ok) -> (values, ok) of a callable field at the stencil
    points block[s] (an (S, K, d) array) of the samples s marked in ok.

    With a `batch` attribute, psi.batch(points) gives the values at an
    (m, d) point array in one call, and its errors propagate.  Otherwise psi
    is called once per distinct point, sample by sample, and a point that
    raises skips exactly the samples whose stencils need it.
    """
    import numpy as np

    batch = getattr(psi, "batch", None)

    def values(block, ok):
        s_n, k_n, d = block.shape
        out = np.zeros((s_n, k_n), dtype=complex)
        rows = np.flatnonzero(ok)
        if batch is not None:
            out[rows] = np.reshape(batch(block[rows].reshape(-1, d)), (len(rows), k_n))
            return out, ok
        ok = ok.copy()
        memo = {}
        for s in rows:
            for k, p in enumerate(map(tuple, block[s].tolist())):
                if p not in memo:
                    try:
                        memo[p] = psi(p)
                    except SKIPPED:
                        memo[p] = _FAILED
                if memo[p] is _FAILED:
                    ok[s] = False
                    break
                out[s, k] = memo[p]
        return out, ok

    return values


def operator_residual(op: DiffOp, psi, energy, samples, params=None,
                      fd_step=1e-2, proved=False) -> ResidualReport:
    """max |op psi - E psi| / max(|psi|, 1e-12) over samples: the one residual
    of an order-<=2 operator on a field.

    psi is an expression or a callable on coordinate tuples of
    op.variables; params binds any other free name.  For an expression, an
    exact (int or Fraction) energy is folded into psi before op is applied;
    any other energy stays the symbol E, bound through params unless they
    already bind it.  op psi is built once and the residual simplified once
    (with proved=True it is taken as 0 unbuilt: the caller has proved
    op psi = energy psi symbolically).  psi is compiled alone and evaluated
    in one `expr.compile_array` call, at the samples and then at the
    4th-order stencil points (`_stencil`) of the first 10 samples, so an
    error at a sample raises before one at a stencil point; the residual is
    compiled and evaluated, at the samples only, when it is not
    symbolically zero.  At those 10 samples the symbolic op psi, as
    residual + E psi, is cross-checked against the stencils.  A callable
    psi goes through the stencils alone, with each distinct stencil point
    evaluated once per check (`_field_at`).  A sample is skipped when a
    coefficient, psi or the residual at it raises one of `diffop.SKIPPED`;
    a stencil point that raises one only drops its sample from the
    cross-check.  A NaN or inf value makes the figure NaN; a field
    numerically zero on every sample raises InconclusiveError.  A stencil
    step that is not positive and finite raises StepError.
    """
    import numpy as np

    if not (math.isfinite(fd_step) and fd_step > 0.0):
        raise StepError(f"stencil step must be positive and finite, got {fd_step!r}")
    exact = isinstance(psi, Expr) and isinstance(energy, (int, Fraction))
    params = dict(params or {})
    if not exact:
        params.setdefault("E", complex(energy))
    names = op.variables
    q = np.array([[float(x) for x in p] for p in samples], dtype=float)
    q = q.reshape(len(q), len(names))
    offsets, weights, orders, centre = _stencil(op)
    coeffs = ex.compile_array(tuple(op.coefficients.values()), names, bind=params)

    def evaluated(ok):
        if not ok.any():
            raise InconclusiveError("all samples failed to evaluate")
        return ok

    symbolic_zero, cross = False, 0.0
    if isinstance(psi, Expr):
        if exact and "E" in ex.free_vars(psi):
            psi = ex.subst(psi, {"E": energy})
        resid = ZERO if proved else simplify(
            apply(op, psi) - (ex.as_expr(energy) if exact else Var("E")) * psi)
        symbolic_zero = resid == ZERO
        head = q[:10]
        block = head[:, None, :] + fd_step * offsets
        pts = np.concatenate([q, block.reshape(-1, len(names))])
        v, v_ok = ex.compile_array(psi, names, bind=params)(*pts.T, skip=SKIPPED)
        p, ok = v[:len(q)], v_ok[:len(q)]
        if symbolic_zero:
            r = np.zeros(len(q), dtype=complex)
        else:
            r, r_ok = ex.compile_array(resid, names, bind=params)(*q.T, skip=SKIPPED)
            ok = ok & r_ok
        ok = evaluated(ok)
        c, ok10 = coeffs(*head.T, skip=SKIPPED)
        f = v[len(q):].reshape(block.shape[:2])
        ok10 = evaluated(ok10 & v_ok[len(q):].reshape(block.shape[:2]).all(axis=1)
                         & ok[:10])
        e_val = complex(energy if exact else params["E"])
    else:
        c, ok = coeffs(*q.T, skip=SKIPPED)
        f, ok = _field_at(psi)(q[:, None, :] + fd_step * offsets, ok)
        ok = evaluated(ok)
        e_val = complex(energy)

    # a NaN or inf value makes the figure NaN, without a numpy warning
    with np.errstate(all="ignore"):
        lhs = (c.T * (f @ weights.T) / fd_step ** orders).sum(axis=1)
        if isinstance(psi, Expr):
            # the symbolic op psi is resid + E psi: the values the residual
            # is made of
            sym = (r[:10] + e_val * p[:10])[ok10]
            scale = np.where(np.isfinite(abs(sym)), np.maximum(abs(sym), 1.0), np.nan)
            cross = worst((abs(lhs[ok10] - sym) / scale).tolist())
        else:
            r, p = lhs - e_val * f[:, centre], f[:, centre]
        r, p = abs(r[ok]).tolist(), abs(p[ok]).tolist()

    scale = worst(p, 1e-12)
    if scale <= 1e-12:
        raise InconclusiveError("field is numerically zero on all samples")
    return ResidualReport(worst(r) / scale, len(r), len(q) - len(r),
                          symbolic_zero, cross)


def reduced_residual(red: ReducedOperator, psi_hat, energy, samples,
                     params=None, fd_step=1e-2) -> ResidualReport:
    """`operator_residual` of the raw reduced operator on the orbit chart:
    max |raw psi_hat - E psi_hat| / max(|psi_hat|, 1e-12) over samples."""
    return operator_residual(red.raw, psi_hat, energy, samples, params=params,
                             fd_step=fd_step)
