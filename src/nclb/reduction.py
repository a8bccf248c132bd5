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
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import expr as ex
from .bilinear import laplacian_data
from .diffop import (DiffOp, DomainExitError, SampleSpec, apply,
                     bracket_defects, compose, laplacian_image, op_equal,
                     sampled)
from .expr import Expr, Var, ZERO, simplify
from .report import (DEFAULT_SEED, FAIL, PASS, CheckRecord, InconclusiveError,
                     NclbError, VerificationError, worst)


class NotFirstOrderError(NclbError, RuntimeError):
    pass


class StepError(NclbError, ValueError):
    """An RK4 step or end time that cannot give an accurate characteristic."""


class SpectralLabelError(NclbError, ValueError):
    """A J that labels no representation of the model."""


_J_SAMPLE_RANGE = (0.25, 2.0)  # |J| range used when sampling the real line


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FirstOrderData:
    Z: tuple
    V: Expr
    normalizer: Expr


@dataclass(frozen=True)
class ReducedOperator:
    raw: DiffOp
    first_order: FirstOrderData | None = None


@dataclass(frozen=True)
class Characteristic:
    start: tuple
    step: float
    ts: tuple
    qs: tuple
    phases: tuple | None = None

    @property
    def end(self):
        return self.qs[-1]


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

def _characteristic(run, q0, t_end, step, domain=None, phase=False):
    """Classical RK4 from t = 0 to t_end (either direction), in
    round(|t_end| / step) equal steps (at least one unless t_end is 0),
    recording the state after every step.

    `run` is the `expr.compile_rk4` loop of the rates; with phase=True they
    end with V(q), and the phase, with rate V, rides as one more state
    component.  The domain predicate sees the real parts of the chart point
    at the start and after every step; a point outside raises
    DomainExitError with its time and chart point.  A step that is not
    positive and finite, a non-finite t_end, or a step count beyond the
    float range raises StepError.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise StepError(f"RK4 step must be positive and finite, got {step!r}")
    if not math.isfinite(t_end):
        raise StepError(f"RK4 end time must be finite, got {t_end!r}")
    if not math.isfinite(abs(t_end) / step):
        raise StepError(f"too many RK4 steps: |t_end| / step = {abs(t_end)!r} / {step!r}")

    def check(t, q):
        if not domain(tuple([s.real for s in q])):
            raise DomainExitError(t, q)

    q = tuple(complex(x) for x in q0)
    ts, qs, phases = [0.0], [q], [0j]
    if domain is not None:
        check(0.0, q)
    nsteps = max(1, round(abs(t_end) / step)) if t_end else 0
    run(nsteps, t_end / max(nsteps, 1), ts, qs, phases,
        check if domain is not None else None)
    return Characteristic(start=tuple(q0), step=step, ts=tuple(ts), qs=tuple(qs),
                          phases=tuple(phases) if phase else None)


def flow(Z, q0, t_end, step, params=None, domain=None) -> Characteristic:
    """Integrate dq/dt = Z(q) from q0 to t = t_end with classical RK4 at
    fixed step (`_characteristic`, the one RK4 driver).

    Z is a sequence of expressions over the chart variables named q1..qm (or
    a single 'q'); params binds any remaining parameters.  A domain predicate
    over real coordinate tuples is tested at q0 and after every step; a point
    outside raises DomainExitError with its time and chart point.
    """
    run = ex.compile_rk4(tuple(ex.as_expr(z) for z in Z), _chart_names(len(Z)),
                         bind=params or {})
    return _characteristic(run, q0, float(t_end), float(step), domain)


def _chart_names(m):
    return ("q",) if m == 1 else tuple(f"q{i + 1}" for i in range(m))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def solve_reduced(Z, V, energy, phi, q_targets, step, *, v: Expr, u=(),
                  v_ref=0.0, params=None, domain=None):
    """Values of the solution Phi(u) exp(-int_{v_ref}^{v(q)} V dv) at targets.

    The potential is integrated along the characteristic through each target
    by flowing back to the reference section v = v_ref with `_characteristic`;
    the phase rides as one more RK4 state component, so its error is
    O(step^4).  v must be real at every target.  A domain predicate over
    real coordinate tuples is tested at the target and after every step; a
    point outside raises DomainExitError with its time and chart point.  The
    energy value is bound into V's symbol E.  Returns (values,
    characteristics).
    """
    params = dict(params or {})
    params.setdefault("E", energy)
    q_vars = _chart_names(len(Z))
    # the rates of (q, phase) are (Z(q), V(q))
    run = ex.compile_rk4(tuple(ex.as_expr(z) for z in Z) + (ex.as_expr(V),),
                         q_vars, bind=params)
    v_fn = ex.compile_expr(ex.as_expr(v), q_vars, bind=params)
    u_fn = ex.compile_expr(tuple(ex.as_expr(ue) for ue in u), q_vars, bind=params)

    values = []
    chars = []
    for target in q_targets:
        q0 = [complex(x) for x in target]
        v_here = v_fn(*q0)
        if abs(v_here.imag) > 1e-9 * (1.0 + abs(v_here)):
            raise ex.DomainError(f"v is not real at {target}: {v_here}")
        char = _characteristic(run, target, float(v_ref) - v_here.real,
                               float(step), domain, phase=True)
        # the last phase is -int_{v_ref}^{v(q)} V dv along the characteristic
        values.append(phi(u_fn(*q0), params) * cmath.exp(char.phases[-1]))
        chars.append(char)
    return values, chars


# --- residuals --------------------------------------------------------------

_FD1 = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))
_FD2 = ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
        (1, 16.0 / 12.0), (2, -1.0 / 12.0))


def fd_apply(coeff_fns, psi, point, h):
    """Apply an order-<=2 operator to a sampled field by 4th-order stencils.

    coeff_fns maps multi-index -> callable(*point); psi is callable on
    coordinate tuples; mixed second derivatives use the tensor product of
    first-derivative stencils.
    """
    point = tuple(float(x) for x in point)

    def shifted(axis_offsets):
        p = list(point)
        for axis, k in axis_offsets:
            p[axis] += k * h
        return psi(tuple(p))

    total = 0j
    for idx, cf in coeff_fns.items():
        order = sum(idx)
        cval = cf(*point)
        if order == 0:
            total += cval * shifted([])
        elif order == 1:
            axis = idx.index(1)
            acc = sum(w * shifted([(axis, k)]) for k, w in _FD1)
            total += cval * acc / h
        elif 2 in idx:
            axis = idx.index(2)
            acc = sum(w * shifted([(axis, k)]) for k, w in _FD2)
            total += cval * acc / (h * h)
        else:
            axes = [a for a, v in enumerate(idx) if v == 1]
            acc = 0j
            for k1, w1 in _FD1:
                for k2, w2 in _FD1:
                    acc += w1 * w2 * shifted([(axes[0], k1), (axes[1], k2)])
            total += cval * acc / (h * h)
    return total


def operator_residual(op: DiffOp, psi, energy, samples, params=None,
                      fd_step=1e-2) -> ResidualReport:
    """max |op psi - E psi| / max(|psi|, 1e-12) over samples: the one residual
    of an order-<=2 operator on a field.

    psi is an expression or a callable on coordinate tuples of
    op.variables; params binds any other free name.  For an expression, an
    exact (int or Fraction) energy is folded into psi before op is applied;
    any other energy stays the symbol E, bound through params unless they
    already bind it.  op psi is built once, the residual simplified once,
    and (residual, psi) sampled through `diffop.sampled`; the symbolic
    op psi is cross-checked against `fd_apply`'s stencils at the first 10
    samples.  A callable psi goes through the stencils alone, with
    each distinct stencil point evaluated once per sample.  A NaN or inf
    value makes the figure NaN; a field numerically zero on every sample
    raises InconclusiveError.
    """
    exact = isinstance(psi, Expr) and isinstance(energy, (int, Fraction))
    params = dict(params or {})
    if not exact:
        params.setdefault("E", complex(energy))
    names = op.variables
    samples = list(samples)
    coeff_fns = {idx: ex.compile_expr(c, names, bind=params)
                 for idx, c in op.coefficients.items()}

    def stencil(field, q):
        """(op field, field) at q, evaluating field once per distinct point."""
        memo = {}

        def at(p):
            if p not in memo:
                memo[p] = field(p)
            return memo[p]

        return fd_apply(coeff_fns, at, q, fd_step), at(tuple(float(x) for x in q))

    symbolic_zero, cross = False, 0.0
    if isinstance(psi, Expr):
        if exact and "E" in ex.free_vars(psi):
            psi = ex.subst(psi, {"E": energy})
        op_psi = apply(op, psi)
        resid = simplify(op_psi - (ex.as_expr(energy) if exact else Var("E")) * psi)
        symbolic_zero = resid == ZERO
        fn = ex.compile_expr((resid, psi), names, bind=params)
        rows, skipped = sampled(lambda *q: tuple(map(abs, fn(*q))), samples)
        f_psi = ex.compile_expr(psi, names, bind=params)
        f_op = ex.compile_expr(op_psi, names, bind=params)

        def cross_row(*q):
            fd_val, _ = stencil(lambda p: f_psi(*p), q)
            sym_val = f_op(*q)
            return abs(fd_val - sym_val) / worst((abs(sym_val),), 1.0)

        cross = worst(sampled(cross_row, samples[:10])[0])
    else:
        e_val = complex(energy)

        def row(*q):
            lhs, pv = stencil(psi, q)
            return abs(lhs - e_val * pv), abs(pv)

        rows, skipped = sampled(row, samples)

    scale = worst((p for _, p in rows), 1e-12)
    if scale <= 1e-12:
        raise InconclusiveError("field is numerically zero on all samples")
    return ResidualReport(worst(r for r, _ in rows) / scale, len(rows), skipped,
                          symbolic_zero, cross)


def reduced_residual(red: ReducedOperator, psi_hat, energy, samples,
                     params=None, fd_step=1e-2) -> ResidualReport:
    """`operator_residual` of the raw reduced operator on the orbit chart:
    max |raw psi_hat - E psi_hat| / max(|psi_hat|, 1e-12) over samples."""
    return operator_residual(red.raw, psi_hat, energy, samples, params=params,
                             fd_step=fd_step)
