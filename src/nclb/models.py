"""Bundled group models and their end-to-end checks.

Two models ship: the 3-dimensional Heisenberg group with a null-center
metric, and a 4-dimensional non-unimodular solvable group (Mubarakzyanov
class g4,7) with a signature-(2,2) metric from its first canonical family.
Each model carries global coordinates, the multiplication law, invariant
frames and coframes, the metric, the commutative ideal, representation data
on the orbit chart, the integral kernel of the lifted representation, Haar
densities and the modular multiplier, and the data of its worked example:
the normalizer of the Z + V split, the flow-box chart, the chart domain,
the printed coordinate Laplacian and the kernel smoke scheme.

Everything printed here is data; the checks in this module and in
`reduction` are what make it trustworthy: frame duality, associativity,
Jacobi, commutation relations, Haar invariance, kernel lift generators,
first-order reduction, and smeared orthogonality.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expr as ex
from .airyfun import airy, airy_array
from .algebra import (LieAlgebra, Subspace, g47_algebra, heisenberg_algebra,
                      jacobi_defect)
from .bilinear import BilinearForm, CoisotropyError, coisotropy_check, laplacian_data
from .diffop import (DiffOp, SampleSpec, bracket_defects, commutator,
                     laplacian_image, op_equal, sampled)
from .expr import Expr, Exp, I, Log, Power, Var, ZERO, simplify
from .quadrature import gl_nodes, oscillatory_cubic_phase
from .reduction import LambdaRep, ResidualReport, operator_residual
from .report import (DEFAULT_SEED, FAIL, INCONCLUSIVE, PASS, CheckRecord,
                     NclbError, VerificationError, worst)


class ModelParameterError(NclbError, ValueError):
    pass


class SingularMeasureError(NclbError, ValueError):
    pass


@dataclass(frozen=True)
class CollapsedAction:
    """phi -> exp(i phase(q, x)) phi(substitutions(q, x))."""

    substitutions: tuple
    phase: Expr


@dataclass(frozen=True)
class KernelD:
    """Distributional kernel: delta constraints and phase.

    The kernel is exp(i phase) carried on the surface where every constraint
    vanishes; it is only ever used through `collapsed`, the action after the
    deltas have been integrated out.
    """

    delta_constraints: tuple
    phase: Expr
    collapsed: CollapsedAction


@dataclass(frozen=True)
class HaarData:
    left_density: Expr
    right_density: Expr
    unimodular: bool


@dataclass(frozen=True)
class GroupModel:
    """A bundled group: coordinates, laws, frames, metric, and orbit data.

    mult_law/inverse_law are coordinate expressions of z(x, y) and x^{-1};
    dual_forms is the coframe matrix omega^i_j(x).  normalizer, flow_box
    (v, invariants u) and chart_domain (a predicate, or None) are what
    `reduction_normalizer`, `rectifying_coordinates` and `chart_domain`
    return; printed_laplacian is the long-hand coordinate expansion of the
    Laplacian, entered independently of the frame assembly so the two can be
    compared term by term; smoke_scheme computes one pairing of
    `kernel_orthogonality_smoke`.
    """

    name: str
    algebra: LieAlgebra
    x_vars: tuple
    mult_law: tuple
    inverse_law: tuple
    xi: tuple
    eta: tuple
    dual_forms: tuple
    form: BilinearForm
    ideal: Subspace
    lrep: LambdaRep
    modular_multiplier: Expr
    kernel: KernelD
    haar: HaarData
    params: dict
    x_sample_ranges: dict
    normalizer: Expr
    flow_box: tuple
    chart_domain: object
    printed_laplacian: DiffOp
    smoke_scheme: object

    @property
    def dim(self):
        return self.algebra.dim

    def x_sample_spec(self, n=50, seed=DEFAULT_SEED):
        return SampleSpec(ranges=dict(self.x_sample_ranges), n=n, seed=seed)

    @functools.cached_property
    def laplacian(self) -> DiffOp:
        """`laplace_operator(self)`, assembled on first use and kept; a model
        built by `dataclasses.replace` assembles its own."""
        return laplace_operator(self)


# --- model builders ---------------------------------------------------------

def _heisenberg_model(_alpha, _beta) -> GroupModel:
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    y1, y2, y3 = Var("y1"), Var("y2"), Var("y3")
    xv = ("x1", "x2", "x3")
    L = heisenberg_algebra()

    mult = (x1 + y1, x2 + y2, x3 + y3 + x1 * y2)
    inverse = (-x1, -x2, -x3 + x1 * x2)

    xi = (
        DiffOp.partial(xv, "x1"),
        DiffOp.partial(xv, "x2") + DiffOp.partial(xv, "x3", x1),
        DiffOp.partial(xv, "x3"),
    )
    eta = (
        DiffOp.partial(xv, "x1") + DiffOp.partial(xv, "x3", x2),
        DiffOp.partial(xv, "x2"),
        DiffOp.partial(xv, "x3"),
    )
    one = ex.ONE
    dual = (
        (one, ZERO, ZERO),
        (ZERO, one, ZERO),
        (ZERO, -x1, one),
    )
    form = BilinearForm.from_matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    ideal = Subspace.spanned_by_indices(3, (1, 3))

    q, J = Var("q"), Var("J")
    qv = ("q",)
    lrep = LambdaRep(
        q_vars=qv,
        ops=(
            DiffOp.scalar(qv, -I * J * q),
            DiffOp.partial(qv, "q"),
            DiffOp.scalar(qv, I * J),
        ),
        j_values=(),
        mult_only=(1, 3),
        sample_ranges={"q": (-2.0, 2.0), "E": (-2.0, 2.0)},
    )

    qp = Var("qp")
    kernel = KernelD(
        delta_constraints=(q + x2 - qp,),
        phase=-J * qp * x1 + J * x3,
        collapsed=CollapsedAction(
            substitutions=(q + x2,),
            phase=-J * (q + x2) * x1 + J * x3,
        ),
    )
    return GroupModel(
        name="heisenberg",
        algebra=L,
        x_vars=xv,
        mult_law=mult,
        inverse_law=inverse,
        xi=xi,
        eta=eta,
        dual_forms=dual,
        form=form,
        ideal=ideal,
        lrep=lrep,
        modular_multiplier=one,
        kernel=kernel,
        haar=HaarData(left_density=one, right_density=one, unimodular=True),
        params={},
        x_sample_ranges={v: (-1.5, 1.5) for v in xv},
        normalizer=simplify(2 * I * J),
        # the chart is already straight: v = q with no invariants left
        flow_box=(q, ()),
        chart_domain=None,
        printed_laplacian=DiffOp(xv, {
            (2, 0, 0): one,
            (0, 1, 1): ex.const(2),
            (0, 0, 2): 2 * x1,
        }),
        smoke_scheme=_smoke_heisenberg,
    )


def _g47_model(alpha, beta) -> GroupModel:
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha * beta == 0:
        raise ModelParameterError("g4_7 requires alpha * beta != 0")
    if alpha * alpha + 4 * beta <= 0:
        raise ModelParameterError("g4_7 requires alpha^2 + 4 beta > 0")
    a = ex.Const(alpha)
    b = ex.Const(beta)

    x1, x2, x3, x4 = (Var(f"x{i}") for i in range(1, 5))
    y1, y2, y3, y4 = (Var(f"y{i}") for i in range(1, 5))
    xv = ("x1", "x2", "x3", "x4")
    L = g47_algebra()

    half = ex.const(1, 2)
    mult = (
        x1 + Exp(-2 * x4) * y1 + half * Exp(-x4) * (x2 * y3 - x3 * y2 + x3 * x4 * y3),
        x2 + Exp(-x4) * (y2 - x4 * y3),
        x3 + Exp(-x4) * y3,
        x4 + y4,
    )
    inverse = (
        -x1 * Exp(2 * x4),
        -(x2 + x3 * x4) * Exp(x4),
        -x3 * Exp(x4),
        -x4,
    )

    e2m = Exp(-x4)
    e2m2 = Exp(-2 * x4)
    xi = (
        DiffOp.partial(xv, "x1", e2m2),
        DiffOp.partial(xv, "x2", e2m) + DiffOp.partial(xv, "x1", -half * x3 * e2m),
        DiffOp.partial(xv, "x3", e2m)
        + DiffOp.partial(xv, "x2", -x4 * e2m)
        + DiffOp.partial(xv, "x1", half * (x2 + x3 * x4) * e2m),
        DiffOp.partial(xv, "x4"),
    )
    eta = (
        DiffOp.partial(xv, "x1"),
        DiffOp.partial(xv, "x2") + DiffOp.partial(xv, "x1", half * x3),
        DiffOp.partial(xv, "x3") + DiffOp.partial(xv, "x1", -half * x2),
        DiffOp.partial(xv, "x4")
        + DiffOp.partial(xv, "x1", -2 * x1)
        + DiffOp.partial(xv, "x2", -(x2 + x3))
        + DiffOp.partial(xv, "x3", -x3),
    )
    e4p = Exp(2 * x4)
    e1p = Exp(x4)
    dual = (
        (e4p, half * x3 * e4p, -half * x2 * e4p, ZERO),
        (ZERO, e1p, x4 * e1p, ZERO),
        (ZERO, ZERO, e1p, ZERO),
        (ZERO, ZERO, ZERO, ex.ONE),
    )

    form = BilinearForm.from_matrix([
        [0, 0, 1, alpha],
        [0, 0, 0, beta],
        [1, 0, 0, 0],
        [alpha, beta, 0, 0],
    ])
    ideal = Subspace.spanned_by_indices(4, (1, 2))

    q1, q2, J = Var("q1"), Var("q2"), Var("J")
    qv = ("q1", "q2")
    lrep = LambdaRep(
        q_vars=qv,
        ops=(
            DiffOp.scalar(qv, I * J * q2 * q2),
            DiffOp.scalar(qv, I * J * q1 * q2),
            DiffOp.partial(qv, "q1", -q2) + DiffOp.scalar(qv, I * J * q1 * q2 * Log(q2)),
            DiffOp.partial(qv, "q2", -q2),
        ),
        j_values=(-1, 1),
        mult_only=(1, 2),
        sample_ranges={"q1": (0.8, 3.0), "q2": (0.15, 1.2), "E": (-2.0, 2.0)},
    )

    # flow box: v = ln((q1 + lam2 q2)/(q1 + lam1 q2))/(lam1 - lam2) and
    # u = (q1 + lam1 q2)^lam1 (q1 + lam2 q2)^(-lam2), valid on the chart
    # where both linear forms and q2 are positive
    lam1, lam2 = lambda_roots(alpha, beta)
    p = q1 + lam1 * q2
    m = q1 + lam2 * q2
    dl = simplify(lam1 - lam2)
    v = simplify(Power(dl, -1) * (Log(m) - Log(p)))
    u = simplify(Power(p, lam1) * Power(m, -lam2))

    binv = Power(b, -1)
    e3, e2, e1 = Exp(-3 * x4), Exp(-2 * x4), Exp(-x4)
    printed = DiffOp(xv, {
        (2, 0, 0, 0): (e3 + half * a * binv * x3 * e2) * (x2 + x3 * x4),
        (1, 1, 0, 0): -(2 * x4 * e3 + a * binv * (x2 + 2 * x3 * x4) * e2),
        (1, 0, 1, 0): 2 * e3 + a * binv * x3 * e2,
        (1, 0, 0, 1): -binv * x3 * e1,
        (0, 2, 0, 0): 2 * a * binv * x4 * e2,
        (0, 1, 1, 0): -2 * a * binv * e2,
        (0, 1, 0, 1): 2 * binv * e1,
        (1, 0, 0, 0): ex.const(-3, 2) * binv * x3 * e1,
        (0, 1, 0, 0): 3 * binv * e1,
    })

    q1p, q2p = Var("q1p"), Var("q2p")
    kernel = KernelD(
        delta_constraints=(
            q1 - q1p - q2 * x3,
            Log(q2) - Log(q2p) - x4,
        ),
        phase=J * x1 * q2 * q2 + half * J * q2 * (q1 + q1p) * (x2 + x3 * Log(q2)),
        collapsed=CollapsedAction(
            substitutions=(q1 - q2 * x3, q2 * Exp(-x4)),
            phase=J * x1 * q2 * q2
            + half * J * q2 * (2 * q1 - q2 * x3) * (x2 + x3 * Log(q2)),
        ),
    )
    return GroupModel(
        name="g4_7",
        algebra=L,
        x_vars=xv,
        mult_law=mult,
        inverse_law=inverse,
        xi=xi,
        eta=eta,
        dual_forms=dual,
        form=form,
        ideal=ideal,
        lrep=lrep,
        modular_multiplier=Power(q2, 4),
        kernel=kernel,
        haar=HaarData(left_density=Exp(4 * x4), right_density=ex.ONE, unimodular=False),
        params={"alpha": alpha, "beta": beta},
        x_sample_ranges={v: (-1.2, 1.2) for v in xv},
        normalizer=simplify(2 * I * J * q2 * q2 * binv),
        flow_box=(v, (u,)),
        chart_domain=_g47_chart_domain,
        printed_laplacian=printed,
        smoke_scheme=_smoke_g47,
    )


def _g47_chart_domain(q):
    """The 4d orbit chart is q2 > 0."""
    return q[1] > 1e-10


def lambda_roots(alpha, beta):
    """Roots of r^2 - alpha r - beta for the 4d model, as constant exprs."""
    alpha = ex.Const(alpha)
    beta = ex.Const(beta)
    disc = simplify(alpha * alpha + 4 * beta)
    root = Power(disc, Fraction(1, 2))
    lam1 = simplify((alpha + root) / 2)
    lam2 = simplify((alpha - root) / 2)
    return lam1, lam2


def rectifying_coordinates(model):
    """Flow-box chart (v, invariants u) for the model's characteristic field."""
    return model.flow_box


def reduction_normalizer(model) -> Expr:
    """The normalizer splitting the reduced operator into Z + V.  The split
    depends on this choice, which is why it is model data."""
    return model.normalizer


def chart_domain(model):
    """Real-coordinate predicate for the orbit chart (None if unconstrained)."""
    return model.chart_domain


def chart_samples(model, n, seed=DEFAULT_SEED):
    """Seeded sample tuples drawn from the model's chart sampling box."""
    q_vars = model.lrep.q_vars
    ranges = {v: model.lrep.sample_ranges[v] for v in q_vars}
    return SampleSpec(ranges=ranges, n=n, seed=seed).points(q_vars)


# every builder takes (alpha, beta); heisenberg ignores them
BUILDERS = {"heisenberg": _heisenberg_model, "g4_7": _g47_model}


def load_model(name, alpha=Fraction(1), beta=Fraction(1)) -> GroupModel:
    """Build and self-validate a bundled model.

    g4_7 takes rational alpha, beta with alpha*beta != 0 and
    alpha^2 + 4 beta > 0; heisenberg takes no parameters.
    """
    if name not in BUILDERS:
        raise ModelParameterError(
            f"unknown model {name!r}; available: {sorted(BUILDERS)}"
        )
    model = BUILDERS[name](alpha, beta)
    records = validate_model(model)
    if not all(r.passed for r in records):
        raise VerificationError(records)
    return model


# --- structural validation --------------------------------------------------

def _symbolic_or_sampled_zero(diff_exprs, spec):
    """(max_dev, used, skipped) for a family of expressions expected zero."""
    pend = tuple(d for d in map(simplify, diff_exprs) if d != ZERO)
    if not pend:
        return 0.0, 0, 0
    names = sorted(set().union(*map(ex.free_vars, pend)))
    missing = [n for n in names if n not in spec.ranges]
    if missing:
        raise ValueError(f"sample spec misses {missing}")
    fn = ex.compile_expr(pend, names)
    rows, skipped = sampled(lambda *p: worst(map(abs, fn(*p))),
                            spec.points(names))
    return worst(rows), len(rows), skipped


def validate_model(model, seed=DEFAULT_SEED):
    """Frame duality, multiplication-law laws, and Jacobi, as CheckRecords."""
    records = []
    n = model.dim

    bad = jacobi_defect(model.algebra)
    records.append(CheckRecord(
        check="jacobi", status=PASS if not bad else FAIL,
        max_residual=0.0 if not bad else 1.0,
        detail={"violations": [t for t, _ in bad]} if bad else {},
    ))

    # coframe duality <omega^i, xi_j> = delta^i_j
    diffs = []
    for i in range(n):
        for j in range(n):
            pairing = ex.Sum(tuple(
                ex.Product((model.dual_forms[i][k], model.xi[j].coeff(
                    tuple(1 if t == k else 0 for t in range(n)))))
                for k in range(n)
            ))
            target = ex.ONE if i == j else ZERO
            diffs.append(pairing - target)
    spec = model.x_sample_spec(seed=seed)
    dev, used, skipped = _symbolic_or_sampled_zero(diffs, spec)
    records.append(CheckRecord(
        check="coframe_duality", status=PASS if dev <= 1e-12 else FAIL,
        max_residual=dev, samples_used=used, seed=seed, skipped_samples=skipped,
    ))

    # z(0, y) = y exactly
    x_zero = {v: ZERO for v in model.x_vars}
    idn = all(
        ex.subst(z, x_zero) == simplify(Var(f"y{i + 1}"))
        for i, z in enumerate(model.mult_law)
    )
    records.append(CheckRecord(
        check="identity_law", status=PASS if idn else FAIL,
        max_residual=0.0 if idn else 1.0,
    ))

    # associativity z(z(x,y), w) = z(x, z(y,w)) and the two-sided inverse law
    y_names = [f"y{i + 1}" for i in range(n)]
    w_names = [f"w{i + 1}" for i in range(n)]
    lhs = [
        ex.subst(z, {**{model.x_vars[k]: model.mult_law[k] for k in range(n)},
                     **{y_names[k]: Var(w_names[k]) for k in range(n)}})
        for z in model.mult_law
    ]
    rhs = [
        ex.subst(z, {y_names[k]: ex.subst(model.mult_law[k],
                                          {**{model.x_vars[t]: Var(y_names[t]) for t in range(n)},
                                           **{y_names[t]: Var(w_names[t]) for t in range(n)}})
                     for k in range(n)})
        for z in model.mult_law
    ]
    assoc_spec = SampleSpec(
        ranges={**{v: (-1.2, 1.2) for v in model.x_vars},
                **{v: (-1.2, 1.2) for v in y_names},
                **{v: (-1.2, 1.2) for v in w_names}},
        n=50, seed=seed,
    )
    dev, used, skipped = _symbolic_or_sampled_zero(
        [l - r for l, r in zip(lhs, rhs)], assoc_spec)
    records.append(CheckRecord(
        check="associativity", status=PASS if dev <= 1e-12 else FAIL,
        max_residual=dev, samples_used=used, seed=seed, skipped_samples=skipped,
    ))

    inv_sub = {y_names[k]: model.inverse_law[k] for k in range(n)}
    left_inv = [ex.subst(z, inv_sub) for z in model.mult_law]
    swap = {**{model.x_vars[k]: model.inverse_law[k] for k in range(n)},
            **{y_names[k]: Var(model.x_vars[k]) for k in range(n)}}
    right_inv = [ex.subst(z, swap) for z in model.mult_law]
    dev, used, skipped = _symbolic_or_sampled_zero(
        left_inv + right_inv, spec)
    records.append(CheckRecord(
        check="inverse_law", status=PASS if dev <= 1e-12 else FAIL,
        max_residual=dev, samples_used=used, seed=seed, skipped_samples=skipped,
    ))
    return records


def invariant_frame_check(model, seed=DEFAULT_SEED):
    """Commutation relations of the two frames: left matches the structure
    constants, right matches their negatives, and the frames commute."""
    n = model.dim
    spec = model.x_sample_spec(n=40, seed=seed)
    records = []
    devs = []
    failing = []
    counts = {}
    used = skipped = 0
    for fam, frame, sign in (("left", model.xi, 1), ("right", model.eta, -1)):
        fam_devs, pairs, fam_used, fam_skipped = bracket_defects(
            model.algebra, frame, spec, sign)
        counts[fam] = len(fam_devs)
        devs += fam_devs
        failing += [(fam, i, j) for i, j in pairs]
        used += fam_used
        skipped += fam_skipped
    counts["mixed"] = n * n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cmp = op_equal(commutator(model.xi[i - 1], model.eta[j - 1]),
                           DiffOp.zero(model.x_vars), spec, tol=1e-12)
            devs.append(cmp.max_deviation)
            used += cmp.samples_used
            skipped += cmp.skipped_samples
            if not cmp.equal:
                failing.append(("mixed", i, j))
    records.append(CheckRecord(
        check="invariant_frame_relations",
        status=PASS if not failing else FAIL,
        max_residual=worst(devs), samples_used=used, seed=seed,
        skipped_samples=skipped,
        detail={"relation_counts": counts,
                **({"failing": failing} if failing else {})},
    ))
    return records


def haar_invariance_check(model, seed=DEFAULT_SEED):
    """Jacobian of left translation times the left-density ratio equals 1
    (and the mirror statement for right translations)."""
    n = model.dim
    y_names = [f"y{i + 1}" for i in range(n)]
    names = list(model.x_vars) + y_names
    # z(x, y), then its Jacobians in y (left translation) and in x (right)
    law = ex.compile_expr(
        tuple(model.mult_law)
        + tuple(ex.differentiate(z, y) for z in model.mult_law for y in y_names)
        + tuple(ex.differentiate(z, x) for z in model.mult_law for x in model.x_vars),
        names)
    rho = ex.compile_expr((model.haar.left_density, model.haar.right_density),
                          list(model.x_vars))

    def defect(args, jac, side, xpt):
        """|det J * rho(x') / rho(x) - 1| for one translation x -> x'."""
        vals = [v.real for v in law(*args)]
        jm = np.array(vals[jac:jac + n * n]).reshape(n, n)
        ratio = rho(*vals[:n])[side].real / rho(*xpt)[side].real
        return abs(np.linalg.det(jm) * ratio - 1.0)

    def row(*p):
        zpt, xpt = p[:n], p[n:]
        # translate x on the left by z, then on the right
        return (defect(zpt + xpt, n, 0, xpt),
                defect(xpt + zpt, n + n * n, 1, xpt))

    spec = SampleSpec(ranges={v: (-1.0, 1.0) for v in names}, n=20, seed=seed)
    rows, skipped = sampled(row, spec.points(names))
    worst_l = worst(l for l, _ in rows)
    worst_r = worst(r for _, r in rows)
    dev = worst((worst_l, worst_r))
    return CheckRecord(
        check="haar_invariance", status=PASS if dev <= 1e-10 else FAIL,
        max_residual=dev, samples_used=len(rows), seed=seed,
        skipped_samples=skipped,
        detail={"left": worst_l, "right": worst_r,
                "unimodular": model.haar.unimodular},
    )


# --- Laplacian --------------------------------------------------------------

def laplace_operator(model) -> DiffOp:
    """Invariant-frame Laplacian as a coordinate operator.

    sum G^{ij} xi_i xi_j + sum C^i xi_i; requires the model's ideal to pass
    the null-ideal criterion for the bundled form.
    """
    rep = coisotropy_check(model.algebra, model.form, model.ideal)
    if not rep.verdict:
        raise CoisotropyError(f"model {model.name}: ideal/form pair fails the "
                              "null-ideal criterion")
    return laplacian_image(model.xi, laplacian_data(model.algebra, model.form))


def coordinate_expansion_report(model, seed=DEFAULT_SEED):
    """Term-by-term comparison of the frame-assembled Laplacian against the
    printed coordinate expansion; discrepancies are reported, not raised."""
    ours = model.laplacian
    printed = model.printed_laplacian
    spec = model.x_sample_spec(n=40, seed=seed)
    indices = sorted(set(ours.coefficients) | set(printed.coefficients))
    rows = []
    for idx in indices:
        diff = simplify(ours.coeff(idx) - printed.coeff(idx))
        if diff == ZERO:
            rows.append({"index": idx, "match": True, "deviation": 0.0})
            continue
        dev, _, _ = _symbolic_or_sampled_zero([diff], spec)
        rows.append({"index": idx, "match": dev <= 1e-12, "deviation": dev})
    return rows


# --- closed-form mode solutions ----------------------------------------------

def mode_solution_h3(mu, nu, energy, kind="Ai") -> Expr:
    """Airy-profile plane-wave mode for the Heisenberg Laplacian.

    exp(i mu x2 + i nu x3) * Airy(kind, (2 nu^2 x1 + 2 mu nu + E)/(2 nu^2)^(2/3)).
    mu, nu, energy may be exact rationals or expression atoms; a numeric nu
    must be nonzero.  The Bi-branch profile is constructible but grows as
    x1 -> +infinity, so decaying-solution checks use the default Ai branch.
    """
    mu = ex.as_expr(mu)
    nu = ex.as_expr(nu)
    energy = ex.as_expr(energy)
    if isinstance(nu, ex.Const) and nu.value == 0:
        raise ModelParameterError("mode requires nu != 0")
    if kind not in ("Ai", "Bi"):
        raise ModelParameterError("mode kind must be 'Ai' or 'Bi'")
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    two_nu2 = 2 * nu * nu
    arg = (two_nu2 * x1 + 2 * mu * nu + energy) * Power(two_nu2, Fraction(-2, 3))
    return simplify(Exp(I * mu * x2 + I * nu * x3) * ex.Airy(kind, arg))


def pde_residual(model, psi: Expr, energy, samples) -> ResidualReport:
    """`operator_residual` of the model's Laplacian on an expression field:
    max |Delta psi - E psi| / max(|psi|, 1e-12) over sample points, with
    Delta psi cross-checked against step-0.02 stencils at the first 10."""
    return operator_residual(model.laplacian, psi, energy, samples, fd_step=0.02)


# --- generalized inverse transform (Heisenberg) -------------------------------

@dataclass(frozen=True)
class QuadSpec2D:
    """Tensor Gauss-Legendre spec over a (k, J) support box."""

    box: tuple  # ((k_lo, k_hi), (J_lo, J_hi))
    n: int = 48


class _GftGrid:
    """The inverse-GFT quadrature at one node count: nodes, weighted
    amplitude and Airy rows, shared by `inverse_gft_h3` and its evaluator.

    base = w phi_hat(k, J) (2 J^2)^(1/3) / (2 pi)^2 on the tensor
    Gauss-Legendre grid of the (k, J) box; a row is base times Ai of the
    kernel argument at one x1.
    """

    def __init__(self, phi_hat, energy, box, n):
        (k_lo, k_hi), (j_lo, j_hi) = box
        if j_lo <= 0.0 <= j_hi:
            raise SingularMeasureError("spectral support must exclude J = 0")
        self.e_val = float(energy)
        k, wk = gl_nodes(n, float(k_lo), float(k_hi))
        j, wj = gl_nodes(n, float(j_lo), float(j_hi))
        self.kg, self.jg = np.meshgrid(k, j, indexing="ij")
        amp = np.asarray(phi_hat(self.kg, self.jg), dtype=complex)
        self.two_j2 = 2.0 * self.jg * self.jg
        self.kj2 = 2.0 * self.kg * self.jg
        self.scale = self.two_j2 ** (2.0 / 3.0)
        self.base = (np.outer(wk, wj) * amp * self.two_j2 ** (1.0 / 3.0)
                     / (2.0 * np.pi) ** 2)

    def rows(self, x1s):
        """base * Ai((2 J^2 x1 + 2 k J + E)/(2 J^2)^(2/3)) for each x1, from
        one `airy_array` call; shape (len(x1s), n, n)."""
        x1 = np.asarray(x1s, dtype=float).reshape(-1, 1, 1)
        arg = (self.two_j2 * x1 + self.kj2 + self.e_val) / self.scale
        return self.base * airy_array("Ai", arg)

    def value(self, row, x2, x3):
        return np.sum(row * np.exp(1j * (self.kg * x2 + self.jg * x3)))


def inverse_gft_h3(phi_hat, energy, x_points, quad_spec: QuadSpec2D):
    """Superpose Airy-kernel modes against a spectral amplitude.

    psi(x) = (2 pi)^-2 * iint dk dJ (2 J^2)^(1/3) phi_hat(k, J)
             * Ai((2 J^2 x1 + 2 k J + E)/(2 J^2)^(2/3)) * exp(i k x2 + i J x3)

    phi_hat is a callable on (k, J) grids, supported inside quad_spec.box,
    which must stay away from J = 0.  Returns a complex array over x_points.
    """
    xs = [tuple(float(c) for c in p) for p in x_points]
    x1s = sorted({p[0] for p in xs})
    grid = _GftGrid(phi_hat, energy, quad_spec.box, quad_spec.n)
    rows = dict(zip(x1s, grid.rows(x1s)))
    return np.array([grid.value(rows[x1], x2, x3) for x1, x2, x3 in xs],
                    dtype=complex)


def inverse_gft_h3_evaluator(phi_hat, energy, quad_spec: QuadSpec2D):
    """Pointwise evaluator x -> psi(x) over fixed quadrature nodes.

    Suits finite-difference probing: repeated x1 values reuse their Airy row
    via an internal cache, so stencil clouds cost little beyond the first
    evaluation at each x1.
    """
    grid = _GftGrid(phi_hat, energy, quad_spec.box, quad_spec.n)
    cache = {}

    def psi(point):
        x1, x2, x3 = (float(c) for c in point)
        if x1 not in cache:
            cache[x1] = grid.rows([x1])[0]
        return complex(grid.value(cache[x1], x2, x3))

    return psi


def pde_residual_field(model, psi, energy, samples, fd_step=0.05) -> ResidualReport:
    """`operator_residual` of the model's Laplacian on a sampled field.

    psi is a callable on coordinate tuples; the Laplacian is applied through
    4th-order stencils, so the reported residual carries the O(h^4)
    truncation of smooth fields on top of any model error.
    """
    return operator_residual(model.laplacian, psi, energy, samples, fd_step=fd_step)


def mode_superposition_h3(amplitude, energy, x_points, quad_spec: QuadSpec2D):
    """Direct superposition of closed-form modes with amplitude A(mu, nu).

    Same double quadrature as inverse_gft_h3 but routed through the symbolic
    mode solution; under A(mu,nu) = (2 nu^2)^(1/3)/(2 pi)^2 phi_hat(mu, nu)
    the two agree pointwise.
    """
    (k_lo, k_hi), (j_lo, j_hi) = quad_spec.box
    if j_lo <= 0.0 <= j_hi:
        raise SingularMeasureError("spectral support must exclude nu = 0")
    mode = mode_solution_h3(Var("mu"), Var("nu"), ex.as_expr(energy))
    f_mode = ex.compile_expr(mode, ["mu", "nu", "x1", "x2", "x3"])
    k, wk = gl_nodes(quad_spec.n, float(k_lo), float(k_hi))
    j, wj = gl_nodes(quad_spec.n, float(j_lo), float(j_hi))
    out = []
    for (x1, x2, x3) in x_points:
        acc = 0j
        for ki, wki in zip(k, wk):
            for ji, wji in zip(j, wj):
                acc += wki * wji * amplitude(ki, ji) * f_mode(
                    ki, ji, float(x1), float(x2), float(x3))
        out.append(acc)
    return np.array(out)


def airy_identity_check(x, t) -> float:
    """|contour quadrature - Airy| for the cubic-phase Fourier identity."""
    if t == 0:
        raise ModelParameterError("identity needs t != 0")
    lhs = oscillatory_cubic_phase(float(x), float(t))
    s = (3.0 * abs(t)) ** (1.0 / 3.0)
    rhs = airy("Ai", math.copysign(1.0, t) * float(x) / s) / s
    return abs(lhs - rhs)


# --- scalar action of the center ---------------------------------------------

@dataclass(frozen=True)
class CasimirReport:
    element: int
    acts_as_scalar: bool
    values: dict


def casimir_scalar_check(model, element=3) -> CasimirReport:
    """Verify that a central basis element is represented by a constant.

    The element must be central in the algebra (errors otherwise); the report
    carries the scalar at representative parameter values.
    """
    L = model.algebra
    n = L.dim
    for j in range(1, n + 1):
        if any(c != 0 for c in L.bracket_basis(element, j)):
            raise ValueError(f"basis element {element} is not central")
    op = model.lrep.ops[element - 1]
    zero_idx = (0,) * model.lrep.dim_q
    coeff = op.coeff(zero_idx)
    acts_scalar = op.is_multiplication() and not (
        ex.free_vars(coeff) & set(model.lrep.q_vars)
    )
    values = {}
    if acts_scalar:
        fn = ex.compile_expr(coeff, ["J"])
        values = {jv: fn(float(jv)) for jv in model.lrep.j_values or (1, -1)}
    return CasimirReport(element=element, acts_as_scalar=acts_scalar, values=values)


# --- smeared kernel orthogonality --------------------------------------------

@dataclass(frozen=True)
class SmearedGaussian:
    """Gaussian test function on (q, q') in chart coordinates.

    For the Heisenberg model the coordinates are (q, q'); for the 4d model
    they are (q1, ln q2, q1', ln q2'), so the factor is smooth and rapidly
    decaying on the actual chart R x R+.
    """

    centers: tuple
    width: float = 0.35


def _gauss_overlap_1d(c1, w1, c2, w2):
    s2 = w1 * w1 + w2 * w2
    return math.sqrt(2.0 * math.pi * w1 * w1 * w2 * w2 / s2) * math.exp(
        -((c1 - c2) ** 2) / (2.0 * s2))


def _pair_inner_product(a: SmearedGaussian, b: SmearedGaussian):
    return math.prod(
        _gauss_overlap_1d(ca, a.width, cb, b.width)
        for ca, cb in zip(a.centers, b.centers)
    )


@dataclass(frozen=True)
class SmokeSpec:
    n_outer: int = 96
    n_inner: int = 64


_WINDOW = 3.0        # Heisenberg x3 window scale
_WINDOW_UV = 128.0   # 4d model x1/x2 window scales
_N_UV = 20           # 4d model u-window nodes (t is closed form)


def _smoke_heisenberg(a, b, j_val, jt_val, spec: SmokeSpec):
    wq_a, wq_b = a.width, b.width
    ca1, ca2 = a.centers
    cb1, cb2 = b.centers
    s3 = _WINDOW

    # x1 decay scale ~ sqrt(2)/(|J| w); x2 support from q'-q offsets
    sx1 = math.sqrt(2.0) / (min(abs(j_val), abs(jt_val)) * min(wq_a, wq_b))
    lx1 = 7.0 * sx1
    c_x2 = [ca2 - ca1, cb2 - cb1]
    lo_x2 = min(c_x2) - 7.0 * (wq_a + wq_b)
    hi_x2 = max(c_x2) + 7.0 * (wq_a + wq_b)
    q_lo = min(ca1, cb1, ca2, cb2) - 7.0 * max(wq_a, wq_b)
    q_hi = max(ca1, cb1, ca2, cb2) + 7.0 * max(wq_a, wq_b)

    def compute(n_outer, n_inner):
        x1, w1 = gl_nodes(n_outer, -lx1, lx1)
        x2, w2 = gl_nodes(n_outer, lo_x2, hi_x2)
        s, ws = gl_nodes(n_inner, q_lo, q_hi)

        # F(x1, x2) = int ds a(s - x2, s) e^{+i J s x1}
        # G(x1, x2) = int ds b(s - x2, s) e^{-i Jt s x1}
        phase_a = np.exp(1j * j_val * np.outer(s, x1))
        phase_b = np.exp(-1j * jt_val * np.outer(s, x1))
        total = 0j
        for x2v, w2v in zip(x2, w2):
            fa = np.exp(-((s - x2v - ca1) ** 2 + (s - ca2) ** 2)
                        / (2.0 * wq_a ** 2)) * ws
            fb = np.exp(-((s - x2v - cb1) ** 2 + (s - cb2) ** 2)
                        / (2.0 * wq_b ** 2)) * ws
            f_row = fa @ phase_a
            g_row = fb @ phase_b
            total += w2v * np.sum(w1 * f_row * g_row)
        return total

    coarse = compute(spec.n_outer, spec.n_inner)
    refined = compute(spec.n_outer * 2, spec.n_inner * 2)

    w3_hat = math.sqrt(2.0 * math.pi) * s3 * math.exp(
        -0.5 * (s3 * (jt_val - j_val)) ** 2)
    inner = _pair_inner_product(a, b)
    predicted = (2.0 * math.pi / abs(j_val)) * w3_hat * inner
    w3_hat0 = math.sqrt(2.0 * math.pi) * s3
    scale = (2.0 * math.pi / abs(j_val)) * w3_hat0 * math.sqrt(
        _pair_inner_product(a, a) * _pair_inner_product(b, b))
    conv = abs(refined - coarse) * w3_hat0 / scale
    dev = abs(w3_hat * refined - predicted) / scale
    return dev, conv, complex(w3_hat * refined), complex(predicted), scale


def _t_window_integral(t0, x3, q2t, st, s, jt_val, b, sw):
    """The t integral of the 4d pairing's tilde side, exactly.

    Along t the integrand is the nascent-delta window sqrt(2 pi) sw
    e^{-(sw t)^2/2} times b's Gaussian in qt1 = (t0 + t)/(Jt qt2) + qt2 x3/2
    times the phase e^{i x3 ((t0 + t) st - t0 s)}, which is
    e^{-A t^2 + B t + C} with A = sw^2/2 + (1/(Jt qt2 wb))^2 > 0; its
    integral over the line is sqrt(pi/A) e^{B^2/(4A) + C}.  The arguments
    broadcast against each other.
    """
    cb1, cbs, cb1p, _ = b.centers
    wb2 = b.width * b.width
    beta = 1.0 / (jt_val * q2t)
    d1 = t0 * beta + 0.5 * q2t * x3 - cb1          # qt1(t = 0) - cb1
    d2 = d1 + cb1 - q2t * x3 - cb1p                # qt1 - qt2 x3 - cb1p
    big_a = 0.5 * sw * sw + beta * beta / wb2
    big_b = 1j * x3 * st - beta * (d1 + d2) / wb2
    big_c = (1j * t0 * x3 * (st - s)
             - (d1 * d1 + d2 * d2 + (st - cbs) ** 2) / (2.0 * wb2))
    return (math.sqrt(2.0 * math.pi) * sw * np.sqrt(math.pi / big_a)
            * np.exp(big_b * big_b / (4.0 * big_a) + big_c))


def _smoke_g47(a, b, j_val, jt_val, spec: SmokeSpec):
    """The 4d-model pairing in collapsed coordinates.

    Chart coordinates are (q1, s = ln q2) on each side.  The x1 and x2 group
    integrals act on pure phases with coefficients u = Jt qt2^2 - J q2^2 and
    t = Tt - T (T the x2-phase rate (J q2/2)(2 q1 - q2 x3)); their Gaussian
    windows are nascent 2 pi deltas, so the tilde side is integrated in the
    narrow (u, t) window coordinates: t in closed form
    (`_t_window_integral`), u and the a-side chart (q1, s) with its x3 and x4
    boxes by quadrature.  The Haar weight e^{4 x4} cancels the x4 part of
    the twist Lambda(q2') = q2'^4 exactly, which this code uses.
    """
    if j_val != jt_val:
        # opposite orbits: the u-window never meets the physical
        # region q2^2 > 0, so the pairing is identically zero
        return 0.0, 0.0, 0j, 0j, 1.0
    # (q, x) node counts of the coarse and the refined pass
    passes = ((spec.n_inner // 2, spec.n_outer // 4),
              ((3 * spec.n_inner) // 4, spec.n_outer // 3))
    if not all(fine > coarse for coarse, fine in zip(*passes)):
        raise ModelParameterError(
            f"{spec} gives the 4d smoke test (q, x) node counts {passes[0]} "
            f"and {passes[1]}: the refined pass must add nodes on every axis")
    wa, wb = a.width, b.width
    ca1, cas, ca1p, casp = a.centers
    _, _, cb1p, cbsp = b.centers
    sw = _WINDOW_UV

    # mid grid over the a-side chart; the primed boxes use the a*b product
    # width (tails beyond ~6 sigma of the product are < 1e-15 of the peak)
    wc = wa * wb / math.sqrt(wa * wa + wb * wb)
    p_c = 0.5 * (ca1p + cb1p)
    p_half = 6.5 * wc + 0.5 * abs(ca1p - cb1p)
    sp_c = 0.5 * (casp + cbsp)
    sp_half = 6.5 * wc + 0.5 * abs(casp - cbsp)

    def compute(n_q, n_x):
        q1n, wq1 = gl_nodes(n_q, ca1 - 6.5 * wa, ca1 + 6.5 * wa)
        sn, wsn = gl_nodes(n_q, cas - 6.5 * wa, cas + 6.5 * wa)
        un, wun = gl_nodes(_N_UV, -6.0 / sw, 6.0 / sw)
        win_u = wun * math.sqrt(2.0 * math.pi) * sw * np.exp(-0.5 * (sw * un) ** 2)
        # arrays are laid out (s, u, x3 or x4)
        s = sn[:, None, None]
        q2 = np.exp(s)
        # a u node off the physical region qt2^2 > 0 gets measure 0
        q2t_sq = (un[:, None] + j_val * q2 * q2) / jt_val
        valid = q2t_sq > 1e-12
        q2t = np.sqrt(np.where(valid, q2t_sq, 1.0))
        st = np.log(q2t)
        # x4 shifts s -> s'; the Haar density e^{4 x4} cancels Lambda's
        # e^{-4 x4}, leaving qt2^4 over the Jacobian 2 qt2^3
        x4n, wx4 = gl_nodes(n_x, s - sp_c - sp_half, s - sp_c + sp_half)
        a4 = np.exp(-((s - x4n - casp) ** 2) / (2.0 * wa * wa))
        b_x4 = np.exp(-((st - x4n - cbsp) ** 2) / (2.0 * wb * wb))
        x4_sum = np.sum(wx4 * a4 * b_x4, axis=2, keepdims=True)
        # the q1-free factors: a's s Gaussian, the u window, measure, x4 sum
        weight = (wsn[:, None, None] * np.exp(-((s - cas) ** 2) / (2.0 * wa * wa))
                  * win_u[:, None] * np.where(valid, 0.5 * q2t, 0.0) * x4_sum)

        # the (s, u, x3) arrays go in equal s blocks of about 8192
        # elements, which bounds the memory their temporaries take
        n_blocks = -(-n_q * _N_UV * n_x // 8192)
        rows = -(-n_q // n_blocks)
        blocks = [slice(i, i + rows) for i in range(0, n_q, rows)]
        total = 0j
        for q1v, wq in zip(q1n, wq1):
            # x3 shifts q1 -> q1'
            x3n, wx3 = gl_nodes(n_x, (q1v - p_c - p_half) / q2,
                                (q1v - p_c + p_half) / q2)
            a3w = wx3 * np.exp(-((q1v - q2 * x3n - ca1p) ** 2) / (2.0 * wa * wa))
            t0 = 0.5 * j_val * q2 * (2.0 * q1v - q2 * x3n)
            a0 = math.exp(-((q1v - ca1) ** 2) / (2.0 * wa * wa))
            for k in blocks:
                over_t = _t_window_integral(t0[k], x3n[k], q2t[k], st[k], s[k],
                                            jt_val, b, sw)
                total += wq * a0 * np.sum(a3w[k] * over_t * weight[k])
        return total

    coarse, refined = (compute(*n) for n in passes)
    inner = _pair_inner_product(a, b)
    predicted = 2.0 * math.pi ** 2 * inner
    scale = 2.0 * math.pi ** 2 * math.sqrt(
        _pair_inner_product(a, a) * _pair_inner_product(b, b))
    conv = abs(refined - coarse) / scale
    dev = abs(refined - predicted) / scale
    return dev, conv, complex(refined), complex(predicted), scale


def kernel_orthogonality_smoke(model, test_pairs, spec: SmokeSpec | None = None):
    """Smeared orthogonality of the representation kernels.

    Each test pair is (a, b, J, Jt) with smooth Gaussian smearing factors;
    the group-direction phases whose sharp limits are delta functions are
    damped by wide Gaussian windows acting as nascent 2 pi deltas, the 4d
    model's t window is integrated in closed form, all remaining integrals
    are quadrature, and the result is compared against
    the sharp-limit prediction: (2 pi)^2/|J| <a,b> for the Heisenberg model
    (per unit window mass), 2 pi^2 <a,b> with the Lambda twist for the 4d
    model, and 0 for distinct spectral parameters, all at a tolerance of 1e-3.
    A J or Jt that is no spectral label of the model (`LambdaRep.check_j`)
    raises SpectralLabelError.
    """
    spec = spec or SmokeSpec()
    records = []
    for idx, (a, b, j_val, jt_val) in enumerate(test_pairs):
        dev, conv, measured, predicted, scale = model.smoke_scheme(
            a, b, model.lrep.check_j(float(j_val)),
            model.lrep.check_j(float(jt_val)), spec)
        if conv > 1e-3:
            status = INCONCLUSIVE
        else:
            status = PASS if dev <= 1e-3 else FAIL
        records.append(CheckRecord(
            check=f"kernel_orthogonality[{idx}]",
            status=status,
            max_residual=dev,
            detail={
                "J": j_val, "Jt": jt_val,
                "refinement_change": conv,
                "measured": [measured.real, measured.imag],
                "predicted": [predicted.real, predicted.imag],
                "scale": scale,
            },
        ))
    return records
