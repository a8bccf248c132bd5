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
first-order reduction, and smeared orthogonality.  Each builder lists the
checks that apply to its model, which `nclb model verify` runs in order.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import weakref
from fractions import Fraction
from numbers import Real

from . import expr as ex
from .algebra import (LieAlgebra, Subspace, g47_algebra, heisenberg_algebra,
                      jacobi_defect)
from .bilinear import BilinearForm, CoisotropyError, coisotropy_check, laplacian_data
from .diffop import (DiffOp, SampleSpec, apply, bracket_defects, commutator,
                     laplacian_image, relation_defects, sampled)
from .expr import Expr, Exp, I, Log, Power, Var, ZERO, simplify
from .quadrature import gl_nodes, oscillatory_cubic_phase
from .ratlinalg import frac
from .reduction import (LambdaRep, NotFirstOrderError, ResidualReport,
                        build_reduced, extract_first_order, local_lift_check,
                        operator_residual, verify_lambda_rep)
from .report import (DEFAULT_SEED, FAIL, INCONCLUSIVE, PASS, CheckRecord,
                     NclbError, VerificationError, overall_status, record, worst)


class ModelParameterError(NclbError, ValueError):
    pass


class SingularMeasureError(NclbError, ValueError):
    pass


class SmokeQuadratureError(NclbError, ArithmeticError):
    pass


@record
class CollapsedAction:
    """phi -> exp(i phase(q, x)) phi(substitutions(q, x))."""

    substitutions: tuple
    phase: Expr


@record
class KernelD:
    """Distributional kernel: delta constraints and phase.

    The kernel is exp(i phase) carried on the surface where every constraint
    vanishes; it is only ever used through `collapsed`, the action after the
    deltas have been integrated out.
    """

    delta_constraints: tuple
    phase: Expr
    collapsed: CollapsedAction


@record
class HaarData:
    left_density: Expr
    right_density: Expr


@record
class GroupModel:
    """A bundled group: coordinates, laws, frames, metric, and orbit data.

    mult_law/inverse_law are coordinate expressions of z(x, y) and x^{-1};
    dual_forms is the coframe matrix omega^i_j(x).  normalizer, flow_box
    (v, invariants u) and chart_domain are what `reduction_normalizer`,
    `rectifying_coordinates` and `chart_domain` return.  chart_domain is
    None or a predicate that takes one real coordinate tuple, or an (m, N)
    float array of N chart points, one per column, for which it returns a
    boolean array of shape (N,), each point's verdict, as
    `reduction.solve_reduced` calls it.  printed_laplacian is the long-hand
    coordinate expansion of the Laplacian, entered independently of the
    frame assembly so the two can be compared term by term; smoke_scheme
    computes one pairing of `kernel_orthogonality_smoke`.

    checks lists the records `nclb model verify` prints, in order, as
    (name, check) pairs; check(model, seed) returns the CheckRecord of that
    name.  mode_solution (mu, nu, E, kind) -> Expr builds one member of the
    model's closed-form mode family, and `mode_family` is that family as one
    expression in the symbols mu, nu and E per Airy kind; inverse_gft
    (phi_hat, E, QuadSpec2D) -> evaluator is its inverse generalized Fourier
    transform.  Each is None where the model has none.
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
    checks: tuple
    mode_solution: object
    inverse_gft: object

    @property
    def dim(self):
        return self.algebra.dim

    def x_sample_spec(self, n=50, seed=DEFAULT_SEED):
        return SampleSpec(ranges=dict(self.x_sample_ranges), n=n, seed=seed)

    @functools.cached_property
    def validations(self) -> dict:
        """seed -> the records of `validate_model(self, seed)`, filled as
        each seed is first validated; a copy made by `report.replace`
        validates afresh."""
        return {}

    @functools.cached_property
    def mode_family(self) -> dict | None:
        """kind -> `mode_solution` at the symbols mu, nu and E, for each of
        MODE_KINDS; None without a mode solution.  Built on first use."""
        if self.mode_solution is None:
            return None
        mu, nu, energy = Var("mu"), Var("nu"), Var("E")
        return {kind: self.mode_solution(mu, nu, energy, kind) for kind in MODE_KINDS}

    @functools.cached_property
    def mode_proofs(self) -> dict:
        """kind -> whether the Laplacian maps that `mode_family` member f to
        E f, symbolically; filled by `pde_residual` as each kind is first
        met."""
        return {}

    @functools.cached_property
    def laplacian(self) -> DiffOp:
        """`laplace_operator(self)`, assembled on first use and kept; a model
        built by `report.replace` assembles its own."""
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
        haar=HaarData(left_density=one, right_density=one),
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
        checks=_SHARED_CHECKS + (("casimir", _casimir),),
        mode_solution=mode_solution_h3,
        inverse_gft=inverse_gft_h3_evaluator,
    )


def _g47_model(alpha, beta) -> GroupModel:
    alpha, beta = _rational("alpha", alpha), _rational("beta", beta)
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
        haar=HaarData(left_density=Exp(4 * x4), right_density=ex.ONE),
        params={"alpha": alpha, "beta": beta},
        x_sample_ranges={v: (-1.2, 1.2) for v in xv},
        normalizer=simplify(2 * I * J * q2 * q2 * binv),
        flow_box=(v, (u,)),
        chart_domain=_g47_chart_domain,
        printed_laplacian=printed,
        smoke_scheme=_smoke_g47,
        checks=_SHARED_CHECKS + (("coisotropy", _coisotropy),),
        mode_solution=None,
        inverse_gft=None,
    )


def _g47_chart_domain(q):
    """The 4d orbit chart is q2 > 0, for one point or an array of columns."""
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
    """The orbit chart's domain predicate, on one real point or an array of
    them (`GroupModel`), or None if unconstrained."""
    return model.chart_domain


def chart_samples(model, n, seed=DEFAULT_SEED):
    """Seeded sample tuples drawn from the model's chart sampling box."""
    q_vars = model.lrep.q_vars
    ranges = {v: model.lrep.sample_ranges[v] for v in q_vars}
    return SampleSpec(ranges=ranges, n=n, seed=seed).points(q_vars)


def _rational(name, value):
    """The model parameter `name` as a Fraction (`ratlinalg.frac`); other
    text or types raise ModelParameterError naming the parameter."""
    try:
        return frac(value)
    except (TypeError, ValueError) as exc:
        raise ModelParameterError(f"g4_7 parameter {name}: {exc}") from None


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


def _jacobi_record(algebra):
    bad = jacobi_defect(algebra)
    return CheckRecord(
        check="jacobi", status=PASS if not bad else FAIL,
        max_residual=0.0 if not bad else 1.0,
        detail={"violations": [t for t, _ in bad]} if bad else {},
    )


def validate_model(model, seed=DEFAULT_SEED):
    """Jacobi, frame duality and the multiplication-law laws, as
    CheckRecords.  A model runs them once per seed and keeps the records
    (`GroupModel.validations`); a later call with that seed returns them
    again."""
    if seed not in model.validations:
        model.validations[seed] = tuple(_structural_records(model, seed))
    return list(model.validations[seed])


def _structural_records(model, seed):
    records = [_jacobi_record(model.algebra)]
    n = model.dim

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
    spec = model.x_sample_spec(n=40, seed=seed)
    mixed = (((i, j), commutator(xi, eta), DiffOp.zero(model.x_vars))
             for i, xi in enumerate(model.xi, 1) for j, eta in enumerate(model.eta, 1))
    families = {"left": bracket_defects(model.algebra, model.xi, spec, 1),
                "right": bracket_defects(model.algebra, model.eta, spec, -1),
                "mixed": relation_defects(mixed, spec)}
    devs, pairs, used, skipped = zip(*families.values())
    failing = [(fam, i, j) for fam, fam_pairs in zip(families, pairs) for i, j in fam_pairs]
    return [CheckRecord(
        check="invariant_frame_relations",
        status=PASS if not failing else FAIL,
        max_residual=worst(d for fam_devs in devs for d in fam_devs),
        samples_used=sum(used), seed=seed, skipped_samples=sum(skipped),
        detail={"relation_counts": {fam: len(d) for fam, d in zip(families, devs)},
                **({"failing": failing} if failing else {})},
    )]


def _det(rows):
    """The determinant of a small square matrix of expressions, given as a
    list of rows: Leibniz's signed sum over the permutations, in normal
    form (n <= 4 gives at most 24 products)."""
    n = len(rows)
    terms = []
    for p in itertools.permutations(range(n)):
        factors = tuple(rows[i][p[i]] for i in range(n))
        if ZERO not in factors:
            odd = sum(p[i] > p[j] for j in range(n) for i in range(j)) % 2
            terms.append(ex.Product((ex.MINUS_ONE if odd else ex.ONE,) + factors))
    return simplify(ex.Sum(tuple(terms)))


def haar_invariance_check(model, seed=DEFAULT_SEED):
    """The Haar densities against the multiplication law z = x.y:
    det(dz/dy) rho_L(z) = rho_L(y) for left translations, and
    det(dz/dx) rho_R(z) = rho_R(x) for right ones.  Each remainder is
    proved zero symbolically, or sampled over x and y in [-1, 1]."""
    n = model.dim
    x_names = list(model.x_vars)
    y_names = [f"y{i + 1}" for i in range(n)]
    at_z = dict(zip(x_names, model.mult_law))
    left, right = model.haar.left_density, model.haar.right_density
    spec = SampleSpec(ranges={v: (-1.0, 1.0) for v in x_names + y_names},
                      n=20, seed=seed)
    devs, used, skipped = {}, 0, 0
    for side, wrt, rho, untranslated in (
            ("left", y_names, left,
             ex.subst(left, {x: Var(y) for x, y in zip(x_names, y_names)})),
            ("right", x_names, right, right)):
        det = _det([[ex.differentiate(z, v) for v in wrt] for z in model.mult_law])
        devs[side], side_used, side_skipped = _symbolic_or_sampled_zero(
            [det * ex.subst(rho, at_z) - untranslated], spec)
        used += side_used
        skipped += side_skipped
    dev = worst(devs.values())
    return CheckRecord(
        check="haar_invariance", status=PASS if dev <= 1e-10 else FAIL,
        max_residual=dev, samples_used=used, seed=seed,
        skipped_samples=skipped,
        detail={**devs, "unimodular": all(
            model.algebra.ad_trace(j) == 0 for j in range(1, n + 1))},
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
    printed coordinate expansion; discrepancies are reported, not raised.
    A term that does not match symbolically is sampled, and its row counts
    the samples used and skipped."""
    ours = model.laplacian
    printed = model.printed_laplacian
    spec = model.x_sample_spec(n=40, seed=seed)
    indices = sorted(set(ours.coefficients) | set(printed.coefficients))
    rows = []
    for idx in indices:
        dev, used, skipped = _symbolic_or_sampled_zero(
            [ours.coeff(idx) - printed.coeff(idx)], spec)
        rows.append({"index": idx, "match": dev <= 1e-12, "deviation": dev,
                     "samples_used": used, "skipped_samples": skipped})
    return rows


# --- closed-form mode solutions ----------------------------------------------

MODE_KINDS = ("Ai", "Bi")
# member tree -> (builder, kind, exact E), while anything holds the tree
_MEMBERS = weakref.WeakKeyDictionary()


def _keep(memo, key, value, cap):
    """memo[key] = value, dropping the oldest entries beyond cap."""
    memo[key] = value
    while len(memo) > cap:
        del memo[next(iter(memo))]


def mode_solution_h3(mu, nu, energy, kind="Ai") -> Expr:
    """Airy-profile plane-wave mode for the Heisenberg Laplacian.

    exp(i mu x2 + i nu x3) * Airy(kind, (2 nu^2 x1 + 2 mu nu + E)/(2 nu^2)^(2/3)).
    mu, nu, energy may be exact rationals or expression atoms; a numeric nu
    must be nonzero.  The Bi-branch profile is constructible but grows as
    x1 -> +infinity, so decaying-solution checks use the default Ai branch.
    A member built at exact mu, nu and E is remembered, for `pde_residual`,
    while anything holds it.
    """
    mu = ex.as_expr(mu)
    nu = ex.as_expr(nu)
    energy = ex.as_expr(energy)
    if isinstance(nu, ex.Const) and nu.value == 0:
        raise ModelParameterError("mode requires nu != 0")
    if kind not in MODE_KINDS:
        raise ModelParameterError("mode kind must be 'Ai' or 'Bi'")
    x1, x2, x3 = Var("x1"), Var("x2"), Var("x3")
    two_nu2 = 2 * nu * nu
    arg = (two_nu2 * x1 + 2 * mu * nu + energy) * Power(two_nu2, Fraction(-2, 3))
    psi = simplify(Exp(I * mu * x2 + I * nu * x3) * ex.Airy(kind, arg))
    if all(isinstance(c, ex.Const) for c in (mu, nu, energy)):
        _MEMBERS[psi] = (mode_solution_h3, kind, energy.value)
    return psi


def _family_solves(model, kind):
    """Whether simplify(Delta f - E f) is 0 for the model's `mode_family`
    member f of this kind; proved once per model and kind."""
    proofs = model.mode_proofs
    if kind not in proofs:
        f = model.mode_family[kind]
        proofs[kind] = simplify(apply(model.laplacian, f) - Var("E") * f) == ZERO
    return proofs[kind]


def pde_residual(model, psi: Expr, energy, samples) -> ResidualReport:
    """`operator_residual` of the model's Laplacian on an expression field:
    max |Delta psi - E psi| / max(|psi|, 1e-12) over sample points, with
    Delta psi cross-checked against step-0.02 stencils at the first 10.

    A psi equal to a member that the model's `mode_solution` built at exact
    parameters, checked at that member's exact energy, is not
    differentiated: its family's identity is proved once per model and kind
    (`_family_solves`), so its residual is that proof's 0, and the report is
    the one the member's own proof gives.
    """
    member = _MEMBERS.get(psi) if isinstance(psi, Expr) else None
    proved = (member is not None and member[0] is model.mode_solution
              and isinstance(energy, (int, Fraction)) and energy == member[2]
              and _family_solves(model, member[1]))
    return operator_residual(model.laplacian, psi, energy, samples, fd_step=0.02,
                             proved=proved)


# --- generalized inverse transform (Heisenberg) -------------------------------

@record
class QuadSpec2D:
    """Tensor Gauss-Legendre spec over a (k, J) support box."""

    box: tuple  # ((k_lo, k_hi), (J_lo, J_hi))
    n: int = 48

    def __post_init__(self):
        if not _is_count(self.n):
            raise ModelParameterError(f"{self}: the node count must be a positive integer")
        if not _is_box(self.box):
            raise ModelParameterError(
                f"{self}: the box must be two (lo, hi) pairs of finite numbers with lo < hi")


def _is_count(n):
    """n is a positive int and not a bool."""
    return isinstance(n, int) and not isinstance(n, bool) and n > 0


def _is_box(box):
    """box is ((k_lo, k_hi), (J_lo, J_hi)) of finite reals, lo < hi."""
    try:
        (k_lo, k_hi), (j_lo, j_hi) = box
    except (TypeError, ValueError):
        return False
    bounds = (k_lo, k_hi, j_lo, j_hi)
    return (all(isinstance(v, Real) and math.isfinite(v) for v in bounds)
            and k_lo < k_hi and j_lo < j_hi)


class _GftGrid:
    """The inverse-GFT quadrature at one node count: nodes, weighted
    amplitude and a store of Airy rows.  `inverse_gft_h3_evaluator` is its
    one entry point; `inverse_gft_h3` is that evaluator's batch.

    base = w phi_hat(k, J) (2 J^2)^(1/3) / (2 pi)^2 on the tensor
    Gauss-Legendre grid of the (k, J) box; a row is base times Ai of the
    kernel argument at one x1.  The phase exp(i k x2 + i J x3) factors over
    the grid's two axes, so the value at a point is the separable sum
    e^{i k x2}^T . row . e^{i J x3} (`group`).  The grid keeps the last
    ROWS_KEPT rows it computed, by the exact float x1, for batches and
    single points alike.
    """

    ROW_BUDGET = 1 << 13  # Airy arguments per `airy_array` call
    ROWS_KEPT = 16  # rows the store keeps

    def __init__(self, phi_hat, energy, box, n):
        import numpy as np

        (k_lo, k_hi), (j_lo, j_hi) = box
        if j_lo <= 0.0 <= j_hi:
            raise SingularMeasureError("spectral support must exclude J = 0")
        self.e_val = float(energy)
        self.k, wk = gl_nodes(n, float(k_lo), float(k_hi))
        self.j, wj = gl_nodes(n, float(j_lo), float(j_hi))
        kg, jg = np.meshgrid(self.k, self.j, indexing="ij")
        amp = _on_nodes(phi_hat, kg, jg, "phi_hat").astype(complex)
        self.two_j2 = 2.0 * jg * jg
        self.kj2 = 2.0 * kg * jg
        self.scale = self.two_j2 ** (2.0 / 3.0)
        self.base = (np.outer(wk, wj) * amp * self.two_j2 ** (1.0 / 3.0)
                     / (2.0 * np.pi) ** 2)
        self.kept = {}  # x1 -> row, the last ROWS_KEPT computed

    def rows(self, x1s):
        """base * Ai((2 J^2 x1 + 2 k J + E)/(2 J^2)^(2/3)) for each x1, from
        one `airy_array` call; shape (len(x1s), n, n)."""
        import numpy as np

        from .airyfun import airy_array

        x1 = np.asarray(x1s, dtype=float).reshape(-1, 1, 1)
        arg = (self.two_j2 * x1 + self.kj2 + self.e_val) / self.scale
        return self.base * airy_array("Ai", arg)

    def stored_rows(self, x1s):
        """(index, row) of each distinct x1 of the list x1s: a stored row,
        else one computed in `rows` calls of at most ROW_BUDGET Airy
        arguments, and stored."""
        hits = [(i, self.kept[x1]) for i, x1 in enumerate(x1s) if x1 in self.kept]
        yield from hits
        todo = [i for i, x1 in enumerate(x1s) if x1 not in self.kept]
        chunk = max(1, self.ROW_BUDGET // self.base.size)
        for lo in range(0, len(todo), chunk):
            at = todo[lo:lo + chunk]
            for i, row in zip(at, self.rows([x1s[i] for i in at])):
                _keep(self.kept, x1s[i], row, self.ROWS_KEPT)
                yield i, row

    @staticmethod
    def group(e2, row, e3):
        """The separable sums of points that share one x1 row, from their
        phase rows e2 (e^{i k x2}) and e3 (e^{i J x3})."""
        return ((e2 @ row) * e3).sum(axis=1)

    @staticmethod
    def phase(xs, nodes):
        """e^{i nodes x} for each x of the distinct values xs, one row per x."""
        import numpy as np

        return np.exp(1j * np.multiply.outer(xs, nodes))

    def values(self, points):
        """psi at each point of an (m, 3) array; a point with a non-finite
        coordinate raises ModelParameterError naming it, before any Airy
        work.  The points are taken in
        x1 order, so each x1 is one slice of the phase rows, and each
        distinct x1's row (`stored_rows`) meets its slice in `group`: the
        cost is O(m n^2) over the rows' O(x1s n^2) Airy arguments."""
        import numpy as np

        pts = _finite_points(points)
        order = np.argsort(pts[:, 0], kind="stable")
        pts = pts[order]
        x1s, starts = np.unique(pts[:, 0], return_index=True)
        ends = np.append(starts[1:], len(pts))
        x2s, x2_at = np.unique(pts[:, 1], return_inverse=True)
        x3s, x3_at = np.unique(pts[:, 2], return_inverse=True)
        e2, e3 = self.phase(x2s, self.k)[x2_at], self.phase(x3s, self.j)[x3_at]
        out = np.empty(len(pts), dtype=complex)
        for i, row in self.stored_rows(x1s.tolist()):
            at = slice(starts[i], ends[i])
            out[order[at]] = self.group(e2[at], row, e3[at])
        return out


def _not_finite(point):
    return ModelParameterError(
        f"inverse GFT needs finite coordinates, got the point {tuple(point)}")


def _on_nodes(amplitude, kg, jg, name):
    """amplitude(kg, jg) as an array of the node grid's shape; a value that
    is not finite raises ModelParameterError naming its node, before any
    Airy work."""
    import numpy as np

    amp = np.broadcast_to(np.asarray(amplitude(kg, jg)), kg.shape)
    bad = ~np.isfinite(amp)
    if bad.any():
        raise ModelParameterError(f"inverse GFT needs a finite {name}, got "
                                  f"{amp[bad][0]} at the node ({kg[bad][0]}, {jg[bad][0]})")
    return amp


def _finite_points(points):
    """The list of points as an (m, 3) float array; a point with a
    non-finite coordinate raises ModelParameterError naming it."""
    import numpy as np

    pts = np.asarray(points, dtype=float).reshape(len(points), 3)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise _not_finite(pts[bad][0].tolist())
    return pts


def inverse_gft_h3(phi_hat, energy, x_points, quad_spec: QuadSpec2D):
    """Superpose Airy-kernel modes against a spectral amplitude.

    psi(x) = (2 pi)^-2 * iint dk dJ (2 J^2)^(1/3) phi_hat(k, J)
             * Ai((2 J^2 x1 + 2 k J + E)/(2 J^2)^(2/3)) * exp(i k x2 + i J x3)

    phi_hat is a callable on (k, J) grids, supported inside quad_spec.box,
    which must stay away from J = 0.  Returns a complex array over x_points;
    a phi_hat that is not finite on the node grid, or a point with a
    non-finite coordinate, raises ModelParameterError.
    """
    return inverse_gft_h3_evaluator(phi_hat, energy, quad_spec).batch(list(x_points))


def inverse_gft_h3_evaluator(phi_hat, energy, quad_spec: QuadSpec2D):
    """Pointwise evaluator x -> psi(x) over fixed quadrature nodes, with the
    batched entry psi.batch(points) -> values at an (m, 3) point array.

    A batch is `_GftGrid.values`, which computes the Airy rows of its
    distinct x1 values once, so a stencil cloud handed to `batch` costs one
    `airy_array` call.  A call is a batch of one point: the same phase
    rows and `_GftGrid.group` kernel give the same value bit for bit.
    Batches and calls share the grid's store of its last 16 rows, by the
    exact float x1, so a call at an x1 a batch or call has just computed
    makes no Airy call.  A phi_hat that is not finite on the node grid
    raises ModelParameterError when the evaluator is built, and a
    non-finite coordinate when it is called, before any Airy work.
    """
    grid = _GftGrid(phi_hat, energy, quad_spec.box, quad_spec.n)

    def psi(point):
        x1, x2, x3 = pt = tuple(map(float, point))
        if not all(map(math.isfinite, pt)):
            raise _not_finite(pt)
        ((_, row),) = grid.stored_rows([x1])
        return complex(grid.group(grid.phase([x2], grid.k), row,
                                  grid.phase([x3], grid.j))[0])

    psi.batch = grid.values
    return psi


def pde_residual_field(model, psi, energy, samples, fd_step=0.05) -> ResidualReport:
    """`operator_residual` of the model's Laplacian on a sampled field.

    psi is a callable on coordinate tuples (evaluated through psi.batch when
    it has one); the Laplacian is applied through 4th-order stencils, so the
    reported residual carries the O(h^4) truncation of smooth fields on top
    of any model error.
    """
    return operator_residual(model.laplacian, psi, energy, samples, fd_step=fd_step)


def mode_superposition_h3(amplitude, energy, x_points, quad_spec: QuadSpec2D):
    """Direct superposition of closed-form modes with amplitude A(mu, nu).

    Same double quadrature as inverse_gft_h3 but routed through the symbolic
    mode solution; under A(mu,nu) = (2 nu^2)^(1/3)/(2 pi)^2 phi_hat(mu, nu)
    the two agree pointwise.  The amplitude is called once, on the (mu, nu)
    node grids, as inverse_gft_h3 calls phi_hat; the Ai mode family, compiled
    once (`expr.compile_array`) with the energy bound, is evaluated over the
    whole node grid at every output point, as many points per call as keep
    it within `_GftGrid.ROW_BUDGET` Airy arguments.  An amplitude that is
    not finite on the node grid, or a point with a non-finite coordinate,
    raises ModelParameterError before any Airy work, as in inverse_gft_h3.
    """
    import numpy as np

    (k_lo, k_hi), (j_lo, j_hi) = quad_spec.box
    if j_lo <= 0.0 <= j_hi:
        raise SingularMeasureError("spectral support must exclude nu = 0")
    pts = _finite_points(list(x_points))
    mode = mode_solution_h3(Var("mu"), Var("nu"), Var("E"))
    f_mode = ex.compile_array(mode, ["mu", "nu", "x1", "x2", "x3"], bind={"E": energy})
    k, wk = gl_nodes(quad_spec.n, float(k_lo), float(k_hi))
    j, wj = gl_nodes(quad_spec.n, float(j_lo), float(j_hi))
    kg, jg = np.meshgrid(k, j, indexing="ij")
    weighted = (np.outer(wk, wj) * _on_nodes(amplitude, kg, jg, "amplitude")).ravel()
    nodes = weighted.size
    chunk = max(1, _GftGrid.ROW_BUDGET // nodes)
    out = np.empty(len(pts), dtype=complex)
    for lo in range(0, len(pts), chunk):
        at = pts[lo:lo + chunk]
        cols = [np.repeat(c, nodes) for c in at.T]
        vals, _ = f_mode(np.tile(kg.ravel(), len(at)), np.tile(jg.ravel(), len(at)), *cols)
        out[lo:lo + len(at)] = np.sum(weighted * vals.reshape(len(at), nodes), axis=1)
    return out


def airy_identity_check(x, t) -> float:
    """|contour quadrature - Airy| for the cubic-phase Fourier identity."""
    from .airyfun import airy

    if not (math.isfinite(x) and math.isfinite(t)):
        raise ModelParameterError(f"identity needs finite x and t, got x={x!r}, t={t!r}")
    if t == 0:
        raise ModelParameterError("identity needs t != 0")
    lhs = oscillatory_cubic_phase(float(x), float(t))
    s = (3.0 * abs(t)) ** (1.0 / 3.0)
    rhs = airy("Ai", math.copysign(1.0, t) * float(x) / s) / s
    return abs(lhs - rhs)


# --- scalar action of the center ---------------------------------------------

@record
class CasimirReport:
    acts_as_scalar: bool
    values: dict


def casimir_scalar_check(model, element=3) -> CasimirReport:
    """Verify that a central basis element is represented by a constant.

    The element, a basis index 1..dim, must be central in the algebra
    (ValueError otherwise); the report carries the scalar at representative
    parameter values.
    """
    L = model.algebra
    n = L.dim
    if not (isinstance(element, int) and 1 <= element <= n) or any(
            c != 0 for j in range(1, n + 1) for c in L.bracket_basis(element, j)):
        raise ValueError(f"basis element {element} is not central (the basis is "
                         f"e1..e{n})")
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
    return CasimirReport(acts_as_scalar=acts_scalar, values=values)


# --- the records of `nclb model verify` ---------------------------------------

def _aggregate(name, records):
    """One record for a family of subchecks: the worst figure, the summed
    counts, the seed they share, and the names of those that did not pass."""
    seeds = {r.seed for r in records if r.seed is not None}
    status = overall_status(records)
    return CheckRecord(
        check=name, status=status,
        max_residual=worst((r.max_residual or 0.0) for r in records),
        samples_used=sum(r.samples_used for r in records),
        seed=seeds.pop() if len(seeds) == 1 else None,
        skipped_samples=sum(r.skipped_samples for r in records),
        detail={"subchecks": [r.check for r in records if r.status != PASS]}
        if status != PASS else {},
    )


def _jacobi(model, seed):
    return _aggregate("jacobi", validate_model(model, seed=seed)[:1])


def _frames(model, seed):
    return _aggregate("frames", validate_model(model, seed=seed)[1:]
                      + invariant_frame_check(model, seed=seed))


def _lambda_rep(model, seed):
    return _aggregate("lambda_rep", verify_lambda_rep(model, seed=seed))


def _lift(model, seed):
    dev = worst([local_lift_check(model, i, seed=seed)
                 for i in range(1, model.dim + 1)])
    return CheckRecord(check="lift", status=PASS if dev <= 1e-12 else FAIL,
                       max_residual=dev, seed=seed)


def _reduced_first_order(model, seed):
    try:
        extract_first_order(build_reduced(model, verify=False), model.normalizer)
    except NotFirstOrderError as exc:
        return CheckRecord(check="reduced_first_order", status=FAIL,
                           detail={"error": str(exc)})
    return CheckRecord(check="reduced_first_order", status=PASS, max_residual=0.0)


def _coordinate_expansion(model, seed):
    rows = coordinate_expansion_report(model, seed=seed)
    bad = [row["index"] for row in rows if not row["match"]]
    return CheckRecord(
        check="coordinate_expansion", status=PASS if not bad else FAIL,
        max_residual=worst(row["deviation"] for row in rows),
        samples_used=sum(row["samples_used"] for row in rows), seed=seed,
        skipped_samples=sum(row["skipped_samples"] for row in rows),
        detail={"terms": len(rows), **({"mismatched": bad} if bad else {})},
    )


def _casimir(model, seed):
    """The centre e3 acts as i J."""
    cas = casimir_scalar_check(model, element=3)
    ok = cas.acts_as_scalar and all(
        abs(v - 1j * jv) <= 1e-12 for jv, v in cas.values.items())
    return CheckRecord(
        check="casimir", status=PASS if ok else FAIL,
        detail={"values": {str(k): [v.real, v.imag]
                           for k, v in cas.values.items()}},
    )


def _coisotropy(model, seed):
    rep = coisotropy_check(model.algebra, model.form, model.ideal)
    return CheckRecord(check="coisotropy", status=PASS if rep.verdict else FAIL,
                       detail={"verdict": rep.verdict})


# every bundled model runs these; each builder appends its own
_SHARED_CHECKS = (
    ("jacobi", _jacobi),
    ("frames", _frames),
    ("lambda_rep", _lambda_rep),
    ("lift", _lift),
    ("reduced_first_order", _reduced_first_order),
    ("haar_invariance", haar_invariance_check),
    ("coordinate_expansion", _coordinate_expansion),
)


# --- smeared kernel orthogonality --------------------------------------------

@record
class SmearedGaussian:
    """Gaussian test function on (q, q') in chart coordinates.

    For the Heisenberg model the coordinates are (q, q'); for the 4d model
    they are (q1, ln q2, q1', ln q2'), so the factor is smooth and rapidly
    decaying on the actual chart R x R+.
    """

    centers: tuple
    width: float = 0.35

    def __post_init__(self):
        if not (isinstance(self.centers, (tuple, list))
                and all(isinstance(c, Real) and math.isfinite(c) for c in self.centers)):
            raise ModelParameterError(f"{self}: the centres must be a sequence of "
                                      "finite numbers")
        # a tuple, so the frozen record hashes and equals its tuple twin
        object.__setattr__(self, "centers", tuple(self.centers))
        # past these bounds the square or the inverse square of the width
        # leaves the finite positive doubles
        if not (isinstance(self.width, Real) and 1e-154 <= self.width <= 1e154):
            raise ModelParameterError(f"{self}: the width must be a number in "
                                      "[1e-154, 1e154]")


def _gauss_overlap_1d(c1, w1, c2, w2):
    """The integral over the line of e^{-(x - c1)^2/(2 w1^2)} e^{-(x -
    c2)^2/(2 w2^2)}; the centres may be arrays."""
    import numpy as np

    s2 = w1 * w1 + w2 * w2
    return math.sqrt(2.0 * math.pi * w1 * w1 * w2 * w2 / s2) * np.exp(
        -((c1 - c2) ** 2) / (2.0 * s2))


def _pair_inner_product(a: SmearedGaussian, b: SmearedGaussian):
    if len(a.centers) != len(b.centers):
        raise ModelParameterError(f"{a} and {b}: the centre counts "
                                  f"{len(a.centers)} and {len(b.centers)} differ")
    return float(math.prod(
        _gauss_overlap_1d(ca, a.width, cb, b.width)
        for ca, cb in zip(a.centers, b.centers)
    ))


@record
class SmokeSpec:
    """The s node counts of the 4d smoke test's passes (`_smoke_g47`, at
    the sharp limit; s is its one rule): `n_inner` for the coarse pass, on
    +-6.5 widths of a's s Gaussian, and `n_outer` > n_inner for the refined
    one, on +-8 widths.  The Heisenberg smoke test is closed form and reads
    neither.
    """
    n_outer: int = 96
    n_inner: int = 64

    def __post_init__(self):
        if not (_is_count(self.n_outer) and _is_count(self.n_inner)):
            raise ModelParameterError(f"{self}: the node counts must be positive integers")


_WINDOW = 3.0        # Heisenberg x3 window scale


def _smoke_heisenberg(a, b, j_val, jt_val, spec: SmokeSpec):
    """The Heisenberg pairing, in closed form: the x3 window and the s, x1
    and x2 integrals.

    Side a's integral over s is F(x1, x2) = int ds a(s - x2, s) e^{i J s x1},
    with a(q, q') = e^{-((q - c1)^2 + (q' - c2)^2)/(2 w^2)}.  Its exponent is
    -A s^2 + B s + C with A = 1/w^2, B = (x2 + c1 + c2)/w^2 + i J x1 and
    C = -((x2 + c1)^2 + c2^2)/(2 w^2), so F = `_gaussian_line_integral(A, B,
    C)`, and that splits exactly into factors of x2, of x1 and of both:

        F = sqrt(pi) w e^{-(x2 + c1 - c2)^2/(4 w^2)}
            e^{i J (c1 + c2) x1/2 - (J w x1)^2/4} e^{i J x1 x2/2}.

    Side b's G is the same with b's width and centres and J -> -Jt, so

        F G = pi w_a w_b f2(x2) f1(x1) e^{i kappa x1 x2},  kappa = (J - Jt)/2,

    with f1 = e^{i alpha x1 - beta x1^2}, alpha = (J (ca1 + ca2) - Jt (cb1 +
    cb2))/2, beta = ((J w_a)^2 + (Jt w_b)^2)/4, and f2 = e^{-(x2 + d_a)^2/(4
    w_a^2) - (x2 + d_b)^2/(4 w_b^2)}, d = c1 - c2 of each side.  The x1
    integral of f1 e^{i kappa x1 x2} is sqrt(pi/beta) e^{-(alpha + kappa
    x2)^2/(4 beta)}, and times f2 that is e^{-A x2^2 + B x2 + C} with real
    A, B and C, one more `_gaussian_line_integral`.  A beta or an A that
    is not finite and > 0 (a J or Jt so small or so large that its square
    under- or overflows) raises SmokeQuadratureError.  No rule is refined,
    so the refinement change is 0.0, and `spec` is not read.
    """
    wa, wb = a.width, b.width
    ca1, ca2 = a.centers
    cb1, cb2 = b.centers

    # products, not powers: a float ** that overflows raises OverflowError
    alpha = 0.5 * (j_val * (ca1 + ca2) - jt_val * (cb1 + cb2))
    ja, jb = j_val * wa, jt_val * wb
    beta = 0.25 * (ja * ja + jb * jb)
    kappa = 0.5 * (j_val - jt_val)
    da, db = ca1 - ca2, cb1 - cb2
    qa, qb = 0.25 / (wa * wa), 0.25 / (wb * wb)
    big_a = qa + qb + kappa * kappa / (4.0 * beta) if beta > 0 else math.nan
    if not (0 < beta < math.inf and 0 < big_a < math.inf):
        raise SmokeQuadratureError(
            f"J = {j_val!r}, Jt = {jt_val!r}: the x1 and x2 Gaussian rates "
            f"{beta!r} and {big_a!r} must be finite and > 0")
    over_x2 = _gaussian_line_integral(
        big_a,
        -(2.0 * (da * qa + db * qb) + alpha * kappa / (2.0 * beta)),
        -(da * da * qa + db * db * qb + alpha * alpha / (4.0 * beta)))

    w3_hat0 = math.sqrt(2.0 * math.pi) * _WINDOW
    gap = _WINDOW * (jt_val - j_val)
    w3_hat = w3_hat0 * math.exp(-0.5 * gap * gap)
    measured = complex(w3_hat * math.pi * wa * wb * math.sqrt(math.pi / beta)
                       * over_x2)
    predicted = (2.0 * math.pi / abs(j_val)) * w3_hat * _pair_inner_product(a, b)
    scale = (2.0 * math.pi / abs(j_val)) * w3_hat0 * math.sqrt(
        _pair_inner_product(a, a) * _pair_inner_product(b, b))
    dev = abs(measured - predicted) / scale
    return dev, 0.0, measured, complex(predicted), scale


def _t_exponent(q2, s, j_val, b):
    """b's Gaussian, less its x4 factor, at the 4d pairing's sharp limit u
    = t = 0, as the (e_c, e_q, e_qq, e_e, e_ee, e_qe) coefficients of its
    exponent in q1 and eta = q2 x3 - q1: e_c + e_q q1 + e_qq q1^2 + e_e eta
    + e_ee eta^2 + e_qe q1 eta.

    There qt2 = q2, st = s and qt1 = t0/(J q2) + q2 x3/2, with t0 = (J
    q2/2)(2 q1 - q2 x3) and x3 = (q1 + eta)/q2, so qt1 - cb1 and qt1' - cb1'
    = qt1 - q2 x3 - cb1' are linear in q1 and eta.  The map gives qt1 = q1
    and qt1' = -eta up to rounding; it is taken as it stands, so that a
    wrong chart map would show in the deviation.  The arguments broadcast.
    """
    def times(l, m):
        # the (1, q1, q1^2, eta, eta^2, q1 eta) coefficients of l m
        return (l[0] * m[0], l[0] * m[1] + l[1] * m[0], l[1] * m[1],
                l[0] * m[2] + l[2] * m[0], l[2] * m[2], l[1] * m[2] + l[2] * m[1])

    cb1, cbs, cb1p, _ = b.centers
    wb2 = b.width * b.width
    beta = 1.0 / (j_val * q2)
    # (q1 coefficient, eta coefficient) of t0 and of x3
    t0 = (0.5 * j_val * q2, -0.5 * j_val * q2)
    x3 = (1.0 / q2, 1.0 / q2)
    # (constant, q1 coefficient, eta coefficient) of d1 and d2
    d1 = (-cb1,) + tuple(t * beta + 0.5 * q2 * x for t, x in zip(t0, x3))
    d2 = (-cb1p,) + tuple(d - q2 * x for d, x in zip(d1[1:], x3))
    coeffs = [-(u + v) / (2.0 * wb2) for u, v in zip(times(d1, d1), times(d2, d2))]
    coeffs[0] -= (s - cbs) ** 2 / (2.0 * wb2)
    return tuple(coeffs)


def _gaussian_line_integral(big_a, big_b, big_c):
    """The integral over the real line of e^{-A x^2 + B x + C},
    sqrt(pi/A) e^{B^2/(4A) + C} (principal root), elementwise over real or
    complex numbers or arrays.  It converges only where Re A > 0; an A
    anywhere else, or a NaN, raises SmokeQuadratureError rather than give a
    divergent value."""
    import numpy as np

    if not np.all(big_a.real > 0):
        raise SmokeQuadratureError(
            "the Gaussian line integral needs Re A > 0; the smallest Re A "
            f"is {np.min(big_a.real)!r}")
    return np.sqrt(math.pi / big_a) * np.exp(big_b * big_b / (4.0 * big_a) + big_c)


def _smoke_g47(a, b, j_val, jt_val, spec: SmokeSpec):
    """The 4d-model pairing in collapsed coordinates, at the sharp limit.

    Chart coordinates are (q1, s = ln q2) on each side.  The x1 and x2 group
    integrals act on pure phases with coefficients u = Jt qt2^2 - J q2^2 and
    t = Tt - T (T the x2-phase rate (J q2/2)(2 q1 - q2 x3)), so each is a
    2 pi delta: the tilde side is taken at u = t = 0, where qt2 = q2, st = s
    and the x3 phase e^{i x3 t0 (st - s)} is 1, and the u measure q2/2 over
    x3's Jacobian q2 leaves 2 pi^2.  The Haar weight e^{4 x4} cancels the
    x4 part of the twist Lambda(q2') = q2'^4, so the x4 integral is the
    overlap of a's and b's x4 Gaussians (`_gauss_overlap_1d`).

    At fixed s, a's q1 and q1' = -eta Gaussians times b's (`_t_exponent`)
    are e^{-A1 q1^2 + (B1 + E_qe eta) q1 + C(eta)} with C quadratic.  The q1
    integral, `_gaussian_line_integral(A1, B1, C(0))`, leaves e^{-A2 eta^2
    + B2 eta} with A2 = E_qe^2/(4 A1) less the eta^2 coefficient of C and
    B2 = B1 E_qe/(2 A1) plus its eta coefficient, and the eta integral is
    `_gaussian_line_integral(A2, B2, 0)`: both exact, on whole lines.  Only
    s is a rule: n_inner nodes on +-6.5 widths of a's s Gaussian in the
    coarse pass and n_outer on +-8 in the refined one, so the refinement
    change covers both the node count and the box.
    """
    import numpy as np

    if not spec.n_outer > spec.n_inner:
        raise ModelParameterError(
            f"{spec} gives the 4d smoke test's refined pass {spec.n_outer} s nodes "
            f"and its coarse pass {spec.n_inner}: the refined pass must add nodes")
    scale = 2.0 * math.pi ** 2 * math.sqrt(
        _pair_inner_product(a, a) * _pair_inner_product(b, b))
    if j_val != jt_val:
        # opposite orbits: the u delta needs qt2^2 = J q2^2/Jt = -q2^2, which
        # no qt2 > 0 meets, so the pairing is exactly 0 by support
        return 0.0, 0.0, 0j, 0j, scale
    wa, wb = a.width, b.width
    ca1, cas, ca1p, casp = a.centers
    cbsp = b.centers[3]
    rate = 0.5 / (wa * wa)

    def compute(n_s, half):
        s, ws = gl_nodes(n_s, cas - half * wa, cas + half * wa)
        # the (q1, eta)-free factors: 2 pi from each delta times the u
        # measure over the x3 Jacobian, a's s Gaussian and the x4 overlap
        weight = (2.0 * math.pi ** 2 * ws * np.exp(-((s - cas) ** 2) / (2.0 * wa * wa))
                  * _gauss_overlap_1d(s - casp, wa, s - cbsp, wb))
        # a's Gaussians e^{-rate ((q1 - ca1)^2 + (eta + ca1p)^2)} times
        # e^{E(q1, eta)}
        e_c, e_q, e_qq, e_e, e_ee, e_qe = _t_exponent(np.exp(s), s, j_val, b)
        a_q = rate - e_qq
        b_q = e_q + 2.0 * rate * ca1
        over_q1 = _gaussian_line_integral(
            a_q, b_q, e_c - rate * (ca1 * ca1 + ca1p * ca1p))
        # completing the square in q1 leaves e^{-A eta^2 + B eta} times that
        over_eta = _gaussian_line_integral(
            rate - e_ee - e_qe * e_qe / (4.0 * a_q),
            e_e - 2.0 * rate * ca1p + b_q * e_qe / (2.0 * a_q), 0.0)
        return np.sum(weight * over_q1 * over_eta)

    coarse, refined = (float(compute(*n)) for n in ((spec.n_inner, 6.5),
                                                    (spec.n_outer, 8.0)))
    predicted = 2.0 * math.pi ** 2 * _pair_inner_product(a, b)
    conv = abs(refined - coarse) / scale
    dev = abs(refined - predicted) / scale
    return dev, conv, complex(refined), complex(predicted), scale


def kernel_orthogonality_smoke(model, test_pairs, spec: SmokeSpec | None = None):
    """Smeared orthogonality of the representation kernels.

    Each test pair is (a, b, J, Jt) with smooth Gaussian smearing factors.
    The group-direction phases whose sharp limits are delta functions are
    taken at that limit for the 4d model: its x1 and x2 integrals are exact
    2 pi deltas, its q1, x3 and x4 directions are closed form, and its s
    integral is quadrature on a coarse and a refined pass (`SmokeSpec`).
    Only the Heisenberg x3 phase keeps a wide Gaussian window, a nascent
    2 pi delta whose transform its prediction includes exactly.  The
    Heisenberg pairing is closed form in every direction, so its refinement
    change is 0.0 and `spec` is not read; a J or Jt whose square under- or
    overflows there raises SmokeQuadratureError.  The result is compared
    against the sharp-limit prediction: (2 pi)^2/|J| <a,b> for the
    Heisenberg model (per unit window mass), 2 pi^2 <a,b> with the Lambda
    twist for the 4d model, and 0 for distinct spectral parameters, all at
    a tolerance of 1e-3.
    A J or Jt that is no spectral label of the model (`LambdaRep.check_j`)
    raises SpectralLabelError.  A record whose refinement change between
    the coarse and the refined pass exceeds 1e-3, or is not finite, is
    inconclusive; a non-finite deviation, measured or predicted value or
    scale fails.  A record with J != Jt whose prediction exceeds 1e-3 of
    the scale is inconclusive too, with a "reason" in its detail: the
    Heisenberg x3 window still weighs the gap, so the pairing is not the
    sharp limit there (for pairs of overlap near 1, a gap |J - Jt| below
    about 1.2).
    """
    spec = spec or SmokeSpec()
    n_centers = 2 * model.lrep.dim_q
    records = []
    for idx, (a, b, j_val, jt_val) in enumerate(test_pairs):
        for g in (a, b):
            if len(g.centers) != n_centers:
                raise ModelParameterError(
                    f"{g}: the {model.name} smoke test needs {n_centers} centres, "
                    "one per chart coordinate of (q, q')")
        j_lab, jt_lab = (model.lrep.check_j(float(j)) for j in (j_val, jt_val))
        dev, conv, measured, predicted, scale = model.smoke_scheme(
            a, b, j_lab, jt_lab, spec)
        detail = {
            "J": j_val, "Jt": jt_val,
            "refinement_change": conv,
            "measured": [measured.real, measured.imag],
            "predicted": [predicted.real, predicted.imag],
            "scale": scale,
        }
        # finiteness first: every comparison with a NaN is False
        if not all(map(cmath.isfinite, (dev, measured, predicted, scale))):
            status = FAIL
        elif not (math.isfinite(conv) and conv <= 1e-3):
            status = INCONCLUSIVE
        elif j_lab != jt_lab and abs(predicted) > 1e-3 * scale:
            # the sharp-limit prediction is the pairing only at J = Jt
            status = INCONCLUSIVE
            detail["reason"] = ("the window still weighs the gap J - Jt, so the "
                                "sharp-limit prediction does not hold here")
        else:
            status = PASS if dev <= 1e-3 else FAIL
        records.append(CheckRecord(
            check=f"kernel_orthogonality[{idx}]",
            status=status,
            max_residual=dev,
            detail=detail,
        ))
    return records
