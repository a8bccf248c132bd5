"""The checks a user runs, one function per verdict kind.

Imported only inside the worker process, which has the program on its path.
Every call into the program goes through a module attribute
(``models.pde_residual``, not a name imported once), so a traced run sees
the calls the tracer has wrapped.  Each function returns a JSON-ready dict
with the program's ``status`` ("pass" or "fail") and the values the
harness compares against the independent references.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from nclb import expr, models, reduction


def _c(z):
    return [float(z.real), float(z.imag)]


class Session:
    """Models and reduced operators a user builds once and checks against."""

    def __init__(self, model_names):
        self.models = {name: models.load_model(name) for name in model_names}
        self._reduced = {}

    def reduced(self, name):
        if name not in self._reduced:
            model = self.models[name]
            raw = reduction.build_reduced(model, verify=False)
            if name == "heisenberg":
                norm = 2 * expr.I * expr.Var("J")
            else:
                norm = models.reduction_normalizer(model)
            self._reduced[name] = reduction.extract_first_order(raw, norm)
        return self._reduced[name]


def _gaussian_phi(p):
    k0, j0, sig = p["k0"], p["j0"], p["sigma"]

    def phi(k, j):
        return np.exp(-((k - k0) ** 2 + (j - j0) ** 2) / (2.0 * sig * sig))

    return phi


def gft(session, v):
    """Inverse-GFT reconstruction: PDE residual of the field, and the kernel
    transform against the direct superposition of closed-form modes."""
    h3 = session.models["heisenberg"]
    phi = _gaussian_phi(v["phi"])
    energy = Fraction(v["E"])
    spec = models.QuadSpec2D(box=tuple(map(tuple, v["box"])), n=v["n"])
    grid = [tuple(p) for p in v["grid"]]
    ev = models.inverse_gft_h3_evaluator(phi, float(energy), spec)
    rep = models.pde_residual_field(h3, ev, float(energy), grid,
                                    fd_step=v["fd_step"])
    field = [ev(p) for p in grid]

    def amp(mu, nu):
        return (2 * nu * nu) ** (1.0 / 3.0) / (2 * math.pi) ** 2 * phi(mu, nu)

    pts = [tuple(p) for p in v["sup_points"]]
    direct = models.mode_superposition_h3(amp, energy, pts, spec)
    via = models.inverse_gft_h3(phi, float(energy), pts, spec)
    agree = float(np.max(np.abs(direct - via)) / np.max(np.abs(direct)))
    ok = rep.max_residual <= 1e-3 and agree <= 1e-6
    return {"status": "pass" if ok else "fail",
            "residual": rep.max_residual, "agreement": agree,
            "field": [_c(z) for z in field],
            "direct": [_c(z) for z in direct],
            "via_kernel": [_c(z) for z in via]}


def mode(session, v):
    """PDE residual of a closed-form Airy mode, and its values on the grid."""
    h3 = session.models["heisenberg"]
    mu, nu, energy = Fraction(v["mu"]), Fraction(v["nu"]), Fraction(v["E"])
    psi = models.mode_solution_h3(mu, nu, energy)
    grid = [tuple(p) for p in v["grid"]]
    rep = models.pde_residual(h3, psi, energy, grid)
    f_psi = expr.compile_expr(psi, list(h3.x_vars))
    values = [f_psi(*p) for p in grid]
    return {"status": "pass" if rep.max_residual <= 1e-8 else "fail",
            "residual": rep.max_residual,
            "fd_cross_deviation": rep.fd_cross_deviation,
            "values": [_c(z) for z in values]}


def flow_h3(session, v):
    """Characteristic solution on the Heisenberg chart against the closed
    form exp(-i J q^3/6 - i E q/(2 J)), whose reduced residual is exact."""
    red = session.reduced("heisenberg")
    q, J, E = expr.Var("q"), expr.Var("J"), expr.Var("E")
    closed = expr.Exp(-expr.I * J * q ** 3 / Fraction(6)
                      - expr.I * E * q * expr.Power(J, -1) / Fraction(2))
    params = {"J": v["J"]}
    rep = reduction.reduced_residual(red, closed, v["E"], [(-1.0,), (0.5,)],
                                     params=params)
    targets = [(t,) for t in v["targets"]]
    vals, chars = reduction.solve_reduced(
        red.first_order.Z, red.first_order.V, v["E"], lambda u, p: 1.0,
        targets, v["step"], v=q, u=(), v_ref=0.0, params=params)
    f_closed = expr.compile_expr(closed, ["q", "J", "E"])
    sup = max(abs(z - f_closed(t[0], v["J"], v["E"]))
              for z, t in zip(vals, targets))
    ok = rep.max_residual == 0.0 and sup <= 1e-8
    return {"status": "pass" if ok else "fail", "sup": sup,
            "steps": sum(len(c.ts) - 1 for c in chars),
            "values": [_c(z) for z in vals]}


def flow_g47(session, v):
    """Characteristic solution on the 4d chart, probed by the reduced
    operator's 4th-order stencils.

    Every characteristic takes the same number of RK4 steps, so the work
    does not depend on where the drawn samples fall.  The residual gate is
    1e-4: at fd_step 2e-3 the stencil truncation alone is ~2e-6.
    """
    g47 = session.models["g4_7"]
    red = session.reduced("g4_7")
    v_expr, u_exprs = models.rectifying_coordinates(g47)
    v_fn = expr.compile_expr(v_expr, ["q1", "q2"])
    params = {"J": v["J"]}
    domain = models.chart_domain(g47)
    seen = {}
    steps = []

    def phi(u, _p):
        return cmath.exp(-abs(u[0]) ** 2 / 4.0)

    def psi(qt):
        t_end = v["v_ref"] - v_fn(*qt).real
        out, chars = reduction.solve_reduced(
            red.first_order.Z, red.first_order.V, v["E"], phi, [qt],
            abs(t_end) / v["steps"], v=v_expr, u=u_exprs, v_ref=v["v_ref"],
            params=params, domain=domain)
        steps.append(len(chars[0].ts) - 1)
        seen[qt] = out[0]
        return out[0]

    samples = [tuple(s) for s in v["samples"]]
    rep = reduction.reduced_residual(red, psi, v["E"], samples, params=params,
                                     fd_step=v["fd_step"])
    return {"status": "pass" if rep.max_residual <= 1e-4 else "fail",
            "residual": rep.max_residual, "steps": sum(steps),
            "values": [_c(seen[s]) for s in samples]}


def smoke(session, v):
    """Smeared kernel orthogonality on the same and the opposite orbit."""
    model = session.models[v["model"]]
    a = models.SmearedGaussian(centers=tuple(v["a"]["centers"]),
                               width=v["a"]["width"])
    b = models.SmearedGaussian(centers=tuple(v["b"]["centers"]),
                               width=v["b"]["width"])
    spec = models.SmokeSpec(**v["spec"]) if v["spec"] else None
    j = v["J"]
    recs = models.kernel_orthogonality_smoke(model, [(a, b, j, j), (a, b, j, -j)],
                                             spec=spec)
    return {"status": "pass" if all(r.passed for r in recs) else "fail",
            "records": [{"status": r.status, "deviation": float(r.max_residual),
                         "measured": r.detail["measured"],
                         "predicted": r.detail["predicted"],
                         "scale": r.detail["scale"]} for r in recs]}


RUNNERS = {"gft": gft, "mode_series": mode, "mode_moderate": mode,
           "mode_deep": mode, "flow_h3": flow_h3, "flow_g47": flow_g47,
           "smoke_h3": smoke, "smoke_g47": smoke}
