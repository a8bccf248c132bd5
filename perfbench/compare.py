"""Compare each verdict's outputs with the independent references.

``compare(verdict, output, files)`` returns a list of comparisons
``(label, ok, detail)``.  A verdict fails when it raised, when the
program's own status is not pass, or when any comparison disagrees.
Tolerances are set from the program's documented accuracy, far above the
rounding differences between two correct evaluations.
"""

from __future__ import annotations

import csv
import json
import os
from fractions import Fraction

import numpy as np

import reference as ref

FIELD_RTOL = 1e-9        # Airy fields: program accuracy ~1e-10 relative
FLOW_H3_TOL = 1e-8       # characteristic solution vs closed form (c07)
FLOW_G47_RTOL = 1e-7     # RK4 at ~1e-3 steps vs DOP853 at rtol 1e-12
SMOKE_TOL = 1e-3         # sharp-limit prediction vs smeared quadrature (c12)
DEEP_XCHECK_TOL = 1e-10  # scipy vs mpmath for Ai near x = -220


def _cplx(pairs):
    return np.array([complex(a, b) for a, b in pairs])


def _close(label, got, want, tol, scale=1.0):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale
    return (label, bool(err <= tol), f"{err:.2e} (tol {tol:.0e})")


def _status(output):
    ok = output.get("status") == "pass"
    return ("program status", ok, output.get("error") or output.get("status"))


def _gft(v, out, files):
    phi = ref.gaussian_amplitude(v["phi"])
    energy = float(Fraction(v["E"]))
    field = ref.inverse_gft(phi, energy, v["box"], v["n"], v["grid"])
    sup = ref.inverse_gft(phi, energy, v["box"], v["n"], v["sup_points"])
    scale = float(np.max(np.abs(field)))
    return [_close("evaluator field", _cplx(out["field"]), field, FIELD_RTOL, scale),
            _close("kernel transform", _cplx(out["via_kernel"]), sup, FIELD_RTOL, scale),
            _close("mode superposition", _cplx(out["direct"]), sup, FIELD_RTOL, scale)]


def _mode(v, out, files):
    mu, nu, energy = (float(Fraction(v[k])) for k in ("mu", "nu", "E"))
    want = ref.mode_values(mu, nu, energy, v["grid"])
    scale = float(np.max(np.abs(want)))
    rows = [_close("mode values", _cplx(out["values"]), want, FIELD_RTOL, scale)]
    if v["band"] == "deep":
        # scipy itself is checked against mpmath where the program fails
        z = ref.mode_argument(mu, nu, energy, [p[0] for p in v["grid"][::12]])
        rows.append(_close("scipy vs mpmath Ai", ref.ai(z),
                           [ref.ai_mpmath(x) for x in z], DEEP_XCHECK_TOL))
    return rows


def _flow_h3(v, out, files):
    q = np.array(v["targets"])
    return [_close("closed form", _cplx(out["values"]),
                   ref.h3_closed(q, v["J"], v["E"]), FLOW_H3_TOL)]


def _flow_g47(v, out, files):
    want = np.array([ref.g47_value(s, v["E"], v["J"], v["v_ref"])
                     for s in v["samples"]])
    got = _cplx(out["values"])
    err = np.abs(got - want) / np.abs(want)
    return [("solve_ivp on printed (Z, V)", bool(np.max(err) <= FLOW_G47_RTOL),
             f"{np.max(err):.2e} (tol {FLOW_G47_RTOL:.0e})")]


def _smoke(v, out, files):
    rows = []
    for rec, jt in zip(out["records"], (v["J"], -v["J"])):
        pred, scale = ref.smoke_prediction(v["model"], v["a"], v["b"], v["J"], jt)
        tag = "same orbit" if jt == v["J"] else "opposite orbit"
        rows.append(_close(f"{tag} measured", complex(*rec["measured"]), pred,
                           SMOKE_TOL, scale))
        rows.append(_close(f"{tag} prediction", complex(*rec["predicted"]), pred,
                           1e-12, scale))
    return rows


# -- command-line verdicts -------------------------------------------------------


def parse_table(text):
    """{check: status} and the overall line of the CLI's table output."""
    checks, overall = {}, None
    for line in text.splitlines():
        if line.startswith("overall:"):
            overall = line.split(":", 1)[1].strip()
        elif line and not line.startswith(" "):
            name, status = line.split()[:2]
            checks[name] = status
    return checks, overall


def _doc(out):
    return json.loads(out["stdout"])


def _cli_status(label, out):
    return ("exit code", out["rc"] == 0, f"{label}: rc={out['rc']}")


def _check_algebra(v, out, files):
    checks, overall = parse_table(out["stdout"])
    want = "pass" if ref.jacobi_holds(files.fixture("h3.json")) else "fail"
    return [_cli_status("check-algebra", out),
            ("Jacobi (Fraction)", checks.get("jacobi") == want == overall,
             f"program {checks.get('jacobi')}, reference {want}")]


def _index(v, out, files):
    got = _doc(out)["checks"][0]["detail"]["index"]
    want = ref.algebra_index(files.fixture("g47.json"))
    return [_cli_status("index", out),
            ("index (sympy rank)", got == want, f"program {got}, reference {want}")]


def _coisotropic(algebra, form, ideal, subs):
    def check(v, out, files):
        checks, overall = parse_table(out["stdout"])
        want = ref.null_ideal(files.fixture(algebra), files.fixture(form),
                              ideal, subs)
        got = checks.get("coisotropic") == "pass"
        return [_cli_status("coisotropic", out),
                ("null ideal (sympy)", got == want and overall == "pass",
                 f"program {checks.get('coisotropic')}, reference {want}")]
    return check


def _verify(v, out, files):
    doc = _doc(out)
    cas = next(c for c in doc["checks"] if c["check"] == "casimir")
    vals = cas["detail"]["values"]
    err = max(abs(complex(*vals[k]) - 1j * int(k)) for k in vals)
    return [_cli_status("model verify", out),
            ("every check passes", doc["overall"] == "pass", doc["overall"]),
            ("centre acts as i J", err <= 1e-12 and len(vals) == 2, f"{err:.1e}")]


def _reduce(v, out, files):
    doc = _doc(out)
    first = doc["checks"][0]["detail"]
    z, pot, norm = ref.paper_split()
    z_ok = all(ref.same_on_orbits(ref.parse_printed(t), e)
               for t, e in zip(first["Z"], z))
    v_ok = ref.same_on_orbits(ref.parse_printed(first["V"]), pot)
    n_ok = ref.same_on_orbits(ref.parse_printed(first["normalizer"]), norm)
    rect = doc["checks"][1]
    chart_v, chart_u = ref.g47_chart()
    pts = [(1.3, 0.6), (2.0, 0.8)]
    subs = [{"q1": a, "q2": b} for a, b in pts]
    got_v = [complex(ref.parse_printed(rect["detail"]["v"]).evalf(subs=s)) for s in subs]
    got_u = [complex(ref.parse_printed(rect["detail"]["u"][0]).evalf(subs=s))
             for s in subs]
    chart_err = max([abs(g - chart_v(*p)) for g, p in zip(got_v, pts)]
                    + [abs(g - chart_u(*p)) / chart_u(*p) for g, p in zip(got_u, pts)])
    return [_cli_status("model reduce", out),
            ("printed Z (sympy)", z_ok, first["Z"]),
            ("printed V (sympy)", v_ok, first["V"]),
            ("printed normalizer", n_ok, first["normalizer"]),
            ("printed v, u", chart_err <= 1e-12, f"{chart_err:.1e}"),
            ("rectification", rect["status"] == "pass"
             and rect["max_residual"] <= 1e-12, rect["max_residual"])]


def _residual_mode(v, out, files):
    checks, overall = parse_table(out["stdout"])
    want = "pass" if ref.mode_solves_laplacian() else "fail"
    return [_cli_status("model residual mode", out),
            ("mode solves the PDE (sympy)", checks.get("pde_residual") == want,
             f"program {checks.get('pde_residual')}, reference {want}")]


def _residual_file(v, out, files):
    doc = _doc(out)
    rec = doc["checks"][0]
    with open(files.path(v["csv"])) as fh:
        rows = parse_csv(fh.read())
    want = ref.fd_residual(rows, float(Fraction(v["E"])))
    return [_cli_status("model residual file", out),
            ("FD residual (numpy)", abs(rec["max_residual"] - want) <= 1e-9,
             f"program {rec['max_residual']:.6e}, reference {want:.6e}"),
            ("field is a solution", want <= 1e-3, f"{want:.1e}")]


def _reconstruct(v, out, files):
    if not out["out_csv"]:       # the command failed before writing --out
        return [_cli_status("model reconstruct", out),
                ("--out file written", False, "no field file")]
    checks, overall = parse_table(out["stdout"])
    with open(files.path(v["csv"])) as fh:
        rows = parse_csv(fh.read())
    ks = sorted({r[0] for r in rows})
    js = sorted({r[1] for r in rows})
    table = {(r[0], r[1]): complex(r[2], r[3]) for r in rows}
    phi = ref.bilinear(ks, js, [[table[(k, j)] for j in js] for k in ks])
    field_rows = parse_csv(out["out_csv"])
    pts = [r[:3] for r in field_rows]
    want = ref.inverse_gft(phi, float(Fraction(v["E"])),
                           ((ks[0], ks[-1]), (js[0], js[-1])), v["nodes"], pts)
    got = np.array([complex(r[3], r[4]) for r in field_rows])
    scale = float(np.max(np.abs(want)))
    return [_cli_status("model reconstruct", out),
            ("reconstruction passes", checks.get("reconstruction_residual")
             == "pass" == overall, overall),
            _close("field (scipy GL transform)", got, want, FIELD_RTOL, scale)]


CHECKS = {
    "gft": _gft, "mode_series": _mode, "mode_moderate": _mode,
    "mode_deep": _mode, "flow_h3": _flow_h3, "flow_g47": _flow_g47,
    "smoke_h3": _smoke, "smoke_g47": _smoke,
    "check_algebra": _check_algebra, "index": _index,
    "coisotropic_h3": _coisotropic("h3.json", "h3_null_center.json", (1, 3), ()),
    "coisotropic_g47": _coisotropic("g47.json", "g47_g1.json", (1, 2),
                                    (("alpha", "1"), ("beta", "1"))),
    "verify": _verify, "reduce": _reduce, "residual_mode": _residual_mode,
    "residual_file": _residual_file, "reconstruct": _reconstruct,
}


def parse_csv(text):
    """Numeric rows of a CSV text with one header line."""
    rows = list(csv.reader(text.splitlines()))
    return [[float(x) for x in r] for r in rows[1:]]


class Files:
    """Where a run keeps its generated inputs, and the fixtures it reads."""

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir

    def fixture(self, name):
        return os.path.join(self.root, "fixtures", name)

    def path(self, name):
        return os.path.join(self.out_dir, name)


def compare(verdict, output, files):
    """(ok, comparisons) for one verdict's output."""
    if output.get("status") == "error":
        return False, [_status(output)]
    try:
        rows = CHECKS[verdict["kind"]](verdict, output, files)
    except (KeyError, ValueError, IndexError, StopIteration, OSError) as exc:
        rows = [("outputs readable", False, repr(exc))]
    if "rc" not in output:       # in-process verdicts report their status
        rows.insert(0, _status(output))
    return all(ok for _, ok, _ in rows), rows
