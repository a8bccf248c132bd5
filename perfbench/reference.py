"""Independent references for every verdict, written without the program.

scipy, mpmath, sympy, numpy and ``fractions`` only; nothing here imports
nclb.  The formulas are the paper's: the inverse generalized Fourier
transform on H3 with Airy kernels, the Airy-profile modes, the closed form
of the reduced Heisenberg solution, the printed first-order split (Z, V) of
the 4d model, the Gaussian overlaps behind the smoke predictions, and the
exact algebra of the fixtures.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from scipy.special import airy as _scipy_airy

# -- Airy ------------------------------------------------------------------


def ai(x):
    """Ai on an array of real arguments (scipy)."""
    return _scipy_airy(np.asarray(x, dtype=float))[0]


def ai_mpmath(x):
    return float(mpmath.airyai(mpmath.mpf(float(x))))


# -- Heisenberg fields -------------------------------------------------------


def gauss_legendre(n, lo, hi):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def gaussian_amplitude(p):
    k0, j0, sig = p["k0"], p["j0"], p["sigma"]
    return lambda k, j: np.exp(-((k - k0) ** 2 + (j - j0) ** 2) / (2 * sig * sig))


def inverse_gft(phi, energy, box, n, points):
    """psi(x) = (2 pi)^-2 iint dk dJ (2J^2)^(1/3) phi(k, J)
    Ai((2 J^2 x1 + 2 k J + E) / (2 J^2)^(2/3)) exp(i k x2 + i J x3)
    on an n x n Gauss-Legendre grid over box = ((k_lo, k_hi), (J_lo, J_hi))."""
    k, wk = gauss_legendre(n, *box[0])
    j, wj = gauss_legendre(n, *box[1])
    kg, jg = np.meshgrid(k, j, indexing="ij")
    two_j2 = 2.0 * jg * jg
    base = np.outer(wk, wj) * phi(kg, jg) * two_j2 ** (1 / 3) / (2 * np.pi) ** 2
    out = []
    for x1, x2, x3 in points:
        arg = (two_j2 * x1 + 2.0 * kg * jg + energy) / two_j2 ** (2 / 3)
        out.append(np.sum(base * ai(arg) * np.exp(1j * (kg * x2 + jg * x3))))
    return np.array(out)


def mode_argument(mu, nu, energy, x1):
    two_nu2 = 2.0 * nu * nu
    return (two_nu2 * np.asarray(x1) + 2.0 * mu * nu + energy) / two_nu2 ** (2 / 3)


def mode_values(mu, nu, energy, points):
    """exp(i mu x2 + i nu x3) Ai(z), z = (2 nu^2 x1 + 2 mu nu + E)/(2 nu^2)^(2/3)."""
    pts = np.asarray(points, dtype=float)
    z = mode_argument(mu, nu, energy, pts[:, 0])
    return np.exp(1j * (mu * pts[:, 1] + nu * pts[:, 2])) * ai(z)


@functools.lru_cache(maxsize=None)
def mode_solves_laplacian():
    """Symbolic proof that every Airy mode solves Delta psi = E psi for the
    Heisenberg Laplacian d1^2 + 2 d2 d3 + 2 x1 d3^2, for all mu, nu, E."""
    x1, x2, x3, mu, E = sp.symbols("x1 x2 x3 mu E", real=True)
    nu = sp.symbols("nu", positive=True)
    z = (2 * nu ** 2 * x1 + 2 * mu * nu + E) / (2 * nu ** 2) ** sp.Rational(2, 3)
    psi = sp.exp(sp.I * (mu * x2 + nu * x3)) * sp.airyai(z)
    lap = (sp.diff(psi, x1, 2) + 2 * sp.diff(psi, x2, x3)
           + 2 * x1 * sp.diff(psi, x3, 2))
    return sp.simplify(lap - E * psi) == 0


def fd_residual(rows, energy):
    """max |Delta psi - E psi| / max |psi| over the interior of a sampled
    grid, with the 4th-order stencils of a uniform spacing."""
    axes = [sorted({r[i] for r in rows}) for i in range(3)]
    shape = tuple(len(a) for a in axes)
    index = [{v: i for i, v in enumerate(a)} for a in axes]
    f = np.empty(shape, dtype=complex)
    for r in rows:
        f[tuple(index[i][r[i]] for i in range(3))] = complex(r[3], r[4])
    h = axes[0][1] - axes[0][0]
    d1 = {-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}
    d2 = {-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12}
    worst, scale = 0.0, 1e-12
    for a in range(2, shape[0] - 2):
        for b in range(2, shape[1] - 2):
            for c in range(2, shape[2] - 2):
                dxx = sum(w * f[a + k, b, c] for k, w in d2.items()) / h ** 2
                dzz = sum(w * f[a, b, c + k] for k, w in d2.items()) / h ** 2
                dyz = sum(w1 * w2 * f[a, b + k1, c + k2]
                          for k1, w1 in d1.items()
                          for k2, w2 in d1.items()) / h ** 2
                lap = dxx + 2 * dyz + 2 * axes[0][a] * dzz
                worst = max(worst, abs(lap - energy * f[a, b, c]))
                scale = max(scale, abs(f[a, b, c]))
    return worst / scale


def bilinear(k_axis, j_axis, table):
    """Bilinear interpolant of table[i][j] on the grid k_axis x j_axis."""
    ka, ja = np.asarray(k_axis), np.asarray(j_axis)
    vals = np.asarray(table)

    def phi(k, j):
        i = np.clip(np.searchsorted(ka, k, side="right") - 1, 0, len(ka) - 2)
        m = np.clip(np.searchsorted(ja, j, side="right") - 1, 0, len(ja) - 2)
        s = (k - ka[i]) / (ka[i + 1] - ka[i])
        t = (j - ja[m]) / (ja[m + 1] - ja[m])
        return ((1 - s) * (1 - t) * vals[i, m] + s * (1 - t) * vals[i + 1, m]
                + (1 - s) * t * vals[i, m + 1] + s * t * vals[i + 1, m + 1])

    return phi


# -- reduced solutions -------------------------------------------------------


def h3_closed(q, J, E):
    """The Heisenberg reduced solution exp(-i J q^3/6 - i E q/(2 J))."""
    return np.exp(-1j * J * q ** 3 / 6 - 1j * E * q / (2 * J))


def g47_chart(alpha=1.0, beta=1.0):
    """Roots, flow-box coordinate v and invariant u of Z = (a q1 - b q2, -q1)."""
    root = math.sqrt(alpha * alpha + 4 * beta)
    l1, l2 = (alpha + root) / 2, (alpha - root) / 2

    def v(q1, q2):
        return (math.log(q1 + l2 * q2) - math.log(q1 + l1 * q2)) / (l1 - l2)

    def u(q1, q2):
        return (q1 + l1 * q2) ** l1 * (q1 + l2 * q2) ** (-l2)

    return v, u


def g47_value(q, E, J, v_ref, alpha=1.0, beta=1.0):
    """exp(-|u|^2/4) exp(int_0^{v_ref - v(q)} V dt) along dq/dt = Z, with the
    paper's printed split (criterion c05):
    Z = (a q1 - b q2, -q1),
    V = a/2 - i J q1 log(q2) (a q1 - b q2) + i J b E / (2 q2^2) - 5 q1/(2 q2)
    (1/J = J on the orbit labels J = +-1)."""
    v, u = g47_chart(alpha, beta)

    def rhs(_t, y):
        q1, q2 = y[0], y[1]
        pot = (alpha / 2 - 1j * J * q1 * math.log(q2) * (alpha * q1 - beta * q2)
               + 1j * J * beta * E / (2 * q2 * q2) - 2.5 * q1 / q2)
        return [alpha * q1 - beta * q2, -q1, pot.real, pot.imag]

    t_end = v_ref - v(*q)
    sol = solve_ivp(rhs, (0.0, t_end), [q[0], q[1], 0.0, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-14)
    phase = complex(sol.y[2, -1], sol.y[3, -1])
    return math.exp(-abs(u(*q)) ** 2 / 4) * np.exp(phase)


# -- smeared kernel orthogonality --------------------------------------------

H3_WINDOW = 3.0   # width of the x3 window that damps the centre's phase


def overlap(c1, w1, c2, w2):
    """int exp(-(x-c1)^2/(2 w1^2)) exp(-(x-c2)^2/(2 w2^2)) dx."""
    s2 = w1 * w1 + w2 * w2
    return math.sqrt(2 * math.pi) * w1 * w2 / math.sqrt(s2) * math.exp(
        -(c1 - c2) ** 2 / (2 * s2))


def inner(a, b):
    return math.prod(overlap(ca, a["width"], cb, b["width"])
                     for ca, cb in zip(a["centers"], b["centers"]))


def smoke_prediction(model, a, b, J, Jt):
    """(predicted pairing, scale) in the sharp-delta limit.

    Heisenberg: (2 pi/|J|) w3^(Jt - J) <a, b> with the Gaussian window's
    transform w3^(d) = sqrt(2 pi) s exp(-(s d)^2/2); the 4d model:
    2 pi^2 <a, b> on the same orbit and 0 across orbits.
    """
    norm = math.sqrt(inner(a, a) * inner(b, b))
    if model == "heisenberg":
        s = H3_WINDOW
        w_hat = math.sqrt(2 * math.pi) * s * math.exp(-0.5 * (s * (Jt - J)) ** 2)
        pre = 2 * math.pi / abs(J)
        return pre * w_hat * inner(a, b), pre * math.sqrt(2 * math.pi) * s * norm
    if J == Jt:
        return 2 * math.pi ** 2 * inner(a, b), 2 * math.pi ** 2 * norm
    return 0.0, 2 * math.pi ** 2 * norm


# -- exact algebra of the fixtures -------------------------------------------


def load_structure(path):
    """(dim, c) with c[i][j] the bracket [e_i, e_j] as Fractions, 0-based."""
    with open(path) as fh:
        doc = json.load(fh)
    n = doc["dim"]
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for br in doc["brackets"]:
        i, j = br["i"] - 1, br["j"] - 1
        for k, val in br["c"].items():
            c[i][j][int(k) - 1] = Fraction(val)
            c[j][i][int(k) - 1] = -Fraction(val)
    return n, c


def _bracket(c, x, y):
    n = len(x)
    return [sum(x[i] * y[j] * c[i][j][k] for i in range(n) for j in range(n)
                if x[i] and y[j]) for k in range(n)]


@functools.lru_cache(maxsize=None)
def jacobi_holds(path):
    n, c = load_structure(path)
    e = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                terms = [_bracket(c, _bracket(c, e[a], e[b]), e[d])
                         for a, b, d in ((i, j, k), (j, k, i), (k, i, j))]
                if any(sum(t[m] for t in terms) for m in range(n)):
                    return False
    return True


@functools.lru_cache(maxsize=None)
def algebra_index(path):
    """dim minus the generic rank of the Kirillov form B(xi)_ij = xi([e_i, e_j])."""
    n, c = load_structure(path)
    xi = sp.symbols(f"xi1:{n + 1}")
    mat = sp.Matrix(n, n, lambda i, j: sum(sp.Rational(c[i][j][k].numerator,
                                                       c[i][j][k].denominator)
                                           * xi[k] for k in range(n)))
    return n - mat.rank(simplify=True)


@functools.lru_cache(maxsize=None)
def null_ideal(algebra_path, form_path, ideal, subs):
    """Commutative ideal H = span(e_i, i in ideal) with H-perp inside H;
    subs holds (token, value) pairs for the form's parameters."""
    n, c = load_structure(algebra_path)
    subs = dict(subs)
    with open(form_path) as fh:
        rows = json.load(fh)["matrix"]

    def entry(tok):
        tok = str(tok).strip()
        name = tok.lstrip("-")
        if name not in subs:
            return Fraction(tok)
        return -Fraction(subs[name]) if tok.startswith("-") else Fraction(subs[name])

    g = sp.Matrix([[sp.Rational(str(entry(t))) for t in row] for row in rows])
    idx = [i - 1 for i in ideal]
    e = [[Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    outside = [k for k in range(n) if k not in idx]
    for i in idx:
        for j in range(n):
            br = _bracket(c, e[i], e[j])
            if any(br[k] for k in outside):
                return False                      # not an ideal
            if j in idx and any(br):
                return False                      # not commutative
    perp = g.extract(idx, list(range(n))).nullspace()
    return all(vec[k] == 0 for vec in perp for k in outside)


# -- printed formulas ----------------------------------------------------------

_SYMS = {name: sp.Symbol(name) for name in ("q1", "q2", "E", "J", "q")}


@functools.lru_cache(maxsize=None)
def parse_printed(text):
    """The program's printed expression as a sympy expression."""
    return sp.sympify(text.replace("^", "**"),
                      locals={**_SYMS, "I": sp.I, "log": sp.log, "exp": sp.exp})


def paper_split(alpha=1, beta=1):
    """The paper's printed (Z, V) and normalizer for the 4d model."""
    q1, q2, E, J = (_SYMS[k] for k in ("q1", "q2", "E", "J"))
    a, b = sp.Integer(alpha), sp.Integer(beta)
    z = (a * q1 - b * q2, -q1)
    v = (a / 2 - sp.I * J * q1 * sp.log(q2) * (a * q1 - b * q2)
         + sp.I * J * b * E / (2 * q2 ** 2) - sp.Rational(5, 2) * q1 / q2)
    return z, v, 2 * sp.I * J * q2 ** 2 / b


@functools.lru_cache(maxsize=None)
def same_on_orbits(printed, expected):
    """Equal as functions once J takes its orbit labels +1 and -1."""
    return all(sp.simplify((printed - expected).subs(_SYMS["J"], j)) == 0
               for j in (1, -1))
