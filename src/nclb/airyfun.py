"""Airy functions Ai, Bi and their derivatives for real arguments.

One evaluation core serves Python floats (`airy`, `airy_all`, `wronskian`)
and numpy arrays (`airy_array`).  Each regime's arithmetic is written once
and runs on either: a small table of operations (`math` functions for
floats, numpy ufuncs for arrays) supplies sqrt, exp, cos, sin and
selection, so a float never pays numpy's per-call overhead.

* |x| <= 8.25: a 16-term Taylor expansion of w'' = x w about the nearest
  anchor on the grid k/8.  Each anchor's (Ai, Ai', Bi, Bi') is the sum of
  the two Maclaurin series in fixed-point big-integer arithmetic (256
  fractional bits) with the anchor taken as an exact rational.  This
  sidesteps the cancellation that makes double-precision series summation
  lose ~12 digits for Ai near +8.  Anchors are built on first use and kept;
  importing the package builds none.
* x > 8.25: the monotone asymptotic expansions in zeta = (2/3) x^(3/2)
  (DLMF 9.7.5-9.7.8), truncated at the smallest term of the cut: error
  about exp(-2 zeta), ~2e-14 at the cut.
* LEFT_CUT <= x < -8.25: the modulus-phase expansions in the same zeta
  (DLMF 9.7.9-9.7.12), truncated the same way: error ~2e-14 of the modulus
  at the cut.

zeta itself is rounded to ~1.5 ulp.  exp(+-zeta) turns that into a relative
error of ~2e-16 zeta on the right, and the phase zeta - pi/4 into an error
of ~2e-16 zeta of the modulus on the left: ~2e-12 at x = -1000 and 1.3e-9
at LEFT_CUT = -1e5.  Arguments below LEFT_CUT, where it would pass 1e-8,
raise AiryDomainError (a ValueError).  Bi overflows double precision near
x = 104.  Past x = 103 it is +inf in `airy_all`; `airy` and `airy_array`
raise AiryOverflowError instead.

This module binds numpy when it is imported, and only the numeric work
imports it: `expr` on its first Airy emit or evaluation, `models` in the
functions that compute Airy values.  The domain names LEFT_CUT, BI_OVERFLOW
and AiryOverflowError live in `report`, which the symbolic layer reads
without numpy; they are re-exported here as the same objects.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .report import BI_OVERFLOW, LEFT_CUT, AiryOverflowError, NclbError

_BITS = 256
_SCALE = 1 << _BITS

# seeds: Ai(0), Ai'(0), Bi(0), Bi'(0) to 85 digits (classical constants,
# equal to 3^(-2/3)/Gamma(2/3), -3^(-1/3)/Gamma(1/3), and sqrt(3) multiples)
_AI0 = Fraction(
    "0.3550280538878172392600631860041831763979791741991772405833265103008100424501267129572")
_AIP0 = Fraction(
    "-0.2588194037928067984051835601892039634790911383549345822100018138561027726767902806542")
_BI0 = Fraction(
    "0.6149266274460007351509223690936135535947281886485965050408787530142965193055206405294")
_BIP0 = Fraction(
    "0.448288357353826357914823710398828390866226799212262061082808778372330755009780647185")

_AI0_FIX = int(_AI0 * _SCALE)
_AIP0_FIX = int(_AIP0 * _SCALE)
_BI0_FIX = int(_BI0 * _SCALE)
_BIP0_FIX = int(_BIP0 * _SCALE)

_SERIES_CUT = 8.25

_ANCHORS_PER_UNIT = 8           # anchors at k/8, so |h| <= 1/16
_ANCHOR_MAX = 66                # 66/8 = 8.25
_TAYLOR_TERMS = 16
_ASYM_TINY = 1e-17
_ALL = (0, 1, 2, 3)


class AiryDomainError(NclbError, ValueError):
    """An Airy argument that is NaN, infinite or below LEFT_CUT."""


# --- exact series (anchors) ----------------------------------------------------

def _fixed_series(xf: Fraction):
    """(f, g, f', g') of the two Airy basis series at xf, as fixed-point ints.

    f = sum c_k z^(3k), g = sum d_k z^(3k+1) with f'' = z f, g'' = z g,
    f(0)=1, g'(0)=1.  All four sums share the z^3 multiplier recurrences.
    """
    num = xf.numerator
    den = xf.denominator
    n3 = num ** 3
    d3 = den ** 3

    def times_z3(t, divisor):
        return (t * n3) // (d3 * divisor)

    z_fix = (num * _SCALE) // den

    f_term = _SCALE                      # c_0 z^0
    g_term = z_fix                       # d_0 z^1
    fp_term = (z_fix * z_fix) // (2 * _SCALE)  # 3 c_1 z^2 = z^2/2
    gp_term = _SCALE                     # (3*0+1) d_0 z^0

    f_sum, g_sum, fp_sum, gp_sum = f_term, g_term, fp_term, gp_term
    k = 1
    while True:
        f_term = times_z3(f_term, (3 * k) * (3 * k - 1))
        g_term = times_z3(g_term, (3 * k) * (3 * k + 1))
        gp_term = times_z3(gp_term, (3 * k) * (3 * k - 2))
        if k > 1:
            fp_term = times_z3(fp_term, (3 * k - 3) * (3 * k - 1))
        f_sum += f_term
        g_sum += g_term
        gp_sum += gp_term
        if k > 1:
            fp_sum += fp_term
        if (abs(f_term) < 8 and abs(g_term) < 8
                and abs(fp_term) < 8 and abs(gp_term) < 8):
            break
        k += 1
        if k > 400:  # unreachable for |x| <= 9; guards against misuse
            raise ValueError("Airy series did not converge")
    return f_sum, g_sum, fp_sum, gp_sum


def _series_quad(x: float):
    """(Ai, Ai', Bi, Bi') at x via exact-rational series summation."""
    xf = Fraction(x)
    f, g, fp, gp = _fixed_series(xf)
    ai = (_AI0_FIX * f + _AIP0_FIX * g) >> _BITS
    aip = (_AI0_FIX * fp + _AIP0_FIX * gp) >> _BITS
    bi = (_BI0_FIX * f + _BIP0_FIX * g) >> _BITS
    bip = (_BI0_FIX * fp + _BIP0_FIX * gp) >> _BITS
    s = float(_SCALE)
    return ai / s, aip / s, bi / s, bip / s


# anchor k -> Taylor coefficients of (Ai, Ai', Bi, Bi') about k/8, as tuples
# for floats; the array path reads the same numbers from _TABLE[:, :, k + _ANCHOR_MAX],
# whose column k + _ANCHOR_MAX is filled once _BUILT says so
_ANCHORS = {}
_TABLE = np.zeros((4, _TAYLOR_TERMS, 2 * _ANCHOR_MAX + 1))
_BUILT = np.zeros(2 * _ANCHOR_MAX + 1, dtype=bool)


def _taylor_coefficients(x0, w, wp):
    """Coefficients of w(x0 + h) and w'(x0 + h) in powers of h.

    (n+2)(n+1) c_{n+2} = x0 c_n + c_{n-1} follows from w'' = x w.
    """
    c = [w, wp]
    for n in range(_TAYLOR_TERMS - 1):
        prev = c[n - 1] if n >= 1 else 0.0
        c.append((x0 * c[n] + prev) / ((n + 2) * (n + 1)))
    return c[:_TAYLOR_TERMS], [(n + 1) * c[n + 1] for n in range(_TAYLOR_TERMS)]


def _anchor(k):
    """Taylor coefficients about the anchor k/8, built once from the series."""
    coefs = _ANCHORS.get(k)
    if coefs is None:
        x0 = k / _ANCHORS_PER_UNIT
        ai, aip, bi, bip = _series_quad(x0)
        coefs = (_taylor_coefficients(x0, ai, aip)
                 + _taylor_coefficients(x0, bi, bip))
        _TABLE[:, :, k + _ANCHOR_MAX] = coefs
        _BUILT[k + _ANCHOR_MAX] = True
        coefs = _ANCHORS[k] = tuple(tuple(c) for c in coefs)
    return coefs


def _anchor_rows(k, comp):
    """Coefficients of component comp for an array of anchor indices, shape
    (terms, len(k)); only anchors not yet built are built."""
    col = k + _ANCHOR_MAX
    missing = ~_BUILT[col]
    if missing.any():
        for kk in set(k[missing].tolist()):
            _anchor(kk)
    return _TABLE[comp][:, col]


# --- one evaluation core for floats and arrays ---------------------------------

_FLOAT = SimpleNamespace(
    exp=math.exp, sqrt=math.sqrt, cos=math.cos, sin=math.sin,
    nearest=round, coefficients=lambda k, comp: _anchor(k)[comp],
    least=lambda v: v, clip=min,
    where=lambda cond, a, b: a if cond else b,
)
_ARRAY = SimpleNamespace(
    exp=np.exp, sqrt=np.sqrt, cos=np.cos, sin=np.sin,
    nearest=lambda v: np.rint(v).astype(np.intp), coefficients=_anchor_rows,
    least=np.min, clip=np.minimum,
    where=np.where,
)
_SQRT_PI = math.sqrt(math.pi)
_HALF_SQRT2 = math.sqrt(0.5)
_ZETA_BI_MAX = (2.0 / 3.0) * BI_OVERFLOW ** 1.5


def _taylor(x, comps, ops):
    """Requested components at |x| <= 8.25, from the nearest anchor."""
    k = ops.nearest(x * _ANCHORS_PER_UNIT)
    h = x - k / _ANCHORS_PER_UNIT
    out = []
    for comp in comps:
        c = ops.coefficients(k, comp)
        acc = c[_TAYLOR_TERMS - 1]
        for n in range(_TAYLOR_TERMS - 2, -1, -1):
            acc = acc * h + c[n]
        out.append(acc)
    return out


def _asym_coefficients(zeta_cut):
    """u_k of DLMF 9.7.2 and v_k / u_k, up to the smallest term at zeta_cut.

    For every zeta >= zeta_cut the terms u_k zeta^-k shrink up to that
    index, so summing this many truncates the cut at its smallest term and
    every larger zeta earlier than its own, with a smaller first omitted
    term.  The count never depends on the batch, so a float and an array
    element get the same sum.
    """
    u = [1.0]
    k = 1
    while True:
        nxt = u[-1] * (6 * k - 5) * (6 * k - 1) / (72.0 * k)
        if nxt >= u[-1] * zeta_cut:     # term k would not be smaller
            break
        u.append(nxt)
        k += 1
    return u, [(6 * k + 1) / (1.0 - 6 * k) for k in range(len(u))]


_U, _V_OVER_U = _asym_coefficients((2.0 / 3.0) * _SERIES_CUT ** 1.5)


def _asym_sums(zeta, ops):
    """Sums of u_k zeta^-k and v_k zeta^-k, split by k mod 4.

    Returns (U, V) with U[j] = sum over k = j (mod 4) of u_k zeta^-k.  The
    sums stop early once the terms at the least zeta of the batch fall
    below 1e-17, which changes no sum by more than that.
    """
    su = [1.0, 0.0, 0.0, 0.0]
    sv = [1.0, 0.0, 0.0, 0.0]
    inv_least = 1.0 / ops.least(zeta)
    inv = 1.0 / zeta
    power = 1.0
    for k in range(1, len(_U)):
        if _U[k] * inv_least ** k < _ASYM_TINY:
            break
        power = power * inv
        term = _U[k] * power
        su[k & 3] = su[k & 3] + term
        sv[k & 3] = sv[k & 3] + term * _V_OVER_U[k]
    return su, sv


def _monotone(x, comps, ops):
    """(Ai, Ai', Bi, Bi') components for x > 8.25 (DLMF 9.7.5-9.7.8)."""
    root = ops.sqrt(x)
    zeta = (2.0 / 3.0) * (x * root)
    su, sv = _asym_sums(zeta, ops)
    q = ops.sqrt(root)
    decay = ops.exp(-zeta)
    growth = ops.exp(ops.clip(zeta, _ZETA_BI_MAX))
    beyond = x > BI_OVERFLOW
    vals = (
        decay / (2.0 * _SQRT_PI * q) * (su[0] - su[1] + su[2] - su[3]),
        -q * decay / (2.0 * _SQRT_PI) * (sv[0] - sv[1] + sv[2] - sv[3]),
        ops.where(beyond, math.inf,
                  growth / (_SQRT_PI * q) * (su[0] + su[1] + su[2] + su[3])),
        ops.where(beyond, math.inf,
                  q * growth / _SQRT_PI * (sv[0] + sv[1] + sv[2] + sv[3])),
    )
    return [vals[c] for c in comps]


def _oscillatory(x, comps, ops):
    """(Ai, Ai', Bi, Bi') components for x < -8.25 (DLMF 9.7.9-9.7.12).

    With z = -x the four functions are cos/sin of zeta - pi/4 times sums of
    the even and odd terms; cos(zeta - pi/4) and sin(zeta - pi/4) are formed
    from cos and sin of zeta so that pi/4 adds no rounding to the phase.
    """
    z = -x
    root = ops.sqrt(z)
    zeta = (2.0 / 3.0) * (z * root)
    su, sv = _asym_sums(zeta, ops)
    cz = ops.cos(zeta)
    sz = ops.sin(zeta)
    cp = (cz + sz) * _HALF_SQRT2
    sp = (sz - cz) * _HALF_SQRT2
    ue, uo = su[0] - su[2], su[1] - su[3]
    ve, vo = sv[0] - sv[2], sv[1] - sv[3]
    q = ops.sqrt(root)
    small = 1.0 / (_SQRT_PI * q)
    large = q / _SQRT_PI
    vals = (
        small * (cp * ue + sp * uo),
        large * (sp * ve - cp * vo),
        small * (cp * uo - sp * ue),
        large * (cp * ve + sp * vo),
    )
    return [vals[c] for c in comps]


def _eval_float(x, comps):
    if not math.isfinite(x):
        raise AiryDomainError(f"Airy argument must be finite, got {x!r}")
    if x < LEFT_CUT:
        raise AiryDomainError(f"Airy argument {x!r} is below the left cut {LEFT_CUT}")
    if -_SERIES_CUT <= x <= _SERIES_CUT:
        return _taylor(x, comps, _FLOAT)
    if x > 0:
        return _monotone(x, comps, _FLOAT)
    return _oscillatory(x, comps, _FLOAT)


_KIND_INDEX = {"Ai": 0, "AiPrime": 1, "Bi": 2, "BiPrime": 3}


def _kind_index(kind):
    if kind not in _KIND_INDEX:
        raise ValueError(f"unknown Airy kind {kind!r}")
    return _KIND_INDEX[kind]


def airy(kind: str, x) -> float:
    """Airy value for kind in {Ai, AiPrime, Bi, BiPrime} at real x.

    Accuracy against 30-digit mpmath: ~2e-16 relative for |x| <= 8.25,
    ~4e-14 relative for 8.25 < x <= 30 and ~1.2e-13 up to x = 100.  For
    x < -8.25 the error is relative to the modulus (sqrt(Ai^2 + Bi^2), or
    the same of the derivatives): ~2e-14 near the cut, then ~2e-16 zeta
    with zeta = (2/3)|x|^1.5, which is ~2e-12 at x = -1000 and 1.3e-9 at
    LEFT_CUT = -1e5.  Arguments below LEFT_CUT, NaN and inf raise
    AiryDomainError.  Bi and BiPrime overflow doubles near x = 104 and raise
    AiryOverflowError past x = 103.
    """
    comp = _kind_index(kind)
    xf = float(x)
    if comp >= 2 and xf > BI_OVERFLOW:
        raise AiryOverflowError(f"Bi overflows double precision at x = {xf}")
    return _eval_float(xf, (comp,))[0]


def airy_all(x):
    """(Ai, Ai', Bi, Bi') at x; Bi entries are +inf past the overflow cut."""
    return tuple(_eval_float(float(x), _ALL))


def wronskian(x) -> float:
    """Ai(x) Bi'(x) - Ai'(x) Bi(x); identically 1/pi for the true functions."""
    ai, aip, bi, bip = _eval_float(float(x), _ALL)
    return ai * bip - aip * bi


def airy_array(kind: str, x) -> np.ndarray:
    """`airy(kind, .)` over an array: same values, same domain and errors.

    Each regime runs once on all of its points, so a whole quadrature row
    costs a few numpy passes instead of one Python call per node.
    """
    comp = _kind_index(kind)
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    if not np.all(np.isfinite(flat)):
        raise AiryDomainError("Airy arguments must be finite")
    if flat.size and flat.min() < LEFT_CUT:
        raise AiryDomainError(f"Airy argument {flat.min()!r} is below the left "
                              f"cut {LEFT_CUT}")
    if comp >= 2 and flat.size and flat.max() > BI_OVERFLOW:
        raise AiryOverflowError(
            f"Bi overflows double precision at x = {flat.max()}")
    out = np.empty_like(flat)
    series = np.abs(flat) <= _SERIES_CUT
    for mask, regime in ((series, _taylor), (~series & (flat > 0), _monotone),
                         (flat < -_SERIES_CUT, _oscillatory)):
        if mask.all():
            out = regime(flat, (comp,), _ARRAY)[0]
            break
        if mask.any():
            out[mask] = regime(flat[mask], (comp,), _ARRAY)[0]
    return out.reshape(xa.shape)
