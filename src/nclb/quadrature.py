"""Gauss-Legendre panel quadrature with node-doubling refinement.

Integrands are smooth and at most mildly oscillatory at desk scale, so
plain tensor GL panels refined by doubling the node count until successive
results agree are accurate and, importantly, reproducible: node layouts are
functions of the requested counts only.

numpy is imported by the functions that build arrays, not with the module.
"""

from __future__ import annotations

import functools

from .report import InconclusiveError


@functools.lru_cache(maxsize=64)
def _reference_rule(n):
    """The n-point Gauss-Legendre rule on [-1, 1], computed once per n.

    The arrays are read-only, so no caller can alter a later rule.
    """
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_nodes(n, lo, hi):
    """Gauss-Legendre nodes and weights on [lo, hi] (deterministic).

    The reference rule for n is cached and mapped affinely onto the box on
    every call, so a rule depends only on (n, lo, hi) and the returned
    arrays are fresh.
    """
    x, w = _reference_rule(n)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return mid + half * x, half * w


def integrate_1d(f, lo, hi):
    """Integrate a callable on [lo, hi]; vectorized over node arrays.

    Starts at 96 nodes and doubles the count, at most 5 times, until the
    result moves by less than 1e-12 relative to max(1, |result|).
    """
    import numpy as np

    val = None
    for n in (96, 192, 384, 768, 1536, 3072):
        x, w = gl_nodes(n, float(lo), float(hi))
        new = np.sum(w * f(x))
        if val is not None and abs(new - val) <= 1e-12 * max(1.0, abs(new)):
            return new
        val = new
    raise InconclusiveError(f"1d quadrature did not settle below 1e-12 by n={n}")


def oscillatory_cubic_phase(x, t):
    """(1/2pi) * integral of exp(i x tau + i t tau^3) over the real line.

    Evaluated on the rotated ray tau = r e^{i pi/6} (for t > 0), where the
    cubic phase decays as exp(-t r^3); the real-line integral equals
    2 Re of the rotated half-line integral.  For t < 0 the substitution
    tau -> -tau maps to the (x, t) -> (-x, -t) case.
    """
    import numpy as np

    if t == 0:
        raise ValueError("cubic coefficient t must be nonzero")
    if t < 0:
        return oscillatory_cubic_phase(-x, -t)
    # exp(-t r^3) below 1e-18, plus slack for the e^{|x| r / 2} factor
    r_max = (45.0 / t) ** (1.0 / 3.0) + max(0.0, -x) * 0.75 + 3.0
    rot = np.exp(1j * np.pi / 6)

    def integrand(r):
        tau = r * rot
        return np.exp(1j * x * tau - t * r ** 3)

    val = integrate_1d(integrand, 0.0, r_max)
    return (2.0 * (rot * val).real) / (2.0 * np.pi)
