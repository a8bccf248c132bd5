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


# the node counts of `integrate_1d`'s rules, each double the last
_COUNTS = (96, 192, 384, 768, 1536, 3072)


def integrate_1d(f, lo, hi):
    """Integrate a callable on [lo, hi]; vectorized over node arrays.

    Gauss-Legendre rules of 96 nodes, then 192, doubling up to 3072, each
    summed on its own, until one moves the result by at most 1e-12
    relative to max(1, |result|).  f is called once on the nodes of the
    first two rules together, the 96 then the 192, and once on those of
    each later rule.  Returns (result, the last rule's node count, the
    change it made).  A sum that is not finite raises InconclusiveError at
    once, and so does a result that has not settled by 3072 nodes.
    """
    import numpy as np

    lo, hi = float(lo), float(hi)

    def sums():
        (x1, w1), (x2, w2) = (gl_nodes(count, lo, hi) for count in _COUNTS[:2])
        y = f(np.concatenate((x1, x2)))
        yield np.sum(w1 * y[:len(x1)])
        yield np.sum(w2 * y[len(x1):])
        for count in _COUNTS[2:]:
            x, w = gl_nodes(count, lo, hi)
            yield np.sum(w * f(x))

    val = None
    for n, new in zip(_COUNTS, sums()):
        if not np.isfinite(new):
            raise InconclusiveError(f"1d quadrature: the integrand is not finite, "
                                    f"its sum at n={n} is {new}")
        if val is not None:
            change = abs(new - val)
            if change <= 1e-12 * max(1.0, abs(new)):
                return new, n, change
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

    val, _, _ = integrate_1d(integrand, 0.0, r_max)
    return (2.0 * (rot * val).real) / (2.0 * np.pi)
