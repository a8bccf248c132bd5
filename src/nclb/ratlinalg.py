"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of :class:`fractions.Fraction`; vectors are
lists of Fractions.  Everything here is small and dense, so one Gauss-Jordan
elimination with exact pivoting (`_eliminate`) is the workhorse.  No floating
point enters any routine in this module.
"""

from __future__ import annotations

from fractions import Fraction

Mat = list  # list[list[Fraction]]
Vec = list  # list[Fraction]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def eye(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def copy_mat(a):
    return [row[:] for row in a]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for j in range(m):
            s = Fraction(0)
            for t in range(k):
                s += ai[t] * b[t][j]
            out[i][j] = s
    return out


def mat_vec(a, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def _eliminate(a):
    """Gauss-Jordan elimination, the one row reduction of this module.

    Returns (R, pivot_columns, d): R is the reduced row echelon form of a
    (a new matrix; the input is not touched) and d the product of the
    pivots, negated once per row swap, which is det(a) when a is square
    and of full rank.
    """
    r = copy_mat(a)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
    d = Fraction(1)
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        piv = None
        for i in range(lead, rows):
            if r[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != lead:
            r[lead], r[piv] = r[piv], r[lead]
            d = -d
        d *= r[lead][col]
        inv = Fraction(1) / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots, d


def rref(a):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  R is a new matrix; the input is not touched.
    """
    r, pivots, _ = _eliminate(a)
    return r, pivots


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def det(a):
    """Exact determinant: the signed pivot product of the elimination, or 0
    when a pivot is missing."""
    _, pivots, d = _eliminate(a)
    return d if len(pivots) == len(a) else Fraction(0)


def inverse(a):
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(copy_mat(a), eye(n))]
    r, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over the rationals")
    return [row[n:] for row in r]


def kernel(a):
    """Basis of the right null space, as a list of vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][fc]
        basis.append(v)
    return basis


def _charpoly(a):
    """Coefficients [1, c1, ..., cn] of det(xI - a), highest power first,
    by the Faddeev-LeVerrier recurrence."""
    n = len(a)
    coeffs = [Fraction(1)]
    am = zeros(n, n)
    for k in range(1, n + 1):
        for i in range(n):
            am[i][i] += coeffs[-1]
        am = mat_mul(a, am)
        coeffs.append(-sum(am[i][i] for i in range(n)) / k)
    return coeffs


def _sign_changes(seq):
    signs = [x > 0 for x in seq if x != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def signature(a):
    """(n_plus, n_minus) of a symmetric rational matrix, computed exactly.

    The characteristic polynomial p of a symmetric matrix has only real
    roots, so Descartes' rule of signs counts them exactly: the sign
    changes of p(x) are the positive eigenvalues, those of p(-x) the
    negative ones.
    """
    p = _charpoly(a)
    n = len(p) - 1
    return _sign_changes(p), _sign_changes(
        [c if (n - k) % 2 == 0 else -c for k, c in enumerate(p)])
