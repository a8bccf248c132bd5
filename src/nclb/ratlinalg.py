"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of :class:`fractions.Fraction`; vectors are
lists of Fractions.  Everything here is small and dense, so Gaussian
elimination with exact pivoting is the workhorse.  No floating point enters
any routine in this module.
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


def rref(a):
    """Reduced row echelon form.

    Returns (R, pivot_columns).  R is a new matrix; the input is not touched.
    """
    r = copy_mat(a)
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots = []
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
        r[lead], r[piv] = r[piv], r[lead]
        inv = Fraction(1) / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col] != 0:
                f = r[i][col]
                r[i] = [x - f * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def det(a):
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(a)
    m = copy_mat(a)
    sign = 1
    d = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        d *= m[k][k]
        inv = Fraction(1) / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return d * sign


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


def solve(a, b):
    """Solve a @ x = b exactly; raises ValueError if inconsistent/singular."""
    n = len(a)
    aug = [row[:] + [bv] for row, bv in zip(copy_mat(a), b)]
    r, pivots = rref(aug)
    if len(pivots) != n or (pivots and pivots[-1] == n):
        raise ValueError("system is singular or inconsistent")
    return [r[i][n] for i in range(n)]


def row_space_contains(basis_rref, pivots, v):
    """Membership of vector v in the row space described by its RREF basis."""
    w = list(v)
    for i, pc in enumerate(pivots):
        if w[pc] != 0:
            f = w[pc]
            w = [x - f * y for x, y in zip(w, basis_rref[i])]
    return all(x == 0 for x in w)


def congruent_diagonal(a):
    """Diagonalize a symmetric matrix by congruence over the rationals.

    Returns the diagonal entries of T^t A T for some invertible rational T.
    Used for exact signature computation; never touches floats.
    """
    n = len(a)
    m = copy_mat(a)
    t = eye(n)

    def add_row_col(dst, src, f):
        # simultaneous row and column operation keeps symmetry
        m[dst] = [x + f * y for x, y in zip(m[dst], m[src])]
        for row in m:
            row[dst] += f * row[src]
        t[dst] = [x + f * y for x, y in zip(t[dst], t[src])]

    def swap_row_col(i, j):
        m[i], m[j] = m[j], m[i]
        for row in m:
            row[i], row[j] = row[j], row[i]
        t[i], t[j] = t[j], t[i]

    for k in range(n):
        if m[k][k] == 0:
            swapped = False
            for i in range(k + 1, n):
                if m[i][i] != 0:
                    swap_row_col(k, i)
                    swapped = True
                    break
            if not swapped:
                found = False
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if m[i][j] != 0:
                            # fold the off-diagonal entry onto the diagonal
                            add_row_col(i, j, Fraction(1))
                            found = True
                            break
                    if found:
                        break
                if found and m[k][k] == 0:
                    for i in range(k + 1, n):
                        if m[i][i] != 0:
                            swap_row_col(k, i)
                            break
                if m[k][k] == 0:
                    continue  # the remaining block is zero in this column
        if m[k][k] == 0:
            continue
        inv = Fraction(1) / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                add_row_col(i, k, -m[i][k] * inv)
    return [m[i][i] for i in range(n)]


def signature(a):
    """(n_plus, n_minus) of a symmetric rational matrix, computed exactly."""
    diag = congruent_diagonal(a)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg
