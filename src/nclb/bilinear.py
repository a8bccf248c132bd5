"""Symmetric bilinear forms on a Lie algebra and the null-ideal criterion.

The central check: a commutative ideal h with h-perp contained in h forces
the inverse form to have a vanishing bottom-right block in any basis adapted
to h, which in turn strips the invariant Laplacian down to terms linear in
the complementary directions.  Both routes are computed independently here
and must agree exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import ratlinalg as rl
from .algebra import LieAlgebra, Subspace, adapted_basis, subspace_flags, transform_structure_constants
from .report import NclbError


class DegenerateFormError(NclbError, ValueError):
    """A form that cannot serve as a metric: not square, not symmetric,
    singular, or sized for another algebra."""


class CoisotropyError(NclbError, ValueError):
    pass


@dataclass(frozen=True)
class BilinearForm:
    """Symmetric nondegenerate rational matrix with its cached exact inverse."""

    matrix: tuple
    inverse: tuple

    @staticmethod
    def from_matrix(rows):
        m = [[rl.frac(x) for x in row] for row in rows]
        n = len(m)
        if any(len(row) != n for row in m):
            raise DegenerateFormError("matrix is not square")
        if m != rl.transpose(m):
            raise DegenerateFormError("matrix is not symmetric")
        try:
            inv = rl.inverse(m)
        except ValueError as exc:
            raise DegenerateFormError("form is degenerate (singular matrix)") from exc
        return BilinearForm(
            matrix=tuple(tuple(r) for r in m),
            inverse=tuple(tuple(r) for r in inv),
        )

    @property
    def dim(self):
        return len(self.matrix)

    def signature(self):
        return rl.signature([list(r) for r in self.matrix])


def orth_complement(gm: BilinearForm, H: Subspace) -> Subspace:
    """{X : G(X, H) = 0}, exact."""
    rows = [rl.mat_vec([list(r) for r in gm.matrix], list(g)) for g in H.generators]
    ker = rl.kernel(rows) if rows else rl.kernel([[Fraction(0)] * gm.dim])
    return Subspace(tuple(tuple(v) for v in ker))


@dataclass(frozen=True)
class CoisotropyReport:
    is_commutative_ideal: bool
    hperp_in_h: bool
    block_zero: bool
    verdict: bool


def coisotropy_check(L: LieAlgebra, gm: BilinearForm, H: Subspace) -> CoisotropyReport:
    """Test h-perp in h two independent ways and that H is a commutative ideal.

    The membership route computes the orthogonal complement and tests
    containment; the block route transforms the inverse form to a basis
    adapted to H and inspects the bottom-right block.  The two booleans agree
    for every symmetric nondegenerate form; disagreement is a bug, not data.
    """
    if gm.dim != L.dim:
        raise DegenerateFormError(
            f"form has dimension {gm.dim}, the algebra {L.dim}")
    flags = subspace_flags(L, H)
    is_ci = flags["is_ideal"] and flags["is_commutative"]

    hperp = orth_complement(gm, H)
    hperp_in_h = H.contains_subspace(hperp)

    t = adapted_basis(L, H)
    g_new = rl.mat_mul(rl.transpose(t), rl.mat_mul([list(r) for r in gm.matrix], t))
    g_new_inv = rl.inverse(g_new)
    s = H.rank
    n = gm.dim
    block_zero = all(
        g_new_inv[a][b] == 0 for a in range(s, n) for b in range(s, n)
    )

    assert hperp_in_h == block_zero, (
        "internal inconsistency: membership and block criteria disagree"
    )
    return CoisotropyReport(
        is_commutative_ideal=is_ci,
        hperp_in_h=hperp_in_h,
        block_zero=block_zero,
        verdict=is_ci and hperp_in_h,
    )


@dataclass(frozen=True)
class LaplacianData:
    """Inverse form, divergence coefficients, and (optionally) the reduced
    first-order coefficients in a basis adapted to the supplied ideal."""

    g_inv: tuple
    c_vec: tuple
    b_vec: tuple | None = None
    adapted: tuple | None = None  # change-of-basis used for b_vec


def laplacian_data(L: LieAlgebra, gm: BilinearForm, H: Subspace | None = None) -> LaplacianData:
    """Coefficient data of the invariant Laplacian.

    c_vec[i] = -sum_j G^{ij} tr(ad_{e_j}) in the original basis.  When a
    coisotropic ideal H is supplied, b_vec holds the first-order coefficients
    B^alpha = C^alpha - sum_{beta<=s, b>s} C_{beta b}^alpha G^{beta b},
    computed in the adapted basis returned alongside.
    """
    n = L.dim
    g_inv = [list(r) for r in gm.inverse]
    traces = [L.ad_trace(j) for j in range(1, n + 1)]
    c_vec = tuple(
        -sum((g_inv[i][j] * traces[j] for j in range(n)), Fraction(0))
        for i in range(n)
    )
    if H is None:
        return LaplacianData(g_inv=tuple(tuple(r) for r in g_inv), c_vec=c_vec)

    rep = coisotropy_check(L, gm, H)
    if not rep.verdict:
        raise CoisotropyError("supplied subspace is not a coisotropic commutative ideal")

    t = adapted_basis(L, H)
    la = transform_structure_constants(L, t)
    g_new = rl.mat_mul(rl.transpose(t), rl.mat_mul([list(r) for r in gm.matrix], t))
    g_new_inv = rl.inverse(g_new)
    traces_new = [la.ad_trace(j) for j in range(1, n + 1)]
    c_new = [
        -sum((g_new_inv[i][j] * traces_new[j] for j in range(n)), Fraction(0))
        for i in range(n)
    ]
    s = H.rank
    b_vec = []
    for alpha in range(1, s + 1):
        corr = Fraction(0)
        for beta in range(1, s + 1):
            for b in range(s + 1, n + 1):
                cb = la.bracket_basis(beta, b)[alpha - 1]
                corr += cb * g_new_inv[beta - 1][b - 1]
        b_vec.append(c_new[alpha - 1] - corr)
    return LaplacianData(
        g_inv=tuple(tuple(r) for r in g_inv),
        c_vec=c_vec,
        b_vec=tuple(b_vec),
        adapted=tuple(tuple(r) for r in t),
    )


# --- JSON interchange -------------------------------------------------------

def form_from_json(doc, substitutions=None) -> BilinearForm:
    """Parse {"matrix": [[..str..]]}; named parameters must be substituted.

    `substitutions` maps parameter tokens (e.g. "alpha") to rational strings;
    tokens left unresolved raise a DegenerateFormError naming the entry.
    """
    rows = doc["matrix"]
    subs = {k: str(v) for k, v in (substitutions or {}).items()}
    for key, val in list(subs.items()):
        subs.setdefault(f"-{key}", str(-rl.frac(val)))
    parsed = []
    for i, row in enumerate(rows):
        out = []
        for j, entry in enumerate(row):
            text = str(entry)
            if text in subs:
                text = subs[text]
            try:
                out.append(rl.frac(text))
            except (ValueError, TypeError) as exc:
                raise DegenerateFormError(
                    f"entry ({i + 1},{j + 1}) = {entry!r} is not rational; "
                    "pass parameter substitutions"
                ) from exc
        parsed.append(out)
    return BilinearForm.from_matrix(parsed)


def load_form(path, substitutions=None) -> BilinearForm:
    with open(path) as fh:
        return form_from_json(json.load(fh), substitutions)
