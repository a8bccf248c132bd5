"""Structure-constant Lie algebras over exact rationals.

A Lie algebra is stored by its dimension, basis labels and the sparse upper
triangle of its structure constants; antisymmetry is implied by storage and
the Jacobi identity is a checkable property, not an assumption.  All
operations are pure functions over Fractions.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import ratlinalg as rl
from .report import DEFAULT_SEED, NclbError, factory, record


class MalformedAlgebraError(NclbError, ValueError):
    """Raised when structure-constant or subspace data refers to out-of-range
    or repeated basis indices."""


@record
class LieAlgebra:
    """dim, basis names, and C[i,j] -> {k: rational} for i < j (1-based)."""

    dim: int
    basis_names: tuple
    c: dict = factory(dict)

    def __post_init__(self):
        if self.dim < 1:
            raise MalformedAlgebraError("dimension must be positive")
        if len(self.basis_names) != self.dim:
            raise MalformedAlgebraError("basis label count != dim")
        for (i, j), comp in self.c.items():
            if not (1 <= i < j <= self.dim):
                raise MalformedAlgebraError(f"bad bracket index pair ({i},{j})")
            for k in comp:
                if not (1 <= k <= self.dim):
                    raise MalformedAlgebraError(f"bad target index {k} in C[{i},{j}]")

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a coordinate vector (1-based arguments)."""
        v = [Fraction(0)] * self.dim
        if i == j:
            return v
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, val in self.c.get((i, j), {}).items():
            v[k - 1] = sign * val
        return v

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        v = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if x[i] == 0:
                continue
            for j in range(self.dim):
                if y[j] == 0 or i == j:
                    continue
                coeff = x[i] * y[j]
                for k, val in enumerate(self.bracket_basis(i + 1, j + 1)):
                    if val != 0:
                        v[k] += coeff * val
        return v

    def ad_trace(self, j):
        """trace of ad_{e_j} = sum_k C_{jk}^k (1-based j)."""
        t = Fraction(0)
        for k in range(1, self.dim + 1):
            if k == j:
                continue
            v = self.bracket_basis(j, k)
            t += v[k - 1]
        return t


@record
class Subspace:
    """Subspace of the ambient algebra, given by rational generator vectors."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(tuple(Fraction(x) for x in g) for g in self.generators)
        object.__setattr__(self, "generators", gens)

    @property
    def rank(self):
        return rl.rank([list(g) for g in self.generators])

    def contains(self, v):
        return rl.rank([list(g) for g in self.generators] + [list(v)]) == self.rank

    def contains_subspace(self, other):
        return all(self.contains(list(g)) for g in other.generators)

    def same_as(self, other):
        return self.contains_subspace(other) and other.contains_subspace(self)

    def standard_indices(self):
        """1-based indices when the RREF basis is a set of standard vectors.

        Returns None if the subspace is not a coordinate subspace.
        """
        r, pivots = rl.rref([list(g) for g in self.generators])
        idx = []
        for row, p in zip(r, pivots):
            if any(x != 0 for i, x in enumerate(row) if i != p) or row[p] != 1:
                return None
            idx.append(p + 1)
        return idx

    @staticmethod
    def spanned_by_indices(dim, indices):
        """The coordinate subspace of the 1-based basis `indices`; an index
        outside 1..dim or a repeated one is malformed."""
        indices = tuple(indices)
        gens = []
        for pos, i in enumerate(indices):
            if not 1 <= i <= dim:
                raise MalformedAlgebraError(f"basis index {i} outside 1..{dim}")
            if i in indices[:pos]:
                raise MalformedAlgebraError(f"repeated basis index {i}")
            v = [Fraction(0)] * dim
            v[i - 1] = Fraction(1)
            gens.append(v)
        return Subspace(tuple(tuple(g) for g in gens))


@record
class Covector:
    components: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple(Fraction(x) for x in self.components)
        )

    def pair(self, v):
        return sum((a * b for a, b in zip(self.components, v)), Fraction(0))


def jacobi_defect(L: LieAlgebra):
    """All basis triples (i,j,k) violating the Jacobi identity, with defects.

    Empty result == the bracket is a Lie bracket.  Exact arithmetic.
    """
    bad = []
    n = L.dim
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for k in range(j + 1, n + 1):
                ei = [Fraction(1 if t == i - 1 else 0) for t in range(n)]
                ej = [Fraction(1 if t == j - 1 else 0) for t in range(n)]
                ek = [Fraction(1 if t == k - 1 else 0) for t in range(n)]
                d = [
                    a + b + c
                    for a, b, c in zip(
                        L.bracket(ei, L.bracket(ej, ek)),
                        L.bracket(ej, L.bracket(ek, ei)),
                        L.bracket(ek, L.bracket(ei, ej)),
                    )
                ]
                if any(x != 0 for x in d):
                    bad.append(((i, j, k), d))
    return bad


def kirillov_matrix(L: LieAlgebra, lam: Covector):
    """B_ij = <lam, [e_i, e_j]>; exactly antisymmetric by construction."""
    if len(lam.components) != L.dim:
        raise ValueError("covector length does not match algebra dimension")
    n = L.dim
    b = rl.zeros(n, n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            val = lam.pair(L.bracket_basis(i, j))
            b[i - 1][j - 1] = val
            b[j - 1][i - 1] = -val
    return b


INDEX_TRIALS = 32
_INDEX_BOUND = 10


def index_witness(L: LieAlgebra, trials: int = INDEX_TRIALS, seed: int = DEFAULT_SEED):
    """(index upper bound, witness covector) from random rational sampling.

    Components are drawn uniformly from {-B..B}/{1..B} with B = 10.  The
    minimum annihilator rank over samples is always an upper bound for the
    index and equals it off a proper subvariety, so it is exact with
    overwhelming probability for modest trial counts.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    best_rank = L.dim
    best_lam = Covector((0,) * L.dim)
    for _ in range(trials):
        comps = tuple(
            Fraction(rng.randint(-_INDEX_BOUND, _INDEX_BOUND), rng.randint(1, _INDEX_BOUND))
            for _ in range(L.dim)
        )
        lam = Covector(comps)
        r = L.dim - rl.rank(kirillov_matrix(L, lam))
        if r < best_rank:
            best_rank = r
            best_lam = lam
    return best_rank, best_lam


def index(L: LieAlgebra, trials: int = INDEX_TRIALS, seed: int = DEFAULT_SEED) -> int:
    return index_witness(L, trials, seed)[0]


def subspace_flags(L: LieAlgebra, H: Subspace):
    """{is_subalgebra, is_ideal, is_commutative} by exact membership tests."""
    gens = [list(g) for g in H.generators]
    n = L.dim
    std = [[Fraction(1 if t == i else 0) for t in range(n)] for i in range(n)]
    is_sub = True
    is_comm = True
    for a in gens:
        for b in gens:
            br = L.bracket(a, b)
            if any(x != 0 for x in br):
                is_comm = False
            if not H.contains(br):
                is_sub = False
    is_ideal = all(H.contains(L.bracket(e, g)) for e in std for g in gens)
    return {"is_subalgebra": is_sub, "is_ideal": is_ideal, "is_commutative": is_comm}


def adapted_basis(L: LieAlgebra, H: Subspace):
    """Invertible matrix whose first rank(H) columns span H.

    The complement is filled greedily with standard basis vectors in index
    order, so the result is deterministic.
    """
    n = L.dim
    gens = [list(g) for g in H.generators]
    if rl.rank(gens) != len(gens):
        raise ValueError("subspace generators are linearly dependent")
    cols = [g[:] for g in gens]
    for i in range(n):
        if len(cols) == n:
            break
        cand = [Fraction(1 if t == i else 0) for t in range(n)]
        if rl.rank(cols + [cand]) > len(cols):
            cols.append(cand)
    t = rl.transpose(cols)
    assert rl.det(t) != 0
    return t


# --- bundled algebras -------------------------------------------------------

def heisenberg_algebra():
    return LieAlgebra(
        dim=3,
        basis_names=("e1", "e2", "e3"),
        c={(1, 2): {3: Fraction(1)}},
    )


def g47_algebra():
    return LieAlgebra(
        dim=4,
        basis_names=("e1", "e2", "e3", "e4"),
        c={
            (1, 4): {1: Fraction(2)},
            (2, 3): {1: Fraction(1)},
            (2, 4): {2: Fraction(1)},
            (3, 4): {2: Fraction(1), 3: Fraction(1)},
        },
    )


def abelian_algebra(n):
    return LieAlgebra(dim=n, basis_names=tuple(f"e{i}" for i in range(1, n + 1)), c={})


# --- JSON interchange -------------------------------------------------------

def algebra_from_json(doc) -> LieAlgebra:
    try:
        dim = int(doc["dim"])
        basis = tuple(doc.get("basis") or (f"e{i}" for i in range(1, dim + 1)))
        c = {}
        for item in doc.get("brackets", []):
            i, j = int(item["i"]), int(item["j"])
            comp = {int(k): rl.frac(v) for k, v in item["c"].items()}
            c[(i, j)] = comp
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedAlgebraError(f"bad algebra document: {exc}") from exc
    return LieAlgebra(dim=dim, basis_names=basis, c=c)


def load_algebra(path) -> LieAlgebra:
    with open(path) as fh:
        return algebra_from_json(json.load(fh))

