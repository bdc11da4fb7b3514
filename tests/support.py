"""Reference helpers that only the tests use."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from superroot import oracle, rootspace as rs
from superroot.cartan import CartanData
from superroot.catalog import EpsDeltaVector, RootSystemHandle
from superroot.linalg import rref
from superroot.oracle import GradedMatrix, Realization, SubalgebraBasis, WeightedElement, gm_bracket
from superroot.rootspace import Root


_SMALL_FINITE = (
    "A(0,1)", "A(1,0)", "A(0,2)", "A(2,0)",
    "B(0,1)", "B(1,1)", "B(0,2)", "B(2,1)", "B(1,2)", "B(0,3)",
    "C(2)", "C(3)", "D(2,1)",
    "D(2,1;1)", "D(2,1;1/2)", "D(2,1;-5/3)", "D(2,1;3)",
)
# small finite types, their untwisted affinizations and one twisted type
SMALL_CATALOG = _SMALL_FINITE + tuple(f + "^(1)" for f in _SMALL_FINITE) + ("A(2,2)^(4)",)


def pair(beta: Sequence, h: Sequence, cd: CartanData) -> Fraction:
    """Reference: beta on the coroot combination h, sum over i,j of h_i beta_j a_ij."""
    assert len(beta) == len(h) == cd.n
    return sum((hi * beta[j] * cd.matrix[i][j] for i, hi in enumerate(h) for j in range(cd.n)), Fraction(0))


def bilinear(beta: Sequence, gamma: Sequence, cd: CartanData, d: Sequence[Fraction]) -> Fraction:
    """Reference: the symmetrized form (alpha_i, alpha_j) = d_i a_ij, extended bilinearly."""
    assert len(beta) == len(gamma) == cd.n
    return sum((d[i] * bi * gamma[j] * cd.matrix[i][j] for i, bi in enumerate(beta) for j in range(cd.n)),
               Fraction(0))


def reflect_pair(handle: RootSystemHandle, alpha: Root, beta: Root) -> Root:
    """Reference: s_alpha(beta) for one pair, asking the handle afresh each time."""
    if handle.is_isotropic(alpha):
        if beta == alpha or beta == rs.neg(alpha):
            return rs.neg(beta)
        if handle.is_real(rs.add(alpha, beta)):
            return rs.add(beta, alpha)
        return beta
    return rs.sub(beta, rs.scale(handle.pairing(beta, alpha), alpha))


def claim_a_root(monkeypatch, label: str, finite: tuple[int, ...]) -> None:
    """Make every handle of type ``label`` call the degree-0 vector with eps+delta
    coordinates ``finite`` a root: a lie that the law checkers must report."""
    contains = RootSystemHandle.contains_ed

    def lying(self, v: EpsDeltaVector) -> bool:
        if self.label == label and v.eps + v.delta == finite and v.null == 0:
            return True
        return contains(self, v)

    monkeypatch.setattr(RootSystemHandle, "contains_ed", lying)


def det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix, by fraction-free (Bareiss) elimination."""
    assert all(type(x) is int for row in rows for x in row)
    m = [list(r) for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def rank(rows: Sequence[Sequence]) -> int:
    """Exact rank, the pivot count of the reduced row echelon form."""
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Basis of the right nullspace of A."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


def super_jacobi_defect(x: GradedMatrix, y: GradedMatrix, z: GradedMatrix) -> GradedMatrix:
    """[x,[y,z]] - [[x,y],z] - (-1)^{p(x)p(y)} [y,[x,z]]; zero iff Jacobi holds."""
    lhs = gm_bracket(x, gm_bracket(y, z))
    r1 = gm_bracket(gm_bracket(x, y), z)
    r2 = gm_bracket(y, gm_bracket(x, z))
    sign = Fraction(-1 if (x.parity and y.parity) else 1)
    return plus(plus(lhs, r1.scaled(Fraction(-1))), r2.scaled(-sign))


def plus(x: GradedMatrix, y: GradedMatrix) -> GradedMatrix:
    """x + y, for matrices of one parity."""
    if x.parity != y.parity:
        raise ValueError("cannot add matrices of different parity")
    acc = dict(x.nz)
    for k, v in y.nz.items():
        acc[k] = acc.get(k, 0) + v
    return GradedMatrix(acc, x.parity, x.space)


@dataclass(frozen=True)
class MembershipReport:
    in_delta: bool
    real: bool
    imaginary: bool
    parity: Optional[int]
    isotropic: Optional[bool]


def membership_classify(handle: RootSystemHandle, v: EpsDeltaVector) -> MembershipReport:
    """Bundle membership, reality, parity and isotropy from one membership query."""
    in_delta = handle.contains_ed(v)
    finite = any(v.eps) or any(v.delta)
    return MembershipReport(
        in_delta=in_delta,
        real=in_delta and finite,
        imaginary=in_delta and not finite,
        parity=handle.parity_ed(v) if in_delta else None,
        isotropic=is_isotropic_ed(handle, v) if in_delta else None,
    )


def positive_real_roots(
    handle: RootSystemHandle, max_height: Optional[int] = None, max_degree: Optional[int] = None
) -> list[Root]:
    return [r for r in handle.real_roots(max_height, max_degree) if handle.is_positive(r)]


def is_imaginary_ed(handle: RootSystemHandle, v: EpsDeltaVector) -> bool:
    """Imaginary roots are the nonzero multiples of the null root."""
    return handle.contains_ed(v) and not (any(v.eps) or any(v.delta))


def is_imaginary(handle: RootSystemHandle, root: Sequence[int]) -> bool:
    return is_imaginary_ed(handle, handle.to_ed(root))


def is_isotropic_ed(handle: RootSystemHandle, v: EpsDeltaVector) -> bool:
    return handle._form(v, v) == 0


def recomputed_cartan(realization: Realization) -> tuple[tuple[Fraction, ...], ...]:
    """The Cartan matrix read back from the realized coroots h_i."""
    return tuple(tuple(oracle._weight_eval(realization._plus_coord, aj, h.matrix)
                       for aj in realization.handle.simple_ed)
                 for _, _, h in realization.generators)


def by_weight(basis: SubalgebraBasis, weight: tuple[int, ...]) -> list[WeightedElement]:
    return [e for e in basis.elements if e.weight == weight]


def weights(basis: SubalgebraBasis) -> set[tuple[int, ...]]:
    return {e.weight for e in basis.elements}
