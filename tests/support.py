"""Reference helpers that only the tests use."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from superroot.catalog import EpsDeltaVector, RootSystemHandle
from superroot.linalg import Vec, rref
from superroot.oracle import GradedMatrix, Realization, SubalgebraBasis, WeightedElement, gm_bracket
from superroot.rootspace import Root


def nullspace(rows: Sequence[Sequence[Fraction]]) -> list[Vec]:
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
    return lhs.plus(r1.scaled(Fraction(-1))).plus(r2.scaled(-sign))


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
    return handle.bilinear_ed(v, v) == 0


def recomputed_cartan(realization: Realization) -> tuple[tuple[Fraction, ...], ...]:
    """The Cartan matrix read back from the realized coroots h_i."""
    return tuple(tuple(realization.weight_eval(aj, h.matrix) for aj in realization.handle.simple_ed)
                 for _, _, h in realization.generators)


def by_weight(basis: SubalgebraBasis, weight: tuple[int, ...]) -> list[WeightedElement]:
    return [e for e in basis.elements if e.weight == weight]


def weights(basis: SubalgebraBasis) -> set[tuple[int, ...]]:
    return {e.weight for e in basis.elements}
