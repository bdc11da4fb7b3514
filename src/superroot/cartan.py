"""Cartan data: normalization, admissibility, regularity, symmetrizers.

A ``CartanData`` is an n x n matrix, each entry in the one form that
``linalg.exact`` picks (an int when integral, else a Fraction), together with
a parity vector of the ints 0 and 1; it refuses a bool, float or string entry
and a bool parity.  Normalized means every diagonal entry is 0 or 2.  The
admissibility test implements the three local-nilpotency conditions; the
regularity test checks that vanishing is symmetric.  All indices are 0-based.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import DimensionMismatchError, SuperrootError, ZeroMatrixError
from .linalg import exact, frac


class RankOneType(enum.Enum):
    """Isomorphism type of the rank-one subalgebra attached to one index."""

    HEISENBERG3 = "heisenberg3"
    SL11 = "sl(1,1)"
    SL2 = "sl2"
    OSP12 = "osp(1,2)"


@dataclass(frozen=True)
class CartanData:
    matrix: tuple[tuple[int | Fraction, ...], ...]
    parity: tuple[int, ...]

    def __post_init__(self):
        matrix = tuple(tuple(map(exact, row)) for row in self.matrix)
        parity = tuple(self.parity)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise DimensionMismatchError("matrix is not square")
        if len(parity) != n:
            raise DimensionMismatchError("parity vector length differs from matrix size")
        if any(type(p) is not int for p in parity):
            raise TypeError(f"parities are the ints 0 and 1, not {parity!r}")
        if any(p not in (0, 1) for p in parity):
            raise ValueError("parity entries must be 0 or 1")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "parity", parity)

    @property
    def n(self) -> int:
        return len(self.matrix)

    def indecomposable(self) -> bool:
        """Connectivity of the graph with an edge whenever a_ij or a_ji is nonzero."""
        return self.n > 0 and sum(1 for _ in _tree_edges(self.matrix)) == self.n - 1

    def root_parity(self, coords: Iterable[int]) -> int:
        """Parity of a root-lattice vector, additive over the simple roots."""
        return sum(c * p for c, p in zip(coords, self.parity)) % 2


@dataclass(frozen=True)
class ValidationReport:
    admissible: bool
    admissibility_violations: tuple[tuple[int, int, int], ...]  # (condition, i, j)
    regular: bool
    irregular_pairs: tuple[tuple[int, int], ...]
    symmetrizable: bool
    indecomposable: bool

    def ok(self) -> bool:
        return self.admissible and self.regular


def normalize(matrix: Iterable[Iterable], parity: Iterable[int]) -> CartanData:
    """Rescale each row with a nonzero diagonal so the diagonal entry is 2.

    Entries go through ``linalg.frac``; each parity must be the int 0 or 1.
    """
    parity = tuple(parity)
    if any(type(p) is not int or p not in (0, 1) for p in parity):
        raise SuperrootError(f"parities must be the integers 0 and 1, got {list(parity)!r}")
    m = [[frac(x) for x in row] for row in matrix]
    if all(x == 0 for row in m for x in row):
        raise ZeroMatrixError("Cartan matrix is zero")
    return CartanData(tuple(row if row[i] == 0 else [x * 2 / row[i] for x in row]
                            for i, row in enumerate(m)), parity)


def validate(cd: CartanData) -> ValidationReport:
    """Check admissibility (three conditions), regularity and symmetrizability."""
    n = cd.n
    a = cd.matrix
    violations: list[tuple[int, int, int]] = []
    for i in range(n):
        if a[i][i] == 0 and cd.parity[i] == 0:
            for j in range(n):
                if j != i and a[i][j] != 0:
                    violations.append((1, i, j))
        elif a[i][i] == 2:
            unit = 2 if cd.parity[i] == 1 else 1
            for j in range(n):
                if j == i:
                    continue
                x = a[i][j]
                if not (x <= 0 and x.denominator == 1 and x.numerator % unit == 0):
                    violations.append((2, i, j))
                if x == 0 and a[j][i] != 0:
                    violations.append((3, i, j))
    irregular = tuple(
        (i, j)
        for i in range(n)
        for j in range(n)
        if a[i][j] == 0 and a[j][i] != 0
    )
    return ValidationReport(
        admissible=not violations,
        admissibility_violations=tuple(violations),
        regular=not irregular,
        irregular_pairs=irregular,
        symmetrizable=symmetrizer(cd) is not None,
        indecomposable=cd.indecomposable(),
    )


def symmetrizer(cd: CartanData) -> Optional[tuple[Fraction, ...]]:
    """Diagonal d with d_i a_ij = d_j a_ji, anchored at d_0 = 1 per component.

    Returns None when no invertible diagonal symmetrizer exists.  The entries
    are nonzero rationals; in the super setting they routinely carry mixed
    signs.
    """
    n = cd.n
    a = cd.matrix
    d = [Fraction(1)] * n  # the first index of each component keeps its 1
    for i, j in _tree_edges(a):
        if a[i][j] == 0 or a[j][i] == 0:
            return None
        d[j] = d[i] * a[i][j] / a[j][i]
    for i in range(n):
        for j in range(n):
            if d[i] * a[i][j] != d[j] * a[j][i]:
                return None
    return tuple(d)


def _tree_edges(a) -> Iterator[tuple[int, int]]:
    """The tree edges (i, j), j first reached from i, of a depth-first walk over
    every component of the graph with an edge where a_ij or a_ji is nonzero."""
    n = len(a)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if not seen[j] and (a[i][j] != 0 or a[j][i] != 0):
                    seen[j] = True
                    stack.append(j)
                    yield i, j


def rank_one_type(cd: CartanData, i: int) -> RankOneType:
    """Type of the subalgebra generated by the i-th Chevalley pair (0-based)."""
    if not 0 <= i < cd.n:
        raise IndexError(f"index {i} out of range for rank {cd.n}")
    diag = cd.matrix[i][i]
    p = cd.parity[i]
    if diag == 0:
        return RankOneType.SL11 if p else RankOneType.HEISENBERG3
    if diag == 2:
        return RankOneType.OSP12 if p else RankOneType.SL2
    raise ValueError("Cartan data is not normalized")


def cartan_from_json(obj: dict) -> CartanData:
    """Parse {"matrix": [[...]], "parity": [...]} with rationals as "p/q".

    Nothing is coerced: the matrix is a square list of lists of JSON
    ints or "p/q" strings, and each parity is the int 0 or 1.
    """
    if not isinstance(obj, dict) or "matrix" not in obj or "parity" not in obj:
        raise SuperrootError('expected an object with keys "matrix" and "parity"')
    rows, parity = obj["matrix"], obj["parity"]
    if not isinstance(rows, list) or any(not isinstance(r, list) or len(r) != len(rows) for r in rows):
        raise SuperrootError(f"the matrix must be a square list of lists, got {rows!r}")
    if not isinstance(parity, list):
        raise SuperrootError(f"parities must be a list of the integers 0 and 1, got {parity!r}")
    return normalize(rows, parity)


def cartan_to_json(cd: CartanData) -> dict:
    """An int entry as itself, a Fraction as "p/q"."""
    return {
        "matrix": [[x if type(x) is int else f"{x.numerator}/{x.denominator}" for x in row]
                   for row in cd.matrix],
        "parity": list(cd.parity),
    }
