"""Closed-form root-system handles in epsilon/delta coordinates.

Each handle answers exact membership, reality, parity and isotropy queries
for one catalog type, exposes a distinguished base in both coordinate systems
and converts between epsilon/delta and simple-root coordinates.

Families shipped: A(m,n) with m != n, B(m,n), C(n), D(m,n), D(2,1;a), their
untwisted affinizations, and the twisted family A(2k,2l)^(4).  B(m,n), C(n)
and D(m,n) are all osp(M|2n) and share one handle, ``_OspHandle``; only the
distinguished base and the presence of the short roots differ between them.
F(4) and G(3) are staged out of this release.  The null root of an affine
type is written ``null`` in code to keep it apart from the odd coordinates
delta_p.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import lcm
from typing import Iterator, Optional, Sequence

from . import cartan as cartan_mod
from .cartan import CartanData
from .errors import (
    DimensionMismatchError,
    IsotropicReflectorError,
    NotInLatticeError,
    UnsupportedTypeError,
)
from .linalg import rank, rref
from .rootspace import Root, height

FINITE = "finite"
AFFINE = "affine"
TWISTED4 = "twisted4"


@dataclass(frozen=True)
class CatalogType:
    family: str  # "A" | "B" | "C" | "D" | "D21"
    m: int = 0
    n: int = 0
    twist: str = FINITE
    param: Optional[Fraction] = None  # the parameter of D(2,1;a)

    @property
    def label(self) -> str:
        if self.family == "C":
            core = f"C({self.n})"
        elif self.family == "D21":
            core = f"D(2,1;{self.param})"
        else:
            core = f"{self.family}({self.m},{self.n})"
        if self.twist == AFFINE:
            return core + "^(1)"
        if self.twist == TWISTED4:
            return core + "^(4)"
        return core


_TYPE_RE = re.compile(r"^([ABCD])\(([^()]*)\)(?:\^\((\d)\))?$")


def parse_type(spec: str) -> CatalogType:
    """Parse a type label such as "B(1,1)^(1)", "A(2,2)^(4)" or "D(2,1;1/2)"."""
    m = _TYPE_RE.match(spec.strip())
    if not m:
        raise UnsupportedTypeError(f"cannot parse type spec {spec!r}")
    fam, args, twist_digit = m.group(1), m.group(2), m.group(3)
    twist = {None: FINITE, "1": AFFINE, "4": TWISTED4}.get(twist_digit)
    if twist is None:
        raise UnsupportedTypeError(f"unknown twist in {spec!r}")
    parts = [p.strip() for p in args.split(";")]
    ranks = [p.strip() for p in parts[0].split(",")]
    if fam == "D" and len(parts) == 2:
        if ranks != ["2", "1"]:
            raise UnsupportedTypeError(f"parametric family requires D(2,1;a), got {spec!r}")
        return CatalogType("D21", 2, 1, twist, Fraction(parts[1]))
    if len(parts) != 1:
        raise UnsupportedTypeError(f"unexpected parameter in {spec!r}")
    if fam == "C":
        if len(ranks) != 1:
            raise UnsupportedTypeError(f"C takes one rank, got {spec!r}")
        return CatalogType("C", 0, int(ranks[0]), twist)
    if len(ranks) != 2:
        raise UnsupportedTypeError(f"{fam} takes two ranks, got {spec!r}")
    return CatalogType(fam, int(ranks[0]), int(ranks[1]), twist)


@dataclass(frozen=True)
class EpsDeltaVector:
    """Integer vector over eps_1..eps_m, delta_1..delta_n and the null root."""

    eps: tuple[int, ...] = ()
    delta: tuple[int, ...] = ()
    null: int = 0

    def __add__(self, other: "EpsDeltaVector") -> "EpsDeltaVector":
        return EpsDeltaVector(
            tuple(a + b for a, b in zip(self.eps, other.eps)),
            tuple(a + b for a, b in zip(self.delta, other.delta)),
            self.null + other.null,
        )

    def __sub__(self, other: "EpsDeltaVector") -> "EpsDeltaVector":
        return self + (-other)

    def __neg__(self) -> "EpsDeltaVector":
        return EpsDeltaVector(
            tuple(-a for a in self.eps), tuple(-a for a in self.delta), -self.null
        )

    def scaled(self, k: int) -> "EpsDeltaVector":
        return EpsDeltaVector(
            tuple(k * a for a in self.eps), tuple(k * a for a in self.delta), k * self.null
        )

    def is_zero(self) -> bool:
        return self.null == 0 and not any(self.eps) and not any(self.delta)

    def finite_part(self) -> "EpsDeltaVector":
        return EpsDeltaVector(self.eps, self.delta, 0)

    def coords(self) -> tuple[int, ...]:
        return self.eps + self.delta + (self.null,)


@dataclass(frozen=True)
class MembershipReport:
    in_delta: bool
    real: bool
    imaginary: bool
    parity: Optional[int]
    isotropic: Optional[bool]


def _unit(dim: int, i: int, val: int = 1) -> tuple[int, ...]:
    v = [0] * dim
    v[i] = val
    return tuple(v)


def _step(dim: int, i: int) -> tuple[int, ...]:
    """The unit vector i minus the unit vector i + 1."""
    v = [0] * dim
    v[i], v[i + 1] = 1, -1
    return tuple(v)


def _support(xs: Sequence[int]) -> list[tuple[int, int]]:
    return [(i, x) for i, x in enumerate(xs) if x != 0]


class RootSystemHandle:
    """Membership and classification oracle for one catalog type.

    The symmetric form is diagonal in eps/delta coordinates.  It is kept in
    integers: ``_denom`` is the common denominator D of the eps norms (1 for
    every type but D(2,1;a) with non-integral a) and ``_form`` returns D times
    the form, so isotropy and pairings never build a ``Fraction`` sum.

    Immutable after construction; a handle may be shared freely.
    """

    def __init__(
        self,
        ctype: CatalogType,
        eps_dim: int,
        delta_dim: int,
        eps_norms: Sequence[Fraction],
        parity_coeffs: Sequence[int],
        simple_ed: Sequence[EpsDeltaVector],
        simple_parities: Sequence[int],
        iso_gauges: Sequence[Fraction],
        has_null: bool,
    ):
        self.ctype = ctype
        self.label = ctype.label
        self.eps_dim = eps_dim
        self.delta_dim = delta_dim
        self.has_null = has_null
        self.eps_norms = tuple(eps_norms)
        self._denom = lcm(*(x.denominator for x in self.eps_norms))
        # D times the norm of each eps then delta coordinate
        self._int_norms = (tuple(int(x * self._denom) for x in self.eps_norms)
                           + (-self._denom,) * delta_dim)
        self.parity_coeffs = tuple(parity_coeffs)
        self.simple_ed = tuple(simple_ed)
        self.simple_parities = tuple(simple_parities)
        self.rank = len(self.simple_ed)
        self._iso_gauges = tuple(iso_gauges)
        self._coord_dim = eps_dim + delta_dim + 1
        self._simple_coords = [v.coords() for v in self.simple_ed]
        if rank(self._simple_coords) != self.rank:
            raise AssertionError("distinguished base is not linearly independent")
        self._ed_cache: dict[tuple[int, ...], EpsDeltaVector] = {}
        self._build_alpha_solver()
        self.cartan = self._build_cartan()
        self.symmetrizer = cartan_mod.symmetrizer(self.cartan)
        report = cartan_mod.validate(self.cartan)
        if not report.ok():
            raise AssertionError(f"catalog base for {self.label} failed validation: {report}")

    # -- family-specific ---------------------------------------------------

    def contains_ed(self, v: EpsDeltaVector) -> bool:
        raise NotImplementedError

    def is_imaginary_ed(self, v: EpsDeltaVector) -> bool:
        """Imaginary roots are the nonzero multiples of the null root."""
        return self.contains_ed(v) and v.finite_part().is_zero()

    def real_roots_ed(self, max_degree: Optional[int] = None) -> Iterator[EpsDeltaVector]:
        raise NotImplementedError

    # -- form, parity, isotropy --------------------------------------------

    def _check_dims(self, v: EpsDeltaVector):
        if len(v.eps) != self.eps_dim or len(v.delta) != self.delta_dim:
            raise DimensionMismatchError(
                f"vector ({len(v.eps)}|{len(v.delta)}) does not match {self.label}"
            )
        if v.null and not self.has_null:
            raise DimensionMismatchError(f"{self.label} has no null direction")

    def _form(self, v: EpsDeltaVector, w: EpsDeltaVector) -> int:
        """D (v, w) in integers, skipping zero coordinates."""
        total = 0
        for s, a, b in zip(self._int_norms, v.eps + v.delta, w.eps + w.delta):
            if a and b:
                total += s * a * b
        return total

    def bilinear_ed(self, v: EpsDeltaVector, w: EpsDeltaVector) -> Fraction:
        """(eps_i,eps_j) = s_i delta_ij, (delta_p,delta_q) = -delta_pq, null isotropic."""
        return Fraction(self._form(v, w), self._denom)

    def parity_ed(self, v: EpsDeltaVector) -> int:
        return sum(c * x for c, x in zip(self.parity_coeffs, v.coords())) % 2

    def is_isotropic_ed(self, v: EpsDeltaVector) -> bool:
        return self._form(v, v) == 0

    def is_real_ed(self, v: EpsDeltaVector) -> bool:
        return self.contains_ed(v) and not v.finite_part().is_zero()

    def membership_classify(self, v: EpsDeltaVector) -> "MembershipReport":
        """Bundle membership, reality, parity and isotropy for one query vector."""
        self._check_dims(v)
        in_delta = self.contains_ed(v)
        return MembershipReport(
            in_delta=in_delta,
            real=in_delta and self.is_real_ed(v),
            imaginary=in_delta and self.is_imaginary_ed(v),
            parity=self.parity_ed(v) if in_delta else None,
            isotropic=self.is_isotropic_ed(v) if in_delta else None,
        )

    # -- coordinate conversion ----------------------------------------------

    def _build_alpha_solver(self) -> None:
        # One RREF of [M | I] up front; afterwards every to_alpha query is a
        # handful of dot products plus consistency checks.
        n, d = self.rank, self._coord_dim
        aug = [
            [Fraction(self._simple_coords[i][k]) for i in range(n)]
            + [Fraction(1) if j == k else Fraction(0) for j in range(d)]
            for k in range(d)
        ]
        red, pivots = rref(aug)
        self._alpha_solution_rows: list[tuple[int, list[Fraction]]] = []
        self._alpha_consistency_rows: list[list[Fraction]] = []
        for row_idx, pivot in enumerate(pivots):
            tail = red[row_idx][n:]
            if pivot < n:
                self._alpha_solution_rows.append((pivot, tail))
            else:
                self._alpha_consistency_rows.append(tail)

    def to_ed(self, root: Sequence[int]) -> EpsDeltaVector:
        key = tuple(root)
        cached = self._ed_cache.get(key)
        if cached is not None:
            return cached
        if len(key) != self.rank:
            raise DimensionMismatchError("root length differs from rank")
        acc = [0] * self._coord_dim
        for c, sv in zip(key, self._simple_coords):
            if c:
                for k, x in enumerate(sv):
                    acc[k] += c * x
        e, d = self.eps_dim, self.delta_dim
        out = EpsDeltaVector(tuple(acc[:e]), tuple(acc[e : e + d]), acc[-1])
        self._ed_cache[key] = out
        return out

    def to_alpha(self, v: EpsDeltaVector) -> Root:
        """Simple-root coordinates of a lattice vector; exact and unique."""
        self._check_dims(v)
        coords = v.coords()
        for tail in self._alpha_consistency_rows:
            if sum(t * x for t, x in zip(tail, coords) if x) != 0:
                raise NotInLatticeError(f"{v} is not in the root lattice of {self.label}")
        sol = [0] * self.rank
        for pivot, tail in self._alpha_solution_rows:
            val = sum((t * x for t, x in zip(tail, coords) if x), Fraction(0))
            if val.denominator != 1:
                raise NotInLatticeError(f"{v} has non-integer simple-root coordinates")
            sol[pivot] = int(val)
        return tuple(sol)

    # -- alpha-coordinate interface ------------------------------------------

    def contains(self, root: Sequence[int]) -> bool:
        return self.contains_ed(self.to_ed(root))

    def is_real(self, root: Sequence[int]) -> bool:
        return self.is_real_ed(self.to_ed(root))

    def is_imaginary(self, root: Sequence[int]) -> bool:
        return self.is_imaginary_ed(self.to_ed(root))

    def parity(self, root: Sequence[int]) -> int:
        return self.parity_ed(self.to_ed(root))

    def is_isotropic(self, root: Sequence[int]) -> bool:
        return self.is_isotropic_ed(self.to_ed(root))

    def is_positive(self, root: Sequence[int]) -> bool:
        return any(c != 0 for c in root) and all(c >= 0 for c in root)

    def bilinear(self, beta: Sequence[int], gamma: Sequence[int]) -> Fraction:
        return self.bilinear_ed(self.to_ed(beta), self.to_ed(gamma))

    def pairing(self, beta: Sequence[int], alpha: Sequence[int]) -> Fraction:
        """beta(h_alpha) = 2(beta,alpha)/(alpha,alpha) for non-isotropic alpha."""
        a = self.to_ed(alpha)
        aa = self._form(a, a)
        if aa == 0:
            raise IsotropicReflectorError(f"{alpha} is isotropic; no canonical coroot pairing")
        return Fraction(2 * self._form(self.to_ed(beta), a), aa)

    def simple_roots_alpha(self) -> tuple[Root, ...]:
        return tuple(_unit(self.rank, i) for i in range(self.rank))

    def null_root(self) -> Optional[Root]:
        if not self.has_null:
            return None
        return self.to_alpha(EpsDeltaVector((0,) * self.eps_dim, (0,) * self.delta_dim, 1))

    def degree_of(self, root: Sequence[int]) -> int:
        return self.to_ed(root).null

    def finite_part(self, root: Sequence[int]) -> EpsDeltaVector:
        return self.to_ed(root).finite_part()

    @property
    def is_finite(self) -> bool:
        return not self.has_null

    def real_roots(
        self, max_height: Optional[int] = None, max_degree: Optional[int] = None
    ) -> list[Root]:
        """Real roots in alpha-coordinates, sorted, within the given bounds."""
        if self.has_null and max_degree is None:
            if max_height is None:
                raise ValueError("affine enumeration needs max_height or max_degree")
            max_degree = max_height
        out = []
        for v in self.real_roots_ed(max_degree):
            r = self.to_alpha(v)
            if max_height is None or height(r) <= max_height:
                out.append(r)
        return sorted(out)

    def positive_real_roots(
        self, max_height: Optional[int] = None, max_degree: Optional[int] = None
    ) -> list[Root]:
        return [r for r in self.real_roots(max_height, max_degree) if self.is_positive(r)]

    def imaginary_roots(self, max_degree: int) -> list[Root]:
        if not self.has_null:
            return []
        base = EpsDeltaVector((0,) * self.eps_dim, (0,) * self.delta_dim, 1)
        return sorted(
            self.to_alpha(base.scaled(k))
            for k in range(-max_degree, max_degree + 1)
            if k != 0 and self.contains_ed(base.scaled(k))
        )

    def all_roots(
        self, max_height: Optional[int] = None, max_degree: Optional[int] = None
    ) -> list[Root]:
        out = list(self.real_roots(max_height, max_degree))
        if self.has_null:
            d = max_degree if max_degree is not None else max_height
            for r in self.imaginary_roots(d):
                if max_height is None or height(r) <= max_height:
                    out.append(r)
        return sorted(out)

    # -- Cartan data ----------------------------------------------------------

    def _build_cartan(self) -> CartanData:
        n = self.rank
        rows = []
        for i in range(n):
            ai = self.simple_ed[i]
            norm = self.bilinear_ed(ai, ai)
            row = []
            for j in range(n):
                val = self.bilinear_ed(ai, self.simple_ed[j])
                row.append(2 * val / norm if norm != 0 else self._iso_gauges[i] * val)
            rows.append(tuple(row))
        cd = CartanData(tuple(rows), tuple(self.simple_parities))
        for i in range(n):
            if cd.root_parity(_unit(n, i)) != self.simple_parities[i]:
                raise AssertionError("parity functional disagrees with simple parities")
        return cd


# ---------------------------------------------------------------------------
# finite families


class FiniteHandle(RootSystemHandle):
    def __init__(self, ctype, eps_dim, delta_dim, eps_norms, parity_coeffs,
                 simple_ed, simple_parities, iso_gauges, highest_root: EpsDeltaVector):
        self.highest_root = highest_root
        super().__init__(
            ctype, eps_dim, delta_dim, eps_norms, parity_coeffs,
            simple_ed, simple_parities, iso_gauges, has_null=False,
        )
        if not self.contains_ed(highest_root):
            raise AssertionError("highest root is not a root")

    def contains_ed(self, v: EpsDeltaVector) -> bool:
        self._check_dims(v)
        return v.null == 0 and self._contains_finite(v)

    def _contains_finite(self, v: EpsDeltaVector) -> bool:
        """The family rule on the eps and delta entries of v; no checks, null ignored."""
        raise NotImplementedError


def _pattern_pairs(dim: int, val_i: int, val_j: int) -> Iterator[tuple[int, ...]]:
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            v = [0] * dim
            v[i], v[j] = val_i, val_j
            yield tuple(v)


class _TypeAHandle(FiniteHandle):
    """A(m,n) = sl(m+1|n+1) with m != n; eps_1..eps_{m+1}, delta_1..delta_{n+1}."""

    def _contains_finite(self, v: EpsDeltaVector) -> bool:
        se, sd = _support(v.eps), _support(v.delta)
        if len(se) == 2 and not sd:
            return sorted(x for _, x in se) == [-1, 1]
        if len(sd) == 2 and not se:
            return sorted(x for _, x in sd) == [-1, 1]
        if len(se) == 1 and len(sd) == 1:
            return abs(se[0][1]) == 1 and sd[0][1] == -se[0][1]
        return False

    def real_roots_ed(self, max_degree=None) -> Iterator[EpsDeltaVector]:
        e, d = self.eps_dim, self.delta_dim
        zd, ze = (0,) * d, (0,) * e
        for ev in _pattern_pairs(e, 1, -1):
            yield EpsDeltaVector(ev, zd)
        for dv in _pattern_pairs(d, 1, -1):
            yield EpsDeltaVector(ze, dv)
        for i in range(e):
            for p in range(d):
                for s in (1, -1):
                    yield EpsDeltaVector(_unit(e, i, s), _unit(d, p, -s))


def _osp_pattern(e: int, d: int, short: bool, null: int = 0) -> Iterator[EpsDeltaVector]:
    """The real roots of osp(M|2d) with e eps coordinates, at null degree ``null``.

    Each vector with two entries +-1 and each +-2 delta_p, plus each +-eps_i
    and +-delta_p when ``short`` (M odd); every one exactly once.
    """
    n = e + d

    def vec(entries) -> EpsDeltaVector:
        c = [0] * n
        for i, x in entries:
            c[i] = x
        return EpsDeltaVector(tuple(c[:e]), tuple(c[e:]), null)

    for i, j in combinations(range(n), 2):
        for a in (1, -1):
            for b in (1, -1):
                yield vec(((i, a), (j, b)))
    for i in range(n):
        for x in ((1, -1) if short else ()) + ((2, -2) if i >= e else ()):
            yield vec(((i, x),))


class _OspHandle(FiniteHandle):
    """B(m,n) = osp(2m+1|2n), C(n) = osp(2|2n-2) and D(m,n) = osp(2m|2n).

    A vector with two nonzero entries is a root when both are +-1; one with a
    single nonzero entry when it is +-2 delta_p or, for B only, +-eps_i or
    +-delta_p (the short roots of odd M).  C(n) has one eps, so the rule for
    D needs no change for it.
    """

    def __init__(self, ctype: CatalogType, *args):
        self._short = ctype.family == "B"
        super().__init__(ctype, *args)

    def _contains_finite(self, v: EpsDeltaVector) -> bool:
        sup = _support(v.eps + v.delta)
        if len(sup) == 2:
            return abs(sup[0][1]) == 1 and abs(sup[1][1]) == 1
        if len(sup) == 1:
            i, x = sup[0]
            return (abs(x) == 2 and i >= self.eps_dim) or (abs(x) == 1 and self._short)
        return False

    def real_roots_ed(self, max_degree=None) -> Iterator[EpsDeltaVector]:
        return _osp_pattern(self.eps_dim, self.delta_dim, self._short)


class _TypeD21Handle(FiniteHandle):
    """D(2,1;a): three eps coordinates, norms (-(1+a), 1, a)."""

    def _contains_finite(self, v: EpsDeltaVector) -> bool:
        se = _support(v.eps)
        if len(se) == 1:
            return abs(se[0][1]) == 2
        return len(se) == 3 and all(abs(x) == 1 for _, x in se)

    def real_roots_ed(self, max_degree=None) -> Iterator[EpsDeltaVector]:
        for i in range(3):
            for s in (2, -2):
                yield EpsDeltaVector(_unit(3, i, s), ())
        for a in (1, -1):
            for b in (1, -1):
                for c in (1, -1):
                    yield EpsDeltaVector((a, b, c), ())


def _build_finite(ctype: CatalogType) -> FiniteHandle:
    fam, m, n = ctype.family, ctype.m, ctype.n
    ones = Fraction(1)
    if fam == "D21":
        a = ctype.param
        if a is None or a == 0 or a == -1:
            raise UnsupportedTypeError("D(2,1;a) requires a rational a outside {0,-1}")
        simples = [
            EpsDeltaVector((1, -1, -1), ()),
            EpsDeltaVector((0, 2, 0), ()),
            EpsDeltaVector((0, 0, 2), ()),
        ]
        theta = EpsDeltaVector((2, 0, 0), ())
        return _TypeD21Handle(
            ctype, 3, 0, (-(1 + a), Fraction(1), a), (0, 0, 1, 0),
            simples, (1, 0, 0), (Fraction(-1, 2), ones, ones), theta,
        )
    if fam == "A":
        if m == n:
            raise UnsupportedTypeError(
                f"A({m},{n}) has degenerate Cartan data and is not quasisimple; unsupported"
            )
        if m < 0 or n < 0:
            raise UnsupportedTypeError("negative rank")
        cls, e, d = _TypeAHandle, m + 1, n + 1
        simples = [EpsDeltaVector(_step(e, i), (0,) * d) for i in range(m)]
        simples.append(EpsDeltaVector(_unit(e, m), _unit(d, 0, -1)))
        simples += [EpsDeltaVector((0,) * e, _step(d, p)) for p in range(n)]
        parities = [0] * m + [1] + [0] * n
        theta = EpsDeltaVector(_unit(e, 0), _unit(d, d - 1, -1))
    elif fam in ("B", "D"):
        if fam == "B" and (n < 1 or m < 0):
            raise UnsupportedTypeError("B(m,n) requires n >= 1")
        if fam == "D" and (m < 2 or n < 1):
            raise UnsupportedTypeError("D(m,n) requires m >= 2, n >= 1")
        # delta_p - delta_{p+1}, then the odd root delta_n - eps_1 (delta_n
        # alone for B(0,n)), eps_i - eps_{i+1}, and last eps_m for B or
        # eps_{m-1} + eps_m for D.
        cls, e, d = _OspHandle, m, n
        simples = [EpsDeltaVector((0,) * m, _step(n, p)) for p in range(n - 1)]
        simples.append(EpsDeltaVector(_unit(m, 0, -1) if m else (), _unit(n, n - 1)))
        simples += [EpsDeltaVector(_step(m, i), (0,) * n) for i in range(m - 1)]
        if m:
            last = (0,) * (m - 2) + (1, 1) if fam == "D" else _unit(m, m - 1)
            simples.append(EpsDeltaVector(last, (0,) * n))
        parities = [0] * (n - 1) + [1] + [0] * m
        theta = EpsDeltaVector((0,) * m, _unit(n, 0, 2))
    elif fam == "C":
        if n < 2:
            raise UnsupportedTypeError("C(n) requires n >= 2")
        cls, e, d = _OspHandle, 1, n - 1
        simples = [EpsDeltaVector((1,), _unit(d, 0, -1))]
        simples += [EpsDeltaVector((0,), _step(d, p)) for p in range(d - 1)]
        simples.append(EpsDeltaVector((0,), _unit(d, d - 1, 2)))
        parities = [1] + [0] * d
        theta = EpsDeltaVector((1,), _unit(d, 0))
    else:
        raise UnsupportedTypeError(f"family {ctype.family!r} is not in the catalog")
    return cls(
        ctype, e, d, (ones,) * e, (0,) * e + (1,) * d + (0,),
        simples, parities, (ones,) * len(simples), theta,
    )


# ---------------------------------------------------------------------------
# untwisted affinization


class UntwistedAffineHandle(RootSystemHandle):
    """Loop-type root system over a finite handle: real roots gamma + r*null."""

    def __init__(self, ctype: CatalogType, finite: FiniteHandle):
        self.finite = finite
        theta = finite.highest_root
        alpha0 = EpsDeltaVector(
            tuple(-x for x in theta.eps), tuple(-x for x in theta.delta), 1
        )
        simples = [alpha0] + [
            EpsDeltaVector(s.eps, s.delta, 0) for s in finite.simple_ed
        ]
        parities = [finite.parity_ed(theta)] + list(finite.simple_parities)
        gauges = [Fraction(1)] + list(finite._iso_gauges)
        super().__init__(
            ctype, finite.eps_dim, finite.delta_dim, finite.eps_norms,
            finite.parity_coeffs[:-1] + (0,), simples, parities, gauges, has_null=True,
        )

    def contains_ed(self, v: EpsDeltaVector) -> bool:
        self._check_dims(v)
        if not any(v.eps) and not any(v.delta):
            return v.null != 0
        return self.finite._contains_finite(v)

    def real_roots_ed(self, max_degree: Optional[int] = None) -> Iterator[EpsDeltaVector]:
        if max_degree is None:
            raise ValueError("affine enumeration needs a degree bound")
        for gamma in self.finite.real_roots_ed(None):
            for r in range(-max_degree, max_degree + 1):
                yield EpsDeltaVector(gamma.eps, gamma.delta, r)


# ---------------------------------------------------------------------------
# the twisted family A(2k,2l)^(4)


class TwistedA4Handle(RootSystemHandle):
    """A(2k,2l)^(4): eps_1..eps_k, delta_1..delta_l, null root of parity 1.

    Membership is clause-by-clause: two-entry eps or delta vectors at even
    null degree, single eps/delta entries at any degree, doubled eps entries
    at degrees 2 mod 4, doubled delta entries at degrees 0 mod 4, mixed
    eps+delta pairs (the isotropic roots) at even degrees, and the nonzero
    multiples of the null root as imaginary roots.
    """

    def __init__(self, ctype: CatalogType):
        if ctype.m < 2 or ctype.n < 2 or ctype.m % 2 or ctype.n % 2:
            raise UnsupportedTypeError("the order-4 twist needs even superranks >= 2")
        k, l = ctype.m // 2, ctype.n // 2
        simples = [EpsDeltaVector((0,) * k, _unit(l, 0, -1), 1)]
        simples += [EpsDeltaVector((0,) * k, _step(l, p), 0) for p in range(l - 1)]
        simples.append(EpsDeltaVector(_unit(k, 0, -1), _unit(l, l - 1), 0))
        simples += [EpsDeltaVector(_step(k, i), (0,) * l, 0) for i in range(k - 1)]
        simples.append(EpsDeltaVector(_unit(k, k - 1), (0,) * l, 0))
        parities = [0] * l + [1] + [0] * k
        super().__init__(
            ctype, k, l, (Fraction(1),) * k, (0,) * k + (1,) * l + (1,),
            simples, parities, (Fraction(1),) * len(simples), has_null=True,
        )

    def contains_ed(self, v: EpsDeltaVector) -> bool:
        self._check_dims(v)
        sup = _support(v.eps + v.delta)
        r = v.null
        if len(sup) == 2:
            return abs(sup[0][1]) == 1 and abs(sup[1][1]) == 1 and r % 2 == 0
        if len(sup) == 1:
            i, x = sup[0]
            if abs(x) == 1:
                return True
            return abs(x) == 2 and r % 4 == (2 if i < self.eps_dim else 0)
        return not sup and r != 0

    def real_roots_ed(self, max_degree: Optional[int] = None) -> Iterator[EpsDeltaVector]:
        """The candidates osp(2k+1|2l) and +-2 eps_i at each degree that ``contains_ed`` keeps."""
        if max_degree is None:
            raise ValueError("affine enumeration needs a degree bound")
        k, l = self.eps_dim, self.delta_dim
        for r in range(-max_degree, max_degree + 1):
            doubled_eps = (EpsDeltaVector(_unit(k, i, s), (0,) * l, r)
                           for i in range(k) for s in (2, -2))
            for v in chain(_osp_pattern(k, l, True, r), doubled_eps):
                if self.contains_ed(v):
                    yield v


def build(ctype: CatalogType) -> RootSystemHandle:
    """Construct the root-system handle for a catalog type."""
    if isinstance(ctype, str):
        ctype = parse_type(ctype)
    if ctype.twist == TWISTED4:
        if ctype.family != "A":
            raise UnsupportedTypeError("the order-4 twist exists only for family A")
        return TwistedA4Handle(ctype)
    finite = _build_finite(CatalogType(ctype.family, ctype.m, ctype.n, FINITE, ctype.param))
    if ctype.twist == FINITE:
        return finite
    if ctype.twist == AFFINE:
        return UntwistedAffineHandle(ctype, finite)
    raise UnsupportedTypeError(f"unknown twist {ctype.twist!r}")
