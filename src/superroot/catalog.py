"""Closed-form root-system handles in epsilon/delta coordinates.

Each handle answers exact membership, reality, parity and isotropy queries
for one catalog type, exposes a distinguished base in both coordinate systems
and converts between epsilon/delta and simple-root coordinates.

Families shipped: A(m,n) with m != n, B(m,n), C(n), D(m,n), D(2,1;a), their
untwisted affinizations, and the twisted family A(2k,2l)^(4).  Each family is
one table of the finite eps/delta parts of its real roots (Kac, *Lie
superalgebras*, Adv. Math. 26, 1977), indexed by null degree mod a period: 1
for finite and untwisted affine types, 4 for A(2k,2l)^(4).  Membership and
enumeration both read that table.  B(m,n), C(n) and D(m,n) are all osp(M|2n)
and share one table rule; only the distinguished base and the presence of the
short roots differ between them.  F(4) and G(3) are staged out of this
release.  The null root of an affine type is written ``null`` in code to keep
it apart from the odd coordinates delta_p.

Every type is one ``RootSystemHandle`` built from plain data.  An untwisted
affine type is the data of its finite type with alpha_0 = null - theta, theta
the highest root, prepended to the simple roots (Kac, *Infinite-dimensional
Lie algebras*, ch. 7).  The type data (base, table, coordinate solver, Cartan
matrix) is built and validated once per type, kept in a
``functools.lru_cache`` and shared by every handle of that type.  Each handle
keeps one memo of its own, the eps/delta image of each root it converts, in
a ``functools.lru_cache``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import add
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from . import cartan as cartan_mod
from .cartan import CartanData
from .errors import (
    DimensionMismatchError,
    IsotropicReflectorError,
    NotInLatticeError,
    PairingNotIntegralError,
    UnsupportedTypeError,
)
from .linalg import frac, rref
from .rootspace import Root, check_bound, height

FINITE = "finite"
AFFINE = "affine"
TWISTED4 = "twisted4"
TABLE_LIMIT = 1 << 16  # entries per handle memo and per record cache, the least recently used going first


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
_RANK_RE = re.compile(r"[0-9]+")


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
    if not all(_RANK_RE.fullmatch(r) for r in ranks):
        raise UnsupportedTypeError(f"ranks must be written in the digits 0-9, got {spec!r}")
    if fam == "D" and len(parts) == 2:
        if ranks != ["2", "1"]:
            raise UnsupportedTypeError(f"parametric family requires D(2,1;a), got {spec!r}")
        return CatalogType("D21", 2, 1, twist, frac(parts[1]))
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
    """Integer vector over eps_1..eps_m, delta_1..delta_n and the null root;
    a coordinate that is not an int raises ``NotInLatticeError``."""

    eps: tuple[int, ...] = ()
    delta: tuple[int, ...] = ()
    null: int = 0

    def __post_init__(self):
        for c in (*self.eps, *self.delta, self.null):
            if type(c) is not int:  # so no bool, float or Fraction is read as an int
                raise NotInLatticeError(f"{self} has a coordinate that is not an int")

    def __neg__(self) -> "EpsDeltaVector":
        return EpsDeltaVector(
            tuple(-a for a in self.eps), tuple(-a for a in self.delta), -self.null
        )

    def scaled(self, k: int) -> "EpsDeltaVector":
        return EpsDeltaVector(
            tuple(k * a for a in self.eps), tuple(k * a for a in self.delta), k * self.null
        )

    def finite_part(self) -> "EpsDeltaVector":
        return EpsDeltaVector(self.eps, self.delta, 0)

    def coords(self) -> tuple[int, ...]:
        return self.eps + self.delta + (self.null,)


def _unit(dim: int, i: int, val: int = 1) -> tuple[int, ...]:
    v = [0] * dim
    v[i] = val
    return tuple(v)


def _step(dim: int, i: int) -> tuple[int, ...]:
    """The unit vector i minus the unit vector i + 1."""
    v = [0] * dim
    v[i], v[i + 1] = 1, -1
    return tuple(v)


def _pairs(n: int) -> list[tuple[int, ...]]:
    """Each n-vector with two entries +-1 and the rest zero."""
    out = []
    for i, j in combinations(range(n), 2):
        for a, b in product((1, -1), repeat=2):
            v = [0] * n
            v[i], v[j] = a, b
            out.append(tuple(v))
    return out


def _singles(n: int, slots: Iterable[int], x: int) -> list[tuple[int, ...]]:
    """+-x at each of the given slots of an n-vector, zero elsewhere."""
    return [_unit(n, i, s) for i in slots for s in (x, -x)]


class RootSystemHandle:
    """Membership and classification oracle for one catalog type.

    The symmetric form is diagonal in eps/delta coordinates.  It is kept in
    integers: ``_denom`` is the common denominator D of the eps norms (1 for
    every type but D(2,1;a) with non-integral a) and ``_form`` returns D times
    the form, so isotropy and pairings never build a ``Fraction`` sum.  The
    solver of ``to_alpha`` is kept in integers too: its rows give
    ``_alpha_denom`` times each simple-root coordinate, and a remainder on
    division by ``_alpha_denom`` means the vector is not in the lattice.

    ``_table`` holds the family's real roots: entry r is the set of finite
    parts (eps then delta coordinates) of the real roots at null degree
    congruent to r mod ``len(_table)``.

    A handle copies the fields of its type's read-only record (``_type_data``),
    which is built and validated once per type and shared by every handle of
    that type.  Its one memo is its own: ``_images``, a ``functools.lru_cache``
    of at most ``TABLE_LIMIT`` entries around the record's converter, keeps
    each root's image, and ``to_ed`` checks every coordinate in front of it.
    A root's norm is a fact of its type, read from the record's
    ``_fin_norms``.  Logically immutable; a handle may be shared freely.
    """

    def __init__(self, data: Mapping[str, object]):
        for name, value in data.items():
            setattr(self, name, value)  # not vars(self).update: that slows every attribute read
        # a partial over the record's fields, not a bound method, so no cycle holds the handle
        self._images = functools.lru_cache(maxsize=TABLE_LIMIT)(functools.partial(
            _image, self.rank, self.eps_dim, self.delta_dim, self._simple_coords))

    # -- membership ----------------------------------------------------------

    def contains_ed(self, v: EpsDeltaVector) -> bool:
        """Is v a root?  Real when its finite part is in the table at its degree,
        imaginary when it is a nonzero multiple of null."""
        self._check_dims(v)
        fin = v.eps + v.delta
        if fin in self._table[v.null % len(self._table)]:
            return True
        return v.null != 0 and not any(fin)

    def real_roots_ed(self, max_degree: Optional[int] = None) -> Iterator[EpsDeltaVector]:
        """The real roots of null degree at most ``max_degree`` in size; all for a finite type."""
        check_bound("max_degree", max_degree)
        if not self.has_null:
            degrees = (0,)
        elif max_degree is None:
            raise ValueError("affine enumeration needs a degree bound")
        else:
            degrees = range(-max_degree, max_degree + 1)
        e = self.eps_dim  # not a generator function, so a bad bound raises at the call; the roots come lazily
        return (EpsDeltaVector(c[:e], c[e:], r) for r in degrees for c in self._table[r % len(self._table)])

    # -- form, parity, isotropy --------------------------------------------

    def _check_dims(self, v: EpsDeltaVector):
        """Refuse another type's dimensions; the coordinates are ints by construction."""
        if len(v.eps) != self.eps_dim or len(v.delta) != self.delta_dim:
            raise DimensionMismatchError(
                f"vector ({len(v.eps)}|{len(v.delta)}) does not match {self.label}"
            )
        if v.null and not self.has_null:
            raise DimensionMismatchError(f"{self.label} has no null direction")

    def _form(self, v: EpsDeltaVector, w: EpsDeltaVector) -> int:
        """D (v, w) in integers, skipping zero coordinates, for the diagonal form
        (eps_i, eps_j) = s_i delta_ij, (delta_p, delta_q) = -delta_pq, null isotropic."""
        total = 0
        for s, a, b in zip(self._int_norms, v.eps + v.delta, w.eps + w.delta):
            if a and b:
                total += s * a * b
        return total

    def parity_ed(self, v: EpsDeltaVector) -> int:
        return sum(c * x for c, x in zip(self.parity_coeffs, v.coords())) % 2

    def is_real_ed(self, v: EpsDeltaVector) -> bool:
        return self._membership_ed(v)[1]

    def _membership_ed(self, v: EpsDeltaVector) -> tuple[bool, bool]:
        # (is root, is real): a root is real exactly when its finite part is nonzero
        root = self.contains_ed(v)
        return root, root and (any(v.eps) or any(v.delta))

    # -- coordinate conversion ----------------------------------------------

    def to_ed(self, root: Sequence[int]) -> EpsDeltaVector:
        key = tuple(root)
        for c in key:  # before the memo, where (1.0, 2, 1) and (True, 2, 1) would find (1, 2, 1)
            if type(c) is not int:
                raise NotInLatticeError(f"root {key!r} has a coordinate that is not an int")
        return self._images(key)

    def _norm(self, a: EpsDeltaVector) -> int:
        """D (a, a) in integers: read from the type's table when a's finite part
        is in it, a lookup cheaper than ``_form``, which answers any other vector."""
        aa = self._fin_norms.get(a.eps + a.delta)
        return self._form(a, a) if aa is None else aa

    def to_alpha(self, v: EpsDeltaVector) -> Root:
        """Simple-root coordinates of a lattice vector; exact and unique.
        A vector off the root lattice raises ``NotInLatticeError``."""
        self._check_dims(v)
        coords = v.coords()
        for tail in self._alpha_consistency_rows:
            if sum(t * x for t, x in zip(tail, coords) if x) != 0:
                raise NotInLatticeError(f"{v} is not in the root lattice of {self.label}")
        sol = [0] * self.rank
        for pivot, tail in self._alpha_solution_rows:
            c, rem = divmod(sum(t * x for t, x in zip(tail, coords) if x), self._alpha_denom)
            if rem:
                raise NotInLatticeError(f"{v} has non-integer simple-root coordinates")
            sol[pivot] = c
        return tuple(sol)

    # -- alpha-coordinate interface ------------------------------------------

    def contains(self, root: Sequence[int]) -> bool:
        return self.contains_ed(self.to_ed(root))

    def is_real(self, root: Sequence[int]) -> bool:
        return self.is_real_ed(self.to_ed(root))

    def membership(self, root: Sequence[int]) -> tuple[bool, bool]:
        """(``contains``, ``is_real``) from one ``to_ed`` and one ``contains_ed``."""
        return self._membership_ed(self.to_ed(root))

    def real_sums(self, alpha: Sequence[int], betas: Iterable[Sequence[int]]) -> list[bool]:
        """is_real(alpha + beta) for each beta, reading alpha's image once.

        As in ``is_real_ed``, a sum is real exactly when its finite part is in
        the table at its null degree, as the table holds no zero finite part.
        """
        a = self.to_ed(alpha)
        fin, null, table = a.eps + a.delta, a.null, self._table
        out = []
        for beta in betas:
            b = self.to_ed(beta)
            out.append(tuple(map(add, fin, b.eps + b.delta)) in table[(null + b.null) % len(table)])
        return out

    def parity(self, root: Sequence[int]) -> int:
        return self.parity_ed(self.to_ed(root))

    def is_isotropic(self, root: Sequence[int]) -> bool:
        return self._norm(self.to_ed(root)) == 0

    def is_positive(self, root: Sequence[int]) -> bool:
        return any(c != 0 for c in root) and all(c >= 0 for c in root)

    def pairings(self, alpha: Sequence[int], betas: Iterable[Sequence[int]]) -> list[int]:
        """beta(h_alpha) = 2(beta,alpha)/(alpha,alpha) for each beta, reading alpha's data once.

        alpha must be non-isotropic, and each pairing must be an integer: the
        first beta whose pairing is not raises ``PairingNotIntegralError``.
        """
        a = self.to_ed(alpha)
        aa = self._norm(a)
        if aa == 0:
            raise IsotropicReflectorError(f"{alpha} is isotropic; no canonical coroot pairing")
        out = []
        for beta in betas:
            twice = 2 * self._form(self.to_ed(beta), a)
            c, rem = divmod(twice, aa)
            if rem:
                raise PairingNotIntegralError(
                    f"pairing of {beta} against {alpha} is {Fraction(twice, aa)}, not an integer"
                )
            out.append(c)
        return out

    def pairing(self, beta: Sequence[int], alpha: Sequence[int]) -> int:
        """beta(h_alpha) for non-isotropic alpha, an integer: ``pairings`` on one beta."""
        return self.pairings(alpha, (beta,))[0]

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
        check_bound("max_height", max_height)  # real_roots_ed checks max_degree
        if self.has_null and max_degree is None:
            if max_height is None:
                raise ValueError("affine enumeration needs max_height or max_degree")
            max_degree = max_height
        return sorted(r for r in map(self.to_alpha, self.real_roots_ed(max_degree))
                      if max_height is None or height(r) <= max_height)

    def all_roots(
        self, max_height: Optional[int] = None, max_degree: Optional[int] = None
    ) -> list[Root]:
        """The real roots within the bounds and, on an affine type, the
        nonzero multiples of null, each of which is a root; sorted."""
        out = list(self.real_roots(max_height, max_degree))
        if self.has_null:
            d = max_degree if max_degree is not None else max_height
            null = EpsDeltaVector((0,) * self.eps_dim, (0,) * self.delta_dim, 1)
            imaginary = (self.to_alpha(null.scaled(k)) for k in range(-d, d + 1) if k)
            out += [r for r in imaginary if max_height is None or height(r) <= max_height]
        return sorted(out)


def _image(rank: int, e: int, d: int, simple_coords: tuple, key: Root) -> EpsDeltaVector:
    """The eps/delta image of the simple-root coordinates ``key``."""
    if len(key) != rank:
        raise DimensionMismatchError("root length differs from rank")
    acc = [0] * (e + d + 1)
    for c, sv in zip(key, simple_coords):
        if c:
            for k, x in enumerate(sv):
                acc[k] += c * x
    return EpsDeltaVector(tuple(acc[:e]), tuple(acc[e : e + d]), acc[-1])


# ---------------------------------------------------------------------------
# family data


def _finite_data(ctype: CatalogType):
    """The data of the finite type with ``ctype``'s family and ranks.

    Returns the eps norms, the parity coefficients (the parity functional,
    which ``_type_data`` reads every simple parity off), the simple roots,
    the gauge of their isotropic rows, the highest root theta and the
    one-entry table.
    """
    fam, m, n = ctype.family, ctype.m, ctype.n
    ones = Fraction(1)
    if fam == "D21":
        # three eps coordinates, norms (-(1+a), 1, a); roots +-2 eps_i and (+-1, +-1, +-1)
        if ctype.param is None or ctype.param == 0 or ctype.param == -1:
            raise UnsupportedTypeError("D(2,1;a) requires a rational a outside {0,-1}")
        a = Fraction(ctype.param)  # an int a keys the same record as the equal Fraction
        simples = [
            EpsDeltaVector((1, -1, -1), ()),
            EpsDeltaVector((0, 2, 0), ()),
            EpsDeltaVector((0, 0, 2), ()),
        ]
        theta = EpsDeltaVector((2, 0, 0), ())
        table = _singles(3, range(3), 2) + list(product((1, -1), repeat=3))
        return (-(1 + a), ones, a), (0, 0, 1, 0), simples, Fraction(-1, 2), theta, (frozenset(table),)
    if fam == "A":
        # sl(m+1|n+1) with m != n: u_a - u_b over eps_1..eps_{m+1}, delta_1..delta_{n+1}
        if m == n:
            raise UnsupportedTypeError(
                f"A({m},{n}) has degenerate Cartan data and is not quasisimple; unsupported"
            )
        if m < 0 or n < 0:
            raise UnsupportedTypeError("negative rank")
        e, d = m + 1, n + 1
        simples = [EpsDeltaVector(_step(e, i), (0,) * d) for i in range(m)]
        simples.append(EpsDeltaVector(_unit(e, m), _unit(d, 0, -1)))
        simples += [EpsDeltaVector((0,) * e, _step(d, p)) for p in range(n)]
        theta = EpsDeltaVector(_unit(e, 0), _unit(d, d - 1, -1))
    elif fam in ("B", "D"):
        if fam == "B" and (n < 1 or m < 0):
            raise UnsupportedTypeError("B(m,n) requires n >= 1")
        if fam == "D" and (m < 2 or n < 1):
            raise UnsupportedTypeError("D(m,n) requires m >= 2, n >= 1")
        # delta_p - delta_{p+1}, then the odd root delta_n - eps_1 (delta_n
        # alone for B(0,n)), eps_i - eps_{i+1}, and last eps_m for B or
        # eps_{m-1} + eps_m for D.
        e, d = m, n
        simples = [EpsDeltaVector((0,) * m, _step(n, p)) for p in range(n - 1)]
        simples.append(EpsDeltaVector(_unit(m, 0, -1) if m else (), _unit(n, n - 1)))
        simples += [EpsDeltaVector(_step(m, i), (0,) * n) for i in range(m - 1)]
        if m:
            last = (0,) * (m - 2) + (1, 1) if fam == "D" else _unit(m, m - 1)
            simples.append(EpsDeltaVector(last, (0,) * n))
        theta = EpsDeltaVector((0,) * m, _unit(n, 0, 2))
    elif fam == "C":
        if n < 2:
            raise UnsupportedTypeError("C(n) requires n >= 2")
        e, d = 1, n - 1
        simples = [EpsDeltaVector((1,), _unit(d, 0, -1))]
        simples += [EpsDeltaVector((0,), _step(d, p)) for p in range(d - 1)]
        simples.append(EpsDeltaVector((0,), _unit(d, d - 1, 2)))
        theta = EpsDeltaVector((1,), _unit(d, 0))
    else:
        raise UnsupportedTypeError(f"family {ctype.family!r} is not in the catalog")
    if fam == "A":
        table = [v for v in _pairs(e + d) if sum(v) == 0]
    else:
        # osp(M|2d): two entries +-1 and +-2 delta_p, plus the short roots
        # +-eps_i and +-delta_p of odd M (B only)
        table = _pairs(e + d) + _singles(e + d, range(e, e + d), 2)
        if fam == "B":
            table += _singles(e + d, range(e + d), 1)
    return (ones,) * e, (0,) * e + (1,) * d + (0,), simples, 1, theta, (frozenset(table),)


def _twisted4_data(ctype: CatalogType):
    """A(2k,2l)^(4): eps_1..eps_k, delta_1..delta_l, null root of parity 1.

    Returns the same fields as ``_finite_data``, with no highest root.  The
    table has period 4.  Single eps/delta entries +-1 are real roots at
    every degree; two entries +-1 (the isotropic eps+delta pairs among them)
    at even degrees; doubled delta entries at degrees 0 mod 4 and doubled eps
    entries at degrees 2 mod 4.  The nonzero multiples of the null root are
    the imaginary roots.
    """
    if ctype.family != "A":
        raise UnsupportedTypeError("the order-4 twist exists only for family A")
    if ctype.m < 2 or ctype.n < 2 or ctype.m % 2 or ctype.n % 2:
        raise UnsupportedTypeError("the order-4 twist needs even superranks >= 2")
    k, l = ctype.m // 2, ctype.n // 2
    simples = [EpsDeltaVector((0,) * k, _unit(l, 0, -1), 1)]
    simples += [EpsDeltaVector((0,) * k, _step(l, p), 0) for p in range(l - 1)]
    simples.append(EpsDeltaVector(_unit(k, 0, -1), _unit(l, l - 1), 0))
    simples += [EpsDeltaVector(_step(k, i), (0,) * l, 0) for i in range(k - 1)]
    simples.append(EpsDeltaVector(_unit(k, k - 1), (0,) * l, 0))
    n = k + l
    singles = frozenset(_singles(n, range(n), 1))
    even = singles | frozenset(_pairs(n))
    table = (even | frozenset(_singles(n, range(k, n), 2)), singles,
             even | frozenset(_singles(n, range(k), 2)), singles)
    return (Fraction(1),) * k, (0,) * k + (1,) * l + (1,), simples, 1, None, table


@functools.lru_cache(maxsize=TABLE_LIMIT)
def _type_data(ctype: CatalogType) -> MappingProxyType:
    """The type's shared, read-only record, built, checked and validated once.

    Its keys are the attributes that a handle copies.  A finite type reads
    its family data.  Its untwisted affinization prepends alpha_0 = null -
    theta, theta the highest root, to the finite simple roots and reads the
    finite table at every null degree.  A(2k,2l)^(4) has a base and a
    period-4 table of its own.  Every simple parity, alpha_0's included, is
    read off the parity functional, and every isotropic simple row is scaled
    by the family's one gauge.  ``coord_bound`` is the largest |coordinate|
    in the table, so every root and the zero vector lie in that box.  A type
    that fails a check raises on every call and is never stored.
    """
    if ctype.twist == TWISTED4:
        norms, coeffs, simples, gauge, theta, table = _twisted4_data(ctype)
    else:
        norms, coeffs, simples, gauge, theta, table = _finite_data(ctype)
        if ctype.twist == AFFINE:
            neg = -theta
            simples = [EpsDeltaVector(neg.eps, neg.delta, 1), *simples]
        elif ctype.twist != FINITE:
            raise UnsupportedTypeError(f"unknown twist {ctype.twist!r}")
    n, e, d = len(simples), len(norms), len(simples[0].delta)
    denom = lcm(*(x.denominator for x in norms))
    int_norms = tuple(int(x * denom) for x in norms) + (-denom,) * d  # D times each norm
    coords = tuple(v.coords() for v in simples)

    # One RREF of [M | I]; afterwards every to_alpha query is a handful of
    # dot products plus consistency checks.  The simple roots are
    # independent exactly when every column of M holds a pivot.
    red, pivots = rref([[c[k] for c in coords] + [int(j == k) for j in range(e + d + 1)]
                        for k in range(e + d + 1)])
    solution = [(p, red[i][n:]) for i, p in enumerate(pivots) if p < n]
    if len(solution) != n:
        raise AssertionError("distinguished base is not linearly independent")
    consistency = [red[i][n:] for i, p in enumerate(pivots) if p >= n]
    # each kind of row over its common denominator, so to_alpha sums integers only
    alpha_denom = lcm(*(x.denominator for _, row in solution for x in row))
    check_denom = lcm(*(x.denominator for row in consistency for x in row))

    def form(i: int, j: int) -> Fraction:
        # zip stops before the null coordinate, which is isotropic
        return Fraction(sum(s * a * b for s, a, b in zip(int_norms, coords[i], coords[j])), denom)

    rows = []
    for i in range(n):
        norm = form(i, i)
        rows.append(tuple(2 * form(i, j) / norm if norm else gauge * form(i, j)
                          for j in range(n)))
    cartan = CartanData(tuple(rows), tuple(sum(c * x for c, x in zip(coeffs, v)) % 2 for v in coords))
    report = cartan_mod.validate(cartan)
    if not report.ok():
        raise AssertionError(f"catalog base for {ctype.label} failed validation: {report}")
    if theta is not None and theta.eps + theta.delta not in table[0]:
        raise AssertionError("highest root is not a root")
    return MappingProxyType(dict(
        ctype=ctype, label=ctype.label, eps_dim=e, delta_dim=d, has_null=ctype.twist != FINITE,
        rank=n, eps_norms=tuple(norms), parity_coeffs=tuple(coeffs), simple_ed=tuple(simples),
        cartan=cartan, coord_bound=max(abs(x) for entry in table for c in entry for x in c),
        _table=tuple(table), _denom=denom,
        _int_norms=int_norms, _simple_coords=coords,
        # D (f, f) for every finite part f in the table
        _fin_norms=MappingProxyType({f: sum(s * x * x for s, x in zip(int_norms, f))
                                     for entry in table for f in entry}),
        # (pivot, row) pairs that solve for _alpha_denom times the alpha
        # coordinates, and the rows that every vector of the root lattice annihilates
        _alpha_solution_rows=tuple((p, tuple(int(x * alpha_denom) for x in row)) for p, row in solution),
        _alpha_denom=alpha_denom,
        _alpha_consistency_rows=tuple(tuple(int(x * check_denom) for x in row) for row in consistency),
    ))


def build(ctype: CatalogType | str) -> RootSystemHandle:
    """A new handle on the type's shared data, with an empty memo."""
    if isinstance(ctype, str):
        ctype = parse_type(ctype)
    return RootSystemHandle(_type_data(ctype))
