"""Supports of sparse systems: normalization, span ranks, preimages, vertices.

A support is a finite set of lattice points in Z^n, stored sorted
lexicographically so equality is canonical and coefficient alignment is
stable. A square system carries one support per variable.
"""

from __future__ import annotations

import cmath
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import LatticeMembershipError
from .intlinalg import IntMatrix, _adjugate, _bareiss_rank, _det, _image


@dataclass(frozen=True)
class Support:
    """Finite set of distinct lattice points, sorted lexicographically. Each
    coordinate is converted here, once, by operator.index: a Python or numpy
    integer is accepted, a float raises TypeError instead of truncating."""

    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pts = tuple(sorted(tuple(map(operator.index, p)) for p in self.points))
        if not pts:
            raise ValueError("support must be nonempty")
        dim = len(pts[0])
        if dim == 0 or any(len(p) != dim for p in pts):
            raise ValueError("points must share a positive dimension")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"duplicate point {a} in support")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self) -> int:
        return len(self.points)

    def translate(self, shift: Sequence[int]) -> Support:
        return Support(tuple(tuple(c - s for c, s in zip(p, shift)) for p in self.points))


@dataclass(frozen=True)
class SupportSystem:
    """Square collection of supports: n supports in Z^n."""

    supports: tuple[Support, ...]

    def __post_init__(self):
        sups = tuple(self.supports)
        if not sups:
            raise ValueError("system must contain at least one support")
        n = len(sups)
        if any(s.dim != n for s in sups):
            raise ValueError("number of supports must equal the ambient dimension")
        object.__setattr__(self, "supports", sups)

    @property
    def n(self) -> int:
        return len(self.supports)

    @classmethod
    def of_points(cls, point_lists: Iterable[Iterable[Sequence[int]]]) -> SupportSystem:
        return cls(tuple(map(Support, point_lists)))


@dataclass(frozen=True)
class SparseSystem:
    """Support system plus one nonzero, finite complex coefficient per point."""

    system: SupportSystem
    coefficients: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        coeffs = tuple(tuple(complex(c) for c in row) for row in self.coefficients)
        if len(coeffs) != self.system.n:
            raise ValueError("one coefficient row per polynomial required")
        for sup, row in zip(self.system.supports, coeffs):
            if len(row) != len(sup):
                raise ValueError("coefficient count must match support size")
            if not all(c != 0 and cmath.isfinite(c) for c in row):
                raise ValueError("coefficients must be nonzero and finite; drop a zero term's point")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n(self) -> int:
        return self.system.n

    @classmethod
    def from_pairs(cls, pairs_per_poly) -> SparseSystem:
        """Build from unsorted (point, coefficient) pairs, dropping nothing. The
        pairs are sorted by point alone; Support converts the points and rejects
        a repeated one, and __post_init__ checks the coefficients."""
        polys = [sorted(((tuple(p), v) for p, v in pairs), key=operator.itemgetter(0))
                 for pairs in pairs_per_poly]
        return cls(SupportSystem(tuple(Support(p for p, _ in poly) for poly in polys)),
                   tuple(tuple(v for _, v in poly) for poly in polys))

    def polynomial(self, i: int) -> list[tuple[tuple[int, ...], complex]]:
        return list(zip(self.system.supports[i].points, self.coefficients[i]))


def normalize(obj):
    """Translate each support so it contains the zero vector.

    Returns (translated object, tuple of applied translation vectors). The
    lexicographically smallest point of each support is subtracted; on the
    torus this only drops an invertible monomial factor, so coefficients
    are unchanged. obj itself is returned when no support moves.
    """
    S = obj.system if isinstance(obj, SparseSystem) else obj
    if not isinstance(S, SupportSystem):
        raise TypeError("normalize expects a SupportSystem or SparseSystem")
    shifts = tuple(s.points[0] for s in S.supports)
    if any(map(any, shifts)):
        S = SupportSystem(tuple(s.translate(b) for s, b in zip(S.supports, shifts)))
        obj = SparseSystem(S, obj.coefficients) if isinstance(obj, SparseSystem) else S
    return obj, shifts


def _differences(points) -> list[tuple[int, ...]]:
    return [tuple(c - b for c, b in zip(p, points[0])) for p in points[1:]]


def _affine_pivots(points) -> list[int]:
    """Indices j >= 1 whose p_j - p_0 lies outside the span of the
    differences before it, from one elimination: with 0 an affine basis of
    the points, and its length their affine rank."""
    cols = _differences(points)
    return [c + 1 for c in _bareiss_rank(zip(*cols))] if cols else []


def subset_span_ranks(S: SupportSystem):
    """Yield (I, r) for every nonempty index subset I, by increasing size
    and then lexicographically: r is the rank of the lattice spanned by the
    differences within each support indexed by I, which is their points'
    span once the supports are normalized. I is ranked on the union of its
    supports' bases, each support's differences p_j - p_0 at its
    _affine_pivots: at most n columns per support."""
    bases = [[d[j - 1] for j in _affine_pivots(sup.points)]
             for sup in S.supports for d in [_differences(sup.points)]]
    for size in range(1, S.n + 1):
        for I in itertools.combinations(range(S.n), size):
            cols = [c for i in I for c in bases[i]]
            yield I, len(_bareiss_rank(zip(*cols))) if cols else 0


def vertices(A: Support) -> Support:
    """Extreme points of conv(A), by an exact rational LP test per point."""
    pts = A.points
    if len(pts) == 1:
        return A
    keep = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        if not point_in_hull(p, others):
            keep.append(p)
    return Support(tuple(keep))


@dataclass(frozen=True)
class Reindexing:
    """Preimage supports under a monomial map plus coefficient transfer data.

    index_maps[i][j] is the position in the original i-th support of the
    image of the j-th point of the preimage support.
    """

    system: SupportSystem
    index_maps: tuple[tuple[int, ...], ...]


def preimage_supports(S: SupportSystem, phi: IntMatrix) -> Reindexing:
    """Pull every support back through the square, nonsingular lattice map phi.

    Each point must lie in the column lattice of phi; a point outside it
    means the caller's classification was wrong.
    """
    pull = _preimage_solver(phi)
    new_supports, maps = [], []
    for sup in S.supports:
        pairs = []
        for idx, alpha in enumerate(sup.points):
            if (beta := pull(alpha)) is None:
                raise LatticeMembershipError(f"point {alpha} is not in the column lattice of the map")
            pairs.append((beta, idx))
        pairs.sort()
        new_supports.append(Support(tuple(b for b, _ in pairs)))
        maps.append(tuple(i for _, i in pairs))
    return Reindexing(SupportSystem(tuple(new_supports)), tuple(maps))


def _preimage_solver(phi: IntMatrix):
    """alpha -> integer beta with phi @ beta == alpha, or None; phi factored
    once. Raises ValueError unless phi is square and nonsingular."""
    det = _det(phi.entries) if phi.rows == phi.cols else 0
    if det == 0:
        raise ValueError("phi must be square and nonsingular")
    adj = _adjugate(phi.entries)

    def pull(alpha):
        num = _image(adj, alpha)
        return None if any(v % det for v in num) else tuple(v // det for v in num)

    return pull


def point_in_hull(point: Sequence[int], pts: Sequence[Sequence[int]]) -> bool:
    """Exact test whether an integer point lies in conv(pts).

    Phase-1 simplex with integer pivoting and Bland's rule: feasibility of
    sum(lam_i * q_i) = p, sum(lam_i) = 1, lam >= 0.
    """
    if not pts:
        return False
    n = len(point)
    m = len(pts)
    nrows = n + 1
    # Constraint rows [Q | rhs], forced to rhs >= 0.
    rows = []
    for r in range(nrows):
        if r < n:
            coeffs = [operator.index(q[r]) for q in pts]
            b = operator.index(point[r])
        else:
            coeffs = [1] * m
            b = 1
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        rows.append(coeffs + [0] * nrows + [b])
    for r in range(nrows):
        rows[r][m + r] = 1
    # Phase-1 objective: minimize the artificials. Reduced-cost row for the
    # artificial basis is minus the column sums over the lambda columns.
    obj = [0] * (m + nrows + 1)
    for j in range(m):
        obj[j] = -sum(rows[r][j] for r in range(nrows))
    obj[-1] = -sum(rows[r][-1] for r in range(nrows))
    tableau = rows + [obj]
    basis = [m + r for r in range(nrows)]
    denom = 1

    while True:
        objrow = tableau[nrows]
        enter = next((j for j in range(m + nrows) if objrow[j] < 0), None)
        if enter is None:
            break
        # Bland leaving rule: smallest ratio, ties by smallest basis index.
        leave = None
        for r in range(nrows):
            a = tableau[r][enter]
            if a <= 0:
                continue
            if leave is None:
                leave = r
            else:
                lhs = tableau[r][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            raise AssertionError("phase-1 simplex cannot be unbounded")
        piv = tableau[leave][enter]
        for r in range(nrows + 1):
            if r == leave:
                continue
            f = tableau[r][enter]
            tableau[r] = [(v * piv - f * w) // denom for v, w in zip(tableau[r], tableau[leave])]
        denom = piv
        basis[leave] = enter

    return tableau[nrows][-1] == 0
