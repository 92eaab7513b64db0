"""Mixed volumes of support systems and the zero-mixed-volume criterion.

The mixed volume is normalized as the coefficient of t_1*...*t_n in the
volume polynomial of the scaled Minkowski sum, i.e. MV(K,...,K) equals
n! * vol(K). `mixed_volume` follows the lacunary/triangular decomposition
tree; at its indecomposable and univariate leaves `hull_mixed_volume` runs
inclusion-exclusion over the subsets' Minkowski sums, built incrementally
with vertex reduction, whose volumes come from an exact integer
beneath-beyond triangulation. Every simplex volume there is a facet height
that the visibility test has already computed, so no determinant is taken;
no floats enter any volume.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import MixedVolumeZeroError
from .intlinalg import IntMatrix, smith_normal_form, unimodular_inverse
from .supports import Support, SupportSystem, point_in_hull, subset_span_ranks

_INT64_COORD_LIMIT = 512  # coordinates beyond this force exact-object visibility


@dataclass(frozen=True)
class RationalPolytope:
    """Polytope given by its extreme points (lattice or rational)."""

    vertices: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        vts = tuple(tuple(Fraction(c) for c in p) for p in self.vertices)
        if not vts:
            raise ValueError("polytope needs at least one vertex")
        dim = len(vts[0])
        if any(len(p) != dim for p in vts):
            raise ValueError("inconsistent vertex dimensions")
        object.__setattr__(self, "vertices", vts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def polytope_volume(P) -> Fraction:
    """Exact Euclidean volume; zero when the polytope is dimension deficient."""
    if isinstance(P, RationalPolytope):
        points = P.vertices
    elif isinstance(P, Support):
        points = P.points
    else:
        points = tuple(tuple(c) for c in P)
    scale = 1
    for p in points:
        for c in p:
            if isinstance(c, Fraction):
                scale = scale * c.denominator // math.gcd(scale, c.denominator)
    pts = sorted({tuple(int(c * scale) for c in p) for p in points})
    n = len(pts[0])
    if _affine_rank(pts) < n:
        return Fraction(0)
    dvol, _ = _hull(pts, n)
    return Fraction(dvol, math.factorial(n) * scale**n)


def mixed_volume(S: SupportSystem) -> int:
    """BKK-normalized mixed volume: `predict_tree(S).mv`, or 0 when it vanishes."""
    from .decompose import predict_tree  # local: decompose imports this module

    try:
        return predict_tree(S).mv
    except MixedVolumeZeroError:
        return 0


def hull_mixed_volume(S: SupportSystem) -> int:
    """BKK-normalized mixed volume of the whole system from convex hulls.

    Inclusion-exclusion over nonempty subsets T of the supports:
    MV = sum over T of (-1)^(n-|T|) vol(sum of conv(A_i), i in T).
    Subsets are enumerated depth-first so partial Minkowski sums are shared,
    with larger supports placed last.
    """
    n = S.n
    order = sorted(range(n), key=lambda i: len(S.supports[i]))
    sups = []
    for i in order:
        pts = S.supports[i].points
        base = tuple(min(p[c] for p in pts) for c in range(n))
        sups.append(sorted(tuple(c - b for c, b in zip(p, base)) for p in pts))
    ranks = [_affine_rank(p) for p in sups]
    suffix_rank = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_rank[i] = suffix_rank[i + 1] + ranks[i]

    total = Fraction(0)

    def visit(idx, pts, size):
        nonlocal total
        for j in range(idx, n):
            new = _minkowski_points(pts, sups[j]) if pts is not None else sups[j]
            r = _affine_rank(new)
            if r + suffix_rank[j + 1] < n:
                continue  # no completion of this branch reaches full rank
            if r == n:
                dvol, _ = _hull(new, n)
                vol = Fraction(dvol, math.factorial(n))
                if (n - size - 1) % 2:
                    total -= vol
                else:
                    total += vol
            if j + 1 < n:
                visit(j + 1, _reduce_to_vertices(new), size + 1)

    visit(0, None, 0)
    if total.denominator != 1 or total < 0:
        raise AssertionError(f"mixed volume must be a nonnegative integer, got {total}")
    return int(total)


def mv_is_zero(S: SupportSystem):
    """Minkowski's criterion: MV = 0 iff some index set I has |I| > rank.

    Returns (True, witness I) with the first witness in (size, lex) order,
    or (False, None).
    """
    for I, rank in subset_span_ranks(S):
        if rank < len(I):
            return True, I
    return False, None


# ---------------------------------------------------------------------------
# Exact hull machinery.


def _affine_rank(pts) -> int:
    base = pts[0]
    cols = [tuple(c - b for c, b in zip(p, base)) for p in pts[1:]]
    cols = [c for c in cols if any(c)]
    if not cols:
        return 0
    return IntMatrix.from_columns(cols).rank()


def _minkowski_points(A, B):
    return sorted({tuple(a + b for a, b in zip(p, q)) for p in A for q in B})


def _project_full(pts):
    """Map points bijectively onto Z^r, r their affine rank, preserving hulls."""
    base = pts[0]
    diffs = [tuple(c - b for c, b in zip(p, base)) for p in pts]
    r = _affine_rank(pts)
    n = len(base)
    if r == n:
        return diffs, r
    cols = [d for d in diffs if any(d)]
    psi = unimodular_inverse(smith_normal_form(IntMatrix.from_columns(cols)).P)
    proj = [psi.apply(d)[:r] for d in diffs]
    return proj, r


def _reduce_to_vertices(pts):
    """Subset of pts with the same convex hull.

    All genuine vertices survive: the neighbor test below only ever removes
    a point it proves to be a convex combination of others.
    """
    pts = sorted(set(map(tuple, pts)))
    if len(pts) <= 2:
        return pts
    proj, r = _project_full(pts)
    if r == 0:
        return [pts[0]]
    _, facets = _hull(proj, r)
    on_boundary = sorted({v for f in facets for v in f})
    neighbors = {v: set() for v in on_boundary}
    for f in facets:
        for v in f:
            neighbors[v].update(f)
    keep = []
    for v in on_boundary:
        others = [proj[w] for w in neighbors[v] if w != v]
        if not point_in_hull(proj[v], others):
            keep.append(pts[v])
    return keep


class _FacetStore:
    """Facet set with a growing int64 buffer for vectorized visibility.

    Rows for dropped facets go stale and are filtered out by the caller;
    the buffer is compacted once stale rows dominate.
    """

    def __init__(self, d, exact_only):
        self.d = d
        self.exact_only = exact_only
        self.facets = {}  # fid -> (verts, normal, offset, ridges)
        self.ridge_owners = {}
        self._serial = itertools.count()
        cap = 64
        self._normals = np.zeros((cap, d), dtype=np.int64)
        self._offsets = np.zeros(cap, dtype=np.int64)
        self._fids = []

    def add(self, verts, a, b):
        fid = next(self._serial)
        ridges = tuple(itertools.combinations(sorted(verts), self.d - 1))
        self.facets[fid] = (verts, a, b, ridges)
        for ridge in ridges:
            self.ridge_owners.setdefault(ridge, set()).add(fid)
        if not self.exact_only:
            k = len(self._fids)
            if k == len(self._offsets):
                self._normals = np.concatenate([self._normals, np.zeros_like(self._normals)])
                self._offsets = np.concatenate([self._offsets, np.zeros_like(self._offsets)])
            self._normals[k] = a
            self._offsets[k] = b
            self._fids.append(fid)
        return fid

    def drop(self, fid):
        _, _, _, ridges = self.facets.pop(fid)
        for ridge in ridges:
            owners = self.ridge_owners[ridge]
            owners.discard(fid)
            if not owners:
                del self.ridge_owners[ridge]

    def _compact(self):
        alive = [(fid, self.facets[fid]) for fid in self._fids if fid in self.facets]
        self._fids = []
        for fid, (_, a, b, _ridges) in alive:
            k = len(self._fids)
            self._normals[k] = a
            self._offsets[k] = b
            self._fids.append(fid)

    def visible_from(self, p):
        """{fid: a . p - b} over the facets that p lies strictly beyond."""
        if self.exact_only:
            return {fid: h for fid, (_, a, b, _ridges) in self.facets.items()
                    if (h := sum(x * y for x, y in zip(a, p)) - b) > 0}
        if len(self._fids) > 2 * len(self.facets) + 64:
            self._compact()
        k = len(self._fids)
        vals = self._normals[:k] @ np.asarray(p, dtype=np.int64) - self._offsets[:k]
        hits = np.nonzero(vals > 0)[0]
        return {self._fids[h]: int(vals[h]) for h in hits if self._fids[h] in self.facets}


def _hull(pts, d):
    """Beneath-beyond hull of a full-rank integer point set in Z^d.

    Returns (d! * volume, facet list as tuples of point indices). The facet
    simplices triangulate the boundary; only strictly-beyond insertions add
    volume, so points already on the current boundary are skipped harmlessly.
    Each volume is a facet height: with the facet's unreduced outward plane
    a . x = b, the cone from a point p over it has d! * volume a . p - b,
    the very value the visibility test computes.
    """
    if d == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i])
        hi = max(range(len(pts)), key=lambda i: pts[i])
        return pts[hi][0] - pts[lo][0], [(lo,), (hi,)]

    seed = _seed_simplex(pts, d)
    ref = tuple(sum(pts[i][c] for i in seed) for c in range(d))  # (d+1) * centroid
    a, b = _facet_plane([pts[i] for i in seed[:d]], d)
    dvol = abs(sum(x * y for x, y in zip(a, pts[seed[d]])) - b)

    # Big coordinates could overflow the vectorized int64 visibility test.
    maxc = max(abs(c) for p in pts for c in p)
    store = _FacetStore(d, exact_only=maxc > _INT64_COORD_LIMIT or d > 6)

    def oriented_facet(verts):
        a, b = _facet_plane([pts[v] for v in verts], d)
        side = sum(x * y for x, y in zip(a, ref)) - (d + 1) * b
        if side == 0:
            raise AssertionError("reference point on facet hyperplane")
        if side > 0:
            a = tuple(-x for x in a)
            b = -b
        store.add(verts, a, b)

    for verts in itertools.combinations(seed, d):
        oriented_facet(verts)

    rest = [i for i in range(len(pts)) if i not in set(seed)]
    center = tuple(x / (d + 1) for x in ref)
    rest.sort(key=lambda i: (-sum((c - x) * (c - x) for c, x in zip(pts[i], center)), pts[i]))

    for i in rest:
        p = pts[i]
        visible = store.visible_from(p)
        if not visible:
            continue
        horizon = []
        for fid, height in visible.items():
            dvol += height
            _, _, _, ridges = store.facets[fid]
            for ridge in ridges:
                owners = store.ridge_owners[ridge]
                other = next((o for o in owners if o != fid), None)
                if other is None:
                    raise AssertionError("boundary complex lost a ridge neighbor")
                if other not in visible:
                    horizon.append(ridge)
        for fid in visible:
            store.drop(fid)
        for ridge in horizon:
            oriented_facet(ridge + (i,))

    return dvol, [f[0] for f in store.facets.values()]


def _seed_simplex(pts, d):
    base = 0
    chosen = [base]
    vecs = []
    for i in range(1, len(pts)):
        cand = tuple(a - b for a, b in zip(pts[i], pts[base]))
        if not any(cand):
            continue
        if IntMatrix.from_columns(vecs + [cand]).rank() == len(vecs) + 1:
            vecs.append(cand)
            chosen.append(i)
            if len(vecs) == d:
                return chosen
    raise ValueError("point set is not full-dimensional")


def _facet_plane(points, d):
    """Hyperplane a . x = b through d affinely independent points.

    The normal is the generalized cross product of the edge vectors,
    hand-rolled for d <= 5 with shared two-row minor tables. It is not
    reduced, so |a . p - b| is d! times the volume of the simplex that the
    points span with p.
    """
    p0 = points[0]
    edges = [[q[c] - p0[c] for c in range(d)] for q in points[1:]]
    if d == 2:
        (e0, e1), = edges
        a = (e1, -e0)
    elif d == 3:
        (u0, u1, u2), (v0, v1, v2) = edges
        a = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    elif d == 4:
        u, v, w = edges
        # 2x2 minors of (u, v) by column pair
        m = {}
        for x in range(4):
            for y in range(x + 1, 4):
                m[x, y] = u[x] * v[y] - u[y] * v[x]
        a = (
            w[1] * m[2, 3] - w[2] * m[1, 3] + w[3] * m[1, 2],
            -(w[0] * m[2, 3] - w[2] * m[0, 3] + w[3] * m[0, 2]),
            w[0] * m[1, 3] - w[1] * m[0, 3] + w[3] * m[0, 1],
            -(w[0] * m[1, 2] - w[1] * m[0, 2] + w[2] * m[0, 1]),
        )
    elif d == 5:
        (e10, e11, e12, e13, e14), (e20, e21, e22, e23, e24) = edges[0], edges[1]
        (e30, e31, e32, e33, e34), (e40, e41, e42, e43, e44) = edges[2], edges[3]
        p01 = e10 * e21 - e11 * e20
        p02 = e10 * e22 - e12 * e20
        p03 = e10 * e23 - e13 * e20
        p04 = e10 * e24 - e14 * e20
        p12 = e11 * e22 - e12 * e21
        p13 = e11 * e23 - e13 * e21
        p14 = e11 * e24 - e14 * e21
        p23 = e12 * e23 - e13 * e22
        p24 = e12 * e24 - e14 * e22
        p34 = e13 * e24 - e14 * e23
        q01 = e30 * e41 - e31 * e40
        q02 = e30 * e42 - e32 * e40
        q03 = e30 * e43 - e33 * e40
        q04 = e30 * e44 - e34 * e40
        q12 = e31 * e42 - e32 * e41
        q13 = e31 * e43 - e33 * e41
        q14 = e31 * e44 - e34 * e41
        q23 = e32 * e43 - e33 * e42
        q24 = e32 * e44 - e34 * e42
        q34 = e33 * e44 - e34 * e43
        a = (
            p12 * q34 - p13 * q24 + p14 * q23 + p23 * q14 - p24 * q13 + p34 * q12,
            -(p02 * q34 - p03 * q24 + p04 * q23 + p23 * q04 - p24 * q03 + p34 * q02),
            p01 * q34 - p03 * q14 + p04 * q13 + p13 * q04 - p14 * q03 + p34 * q01,
            -(p01 * q24 - p02 * q14 + p04 * q12 + p12 * q04 - p14 * q02 + p24 * q01),
            p01 * q23 - p02 * q13 + p03 * q12 + p12 * q03 - p13 * q02 + p23 * q01,
        )
    else:
        a = []
        for j in range(d):
            minor = [[row[c] for c in range(d) if c != j] for row in edges]
            sign = -1 if j % 2 else 1
            a.append(sign * IntMatrix.from_rows(minor).det())
        a = tuple(a)
    b = sum(x * y for x, y in zip(a, p0))
    return a, b

