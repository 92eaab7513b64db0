"""Mixed volumes of support systems and the zero-mixed-volume criterion.

The mixed volume is normalized as the coefficient of t_1*...*t_n in the
volume polynomial of the scaled Minkowski sum, i.e. MV(K,...,K) equals
n! * vol(K). `mixed_volume` follows the lacunary/triangular decomposition
tree; at its indecomposable and univariate leaves `hull_mixed_volume` runs
inclusion-exclusion over the subsets' Minkowski sums, built incrementally:
each full-rank partial sum passes on only the points on the facets of the
hull that gives its volume. A planar hull is Andrew's monotone chain, whose
edges hold its vertices only; above the plane it is an exact integer
beneath-beyond triangulation, whose every simplex volume is a facet height
that the visibility test has already computed, so no volume takes a
determinant of its own. The same hull gives `supports.vertices`. No floats
enter any volume.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul

from .errors import MixedVolumeZeroError
from .intlinalg import _bareiss_det
from .supports import SupportSystem, _affine_pivots, subset_span_ranks


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
    with larger supports placed last. Each sum's _affine_pivots give its
    rank and, when it is full, the seed simplex of the hull built for its
    volume; a single support's are taken once, for both. A full-rank
    partial sum passes on only the points on that hull's facets, which
    include every vertex; a lower-rank sum passes on all its points.
    """
    n = S.n
    sups = sorted((s.points for s in S.supports), key=len)
    bases = [_affine_pivots(p) for p in sups]
    suffix_rank = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_rank[i] = suffix_rank[i + 1] + len(bases[i])

    total = Fraction(0)

    def visit(idx, pts, size):
        nonlocal total
        for j in range(idx, n):
            if pts is None:
                new, pivots = sups[j], bases[j]
            else:
                new = _minkowski_points(pts, sups[j])
                pivots = _affine_pivots(new)
            if len(pivots) + suffix_rank[j + 1] < n:
                continue  # no completion of this branch reaches full rank
            if len(pivots) == n:
                dvol, facets = _hull(new, [0, *pivots])
                vol = Fraction(dvol, math.factorial(n))
                if (n - size - 1) % 2:
                    total -= vol
                else:
                    total += vol
                new = [new[v] for v in sorted({v for f in facets for v in f})]
            if j + 1 < n:
                visit(j + 1, new, size + 1)

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


def _minkowski_points(A, B):
    return sorted({tuple(a + b for a, b in zip(p, q)) for p in A for q in B})


def _hull(pts, seed):
    """Hull of a full-rank integer point set in Z^d, with `seed` indexing
    d + 1 affinely independent points of it.

    Returns (d! * volume, the facets as tuples of point indices): at d = 1
    the two ends, at d = 2 `_polygon`'s edges. From d = 3 on, the facet
    simplices of a beneath-beyond hull grown from `seed` triangulate the
    boundary, and the facets are a dict from each simplex to its outward
    plane and ridges (a, b, ridges); only strictly-beyond insertions add
    volume, so points already on the current boundary are skipped
    harmlessly, and a point inside a true face may stay a simplex vertex,
    which `supports.vertices` filters by the planes. Each volume is a facet
    height: with the facet's unreduced outward plane a . x = b, the cone
    from a point p over it has d! * volume a . p - b, the very value the
    visibility test computes. All of it is Python integer arithmetic, so no
    coordinate size can overflow it.
    """
    d = len(seed) - 1
    if d == 1:
        lo = min(range(len(pts)), key=lambda i: pts[i])
        hi = max(range(len(pts)), key=lambda i: pts[i])
        return pts[hi][0] - pts[lo][0], [(lo,), (hi,)]
    if d == 2:
        return _polygon(pts)

    ref = tuple(sum(pts[i][c] for i in seed) for c in range(d))  # (d+1) * centroid
    a, b = _facet_plane([pts[i] for i in seed[:d]], d)
    dvol = abs(sum(map(mul, a, pts[seed[d]])) - b)

    facets = {}  # verts -> (outward normal a, offset b, ridges), in insertion order
    ridge_owners = {}  # ridge -> the facets that contain it

    def add_facet(verts):
        a, b = _facet_plane([pts[v] for v in verts], d)
        side = sum(map(mul, a, ref)) - (d + 1) * b
        if side == 0:
            raise AssertionError("reference point on facet hyperplane")
        if side > 0:
            a = tuple(-x for x in a)
            b = -b
        ridges = tuple(itertools.combinations(sorted(verts), d - 1))
        facets[verts] = (a, b, ridges)
        for ridge in ridges:
            ridge_owners.setdefault(ridge, set()).add(verts)

    for verts in itertools.combinations(seed, d):
        add_facet(verts)

    rest = [i for i in range(len(pts)) if i not in set(seed)]
    center = tuple(x / (d + 1) for x in ref)
    rest.sort(key=lambda i: (-sum((c - x) * (c - x) for c, x in zip(pts[i], center)), pts[i]))

    for i in rest:
        p = pts[i]
        visible = {f: h for f, (a, b, _) in facets.items() if (h := sum(map(mul, a, p)) - b) > 0}
        horizon = []
        for f, height in visible.items():
            dvol += height
            for ridge in facets[f][2]:
                other = next((o for o in ridge_owners[ridge] if o != f), None)
                if other is None:
                    raise AssertionError("boundary complex lost a ridge neighbor")
                if other not in visible:
                    horizon.append(ridge)
        for f in visible:
            for ridge in facets.pop(f)[2]:
                owners = ridge_owners[ridge]
                owners.discard(f)
                if not owners:
                    del ridge_owners[ridge]
        for ridge in horizon:
            add_facet(ridge + (i,))

    return dvol, facets


def _polygon(pts):
    """(2! * area, edges in counter-clockwise order) of a full-rank planar
    point set by Andrew's monotone chain (Inf. Process. Lett. 9, 1979). Its
    chains keep strict left turns only, by exact integer cross products, so
    the edges hold the vertices alone; the area is their shoelace sum."""
    order = sorted(range(len(pts)), key=pts.__getitem__)

    def chain(indices):  # the lower chain from left to right, or the upper back
        kept = []
        for i in indices:
            x, y = pts[i]
            while len(kept) > 1:
                (ax, ay), (bx, by) = pts[kept[-2]], pts[kept[-1]]
                if (bx - ax) * (y - ay) > (by - ay) * (x - ax):
                    break
                kept.pop()
            kept.append(i)
        return kept[:-1]  # its last point starts the other chain

    cycle = chain(order) + chain(reversed(order))
    edges = list(zip(cycle, cycle[1:] + cycle[:1]))
    return sum(pts[i][0] * pts[j][1] - pts[j][0] * pts[i][1] for i, j in edges), edges


def _facet_plane(points, d):
    """Hyperplane a . x = b through d affinely independent points.

    The normal is the generalized cross product of the edge vectors
    e_k = q_k - p0: the signed cofactors a_j = (-1)^j det(edges without
    column j), one Bareiss determinant each. It is not reduced, so
    |a . p - b| = |det[e_1, ..., e_(d-1), p - p0]|, d! times the volume of
    the simplex that the points span with p.
    """
    p0 = points[0]
    edges = [[c - c0 for c, c0 in zip(q, p0)] for q in points[1:]]
    a = tuple((-1) ** j * _bareiss_det([row[:j] + row[j + 1:] for row in edges])
              for j in range(d))
    return a, sum(map(mul, a, p0))
