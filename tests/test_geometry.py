import itertools
import math
import random
from fractions import Fraction

import pytest

from torsolve.decompose import Indecomposable, classify
from torsolve.errors import MixedVolumeZeroError
from torsolve.geometry import (
    _facet_plane,
    _hull,
    hull_mixed_volume,
    mixed_volume,
    mv_is_zero,
)
from torsolve.intlinalg import IntMatrix
from torsolve.supports import Support, SupportSystem, _affine_pivots, point_in_hull, vertices

from oracles import polytope_volume
from systems import LACUNARY_B1, LACUNARY_B2, START_A, TRI_A, TRI_A3


def shoelace(points):
    """2-D area oracle: shoelace over the hull in angular order."""
    verts = sorted(set(points))
    hull_pts = [p for p in verts if not point_in_hull(p, [q for q in verts if q != p])]
    cx = sum(Fraction(p[0]) for p in hull_pts) / len(hull_pts)
    cy = sum(Fraction(p[1]) for p in hull_pts) / len(hull_pts)
    import math

    ordered = sorted(hull_pts, key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
    s = Fraction(0)
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        s += Fraction(x1) * y2 - Fraction(x2) * y1
    return abs(s) / 2


def test_polytope_volume_basics():
    cube = list(itertools.product([0, 1], repeat=3))
    assert polytope_volume(cube) == 1
    assert polytope_volume([(0, 0), (3, 0), (0, 3)]) == Fraction(9, 2)
    assert polytope_volume([(0, 0), (2, 0)]) == 0  # segment in the plane
    assert polytope_volume([(0, 0, 0)]) == 0
    for bad in ([], [(0, 0), (1, 0, 5), (0, 1)]):
        with pytest.raises(ValueError, match="all of one dimension"):
            polytope_volume(bad)


def test_polytope_volume_start_example():
    # shoelace on the vertex pentagon gives 15
    assert polytope_volume(START_A) == 15
    assert shoelace(START_A) == 15


def test_polytope_volume_rational_scaling():
    tri = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))]
    assert polytope_volume(tri) == Fraction(1, 8)
    # float coordinates count at their exact binary value, not truncated
    assert polytope_volume([(0, 0), (1.5, 0), (0, 1.5)]) == Fraction(9, 8)
    assert polytope_volume([(0.25, 0), (1, Fraction(1, 3)), (0, 0.5)]) == Fraction(11, 48)


def test_polytope_volume_random_vs_shoelace():
    rng = random.Random(11)
    for _ in range(40):
        pts = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(3, 12))]
        if len(set(pts)) < 3:
            continue
        assert polytope_volume(pts) == shoelace(pts)


def test_hull_volume_random_vs_scipy():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(23)
    for dim in (2, 3, 4, 5):
        for _ in range(25):
            pts = {tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(dim + 2 + rng.randint(0, 10))}
            pts = sorted(pts)
            vol = polytope_volume(pts)
            try:
                qh = scipy_spatial.ConvexHull(pts, qhull_options="QJ")
            except scipy_spatial.QhullError:
                assert vol == 0
                continue
            assert abs(float(vol) - qh.volume) < 1e-6 + 1e-3 * qh.volume


def random_unimodular(d, rng):
    """A product of random elementary integer row operations and a sign flip."""
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        q = rng.choice([-2, -1, 1, 2])
        U[i] = [a + q * b for a, b in zip(U[i], U[j])]
    U[0] = [-a for a in U[0]]
    return IntMatrix.from_rows(U)


@pytest.mark.parametrize("d", range(2, 8))
def test_polytope_volume_of_simplices_and_unimodular_cubes(d):
    rng = random.Random(50 + d)
    for _ in range(5):
        simplex = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(d + 1)]
        det = IntMatrix.from_rows([[a - b for a, b in zip(p, simplex[0])]
                                   for p in simplex[1:]]).det()
        assert polytope_volume(simplex) == Fraction(abs(det), math.factorial(d))
    if d == 7:
        return  # the 7-cube's 10,080 boundary simplices take seconds
    k = rng.randint(1, 3)
    shift = [rng.randint(-5, 5) for _ in range(d)]
    U = random_unimodular(d, rng)
    cube = [U.apply([k * c + t for c, t in zip(p, shift)])
            for p in itertools.product((0, 1), repeat=d)]
    assert polytope_volume(cube) == k ** d


def minkowski_sum(*supports):
    return sorted({tuple(map(sum, zip(*ps))) for ps in itertools.product(*supports)})


@pytest.mark.parametrize("d", range(2, 7))
def test_hull_matches_scipy_convex_hull(d):
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(70 + d)
    cases = []
    while len(cases) < 8:
        pts = sorted({tuple(rng.randint(-40, 40) for _ in range(d))
                      for _ in range(d + 1 + rng.randint(0, 10))})
        if len(_affine_pivots(pts)) == d:
            cases.append(pts)
    # Minkowski sums of small supports, dense and rich in coplanar points:
    # the partial sums that `hull_mixed_volume` hands to `_hull` unthinned.
    while d <= 4 and len(cases) < 16:
        supports = [{tuple(rng.randint(0, 3) for _ in range(d)) for _ in range(rng.randint(2, d + 2))}
                    for _ in range(rng.randint(2, 3))]
        pts = minkowski_sum(*supports)
        if len(_affine_pivots(pts)) == d:
            cases.append(pts)
    for pts in cases:
        dvol, facets = _hull(pts, [0, *_affine_pivots(pts)])
        qh = scipy_spatial.ConvexHull(pts)
        assert dvol == round(math.factorial(d) * qh.volume)
        # `hull_mixed_volume` passes on only the facets' points
        assert set(qh.vertices) <= {v for f in facets for v in f}


def collinear_rich_planar_set(rng):
    """{point: "vertex", "edge" or "interior"}: the lattice points of a
    w x h rectangle, or the points a*P + b*Q + c*R (a + b + c = m) on a
    triangle's edges and some inside it, each named by its zero weights."""
    kinds = ("interior", "edge", "vertex")
    if rng.random() < 0.5:
        w, h = rng.randint(1, 6), rng.randint(1, 6)
        return {(i, j): kinds[(i in (0, w)) + (j in (0, h))]
                for i in range(w + 1) for j in range(h + 1)}
    while True:
        P, Q, R = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
        if (Q[0] - P[0]) * (R[1] - P[1]) != (Q[1] - P[1]) * (R[0] - P[0]):
            break
    m = rng.randint(2, 7)
    weights = [(a, b, m - a - b) for a in range(m + 1) for b in range(m + 1 - a)]
    return {tuple(a * p + b * q + c * r for p, q, r in zip(P, Q, R)): kinds[(a, b, c).count(0)]
            for a, b, c in weights if 0 in (a, b, c) or rng.random() < 0.3}


@pytest.mark.parametrize("bits", [63, 100])
def test_planar_hull_is_the_counter_clockwise_cycle_of_the_vertices(bits):
    # Python-integer coordinates: the set is sheared by a unimodular map,
    # stretched and moved to about 2^bits, where every cross product of the
    # monotone chain is far past the int64 range.
    rng = random.Random(bits)
    for _ in range(30):
        U, step = random_unimodular(2, rng), rng.randint(1, 2 ** 20)
        shift = [rng.choice([-1, 1]) * 2 ** bits + rng.randint(-2 ** 40, 2 ** 40) for _ in range(2)]
        kind = {tuple(step * c + t for c, t in zip(U.apply(p), shift)): k
                for p, k in collinear_rich_planar_set(rng).items()}
        pts = sorted(kind)
        dvol, facets = _hull(pts, [0, *_affine_pivots(pts)])
        assert dvol == 2 * shoelace(pts)
        cycle = [i for i, _ in facets]
        assert [j for _, j in facets] == cycle[1:] + cycle[:1]
        assert sorted(pts[i] for i in cycle) == list(vertices(Support(pts)).points)
        assert {kind[pts[i]] for i in cycle} == {"vertex"}
        for a, b, c in zip(cycle, cycle[1:] + cycle[:1], cycle[2:] + cycle[:2]):
            (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
            assert (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0  # a strict left turn


def greedy_seed(pts, d):
    """The hull seed found one rank at a time: index 0, then each point whose
    difference from point 0 raises the rank of the differences chosen so far."""
    chosen, vecs = [0], []
    for i in range(1, len(pts)):
        cand = tuple(a - b for a, b in zip(pts[i], pts[0]))
        if any(cand) and IntMatrix.from_columns(vecs + [cand]).rank() == len(vecs) + 1:
            vecs.append(cand)
            chosen.append(i)
            if len(vecs) == d:
                return chosen
    raise ValueError("point set is not full-dimensional")


@pytest.mark.parametrize("d", range(1, 7))
def test_affine_pivots_give_the_seed_of_the_greedy_loop(d):
    rng = random.Random(110 + d)
    cases = 0
    while cases < 20:
        pts = {tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(1, 6))}
        # many points on a line or a plane through a random point
        base = [rng.randint(-6, 6) for _ in range(d)]
        dirs = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(1, 2))]
        for _ in range(rng.randint(3, 12)):
            coef = [rng.randint(-4, 4) for _ in dirs]
            pts.add(tuple(b + sum(c * v[k] for c, v in zip(coef, dirs)) for k, b in enumerate(base)))
        pts = sorted(pts)
        if rng.random() < 0.5:
            rng.shuffle(pts)  # points on the line or plane before the others, or after
        if len(_affine_pivots(pts)) < d:
            continue
        assert [0, *_affine_pivots(pts)] == greedy_seed(pts, d)
        cases += 1


@pytest.mark.parametrize("d", range(2, 8))
def test_facet_plane_is_the_cofactor_normal(d):
    rng = random.Random(90 + d)
    for _ in range(5):
        points = [tuple(rng.randint(-50, 50) for _ in range(d)) for _ in range(d)]
        a, b = _facet_plane(points, d)
        p0 = points[0]
        edges = [[c - c0 for c, c0 in zip(q, p0)] for q in points[1:]]
        for e in edges:
            assert sum(x * y for x, y in zip(a, e)) == 0
        for _ in range(5):
            p = [rng.randint(-10**6, 10**6) for _ in range(d)]
            det = IntMatrix.from_rows(edges + [[c - c0 for c, c0 in zip(p, p0)]]).det()
            assert abs(sum(x * y for x, y in zip(a, p)) - b) == abs(det)


def test_hull_volume_does_not_overflow_in_six_dimensions():
    # Corners of {-512, 512}^6: the plane values a . p reach 2**63, past the int64 range.
    unit = [(-1, -1, -1, -1, -1, 1), (-1, -1, -1, -1, 1, -1), (-1, 1, -1, -1, 1, 1),
            (-1, 1, -1, 1, 1, -1), (-1, 1, 1, -1, -1, 1), (-1, 1, 1, -1, 1, 1),
            (-1, 1, 1, 1, -1, -1), (1, -1, -1, -1, 1, 1), (1, -1, -1, 1, 1, 1),
            (1, -1, 1, -1, -1, -1), (1, 1, -1, -1, -1, -1), (1, 1, -1, 1, -1, -1),
            (1, 1, -1, 1, -1, 1), (1, 1, -1, 1, 1, -1)]
    pts = [tuple(512 * c for c in p) for p in unit]
    assert polytope_volume(pts) == 512 ** 6 * polytope_volume(unit)
    assert polytope_volume(pts) * 720 == 122209679488325779456


def test_mixed_volume_unit_square():
    S = SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    assert mixed_volume(S) == 1


def test_mixed_volume_lacunary_child():
    assert mixed_volume(SupportSystem.of_points([LACUNARY_B1, LACUNARY_B2])) == 10


def test_mixed_volume_start_pair():
    assert mixed_volume(SupportSystem.of_points([START_A, START_A])) == 30


def test_mixed_volume_triangular_example():
    # product structure: 8 base solutions x 4 per fiber
    assert mixed_volume(SupportSystem.of_points([TRI_A, TRI_A, TRI_A3])) == 32


def test_mixed_volume_univariate():
    S = SupportSystem.of_points([[(0,), (2,), (5,)]])
    assert mixed_volume(S) == 5


def test_mixed_volume_symmetry_translation_unimodular():
    rng = random.Random(47)
    for _ in range(10):
        A = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)]
        B = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(4)]
        A, B = list(set(A)), list(set(B))
        if len(A) < 2 or len(B) < 2:
            continue
        S = SupportSystem.of_points([A, B])
        mv = mixed_volume(S)
        assert mv == mixed_volume(SupportSystem.of_points([B, A]))
        shifted = [[(x + 5, y - 3) for x, y in A], B]
        assert mv == mixed_volume(SupportSystem.of_points(shifted))
        U = [[1, 1], [0, 1]]  # unimodular shear applied to all supports
        sheared = [
            [(U[0][0] * x + U[0][1] * y, U[1][0] * x + U[1][1] * y) for x, y in pts]
            for pts in (A, B)
        ]
        assert mv == mixed_volume(SupportSystem.of_points(sheared))


def test_mixed_volume_vertices_invariance():
    S = SupportSystem.of_points([START_A, START_A])
    V = SupportSystem(tuple(vertices(s) for s in S.supports))
    assert mixed_volume(V) == mixed_volume(S) == 30


@pytest.mark.parametrize("n, count", [(2, 8), (3, 6), (4, 2)])
def test_hull_mixed_volume_matches_scipy_inclusion_exclusion(n, count):
    # Indecomposable draws, whose mixed volume the tree itself takes from
    # `hull_mixed_volume`; few at n = 4, where one call takes about 0.5 s.
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = random.Random(110 + n)
    checked = 0
    while checked < count:
        S = SupportSystem.of_points(
            [{tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(n, n + 2))}
             for _ in range(n)])
        try:
            if not isinstance(classify(S), Indecomposable):
                continue
        except MixedVolumeZeroError:
            continue
        total = 0.0
        for size in range(1, n + 1):
            for T in itertools.combinations(S.supports, size):
                try:
                    vol = scipy_spatial.ConvexHull(minkowski_sum(*(s.points for s in T))).volume
                except scipy_spatial.QhullError:
                    vol = 0.0  # a lower-dimensional sum
                total += (-1) ** (n - size) * vol
        assert hull_mixed_volume(S) == round(total)
        checked += 1


def test_mv_is_zero():
    collinear = SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (1, 0)]])
    zero, witness = mv_is_zero(collinear)
    assert zero and witness == (0, 1)
    assert mixed_volume(collinear) == hull_mixed_volume(collinear) == 0

    tri = SupportSystem.of_points([TRI_A, TRI_A, TRI_A3])
    zero, witness = mv_is_zero(tri)
    assert not zero and witness is None

    singleton = SupportSystem.of_points([[(0, 0)], [(0, 0), (1, 1)]])
    zero, witness = mv_is_zero(singleton)
    assert zero and witness == (0,)
    assert mixed_volume(singleton) == hull_mixed_volume(singleton) == 0
    point = SupportSystem.of_points([[(3,)]])
    assert mixed_volume(point) == hull_mixed_volume(point) == 0


def test_mv_is_zero_matches_mixed_volume():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(1, 3)
        sups = []
        for _ in range(n):
            m = rng.randint(1, 4)
            pts = {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(m)}
            sups.append(sorted(pts))
        S = SupportSystem.of_points(sups)
        zero, _ = mv_is_zero(S)
        hull = hull_mixed_volume(S)
        assert zero == (hull == 0)
        assert mixed_volume(S) == hull


def test_hull_facets_cover_boundary_points():
    pts = sorted(itertools.product([0, 1, 2], repeat=3))
    dvol, facets = _hull(pts, [0, *_affine_pivots(pts)])
    assert dvol == 6 * 8  # 3! * volume of the 2-cube
    on_boundary = {v for f in facets for v in f}
    interior = {pts.index((1, 1, 1))}
    assert interior.isdisjoint(on_boundary)


@pytest.mark.parametrize("k", [512, 513])
def test_hull_with_large_coordinates(k):
    cube = [tuple(k * c for c in p) for p in itertools.product([0, 1], repeat=3)]
    assert polytope_volume(cube + [(1, 2, 3), (k - 1, 1, 1)]) == k ** 3
    assert hull_mixed_volume(SupportSystem.of_points([cube, cube, cube])) == 6 * k ** 3


@pytest.mark.parametrize("supports, mv", [([START_A, START_A], 30), ([TRI_A, TRI_A, TRI_A3], 32)])
def test_mixed_volume_of_dilated_supports(supports, mv):
    n = len(supports)
    dilated = [[tuple(1000 * c for c in p) for p in sup] for sup in supports]
    assert hull_mixed_volume(SupportSystem.of_points(dilated)) == 1000 ** n * mv

