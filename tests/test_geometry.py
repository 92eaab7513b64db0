import itertools
import math
import random
from fractions import Fraction

import pytest

from torsolve import geometry
from torsolve.geometry import (
    RationalPolytope,
    _affine_rank,
    _hull,
    _reduce_to_vertices,
    hull_mixed_volume,
    mixed_volume,
    mv_is_zero,
    polytope_volume,
)
from torsolve.intlinalg import IntMatrix
from torsolve.supports import Support, SupportSystem, point_in_hull, vertices

LACUNARY_B1 = [(0, 0), (0, 1), (1, 1), (2, 2), (4, 1)]
LACUNARY_B2 = [(0, 0), (1, 2), (2, 1), (3, 1), (3, 2)]

START_A = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 0), (3, 1), (3, 4), (4, 2), (5, 3), (5, 4), (6, 4)]

TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]


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


def test_polytope_volume_start_example():
    # shoelace on the vertex pentagon gives 15
    assert polytope_volume(START_A) == 15
    assert shoelace(START_A) == 15


def test_polytope_volume_rational_scaling():
    tri = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))]
    assert polytope_volume(RationalPolytope(tuple(tri))) == Fraction(1, 8)


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
        return  # the 7-cube's 10,080 boundary simplices take seconds on the exact path
    k = rng.randint(1, 3)
    shift = [rng.randint(-5, 5) for _ in range(d)]
    U = random_unimodular(d, rng)
    cube = [U.apply([k * c + t for c, t in zip(p, shift)])
            for p in itertools.product((0, 1), repeat=d)]
    assert polytope_volume(cube) == k ** d


@pytest.mark.parametrize("d", range(2, 7))
def test_hull_exact_visibility_matches_int64(d, monkeypatch):
    rng = random.Random(70 + d)
    cases = []
    while len(cases) < 8:
        pts = sorted({tuple(rng.randint(-40, 40) for _ in range(d))
                      for _ in range(d + 1 + rng.randint(0, 10))})
        if _affine_rank(pts) == d:
            cases.append(pts)
    fast = [_hull(pts, d) for pts in cases]
    monkeypatch.setattr(geometry, "_INT64_COORD_LIMIT", -1)  # every hull takes the exact path
    assert [_hull(pts, d) for pts in cases] == fast


def test_reduce_to_vertices_sound():
    rng = random.Random(31)
    for dim in (2, 3, 4):
        for _ in range(15):
            pts = sorted({tuple(rng.randint(0, 5) for _ in range(dim)) for _ in range(rng.randint(4, 20))})
            red = _reduce_to_vertices(pts)
            true_verts = {
                p for p in pts if not point_in_hull(p, [q for q in pts if q != p])
            }
            assert true_verts <= set(red) <= set(pts)
            # reduction preserves the hull
            assert polytope_volume(red) == polytope_volume(pts)


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
    dvol, facets = _hull(pts, 3)
    assert dvol == 6 * 8  # 3! * volume of the 2-cube
    on_boundary = {v for f in facets for v in f}
    interior = {pts.index((1, 1, 1))}
    assert interior.isdisjoint(on_boundary)


@pytest.mark.parametrize("k", [512, 513])
def test_hull_at_the_int64_coordinate_limit(k):
    # 512 is the largest coordinate the vectorized int64 visibility test
    # takes; from 513 on the hull tests visibility with exact objects.
    cube = [tuple(k * c for c in p) for p in itertools.product([0, 1], repeat=3)]
    assert polytope_volume(cube + [(1, 2, 3), (k - 1, 1, 1)]) == k ** 3
    assert hull_mixed_volume(SupportSystem.of_points([cube, cube, cube])) == 6 * k ** 3


@pytest.mark.parametrize("supports, mv", [([START_A, START_A], 30), ([TRI_A, TRI_A, TRI_A3], 32)])
def test_mixed_volume_of_dilated_supports(supports, mv):
    n = len(supports)
    dilated = [[tuple(1000 * c for c in p) for p in sup] for sup in supports]
    assert hull_mixed_volume(SupportSystem.of_points(dilated)) == 1000 ** n * mv

