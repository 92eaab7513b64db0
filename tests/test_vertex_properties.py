"""Property test: supports.vertices, read off the exact hull, keeps the
points that the LP oracle finds outside the hull of the others, is
idempotent and commutes with unimodular maps and translations, on supports
in Z^1..Z^5: random, embedded in a lower-dimensional affine span, grids and
Minkowski sums rich in points inside their faces. Needs `hypothesis`."""
import itertools
import random

import pytest
from oracles import point_in_hull
from test_geometry import minkowski_sum, random_unimodular

from torsolve.intlinalg import IntMatrix
from torsolve.supports import Support, vertices

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

CUBE5 = Support(tuple(itertools.product((0, 1), repeat=5)))
GRID3 = Support(tuple(itertools.product((0, 1, 2), repeat=3)))


@st.composite
def supports(draw):
    """A support in Z^n, n <= 5: random points, points on a random affine
    sublattice of rank below n, a grid {0, .., s}^k or a Minkowski sum of
    two or three small supports."""
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-3, 3)] * n)
    kind = draw(st.sampled_from(("random", "embedded", "grid", "sum")))
    if kind == "random":
        pts = draw(st.sets(vector, min_size=1, max_size=12))
    elif kind == "embedded":
        base, gens = draw(vector), draw(st.lists(vector, max_size=n - 1))
        coef = st.tuples(*[st.integers(-2, 2)] * len(gens))
        coefs = draw(st.lists(coef, min_size=1, max_size=12))
        pts = {tuple(b + sum(c * g[k] for c, g in zip(cs, gens)) for k, b in enumerate(base))
               for cs in coefs}
    elif kind == "grid":
        k, side = draw(st.integers(1, min(n, 3))), draw(st.integers(1, 2))
        pts = {p + (0,) * (n - k) for p in itertools.product(range(side + 1), repeat=k)}
    else:
        small = st.sets(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=3)
        pts = minkowski_sum(*draw(st.lists(small, min_size=2, max_size=3)))
    return Support(tuple(pts))


def lp_vertices(A: Support) -> Support:
    """The points of A outside the hull of the others, one LP each."""
    pts = A.points
    return Support(tuple(p for p in pts if not point_in_hull(p, [q for q in pts if q != p])))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(supports(), st.randoms(use_true_random=False))
@hypothesis.example(CUBE5, random.Random(0))
@hypothesis.example(GRID3, random.Random(1))
def test_vertices_are_the_points_outside_the_hull_of_the_others(A, rng):
    V = vertices(A)
    assert V == lp_vertices(A)
    assert vertices(V) == V
    U = random_unimodular(A.dim, rng) if A.dim > 1 else IntMatrix.from_rows([[-1]])
    t = [rng.randint(-5, 5) for _ in range(A.dim)]

    def moved(B):
        return Support(tuple(tuple(map(sum, zip(U.apply(p), t))) for p in B.points))

    assert vertices(moved(A)) == moved(V)
