import itertools
import math
import random

import numpy as np
import pytest

from torsolve.decompose import Lacunary, Triangular, classify
from torsolve.errors import LatticeMembershipError
from torsolve.intlinalg import IntMatrix, smith_normal_form
from torsolve.supports import (
    SparseSystem,
    Support,
    SupportSystem,
    _preimage_solver,
    normalize,
    point_in_hull,
    preimage_supports,
    subset_span_ranks,
    vertices,
)

from oracles import _difference_columns, identity, quotient_supports, solve_integer, span_rank
from systems import (LACUNARY_A1, LACUNARY_A2, LACUNARY_B1, LACUNARY_B2, PAPER_PHI, START_A,
                     TRI_A, TRI_A3)

START_V = [(0, 0), (0, 2), (3, 0), (3, 4), (6, 4)]


def tri_system():
    return SupportSystem.of_points([TRI_A, TRI_A, TRI_A3])


def test_support_canonical_and_validation():
    s = Support(((1, 0), (0, 0), (0, 1)))
    assert s.points == ((0, 0), (0, 1), (1, 0))
    with pytest.raises(ValueError):
        Support(((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        Support(())


def test_sparse_system_validation():
    sys2 = SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (0, 1)]])
    SparseSystem(sys2, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        SparseSystem(sys2, ((1, 0), (3, 4)))
    with pytest.raises(ValueError):
        SparseSystem(sys2, ((1,), (3, 4)))


def test_normalize():
    s, shifts = normalize(SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (0, 1)]]))
    assert shifts == ((0, 0), (0, 0))
    s2, shifts2 = normalize(SupportSystem.of_points([[(1, 0), (2, 0)], [(0, 0), (0, 1)]]))
    assert s2.supports[0].points == ((0, 0), (1, 0))
    assert shifts2[0] == (1, 0)
    # the lacunary example's first support already contains the origin
    s3, shifts3 = normalize(SupportSystem.of_points([LACUNARY_A1, LACUNARY_A2]))
    assert shifts3 == ((0, 0), (0, 0))
    assert s3.supports[0].points == Support(tuple(LACUNARY_A1)).points


def test_normalize_sparse_keeps_coefficients():
    f = SparseSystem.from_pairs([
        [((1, 0), 2.0), ((2, 0), 3.0)],
        [((0, 0), 1.0), ((0, 1), 5.0)],
    ])
    g, shifts = normalize(f)
    assert shifts[0] == (1, 0)
    assert g.coefficients == f.coefficients
    assert g.system.supports[0].points == ((0, 0), (1, 0))


# int() would truncate both supports onto the unit triangle, of mixed volume 1.
FLOAT_SUPPORTS = [[(0, 0), (1.9, 0), (0, 1)], [(0, 0), (1, 0), (0, 1.7)]]


def test_a_float_exponent_or_entry_raises_instead_of_truncating():
    with pytest.raises(TypeError):
        Support(FLOAT_SUPPORTS[0])
    with pytest.raises(TypeError):
        SupportSystem.of_points(FLOAT_SUPPORTS)
    with pytest.raises(TypeError):
        SparseSystem.from_pairs([[(p, 1.0) for p in pts] for pts in FLOAT_SUPPORTS])
    with pytest.raises(TypeError):
        IntMatrix.from_rows(FLOAT_SUPPORTS[1])
    with pytest.raises(TypeError):
        IntMatrix(tuple(FLOAT_SUPPORTS[1]))


def test_numpy_integer_exponents_build_the_objects_python_integers_build():
    pts = [LACUNARY_A1, LACUNARY_A2]
    S = SupportSystem.of_points(pts)
    S64 = SupportSystem.of_points([np.array(a, dtype=np.int64) for a in pts])
    assert S64 == S
    assert all(type(c) is int for sup in S64.supports for p in sup.points for c in p)
    pairs = [[(p, 1.0 + k) for k, p in enumerate(a)] for a in pts]
    pairs64 = [[(np.array(p, dtype=np.int64), v) for p, v in poly] for poly in pairs]
    assert SparseSystem.from_pairs(pairs64) == SparseSystem.from_pairs(pairs)
    rows = np.array(PAPER_PHI.entries, dtype=np.int64)
    assert IntMatrix.from_rows(rows) == IntMatrix(tuple(map(tuple, rows))) == PAPER_PHI
    assert all(type(e) is int for row in IntMatrix(tuple(map(tuple, rows))).entries for e in row)
    # The lattice code below the entry points takes the Support's Python
    # integers as they are: a numpy int64 there would overflow in Bareiss
    # elimination without a word. The printed example's cover is triangular.
    cover = classify(tri_system()).preimage.system
    for points, kind in [(pts, Lacunary), ([s.points for s in cover.supports], Triangular)]:
        got = classify(SupportSystem.of_points([np.array(a, dtype=np.int64) for a in points]))
        assert type(got) is kind and got == classify(SupportSystem.of_points(points))
        matrices = [got.phi, got.psi] if kind is Lacunary else [got.psi, got.projection]
        assert all(type(e) is int for M in matrices for row in M.entries for e in row)


def test_from_pairs_rejects_a_repeated_point_by_name():
    with pytest.raises(ValueError, match=r"duplicate point \(1, 0\)"):
        SparseSystem.from_pairs([[((0, 0), 1), ((1, 0), 2j), ((1, 0), 3j)],
                                 [((0, 0), 1), ((0, 1), 1)]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, -math.inf)])
def test_sparse_system_rejects_a_coefficient_that_is_not_finite(bad):
    # F = (bad + x^2 + y, 1 + x + 2y^2): with nan, solve_general returned 0 of
    # its 4 solutions without an error.
    with pytest.raises(ValueError, match="finite"):
        SparseSystem.from_pairs([[((0, 0), bad), ((2, 0), 1), ((0, 1), 1)],
                                 [((0, 0), 1), ((1, 0), 1), ((0, 2), 2)]])


def test_normalize_returns_a_normalized_system_itself():
    S = SupportSystem.of_points([LACUNARY_A1, LACUNARY_A2])
    T, shifts = normalize(S)
    assert T is S and shifts == ((0, 0), (0, 0))
    F = SparseSystem(S, tuple(tuple(range(1, len(sup) + 1)) for sup in S.supports))
    assert normalize(F)[0] is F


def test_span_rank():
    assert span_rank(tri_system(), [0, 1]) == 2
    assert span_rank(SupportSystem.of_points([LACUNARY_A1, LACUNARY_A2]), [0, 1]) == 2
    s = SupportSystem.of_points([
        [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
        [(0, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (0, 0, 1)],
    ])
    assert span_rank(s, [0]) == 1


def test_vertices():
    assert vertices(Support(tuple(START_A))).points == tuple(sorted(START_V))
    simplex = Support(((0, 0), (1, 0), (0, 1)))
    assert vertices(simplex) == simplex
    assert vertices(Support(((0,), (1,), (2,)))).points == ((0,), (2,))
    seg = Support(((0, 0), (1, 0), (2, 0)))
    assert vertices(seg).points == ((0, 0), (2, 0))


def test_point_in_hull():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert point_in_hull((1, 1), square)
    assert point_in_hull((0, 0), square)
    assert point_in_hull((1, 0), square)
    assert not point_in_hull((3, 1), square)
    assert not point_in_hull((-1, 0), square)
    assert not point_in_hull((1, 1), [])


def test_preimage_supports_paper_map():
    S = SupportSystem.of_points([LACUNARY_A1, LACUNARY_A2])
    re = preimage_supports(S, PAPER_PHI)
    assert re.system.supports[0].points == tuple(sorted(LACUNARY_B1))
    assert re.system.supports[1].points == tuple(sorted(LACUNARY_B2))
    # forward application of phi is the identity on point sets
    for sup, orig in zip(re.system.supports, S.supports):
        image = {PAPER_PHI.apply(p) for p in sup.points}
        assert image == set(orig.points)


def test_preimage_identity_and_scaling():
    S = SupportSystem.of_points([[(0, 0), (2, 0)], [(0, 0), (0, 2)]])
    re = preimage_supports(S, identity(2))
    assert re.system.supports == S.supports
    re2 = preimage_supports(S, IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert re2.system.supports[0].points == ((0, 0), (1, 0))


def test_preimage_outside_lattice_errors():
    S = SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (0, 2)]])
    with pytest.raises(LatticeMembershipError):
        preimage_supports(S, IntMatrix.from_rows([[2, 0], [0, 2]]))


def test_preimage_solver_matches_solve_integer():
    rng = random.Random(61)
    members = others = 0
    for _ in range(150):
        n = rng.randint(1, 4)
        phi = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if phi.det() == 0:
            continue
        pull = _preimage_solver(phi)
        beta = tuple(rng.randint(-5, 5) for _ in range(phi.cols))
        alpha = phi.apply(beta)
        assert pull(alpha) == solve_integer(phi, alpha) == beta
        nudged = tuple(c + rng.randint(-1, 1) for c in alpha)
        assert pull(nudged) == solve_integer(phi, nudged)
        members += 1
        others += pull(nudged) is None
    assert members > 100 and others > 30


def test_preimage_supports_rejects_a_phi_that_is_not_square():
    # Every point lies in the column lattice of tall: the images of (1, 0),
    # (0, 1) and (1, 1).
    tall = IntMatrix.from_rows([[1, 0], [0, 2], [1, 1]])
    S = SupportSystem.of_points([[(0, 0, 0), (1, 0, 1)], [(0, 0, 0), (0, 2, 1)],
                                 [(0, 0, 0), (1, 2, 2)]])
    with pytest.raises(ValueError, match="square"):
        preimage_supports(S, tall)
    # Square but singular: (1, 0) and (0, 1) are outside its column lattice.
    with pytest.raises(ValueError, match="square and nonsingular"):
        preimage_supports(SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (0, 1)]]),
                          IntMatrix.from_rows([[1, 2], [2, 4]]))


def test_quotient_supports_triangular_example():
    pi, images = quotient_supports(tri_system(), [0, 1])
    # quotient map is +-(c - a - b); image of the third support is {0,2,4}
    img = images.supports[0].points
    vals = sorted(p[0] for p in img)
    assert vals in ([0, 2, 4], [-4, -2, 0])
    # multiset {0,2,4,4,2,2} merges to three points
    assert len(img) == 3
    # projection kills the span of the first two supports
    for p in TRI_A:
        assert pi.apply(p) == (0,)


def test_quotient_supports_coordinate_subspace():
    s = SupportSystem.of_points([
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (2, 1, 0)],
        [(0, 0, 0), (1, 1, 1)],
    ])
    pi, images = quotient_supports(s, [0, 1])
    assert pi.rows == 1
    # support contained in the I-span becomes the single origin point
    pi2, images2 = quotient_supports(
        SupportSystem.of_points([
            [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
            [(0, 0, 0), (2, 1, 0)],
            [(0, 0, 0), (1, 1, 0)],
        ]),
        [0, 1],
    )
    assert images2.supports[0].points == ((0,),)


def test_span_rank_and_quotient_supports_reject_an_index_outside_the_system():
    s = SupportSystem.of_points([
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (2, 1, 0)],
        [(0, 0, 0), (1, 1, 1)],
    ])
    for I, bad in (([0, -2], -2), ([0, 5], 5), ([3], 3)):
        for check in (span_rank, quotient_supports):
            with pytest.raises(ValueError, match=rf"index {bad} is outside 0\.\.2"):
                check(s, I)


def test_quotient_rank_violation():
    with pytest.raises(ValueError):
        quotient_supports(tri_system(), [0, 1, 2][:2] and [0])  # rank(A_1)=2 > 1


def test_vertices_random_consistency():
    rng = random.Random(5)
    for _ in range(25):
        dim = rng.randint(1, 3)
        pts = {tuple(rng.randint(0, 4) for _ in range(dim)) for _ in range(rng.randint(2, 8))}
        sup = Support(tuple(pts))
        v = vertices(sup)
        assert set(v.points) <= set(sup.points)
        assert vertices(v) == v
        for p in sup.points:
            if p not in set(v.points):
                assert point_in_hull(p, [q for q in sup.points if q != p])


def _random_support(rng, n):
    """Random, collinear, dilated or single points in Z^n, or points on a
    random sublattice of rank below n."""
    kind = rng.choice(("random", "collinear", "dilated", "sublattice", "point"))
    def vec(lo=-3, hi=3):
        return tuple(rng.randint(lo, hi) for _ in range(n))
    if kind == "point":
        return [vec()]
    if kind == "collinear":
        base, step = vec(), vec(-2, 2)
        pts = {tuple(b + t * v for b, v in zip(base, step)) for t in rng.sample(range(-4, 5), 3)}
    elif kind == "sublattice":
        gens = [vec(-2, 2) for _ in range(rng.randint(1, max(1, n - 1)))]
        pts = {tuple(sum(rng.randint(-2, 2) * g[j] for g in gens) for j in range(n))
               for _ in range(rng.randint(2, 6))}
    else:
        d = rng.choice((2, 3, 100)) if kind == "dilated" else 1
        pts = {tuple(d * c for c in vec()) for _ in range(rng.randint(2, 7))}
    return sorted(pts)


def test_subset_span_ranks_equal_the_rank_of_every_difference_column():
    # Ranking a subset on its supports' pivot bases equals ranking it on all
    # of its difference columns; each basis is independent and rank-many,
    # with the rank taken independently by a Smith form.
    rng = random.Random(2020)
    for _ in range(60):
        n = rng.randint(1, 5)
        S = SupportSystem.of_points([_random_support(rng, n) for _ in range(n)])
        got = list(subset_span_ranks(S))
        for I, rank in got:
            cols = _difference_columns(S, I)
            assert rank == (IntMatrix.from_columns(cols).rank() if cols else 0)
        assert [I for I, _ in got] == [I for size in range(1, n + 1)
                                       for I in itertools.combinations(range(n), size)]
        for i in range(n):
            cols = _difference_columns(S, [i])
            if not cols:
                continue
            pivots = IntMatrix.from_columns(cols).pivot_columns()
            full = smith_normal_form(IntMatrix.from_columns(cols)).rank
            assert len(pivots) == full == dict(got)[(i,)]
            assert smith_normal_form(IntMatrix.from_columns([cols[c] for c in pivots])).rank == full
