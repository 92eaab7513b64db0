import itertools
import math
import random

import pytest

import torsolve.decompose
from torsolve.decompose import (
    Indecomposable,
    Lacunary,
    Triangular,
    _triangular_data,
    classify,
    predict_tree,
)
from torsolve.errors import MixedVolumeZeroError
from torsolve.geometry import hull_mixed_volume, mixed_volume
from torsolve.intlinalg import IntMatrix, smith_normal_form, unimodular_inverse
from torsolve.supports import Support, SupportSystem, normalize, preimage_supports, subset_span_ranks

from oracles import identity, quotient_supports, solve_integer, span_rank
from systems import (LACUNARY_A1, LACUNARY_A2, LACUNARY_B1, LACUNARY_B2, PAPER_PHI, START_A,
                     TRI_A, TRI_A3)

BENCH_A1 = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
BENCH_A2 = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
BENCH_B1 = [(0, 0), (2, 0), (0, 1), (2, 3)]
BENCH_B2 = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]
CUBE5 = sorted(itertools.product((0, 1), repeat=5))
E5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
SHIFTED = [tuple(a - b for a, b in zip(E5[i], E5[i + 1])) for i in range(4)]


def lacunary_system():
    return SupportSystem.of_points([LACUNARY_A1, LACUNARY_A2])


def embed5(pts, u, v):
    return [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in pts]


def family_system(vectors=E5[:4]):
    i1, i2, j1, j2 = vectors
    return SupportSystem.of_points([
        embed5(BENCH_A1, i1, i2),
        embed5(BENCH_A2, i1, i2),
        embed5(BENCH_B1, j1, j2),
        embed5(BENCH_B2, j1, j2),
        list(CUBE5),
    ])


def test_classify_lacunary_example():
    cls = classify(lacunary_system())
    assert isinstance(cls, Lacunary)
    assert cls.index == 12
    assert sorted(cls.diagonal) == [1, 12]
    # the classifier's map spans the same lattice as the paper's map:
    # each is integral in the other's coordinates, so the preimage supports
    # agree with the printed ones up to a unimodular change
    for col in cls.phi.columns():
        assert solve_integer(PAPER_PHI, col) is not None
    for col in PAPER_PHI.columns():
        assert solve_integer(cls.phi, col) is not None
    V = IntMatrix.from_columns([solve_integer(PAPER_PHI, c) for c in cls.phi.columns()])
    assert abs(V.det()) == 1
    mapped = [
        sorted(V.apply(p) for p in sup.points)
        for sup in cls.preimage.system.supports
    ]
    assert mapped[0] == sorted(LACUNARY_B1)
    assert mapped[1] == sorted(LACUNARY_B2)


def test_lacunary_preimage_has_full_span():
    cls = classify(lacunary_system())
    cols = [p for sup in cls.preimage.system.supports for p in sup.points]
    assert smith_normal_form(IntMatrix.from_columns(cols)).invariant_factors == (1, 1)


def test_classify_cover_indecomposable():
    cls = classify(SupportSystem.of_points([LACUNARY_B1, LACUNARY_B2]))
    assert isinstance(cls, Indecomposable)


def test_classify_three_var_example_is_lacunary_first():
    # every support point satisfies z - x - y = 0 mod 2, so the full lattice
    # has index 2 and the lacunary branch fires before the triangular one
    cls = classify(SupportSystem.of_points([TRI_A, TRI_A, TRI_A3]))
    assert isinstance(cls, Lacunary)
    assert cls.index == 2


def test_classify_family_triangular():
    cls = classify(family_system())
    assert isinstance(cls, Triangular)
    assert cls.witness == (0, 1)
    assert cls.k == 2
    assert mixed_volume(cls.base) == 5


def test_classify_univariate_lacunary():
    cls = classify(SupportSystem.of_points([[(0,), (2,), (4,)]]))
    assert isinstance(cls, Lacunary)
    assert cls.index == 2
    assert cls.preimage.system.supports[0].points == ((0,), (1,), (2,))


def test_classify_mv_zero_errors():
    with pytest.raises(MixedVolumeZeroError) as err:
        classify(SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (2, 0)]]))
    assert err.value.witness == (0, 1)


def test_classify_invariant_under_translation_and_permutation():
    S = family_system()
    cls = classify(S)
    shifted = SupportSystem.of_points([
        [tuple(c + 3 for c in p) for p in sup.points] for sup in S.supports
    ])
    cls2 = classify(shifted)
    assert type(cls) is type(cls2) and cls2.witness == cls.witness
    perm = [4, 3, 2, 1, 0]
    # permuting the variables (coordinates) leaves the structure intact
    permuted = SupportSystem.of_points([
        [tuple(p[q] for q in perm) for p in sup.points] for sup in S.supports
    ])
    cls3 = classify(permuted)
    assert isinstance(cls3, Triangular) and cls3.witness == (0, 1)


def test_is_strictly_triangular():
    S = SupportSystem.of_points([TRI_A, TRI_A, TRI_A3])
    assert 1 < mixed_volume(_triangular_data(S, (0, 1)).base) < mixed_volume(S)
    # witness subsystem with a single solution is not strict
    T = SupportSystem.of_points([
        [(0, 0), (1, 0)],
        [(0, 0), (0, 1), (0, 2)],
    ])
    assert mixed_volume(_triangular_data(T, (0,)).base) == 1


def test_product_formula_on_witness():
    S, _ = normalize(SupportSystem.of_points([TRI_A, TRI_A, TRI_A3]))
    _, images = quotient_supports(S, (0, 1))
    mv_quotient = hull_mixed_volume(images)
    from torsolve.decompose import _triangular_data

    base = _triangular_data(S, (0, 1)).base
    assert hull_mixed_volume(base) * mv_quotient == hull_mixed_volume(S) == 32


def test_product_formula_random_triangular():
    rng = random.Random(2024)
    checked = 0
    while checked < 12:
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        U = _random_unimodular(rng, n)
        sups = []
        for i in range(n):
            pts = set()
            limit = min(5, 4 ** (k if i < k else n))
            count = rng.randint(2, limit)
            while len(pts) < count:
                if i < k:
                    p = tuple(rng.randint(0, 3) if c < k else 0 for c in range(n))
                else:
                    p = tuple(rng.randint(0, 3) for c in range(n))
                pts.add(p)
            sups.append([U.apply(p) for p in pts])
        S = SupportSystem.of_points(sups)
        try:
            mv = hull_mixed_volume(S)
            if mv == 0:
                continue
            S, _ = normalize(S)
            witness = (tuple(range(k)) if
                       all(_rank_ok(S, tuple(range(k)), k) for _ in (0,)) else None)
            if witness is None:
                continue
            from torsolve.decompose import _triangular_data

            data = _triangular_data(S, witness)
            _, images = quotient_supports(S, witness)
            assert hull_mixed_volume(data.base) * hull_mixed_volume(images) == mv
            checked += 1
        except ValueError:
            continue
    assert checked == 12


def _rank_ok(S, I, k):
    return span_rank(S, I) == k


def _random_unimodular(rng, n):
    U = identity(n)
    rows = [list(r) for r in U.entries]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def test_predict_tree_lacunary():
    tree = predict_tree(lacunary_system())
    assert tree.kind == "lacunary"
    assert tree.index == 12
    assert tree.children[0].mv == 10
    assert tree.mv == 120


def test_predict_tree_family():
    tree = predict_tree(family_system())
    assert tree.kind == "triangular"
    assert tree.mv == 50
    base, fiber = tree.children
    assert base.kind == "blackbox" and base.mv == 5
    assert fiber.kind == "triangular" and fiber.mv == 10
    inner_base, inner_fiber = fiber.children
    assert inner_base.kind == "blackbox" and inner_base.mv == 10
    assert inner_fiber.kind == "univariate" and inner_fiber.mv == 1


def test_predict_tree_three_var():
    tree = predict_tree(SupportSystem.of_points([TRI_A, TRI_A, TRI_A3]))
    assert tree.kind == "lacunary" and tree.index == 2 and tree.mv == 32
    child = tree.children[0]
    assert child.kind == "triangular"
    assert child.children[0].mv == 8


def test_family_mixed_volumes_take_hulls_only_at_the_leaves(monkeypatch):
    import torsolve.decompose as decompose

    leaf_dims = []

    def recording_hull(S):
        leaf_dims.append(S.n)
        return hull_mixed_volume(S)

    monkeypatch.setattr(decompose, "hull_mixed_volume", recording_hull)
    assert mixed_volume(family_system()) == 50
    assert mixed_volume(family_system(SHIFTED)) == 250
    assert leaf_dims and max(leaf_dims) <= 2


def _tree_fields(tree):
    return (tree.kind, tree.mv, tree.index, tree.diagonal, tree.witness,
            tuple(_tree_fields(c) for c in tree.children))


def _reference_images(S, I):
    """The supports outside I projected by a Smith form of the difference
    columns of the supports in I, taken apart from _triangular_data's."""
    form = smith_normal_form(IntMatrix.from_columns(
        [tuple(a - b for a, b in zip(p, S.supports[i].points[0]))
         for i in I for p in S.supports[i].points[1:]]))
    pi = IntMatrix.from_rows(unimodular_inverse(form.P).entries[len(I):])
    return SupportSystem(tuple(Support(tuple({pi.apply(p) for p in sup.points}))
                               for j, sup in enumerate(S.supports) if j not in I))


def _reference_tree(S):
    """predict_tree with its fiber images from their own Smith form."""
    S, _ = normalize(S)
    cls = classify(S)
    if isinstance(cls, Lacunary):
        child = _reference_tree(cls.preimage.system)
        return ("lacunary", cls.index * child[1], cls.index, cls.diagonal, None, (child,))
    if isinstance(cls, Triangular):
        base = _reference_tree(cls.base)
        fiber = _reference_tree(_reference_images(S, cls.witness))
        return ("triangular", base[1] * fiber[1], None, None, cls.witness, (base, fiber))
    return ("univariate" if S.n == 1 else "blackbox", hull_mixed_volume(S), None, None, None, ())


def test_predict_tree_fibers_match_quotient_supports():
    systems = [
        lacunary_system(),
        SupportSystem.of_points([LACUNARY_B1, LACUNARY_B2]),
        SupportSystem.of_points([START_A, START_A]),
        SupportSystem.of_points([TRI_A, TRI_A, TRI_A3]),
        family_system(),
        family_system(SHIFTED),
    ]
    for S in systems:
        assert _tree_fields(predict_tree(S)) == _reference_tree(S)


def _classify_by_smith_form(S):
    """classify with its full-lattice check always taken by a Smith form."""
    S, _ = normalize(S)
    n = S.n
    ranks = list(subset_span_ranks(S))
    for I, rank in ranks:
        if rank < len(I):
            raise MixedVolumeZeroError(I)
    form = smith_normal_form(IntMatrix.from_columns([p for sup in S.supports for p in sup.points]))
    d = form.invariant_factors
    if d[-1] > 1:
        phi = form.P @ IntMatrix.from_rows([[d[i] if i == j else 0 for j in range(n)]
                                            for i in range(n)])
        return Lacunary(phi=phi, psi=unimodular_inverse(form.P), diagonal=d,
                        index=math.prod(d), preimage=preimage_supports(S, phi))
    return next((_triangular_data(S, I) for I, rank in ranks[:-1] if rank == len(I)),
                Indecomposable())


def _random_system(rng):
    """n <= 4 supports in Z^n, the first k of them in the span of the first k
    unit vectors, mapped by a random unimodular matrix times a random
    dilation of each coordinate."""
    n = rng.randint(1, 4)
    k = rng.randint(0, n - 1)
    U = _random_unimodular(rng, n) if n > 1 else identity(1)
    scale = (1, 2, 3) if rng.random() < 0.5 else (1,)
    dilate = IntMatrix.from_rows([[rng.choice(scale) if i == j else 0 for j in range(n)]
                                  for i in range(n)])
    M = U @ dilate
    return SupportSystem.of_points([
        {M.apply([rng.randint(0, 3) if i >= k or c < k else 0 for c in range(n)])
         for _ in range(rng.randint(2, 5))}
        for i in range(n)])


def test_classify_shortcut_returns_the_smith_form_result(monkeypatch):
    # Wherever the full-lattice check skips its Smith form, the points
    # generate all of Z^n, and the result is that of the Smith-form path.
    rng = random.Random(20)
    taken = []
    smith = torsolve.decompose.smith_normal_form
    monkeypatch.setattr(torsolve.decompose, "smith_normal_form",
                        lambda A: taken.append(A) or smith(A))
    systems = [family_system(), family_system(SHIFTED), lacunary_system(),
               SupportSystem.of_points([TRI_A, TRI_A, TRI_A3])]
    systems += [SupportSystem.of_points([[tuple(7 * c for c in p) for p in sup.points]
                                         for sup in S.supports]) for S in systems[:2]]
    systems += [_random_system(rng) for _ in range(300)]
    fired = skipped = 0
    for S in systems:
        try:
            want = _classify_by_smith_form(S)
        except MixedVolumeZeroError as exc:
            with pytest.raises(MixedVolumeZeroError) as got:
                classify(S)
            assert got.value.args == exc.args
            continue
        taken.clear()
        assert classify(S) == want
        points = IntMatrix.from_columns([p for sup in normalize(S)[0].supports for p in sup.points])
        if points in taken:
            skipped += 1
        else:
            fired += 1
            assert smith_normal_form(points).invariant_factors == (1,) * S.n
    assert fired >= 40 and skipped >= 100
