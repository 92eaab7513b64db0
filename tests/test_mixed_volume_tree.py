"""Property tests: the mixed volume read off the decomposition tree equals
the inclusion-exclusion over convex hulls, the classification and the
mixed volume do not move under translations and unimodular maps, and a
system triangular by construction solves to its mixed volume as the
per-transfer loop solves it, and solve_general solves such a system as
solve_decomposable does where its supports route it there. Needs
`hypothesis`."""
import random

import numpy as np
import pytest
from systems import START_A
from test_decompose import _random_unimodular, family_system
from test_solver import (
    assert_same_report,
    reference_solve_triangular,
    solve_triangular_alone,
    triangular_node,
)

from torsolve.decompose import classify
from torsolve.errors import CountMismatchError, MixedVolumeZeroError, TorsolveError
from torsolve.geometry import hull_mixed_volume, mixed_volume, mv_is_zero
from torsolve.intlinalg import IntMatrix
from torsolve.solver import solve_decomposable, solve_general
from torsolve.supports import SparseSystem, SupportSystem, normalize
from torsolve.tracking import TrackerSettings

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@st.composite
def structured_systems(draw):
    """Unimodular images of dilated supports with a triangular block.

    The first k supports live in the first k coordinates (k = 0: no block);
    each coordinate is then dilated by 1-3, which makes most draws lacunary.
    """
    n = draw(st.integers(1, 3))
    k = draw(st.integers(0, n - 1))
    dilation = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    sups = []
    for i in range(n):
        dims = k if i < k else n
        pts = draw(st.sets(st.tuples(*[st.integers(0, 2)] * dims), min_size=2, max_size=5))
        sups.append([tuple(d * c for d, c in zip(dilation, p + (0,) * (n - dims))) for p in pts])
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    shears = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    for i, j, q in draw(st.lists(shears, max_size=4)):
        if i != j:
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    U = IntMatrix.from_rows(rows)
    return SupportSystem.of_points([[U.apply(p) for p in sup] for sup in sups])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structured_systems())
def test_mixed_volume_through_the_tree_matches_the_hulls(S):
    assert mixed_volume(S) == hull_mixed_volume(S)


def _shape(S):
    """classify's kind, lacunary index and triangular or zero-MV witness."""
    try:
        cls = classify(S)
    except MixedVolumeZeroError as exc:
        return "zero", None, exc.witness
    return type(cls).__name__, getattr(cls, "index", None), getattr(cls, "witness", None)


# The drawn systems are mostly lacunary or of zero MV; the two examples add a
# triangular and an indecomposable one.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(structured_systems(), st.randoms(use_true_random=False))
@hypothesis.example(family_system(), random.Random(0))
@hypothesis.example(SupportSystem.of_points([START_A, START_A]), random.Random(1))
def test_classify_and_mixed_volume_survive_translations_and_unimodular_maps(S, rng):
    U = _random_unimodular(rng, S.n) if S.n > 1 else IntMatrix.from_rows([[-1]])
    shifts = [[rng.randint(-3, 3) for _ in range(S.n)] for _ in range(S.n)]
    moved = SupportSystem.of_points([[tuple(map(sum, zip(U.apply(p), b))) for p in sup.points]
                                     for sup, b in zip(S.supports, shifts)])
    assert _shape(moved) == _shape(S)
    assert mixed_volume(moved) == mixed_volume(S)


@st.composite
def triangular_systems(draw):
    """Generic systems triangular by construction, n <= 4: a base block of k
    supports in the first k coordinates and a fiber block of n - k supports
    in all n, glued by a random unimodular map, with unit coefficients."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    sups = []
    for i in range(n):
        dims = k if i < k else n
        pts = draw(st.sets(st.tuples(*[st.integers(0, 2)] * dims), min_size=2, max_size=4))
        sups.append([p + (0,) * (n - dims) for p in pts])
    U = _random_unimodular(draw(st.randoms(use_true_random=False)), n)
    S = SupportSystem.of_points([[U.apply(p) for p in sup] for sup in sups])
    hypothesis.assume(not mv_is_zero(S)[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SparseSystem(S, [np.exp(2j * np.pi * rng.random(len(sup))) for sup in S.supports])


def _rows(tree):
    """The tree's rows without gamma_retries, and without the fibers solved
    directly, which only a tracked transfer can add."""
    nodes = [tree, *tree.children[:2]] if tree.kind == "triangular" else [tree]
    return [(nd.kind, nd.mv, nd.paths, nd.solutions, nd.transfers)
            for top in nodes for nd in (top.walk() if top is not tree else [top])]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(triangular_systems())
def test_triangular_systems_solve_to_the_mixed_volume_as_the_transfer_loop(F):
    # One draw of the 25 (n = 4, MV 12) loses a root of a fiber with
    # coordinates near 4e6 to Newton's absolute residual (ROADMAP item 1)
    # at the parent as here: the family solve must then fail as the
    # per-transfer loop fails, with the same message and partial roots.
    node, cls = triangular_node(F)
    runs = []
    for solve in (reference_solve_triangular, solve_triangular_alone):
        try:
            runs.append(solve(node, cls, np.random.SeedSequence(0), TrackerSettings(), ""))
        except CountMismatchError as exc:
            runs.append((exc.partial, str(exc)))
    (ref, ref_tree), (out, tree) = runs
    if isinstance(ref_tree, str):
        assert tree == ref_tree
    else:
        assert _rows(tree) == _rows(ref_tree)
        assert len(solve_decomposable(F, seed=0).solutions) == hull_mixed_volume(F.system)
    # Tracked transfers and the family both order a fiber's roots in fiber
    # coordinates, so the provenance is equal label for label.
    assert out.provenance == ref.provenance
    assert len(out) == len(ref)
    for p, q in zip(out.points, ref.points):
        assert np.max(np.abs(p - q)) <= 1e-8 * max(1.0, float(np.max(np.abs(q))))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(triangular_systems())
def test_triangular_systems_routed_by_solve_general_solve_as_solve_decomposable(F):
    # Where the supports route F to solve_decomposable, solve_general returns
    # its report bit for bit; where they do not, or that solve raises, it
    # tracks from the vertex start.
    from torsolve.solver import _decomposes

    rep = solve_general(F, seed=0)
    try:
        ref = solve_decomposable(F, seed=0)
    except TorsolveError:
        ref = None
    if ref is not None and _decomposes(normalize(F.system)[0]):
        assert_same_report(rep, ref)
    else:
        assert rep.tree.kind == "homotopy"
