"""Property tests: the mixed volume read off the decomposition tree equals
the inclusion-exclusion over convex hulls, and the classification and the
mixed volume do not move under translations and unimodular maps. Needs
`hypothesis`."""
import random

import pytest
from test_decompose import START_A, _random_unimodular, family_system

from torsolve.decompose import classify
from torsolve.errors import MixedVolumeZeroError
from torsolve.geometry import hull_mixed_volume, mixed_volume
from torsolve.intlinalg import IntMatrix
from torsolve.supports import SupportSystem

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
