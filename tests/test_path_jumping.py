"""Property test: no path jumping. On small random supports with generic
unit-modulus coefficients, solve_general returns one distinct root per unit
of mixed volume. Needs `hypothesis`."""
import math

import numpy as np
import pytest

from torsolve import SparseSystem, blackbox, mixed_volume, solve_general
from torsolve.errors import CountMismatchError
from torsolve.tracking import distinct

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies


@st.composite
def unit_systems(draw, dims=st.integers(1, 2)):
    """Shaped like the general workload's random supports at n = 1, 2: each
    support holds the origin and up to 3 (n = 1) or 4 (n = 2) more points
    of [0, 3]^n; the coefficients are seeded points on the unit circle."""
    n = draw(dims)
    points = st.sets(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=3 if n == 1 else 4)
    supports = [sorted(draw(points) | {(0,) * n}) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return SparseSystem.from_pairs([[(p, complex(np.exp(2j * math.pi * rng.random()))) for p in sup]
                                    for sup in supports])


# A draw whose vertex start system's black-box leaf (MV 4) has its fourth
# root at |x| ~ 30 and |y| ~ 880. The total-degree homotopy reaches no more
# than 3 roots under any of its gammas; the resultant eigenproblem finds 4.
FAR_ROOT = SparseSystem.from_pairs([
    [((0, 0), -0.6520162635843662 - 0.7582049802141122j),
     ((0, 1), -0.12400357169577353 + 0.9922817715783613j),
     ((1, 1), 0.9670438565151509 + 0.25460985757881444j),
     ((3, 0), 0.9946128276123087 + 0.1036596505350456j)],
    [((0, 0), 0.3871500998384199 - 0.9220167027744679j),
     ((1, 1), 0.8534781134132176 - 0.5211286884490384j),
     ((3, 0), -0.7838140031521431 - 0.6209956589724378j)]])

# The general workload's random[7] (MV 8). With the corrector's mid-path bound
# at 1e-5 two of its paths meet: the first homotopy ends 7/8 with a duplicate
# endpoint, and a second gamma is needed. The bound of 1e-6 keeps them apart.
NEAR_PATHS = SparseSystem.from_pairs([
    [((0, 0), -0.19838125909311416 + 0.9801249287925651j),
     ((1, 3), -0.4175595630472203 - 0.9086495536276978j),
     ((2, 3), 0.9907036649730014 + 0.1360376720216242j)],
    [((0, 0), -0.9519151784758244 + 0.30636170287315506j),
     ((1, 2), -0.66326086785023 - 0.7483882823632126j),
     ((2, 0), -0.30990576570700556 - 0.9507672777191875j)]])


@settings(max_examples=25, deadline=None, derandomize=True)
@given(unit_systems())
def test_solve_general_returns_mixed_volume_distinct_roots(F):
    mv = mixed_volume(F.system)
    hypothesis.assume(mv >= 1)
    try:
        report = solve_general(F)
    except CountMismatchError:
        # Only the solve of the start system raises this; a short homotopy
        # to F is reported in the warnings. A lost start root is not a
        # jumped path to F: one of 400 derandomized draws has a start root
        # whose terms reach 8e8, beyond Newton's absolute 1e-8 acceptance.
        hypothesis.reject()
    assert len(report.solutions) == mv and distinct(report.solutions.points).all()
    assert report.warnings == []  # the first homotopy found every root


def test_the_far_root_draw_is_solved():
    assert len(solve_general(FAR_ROOT).solutions) == mixed_volume(FAR_ROOT.system) == 4


@settings(max_examples=25, deadline=None, derandomize=True)
@given(unit_systems(st.just(2)))
def test_blackbox_returns_mixed_volume_distinct_roots_in_two_variables(F):
    mv = mixed_volume(F.system)
    hypothesis.assume(mv >= 1)
    sols = blackbox(F)
    assert len(sols) == mv and distinct(sols.points).all()


def test_the_near_paths_draw_is_solved_on_the_first_homotopy():
    report = solve_general(NEAR_PATHS)
    assert mixed_volume(NEAR_PATHS.system) == 8
    assert len(report.solutions) == 8 and distinct(report.solutions.points).all()
    assert report.warnings == []  # no duplicate endpoint, no second gamma
