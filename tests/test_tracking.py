import collections
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from torsolve.errors import NoConvergenceError, SingularJacobianError
from torsolve.supports import SparseSystem
from torsolve.torus import diagonal_fiber
from torsolve.tracking import (
    _MAX_PATH_STEPS,
    _NEWTON_ITERS,
    _PATH_TOL,
    _STEP_CEILING,
    _STEP_FLOOR,
    _STEP_START,
    _STEP_TOL_PREDICT,
    Homotopy,
    PathFailure,
    SolutionSet,
    TrackerSettings,
    _correct,
    _newton,
    _predict,
    _solution_order,
    _track,
    distinct,
    track_all,
)

from oracles import relative_distance


def univariate(coeff_by_exp):
    return SparseSystem.from_pairs([[((e,), c) for e, c in coeff_by_exp.items()]])


def test_settings_validation():
    assert [f.name for f in dataclasses.fields(TrackerSettings)] == ["tolerance"]
    assert TrackerSettings().tolerance == 1e-8
    assert TrackerSettings(1e-6).tolerance == 1e-6
    for bad in (math.nan, math.inf, 0.0, -1e-8):
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            TrackerSettings(bad)


def test_tolerance_sets_the_corrector_bound_and_the_success_residual():
    F = univariate({0: -2.0, 2: 1.0})  # x^2 - 2
    H = as_homotopy(F)
    root = math.sqrt(2.0)
    one = np.zeros(1, dtype=int)

    # Corrector: residual 2.8e-6 against term scale 4 is within 1e-3 relative,
    # so the loose bound takes no step; the default one refines to the root.
    # Either way it returns J^-1 dH/dt at the point it accepts.
    x = np.array([[root + 1e-6]], dtype=complex)
    runs = {}
    for tol in (1e-3, 1e-8):
        at, corrected, V = _correct(H, x.copy(), np.ones(1), one, TrackerSettings(tol))
        assert at.tolist() == [0]
        _, jac, dt, _ = H.state(corrected, np.ones(1), one)
        assert np.array_equal(V, np.linalg.solve(jac, dt[:, :, None])[:, :, 0])
        runs[tol] = corrected
    assert np.array_equal(runs[1e-3], x)
    assert abs(runs[1e-8][0, 0] - root) < 1e-12

    # Newton: a start with residual 2.8e-7 is within 0.01 * 1e-3 and comes
    # back untouched; at the default it is refined.
    x0 = np.array([root + 1e-7])
    (point,), (res,), (error,) = newton_one(F, x0, TrackerSettings(1e-3))
    assert error is None and np.array_equal(point, x0) and 1e-7 < res < 1e-5
    (point,), (res,), (error,) = newton_one(F, x0)
    assert error is None and abs(point[0] - root) < 1e-14 and res <= 1e-8


def test_corrector_holds_mid_path_points_to_the_path_bound_and_t_1_to_the_tolerance():
    # x^2 - 2 as both start and target, so H(., t) is x^2 - 2 at every t. At
    # root + 1e-7 the residual 2.8e-7 against term scale 4 is 7e-8 relative:
    # above the tolerance, 1e-8, and below _PATH_TOL, 1e-6.
    F = univariate({0: -2.0, 2: 1.0})
    H = as_homotopy(F)
    root = math.sqrt(2.0)
    x = np.array([[root + 1e-7]], dtype=complex)
    values, jac, dt, scale = H.state(x, np.ones(1), np.zeros(1, dtype=int))
    assert TrackerSettings().tolerance < abs(values[0, 0]) / scale[0] < _PATH_TOL
    t, rows = np.array([0.5, 1.0]), np.zeros(2, dtype=int)
    with np.errstate(all="ignore"):
        at, X, V = _correct(H, np.vstack([x, x]), t, rows, TrackerSettings())
    assert at.tolist() == [0, 1]
    # t < 1: accepted as it stands, no Newton step; V is J^-1 dH/dt there.
    assert np.array_equal(X[0], x[0])
    assert np.array_equal(V[0], np.linalg.solve(jac, dt[:, :, None])[0, :, 0])
    # t == 1: stepped to the root, where the endgame Newton leaves it.
    assert X[1, 0] != x[0, 0] and abs(X[1, 0] - root) < 1e-12
    (point,), (res,), (error,) = _newton(H, X[1:], rows[:1], TrackerSettings())
    assert error is None and np.array_equal(point, X[1]) and res <= 1e-8


def test_constant_path():
    F = univariate({0: -1.0, 2: 1.0})  # x^2 - 1
    H = Homotopy.straight_line(F, F, gamma=1.0)
    out = _track(H, [np.array([1.0 + 0j])], TrackerSettings())[0][0]
    assert not isinstance(out, PathFailure)
    assert abs(out[0] - 1.0) < 1e-10


def test_univariate_continuation():
    G = univariate({0: -1.0, 2: 1.0})  # x^2 - 1
    F = univariate({0: -4.0, 2: 1.0})  # x^2 - 4
    gamma = np.exp(0.77j)
    H = Homotopy.straight_line(G, F, gamma=gamma)
    out = _track(H, [np.array([1.0 + 0j])], TrackerSettings())[0][0]
    assert not isinstance(out, PathFailure)
    assert abs(out[0] - 2.0) < 1e-9
    out2 = _track(H, [np.array([-1.0 + 0j])], TrackerSettings())[0][0]
    assert abs(out2[0] + 2.0) < 1e-9


def test_track_all_dedup_and_report():
    G = univariate({0: -1.0, 2: 1.0})
    F = univariate({0: -4.0, 2: 1.0})
    H = Homotopy.straight_line(G, F, gamma=np.exp(0.3j))
    starts = [np.array([1.0 + 0j]), np.array([-1.0 + 0j]), np.array([1.0 + 0j])]
    sols, failures = track_all(H, starts)
    assert len(sols) == 2
    assert len(failures) == 1 and failures[0][1].reason == "duplicate-endpoint"
    roots = sorted(round(p[0].real) for p in sols.points)
    assert roots == [-2, 2]
    assert all(r <= 1e-8 for r in sols.residuals)


def test_track_all_empty():
    F = univariate({0: -1.0, 2: 1.0})
    H = Homotopy.straight_line(F, F)
    sols, failures = track_all(H, [])
    assert len(sols) == 0 and failures == []


def test_newton_refine_exact_root():
    F = univariate({0: -1.0, 2: 1.0})
    (x,), (res,), (error,) = newton_one(F, np.array([1.0 + 0j]))
    assert error is None and abs(x[0] - 1.0) < 1e-14
    assert res < 1e-12


def test_newton_refine_sqrt2():
    F = univariate({0: -2.0, 2: 1.0})
    (x,), (res,), (error,) = newton_one(F, np.array([1.4 + 0j]))
    assert error is None and abs(x[0] - np.sqrt(2)) < 1e-12
    assert res <= 1e-8


def test_newton_refine_double_root_fails():
    F = univariate({2: 1.0})  # x^2: double root at the origin, off the torus
    (error,) = newton_one(F, np.array([0.1 + 0j]))[2]
    assert isinstance(error, (NoConvergenceError, SingularJacobianError))


def test_newton_refine_multivariate():
    # x^2 y - 1 = 0, y - x = 0 has roots with x^3 = 1
    F = SparseSystem.from_pairs([
        [((2, 1), 1.0), ((0, 0), -1.0)],
        [((0, 1), 1.0), ((1, 0), -1.0)],
    ])
    (x,), (res,), (error,) = newton_one(F, np.array([0.9 + 0.1j, 1.1 - 0.1j]))
    assert error is None and abs(x[0] ** 3 - 1.0) < 1e-10
    assert res <= 1e-8


def test_homotopy_alignment_embeds_start():
    # start supported on a subset of the target support
    G = univariate({0: 1.0, 3: 2.0})
    F = univariate({0: 0.5, 1: 1.5, 3: -2.0})
    H = Homotopy.straight_line(G, F, gamma=1.0)
    assert H.E.shape == (3, 1)  # union support {0, 1, 3}
    x = np.array([[1.3 - 0.2j]])
    g_direct = 1.0 + 2.0 * x[0, 0] ** 3
    assert abs(H.state(x, np.array([0.0]), np.array([0]))[0][0, 0] - g_direct) < 1e-12
    f_direct = 0.5 + 1.5 * x[0, 0] - 2.0 * x[0, 0] ** 3
    assert abs(H.state(x, np.array([1.0]), np.array([0]))[0][0, 0] - f_direct) < 1e-12


def test_bkk_count_small_system():
    # random generic 2x2 system tracked from a total-degree start hits MV
    from torsolve.geometry import mixed_volume
    from torsolve.solver import blackbox

    F = SparseSystem.from_pairs([
        [((0, 0), 0.3 + 1.1j), ((1, 0), -0.7 + 0.2j), ((0, 1), 1.0 - 0.4j), ((2, 1), 0.9 + 0.5j)],
        [((0, 0), -1.2 + 0.3j), ((1, 1), 0.8 - 0.9j), ((2, 0), 0.4 + 0.4j)],
    ])
    mv = mixed_volume(F.system)
    sols = blackbox(F, seed=5)
    assert len(sols) == mv
    assert all(r <= 1e-8 for r in sols.residuals)


def test_relative_distance():
    a = np.array([1.0 + 0j, 2.0])
    b = np.array([1.0 + 1e-9j, 2.0])
    assert relative_distance(a, b) < 1e-8
    c = np.array([100.0, 200.0])
    d = np.array([100.0, 201.0])
    assert relative_distance(c, d) == pytest.approx(1.0 / 201.0)


def test_solution_set_sorting():
    # By row first, then by the coordinates.
    X = np.array([[2.0 + 0j], [1.0 + 0j], [0.0 + 0j]])
    assert _solution_order(X[:2], np.zeros(2, dtype=int)).tolist() == [1, 0]
    assert _solution_order(X, np.array([1, 0, 0])).tolist() == [2, 1, 0]
    assert len(SolutionSet()) == 0


def test_solution_sets_compare_by_identity_without_raising():
    # A generated __eq__ would compare the point arrays as tuple elements and
    # raise for more than one point.
    def two_points():
        return SolutionSet(np.array([[1.0 + 0j], [2.0 + 0j]]), np.zeros(2),
                           np.arange(2)[:, None])
    a, b = two_points(), two_points()
    assert (a == b) is False and (a != b) is True and (a == a) is True


def reference_sort_key(point) -> tuple:
    """The per-point key _solution_order vectorizes."""
    return tuple(v for z in point for v in (round(z.real, 9), round(z.imag, 9)))


def reference_is_new(kept, x) -> bool:
    """The per-point test the pairwise distinct() replaced."""
    scale = np.maximum(1.0, np.maximum(np.abs(kept).max(axis=1), np.abs(x).max()))
    return not np.any(np.abs(kept - x).max(axis=1) / scale < 1e-6)


def test_sort_and_distinct_match_the_per_point_references():
    rng = np.random.default_rng(23)
    base = [rng.integers(-3, 4, 3) * 1e-9 * rng.integers(1, 10**6) + 1j * rng.integers(-2, 3, 3)
            for _ in range(20)]
    points = []
    for p in base:
        points.append(p)
        scale = max(1.0, float(np.max(np.abs(p))))
        tie = p.copy()
        tie[0] += 1e-12  # rounds like p in its first coordinate, then differs
        tie[1:] = rng.integers(-2, 3, 2) + 0.5j
        points += [tie, p.copy()]  # a rounding tie, and an exact repeat
        # A chain: the second point is close to p, the third only to the second.
        for rel in (0.6e-6, 1.2e-6):
            points.append(p + rel * scale)
    order = rng.permutation(len(points))
    points = [points[i] for i in order]

    order = _solution_order(np.array(points), np.zeros(len(points), dtype=int))
    assert order.tolist() == sorted(range(len(points)), key=lambda i: reference_sort_key(points[i]))
    assert len({reference_sort_key(p) for p in points}) < len(points)  # ties occur

    expected, kept = [], np.empty((0, 3), dtype=complex)
    for p in points:
        expected.append(reference_is_new(kept, p))
        if expected[-1]:
            kept = np.vstack([kept, p])
    assert distinct(points).tolist() == expected
    assert 20 < sum(expected) < len(points) - 20


def assert_batch_matches_single_paths(H, starts):
    """track_all gives every start the outcome that _track on it alone, and
    the per-path reference loop below, give it."""
    sols, failures = track_all(H, starts)
    batched = dict(zip(sols.origins[:, 0].tolist(), sols.points))
    batched.update(failures)
    assert sorted(batched) == list(range(len(starts)))
    reasons = []
    for i, start in enumerate(starts):
        together = batched[i]
        if isinstance(together, PathFailure) and together.reason == "duplicate-endpoint":
            together = together.point
        for alone in (_track(H, [start], TrackerSettings())[0][0], reference_track_path(H, start)):
            if isinstance(alone, PathFailure):
                assert isinstance(together, PathFailure) and together.reason == alone.reason
                assert together.t == pytest.approx(alone.t, abs=1e-12)
            else:
                assert not isinstance(together, PathFailure)
                assert np.max(np.abs(together - alone)) <= 1e-10
        reasons.append(together.reason if isinstance(together, PathFailure) else "ok")
    return reasons


def mixed_batches():
    """(H, starts) of two mixed batches: total degree with excess and
    duplicate paths, and a batch with a singular and a diverging path."""
    # 8 total-degree paths for a system of mixed volume 3: some excess paths
    # fail, the rest end at the 3 roots, some of them more than once.
    F = SparseSystem.from_pairs([
        [((0, 0), 0.3 + 1.1j), ((1, 0), -0.7 + 0.2j), ((2, 2), 0.9 + 0.5j)],
        [((0, 0), -1.2 + 0.3j), ((1, 1), 0.8 - 0.9j), ((0, 1), 0.4 + 0.4j)],
    ])
    b = [np.exp(0.4j), np.exp(2.1j)]
    G = SparseSystem.from_pairs([[((0, 0), -b[0]), ((4, 0), 1.0)], [((0, 0), -b[1]), ((0, 2), 1.0)]])
    yield Homotopy.straight_line(G, F, gamma=np.exp(1.3j)), diagonal_fiber([4, 2], b)
    # x^3 - 3x - 1 has a singular Jacobian at x = 1 (not a root), and the
    # target 1e4 x^2 - 4e4 has lost one root, so one path runs to infinity.
    G = univariate({0: -1.0, 1: -3.0, 3: 1.0})
    F = univariate({0: -4e4, 2: 1e4})
    starts = [np.array([r + 0j]) for r in np.roots([1, 0, -3, -1])] + [np.array([1.0 + 0j])]
    yield Homotopy.straight_line(G, F, gamma=np.exp(0.3j)), starts


def test_track_all_equals_track_path_on_total_degree_homotopy():
    H, starts = list(mixed_batches())[0]
    reasons = assert_batch_matches_single_paths(H, starts)
    assert len(reasons) == 8 and 3 <= reasons.count("ok") < 8
    assert len(track_all(H, starts)[0]) == 3


def test_mixed_batch_singular_and_diverging_paths():
    H, starts = list(mixed_batches())[1]
    reasons = assert_batch_matches_single_paths(H, starts)
    assert sorted(reasons) == ["divergence", "ok", "ok", "step-underflow"]


def clipped_step_batch():
    """(H, [start]) of one fiber-transfer path of the decomposable workload
    (seed 1, round 4, shifted[0]) whose step to t = 1, clipped to 1 - t, is
    rejected: halving the nominal step alone would leave it at 1 - t, so
    the same predictor and corrector points would be evaluated again."""
    G = univariate(dict(enumerate([
        -0.8934621722067216 + 0.4491384495182375j, 27.538743767608512 - 33.68947456948835j,
        -724.7168830293901 + 699.980215562779j, 5442.063585962351 + 1079.5576695462462j,
        3894.9371160798364 - 9108.215020049502j, -2772.9254018430074 - 4828.319927446122j])))
    F = univariate(dict(enumerate([
        -0.8934621722067216 + 0.4491384495182375j, 0.17885308231453145 - 0.4795465255817188j,
        -0.13362750854817762 - 0.748321958926581j, -0.11589838786281043 + 0.27703735718126904j,
        0.1266458996153148 - 0.027579852836057756j, 0.01133456661528184 - 0.0023528079691897867j])))
    H = Homotopy.straight_line(G, F, gamma=0.30553527765730326 + 0.952180757055547j)
    return H, [np.array([-1.118861249467494 - 0.6305687025851783j])]


@pytest.mark.parametrize("batch", [0, 1, 2])
def test_track_all_evaluates_no_point_twice(monkeypatch, batch):
    # The predictor takes the corrector's evaluation at the point it
    # accepted, so no point at t < 1 is evaluated twice. A point at t = 1 is
    # evaluated at most twice: by its corrector and by the endgame Newton's
    # first iteration. A rejected step shrinks even where 1 - t clipped it
    # (batch 2).
    H, starts = [*mixed_batches(), clipped_step_batch()][batch]
    seen = []
    state = Homotopy.state

    def recording(self, X, t, rows, *coefficients):
        seen.extend((int(r), float(s), x.tobytes()) for r, s, x in zip(rows, t, X))
        return state(self, X, t, rows, *coefficients)

    monkeypatch.setattr(Homotopy, "state", recording)
    track_all(H, starts)
    monkeypatch.undo()
    mid = [s for s in seen if s[1] < 1.0]
    assert len(seen) > 10 * len(starts) and len(set(mid)) == len(mid)
    assert max(collections.Counter(s for s in seen if s[1] == 1.0).values()) <= 2
    assert_batch_matches_single_paths(H, starts)


def test_distinct_matches_pairwise_greedy_loop():
    rng = np.random.default_rng(4)
    base = [rng.normal(size=3) * 10.0 ** rng.integers(-2, 4) + 1j * rng.normal(size=3)
            for _ in range(12)]
    points = []
    for p in base:
        points.append(p)
        scale = max(1.0, float(np.max(np.abs(p))))
        for rel in (0.3e-6, 0.9e-6, 3e-6):
            points.append(p + rel * scale * np.exp(2j * np.pi * rng.random(3)) / np.sqrt(2))
    rng.shuffle(points)
    expected, kept = [], []
    for p in points:
        expected.append(not any(relative_distance(p, q) < 1e-6 for q in kept))
        if expected[-1]:
            kept.append(p)
    assert distinct(points).tolist() == expected
    assert 12 < sum(expected) < len(points)
    assert distinct([]).tolist() == []


def pairwise_distinct(points):
    """distinct() before it sorted: every pair's relative gap, one
    coordinate at a time, then the same greedy pass."""
    X = np.asarray(points, dtype=complex)
    size = np.abs(X).max(axis=1)
    gap = np.zeros((len(X), len(X)))
    for j in range(X.shape[1]):
        np.maximum(gap, np.abs(X[:, j, None] - X[None, :, j]), out=gap)
    close = gap / np.maximum(1.0, np.maximum(size[:, None], size)) < 1e-6
    close[np.arange(len(X))[:, None] <= np.arange(len(X))] = False
    keep = ~close.any(axis=1)
    for i in np.flatnonzero(~keep):
        keep[i] = not close[i, keep].any()
    return keep


def planted_near_duplicates(rng, n, clusters=40):
    """Clusters of near-duplicates in n variables at moduli from 1e-3 to 1e4,
    8 points each, shuffled: copies within and just beyond 1e-6 of their own
    pair's scale, chains whose links are close but whose ends are not, and
    first coordinates with equal real parts."""
    points = []
    for scale in 10.0 ** rng.integers(-3, 5, clusters):
        p = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
        size = max(1.0, float(np.max(np.abs(p))))
        points.append(p)
        for rel in (0.5e-6, 0.99e-6, 1.01e-6, 2e-6):
            unit = np.exp(2j * np.pi * rng.random(n))
            points.append(p + rel * size * unit)
        q = p.copy()
        q[1:] += 0.5e-6 * size  # the same first coordinate
        points += [q, p + 0.7e-6 * size, p + 1.4e-6 * size]  # a chain of two links
    order = rng.permutation(len(points))
    return [points[i] for i in order]


def test_distinct_matches_the_pairwise_mask_on_planted_near_duplicates():
    # Where the moduli are above 1 the gap that counts as close grows with
    # the pair, so a copy 5e-7 of a large point's scale away is a duplicate
    # even though it is farther from it than 1e-6 in absolute terms.
    rng = np.random.default_rng(26)
    for n in (1, 2, 3, 5):
        points = planted_near_duplicates(rng, n)
        want = pairwise_distinct(points)
        assert distinct(points).tolist() == want.tolist()
        assert 40 < want.sum() < len(points) - 40
    assert distinct(np.ones((1, 3))).tolist() == [True]


def test_distinct_with_rows_equals_distinct_on_each_row():
    # The planted clusters dealt to rows 0-4, so that near copies and chains
    # run across rows; row 5 left empty, row 6 given one point and row 7 a
    # copy of row 0 in its order. Each row keeps what distinct keeps of it
    # alone, so row 7 keeps what row 0 keeps; as one row, it would keep none.
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        points = planted_near_duplicates(rng, n, clusters=24)
        rows = rng.integers(0, 5, len(points))
        rows[0] = 6
        copies = [p.copy() for p, r in zip(points, rows) if r == 0]
        points, rows = points + copies, np.concatenate([rows, np.full(len(copies), 7)])
        want = np.zeros(len(points), dtype=bool)
        for k in range(8):
            alone = np.flatnonzero(rows == k)
            want[alone] = distinct([points[i] for i in alone])
        got = distinct(points, rows)
        assert got.tolist() == want.tolist()
        assert got[rows == 7].tolist() == got[rows == 0].tolist() and got[rows == 6].all()
        assert 0 < got[rows == 0].sum() < (rows == 0).sum()
        one_row = distinct(points)
        assert not one_row[rows == 7].any()
        # Near copies in rows 0-4 are kept where they fall in different rows.
        assert got[rows < 5].sum() > one_row[rows < 5].sum()


def reference_track_path(H, x0, settings=TrackerSettings()):
    """The per-path tracker the batched one replaced: one complex point, one
    predictor step and at most three Newton corrections per pass. The
    predictor is the cubic Hermite extrapolant through the current and the
    previous accepted point with their tangents, Euler on the first step."""

    def state(x, t):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mono = np.exp(H.E @ np.log(x))
            gcs = H.gamma[0] * H.cs
            terms = (t * H.ct[0] + (1.0 - t) * gcs) * mono
            values = np.add.reduceat(terms, H.starts)
            dt = np.add.reduceat((H.ct[0] - gcs) * mono, H.starts)
            jac = np.add.reduceat(terms[:, None] * H.E, H.starts, axis=0) / x[None, :]
            scale = max(1.0, float(np.max(np.add.reduceat(np.abs(terms), H.starts))))
        return values, jac, dt, scale

    def correct(x, t):
        # Mid-path points need only _PATH_TOL; a point at t = 1 the tolerance itself.
        bound = settings.tolerance if t == 1.0 else max(settings.tolerance, _PATH_TOL)
        for _ in range(3):
            values, jac, _, scale = state(x, t)
            if float(np.max(np.abs(values))) <= bound * scale:
                return True, x
            try:
                x = x + np.linalg.solve(jac, -values)
            except np.linalg.LinAlgError:
                return False, x
            if not np.all(np.isfinite(x)) or np.any(np.abs(x) < 1e-12):
                return False, x
        values, _, _, scale = state(x, t)
        return float(np.max(np.abs(values))) <= bound * scale, x

    x, t, step, nsteps = np.asarray(x0, dtype=complex).copy(), 0.0, _STEP_START, 0
    previous = None  # (x, v, t - t_previous) of the previous accepted point
    while t < 1.0 - 1e-6:
        if nsteps >= _MAX_PATH_STEPS:
            return PathFailure("max-steps", t, x)
        nsteps += 1
        t1 = t + min(step, 1.0 - t)
        h = t1 - t
        try:
            _, jac, dvals, _ = state(x, t)
            v = np.linalg.solve(jac, dvals)  # minus the tangent dx/dt
            xp = x - h * v
            if previous is not None:
                x0, v0, d = previous
                r = h / d
                xp = xp + r * r * ((3 + 2 * r) * (x0 - x - d * v) + (1 + r) * (d * (v - v0)))
            ok, xn = correct(xp, t1)
        except np.linalg.LinAlgError:
            ok = False
        if ok and np.all(np.isfinite(xn)):
            previous = (x, v, h)
            x, t = xn, t1
            top = np.max(np.abs(x))
            if top > 1e8:
                return PathFailure("divergence", t, x)
            if float(np.min(np.abs(x))) < 1e-12:
                return PathFailure("left-torus", t, x)
            # The next step from the corrector's move delta relative to 1 + |x|:
            # times (2e-2 / delta)^(1/4), within [1/4, 2], at most _STEP_CEILING.
            with np.errstate(divide="ignore"):
                ratio = _STEP_TOL_PREDICT * (1.0 + top) / np.max(np.abs(xn - xp))
            step = min(step * min(max(np.sqrt(np.sqrt(ratio)), 0.25), 2.0), _STEP_CEILING)
        else:
            step = 0.5 * h  # halve the step taken, which 1 - t may have clipped
        if step < _STEP_FLOOR and t < 1.0 - 1e-6:
            return PathFailure("step-underflow", t, x)
    try:
        refined, _ = reference_newton(point_system(H.E, H.starts, H.ct[0]), x, settings)
    except (SingularJacobianError, NoConvergenceError):
        return PathFailure("no-convergence", 1.0, x)
    return PathFailure("left-torus", 1.0, refined) if np.min(np.abs(refined)) <= 1e-10 else refined


def point_system(E, starts, c):
    """The per-point evaluator the batched Newton replaced: x -> (values,
    Jacobian) of one coefficient row c on the stacked exponents E, with the
    monomials as one complex exp."""

    def evaluate(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            terms = c * np.exp(E @ np.log(x))
            jac = np.add.reduceat(terms[:, None] * E, starts, axis=0) / x[None, :]
        return np.add.reduceat(terms, starts), jac

    return evaluate


def reference_newton(evaluate, x, settings=TrackerSettings()):
    """The per-point Newton the batched one replaced, on a point_system."""
    x = np.asarray(x, dtype=complex).copy()
    res = float(np.max(np.abs(evaluate(x)[0])))
    if res <= 0.01 * settings.tolerance:
        return x, res
    step_small = False
    for it in range(_NEWTON_ITERS):
        values, jac = evaluate(x)
        res = float(np.max(np.abs(values)))
        if res <= settings.tolerance and step_small:
            return x, res
        if it == 0:
            cond = np.linalg.cond(jac)
            if not np.isfinite(cond) or cond > 1e12:
                raise SingularJacobianError(f"Jacobian condition estimate {cond:.2e}")
        try:
            delta = np.linalg.solve(jac, -values)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        x = x + delta
        if not np.all(np.isfinite(x)):
            raise NoConvergenceError("Newton iterate left the finite range")
        step_small = float(np.max(np.abs(delta))) <= 1e-8 * (1.0 + float(np.max(np.abs(x))))
    res = float(np.max(np.abs(evaluate(x)[0])))
    if res <= settings.tolerance and step_small:
        return x, res
    raise NoConvergenceError(f"residual {res:.2e} after {_NEWTON_ITERS} iterations")


def as_homotopy(F):
    """F as the homotopy whose target row 0 is F."""
    row = np.concatenate(F.coefficients)
    return Homotopy(F.system, row, [row])


def newton_one(F, x, settings=TrackerSettings()):
    """(X, residuals, errors) of _newton on F from the one point x."""
    return _newton(as_homotopy(F), [x], np.zeros(1, dtype=int), settings)


# x^2 - 1 and (y - 1)^2 (y + 2) = y^3 - 3y + 2: a double root at y = 1.
NEWTON_F = SparseSystem.from_pairs([[((0, 0), -1.0), ((2, 0), 1.0)],
                                    [((0, 0), 2.0), ((0, 1), -3.0), ((0, 3), 1.0)]])
NEWTON_BATCH = [
    ("converged", [1.0, -2.0]),  # 0 steps
    ("ordinary", [-1.1 + 0.1j, -2.1 + 0.05j]),
    ("double root", [1.5, 1.0]),  # the Jacobian is singular at y = 1: condition limit
    ("out of iterations", [1e6, -2.0]),  # halves x every step, 12 steps are not enough
]


def test_batched_newton_matches_the_per_point_newton():
    from torsolve.solver import _refined, _rows

    H = as_homotopy(NEWTON_F)
    evaluate = point_system(H.E, H.starts, H.ct[0])
    X = np.array([x for _, x in NEWTON_BATCH], dtype=complex)
    points, residuals, errors = _newton(H, X, np.zeros(len(X), dtype=int), TrackerSettings())
    kept, failed = [], []
    for i, ((_, x), point, res, error) in enumerate(zip(NEWTON_BATCH, points, residuals, errors)):
        try:
            ref, ref_res = reference_newton(evaluate, x)
        except (SingularJacobianError, NoConvergenceError) as exc:
            assert type(error) is type(exc) and str(error) == str(exc)
            failed.append((f"batch[{i}]", str(exc)))
            continue
        assert error is None
        assert np.max(np.abs(point - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        assert max(res, ref_res) <= 1e-8 and abs(res - ref_res) <= 1e-14
        kept.append(ref)
    assert np.array_equal(points[0], X[0])
    assert [type(e).__name__ if e else "ok" for e in errors] == [
        "ok", "ok", "SingularJacobianError", "NoConvergenceError"]
    assert str(errors[2]) == "Jacobian condition estimate inf"
    assert str(errors[3]).endswith("after 12 iterations")

    failures = []
    out = _refined(NEWTON_F.system, _rows(NEWTON_F), X, np.arange(len(X))[:, None], "batch[{}]",
                   TrackerSettings(), failures)
    assert failures == failed and [label for label, _ in failed] == ["batch[2]", "batch[3]"]
    assert sorted(out.provenance) == ["batch[0]", "batch[1]"]  # converged, ordinary
    for point, i in zip(out.points, out.origins[:, 0]):
        ref = kept[i]
        assert np.max(np.abs(point - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def test_a_newton_step_onto_a_singular_jacobian_fails_its_row_only():
    # x^2 - 2x + 2 from x = 2 (well conditioned there) steps exactly onto
    # x = 1, where the derivative is 0: the next step's solve is singular.
    # The rows from 1.2+0.9j and 0.6-1.4j, in the same batch, converge to the
    # roots 1+1j and 1-1j; the second takes the steps it takes alone.
    H = as_homotopy(univariate({0: 2.0, 1: -2.0, 2: 1.0}))
    X = np.array([[2.0], [1.2 + 0.9j], [0.6 - 1.4j]], dtype=complex)
    points, residuals, errors = _newton(H, X, np.zeros(3, dtype=int), TrackerSettings())
    assert type(errors[0]) is SingularJacobianError and str(errors[0]) == "Singular matrix"
    assert points[0, 0] == 1.0 and residuals[0] == 1.0
    assert errors[1] is None and residuals[1] <= 1e-8
    assert abs(points[1, 0] - (1 + 1j)) <= 1e-12
    (alone,), (alone_res,), (alone_error,) = _newton(H, X[2:], np.zeros(1, dtype=int),
                                                     TrackerSettings())
    assert errors[2] is None and alone_error is None and abs(alone[0] - (1 - 1j)) <= 1e-12
    assert np.array_equal(points[2], alone) and residuals[2] == alone_res


NON_FINITE_STARTS = [[np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200], [0.0, 1.0]]


@pytest.mark.parametrize("x", NON_FINITE_STARTS)
def test_newton_refine_on_a_non_finite_jacobian_raises_singular(x):
    F = SparseSystem.from_pairs([
        [((2, 1), 1.0), ((0, 0), -1.0)],
        [((0, 1), 1.0), ((1, 0), -1.0)],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (error,) = newton_one(F, np.array(x, dtype=complex))[2]
    assert isinstance(error, SingularJacobianError)


def test_non_finite_rows_fail_only_themselves():
    H = as_homotopy(NEWTON_F)
    good = [x for _, x in NEWTON_BATCH]
    X = np.array(good[:2] + NON_FINITE_STARTS + good[2:], dtype=complex)
    points, residuals, errors = _newton(H, X, np.zeros(len(X), dtype=int), TrackerSettings())
    alone = [_newton(H, np.array([x], dtype=complex), np.zeros(1, dtype=int), TrackerSettings())
             for x in good]
    for k, (single_points, single_residuals, (single_error,)) in zip([0, 1, 6, 7], alone):
        assert np.array_equal(points[k], single_points[0]) and residuals[k] == single_residuals[0]
        assert str(errors[k]) == str(single_error)
    for k in range(2, 6):
        assert isinstance(errors[k], SingularJacobianError)


def test_homotopy_state_matches_finite_differences():
    # Two targets on three variables, one gamma each, from a start system on
    # part of their supports.
    rng = np.random.default_rng(17)
    supports = [[(0, 0, 0), (1, 0, 1), (2, 1, 3), (0, 2, 1)],
                [(0, 0, 0), (1, 1, 0), (0, 1, 2), (3, 0, 1)],
                [(0, 0, 0), (0, 0, 2), (1, 0, 3), (1, 1, 4)]]

    def system(size):  # the first `size` points of each support
        return SparseSystem.from_pairs([[(p, complex(*rng.normal(size=2))) for p in sup[:size]]
                                        for sup in supports])

    H = Homotopy.straight_line(system(3), [system(4), system(4)], np.exp(1j * np.array([0.4, 2.9])))
    X = rng.uniform(0.5, 1.5, (2, 3)) * np.exp(1j * rng.uniform(-np.pi, np.pi, (2, 3)))
    rows, h = np.array([0, 1]), 1e-6
    for t in (1.0, 0.37):
        T = np.full(2, t)
        values, jac, dt, _ = H.state(X, T, rows)
        for j in range(3):
            bump = np.zeros(3)
            bump[j] = h
            approx = (H.state(X + bump, T, rows)[0] - H.state(X - bump, T, rows)[0]) / (2 * h)
            assert np.max(np.abs(approx - jac[:, :, j])) <= 1e-6 * max(1.0, np.max(np.abs(jac)))
        if t == 1.0:  # the targets themselves
            for k in rows:
                target = point_system(H.E, H.starts, H.ct[k])(X[k])[0]
                scale = max(1.0, np.max(np.abs(target)))
                assert np.max(np.abs(values[k] - target)) <= 1e-12 * scale
        else:
            approx = (H.state(X, T + h, rows)[0] - H.state(X, T - h, rows)[0]) / (2 * h)
            assert np.max(np.abs(approx - dt)) <= 1e-6 * max(1.0, np.max(np.abs(dt)))


KERNEL_SUPPORTS = {
    "negative": [[(0, 0, 0), (-1, 0, 2), (-3, -2, 1)], [(0, 0, 0), (0, -4, 0), (2, 1, -1)],
                 [(1, 1, 1), (0, 0, -2), (-5, 0, 0)]],
    "zero": [[(0, 0, 0), (2, 0, 0)], [(0, 0, 0), (0, 3, 0), (1, 0, 0)], [(0, 0, 0), (0, 0, 1)]],
    "large": [[(0, 0, 0), (100, 0, 1), (0, 150, 0)], [(0, 0, 0), (1, 0, 0), (0, 0, 120)],
              [(0, 1, 0), (101, 0, -100), (0, 0, 0)]],
    "mixed": [[(0, 0, 0), (3, -2, 0), (-1, 4, 7)], [(2, -2, 2), (0, 1, 0), (-3, 0, 5)],
              [(0, 0, 0), (1, 1, -1), (-2, 3, 0)]],
}


# Edge shapes of the kernel: (supports, targets, rows); the cases of
# KERNEL_SUPPORTS have two targets and four rows.
KERNEL_SHAPES = {
    "one-target": (KERNEL_SUPPORTS["mixed"], 1, 4),  # one coefficient row, broadcast
    "univariate": ([[(0,), (2,), (-3,), (5,), (1,)]], 2, 4),
    "one-row": (KERNEL_SUPPORTS["negative"], 2, 1),
}


@pytest.mark.parametrize("case", sorted(KERNEL_SUPPORTS) + list(KERNEL_SHAPES))
def test_homotopy_state_matches_python_complex_arithmetic(case):
    """Values, Jacobian and dH/dt against a sum over monomials in Python
    complex arithmetic. Below exponent 100 numpy and Python both raise to an
    integer power by repeated squaring, so they agree to 1e-14 of the term
    magnitudes; x**e has condition number |e|, so above that, where each
    uses its own polar formula, the bound grows with the largest |e|."""
    rng = np.random.default_rng(29)
    supports, targets, batch = KERNEL_SHAPES.get(case, (KERNEL_SUPPORTS.get(case), 2, 4))
    n = len(supports)
    emax = max(abs(e) for sup in supports for p in sup for e in p)
    tol = 1e-14 * max(1.0, emax / 10) if emax >= 100 else 1e-14

    def system():
        return SparseSystem.from_pairs([[(p, complex(*rng.normal(size=2))) for p in sup]
                                        for sup in supports])

    H = Homotopy.straight_line(system(), [system() for _ in range(targets)],
                               np.exp(1j * np.array([0.8, 2.3]))[:targets])
    spread = 0.01 if emax >= 100 else 0.5  # keep |x|^e within a few orders of 1
    X = np.exp(rng.uniform(-spread, spread, (batch, n)) + 1j * rng.uniform(-np.pi, np.pi, (batch, n)))
    t, rows = np.array([0.0, 0.3, 0.9, 1.0]), np.array([0, 1, 1, 0]) % targets
    if batch == 1:  # the row at t = 0.3
        t, rows = t[1:2], rows[1:2]
    values, jac, dt, _ = H.state(X, t, rows)
    assert values.shape == dt.shape == (batch, n) and jac.shape == (batch, n, n)
    for r in range(len(X)):
        x = [complex(v) for v in X[r]]
        for i, sup in enumerate(supports):
            a, b = H.starts[i], H.starts[i] + len(sup)
            cs = [complex(c) for c in H.gamma[rows[r]] * H.cs[a:b]]
            ct = [complex(c) for c in H.ct[rows[r], a:b]]
            mono = [math.prod(xj ** int(e) for xj, e in zip(x, E)) for E in H.E[a:b]]
            terms = [(t[r] * f + (1 - t[r]) * g) * m for f, g, m in zip(ct, cs, mono)]
            bound = tol * sum(map(abs, terms))
            assert abs(values[r, i] - sum(terms)) <= bound
            assert abs(dt[r, i] - sum((f - g) * m for f, g, m in zip(ct, cs, mono))) <= (
                tol * sum(abs((f - g) * m) for f, g, m in zip(ct, cs, mono)))
            for j in range(n):
                parts = [term * E[j] / x[j] for term, E in zip(terms, H.E[a:b])]
                assert abs(jac[r, i, j] - sum(parts)) <= tol * sum(map(abs, parts))


def test_power_table_is_no_wider_than_the_monomial_count():
    # x^1000 takes one column of the table, not a range of a thousand.
    F = SparseSystem.from_pairs([[((0, 0), 1.0), ((1000, 0), -1.0), ((0, 1), 2.0)],
                                 [((0, 0), 1.0), ((1, 1), 1.0), ((0, 1000), -1.0)]])
    H = as_homotopy(F)
    assert H._exps.shape == (2, 3) and H._exps.shape[1] <= len(H.E)
    assert sorted(H._exps[0].real) == [0, 1, 1000]
    x = np.exp(1j * np.array([[0.3, -1.1]]))
    values = H.state(x, np.ones(1), np.zeros(1, dtype=int))[0]
    assert abs(values[0, 0] - (1 - np.exp(300j) + 2 * np.exp(-1.1j))) <= 1e-12


def test_newton_refine_at_a_zero_coordinate_raises_a_typed_error():
    for supports in KERNEL_SUPPORTS.values():
        F = SparseSystem.from_pairs([[(p, 1.0 + k) for k, p in enumerate(sup)] for sup in supports])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (error,) = newton_one(F, np.array([0.0, 1.0, 1.0 + 1j]))[2]
        assert isinstance(error, SingularJacobianError)


def outcomes_by_path(result, count):
    """Per start index: the endpoint, or the PathFailure reason."""
    sols, failures = result
    out = dict(zip(sols.origins[:, 0].tolist(), sols.points))
    out.update((i, fail.reason) for i, fail in failures)
    assert sorted(out) == list(range(count))
    return [out[i] for i in range(count)]


FOUR_TARGETS = [univariate({0: -4e4, 2: 1e4}), univariate({0: 2.0, 1: -1.0, 3: 1.0}),
                univariate({0: 0.5 - 1j, 2: 2.0, 3: 1.5j}), univariate({0: -8.0, 3: 1.0})]
FOUR_GAMMAS = np.exp(1j * np.array([0.3, 1.9, 4.0, 2.6]))


def four_target_batch():
    """(H, starts) from x^3 - 3x - 1 to the four FOUR_TARGETS: per target
    the roots of x^3 - 3x - 1, a point where its Jacobian is singular and
    one root again. The targets differ in support and one loses a root at
    infinity, so the blocks hold ok, failing and duplicate paths."""
    G = univariate({0: -1.0, 1: -3.0, 3: 1.0})
    starts = [np.array([r + 0j]) for r in np.roots([1, 0, -3, -1])] + [np.array([1.0 + 0j])]
    starts.append(starts[1])
    return Homotopy.straight_line(G, FOUR_TARGETS, FOUR_GAMMAS), starts * len(FOUR_TARGETS)


def test_multi_target_track_all_equals_one_target_at_a_time():
    G = univariate({0: -1.0, 1: -3.0, 3: 1.0})
    targets, gammas = FOUR_TARGETS, FOUR_GAMMAS
    H, all_starts = four_target_batch()
    starts = all_starts[:len(all_starts) // len(targets)]
    together = outcomes_by_path(track_all(H, all_starts), 4 * len(starts))
    assert H.ct.shape == (4, 4)
    reasons = []
    for k, (F, gamma) in enumerate(zip(targets, gammas)):
        alone = outcomes_by_path(track_all(Homotopy.straight_line(G, F, gamma), starts), len(starts))
        for mine, ref in zip(together[k * len(starts):], alone):
            if isinstance(ref, str):
                assert mine == ref
            else:
                assert np.max(np.abs(mine - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))
            reasons.append(ref if isinstance(ref, str) else "ok")
    assert {"ok", "divergence", "step-underflow", "duplicate-endpoint"} <= set(reasons)
    with pytest.raises(ValueError):
        track_all(H, starts[:3])  # 3 starts do not split into 4 equal blocks
    with pytest.raises(ValueError):
        track_all(H, starts * len(targets), None, 3)  # a count needs a single target


def test_homotopy_takes_a_start_row_and_target_rows_of_the_supports_terms():
    # Two polynomials of 2 and 3 terms: rows of M = 5 coefficients. A row of
    # another length or shape, or no target, raises naming M and the shapes
    # given; so do ragged rows, such as a row split per polynomial, in numpy.
    F = SparseSystem.from_pairs([[((0, 0), 1.0), ((1, 0), 2.0)],
                                 [((0, 0), 3.0), ((0, 1), 4.0), ((1, 1), 5.0)]])
    row = np.concatenate(F.coefficients)
    H = Homotopy(F.system, row, [row, 2 * row], [1.0, 1j])
    assert H.cs.shape == (5,) and H.ct.shape == (2, 5) and H.gamma.tolist() == [1, 1j]
    assert np.array_equal(H.ct[1], 2 * row)
    bad = [(row[:4], [row], "(4,) and (1, 5)"), (row, np.ones((1, 6)), "(5,) and (1, 6)"),
           (row, [], "(5,) and (0,)"), (row, row, "(5,) and (5,)"),
           (row, np.ones((1, 5, 1)), "(5,) and (1, 5, 1)")]
    for start, targets, shapes in bad:
        with pytest.raises(ValueError, match=re.escape(
                f"a start of shape (5,) and targets of shape (K, 5), K >= 1; got {shapes}")):
            Homotopy(F.system, start, targets)
    for start, targets in (([row[:2], row[2:]], [row]), (row, [row, row[:4]])):
        with pytest.raises(ValueError):
            Homotopy(F.system, start, targets)


def test_targets_sharing_an_endpoint_both_keep_it():
    # (x - 1)(x - 2) and (x - 1)(x - 3) share the root 1; dedup is per target.
    G = univariate({0: -1.0, 2: 1.0})
    targets = [univariate({0: 2.0, 1: -3.0, 2: 1.0}), univariate({0: 3.0, 1: -4.0, 2: 1.0})]
    H = Homotopy.straight_line(G, targets, np.exp(1j * np.array([0.7, 2.2])))
    starts = [np.array([1.0 + 0j]), np.array([-1.0 + 0j])]
    sols, failures = track_all(H, starts * 2)
    assert failures == [] and len(sols) == 4
    roots = {block: [] for block in sols.origins[:, 0] // 2}
    for pt, block in zip(sols.points, sols.origins[:, 0] // 2):
        roots[block].append(round(pt[0].real, 8))
    assert sorted(roots[0]) == [1.0, 2.0] and sorted(roots[1]) == [1.0, 3.0]
    assert all(r <= 1e-8 for r in sols.residuals)


def count_states(monkeypatch, H, starts):
    """(calls, evaluated rows) of Homotopy.state in track_all(H, starts)."""
    counts = [0, 0]
    state = Homotopy.state

    def counting(self, X, t, rows, *coefficients):
        counts[0] += 1
        counts[1] += len(X)
        return state(self, X, t, rows, *coefficients)

    monkeypatch.setattr(Homotopy, "state", counting)
    track_all(H, starts)
    monkeypatch.undo()
    return tuple(counts)


def test_tracker_steps_are_pinned(monkeypatch):
    # Homotopy.state calls and evaluated rows of track_all on three batches.
    # They follow from each path's t sequence, accept/reject decisions and
    # corrector and Newton iterations, so a change to any step changes them.
    # (With the Euler predictor and growth after 4 successes they were
    # (400, 1953), (552, 966) and (566, 2239); with the Hermite predictor,
    # growth by 1.5 after 2 successes up to 0.1 and one endgame Newton per
    # pass, (331, 1419), (338, 605) and (347, 1436); with every corrector point
    # held to the tolerance, not mid-path ones to _PATH_TOL, (308, 1481),
    # (285, 484) and (289, 1131); with the corrector handing H and J at
    # t = 1 to the endgame Newton, (225, 1061), (235, 406) and (239, 937).)
    batches = dict(zip(["total-degree", "singular-diverging"], mixed_batches()))
    batches["four-targets"] = four_target_batch()
    counts = {name: count_states(monkeypatch, H, starts) for name, (H, starts) in batches.items()}
    assert counts == {"total-degree": (225, 1062), "singular-diverging": (236, 408),
                      "four-targets": (240, 947)}


def spy(monkeypatch, name, record):
    """Wrap torsolve.tracking's `name`, calling record(*args) before it."""
    import torsolve.tracking as tracking

    real = getattr(tracking, name)

    def wrapper(*args):
        record(*args)
        return real(*args)

    monkeypatch.setattr(tracking, name, wrapper)


def test_track_all_runs_one_endgame_newton(monkeypatch):
    # The paths that reach the endgame wait in one queue, refined by one
    # batched Newton once no path is left running, although they arrive on
    # different passes.
    arrivals, batches = [], []
    spy(monkeypatch, "_correct", lambda H, X, t, *rest: arrivals.append(int((t == 1.0).sum())))
    spy(monkeypatch, "_newton", lambda H, X, *rest: batches.append(len(X)))
    for H, starts in [*mixed_batches(), four_target_batch()]:
        arrivals.clear()
        batches.clear()
        sols, failures = track_all(H, starts)
        assert batches == [len(sols) + sum(fail.t == 1.0 for _, fail in failures)]
        assert sum(count > 0 for count in arrivals) >= 2


def test_count_stop_fires_on_the_pass_a_full_run_reaches_the_count(monkeypatch):
    # 8 total-degree paths for 3 roots, stopped at 3 distinct endpoints: it
    # stops on the first pass after which a run without a count has 3 in,
    # and every path that ended before the stop ends as in the full run, bit
    # for bit.
    import torsolve.tracking as tracking

    H, starts = list(mixed_batches())[0]
    passes = []
    with monkeypatch.context() as patch:
        spy(patch, "_correct", lambda *args: passes.append(None))
        stopped = tracking._track(H, starts, TrackerSettings(), 3)[0]
    full = tracking._track(H, starts, TrackerSettings())[0]
    reached = [isinstance(out, PathFailure) and out.reason == "count-reached" for out in stopped]
    assert 0 < sum(reached) < len(starts)
    for mine, ref, cut in zip(stopped, full, reached):
        if cut:
            continue
        if isinstance(ref, PathFailure):
            assert (mine.reason, mine.t) == (ref.reason, ref.t)
            mine, ref = mine.point, ref.point
        assert np.array_equal(mine, ref)
    for cap, count in ((len(passes) - 1, 2), (len(passes), 3)):
        monkeypatch.setattr(tracking, "_MAX_PATH_STEPS", cap)
        assert len(track_all(H, starts)[0]) == count


def test_paths_with_steps_of_their_own_match_their_runs_alone(monkeypatch):
    # All paths take the first step, and soon each takes a step of its own;
    # each still ends as it ends alone, bit for bit.
    H, starts = list(mixed_batches())[0]
    steps = []
    with monkeypatch.context() as patch:
        spy(patch, "_correct", lambda H, X, t, *rest: steps.append(t.copy()))
        together = _track(H, starts, TrackerSettings())[0]
    assert np.all(steps[0] == _STEP_START)
    assert any(len(set(t.tolist())) == len(starts) for t in steps)
    for start, mine in zip(starts, together):
        alone = _track(H, [start], TrackerSettings())[0][0]
        if isinstance(alone, PathFailure):
            assert (mine.reason, mine.t) == (alone.reason, alone.t)
            assert np.array_equal(mine.point, alone.point)
        else:
            assert np.array_equal(mine, alone)


def test_predictor_is_exact_on_a_cubic_path():
    # x(t) = c0 + c1 t + c2 t^2 + c3 t^3 per coordinate, tangents -v.
    rng = np.random.default_rng(37)
    c = rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2))
    t0, t1, h = np.array([0.1, 0.5, 0.93]), np.array([0.13, 0.61, 0.95]), np.array([0.05, 0.2, 0.05])

    def x(t):
        return sum(c[k] * t[:, None] ** k for k in range(4))

    def v(t):
        return -sum(k * c[k] * t[:, None] ** (k - 1) for k in range(1, 4))

    d = t1 - t0
    e = x(t0) - x(t1) - d[:, None] * v(t1)
    g = d[:, None] * (v(t1) - v(t0))
    assert np.max(np.abs(_predict(x(t1), v(t1), h, e, g, d) - x(t1 + h))) <= 1e-13


def test_first_predictor_step_is_euler(monkeypatch):
    H, starts = list(mixed_batches())[0]
    calls = []

    def recording(X, V, h, e, g, d):
        out = _predict(X, V, h, e, g, d)
        calls.append(np.array_equal(out, X - h[:, None] * V))
        return out

    monkeypatch.setattr("torsolve.tracking._predict", recording)
    track_all(H, starts)
    assert calls[0] and not all(calls)


def test_nan_tangent_gives_a_prediction_the_corrector_rejects():
    H = as_homotopy(univariate({0: -2.0, 2: 1.0}))
    X = np.array([[1.4 + 0j], [1.5 + 0j]])
    V = np.array([[np.nan + 0j], [0.1 + 0j]])
    e, g = np.full_like(X, 1e-3), np.full_like(X, -1e-3)
    xn = _predict(X, V, np.full(2, 0.01), e, g, np.full(2, 0.02))
    assert np.isnan(xn[0]).all() and np.isfinite(xn[1]).all()
    at = _correct(H, xn, np.ones(2), np.zeros(2, dtype=int), TrackerSettings())[0]
    assert at.tolist() == [1]


def reference_state(H, X, t, rows):
    """Homotopy.state before its numpy calls were cut, with the power table,
    blocks and coefficient rows that Homotopy.__init__ built for it then."""
    n, M = X.shape[1], len(H.E)
    exps = [sorted(set(column)) for column in H.E.T.tolist()]
    width = max(map(len, exps))
    powers = np.array([u + [0] * (width - len(u)) for u in exps], dtype=complex)
    position = [{e: j * width + k for k, e in enumerate(u)} for j, u in enumerate(exps)]
    columns = np.array([[at[e] for e in column] for at, column in zip(position, H.E.T.tolist())])
    blocks = [(slice(a, b), H.E[a:b]) for a, b in zip(H.starts, [*H.starts[1:], M])]
    gcs = H.gamma[:, None] * H.cs
    ct_float, gcs_float, dc = H.ct.view(float), gcs.view(float), H.ct - gcs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = np.power(X[:, :, None], powers).reshape(len(X), powers.size)
        mono = table.take(columns[0], axis=1)
        for c in columns[1:]:
            mono *= table.take(c, axis=1)
        del table
        pick = rows if len(H.ct) > 1 else np.zeros(1, dtype=int)
        terms = ct_float.take(pick, 0) * t[:, None]
        terms += gcs_float.take(pick, 0) * (1.0 - t)[:, None]
        terms = terms.view(complex)
        terms *= mono
        values = np.add.reduceat(terms, H.starts, axis=1)
        mono *= dc.take(pick, 0)
        dt = np.add.reduceat(mono, H.starts, axis=1)
        scale = np.maximum(1.0, np.add.reduceat(np.abs(terms), H.starts, axis=1).max(axis=1))
        jac = np.empty((len(X), n, n), dtype=complex)
        parts = terms.view(float).reshape(len(X), M, 2).transpose(2, 0, 1)
        out = jac.view(float).reshape(len(X), n, n, 2).transpose(3, 0, 1, 2)
        for i, (block, Eb) in enumerate(blocks):
            np.matmul(parts[:, :, block], Eb, out=out[:, :, i])
        jac /= X[:, None, :]
    return values, jac, dt, scale


@pytest.mark.parametrize("case", sorted(KERNEL_SUPPORTS) + list(KERNEL_SHAPES))
def test_homotopy_state_is_bit_identical_to_the_reference(case):
    # The inputs of test_homotopy_state_matches_python_complex_arithmetic,
    # and the same points with a zero first coordinate, where the Jacobian
    # and negative powers are not finite.
    rng = np.random.default_rng(29)
    supports, targets, batch = KERNEL_SHAPES.get(case, (KERNEL_SUPPORTS.get(case), 2, 4))
    emax = max(abs(e) for sup in supports for p in sup for e in p)

    def system():
        return SparseSystem.from_pairs([[(p, complex(*rng.normal(size=2))) for p in sup]
                                        for sup in supports])

    H = Homotopy.straight_line(system(), [system() for _ in range(targets)],
                               np.exp(1j * np.array([0.8, 2.3]))[:targets])
    spread = 0.01 if emax >= 100 else 0.5
    X = np.exp(rng.uniform(-spread, spread, (batch, len(supports)))
               + 1j * rng.uniform(-np.pi, np.pi, (batch, len(supports))))
    t, rows = np.array([0.0, 0.3, 0.9, 1.0]), np.array([0, 1, 1, 0]) % targets
    if batch == 1:
        t, rows = t[1:2], rows[1:2]
    zero = X.copy()
    zero[:, 0] = 0.0
    for Y in (X, zero):
        with np.errstate(all="ignore"):
            got = H.state(Y, t, rows)
        for a, b in zip(got, reference_state(H, Y, t, rows)):
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    assert np.isfinite(np.concatenate([a.ravel() for a in H.state(X, t, rows)])).all()


def random_homotopy(rng, supports, targets):
    """A homotopy on `supports` with random start and target coefficients."""
    def system():
        return SparseSystem.from_pairs([[(p, complex(*rng.normal(size=2))) for p in sup]
                                        for sup in supports])

    return Homotopy.straight_line(system(), [system() for _ in range(targets)],
                                  np.exp(1j * rng.uniform(0, 2 * np.pi, targets)))


@pytest.mark.parametrize("supports", [KERNEL_SHAPES["univariate"][0],
                                      [[(0, 0), (2, 1), (-1, 3)], [(1, 0), (0, 0), (3, -2)]],
                                      KERNEL_SUPPORTS["mixed"]], ids=["n=1", "n=2", "n=3"])
def test_homotopy_values_equal_the_values_of_state_stacked_and_alone(supports):
    # Newton takes a row's first residual from Homotopy.values and its steps
    # from Homotopy.state: both must give the row the same bits.
    rng = np.random.default_rng(31)
    H = random_homotopy(rng, supports, 3)
    n = len(supports)
    X = np.exp(rng.uniform(-0.5, 0.5, (5, n)) + 1j * rng.uniform(-np.pi, np.pi, (5, n)))
    t, rows = np.array([0.0, 0.2, 0.7, 1.0, 1.0]), np.array([0, 2, 1, 1, 0])
    stacked = H.values(X, t, rows)
    assert np.array_equal(stacked, H.state(X, t, rows)[0])
    for k in range(len(X)):
        alone = H.values(X[k:k + 1], t[k:k + 1], rows[k:k + 1])
        assert np.array_equal(alone, H.state(X[k:k + 1], t[k:k + 1], rows[k:k + 1])[0])
        assert np.array_equal(alone[0], stacked[k])


@pytest.mark.parametrize("targets", [1, 3])
@pytest.mark.parametrize("supports", [KERNEL_SHAPES["univariate"][0],
                                      [[(0, 0), (2, 1), (-1, 3)], [(1, 0), (0, 0), (3, -2)]],
                                      KERNEL_SUPPORTS["mixed"]], ids=["n=1", "n=2", "n=3"])
def test_state_on_coefficient_rows_formed_once_is_bit_identical(supports, targets):
    # The corrector forms a pass's coefficient rows once and takes the rows
    # still correcting: stacked, alone or taken, state and values give every
    # row the bits they give it from t and its target row.
    rng = np.random.default_rng(41)
    H = random_homotopy(rng, supports, targets)
    n = len(supports)
    X = np.exp(rng.uniform(-0.5, 0.5, (5, n)) + 1j * rng.uniform(-np.pi, np.pi, (5, n)))
    t, rows = np.array([0.0, 0.2, 0.7, 1.0, 0.4]), rng.integers(0, targets, 5)
    c, dc = H.coefficients(t, rows)
    assert c.shape == (5, len(H.E)) and dc.shape == (1 if targets == 1 else 5, len(H.E))
    for k in [np.arange(5), np.array([1, 3, 4])] + [np.array([i]) for i in range(5)]:
        taken = c.take(k, 0), dc if len(dc) == 1 else dc.take(k, 0)
        for a, b in zip(H.state(X[k], t[k], rows[k], taken), H.state(X[k], t[k], rows[k])):
            assert np.array_equal(a, b)
        assert np.array_equal(H.values(X[k], t[k], rows[k], taken), H.values(X[k], t[k], rows[k]))


def test_correct_fails_an_exactly_singular_row_only():
    # Target 0's two polynomials are equal, so at t = 1 its Jacobian has two
    # equal rows and elimination leaves an exact zero: the batched solve turns
    # that row alone NaN. Row 2 is target 1's root (1, 1), row 3 converges to
    # it, and every row but 1 gets the X and V of its run alone.
    G = SparseSystem.from_pairs([[((0, 0), -1.0), ((1, 0), 1.0), ((0, 1), 0.5)],
                                 [((0, 0), -1.0), ((1, 0), 0.3), ((0, 1), 1.0)]])
    equal = SparseSystem.from_pairs([[((0, 0), -2.0), ((1, 0), 1.0), ((0, 1), 1.0)]] * 2)
    regular = SparseSystem.from_pairs([[((0, 0), -3.0), ((1, 0), 1.0), ((0, 1), 2.0)],
                                       [((0, 0), -1.0), ((1, 0), 2.0), ((0, 1), -1.0)]])
    H = Homotopy.straight_line(G, [equal, regular], np.exp(1j * np.array([0.4, 1.9])))
    X0 = np.array([[0.9 + 0.2j, 1.1], [0.5 + 0.1j, 0.7], [1.0, 1.0], [1.01, 0.99 + 0.01j],
                   [1.2, 0.8 - 0.1j]])
    t, rows = np.array([0.3, 1.0, 1.0, 1.0, 0.8]), np.array([1, 0, 1, 1, 0])
    settings = TrackerSettings()
    with np.errstate(all="ignore"):
        at, X, V, *_ = _correct(H, X0.copy(), t, rows, settings)
        assert 1 not in at and {2, 3} <= set(at.tolist()) and np.isnan(X[1]).all()
        for i in (0, 2, 3, 4):
            alone, Xi, Vi, *_ = _correct(H, X0[i:i + 1].copy(), t[i:i + 1], rows[i:i + 1],
                                         settings)
            assert (i in at) == (0 in alone)
            assert np.array_equal(X[i], Xi[0]) and np.array_equal(V[i], Vi[0])


def test_homotopies_on_equal_supports_share_a_read_only_layout():
    rng = np.random.default_rng(8)
    supports = [[(0, 0), (2, 1), (-1, 3)], [(1, 0), (0, 0), (3, -2)]]
    H, H2 = random_homotopy(rng, supports, 1), random_homotopy(rng, supports, 3)
    assert H.system == H2.system and H.system is not H2.system
    assert H._blocks is H2._blocks
    layout = (H.E, H.starts, H._exps, H._columns, *(Eb for _, Eb in H._blocks))
    for a, b in zip(layout, (H2.E, H2.starts, H2._exps, H2._columns)):
        assert a is b
    for a in layout:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_one_term_homotopy_gives_a_row_the_same_bits_alone_as_in_a_stack():
    # n = 1, M = 1: every product is of one element when one row is evaluated,
    # and numpy rounds an in-place product of one element otherwise.
    rng = np.random.default_rng(5)
    for _ in range(20):
        H = random_homotopy(rng, [[(3,)]], 2)
        X = rng.normal(size=(4, 1)) + 1j * rng.normal(size=(4, 1))
        t, rows = rng.uniform(0, 1, 4), np.array([0, 1, 1, 0])
        stacked = H.state(X, t, rows)
        for k in range(len(X)):
            alone = H.state(X[k:k + 1], t[k:k + 1], rows[k:k + 1])
            for a, b in zip(alone, stacked):
                assert np.array_equal(a[0], b[k])


def test_newton_evaluates_state_only_at_the_rows_that_step(monkeypatch):
    # Row 0 of NEWTON_BATCH is a root already: Homotopy.values gives its
    # residual and state never sees it. The three others step, and the first
    # state call takes exactly them.
    H = as_homotopy(NEWTON_F)
    X = np.array([x for _, x in NEWTON_BATCH], dtype=complex)
    evaluated = {"values": [], "state": []}
    for name in evaluated:
        real = getattr(Homotopy, name)

        def counting(self, X, t, rows, name=name, real=real):
            evaluated[name].append(X.copy())
            return real(self, X, t, rows)

        monkeypatch.setattr(Homotopy, name, counting)
    points, residuals, errors = _newton(H, X, np.zeros(len(X), dtype=int), TrackerSettings())
    assert [len(Y) for Y in evaluated["values"]] == [4]
    assert np.array_equal(evaluated["state"][0], X[1:])
    assert not any((Y == X[0]).all(axis=1).any() for Y in evaluated["state"])
    assert residuals[0] <= 0.01 * TrackerSettings().tolerance and errors[0] is None
    monkeypatch.undo()
    assert residuals[0] == np.abs(H.state(X[:1], np.ones(1), np.zeros(1, dtype=int))[0]).max()
