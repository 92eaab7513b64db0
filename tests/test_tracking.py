import numpy as np
import pytest

from torsolve.errors import NoConvergenceError, SingularJacobianError
from torsolve.supports import SparseSystem
from torsolve.torus import diagonal_fiber
from torsolve.tracking import (
    Homotopy,
    PathFailure,
    SolutionSet,
    TrackerSettings,
    _newton,
    distinct,
    newton_refine,
    relative_distance,
    track_all,
    track_path,
)


def univariate(coeff_by_exp):
    return SparseSystem.from_pairs([[((e,), c) for e, c in coeff_by_exp.items()]])


def test_settings_validation():
    TrackerSettings()
    with pytest.raises(ValueError):
        TrackerSettings(min_step=1e-2, initial_step=1e-3)
    with pytest.raises(ValueError):
        TrackerSettings(max_step=2.0)
    with pytest.raises(ValueError):
        TrackerSettings(newton_tolerance=0)


def test_constant_path():
    F = univariate({0: -1.0, 2: 1.0})  # x^2 - 1
    H = Homotopy.straight_line(F, F, gamma=1.0)
    out = track_path(H, np.array([1.0 + 0j]))
    assert not isinstance(out, PathFailure)
    assert abs(out[0] - 1.0) < 1e-10


def test_univariate_continuation():
    G = univariate({0: -1.0, 2: 1.0})  # x^2 - 1
    F = univariate({0: -4.0, 2: 1.0})  # x^2 - 4
    gamma = np.exp(0.77j)
    H = Homotopy.straight_line(G, F, gamma=gamma)
    out = track_path(H, np.array([1.0 + 0j]))
    assert not isinstance(out, PathFailure)
    assert abs(out[0] - 2.0) < 1e-9
    out2 = track_path(H, np.array([-1.0 + 0j]))
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
    x, res = newton_refine(F, np.array([1.0 + 0j]))
    assert abs(x[0] - 1.0) < 1e-14
    assert res < 1e-12


def test_newton_refine_sqrt2():
    F = univariate({0: -2.0, 2: 1.0})
    x, res = newton_refine(F, np.array([1.4 + 0j]))
    assert abs(x[0] - np.sqrt(2)) < 1e-12
    assert res <= 1e-8


def test_newton_refine_double_root_fails():
    F = univariate({2: 1.0})  # x^2: double root at the origin, off the torus
    with pytest.raises((NoConvergenceError, SingularJacobianError)):
        newton_refine(F, np.array([0.1 + 0j]))


def test_newton_refine_multivariate():
    # x^2 y - 1 = 0, y - x = 0 has roots with x^3 = 1
    F = SparseSystem.from_pairs([
        [((2, 1), 1.0), ((0, 0), -1.0)],
        [((0, 1), 1.0), ((1, 0), -1.0)],
    ])
    x, res = newton_refine(F, np.array([0.9 + 0.1j, 1.1 - 0.1j]))
    assert abs(x[0] ** 3 - 1.0) < 1e-10
    assert res <= 1e-8


def test_homotopy_alignment_embeds_start():
    # start supported on a subset of the target support
    G = univariate({0: 1.0, 3: 2.0})
    F = univariate({0: 0.5, 1: 1.5, 3: -2.0})
    H = Homotopy.straight_line(G, F, gamma=1.0)
    assert H.E.shape == (3, 1)  # union support {0, 1, 3}
    x = np.array([1.3 - 0.2j])
    g_direct = 1.0 + 2.0 * x[0] ** 3
    assert abs(H.evaluate(x, 0.0)[0, 0] - g_direct) < 1e-12
    f_direct = 0.5 + 1.5 * x[0] - 2.0 * x[0] ** 3
    assert abs(H.evaluate(x, 1.0)[0, 0] - f_direct) < 1e-12


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
    s = SolutionSet()
    s.append(np.array([2.0 + 0j]), 0.0, "b")
    s.append(np.array([1.0 + 0j]), 0.0, "a")
    s.sort()
    assert s.provenance == ["a", "b"]


def assert_batch_matches_single_paths(H, starts):
    """track_all gives every start the outcome that track_path, and the
    per-path reference loop below, give it alone."""
    sols, failures = track_all(H, starts)
    batched = {int(origin.split()[1]): pt for pt, origin in zip(sols.points, sols.provenance)}
    batched.update(failures)
    assert sorted(batched) == list(range(len(starts)))
    reasons = []
    for i, start in enumerate(starts):
        together = batched[i]
        if isinstance(together, PathFailure) and together.reason == "duplicate-endpoint":
            together = together.point
        for alone in (track_path(H, start), reference_track_path(H, start)):
            if isinstance(alone, PathFailure):
                assert isinstance(together, PathFailure) and together.reason == alone.reason
                assert together.t == pytest.approx(alone.t, abs=1e-12)
            else:
                assert not isinstance(together, PathFailure)
                assert np.max(np.abs(together - alone)) <= 1e-10
        reasons.append(together.reason if isinstance(together, PathFailure) else "ok")
    return reasons


def test_track_all_equals_track_path_on_total_degree_homotopy():
    # 8 total-degree paths for a system of mixed volume 3: some excess paths
    # fail, the rest end at the 3 roots, some of them more than once.
    F = SparseSystem.from_pairs([
        [((0, 0), 0.3 + 1.1j), ((1, 0), -0.7 + 0.2j), ((2, 2), 0.9 + 0.5j)],
        [((0, 0), -1.2 + 0.3j), ((1, 1), 0.8 - 0.9j), ((0, 1), 0.4 + 0.4j)],
    ])
    b = [np.exp(0.4j), np.exp(2.1j)]
    G = SparseSystem.from_pairs([[((0, 0), -b[0]), ((4, 0), 1.0)], [((0, 0), -b[1]), ((0, 2), 1.0)]])
    H = Homotopy.straight_line(G, F, gamma=np.exp(1.3j))
    starts = diagonal_fiber([4, 2], b)
    reasons = assert_batch_matches_single_paths(H, starts)
    assert len(reasons) == 8 and 3 <= reasons.count("ok") < 8
    assert len(track_all(H, starts)[0]) == 3


def test_mixed_batch_singular_and_diverging_paths():
    # x^3 - 3x - 1 has a singular Jacobian at x = 1 (not a root), and the
    # target 1e4 x^2 - 4e4 has lost one root, so one path runs to infinity.
    G = univariate({0: -1.0, 1: -3.0, 3: 1.0})
    F = univariate({0: -4e4, 2: 1e4})
    H = Homotopy.straight_line(G, F, gamma=np.exp(0.3j))
    starts = [np.array([r + 0j]) for r in np.roots([1, 0, -3, -1])] + [np.array([1.0 + 0j])]
    reasons = assert_batch_matches_single_paths(H, starts)
    assert sorted(reasons) == ["divergence", "ok", "ok", "step-underflow"]


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


def reference_track_path(H, x0, settings=TrackerSettings()):
    """The per-path tracker the batched one replaced: one complex point, one
    Euler step and at most three Newton corrections per pass."""

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
        for _ in range(3):
            values, jac, _, scale = state(x, t)
            if float(np.max(np.abs(values))) <= settings.newton_tolerance * scale:
                return True, x
            try:
                x = x + np.linalg.solve(jac, -values)
            except np.linalg.LinAlgError:
                return False, x
            if not np.all(np.isfinite(x)) or np.any(np.abs(x) < 1e-12):
                return False, x
        values, _, _, scale = state(x, t)
        return float(np.max(np.abs(values))) <= settings.newton_tolerance * scale, x

    x, t, step, streak, nsteps = np.asarray(x0, dtype=complex).copy(), 0.0, settings.initial_step, 0, 0
    while t < 1.0 - 1e-6:
        if nsteps >= settings.max_steps:
            return PathFailure("max-steps", t, x)
        nsteps += 1
        dt = min(step, 1.0 - t)
        try:
            _, jac, dvals, _ = state(x, t)
            ok, xn = correct(x + dt * np.linalg.solve(jac, -dvals), t + dt)
        except np.linalg.LinAlgError:
            ok = False
        if ok and np.all(np.isfinite(xn)):
            x, t, streak = xn, t + dt, streak + 1
            if float(np.max(np.abs(x))) > 1e8:
                return PathFailure("divergence", t, x)
            if float(np.min(np.abs(x))) < 1e-12:
                return PathFailure("left-torus", t, x)
            if streak >= 4:
                step, streak = min(step * 1.5, settings.max_step), 0
        else:
            streak, step = 0, step * 0.5
            if step < settings.min_step:
                return PathFailure("step-underflow", t, x)
    try:
        refined, _ = _newton(H.targets[0], x, settings)
    except (SingularJacobianError, NoConvergenceError):
        return PathFailure("no-convergence", 1.0, x)
    return PathFailure("left-torus", 1.0, refined) if np.min(np.abs(refined)) <= 1e-10 else refined


def outcomes_by_path(result, count):
    """Per start index: the endpoint, or the PathFailure reason."""
    sols, failures = result
    out = {int(origin.split()[1]): pt for pt, origin in zip(sols.points, sols.provenance)}
    out.update((i, fail.reason) for i, fail in failures)
    assert sorted(out) == list(range(count))
    return [out[i] for i in range(count)]


def test_multi_target_track_all_equals_one_target_at_a_time():
    # The roots of x^3 - 3x - 1, a point where its Jacobian is singular and
    # one root again; the targets differ in support and one loses a root at
    # infinity, so the blocks hold ok, failing and duplicate paths.
    G = univariate({0: -1.0, 1: -3.0, 3: 1.0})
    targets = [univariate({0: -4e4, 2: 1e4}), univariate({0: 2.0, 1: -1.0, 3: 1.0}),
               univariate({0: 0.5 - 1j, 2: 2.0, 3: 1.5j}), univariate({0: -8.0, 3: 1.0})]
    gammas = np.exp(1j * np.array([0.3, 1.9, 4.0, 2.6]))
    starts = [np.array([r + 0j]) for r in np.roots([1, 0, -3, -1])] + [np.array([1.0 + 0j])]
    starts.append(starts[1])
    H = Homotopy.straight_line(G, targets, gammas)
    together = outcomes_by_path(track_all(H, starts * len(targets)), 4 * len(starts))
    assert H.ct.shape == (4, 4) and len(H.targets) == 4
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


def test_targets_sharing_an_endpoint_both_keep_it():
    # (x - 1)(x - 2) and (x - 1)(x - 3) share the root 1; dedup is per target.
    G = univariate({0: -1.0, 2: 1.0})
    targets = [univariate({0: 2.0, 1: -3.0, 2: 1.0}), univariate({0: 3.0, 1: -4.0, 2: 1.0})]
    H = Homotopy.straight_line(G, targets, np.exp(1j * np.array([0.7, 2.2])))
    starts = [np.array([1.0 + 0j]), np.array([-1.0 + 0j])]
    sols, failures = track_all(H, starts * 2)
    assert failures == [] and len(sols) == 4
    roots = {int(origin.split()[1]) // 2: [] for origin in sols.provenance}
    for pt, origin in zip(sols.points, sols.provenance):
        roots[int(origin.split()[1]) // 2].append(round(pt[0].real, 8))
    assert sorted(roots[0]) == [1.0, 2.0] and sorted(roots[1]) == [1.0, 3.0]
    assert all(r <= 1e-8 for r in sols.residuals)
