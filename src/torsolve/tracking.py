"""Straight-line and parameter homotopy tracking with Newton correction.

H(t) = t*F + (1-t)*gamma*G for t running 0 -> 1, with an explicit Euler
predictor on the Davidenko system and at most three Newton corrector steps
per accepted t. gamma is a random unit-modulus twist of the start system;
it leaves V(G) unchanged while steering the path bundle away from the
discriminant for generic data.

A homotopy may hold K targets F_k with one gamma_k each: its P start
points form K equal blocks, block k following t*F_k + (1-t)*gamma_k*G, so
the fiber transfers of a triangular node run as one batch. All paths are
tracked together: a (P, n) array with per-path target row, t, step size,
success streak and step count, and per pass one predictor and corrector
over the running paths on a (P, n, n) Jacobian stack. Each path takes the
steps it would take alone, a failing path drops out without touching the
others, and track_path is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NoConvergenceError, SingularJacobianError
from .supports import SparseSystem, Support, SupportSystem
from .torus import TORUS_THRESHOLD, CompiledSystem, compile_system, stack_exponents

_DIVERGENCE_NORM = 1e8
_TRACK_TORUS_GUARD = 1e-12
_ENDGAME_T = 1.0 - 1e-6
_CORRECTOR_ITERS = 3
_STEP_GROWTH = 1.5
_GROW_AFTER = 4
_COND_LIMIT = 1e12
_STEP_TOL = 1e-8  # relative Newton-step size that counts as converged
_DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class TrackerSettings:
    initial_step: float = 1e-2
    min_step: float = 1e-10
    max_step: float = 1e-1
    newton_tolerance: float = 1e-8
    max_newton_iters: int = 12
    max_steps: int = 4000
    success_residual: float = 1e-8

    def __post_init__(self):
        if not (0 < self.min_step <= self.initial_step <= self.max_step < 1):
            raise ValueError("need 0 < min_step <= initial_step <= max_step < 1")
        if self.newton_tolerance <= 0 or self.success_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_newton_iters < 1 or self.max_steps < 1:
            raise ValueError("iteration limits must be positive")


@dataclass(frozen=True)
class PathFailure:
    reason: str  # step-underflow | divergence | left-torus | max-steps | no-convergence
    t: float
    point: np.ndarray | None = None


@dataclass
class SolutionSet:
    points: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    provenance: list = field(default_factory=list)

    def __len__(self):
        return len(self.points)

    def append(self, point, residual, origin=""):
        self.points.append(np.asarray(point, dtype=complex))
        self.residuals.append(float(residual))
        self.provenance.append(origin)

    def sort(self):
        order = sorted(range(len(self.points)), key=lambda i: sort_key(self.points[i]))
        self.points = [self.points[i] for i in order]
        self.residuals = [self.residuals[i] for i in order]
        self.provenance = [self.provenance[i] for i in order]


def sort_key(point) -> tuple:
    return tuple(v for z in point for v in (round(z.real, 9), round(z.imag, 9)))


def relative_distance(x, y) -> float:
    x = np.asarray(x)
    y = np.asarray(y)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def distinct(points) -> np.ndarray:
    """Mask of the points a greedy pass keeps: in order, a point is dropped
    when its relative_distance to an earlier kept point is below _DEDUP_TOL."""
    keep = np.zeros(len(points), dtype=bool)
    if not len(points):
        return keep
    X = np.asarray(points, dtype=complex)
    mags = np.abs(X).max(axis=1)
    for i in range(len(X)):
        kept = np.flatnonzero(keep[:i])
        dist = np.abs(X[kept] - X[i]).max(axis=1) / np.maximum(1.0, np.maximum(mags[kept], mags[i]))
        keep[i] = not np.any(dist < _DEDUP_TOL)
    return keep


class Homotopy:
    """Convex combinations of a start and K target coefficient vectors on one
    shared support, with one unit gamma per target (or one for all).

    Start and targets are aligned point-for-point on the union of their
    supports (absent monomials get zero coefficients), so a vertex-supported
    or total-degree start system embeds into the targets' coefficient space.
    `ct` holds the K target rows and `targets` the target systems compiled.
    """

    def __init__(self, system: SupportSystem, start_coeffs, target_coeffs, gamma=1.0):
        self.system = system
        sizes = [len(s) for s in system.supports]
        if not target_coeffs or any([len(c) for c in coeffs] != sizes
                                    for coeffs in [start_coeffs, *target_coeffs]):
            raise ValueError("coefficient vectors must match the shared support")
        self.gamma = np.broadcast_to(np.asarray(gamma, dtype=complex), len(target_coeffs)).copy()
        if np.any(np.abs(np.abs(self.gamma) - 1.0) > 1e-9):
            raise ValueError("gamma must have unit modulus")
        self.E, self.starts = stack_exponents(system.supports)
        self.cs = np.concatenate([np.asarray(c, dtype=complex) for c in start_coeffs])
        self.ct = np.array([np.concatenate([np.asarray(c, dtype=complex) for c in coeffs])
                            for coeffs in target_coeffs])
        gcs = self.gamma[:, None] * self.cs
        self._ct_float, self._gcs_float = self.ct.view(float), gcs.view(float)
        self._dc = self.ct - gcs
        self._ET = np.ascontiguousarray(self.E.T)
        self._blocks = [(slice(a, a + m), self.E[a:a + m]) for a, m in zip(self.starts, sizes)]
        self.targets = [CompiledSystem(self.E, self.starts, c) for c in self.ct]

    @property
    def n(self) -> int:
        return self.system.n

    @classmethod
    def straight_line(cls, start: SparseSystem, target, gamma=1.0) -> Homotopy:
        """From `start` to a `target` system or a sequence of K, one gamma each."""
        targets = [target] if isinstance(target, SparseSystem) else list(target)
        if any(T.n != start.n for T in targets):
            raise ValueError("start and target must have the same shape")
        supports = []
        cs_rows = []
        ct_rows = [[] for _ in targets]
        for i in range(start.n):
            s_pairs = dict(start.polynomial(i))
            t_pairs = [dict(T.polynomial(i)) for T in targets]
            union = sorted(set(s_pairs).union(*t_pairs))
            supports.append(Support(tuple(union)))
            cs_rows.append([s_pairs.get(p, 0.0 + 0.0j) for p in union])
            for rows, pairs in zip(ct_rows, t_pairs):
                rows.append([pairs.get(p, 0.0 + 0.0j) for p in union])
        return cls(SupportSystem(tuple(supports)), cs_rows, ct_rows, gamma)

    def state(self, X: np.ndarray, t: np.ndarray, rows: np.ndarray):
        """H, its x-Jacobian, dH/dt and a term-magnitude scale at P points.

        X is (P, n), t is (P,) and rows (P,) are the target rows; the results
        have shapes (P, n), (P, n, n), (P, n) and (P,). Monomials are
        exp(log|x| @ E.T) times cos/sin(arg x @ E.T): two real matmuls and a
        real exp cost a small fraction of a complex matmul and a complex exp.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mag = np.exp(np.log(np.abs(X)) @ self._ET)
            phase = np.angle(X) @ self._ET
            mono = np.empty(mag.shape, dtype=complex)
            np.multiply(mag, np.cos(phase), out=mono.real)
            np.multiply(mag, np.sin(phase), out=mono.imag)
            del mag, phase
            # t*ct + (1-t)*gamma*cs on the interleaved real and imaginary
            # parts; a real t times a complex array goes through cast buffers.
            terms = self._ct_float[rows]
            terms *= t[:, None]
            twisted = self._gcs_float[rows]
            twisted *= (1.0 - t)[:, None]
            terms += twisted
            del twisted
            terms = terms.view(complex)
            terms *= mono
            values = np.add.reduceat(terms, self.starts, axis=1)
            mono *= self._dc[rows]
            dt = np.add.reduceat(mono, self.starts, axis=1)
            scale = np.maximum(1.0, np.add.reduceat(np.abs(terms), self.starts, axis=1).max(axis=1))
            jac = np.empty((len(X), self.n, self.n), dtype=complex)
            for i, (block, Eb) in enumerate(self._blocks):
                np.matmul(terms.real[:, block], Eb, out=jac.real[:, i])
                np.matmul(terms.imag[:, block], Eb, out=jac.imag[:, i])
            jac /= X[:, None, :]
        return values, jac, dt, scale

    def evaluate(self, x: np.ndarray, t: float) -> np.ndarray:
        """H_k(x, t) for every target row k at a single point x: (K, n)."""
        K = len(self.ct)
        X = np.repeat(np.asarray(x, dtype=complex)[None, :], K, axis=0)
        return self.state(X, np.full(K, float(t)), np.arange(K))[0]


def track_path(H: Homotopy, x0, settings: TrackerSettings | None = None):
    """Track one solution of gamma*G from t=0 to a solution of F at t=1.

    Returns the refined endpoint or a PathFailure naming what went wrong.
    Near t=1 the tracker hands off to plain Newton on the target; endgames
    for singular endpoints are out of scope.
    """
    return _track(H, [x0], settings or TrackerSettings())[0]


def _track(H: Homotopy, starts, settings: TrackerSettings) -> list:
    """Track every start point together; one endpoint or PathFailure each."""
    X = np.asarray(starts, dtype=complex).reshape(len(starts), H.n)
    P = len(X)
    if P % len(H.ct):
        raise ValueError(f"{P} start points do not split into {len(H.ct)} equal blocks")
    rows = np.repeat(np.arange(len(H.ct)), P // len(H.ct))  # block k follows target k
    t, step = np.zeros(P), np.full(P, settings.initial_step)
    streak, nsteps = np.zeros((2, P), dtype=int)
    running = np.ones(P, dtype=bool)
    outcomes = [None] * P

    def fail(paths, reason):
        running[paths] = False
        for i in paths:
            outcomes[i] = PathFailure(reason, float(t[i]), X[i].copy())

    # Overflow and NaN are caught per path by the finiteness checks.
    with np.errstate(all="ignore"):
        while True:
            live = np.flatnonzero(running & (t < _ENDGAME_T))
            fail(live[nsteps[live] >= settings.max_steps], "max-steps")
            live = live[running[live]]
            if not live.size:
                break
            nsteps[live] += 1
            t0 = t[live]
            dt = np.minimum(step[live], 1.0 - t0)
            _, jac, dvals, _ = H.state(X[live], t0, rows[live])
            tangent, ok = _solve(jac, -dvals)
            corrected, xn = _correct(H, X[live] + dt[:, None] * tangent, t0 + dt, rows[live],
                                     settings)
            ok &= corrected & np.isfinite(xn).all(axis=1)

            won, lost = live[ok], live[~ok]
            X[won] = xn[ok]
            t[won] = (t0 + dt)[ok]
            streak[won] += 1
            size = np.abs(X[won])
            diverged = size.max(axis=1) > _DIVERGENCE_NORM
            fail(won[diverged], "divergence")
            fail(won[~diverged & (size.min(axis=1) < _TRACK_TORUS_GUARD)], "left-torus")
            grow = won[streak[won] >= _GROW_AFTER]
            step[grow] = np.minimum(step[grow] * _STEP_GROWTH, settings.max_step)
            streak[grow] = 0

            streak[lost] = 0
            step[lost] *= 0.5
            fail(lost[step[lost] < settings.min_step], "step-underflow")

    for i in np.flatnonzero(running):
        try:
            refined, _ = _newton(H.targets[rows[i]], X[i], settings)
        except (SingularJacobianError, NoConvergenceError):
            outcomes[i] = PathFailure("no-convergence", 1.0, X[i].copy())
            continue
        if float(np.min(np.abs(refined))) <= TORUS_THRESHOLD:
            outcomes[i] = PathFailure("left-torus", 1.0, refined)
        else:
            outcomes[i] = refined
    return outcomes


def _solve(A, b):
    """Solve the stack A x = b; returns (x, ok). A singular matrix fails its row only."""
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        if len(b) == 1:
            return np.zeros_like(b), np.zeros(1, dtype=bool)
    parts = [_solve(A[k:k + 1], b[k:k + 1]) for k in range(len(b))]
    return np.concatenate([x for x, _ in parts]), np.concatenate([ok for _, ok in parts])


def _correct(H: Homotopy, X, t, rows, settings):
    """At most three Newton steps on H(., t) for every row of X; success is
    a small residual relative to the term magnitudes. Returns (ok, X)."""
    ok = np.zeros(len(X), dtype=bool)
    todo = np.arange(len(X))
    for _ in range(_CORRECTOR_ITERS):
        values, jac, _, scale = H.state(X[todo], t[todo], rows[todo])
        done = np.abs(values).max(axis=1) <= settings.newton_tolerance * scale
        ok[todo[done]] = True
        delta, solved = _solve(jac[~done], -values[~done])
        todo = todo[~done][solved]
        X[todo] += delta[solved]
        x = X[todo]
        todo = todo[np.isfinite(x).all(axis=1) & ~(np.abs(x) < _TRACK_TORUS_GUARD).any(axis=1)]
        if not todo.size:
            return ok, X
    values, _, _, scale = H.state(X[todo], t[todo], rows[todo])
    ok[todo] = np.abs(values).max(axis=1) <= settings.newton_tolerance * scale
    return ok, X


def _newton(compiled: CompiledSystem, x, settings: TrackerSettings):
    x = np.asarray(x, dtype=complex).copy()
    values = compiled.evaluate(x)
    res = float(np.max(np.abs(values)))
    if res <= 0.01 * settings.success_residual:
        return x, res
    step_small = False
    for it in range(settings.max_newton_iters):
        values, jac = compiled.eval_and_jacobian(x)
        res = float(np.max(np.abs(values)))
        if res <= settings.success_residual and step_small:
            return x, res
        if it == 0:
            cond = np.linalg.cond(jac)
            if not np.isfinite(cond) or cond > _COND_LIMIT:
                raise SingularJacobianError(f"Jacobian condition estimate {cond:.2e}")
        try:
            delta = np.linalg.solve(jac, -values)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(str(exc)) from exc
        x = x + delta
        if not np.all(np.isfinite(x)):
            raise NoConvergenceError("Newton iterate left the finite range")
        step_small = float(np.max(np.abs(delta))) <= _STEP_TOL * (1.0 + float(np.max(np.abs(x))))
    res = compiled.residual(x)
    if res <= settings.success_residual and step_small:
        return x, res
    raise NoConvergenceError(f"residual {res:.2e} after {settings.max_newton_iters} iterations")


def newton_refine(F: SparseSystem | CompiledSystem, x, settings: TrackerSettings | None = None):
    """Refine x to a root of F; returns (point, max-norm residual).

    Raises SingularJacobianError for an ill-conditioned Jacobian and
    NoConvergenceError when quadratic convergence does not materialize.
    """
    settings = settings or TrackerSettings()
    compiled = F if isinstance(F, CompiledSystem) else compile_system(F)
    return _newton(compiled, x, settings)


def track_all(H: Homotopy, starts, settings: TrackerSettings | None = None):
    """Track every start point; deduplicate and sort the successes.

    With K targets the starts form K equal blocks, block k tracked toward
    target k and deduplicated on its own. Returns (SolutionSet, failures)
    where failures is a list of (start index, PathFailure) and a success
    comes from "path {start index}". Duplicate endpoints are recorded as
    warnings in the failure list with reason "duplicate-endpoint".
    """
    settings = settings or TrackerSettings()
    points = starts.points if isinstance(starts, SolutionSet) else list(starts)
    outcomes = _track(H, points, settings)
    size = len(points) // len(H.ct)
    ends = [i for i, out in enumerate(outcomes) if not isinstance(out, PathFailure)]
    kept = set()
    for k in range(len(H.ct)):
        block = [i for i in ends if k * size <= i < (k + 1) * size]
        kept.update(i for i, keep in zip(block, distinct([outcomes[i] for i in block])) if keep)

    solutions = SolutionSet()
    failures = []
    for i, out in enumerate(outcomes):
        if isinstance(out, PathFailure):
            failures.append((i, out))
        elif i in kept:
            solutions.append(out, H.targets[i // size].residual(out), origin=f"path {i}")
        else:
            failures.append((i, PathFailure("duplicate-endpoint", 1.0, out)))
    solutions.sort()
    return solutions, failures
