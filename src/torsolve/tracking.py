"""Straight-line and parameter homotopy tracking with Newton correction.

H(t) = t*F + (1-t)*gamma*G for t running 0 -> 1, with a cubic Hermite
predictor through a path's last two accepted points and their tangents on
the Davidenko system (Euler on its first step) and at most three Newton
corrector steps per accepted t. An accepted step scales by (tau/delta)^(1/4)
for the cubic predictor, delta its error as the corrector just measured it;
a rejected one halves, even when 1 - t clipped it. gamma is a random
unit-modulus twist of the start system; it leaves V(G) unchanged while
steering the path bundle away from the discriminant for generic data.

A homotopy may hold K targets F_k with one gamma_k each: its P start
points form K equal blocks, block k following t*F_k + (1-t)*gamma_k*G, so
the fiber transfers of a triangular node run as one batch. All paths are
tracked together, one predictor and corrector per pass over the running
paths on a (P, n, n) Jacobian stack. Each path takes the steps it would
take alone, and a failing path drops out without touching the others.

One state per tracker point: each path keeps J^-1 dH/dt (minus its
tangent) at its current (x, t), from the corrector iteration that accepted
the point, and the Hermite terms of its previous point, so the next
predictor evaluates and solves nothing; a path accepted at t = 1 also
keeps H and its Jacobian there for the endgame Newton's first iteration.
A pass is bound by numpy's per-call cost, so the running paths' arrays are
compacted only when some path ends, the corrector works in place, and one
batched solve takes the Newton steps of the rows still correcting and the
tangents of the rows that converged.

A target system is the homotopy at t = 1, so Homotopy.state is the one
evaluator: the endgame Newton, one batch for all the paths of a homotopy
that reach _ENDGAME_T (several only when a count stop is near), and the
refinement of a family's candidates, one batched Newton on its K rows.
The points each row keeps are deduplicated and sorted in one pass over
all rows (_kept_order), as track_all's endpoints are in their blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NoConvergenceError, SingularJacobianError
from .supports import SparseSystem, Support, SupportSystem
from .torus import TORUS_THRESHOLD, monomials, power_table

_DIVERGENCE_NORM = 1e8
_TRACK_TORUS_GUARD = 1e-12
_ENDGAME_T = 1.0 - 1e-6
_CORRECTOR_ITERS = 3
_NEWTON_ITERS = 12
_STEP_START = 1e-2
_STEP_FLOOR = 1e-10
_STEP_CEILING = 0.25
_STEP_TOL_PREDICT = 2e-2  # corrector displacement, relative to 1 + |x|, that keeps a step
_MAX_PATH_STEPS = 4000
_COND_LIMIT = 1e12
_STEP_TOL = 1e-8  # relative Newton-step size that counts as converged
_DEDUP_TOL = 1e-6
_NO_ROWS = np.zeros(0, dtype=np.intp)


@dataclass(frozen=True)
class TrackerSettings:
    """The tracker's one tolerance: the corrector's residual bound relative
    to the term magnitudes, and the max-norm residual at which Newton
    accepts a root."""

    tolerance: float = 1e-8

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")


@dataclass(frozen=True)
class PathFailure:
    reason: str  # step-underflow | divergence | left-torus | max-steps | no-convergence
    #              | count-reached (still running when track_all's expected count was in)
    #              | duplicate-endpoint (track_all: a kept endpoint's repeat)
    t: float
    point: np.ndarray | None = None


@dataclass
class SolutionSet:
    """Solutions as arrays: an (N, n) stack of points, their (N,) max-norm
    residuals and one provenance string each, in _solution_order. The
    solver's sets are slices of one stack per family, so a row without
    roots is a (0, n) stack; SolutionSet() is the empty set, (0, 0)."""

    points: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=complex))
    residuals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    provenance: list = field(default_factory=list)

    def __len__(self):
        return len(self.points)


def relative_distance(x, y) -> float:
    x = np.asarray(x)
    y = np.asarray(y)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def _relative_gaps(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """relative_distance between the rows of A and B, pair by pair; a
    single row broadcasts."""
    scale = np.maximum(1.0, np.maximum(np.abs(A).max(axis=1), np.abs(B).max(axis=1)))
    return np.abs(A - B).max(axis=1) / scale


def distinct(points, rows=None) -> np.ndarray:
    """Mask of the points a greedy pass keeps: in order, a point is dropped
    when its relative_distance to an earlier kept point of its row rows[i]
    (all one row without `rows`) is below _DEDUP_TOL.

    Two points that close differ in the real part of their first coordinate
    by less than _DEDUP_TOL * max(1, the largest |x|inf of the set), which
    bounds every pair's own scale from above, so only the pairs of one row
    within that window of one sort by row and that real part are measured."""
    X = np.asarray(points, dtype=complex)
    keep = np.ones(len(X), dtype=bool)
    if len(X) < 2:
        return keep
    rows = np.zeros(len(X), dtype=np.intp) if rows is None else np.asarray(rows, dtype=np.intp)
    # A complex key sorts by the row, then the real part. Sorted position p pairs
    # with p + 1 .. last[p]; the window, one part in 1e9 wider, loses no pair to rounding.
    key = rows + 1j * X[:, 0].real
    order = np.argsort(key, kind="stable")
    key = key[order]
    window = _DEDUP_TOL * max(1.0, float(np.abs(X).max())) * (1 + 1e-9)
    counts = np.searchsorted(key, key + 1j * window, side="right") - np.arange(1, len(X) + 1)
    first = np.repeat(np.arange(len(X)), counts)
    second = first + 1 + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[first], order[second]
    close = _relative_gaps(X[a], X[b]) < _DEDUP_TOL
    # Each close pair as (later, earlier), in order: an earlier point is
    # settled before any pair of a later one is read.
    for i, k in sorted(zip(np.maximum(a, b)[close].tolist(), np.minimum(a, b)[close].tolist())):
        if keep[k]:
            keep[i] = False
    return keep


def _solution_order(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The order of a solution set: the indices of the (P, n) stack X by row
    rows[i], then by the coordinates' real and imaginary parts rounded to 9
    decimals, first coordinate first; ties in index order."""
    keys = np.round(X.view(float), 9)
    return np.lexsort([*keys.T[::-1], rows])


def _kept_order(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The indices of the points of the (P, n) stack X that distinct keeps in
    their row, in _solution_order."""
    kept = np.flatnonzero(distinct(X, rows))
    return kept[_solution_order(X[kept], rows[kept])]


def _solution_sets(X, residuals, origins, rows, K, order) -> list[SolutionSet]:
    """Per row k < K the SolutionSet of the points X[i], residuals[i] and
    origins[i] for the i of `order` with rows[i] == k, in that order: slices
    of one gather, so no set copies its points; `order` lists the rows
    ascending."""
    X, res, rows = X[order], np.asarray(residuals)[order], rows[order]
    origins = [origins[i] for i in order.tolist()]
    cuts = np.searchsorted(rows, np.arange(K + 1)).tolist()
    return [SolutionSet(X[a:b], res[a:b], origins[a:b]) for a, b in zip(cuts, cuts[1:])]


class Homotopy:
    """Convex combinations of a start row and K target rows of coefficients
    on one support, with one unit gamma per target (or one for all).

    A row holds a coefficient for each of the M terms of `system`,
    polynomial by polynomial: the start row has shape (M,) and the targets
    (K, M), held as `cs` and `ct`. A start system on fewer terms has zeros
    on the others, so a vertex-supported or total-degree start embeds into
    the targets' coefficient space. A system F alone is
    Homotopy(F.system, c, [c]) at t = 1, c = np.concatenate(F.coefficients).
    """

    def __init__(self, system: SupportSystem, start, targets, gamma=1.0):
        self.system = system
        self.n = system.n
        sizes = [len(s) for s in system.supports]
        self.cs, self.ct = np.array(start, complex), np.array(targets, complex, order="C")
        M = sum(sizes)
        if self.cs.shape != (M,) or self.ct.ndim != 2 or self.ct.shape[1] != M or not len(self.ct):
            raise ValueError(f"coefficient rows must be a start of shape ({M},) and targets of "
                             f"shape (K, {M}), K >= 1; got {self.cs.shape} and {self.ct.shape}")
        self.gamma = np.full(len(self.ct), gamma, dtype=complex)
        if np.any(np.abs(np.abs(self.gamma) - 1.0) > 1e-9):
            raise ValueError("gamma must have unit modulus")
        # All monomials stacked, one row each, and the first row of each polynomial.
        points = [p for s in system.supports for p in s.points]
        self.E = np.array(points, dtype=float)
        self.starts = np.cumsum([0, *sizes[:-1]], dtype=np.intp)
        gcs = self.gamma[:, None] * self.cs
        # Per target: ct and gamma*cs as interleaved floats, and dH/dt's coefficients.
        self._coeffs = (self.ct.view(float), gcs.view(float), self.ct - gcs)
        self._blocks = [(slice(a, a + m), self.E[a:a + m]) for a, m in zip(self.starts, sizes)]
        self._exps, self._columns = power_table(points)

    @classmethod
    def straight_line(cls, start: SparseSystem, target, gamma=1.0) -> Homotopy:
        """From `start` to a `target` system or a sequence of K, one gamma each."""
        targets = [target] if isinstance(target, SparseSystem) else list(target)
        if any(T.n != start.n for T in targets):
            raise ValueError("start and target must have the same shape")
        supports, cs, ct = [], [], [[] for _ in targets]
        for i in range(start.n):
            s_pairs = dict(start.polynomial(i))
            t_pairs = [dict(T.polynomial(i)) for T in targets]
            union = sorted(set(s_pairs).union(*t_pairs))
            supports.append(Support(tuple(union)))
            for row, pairs in zip([cs, *ct], [s_pairs, *t_pairs]):
                row += [pairs.get(p, 0j) for p in union]
        return cls(SupportSystem(tuple(supports)), cs, ct, gamma)

    def state(self, X: np.ndarray, t: np.ndarray, rows: np.ndarray):
        """H, its x-Jacobian, dH/dt and a term-magnitude scale at P points.

        X is (P, n), t is (P,) and rows (P,) are the target rows; the results
        have shapes (P, n), (P, n, n), (P, n) and (P,). The monomials come
        from torus.monomials, the one kernel that monomial maps and fiber
        restriction use too: an integer power below 100 is taken by repeated
        squaring, with no log, exp or trigonometric function.

        The caller owns np.errstate: the tracker and Newton evaluate under
        np.errstate(all="ignore") and catch overflow and NaN per row.
        """
        mono = monomials(X, self._exps, self._columns)
        # t*ct + (1-t)*gamma*cs on the interleaved real and imaginary parts;
        # a real t times a complex array goes through cast buffers. One
        # target broadcasts its coefficient rows instead of gathering them.
        ct, gcs, dc = self._coeffs if len(self.ct) == 1 else [c.take(rows, 0) for c in self._coeffs]
        tc = t[:, None]
        terms = ct * tc
        terms += gcs * (1.0 - tc)
        terms = terms.view(complex)
        terms *= mono
        values = np.add.reduceat(terms, self.starts, axis=1)
        mono *= dc
        dt = np.add.reduceat(mono, self.starts, axis=1)
        sums = np.add.reduceat(np.abs(terms), self.starts, axis=1)
        scale = np.maximum(1.0, np.maximum.reduce(sums, axis=1))
        # x_j dH_i/dx_j, one matmul per polynomial for the real and the
        # imaginary parts of its terms, stacked on a leading axis of 2.
        jac = np.empty((len(X), self.n, self.n), dtype=complex)
        parts = terms.view(float).reshape(len(X), len(self.E), 2).transpose(2, 0, 1)
        out = jac.view(float).reshape(len(X), self.n, self.n, 2).transpose(3, 0, 1, 2)
        for i, (block, Eb) in enumerate(self._blocks):
            np.matmul(parts[:, :, block], Eb, out=out[:, :, i])
        jac /= X[:, None, :]
        return values, jac, dt, scale


def _track(H: Homotopy, starts, settings: TrackerSettings, expected: int | None = None):
    """Track every start point together; returns (outcomes, residuals): one
    endpoint or PathFailure each, and each endpoint's residual on its target.

    An accepted step of size s whose corrector moved the prediction by
    delta relative to 1 + |x| is followed by s * clip((_STEP_TOL_PREDICT /
    delta)^(1/4), 1/4, 2), capped at _STEP_CEILING; a rejected step halves.
    Paths that reach _ENDGAME_T queue for the endgame Newton, run as one
    batch when no path is left running or, with `expected` (one target
    only), once the distinct endpoints in plus the queue could make that
    count; the paths still running when it is in end "count-reached"."""
    X = np.asarray(starts, dtype=complex).reshape(len(starts), H.n)
    P = len(X)
    if P % len(H.ct):
        raise ValueError(f"{P} start points do not split into {len(H.ct)} equal blocks")
    if expected is not None and len(H.ct) != 1:
        raise ValueError("an expected count needs a homotopy with one target")
    outcomes = [None] * P
    residuals = np.full(P, np.nan)
    found = []  # distinct endpoints so far
    queue = []  # per pass: start index, point, target row and t = 1 of the paths to refine
    # The running paths in start order, compacted when some end: start index,
    # target row (block k follows target k), point, t, step, v = J^-1 dH/dt
    # minus the tangent (NaN where J is singular) and _predict's (e, g, d),
    # zero (Euler) before a first step. H, J at t = 1 go by start index.
    ids, rows = np.arange(P), np.repeat(np.arange(len(H.ct)), P // len(H.ct))
    t, step = np.zeros(P), np.full(P, _STEP_START)
    e, g, d = np.zeros_like(X), np.zeros_like(X), np.ones(P)
    at_one = (np.empty((P, H.n), dtype=complex), np.empty((P, H.n, H.n), dtype=complex))
    passes = 0  # every running path takes every pass: this is its step count

    def fail(paths, reason):
        for k in paths:
            outcomes[ids[k]] = PathFailure(reason, float(t[k]), X[k].copy())

    def endgame():
        idx, points, targets, one = (np.concatenate(a) for a in zip(*queue))
        queue.clear()
        newton = _newton(H, points, targets, settings, (one, at_one[0][idx], at_one[1][idx]))
        for i, x, refined, res, error in zip(idx, points, *newton):
            if error is not None:
                outcomes[i] = PathFailure("no-convergence", 1.0, x.copy())
            elif float(np.min(np.abs(refined))) <= TORUS_THRESHOLD:
                outcomes[i] = PathFailure("left-torus", 1.0, refined)
            else:
                outcomes[i], residuals[i] = refined, res
                if expected is not None:
                    gaps = _relative_gaps(np.reshape(found, (-1, H.n)), refined[None])
                    if not (gaps < _DEDUP_TOL).any():
                        found.append(refined)

    # Overflow and NaN are caught per path by the finiteness checks.
    with np.errstate(all="ignore"):
        _, jac, dt, _ = H.state(X, t, rows)
        v = _solve(jac, dt)[0]
        while len(ids):
            if expected is not None and len(found) >= expected:
                fail(range(len(ids)), "count-reached")
                break
            if passes == _MAX_PATH_STEPS:
                fail(range(len(ids)), "max-steps")
                break
            passes += 1
            t1 = t + np.minimum(step, 1.0 - t)
            h = t1 - t
            xp = _predict(X, v, h, e, g, d)  # NaN: rejected
            at, xn, vn, ends, *state = _correct(H, xp.copy(), t1, rows, settings)
            if ends.size:
                at_one[0][ids[ends]], at_one[1][ids[ends]] = state
            new = (xn, vn, X - xn - h[:, None] * vn, h[:, None] * (vn - v))
            size = np.abs(xn)
            top = np.maximum.reduce(size, axis=1)
            far = top > _DIVERGENCE_NORM
            near = np.minimum.reduce(size, axis=1) < _TRACK_TORUS_GUARD
            # (tau / delta)^(1/4), delta the corrector's move relative to 1 + |x|.
            ratio = _STEP_TOL_PREDICT * (1.0 + top) / np.maximum.reduce(np.abs(xn - xp), axis=1)
            factor = np.minimum(np.maximum(np.sqrt(np.sqrt(ratio)), 0.25), 2.0)
            grown = np.minimum(step * factor, _STEP_CEILING)
            if at.size == len(ids):  # every step accepted
                (X, v, e, g), t, d, step, won = new, t1, h, grown, None
            else:
                won = np.zeros(len(ids), dtype=bool)
                won[at] = True
                X, v, e, g = (np.where(won[:, None], a, b) for a, b in zip(new, (X, v, e, g)))
                t, d = np.where(won, t1, t), np.where(won, h, d)
                step = np.where(won, grown, 0.5 * h)  # a step clipped to 1 - t shrinks too
                far &= won  # only a step just taken moved X
                near &= won
            short, late = step < _STEP_FLOOR, t >= _ENDGAME_T
            gone = far | near | short | late
            if gone.nonzero()[0].size:
                fail(short.nonzero()[0], "step-underflow")  # the reasons below win over it
                fail(far.nonzero()[0], "divergence")
                fail((near & ~far).nonzero()[0], "left-torus")
                paths = (late & ~far & ~near).nonzero()[0]
                if paths.size:
                    queue.append((ids[paths], X[paths], rows[paths], t[paths] == 1.0))
                ids, rows, X, t, step, e, g, d, v = (
                    a[~gone] for a in (ids, rows, X, t, step, e, g, d, v))
                if expected is not None and len(found) + sum(len(q[0]) for q in queue) >= expected:
                    endgame()
        if queue:
            endgame()
    return outcomes, residuals


def _predict(X, V, h, e, g, d):
    """The cubic Hermite extrapolant to t + h through each path's point X
    at t and its previous accepted point at t - d, whose tangents are -V
    and -V0, from e = X0 - X - d*V and g = d*(V - V0); Euler where e and g
    are zero. A NaN row of V gives a NaN prediction."""
    r = (h / d)[:, None]
    return X - h[:, None] * V + r * r * ((3.0 + 2.0 * r) * e + (1.0 + r) * g)


def _solve(A, b):
    """Solve the stack A x = b, b (P, n), bit for bit as np.linalg.solve but
    without its checks; returns (x, singular): an exactly singular matrix
    fails its row only, which is NaN and listed in `singular`."""
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            return _umath_linalg.solve1(A, b, signature="DD->D"), _NO_ROWS
    except FloatingPointError:
        if len(b) == 1:
            return np.full_like(b, np.nan), np.zeros(1, dtype=np.intp)
    parts = [_solve(A[k:k + 1], b[k:k + 1]) for k in range(len(b))]
    return (np.concatenate([x for x, _ in parts]),
            np.array([k for k, (_, bad) in enumerate(parts) if bad.size], dtype=np.intp))


def _correct(H: Homotopy, X, t, rows, settings):
    """At most three Newton steps on H(., t) for every finite row of X, in
    place, on the rows still correcting; success is a small residual
    relative to the term magnitudes. Returns (at, X, V, at1, H, J): the rows
    that succeed; X with their corrected points and V with J^-1 dH/dt there
    (NaN where J is singular), from the batched solve that also takes the
    other rows' Newton steps; and the rows that succeed at t = 1, with H and
    the x-Jacobian there. X and V hold no result in the other rows."""
    V = np.empty_like(X)
    won = np.zeros(len(X), dtype=bool)
    at = np.logical_and.reduce(np.isfinite(X), axis=1).nonzero()[0]
    Xa, ta, ra = (X, t, rows) if at.size == len(X) else (X.take(at, 0), t[at], rows[at])
    if one := at.size and np.maximum.reduce(ta) == 1.0:  # some row may succeed at t = 1
        H1, J1 = np.empty_like(X), np.empty((len(X), H.n, H.n), dtype=complex)
    for it in range(_CORRECTOR_ITERS + 1):
        values, jac, dt, scale = H.state(Xa, ta, ra)
        done = np.maximum.reduce(np.abs(values), axis=1) <= settings.tolerance * scale
        # J y = dH/dt (rows done) or H (the rest): y is exactly minus the tangent or Newton step.
        y = _solve(jac, np.where(done[:, None], dt, values))[0]
        won[at], V[at] = done, y
        if one:
            H1[at], J1[at] = values, jac
        if Xa is not X:
            X[at] = Xa
        if it == _CORRECTOR_ITERS:  # the rows still correcting fail
            break
        more = ~done
        np.subtract(Xa, y, out=Xa, where=more[:, None])  # a singular row turns NaN
        more &= np.logical_and.reduce(np.isfinite(Xa) & (np.abs(Xa) >= _TRACK_TORUS_GUARD), axis=1)
        k = more.nonzero()[0]
        if not k.size:
            break
        if k.size < at.size:
            at, Xa, ta, ra = at[k], Xa.take(k, 0), ta[k], ra[k]
    ends = (won & (t == 1.0)).nonzero()[0] if one else _NO_ROWS
    H1, J1 = (H1, J1) if one else (values, jac)
    return won.nonzero()[0], X, V, ends, H1[ends], J1[ends]


def _newton(H: Homotopy, X, rows, settings: TrackerSettings, known=None):
    """Newton on the target rows of H at t = 1, from every row of X at once.

    Returns (X, residuals, errors): the refined points, their max-norm
    residuals and per row None or the SingularJacobianError or
    NoConvergenceError it failed with. A row stops before any step when its
    residual is at most 0.01 * settings.tolerance, its Jacobian's condition
    is checked on the first iteration only, and it converges when its
    residual is at most settings.tolerance after a small step. Each row
    takes the steps it would take alone, and a failing row, even a
    non-finite one, fails only itself. `known` is (mask, values, Jacobians):
    the rows in the mask take their first H and Jacobian at t = 1 from it.
    """
    X = np.array(X, dtype=complex)
    res = np.full(len(X), np.nan)
    errors = [None] * len(X)
    todo, ones = np.arange(len(X)), np.ones(len(X))
    Y = X  # the rows todo of X, gathered once some row leaves
    # Overflow and NaN are caught per row by the finiteness checks.
    with np.errstate(all="ignore"):
        for it in range(_NEWTON_ITERS + 1):
            if not todo.size:
                break
            if it == 0 and known is not None:
                mask, values, jac = known
                fresh = np.flatnonzero(~mask)
                if fresh.size:
                    values[fresh], jac[fresh], _, _ = H.state(X[fresh], ones[:fresh.size],
                                                              rows[fresh])
            else:
                values, jac, _, _ = H.state(Y, ones[:todo.size], rows.take(todo))
            res[todo] = r = np.maximum.reduce(np.abs(values), axis=1)
            done = r <= 0.01 * settings.tolerance if it == 0 else (r <= settings.tolerance) & small
            if it == 0:  # the rows about to take their first step
                cond = np.full(len(todo), np.inf)
                finite = np.logical_and.reduce(np.isfinite(jac), axis=(1, 2)) & ~done
                cond[finite] = np.linalg.cond(jac[finite])
                bad = (~done & ~(cond <= _COND_LIMIT)).nonzero()[0]
                for i, c in zip(todo.take(bad), cond.take(bad)):
                    errors[i] = SingularJacobianError(f"Jacobian condition estimate {c:.2e}")
                done[bad] = True
            keep = (~done).nonzero()[0]
            if keep.size < todo.size:
                todo, Y, values, jac = (a.take(keep, 0) for a in (todo, Y, values, jac))
            if it == _NEWTON_ITERS:
                for i in todo:
                    errors[i] = NoConvergenceError(
                        f"residual {res[i]:.2e} after {_NEWTON_ITERS} iterations")
                break
            delta, singular = _solve(jac, -values)
            if singular.size:
                for i in todo[singular]:
                    errors[i] = SingularJacobianError("Singular matrix")
                todo, Y, delta = (np.delete(a, singular, axis=0) for a in (todo, Y, delta))
            Y = Y + delta
            X[todo] = Y
            finite = np.logical_and.reduce(np.isfinite(Y), axis=1)
            if not finite.all():
                for i in todo[~finite]:
                    errors[i] = NoConvergenceError("Newton iterate left the finite range")
                todo, Y, delta = (a[finite] for a in (todo, Y, delta))
            size = 1.0 + np.maximum.reduce(np.abs(Y), axis=1)
            small = np.maximum.reduce(np.abs(delta), axis=1) <= _STEP_TOL * size
    return X, res, errors


def track_all(H: Homotopy, starts, settings: TrackerSettings | None = None,
              expected: int | None = None):
    """Track every start point; deduplicate and sort the successes.

    With K targets the starts form K equal blocks, block k tracked toward
    target k and deduplicated on its own. Returns (SolutionSet, failures)
    where failures is a list of (start index, PathFailure) and a success
    comes from "path {start index}". The successes are in _solution_order
    with their block as the row: block 0's first, each block sorted.
    Duplicate endpoints are recorded as warnings in the failure list with
    reason "duplicate-endpoint". With one target, `expected` stops the
    tracking once that many distinct endpoints are in; each path still
    running is then a "count-reached" failure, and every endpoint in is the
    one a full run gives its path.
    """
    settings = settings or TrackerSettings()
    points = starts.points if isinstance(starts, SolutionSet) else starts
    outcomes, residuals = _track(H, points, settings, expected)
    ends = np.flatnonzero([not isinstance(out, PathFailure) for out in outcomes])
    X = np.array([outcomes[i] for i in ends], dtype=complex).reshape(len(ends), H.n)
    order = _kept_order(X, ends // (len(points) // len(H.ct)))
    kept = ends[order]
    solutions = SolutionSet(X[order], residuals[kept], [f"path {i}" for i in kept])
    for i in set(ends.tolist()).difference(kept.tolist()):
        outcomes[i] = PathFailure("duplicate-endpoint", 1.0, outcomes[i])
    failures = [(i, out) for i, out in enumerate(outcomes) if isinstance(out, PathFailure)]
    return solutions, failures
