"""Recursive solver for decomposable sparse systems, plus start systems.

The main entry point classifies the supports, then either extracts roots
through a monomial covering (lacunary), or solves a subsystem first and
fills the fiber over each of its other solutions (triangular): one-variable
fibers at once as companion-matrix eigenvalues, other fibers (and those the
eigensolve leaves short) by transfers from the first fiber tracked as one
multi-target homotopy, short transfers again on fresh gammas, and a fiber
whose transfer fails every gamma solved directly. Otherwise it falls back
to a black box: companion-matrix eigenvalues for one variable,
hidden-variable resultant eigenvalues for two, a total-degree homotopy
otherwise or when those come up short. All three homotopies go through
_tracked, in coordinates from _compacted. Recursion terminates because
each level decreases either the mixed volume or the number of variables.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .decompose import (
    DecompositionTree,
    Indecomposable,
    Lacunary,
    Triangular,
    classify,
    predict_tree,
)
from .errors import CountMismatchError, DegenerateFiberError
from .geometry import hull_mixed_volume
from .intlinalg import IntMatrix, unimodular_inverse
from .supports import SparseSystem, SupportSystem, normalize, vertices
from .torus import (
    TORUS_THRESHOLD,
    MonomialMap,
    apply as torus_apply,
    diagonal_fiber,
    relabel,
    restrict_to_fibers,
)
from .tracking import (
    Homotopy,
    SolutionSet,
    TrackerSettings,
    _newton,
    distinct,
    track_all,
)

_MAX_GAMMA_RETRIES = 3


@dataclass
class SolveReport:
    solutions: SolutionSet
    tree: DecompositionTree
    paths_tracked: int
    blackbox_calls: int
    seed: int | None = None
    warnings: list[str] = field(default_factory=list)


def _unit(rng) -> complex:
    """Uniform point on the complex unit circle."""
    return complex(np.exp(2j * np.pi * rng.random()))


def _report(sols, tree, seed, warnings=None) -> SolveReport:
    calls = sum(1 for nd in tree.walk() if nd.kind in ("blackbox", "univariate"))
    return SolveReport(
        solutions=sols,
        tree=tree,
        paths_tracked=tree.ledger(),
        blackbox_calls=calls,
        seed=seed,
        warnings=warnings or [],
    )


def _entry(solve, F: SparseSystem, seed: int, settings: TrackerSettings | None, *args):
    """Run one of the recursive solvers below on normalized F, as the root."""
    F, _ = normalize(F)
    return solve(F, *args, np.random.SeedSequence(seed), settings or TrackerSettings(), "")


def solve_decomposable(F: SparseSystem, seed: int = 0,
                       settings: TrackerSettings | None = None) -> SolveReport:
    """All isolated torus solutions of a generic decomposable sparse system."""
    return _report(*_entry(_solve, F, seed, settings), seed)


def solve_lacunary(F: SparseSystem, classification: Lacunary, seed: int = 0,
                   settings: TrackerSettings | None = None) -> SolveReport:
    return _report(*_entry(_solve_lacunary, F, seed, settings, classification), seed)


def solve_triangular(F: SparseSystem, classification: Triangular, seed: int = 0,
                     settings: TrackerSettings | None = None) -> SolveReport:
    return _report(*_entry(_solve_triangular, F, seed, settings, classification), seed)


def blackbox(F: SparseSystem, seed: int = 0,
             settings: TrackerSettings | None = None) -> SolutionSet:
    """Structure-free fallback solver; asserts the count equals the MV."""
    return _entry(_blackbox, F, seed, settings, predict_tree(F.system).mv)[0]


def decomposable_start_system(S: SupportSystem, seed: int = 0,
                              settings: TrackerSettings | None = None):
    """Random unit-modulus system on the vertex supports, fully solved.

    Returns (G, V(G)); the vertex system has the same mixed volume as S, so
    V(G) seeds a straight-line homotopy to any system supported on S.
    """
    S, _ = normalize(S)
    G, sols, _ = _vertex_start(S, np.random.SeedSequence(seed), settings or TrackerSettings())
    return G, sols


def solve_general(F: SparseSystem, seed: int = 0,
                  settings: TrackerSettings | None = None) -> SolveReport:
    """Solve any sparse system with finite V(F) via a decomposable start.

    Builds the vertex start system, tracks the straight-line homotopy to F,
    and reports partial results with warnings when endpoints are lost (no
    endgames; non-generic targets may come up short).
    """
    settings = settings or TrackerSettings()
    F, _ = normalize(F)
    ss = np.random.SeedSequence(seed)
    G, start_sols, start_tree = _vertex_start(F.system, ss, settings)
    expected = len(start_sols)
    F_c, (G_c,), back, start_points = _compacted(F, [G], start_sols.points)

    rng = np.random.default_rng(ss.spawn(1)[0])
    warnings = []
    best = SolutionSet()
    for attempt in range(2):
        (ends,), failures = _tracked(G_c, [F_c], [_unit(rng)], start_points, back, settings)
        found = _refined(F, zip(ends.points, ends.provenance), settings, failures)
        if len(found) > len(best):
            best = found
        if len(found) == expected:
            break
        reasons = dict(Counter(getattr(fail, "reason", fail) for _, fail in failures))
        warnings.append(
            f"homotopy attempt {attempt + 1}: {len(found)}/{expected} endpoints"
            + (f" ({reasons})" if reasons else "")
        )

    tree = DecompositionTree(
        kind="homotopy",
        mv=expected,
        children=[start_tree],
        paths=(attempt + 1) * expected,
        solutions=len(best),
        transfers=attempt + 1,
    )
    return _report(best, tree, seed, warnings)


# ---------------------------------------------------------------------------
# Recursive machinery.


def _solve(F: SparseSystem, ss, settings, prov):
    start = time.perf_counter()
    F, _ = normalize(F)
    cls = classify(F.system)
    if isinstance(cls, Lacunary):
        sols, tree = _solve_lacunary(F, cls, ss, settings, prov)
    elif isinstance(cls, Triangular):
        sols, tree = _solve_triangular(F, cls, ss, settings, prov)
    elif F.n == 1:
        sols, tree = _univariate_roots(F, settings, prov)
    else:
        sols, tree = _blackbox(F, hull_mixed_volume(F.system), ss, settings, prov)
    tree.elapsed = time.perf_counter() - start
    return sols, tree


def _solve_lacunary(F, cls: Lacunary, ss, settings, prov):
    cover = relabel(F, cls.preimage)
    child_sols, child_tree = _solve(cover, ss.spawn(1)[0], settings, prov + "cover/")
    expected = cls.index * len(child_sols)
    psi_map = MonomialMap(cls.psi)
    out = _refined(F, ((torus_apply(psi_map, w), f"{prov}root[{yi}.{wi}]")
                       for yi, y in enumerate(child_sols.points)
                       for wi, w in enumerate(diagonal_fiber(cls.diagonal, y))), settings)
    if len(out) != expected:
        raise CountMismatchError("lacunary root extraction", expected, len(out), out)
    tree = DecompositionTree(
        kind="lacunary",
        mv=cls.index * child_tree.mv,
        children=[child_tree],
        solutions=len(out),
        index=cls.index,
        diagonal=cls.diagonal,
    )
    return out, tree


def _solve_triangular(F, cls: Triangular, ss, settings, prov):
    n = F.n
    I = cls.witness
    J = tuple(j for j in range(n) if j not in I)
    k = cls.k

    base_pairs = []
    for i in I:
        base_pairs.append([(cls.psi.apply(alpha)[:k], c) for alpha, c in F.polynomial(i)])
    base_F = SparseSystem.from_pairs(base_pairs)

    base_ss, fiber_ss, transfer_ss, direct_ss = ss.spawn(4)
    base_sols, base_tree = _solve(base_F, base_ss, settings, prov + "base/")

    psi_map = MonomialMap(cls.psi)
    tail_ones = np.ones(n - k, dtype=complex)

    def lift_point(y, z=tail_ones):
        return torus_apply(psi_map, np.concatenate([y, z]))

    restricted = restrict_to_fibers(F, J, cls.projection, map(lift_point, base_sols.points))
    fiber0 = next(restricted)
    fiber_sols, fiber_tree = _solve(fiber0, fiber_ss, settings, prov + "fiber0/")

    fibers = []
    for idx, target in enumerate(restricted, 1):
        if target.system != fiber0.system:
            raise DegenerateFiberError(
                f"fiber support over base solution {idx} differs from the start fiber"
            )
        fibers.append(target)
    # Transfers run in compacted fiber coordinates, in rounds. Round 0 tracks
    # every transfer, or for one-variable fibers those whose eigenvalues came
    # up short, as one multi-target homotopy; each later round tracks the
    # transfers still short, ascending, each on the next gamma of the stream.
    # A transfer short after the last round has its fiber solved directly.
    start_fiber, targets, back, start_points = _compacted(fiber0, fibers, fiber_sols.points)
    got, attempts, direct_trees = {}, Counter(), []  # got: per transfer, its latest roots
    if n - k == 1 and fibers:
        got = dict(enumerate(_companion_roots(fiber0, [f.coefficients[0] for f in fibers],
                                              settings)))

    def short():
        return [m for m in range(len(fibers)) if len(got.get(m, ())) != len(fiber_sols)]

    rng = np.random.default_rng(transfer_ss)
    for _ in range(_MAX_GAMMA_RETRIES + 1):
        todo = short()
        if not todo:
            break
        tracked, _ = _tracked(start_fiber, [targets[m] for m in todo],
                              [_unit(rng) for _ in todo], start_points, back, settings)
        got.update(zip(todo, tracked))
        attempts.update(todo)
    for m in short():
        try:
            got[m], direct_tree = _solve(fibers[m], direct_ss, settings, f"{prov}fiber{m + 1}/")
        except CountMismatchError as exc:
            raise CountMismatchError(f"fiber transfer to base solution {m + 1}",
                                     len(fiber_sols), len(got[m]), got[m]) from exc
        direct_trees.append(direct_tree)
    per_base = [fiber_sols.points] + [got[m].points for m in range(len(fibers))]

    lifted = ((lift_point(y, np.asarray(z, dtype=complex)), f"{prov}base[{bi}]/fiber[{zi}]")
              for bi, (y, zpts) in enumerate(zip(base_sols.points, per_base))
              for zi, z in enumerate(zpts))
    out = _refined(F, lifted, settings)
    expected = len(base_sols) * len(fiber_sols)
    if len(out) != expected:
        raise CountMismatchError("triangular assembly", expected, len(out), out)
    tree = DecompositionTree(
        kind="triangular",
        mv=base_tree.mv * fiber_tree.mv,
        children=[base_tree, fiber_tree, *direct_trees],
        solutions=len(out),
        witness=I,
        transfers=len(base_sols) - 1,
        paths=(len(base_sols) - 1) * len(fiber_sols),
        gamma_retries=sum(attempts.values()) - len(attempts),
    )
    return out, tree


def _univariate_roots(F, settings, prov):
    """Companion-matrix solve: the case K = 1 of _companion_roots."""
    out = _companion_roots(F, F.coefficients, settings, prov)[0]
    degree = F.system.supports[0].points[-1][0] - F.system.supports[0].points[0][0]
    if len(out) != degree:
        raise CountMismatchError("univariate companion solve", degree, len(out), out)
    tree = DecompositionTree(kind="univariate", mv=degree, solutions=len(out))
    return out, tree


def _companion_roots(F: SparseSystem, rows, settings, prov="") -> list[SolutionSet]:
    """Per coefficient row on the one-variable support of F, its torus roots:
    the eigenvalues `eig[i]` of K companion matrices stacked in np.roots'
    layout, so bit for bit its roots, refined in one batched Newton on the
    K targets. Non-finite matrices, from a zero end coefficient, give none."""
    exps = [p[0] for p in F.system.supports[0].points]
    K, degree = len(rows), exps[-1] - exps[0]
    dense = np.zeros((K, degree + 1), dtype=complex)  # highest power first
    dense[:, [exps[-1] - e for e in exps]] = rows
    A = np.zeros((K, degree, degree), dtype=complex)
    A[:, np.arange(1, degree), np.arange(degree - 1)] = 1
    with np.errstate(all="ignore"):
        A[:, 0] = -dense[:, 1:] / dense[:, :1]
    roots = np.linalg.eigvals(A) if np.isfinite(A).all() else np.zeros((K, degree))
    block, index = np.nonzero(np.abs(roots) >= TORUS_THRESHOLD)
    H = Homotopy(F.system, F.coefficients, [[row] for row in rows])
    return _refined_rows(H, roots[block, index, None], block,
                         [f"{prov}eig[{i}]" for i in index], settings)


def _blackbox(F, expected, ss, settings, prov):
    """Resultant eigenvalues for n = 2; otherwise, or when they come up
    short, a total-degree homotopy from c_i x_i^{d_i} - b_i, random units.

    `expected` is the mixed volume of F, which must be nonzero, and bounds
    the torus roots (Bernstein). For n = 2 the candidates `eig[i]` of
    _resultant_roots, its units drawn from a child of `ss`, are kept if they
    refine to `expected` roots. Otherwise the prod(d_i) paths stop once that
    many distinct endpoints are in; a stopped run short of the MV is tracked
    again in full before the next gamma. The path ledger counts this node
    as its solution count; bezout_paths keeps prod(d_i) either way. F comes
    normalized from _solve or _entry.
    """
    if F.n == 1:
        return _univariate_roots(F, settings, prov)
    n = F.n
    compact, _, back, _ = _compacted(F)
    moved, degrees = _orthant_shifts(compact.system)
    target = SparseSystem.from_pairs([list(zip(pts, c))
                                      for pts, c in zip(moved, compact.coefficients)])

    def refined(points, provenance):
        return _refined(F, zip(points, (prov + o for o in provenance)), settings)

    def solved(sols, retries):
        return sols, DecompositionTree(kind="blackbox", mv=expected, solutions=expected,
                                       paths=expected, bezout_paths=math.prod(degrees),
                                       gamma_retries=retries)

    if n == 2:  # the child leaves the gamma stream of `ss` as it is
        points, origins = _resultant_roots(target, ss.spawn(1)[0])
        sols = refined(map(back, points), origins)
        if len(sols) == expected:
            return solved(sols, 0)
    rng = np.random.default_rng(ss)
    for attempt in range(_MAX_GAMMA_RETRIES + 1):
        c = [_unit(rng) for _ in range(n)]
        b = [_unit(rng) for _ in range(n)]
        start_pairs = []
        for i in range(n):
            power = tuple(degrees[i] if j == i else 0 for j in range(n))
            start_pairs.append([((0,) * n, -b[i]), (power, c[i])])
        G = SparseSystem.from_pairs(start_pairs)
        starts = diagonal_fiber(degrees, [bi / ci for bi, ci in zip(b, c)])
        gamma = _unit(rng)
        for count in (expected, None):  # stop at the MV; a short stopped run goes again in full
            (ends,), failures = _tracked(G, [target], [gamma], starts, back, settings, count)
            sols = refined(ends.points, ends.provenance)
            if len(sols) == expected or all(f.reason != "count-reached" for _, f in failures):
                break
        if len(sols) == expected:
            return solved(sols, attempt)
    raise CountMismatchError("blackbox total-degree solve", expected, len(sols), sols)


def _resultant_roots(target: SparseSystem, ss) -> tuple:
    """(points, origins `eig[i]`): per eigenvalue i a finite, nonzero
    candidate root (x, y) of the polynomials f, g of `target`, exponents >= 0.

    The Sylvester matrix of f and g in y is a matrix polynomial S(x) of size
    N = deg_y f + deg_y g whose kernel at a root's x holds (y^(N-1), ..., 1).
    Under x = (a s + b) / (c s + d), units drawn from `ss`, its leading
    coefficient c^D S(a/c) is generically invertible; an eigenvalue s of the
    block companion matrix gives x, and the first block v of its eigenvector
    y = v[N-2] / v[N-1]. Nothing when N < 2 or that coefficient is singular.
    """
    f, g = target.polynomial(0), target.polynomial(1)
    m, k = (max(alpha[1] for alpha, _ in poly) for poly in (f, g))
    N, D = m + k, max(alpha[0] for poly in (f, g) for alpha, _ in poly)
    if N < 2 or D < 1:
        return [], []
    S = np.zeros((D + 1, N, N), dtype=complex)  # S[e]: the coefficient of x^e
    for row, (poly, shift) in enumerate([(f, r) for r in range(k)] + [(g, r) for r in range(m)]):
        for (e, j), coef in poly:  # the row of y^shift f or y^shift g
            S[e, row, N - 1 - j - shift] = coef
    a, b, c, d = np.exp(2j * np.pi * np.random.default_rng(ss).random(4))  # units
    # P(s) = sum_e S[e] (a s + b)^e (c s + d)^(D - e), interpolated at the roots of unity
    w, e = np.exp(2j * np.pi * np.arange(D + 1) / (D + 1)), np.arange(D + 1)
    M = np.linalg.solve(np.vander(w, increasing=True),
                        (a * w[:, None] + b) ** e * (c * w[:, None] + d) ** (D - e))
    P = np.tensordot(M, S, axes=(1, 0))
    with np.errstate(all="ignore"):
        try:  # raised for a singular leading coefficient or non-finite entries
            Q = np.linalg.solve(P[D], np.concatenate(P[:D], axis=1))
            s, V = np.linalg.eig(np.vstack([np.eye(N * D - N, N * D, k=N), -Q]))
        except np.linalg.LinAlgError:
            return [], []
        X = np.column_stack([(a * s + b) / (c * s + d), V[N - 2] / V[N - 1]])
    keep = np.flatnonzero(np.isfinite(X).all(axis=1) & X.all(axis=1))  # a zero has no image
    return list(X[keep]), [f"eig[{i}]" for i in keep]


def _refined(F: SparseSystem, candidates, settings, failures=None) -> SolutionSet:
    """Newton-refine (point, origin) candidates on F, all in one batch; keep
    the converged ones on the torus that distinct() keeps, sorted.
    Refinement failures go to `failures` as (origin, message) when given."""
    candidates = list(candidates)
    X = np.array([pt for pt, _ in candidates], dtype=complex).reshape(len(candidates), F.n)
    return _refined_rows(Homotopy(F.system, F.coefficients, [F.coefficients]), X,
                         np.zeros(len(X), dtype=int), [o for _, o in candidates], settings,
                         failures)[0]


def _refined_rows(H: Homotopy, X, rows, origins, settings, failures=None) -> list[SolutionSet]:
    """_refined on the target rows of H at t = 1: one SolutionSet per target,
    of the points of X on that row."""
    X, res, errors = _newton(H, X, rows, settings)
    if failures is not None:
        failures.extend((origin, str(error)) for origin, error in zip(origins, errors)
                        if error is not None)
    ok = np.logical_and.reduce(np.abs(X) > TORUS_THRESHOLD, axis=1)
    ok &= np.array([error is None for error in errors], dtype=bool)
    out = []
    for k in range(len(H.ct)):
        found = np.flatnonzero(ok & (rows == k))
        sols = SolutionSet()
        for i in found[distinct(X[found])]:
            sols.append(X[i], res[i], origins[i])
        sols.sort()
        out.append(sols)
    return out


def bezout_path_count(S: SupportSystem) -> int:
    """Paths a total-degree homotopy tracks: product of the max total degrees."""
    return math.prod(_orthant_shifts(S)[1])


def _orthant_shifts(S: SupportSystem):
    """(moved, degrees): each support translated by its coordinate-wise
    minimum into the positive orthant, and its maximal total degree there."""
    moved = []
    for sup in S.supports:
        base = [min(column) for column in zip(*sup.points)]
        moved.append([tuple(a - b for a, b in zip(p, base)) for p in sup.points])
    return moved, [max(sum(p) for p in pts) for pts in moved]


def _nearest_quotient(num: int, den: int) -> int:
    """Nearest integer to num/den for den > 0, half rounded up, exactly."""
    return (2 * num + den) // (2 * den)


def _compacting_change(S: SupportSystem) -> IntMatrix | None:
    """Unimodular change of torus coordinates that shortens the exponents.

    Smith-form coordinate data can shear supports badly (exponents like
    (10, 4) for an index-6 covering of a pentagon), which ruins homotopy
    conditioning. Greedy pairwise size reduction of the exponent-matrix
    rows fixes the spread; returns None when no row improves.
    """
    n = S.n
    rows = [[p[i] for sup in S.supports for p in sup.points] for i in range(n)]
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    changed = False
    for _ in range(64):
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                den = sum(v * v for v in rows[j])
                if den == 0:
                    continue
                q = _nearest_quotient(sum(a * b for a, b in zip(rows[i], rows[j])), den)
                if q == 0:
                    continue
                cand = [a - q * b for a, b in zip(rows[i], rows[j])]
                if sum(v * v for v in cand) < sum(v * v for v in rows[i]):
                    rows[i] = cand
                    T[i] = [a - q * b for a, b in zip(T[i], T[j])]
                    improved = changed = True
        if not improved:
            break
    if not changed:
        return None
    return IntMatrix.from_rows(T)


def _compacted(F: SparseSystem, others=(), points=()):
    """(F_c, others_c, back, points_c): F and each system of `others` in the
    coordinates of _compacting_change(F.system), with exponents T @ alpha so
    that F_c(w) = F(Phi_T(w)); the map `back` that takes a compacted point
    back, Phi_T; and `points` in compacted coordinates. Nothing changes, and
    `back` is the identity, when F is already compact."""
    T = _compacting_change(F.system)
    if T is None:
        return F, others, lambda w: w, points
    changed = [SparseSystem.from_pairs([[(T.apply(alpha), c) for alpha, c in G.polynomial(i)]
                                        for i in range(G.n)]) for G in (F, *others)]
    push, pull = MonomialMap(T), MonomialMap(unimodular_inverse(T))
    return (changed[0], changed[1:], lambda w: torus_apply(push, w),
            [torus_apply(pull, z) for z in points])


def _tracked(start, targets, gammas, points, back, settings, expected=None):
    """(per target its endpoints, failures): `points` tracked from `start` to
    each of `targets`, under its own gamma, by one straight-line homotopy
    and track_all; the endpoints mapped by `back`, each from "path {i}" for
    start point i, and the failures of track_all, indexed over all blocks."""
    H = Homotopy.straight_line(start, targets, gammas)
    ends, failures = track_all(H, list(points) * len(targets), settings, expected)
    out = [SolutionSet() for _ in targets]
    for pt, res, origin in zip(ends.points, ends.residuals, ends.provenance):
        block, path = divmod(int(origin.split()[1]), len(points))
        out[block].append(back(pt), res, f"path {path}")
    return out, failures


def _vertex_start(S: SupportSystem, ss, settings):
    """(G, V(G), tree) for a random unit-modulus system G on the vertex
    supports of normalized S, solved by _solve, which raises
    MixedVolumeZeroError for S; G's coefficients and its solve take the
    first two children of `ss`."""
    coeff_ss, solve_ss = ss.spawn(2)
    vsys = SupportSystem(tuple(vertices(s) for s in S.supports))
    rng = np.random.default_rng(coeff_ss)
    G = SparseSystem(vsys, tuple(tuple(_unit(rng) for _ in s.points) for s in vsys.supports))
    return (G, *_solve(G, solve_ss, settings, "start/"))
