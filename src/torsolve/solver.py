"""Recursive solver for decomposable sparse systems, plus start systems.

The recursive solver takes a family: K coefficient rows on one support,
row 0 the system itself. It classifies the supports once per family (and
keeps that work, in _memo, for a later family on the same supports), then
either extracts roots through a monomial covering (lacunary), or solves a
subsystem first and fills the fiber over each of its other solutions
(triangular): every fiber is restricted first, and all fibers, of every
row, are solved as one family, its row 0 the first fiber of row 0.
Otherwise it falls back to a black box: companion-matrix eigenvalues for
one variable, hidden-variable resultant eigenvalues for two, each for all
rows at once, and for row 0 alone a total-degree homotopy otherwise or
when those come up short. Only row 0 ever tracks a path; another row a
leaf cannot complete comes back short. A triangular node's short fibers of
row 0 are reached from its first fiber by transfers tracked as one
multi-target homotopy, short transfers again on fresh gammas, and a fiber
whose transfer fails every gamma solved directly. All three homotopies go
through _tracked, in coordinates from _compacted. Recursion terminates
because each level decreases either the mixed volume or the number of
variables. solve_general takes this solver where the supports decompose with
no black-box leaf of n >= 3, and tracks from a start on the vertex supports
otherwise.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .decompose import (
    DecompositionTree,
    Lacunary,
    Triangular,
    _fiber_supports,
    classify,
    predict_tree,
)
from .errors import CountMismatchError, TorsolveError
from .geometry import hull_mixed_volume
from .intlinalg import IntMatrix, _image, unimodular_inverse
from .supports import SparseSystem, Support, SupportSystem, normalize, vertices
from .torus import (
    TORUS_THRESHOLD,
    MonomialMap,
    apply as torus_apply,
    diagonal_fiber,
    fiber_restriction,
)
from .tracking import (
    _DIVERGENCE_NORM,
    Homotopy,
    SolutionSet,
    TrackerSettings,
    _kept_order,
    _newton,
    _solution_order,
    _solution_sets,
    track_all,
)

_MAX_GAMMA_RETRIES = 3
_MEMO_SIZE = 1024


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


def _copied(tree: DecompositionTree) -> DecompositionTree:
    """A copy of `tree` sharing no node with it; its other fields are immutable."""
    return replace(tree, children=[_copied(child) for child in tree.children])


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
    """Run one of the recursive solvers below on F's normalized supports, as
    the root: the family of F alone."""
    (sols,), tree = solve(normalize(F.system)[0], _rows(F), *args, np.random.SeedSequence(seed),
                          settings or TrackerSettings(), "")
    return sols, tree


def solve_decomposable(F: SparseSystem, seed: int = 0,
                       settings: TrackerSettings | None = None) -> SolveReport:
    """All isolated torus solutions of a generic decomposable sparse system."""
    return _report(*_entry(_solve, F, seed, settings), seed)


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
    G, sols, _ = _vertex_start(_vertex_system(S), np.random.SeedSequence(seed).entropy,
                               settings or TrackerSettings())
    return G, sols


def solve_general(F: SparseSystem, seed: int = 0,
                  settings: TrackerSettings | None = None) -> SolveReport:
    """Solve any sparse system with finite V(F): as solve_decomposable(F,
    seed, settings) where F's supports route it there (_decomposes) and that
    solve raises no TorsolveError, otherwise via a decomposable start.

    Builds the vertex start system, tracks the straight-line homotopy to F,
    and reports partial results with warnings when endpoints are lost (no
    endgames; non-generic targets may come up short). The start system is
    solved once per vertex supports, seed and tolerance, in _memo (at seed
    None, on every call). A later call gets a copy of its tree, `elapsed` that
    of the first solve; the ledger, paths_tracked and blackbox_calls count it.
    """
    start = time.perf_counter()
    settings = settings or TrackerSettings()
    S, C = normalize(F.system)[0], _rows(F)
    if _memo(_decomposes, S):  # raises MixedVolumeZeroError for a zero mixed volume
        with contextlib.suppress(TorsolveError):  # non-generic F: the homotopy reports it
            return solve_decomposable(F, seed, settings)
    ss = np.random.SeedSequence(seed)  # the key holds an int or int sequence seed as a tuple
    key = (_vertex_system(S), tuple(np.ravel(ss.entropy).tolist()), settings)
    G, start_sols, start_tree = (_vertex_start(*key) if seed is None  # fresh entropy: no hit
                                 else _memo(_vertex_start, *key))
    expected = len(start_sols)
    on_vertices = [dict(G.polynomial(i)) for i in range(S.n)]  # G on F's support, 0 elsewhere
    G_row = [on_vertices[i].get(alpha, 0j) for i, sup in enumerate(S.supports)
             for alpha in sup.points]
    S_c, (F_row, G_row), back, start_points = _compacted(S, np.vstack([C, G_row]),
                                                         start_sols.points)

    rng = np.random.default_rng(ss.spawn(3)[2])  # the first two are _vertex_start's
    warnings = []
    best = SolutionSet()
    for attempt in range(2):
        H = Homotopy(S_c, G_row, [F_row], [_unit(rng)])
        (ends,), failures = _tracked(H, start_points, back, settings)
        found = _refined(S, C, ends.points, ends.origins, ends.label, settings, failures)
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
        children=[_copied(start_tree)],  # the memo's own stays as it is
        paths=(attempt + 1) * expected,
        solutions=len(best),
        transfers=attempt + 1,
        elapsed=time.perf_counter() - start,
    )
    return _report(best, tree, seed, warnings)


# ---------------------------------------------------------------------------
# Recursive machinery.


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo(f, *args):
    """f(*args) for a function f of supports alone (classify,
    hull_mixed_volume, _compacting_change, unimodular_inverse of its change,
    vertices, fiber_restriction, _mapped, _decomposes) or, for _vertex_start,
    of vertex supports, seed entropy and settings, once per value of the arguments
    among the _MEMO_SIZE most recent: supports solved again with new
    coefficients are not classified again, nor at the same seed and
    tolerance is their start solved again. The results are shared, and no
    caller changes them; an exception is not cached, so it is raised on
    every call."""
    return f(*args)


def _solve(S: SupportSystem, C, ss, settings, prov):
    """(per row of C its SolutionSet, the tree of row 0) for the family on
    the supports S: the rows of the (K, M) array C are coefficient vectors
    of S, polynomial by polynomial, row 0 the node's own system. The node is
    decided from S alone, and the exact work runs once for the family; the
    numerics run once over all rows. Row 0 is solved in full or raises;
    another row that a leaf cannot complete without tracking comes back
    short. Every function below takes a node as the pair (S, C), its S
    normalized."""
    start = time.perf_counter()
    S, _ = normalize(S)
    cls = _memo(classify, S)
    if isinstance(cls, Lacunary):
        sols, tree = _solve_lacunary(S, C, cls, ss, settings, prov)
    elif isinstance(cls, Triangular):
        sols, tree = _solve_triangular(S, C, cls, ss, settings, prov)
    elif S.n == 1:
        sols, tree = _univariate_roots(S, C, settings, prov)
    else:
        sols, tree = _blackbox(S, C, _memo(hull_mixed_volume, S), ss, settings, prov)
    tree.elapsed = time.perf_counter() - start
    return sols, tree


def _solve_lacunary(S, C, cls: Lacunary, ss, settings, prov):
    cover_C = C[:, _positions(S, range(S.n), cls.preimage.index_maps)]
    child_sols, child_tree = _solve(cls.preimage.system, cover_C, ss.spawn(1)[0], settings,
                                    prov + "cover/")
    expected = cls.index * len(child_sols[0])
    roots = [(r, w, (yi, wi)) for r, sols in enumerate(child_sols)
             for yi, y in enumerate(sols.points)
             for wi, w in enumerate(diagonal_fiber(cls.diagonal, y))]
    rows, W, origins = zip(*roots)
    out = _refined_rows(S, C, rows, torus_apply(MonomialMap(cls.psi), W), np.array(origins),
                        prov + "root[{}.{}]", settings)
    if len(out[0]) != expected:
        raise CountMismatchError("lacunary root extraction", expected, len(out[0]), out[0])
    tree = DecompositionTree(
        kind="lacunary",
        mv=cls.index * child_tree.mv,
        children=[child_tree],
        solutions=len(out[0]),
        index=cls.index,
        diagonal=cls.diagonal,
    )
    return out, tree


def _solve_triangular(S, C, cls: Triangular, ss, settings, prov):
    n = S.n
    I = cls.witness
    J = tuple(j for j in range(n) if j not in I)
    k = cls.k

    base, positions = _memo(_mapped, S, I, cls.psi.entries[:k])
    base_ss, fiber_ss, transfer_ss, direct_ss = ss.spawn(4)
    base_sols, base_tree = _solve(base, C[:, positions], base_ss, settings, prov + "base/")

    # The base solutions of every row in one stack, row by row: position p
    # holds base solution p - starts[rows[p]] of row rows[p].
    sizes = [len(sols) for sols in base_sols]
    rows, starts = np.repeat(np.arange(len(C)), sizes), np.cumsum([0] + sizes)
    Y = np.concatenate([sols.points for sols in base_sols])
    psi_map = MonomialMap(cls.psi)

    # Every fiber of every row is restricted at once and checked against the
    # support of the first fiber of row 0, which raises for a degenerate one.
    # Another row with a degenerate fiber is left without fibers, so short.
    # Row 0 raises for one once its first fiber is solved: that solve's own
    # error came first when the transfers followed it.
    Y0 = torus_apply(psi_map, np.hstack([Y, np.ones((len(Y), n - k))]))  # fiber base points
    fiber0, fiber_C, errors = _memo(fiber_restriction, S, J, cls.projection)(C[rows], Y0)
    row_error = [next(filter(None, errors[a:b]), None) for a, b in zip(starts, starts[1:])]
    # All fibers are solved as one family, the first fiber of row 0 as its
    # row 0; each row's fibers are consecutive, row 0's first.
    family = [0] if row_error[0] else [p for p, r in enumerate(rows) if not row_error[r]]
    fiber_sols, fiber_tree = _solve(fiber0, fiber_C[family], fiber_ss, settings, prov + "fiber0/")
    if row_error[0]:
        raise row_error[0]
    count = len(fiber_sols[0])
    roots = dict(zip(family, fiber_sols))  # the roots over each stack position

    # Row 0's fibers the family left short are reached by transfers from its
    # first fiber, in compacted fiber coordinates, in rounds: each round
    # tracks the transfers still short, ascending, each on the next gamma of
    # the stream, as one multi-target homotopy. A transfer short after the
    # last round has its fiber solved directly. Row 0's base solution m is
    # stack position m; its roots are those its transfers last found.
    attempts, direct_trees = Counter(), []

    def short():
        return [m for m in range(1, sizes[0]) if len(roots[m]) != count]

    todo, rng = short(), np.random.default_rng(transfer_ss)
    if todo:
        start, start_C, back, start_points = _compacted(fiber0, fiber_C[:sizes[0]],
                                                        fiber_sols[0].points)
    for _ in range(_MAX_GAMMA_RETRIES + 1):
        if not todo:
            break
        H = Homotopy(start, start_C[0], start_C[todo], [_unit(rng) for _ in todo])
        roots.update(zip(todo, _tracked(H, start_points, back, settings)[0]))
        attempts.update(todo)
        todo = short()
    for m in todo:  # row 0's fibers all have fiber 0's support, or row_error[0] was raised
        try:
            (roots[m],), direct_tree = _solve(fiber0, fiber_C[m:m + 1], direct_ss, settings,
                                              f"{prov}fiber{m}/")
        except CountMismatchError as exc:
            raise CountMismatchError(f"fiber transfer to base solution {m}",
                                     count, len(roots[m]), roots[m]) from exc
        direct_trees.append(direct_tree)
    # The roots in one stack, counts[p] over position p, from (base index, fiber index).
    counts = np.array([len(roots.get(p, ())) for p in range(len(Y))], dtype=np.intp)
    Z = np.concatenate([sols.points for sols in roots.values()])
    b = np.repeat(np.arange(len(Y)) - starts[rows], counts)
    origins = np.stack([b, np.arange(len(Z)) - np.repeat(np.cumsum(counts) - counts, counts)], 1)
    lifted = torus_apply(psi_map, np.hstack([np.repeat(Y, counts, axis=0), Z]))
    out = _refined_rows(S, C, np.repeat(rows, counts), lifted, origins,
                        prov + "base[{}]/fiber[{}]", settings)
    expected = len(base_sols[0]) * count
    if len(out[0]) != expected:
        raise CountMismatchError("triangular assembly", expected, len(out[0]), out[0])
    tree = DecompositionTree(
        kind="triangular",
        mv=base_tree.mv * fiber_tree.mv,
        children=[base_tree, fiber_tree, *direct_trees],
        solutions=len(out[0]),
        witness=I,
        transfers=len(base_sols[0]) - 1,
        paths=(len(base_sols[0]) - 1) * count,
        gamma_retries=sum(attempts.values()) - len(attempts),
    )
    return out, tree


def _univariate_roots(S, C, settings, prov):
    """Companion-matrix solve of every row; row 0 must give its degree."""
    out = _companion_roots(S, C, settings, prov)
    degree = S.supports[0].points[-1][0] - S.supports[0].points[0][0]
    if len(out[0]) != degree:
        raise CountMismatchError("univariate companion solve", degree, len(out[0]), out[0])
    tree = DecompositionTree(kind="univariate", mv=degree, solutions=len(out[0]))
    return out, tree


def _companion_roots(S: SupportSystem, rows, settings, prov="") -> list[SolutionSet]:
    """Per coefficient row on the one-variable support S, its torus roots:
    eigenvalue i, `eig[{}]`, of K companion matrices stacked in np.roots'
    layout, so bit for bit its roots, refined in one batched Newton on the
    K targets. A row whose matrix is not finite, from a zero or tiny end
    coefficient, gets no roots; the other rows are solved as they are alone."""
    rows = np.asarray(rows, dtype=complex)
    exps = [p[0] for p in S.supports[0].points]
    K, degree = len(rows), exps[-1] - exps[0]
    dense = np.zeros((K, degree + 1), dtype=complex)  # highest power first
    dense[:, [exps[-1] - e for e in exps]] = rows
    A = np.zeros((K, degree, degree), dtype=complex)
    A[:, np.arange(1, degree), np.arange(degree - 1)] = 1
    with np.errstate(all="ignore"):
        A[:, 0] = -dense[:, 1:] / dense[:, :1]
    finite = np.isfinite(A).all(axis=(1, 2))
    roots = np.zeros((K, degree), dtype=complex)
    roots[finite] = np.linalg.eigvals(A[finite])
    block, index = np.nonzero(np.abs(roots) >= TORUS_THRESHOLD)
    return _refined_rows(S, rows, block, roots[block, index, None], index[:, None],
                         prov + "eig[{}]", settings)


def _blackbox(S, C, expected, ss, settings, prov):
    """Resultant eigenvalues for n = 2; otherwise, or when they come up
    short for row 0, a total-degree homotopy for row 0 alone from
    c_i x_i^{d_i} - b_i, random units. Another row short stays short.

    `expected` is the mixed volume of S, which must be nonzero, and bounds
    the torus roots (Bernstein). For n = 2 the candidates `eig[i]` of
    _resultant_roots, for all rows at once, its units drawn from a child of
    `ss`, are kept for each row that refines them to `expected` roots.
    Otherwise the prod(d_i) paths stop once that many distinct endpoints
    are in; a stopped run short of the MV is tracked again in full before
    the next gamma. The path ledger counts this node as its solution count;
    bezout_paths keeps prod(d_i) either way. S comes normalized from _solve
    or _entry.
    """
    if S.n == 1:
        return _univariate_roots(S, C, settings, prov)
    n = S.n
    compact, compact_C, back, _ = _compacted(S, C)
    moved, degrees = _orthant_shifts(compact)
    shifted = SupportSystem.of_points(moved)  # translations keep the terms' order

    def solved(sols, retries):
        return sols, DecompositionTree(kind="blackbox", mv=expected, solutions=expected,
                                       paths=expected, bezout_paths=math.prod(degrees),
                                       gamma_retries=retries)

    sols = [SolutionSet(np.zeros((0, n), dtype=complex)) for _ in C]
    if n == 2:  # the child leaves the gamma stream of `ss` as it is
        points, rows, index = _resultant_roots(shifted, compact_C, ss.spawn(1)[0])
        sols = _refined_rows(S, C, rows, back(points), index[:, None], prov + "eig[{}]", settings)
        if len(sols[0]) == expected:
            return solved(sols, 0)
    cuts = np.cumsum([len(sup) for sup in shifted.supports])[:-1]
    target = SparseSystem(shifted, np.split(compact_C[0], cuts))
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
        H = Homotopy.straight_line(G, [target], [_unit(rng)])
        for count in (expected, None):  # stop at the MV; a short stopped run goes again in full
            (ends,), failures = _tracked(H, starts, back, settings, count)
            sols[0] = _refined(S, C, ends.points, ends.origins, prov + ends.label, settings)
            if len(sols[0]) == expected or all(f.reason != "count-reached" for _, f in failures):
                break
        if len(sols[0]) == expected:
            return solved(sols, attempt)
    raise CountMismatchError("blackbox total-degree solve", expected, len(sols[0]), sols[0])


def _resultant_roots(S: SupportSystem, C, ss) -> tuple:
    """(points, rows, index): per eigenvalue index[i] of row rows[i] of C, a
    coefficient row of the supports S (exponents >= 0), a candidate root
    (x, y) of that row's polynomials f and g with 1/B <= |x|, |y| <= B,
    B = _DIVERGENCE_NORM the tracker's bound, points[i] of the (P, 2) stack
    `points`; `rows` and `index` are (P,) integer arrays.

    The Sylvester matrix of f and g in y is a matrix polynomial S(x) of size
    N = deg_y f + deg_y g whose kernel at a root's x holds (y^(N-1), ..., 1).
    Under x = (a s + b) / (c s + d), units drawn from `ss`, its leading
    coefficient c^D S(a/c) is generically invertible; an eigenvalue s of the
    block companion matrix gives x, and the first block v of its eigenvector
    y = v[N-2] / v[N-1]. The rows share one stacked eigensolve. Nothing when
    N < 2, and nothing for a row whose leading coefficient is singular.
    """
    f, g = S.supports
    m, k = (max(p[1] for p in sup.points) for sup in (f, g))
    N, D = m + k, max(p[0] for sup in (f, g) for p in sup.points)
    none = np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if N < 2 or D < 1:
        return none
    K = len(C)
    # Per Sylvester entry (term of the row, power of x, matrix row, column):
    # matrix row `row` holds y^shift f or y^shift g.
    entries = [(offset + t, e, row, N - 1 - j - shift)
               for row, (sup, offset, shift) in enumerate(
                   [(f, 0, r) for r in range(k)] + [(g, len(f), r) for r in range(m)])
               for t, (e, j) in enumerate(sup.points)]
    term, power, row, column = np.array(entries).T
    S = np.zeros((K, D + 1, N, N), dtype=complex)  # S[r, e]: row r's coefficient of x^e
    S[:, power, row, column] = C[:, term]
    a, b, c, d = np.exp(2j * np.pi * np.random.default_rng(ss).random(4))  # units
    # P(s) = sum_e S[e] (a s + b)^e (c s + d)^(D - e), interpolated at the roots of unity
    w, e = np.exp(2j * np.pi * np.arange(D + 1) / (D + 1)), np.arange(D + 1)
    M = np.linalg.solve(np.vander(w, increasing=True),
                        (a * w[:, None] + b) ** e * (c * w[:, None] + d) ** (D - e))
    P = np.matmul(M, S.reshape(K, D + 1, N * N)).reshape(K, D + 1, N, N)
    top = np.eye(N * D - N, N * D, k=N)

    def eig(P):  # raises for a singular leading coefficient or non-finite entries
        Q = np.linalg.solve(P[:, D], P[:, :D].transpose(0, 2, 1, 3).reshape(len(P), N, N * D))
        return np.linalg.eig(np.concatenate([np.broadcast_to(top, (len(P), *top.shape)), -Q], 1))

    rows = np.arange(K)
    with np.errstate(all="ignore"):
        try:
            s, V = eig(P)
        except np.linalg.LinAlgError:  # the rows one by one, each that raises left out
            parts = {}
            for r in rows:
                try:
                    parts[r] = eig(P[r:r + 1])
                except np.linalg.LinAlgError:
                    pass
            if not parts:
                return none
            rows = np.array(list(parts), dtype=np.intp)
            s, V = (np.concatenate(x) for x in zip(*parts.values()))
        X = np.stack([(a * s + b) / (c * s + d), V[:, N - 2] / V[:, N - 1]], axis=-1)
    size, B = np.abs(X), _DIVERGENCE_NORM  # x -> 1/x maps the torus to itself: both ways
    keep, index = np.nonzero((size.max(axis=2) <= B) & (size.min(axis=2) >= 1 / B))
    return X[keep, index], rows[keep], index


def _refined(S: SupportSystem, C, points, origins, label, settings, failures=None) -> SolutionSet:
    """Newton-refine candidate points, each with its row of the (P, k) integer
    `origins` that the template `label` names, on the system on S with the
    coefficient row C[0], all in one batch; keep the converged ones on the
    torus that distinct() keeps, sorted. Refinement failures go to
    `failures` as (formatted label, message) when given."""
    return _refined_rows(S, C[:1], np.zeros(len(origins), dtype=np.intp), points, origins,
                         label, settings, failures)[0]


def _refined_rows(S: SupportSystem, C, rows, points, origins, label, settings,
                  failures=None) -> list[SolutionSet]:
    """_refined on the family on S: candidate i, points[i] from origins[i],
    refined on the coefficient row rows[i] of C, all in one batched Newton,
    then deduplicated and sorted in one pass over all rows; one SolutionSet
    per row of C. No label is formatted but a failure's."""
    rows = np.asarray(rows, dtype=np.intp)
    X = np.reshape(np.asarray(points, dtype=complex), (len(rows), S.n))
    X, res, errors = _newton(Homotopy(S, C[0], C), X, rows, settings)
    if failures is not None:
        failures.extend((label.format(*origins[i].tolist()), str(error))
                        for i, error in enumerate(errors) if error is not None)
    ok = np.logical_and.reduce(np.abs(X) > TORUS_THRESHOLD, axis=1)
    ok = np.flatnonzero(ok & np.array([error is None for error in errors], dtype=bool))
    return _solution_sets(X, res, origins, label, rows, len(C),
                          ok[_kept_order(X[ok], rows[ok])])


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
    return IntMatrix(T) if changed else None


def _rows(F: SparseSystem) -> np.ndarray:
    """F's coefficients as the one row of its family: a (1, M) array,
    polynomial by polynomial."""
    return np.concatenate(F.coefficients)[None]


def _positions(S: SupportSystem, polys, maps) -> np.ndarray:
    """The columns of the coefficient rows of a system on S that hold term
    maps[q][j] of polynomial polys[q], for each q and j in turn."""
    offsets = np.cumsum([0] + [len(s) for s in S.supports])
    return np.concatenate([offsets[i] + np.asarray(m, dtype=np.intp) for i, m in zip(polys, maps)])


def _mapped(S: SupportSystem, polys, A):
    """(G, positions): the supports `polys` of S with each exponent alpha
    taken to A @ alpha, for A given by its integer rows, their points
    sorted, and the columns of S's coefficient rows in G's term order, so
    that a family's rows C on S are C[:, positions] on G."""
    supports, maps = [], []
    for i in polys:
        points = [_image(A, alpha) for alpha in S.supports[i].points]
        maps.append(sorted(range(len(points)), key=points.__getitem__))
        supports.append(Support(tuple(points[j] for j in maps[-1])))
    positions = _positions(S, polys, maps)
    positions.flags.writeable = False  # shared through the memo
    return SupportSystem(tuple(supports)), positions


def _compacted(S: SupportSystem, C, points=()):
    """(S_c, C_c, back, points_c): the supports S and the rows C of its
    family in the coordinates of _compacting_change(S), with exponents
    T @ alpha, so that the system on S_c with a row of C_c takes at w the
    value that the system on S with that row of C takes at Phi_T(w); the map
    `back` that takes a (P, n) stack of compacted points back, Phi_T; and
    the stack `points` in compacted coordinates. Nothing changes, and `back`
    is the identity, when S is already compact."""
    T = _memo(_compacting_change, S)
    if T is None:
        return S, C, lambda W: W, points
    S_c, positions = _memo(_mapped, S, tuple(range(S.n)), T.entries)
    push, pull = MonomialMap(T), MonomialMap(_memo(unimodular_inverse, T))
    if len(points):
        points = torus_apply(pull, points)
    return S_c, C[:, positions], lambda W: torus_apply(push, W), points


def _tracked(H: Homotopy, points, back, settings, expected=None):
    """(per target of H its endpoints, failures): the (P, n) stack `points`
    tracked to each target of H by track_all; the endpoints mapped by
    `back`, in _solution_order there, each from its start index in `points`
    ("path {}"); and the failures of track_all, indexed over all blocks."""
    ends, failures = track_all(H, np.tile(points, (len(H.ct), 1)), settings, expected)
    block, path = np.divmod(ends.origins[:, 0], len(points))
    mapped = back(ends.points)
    return _solution_sets(mapped, ends.residuals, path[:, None], ends.label, block, len(H.ct),
                          _solution_order(mapped, block)), failures


def _decomposes(S: SupportSystem, root=True) -> bool:
    """Whether the normalized supports S decompose, as predict_tree walks
    them, over univariate leaves and, below the root, n = 2 black-box leaves.
    A leaf of n >= 3 tracks total degree, as an n = 2 root does when its
    resultant comes up short; the vertex start is faster there."""
    cls = _memo(classify, S)
    if not isinstance(cls, (Lacunary, Triangular)):
        return S.n == 1 or (S.n == 2 and not root)
    below = ([cls.preimage.system] if isinstance(cls, Lacunary)
             else [cls.base, _fiber_supports(S, cls)])
    return all(_memo(_decomposes, normalize(T)[0], False) for T in below)


def _vertex_system(S: SupportSystem) -> SupportSystem:
    """The vertex supports of normalized S."""
    return SupportSystem(tuple(_memo(vertices, s) for s in S.supports))


def _vertex_start(vsys: SupportSystem, entropy, settings):
    """(G, V(G), tree) for a random unit-modulus system G on the vertex
    supports `vsys`, solved by _solve, which raises MixedVolumeZeroError for
    a zero mixed volume; G's coefficients and its solve take the first two
    children of SeedSequence(entropy)."""
    coeff_ss, solve_ss = np.random.SeedSequence(entropy).spawn(2)
    rng = np.random.default_rng(coeff_ss)
    G = SparseSystem(vsys, tuple(tuple(_unit(rng) for _ in s.points) for s in vsys.supports))
    (sols,), tree = _solve(vsys, _rows(G), solve_ss, settings, "start/")
    return G, sols, tree
