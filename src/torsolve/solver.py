"""Recursive solver for decomposable sparse systems, plus start systems.

The main entry point classifies the supports, then either extracts roots
through a monomial covering (lacunary), solves a subsystem first and
fills the fiber over each of its other solutions from the first fiber, all
transfers tracked as one multi-target parameter homotopy and a fiber whose
transfer fails every gamma solved directly (triangular), or
falls back to a black box: companion-matrix eigenvalues for one variable,
a total-degree homotopy otherwise. Recursion terminates because each level
decreases either the mixed volume or the number of variables.
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
from .errors import (
    CountMismatchError,
    DegenerateFiberError,
    MixedVolumeZeroError,
    NoConvergenceError,
    SingularJacobianError,
)
from .geometry import hull_mixed_volume, mv_is_zero
from .intlinalg import IntMatrix, unimodular_inverse
from .supports import SparseSystem, SupportSystem, normalize, vertices
from .torus import (
    MonomialMap,
    apply as torus_apply,
    compile_system,
    diagonal_fiber,
    relabel,
    restrict_to_fiber,
)
from .tracking import (
    Homotopy,
    SolutionSet,
    TrackerSettings,
    distinct,
    newton_refine,
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


def solve_decomposable(F: SparseSystem, seed: int = 0,
                       settings: TrackerSettings | None = None) -> SolveReport:
    """All isolated torus solutions of a generic decomposable sparse system."""
    settings = settings or TrackerSettings()
    F, _ = normalize(F)
    sols, tree = _solve(F, np.random.SeedSequence(seed), settings, "")
    return _report(sols, tree, seed)


def solve_lacunary(F: SparseSystem, classification: Lacunary, seed: int = 0,
                   settings: TrackerSettings | None = None) -> SolveReport:
    settings = settings or TrackerSettings()
    F, _ = normalize(F)
    sols, tree = _solve_lacunary(F, classification, np.random.SeedSequence(seed), settings, "")
    return _report(sols, tree, seed)


def solve_triangular(F: SparseSystem, classification: Triangular, seed: int = 0,
                     settings: TrackerSettings | None = None) -> SolveReport:
    settings = settings or TrackerSettings()
    F, _ = normalize(F)
    sols, tree = _solve_triangular(F, classification, np.random.SeedSequence(seed), settings, "")
    return _report(sols, tree, seed)


def blackbox(F: SparseSystem, seed: int = 0,
             settings: TrackerSettings | None = None) -> SolutionSet:
    """Structure-free fallback solver; asserts the count equals the MV."""
    settings = settings or TrackerSettings()
    F, _ = normalize(F)
    sols, _tree = _blackbox(F, predict_tree(F.system).mv, np.random.SeedSequence(seed), settings, "")
    return sols


def decomposable_start_system(S: SupportSystem, seed: int = 0,
                              settings: TrackerSettings | None = None):
    """Random unit-modulus system on the vertex supports, fully solved.

    Returns (G, V(G)); the vertex system has the same mixed volume as S, so
    V(G) seeds a straight-line homotopy to any system supported on S.
    """
    settings = settings or TrackerSettings()
    S, _ = normalize(S)
    zero, witness = mv_is_zero(S)
    if zero:
        raise MixedVolumeZeroError(witness)
    ss = np.random.SeedSequence(seed)
    coeff_ss, solve_ss = ss.spawn(2)
    G = _random_vertex_system(S, np.random.default_rng(coeff_ss))
    sols, _tree = _solve(G, solve_ss, settings, "start/")
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
    zero, witness = mv_is_zero(F.system)
    if zero:
        raise MixedVolumeZeroError(witness)
    ss = np.random.SeedSequence(seed)
    coeff_ss, solve_ss, gamma_ss = ss.spawn(3)
    G = _random_vertex_system(F.system, np.random.default_rng(coeff_ss))
    start_sols, start_tree = _solve(G, solve_ss, settings, "start/")
    expected = len(start_sols)

    T, push, start_points = _compacted(F.system, start_sols.points)
    G_c = _apply_change(G, T)
    F_c = _apply_change(F, T)

    rng = np.random.default_rng(gamma_ss)
    compiled = compile_system(F)
    warnings = []
    best = SolutionSet()
    total_paths = 0
    attempts = 0
    for attempt in range(2):
        attempts += 1
        H = Homotopy.straight_line(G_c, F_c, _unit(rng))
        endpoints, failures = track_all(H, start_points, settings)
        total_paths += len(start_sols)
        found = _refined(compiled, ((pt if push is None else torus_apply(push, pt), origin)
                                    for pt, origin in zip(endpoints.points, endpoints.provenance)),
                         settings, failures)
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
        paths=total_paths,
        solutions=len(best),
        transfers=attempts,
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
    compiled = compile_system(F)
    psi_map = MonomialMap(cls.psi)
    out = _refined(compiled, ((torus_apply(psi_map, w), f"{prov}root[{yi}.{wi}]")
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

    fiber0 = restrict_to_fiber(F, J, cls.projection, lift_point(base_sols.points[0]))
    fiber_sols, fiber_tree = _solve(fiber0, fiber_ss, settings, prov + "fiber0/")

    # Track the transfers in compacted fiber coordinates.
    T_fib, push, start_points = _compacted(fiber0.system, fiber_sols.points)
    start_fiber = _apply_change(fiber0, T_fib)

    fibers = []
    for idx in range(1, len(base_sols.points)):
        target = restrict_to_fiber(F, J, cls.projection, lift_point(base_sols.points[idx]))
        if target.system != fiber0.system:
            raise DegenerateFiberError(
                f"fiber support over base solution {idx} differs from the start fiber"
            )
        fibers.append(target)
    targets = [_apply_change(target, T_fib) for target in fibers]

    def pushed(sols):
        return sols.points if push is None else [torus_apply(push, w) for w in sols.points]

    # All transfers run as one multi-target homotopy, each with the gamma it
    # would draw if they ran one after another: a transfer that comes up short
    # takes the next gamma, and the later ones are tracked again after it. A
    # transfer short under every gamma has its fiber solved directly instead.
    rng = np.random.default_rng(transfer_ss)
    gammas, got, direct_trees = [], {}, []
    first, pos, attempt = 0, 0, 0  # first open transfer, its gamma's stream index, its attempt
    while first < len(targets):
        todo = range(first, len(targets))
        gammas += [_unit(rng) for _ in range(pos + len(todo) - len(gammas))]
        H = Homotopy.straight_line(start_fiber, [targets[m] for m in todo],
                                   gammas[pos:pos + len(todo)])
        endpoints, _failures = track_all(H, start_points * len(todo), settings)
        batch = {m: SolutionSet() for m in todo}
        for pt, res, origin in zip(endpoints.points, endpoints.residuals, endpoints.provenance):
            block, path = divmod(int(origin.split()[1]), len(start_points))
            batch[first + block].append(pt, res, f"path {path}")
        short = next((m for m in todo if len(batch[m]) != len(fiber_sols)), len(targets))
        got.update((m, pushed(batch[m])) for m in range(first, short))
        if short == len(targets):
            break
        attempt = attempt + 1 if short == first else 1
        first, pos = short, pos + short - first + 1
        if attempt > _MAX_GAMMA_RETRIES:
            try:
                direct, direct_tree = _solve(fibers[short], direct_ss, settings,
                                             f"{prov}fiber{short + 1}/")
            except CountMismatchError as exc:
                raise CountMismatchError(f"fiber transfer to base solution {short + 1}",
                                         len(fiber_sols), len(batch[short]), batch[short]) from exc
            got[short] = direct.points
            direct_trees.append(direct_tree)
            first, attempt = short + 1, 0  # the next transfer takes the next gamma
    retries = pos - first  # each retry put the stream one gamma ahead of its transfer
    per_base = [fiber_sols.points] + [got[m] for m in range(len(targets))]

    compiled = compile_system(F)
    lifted = ((lift_point(y, np.asarray(z, dtype=complex)), f"{prov}base[{bi}]/fiber[{zi}]")
              for bi, (y, zpts) in enumerate(zip(base_sols.points, per_base))
              for zi, z in enumerate(zpts))
    out = _refined(compiled, lifted, settings)
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
        gamma_retries=retries,
    )
    return out, tree


def _univariate_roots(F, settings, prov):
    """Companion-matrix solve after normalizing away the lowest exponent."""
    points = F.system.supports[0].points
    exps = [p[0] for p in points]
    low = exps[0]
    degree = exps[-1] - low
    dense = np.zeros(degree + 1, dtype=complex)
    for e, c in zip(exps, F.coefficients[0]):
        dense[e - low] = c
    roots = np.roots(dense[::-1])
    compiled = compile_system(F)
    out = _refined(compiled, ((np.array([r], dtype=complex), f"{prov}eig[{ri}]")
                              for ri, r in enumerate(roots) if abs(r) >= 1e-10), settings)
    if len(out) != degree:
        raise CountMismatchError("univariate companion solve", degree, len(out), out)
    tree = DecompositionTree(kind="univariate", mv=degree, solutions=len(out))
    return out, tree


def _blackbox(F, expected, ss, settings, prov):
    """Total-degree homotopy: start c_i x_i^{d_i} - b_i with random units.

    `expected` is the mixed volume of F, which must be nonzero. All
    prod(d_i) paths are tracked; endpoints off the torus are the excess
    paths and are discarded. The path ledger counts this node as its
    solution count; the raw path total is kept in bezout_paths.
    """
    F, _ = normalize(F)
    if F.n == 1:
        return _univariate_roots(F, settings, prov)
    n = F.n
    T, back, _ = _compacted(F.system, [])
    compact = _apply_change(F, T)
    moved, degrees = _orthant_shifts(compact.system)
    target = SparseSystem.from_pairs([list(zip(pts, c))
                                      for pts, c in zip(moved, compact.coefficients)])

    rng = np.random.default_rng(ss)
    compiled = compile_system(F)
    sols = SolutionSet()
    for attempt in range(_MAX_GAMMA_RETRIES + 1):
        c = [_unit(rng) for _ in range(n)]
        b = [_unit(rng) for _ in range(n)]
        start_pairs = []
        for i in range(n):
            power = tuple(degrees[i] if j == i else 0 for j in range(n))
            start_pairs.append([((0,) * n, -b[i]), (power, c[i])])
        G = SparseSystem.from_pairs(start_pairs)
        starts = diagonal_fiber(degrees, [bi / ci for bi, ci in zip(b, c)])
        H = Homotopy.straight_line(G, target, _unit(rng))
        endpoints, _failures = track_all(H, starts, settings)
        sols = _refined(compiled, ((pt if back is None else torus_apply(back, pt), prov + origin)
                                   for pt, origin in zip(endpoints.points, endpoints.provenance)),
                        settings)
        if len(sols) == expected:
            tree = DecompositionTree(
                kind="blackbox",
                mv=expected,
                solutions=expected,
                paths=expected,
                bezout_paths=math.prod(degrees),
                gamma_retries=attempt,
            )
            return sols, tree
    raise CountMismatchError("blackbox total-degree solve", expected, len(sols), sols)


def _refined(compiled, candidates, settings, failures=None) -> SolutionSet:
    """Newton-refine (point, origin) candidates on the full system; keep the
    converged ones that distinct() keeps, sorted. Refinement failures go to
    `failures` as (origin, message) when it is given."""
    found = []
    for pt, origin in candidates:
        try:
            found.append((*newton_refine(compiled, pt, settings), origin))
        except (SingularJacobianError, NoConvergenceError) as exc:
            if failures is not None:
                failures.append((origin, str(exc)))
    out = SolutionSet()
    for keep, (x, res, origin) in zip(distinct([f[0] for f in found]), found):
        if keep:
            out.append(x, res, origin)
    out.sort()
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


def _compacted(S: SupportSystem, points):
    """(T, push, pulled): the change T of _compacting_change(S), the monomial
    map that takes compacted points back, and `points` in compacted
    coordinates. T and push are None when S is already compact."""
    T = _compacting_change(S)
    if T is None:
        return None, None, points
    pull = MonomialMap(unimodular_inverse(T))
    return T, MonomialMap(T), [torus_apply(pull, z) for z in points]


def _apply_change(F: SparseSystem, T: IntMatrix | None) -> SparseSystem:
    """G with G(w) = F(Phi_T(w)): exponents become T @ alpha."""
    if T is None:
        return F
    return SparseSystem.from_pairs(
        [[(T.apply(alpha), c) for alpha, c in F.polynomial(i)] for i in range(F.n)]
    )


def _random_vertex_system(S: SupportSystem, rng) -> SparseSystem:
    vsys = SupportSystem(tuple(vertices(s) for s in S.supports))
    coeffs = tuple(tuple(_unit(rng) for _ in range(len(s))) for s in vsys.supports)
    return SparseSystem(vsys, coeffs)
