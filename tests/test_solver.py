import copy
import dataclasses
import functools
import itertools

import numpy as np
import pytest

from torsolve.errors import CountMismatchError, MixedVolumeZeroError
from torsolve.geometry import hull_mixed_volume, mv_is_zero
from torsolve.supports import SparseSystem, SupportSystem
from torsolve.solver import (
    bezout_path_count,
    blackbox,
    decomposable_start_system,
    solve_decomposable,
    solve_general,
)
from torsolve.tracking import _DIVERGENCE_NORM

from oracles import monomial_value, relative_distance, restrict_to_fiber
from systems import START_A, TRI_A, TRI_A3, cover

LAC_F1 = {(0, 0): 1, (0, 4): 2, (3, 3): 4, (6, 6): 8, (12, 0): 16}
LAC_F2 = {(0, 0): 3, (3, 7): 5, (6, 2): 7, (9, 1): 11, (9, 5): 13}

TRI_F1 = dict(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8]))
TRI_F2 = dict(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19]))
TRI_F3 = {(0, 0, 0): 1, (0, 0, 2): 3, (0, 0, 4): 9, (0, 1, 5): 27, (1, 0, 3): 81, (1, 1, 4): 243}


def tri_system():
    return SparseSystem.from_pairs([list(TRI_F1.items()), list(TRI_F2.items()), list(TRI_F3.items())])


def unit_coeff_system(supports, seed):
    rng = np.random.default_rng(seed)
    sys_ = SupportSystem.of_points(supports)
    coeffs = tuple(
        tuple(complex(np.exp(2j * np.pi * rng.random())) for _ in range(len(s)))
        for s in sys_.supports
    )
    return SparseSystem(sys_, coeffs)


def on_supports(S, row):
    """The SparseSystem on the supports S with the coefficient row `row`,
    polynomial by polynomial."""
    cuts = np.cumsum([len(sup) for sup in S.supports])[:-1]
    return SparseSystem(S, tuple(map(tuple, np.split(np.asarray(row), cuts))))


def assert_solves(F, sols, tol=1e-8):
    """Every point has a max-norm residual of at most tol, evaluated term by
    term, independently of the package's homotopy evaluator."""
    for p in sols.points:
        values = [sum(c * monomial_value(p, alpha) for alpha, c in F.polynomial(i))
                  for i in range(F.n)]
        assert max(abs(v) for v in values) <= tol


def match_sets(A, B, tol=1e-6):
    assert len(A) == len(B)
    scipy_opt = pytest.importorskip("scipy.optimize")
    P = np.array(A)
    Q = np.array(B)
    D = np.max(np.abs(P[:, None, :] - Q[None, :, :]), axis=2)
    D /= np.maximum(1.0, np.max(np.abs(P), axis=1))[:, None]
    r, c = scipy_opt.linear_sum_assignment(D)
    assert D[r, c].max() < tol


def test_univariate_square_root_via_lacunary():
    F = SparseSystem.from_pairs([[((0,), -1.0), ((2,), 1.0)]])
    rep = solve_decomposable(F, seed=1)
    roots = sorted(round(p[0].real, 9) for p in rep.solutions.points)
    assert roots == [-1.0, 1.0]
    assert rep.tree.kind == "lacunary" and rep.tree.index == 2
    assert rep.tree.children[0].kind == "univariate"
    assert rep.paths_tracked == 0  # closed-form throughout


def test_univariate_degree_five():
    rng = np.random.default_rng(8)
    pairs = [((e,), complex(np.exp(2j * np.pi * rng.random()))) for e in range(6)]
    F = SparseSystem.from_pairs([pairs])
    sols = blackbox(F, seed=2)
    assert len(sols) == 5
    assert_solves(F, sols)


def test_generic_linear_system():
    F = unit_coeff_system([[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]], seed=3)
    sols = blackbox(F, seed=3)
    assert len(sols) == 1
    assert_solves(F, sols)


def test_lacunary_printed_example():
    F = SparseSystem.from_pairs([list(LAC_F1.items()), list(LAC_F2.items())])
    rep = solve_decomposable(F, seed=5)
    assert len(rep.solutions) == 120
    assert rep.tree.kind == "lacunary" and rep.tree.index == 12
    assert rep.tree.children[0].mv == 10
    assert_solves(F, rep.solutions)
    # the solution set is closed under the deck action of the covering:
    # multiply by any kernel element of the monomial surjection
    y = 1j  # y^4 = 1
    x = np.exp(1j * np.pi / 6)  # x^3 = y
    k = np.array([x, y])
    pts = rep.solutions.points
    for p in pts[::17]:
        moved = p * k
        assert any(relative_distance(moved, q) < 1e-6 for q in pts)


def test_triangular_printed_example():
    F = tri_system()
    rep = solve_decomposable(F, seed=7)
    assert len(rep.solutions) == 32
    assert max(rep.solutions.residuals) <= 1e-8
    # the covering has index 2 and the inner triangular base has 8 solutions
    kinds = {nd.kind for nd in rep.tree.walk()}
    assert rep.tree.kind == "lacunary" and rep.tree.index == 2
    tri_nodes = [nd for nd in rep.tree.walk() if nd.kind == "triangular"]
    assert len(tri_nodes) == 1 and tri_nodes[0].children[0].solutions == 8
    # projecting by the monomial map (x,y,z) -> (xz, yz) clusters the 32
    # solutions into 8 fibers of 4
    images = [np.array([p[0] * p[2], p[1] * p[2]]) for p in rep.solutions.points]
    clusters = []
    for v in images:
        for c in clusters:
            if relative_distance(c[0], v) < 1e-6:
                c.append(v)
                break
        else:
            clusters.append([v])
    assert len(clusters) == 8
    assert all(len(c) == 4 for c in clusters)


def test_cross_validation_against_blackbox():
    for seed in (11, 12, 13):
        F = unit_coeff_system(
            [[(0, 0), (1, 0), (0, 1), (2, 1)], [(0, 0), (1, 1), (0, 2), (2, 0)]],
            seed=seed,
        )
        rep = solve_decomposable(F, seed=seed)
        bb = blackbox(F, seed=seed + 100)
        assert len(rep.solutions) == hull_mixed_volume(F.system) == len(bb)
        match_sets(rep.solutions.points, bb.points)


def test_start_system_example():
    S = SupportSystem.of_points([START_A, START_A])
    G, sols = decomposable_start_system(S, seed=3)
    assert len(sols) == 30
    assert [len(s) for s in G.system.supports] == [5, 5]
    assert_solves(G, sols)
    eta = np.exp(2j * np.pi / 3)
    pts = sols.points
    for action in (lambda p: np.array([eta * p[0], p[1]]),
                   lambda p: np.array([p[0], -p[1]])):
        for p in pts:
            moved = action(p)
            assert any(relative_distance(moved, q) < 1e-8 for q in pts)


def test_start_system_simplex_and_mv_zero():
    simplex = [[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]]
    G, sols = decomposable_start_system(SupportSystem.of_points(simplex), seed=4)
    assert len(sols) == 1
    flat = SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (2, 0)]])
    with pytest.raises(MixedVolumeZeroError) as err:
        decomposable_start_system(flat, seed=1)
    assert err.value.witness == mv_is_zero(flat)[1] == (0, 1)


def test_solve_general_full_support():
    F = unit_coeff_system([START_A, START_A], seed=9)
    rep = solve_general(F, seed=4)
    assert len(rep.solutions) == 30
    assert rep.warnings == []
    assert max(rep.solutions.residuals) <= 1e-8
    assert_solves(F, rep.solutions)


def test_solve_general_deficient_target():
    # (x-1)^2 = 0, y^2 - 1 = 0 has MV 4 but only two torus solutions, both
    # singular; without endgames the lost paths surface as warnings
    F = SparseSystem.from_pairs([
        [((0, 0), 1.0), ((1, 0), -2.0), ((2, 0), 1.0)],
        [((0, 0), -1.0), ((0, 2), 1.0)],
    ])
    rep = solve_general(F, seed=6)
    assert len(rep.solutions) < 4
    assert rep.warnings


def untimed(tree):
    """The tree with every node's `elapsed` set to 0."""
    return dataclasses.replace(tree, elapsed=0.0, children=[untimed(c) for c in tree.children])


def assert_same_report(rep, ref):
    """Two SolveReports equal bit for bit, but for their trees' `elapsed`."""
    for name in ("points", "residuals", "origins"):
        assert np.array_equal(getattr(rep.solutions, name), getattr(ref.solutions, name))
    assert rep.solutions.label == ref.solutions.label
    assert untimed(rep.tree) == untimed(ref.tree)
    assert (rep.paths_tracked, rep.blackbox_calls, rep.seed, rep.warnings) == (
        ref.paths_tracked, ref.blackbox_calls, ref.seed, ref.warnings)


@pytest.mark.parametrize("name", ["lacunary-A", "triangular"])
def test_solve_general_decomposes_a_decomposable_input(name):
    # A lacunary, triangular or univariate root whose black-box leaves have
    # n <= 2 is solved by solve_decomposable, with its tree and ledger.
    F = {"lacunary-A": SparseSystem.from_pairs([list(LAC_F1.items()), list(LAC_F2.items())]),
         "triangular": tri_system()}[name]
    for seed in (0, 5):
        rep = solve_general(F, seed=seed)
        assert rep.tree.kind == "lacunary"
        assert_same_report(rep, solve_decomposable(F, seed=seed))


# random[1] of the general benchmark workload: a lacunary root over an n = 3
# indecomposable cover, which the vertex start solves faster than the cover's
# total-degree black box.
RANDOM_1 = [[(0, 0, 0), (0, 0, 2), (0, 2, 1)], [(0, 0, 0), (2, 0, 2), (2, 2, 0)],
            [(0, 0, 0), (2, 0, 0), (2, 2, 0)]]
# random[21]: an indecomposable root of n = 3, MV 15.
RANDOM_21 = [[(0, 0, 0), (1, 2, 1), (2, 1, 2)], [(0, 0, 0), (0, 0, 1), (2, 1, 0)],
             [(0, 0, 0), (0, 2, 1), (2, 2, 1), (2, 2, 2)]]
# The n = 2 indecomposable roots of the general workload, random[6], [7], [16],
# [17], [19] and [28], which their resultant solves in full.
RANDOM_PAIRS = {
    6: [[(0, 0), (1, 0), (1, 2)], [(0, 0), (1, 1), (3, 2), (3, 3)]],
    7: [[(0, 0), (1, 3), (2, 3)], [(0, 0), (1, 2), (2, 0)]],
    16: [[(0, 0), (1, 3), (2, 0), (2, 2), (3, 1)], [(0, 0), (1, 2), (2, 0), (3, 0)]],
    17: [[(0, 0), (2, 1), (2, 2), (3, 0)], [(0, 0), (1, 3), (2, 2), (2, 3)]],
    19: [[(0, 0), (1, 3), (2, 2), (3, 2)], [(0, 0), (0, 2), (1, 0), (2, 1), (2, 2)]],
    28: [[(0, 0), (0, 1), (2, 0), (2, 1), (2, 3)], [(0, 0), (0, 2), (2, 0), (3, 0), (3, 1)]],
}
# Three copies of the unit simplex and (1, 1, 1): indecomposable, n = 3, MV 3.
CORNER = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("supports", [RANDOM_21, RANDOM_1], ids=["random-21", "random-1"])
def test_solve_general_tracks_from_the_vertex_start_where_a_leaf_must_track(supports):
    # An indecomposable root of n >= 3, or a black-box leaf of n >= 3 below
    # the root, keeps the straight-line homotopy from the vertex start.
    F = unit_coeff_system(supports, seed=9)
    rep = solve_general(F, seed=4)
    assert rep.tree.kind == "homotopy"
    assert rep.tree.children[0].kind != "homotopy"  # the start's decomposition
    assert len(rep.solutions) == hull_mixed_volume(F.system)


def test_solve_general_falls_back_to_the_homotopy_when_the_decomposition_fails(monkeypatch):
    # (x-1)^2 = 0, y^2 - 1 = 0 is lacunary over univariate leaves, so it goes
    # to solve_decomposable first; the double root fails the companion solve,
    # and the homotopy runs as it does alone: the same warnings and points.
    import torsolve.solver as solver

    F = SparseSystem.from_pairs([
        [((0, 0), 1.0), ((1, 0), -2.0), ((2, 0), 1.0)],
        [((0, 0), -1.0), ((0, 2), 1.0)],
    ])
    raised, real = [], solver.solve_decomposable

    def recorded(*args):
        try:
            return real(*args)
        except CountMismatchError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(solver, "solve_decomposable", recorded)
    rep = solve_general(F, seed=6)
    assert raised == ["univariate companion solve: expected 2 solutions, found 1"]
    assert rep.tree.kind == "homotopy"
    assert rep.warnings == [f"homotopy attempt {k}: 0/4 endpoints ({{'no-convergence': 4}})"
                            for k in (1, 2)]
    assert len(rep.solutions) == 0
    monkeypatch.setattr(solver, "_decomposes", lambda S: False)
    assert_same_report(rep, solve_general(F, seed=6))
    assert len(raised) == 1


@pytest.mark.parametrize("name", sorted(RANDOM_PAIRS))
def test_solve_general_solves_an_indecomposable_pair_by_its_resultant(name):
    # An n = 2 indecomposable root whose resultant gives every root returns
    # solve_decomposable's report: the black-box leaf, no gamma tracked.
    F = unit_coeff_system(RANDOM_PAIRS[name], seed=name)
    for seed in (0, 5):
        rep = solve_general(F, seed=seed)
        assert rep.tree.kind == "blackbox" and rep.tree.gamma_retries == 0
        assert len(rep.solutions) == hull_mixed_volume(F.system)
        assert rep.solutions.label == "eig[{}]"
        assert_same_report(rep, solve_decomposable(F, seed=seed))


def test_a_short_resultant_root_goes_to_the_homotopy_without_a_gamma(monkeypatch):
    # The root's resultant loses a candidate: no total-degree gamma is tracked,
    # and the report is the homotopy's alone, without an added warning.
    import time

    import torsolve.solver as solver
    from torsolve.tracking import Homotopy, TrackerSettings

    F = unit_coeff_system(RANDOM_PAIRS[7], seed=7)  # its 8 candidates are its 8 roots
    solver._memo.cache_clear()
    ref = solver._vertex_homotopy(F, 3, TrackerSettings(), time.perf_counter())
    calls, real = [], solver._resultant_roots

    def short(S, C, ss):  # the root's candidates lose their first; the start's are whole
        points, rows, index = real(S, C, ss)
        calls.append(len(index))
        return (points[1:], rows[1:], index[1:]) if len(calls) == 1 else (points, rows, index)

    lines, line = [], Homotopy.straight_line
    monkeypatch.setattr(solver, "_resultant_roots", short)
    monkeypatch.setattr(Homotopy, "straight_line",
                        classmethod(lambda cls, *args: lines.append(args) or line(*args)))
    solver._memo.cache_clear()
    rep = solve_general(F, seed=3)
    assert calls[0] == len(rep.solutions) == 8 and lines == []
    assert rep.tree.kind == "homotopy" and rep.warnings == []
    assert_same_report(rep, ref)


def test_solve_general_falls_back_when_a_fiber_loses_its_mixed_volume():
    # x - 1, y + y^2 - x y^2: over x = 1 the fiber is the monomial y, whose
    # supports classify as mixed volume zero, though F's supports have MV 1.
    # That is the coefficients' doing, so the homotopy reports what it finds.
    F = SparseSystem.from_pairs([[((0, 0), -1.0), ((1, 0), 1.0)],
                                 [((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), -1.0)]])
    with pytest.raises(MixedVolumeZeroError):
        solve_decomposable(F, seed=0)
    rep = solve_general(F, seed=0)
    assert rep.tree.kind == "homotopy"
    assert len(rep.solutions) == 0
    assert rep.warnings


def test_blackbox_count_mismatch_on_multiple_root():
    F = SparseSystem.from_pairs([[((0,), 1.0), ((1,), 2.0), ((2,), 1.0)]])  # (x+1)^2
    with pytest.raises(CountMismatchError) as err:
        blackbox(F, seed=1)
    assert err.value.expected == 2
    assert err.value.partial is not None and len(err.value.partial) <= 1


# The MV-5 black-box leaf, unit coefficients, that `decomposable` seed 2,
# round 1, e-basis[0] of the benchmark reaches. Its fifth root lies at
# |x| = 382.4 and is well conditioned, but monomials taken as exp(e log|x|)
# times cos/sin(e arg x) left its absolute residual between 3e-11 and 1e-7,
# above the 1e-8 Newton accepts, so the leaf came up one root short under
# every gamma.
MV5_LEAF = SparseSystem.from_pairs([
    [((0, 0), -0.4441441033124848 + 0.895955364676583j),
     ((0, 1), 0.4243724729479075 + 0.905487716208275j),
     ((1, 0), 0.4171212558036969 + 0.9088508447246704j),
     ((1, 1), -0.3118919214761634 + 0.9501175871006213j),
     ((2, 0), -0.07435073465427101 - 0.9972321536414528j)],
    [((0, 0), 0.0350883892838405 - 0.9993842128718392j),
     ((1, -1), 0.9376976768451935 + 0.3474522511642817j),
     ((1, 0), -0.65593633454882 + 0.7548162193664485j),
     ((1, 1), 0.204410683596754 + 0.9788852192323203j),
     ((2, 0), -0.5572492630914295 - 0.8303452648049838j)],
])


def test_blackbox_finds_the_far_root_of_an_mv5_leaf():
    sols = blackbox(MV5_LEAF)
    assert len(sols) == 5 and max(sols.residuals) <= 1e-8
    assert_solves(MV5_LEAF, sols)
    sizes = sorted(float(np.abs(p).max()) for p in sols.points)
    assert sizes[-1] == pytest.approx(382.4034, rel=1e-6) and sizes[-2] < 3


def test_blackbox_mv_zero_reports_the_first_witness():
    F = SparseSystem.from_pairs([
        [((0, 0, 0), 1.0), ((1, 0, 0), 2.0), ((0, 1, 0), 3.0)],
        [((0, 0, 0), 1.0), ((0, 0, 1), -1.0)],
        [((0, 0, 0), 1.0), ((0, 0, 2), -1.0)],
    ])
    assert mv_is_zero(F.system) == (True, (1, 2))
    with pytest.raises(MixedVolumeZeroError) as err:
        blackbox(F, seed=0)
    assert err.value.witness == (1, 2)


def test_determinism_same_seed():
    F = tri_system()
    rep1 = solve_decomposable(F, seed=42)
    rep2 = solve_decomposable(F, seed=42)
    assert len(rep1.solutions) == len(rep2.solutions)
    for p, q in zip(rep1.solutions.points, rep2.solutions.points):
        assert np.max(np.abs(p - q)) <= 1e-8


def test_ledger_equals_tree_sum():
    F = tri_system()
    rep = solve_decomposable(F, seed=2)
    assert rep.paths_tracked == rep.tree.ledger()
    assert rep.blackbox_calls == sum(
        1 for nd in rep.tree.walk() if nd.kind in ("blackbox", "univariate")
    )


def test_the_exported_surface_resolves():
    import torsolve

    namespace = {}
    exec("from torsolve import *", namespace)  # raises for a stale name in __all__
    assert all(hasattr(torsolve, name) for name in torsolve.__all__)
    assert set(torsolve.__all__) <= set(namespace)


def test_bezout_path_count():
    S = SupportSystem.of_points([[(0, 0), (2, 1)], [(0, 0), (1, 2)]])
    assert bezout_path_count(S) == 9


def test_solve_lacunary_entry_point():
    from torsolve.decompose import Lacunary, classify

    F = SparseSystem.from_pairs([list(LAC_F1.items()), list(LAC_F2.items())])
    assert isinstance(classify(F.system), Lacunary)
    rep = solve_decomposable(F, seed=15)
    assert len(rep.solutions) == 120 and rep.tree.kind == "lacunary"
    assert_solves(F, rep.solutions)


def test_solve_triangular_entry_point():
    import itertools as it

    from torsolve.decompose import Triangular, classify

    cube = sorted(it.product((0, 1), repeat=3))
    F = unit_coeff_system(
        [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)],
         [(0, 0, 0), (1, 1, 0), (2, 0, 0), (0, 2, 0)],
         cube],
        seed=21,
    )
    cls = classify(F.system)
    assert isinstance(cls, Triangular) and cls.witness == (0, 1)
    rep = solve_decomposable(F, seed=21)
    assert len(rep.solutions) == hull_mixed_volume(F.system)
    assert_solves(F, rep.solutions)
    assert rep.tree.kind == "triangular"
    assert rep.tree.transfers == rep.tree.children[0].solutions - 1


def test_is_strictly_triangular_family_cases():
    from torsolve.decompose import _triangular_data
    from torsolve.geometry import mixed_volume

    # base MV 10 times fiber degree 1: witness subsystem carries everything
    S = SupportSystem.of_points([
        [(0, 0, 0), (2, 0, 0), (0, 1, 0), (2, 3, 0)],
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0), (0, 2, 0)],
        sorted(itertools.product((0, 1), repeat=3)),
    ])
    assert mixed_volume(_triangular_data(S, (0, 1)).base) == mixed_volume(S) == 10


@pytest.mark.parametrize("name, seed, count, ledger, nodes", [
    ("lacunary-A", 0, 120, 10, [
        ("lacunary", 120, 0, 120, 0, 0, 0), ("blackbox", 10, 10, 10, 0, 0, 20)]),
    ("triangular", 7, 32, 22, [
        ("lacunary", 32, 0, 32, 0, 0, 0), ("triangular", 16, 14, 16, 7, 0, 0),
        ("blackbox", 8, 8, 8, 0, 0, 16), ("univariate", 2, 0, 2, 0, 0, 0)]),
])
def test_decomposable_tree_and_ledger_are_pinned(name, seed, count, ledger, nodes):
    # Recorded from the per-path tracker; the batched tracker must follow
    # every path the same way, so the tree, the ledger and the count agree.
    if name == "lacunary-A":
        F = unit_coeff_system([list(LAC_F1), list(LAC_F2)], 0)
    else:
        F = tri_system()
    rep = solve_decomposable(F, seed=seed)
    assert len(rep.solutions) == count
    assert rep.tree.ledger() == rep.paths_tracked == ledger
    assert [(nd.kind, nd.mv, nd.paths, nd.solutions, nd.transfers, nd.gamma_retries,
             nd.bezout_paths) for nd in rep.tree.walk()] == nodes
    assert_solves(F, rep.solutions)


def triangular_node(F):
    """The first triangular node of F's decomposition, below lacunary covers,
    as the solver sees it: (normalized system, classification)."""
    from torsolve.decompose import Lacunary, Triangular, classify
    from torsolve.supports import normalize

    F, _ = normalize(F)
    cls = classify(F.system)
    while isinstance(cls, Lacunary):
        F, _ = normalize(cover(F, cls.preimage))
        cls = classify(F.system)
    assert isinstance(cls, Triangular)
    return F, cls


def alone(solve, F, *args):
    """A recursive solver of torsolve.solver run on the family of F alone, its
    supports and its one coefficient row: (F's solutions, tree)."""
    from torsolve.solver import _rows

    (sols,), tree = solve(F.system, _rows(F), *args)
    return sols, tree


def solve_triangular_alone(F, cls, ss, settings, prov):
    """torsolve.solver._solve_triangular on the family of F alone."""
    import torsolve.solver as solver

    return alone(solver._solve_triangular, F, cls, ss, settings, prov)


def reference_solve_triangular(F, cls, ss, settings, prov):
    """The triangular solve before transfers were batched: one track_all per
    base solution, each retried with fresh gammas before the next starts, and
    a fiber solved directly when its transfer fails every gamma."""
    from torsolve.decompose import DecompositionTree
    from torsolve.errors import DegenerateFiberError
    from torsolve.solver import _MAX_GAMMA_RETRIES, _compacted, _refined, _rows, _unit
    from torsolve.torus import MonomialMap, apply
    from torsolve.tracking import Homotopy, _solution_order
    import torsolve.solver as solver

    n, I, k = F.n, cls.witness, cls.k
    J = tuple(j for j in range(n) if j not in I)
    base_F = SparseSystem.from_pairs(
        [[(cls.psi.apply(alpha)[:k], c) for alpha, c in F.polynomial(i)] for i in I])
    base_ss, fiber_ss, transfer_ss, direct_ss = ss.spawn(4)
    base_sols, base_tree = alone(solver._solve, base_F, base_ss, settings, prov + "base/")
    psi_map = MonomialMap(cls.psi)

    def lift_point(y, z=np.ones(n - k, dtype=complex)):
        return apply(psi_map, np.concatenate([y, z]))

    fiber0 = restrict_to_fiber(F, J, cls.projection, lift_point(base_sols.points[0]))
    fiber_sols, fiber_tree = alone(solver._solve, fiber0, fiber_ss, settings, prov + "fiber0/")
    start_fiber, start_C, back, start_points = _compacted(fiber0.system, _rows(fiber0),
                                                          fiber_sols.points)
    rng = np.random.default_rng(transfer_ss)
    per_base = [fiber_sols.points]
    retries = 0
    direct_trees = []
    for idx in range(1, len(base_sols.points)):
        target = restrict_to_fiber(F, J, cls.projection, lift_point(base_sols.points[idx]))
        if target.system != fiber0.system:
            raise DegenerateFiberError(f"fiber over base solution {idx}")
        for attempt in range(_MAX_GAMMA_RETRIES + 1):
            H = Homotopy(start_fiber, start_C[0], _compacted(fiber0.system, _rows(target))[1],
                         _unit(rng))
            got, _ = solver.track_all(H, start_points, settings)
            if len(got) == len(fiber_sols):
                break
        retries += attempt
        if len(got) == len(fiber_sols):  # sorted in fiber coordinates, as the solver sorts
            mapped = back(got.points)
            per_base.append(mapped[_solution_order(mapped, np.zeros(len(mapped), dtype=int))])
            continue
        try:
            direct, direct_tree = alone(solver._solve, target, direct_ss, settings,
                                        f"{prov}fiber{idx}/")
        except CountMismatchError as exc:
            raise CountMismatchError(f"fiber transfer to base solution {idx}",
                                     len(fiber_sols), len(got), got) from exc
        per_base.append(direct.points)
        direct_trees.append(direct_tree)
    lifted = [(lift_point(y, np.asarray(z, dtype=complex)), (bi, zi))
              for bi, (y, zpts) in enumerate(zip(base_sols.points, per_base))
              for zi, z in enumerate(zpts)]
    out = _refined(F.system, _rows(F), [x for x, _ in lifted], np.array([o for _, o in lifted]),
                   prov + "base[{}]/fiber[{}]", settings)
    tree = DecompositionTree(kind="triangular", mv=base_tree.mv * fiber_tree.mv,
                             children=[base_tree, fiber_tree, *direct_trees],
                             solutions=len(out), witness=I,
                             transfers=len(base_sols) - 1,
                             paths=(len(base_sols) - 1) * len(fiber_sols), gamma_retries=retries)
    return out, tree


@pytest.mark.parametrize("system, seed", [("triangular", 7), ("triangular", 3),
                                          ("e-basis", 0), ("e-basis", 11)])
def test_batched_transfers_match_per_transfer_loop(system, seed):
    from torsolve.cli import _bench_instance
    from torsolve.tracking import TrackerSettings

    if system == "triangular":
        F = tri_system()
    else:
        F = _bench_instance("e-basis", np.random.default_rng(np.random.SeedSequence(seed)))
    F, cls = triangular_node(F)
    runs = [solve(F, cls, np.random.SeedSequence(seed), TrackerSettings(), "")
            for solve in (solve_triangular_alone, reference_solve_triangular)]
    (batched, tree), (looped, ref_tree) = runs
    rows = [[(nd.kind, nd.mv, nd.paths, nd.solutions, nd.transfers, nd.gamma_retries)
             for nd in t.walk()] for t in (tree, ref_tree)]
    assert rows[0] == rows[1] and tree.transfers >= 4
    assert batched.provenance == looped.provenance
    base, fiber = (child.solutions for child in tree.children[:2])
    assert sorted(batched.provenance) == sorted(f"base[{b}]/fiber[{z}]"
                                                for b in range(base) for z in range(fiber))
    assert len(batched) == tree.mv
    for p, q in zip(batched.points, looped.points):
        assert np.max(np.abs(p - q)) <= 1e-10 * max(1.0, float(np.max(np.abs(q))))


def transfer_gammas(seed, count, node=()):
    """The first `count` gammas of the transfer stream of a triangular node
    solved from SeedSequence(seed), or from its descendant with spawn key
    `node`."""
    from torsolve.solver import _unit

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(*node, 2)))
    return [_unit(rng) for _ in range(count)]


def short_families(monkeypatch, keep=lambda prov, r: False):
    """Make every row r >= 1 of a family solve under prov come back without
    roots unless keep(prov, r), so that its transfer is tracked."""
    import torsolve.solver as solver
    from torsolve.tracking import SolutionSet

    real = solver._solve

    def solve(S, C, ss, settings, prov):
        sols, tree = real(S, C, ss, settings, prov)
        return [s if r == 0 or keep(prov, r) else SolutionSet(s.points[:0])
                for r, s in enumerate(sols)], tree

    monkeypatch.setattr(solver, "_solve", solve)


def failing_gammas(monkeypatch, seed, places, node=()):
    """Make solver.track_all lose one endpoint of every transfer tracked with
    the gamma at one of `places` in the transfer stream of transfer_gammas(seed,
    64, node), and every family row after the first come up short, so that
    the transfers are tracked; returns the gammas of every call that tracked
    transfers."""
    import torsolve.solver as solver
    from torsolve.tracking import SolutionSet

    real, calls, draws = solver.track_all, [], transfer_gammas(seed, 64, node)

    def track_all(H, starts, settings=None, expected=None):
        sols, failures = real(H, starts, settings, expected)
        gammas = H.gamma.tolist()
        if not set(gammas) <= set(draws):
            return sols, failures  # not a transfer
        calls.append(gammas)
        size = len(starts) // len(gammas)
        blocks = (sols.origins[:, 0] // size).tolist()
        lose = {blocks.index(k) for k, gamma in enumerate(gammas)
                if draws.index(gamma) in places and k in blocks}  # each block's first point
        keep = [i for i in range(len(sols)) if i not in lose]
        return SolutionSet(sols.points[keep], sols.residuals[keep], sols.origins[keep],
                           sols.label), failures

    monkeypatch.setattr(solver, "track_all", track_all)
    short_families(monkeypatch)
    return calls


def assert_same_solve(runs):
    """The two (solutions, tree) of `runs` have equal tree rows without
    gamma_retries, equal provenance and points within 1e-10 relative."""
    (first, first_tree), (second, second_tree) = runs
    rows = [[(nd.kind, nd.mv, nd.paths, nd.solutions, nd.transfers) for nd in t.walk()]
            for t in (first_tree, second_tree)]
    assert rows[0] == rows[1]
    assert first.provenance == second.provenance
    for p, q in zip(second.points, first.points):
        assert np.max(np.abs(p - q)) <= 1e-10 * max(1.0, float(np.max(np.abs(q))))


def test_retries_take_the_next_gammas_for_the_short_transfers_only(monkeypatch):
    from torsolve.tracking import TrackerSettings

    F, cls = triangular_node(tri_system())  # 8 base solutions, fibers of 2: 7 transfers
    calls = failing_gammas(monkeypatch, 7, {2, 3, 9})
    runs = [solve(F, cls, np.random.SeedSequence(7), TrackerSettings(), "")
            for solve in (reference_solve_triangular, solve_triangular_alone)]
    assert_same_solve(runs)
    (_, ref_tree), (_, tree) = runs
    assert tree.gamma_retries == ref_tree.gamma_retries == 2 and tree.solutions == 16
    # The loop draws one gamma per attempt, and transfer 2 fails on gammas 2
    # and 3. The rounds track transfers 0..6 on gammas 0..6, where transfers
    # 2 and 3 come up short, then only those two on gammas 7 and 8.
    draws = transfer_gammas(7, 9)
    assert calls == [[g] for g in draws] + [draws[0:7], draws[7:9]]


def test_transfer_failing_every_gamma_is_solved_directly(monkeypatch):
    from torsolve.tracking import TrackerSettings

    F, cls = triangular_node(tri_system())  # 8 base solutions, fibers of 2: 7 transfers
    calls = failing_gammas(monkeypatch, 7, set(range(5, 13)))
    runs = [solve(F, cls, np.random.SeedSequence(7), TrackerSettings(), "")
            for solve in (reference_solve_triangular, solve_triangular_alone)]
    assert_same_solve(runs)
    (_, ref_tree), (_, tree) = runs
    # The fibers over base solutions 6 and 7 are solved directly, in that
    # order, and hang off the node as its third and fourth children; each of
    # their transfers counts three gamma retries.
    assert [c.kind for c in tree.children] == ["blackbox", "univariate", "univariate",
                                               "univariate"]
    assert tree.solutions == 16 and tree.ledger() == 22
    assert tree.gamma_retries == ref_tree.gamma_retries == 6
    # The loop fails transfer 5 on gammas 5..8 and transfer 6 on gammas
    # 9..12; each round tracks transfers 5 and 6 on the next two gammas.
    draws = transfer_gammas(7, 13)
    assert calls == [[g] for g in draws] + [draws[0:7], draws[7:9], draws[9:11], draws[11:13]]


def test_transfer_failing_every_gamma_raises_for_first_base_solution(monkeypatch):
    import torsolve.solver as solver
    from torsolve.tracking import TrackerSettings

    F, cls = triangular_node(tri_system())
    calls = failing_gammas(monkeypatch, 7, set(range(5, 13)))
    real_solve = solver._solve

    def short_direct_solve(S, C, ss, settings, prov):
        if prov == "fiber6/":
            raise CountMismatchError("univariate companion solve", 2, 1)
        return real_solve(S, C, ss, settings, prov)

    monkeypatch.setattr(solver, "_solve", short_direct_solve)
    errors = []
    for solve in (reference_solve_triangular, solve_triangular_alone):
        with pytest.raises(CountMismatchError) as err:
            solve(F, cls, np.random.SeedSequence(7), TrackerSettings(), "")
        errors.append(err.value)
    for exc in errors:
        assert "fiber transfer to base solution 6" in str(exc)
        assert exc.expected == 2 and len(exc.partial) == 1
        assert "univariate companion solve" in str(exc.__cause__)
    assert errors[0].partial.provenance == errors[1].partial.provenance
    assert np.allclose(errors[0].partial.points, errors[1].partial.points, rtol=0, atol=1e-10)
    # Both direct solves are due after the last round; the first one raises.
    draws = transfer_gammas(7, 13)
    assert calls == [[g] for g in draws[:9]] + [draws[0:7], draws[7:9], draws[9:11],
                                                draws[11:13]]


def test_no_transfer_that_reached_its_count_is_tracked_again(monkeypatch):
    import torsolve.solver as solver
    from torsolve.tracking import TrackerSettings

    F, cls = triangular_node(tri_system())  # 8 base solutions, fibers of 2: 7 transfers
    places = {1, 2, 4, 8, 9}
    calls, draws = failing_gammas(monkeypatch, 7, places), transfer_gammas(7, 64)
    lossy, targets = solver.track_all, []

    def track_all(H, *args):
        targets.append([row.tobytes() for row in H.ct])
        return lossy(H, *args)

    monkeypatch.setattr(solver, "track_all", track_all)
    _, tree = solve_triangular_alone(F, cls, np.random.SeedSequence(7), TrackerSettings(), "")
    assert len(targets) == len(calls) == 3 and len(targets[0]) == 7
    reached = set()
    for gammas, rows in zip(calls, targets):  # round 0 tracks transfer m as block m
        for gamma, row in zip(gammas, rows):
            m = targets[0].index(row)
            assert m not in reached
            if draws.index(gamma) not in places:
                reached.add(m)
    assert reached == set(range(7))
    assert tree.gamma_retries == 5 and tree.solutions == 16 and len(tree.children) == 2


def test_a_short_eigenvalue_fiber_alone_is_tracked(monkeypatch):
    # One row of a node's fiber family comes back short: its transfer alone
    # is tracked, and every other fiber keeps the family's roots. Once for
    # one-variable fibers (8 base solutions, fibers of 2: 7 transfers), once
    # for the e-basis root's three-variable fibers (5 base solutions).
    import torsolve.solver as solver
    from torsolve.tracking import TrackerSettings

    for F, seed, lost in ((tri_system(), 7, 4), (e_basis(0), 0, 2)):
        F, cls = triangular_node(F)
        family, family_tree = solve_triangular_alone(F, cls, np.random.SeedSequence(seed),
                                                     TrackerSettings(), "")
        calls = []
        with monkeypatch.context() as patch:
            real_track = solver.track_all

            def track_all(H, *args):
                calls.append(H.ct)
                return real_track(H, *args)

            patch.setattr(solver, "track_all", track_all)
            short_families(patch, keep=lambda prov, r: prov != "fiber0/" or r != lost)
            out, tree = solve_triangular_alone(F, cls, np.random.SeedSequence(seed),
                                               TrackerSettings(), "")
        assert len(calls) == 1 and len(calls[0]) == 1  # one call, one target
        assert tree.gamma_retries == 0
        assert_same_solve([(family, family_tree), (out, tree)])
        # Only the fiber over base solution `lost` was tracked, and only its
        # points may differ in the last bits.
        for origin, p, q in zip(out.provenance, out.points, family.points):
            if not origin.startswith(f"base[{lost}]/"):
                assert np.array_equal(p, q)


def test_a_tracked_transfer_labels_its_roots_as_the_family_does(monkeypatch):
    # The root node's one transfer goes to a two-variable fiber, tracked in
    # compacted coordinates; its roots are sorted back in fiber coordinates,
    # as a family row's are, so base[1]/fiber[z] names the same point either
    # way. Sorted in compacted coordinates, fiber[0] and fiber[1] swapped.
    import torsolve.solver as solver

    F = unit_coeff_system([[(0, 0, 0), (1, 0, -3), (2, 0, -6)],
                           [(-1, 1, 2), (0, 0, 0), (1, 0, -3), (1, 1, -6)],
                           [(-1, 1, 2), (0, 0, 0), (1, 1, -5), (1, 1, -4)]], seed=12)
    family = solve_decomposable(F, seed=0)
    calls, real_track = [], solver.track_all
    monkeypatch.setattr(solver, "track_all",
                        lambda H, *args: calls.append(H) or real_track(H, *args))
    short_families(monkeypatch)
    tracked = solve_decomposable(F, seed=0)
    assert len(calls) == 1 and tracked.tree.transfers == 1
    assert_same_solve([(family.solutions, family.tree), (tracked.solutions, tracked.tree)])


def test_a_failed_transfer_reports_its_partial_roots_on_its_fiber(monkeypatch):
    # The start system's root triangular node on these supports has one
    # transfer, to a two-variable fiber tracked in compacted coordinates.
    import torsolve.solver as solver

    S = SupportSystem.of_points([[(0, 0, 0), (0, 2, 0)],
                                 [(0, 0, 0), (0, 0, 2), (0, 1, 1), (1, 1, 0)],
                                 [(0, 0, 0), (1, 2, 2)]])
    calls = failing_gammas(monkeypatch, 0, set(range(64)), node=(1,))
    real_solve, fibers = solver._solve, []

    def short_direct_solve(S, C, ss, settings, prov):
        if prov == "start/fiber1/":
            fibers.append((S, C))
            raise CountMismatchError("blackbox total-degree solve", 4, 0)
        return real_solve(S, C, ss, settings, prov)

    monkeypatch.setattr(solver, "_solve", short_direct_solve)
    with pytest.raises(CountMismatchError, match="fiber transfer to base solution 1") as err:
        decomposable_start_system(S, seed=0)
    ((support, C),) = fibers
    assert len(C) == 1 and support.n == 2 and solver._compacted(support, C)[0] is not support
    fiber = on_supports(support, C[0])
    assert len(calls) == 4 and len(err.value.partial) == 3
    for p in err.value.partial.points:
        for i in range(fiber.n):
            terms = [c * monomial_value(p, alpha) for alpha, c in fiber.polynomial(i)]
            assert abs(sum(terms)) <= 1e-10 * sum(map(abs, terms))


@pytest.mark.parametrize("exponents", [(0, 2, 4), (-3, -1, 0, 2), (0, 1, 2, 3, 4, 5), (-2, 5)])
def test_companion_roots_equal_np_roots_refined_row_by_row(exponents):
    from torsolve.solver import _companion_roots, _refined
    from torsolve.tracking import TrackerSettings

    rng = np.random.default_rng(len(exponents))
    shape = (7, len(exponents))
    rows = np.exp(2j * np.pi * rng.random(shape)) * rng.uniform(0.5, 2.0, shape)
    systems = [SparseSystem.from_pairs([list(zip(((e,) for e in exponents), row))])
               for row in rows]
    batched = _companion_roots(systems[0].system, rows, TrackerSettings(), "x/")
    assert len(batched) == len(rows)
    for F, row, sols in zip(systems, rows, batched):
        dense = np.zeros(exponents[-1] - exponents[0] + 1, dtype=complex)
        dense[np.subtract(exponents, exponents[0])] = row
        roots = np.roots(dense[::-1])
        kept = [(i, r) for i, r in enumerate(roots) if abs(r) >= 1e-10]
        alone = _refined(F.system, row[None], [[r] for _, r in kept],
                         np.array([[i] for i, _ in kept]), "x/eig[{}]", TrackerSettings())
        assert len(sols) == exponents[-1] - exponents[0]
        assert sols.provenance == alone.provenance
        assert sols.provenance == [f"x/eig[{i}]" for i in sols.origins[:, 0]]
        assert np.array_equal(sols.residuals, alone.residuals)
        assert np.array_equal(sols.points, alone.points)


def test_one_variable_fibers_are_solved_without_tracking(monkeypatch):
    import torsolve.solver as solver
    from torsolve.tracking import TrackerSettings

    F, cls = triangular_node(tri_system())  # 8 base solutions, fibers of 2: 7 transfers
    assert F.n - cls.k == 1
    ref, ref_tree = reference_solve_triangular(F, cls, np.random.SeedSequence(7),
                                               TrackerSettings(), "")
    calls = []
    monkeypatch.setattr(solver, "track_all", lambda *args: calls.append(args))
    out, tree = solve_triangular_alone(F, cls, np.random.SeedSequence(7), TrackerSettings(), "")
    assert calls == []
    rows = [[(nd.kind, nd.mv, nd.paths, nd.solutions, nd.transfers, nd.gamma_retries)
             for nd in t.walk()] for t in (tree, ref_tree)]
    assert rows[0] == rows[1] and tree.paths == 14 and tree.ledger() == ref_tree.ledger()
    assert out.provenance == ref.provenance
    for p, q in zip(out.points, ref.points):
        assert np.max(np.abs(p - q)) <= 1e-10 * max(1.0, float(np.max(np.abs(q))))


@pytest.mark.parametrize("family, seed", [("e-basis", 0), ("e-basis", 5), ("shifted", 0),
                                          ("shifted", 3)])
def test_multivariate_fibers_are_solved_without_tracking(monkeypatch, family, seed):
    # The root's fibers have three variables; each is a triangular node over
    # an n = 2 resultant leaf and a one-variable companion leaf, so no row of
    # the fiber family tracks a path.
    import torsolve.solver as solver
    from torsolve.cli import _bench_instance
    from torsolve.tracking import TrackerSettings

    F = _bench_instance(family, np.random.default_rng(np.random.SeedSequence(seed)))
    F, cls = triangular_node(F)
    assert F.n - cls.k == 3
    ref, ref_tree = reference_solve_triangular(F, cls, np.random.SeedSequence(seed),
                                               TrackerSettings(), "")
    calls = []
    monkeypatch.setattr(solver, "track_all", lambda *args: calls.append(args))
    out, tree = solve_triangular_alone(F, cls, np.random.SeedSequence(seed), TrackerSettings(),
                                       "")
    assert calls == []
    assert tree.transfers == 4 and tree.ledger() == ref_tree.ledger()
    assert_same_solve([(ref, ref_tree), (out, tree)])


def reference_blackbox(F, expected, ss, settings, prov, refined=None):
    """The total-degree black box before the count stop: every path of every
    gamma tracked to the end. `refined` stands in for solver._refined."""
    import math

    from torsolve.decompose import DecompositionTree
    from torsolve.solver import (_MAX_GAMMA_RETRIES, _compacted, _orthant_shifts, _refined,
                                 _rows, _unit)
    from torsolve.supports import normalize
    from torsolve.torus import diagonal_fiber
    from torsolve.tracking import Homotopy, SolutionSet, track_all

    refined = refined or _refined
    F, _ = normalize(F)
    n = F.n
    compact, compact_C, back, _ = _compacted(F.system, _rows(F))
    moved, degrees = _orthant_shifts(compact)
    target = SparseSystem.from_pairs([list(zip(pts, c)) for pts, c in
                                      zip(moved, on_supports(compact, compact_C[0]).coefficients)])
    rng = np.random.default_rng(ss)
    sols = SolutionSet()
    for attempt in range(_MAX_GAMMA_RETRIES + 1):
        c = [_unit(rng) for _ in range(n)]
        b = [_unit(rng) for _ in range(n)]
        G = SparseSystem.from_pairs([[((0,) * n, -b[i]),
                                      (tuple(degrees[i] if j == i else 0 for j in range(n)), c[i])]
                                     for i in range(n)])
        starts = diagonal_fiber(degrees, [bi / ci for bi, ci in zip(b, c)])
        H = Homotopy.straight_line(G, target, _unit(rng))
        endpoints, _failures = track_all(H, starts, settings)
        sols = refined(F.system, _rows(F), [back(pt) for pt in endpoints.points],
                       endpoints.origins, prov + endpoints.label, settings)
        if len(sols) == expected:
            return sols, DecompositionTree(kind="blackbox", mv=expected, solutions=expected,
                                           paths=expected, bezout_paths=math.prod(degrees),
                                           gamma_retries=attempt)
    raise CountMismatchError("blackbox total-degree solve", expected, len(sols), sols)


def blackbox_homotopies(monkeypatch, run):
    """(H, starts, expected, result) of every track_all call with an expected
    count that run() makes."""
    import torsolve.solver as solver

    real, seen = solver.track_all, []

    def track_all(H, starts, settings=None, expected=None):
        result = real(H, starts, settings, expected)
        if expected is not None:
            seen.append((H, list(starts), expected, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(solver, "track_all", track_all)
        run()
    return seen


def e_basis(seed):
    from torsolve.cli import _bench_instance

    return _bench_instance("e-basis", np.random.default_rng(np.random.SeedSequence(seed)))


@pytest.mark.parametrize("leaf", ["blackbox", "e-basis MV 5"])
def test_track_all_stops_at_the_expected_count(monkeypatch, leaf):
    from torsolve.tracking import track_all

    F = e_basis(0)
    if leaf == "blackbox":  # the whole instance: 450 paths for 50 roots
        seen = blackbox_homotopies(monkeypatch, lambda: blackbox(F, seed=0))
    else:  # a black-box leaf of its decomposition: 6 paths for 5 roots, tracked
        # only once the resultant eigenproblem gives no candidates
        monkeypatch.setattr("torsolve.solver._resultant_roots", no_candidates)
        seen = blackbox_homotopies(monkeypatch, lambda: solve_decomposable(F, seed=0))
    H, starts, expected, (sols, failures) = next(
        s for s in seen if s[2] == (50 if leaf == "blackbox" else 5))

    full_sols, full_failures = track_all(H, starts)
    full = dict(zip(full_sols.origins[:, 0].tolist(), full_sols.points))
    full.update((i, fail) for i, fail in full_failures)
    indices = sols.origins[:, 0].tolist() + [i for i, _ in failures]
    assert sorted(indices) == list(range(len(starts)))
    assert sols.provenance == [f"path {i}" for i in sols.origins[:, 0]]
    assert len(sols) == len(full_sols) == expected
    for pt, i in zip(sols.points, sols.origins[:, 0]):  # the full run's endpoint, bit for bit
        end = full[i]
        assert np.array_equal(pt, end if isinstance(end, np.ndarray) else end.point)
    match_sets(sols.points, full_sols.points, tol=1e-10)
    assert any(fail.reason == "count-reached" for _, fail in failures)
    for i, fail in failures:  # any other failure happened before the stop
        if fail.reason != "count-reached":
            assert (fail.reason, fail.t) == (full[i].reason, full[i].t)
            assert np.array_equal(fail.point, full[i].point)


def shortened(sols):
    from torsolve.tracking import SolutionSet

    return SolutionSet(sols.points[:-1], sols.residuals[:-1], sols.origins[:-1], sols.label)


def test_short_stopped_run_is_tracked_again_in_full(monkeypatch):
    # The first gamma's runs all come out one root short, and so does every
    # run stopped at the count: the black box tracks each gamma again in
    # full and ends where the full-run loop ends, one gamma retry later.
    import torsolve.solver as solver
    from torsolve.decompose import predict_tree
    from torsolve.supports import normalize
    from torsolve.tracking import TrackerSettings

    F, _ = normalize(tri_system())
    mv, real, counts, calls = predict_tree(F.system).mv, solver._refined, [], []

    def refined_first_short(*args):
        calls.append(None)
        return shortened(real(*args)) if len(calls) == 1 else real(*args)

    ref, ref_tree = reference_blackbox(F, mv, np.random.SeedSequence(5), TrackerSettings(), "",
                                       refined_first_short)

    real_track = solver.track_all

    def track_all(H, starts, settings=None, expected=None):
        counts.append(expected)
        return real_track(H, starts, settings, expected)

    def refined(*args):
        short = counts[-1] is not None or counts == [mv, None]
        return shortened(real(*args)) if short else real(*args)

    monkeypatch.setattr(solver, "track_all", track_all)
    monkeypatch.setattr(solver, "_refined", refined)
    sols, tree = alone(solver._blackbox, F, mv, np.random.SeedSequence(5), TrackerSettings(),
                       "")
    assert counts == [mv, None, mv, None]
    assert tree == ref_tree and tree.gamma_retries == 1
    assert sols.provenance == ref.provenance
    assert all(np.array_equal(p, q) for p, q in zip(sols.points, ref.points))


def assert_same_points(A, B, tol=1e-10):
    assert len(A) == len(B)
    for p, q in zip(A, B):
        assert np.max(np.abs(p - q)) <= tol * max(1.0, float(np.max(np.abs(q))))


@pytest.mark.parametrize("name", ["lacunary-A", "triangular", "start-pair"])
def test_blackbox_matches_the_full_run_loop_on_acceptance_systems(name):
    from torsolve.decompose import predict_tree
    from torsolve.solver import _blackbox
    from torsolve.supports import normalize
    from torsolve.tracking import TrackerSettings

    F = {"lacunary-A": SparseSystem.from_pairs([list(LAC_F1.items()), list(LAC_F2.items())]),
         "triangular": tri_system(),
         "start-pair": unit_coeff_system([START_A, START_A], 0)}[name]
    F, _ = normalize(F)
    mv = predict_tree(F.system).mv
    runs = []
    for solve in (reference_blackbox, functools.partial(alone, _blackbox)):
        try:
            runs.append(solve(F, mv, np.random.SeedSequence(0), TrackerSettings(), ""))
        except CountMismatchError as exc:  # start-pair: 29 of 30 roots under every gamma
            runs.append((exc.partial, exc.found))
    (ref, ref_tree), (sols, tree) = runs
    assert tree == ref_tree
    assert_same_points(sols.points, ref.points)


def reference_family_blackbox(S, C, expected, *args):
    """reference_blackbox on each row of the family on S in turn: per row its
    solutions, and the tree of row 0. A row after the first that it cannot
    complete keeps its partial roots."""
    out, tree = [], None
    for r, row in enumerate(C):
        try:
            sols, row_tree = reference_blackbox(on_supports(S, row), expected, *args)
        except CountMismatchError as exc:
            if r == 0:
                raise
            sols = exc.partial
        out.append(sols)
        tree = tree or row_tree
    return out, tree


@pytest.mark.parametrize("seed", [0, 11])
def test_blackbox_leaves_match_the_full_run_loop_on_e_basis(monkeypatch, seed):
    import torsolve.solver as solver

    F = e_basis(seed)
    rep = solve_decomposable(F, seed=seed)
    monkeypatch.setattr(solver, "_blackbox", reference_family_blackbox)
    ref = solve_decomposable(F, seed=seed)
    nodes = [[(nd.kind, nd.mv, nd.paths, nd.solutions, nd.transfers, nd.gamma_retries,
               nd.bezout_paths) for nd in r.tree.walk()] for r in (rep, ref)]
    assert nodes[0] == nodes[1] and "blackbox" in [row[0] for row in nodes[0]]
    assert rep.solutions.provenance == ref.solutions.provenance
    assert_same_points(rep.solutions.points, ref.solutions.points)


def no_candidates(S, C, ss):
    return np.zeros((0, 2), dtype=complex), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)


def leaves_of(monkeypatch, run):
    """(row 0 of the family as a SparseSystem, expected) of every _blackbox
    call that run() makes."""
    import torsolve.solver as solver

    real, seen = solver._blackbox, []

    def spy(S, C, expected, *args):
        seen.append((on_supports(S, C[0]), expected))
        return real(S, C, expected, *args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_blackbox", spy)
        run()
    return seen


def test_resultant_roots_equal_the_gamma_loop_on_e_basis_leaves(monkeypatch):
    import torsolve.solver as solver
    from torsolve.tracking import TrackerSettings

    leaves = leaves_of(monkeypatch, lambda: solve_decomposable(e_basis(0), seed=0))
    assert {5, 10} <= {mv for _, mv in leaves}
    for F, mv in leaves:
        if F.n != 2:
            continue
        eig, eig_tree = alone(solver._blackbox, F, mv, np.random.SeedSequence(0),
                              TrackerSettings(), "")
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_resultant_roots", no_candidates)
            ref, ref_tree = alone(solver._blackbox, F, mv, np.random.SeedSequence(0),
                                  TrackerSettings(), "")
        assert eig_tree == ref_tree and len(eig) == mv
        assert all(o.startswith("eig[") for o in eig.provenance)
        assert all(o.startswith("path ") for o in ref.provenance)
        match_sets(eig.points, ref.points, tol=1e-8)


def test_a_short_resultant_count_falls_back_to_the_gamma_loop(monkeypatch):
    # Only one eigen candidate is kept, so the count comes up short and the
    # black box runs the total-degree loop on the gamma stream it always drew.
    import torsolve.solver as solver
    from torsolve.supports import normalize
    from torsolve.tracking import TrackerSettings

    F, _ = normalize(MV5_LEAF)
    real, calls = solver._resultant_roots, []

    def one_candidate(S, C, ss):
        calls.append(ss)
        points, rows, index = real(S, C, ss)
        return points[:1], rows[:1], index[:1]

    monkeypatch.setattr(solver, "_resultant_roots", one_candidate)
    sols, tree = alone(solver._blackbox, F, 5, np.random.SeedSequence(3), TrackerSettings(), "")
    ref, ref_tree = reference_blackbox(F, 5, np.random.SeedSequence(3), TrackerSettings(), "")
    assert len(calls) == 1 and tree == ref_tree
    assert sols.provenance == ref.provenance and "eig[" not in str(sols.provenance)
    assert all(np.array_equal(p, q) for p, q in zip(sols.points, ref.points))


DEGENERATE_PENCILS = {
    # g is free of y: S(x) = g(x) I, every eigenvalue double.
    "free of y": ([(0, 0), (1, 0), (0, 1), (0, 2), (1, 2)], [(0, 0), (1, 0), (2, 0)]),
    # x^3 only in f: the x^3 coefficient of S(x) has zero rows.
    "singular leading coefficient": ([(0, 0), (3, 0), (0, 1), (1, 1)], [(0, 0), (1, 0), (0, 1)]),
}


@pytest.mark.parametrize("name", DEGENERATE_PENCILS)
def test_blackbox_on_a_degenerate_pencil_matches_the_gamma_loop(monkeypatch, name):
    import torsolve.solver as solver

    F = unit_coeff_system(list(DEGENERATE_PENCILS[name]), 4)
    sols = blackbox(F)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_resultant_roots", no_candidates)
        ref = blackbox(F)
    assert len(sols) == len(ref) == hull_mixed_volume(F.system)
    match_sets(sols.points, ref.points, tol=1e-8)


def test_resultant_roots_give_nothing_without_a_regular_pencil():
    from torsolve.solver import _resultant_roots, _rows

    y_divides_both = SparseSystem.from_pairs([[((0, 1), 1.0), ((1, 2), 2.0)],
                                              [((0, 1), 1.0), ((1, 1), 3.0)]])
    y_linear_in_one = SparseSystem.from_pairs([[((0, 0), 1.0), ((1, 1), 2.0)],
                                               [((0, 0), 1.0), ((1, 0), 3.0)]])
    for target in (y_divides_both, y_linear_in_one):  # singular leading coefficient; N = 1
        points, rows, index = _resultant_roots(target.system, _rows(target),
                                               np.random.SeedSequence(0))
        assert len(points) == 0 and len(rows) == 0 and len(index) == 0


def test_resultant_roots_solve_the_rows_one_by_one_when_one_row_is_singular():
    # Row 1 is zero, so the stacked eigensolve raises and each row is solved
    # alone; row 1 raises there too and is left out, rows 0 and 2 (2F) get
    # the four candidates each gets alone, bit for bit: the mixed volume. Two
    # more eigenvalues per row, at |x| near 3e14 and 1.1e15, lie beyond the
    # tracker's divergence bound and are dropped.
    from torsolve.solver import _resultant_roots, _rows

    F = SparseSystem.from_pairs([[((0, 0), 1.0), ((1, 0), -2.0), ((0, 1), 1.0), ((1, 1), 0.5)],
                                 [((0, 0), -1.0), ((2, 0), 1.0), ((0, 1), 3.0), ((1, 2), 1.0)]])
    assert hull_mixed_volume(F.system) == 4
    C = np.vstack([_rows(F), np.zeros_like(_rows(F)), 2 * _rows(F)])
    points, rows, index = _resultant_roots(F.system, C, np.random.SeedSequence(3))
    assert rows.tolist() == [0] * 4 + [2] * 4 and index.tolist() == [0, 1, 2, 3] * 2
    assert np.abs(points).max() <= _DIVERGENCE_NORM
    for r in (0, 2):
        alone = _resultant_roots(F.system, C[r:r + 1], np.random.SeedSequence(3))
        assert alone[1].tolist() == [0] * 4
        assert points[rows == r].tobytes() == alone[0].tobytes()
        assert index[rows == r].tolist() == alone[2].tolist()


def test_resultant_roots_keep_no_candidate_near_a_coordinate_hyperplane(monkeypatch):
    # The printed triangular example's base leaf has 12 eigenvalue candidates
    # at seed 7, two of them at |x| near 4e-12 and 1e-12: x -> 1/x maps the
    # torus to itself, so the tracker's bound 1e8 holds there as 1e-8.
    import torsolve.solver as solver

    F = SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                                 list(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19])),
                                 list(zip(TRI_A3, [1, 3, 9, 27, 81, 243]))])
    real, kept = solver._resultant_roots, []

    def recording(S, C, ss):
        out = real(S, C, ss)
        kept.append(out[0])
        return out

    monkeypatch.setattr(solver, "_resultant_roots", recording)
    rep = solve_decomposable(F, seed=7)
    assert len(rep.solutions) == rep.tree.mv and [len(points) for points in kept] == [10]
    assert np.abs(kept[0]).min() >= 1 / _DIVERGENCE_NORM


# The MV-10 black-box leaf of `decomposable` seed 7, round 1, e-basis[3]
# (the leaves of seed 7 round 4 shifted[0] and seed 9 round 3 e-basis[3] are
# alike). The total-degree homotopy finds 9 of its 10 roots under every
# gamma at seeds 0-3; the resultant eigenproblem finds all 10.
MV10_LEAF = SparseSystem.from_pairs([
    [((0, 0), -0.9806868482467768 + 0.19558452309884702j),
     ((0, 1), -0.18463624936003992 - 0.9828069268285898j),
     ((2, 0), -0.8411854078340061 + 0.5407468073388292j),
     ((2, 3), -0.9893039425480171 - 0.14586880838256536j)],
    [((0, 0), -0.12004001708300427 - 0.9927690538583039j),
     ((0, 1), -0.934085317616785 - 0.35704988364757906j),
     ((0, 2), 0.9691964959061864 + 0.24628875801215444j),
     ((1, 0), 0.8615153806733897 + 0.5077314731855653j),
     ((2, 0), -0.923176184831298 - 0.38437706976396124j),
     ((2, 1), 0.9104022659221946 - 0.4137242006503046j)],
])


def test_blackbox_finds_every_root_of_an_mv10_leaf():
    from torsolve.tracking import distinct

    sols = blackbox(MV10_LEAF)
    assert len(sols) == hull_mixed_volume(MV10_LEAF.system) == 10
    assert distinct(sols.points).all() and max(sols.residuals) <= 1e-8
    assert all(o.startswith("eig[") for o in sols.provenance)


def test_a_companion_matrix_that_overflows_leaves_the_other_rows_their_roots():
    # x^3 + x - 2 has 3 roots alone; the row (1e300, 1, 1e-300) overflows its
    # companion matrix and gets none, and row 0 keeps its roots bit for bit.
    from torsolve.solver import _companion_roots
    from torsolve.tracking import TrackerSettings

    F = SparseSystem.from_pairs([[((0,), -2.0), ((1,), 1.0), ((3,), 1.0)]])
    (alone,) = _companion_roots(F.system, [[-2, 1, 1]], TrackerSettings())
    first, overflowed = _companion_roots(F.system, [[-2, 1, 1], [1e300, 1, 1e-300]],
                                         TrackerSettings())
    assert len(alone) == 3 and len(overflowed) == 0
    assert first.provenance == alone.provenance
    assert np.array_equal(first.residuals, alone.residuals)
    assert np.array_equal(first.points, alone.points)


def test_refined_drops_a_converged_point_off_the_torus():
    from torsolve.solver import _refined, _rows
    from torsolve.tracking import TrackerSettings

    F = SparseSystem.from_pairs([[((1, 0), 1.0), ((0, 1), 1.0), ((0, 0), -1.0)],
                                 [((1, 0), 1.0), ((0, 1), -1.0), ((0, 0), 1.0)]])  # root (0, 1)
    assert len(_refined(F.system, _rows(F), [np.array([1e-3, 1.01])], np.zeros((1, 0), dtype=int),
                        "near (0, 1)", TrackerSettings())) == 0


def per_row_refined(C, rows, origins, label, newton_out):
    """The loop _refined_rows ran before it deduplicated and sorted all rows
    in one pass, on its _newton output: per row, distinct on the converged
    points on the torus, then a stable sort on each point's coordinates'
    real and imaginary parts rounded to 9 decimals."""
    from torsolve.torus import TORUS_THRESHOLD
    from torsolve.tracking import SolutionSet, distinct

    X, res, errors = newton_out
    ok = np.logical_and.reduce(np.abs(X) > TORUS_THRESHOLD, axis=1)
    ok &= np.array([error is None for error in errors], dtype=bool)
    out = []
    for k in range(len(C)):
        found = np.flatnonzero(ok & (rows == k))
        kept = sorted(found[distinct(X[found])].tolist(),
                      key=lambda i: tuple(np.round(X[i].view(float), 9).tolist()))
        out.append(SolutionSet(X[kept], res[kept], origins[kept], label))
    return out


def refined_rows_calls(monkeypatch, run):
    """(S, C, rows, origins, label, _newton output, result) of every
    _refined_rows call that run() makes."""
    import torsolve.solver as solver

    real_refined, real_newton, calls, newtons = solver._refined_rows, solver._newton, [], []

    def newton(*args):
        newtons.append(real_newton(*args))
        return newtons[-1]

    def refined_rows(S, C, rows, points, origins, label, *args):
        result = real_refined(S, C, rows, points, origins, label, *args)
        calls.append((S, C, np.asarray(rows), origins, label, newtons[-1], result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_newton", newton)
        patch.setattr(solver, "_refined_rows", refined_rows)
        run()
    return calls


def assert_same_rows(got, want):
    """Row by row the same points bit for bit, residuals and provenance, in
    the same order."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.provenance == b.provenance and np.array_equal(a.residuals, b.residuals)
        assert [p.tobytes() for p in a.points] == [p.tobytes() for p in b.points]


def test_refined_rows_equal_the_per_row_loop_on_the_same_newton_output(monkeypatch):
    # Every refinement of an e-basis solve, among them its family of K = 50
    # one-variable fibers, and a companion family of 6 rows: row 2 has a zero
    # leading coefficient, so a non-finite matrix and no roots; row 3 has the
    # double root 1, which comes out of Newton twice and is kept once; row 4
    # repeats row 1 and keeps the same roots.
    from torsolve.solver import _companion_roots
    from torsolve.tracking import TrackerSettings

    calls = refined_rows_calls(monkeypatch, lambda: solve_decomposable(e_basis(0), seed=0))
    assert sum(S.n == 1 and len(C) == 50 for S, C, *_ in calls) == 1
    for S, C, rows, origins, label, newton_out, result in calls:
        assert_same_rows(result, per_row_refined(C, rows, origins, label, newton_out))

    F = SparseSystem.from_pairs([[((e,), 1.0) for e in range(5)]])
    rng = np.random.default_rng(5)
    C = np.exp(2j * np.pi * rng.random((6, 5)))
    C[2, 4] = 0.0
    C[3] = np.polynomial.polynomial.polyfromroots([1.0, 1.0, -2.0, 0.5j])
    C[4] = C[1]
    ((_, C, rows, origins, label, newton_out, result),) = refined_rows_calls(
        monkeypatch, lambda: _companion_roots(F.system, C, TrackerSettings()))
    assert_same_rows(result, per_row_refined(C, rows, origins, label, newton_out))
    assert [len(sols) for sols in result] == [4, 4, 0, 3, 4, 4]
    assert not np.shares_memory(result[4].points, result[1].points)
    assert_same_rows(result[4:5], result[1:2])


def counted_calls(monkeypatch, names):
    """Count the calls made through each (module, name) of `names`, by the
    module-level binding that the callers look up."""
    counts = {}
    for module, name in names:
        real = getattr(module, name)

        def counted(*args, real=real, key=f"{module.__name__}.{name}"):
            counts[key] = counts.get(key, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def same_supports(F, seed):
    """F's supports with random unit coefficients drawn from `seed`."""
    rng = np.random.default_rng(seed)
    return SparseSystem(F.system, [np.exp(2j * np.pi * rng.random(len(s)))
                                   for s in F.system.supports])


def assert_bit_identical(a, b):
    """Two reports with the same points byte for byte, residuals,
    provenance and tree but for its times."""
    assert [p.tobytes() for p in a.solutions.points] == [p.tobytes() for p in b.solutions.points]
    assert np.array_equal(a.solutions.residuals, b.solutions.residuals)
    assert a.solutions.provenance == b.solutions.provenance
    rows = [[{**vars(nd), "children": len(nd.children), "elapsed": 0} for nd in r.tree.walk()]
            for r in (a, b)]
    assert rows[0] == rows[1]


def test_a_family_solved_again_takes_its_support_work_from_the_memo(monkeypatch):
    # The e-basis supports hold lacunary, triangular and two-variable black-box
    # nodes, so every classification, Smith form and hull mixed volume of the
    # solve is taken once; new coefficients on the same supports take none.
    import torsolve.decompose as decompose
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "classify"), (solver, "hull_mixed_volume"),
                                         (decompose, "smith_normal_form")])
    solver._memo.cache_clear()
    solve_decomposable(e_basis(0), seed=0)
    assert counts["torsolve.solver.classify"] and counts["torsolve.solver.hull_mixed_volume"]
    assert counts["torsolve.decompose.smith_normal_form"]
    counts.clear()
    F = same_supports(e_basis(0), 1)
    again = solve_decomposable(F, seed=3)
    assert counts == {}
    assert len(again.solutions) == again.tree.mv == 50
    solver._memo.cache_clear()
    assert_bit_identical(again, solve_decomposable(F, seed=3))
    assert counts["torsolve.solver.classify"] == len(list(again.tree.walk()))


def test_a_general_solve_again_takes_its_vertices_from_the_memo(monkeypatch):
    # The three supports are equal, so their vertices are taken once even in
    # the first solve.
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "vertices"), (solver, "_compacting_change")])
    F = unit_coeff_system([CORNER, CORNER, CORNER], 4)
    solver._memo.cache_clear()
    first = solve_general(F, seed=0)
    assert counts["torsolve.solver.vertices"] == 1
    assert counts["torsolve.solver._compacting_change"]
    counts.clear()
    again = solve_general(same_supports(F, 5), seed=0)
    assert counts == {} and len(again.solutions) == len(first.solutions)


def test_a_general_solve_again_takes_its_start_from_the_memo(monkeypatch):
    # The start system is a function of the vertex supports, the seed and the
    # tolerance: new coefficients, and supports that differ from F's only in
    # a point that is not a vertex, solve no start. Each solve equals, tree
    # included, the same solve on a cold memo.
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "_solve")])
    F = unit_coeff_system(RANDOM_21, 4)
    fuller = [*RANDOM_21[:2], sorted(RANDOM_21[2] + [(1, 2, 1)])]  # on an edge
    assert solver._vertex_system(F.system) == solver._vertex_system(
        SupportSystem.of_points(fuller))
    solver._memo.cache_clear()
    solve_general(F, seed=0)
    assert counts["torsolve.solver._solve"]
    for G in (same_supports(F, 5), unit_coeff_system(fuller, 6)):
        counts.clear()
        again = solve_general(G, seed=0)
        assert counts == {} and len(again.solutions) == again.tree.mv == 15
        solver._memo.cache_clear()
        assert_bit_identical(again, solve_general(G, seed=0))
        assert counts["torsolve.solver._solve"]


def test_a_report_does_not_share_its_start_tree_with_the_memo():
    import torsolve.solver as solver

    F = unit_coeff_system(RANDOM_21, 4)
    solver._memo.cache_clear()
    first = solve_general(F, seed=0)
    expected = copy.deepcopy(first)
    start = first.tree.children[0]
    start.mv, start.elapsed = 0, -1.0
    start.children.clear()
    again = solve_general(F, seed=0)
    assert_bit_identical(again, expected)
    assert again.tree.children[0].elapsed == expected.tree.children[0].elapsed
    assert again.tree.children[0] is not first.tree.children[0]


def test_a_general_solve_without_a_seed_solves_its_start(monkeypatch):
    # seed=None draws fresh entropy, which no later call can hit, so its
    # start is solved and not kept: the support work of the first call is
    # all that the memo gains.
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "_solve")])
    F = unit_coeff_system([CORNER, CORNER, CORNER], 3)
    solver._memo.cache_clear()
    for call in range(3):
        counts.clear()
        rep = solve_general(F, seed=None)
        assert counts["torsolve.solver._solve"] and len(rep.solutions) == rep.tree.mv == 3
        if call:
            assert solver._memo.cache_info().currsize == kept
        kept = solver._memo.cache_info().currsize


def test_a_general_solve_takes_a_sequence_seed(monkeypatch):
    # A seed may be a sequence of ints, as for SeedSequence: the memo keys it
    # by its values, and [5] draws what 5 draws.
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "_solve")])
    F = unit_coeff_system(RANDOM_21, 4)
    solver._memo.cache_clear()
    first = solve_general(F, seed=[7, 1])
    assert counts["torsolve.solver._solve"] and len(first.solutions) == first.tree.mv == 15
    for seed in ([7, 1], (7, 1), np.array([7, 1])):
        counts.clear()
        again = solve_general(F, seed=seed)
        assert counts == {}
        assert_bit_identical(again, first)
    assert_bit_identical(solve_general(F, seed=[5]), solve_general(F, seed=5))
    assert_bit_identical(solve_general(F, seed=range(3)), solve_general(F, seed=[0, 1, 2]))


def test_a_start_system_is_solved_on_every_call(monkeypatch):
    # decomposable_start_system, a public entry point, keeps no start.
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "_solve")])
    S = SupportSystem.of_points([START_A, START_A])
    G, sols = decomposable_start_system(S, seed=3)
    calls = counts["torsolve.solver._solve"]
    assert calls
    H, again = decomposable_start_system(S, seed=3)
    assert counts["torsolve.solver._solve"] == 2 * calls
    assert H == G and [p.tobytes() for p in again.points] == [p.tobytes() for p in sols.points]


def test_a_general_solve_times_its_root():
    # The homotopy root's elapsed is the call's own wall time, so it covers
    # the start solve below it on a cold memo.
    import torsolve.solver as solver

    solver._memo.cache_clear()
    rep = solve_general(unit_coeff_system(RANDOM_21, 4), seed=0)
    assert rep.tree.kind == "homotopy"
    assert rep.tree.elapsed > 0
    assert rep.tree.elapsed >= sum(child.elapsed for child in rep.tree.children) > 0


def test_zero_mixed_volume_raises_on_every_solve(monkeypatch):
    # An exception is not memoized: the supports are classified, and raise,
    # on each call.
    import torsolve.solver as solver

    counts = counted_calls(monkeypatch, [(solver, "classify")])
    F = SparseSystem.from_pairs([
        [((0, 0, 0), 1.0), ((1, 0, 0), 2.0), ((0, 1, 0), 3.0)],
        [((0, 0, 0), 1.0), ((0, 0, 1), -1.0)],
        [((0, 0, 0), 1.0), ((0, 0, 2), -1.0)],
    ])
    for call in (1, 2):
        with pytest.raises(MixedVolumeZeroError) as err:
            solve_decomposable(F, seed=0)
        assert err.value.witness == (1, 2)
        assert counts["torsolve.solver.classify"] == call
    for call in (3, 4):  # nor is a start system with no roots
        with pytest.raises(MixedVolumeZeroError) as err:
            solve_general(F, seed=0)
        assert err.value.witness == (1, 2)
        assert counts["torsolve.solver.classify"] == call


def test_the_exact_entry_points_classify_supports_just_solved(monkeypatch):
    import torsolve.decompose as decompose
    from torsolve.decompose import predict_tree

    F = tri_system()
    rep = solve_decomposable(F, seed=0)
    counts = counted_calls(monkeypatch, [(decompose, "classify")])
    tree = predict_tree(F.system)
    assert counts["torsolve.decompose.classify"] == len(list(tree.walk())) == 4
    assert [(nd.kind, nd.mv) for nd in tree.walk()] == [(nd.kind, nd.mv) for nd in rep.tree.walk()]


def test_a_solve_formats_no_provenance_until_it_is_read(monkeypatch):
    # A solution set carries integer origins and a label template; a solve
    # formats no label, and reading `provenance` formats them all.
    from torsolve.tracking import SolutionSet

    reads, real = [], SolutionSet.provenance
    monkeypatch.setattr(SolutionSet, "provenance",
                        property(lambda sols: reads.append(sols) or real.fget(sols)))
    lacunary_a = SparseSystem.from_pairs([list(LAC_F1.items()), list(LAC_F2.items())])
    random_21 = unit_coeff_system(RANDOM_21, seed=9)
    tri = solve_decomposable(tri_system(), seed=0)
    results = [tri.solutions, solve_general(lacunary_a, seed=0).solutions,
               solve_general(random_21, seed=0).solutions, blackbox(e_basis(0), seed=0),
               decomposable_start_system(tri_system().system)[1]]
    assert reads == []
    # lacunary A decomposes; random[21]'s supports are tracked from the vertex start.
    assert [sols.label for sols in results] == ["root[{}.{}]", "root[{}.{}]", "path {}",
                                                "path {}", "start/root[{}.{}]"]
    for sols in results:
        assert len(sols.provenance) == len(sols) > 0
        assert sols.provenance == [sols.label.format(*o) for o in sols.origins.tolist()]
    assert len(reads) == 2 * len(results)
    # The root's label names the cover root and the root over it: root[i.j].
    covers = tri.tree.children[0].solutions
    assert sorted(results[0].provenance) == sorted(f"root[{i}.{j}]" for i in range(covers)
                                                   for j in range(tri.tree.index))
    assert SolutionSet().provenance == []
