import itertools

import numpy as np
import pytest

from torsolve.errors import CountMismatchError, MixedVolumeZeroError
from torsolve.geometry import hull_mixed_volume
from torsolve.supports import SparseSystem, SupportSystem
from torsolve.solver import (
    bezout_path_count,
    blackbox,
    decomposable_start_system,
    solve_decomposable,
    solve_general,
)
from torsolve.torus import compile_system
from torsolve.tracking import relative_distance, sort_key

START_A = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 0), (3, 1), (3, 4), (4, 2), (5, 3), (5, 4), (6, 4)]

LAC_F1 = {(0, 0): 1, (0, 4): 2, (3, 3): 4, (6, 6): 8, (12, 0): 16}
LAC_F2 = {(0, 0): 3, (3, 7): 5, (6, 2): 7, (9, 1): 11, (9, 5): 13}

TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
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


def assert_solves(F, sols, tol=1e-8):
    compiled = compile_system(F)
    for p in sols.points:
        assert compiled.residual(np.asarray(p)) <= tol


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
    with pytest.raises(MixedVolumeZeroError):
        decomposable_start_system(
            SupportSystem.of_points([[(0, 0), (1, 0)], [(0, 0), (2, 0)]]), seed=1
        )


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


def test_blackbox_count_mismatch_on_multiple_root():
    F = SparseSystem.from_pairs([[((0,), 1.0), ((1,), 2.0), ((2,), 1.0)]])  # (x+1)^2
    with pytest.raises(CountMismatchError) as err:
        blackbox(F, seed=1)
    assert err.value.expected == 2
    assert err.value.partial is not None and len(err.value.partial) <= 1


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


def test_bezout_path_count():
    S = SupportSystem.of_points([[(0, 0), (2, 1)], [(0, 0), (1, 2)]])
    assert bezout_path_count(S) == 9


def test_solve_lacunary_entry_point():
    from torsolve.decompose import Lacunary, classify
    from torsolve.solver import solve_lacunary

    F = SparseSystem.from_pairs([list(LAC_F1.items()), list(LAC_F2.items())])
    cls = classify(F.system)
    assert isinstance(cls, Lacunary)
    rep = solve_lacunary(F, cls, seed=15)
    assert len(rep.solutions) == 120
    assert_solves(F, rep.solutions)


def test_solve_triangular_entry_point():
    import itertools as it

    from torsolve.decompose import Triangular, classify
    from torsolve.solver import solve_triangular

    cube = sorted(it.product((0, 1), repeat=3))
    F = unit_coeff_system(
        [[(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)],
         [(0, 0, 0), (1, 1, 0), (2, 0, 0), (0, 2, 0)],
         cube],
        seed=21,
    )
    cls = classify(F.system)
    assert isinstance(cls, Triangular) and cls.witness == (0, 1)
    rep = solve_triangular(F, cls, seed=21)
    assert len(rep.solutions) == hull_mixed_volume(F.system)
    assert_solves(F, rep.solutions)
    assert rep.tree.kind == "triangular"
    assert rep.tree.transfers == rep.tree.children[0].solutions - 1


def test_is_strictly_triangular_family_cases():
    from torsolve.decompose import is_strictly_triangular

    # base MV 10 times fiber degree 1: witness subsystem carries everything
    S = SupportSystem.of_points([
        [(0, 0, 0), (2, 0, 0), (0, 1, 0), (2, 3, 0)],
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (2, 1, 0), (0, 2, 0)],
        sorted(itertools.product((0, 1), repeat=3)),
    ])
    assert not is_strictly_triangular(S, (0, 1))  # MV(A_I) = MV(S) = 10


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
