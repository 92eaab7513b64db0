"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from torsolve.decompose import Lacunary, _triangular_data, classify
from torsolve.geometry import hull_mixed_volume, mixed_volume, mv_is_zero
from torsolve.intlinalg import IntMatrix, smith_normal_form
from torsolve.solver import (_blackbox, _rows, decomposable_start_system, solve_decomposable,
                             solve_general)
from torsolve.supports import SparseSystem, SupportSystem, normalize
from torsolve.tracking import TrackerSettings

from oracles import quotient_supports, relative_distance, restrict_to_fiber, solve_integer, span_rank

# --- fixed data -----------------------------------------------------------

LAC_A1 = [(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)]
LAC_A2 = [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]
LAC_B1 = [(0, 0), (0, 1), (1, 1), (2, 2), (4, 1)]
LAC_B2 = [(0, 0), (1, 2), (2, 1), (3, 1), (3, 2)]
PAPER_PHI = IntMatrix.from_rows([[3, 0], [-1, 4]])

START_A = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 0), (3, 1), (3, 4), (4, 2), (5, 3), (5, 4), (6, 4)]

TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
TRI_C1 = [1, 2, 3, 4, 5, 6, 7, 8]
TRI_C2 = [2, 3, 5, 7, 11, 13, 17, 19]
TRI_C3 = [1, 3, 9, 27, 81, 243]

FAM_A1 = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
FAM_A2 = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
FAM_B1 = [(0, 0), (2, 0), (0, 1), (2, 3)]
FAM_B2 = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]
CUBE5 = sorted(itertools.product((0, 1), repeat=5))


def embed5(pts, u, v):
    return [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in pts]


def family_supports(vectors):
    i1, i2, j1, j2 = vectors
    return SupportSystem.of_points([
        embed5(FAM_A1, i1, i2),
        embed5(FAM_A2, i1, i2),
        embed5(FAM_B1, j1, j2),
        embed5(FAM_B2, j1, j2),
        list(CUBE5),
    ])


E5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
SHIFTED = [tuple(E5[i][j] - E5[i + 1][j] for j in range(5)) for i in range(4)]


def unit_coeffs(system, rng):
    return tuple(
        tuple(complex(np.exp(2j * np.pi * rng.random())) for _ in range(len(s)))
        for s in system.supports
    )


def tri_system():
    return SparseSystem.from_pairs([
        list(zip(TRI_A, TRI_C1)), list(zip(TRI_A, TRI_C2)), list(zip(TRI_A3, TRI_C3)),
    ])


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# --- criteria -------------------------------------------------------------


def test_criterion_1_mixed_volumes():
    checks = [
        ("MV(B)", SupportSystem.of_points([LAC_B1, LAC_B2]), 10),
        ("MV(start pair)", SupportSystem.of_points([START_A, START_A]), 30),
        ("MV(family e-basis)", family_supports([E5[0], E5[1], E5[2], E5[3]]), 50),
        ("MV(family shifted)", family_supports(SHIFTED), 250),
    ]
    details = []
    for name, system, expected in checks:
        t0 = time.perf_counter()
        mv = mixed_volume(system)
        elapsed = time.perf_counter() - t0
        assert mv == expected, f"{name} = {mv}, expected {expected}"
        assert elapsed < 10.0, f"{name} took {elapsed:.1f}s (limit 10s)"
        details.append(f"{name}={mv} ({elapsed:.2f}s)")
    report(1, "; ".join(details))


def test_criterion_2_lacunary_index_and_preimage():
    cls = classify(SupportSystem.of_points([LAC_A1, LAC_A2]))
    assert isinstance(cls, Lacunary)
    assert cls.index == 12
    # the classifier's map and the printed map span the same lattice, so the
    # preimage supports agree up to the (unimodular) change between them,
    # plus translation and point order
    change = [solve_integer(PAPER_PHI, col) for col in cls.phi.columns()]
    assert all(c is not None for c in change)
    V = IntMatrix.from_columns(change)
    assert abs(V.det()) == 1
    mapped = [sorted(V.apply(p) for p in sup.points) for sup in cls.preimage.system.supports]
    assert mapped[0] == sorted(LAC_B1)
    assert mapped[1] == sorted(LAC_B2)
    report(2, f"index = {cls.index}; preimage matches printed supports via "
              f"unimodular change {V.entries}")


def test_criterion_3_triangular_printed_system():
    F = tri_system()
    rep = solve_decomposable(F, seed=7)
    assert len(rep.solutions) == 32
    worst = max(rep.solutions.residuals)
    assert worst <= 1e-8
    # base subsystem count, read off the decomposition tree
    tri_nodes = [nd for nd in rep.tree.walk() if nd.kind == "triangular"]
    assert tri_nodes and tri_nodes[0].children[0].solutions == 8
    # each fiber has exactly 4 solutions: project by (x,y,z) -> (xz, yz)
    images = [np.array([p[0] * p[2], p[1] * p[2]]) for p in rep.solutions.points]
    clusters = []
    for v in images:
        for c in clusters:
            if relative_distance(c[0], v) < 1e-6:
                c.append(v)
                break
        else:
            clusters.append([v])
    assert len(clusters) == 8 and all(len(c) == 4 for c in clusters)
    # printed coefficient formula for the fiber restriction
    S, _ = normalize(F.system)
    pi_J, _images = quotient_supports(S, [0, 1])
    sign = pi_J.apply((0, 0, 2))[0] // 2
    rng = np.random.default_rng(303)
    for _ in range(10):
        u0, v0 = np.exp(2j * np.pi * rng.random(2)) * rng.uniform(0.5, 1.5, 2)
        bar = restrict_to_fiber(F, [2], pi_J, np.array([u0, v0, 1.0 + 0j]))
        got = {p[0]: c for p, c in bar.polynomial(0)}
        expected = {0: 1 + 0j, 2 * sign: 3 + 81 * u0 + 243 * u0 * v0, 4 * sign: 9 + 27 * v0}
        assert set(got) == set(expected)
        for key, val in expected.items():
            assert abs(got[key] - val) <= 1e-12 * max(1.0, abs(val))
    report(3, f"32 solutions (max residual {worst:.1e}); base 8, fibers 8x4; "
              f"fiber coefficients match the closed formula at 10 points")


def test_criterion_4_start_system():
    S = SupportSystem.of_points([START_A, START_A])
    G, sols = decomposable_start_system(S, seed=3)
    assert len(sols) == 30
    eta = np.exp(2j * np.pi / 3)
    pts = sols.points
    for action in (lambda p: np.array([eta * p[0], p[1]]),
                   lambda p: np.array([p[0], -p[1]])):
        for p in pts:
            moved = action(p)
            assert any(np.max(np.abs(moved - q)) <= 1e-8 * max(1.0, np.max(np.abs(moved)))
                       for q in pts)
    rng = np.random.default_rng(404)
    F = SparseSystem(S, unit_coeffs(S, rng))
    rep = solve_general(F, seed=5)
    assert len(rep.solutions) == 30
    worst = max(rep.solutions.residuals)
    assert worst <= 1e-8
    report(4, f"start system has 30 solutions, closed under both deck actions; "
              f"homotopy to a random target: 30 endpoints (max residual {worst:.1e})")


def test_criterion_5_family_ledger_and_cross_check():
    t0 = time.perf_counter()
    S = family_supports([E5[0], E5[1], E5[2], E5[3]])
    rng = np.random.default_rng(505)
    F = SparseSystem(S, unit_coeffs(S, rng))
    rep = solve_decomposable(F, seed=11)
    assert len(rep.solutions) == 50
    bb_sizes = sorted(nd.solutions for nd in rep.tree.walk() if nd.kind == "blackbox")
    assert bb_sizes == [5, 10]
    transfer_counts = sorted(nd.transfers for nd in rep.tree.walk() if nd.kind == "triangular")
    assert transfer_counts == [4, 9]
    assert rep.paths_tracked == 64
    (equivalent,), _ = _blackbox(S, _rows(F), mixed_volume(F.system), np.random.SeedSequence(12),
                                 TrackerSettings(), "")
    assert len(equivalent) == 50
    scipy_opt = pytest.importorskip("scipy.optimize")
    P = np.array(rep.solutions.points)
    Q = np.array(equivalent.points)
    D = np.max(np.abs(P[:, None, :] - Q[None, :, :]), axis=2)
    D /= np.maximum(1.0, np.max(np.abs(P), axis=1))[:, None]
    r, c = scipy_opt.linear_sum_assignment(D)
    worst = D[r, c].max()
    assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(5, f"blackbox subsolves {bb_sizes}, transfers {transfer_counts}, "
              f"ledger 64 paths, 50 solutions matching direct solve within "
              f"{worst:.1e} ({elapsed:.0f}s)")


def test_criterion_6_product_formula():
    rng = random.Random(606)
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 2000, "generator failed to produce enough triangular systems"
        n = rng.randint(2, 4)
        k = rng.randint(1, n - 1)
        U = _random_unimodular(rng, n)
        sups = []
        for i in range(n):
            cap = min(8, 3 ** (k if i < k else n))
            want = rng.randint(2, cap)
            pts = set()
            while len(pts) < want:
                if i < k:
                    p = tuple(rng.randint(0, 2) if c < k else 0 for c in range(n))
                else:
                    p = tuple(rng.randint(0, 2) for c in range(n))
                pts.add(p)
            sups.append([U.apply(p) for p in pts])
        S = SupportSystem.of_points(sups)
        if mv_is_zero(S)[0]:
            continue
        S, _ = normalize(S)
        if span_rank(S, tuple(range(k))) != k:
            continue
        witness = tuple(range(k))
        data = _triangular_data(S, witness)
        _, images = quotient_supports(S, witness)
        mv = hull_mixed_volume(S)
        assert hull_mixed_volume(data.base) * hull_mixed_volume(images) == mv
        checked += 1
    report(6, f"product formula exact on {checked} random triangular systems")


def _random_unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(5):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def test_criterion_7_bkk_counts():
    rng = random.Random(707)
    crng = np.random.default_rng(708)
    done = 0
    retried = 0
    attempts = 0
    while done < 50:
        attempts += 1
        assert attempts < 1000
        n = rng.randint(1, 3)
        sups = []
        for _ in range(n):
            want = rng.randint(2, 4 if n in (1, 3) else 5)
            pts = {tuple(0 for _ in range(n))}
            while len(pts) < want:
                pts.add(tuple(rng.randint(0, 2 if n == 3 else 3) for _ in range(n)))
            sups.append(sorted(pts))
        S = SupportSystem.of_points(sups)
        if mv_is_zero(S)[0]:
            continue
        mv = hull_mixed_volume(S)
        if not 1 <= mv <= 60:
            continue
        F = SparseSystem(S, unit_coeffs(S, crng))
        (sols,), tree = _blackbox(S, _rows(F), mv, np.random.SeedSequence(9000 + attempts),
                                  TrackerSettings(), "")
        assert len(sols) == mv
        if tree.gamma_retries:
            retried += 1
        done += 1
    assert retried <= 0.05 * done
    report(7, f"{done} random systems solved to their mixed volume; "
              f"{done - retried} without gamma retry")


def test_criterion_8_snf_suite():
    rng = random.Random(808)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        )
        if all(e == 0 for r in A.entries for e in r):
            continue
        form = smith_normal_form(A)
        assert (form.P @ form.D @ form.Q).entries == A.entries
        assert abs(form.P.det()) == 1 and abs(form.Q.det()) == 1
        f = form.invariant_factors
        assert all(b % a == 0 for a, b in zip(f, f[1:]))
    report(8, "1000 random Smith forms reconstruct exactly with unimodular "
              "transforms and a valid divisibility chain")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    from torsolve.cli import main

    data = {
        "n": 3,
        "polynomials": [
            {"support": [list(p) for p in TRI_A], "coefficients": [[c, 0] for c in TRI_C1]},
            {"support": [list(p) for p in TRI_A], "coefficients": [[c, 0] for c in TRI_C2]},
            {"support": [list(p) for p in TRI_A3], "coefficients": [[c, 0] for c in TRI_C3]},
        ],
    }
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(data))
    runs = []
    for _ in range(2):
        assert main(["solve", str(path), "--seed", "99", "--json"]) == 0
        runs.append(json.loads(capsys.readouterr().out))
    assert runs[0]["count"] == runs[1]["count"] == 32
    for a, b in zip(runs[0]["solutions"], runs[1]["solutions"]):
        for (re1, im1), (re2, im2) in zip(a, b):
            assert abs(re1 - re2) <= 1e-8 and abs(im1 - im2) <= 1e-8
    with capsys.disabled():
        report(9, "cmd_solve with a fixed seed is reproducible to 1e-8")
