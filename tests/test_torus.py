import numpy as np
import pytest

from torsolve.decompose import Triangular, _triangular_data
from torsolve.errors import DegenerateFiberError
from torsolve.intlinalg import IntMatrix
from torsolve.supports import SparseSystem, SupportSystem, normalize, preimage_supports, quotient_supports
from torsolve import solver
from torsolve.torus import (
    MonomialMap,
    apply,
    diagonal_fiber,
    fiber_restriction,
    monomial_value,
    relabel,
    restrict_to_fiber,
)

LACUNARY_A1 = [(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)]
LACUNARY_A2 = [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]
PHI = IntMatrix.from_rows([[3, 0], [-1, 4]])  # z = x^3 y^-1, w = y^4

F1_COEFFS = {(0, 0): 1, (0, 4): 2, (3, 3): 4, (6, 6): 8, (12, 0): 16}
F2_COEFFS = {(0, 0): 3, (3, 7): 5, (6, 2): 7, (9, 1): 11, (9, 5): 13}
G1_COEFFS = {(0, 0): 1, (0, 1): 2, (1, 1): 4, (2, 2): 8, (4, 1): 16}
G2_COEFFS = {(0, 0): 3, (1, 2): 5, (2, 1): 7, (3, 1): 11, (3, 2): 13}

def plain_values(F, x):
    """F at x term by term, sum(c * x^alpha): an evaluator independent of the
    package's homotopy evaluator."""
    return np.array([sum(c * monomial_value(x, alpha) for alpha, c in F.polynomial(i))
                     for i in range(F.n)])


TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
F3_COEFFS = {(0, 0, 0): 1, (0, 0, 2): 3, (0, 0, 4): 9, (0, 1, 5): 27, (1, 0, 3): 81, (1, 1, 4): 243}


def lacunary_F():
    return SparseSystem.from_pairs([list(F1_COEFFS.items()), list(F2_COEFFS.items())])


def random_torus_point(rng, n):
    mags = rng.uniform(0.5, 1.5, n)
    args = rng.uniform(-np.pi, np.pi, n)
    return mags * np.exp(1j * args)


def test_apply_identity():
    Phi = MonomialMap(IntMatrix.identity(3))
    x = np.array([1 + 1j, 2.0, -0.5j])
    assert np.allclose(apply(Phi, x), x)


def test_apply_paper_map():
    Phi = MonomialMap(PHI)
    out = apply(Phi, np.array([1.0, 2.0]))
    assert np.allclose(out, [0.5, 16.0])
    Phi3 = MonomialMap(IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]]))  # (xz, yz)
    assert np.allclose(apply(Phi3, np.array([1.0, 1.0, 1.0])), [1.0, 1.0])


def test_diagonal_fiber_counts_and_values():
    y = np.array([2.0 + 0j])
    assert len(diagonal_fiber([1], y)) == 1
    roots = diagonal_fiber([2], np.array([1.0 + 0j]))
    assert sorted(np.round(r[0], 12) for r in roots) == [-1.0, 1.0]
    rng = np.random.default_rng(3)
    y2 = random_torus_point(rng, 2)
    fiber = diagonal_fiber([3, 2], y2)
    assert len(fiber) == 6
    for w in fiber:
        assert np.allclose([w[0] ** 3, w[1] ** 2], y2, rtol=1e-12)
    # deterministic enumeration order
    again = diagonal_fiber([3, 2], y2)
    assert all(np.array_equal(a, b) for a, b in zip(fiber, again))


def test_relabel_reproduces_cover_system():
    F = lacunary_F()
    re = preimage_supports(F.system, PHI)
    G = relabel(F, re)
    got1 = dict(G.polynomial(0))
    got2 = dict(G.polynomial(1))
    assert got1 == {k: complex(v) for k, v in G1_COEFFS.items()}
    assert got2 == {k: complex(v) for k, v in G2_COEFFS.items()}


def test_relabel_preserves_evaluation():
    F = lacunary_F()
    re = preimage_supports(F.system, PHI)
    G = relabel(F, re)
    Phi = MonomialMap(PHI)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_torus_point(rng, 2)
        lhs = plain_values(G, apply(Phi, x))
        rhs = plain_values(F, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def tri_F():
    c1 = dict(zip(sorted(TRI_A), range(0, 0)))  # placeholder, replaced below
    f1 = {(0, 0, 0): 1, (1, 0, 1): 2, (1, 1, 2): 3, (1, 2, 3): 4,
          (2, 0, 2): 5, (2, 1, 3): 6, (2, 2, 4): 7, (3, 1, 4): 8}
    f2 = {(0, 0, 0): 2, (1, 0, 1): 3, (1, 1, 2): 5, (1, 2, 3): 7,
          (2, 0, 2): 11, (2, 1, 3): 13, (2, 2, 4): 17, (3, 1, 4): 19}
    return SparseSystem.from_pairs([list(f1.items()), list(f2.items()), list(F3_COEFFS.items())])


def test_restrict_to_fiber_matches_printed_formula():
    F = tri_F()
    pi_J, _images = quotient_supports(F.system, [0, 1])
    sign = pi_J.apply((0, 0, 2))[0] // 2  # +-1, the only quotient freedom
    rng = np.random.default_rng(11)
    for _ in range(10):
        u0, v0 = random_torus_point(rng, 2)
        y0 = np.array([u0, v0, 1.0 + 0j])
        bar = restrict_to_fiber(F, [2], pi_J, y0)
        got = {p[0]: c for p, c in bar.polynomial(0)}
        expected = {
            0: 1.0 + 0j,
            2 * sign: 3 + 81 * u0 + 243 * u0 * v0,
            4 * sign: 9 + 27 * v0,
        }
        assert set(got) == set(expected)
        for key, val in expected.items():
            assert abs(got[key] - val) <= 1e-12 * max(1.0, abs(val))


def test_restrict_to_fiber_evaluation_consistency():
    # the restricted system evaluated at z agrees with F at the fiber point
    F = tri_F()
    cls = _triangular_data(F.system, (0, 1))
    assert isinstance(cls, Triangular) and cls.witness == (0, 1)
    psi = MonomialMap(cls.psi)
    rng = np.random.default_rng(13)
    for _ in range(10):
        y = random_torus_point(rng, 2)
        y0 = apply(psi, np.concatenate([y, np.ones(1, dtype=complex)]))
        bar = restrict_to_fiber(F, [2], cls.projection, y0)
        z = random_torus_point(rng, 1)
        fiber_point = apply(psi, np.concatenate([y, z]))
        lhs = plain_values(bar, z)[0]
        rhs = plain_values(F, fiber_point)[2]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_restrict_constant_support_degenerate():
    # polynomial supported inside the I-span merges to a single coefficient sum;
    # with one term it stays constant (nonzero), flagged only when it cancels
    F = SparseSystem.from_pairs([
        [((0, 0), 1.0), ((1, 0), 2.0)],
        [((0, 0), 1.0), ((1, 0), -1.0)],
    ])
    pi = IntMatrix.from_rows([[0, 1]])
    y0 = np.array([1.0 + 0j, 1.0 + 0j])
    with pytest.raises(DegenerateFiberError):
        restrict_to_fiber(F, [1], pi, y0)


@pytest.mark.parametrize("modulus", [1e-27, np.inf])
def test_restrict_to_fiber_rejects_base_points_off_the_float_torus(modulus):
    # solve_general lifts a base solution of a random family instance to
    # |y0| = (2.8e5, 9.7e-27, 6.1e34); an infinite coordinate is no better
    F = tri_F()
    pi_J, _images = quotient_supports(F.system, [0, 1])
    y0 = np.array([2.8e5, modulus * np.exp(0.3j), 1.0])
    with pytest.raises(DegenerateFiberError, match="floating-point torus"):
        restrict_to_fiber(F, [2], pi_J, y0)


def test_restrict_to_fiber_raises_on_a_coefficient_that_overflows():
    # At x0 = 1e8 the terms x^40 y and -x^41 y overflow and merge to inf - inf
    # = NaN; dropped as a cancellation, they would leave the fiber 1 + y^2.
    F = SparseSystem.from_pairs([
        [((0, 0), 1.0), ((1, 0), 1.0)],
        [((0, 0), 1.0), ((40, 1), 1.0), ((41, 1), -1.0), ((0, 2), 1.0)],
    ])
    pi = IntMatrix.from_rows([[0, 1]])
    with pytest.raises(DegenerateFiberError, match=r"polynomial 1 .*non-finite.*\|y0\|"):
        restrict_to_fiber(F, [1], pi, np.array([1e8, 1.0]))


def test_monomial_value_negative_exponents():
    x = np.array([2.0, 4.0])
    assert abs(monomial_value(x, (-1, 2)) - 8.0) < 1e-14


def bits(values):
    """Exact text of each complex value: equal iff bit for bit equal."""
    return [repr(complex(v)) for v in values]


def test_apply_matches_monomial_value_bit_for_bit():
    rng = np.random.default_rng(20)
    for _ in range(100):
        n, m = (int(v) for v in rng.integers(1, 6, 2))
        Phi = MonomialMap(IntMatrix.from_rows(rng.integers(-5, 6, (n, m)).tolist()))
        x = random_torus_point(rng, n)
        assert bits(apply(Phi, x)) == bits(monomial_value(x, alpha)
                                           for alpha in Phi.matrix.columns())


def restriction_by_monomial_value(F, J, pi_J, y0):
    """The restricted coefficients term by term: c * monomial_value(y0, alpha)
    summed over each image point in the order of F's points."""
    out = []
    for j in sorted(J):
        merged = {}
        for alpha, c in F.polynomial(j):
            beta = pi_J.apply(alpha)
            merged[beta] = merged.get(beta, 0j) + c * monomial_value(y0, alpha)
        out.append(sorted(merged.items()))
    return out


def test_restrict_to_fibers_matches_each_point_bit_for_bit():
    rng = np.random.default_rng(21)
    cases = [(tri_F(), [2], quotient_supports(tri_F().system, [0, 1])[0])]
    for _ in range(20):
        n = int(rng.integers(2, 5))
        F = SparseSystem.from_pairs([
            {tuple(rng.integers(-3, 4, n).tolist()): complex(*rng.normal(size=2))
             for _ in range(int(rng.integers(1, 7)))}.items() for _ in range(n)])
        J = sorted(rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist())
        cases.append((F, J, IntMatrix.from_rows(rng.integers(-2, 3, (len(J), n)).tolist())))
    for F, J, pi_J in cases:
        restrict = fiber_restriction(F.system, J, pi_J)
        coefficients = [c for row in F.coefficients for c in row]
        for y0 in [random_torus_point(rng, F.n) for _ in range(4)]:
            got, want = restrict(coefficients, y0), restrict_to_fiber(F, J, pi_J, y0)
            assert got.system == want.system
            assert bits(np.concatenate(got.coefficients)) == bits(np.concatenate(want.coefficients))
            reference = restriction_by_monomial_value(F, J, pi_J, y0)
            for i, terms in enumerate(reference):  # nothing cancels on random points
                assert [b for b, _ in terms] == list(got.system.supports[i].points)
                assert bits(v for _, v in terms) == bits(got.coefficients[i])


def test_restrict_to_fibers_raises_the_first_error_of_a_per_point_loop():
    # f_1 = 1 - x restricts to the constant 1 - x0, which vanishes at x0 = 1.
    F = SparseSystem.from_pairs([
        [((0, 0), 1.0), ((1, 0), 2.0)],
        [((0, 0), 1.0), ((1, 0), -1.0)],
    ])
    pi = IntMatrix.from_rows([[0, 1]])
    good, vanishing, off = [2.0, 1.0], [1.0, 3.0], [1e-30, 1.0]
    restrict = fiber_restriction(F.system, [1], pi)
    coefficients = [c for row in F.coefficients for c in row]
    for y0 in (good, vanishing, off, good):  # an error leaves the shared function usable
        try:
            want = restrict_to_fiber(F, [1], pi, y0)
        except DegenerateFiberError as exc:
            with pytest.raises(DegenerateFiberError,
                               match="vanishes" if y0 is vanishing else "torus") as got:
                restrict(coefficients, y0)
            assert str(got.value) == str(exc)
            continue
        assert y0 is good and restrict(coefficients, y0) == want


@pytest.mark.parametrize("idx", [1, 2])
def test_a_fiber_support_that_differs_names_its_base_solution(monkeypatch, idx):
    # The fiber over base solution idx loses a term; the triangular solve
    # must stop there, naming idx. The node restricts its fibers in base
    # order, so the fiber over base solution idx is its call idx.
    real = solver.fiber_restriction

    def losing_a_term(S, J, pi_J):
        restrict, calls = real(S, J, pi_J), []

        def restricted(coefficients, y0):
            fiber = restrict(coefficients, y0)
            calls.append(y0)
            if len(calls) == idx + 1:
                polys = [fiber.polynomial(i) for i in range(fiber.n)]
                fiber = SparseSystem.from_pairs([polys[0][1:], *polys[1:]])
            return fiber

        return restricted

    monkeypatch.setattr(solver, "fiber_restriction", losing_a_term)
    with pytest.raises(DegenerateFiberError,
                       match=f"over base solution {idx} differs from the start fiber"):
        solver.solve_decomposable(tri_F(), seed=0)
