import re

import numpy as np
import pytest

from torsolve.decompose import Triangular, _triangular_data
from torsolve.errors import DegenerateFiberError
from torsolve.intlinalg import IntMatrix
from torsolve.supports import SparseSystem, SupportSystem, normalize, preimage_supports
from torsolve import solver
from torsolve.torus import (
    MonomialMap,
    apply,
    diagonal_fiber,
    fiber_restriction,
)

from oracles import identity, monomial_value, quotient_supports, restrict_to_fiber
from systems import PAPER_PHI, TRI_A, cover

F1_COEFFS = {(0, 0): 1, (0, 4): 2, (3, 3): 4, (6, 6): 8, (12, 0): 16}
F2_COEFFS = {(0, 0): 3, (3, 7): 5, (6, 2): 7, (9, 1): 11, (9, 5): 13}
G1_COEFFS = {(0, 0): 1, (0, 1): 2, (1, 1): 4, (2, 2): 8, (4, 1): 16}
G2_COEFFS = {(0, 0): 3, (1, 2): 5, (2, 1): 7, (3, 1): 11, (3, 2): 13}

def plain_values(F, x):
    """F at x term by term, sum(c * x^alpha): an evaluator independent of the
    package's homotopy evaluator."""
    return np.array([sum(c * monomial_value(x, alpha) for alpha, c in F.polynomial(i))
                     for i in range(F.n)])


F3_COEFFS = {(0, 0, 0): 1, (0, 0, 2): 3, (0, 0, 4): 9, (0, 1, 5): 27, (1, 0, 3): 81, (1, 1, 4): 243}


def lacunary_F():
    return SparseSystem.from_pairs([list(F1_COEFFS.items()), list(F2_COEFFS.items())])


def random_torus_point(rng, n):
    mags = rng.uniform(0.5, 1.5, n)
    args = rng.uniform(-np.pi, np.pi, n)
    return mags * np.exp(1j * args)


def test_apply_identity():
    Phi = MonomialMap(identity(3))
    x = np.array([1 + 1j, 2.0, -0.5j])
    assert np.allclose(apply(Phi, x), x)


def test_apply_paper_map():
    Phi = MonomialMap(PAPER_PHI)
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


def test_cover_coefficients_reproduce_cover_system():
    # The lacunary node's cover takes F's coefficients at the columns
    # _positions gives for the preimage supports' index maps.
    F = lacunary_F()
    G = cover(F, preimage_supports(F.system, PAPER_PHI))
    got1 = dict(G.polynomial(0))
    got2 = dict(G.polynomial(1))
    assert got1 == {k: complex(v) for k, v in G1_COEFFS.items()}
    assert got2 == {k: complex(v) for k, v in G2_COEFFS.items()}


def test_cover_coefficients_preserve_evaluation():
    F = lacunary_F()
    G = cover(F, preimage_supports(F.system, PAPER_PHI))
    Phi = MonomialMap(PAPER_PHI)
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_torus_point(rng, 2)
        lhs = plain_values(G, apply(Phi, x))
        rhs = plain_values(F, x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def tri_F():
    return SparseSystem.from_pairs([list(zip(TRI_A, [1, 2, 3, 4, 5, 6, 7, 8])),
                                    list(zip(TRI_A, [2, 3, 5, 7, 11, 13, 17, 19])),
                                    list(F3_COEFFS.items())])


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


def close_to_oracle(got, want, scale, rtol):
    """Every |got - want| within rtol * scale, entry by entry."""
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= rtol * np.asarray(scale)))


def test_apply_matches_each_point_bit_for_bit():
    # Each point in a stack, alone, and as a one-point stack of one exponent
    # column gets the same bits. Exponents reach +-150, and moduli from 1e-3
    # to 1e3 overflow some monomials without a warning, non-finite exactly
    # where monomial_value, Python's complex arithmetic, overflows too. The
    # finite values stay near it: a value is at most about 30 complex
    # roundings from exact on either side (up to 5 powers with |e| <= 5 by
    # repeated squaring, and 4 products), each within sqrt(5) * 2^-53 =
    # 2.5e-16 relative, so 2e-14 bounds the two apart (1.3e-15 seen). numpy
    # takes a power with |e| >= 100 as exp(e log x), whose relative error
    # grows like |e log x| * 2^-53, up to 150 * 8.2 * 1.1e-16 = 1.4e-13 a
    # power for moduli in [5e-4, 1.5e3]: 1e-12 for five (1.0e-13 seen).
    rng = np.random.default_rng(20)
    for case in range(100):
        n, m = (int(v) for v in rng.integers(1, 6, 2))
        bound = 5 if case % 2 else 150
        Phi = MonomialMap(IntMatrix.from_rows(rng.integers(-bound, bound + 1, (n, m)).tolist()))
        first = MonomialMap(IntMatrix.from_rows([[e] for e in Phi.matrix.column(0)]))
        X = np.array([random_torus_point(rng, n) for _ in range(6)])
        X[1] *= 10.0 ** rng.uniform(-3, 3, n)
        X[2], X[3] = np.abs(X[2]) * np.sign(rng.normal(size=n)), 1j * np.abs(X[3])
        stacked = apply(Phi, X)
        assert stacked.shape == (len(X), m)
        for x, row in zip(X, stacked):
            assert bits(apply(Phi, x)) == bits(row)
            assert bits(apply(first, x[None])[0]) == bits(row[:1])
            want = np.array([monomial_value(x, alpha) for alpha in Phi.matrix.columns()])
            finite = np.isfinite(want)
            assert list(np.isfinite(row)) == list(finite)
            assert close_to_oracle(row[finite], want[finite], np.abs(want[finite]),
                                   2e-14 if bound == 5 else 1e-12)
    # A real or imaginary coordinate under one exponent: the values of
    # monomial_value, though a zero part may take the other sign.
    X = np.array([[1.5 + 0j], [complex(-2.0, -0.0)], [complex(-0.0, 1.5)], [-2j]])
    for e in range(-3, 4):
        Phi = MonomialMap(IntMatrix.from_rows([[e]]))
        assert list(apply(Phi, X)[:, 0]) == [monomial_value(x, (e,)) for x in X]


def restriction_by_monomial_value(F, J, pi_J, y0):
    """The restricted coefficients term by term: c * monomial_value(y0, alpha)
    summed over each image point in the order of F's points, each with the
    sum of its terms' moduli."""
    out = []
    for j in sorted(J):
        merged = {}
        for alpha, c in F.polynomial(j):
            beta = pi_J.apply(alpha)
            term = c * monomial_value(y0, alpha)
            value, size = merged.get(beta, (0j, 0.0))
            merged[beta] = (value + term, size + abs(term))
        out.append(sorted(merged.items()))
    return out


def on_row(F, row):
    """The system on F's support with the coefficient row `row`."""
    cuts = np.cumsum([len(sup) for sup in F.system.supports])[:-1]
    return SparseSystem(F.system, np.split(np.asarray(row, dtype=complex), cuts))


def test_restrict_to_fibers_matches_each_point_bit_for_bit():
    # Stacks of base points, each on one of several coefficient rows, with
    # the bits each point gets alone; some cases restrict one polynomial of
    # one term, so a point alone is a one-point stack of one exponent
    # column. The merged coefficients stay near monomial_value's, within
    # 2e-14 of the sum of their terms' moduli: a term takes about 20 complex
    # roundings on either side (up to 4 powers with |e| <= 3, 3 products and
    # its coefficient), and its sum a few more, each within 2.5e-16 (9.5e-16
    # seen).
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
        M = sum(len(sup) for sup in F.system.supports)
        C = np.vstack([np.concatenate(F.coefficients), rng.normal(size=(2, M, 2)) @ [1, 1j]])
        rows = rng.integers(0, len(C), 6)
        Y = np.array([random_torus_point(rng, F.n) for _ in rows])
        support, coefficients, errors = fiber_restriction(F.system, J, pi_J)(C[rows], Y)
        assert errors == [None] * len(Y)
        assert coefficients.shape == (len(Y), sum(len(sup) for sup in support.supports))
        for y0, r, got in zip(Y, rows, coefficients):
            want = restrict_to_fiber(on_row(F, C[r]), J, pi_J, y0)
            assert want.system == support and bits(got) == bits(np.concatenate(want.coefficients))
            reference = restriction_by_monomial_value(on_row(F, C[r]), J, pi_J, y0)
            assert [tuple(b for b, _ in terms) for terms in reference] == [
                sup.points for sup in support.supports]  # nothing cancels on random points
            want, size = np.array([v for terms in reference for _, v in terms]).T
            assert close_to_oracle(got, want, size.real, 2e-14)


def test_restrict_to_fibers_raises_the_first_error_of_a_per_point_loop():
    # Over x0 = 1, f_1 = 1 - x restricts to 0 and vanishes; f_2 = 2 - x +
    # y^400 z loses its constant over x0 = 2 and overflows over y0 = 1e5.
    # Row 1 has f_1 = 1 - 2x, which vanishes over x0 = 0.5.
    F = SparseSystem.from_pairs([
        [((0, 0, 0), 1.0), ((1, 0, 0), 1.0)],
        [((0, 0, 0), 1.0), ((1, 0, 0), -1.0)],
        [((0, 0, 0), 2.0), ((1, 0, 0), -1.0), ((0, 400, 1), 1.0)],
    ])
    C = np.array([np.concatenate(F.coefficients)] * 2)
    C[1, 3] = -2.0
    pi = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1]])
    stack = [  # (row, base point), in (row, base) order
        (0, (3, 1, 1)), (0, (2, 1, 1)), (0, (1, 1e5, 1)), (0, (3, 1e5, 1)),
        (1, (0.5, 1, 1e-30)), (1, (0.5, 1, 1)), (1, (3, 1, 1)), (1, (4, 1, 1)),
    ]
    rows, Y = np.array([r for r, _ in stack]), np.array([y for _, y in stack], dtype=complex)
    start = restrict_to_fiber(on_row(F, C[0]), [1, 2], pi, Y[0])
    expected = []  # a per-point loop: each point alone, then its support against fiber 0's
    for p, (r, y0) in enumerate(zip(rows, Y)):
        try:
            fiber = restrict_to_fiber(on_row(F, C[r]), [1, 2], pi, y0)
        except DegenerateFiberError as exc:
            expected.append(str(exc))
            continue
        expected.append(None if fiber.system == start.system
                        else f"fiber support over base solution {p} differs from the start fiber")
    for text, match in zip(expected, [None, "differs", "polynomial 1 vanishes",
                                      r"polynomial 2 .*non-finite.*\|y0\|", "torus",
                                      "polynomial 1 vanishes", None, None]):
        assert text is match is None or re.search(match, text)
    restrict = fiber_restriction(F.system, [1, 2], pi)
    support, coefficients, errors = restrict(C[rows], Y)
    assert support == start.system
    assert bits(coefficients[0]) == bits(np.concatenate(start.coefficients))
    assert [str(e) if e else None for e in errors] == expected
    for p in (0, 6, 7):
        fiber = restrict_to_fiber(on_row(F, C[rows[p]]), [1, 2], pi, Y[p])
        assert bits(coefficients[p]) == bits(np.concatenate(fiber.coefficients))
    for first in range(2, 6):  # a stack that starts at a degenerate fiber raises its error
        with pytest.raises(DegenerateFiberError) as got:
            restrict(C[rows[first:]], Y[first:])
        assert str(got.value) == expected[first]


@pytest.mark.parametrize("idx", [1, 2])
def test_a_fiber_support_that_differs_names_its_base_solution(monkeypatch, idx):
    # The fiber over base solution idx loses a term; the triangular solve
    # must stop there, naming idx. The node restricts its fibers in one
    # stack, row 0's first, so the fiber over base solution idx is row idx
    # of the stack: the coefficient of a term alone at its image is zeroed
    # there, so that the image's merged coefficient cancels.
    real = solver.fiber_restriction

    def losing_a_term(S, J, pi_J):
        restrict, j = real(S, J, pi_J), min(J)
        images = [pi_J.apply(alpha) for alpha in S.supports[j].points]
        lone = next(a for a, beta in enumerate(images) if images.count(beta) == 1)
        column = sum(len(sup) for sup in S.supports[:j]) + lone

        def restricted(C, Y):
            C = np.array(C)
            C[idx, column] = 0
            return restrict(C, Y)

        return restricted

    monkeypatch.setattr(solver, "fiber_restriction", losing_a_term)
    with pytest.raises(DegenerateFiberError,
                       match=f"over base solution {idx} differs from the start fiber"):
        solver.solve_decomposable(tri_F(), seed=0)
