"""Independent references the tests check the package against: integer
matrix products, adjugates and ranks, exact integer solves, span ranks and
quotients of supports, polytope volumes, an LP test of hull membership,
fiber restriction one system at a time, monomials in Python's complex
arithmetic and the relative distance between two points. The solver and
the CLI reach none of them."""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from torsolve.decompose import _fiber_supports, _triangular_data
from torsolve.geometry import _hull
from torsolve.intlinalg import IntMatrix, _adjugate, _bareiss_rank, _product
from torsolve.supports import (SparseSystem, Support, SupportSystem, _affine_pivots, _differences,
                               normalize)
from torsolve.torus import fiber_restriction


def identity(n: int) -> IntMatrix:
    return IntMatrix.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])


def is_identity(A: IntMatrix) -> bool:
    return A.entries == identity(A.rows).entries


def product(*matrices: IntMatrix) -> IntMatrix:
    """The matrices multiplied from left to right."""
    if any(A.cols != B.rows for A, B in zip(matrices, matrices[1:])):
        raise ValueError("dimension mismatch in matrix product")
    return IntMatrix(functools.reduce(_product, (A.entries for A in matrices)))


def adjugate(A: IntMatrix) -> IntMatrix:
    """Integer adjugate: product(A, adjugate(A)) == A.det() * identity."""
    return IntMatrix(_adjugate(A.entries))


def rank(A: IntMatrix) -> int:
    """Rank by fraction-free Gaussian elimination."""
    return len(_bareiss_rank(A.entries))


def solve_integer(A: IntMatrix, rhs: Sequence[int]) -> tuple[int, ...] | None:
    """Solve A x = rhs exactly over the integers.

    Requires A to have full column rank (the solution, if any, is unique).
    Returns None when the system is inconsistent or the unique rational
    solution is not integral.
    """
    n, m = A.rows, A.cols
    if len(rhs) != n:
        raise ValueError("right-hand side length mismatch")
    aug = [[Fraction(e) for e in row] + [Fraction(operator.index(b))]
           for row, b in zip(A.entries, rhs)]
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [e * inv for e in aug[r]]
        for i in range(n):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if r < m:
        raise ValueError("matrix does not have full column rank")
    for i in range(r, n):
        if aug[i][m] != 0:
            return None  # inconsistent
    x = [aug[i][m] for i in range(m)]
    if any(v.denominator != 1 for v in x):
        return None
    return tuple(int(v) for v in x)


def _difference_columns(S: SupportSystem, indices) -> list[tuple[int, ...]]:
    return [d for i in indices for d in _differences(S.supports[i].points)]


def span_rank(S: SupportSystem, I: Sequence[int]) -> int:
    """Rank of the lattice generated by the supports indexed by I.

    Uses in-support differences, which agrees with the point span once the
    supports are normalized.
    """
    if not I:
        raise ValueError("index subset must be nonempty")
    _check_indices(S, I)
    cols = _difference_columns(S, I)
    if not cols:
        return 0
    return rank(IntMatrix.from_columns(cols))


def _check_indices(S: SupportSystem, I: Sequence[int]) -> None:
    for i in I:
        if not 0 <= i < S.n:
            raise ValueError(f"index {i} is outside 0..{S.n - 1}")


def quotient_supports(S: SupportSystem, I: Sequence[int]) -> tuple[IntMatrix, SupportSystem]:
    """Project the complementary supports to the quotient by the I-span.

    The Triangular data classify gives the witness I of the normalized
    system: a Smith normal form saturates the lattice spanned by the
    supports in I and completes it to a basis of Z^n. Returns the induced
    projection onto the last n-k coordinates together with the images of
    the supports of S outside I (duplicate images merged).
    """
    _check_indices(S, I)
    I = sorted(set(I))
    if not 0 < len(I) < S.n:
        raise ValueError("index subset must be nonempty and proper")
    if span_rank(S, I) != len(I):
        raise ValueError("supports indexed by I do not span rank |I|")
    data = _triangular_data(normalize(S)[0], I)
    return data.projection, _fiber_supports(S, data)


def polytope_volume(P) -> Fraction:
    """Exact Euclidean volume of the hull of a Support or of points with
    int, Fraction or float coordinates; zero when it is dimension deficient."""
    points = [tuple(map(Fraction, p)) for p in (P.points if isinstance(P, Support) else P)]
    if not points or len({len(p) for p in points}) != 1:
        raise ValueError("polytope_volume needs at least one point, all of one dimension")
    scale = math.lcm(*(c.denominator for p in points for c in p))
    pts = sorted({tuple(int(c * scale) for c in p) for p in points})
    n, pivots = len(pts[0]), _affine_pivots(pts)
    if len(pivots) < n:
        return Fraction(0)
    dvol, _ = _hull(pts, [0, *pivots])
    return Fraction(dvol, math.factorial(n) * scale**n)


def point_in_hull(point: Sequence[int], pts: Sequence[Sequence[int]]) -> bool:
    """Exact test whether an integer point lies in conv(pts).

    Phase-1 simplex with integer pivoting and Bland's rule: feasibility of
    sum(lam_i * q_i) = p, sum(lam_i) = 1, lam >= 0.
    """
    if not pts:
        return False
    n = len(point)
    m = len(pts)
    nrows = n + 1
    # Constraint rows [Q | rhs], forced to rhs >= 0.
    rows = []
    for r in range(nrows):
        if r < n:
            coeffs = [operator.index(q[r]) for q in pts]
            b = operator.index(point[r])
        else:
            coeffs = [1] * m
            b = 1
        if b < 0:
            coeffs = [-c for c in coeffs]
            b = -b
        rows.append(coeffs + [0] * nrows + [b])
    for r in range(nrows):
        rows[r][m + r] = 1
    # Phase-1 objective: minimize the artificials. Reduced-cost row for the
    # artificial basis is minus the column sums over the lambda columns.
    obj = [0] * (m + nrows + 1)
    for j in range(m):
        obj[j] = -sum(rows[r][j] for r in range(nrows))
    obj[-1] = -sum(rows[r][-1] for r in range(nrows))
    tableau = rows + [obj]
    basis = [m + r for r in range(nrows)]
    denom = 1

    while True:
        objrow = tableau[nrows]
        enter = next((j for j in range(m + nrows) if objrow[j] < 0), None)
        if enter is None:
            break
        # Bland leaving rule: smallest ratio, ties by smallest basis index.
        leave = None
        for r in range(nrows):
            a = tableau[r][enter]
            if a <= 0:
                continue
            if leave is None:
                leave = r
            else:
                lhs = tableau[r][-1] * tableau[leave][enter]
                rhs = tableau[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave is None:
            raise AssertionError("phase-1 simplex cannot be unbounded")
        piv = tableau[leave][enter]
        for r in range(nrows + 1):
            if r == leave:
                continue
            f = tableau[r][enter]
            tableau[r] = [(v * piv - f * w) // denom for v, w in zip(tableau[r], tableau[leave])]
        denom = piv
        basis[leave] = enter

    return tableau[nrows][-1] == 0


def restrict_to_fiber(F: SparseSystem, J: Sequence[int], pi_J: IntMatrix,
                      y0: Sequence[complex]) -> SparseSystem:
    """Restrict the J-polynomials of F to the fiber through y0.

    The restricted support of f_j is the projection of its support, and the
    coefficient at an image point is the sum of c_alpha * y0^alpha over the
    original points alpha mapping there. Merged coefficients that cancel to
    zero are dropped; a polynomial losing all its terms or with a merged
    coefficient not finite, or a base point with a coordinate of modulus at
    most TORUS_THRESHOLD or not finite, means the fiber is degenerate.
    """
    fiber, coefficients, _ = fiber_restriction(F.system, J, pi_J)(
        np.concatenate(F.coefficients)[None], np.asarray(y0, dtype=complex)[None])
    cuts = np.cumsum([len(sup) for sup in fiber.supports])[:-1]
    return SparseSystem(fiber, np.split(coefficients[0], cuts))


def _cpow(base: complex, e: int) -> complex:
    """Binary exponentiation; one reciprocal per negative exponent."""
    if e < 0:
        base = 1.0 / base
        e = -e
    out = 1.0 + 0.0j
    while e:
        if e & 1:
            out *= base
        base *= base
        e >>= 1
    return out


def monomial_value(x, alpha) -> complex:
    """x^alpha for an integer exponent vector in Python's complex arithmetic:
    the tests' oracle, independent of numpy's; the solver never calls it."""
    v = 1.0 + 0.0j
    for xj, e in zip(x, alpha):
        if e:
            v *= _cpow(complex(xj), int(e))
    return v


def relative_distance(x, y) -> float:
    x = np.asarray(x)
    y = np.asarray(y)
    scale = max(1.0, float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale
