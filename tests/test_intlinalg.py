import dataclasses
import math
import random
from fractions import Fraction

import pytest

from torsolve.errors import NotUnimodularError, ZeroMatrixError
from torsolve.intlinalg import (
    IntMatrix,
    SmithForm,
    _bareiss_det,
    _check_smith,
    smith_normal_form,
    unimodular_inverse,
)

from oracles import identity, solve_integer
from systems import LACUNARY_A1, LACUNARY_A2  # their union spans a sublattice of index 12


def random_matrix(rng, rows, cols, lo=-20, hi=20):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_identity_snf():
    form = smith_normal_form(identity(2))
    assert form.invariant_factors == (1, 1)
    assert form.P.is_identity() or abs(form.P.det()) == 1
    assert (form.P @ form.D @ form.Q).entries == identity(2).entries


def test_snf_hand_example():
    # [[3,0],[-1,4]]: gcd of entries 1, |det| 12, so factors are (1, 12).
    A = IntMatrix.from_rows([[3, 0], [-1, 4]])
    form = smith_normal_form(A)
    assert form.invariant_factors == (1, 12)


def test_snf_lacunary_support_matrix():
    A = IntMatrix.from_columns(LACUNARY_A1 + LACUNARY_A2)
    form = smith_normal_form(A)
    assert form.invariant_factors == (1, 12)
    assert math.prod(form.invariant_factors) == 12


def test_snf_zero_matrix_errors():
    with pytest.raises(ZeroMatrixError):
        smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))


def test_snf_random_reconstruction():
    rng = random.Random(20240)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = random_matrix(rng, rows, cols)
        if all(e == 0 for r in A.entries for e in r):
            continue
        form = smith_normal_form(A)
        assert (form.P @ form.D @ form.Q).entries == A.entries
        assert abs(form.P.det()) == 1
        assert abs(form.Q.det()) == 1
        f = form.invariant_factors
        assert all(x > 0 for x in f)
        assert all(b % a == 0 for a, b in zip(f, f[1:]))
        assert len(f) == A.rank()


def test_unimodular_inverse_trivial():
    assert unimodular_inverse(identity(3)).is_identity()
    U = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert unimodular_inverse(U).entries == ((1, -1), (0, 1))


def test_unimodular_inverse_of_snf_transform():
    A = IntMatrix.from_columns(LACUNARY_A1 + LACUNARY_A2)
    form = smith_normal_form(A)
    inv = unimodular_inverse(form.P)
    assert (form.P @ inv).is_identity()
    assert (inv @ form.P).is_identity()


def test_unimodular_inverse_rejects():
    with pytest.raises(NotUnimodularError):
        unimodular_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(NotUnimodularError):
        unimodular_inverse(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_lattice_index():
    # The index of a full-rank column lattice is the product of the
    # invariant factors; a lower rank leaves it infinite.
    assert smith_normal_form(IntMatrix.from_columns([(1, 0), (0, 1)])).invariant_factors == (1, 1)
    form = smith_normal_form(IntMatrix.from_columns(LACUNARY_A1 + LACUNARY_A2))
    assert form.rank == 2 and math.prod(form.invariant_factors) == 12
    assert smith_normal_form(IntMatrix.from_columns([(1, 2)])).rank == 1
    with pytest.raises(ZeroMatrixError):
        smith_normal_form(IntMatrix.from_rows([[0, 0], [0, 0]]))


def test_lattice_index_matches_basis_determinant():
    # For full-rank column lattices the index equals |det| of a basis; a
    # Hermite-style elimination oracle on 2x2 cases.
    rng = random.Random(7)
    for _ in range(100):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            continue
        M = IntMatrix.from_columns([(a, c), (b, d)])
        form = smith_normal_form(M)
        assert form.rank == 2 and math.prod(form.invariant_factors) == abs(det)


def test_rank_consistency():
    rng = random.Random(99)
    for _ in range(100):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -8, 8)
        if all(e == 0 for r in A.entries for e in r):
            continue
        assert A.rank() == smith_normal_form(A).rank


def test_adjugate():
    rng = random.Random(71)
    for n in range(1, 6):
        for _ in range(10):
            A = random_matrix(rng, n, n, -6, 6)
            d = A.det()
            assert (A @ A.adjugate()).entries == tuple(
                tuple(d if i == j else 0 for j in range(n)) for i in range(n)
            )


def test_solve_integer():
    A = IntMatrix.from_rows([[3, 0], [-1, 4]])
    assert solve_integer(A, (3, 3)) == (1, 1)
    assert solve_integer(A, (1, 0)) is None  # not in the lattice
    tall = IntMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    assert solve_integer(tall, (2, 3, 5)) == (2, 3)
    assert solve_integer(tall, (2, 3, 4)) is None  # inconsistent


def fraction_det(rows) -> int:
    """Reference determinant: Gaussian elimination over the rationals."""
    a = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot], det = a[pivot], a[c], -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            q = a[i][c] / a[c][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[c])]
    return int(det)


def with_unit_rows(rng, rows, columns):
    """Copy of rows whose row i is replaced by +-e_j for each (i, j) in columns."""
    rows = [list(row) for row in rows]
    for i, j in columns:
        rows[i] = [0] * len(rows)
        rows[i][j] = rng.choice((-1, 1))
    return rows


def test_det_matches_fraction_elimination():
    rng = random.Random(2024)
    cases = [[[0]], [[1]], [[-7]]]
    cases += [random_matrix(rng, 5, 5, -9, 9).entries for _ in range(20)]
    for _ in range(150):
        n = rng.randint(2, 9)
        dense = random_matrix(rng, n, n, -5, 5).entries
        units = list(zip(rng.sample(range(n), rng.randint(1, n)), rng.sample(range(n), n)))
        cases.append(with_unit_rows(rng, dense, units))  # signed unit rows, distinct columns
        i, k = rng.sample(range(n), 2)
        cases.append(with_unit_rows(rng, dense, [(i, units[0][1]), (k, units[0][1])]))
        cases.append([[0] * n if r == i else list(row) for r, row in enumerate(dense)])
    for rows in cases:
        M = IntMatrix.from_rows(rows)
        assert M.det() == fraction_det(rows) == _bareiss_det([list(r) for r in rows]), rows
        n = M.rows
        assert (M @ M.adjugate()).entries == tuple(
            tuple(M.det() if i == j else 0 for j in range(n)) for i in range(n))
        if abs(M.det()) == 1:
            assert (unimodular_inverse(M) @ M).is_identity()
    assert sum(fraction_det(rows) == 0 for rows in cases) > len(cases) // 3
    assert _bareiss_det([]) == 1


def reference_check_smith(A, form):
    """The check as it was before it summed over the rank: the full product
    P @ D @ Q, and Bareiss elimination on all of P and Q."""
    if (form.P @ form.D @ form.Q).entries != A.entries:
        raise AssertionError("Smith normal form reconstruction failed")
    for U in (form.P, form.Q):
        if abs(_bareiss_det([list(r) for r in U.entries])) != 1:
            raise AssertionError("Smith normal form transform not unimodular")
    f = form.invariant_factors
    for a, b in zip(f, f[1:]):
        if b % a != 0:
            raise AssertionError("invariant factor divisibility violated")


def verdict(check, A, form):
    """None if `check` accepts the form, else its AssertionError message."""
    try:
        check(A, form)
    except AssertionError as exc:
        return str(exc)
    return None


def replaced(M, i, j, value):
    rows = [list(row) for row in M.entries]
    rows[i][j] = value
    return IntMatrix.from_rows(rows)


def corrupted_forms(rng, A, form):
    """(matrix, form) pairs where the form differs from a Smith form of the
    matrix in one way a wrong elimination could leave it."""
    n, m, r = A.rows, A.cols, form.rank
    Q = [list(row) for row in form.Q.entries]
    for k in range(r, m):  # rows of Q that meet D's zero rows
        scaled = IntMatrix.from_rows(Q[:k] + [[2 * e for e in Q[k]]] + Q[k + 1:])
        yield A, dataclasses.replace(form, Q=scaled)
        noise = [rng.randint(-3, 3) for _ in range(m)]
        yield A, dataclasses.replace(form, Q=IntMatrix.from_rows(Q[:k] + [noise] + Q[k + 1:]))
    i, k = rng.randrange(n), rng.randrange(n)
    changed = form.P.entries[i][k] + rng.choice((-2, -1, 1, 3))
    yield A, dataclasses.replace(form, P=replaced(form.P, i, k, changed))
    if n * m > 1:
        i, j = rng.choice([(i, j) for i in range(n) for j in range(m) if i != j])
        yield A, dataclasses.replace(form, D=replaced(form.D, i, j, rng.choice((-2, -1, 1, 5))))
        d = form.invariant_factors[0]
        yield A, dataclasses.replace(form, D=replaced(replaced(form.D, 0, 0, 0), i, j, d))
    if r >= 2:
        f = (form.invariant_factors[1] + 1,) + form.invariant_factors[1:]
        D = IntMatrix.from_rows([[f[i] if i == j and i < r else 0 for j in range(m)]
                                 for i in range(n)])
        yield form.P @ D @ form.Q, SmithForm(P=form.P, D=D, Q=form.Q, invariant_factors=f)


def test_check_smith_accepts_and_rejects_as_the_full_check():
    rng = random.Random(4711)
    seen = set()
    for _ in range(150):
        n, m, rank = rng.randint(1, 5), rng.randint(1, 12), rng.randint(1, 5)
        # A product of random factors, so that ranks below min(n, m) occur.
        A = random_matrix(rng, n, rank, -4, 4) @ random_matrix(rng, rank, m, -4, 4)
        if all(e == 0 for row in A.entries for e in row):
            continue
        form = smith_normal_form(A)
        assert verdict(_check_smith, A, form) is verdict(reference_check_smith, A, form) is None
        for B, bad in corrupted_forms(rng, A, form):
            expected = verdict(reference_check_smith, B, bad)
            assert verdict(_check_smith, B, bad) == expected
            seen.add(expected)
    assert seen == {None, "Smith normal form reconstruction failed",
                    "Smith normal form transform not unimodular",
                    "invariant factor divisibility violated"}
