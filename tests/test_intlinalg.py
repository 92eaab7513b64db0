import math
import random

import pytest

from torsolve.errors import NotUnimodularError, ZeroMatrixError
from torsolve.intlinalg import (
    IntMatrix,
    lattice_index,
    smith_normal_form,
    solve_integer,
    unimodular_inverse,
)

# Supports of the two-variable lacunary worked example; their union spans a
# sublattice of index 12.
LACUNARY_A1 = [(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)]
LACUNARY_A2 = [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]


def random_matrix(rng, rows, cols, lo=-20, hi=20):
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def test_identity_snf():
    form = smith_normal_form(IntMatrix.identity(2))
    assert form.invariant_factors == (1, 1)
    assert form.P.is_identity() or abs(form.P.det()) == 1
    assert (form.P @ form.D @ form.Q).entries == IntMatrix.identity(2).entries


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
    assert unimodular_inverse(IntMatrix.identity(3)).is_identity()
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
    assert lattice_index(IntMatrix.from_columns([(1, 0), (0, 1)])) == 1
    assert lattice_index(IntMatrix.from_columns(LACUNARY_A1 + LACUNARY_A2)) == 12
    assert lattice_index(IntMatrix.from_columns([(1, 2)])) == math.inf
    assert lattice_index(IntMatrix.from_rows([[0, 0], [0, 0]])) == math.inf


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
        assert lattice_index(M) == abs(det)


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
