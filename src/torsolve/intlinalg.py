"""Exact integer matrix algebra: Smith normal form, unimodular inverses, ranks.

All arithmetic uses Python's arbitrary-precision integers; intermediate
entries of an elimination can grow well past 64 bits even for small inputs,
so nothing here may round-trip through floats.

Entries are validated once, where they enter: IntMatrix's constructor, like
Support's, converts each by operator.index. Below the public entry points a
matrix is a tuple of such integer rows, taken as it is by the functions
after IntMatrix, which its methods call; an IntMatrix is built only where a
matrix leaves the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import NotUnimodularError, ZeroMatrixError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major. Each entry is converted here, once,
    by operator.index: a Python or numpy integer is accepted, a float raises."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(map(operator.index, row)) for row in self.entries)
        if not entries or not entries[0]:
            raise ValueError("matrix dimensions must be positive")
        if any(len(row) != len(entries[0]) for row in entries):
            raise ValueError("rows have inconsistent lengths")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> IntMatrix:
        return cls(rows)

    @classmethod
    def from_columns(cls, columns) -> IntMatrix:
        return cls.from_rows(zip(*columns))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> IntMatrix:
        return IntMatrix.from_rows(zip(*self.entries))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return IntMatrix(_product(self.entries, other.entries))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return _image(self.entries, vector)

    def is_identity(self) -> bool:
        return self.entries == _identity(self.rows)

    def det(self) -> int:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return _det(self.entries)

    def adjugate(self) -> IntMatrix:
        """Integer adjugate: A @ A.adjugate() == A.det() * identity."""
        if self.rows != self.cols:
            raise ValueError("adjugate requires a square matrix")
        return IntMatrix(_adjugate(self.entries))

    def rank(self) -> int:
        """Rank by fraction-free Gaussian elimination."""
        return len(self.pivot_columns())

    def pivot_columns(self) -> list[int]:
        """Indices of the columns outside the span of those before them: a basis over Q."""
        return _bareiss_rank(self.entries)


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _product(A, B) -> tuple[tuple[int, ...], ...]:
    """The rows of A @ B."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in A)


def _image(A, vector) -> tuple[int, ...]:
    """A @ vector."""
    return tuple(sum(map(operator.mul, row, vector)) for row in A)


def _det(A) -> int:
    """Determinant of the square A: Laplace expansion along the rows with one
    nonzero entry, then fraction-free (Bareiss) elimination of the minor left."""
    n = len(A)
    perm, scale = [None] * n, 1  # perm[i]: the column of row i's factor
    for i, row in enumerate(A):
        if row.count(0) == n - 1:
            scale *= (v := max(row) or min(row))
            perm[i] = row.index(v)
    rows, cols = [i for i in range(n) if perm[i] is None], sorted(set(range(n)).difference(perm))
    if len(cols) != len(rows):
        return 0  # two rows are multiples of one unit vector
    for i, j in zip(rows, cols):
        perm[i] = j
    for i in range(n):  # the sign of perm, one flip per transposition
        while (j := perm[i]) != i:
            perm[i], perm[j], scale = perm[j], j, -scale
    return scale * _bareiss_det([[A[i][j] for j in cols] for i in rows])


def _adjugate(A) -> tuple[tuple[int, ...], ...]:
    """The rows of the square A's adjugate, by cofactors."""
    n = len(A)

    def cofactor(i, j):
        minor = [[e for c, e in enumerate(row) if c != j] for r, row in enumerate(A) if r != i]
        return (-1) ** (i + j) * _bareiss_det(minor)

    return tuple(tuple(cofactor(j, i) for j in range(n)) for i in range(n))


def _bareiss_det(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def _bareiss_rank(A) -> list[int]:
    """Pivot columns of fraction-free elimination of the rows A; their count is
    the rank. Vectors as columns: `_bareiss_rank(zip(*vectors))`."""
    m = [list(row) for row in A]
    rows = len(m)
    cols = len(m[0])
    prev = 1
    pivots = []
    for c in range(cols):
        r = len(pivots)  # the pivot row
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots


@dataclass(frozen=True)
class SmithForm:
    """Factorization A = P @ D @ Q with P, Q unimodular and D diagonal.

    The nonzero diagonal entries of D are the invariant factors and divide
    one another in order: d_1 | d_2 | ... | d_k.
    """

    P: IntMatrix
    D: IntMatrix
    Q: IntMatrix
    invariant_factors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(A: IntMatrix) -> SmithForm:
    """Smith normal form of a nonzero integer matrix.

    Pivoting always picks the entry of smallest nonzero absolute value in
    the trailing block; P and Q are accumulated as products of elementary
    unimodular operations so the factorization is exact by construction.
    """
    if all(e == 0 for row in A.entries for e in row):
        raise ZeroMatrixError("Smith normal form of the zero matrix")

    n, m = A.rows, A.cols
    S = [list(row) for row in A.entries]
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Q = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    # Invariant maintained by every operation below: A == P @ S @ Q.
    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        for r in P:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in S:
            r[i], r[j] = r[j], r[i]
        Q[i], Q[j] = Q[j], Q[i]

    def row_negate(i):
        S[i] = [-e for e in S[i]]
        for r in P:
            r[i] = -r[i]

    def row_addmul(i, j, q):
        # row_i of S -= q * row_j;  col_j of P += q * col_i
        S[i] = [a - q * b for a, b in zip(S[i], S[j])]
        for r in P:
            r[j] += q * r[i]

    def col_addmul(j, i, q):
        # col_j of S -= q * col_i;  row_i of Q += q * row_j
        for r in S:
            r[j] -= q * r[i]
        Q[i] = [a + q * b for a, b in zip(Q[i], Q[j])]

    def move_min_pivot(k):
        """Move the smallest-abs nonzero entry of S[k:, k:] to (k, k)."""
        best = None
        for i in range(k, n):
            for j in range(k, m):
                if S[i][j] != 0 and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return False
        if best[0] != k:
            row_swap(k, best[0])
        if best[1] != k:
            col_swap(k, best[1])
        if S[k][k] < 0:
            row_negate(k)
        return True

    for k in range(min(n, m)):
        if not move_min_pivot(k):
            break
        while True:
            # Clear column k, then row k; a nonzero remainder becomes the
            # next, strictly smaller pivot, so this terminates.
            dirty = False
            for i in range(k + 1, n):
                if S[i][k] != 0:
                    q = S[i][k] // S[k][k]
                    row_addmul(i, k, q)
                    if S[i][k] != 0:
                        dirty = True
            for j in range(k + 1, m):
                if S[k][j] != 0:
                    q = S[k][j] // S[k][k]
                    col_addmul(j, k, q)
                    if S[k][j] != 0:
                        dirty = True
            if dirty:
                move_min_pivot(k)
                continue
            # Divisibility fix: drag a non-multiple into row k and restart.
            bad = next(
                ((i, j) for i in range(k + 1, n) for j in range(k + 1, m)
                 if S[i][j] % S[k][k] != 0),
                None,
            )
            if bad is None:
                break
            row_addmul(k, bad[0], -1)
            move_min_pivot(k)

    factors = [S[k][k] for k in range(min(n, m)) if S[k][k] != 0]
    D = [[S[i][j] if i == j else 0 for j in range(m)] for i in range(n)]

    form = SmithForm(
        P=IntMatrix.from_rows(P),
        D=IntMatrix.from_rows(D),
        Q=IntMatrix.from_rows(Q),
        invariant_factors=tuple(factors),
    )
    _check_smith(A, form)
    return form


def _check_smith(A: IntMatrix, form: SmithForm):
    """Raise AssertionError unless A == P @ D @ Q, D == diag(d_1..d_r, 0, ...), |det P| ==
    |det Q| == 1 and d_1 | ... | d_r: the whole definition of a Smith form of A. As d_k = 0
    for k >= r, the product takes n*r*m multiplications; P's columns and Q's rows beyond r
    meet D's zero rows and columns, so only the determinants, computed in full, see them."""
    n, m, f = A.rows, A.cols, form.invariant_factors
    diagonal = f + (0,) * (min(n, m) - len(f))
    DQ = [tuple(map(operator.mul, f, column)) for column in zip(*form.Q.entries[:len(f)])]
    if (len(diagonal) != min(n, m)
            or form.D.entries != tuple(tuple(diagonal[i] if i == j else 0 for j in range(m)) for i in range(n))
            or A.entries != tuple(tuple(sum(map(operator.mul, p, c)) for c in DQ) for p in form.P.entries)):
        raise AssertionError("Smith normal form reconstruction failed")
    if abs(form.P.det()) != 1 or abs(form.Q.det()) != 1:
        raise AssertionError("Smith normal form transform not unimodular")
    for a, b in zip(f, f[1:]):
        if b % a != 0:
            raise AssertionError("invariant factor divisibility violated")


def unimodular_inverse(U: IntMatrix) -> IntMatrix:
    """Exact integer inverse of a unimodular matrix: det(U) * adj(U), det = +-1."""
    if U.rows != U.cols:
        raise NotUnimodularError("matrix is not square")
    det = _det(U.entries)
    if abs(det) != 1:
        raise NotUnimodularError("determinant is not +-1")
    inverse = tuple(tuple(det * e for e in row) for row in _adjugate(U.entries))
    if _product(U.entries, inverse) != _identity(U.rows):
        raise AssertionError("inverse verification failed")
    return IntMatrix(inverse)

