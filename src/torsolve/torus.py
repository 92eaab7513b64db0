"""Monomial maps between tori, diagonal-map fibers, and fiber restriction.

Torus points are plain complex numpy vectors; membership means every
coordinate has modulus above TORUS_THRESHOLD.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFiberError
from .intlinalg import IntMatrix
from .supports import Reindexing, SparseSystem

TORUS_THRESHOLD = 1e-10

# Merged fiber coefficients below this fraction of the largest one are
# treated as exact zeros produced by cancellation.
_MERGE_DROP = 1e-13


@dataclass(frozen=True)
class MonomialMap:
    """Group homomorphism between tori; output i is the character x^(column i)."""

    matrix: IntMatrix

    @property
    def domain_dim(self) -> int:
        return self.matrix.rows

    @property
    def codomain_dim(self) -> int:
        return self.matrix.cols


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


def apply(Phi: MonomialMap, x: Sequence[complex]) -> np.ndarray:
    """Evaluate the monomial map coordinate-wise."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (Phi.domain_dim,):
        raise ValueError("point dimension does not match the map domain")
    return np.array([monomial_value(x, alpha) for alpha in Phi.matrix.columns()], dtype=complex)


def monomial_value(x, alpha) -> complex:
    """x^alpha for an integer exponent vector."""
    v = 1.0 + 0.0j
    for xj, e in zip(x, alpha):
        if e:
            v *= _cpow(complex(xj), int(e))
    return v


def diagonal_fiber(d: Sequence[int], y: Sequence[complex]) -> list[np.ndarray]:
    """All preimages of y under x -> (x_1^d_1, ..., x_n^d_n).

    Roots are taken in polar form with the principal argument in (-pi, pi]
    and the branch index ascending from 0, so the enumeration order is
    deterministic.
    """
    d = [int(v) for v in d]
    y = np.asarray(y, dtype=complex)
    if len(d) != len(y) or any(v <= 0 for v in d):
        raise ValueError("need one positive root order per coordinate")
    axes = []
    for di, yi in zip(d, y):
        rho = abs(yi) ** (1.0 / di)
        zeta = cmath.phase(yi)
        if zeta <= -math.pi:
            zeta = math.pi
        axes.append([rho * cmath.exp(1j * (zeta + 2 * math.pi * j) / di) for j in range(di)])
    return [np.array(combo, dtype=complex) for combo in itertools.product(*axes)]


def restrict_to_fiber(F: SparseSystem, J: Sequence[int], pi_J: IntMatrix,
                      y0: Sequence[complex]) -> SparseSystem:
    """Restrict the J-polynomials of F to the fiber through y0.

    The restricted support of f_j is the projection of its support, and the
    coefficient at an image point is the sum of c_alpha * y0^alpha over the
    original points alpha mapping there. Merged coefficients that cancel to
    zero are dropped; a polynomial losing all its terms means the fiber is
    degenerate.
    """
    y0 = np.asarray(y0, dtype=complex)
    if not np.all(np.abs(y0) > TORUS_THRESHOLD):
        raise ValueError("fiber base point must lie on the torus")
    pairs_per_poly = []
    for j in sorted(J):
        merged: dict[tuple[int, ...], complex] = {}
        for alpha, c in F.polynomial(j):
            beta = pi_J.apply(alpha)
            merged[beta] = merged.get(beta, 0.0 + 0.0j) + c * monomial_value(y0, alpha)
        top = max(abs(v) for v in merged.values())
        kept = [(b, v) for b, v in merged.items() if abs(v) > _MERGE_DROP * top]
        if not kept:
            raise DegenerateFiberError(
                f"polynomial {j} vanishes identically on the fiber"
            )
        pairs_per_poly.append(kept)
    return SparseSystem.from_pairs(pairs_per_poly)


def relabel(F: SparseSystem, iota: Reindexing) -> SparseSystem:
    """Transfer coefficients onto the preimage supports.

    The resulting system evaluates at x exactly as F evaluates at the image
    of x under the monomial map that produced the reindexing.
    """
    coeffs = tuple(
        tuple(F.coefficients[i][k] for k in iota.index_maps[i])
        for i in range(F.n)
    )
    return SparseSystem(iota.system, coeffs)


def stack_exponents(supports):
    """Stacked exponent matrix for a sequence of supports plus row offsets.

    Monomials evaluate as exp(E @ log x), exact for integer exponents since
    the branch ambiguity of the complex log cancels.
    """
    E = np.concatenate([np.array(s.points, dtype=np.int64) for s in supports])
    sizes = [len(s) for s in supports]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
    return E.astype(np.float64), starts


class CompiledSystem:
    """Stacked exponent matrix, row offsets (see stack_exponents) and one
    coefficient vector, for fast evaluation; compile_system builds one.

    The Jacobian reuses the monomial values: d f / d x_j equals
    (sum of alpha_j * c_alpha * x^alpha) / x_j, valid on the torus.
    """

    def __init__(self, E: np.ndarray, starts: np.ndarray, c: np.ndarray):
        self.n = E.shape[1]
        self.E, self.starts, self.c = E, starts, c

    def _terms(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.c * np.exp(self.E @ np.log(x))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(self._terms(x), self.starts)

    def eval_and_jacobian(self, x: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self._terms(x)
            values = np.add.reduceat(terms, self.starts)
            jac = np.add.reduceat(terms[:, None] * self.E, self.starts, axis=0) / x[None, :]
        return values, jac

    def residual(self, x: np.ndarray) -> float:
        return float(np.max(np.abs(self.evaluate(x))))


def compile_system(F: SparseSystem) -> CompiledSystem:
    E, starts = stack_exponents(F.system.supports)
    c = np.concatenate([np.array(row, dtype=complex) for row in F.coefficients])
    return CompiledSystem(E, starts, c)
