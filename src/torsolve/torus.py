"""Monomial maps between tori, diagonal-map fibers, and fiber restriction.

Torus points are plain complex numpy vectors; membership means every
coordinate has modulus above TORUS_THRESHOLD.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateFiberError
from .intlinalg import IntMatrix
from .supports import Reindexing, SparseSystem, SupportSystem

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

    @cached_property
    def factors(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per output, the (j, e) pairs of its column's nonzero entries."""
        return tuple(_factors(alpha) for alpha in self.matrix.columns())


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
    xs = x.tolist()
    return np.array([_power_product(xs, f) for f in Phi.factors], dtype=complex)


def monomial_value(x, alpha) -> complex:
    """x^alpha for an integer exponent vector."""
    v = 1.0 + 0.0j
    for xj, e in zip(x, alpha):
        if e:
            v *= _cpow(complex(xj), int(e))
    return v


def _factors(alpha) -> tuple[tuple[int, int], ...]:
    return tuple((j, e) for j, e in enumerate(alpha) if e)


def _power_product(xs: list[complex], factors) -> complex:
    """monomial_value(xs, alpha) from alpha's _factors, multiplied in the same order."""
    v = 1.0 + 0.0j
    for j, e in factors:
        v *= _cpow(xs[j], e)
    return v


def diagonal_fiber(d: Sequence[int], y: Sequence[complex]) -> list[np.ndarray]:
    """All preimages of y under x -> (x_1^d_1, ..., x_n^d_n).

    Roots are taken in polar form with the principal argument in (-pi, pi]
    and the branch index ascending from 0, so the enumeration order is
    deterministic.
    """
    d = list(map(operator.index, d))
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
    zero are dropped; a polynomial losing all its terms or with a merged
    coefficient not finite, or a base point with a coordinate of modulus at
    most TORUS_THRESHOLD or not finite, means the fiber is degenerate.
    """
    return fiber_restriction(F.system, J, pi_J)([c for row in F.coefficients for c in row], y0)


def fiber_restriction(S: SupportSystem, J: Sequence[int], pi_J: IntMatrix):
    """The function (coefficients, y0) -> restrict_to_fiber(F, J, pi_J, y0)
    for the system F on S with these coefficients, listed polynomial by
    polynomial; the images pi_J(alpha) and the exponents' factors are
    computed once, here. A merged coefficient that overflows (inf, or NaN
    from inf - inf) raises."""
    offsets = list(itertools.accumulate((len(s) for s in S.supports), initial=0))
    terms = [(j, [(pi_J.apply(alpha), offsets[j] + a, _factors(alpha))
                  for a, alpha in enumerate(S.supports[j].points)]) for j in sorted(J)]

    def restrict(coefficients, y0) -> SparseSystem:
        y0 = np.asarray(y0, dtype=complex)
        if not np.all((np.abs(y0) > TORUS_THRESHOLD) & np.isfinite(y0)):
            raise DegenerateFiberError("fiber base point leaves the floating-point torus: "
                                       f"|y0| = {np.abs(y0)}")
        ys = y0.tolist()
        pairs_per_poly = []
        for j, poly in terms:
            merged: dict[tuple[int, ...], complex] = {}
            for beta, a, factors in poly:
                value = coefficients[a] * _power_product(ys, factors)
                merged[beta] = merged.get(beta, 0.0 + 0.0j) + value
            if not all(map(cmath.isfinite, merged.values())):
                raise DegenerateFiberError(f"polynomial {j} has a non-finite coefficient on the "
                                           f"fiber: |y0| = {np.abs(y0)}")
            top = max(abs(v) for v in merged.values())
            kept = [(b, v) for b, v in merged.items() if abs(v) > _MERGE_DROP * top]
            if not kept:
                raise DegenerateFiberError(f"polynomial {j} vanishes identically on the fiber")
            pairs_per_poly.append(kept)
        return SparseSystem.from_pairs(pairs_per_poly)

    return restrict


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
