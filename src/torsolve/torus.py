"""Monomial maps between tori, diagonal-map fibers, and fiber restriction.

A torus point is a complex numpy vector, a stack of points a (P, n)
array; membership means every coordinate has modulus above
TORUS_THRESHOLD. Maps, restrictions and Homotopy.state evaluate monomials
at a stack with one kernel, power_table and monomials, and a point in a
stack gets the bits it gets alone.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateFiberError
from .intlinalg import IntMatrix
from .supports import Support, SupportSystem

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


def apply(Phi: MonomialMap, x) -> np.ndarray:
    """Output i is x^(column i) by monomials, at one point or at each row of
    a (P, n) stack; overflow gives inf or NaN without a warning."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[-1] != Phi.domain_dim:
        raise ValueError("point dimension does not match the map domain")
    with np.errstate(all="ignore"):
        out = monomials(np.atleast_2d(x), *power_table(Phi.matrix.columns()))
    return out if x.ndim == 2 else out[0]


def power_table(points) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, columns), the layout monomials takes M exponent vectors
    in: row j of the (n, U) `exponents` holds x_j's distinct exponents,
    ascending, zero-padded to a width U <= M, and monomial a is the product
    over j of column columns[j, a] of the flattened (n * U) power table."""
    exps = [sorted(set(column)) for column in zip(*points)]
    width = max(map(len, exps))
    at = [{e: j * width + i for i, e in enumerate(u)} for j, u in enumerate(exps)]
    return (np.array([u + [0] * (width - len(u)) for u in exps], dtype=complex),
            np.array([[at[j][p[j]] for p in points] for j in range(len(exps))], np.intp))


def monomials(X: np.ndarray, exponents: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """(P, M) monomials laid out by power_table at the (P, n) stack X: each
    power by np.power, by repeated squaring for an integer below 100 in
    modulus, and products over the variables in place, except for one
    element, whose in-place product numpy rounds otherwise than every other
    product; so a point gets the same bits alone as in a stack. The caller
    owns np.errstate."""
    table = np.power(X[:, :, None], exponents).reshape(len(X), exponents.size)
    mono = table.take(columns[0], axis=1)
    for cols in columns[1:]:
        mono = np.multiply(mono, table.take(cols, axis=1), out=None if mono.size == 1 else mono)
    return mono


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


def fiber_restriction(S: SupportSystem, J: Sequence[int], pi_J: IntMatrix):
    """The function (C, Y) -> (supports, coefficients, errors) that
    restricts the J-polynomials of the system on S with the coefficient row
    C[p] (polynomial by polynomial) to the fiber through the base point
    Y[p], for every p at once, and gives fiber p the bits a call with its
    row alone gives. f_j's restricted support is the image pi_J(alpha) of
    its points, and an image point's coefficient is the sum of
    c_alpha * Y[p]^alpha over the points alpha mapping there; a merged
    coefficient at most _MERGE_DROP times its polynomial's largest is a
    cancellation and dropped. A polynomial that loses every term or keeps a
    merged coefficient that is not finite (an overflow: inf, or NaN from
    inf - inf), or a base point with a coordinate of modulus at most
    TORUS_THRESHOLD or not finite, makes its fiber degenerate. `supports` is fiber 0's SupportSystem, row p of the
    (P, M') array `coefficients` fiber p's coefficients on it, and errors[p]
    None or the DegenerateFiberError of fiber p >= 1: its own, or else
    "fiber support over base solution p differs from the start fiber". Fiber
    0 raises its error. The images pi_J(alpha) and the points' power_table
    are laid out once, here."""
    J = sorted(J)
    offsets = list(itertools.accumulate((len(s) for s in S.supports), initial=0))
    columns, exponents, targets, images, polys = [], [], [], [], []  # polys[t]: J-index of image t
    for q, j in enumerate(J):
        points = S.supports[j].points
        betas = [pi_J.apply(alpha) for alpha in points]
        images.append(sorted(set(betas)))
        targets += [len(polys) + images[-1].index(beta) for beta in betas]
        polys += [q] * len(images[-1])
        columns += range(offsets[j], offsets[j] + len(points))
        exponents += points
    starts = [polys.index(q) for q in range(len(J))]
    table = power_table(exponents)

    def restrict(C, Y):
        Y, merged = np.asarray(Y, dtype=complex), np.zeros((len(Y), len(polys)), dtype=complex)
        with np.errstate(all="ignore"):
            terms = np.asarray(C, dtype=complex)[:, columns] * monomials(Y, *table)
            np.add.at(merged, (slice(None), targets), terms)  # from 0j, in the order of S
            size = np.hypot(merged.real, merged.imag)  # abs() as Python takes it
            kept = size > _MERGE_DROP * np.maximum.reduceat(size, starts, axis=1)[:, polys]
        finite = np.logical_and.reduceat(np.isfinite(merged), starts, axis=1)
        bad = ~finite | ~np.logical_or.reduceat(kept, starts, axis=1)  # per fiber and polynomial
        on_torus = np.all((np.abs(Y) > TORUS_THRESHOLD) & np.isfinite(Y), axis=1)
        errors = [None] * len(Y)
        for p in np.flatnonzero(~on_torus | bad.any(axis=1) | (kept != kept[0]).any(axis=1)):
            q, modulus = bad[p].argmax(), f"|y0| = {np.abs(Y[p])}"
            if not on_torus[p]:
                message = f"fiber base point leaves the floating-point torus: {modulus}"
            elif not finite[p, q]:
                message = f"polynomial {J[q]} has a non-finite coefficient on the fiber: {modulus}"
            elif bad[p, q]:
                message = f"polynomial {J[q]} vanishes identically on the fiber"
            else:
                message = f"fiber support over base solution {p} differs from the start fiber"
            errors[p] = DegenerateFiberError(message)
        if errors[0] is not None:
            raise errors[0]
        supports = SupportSystem(tuple(Support(tuple(itertools.compress(d, kept[0, a:])))
                                       for a, d in zip(starts, images)))
        return supports, merged[:, kept[0]], errors

    return restrict

