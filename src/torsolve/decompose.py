"""Classification of a support system as lacunary, triangular, or neither.

A lacunary system factors through a finite monomial covering: the lattice
spanned by all supports is full rank but proper in Z^n. A triangular
system has a proper subset of polynomials whose supports span only an
|I|-dimensional sublattice; the system then solves subsystem-first. When
neither structure occurs the system goes to a black box solver.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Union

from .errors import MixedVolumeZeroError
from .geometry import hull_mixed_volume
from .intlinalg import IntMatrix, _bareiss_rank, _det, _image, smith_normal_form, unimodular_inverse
from .supports import (
    Reindexing,
    Support,
    SupportSystem,
    normalize,
    preimage_supports,
    subset_span_ranks,
)


@dataclass(frozen=True)
class Lacunary:
    """Coordinate data for root-extraction through a monomial covering.

    phi identifies Z^n with the support lattice; composing its torus map
    with the one of psi gives the diagonal map with exponents `diagonal`.
    """

    phi: IntMatrix
    psi: IntMatrix
    diagonal: tuple[int, ...]
    index: int
    preimage: Reindexing


@dataclass(frozen=True)
class Triangular:
    """Witness subset plus the unimodular change splitting off its span.

    In psi-coordinates, the witness polynomials only involve the first k
    variables; `projection` maps exponents onto the remaining n-k quotient
    coordinates and `base` holds the witness supports inside Z^k.
    """

    witness: tuple[int, ...]
    k: int
    psi: IntMatrix
    projection: IntMatrix
    base: SupportSystem


@dataclass(frozen=True)
class Indecomposable:
    pass


Classification = Union[Lacunary, Triangular, Indecomposable]


def classify(S: SupportSystem) -> Classification:
    """Esterov-structure detection on a (translation-normalized) system.

    The full-lattice check runs first; only when the lattice is all of Z^n
    are triangular witnesses searched, by increasing size then
    lexicographically, the first witness winning. The check takes a Smith
    form unless the pivot columns of the points, smallest first, are n
    columns of determinant +-1. The coordinate data refers to the
    normalized system.
    """
    S, _ = normalize(S)
    n = S.n
    ranks = []  # the zero test's subsets and ranks, reused for the witness search
    for I, rank in subset_span_ranks(S):
        if rank < len(I):
            raise MixedVolumeZeroError(I)  # the witness `mv_is_zero` returns
        ranks.append((I, rank))

    cols = [p for sup in S.supports for p in sup.points]
    by_size = sorted(cols, key=lambda p: sum(map(abs, p)))
    pivots = [by_size[c] for c in _bareiss_rank(zip(*by_size))]
    if len(pivots) != n or abs(_det(pivots)) != 1:  # det of the transpose
        form = smith_normal_form(IntMatrix.from_columns(cols))
        if form.rank != n:
            raise AssertionError("nonzero mixed volume forces a full-rank span")
        if form.invariant_factors[-1] > 1:
            d = form.invariant_factors
            phi = IntMatrix(tuple(tuple(map(operator.mul, row, d)) for row in form.P.entries))
            return Lacunary(phi=phi, psi=unimodular_inverse(form.P), diagonal=d,
                            index=math.prod(d), preimage=preimage_supports(S, phi))

    for I, rank in ranks[:-1]:  # proper subsets only
        if rank == len(I):
            return _triangular_data(S, I)
    return Indecomposable()


def _triangular_data(S: SupportSystem, I) -> Triangular:
    I = tuple(sorted(I))
    k = len(I)
    cols = [p for i in I for p in S.supports[i].points]
    form = smith_normal_form(IntMatrix.from_columns(cols))
    if form.rank != k:
        raise ValueError("witness subset does not have matching rank")
    psi = unimodular_inverse(form.P)
    images = [[_image(psi.entries, alpha) for alpha in S.supports[i].points] for i in I]
    if any(any(image[k:]) for pts in images for image in pts):
        raise AssertionError("witness support left the saturation")
    base = SupportSystem(tuple(Support(tuple(image[:k] for image in pts)) for pts in images))
    return Triangular(witness=I, k=k, psi=psi, projection=IntMatrix(psi.entries[k:]), base=base)


def _fiber_supports(S: SupportSystem, data: Triangular) -> SupportSystem:
    """The supports of S outside the witness, projected to the quotient with
    duplicate images merged: the supports of the fibers `fiber_restriction`
    builds before it drops cancelled terms. A translate of S gives
    translates of the same supports."""
    return SupportSystem(tuple(
        Support(tuple({_image(data.projection.entries, p) for p in sup.points}))
        for j, sup in enumerate(S.supports) if j not in data.witness))


@dataclass
class DecompositionTree:
    """Recursive record of how a solve decomposed, with a path ledger.

    `paths` counts homotopy paths tracked at this node itself; for a
    blackbox node it is the solution count, matching a mixed-volume-optimal
    solver. `bezout_paths` stays the Bezout count of total-degree start
    paths, even where fewer are tracked: the black box stops its paths at
    the MV's count of endpoints, and tracks none at a resultant-solved leaf.
    Closed-form steps (root extraction, companion-matrix eigenvalues)
    contribute zero. A triangular node books every transfer and its paths,
    tracked or solved with the first fiber as one family. Its children are
    its base and first fiber, then one tree per fiber solved directly
    because its transfer failed every gamma. `gamma_retries` counts
    gammas drawn after the first: at a triangular node the sum over its
    transfers of tracked attempts less one, at a black box its total-degree
    attempts less one.
    """

    kind: str  # lacunary | triangular | blackbox | univariate | homotopy
    mv: int
    children: list[DecompositionTree] = field(default_factory=list)
    paths: int = 0
    solutions: int = 0
    index: int | None = None
    diagonal: tuple[int, ...] | None = None
    witness: tuple[int, ...] | None = None
    transfers: int = 0
    bezout_paths: int = 0
    gamma_retries: int = 0
    elapsed: float = 0.0

    def ledger(self) -> int:
        return self.paths + sum(c.ledger() for c in self.children)

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def predict_tree(S: SupportSystem) -> DecompositionTree:
    """Decomposition skeleton with mixed volumes, without solving anything;
    classify normalizes S, and nothing else here depends on its translation."""
    cls = classify(S)
    if isinstance(cls, Lacunary):
        child = predict_tree(cls.preimage.system)
        return DecompositionTree(
            kind="lacunary",
            mv=cls.index * child.mv,
            children=[child],
            index=cls.index,
            diagonal=cls.diagonal,
        )
    if isinstance(cls, Triangular):
        base = predict_tree(cls.base)
        fiber = predict_tree(_fiber_supports(S, cls))
        return DecompositionTree(
            kind="triangular",
            mv=base.mv * fiber.mv,
            children=[base, fiber],
            witness=cls.witness,
        )
    kind = "univariate" if S.n == 1 else "blackbox"
    return DecompositionTree(kind=kind, mv=hull_mixed_volume(S))
