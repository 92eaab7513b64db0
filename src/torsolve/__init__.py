"""Solver for sparse polynomial systems on the complex torus.

Detects lacunary and triangular structure in the supports, recursively
decomposes the solve into smaller systems, monomial-map fibers, and
coefficient homotopies, and generates decomposable start systems for
general sparse systems.
"""

from .intlinalg import IntMatrix, SmithForm, smith_normal_form, unimodular_inverse
from .supports import SparseSystem, Support, SupportSystem, normalize, preimage_supports, vertices
from .geometry import mixed_volume, mv_is_zero
from .torus import MonomialMap, diagonal_fiber
from .tracking import Homotopy, SolutionSet, TrackerSettings, track_all
from .decompose import (Classification, DecompositionTree, Indecomposable, Lacunary,
                        Triangular, classify, predict_tree)
from .solver import (SolveReport, blackbox, decomposable_start_system, solve_decomposable,
                     solve_general)

__all__ = [
    "IntMatrix", "SmithForm", "smith_normal_form", "unimodular_inverse",
    "Support", "SupportSystem", "SparseSystem", "normalize", "vertices",
    "preimage_supports",
    "mixed_volume", "mv_is_zero",
    "MonomialMap", "diagonal_fiber",
    "Homotopy", "TrackerSettings", "SolutionSet", "track_all",
    "Classification", "Lacunary", "Triangular", "Indecomposable",
    "DecompositionTree", "classify", "predict_tree",
    "SolveReport", "solve_decomposable", "solve_general",
    "blackbox", "decomposable_start_system",
]
