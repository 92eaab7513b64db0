"""The paper's example supports, shared by the test modules, and the cover
system a lacunary node solves. tests/test_acceptance.py keeps its own copies."""
import numpy as np

from torsolve.intlinalg import IntMatrix
from torsolve.solver import _positions, _rows
from torsolve.supports import SparseSystem

# Lacunary example: A1, A2 pull back through PAPER_PHI to B1, B2 (index 12).
LACUNARY_A1 = [(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)]
LACUNARY_A2 = [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]
LACUNARY_B1 = [(0, 0), (0, 1), (1, 1), (2, 2), (4, 1)]
LACUNARY_B2 = [(0, 0), (1, 2), (2, 1), (3, 1), (3, 2)]
PAPER_PHI = IntMatrix.from_rows([[3, 0], [-1, 4]])  # z = x^3 y^-1, w = y^4

# Start-system example: two copies of START_A, mixed volume 30.
START_A = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 0), (3, 1), (3, 4), (4, 2), (5, 3), (5, 4),
           (6, 4)]

# Three-variable triangular example: the first two supports are TRI_A, on the
# plane c = a + b; the third, TRI_A3, is free.
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]


def cover(F: SparseSystem, preimage) -> SparseSystem:
    """The system on the preimage supports of a lacunary node of F: F's
    coefficients at the columns the solver takes for the cover,
    C[:, _positions(S, range(n), preimage.index_maps)]."""
    C = _rows(F)[:, _positions(F.system, range(F.n), preimage.index_maps)]
    cuts = np.cumsum([len(s) for s in preimage.system.supports])[:-1]
    return SparseSystem(preimage.system, np.split(C[0], cuts))
