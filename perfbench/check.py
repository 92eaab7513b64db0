"""Correctness gate for one operation's result.

Roots are checked with this module's own numpy evaluation of the input
system, never with torsolve's evaluators or Newton refinement.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_LIMIT = 1e-8
DISTINCT_LIMIT = 1e-6


class Failed(Exception):
    """An operation's result failed the gate. `wrong` marks a result the
    program returned as a success; otherwise the program itself signalled
    the shortfall (for example through `SolveReport.warnings`)."""

    def __init__(self, reason: str, wrong: bool):
        super().__init__(reason)
        self.reason = reason
        self.wrong = wrong


def residuals(F, points) -> np.ndarray:
    """Residual of each point: the largest |f_i(x)| / max(1, sum_a |c_a x^a|).

    The term scale is the tracker's own success scale. Without it, correct
    roots of large modulus fail: at |x| ~ 3000 on the shifted family the
    cube polynomial's terms reach 1e7 and rounding alone leaves |f| ~ 2e-8.
    """
    X = np.asarray(points, dtype=complex).reshape(len(points), F.n)
    worst = np.zeros(len(X))
    for support, coeffs in zip(F.system.supports, F.coefficients):
        E = np.array(support.points, dtype=np.int64)
        terms = np.prod(X[:, None, :] ** E[None, :, :], axis=2) * np.asarray(coeffs)
        scale = np.maximum(1.0, np.abs(terms).sum(axis=1))
        worst = np.maximum(worst, np.abs(terms.sum(axis=1)) / scale)
    return worst


def closest_pair(points) -> float:
    """Smallest relative max-norm distance between two of the points."""
    X = np.asarray(points, dtype=complex)
    if len(X) < 2:
        return np.inf
    size = np.max(np.abs(X), axis=1)
    scale = np.maximum(1.0, np.maximum(size[:, None], size[None, :]))
    gaps = np.max(np.abs(X[:, None, :] - X[None, :, :]), axis=2) / scale
    np.fill_diagonal(gaps, np.inf)
    return float(gaps.min())


def check(op, result) -> None:
    """Raise Failed unless the result matches the op's reference."""
    if not hasattr(op.data, "coefficients"):  # mixed_volume: an int; predict_tree: a tree
        mv = getattr(result, "mv", result)
        if mv != op.mv:
            raise Failed("mv-mismatch", wrong=True)
        return
    warned = bool(getattr(result, "warnings", None))
    solutions = getattr(result, "solutions", result)
    if len(solutions) != op.mv:
        raise Failed("count-mismatch", wrong=not warned)
    if len(solutions) and residuals(op.data, solutions.points).max() > RESIDUAL_LIMIT:
        raise Failed("residual", wrong=True)
    if closest_pair(solutions.points) < DISTINCT_LIMIT:
        raise Failed("duplicate-root", wrong=True)
