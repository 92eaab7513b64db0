"""Seeded inputs and operations for the four benchmark workloads.

Every input is generated here. The workload seed draws the coefficients of
the family instances and the variable order of the exact workload's
supports; the acceptance systems and the general workload's systems are
fixed data. The family and acceptance constants are copied from the
package's CLI and acceptance suite on purpose, so that later edits to
either cannot change a workload.

An operation is one call of a public torsolve entry point with default
arguments. The call resolves the entry point through the `torsolve`
package at call time, so the tracer's rebinding reaches it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

import torsolve

# Five-variable family: two planar systems embedded by injections plus a cube.
FAM_A1 = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
FAM_A2 = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
FAM_B1 = [(0, 0), (2, 0), (0, 1), (2, 3)]
FAM_B2 = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]
CUBE5 = sorted(itertools.product((0, 1), repeat=5))
E5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
EMBEDDINGS = {
    "e-basis": E5[:4],
    "shifted": [tuple(a - b for a, b in zip(E5[i], E5[i + 1])) for i in range(4)],
}
FAMILY_MV = {"e-basis": 50, "shifted": 250}

# Acceptance systems: lacunary A, the printed triangular supports, the start pair.
LAC_A1 = [(0, 0), (0, 4), (3, 3), (6, 6), (12, 0)]
LAC_A2 = [(0, 0), (3, 7), (6, 2), (9, 1), (9, 5)]
TRI_A = [(0, 0, 0), (1, 0, 1), (1, 1, 2), (1, 2, 3), (2, 0, 2), (2, 1, 3), (2, 2, 4), (3, 1, 4)]
TRI_A3 = [(0, 0, 0), (0, 0, 2), (0, 0, 4), (0, 1, 5), (1, 0, 3), (1, 1, 4)]
START_A = [(0, 0), (0, 2), (1, 0), (1, 1), (2, 3), (3, 0), (3, 1), (3, 4), (4, 2), (5, 3),
           (5, 4), (6, 4)]
ACCEPTANCE = {
    "lacunary-A": ([LAC_A1, LAC_A2], 120),
    "triangular": ([TRI_A, TRI_A, TRI_A3], 32),
    "start-pair": ([START_A, START_A], 30),
}
# The acceptance systems are fixed data: their unit coefficients come from
# this seed, not from the workload seed, so every run solves the same three
# systems.
ACCEPTANCE_COEFF_SEED = 0
DILATIONS = (1, 100, 1000)

# Workload sizes: operations per round, and a round's nominal seconds on
# the 2-core host the benchmark was tuned on. A run does as many whole
# rounds as fit in its seconds at nominal speed, at least one, so its work
# is fixed by its arguments and a seed always attempts the same ops; the
# decomposable and exact workloads draw fresh inputs for every round.
DECOMPOSABLE_EBASIS = 4
DECOMPOSABLE_SHIFTED = 1
BLACKBOX_INSTANCES = 1
ROUND_SECONDS = {"decomposable": 5.0, "blackbox": 13.0, "general": 8.0, "exact": 7.5}
GENERAL_SYSTEMS = 30
GENERAL_MAX_MV = 60
# The general systems are fixed data, like the acceptance systems: supports
# and coefficients come from these seeds, not from the workload seed. Their
# per-call cost changes by 30-100% with the coefficient draw and the median
# call sits where the cost distribution is steep, so systems drawn per seed
# moved op_ms_p50 by about a quarter between seeds.
GENERAL_SUPPORT_SEED = 707
GENERAL_COEFF_SEED = 708
# The blackbox instances are fixed data too: round r solves the r-th
# instance drawn from this seed. Of 19 instances drawn while tuning, one
# failed after about 50 s of gamma retries, where a good one takes 10-15 s;
# with two ops a run, drawing them per seed more than doubled wall_s on the
# seeds that drew such an instance.
BLACKBOX_COEFF_SEED = 0

@dataclass(frozen=True)
class Op:
    """One timed call on `data`: a SparseSystem for the solvers, which return
    roots, or a SupportSystem for the exact ops. `mv` is the reference root
    count or mixed volume."""

    label: str
    call: Callable[[], object]
    mv: int
    data: object


def family_supports(kind):
    i1, i2, j1, j2 = EMBEDDINGS[kind]

    def embed(pts, u, v):
        return [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in pts]

    return [embed(FAM_A1, i1, i2), embed(FAM_A2, i1, i2),
            embed(FAM_B1, j1, j2), embed(FAM_B2, j1, j2), list(CUBE5)]


def unit_system(supports, rng):
    """Sparse system on the given supports with coefficients on the unit circle."""
    pairs = [[(p, complex(np.exp(2j * np.pi * rng.random()))) for p in sup] for sup in supports]
    return torsolve.SparseSystem.from_pairs(pairs)


def _call(name, arg):
    """A call of torsolve.<name>(arg), looked up at call time so that the
    tracer's rebinding of the package attribute reaches it."""
    return lambda: getattr(torsolve, name)(arg)


def acceptance_systems():
    """(name, SparseSystem, MV) for the three acceptance systems."""
    return [(name, unit_system(supports, np.random.default_rng(ACCEPTANCE_COEFF_SEED)), mv)
            for name, (supports, mv) in ACCEPTANCE.items()]


def _decomposable(rng):
    ops = []
    for kind, count in (("e-basis", DECOMPOSABLE_EBASIS), ("shifted", DECOMPOSABLE_SHIFTED)):
        for i in range(count):
            F = unit_system(family_supports(kind), rng)
            ops.append(Op(f"{kind}[{i}]", _call("solve_decomposable", F), FAMILY_MV[kind], F))
    # The start pair is indecomposable, so solve_decomposable hands it
    # straight to the total-degree black box, where these coefficients lose
    # a root after every gamma retry: 4.5 s, about as long as the rest of a
    # round. Its failure shows in the general workload instead, and the
    # black box has a workload of its own.
    for name, F, mv in acceptance_systems():
        if name != "start-pair":
            ops.append(Op(name, _call("solve_decomposable", F), mv, F))
    return ops


def _blackbox_ops(rng):
    ops = []
    for i in range(BLACKBOX_INSTANCES):
        F = unit_system(family_supports("e-basis"), rng)
        ops.append(Op(f"e-basis[{i}]", _call("blackbox", F), FAMILY_MV["e-basis"], F))
    return ops


def random_supports(rng):
    """One small random support system, shaped like acceptance criterion 7's:
    n in 1..3, each support holds the origin plus 1-4 points in a small box."""
    n = int(rng.integers(1, 4))
    top = 2 if n == 3 else 3
    most = 4 if n in (1, 3) else 5
    sups = []
    for _ in range(n):
        want = int(rng.integers(2, most + 1))
        pts = {(0,) * n}
        while len(pts) < want:
            pts.add(tuple(int(v) for v in rng.integers(0, top + 1, size=n)))
        sups.append(sorted(pts))
    return sups


def _general(_rng):
    """Fixed random systems with 1 <= MV <= 60; their MVs are the set-up's
    reference computation."""
    support_rng = np.random.default_rng(GENERAL_SUPPORT_SEED)
    coeff_rng = np.random.default_rng(GENERAL_COEFF_SEED)
    ops = []
    while len(ops) < GENERAL_SYSTEMS:
        sups = random_supports(support_rng)
        S = torsolve.SupportSystem.of_points(sups)
        if torsolve.mv_is_zero(S)[0]:
            continue
        mv = torsolve.mixed_volume(S)
        if not 1 <= mv <= GENERAL_MAX_MV:
            continue
        F = unit_system(sups, coeff_rng)
        ops.append(Op(f"random[{len(ops)}]", _call("solve_general", F), mv, F))
    for name, F, mv in acceptance_systems():
        ops.append(Op(name, _call("solve_general", F), mv, F))
    return ops


def _permuted(supports, perm):
    """The same supports with their variables permuted: MV and tree kinds stay."""
    return [[tuple(p[c] for c in perm) for p in sup] for sup in supports]


def _exact(rng):
    ops = []
    for kind in ("e-basis", "shifted"):
        S = torsolve.SupportSystem.of_points(_permuted(family_supports(kind), rng.permutation(5)))
        ops.append(Op(f"mv/{kind}", _call("mixed_volume", S), FAMILY_MV[kind], S))
        ops.append(Op(f"tree/{kind}", _call("predict_tree", S), FAMILY_MV[kind], S))
    for name, (supports, mv) in ACCEPTANCE.items():
        n = len(supports)
        perm = rng.permutation(n)
        for k in DILATIONS:
            dilated = [[tuple(k * c for c in p) for p in sup] for sup in supports]
            S = torsolve.SupportSystem.of_points(_permuted(dilated, perm))
            ops.append(Op(f"mv/{name}x{k}", _call("mixed_volume", S), k ** n * mv, S))
            ops.append(Op(f"tree/{name}x{k}", _call("predict_tree", S), k ** n * mv, S))
    return ops


_BUILDERS = {
    "decomposable": _decomposable,
    "blackbox": _blackbox_ops,
    "general": _general,
    "exact": _exact,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // ROUND_SECONDS[workload]))


def build(workload: str, seed: int, rounds: int) -> list[list[Op]]:
    """The rounds of operations of one workload; the same seed gives the same
    rounds. The general workload's round is fixed data and repeats as is; the
    blackbox rounds are fixed data as well."""
    if workload == "blackbox":
        rng = np.random.default_rng(BLACKBOX_COEFF_SEED)
    else:
        rng = np.random.default_rng([seed, list(_BUILDERS).index(workload)])
    if workload == "general":
        return [_general(rng)] * rounds
    return [_BUILDERS[workload](rng) for _ in range(rounds)]
