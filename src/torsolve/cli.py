"""Command line interface: analyze | mv | solve | start | bench.

Systems travel as UTF-8 JSON: {"n": int, "polynomials": [{"support":
[[int,...],...], "coefficients": [[re,im],...]}]}, coefficients omitted
for support-only files. Exit codes: 0 full success, 1 input or structural
error, 2 numerical partial success.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time

import numpy as np

from .decompose import DecompositionTree, predict_tree
from .errors import MixedVolumeZeroError, SystemFileError, TorsolveError
from .geometry import mixed_volume
from .intlinalg import _bareiss_rank
from .solver import (
    bezout_path_count,
    blackbox,
    decomposable_start_system,
    solve_decomposable,
    solve_general,
)
from .supports import SparseSystem, SupportSystem
from .tracking import SolutionSet, TrackerSettings

BENCH_A1 = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]
BENCH_A2 = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
BENCH_B1 = [(0, 0), (2, 0), (0, 1), (2, 3)]
BENCH_B2 = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)]
BENCH_CUBE = sorted(itertools.product((0, 1), repeat=5))


def parse_system(data, source="<input>"):
    """Validate a SystemFile object; returns (SupportSystem, SparseSystem or None)."""

    def fail(path, message):
        raise SystemFileError(f"{source}: {path}: {message}")

    def is_int(v):  # JSON true/false load as bool, a subclass of int
        return isinstance(v, int) and not isinstance(v, bool)

    if not isinstance(data, dict):
        fail("$", "top level must be an object")
    n = data.get("n")
    if not is_int(n) or n < 1:
        fail("n", "must be a positive integer")
    polys = data.get("polynomials")
    if not isinstance(polys, list) or len(polys) != n:
        fail("polynomials", f"must be a list of exactly n = {n} entries")
    supports = []
    coeff_rows = []
    has_coeffs = None
    for i, poly in enumerate(polys):
        where = f"polynomials[{i}]"
        if not isinstance(poly, dict):
            fail(where, "must be an object")
        support = poly.get("support")
        if not isinstance(support, list) or not support:
            fail(f"{where}.support", "must be a nonempty list of exponent vectors")
        pts = []
        for j, vec in enumerate(support):
            if (not isinstance(vec, list) or len(vec) != n
                    or not all(is_int(c) for c in vec)):
                fail(f"{where}.support[{j}]", f"must be a list of {n} integers")
            pts.append(tuple(vec))
        if len(set(pts)) != len(pts):
            fail(f"{where}.support", "duplicate exponent vectors")
        supports.append(pts)
        coeffs = poly.get("coefficients")
        if has_coeffs is None:
            has_coeffs = coeffs is not None
        elif has_coeffs != (coeffs is not None):
            fail(where, "coefficients must be present for all polynomials or none")
        if coeffs is None:
            continue
        if not isinstance(coeffs, list) or len(coeffs) != len(pts):
            fail(f"{where}.coefficients", "must align one [re, im] pair per support point")
        row = []
        for j, pair in enumerate(coeffs):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(is_int(v) or isinstance(v, float) for v in pair)):
                fail(f"{where}.coefficients[{j}]", "must be an [re, im] pair")
            if not all(abs(v) <= sys.float_info.max for v in pair):  # NaN compares false
                fail(f"{where}.coefficients[{j}]", "must be finite floating-point numbers")
            value = complex(pair[0], pair[1])
            if value == 0:
                fail(f"{where}.coefficients[{j}]", "zero coefficient; remove the point instead")
            row.append(value)
        coeff_rows.append(row)
    system = SupportSystem.of_points(supports)
    if not has_coeffs:
        return system, None
    return system, SparseSystem.from_pairs(
        [list(zip(pts, row)) for pts, row in zip(supports, coeff_rows)]
    )


def load_system(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemFileError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_system(data, source=path)


def system_to_obj(F: SparseSystem) -> dict:
    return {
        "n": F.n,
        "polynomials": [
            {
                "support": [list(p) for p in sup.points],
                "coefficients": [[c.real, c.imag] for c in row],
            }
            for sup, row in zip(F.system.supports, F.coefficients)
        ],
    }


def solutions_to_obj(sols: SolutionSet) -> dict:
    return {
        "solutions": np.stack([sols.points.real, sols.points.imag], axis=-1).tolist(),
        "residuals": sols.residuals.tolist(),
        "provenance": list(sols.provenance),
    }


def tree_to_obj(tree: DecompositionTree) -> dict:
    obj = {
        "kind": tree.kind,
        "mv": tree.mv,
        "paths": tree.paths,
        "solutions": tree.solutions,
        "transfers": tree.transfers,
        "gamma_retries": tree.gamma_retries,
        "elapsed_ms": round(tree.elapsed * 1e3, 3),
    }
    if tree.index is not None:
        obj["index"] = tree.index
        obj["diagonal"] = list(tree.diagonal)
    if tree.witness is not None:
        obj["witness"] = [i + 1 for i in tree.witness]  # 1-based for display
    if tree.bezout_paths:
        obj["bezout_paths"] = tree.bezout_paths
    if tree.children:
        obj["children"] = [tree_to_obj(c) for c in tree.children]
    return obj


def render_tree(tree: DecompositionTree, indent=0) -> list[str]:
    pad = "  " * indent
    if tree.kind == "lacunary":
        child = tree.children[0]
        head = f"{pad}lacunary, index {tree.index}; child MV {child.mv}; total {tree.mv}"
    elif tree.kind == "triangular":
        base, fiber = tree.children[:2]  # later children: fibers solved directly
        witness = "{" + ",".join(str(i + 1) for i in tree.witness) + "}"
        head = f"{pad}triangular, I = {witness}, MV {base.mv} x {fiber.mv} = {tree.mv}"
    elif tree.kind == "homotopy":
        head = f"{pad}straight-line homotopy, MV {tree.mv}"
    elif tree.kind == "blackbox":
        head = f"{pad}indecomposable, MV {tree.mv}"
    else:
        head = f"{pad}{tree.kind}, MV {tree.mv}"
    lines = [head]
    for child in tree.children:
        lines.extend(render_tree(child, indent + 1))
    return lines


def _settings(args) -> TrackerSettings:
    """The tracker settings, once --seed and --tolerance are checked."""
    if args.seed < 0:
        raise TorsolveError(f"--seed must be a non-negative integer, got {args.seed}")
    try:
        return TrackerSettings(args.tolerance)
    except ValueError:
        raise TorsolveError(
            f"--tolerance must be a positive finite number, got {args.tolerance}") from None


def cmd_analyze(args) -> int:
    system, _ = load_system(args.file)
    try:
        tree = predict_tree(system)
    except MixedVolumeZeroError as exc:
        witness = "{" + ",".join(str(i + 1) for i in exc.witness) + "}"
        print(f"mixed volume 0, witness I = {witness}")
        return 0
    print("\n".join(render_tree(tree)))
    print(f"total MV: {tree.mv}")
    return 0


def cmd_mv(args) -> int:
    system, _ = load_system(args.file)
    print(mixed_volume(system))
    return 0


def cmd_solve(args) -> int:
    _, F = load_system(args.file)
    if F is None:
        print("error: coefficients required for solve", file=sys.stderr)
        return 1
    settings = _settings(args)
    try:
        mv = predict_tree(F.system).mv
    except MixedVolumeZeroError as exc:
        print(f"error: mixed volume 0, witness {tuple(i + 1 for i in exc.witness)}",
              file=sys.stderr)
        return 1
    try:
        report = solve_decomposable(F, seed=args.seed, settings=settings)
    except TorsolveError as exc:
        print(f"decomposable solve failed ({exc}); falling back to start-system homotopy",
              file=sys.stderr)
        report = solve_general(F, seed=args.seed, settings=settings)
    full = len(report.solutions) == mv
    if args.json:
        obj = {
            "n": F.n,
            "mixed_volume": mv,
            "count": len(report.solutions),
            "seed": report.seed,
            "paths_tracked": report.paths_tracked,
            "blackbox_calls": report.blackbox_calls,
            "tree": tree_to_obj(report.tree),
            "warnings": report.warnings,
        }
        obj.update(solutions_to_obj(report.solutions))
        json.dump(obj, sys.stdout, indent=2)
        print()
    else:
        print("\n".join(render_tree(report.tree)))
        print(f"solutions: {len(report.solutions)} of MV {mv}; "
              f"paths tracked: {report.paths_tracked}; seed: {report.seed}")
        worst = max(report.solutions.residuals, default=0.0)
        print(f"max residual: {worst:.3e}")
        for pt in report.solutions.points:
            print("  " + "  ".join(f"{z.real:+.12e}{z.imag:+.12e}j" for z in pt))
        for w in report.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return 0 if full else 2


def cmd_start(args) -> int:
    system, _ = load_system(args.file)
    settings = _settings(args)
    try:
        G, sols = decomposable_start_system(system, seed=args.seed, settings=settings)
    except MixedVolumeZeroError as exc:
        print(f"error: mixed volume 0, witness {tuple(i + 1 for i in exc.witness)}",
              file=sys.stderr)
        return 1
    obj = system_to_obj(G)
    obj.update(solutions_to_obj(sols))
    obj["seed"] = args.seed
    json.dump(obj, sys.stdout, indent=2)
    print()
    return 0


def _bench_embeddings(kind, rng):
    basis = np.eye(5, dtype=int)
    if kind == "e-basis":
        return [tuple(basis[i]) for i in range(4)]
    if kind == "shifted":
        return [tuple(basis[i] - basis[i + 1]) for i in range(4)]
    while True:
        vecs = [tuple(int(rng.integers(-2, 3)) for _ in range(5)) for _ in range(4)]
        if len(_bareiss_rank(vecs)) == 4:  # exact: no float ranks a lattice
            return vecs


def _bench_instance(kind, rng):
    i1, i2, j1, j2 = _bench_embeddings(kind, rng)

    def embed(pts, u, v):
        return [tuple(a * x + b * y for x, y in zip(u, v)) for a, b in pts]

    supports = [
        embed(BENCH_A1, i1, i2),
        embed(BENCH_A2, i1, i2),
        embed(BENCH_B1, j1, j2),
        embed(BENCH_B2, j1, j2),
        list(BENCH_CUBE),
    ]
    system = SupportSystem.of_points(supports)
    return SparseSystem(system, [[np.exp(2j * np.pi * rng.random()) for _ in sup.points]
                                 for sup in system.supports])


def cmd_bench(args) -> int:
    settings = _settings(args)
    if args.count < 1:
        raise TorsolveError(f"--count must be a positive integer, got {args.count}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance_id", "mv", "paths_dec", "paths_bb",
                     "time_dec_ms", "time_bb_ms", "status"])
    rows = []
    rng = np.random.default_rng(np.random.SeedSequence(args.seed))
    for idx in range(args.count):
        F = _bench_instance(args.family, rng)
        mv = mixed_volume(F.system)
        status = "ok"
        paths_dec = paths_bb = 0
        t_dec = t_bb = float("nan")
        t0 = time.perf_counter()
        try:
            report = solve_decomposable(F, seed=args.seed + idx, settings=settings)
            paths_dec = report.paths_tracked
            t_dec = (time.perf_counter() - t0) * 1e3
        except TorsolveError:
            status = "dec-fail"
        paths_bb = bezout_path_count(F.system)
        if status == "ok":
            t0 = time.perf_counter()
            try:
                blackbox(F, seed=args.seed + idx, settings=settings)
                t_bb = (time.perf_counter() - t0) * 1e3
            except TorsolveError:
                status = "bb-fail"
        row = [idx, mv, paths_dec, paths_bb,
               f"{t_dec:.1f}" if t_dec == t_dec else "",
               f"{t_bb:.1f}" if t_bb == t_bb else "", status]
        writer.writerow(row)
        sys.stdout.flush()
        if status == "ok":
            rows.append((mv, t_dec, t_bb))
    _bench_summary(rows)
    return 0


def _bench_summary(rows):
    if not rows:
        return
    by_mv = {}
    for mv, t_dec, t_bb in rows:
        by_mv.setdefault(mv, []).append((t_dec, t_bb))
    print("# summary: quartiles of wall time per MV bucket (ms)", file=sys.stderr)
    for mv in sorted(by_mv):
        group = by_mv[mv]
        dec = np.percentile([g[0] for g in group], [25, 50, 75])
        bb = np.percentile([g[1] for g in group], [25, 50, 75])
        print(f"# mv={mv} n={len(group)} dec[q1,q2,q3]={dec.round(1).tolist()} "
              f"bb[q1,q2,q3]={bb.round(1).tolist()}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="torsolve",
        description="Sparse polynomial system solver exploiting decomposable supports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="system file (UTF-8 JSON)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tolerance", type=float, default=1e-8)

    p_analyze = sub.add_parser("analyze", help="print the decomposition skeleton")
    p_analyze.add_argument("file")
    p_mv = sub.add_parser("mv", help="print the mixed volume")
    p_mv.add_argument("file")
    p_solve = sub.add_parser("solve", help="solve the system")
    common(p_solve)
    p_solve.add_argument("--json", action="store_true")
    p_start = sub.add_parser("start", help="build and solve a vertex start system")
    common(p_start)
    p_bench = sub.add_parser("bench", help="benchmark a family of instances", description=(
        "Solves each instance decomposed and by the total-degree black box, which tracks up to "
        "the full Bezout count: `random` can take minutes (about 8 for --count 5 on two cores)."))
    p_bench.add_argument("family", choices=["e-basis", "shifted", "random"])
    p_bench.add_argument("--count", type=int, default=10)
    common(p_bench, needs_file=False)

    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "mv": cmd_mv,
        "solve": cmd_solve,
        "start": cmd_start,
        "bench": cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except TorsolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
