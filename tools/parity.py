"""Check that two checkouts solve the benchmark's ops alike.

    python3 tools/parity.py PARENT_DIR CHANGE_DIR

Each checkout's `src/` runs in its own subprocess on the ops its
`perfbench/workloads.py` builds (RUNS) and on the CLI runs of the acceptance
systems (CLI_RUNS, at each of CLI_TOLERANCES). Per op the two runs must agree
on the status, the error type and message (for the CLI, its standard error),
the mixed volume or the decomposition tree without `elapsed`, the provenance,
the warnings, the CLI's JSON output without `elapsed_ms`, and the points to
1e-8 relative, point by point. Prints the largest relative point difference
and residual change and the first differences (a tree's as one line per node
field, e.g. `/1/0 gamma_retries 2 -> 0` for child 0 of the root's child 1),
and exits 1 on any. It also prints, as information and not as a check, each
checkout's `src/` line count and, per workload, the counters of COUNTERS:
what the solver did, so that a change shows its effect and its cost.
"""

import argparse
import pickle
import subprocess
import sys
from pathlib import Path

POINT_TOL = 1e-8
SHOWN = 20
CLI_TOLERANCES = ("1e-6", "1e-10")
# (workload, arguments before FILE and --tolerance) of the CLI runs on the acceptance systems;
# `start` returns the only labels with a node prefix (`start/root[i.j]`) that reach a result.
CLI_RUNS = (("cli --tolerance", ["solve", "--json"]), ("cli start", ["start"]))
# (workload, seed, rounds) of the benchmark ops each checkout solves. The second general
# round repeats the first, fixed data, so the solves the solver's memo serves are compared too.
RUNS = ([("decomposable", seed, 5) for seed in range(10)]
        + [("exact", seed, 3) for seed in range(10)] + [("general", 0, 2), ("blackbox", 0, 1)])
# The counters, by section: (title, rows). A row is (counter, the torsolve attribute whose
# calls it counts, what one call adds or None for 1, the counted call it must be made
# directly inside or None). What a call adds is an expression in its `args`, its result
# `out` (None if it raised), `inner` (the counted calls made directly inside it, by
# attribute) and `info` (the solver memo's cache_info when it began); it counts nothing when 0.
# Every binding of an attribute in a torsolve module counts; one a checkout lacks, none.
COUNTERS = (
    ("tracker passes / Homotopy.state calls / rows evaluated / _newton calls / gamma_retries", (
        ("tracker passes", "tracking._correct", None, None),
        ("state calls", "tracking.Homotopy.state", None, None),
        ("rows evaluated", "tracking.Homotopy.state", "len(args[1])", None),
        # the tracker's endgame batches and the solver's refinements
        ("_newton calls", "tracking._newton", None, None),
        # over every node of every op's tree, added from the records by gamma_retries
        ("gamma_retries", None, None, None))),
    ("Homotopy.values calls / rows evaluated", (  # the residuals Newton takes before any step
        ("values calls", "tracking.Homotopy.values", None, None),
        ("values rows", "tracking.Homotopy.values", "len(args[1])", None))),
    ("n = 2 black-box leaves solved by the eigenproblem / fell back to tracking", (
        ("eigenproblem leaves", "solver._blackbox",
         "args[0].n == 2 and not inner['solver.track_all']", None),
        ("tracked leaves", "solver._blackbox",
         "args[0].n == 2 and inner['solver.track_all'] > 0", None))),
    ("triangular nodes with a transfer, fibers solved as one family / fell back to tracking", (
        ("family nodes", "solver._solve_triangular",
         "out is not None and out[1].transfers and not inner['solver.track_all']", None),
        ("tracked nodes", "solver._solve_triangular",
         "out is not None and out[1].transfers and inner['solver.track_all'] > 0", None))),
    ("solve_general calls decomposed / tracked from the vertex start", (
        ("general decomposed", "solver.solve_general",
         "out is not None and out.tree.kind != 'homotopy'", None),
        ("general tracked", "solver.solve_general",
         "out is not None and out.tree.kind == 'homotopy'", None))),
    ("track_all calls / target blocks tracked", (  # a transfer tracked again shows
        ("track_all calls", "solver.track_all", None, None),
        ("target blocks", "solver.track_all", "len(args[0].ct)", None))),
    ("classify calls / smith_normal_form calls inside them", (
        ("classify calls", "decompose.classify", None, None),  # the solver's: its memo's misses
        ("Smith forms", "decompose.smith_normal_form", None, "decompose.classify"))),
    ("support-work memo hits / misses", (  # a miss with a hit inside is a miss
        ("memo hits", "solver._memo", "memo.cache_info()[:2] == (info.hits + 1, info.misses)",
         None),
        ("memo misses", "solver._memo", "memo.cache_info().misses > info.misses", None))),
    ("_hull calls in the line or the plane (d <= 2) / above it (d >= 3)", (
        ("planar hulls", "geometry._hull", "len(args[1]) <= 3", None),  # the seed has d + 1
        ("hulls above the plane", "geometry._hull", "len(args[1]) > 3", None))),
    ("normalize calls / rank eliminations", (  # exact work done twice shows
        ("normalize calls", "supports.normalize", None, None),
        ("rank eliminations", "intlinalg._bareiss_rank", None, None))),
    ("torus.apply calls / points they mapped", (  # a (P, n) stack maps P, one point 1
        ("apply calls", "torus.apply", None, None),
        ("points mapped", "torus.apply", "len(args[1]) if np.ndim(args[1]) == 2 else 1", None))),
    ("dedup passes (distinct calls) / candidate points", (
        ("distinct calls", "tracking.distinct", None, None),
        ("candidate points", "tracking.distinct", "len(args[0])", None))),
    ("SparseSystem constructions", (  # the inputs a workload builds included
        ("SparseSystem constructions", "supports.SparseSystem.__post_init__", None, None),)),
    ("IntMatrix constructions", (  # each validates its entries; the inputs included
        ("IntMatrix constructions", "intlinalg.IntMatrix.__post_init__", None, None),)),
)
# Import the torsolve of the checkout named by the first argument and wrap every
# attribute COUNTERS counts, each count going to the global `workload`'s entry of `counts`.
SETUP = f"COUNTERS = {COUNTERS!r}\n" + """
import collections, contextlib, dataclasses, functools, io, json, pickle, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import numpy as np
import torsolve
import torsolve.cli
import workloads
TOLERANCES = sys.argv[2:]
if Path(torsolve.__file__).resolve().parent != root / "src" / "torsolve":
    raise SystemExit(f"imported torsolve from {torsolve.__file__}")

workload = None  # a call made outside every workload counts for none
counts = {}  # {workload: {counter: value}}
calls = []  # the open counted calls, innermost last: (attribute, inner, info)
memo = getattr(torsolve.solver, "_memo", None)

def counted(attribute, f, rows):
    def wrapper(*args, **kwargs):  # the CLI passes seed and settings by keyword
        outer = calls[-1][0] if calls else None
        if calls:
            calls[-1][1][attribute] += 1
        calls.append((attribute, collections.Counter(), memo.cache_info() if memo else None))
        out = None
        try:
            out = f(*args, **kwargs)
            return out
        finally:
            _, inner, info = calls.pop()
            for counter, size, within in rows:
                if workload is not None and within in (None, outer):
                    amount = int(size(args, out, inner, info)) if size else 1
                    if amount:
                        tally = counts.setdefault(workload, {})
                        tally[counter] = tally.get(counter, 0) + amount
    return wrapper

rows = collections.defaultdict(list)  # attribute: [(counter, size, within)]
for _, section in COUNTERS:
    for counter, attribute, size, within in section:
        if attribute:
            rows[attribute].append(
                (counter, size and eval(f"lambda args, out, inner, info: {size}"), within))
modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "torsolve"]
for attribute, its_rows in rows.items():
    *path, name = attribute.split(".")
    owner = functools.reduce(getattr, path, torsolve)
    f = getattr(owner, name, None)
    if f is not None:
        wrapper = counted(attribute, f, its_rows)
        setattr(owner, name, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is f:
                    setattr(module, key, wrapper)
"""
# Run in a fresh interpreter from a checkout: solve every op and pickle
# ({(workload, seed, round, label): record}, counts) to standard output.
CHILD = SETUP + f"\nruns = {RUNS!r}\nCLI_RUNS = {CLI_RUNS!r}\n" + """
def tree_of(tree):
    if tree is None:
        return None
    def strip(node):
        node.pop("elapsed")
        for child in node["children"]:
            strip(child)
        return node
    return strip(dataclasses.asdict(tree))

out = {}
for workload, seed, rounds in runs:
    for r, ops in enumerate(workloads.build(workload, seed, rounds)):
        for op in ops:
            try:
                result = op.call()
            except Exception as exc:
                out[workload, seed, r, op.label] = {"status": type(exc).__name__,
                                                    "message": str(exc)}
                continue
            if isinstance(result, int):  # mixed_volume
                out[workload, seed, r, op.label] = {"status": "ok", "message": "", "mv": result}
                continue
            if isinstance(result, torsolve.DecompositionTree):  # predict_tree
                out[workload, seed, r, op.label] = {"status": "ok", "message": "",
                                                    "tree": tree_of(result)}
                continue
            sols = getattr(result, "solutions", result)
            out[workload, seed, r, op.label] = {
                "status": "ok",
                "message": "",
                "tree": tree_of(getattr(result, "tree", None)),
                "warnings": list(getattr(result, "warnings", [])),
                "provenance": list(sols.provenance),
                "points": [np.asarray(p) for p in sols.points],
                "residuals": list(sols.residuals),
            }

def strip_elapsed_ms(node):
    node.pop("elapsed_ms")
    for child in node.get("children", []):
        strip_elapsed_ms(child)

with tempfile.TemporaryDirectory() as tmp:
    for name, F, _ in workloads.acceptance_systems():
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(torsolve.cli.system_to_obj(F)))
        for workload, command in CLI_RUNS:
            for tol in TOLERANCES:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = torsolve.cli.main([*command, str(path), f"--tolerance={tol}"])
                obj = json.loads(stdout.getvalue()) if stdout.getvalue() else {}
                if "tree" in obj:
                    strip_elapsed_ms(obj["tree"])
                solutions = obj.get("solutions", [])
                out[workload, tol, 0, name] = {
                    "status": "ok" if code == 0 else f"exit {code}",
                    "message": stderr.getvalue(),
                    "json": obj,
                    "points": [np.array([complex(*z) for z in pt]) for pt in solutions],
                    "residuals": obj.get("residuals", []),
                }
sys.stdout.buffer.write(pickle.dumps((out, counts)))
"""


def solve_all(checkouts):
    """The CHILD records and counts of each checkout, both run at the same time."""
    procs = [subprocess.Popen([sys.executable, "-c", CHILD, str(d), *CLI_TOLERANCES], cwd=d,
                              stdout=subprocess.PIPE) for d in checkouts]
    results = []
    for d, proc in zip(checkouts, procs):
        data, _ = proc.communicate()
        if proc.returncode:
            raise SystemExit(f"error: the run in {d} exited with {proc.returncode}")
        results.append(pickle.loads(data))
    return results


def src_lines(checkout: Path) -> int:
    """Lines of the `*.py` files of the checkout's `src/torsolve`."""
    files = (checkout / "src" / "torsolve").glob("*.py")
    return sum(len(p.read_text().splitlines()) for p in files)


def relative_difference(p, q) -> float:
    scale = max(1.0, float(max(abs(p).max(), abs(q).max())))
    return float(abs(p - q).max()) / scale


def tree_differences(a, b, path=""):
    """One line per field that differs between two trees as dicts, the node
    named by its child indices from the root: `/1/0 gamma_retries 2 -> 0`."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [f"{path or '/'} {a!r} -> {b!r}"]
    out = [f"{path or '/'} {field} {a.get(field)!r} -> {b.get(field)!r}"
           for field in {**a, **b} if field != "children" and a.get(field) != b.get(field)]
    kids = a.get("children", []), b.get("children", [])
    if len(kids[0]) != len(kids[1]):
        out.append(f"{path or '/'} children {len(kids[0])} -> {len(kids[1])}")
    for k, (x, y) in enumerate(zip(*kids)):
        out += tree_differences(x, y, f"{path}/{k}")
    return out


def gamma_retries(records, counts) -> dict:
    """counts, {workload: {counter: value}}, with each workload's sum of
    gamma_retries over every node of every op's tree added, from the records'
    trees or the CLI's JSON trees."""
    def total(node):
        return node.get("gamma_retries", 0) + sum(map(total, node.get("children", [])))
    for key, record in records.items():
        tree = record.get("tree") or record.get("json", {}).get("tree")
        tally = counts.setdefault(key[0], {})
        tally["gamma_retries"] = tally.get("gamma_retries", 0) + (total(tree) if tree else 0)
    return counts


def section(counters, counts) -> dict:
    """{workload: its value of each of `counters`} over the workloads of one
    side's {workload: {counter: value}} that counted any of them."""
    return {workload: [tally.get(c, 0) for c in counters] for workload, tally in counts.items()
            if any(c in tally for c in counters)}


def lines(counters, sides) -> list:
    """Per workload, `  W: a / b -> c / d`: the parent's values of `counters`,
    then the change's, marked `(differs)` when they differ."""
    parent, change = (section(counters, side) for side in sides)
    out = []
    for workload in sorted({**parent, **change}):
        a, b = (" / ".join(f"{value:,}" for value in side.get(workload, [0] * len(counters)))
                for side in (parent, change))
        out.append(f"  {workload}: {a} -> {b}" + ("" if a == b else "  (differs)"))
    return out


def compare(parent, change):
    """(differences, largest point difference, largest residual change,
    largest residual of each side, solutions compared)."""
    diffs = []
    worst_point = worst_change = 0.0
    worst_res = [0.0, 0.0]
    solutions = 0
    for key in sorted(set(parent) | set(change), key=str):
        a, b = parent.get(key), change.get(key)
        if a is None or b is None:
            diffs.append(f"{key}: only in the {'change' if a is None else 'parent'}")
            continue
        for field in ("status", "message", "mv", "tree", "warnings", "provenance"):
            if a.get(field) == b.get(field):
                continue
            if field == "tree":
                diffs += [f"{key}: tree {line}"
                          for line in tree_differences(a.get("tree"), b.get("tree"))]
            else:
                diffs.append(f"{key}: {field} {a.get(field)!r} -> {b.get(field)!r}")
        paired = "points" in a and "points" in b and len(a["points"]) == len(b["points"])
        points = ([relative_difference(p, q) for p, q in zip(a["points"], b["points"])]
                  if paired else [])
        json_a, json_b = a.get("json", {}), b.get("json", {})
        if json_a != json_b:
            keys = sorted(k for k in {**json_a, **json_b} if json_a.get(k) != json_b.get(k))
            note = ""
            if "solutions" in keys and points:
                note = f"; largest relative point difference {max(points):.3g}"
            diffs.append(f"{key}: JSON output differs in {keys}{note}")
        if not paired:
            continue
        solutions += len(a["points"])
        worst_point = max([worst_point, *points])
        changes = [abs(r - s) for r, s in zip(a["residuals"], b["residuals"])]
        worst_change = max([worst_change, *changes])
        worst_res = [max([worst_res[0], *a["residuals"]]), max([worst_res[1], *b["residuals"]])]
        off = sum(not d <= POINT_TOL for d in points)  # NaN counts too
        if off:
            diffs.append(f"{key}: {off} of {len(points)} points differ by more than "
                         f"{POINT_TOL:g} relative")
    return diffs, worst_point, worst_change, worst_res, solutions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    args = parser.parse_args(argv)
    (parent, change), counts = zip(*solve_all([args.parent.resolve(), args.change.resolve()]))
    for records, side in zip((parent, change), counts):
        gamma_retries(records, side)
    diffs, worst_point, worst_change, worst_res, solutions = compare(parent, change)
    failed = [sum(r["status"] != "ok" for r in side.values()) for side in (parent, change)]
    print(f"ops: {len(parent)} parent, {len(change)} change; failed {failed[0]} -> {failed[1]}")
    print("src/ lines: {:,} -> {:,}".format(*map(src_lines, (args.parent, args.change))))
    for title, rows in COUNTERS:
        print(f"{title}, parent -> change:")
        for line in lines([row[0] for row in rows], counts):
            print(line)
    print(f"solutions compared: {solutions}")
    print(f"max relative point difference: {worst_point:.3g}")
    print(f"max residual: {worst_res[0]:.3g} -> {worst_res[1]:.3g}; "
          f"max residual change: {worst_change:.3g}")
    for line in diffs[:SHOWN]:
        print(line)
    if len(diffs) > SHOWN:
        print(f"... and {len(diffs) - SHOWN} more differences")
    print("parity: " + ("FAIL" if diffs else "ok"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
