"""Check that two checkouts solve the benchmark's ops alike.

    python3 tools/parity.py PARENT_DIR CHANGE_DIR

Each checkout's `src/` runs in its own subprocess on the ops its
`perfbench/workloads.py` builds (RUNS): `decomposable` at seeds 0-9 with 5
rounds each, `exact` at seeds 0-9 with 3 rounds each, two `general` rounds
and the `blackbox` op. The second `general` round repeats the first, fixed
data, so the solves the solver's memo serves, start systems included, are
compared op by op as well. Then `torsolve solve --json FILE --tolerance=T`
and `torsolve start FILE --tolerance=T` (CLI_RUNS) run on the three
acceptance systems for each T in CLI_TOLERANCES, since no op sets a
tolerance; the start runs return the only labels with a node prefix
(`start/root[i.j]`) that reach a result. Per op the two runs must agree
on the status, the error type and message (for the CLI, its standard
error), the returned mixed volume or the decomposition tree without
`elapsed`, the provenance and the warnings, the CLI's JSON output without
`elapsed_ms`, and the points to 1e-8 relative, point by point. Prints the
largest relative point difference and the largest residual change, lists
the first differences (a differing tree as one line per node field, e.g.
`/1/0 gamma_retries 2 -> 0` for child 0 of the root's child 1; a CLI run
whose JSON `solutions` differ with its largest relative point
difference), and exits 1 on any. It also prints, per workload and for each checkout, the number
of tracker passes (`_correct` calls), `Homotopy.state` calls, the rows
they evaluated, `_newton` calls (the tracker's endgame batches and the
solver's refinements) and the sum of `gamma_retries` over every node of
every op's tree, so that a change to the tracker's steps can show its
effect and its cost in retries; and the two-variable black-box leaves
(`solver._blackbox` calls with n = 2) that tracked no path, solved by the
resultant eigenproblem, against those that fell back to tracking; the same
for the triangular nodes with at least one transfer that returned, their
fibers all solved as one family or some reached by `track_all` calls of
their own; the solver's `track_all` calls with the target blocks they
tracked, summed over calls, so that a transfer tracked again shows; the
`classify` calls with the `smith_normal_form` calls made inside them; and
the `normalize` calls, wrapped in every `torsolve` module that binds the
function, with the rank eliminations (`intlinalg._bareiss_rank` calls), so
that exact work done twice shows; and the `torus.apply` calls, wrapped in
every `torsolve` module that binds the function under any name, with the
points they mapped (a (P, n) stack maps P, one point 1), so that points
mapped one call each show; and the dedup passes, `distinct` calls wrapped
the same way, with the candidate points they were given, so that rows
deduplicated one call each show; and the hits and misses of the solver's
memo of support-only work (`solver._memo`; a checkout without it counts
none), so that supports classified again show; and the `SparseSystem`
constructions (`SparseSystem.__post_init__` calls), the inputs the
workload builds included, so that systems built per node beside the
coefficient rows show. Since that memo, the
solver's `classify` calls count its misses only: a classification the
memo holds makes no call. A call counts once whatever it is given;
a checkout whose `normalize` passed a `SparseSystem`'s supports back to
itself counts that inner call too, so the two sides' `normalize` counts
differ in meaning when only one of them does so. These counts are
information, not a check; so is each checkout's `src/` line count, taken
over the `*.py` files of `src/torsolve` as `perfbench/run.py` takes it.
"""

import argparse
import pickle
import subprocess
import sys
from pathlib import Path

POINT_TOL = 1e-8
SHOWN = 20
CLI_TOLERANCES = ("1e-6", "1e-10")
# (workload, arguments before FILE and --tolerance) of the CLI runs on the acceptance systems.
CLI_RUNS = (("cli --tolerance", ["solve", "--json"]), ("cli start", ["start"]))
# (workload, seed, rounds) of the benchmark ops each checkout solves.
RUNS = ([("decomposable", seed, 5) for seed in range(10)]
        + [("exact", seed, 3) for seed in range(10)] + [("general", 0, 2), ("blackbox", 0, 1)])
# Import the torsolve of the checkout named by the first argument and wrap
# the functions it counts, each count going to the global `workload`'s entry.
SETUP = """
import contextlib, dataclasses, io, json, pickle, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1]).resolve()
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import numpy as np
import torsolve
import torsolve.cli
import torsolve.solver
import torsolve.tracking
import workloads
TOLERANCES = sys.argv[2:]
if Path(torsolve.__file__).resolve().parent != root / "src" / "torsolve":
    raise SystemExit(f"imported torsolve from {torsolve.__file__}")

steps = {}  # workload: [tracker passes, Homotopy.state calls, rows evaluated, _newton calls]
state, correct = torsolve.tracking.Homotopy.state, torsolve.tracking._correct
newton = torsolve.tracking._newton

def tally():
    return steps.setdefault(workload, [0, 0, 0, 0])

def counted_state(self, X, t, rows):
    tally()[1] += 1
    tally()[2] += len(X)
    return state(self, X, t, rows)

def counted_correct(*args):
    tally()[0] += 1
    return correct(*args)

def counted_newton(*args):
    tally()[3] += 1
    return newton(*args)

torsolve.tracking.Homotopy.state = counted_state
torsolve.tracking._correct = counted_correct
torsolve.tracking._newton = torsolve.solver._newton = counted_newton

leaves, tracked = {}, [0]  # workload: [n = 2 leaves solved untracked, leaves that tracked]
blocks = {}  # workload: [the solver's track_all calls, target blocks they tracked]
blackbox, track_all = torsolve.solver._blackbox, torsolve.solver.track_all

def counted_track_all(*args):
    tracked[0] += 1
    calls = blocks.setdefault(workload, [0, 0])
    calls[0] += 1
    calls[1] += len(args[0].ct)
    if frames and frames[-1] is not None:
        frames[-1] += 1
    return track_all(*args)

def counted_blackbox(F, *args):
    before = tracked[0]
    try:
        return blackbox(F, *args)
    finally:
        if F.n == 2:
            leaves.setdefault(workload, [0, 0])[tracked[0] > before] += 1

torsolve.solver._blackbox, torsolve.solver.track_all = counted_blackbox, counted_track_all

# workload: [triangular nodes with a transfer that tracked none, those that did];
# frames: per open solve, None or, for a triangular node, the track_all calls it made itself
fibers, frames = {}, []
solve, triangular = torsolve.solver._solve, torsolve.solver._solve_triangular

def counted_solve(*args):
    frames.append(None)
    try:
        return solve(*args)
    finally:
        frames.pop()

def counted_triangular(*args):
    frames.append(0)
    try:
        out = triangular(*args)
    finally:
        calls = frames.pop()
    if out[1].transfers:
        fibers.setdefault(workload, [0, 0])[calls > 0] += 1
    return out

torsolve.solver._solve, torsolve.solver._solve_triangular = counted_solve, counted_triangular

nodes, inside = {}, [0]  # workload: [classify calls, smith_normal_form calls inside them]
classify, smith = torsolve.decompose.classify, torsolve.decompose.smith_normal_form

def counted_classify(S):
    nodes.setdefault(workload, [0, 0])[0] += 1
    inside[0] += 1
    try:
        return classify(S)
    finally:
        inside[0] -= 1

def counted_smith(A):
    if inside[0]:
        nodes.setdefault(workload, [0, 0])[1] += 1
    return smith(A)

torsolve.decompose.classify = torsolve.solver.classify = counted_classify
torsolve.decompose.smith_normal_form = counted_smith

exact = {}  # workload: [normalize calls, rank eliminations]
normalize, bareiss_rank = torsolve.supports.normalize, torsolve.intlinalg._bareiss_rank

def counted_normalize(obj):
    exact.setdefault(workload, [0, 0])[0] += 1
    return normalize(obj)

def counted_bareiss_rank(m):
    exact.setdefault(workload, [0, 0])[1] += 1
    return bareiss_rank(m)

for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "torsolve" and getattr(module, "normalize", None) is normalize:
        module.normalize = counted_normalize
torsolve.intlinalg._bareiss_rank = counted_bareiss_rank

mapped = {}  # workload: [torus.apply calls, points they mapped]
deduped = {}  # workload: [distinct calls, candidate points they were given]
apply, distinct = torsolve.torus.apply, torsolve.tracking.distinct

def counted_apply(Phi, x):
    calls = mapped.setdefault(workload, [0, 0])
    calls[0] += 1
    calls[1] += len(x) if np.ndim(x) == 2 else 1
    return apply(Phi, x)

def counted_distinct(points, *args):
    calls = deduped.setdefault(workload, [0, 0])
    calls[0] += 1
    calls[1] += len(points)
    return distinct(points, *args)

for name, module in list(sys.modules.items()):
    if name.split(".")[0] == "torsolve":
        for attr, value in list(vars(module).items()):
            if value is apply:
                setattr(module, attr, counted_apply)
            elif value is distinct:
                setattr(module, attr, counted_distinct)

memo = {}  # workload: [memo hits, misses]
cached = getattr(torsolve.solver, "_memo", None)

def counted_memo(*args):
    hits = cached.cache_info().hits
    try:
        return cached(*args)
    finally:
        memo.setdefault(workload, [0, 0])[cached.cache_info().hits == hits] += 1

if cached is not None:
    torsolve.solver._memo = counted_memo

built = {}  # workload: SparseSystem constructions
post_init = torsolve.supports.SparseSystem.__post_init__

def counted_post_init(self):
    if "workload" in globals():  # one built before the first workload counts for none
        built[workload] = built.get(workload, 0) + 1
    post_init(self)

torsolve.supports.SparseSystem.__post_init__ = counted_post_init
"""
# Run in a fresh interpreter from a checkout: solve every op and pickle
# ({(workload, seed, round, label): record},
#  {workload: [tracker passes, state calls, rows, _newton calls]},
#  {workload: [n = 2 black-box leaves that tracked no path, those that did]},
#  {workload: [triangular nodes with a transfer that tracked none, those that did]},
#  {workload: [track_all calls, target blocks they tracked]},
#  {workload: [classify calls, smith_normal_form calls inside them]},
#  {workload: [normalize calls, rank eliminations]},
#  {workload: [torus.apply calls, points they mapped]},
#  {workload: [distinct calls, candidate points they were given]},
#  {workload: [memo hits, misses]},
#  {workload: SparseSystem constructions}) to standard output.
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
sys.stdout.buffer.write(pickle.dumps((out, steps, leaves, fibers, blocks, nodes, exact, mapped,
                                      deduped, memo, built)))
"""


def solve_all(checkouts):
    """The CHILD records, step counts, leaf counts, fiber-node counts,
    track_all counts, classify counts, normalize and elimination counts,
    torus.apply counts, distinct counts, memo counts and SparseSystem
    construction counts of each checkout, both run at the same time."""
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


def gamma_retries(records) -> dict:
    """{workload: the sum of gamma_retries over every node of every op's
    tree}, from the records' trees or the CLI's JSON trees."""
    def total(node):
        return node.get("gamma_retries", 0) + sum(map(total, node.get("children", [])))
    out = {}
    for key, record in records.items():
        tree = record.get("tree") or record.get("json", {}).get("tree")
        out[key[0]] = out.get(key[0], 0) + (total(tree) if tree else 0)
    return out


def count_lines(records, steps) -> list:
    """Per workload, `  W: a / b / c / d / e -> ...`: the tracker passes,
    state calls, rows, _newton calls and gamma_retries of each side."""
    retries = [gamma_retries(side) for side in records]
    lines = []
    for workload in sorted(set().union(*steps, *retries)):
        a, b = (" / ".join(f"{count:,}" for count in [*side.get(workload, (0, 0, 0, 0)),
                                                     tried.get(workload, 0)])
                for side, tried in zip(steps, retries))
        lines.append(f"  {workload}: {a} -> {b}" + ("" if a == b else "  (differs)"))
    return lines


def pair_lines(counts) -> list:
    """Per workload, `  W: a / b -> c / d`: two counts of each side, e.g. the
    two-variable black-box leaves solved by the eigenproblem (a, c) and
    those that fell back to tracking (b, d)."""
    lines = []
    for workload in sorted(set().union(*counts)):
        a, b = (" / ".join(f"{count:,}" for count in side.get(workload, (0, 0)))
                for side in counts)
        lines.append(f"  {workload}: {a} -> {b}")
    return lines


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
    (parent, change), steps, leaves, fibers, blocks, nodes, exact, mapped, deduped, memo, built = (
        zip(*solve_all([args.parent.resolve(), args.change.resolve()])))
    diffs, worst_point, worst_change, worst_res, solutions = compare(parent, change)
    failed = [sum(r["status"] != "ok" for r in side.values()) for side in (parent, change)]
    print(f"ops: {len(parent)} parent, {len(change)} change; failed {failed[0]} -> {failed[1]}")
    print("src/ lines: {:,} -> {:,}".format(*map(src_lines, (args.parent, args.change))))
    print("tracker passes / Homotopy.state calls / rows evaluated / _newton calls / "
          "gamma_retries, parent -> change:")
    for line in count_lines((parent, change), steps):
        print(line)
    print("n = 2 black-box leaves solved by the eigenproblem / fell back to tracking, "
          "parent -> change:")
    for line in pair_lines(leaves):
        print(line)
    print("triangular nodes with a transfer, fibers solved as one family / fell back to "
          "tracking, parent -> change:")
    for line in pair_lines(fibers):
        print(line)
    print("track_all calls / target blocks tracked, parent -> change:")
    for line in pair_lines(blocks):
        print(line)
    print("classify calls / smith_normal_form calls inside them, parent -> change:")
    for line in pair_lines(nodes):
        print(line)
    print("support-work memo hits / misses, parent -> change:")
    for line in pair_lines(memo):
        print(line)
    print("normalize calls / rank eliminations, parent -> change:")
    for line in pair_lines(exact):
        print(line)
    print("torus.apply calls / points they mapped, parent -> change:")
    for line in pair_lines(mapped):
        print(line)
    print("dedup passes (distinct calls) / candidate points, parent -> change:")
    for line in pair_lines(deduped):
        print(line)
    print("SparseSystem constructions, parent -> change:")
    for workload in sorted(set().union(*built)):
        print(f"  {workload}: {built[0].get(workload, 0):,} -> {built[1].get(workload, 0):,}")
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
