"""Compare two checkouts on one workload by alternating benchmark runs.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs N]

Pair i runs `perfbench/run.py --workload W --seed i --seconds S --trace 0`
once in each checkout, one run at a time, for i = 0 .. N-1 (N = 10 by
default); the parent goes first in even pairs and the change in odd ones.
S is `run_seconds` and the metrics are the `end_to_end` list of this
checkout's BENCHMARK.json, so both sides run the same length. Each side
runs its own `perfbench/`; this tool only reads run.py's last line.

Make both checkouts the same way, for example both as fresh copies by
`git archive COMMIT | tar -x -C DIR`; the tool exits with an error when
exactly one of them has `.git`, or exactly one has a `__pycache__` under
`src/`. With the parent a fresh copy and the
change a working tree, the change has read `setup_s` 16-23% lower though
it touched no code run at setup, and black-box `wall_s` +4.8% where fresh
copies of the same two trees read -2.2%: unlike checkouts can show a gain
or a regression that is not the change's.

For every metric it prints each side's median and quartiles, the relative
change of the medians, and the pairs the change won and lost (ties count
for neither). It calls the metric "unresolved" when the parent's runs
spread, (max - min) / median, wider than the metric's `bound`, unless
every change run beats every parent run; a "regression" when the change's
median is worse than the parent's by more than the bound; and says whether
a gain may be claimed: the metric is resolved, the change failed no more
ops than the parent, wins at least nine tenths of the pairs, and its
median is better than the parent's by more than the distance between the
parent's quartiles. It also prints each side's failed and attempted op
counts.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result object run.py prints as its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def difference(parent: Path, change: Path) -> str | None:
    """How the two checkouts were made differently, or None: exactly one
    has `.git`, or exactly one has a `__pycache__` under `src/`."""
    probes = {".git": lambda d: (d / ".git").exists(),
              "a __pycache__ under src/": lambda d: any((d / "src").rglob("__pycache__"))}
    for what, has in probes.items():
        if has(parent) != has(change):
            return f"only {parent if has(parent) else change} has {what}"
    return None


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(parent, change, better: str, bound: float, failed=(0, 0)) -> dict:
    """Paired runs of one metric, `better` "lower" or "higher", with its
    relative `bound` and the (parent, change) failed op counts: both sides'
    quartiles, the pairs the change won and lost, the parent's spread, and
    whether the metric is unresolved, regressed, or shows a gain."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    lost = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    width = max(parent) - min(parent)
    spread = width / abs(qp[1]) if qp[1] else (math.inf if width else 0.0)
    beats = min(sign * v for v in change) > max(sign * v for v in parent)
    unresolved = spread > bound and not beats
    return {"parent": qp, "change": qc, "won": won, "lost": lost, "pairs": len(parent),
            "spread": spread, "unresolved": unresolved,
            "regression": sign * (qp[1] - qc[1]) > bound * abs(qp[1]),
            "claim": (not unresolved and failed[1] <= failed[0] and won >= 0.9 * len(parent)
                      and sign * (qc[1] - qp[1]) > qp[2] - qp[0])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    unlike = difference(*sides.values())
    if unlike:
        parser.error(f"{sides['parent']} and {sides['change']} were made differently: {unlike}")
    runs = {side: [] for side in sides}
    for seed in range(args.pairs):
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed, bench["run_seconds"])
            runs[side].append(result)
            print(f"pair {seed} {side}: " + ", ".join(
                f"{name} {result['metrics'][name]['value']:.4g}" for name in metrics), flush=True)
    print(f"{args.workload}: {args.pairs} pairs of {bench['run_seconds']} s runs")
    failed = {}
    for side in sides:
        failed[side] = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"  {side}: failed {failed[side]} of {attempted} ops, correct {correct}")
    if failed["change"] > failed["parent"]:
        print("  the change failed more ops than the parent: no gain may be claimed")
    for name, metric in metrics.items():
        values = [[r["metrics"][name]["value"] for r in runs[side]] for side in sides]
        s = summarize(*values, metric["better"], metric["bound"], tuple(failed.values()))
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        relative = f"{cm / pm - 1:+.1%}" if pm else "n/a"
        verdicts = [f"gain {'holds' if s['claim'] else 'not shown'}"]
        if s["regression"]:
            verdicts.append(f"regression beyond the {metric['bound']:.0%} bound")
        if s["unresolved"]:
            verdicts.append(f"unresolved: parent spread {s['spread']:.1%} > {metric['bound']:.0%} bound")
        print(f"  {name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}], change {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"{relative}; change won {s['won']}, lost {s['lost']} of {s['pairs']}; "
              + "; ".join(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
