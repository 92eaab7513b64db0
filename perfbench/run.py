"""Benchmark torsolve's public solvers on one seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. The workload's rounds of operations (see workloads.py) are built
from the seed, as many whole rounds as fit in S seconds at the nominal
round times of the host it was tuned on, and run in one process, closed
loop, with the library's default single thread. The work of a run is fixed
by its arguments, so a seed always attempts the same ops. Every result passes the correctness gate in
check.py. Times are converted to reference speed by the probe in speed.py.
With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1, each round is run untraced and then
traced, and it holds the per-layer metrics of layers.py plus the tracing
overhead. The lines before it are a readable summary.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import check
from layers import Tracer
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
# Run by a fresh interpreter: time its import of numpy and torsolve, net of
# the speed probe, and print that time and the probe's samples.
IMPORT = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import SpeedProbe
with SpeedProbe() as probe:
    t0 = time.perf_counter()
    import numpy, torsolve
    took = time.perf_counter() - t0 - probe.spent
print(took, *probe.samples)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["decomposable", "blackbox", "general", "exact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def import_package():
    if not (SRC / "torsolve" / "__init__.py").is_file():
        raise SystemExit(f"error: torsolve sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import torsolve

    if Path(torsolve.__file__).resolve().parent != SRC / "torsolve":
        raise SystemExit(f"error: imported torsolve from {torsolve.__file__}, not {SRC}")


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta() -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "torsolve").glob("*.py"))
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": lines,
    }


class Tally:
    """Op times, net of probe time, and failures over a run."""

    def __init__(self):
        self.seconds = []
        self.failed_at = set()  # indices into seconds of the failed ops
        self.failed_ops = set()
        self.reasons = Counter()
        self.wrong = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)

    @property
    def failed(self) -> int:
        return len(self.failed_at)

    def record(self, label, seconds, reason=None, wrong=False):
        if reason is not None:
            self.failed_at.add(len(self.seconds))
            self.failed_ops.add(label)
            self.reasons[reason] += 1
            self.wrong += wrong
        self.seconds.append(seconds)

    def ranked_ms(self, scale) -> list:
        """Op times in ms at reference speed, sorted, failed ops ranked as
        the slowest."""
        done = [t for i, t in enumerate(self.seconds) if i not in self.failed_at]
        slowest = max(done, default=max(self.seconds))
        return sorted(1e3 * scale * (slowest if i in self.failed_at else t)
                      for i, t in enumerate(self.seconds))


def run_round(ops, tally, probe, tracer=None, tag=""):
    for op in ops:
        if tracer is not None:
            tracer.op = f"{tag}{op.label}"
        spent = probe.spent
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # every exception is a counted failure, never an abort
            elapsed = time.perf_counter() - t0 - (probe.spent - spent)
            tally.record(op.label, elapsed, type(exc).__name__)
            continue
        elapsed = time.perf_counter() - t0 - (probe.spent - spent)
        tree = getattr(result, "tree", result)
        if tracer is not None and hasattr(tree, "walk"):
            tracer.record_tree(tree)
        try:
            check.check(op, result)
        except check.Failed as failure:
            tally.record(op.label, elapsed, failure.reason, failure.wrong)
            continue
        tally.record(op.label, elapsed)


def set_up(build):
    """Call build() SETUP_REPEATS times; return the rounds it built, setup_s
    (the median import of numpy and torsolve in a fresh interpreter plus the
    median build, at reference speed) and whether every build gave the same
    inputs. The child interpreter probes the speed during its own import,
    this process during the builds; one scale from all samples converts both."""
    probe = SpeedProbe()
    imports, builds, inputs = [], [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT, str(HERE), str(SRC)],
                             check=True, capture_output=True, text=True).stdout.split()
        imports.append(float(out[0]))
        probe.samples.extend(float(x) for x in out[1:])
        with probe:
            spent = probe.spent
            t0 = time.perf_counter()
            built = build()
            builds.append(time.perf_counter() - t0 - (probe.spent - spent))
        inputs.append([[(op.label, op.mv, op.data) for op in ops] for ops in built])
    setup_s = (statistics.median(imports) + statistics.median(builds)) * probe.scale()
    return built, setup_s, all(x == inputs[0] for x in inputs)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads

    count = workloads.rounds_for(args.workload, args.seconds)
    rounds, setup_s, deterministic = set_up(
        lambda: workloads.build(args.workload, args.seed, count))

    # Untraced rounds give the end-to-end metrics; with --trace 1 each is
    # followed by a traced round of the same ops.
    plain, traced = Tally(), Tally()
    tracer = Tracer() if args.trace else None
    with SpeedProbe() as probe:
        for i, ops in enumerate(rounds):
            run_round(ops, plain, probe)
            if i == 0:  # later rounds are alike and only add allocator growth
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.install()
                try:
                    run_round(ops, traced, probe, tracer, f"{i}:")
                finally:
                    tracer.uninstall()
    scale = probe.scale()

    ms = plain.ranked_ms(scale)
    raw_wall_s = sum(plain.seconds)
    wall_s = scale * raw_wall_s
    info = meta()
    info["missing"] = tracer.missing if tracer is not None else []
    print(f"# torsolve perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# meta {json.dumps(info)}")
    print(f"# {len(rounds)} rounds of {len(rounds[0])} ops" + (", each also traced" if tracer else ""))
    print(f"# raw wall {raw_wall_s:.3f} s; {len(probe.samples)} speed probes, "
          f"reference speed / machine speed {1 / scale:.3f}")
    print(f"# fail_frac {plain.failed / plain.attempted:.4f} reasons {dict(plain.reasons)} "
          f"ops {sorted(plain.failed_ops)}")
    print(f"# op_ms_p50 {statistics.median(ms):.3f} ms ({len(ms)} ops)")
    beyond = len(ms) - math.ceil(0.8 * len(ms))
    if beyond >= 10:
        print(f"# op_ms_p80 {ms[math.ceil(0.8 * len(ms)) - 1]:.3f} ms "
              f"({len(ms)} ops, {beyond} beyond it)")
    if not deterministic:
        print("# error: the same seed built different inputs")
    if tracer is not None:
        metrics = tracer.metrics(len(rounds))
        metrics["trace.untraced_wall_s"] = wall_s
        metrics["trace.wall_s"] = scale * sum(traced.seconds)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / wall_s
        units = {}
    else:
        metrics = {
            "wall_s": wall_s,
            "ok_frac": 1.0 - plain.failed / plain.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"wall_s": "s", "ok_frac": "frac", "setup_s": "s", "peak_rss_mb": "MB"}
    out = {}
    for name, value in metrics.items():
        unit = units.get(name) or _layer_unit(name)
        out[name] = {"value": value, "unit": unit}
        print(f"# {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": plain.wrong + traced.wrong == 0 and deterministic,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": out,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
