"""Record the benchmark's end-to-end medians in BENCH_<N>.json.

    python3 tools/bench_record.py N

Runs `perfbench/run.py --trace 0 --seconds <run_seconds>` once per workload
listed in BENCHMARK.json and per seed 0-4, one run at a time, from the root
of this checkout; the run length is BENCHMARK.json's `run_seconds`, so every
bench file is taken on the same seeds and run length. The output file holds,
per workload, the median over the seeds of each end-to-end metric with
every run's value, and the failed and attempted op counts; the git sha, core
count, Python and numpy versions and `src/torsolve` line count come from
run.py's `# meta` line. Run it on a committed tree: the sha is the
checkout's HEAD, and uncommitted edits under `src/` are measured but not
named by it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
META_KEYS = ("git_sha", "nproc", "python", "numpy", "src_lines")
SEEDS = (0, 1, 2, 3, 4)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(meta, result) of one run.py run: its `# meta` object and its last line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    meta = next(json.loads(line[len("# meta "):]) for line in lines if line.startswith("# meta "))
    return meta, json.loads(lines[-1])


def record() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [m["name"] for m in bench["end_to_end"]]
    metas, workloads = [], {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            meta, result = run_once(workload, seed, seconds)
            metas.append(meta)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n} {result['metrics'][n]['value']:.4g}" for n in names), file=sys.stderr)
        workloads[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": {n: {"median": statistics.median(r["metrics"][n]["value"] for r in runs),
                            "unit": runs[0]["metrics"][n]["unit"],
                            "runs": [r["metrics"][n]["value"] for r in runs]} for n in names},
        }
    meta = {key: metas[0][key] for key in META_KEYS}
    if any({key: m[key] for key in META_KEYS} != meta for m in metas):
        raise SystemExit("error: the runs disagree on their meta data")
    return {**meta, "seeds": list(SEEDS), "seconds": seconds, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="N of the BENCH_<N>.json to write")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record(), indent=2) + "\n")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
