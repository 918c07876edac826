#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in BENCH_<label>.json.

Runs a checkout's own perfbench/run.py once per workload and seed, reads the
JSON result line each run prints last, and writes, per workload, every
metric's median, quartiles and per-seed values, with the seeds, the run
length, the Python version and the checkout's git commit. The seeds and the
run length (BENCHMARK.json's run_seconds) are fixed, so that every record
compares with every other:

    python3 scripts/bench_record.py --label after
    python3 scripts/bench_record.py --label before --checkout ../parent

The file goes to the root of this script's repository. Runs happen one
at a time, seed by seed, so that a drift in machine speed spreads over every
workload instead of landing on one.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = [501, 502, 503, 504, 505]


def result_line(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's stdout."""
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ValueError(f"last line is not a JSON result: {lines[-1][:80]!r}") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError(f"last line has no metrics: {lines[-1][:80]!r}")
    return result


def summarize(results: list[dict]) -> dict:
    """Operation counts and per-metric median and quartiles over runs' results."""
    metrics = {}
    names = sorted({name for r in results for name in r["metrics"]})
    for name in names:
        found = [r["metrics"][name] for r in results if name in r["metrics"]]
        values = [m["value"] for m in found]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        metrics[name] = {"unit": found[0]["unit"], "median": median, "q1": q1, "q3": q3,
                         "values": values}
    return {
        "runs": len(results),
        "attempted": sum(r.get("attempted", 0) for r in results),
        "failed": sum(r.get("failed", 0) for r in results),
        "correct": all(r.get("correct", False) for r in results),
        "metrics": metrics,
    }


def _git(checkout: Path, *args: str) -> str:
    run = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else ""


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository whose perfbench/run.py and src/ are measured")
    args = parser.parse_args(argv)

    run_py = args.checkout.resolve() / "perfbench" / "run.py"
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            cmd = [sys.executable, str(run_py), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            run = subprocess.run(cmd, cwd=args.checkout, capture_output=True, text=True)
            try:
                results[w].append(result_line(run.stdout))
            except ValueError as exc:
                print(f"bench_record: {w} seed {seed} (exit {run.returncode}): {exc}\n{run.stderr}",
                      file=sys.stderr)
                return 1
            print(f"{w} seed {seed}: exit {run.returncode}", file=sys.stderr)

    record = {
        "label": args.label,
        "git_sha": _git(args.checkout, "rev-parse", "HEAD"),
        "git_dirty": bool(_git(args.checkout, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": SEEDS,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds N --trace 0",
        "workloads": {w: summarize(rs) for w, rs in results.items()},
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0 if all(s["correct"] for s in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
