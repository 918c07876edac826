"""fairgather benchmark: one workload, one seed, one result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload periodic --seed 1 --seconds 30 --trace 0

The workload's graph and event text are generated from --seed (see gen.py
and BENCHMARK.json for why each workload exists). The run parses them
several times (setup_s), then repeats timed passes over the library and
its CLI until --seconds have gone by, and ends with one more pass that is
checked in full from outside the library and is not timed. Every pass must
produce the same outputs, which a digest compares. peak_rss_mb is the
process's high-water mark before the checked pass: the library's work plus
the benchmark's own inputs (graph text, adjacency, parsed graphs).

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports per-layer
metrics from the spans recorded around each call into a module, plus
trace.overhead_s (traced minus untraced median wall_s); spans are written
to perfbench/_work/ when the run ends. verify.report.busy_s includes the
happy_set calls that report makes itself, which schedulers.happy_set.*
does not count.

Every metric is printed as a line "name value unit (n=samples)"; the last
line of stdout is a JSON object {correct, attempted, failed, metrics}.
The exit code is 0 when every check passed, 1 when one failed and 2 when
the library cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import Checker
from spans import Recorder

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("holidays_per_s", "1/s"),
    ("holiday_ms_mean", "ms"),
    ("holiday_ms_p90", "ms"),
    ("cli_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed but not in the result line. On periodic, holiday_ms_p50 falls
# between the even-holiday and odd-holiday latency modes and flips between
# them from run to run; holiday_ms_p99 moved by more than 25% between runs
# on a shared 2-core VM; events exist only on churn; failed_frac is 0 on a
# correct run.
EXTRA = [
    ("holiday_ms_p50", "ms"),
    ("holiday_ms_p99", "ms"),
    ("events_per_s", "1/s"),
    ("event_ms_p50", "ms"),
    ("event_ms_p99", "ms"),
    ("failed_frac", "ratio"),
]
PER_LAYER = [
    ("graph.from_edge_list.busy_s", "s"),
    ("graph.gnp_random_graph.busy_s", "s"),
    ("coloring.greedy_color.busy_s", "s"),
    ("coloring.local_random_color.busy_s", "s"),
    ("coloring.rounds", "count"),
    ("coloring.messages", "count"),
    ("coloring.max_color", "count"),
    ("schedulers.happy_set.busy_s", "s"),
    ("schedulers.happy_set.calls", "count"),
    ("schedulers.happy_set.nodes_out", "count"),
    ("schedulers.happy_set.yield", "ratio"),
    ("schedulers.phased_greedy.busy_s", "s"),
    ("schedulers.elias_schedule.busy_s", "s"),
    ("schedulers.degree_slots_sequential.busy_s", "s"),
    ("schedulers.degree_slots_distributed.busy_s", "s"),
    ("schedulers.degree_slots_distributed.rounds", "count"),
    ("schedulers.degree_slots_distributed.messages", "count"),
    ("schedulers.dynamic_insert.busy_s", "s"),
    ("schedulers.dynamic_remove.busy_s", "s"),
    ("schedulers.dynamic.recolorings", "count"),
    ("schedulers.dynamic.period_changes", "count"),
    ("verify.report_from_happy_sets.busy_s", "s"),
    ("verify.report.busy_s", "s"),
    ("verify.check_gap_bounds.busy_s", "s"),
    ("verify.cells", "count"),
    ("verify.violations", "count"),
    ("satisfaction.max_satisfaction_with_stats.busy_s", "s"),
    ("satisfaction.peel_ops", "count"),
    ("satisfaction.residual_anomalies", "count"),
    ("cli.gen.busy_s", "s"),
    ("cli.schedule.busy_s", "s"),
    ("cli.verify.busy_s", "s"),
    ("cli.dynamic.busy_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("trace.overhead_s", "s"),
]

SETUP_REPS = 3  # parses before the first pass and after every pass
MIN_PASSES = 3  # timed passes, whatever --seconds says; 2 of each kind when traced


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _median_per_root(roots: list[int], table: dict) -> dict[str, float]:
    names = {name for root in roots for name in table.get(root, {})}
    return {name: statistics.median(table.get(root, {}).get(name, 0.0) for root in roots)
            for name in names}


def measure(wl, seconds: float, trace: bool) -> dict:
    rec = Recorder()
    setup_s: list[float] = []

    def set_up() -> None:
        # Parsing is sampled after every pass, not only at the start, so that
        # setup_s sees the same drift in machine speed as the passes do.
        rec.enabled = trace
        for _ in range(SETUP_REPS):
            with rec.span("setup"):
                a = perf_counter()
                wl.setup(rec)
                setup_s.append(perf_counter() - a)
        rec.enabled = False

    set_up()
    work = WORK / f"{wl.name}-{wl.seed}-{id(wl):x}"
    work.mkdir(parents=True, exist_ok=True)
    runs = {False: [], True: []}
    pass_roots: list[int] = []
    attempted = failed = 0
    messages: list[str] = []
    digest = None
    peak_rss_mb = 0.0

    def one_pass(full: bool, traced: bool):
        """Run a pass and count its operations, failed checks and digest."""
        nonlocal attempted, failed, digest
        chk = Checker(full=full)
        # Collected between passes so that no pass pays for the garbage of
        # the one before; the collector stays on within a pass, as it is for
        # a user of the library.
        gc.collect()
        rec.enabled = traced
        try:
            with rec.span("pass"):
                p = wl.run_pass(rec, chk, work)
        except Exception:
            failed += 1
            messages.append(traceback.format_exc(limit=3))
            return None
        finally:
            rec.enabled = False
        attempted += p.ops
        failed += chk.failed
        messages.extend(chk.messages)
        if digest is None:
            digest = chk.digest()
        elif chk.digest() != digest:
            failed += 1
            messages.append(f"{'checked' if full else 'timed'} pass outputs differ from the first pass")
        return p

    start = perf_counter()
    try:
        for k in range(10_000):
            traced = trace and k % 2 == 1
            began = perf_counter()
            p = one_pass(full=False, traced=traced)
            if p is None or failed:
                break
            runs[traced].append(p)
            if traced:
                pass_roots.append(rec.roots("pass")[-1])
            set_up()
            enough = (min(map(len, runs.values())) >= MIN_PASSES - 1 if trace
                      else len(runs[False]) >= MIN_PASSES)
            now = perf_counter()
            # Leave room for one more timed pass and the checked pass.
            if enough and now - start + 2 * (now - began) > seconds:
                break
        # Read before the checked pass, whose own structures would otherwise
        # set the high-water mark.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not failed:
            one_pass(full=True, traced=False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = runs[False]
    hol = [x for p in plain for x in p.holiday_lat]
    ev = [x for p in plain for x in p.event_lat]
    values: dict[str, tuple[float, int]] = {}  # name -> (value, samples)
    if plain:
        values.update({
            "setup_s": (statistics.median(setup_s), len(setup_s)),
            "wall_s": (statistics.median(p.wall_s for p in plain), len(plain)),
            "holidays_per_s": (statistics.median(p.holidays / p.holiday_work_s for p in plain), len(plain)),
            "holiday_ms_mean": (statistics.fmean(hol) * 1e3, len(hol)),
            "holiday_ms_p50": (statistics.median(hol) * 1e3, len(hol)),
            "holiday_ms_p90": (percentile(hol, 90) * 1e3, len(hol)),
            "holiday_ms_p99": (percentile(hol, 99) * 1e3, len(hol)),
            "cli_s": (statistics.median(p.cli_s for p in plain), len(plain)),
            "peak_rss_mb": (peak_rss_mb, 1),
        })
    if ev:
        values.update({
            "events_per_s": (statistics.median(len(p.event_lat) / sum(p.event_lat) for p in plain), len(plain)),
            "event_ms_p50": (statistics.median(ev) * 1e3, len(ev)),
            "event_ms_p99": (percentile(ev, 99) * 1e3, len(ev)),
        })
    values["failed_frac"] = (failed / max(attempted, 1), attempted)

    if trace and runs[True] and plain:
        self_times = rec.self_times()
        layer = {f"{name}.busy_s": v for name, v in _median_per_root(pass_roots, self_times).items()}
        layer["graph.from_edge_list.busy_s"] = statistics.median(
            self_times[r]["graph.from_edge_list"] for r in rec.roots("setup"))
        layer.update(_median_per_root(pass_roots, rec.counters))
        calls = layer.get("schedulers.happy_set.calls", 0)
        layer["schedulers.happy_set.yield"] = (
            layer.get("schedulers.happy_set.nodes_out", 0) / (calls * wl.n) if calls else 0.0)
        layer["trace.overhead_s"] = (statistics.median(p.wall_s for p in runs[True])
                                     - values["wall_s"][0])
        for name, _ in PER_LAYER:
            values[name] = (layer.get(name, 0.0), len(runs[True]))
        rec.write(WORK / f"spans-{wl.name}-{wl.seed}.jsonl")

    reported = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and all(name in values for name, _ in reported)
    return {
        "lines": [f"{name} {values[name][0]:.6g} {unit} (n={values[name][1]})"
                  for name, unit in END_TO_END + EXTRA + (PER_LAYER if trace else []) if name in values],
        "messages": messages,
        "passes": {"untraced": len(plain), "traced": len(runs[True])},
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name][0], "unit": unit}
                        for name, unit in reported if name in values},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = HERE.parent / "src"
    if not (src / "fairgather" / "__init__.py").is_file():
        print(f"perfbench: no fairgather package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    wl = WORKLOADS[args.workload](args.seed)
    out = measure(wl, args.seconds, bool(args.trace))
    print(f"workload {wl.name} seed {wl.seed} passes {out['passes']} + 1 checked")
    for msg in out["messages"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
