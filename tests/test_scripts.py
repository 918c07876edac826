"""Smoke runs of the experiment scripts at small sizes, and the benchmark
recorder's aggregation of canned result lines."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, summary", [
    ("period_tightness.py", ["--max-color", "8"], r"^ +8 +1110000 +7 +128 "),
    ("rounds_experiment.py", ["--nodes", "60", "--seeds", "3"], r"^within ceil\(8 ln n\) = \d+: \d+/3$"),
    ("schedule_comparison.py", ["--nodes", "12"], r"^slots worst period: \d+$"),
])
def test_script_runs_and_prints_summary(script, args, summary):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert re.search(summary, run.stdout, re.MULTILINE), run.stdout


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_stdout(wall_s, rss_mb, failed=0):
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}}
    return f"workload churn seed 1 passes 3 + 1 checked\nwall_s {wall_s} s (n=3)\n{json.dumps(result)}\n\n"


def test_bench_record_summarizes_result_lines():
    bench = _bench_record()
    runs = [bench.result_line(_run_stdout(w, r, f))
            for w, r, f in [(4.0, 30.0, 0), (1.0, 31.0, 0), (3.0, 30.0, 2), (2.0, 33.0, 0), (5.0, 30.0, 0)]]
    summary = bench.summarize(runs)
    assert (summary["runs"], summary["attempted"], summary["failed"], summary["correct"]) == (5, 50, 2, False)
    assert summary["metrics"]["wall_s"] == {"unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0,
                                            "values": [4.0, 1.0, 3.0, 2.0, 5.0]}
    assert summary["metrics"]["peak_rss_mb"]["median"] == 30.0
    single = bench.summarize(runs[:1])["metrics"]["wall_s"]
    assert (single["q1"], single["median"], single["q3"]) == (4.0, 4.0, 4.0)


@pytest.mark.parametrize("stdout", ["", "wall_s 1 s (n=3)\n", '{"correct": true}\n'])
def test_bench_record_rejects_output_without_result_line(stdout):
    with pytest.raises(ValueError):
        _bench_record().result_line(stdout)
