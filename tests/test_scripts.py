"""Smoke runs of the experiment scripts at small sizes."""

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
