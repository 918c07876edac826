"""The README's examples run as written: the library example prints what it
says, and the CLI commands all exit 0."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _block(heading: str, lang: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_matches_its_comments():
    code = _block("Library", "python")
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # A line "expr  # -> value" promises that expr evaluates to value.
    claims = re.findall(r"^(.*?)\s*# -> (.*)$", code, re.M)
    assert claims
    for expr, value in claims:
        assert eval(expr, namespace) == eval(value, namespace), expr


def test_cli_example_runs_as_written(tmp_path):
    (tmp_path / "e.txt").write_text("1 + 100 101\n")
    # `fairgather` is the package's console script; run the module instead,
    # so the example works from a source checkout too.
    script = 'fairgather() { "$PYTHON" -m fairgather.cli "$@"; }\n' + _block("CLI", "sh")
    env = {k: v for k, v in os.environ.items() if k != "FAIRGATHER_SEED"}
    env.update(PYTHON=sys.executable, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "# independence=ok\n" in proc.stdout
    assert (tmp_path / "out.csv").read_text().startswith("holiday,happy\n1,")
