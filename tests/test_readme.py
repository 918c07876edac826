"""The README's library example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_and_matches_its_comments():
    code = _library_block()
    namespace: dict = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # A line "expr  # -> value" promises that expr evaluates to value.
    claims = re.findall(r"^(.*?)\s*# -> (.*)$", code, re.M)
    assert claims
    for expr, value in claims:
        assert eval(expr, namespace) == eval(value, namespace), expr
