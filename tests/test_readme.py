"""The README's library example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # Per root its s, c and residual, then its verdict; then the run's and
    # the norms' verdicts.
    assert lines[-2:] == ["pass", "pass"]
    assert lines[2:-2:2] and all(line == "True" for line in lines[2:-2:2])
