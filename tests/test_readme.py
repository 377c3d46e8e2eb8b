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
    # Per root its s, c and residual; then each root's verdict, the run's
    # and the norms'.
    assert lines[-2:] == ["pass", "pass"]
    count = int(lines[0].split()[0])
    assert count >= 1 and len(lines) == 1 + count + 3
    assert lines[-3] == repr([True] * count)
