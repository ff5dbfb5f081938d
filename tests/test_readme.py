"""The library Quickstart of the README runs and prints what it promises."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    section = README.read_text().split("## Quickstart (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert lines[:2] == ["True 11.0", "11.0"]
    assert len(lines) == 3 and lines[2].startswith("True ")
