"""The README's code snippets run and give what they promise."""
import contextlib
import io
import re
import textwrap
from pathlib import Path

from tricho import emit, parse_scenario, run

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def snippet(heading: str) -> str:
    """The first Python block of the README section under ``heading``."""
    section = README.read_text().split(heading, 1)[1].split("\n## ", 1)[0]
    return textwrap.dedent(re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1))


def test_readme_quickstart_runs():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(snippet("## Quickstart (library)"), str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert lines[:2] == ["True 11.0", "11.0"]
    assert len(lines) == 3 and lines[2].startswith("True ")


def test_readme_records_reader_reads_every_factor_of_its_column(tmp_path, monkeypatch):
    report = run(parse_scenario(ROOT / "scenarios" / "nonuniform_example.json"))
    emit(report, "csv", tmp_path / "report")
    monkeypatch.chdir(tmp_path)
    names = {}
    exec(compile(snippet("## Reports"), str(README), "exec"), names)
    rows = next(rows for e in report.checks for check, rows in e["rows"]
                if check == "trichotomy")
    assert names["factor"] == {
        (repr(rows.grid[t]), repr(rows.grid[s])): value
        for t, s, value in zip(rows.t, rows.s, rows.value[:, 0].tolist())}
