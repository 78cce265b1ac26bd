"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_code():
    """The first python block under "## Library quick start"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_start_prints_the_violation_and_a_proven_interval():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start_code(), str(README), "exec"), {})
    certificate, interval = (line.split() for line in out.getvalue().splitlines())
    violation, verdict = certificate
    assert abs(float(violation) - 0.5) <= 1e-12
    assert verdict == "True"
    lower, upper = map(float, interval)
    assert lower - 1e-12 <= 7 / 16 <= upper + 1e-12
