"""The README's library quick start runs and prints what its comments say,
and its state digest recipe gives the library's digest."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from lurcert.spin_ops import SpinQuantum
from lurcert.states import read_state, singlet_state, write_state, x_decoherence_mixture

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block(heading):
    """The first python block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(heading):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_start_prints_the_violation_and_a_proven_interval():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(first_python_block("## Library quick start"), str(README), "exec"), {})
    certificate, interval = (line.split() for line in out.getvalue().splitlines())
    violation, verdict = certificate
    assert abs(float(violation) - 0.5) <= 1e-12
    assert verdict == "True"
    lower, upper = map(float, interval)
    assert lower - 1e-12 <= 7 / 16 <= upper + 1e-12


def test_digest_recipe_gives_the_library_digest(tmp_path, monkeypatch):
    recipe = first_python_block("**State digest.**")
    assert len(recipe.splitlines()) <= 5
    monkeypatch.chdir(tmp_path)
    for state in (singlet_state(SpinQuantum(1)), x_decoherence_mixture(0.3)):
        write_state(state, "state.json")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(recipe, str(README), "exec"), {"json": json, "np": np, "hashlib": hashlib})
        assert out.getvalue() == read_state("state.json").digest + "\n" == state.digest + "\n"
