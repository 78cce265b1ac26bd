"""The names that the benchmark's tracer wraps exist in lurcert.

``perfbench/tracing.py`` looks each traced function up by module and name
and fails on a rename or a deletion; this test sees such a break without
running the benchmark.  The tracer file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_lurcert_callable():
    traced = load_tracing().TRACED
    missing = [
        (module, name)
        for module, name in traced
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert traced and not missing
    # validation is traced through DensityMatrix.__post_init__
    assert callable(importlib.import_module("lurcert.states").DensityMatrix.__post_init__)
