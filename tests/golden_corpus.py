"""Replay the golden corpus, ``tests/golden/commands.txt``, through
``lurcert.cli.main`` and compare or rewrite ``tests/golden/manifest.json``.

Each line runs in process, in order, in one fresh directory that holds
copies of ``tests/golden/inputs`` (as ``inputs/``) and ``tests/data`` (as
``data/``), with ``COLUMNS=80`` so that help and usage lines wrap alike in
every terminal, and with ``LURCERT_VALIDATION_TOL`` unset.  Its record is
the exit code, the SHA-256 of stdout and of stderr, the SHA-256 of each
file whose bytes it created or changed, the number of Python warnings it raised, and,
for ``certify``, its verdict.

Bytes come from numpy and BLAS, and help and usage text from the Python
version's argparse, so the manifest also records the platform it was made
on (``platform_key``).  Rewrite it, after a change that is meant to move
an output, with

    PYTHONPATH=src python tests/golden_corpus.py --regen

and say in CHANGES.md which lines moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from lurcert import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
COMMANDS = GOLDEN / "commands.txt"
MANIFEST = GOLDEN / "manifest.json"


def platform_key() -> dict:
    """What the recorded bytes depend on besides the program."""
    return {
        "python": platform.python_version_tuple()[0] + "." + platform.python_version_tuple()[1],
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def command_lines() -> list[str]:
    lines = COMMANDS.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: Path) -> dict:
    return {
        str(path.relative_to(root)): _sha256(path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _verdict(argv: list[str], stdout: str) -> str | None:
    if not argv or argv[0] != "certify":
        return None
    for line in stdout.splitlines():
        if line.startswith("verdict: "):
            return line[len("verdict: "):]
    return None


def _run(argv: list[str]) -> tuple[int, str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue(), len(caught)


def replay() -> list[dict]:
    """One record per corpus line, in order."""
    records = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        os.environ.pop("LURCERT_VALIDATION_TOL", None)
        root = Path(tmp)
        shutil.copytree(GOLDEN / "inputs", root / "inputs")
        shutil.copytree(HERE / "data", root / "data")
        os.chdir(root)
        try:
            before = _snapshot(root)
            for line in command_lines():
                argv = shlex.split(line)[1:]
                code, stdout, stderr, warned = _run(argv)
                after = _snapshot(root)
                written = {name: digest for name, digest in after.items() if before.get(name) != digest}
                before = after
                records.append({
                    "command": line,
                    "exit": code,
                    "verdict": _verdict(argv, stdout),
                    "stdout": _sha256(stdout.encode("utf-8")),
                    "stderr": _sha256(stderr.encode("utf-8")),
                    "files": written,
                    "warnings": warned,
                })
        finally:
            os.chdir(cwd)
    return records


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--regen", action="store_true", help="rewrite the manifest from this checkout")
    args = parser.parse_args(argv)
    records = replay()
    if args.regen:
        doc = {"platform": platform_key(), "commands": records}
        MANIFEST.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(records)} records to {MANIFEST}")
        return 0
    expected = load_manifest()["commands"]
    moved = [new["command"] for old, new in zip(expected, records) if old != new]
    if len(expected) != len(records):
        moved.append(f"{len(expected)} records in the manifest, {len(records)} lines in the corpus")
    print("\n".join(moved) if moved else f"all {len(records)} records match")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
