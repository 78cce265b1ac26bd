"""Smoke test of the benchmark itself.

Runs one cycle of every workload in this process.  A traced pass must
check clean and record spans in the layers the workload calls; a pass in
which every output is corrupted before its check (a perturbed total, row,
minimum or state file) must count every op as failed, which proves the
checks can fail.  Takes about half a minute; exits 1 on any mismatch.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from worker import measure  # noqa: E402

# layers each workload must reach, as a check that the wrappers are installed
EXPECTED_LAYERS = {
    "certify_files": ("cli", "states.parse", "states.write", "states.digest", "lur.joint", "uncertainty.variance"),
    "family_wide": ("cli", "states.family", "states.validate", "states.digest", "uncertainty.variance"),
    "search_bound": ("cli", "states.write", "bound_search.minimize"),
    "certify_loop": ("states.validate", "states.family", "lur.certify", "linalg.ensure_hermitian"),
}


def main() -> int:
    problems = []
    workdir = ROOT / ".perfbench_out" / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name, layers in EXPECTED_LAYERS.items():
            clean = measure(name, 7, 600, "trace", workdir, max_cycles=1)
            if clean["failed"] or clean["attempted"] < 2:
                problems.append(f"{name}: {clean['failed']} of {clean['attempted']} clean ops failed: {clean['errors']}")
            missing = [layer for layer in layers if clean["layers"][layer]["calls"] == 0]
            if missing:
                problems.append(f"{name}: no spans in {missing}")
            bad = measure(name, 7, 600, "run", workdir, corrupt=True, max_cycles=1)
            if bad["failed"] != bad["attempted"]:
                problems.append(f"{name}: only {bad['failed']} of {bad['attempted']} corrupted ops failed")
            print(f"{name}: clean {clean['attempted'] - clean['failed']}/{clean['attempted']} passed, "
                  f"corrupted {bad['failed']}/{bad['attempted']} failed", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
