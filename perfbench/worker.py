"""One workload process: timed import and set-up, then the timed loop.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path; prints one JSON line with its measurements.  Roles:

- ``setup``: import, input generation, program set-up and the warm-up op;
- ``run``: the same, then closed-loop ops for ``--seconds`` of wall time;
- ``trace``: the same, but every op runs twice, once with the span
  wrappers installed and once without, the order alternating by op, so the
  tracing overhead is measured on the same inputs.

The loop always finishes the cycle it is in, so every run measures whole
cycles of the workload's op mix.

Reference-speed times.  The shared machines this runs on change speed by
up to 1.7x for tens of seconds at a time, as neighbours come and go, which
swamps any code change.  So between ops the loop re-runs a fixed
calibration kernel (a tenth of the op time, at most 30 ms after one
op), and each op's wall time is scaled by the kernel's reference time
(REFERENCE_KERNEL_S) over its median time within CALIBRATION_WINDOW_S of
the op.  Set-up is scaled the same way by kernel
runs made right after it.  The wall-clock figures are reported beside the
scaled ones.
"""

from __future__ import annotations

import argparse
import bisect
from array import array
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_ERRORS_KEPT = 5
CALIBRATION_SHARE = 0.1
CALIBRATION_MAX_OWED_S = 0.03  # caps the kernel runs after one long op
CALIBRATION_WINDOW_S = 0.25
SETUP_CALIBRATIONS = 40
# Each kernel's median time inside the loop on the machine the baseline was
# recorded on (2-vCPU Intel Xeon VM at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6) in its faster phases; they set the scale of reference-speed times.
REFERENCE_KERNEL_S = {"mixed": 1.5e-3, "format": 2.0e-3}


class Calibration:
    """A fixed kernel that uses nothing from lurcert, so a change to lurcert
    cannot move it.  ``mixed`` is interpreter work, small dense linear
    algebra, JSON and float formatting, the mix of the small-state
    workloads; ``format`` is mostly 17-digit float formatting and hashing
    with some medium-size linear algebra, the mix of a D = 144 family row."""

    def __init__(self, kernel: str):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)

        def matrix(d):
            return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))

        self.small = [matrix(d) for d in (4, 9, 16, 36)]
        self.formatted = matrix(24)
        self.medium = matrix(64)
        self.rows = [[[float(x), float(x) / 3] for x in rng.standard_normal(12)] for _ in range(12)]
        self.kernel = {"mixed": self._mixed, "format": self._format}[kernel]
        self.reference_s = REFERENCE_KERNEL_S[kernel]
        # typed arrays, so the benchmark's own memory barely grows with the op count
        self.starts = array("d")
        self.times = array("d")

    def _mixed(self):
        np = self.np
        acc = 0
        for i in range(2000):
            acc += (i * 31) % 7
        for m in self.small:
            h = m + m.conj().T
            np.linalg.eigvalsh(h)
            acc += int(np.trace(h @ h).real)
        text = json.dumps({"rows": self.rows})
        json.loads(text)
        acc += len(",".join(f"{z.real:.17g}" for z in self.small[2].ravel()))
        return acc

    def _format(self):
        np = self.np
        text = ",".join(f"[{z.real:.17g},{z.imag:.17g}]" for z in self.formatted.ravel())
        acc = len(hashlib.sha256(text.encode()).hexdigest())
        h = self.medium + self.medium.conj().T
        np.linalg.eigvalsh(h)
        return acc + int(np.trace(h @ h @ h).real)

    def run(self) -> float:
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.starts.append(start)
        self.times.append(elapsed)
        return elapsed

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds per wall second around [start, end]."""
        lo = bisect.bisect_left(self.starts, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + CALIBRATION_WINDOW_S)
        return self.reference_s / statistics.median(self.times[lo:hi] or self.times)


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "seed": seed,
    }


def _latency_summary(latencies) -> dict:
    """Median and the highest of p99.9/p99/p95/p90 with ten samples beyond it."""
    import numpy as np

    lat = np.sort(np.asarray(latencies))
    n = len(lat)
    summary = {"ops": n, "p50_ms": 1e3 * float(lat[(n - 1) // 2] + lat[n // 2]) / 2}
    for pct in (99.9, 99.0, 95.0, 90.0):
        beyond = int(n * (100.0 - pct) / 100.0 + 1e-9)
        if beyond >= 10:
            summary["tail"] = {"percentile": pct, "value_ms": 1e3 * float(lat[n - beyond - 1]), "beyond": beyond}
            break
    return summary


class Loop:
    def __init__(self, workload, corrupt: bool):
        self.workload = workload
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, op):
        """Run one op; returns (start, seconds, output, exception or None)."""
        start = time.perf_counter()
        try:
            out = self.workload.run(op)
        except Exception as exc:  # an op that raises is a failed op
            return start, time.perf_counter() - start, None, exc
        return start, time.perf_counter() - start, out, None

    def check(self, op, out, exc):
        if exc is not None:
            problem = f"{type(exc).__name__}: {exc}"
        else:
            try:
                if self.corrupt:
                    out = self.workload.corrupt(op, out)
                problem = self.workload.check(op, out)
            except Exception as err:  # output the check cannot even parse
                problem = f"check raised {type(err).__name__}: {err}"
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(problem)

    def execute(self, op) -> tuple[float, float]:
        """Run one op and check its output; returns (start, seconds)."""
        start, elapsed, out, exc = self.run(op)
        self.check(op, out, exc)
        return start, elapsed


def _cycle_ops_per_s(times, cycle_starts) -> float:
    """Ops per second of the median cycle.  A cycle has the workload's fixed
    op mix, so its time weighs every kind of op; the median over cycles
    ignores the rare cycles in which the machine stalled the process."""
    bounds = list(cycle_starts) + [len(times)]
    per_cycle = [(hi - lo) / sum(times[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return statistics.median(per_cycle)


def _timed_loop(workload, loop, seconds, max_cycles, calibration):
    starts, wall = array("d"), array("d")
    cycle_starts = []
    owed = 0.0
    cycle = 1
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds and (max_cycles is None or cycle <= max_cycles):
        cycle_starts.append(len(wall))
        for op in workload.cycle_ops(cycle):
            start, elapsed = loop.execute(op)
            starts.append(start)
            wall.append(elapsed)
            owed = min(owed + CALIBRATION_SHARE * elapsed, CALIBRATION_MAX_OWED_S)
            while owed > 0:
                owed -= calibration.run()
        cycle += 1
    loop_wall_s = time.perf_counter() - loop_start
    scaled = array("d", (w * calibration.scale(s, s + w) for s, w in zip(starts, wall)))
    return {
        "loop_wall_s": loop_wall_s,
        "cycles": cycle - 1,
        "ops_per_s": _cycle_ops_per_s(scaled, cycle_starts),
        "latency": _latency_summary(scaled),
        "wall": {"ops_per_s": _cycle_ops_per_s(wall, cycle_starts), "latency": _latency_summary(wall)},
        "calibrations": len(calibration.times),
        "calibration_median_s": statistics.median(calibration.times),
    }


def _traced_loop(workload, loop, seconds, max_cycles, spans_path):
    from tracing import Tracer

    tracer = Tracer()
    tracer.prepare()
    plain, traced = [], []
    cycle = 1
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds and (max_cycles is None or cycle <= max_cycles):
        for op in workload.cycle_ops(cycle):
            index = len(traced)
            for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
                if not traced_turn:
                    plain.append(loop.execute(op)[1])
                    continue
                tracer.install(index)
                try:
                    _, elapsed, out, exc = loop.run(op)
                finally:
                    tracer.remove()
                traced.append(elapsed)
                loop.check(op, out, exc)
        cycle += 1
    if spans_path is not None:
        tracer.write(spans_path)
    return {
        "loop_wall_s": time.perf_counter() - loop_start,
        "cycles": cycle - 1,
        "ops_per_s": len(plain) / sum(plain),
        "traced_ops": len(traced),
        "traced_op_s": sum(traced),
        "traced_ops_per_s": len(traced) / sum(traced),
        "layers": tracer.layer_totals(),
        "counts": tracer.counts,
        "spans": len(tracer.spans),
    }


def measure(name, seed, seconds, role, workdir: Path, corrupt=False, spans_path=None, max_cycles=None):
    """Run one workload in this process; returns the measurement dict.

    In a fresh process nothing has imported lurcert or numpy yet, so the
    import time includes numpy as a user pays it.  The benchmark's own
    modules, which import numpy too, load only after it is timed."""
    t0 = time.perf_counter()
    import lurcert  # noqa: F401
    import lurcert.cli  # noqa: F401

    import_s = time.perf_counter() - t0

    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    loop = Loop(workload, corrupt)
    warm_op = workload.cycle_ops(0)[0]
    t1 = time.perf_counter()
    workload.program_setup()
    loop.execute(warm_op)
    setup_wall_s = import_s + time.perf_counter() - t1
    calibration = Calibration(workload.calibration_kernel)
    for _ in range(SETUP_CALIBRATIONS):
        calibration.run()
    result = {
        "role": role,
        "import_s": import_s,
        "setup_wall_s": setup_wall_s,
        "setup_s": setup_wall_s * calibration.reference_s / statistics.median(calibration.times),
    }
    if role == "run":
        result.update(_timed_loop(workload, loop, seconds, max_cycles, calibration))
    elif role == "trace":
        result.update(_traced_loop(workload, loop, seconds, max_cycles, spans_path))
    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True, help="the src directory lurcert must come from")
    parser.add_argument("--spans", help="write the trace's spans here as JSON lines")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    result = measure(args.workload, args.seed, args.seconds, args.role, workdir, spans_path=args.spans)
    import lurcert

    origin = Path(lurcert.__file__).resolve()
    if Path(args.src).resolve() not in origin.parents:
        sys.exit(f"lurcert was imported from {origin}, not from {args.src}")
    result["env"] = _environment(args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
