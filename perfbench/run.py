"""lurcert benchmark: four closed-loop workloads, one caller thread each.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see README.md for why each exists and what should move it):
``certify_files``, ``family_wide``, ``search_bound``, ``certify_loop``.

Each workload runs in fresh ``worker.py`` processes with BLAS pinned to
one thread and lurcert imported from this checkout's ``src``.  With
``--trace 0`` three processes measure set-up (import plus program set-up
plus one warm-up op; ``setup_s`` is their median) and the last one also
runs the timed loop.  With ``--trace 1`` one process runs every op with
and without span wrappers and reports per-layer self time.  Every op's
output is checked against the benchmark's own reference.  Loop and set-up
times are scaled to reference speed by a calibration kernel (see
``worker.py``); the wall-clock figures are printed beside them.  The last
line of standard output is the JSON result; the lines before it are the
same numbers for people, plus the environment.  Full results and spans go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("certify_files", "family_wide", "search_bound", "certify_loop")
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 150
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-layer metric -> the layer whose self time (or calls) it reports, per traced op
LAYER_TIME_METRICS = {
    "cli.self_ms": "cli",
    "states.parse_ms": "states.parse",
    "states.write_ms": "states.write",
    "states.validate_ms": "states.validate",
    "states.digest_ms": "states.digest",
    "states.family_ms": "states.family",
    "lur.joint_ms": "lur.joint",
    "lur.certify_self_ms": "lur.certify",
    "uncertainty.variance_ms": "uncertainty.variance",
    "linalg.ensure_hermitian_ms": "linalg.ensure_hermitian",
    "bound_search.minimize_ms": "bound_search.minimize",
}
LAYER_CALL_METRICS = {
    "states.validate_calls": "states.validate",
    "states.digest_calls": "states.digest",
    "lur.joint_calls": "lur.joint",
    "lur.certify_calls": "lur.certify",
    "uncertainty.variance_calls": "uncertainty.variance",
}
PER_OP_COUNTS = {
    "states.parse_bytes": "bytes/op",
    "states.digest_bytes": "bytes/op",
    "uncertainty.variance_flops": "flop/op",
    "bound_search.restarts": "count/op",
    "bound_search.converged": "count/op",
    "bound_search.agreeing": "count/op",
}


def _spawn(workload, seed, seconds, role, workdir, spans=None) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--role", role, "--workdir", str(workdir), "--src", str(SRC)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"workload process ({role}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a hash
    of the lurcert sources, so a result names the code it measured."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lurcert").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _end_to_end(setups: list[dict], run: dict) -> tuple[dict, list[str]]:
    lat, wall = run["latency"], run["wall"]
    metrics = {
        "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
        "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
        "latency_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
    lines = [
        "times at reference speed (wall clock in brackets):",
        f"{'setup_s':<18} {metrics['setup_s']['value']:.6g} s  [{setup_wall:.6g} s; "
        f"median of {len(setups)} processes]",
        f"{'ops_per_s':<18} {run['ops_per_s']:.6g} 1/s  [{wall['ops_per_s']:.6g} 1/s]",
        f"{'latency_p50_ms':<18} {lat['p50_ms']:.6g} ms  [{wall['latency']['p50_ms']:.6g} ms]",
    ]
    if "tail" in lat:
        tail = lat["tail"]
        lines.append(f"{'latency_tail_ms':<18} {tail['value_ms']:.6g} ms  [{wall['latency']['tail']['value_ms']:.6g} ms]  "
                     f"(p{tail['percentile']:g}, {tail['beyond']} of {lat['ops']} ops beyond it)")
    else:
        lines.append(f"{'latency_tail_ms':<18} not defined: {lat['ops']} ops leave no percentile "
                     "above p50 with ten samples beyond it")
    lines.append(f"{'failed_ops_ratio':<18} {run['failed'] / run['attempted']:.6g}  "
                 f"({run['failed']} of {run['attempted']} ops)")
    lines.append(f"{'peak_rss_mb':<18} {run['peak_rss_mb']:.6g} MB")
    lines.append(f"calibration kernel: {run['calibrations']} runs, median {1e3 * run['calibration_median_s']:.4g} ms")
    return metrics, lines


def _per_layer(run: dict) -> tuple[dict, list[str]]:
    n = run["traced_ops"]
    layers, counts = run["layers"], run["counts"]
    metrics = {}
    for name, layer in LAYER_TIME_METRICS.items():
        metrics[name] = {"value": 1e3 * layers[layer]["self_s"] / n, "unit": "ms/op"}
    for name, layer in LAYER_CALL_METRICS.items():
        metrics[name] = {"value": layers[layer]["calls"] / n, "unit": "calls/op"}
    for name, unit in PER_OP_COUNTS.items():
        metrics[name] = {"value": counts.get(name, 0) / n, "unit": unit}
    restarts = counts.get("bound_search.restarts", 0)
    minimize_s = layers["bound_search.minimize"]["self_s"]
    metrics["bound_search.ms_per_restart"] = {"value": 1e3 * minimize_s / restarts if restarts else 0.0,
                                              "unit": "ms"}
    metrics["trace.ops_per_s_traced"] = {"value": run["traced_ops_per_s"], "unit": "1/s"}
    metrics["trace.ops_per_s_untraced"] = {"value": run["ops_per_s"], "unit": "1/s"}
    metrics["trace.ops_per_s_ratio"] = {"value": run["traced_ops_per_s"] / run["ops_per_s"], "unit": "ratio"}

    total_s = run["traced_op_s"]
    attributed = sum(entry["self_s"] for entry in layers.values())
    lines = [f"per-layer self time over {n} traced ops ({run['spans']} spans):"]
    for layer, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {layer:<26} {1e3 * entry['self_s'] / n:10.4f} ms/op "
                     f"{100 * entry['self_s'] / total_s:6.2f} %  {entry['calls'] / n:8.3f} calls/op")
    lines.append(f"  {'(not in any span)':<26} {1e3 * (total_s - attributed) / n:10.4f} ms/op "
                 f"{100 * (total_s - attributed) / total_s:6.2f} %")
    lines.append(f"tracing overhead: traced {run['traced_ops_per_s']:.6g} ops/s against untraced "
                 f"{run['ops_per_s']:.6g} ops/s (ratio {metrics['trace.ops_per_s_ratio']['value']:.4f})")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "lurcert" / "__init__.py").is_file():
        sys.exit(f"no lurcert sources at {SRC}; run from a checkout of the repository")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            run = _spawn(args.workload, args.seed, args.seconds, "trace", workdir, spans)
            setups = [run]
            metrics, lines = _per_layer(run)
        else:
            setups = [_spawn(args.workload, args.seed, args.seconds, "setup", workdir)
                      for _ in range(SETUP_PROCESSES - 1)]
            run = _spawn(args.workload, args.seed, args.seconds, "run", workdir)
            setups.append(run)
            metrics, lines = _end_to_end(setups, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {**run["env"], **_source_identity()}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": metrics, "setups": [s["setup_s"] for s in setups],
              "run": {k: v for k, v in run.items() if k != "env"}}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  {run['cycles']} cycles in {run['loop_wall_s']:.2f} s")
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    for error in run["errors"]:
        print(f"failed op: {error}")
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
