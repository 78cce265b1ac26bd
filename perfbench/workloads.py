"""The four workloads: seeded inputs, the timed op, and the output check.

A workload hands out its ops in cycles of fixed composition, so every run
measures the same mix whatever the seed; the seed picks the inputs.
Cycle 0 holds the warm-up op and does not depend on the seed; the timed
loop starts at cycle 1.  ``run``
is the only timed call.  ``check`` compares the op's output with the
benchmark's own reference (``reference.py``) and returns a message on a
mismatch.  ``corrupt`` perturbs an output so the smoke test can prove that
``check`` rejects it.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import lurcert
import lurcert.cli
import lurcert.lur
import lurcert.states

import reference as ref

TOL = 1e-9
VERDICT_MARGIN = 1e-9  # lurcert's documented verdict margin


@dataclasses.dataclass
class Op:
    kind: str
    args: tuple
    expect: dict


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lurcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _line_value(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"no line starting with {prefix!r}")


def _with_line_value(stdout: str, prefix: str, value: str) -> str:
    lines = stdout.splitlines()
    index = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[index] = f"{prefix} {value}"
    return "\n".join(lines) + "\n"


def _close(got: float, want: float, tol: float = TOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * max(1.0, abs(want))


def _check_certificate(cert: dict, ref_total: list[float], limit: float, product: bool,
                       closed_form: float | None) -> str | None:
    """Certificate fields against the reference variances Tr(rho J^2) - Tr(rho J)^2."""
    comps = cert["per_component"]
    if len(comps) != len(ref_total) or not all(_close(g, w) for g, w in zip(comps, ref_total)):
        return f"per-component {comps} != reference {ref_total}"
    total = sum(ref_total)
    if not _close(cert["total"], total):
        return f"total {cert['total']!r} != reference {total!r}"
    if abs(cert["local_limit"] - limit) > 1e-12:
        return f"local limit {cert['local_limit']!r} != {limit!r}"
    c = 1.0 - total / limit
    if not _close(cert["relative_violation"], c):
        return f"C {cert['relative_violation']!r} != reference {c!r}"
    if closed_form is not None and not _close(cert["relative_violation"], closed_form):
        return f"C {cert['relative_violation']!r} != closed form {closed_form!r}"
    if product and cert["verdict"]:
        return "ENTANGLED verdict on a product state"
    threshold = limit - VERDICT_MARGIN
    if abs(total - threshold) > 1e-7 and cert["verdict"] != (total < threshold):
        return f"verdict {cert['verdict']} but reference total {total!r} vs limit {limit!r}"
    return None


class Workload:
    cycle_salt = 0
    calibration_kernel = "mixed"  # see worker.Calibration

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def program_setup(self) -> None:
        """Program work done once before the first op (timed as set-up)."""

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.cycle_salt, *key])

    def cycle_rng(self, cycle: int) -> np.random.Generator:
        """Inputs of one cycle.  Cycle 0, which holds the warm-up op, does not
        depend on the seed, so set-up does the same work in every run."""
        return self.rng(1, cycle) if cycle else np.random.default_rng([self.cycle_salt, 1, 0])

    def cycle_ops(self, cycle: int) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def corrupt(self, op: Op, out):
        raise NotImplementedError


# --- certify_files -----------------------------------------------------------

FILE_DIMS = ((2, 2), (3, 3), (2, 3), (4, 4))
CATALOG_FOR_DIMS = {
    (2, 2): ("l3", "s3", "l2n2", "s2n2"),
    (3, 3): ("l3", "s3", "l2n3", "s2n3"),
    (2, 3): ("l3", "s3"),
    (4, 4): ("l3", "s3"),
}
FILES_PER_DIMS = 16


class CertifyFiles(Workload):
    """In-process CLI ``certify`` on state files, one op in five a ``state-gen``."""

    cycle_salt = 1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng(0)
        self.files = []  # (path, dims, matrix, product)
        for dims in FILE_DIMS:
            for k in range(FILES_PER_DIMS):
                if k < 8:
                    matrix, product = ref.random_product(*dims, rng, pure=bool(k % 2)), True
                elif k < 12:
                    matrix, product = ref.random_mixed(dims[0] * dims[1], rng), False
                elif dims[0] == dims[1]:
                    matrix, product = ref.white_noise(dims[0], rng.uniform(0.0, 0.6)), False
                else:
                    matrix, product = ref.random_pure(dims[0] * dims[1], rng), False
                path = workdir / f"state-{dims[0]}x{dims[1]}-{k}.json"
                ref.write_state_file(path, matrix, dims)
                # the file holds exactly these doubles
                self.files.append((str(path), dims, ref.read_state_file(path)[1], product))
        self.bound_files = {}
        for dim, bound in ((2, Fraction(1, 4)), (3, Fraction(7, 16))):
            ops = ref.spin_matrices(dim - 1)[:2]
            path = workdir / f"bound-xy-{dim}.json"
            ref.write_bound_file(path, f"L{{x,y}} dim {dim}", ops, bound)
            self.bound_files[dim] = (str(path), ref.joint_operators(ops, ops), float(2 * bound))
        self.cert_path = str(workdir / "cert.json")
        self.gen_paths = [str(workdir / f"gen-{k}.json") for k in range(4)]

    def cycle_ops(self, cycle):
        rng = self.cycle_rng(cycle)
        ops = [self._state_gen(rng, k) for k in range(8)]
        for k in range(32):
            if k < 4:
                candidates = [f for f in self.files if f[1] in ((2, 2), (3, 3))]
                path, dims, matrix, product = candidates[rng.integers(len(candidates))]
                bound_path, joint, limit = self.bound_files[dims[0]]
                relation = bound_path
            else:
                path, dims, matrix, product = self.files[rng.integers(len(self.files))]
                relation = str(rng.choice(CATALOG_FOR_DIMS[dims]))
                joint, limit = ref.catalog_joint(relation, *dims)
            argv = ["certify", "--state", path, "--relation", relation, "--json", self.cert_path]
            expect = {"matrix": matrix, "joint": joint, "limit": limit, "product": product}
            ops.append(Op("certify", tuple(argv), expect))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def _state_gen(self, rng, k):
        out = self.gen_paths[k % len(self.gen_paths)]
        kind = ("white", "bell", "xdecoherence", "singlet", "minuncert3")[rng.integers(5)]
        if kind == "white":
            two_l, p = int(rng.integers(1, 4)), float(rng.uniform())
            args, dims, matrix = ["--two-l", str(two_l), "--p", repr(p)], [two_l + 1] * 2, ref.white_noise(two_l + 1, p)
        elif kind == "bell":
            w = [float(x) for x in rng.dirichlet(np.ones(4))]
            w[3] = max(0.0, 1.0 - w[0] - w[1] - w[2])
            args = [f"--{n}" for n in ("ps", "p1", "p2", "p3")]
            args = [a for pair in zip(args, map(repr, w)) for a in pair]
            dims, matrix = [2, 2], ref.bell_mixture(*w)
        elif kind == "xdecoherence":
            p = float(rng.uniform())
            args, dims, matrix = ["--p", repr(p)], [3, 3], ref.x_decoherence(p)
        elif kind == "singlet":
            two_l = int(rng.integers(1, 4))
            args, dims, matrix = ["--two-l", str(two_l)], [two_l + 1] * 2, ref.white_noise(two_l + 1, 0.0)
        else:
            phi = float(rng.uniform(0, 2 * np.pi))
            args, dims, matrix = ["--phi", repr(phi)], [3], ref.min_uncertainty_n3(phi)
        argv = ["state-gen", "--kind", kind, *args, "--out", out]
        return Op("state-gen", tuple(argv), {"path": out, "dims": dims, "matrix": matrix})

    def run(self, op):
        return run_cli(list(op.args))

    def check(self, op, out):
        if out["stderr"]:
            return f"stderr: {out['stderr'].strip()}"
        if op.kind == "state-gen":
            if out["code"] != 0:
                return f"exit code {out['code']}"
            dims, matrix = ref.read_state_file(op.expect["path"])
            if dims != op.expect["dims"]:
                return f"dims {dims} != {op.expect['dims']}"
            err = np.abs(matrix - op.expect["matrix"]).max()
            if not err <= 1e-12:
                return f"state-gen matrix differs from the reference by {err:.3e}"
            reread = lurcert.states.read_state(op.expect["path"]).matrix
            if reread.tobytes() != matrix.astype(complex).tobytes():
                return "state-gen file does not re-read bit-exact"
            return None
        with open(self.cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        if out["code"] != (3 if cert["verdict"] else 0):
            return f"exit code {out['code']} for verdict {cert['verdict']}"
        printed_total = float(_line_value(out["stdout"], "total:"))
        printed_verdict = _line_value(out["stdout"], "verdict:").startswith("ENTANGLED")
        if printed_total != cert["total"] or printed_verdict != cert["verdict"]:
            return "printed total/verdict differ from the JSON certificate"
        if f"digest {cert['state_digest'][:16]})" not in _line_value(out["stdout"], "state:"):
            return "printed digest differs from the JSON certificate"
        e = op.expect
        return _check_certificate(cert, ref.variances(e["matrix"], e["joint"]), e["limit"],
                                  e["product"], None)

    def corrupt(self, op, out):
        if op.kind == "state-gen":
            dims, matrix = ref.read_state_file(op.expect["path"])
            ref.write_state_file(op.expect["path"], matrix + 1e-6 * np.eye(len(matrix)), dims)
            return out
        # perturb the printed and the JSON total alike, so only the
        # comparison with the reference can catch it
        with open(self.cert_path, encoding="utf-8") as fh:
            cert = json.load(fh)
        cert["total"] += 1e-3
        Path(self.cert_path).write_text(json.dumps(cert), encoding="utf-8")
        return {**out, "stdout": _with_line_value(out["stdout"], "total:", repr(cert["total"]))}


# --- family_wide -------------------------------------------------------------

FAMILY_TWO_L = 11  # N = 12, so each state is D = 144
FAMILY_GRID = "0:1:0.25"
FAMILY_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)


class FamilyWide(Workload):
    """In-process CLI ``family --kind white --two-l 11``, alternating l3 and s3."""

    cycle_salt = 2
    calibration_kernel = "format"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.relations = ("l3", "s3") if self.rng(0).integers(2) == 0 else ("s3", "l3")
        self.out_path = str(workdir / "family.csv")

    def cycle_ops(self, cycle):
        n = FAMILY_TWO_L + 1
        ops = []
        for relation in self.relations:
            argv = ["family", "--kind", "white", "--two-l", str(FAMILY_TWO_L), "--grid", FAMILY_GRID,
                    "--relation", relation, "--out", self.out_path]
            limit = float(2 * ref.relation_side(relation, n)[1])
            ops.append(Op("family", tuple(argv), {"relation": relation, "limit": limit}))
        return ops

    def run(self, op):
        return run_cli(list(op.args))

    def check(self, op, out):
        if out["code"] != 0 or out["stderr"]:
            return f"exit code {out['code']}: {out['stderr'].strip()}"
        with open(self.out_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(FAMILY_POINTS):
            return f"{len(rows)} rows, expected {len(FAMILY_POINTS)}"
        limit = op.expect["limit"]
        for row, p in zip(rows, FAMILY_POINTS):
            closed = ref.closed_form_violation("white", op.expect["relation"], (FAMILY_TWO_L + 1, p))
            values = {k: float(row[k]) for k in ("parameter", "total", "local_limit", "C")}
            if values["parameter"] != p or values["local_limit"] != limit:
                return f"row {row} has the wrong parameter or local limit"
            if not _close(values["C"], closed) or not _close(values["total"], limit * (1 - closed)):
                return f"row at p={p}: C {values['C']!r} != closed form {closed!r}"
        return None

    def corrupt(self, op, out):
        with open(self.out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[3] = repr(float(cells[3]) + 1e-3)
        lines[1] = ",".join(cells)
        Path(self.out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out


# --- search_bound ------------------------------------------------------------

# (set, --two-l, exact minimum or None)
SEARCH_SETS = (
    ("spin:xy", 2, Fraction(7, 16)),
    ("spin:xy", 3, None),
    ("spin:xy", 4, None),
    ("stokes:12", 2, Fraction(7, 4)),
    ("spin:xyz", 6, Fraction(3)),
)


def _search_operators(spec: str, two_l: int) -> list[np.ndarray]:
    family, axes = spec.split(":")
    ops = ref.spin_matrices(two_l)
    if family == "stokes":
        ops = [2 * op for op in ops]
    return [ops[("xyz" if family == "spin" else "123").index(a)] for a in axes]


class SearchBound(Workload):
    """In-process CLI ``search-bound`` (default 64 restarts) with ``--emit-state``."""

    cycle_salt = 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.state_path = str(workdir / "argmin.json")

    def cycle_ops(self, cycle):
        rng = self.cycle_rng(cycle)
        ops = []
        for spec, two_l, exact in SEARCH_SETS:
            argv = ["search-bound", "--set", spec, "--two-l", str(two_l),
                    "--seed", str(int(rng.integers(2**31))), "--emit-state", self.state_path]
            ops.append(Op("search", tuple(argv), {"ops": _search_operators(spec, two_l), "exact": exact}))
        return ops

    def run(self, op):
        return run_cli(list(op.args))

    def check(self, op, out):
        if out["code"] != 0 or out["stderr"]:
            return f"exit code {out['code']}: {out['stderr'].strip()}"
        minimum = float(_line_value(out["stdout"], "minimum:"))
        exact = op.expect["exact"]
        if exact is not None and not abs(minimum - float(exact)) <= 1e-8:
            return f"minimum {minimum!r} != exact {exact}"
        dims, rho = ref.read_state_file(self.state_path)
        achieved = sum(ref.variances(rho, op.expect["ops"]))
        if dims != [rho.shape[0]] or not _close(achieved, minimum):
            return f"emitted argmin state gives {achieved!r}, reported minimum {minimum!r}"
        return None

    def corrupt(self, op, out):
        minimum = float(_line_value(out["stdout"], "minimum:"))
        return {**out, "stdout": _with_line_value(out["stdout"], "minimum:", repr(minimum + 1e-3))}


# --- certify_loop ------------------------------------------------------------

LOOP_RELATIONS = {2: ("l3", "s3", "l2n2", "s2n2"), 3: ("l3", "s3", "l2n3", "s2n3")}


class CertifyLoop(Workload):
    """Library loop: build one small state, certify it against a prebuilt joint."""

    cycle_salt = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.reference = {
            (rel, d): ref.catalog_joint(rel, d, d) for d, rels in LOOP_RELATIONS.items() for rel in rels
        }
        self.spins = {d: lurcert.SpinQuantum(d - 1) for d in LOOP_RELATIONS}

    def program_setup(self):
        self.joints = {
            (rel, d): lurcert.lur.joint_from_catalog(rel, d, d)
            for d, rels in LOOP_RELATIONS.items()
            for rel in rels
        }

    def cycle_ops(self, cycle):
        rng = self.cycle_rng(cycle)
        plan = [("product", 2), ("product", 3)] * 6
        plan += [("bell", 2)] * 4 + [("white", 2), ("white", 3)] * 2 + [("xdecoherence", 3)] * 4
        ops = []
        for kind, d in plan:
            if kind == "product":
                params = (ref.random_product(d, d, rng, pure=len(ops) % 4 < 2),)
                matrix = params[0]
            elif kind == "bell":
                params = tuple(float(x) for x in rng.dirichlet(np.ones(4)))
                matrix = ref.bell_mixture(*params)
            elif kind == "white":
                params = (d, float(rng.uniform()))
                matrix = ref.white_noise(*params)
            else:
                params = (float(rng.uniform()),)
                matrix = ref.x_decoherence(*params)
            relation = str(rng.choice(LOOP_RELATIONS[d]))
            expect = {"matrix": matrix, "relation": relation, "closed": ref.closed_form_violation(kind, relation, params)}
            ops.append(Op(kind, (d, relation, params), expect))
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]

    def run(self, op):
        d, relation, params = op.args
        states = lurcert.states
        if op.kind == "product":
            rho = states.validate(params[0], (d, d))
        elif op.kind == "bell":
            rho = states.bell_mixture(*params)
        elif op.kind == "white":
            rho = states.white_noise_mixture(self.spins[d], params[1])
        else:
            rho = states.x_decoherence_mixture(*params)
        return lurcert.lur.certify(rho, self.joints[(relation, d)])

    def check(self, op, out):
        d, relation, _ = op.args
        joint, limit = self.reference[(relation, d)]
        cert = {
            "per_component": list(out.per_component),
            "total": out.total,
            "local_limit": out.local_limit,
            "relative_violation": out.relative_violation,
            "verdict": out.entangled,
        }
        return _check_certificate(cert, ref.variances(op.expect["matrix"], joint), limit,
                                  op.kind == "product", op.expect["closed"])

    def corrupt(self, op, out):
        return dataclasses.replace(out, total=out.total + 1e-3)


WORKLOADS = {
    "certify_files": CertifyFiles,
    "family_wide": FamilyWide,
    "search_bound": SearchBound,
    "certify_loop": CertifyLoop,
}
