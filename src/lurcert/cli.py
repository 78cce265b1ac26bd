"""Command-line front end: certify states, scan families, search bounds,
generate state files.

Exit codes: 0 success (no verdict claimed), 3 entangled verdict,
1 usage error, 2 validation/parse error.  Error paths print a single
machine-parsable line ``error[<code>]: <message>`` to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import (
    BoundFileError,
    InvalidParameterError,
    LurcertError,
    ensure_hermitian,
    tolerance_from_env,
)
from .lur import (
    JointOperatorSet,
    RELATION_KINDS,
    certify,
    closed_form_violation,
    joint_from_catalog,
    joint_from_relations,
    score,
    _ket_moments,
    _mixed_moments,
)
from .bound_search import SearchConfig, interval_minimum, minimize_sum_uncertainty
from .spin_ops import OperatorSet, SpinQuantum, spin_subset, stokes_subset
from .states import (
    DensityMatrix,
    bell_mixture,
    family_components,
    family_weights,
    matrix_from_rows,
    min_uncertainty_state_n3,
    parse_json,
    read_state,
    read_utf8,
    singlet_state,
    white_noise_mixture,
    write_state,
    write_utf8,
    x_decoherence_mixture,
)
from .uncertainty import (
    CATALOG_KINDS,
    INTERVAL,
    NUMERICALLY_CERTIFIED,
    UncertaintyRelation,
    catalog_bound,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ENTANGLED = 3


class _Parser(argparse.ArgumentParser):
    """Argument parser with the documented usage exit code."""

    def error(self, message):
        print(f"error[usage]: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# a family grid allocates one float per point before any state is built
MAX_GRID_POINTS = 10**6
# 2l <= 63 keeps N <= 64: a state-gen or certify state is at most 4096 x 4096 (256 MiB)
MAX_TWO_L = 63
# the level number, as 2l, of each kind whose states fix it
FIXED_TWO_L = {"xdecoherence": 2, "bell": 1, "minuncert3": 2}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InvalidParameterError(f"grid values must be numbers, got {spec!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidParameterError(f"grid values must be finite, got {spec!r}")
    if step <= 0:
        raise InvalidParameterError("grid step must be positive")
    if stop < start:
        raise InvalidParameterError("grid stop must not be below start")
    intervals = (stop - start) / step
    # compared before rounding, since a tiny step makes intervals huge or inf
    if intervals >= MAX_GRID_POINTS or int(round(intervals)) + 1 > MAX_GRID_POINTS:
        raise InvalidParameterError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    count = int(round(intervals))
    values = [start + k * step for k in range(count + 1)]
    # snap float accumulation onto the endpoint so p = stop stays in range;
    # the last point only, since a step below the window would repeat stop
    if abs(values[-1] - stop) < 1e-12:
        values[-1] = stop
    return [v for v in values if v <= stop]


def _operators_from_doc(doc: dict, what: str) -> tuple[np.ndarray, ...]:
    """The "operators" of a bound or operator file: a non-empty list of
    square [re, im] matrices of one size, each Hermitian."""
    ops = doc["operators"]
    if not isinstance(ops, list) or not ops or not isinstance(ops[0], list) or not ops[0]:
        raise InvalidParameterError(f'{what} "operators" must be a non-empty list of square matrices')
    size = len(ops[0])
    return tuple(
        ensure_hermitian(
            matrix_from_rows(rows, size, f"{what} operator {k}", InvalidParameterError),
            what=f"{what} operator {k}",
        )
        for k, rows in enumerate(ops)
    )


def _load_relation_side(doc, what: str) -> UncertaintyRelation:
    """Schema-checked bound-file side; keys other than the five read here
    (such as the ``search`` or ``interval`` record) are ignored."""
    if not isinstance(doc, dict):
        raise InvalidParameterError(f"{what} must be a JSON object")
    for key in ("label", "bound", "provenance", "operators"):
        if key not in doc:
            raise InvalidParameterError(f"{what} is missing key {key!r}")
    ops = _operators_from_doc(doc, what)
    size = ops[0].shape[0]
    dim = doc.get("dim", size)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim != size:
        raise InvalidParameterError(f"{what} dim {dim!r} does not match its {size}-level operators")
    bound = doc["bound"]
    if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not _is_finite(bound):
        raise InvalidParameterError(f"{what} bound must be a finite number, got {bound!r}")
    # the relation itself checks bound >= 0 and the provenance label
    return UncertaintyRelation(
        OperatorSet(label=str(doc["label"]), operators=ops), float(bound), doc["provenance"]
    )


def _is_finite(x: int | float) -> bool:
    try:
        return math.isfinite(x)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _matrix_to_rows(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], -1).tolist()


def _resolve_joint(relation: str, rho: DensityMatrix) -> JointOperatorSet:
    """Catalog kind token, or path to a bound file written by search-bound."""
    if relation in RELATION_KINDS:
        return joint_from_catalog(relation, rho.dim_a, rho.dim_b)
    path = Path(relation)
    if not path.is_file():
        raise InvalidParameterError(
            f"relation {relation!r} is neither a catalog kind {RELATION_KINDS} nor a bound file"
        )
    doc = parse_json(read_utf8(path))
    try:
        return _joint_from_bound_doc(doc, label=str(path))
    except InvalidParameterError as exc:
        # any schema or value fault here is the file's
        raise BoundFileError(str(exc)) from exc


def _joint_from_bound_doc(doc, label: str) -> JointOperatorSet:
    if not isinstance(doc, dict):
        raise InvalidParameterError("bound file must be a JSON object")
    if "side_a" in doc or "side_b" in doc:
        if not ("side_a" in doc and "side_b" in doc):
            raise InvalidParameterError("asymmetric bound file needs both side_a and side_b")
        rel_a = _load_relation_side(doc["side_a"], "side_a")
        rel_b = _load_relation_side(doc["side_b"], "side_b")
    else:
        rel_a = rel_b = _load_relation_side(doc, "bound file")
    return joint_from_relations(rel_a, rel_b, label=label)


def cmd_certify(args) -> int:
    rho = read_state(args.state, tolerance_from_env())
    if not rho.is_bipartite:
        raise InvalidParameterError(
            f"certification needs a bipartite state file (two dims), got dims {list(rho.dims)}"
        )
    cert = certify(rho, _resolve_joint(args.relation, rho))
    print(f"state:    {args.state} (dims {rho.dim_a}x{rho.dim_b}, digest {cert.state_digest[:16]})")
    print(f"relation: {cert.relation_label} (bounds {cert.bound_provenance[0]}, {cert.bound_provenance[1]})")
    print(f"per-component uncertainty: [{', '.join(_fmt(v) for v in cert.per_component)}]")
    print(f"total:                     {_fmt(cert.total)}")
    print(f"local limit:               {_fmt(cert.local_limit)}")
    print(f"relative violation C:      {_fmt(cert.relative_violation)}")
    print(f"verdict: {'ENTANGLED' if cert.entangled else 'no violation (not a separability proof)'}")
    if args.json:
        write_utf8(args.json, json.dumps(cert.to_json_dict(), indent=2) + "\n")
    return EXIT_ENTANGLED if cert.entangled else EXIT_OK


def _family_params(kind: str, spin: SpinQuantum | None, value: float) -> tuple:
    """The family constructor's arguments at grid value ``value``."""
    if kind == "white":
        return spin, value
    if kind == "xdecoherence":
        return (value,)
    return value, 1.0 - value, 0.0, 0.0


def _check_fixed_two_l(command: str, args) -> None:
    """Refuse a ``--two-l`` other than the one that ``args.kind`` fixes."""
    expected = FIXED_TWO_L.get(args.kind)
    if expected is not None and args.two_l is not None and args.two_l != expected:
        raise InvalidParameterError(
            f"{command} {args.kind} is fixed at two_l={expected}, got --two-l {args.two_l}"
        )


def cmd_family(args) -> int:
    grid = _parse_grid(args.grid)
    _check_fixed_two_l("family", args)
    spin = None
    if args.kind == "white":
        if args.two_l is None:
            raise InvalidParameterError("family white needs --two-l to fix the level number")
        spin = SpinQuantum(args.two_l)
    # Every member is a convex mixture of the same components, and its
    # moments are that mixture of theirs, each from a ket or 1/D with no
    # D x D matrix.  Built after the first row's weights are checked, so a
    # bad grid value, a refused state and a relation for other dims are met
    # in the order a member-by-member sweep met them.
    family_weights(args.kind, _family_params(args.kind, spin, grid[0]))
    components = family_components(args.kind, spin)
    n = FIXED_TWO_L[args.kind] + 1 if spin is None else spin.dim
    joint = joint_from_catalog(args.relation, n, n)
    # row k: component k's <J_i>, then its <J_i^2>
    moments = np.array(
        [_mixed_moments(joint) if c is None else _ket_moments(c, joint) for c in components]
    ).reshape(len(components), -1)
    limit_s = _fmt(joint.local_limit)
    # where a row's <J_i^2> start
    split = len(joint.set_a)
    # the CSV's lines, written without a joined copy
    lines = ["parameter,total,local_limit,C,closed_form_C,abs_difference\n"]
    for value in grid:
        params = _family_params(args.kind, spin, value)
        weights = family_weights(args.kind, params)
        # one GEMV per row: a stacked product over the grid would be a GEMM,
        # which sums in another order and changes bits
        row = np.dot(weights, moments)
        _, total, violation, _ = score((row[:split], row[split:]), joint)
        closed = closed_form_violation(args.kind, args.relation, params)
        tail = "," if closed is None else f"{_fmt(closed)},{_fmt(abs(violation - closed))}"
        lines.append(f"{_fmt(value)},{_fmt(total)},{limit_s},{_fmt(violation)},{tail}\n")
    write_utf8(args.out, lines)
    print(f"wrote {len(grid)} rows to {args.out}")
    return EXIT_OK


def _parse_operator_spec(spec: str, two_l: int | None) -> tuple[OperatorSet, float | None]:
    """The operator set of ``--set``, and for a built-in set the largest
    eigenvalue of its members: l for spin, n = 2l for Stokes."""
    if spec.startswith("spin:"):
        if two_l is None:
            raise InvalidParameterError("builtin spin sets need --two-l")
        spin = SpinQuantum(two_l)
        return spin_subset(spin, spec[len("spin:"):]), spin.l
    if spec.startswith("stokes:"):
        if two_l is None:
            raise InvalidParameterError("builtin stokes sets need --two-l (photon number n = 2l)")
        return stokes_subset(two_l, spec[len("stokes:"):]), 2 * SpinQuantum(two_l).l
    path = Path(spec)
    if not path.is_file():
        raise InvalidParameterError(
            f"operator set {spec!r} is neither spin:<xyz>, stokes:<123>, nor a JSON file"
        )
    if two_l is not None:
        raise InvalidParameterError(
            f"--two-l applies to built-in spin and stokes sets, not to the operator file {spec!r}"
        )
    doc = parse_json(read_utf8(path))
    if not isinstance(doc, dict) or "operators" not in doc:
        raise InvalidParameterError('operator file must be an object with an "operators" key')
    return OperatorSet(
        label=str(doc.get("label", path.name)), operators=_operators_from_doc(doc, "operator file")
    ), None


def cmd_search_bound(args) -> int:
    op_set, reach = _parse_operator_spec(args.set, args.two_l)
    # built first, so a bad --restarts or --seed is refused on every set
    config = SearchConfig(restarts=args.restarts, rng_seed=args.seed)
    if reach is None:
        result = minimize_sum_uncertainty(op_set, config)
    else:
        result = interval_minimum(op_set, reach)
    print(f"set:      {op_set.label} (dimension {op_set.dim}, {len(op_set)} operators)")
    print(f"minimum:  {_fmt(result.minimum)}")
    if reach is None:
        print(
            f"restarts: {config.restarts}  agreeing: {result.restarts_agreeing}"
            f"  converged: {result.converged_count}"
        )
        stops = result.stop_counts
        print(f"stops: {' '.join(f'{reason}={count}' for reason, count in stops.items())}")
        print(f"confidence: {'LOW (few restarts agree)' if result.low_confidence else 'ok'}")
        if not result.any_converged:
            print("warning: no restart converged; minimum is the best value found")
        # a variance sum is never negative, so 0 bounds a minimum that
        # rounding left below it
        bound, provenance = max(0.0, result.minimum), NUMERICALLY_CERTIFIED
        record = {
            "search": {
                "seed": config.rng_seed,
                "restarts": config.restarts,
                "agreeing": result.restarts_agreeing,
                "converged": result.converged_count,
                "low_confidence": result.low_confidence,
                "stops": stops,
            },
        }
    else:
        print(
            f"interval: [{_fmt(result.lower)}, {_fmt(result.upper)}]"
            f"  gap: {_fmt(result.gap)}  boxes: {result.boxes}"
        )
        print("method: interval (deterministic; --restarts and --seed apply to operator files)")
        bound, provenance = result.lower, INTERVAL
        record = {"interval": [result.lower, result.upper], "gap": result.gap, "boxes": result.boxes}
    if result.minimum < 1e-8:
        print("note: minimum is ~0, a common eigenstate exists; no usable uncertainty limit")
    if args.emit_state:
        write_state(result.argmin.projector(), args.emit_state)
        print(f"wrote argmin state to {args.emit_state}")
    if args.emit_bound:
        doc = {
            "label": op_set.label,
            "dim": op_set.dim,
            "bound": bound,
            "provenance": provenance,
            "operators": [_matrix_to_rows(op) for op in op_set],
            "lurcert_version": __version__,
            **record,
        }
        write_utf8(args.emit_bound, json.dumps(doc) + "\n")
        print(f"wrote bound file to {args.emit_bound}")
    return EXIT_OK


def cmd_state_gen(args) -> int:
    _check_fixed_two_l("state-gen", args)
    kind = args.kind
    if kind == "singlet":
        if args.two_l is None:
            raise InvalidParameterError("state-gen singlet needs --two-l")
        state = singlet_state(SpinQuantum(args.two_l))
    elif kind == "minuncert3":
        state = min_uncertainty_state_n3(args.phi).projector()
    elif kind == "white":
        if args.two_l is None or args.p is None:
            raise InvalidParameterError("state-gen white needs --two-l and --p")
        state = white_noise_mixture(SpinQuantum(args.two_l), args.p)
    elif kind == "xdecoherence":
        if args.p is None:
            raise InvalidParameterError("state-gen xdecoherence needs --p")
        state = x_decoherence_mixture(args.p)
    else:
        weights = (args.ps, args.p1, args.p2, args.p3)
        if any(w is None for w in weights):
            raise InvalidParameterError("state-gen bell needs --ps --p1 --p2 --p3")
        state = bell_mixture(*weights)
    write_state(state, args.out)
    print(f"wrote {kind} state (dims {'x'.join(str(d) for d in state.dims)}) to {args.out}")
    return EXIT_OK


def cmd_bound(args) -> int:
    kind = args.kind
    size = SpinQuantum(args.two_l) if kind.startswith("spin") else args.two_l
    relation = catalog_bound(kind, size)
    exact = Fraction(relation.bound).limit_denominator(10**6)
    print(f"set:   {relation.operator_set.label}")
    print(f"bound: {_fmt(relation.bound)} (= {exact})")
    print(f"provenance: {relation.provenance}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lurcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # each sub-command's parser by name, for ``main`` to hand its arguments to
    parser.commands = sub.choices

    p = sub.add_parser("certify", help="evaluate a local uncertainty relation on a state file")
    p.add_argument("--state", required=True, help="JSON state file")
    p.add_argument(
        "--relation",
        required=True,
        help=f"catalog kind {RELATION_KINDS} or path to a search-bound file",
    )
    p.add_argument("--json", help="also write the certificate as JSON to this path")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("family", help="scan a state family and write a CSV curve")
    p.add_argument("--kind", required=True, choices=("white", "xdecoherence", "bell"))
    p.add_argument("--grid", required=True, help="parameter grid start:stop:step")
    p.add_argument("--relation", required=True, choices=RELATION_KINDS)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--two-l", type=int, dest="two_l", help="level number as 2l (white family)")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("search-bound", help="bound an uncertainty limit: proven for built-in sets")
    p.add_argument("--set", required=True, help="spin:<xyz> | stokes:<123> | operator JSON file")
    p.add_argument("--two-l", type=int, dest="two_l", help="2l for spin sets, n for stokes sets")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-state", dest="emit_state", help="write the argmin state file here")
    p.add_argument("--emit-bound", dest="emit_bound", help="write a certified bound file here")
    p.set_defaults(func=cmd_search_bound)

    p = sub.add_parser("state-gen", help="write a built-in state family member to a file")
    p.add_argument("--kind", required=True, choices=("singlet", "minuncert3", "white", "xdecoherence", "bell"))
    p.add_argument("--two-l", type=int, dest="two_l")
    p.add_argument("--phi", type=float, default=0.0, help="phase of the three-level minimal-uncertainty family")
    p.add_argument("--p", type=float, help="noise weight for white/xdecoherence")
    p.add_argument("--ps", type=float)
    p.add_argument("--p1", type=float)
    p.add_argument("--p2", type=float)
    p.add_argument("--p3", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_state_gen)

    p = sub.add_parser("bound", help="print a catalog bound")
    p.add_argument("--kind", required=True, choices=CATALOG_KINDS)
    p.add_argument("--two-l", type=int, dest="two_l", required=True,
                   help="2l for spin kinds, n for stokes kinds")
    p.set_defaults(func=cmd_bound)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of this process, built on the first ``main`` call.  It
    holds no per-call state: ``parse_args`` returns a fresh namespace, and
    usage errors and ``--version`` look up ``sys.stderr``/``sys.stdout``
    when they print."""
    return build_parser()


def _check_two_l(args) -> None:
    """Refuse ``--two-l`` above ``MAX_TWO_L`` before a sub-command allocates."""
    two_l = getattr(args, "two_l", None)
    if two_l is not None and two_l > MAX_TWO_L:
        raise InvalidParameterError(f"--two-l must be at most {MAX_TWO_L}, got {two_l}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _shared_parser()
    # The top-level parser would scan every argument once before handing
    # them to the sub-command's parser, which is the same object; anything
    # but a sub-command name first (no arguments, -h, --version, --, an
    # unknown name) still goes through the top-level parser.
    command = parser.commands.get(argv[0]) if argv else None
    args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    try:
        _check_two_l(args)
        return args.func(args)
    except LurcertError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
