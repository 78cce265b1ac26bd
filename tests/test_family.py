"""The `family` sweep mixes the moments of its components, kets and 1/D.

The reference throughout is the sweep that builds, validates and certifies
every member with the family constructors.
"""

import csv

import numpy as np
import pytest

from lurcert import cli, states
from lurcert.linalg import ENV_TOLERANCE_VAR, InvalidParameterError, LurcertError
from lurcert.lur import RELATION_KINDS, certify, closed_form_violation, joint_from_catalog
from lurcert.spin_ops import SpinQuantum
from lurcert.states import (
    bell_mixture,
    family_components,
    family_weights,
    white_noise_mixture,
    x_decoherence_mixture,
)

CONSTRUCTORS = {
    "white": white_noise_mixture,
    "xdecoherence": x_decoherence_mixture,
    "bell": bell_mixture,
}

# (kind, --two-l) for every family, white at 2l = 1..11
FAMILIES = [("white", two_l) for two_l in range(1, 12)] + [("xdecoherence", None), ("bell", None)]


def sweep(tmp_path, capsys, kind, two_l, grid, relation):
    """Exit code, stderr and CSV rows (None when no file was written) of
    ``lurcert family``."""
    out = tmp_path / "family.csv"
    if out.exists():
        out.unlink()
    argv = ["family", "--kind", kind, f"--grid={grid}", "--relation", relation, "--out", str(out)]
    if two_l is not None:
        argv += ["--two-l", str(two_l)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    rows = list(csv.DictReader(out.open(newline=""))) if out.exists() else None
    return code, err, rows


def member_loop(kind, two_l, grid, relation):
    """Certificates of every member built by its constructor, or the
    ``error[<code>]`` line of the first refusal."""
    spin = SpinQuantum(two_l) if kind == "white" else None
    certs, joint = [], None
    try:
        for value in cli._parse_grid(grid):
            rho = CONSTRUCTORS[kind](*cli._family_params(kind, spin, value))
            if joint is None:
                joint = joint_from_catalog(relation, rho.dim_a, rho.dim_b)
            certs.append(certify(rho, joint))
    except LurcertError as exc:
        return None, f"error[{exc.code}]: {exc}\n"
    return certs, ""


def test_family_builds_no_member(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a family member was built")

    for constructor in CONSTRUCTORS.values():
        monkeypatch.setattr(states, constructor.__name__, refuse)
        monkeypatch.setattr(cli, constructor.__name__, refuse)
    for kind, two_l in (("white", 2), ("xdecoherence", None), ("bell", None)):
        code, err, rows = sweep(tmp_path, capsys, kind, two_l, "0:1:0.25", "l3")
        assert (code, err, len(rows)) == (0, "", 5)


@pytest.mark.parametrize("grid", ["0:1:1", "0:1:0.25", "0:1:0.01"])
def test_family_checks_each_ket_once_and_builds_no_density_matrix(tmp_path, capsys, monkeypatch, grid):
    def refuse(self, tolerance):
        raise AssertionError("a DensityMatrix was built")

    original = states.PureState.__post_init__
    checks = []

    def counting(self):
        checks.append(self)
        original(self)

    monkeypatch.setattr(states.DensityMatrix, "__post_init__", refuse)
    monkeypatch.setattr(states.PureState, "__post_init__", counting)
    # white mixes its singlet ket with 1/D, which has no ket to check
    for kind, two_l, kets in (("white", 11, 1), ("xdecoherence", None, 4), ("bell", None, 4)):
        del checks[:]
        code, err, rows = sweep(tmp_path, capsys, kind, two_l, grid, "s3")
        assert (code, err, len(rows)) == (0, "", len(cli._parse_grid(grid)))
        assert len(checks) == kets


def test_components_mix_to_the_constructors():
    grid = cli._parse_grid("0:1:0.05")
    cases = [("white", SpinQuantum(two_l), [(SpinQuantum(two_l), p) for p in grid]) for two_l in range(1, 5)]
    cases.append(("xdecoherence", None, [(p,) for p in grid]))
    bell = [cli._family_params("bell", None, p) for p in grid]
    bell += [(0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25), (0.1, 0.0, 0.6, 0.3)]
    cases.append(("bell", None, bell))
    for kind, spin, members in cases:
        components = family_components(kind, spin)
        dim = len(CONSTRUCTORS[kind](*members[0]).matrix)
        # None stands for the maximally mixed state
        matrices = [
            np.eye(dim) / dim if c is None else np.outer(c.amplitudes, c.amplitudes.conj())
            for c in components
        ]
        for params in members:
            weights = family_weights(kind, params)
            assert len(weights) == len(components) and min(weights) >= 0
            mixed = sum(w * m for w, m in zip(weights, matrices))
            built = CONSTRUCTORS[kind](*params).matrix
            assert np.abs(mixed - built).max() <= 1e-15, (kind, params)


def test_family_weights_refuse_as_the_constructors_do():
    for kind, params in (
        ("white", (SpinQuantum(1), 1.5)),
        ("white", (SpinQuantum(1), -0.1)),
        ("xdecoherence", (2.0,)),
        ("bell", (0.5, 0.6, 0.0, 0.0)),
        ("bell", (1.5, -0.5, 0.0, 0.0)),
        ("bell", (float("nan"), 0.0, 0.0, 0.0)),
    ):
        with pytest.raises(LurcertError) as built:
            CONSTRUCTORS[kind](*params)
        with pytest.raises(LurcertError) as weighted:
            family_weights(kind, params)
        assert str(weighted.value) == str(built.value)


def test_the_white_family_takes_its_spin_as_a_spin_quantum():
    # each check in the constructor's order: p_w, then the spin, then l = 0
    for spin in (2, 2.0, None, "1"):
        for build in (
            lambda: white_noise_mixture(spin, 0.3),
            lambda: family_weights("white", (spin, 0.3)),
            lambda: family_components("white", spin),
            lambda: closed_form_violation("white", "l3", (spin, 0.3)),
        ):
            with pytest.raises(InvalidParameterError) as err:
                build()
            assert str(err.value) == f"family 'white' takes a SpinQuantum spin, got {spin!r}"
    for spin, p_w, message in (
        (2, 1.5, "p_w must lie in [0, 1], got 1.5"),
        (SpinQuantum(0), 1.5, "p_w must lie in [0, 1], got 1.5"),
        (SpinQuantum(0), 0.3, "no two-party singlet exists for l = 0"),
    ):
        with pytest.raises(InvalidParameterError) as err:
            white_noise_mixture(spin, p_w)
        assert str(err.value) == message


def test_family_rows_match_certified_members(tmp_path, capsys):
    grid = "0:1:0.05"
    compared = 0
    for kind, two_l in FAMILIES:
        for relation in RELATION_KINDS:
            certs, error = member_loop(kind, two_l, grid, relation)
            code, err, rows = sweep(tmp_path, capsys, kind, two_l, grid, relation)
            if certs is None:
                continue  # a relation for other dimensions
            assert code == 0 and err == "" and len(rows) == len(certs)
            for row, cert in zip(rows, certs):
                total, c = float(row["total"]), float(row["C"])
                assert abs(total - cert.total) <= 1e-13 * max(1.0, abs(cert.total))
                assert abs(c - cert.relative_violation) <= 1e-13
                assert float(row["local_limit"]) == cert.local_limit
                compared += 1
    # l3 and s3 for every family, l2n2/s2n2 at 2x2 and l2n3/s2n3 at 3x3
    assert compared == 21 * (2 * 13 + 2 * 4)


@pytest.mark.parametrize("relation", ["l3", "s3"])
def test_white_sweep_at_the_level_cap_follows_the_closed_form(tmp_path, capsys, relation):
    # N = 64 levels: a member would be a 4096 x 4096 matrix, which the sweep
    # never builds
    two_l = cli.MAX_TWO_L
    code, err, rows = sweep(tmp_path, capsys, "white", two_l, "0:1:0.05", relation)
    assert (code, err, len(rows)) == (0, "", 21)
    for row in rows:
        p = float(row["parameter"])
        assert abs(float(row["C"]) - (1 - p * (two_l + 2) / 2)) <= 1e-12, row


def test_family_closed_form_error_does_not_grow(tmp_path, capsys):
    # every row with a closed form over the sweeps of every kind and
    # relation at step 0.01; member-by-member certificates reached 2.7e-15
    worst, counted = 0.0, 0
    for kind, two_l in FAMILIES:
        for relation in RELATION_KINDS:
            code, _, rows = sweep(tmp_path, capsys, kind, two_l, "0:1:0.01", relation)
            if code == 0:
                counted += len(rows)
                worst = max([worst] + [float(r["abs_difference"]) for r in rows if r["abs_difference"]])
    assert counted == 3434
    assert worst <= 2.7e-15


# The lines each refused sweep printed when every member was built.
REFUSED = [
    (("white", None, "0:1:0.1", "l3"),
     "error[invalid-parameter]: family white needs --two-l to fix the level number"),
    (("white", 1, "0:2:0.5", "l3"),
     "error[invalid-parameter]: p_w must lie in [0, 1], got 1.5"),
    (("bell", None, "0:1:-0.1", "s3"),
     "error[invalid-parameter]: grid step must be positive"),
    (("xdecoherence", None, "0:1:0.5", "l2n2"),
     "error[invalid-parameter]: relation 'l2n2' applies to 2-level systems, got dimension 3"),
    (("white", 1, "-0.5:1:0.5", "l2n3"),
     "error[invalid-parameter]: p_w must lie in [0, 1], got -0.5"),
    (("bell", None, "0.5:1.5:0.5", "l2n3"),
     "error[invalid-parameter]: relation 'l2n3' applies to 3-level systems, got dimension 2"),
    (("bell", None, "0.5:1.5:0.5", "s3"),
     "error[invalid-parameter]: Bell weights must be nonnegative, got -0.5"),
    (("xdecoherence", None, "0:1.5:0.5", "l2n2"),
     "error[invalid-parameter]: relation 'l2n2' applies to 2-level systems, got dimension 3"),
    (("white", 0, "0:1:0.5", "l3"),
     "error[invalid-parameter]: no two-party singlet exists for l = 0"),
]


@pytest.mark.parametrize("case, line", REFUSED)
def test_family_refusals_are_unchanged(tmp_path, capsys, case, line):
    assert sweep(tmp_path, capsys, *case) == (2, line + "\n", None)


def test_family_decisions_match_the_member_loop(tmp_path, capsys):
    for kind, two_l in FAMILIES:
        for relation in RELATION_KINDS:
            code, err, rows = sweep(tmp_path, capsys, kind, two_l, "0:1:0.05", relation)
            certs, error = member_loop(kind, two_l, "0:1:0.05", relation)
            expected = (0, "", False) if certs is not None else (2, error, True)
            assert (code, err, rows is None) == expected, (kind, two_l, relation)


# Every state the program builds, as state-gen writes it
STATE_GEN = [
    *(["--kind", "singlet", "--two-l", str(two_l)] for two_l in range(1, 12)),
    ["--kind", "minuncert3", "--phi", "0.7"],
    *(["--kind", "white", "--two-l", str(two_l), "--p", "0.25"] for two_l in (1, 2, 9)),
    ["--kind", "xdecoherence", "--p", "0.3"],
    ["--kind", "bell", "--ps", "0.4", "--p1", "0.3", "--p2", "0.2", "--p3", "0.1"],
]


def built_outputs(tmp_path, capsys, monkeypatch, tol):
    """(exit code, stdout, stderr, file bytes) of every family sweep under
    l3 and every state-gen case, under ``LURCERT_VALIDATION_TOL=tol``."""
    if tol is None:
        monkeypatch.delenv(ENV_TOLERANCE_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_TOLERANCE_VAR, tol)
    runs = [
        ["family", "--kind", kind, "--grid=0:1:0.05", "--relation", "l3"]
        + ([] if two_l is None else ["--two-l", str(two_l)])
        for kind, two_l in FAMILIES
    ]
    runs += [["state-gen", *argv] for argv in STATE_GEN]
    outputs = []
    for argv in runs:
        out = tmp_path / "out"
        if out.exists():
            out.unlink()
        code = cli.main(argv + ["--out", str(out)])
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err, out.read_bytes() if out.exists() else None))
    return outputs


def test_built_states_ignore_the_validation_tolerance(tmp_path, capsys, monkeypatch):
    # The variable is the slack for states read from files; a state the
    # program builds is validated at the default tolerance whatever it
    # says, so a value below the rounding of a unit trace or one that
    # certify would refuse changes no byte
    unset = built_outputs(tmp_path, capsys, monkeypatch, None)
    assert all(code == 0 and err == "" and data for code, _, err, data in unset)
    for tol in ("1e-6", "1e-16", "1e-20", "bogus", "inf", "0"):
        assert built_outputs(tmp_path, capsys, monkeypatch, tol) == unset, tol


SINGLET_ROWS = [
    *(("white", two_l, relation) for two_l in range(1, 64) for relation in ("l3", "s3")),
    *(("white", 2, relation) for relation in ("l2n3", "s2n3")),
    *(("xdecoherence", None, relation) for relation in ("l3", "s3", "l2n3", "s2n3")),
]


def test_singlet_rows_are_exact(tmp_path, capsys):
    # Each entry of A_i Psi and Psi B_i^T is one product of the same two
    # doubles, so J_i psi vanishes exactly on the singlet at p = 0.
    for kind, two_l, relation in SINGLET_ROWS:
        code, err, rows = sweep(tmp_path, capsys, kind, two_l, "0:0.5:0.5", relation)
        assert (code, err) == (0, "")
        assert (rows[0]["parameter"], rows[0]["total"], rows[0]["C"]) == ("0", "0", "1"), (
            kind, two_l, relation)
