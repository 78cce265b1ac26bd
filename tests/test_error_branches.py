"""Refusals that no other test reaches: each case names its message.

The CLI cases exit 2 with exactly one structured error line and no
traceback; the library cases raise the named class with the named message.
"""

import json

import numpy as np
import pytest

from lurcert import cli
from lurcert.linalg import DimensionMismatchError, InvalidParameterError
from lurcert.lur import build_joint
from lurcert.spin_ops import OperatorSet, SpinQuantum, spin_components, spin_subset
from lurcert.states import (
    PureState,
    StateFormatError,
    family_components,
    family_weights,
    matrix_from_rows,
)

FAMILY = ["family", "--kind", "bell", "--relation", "s3", "--out", "x.csv", "--grid"]
STATE_GEN = ["state-gen", "--out", "x.json", "--kind"]

CLI_REFUSALS = {
    "grid-not-three-parts": (
        [*FAMILY, "0:1"],
        "invalid-parameter",
        "grid must be start:stop:step, got '0:1'",
    ),
    "grid-not-numeric": (
        [*FAMILY, "0:one:0.5"],
        "invalid-parameter",
        "grid values must be numbers, got '0:one:0.5'",
    ),
    "grid-stop-below-start": (
        [*FAMILY, "1:0:0.5"],
        "invalid-parameter",
        "grid stop must not be below start",
    ),
    # every fault of a bound file is reported as the file's
    "bound-file-with-one-side": (
        ["certify", "--state", "bell.json", "--relation", "one-side.json"],
        "bound-file",
        "asymmetric bound file needs both side_a and side_b",
    ),
    "spin-set-without-two-l": (
        ["search-bound", "--set", "spin:xy"],
        "invalid-parameter",
        "builtin spin sets need --two-l",
    ),
    "stokes-set-without-two-l": (
        ["search-bound", "--set", "stokes:12"],
        "invalid-parameter",
        "builtin stokes sets need --two-l (photon number n = 2l)",
    ),
    "set-neither-built-in-nor-file": (
        ["search-bound", "--set", "absent.json"],
        "invalid-parameter",
        "operator set 'absent.json' is neither spin:<xyz>, stokes:<123>, nor a JSON file",
    ),
    "operator-file-without-operators": (
        ["search-bound", "--set", "no-operators.json"],
        "invalid-parameter",
        'operator file must be an object with an "operators" key',
    ),
    "white-without-p": (
        [*STATE_GEN, "white", "--two-l", "3"],
        "invalid-parameter",
        "state-gen white needs --two-l and --p",
    ),
    "white-without-two-l": (
        [*STATE_GEN, "white", "--p", "0.3"],
        "invalid-parameter",
        "state-gen white needs --two-l and --p",
    ),
    "xdecoherence-without-p": (
        [*STATE_GEN, "xdecoherence"],
        "invalid-parameter",
        "state-gen xdecoherence needs --p",
    ),
    "bell-without-all-weights": (
        [*STATE_GEN, "bell", "--ps", "0.5", "--p1", "0.5", "--p2", "0"],
        "invalid-parameter",
        "state-gen bell needs --ps --p1 --p2 --p3",
    ),
}


@pytest.mark.parametrize("name", list(CLI_REFUSALS))
def test_cli_refusal_is_one_structured_line(name, tmp_path, monkeypatch, capsys):
    argv, code, message = CLI_REFUSALS[name]
    monkeypatch.chdir(tmp_path)
    assert cli.main(["state-gen", "--kind", "bell", "--ps", "1", "--p1", "0", "--p2", "0",
                     "--p3", "0", "--out", "bell.json"]) == cli.EXIT_OK
    side = {
        "label": "S",
        "bound": 1.0,
        "provenance": "analytic",
        "operators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
    }
    (tmp_path / "one-side.json").write_text(json.dumps({"side_a": side}))
    (tmp_path / "no-operators.json").write_text(json.dumps({"label": "empty"}))
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [f"error[{code}]: {message}"]
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


def test_build_joint_refuses_a_negative_bound():
    spin_set = spin_components(SpinQuantum(1))
    for u_a, u_b in ((-0.5, 1.0), (1.0, -0.5)):
        with pytest.raises(InvalidParameterError) as exc:
            build_joint(spin_set, u_a, spin_set, u_b)
        assert str(exc.value) == "local bounds must be nonnegative"


def test_an_operator_set_is_one_dimension():
    ops = (*spin_subset(SpinQuantum(1), "xy"), spin_subset(SpinQuantum(2), "z").operators[0])
    with pytest.raises(DimensionMismatchError) as exc:
        OperatorSet(label="mixed", operators=ops)
    assert str(exc.value) == "mixed[2] has dimension 3, expected 2"


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(
            lambda: PureState(np.zeros(0)),
            "state vector must have at least one amplitude",
            id="empty-ket",
        ),
        pytest.param(
            lambda: PureState([1.0, np.nan]), "state vector amplitudes must be finite", id="nan-ket"
        ),
        pytest.param(
            lambda: PureState([np.inf, 0.0]), "state vector amplitudes must be finite", id="inf-ket"
        ),
        pytest.param(
            lambda: PureState.normalized([0.0, 0.0, 0.0]),
            "cannot normalize the zero vector",
            id="zero-ket",
        ),
        # no amplitude of a NaN vector leads, so the phase turn passes it on
        # unturned to the finiteness check
        pytest.param(
            lambda: PureState.canonical([np.nan, 1.0]),
            "state vector amplitudes must be finite",
            id="canonical-nan-ket",
            marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
        ),
        pytest.param(
            lambda: family_components("thermal"),
            "unknown family kind 'thermal'",
            id="family-components-kind",
        ),
        pytest.param(
            lambda: family_weights("thermal", (0.5,)),
            "unknown family kind 'thermal'",
            id="family-weights-kind",
        ),
    ],
)
def test_library_refusal(build, message):
    with pytest.raises(InvalidParameterError) as exc:
        build()
    assert str(exc.value) == message


def test_numpy_float_leaves_take_the_per_cell_path():
    rows = [[[0.5, 0.0], [0.0, -0.25]], [[0.0, 0.25], [0.5, 0.0]]]
    leaves = [[[np.float64(x) for x in cell] for cell in row] for row in rows]
    built = matrix_from_rows(leaves, 2, "m", StateFormatError)
    assert built.dtype == complex
    assert built.tobytes() == matrix_from_rows(rows, 2, "m", StateFormatError).tobytes()
