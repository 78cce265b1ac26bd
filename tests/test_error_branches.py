"""Refusals that no other test reaches: each case names its message.

The CLI cases exit 2 with exactly one structured error line and no
traceback; the library cases raise the named class with the named message.
"""

import json
import warnings

import numpy as np
import pytest

from lurcert import cli
from lurcert.linalg import DimensionMismatchError, InvalidParameterError, NotHermitianError
from lurcert.lur import JointOperatorSet, build_joint
from lurcert.spin_ops import _MAX_SQUARED_NORM, OperatorSet, SpinQuantum, spin_components, spin_subset
from lurcert.states import (
    PureState,
    StateFormatError,
    TraceNotOneError,
    family_components,
    family_weights,
    matrix_from_rows,
    min_uncertainty_state_n3,
    validate,
)
from lurcert.uncertainty import UncertaintyRelation

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
        pytest.param(
            lambda: PureState.canonical([np.nan, 1.0]),
            "state vector amplitudes must be finite",
            id="canonical-nan-ket",
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
        # its repr would pass the digit limit of int-to-str conversion
        pytest.param(
            lambda: validate(np.eye(2) / 2, (2,), 10**5000),
            "validation tolerance must be a finite number above zero, got a number too long to print",
            id="huge-tolerance",
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


# a bound or a local limit is a finite real number >= 0: no bool, string,
# NaN, infinity, integer beyond the float range or negative number
REFUSED_BOUNDS = {
    "inf": float("inf"),
    "-inf": float("-inf"),
    "nan": float("nan"),
    "bool": True,
    "string": "0.5",
    "huge-int": 10**400,
    "negative": -0.25,
}
SPIN_HALF = spin_components(SpinQuantum(1))


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda b: UncertaintyRelation(SPIN_HALF, b, "analytic"), id="relation"),
        pytest.param(lambda b: build_joint(SPIN_HALF, b, SPIN_HALF, 0.5), id="build-joint-a"),
        pytest.param(lambda b: build_joint(SPIN_HALF, 0.5, SPIN_HALF, b), id="build-joint-b"),
        pytest.param(
            lambda b: JointOperatorSet(SPIN_HALF, SPIN_HALF, b, ("analytic", "analytic"), "j"),
            id="joint-operator-set",
        ),
    ],
)
@pytest.mark.parametrize("bound", REFUSED_BOUNDS.values(), ids=REFUSED_BOUNDS)
def test_every_relation_and_joint_refuses_a_bound_that_is_not_finite_and_nonnegative(make, bound):
    with pytest.raises(InvalidParameterError):
        make(bound)


def test_an_infinite_bound_cannot_make_the_maximally_mixed_state_entangled():
    # the sum of the two bounds would be an infinite limit, against which
    # 1/4 reads C = 1
    with pytest.raises(InvalidParameterError) as exc:
        build_joint(SPIN_HALF, float("inf"), SPIN_HALF, 0.5)
    assert str(exc.value) == "local bounds must be finite, got inf"


def test_a_joint_operator_set_checks_what_build_joint_checks():
    xy = spin_subset(SpinQuantum(1), "xy")
    with pytest.raises(DimensionMismatchError):
        JointOperatorSet(xy, SPIN_HALF, 1.0, ("analytic", "analytic"), "j")
    with pytest.raises(InvalidParameterError) as exc:
        JointOperatorSet(SPIN_HALF, SPIN_HALF, 0.0, ("analytic", "analytic"), "j")
    assert str(exc.value) == "local limit must be positive to define a violation"
    # two finite bounds whose sum overflows
    with pytest.raises(InvalidParameterError):
        build_joint(SPIN_HALF, 1e308, SPIN_HALF, 1e308)
    # the limit is stored as a float
    joint = JointOperatorSet(SPIN_HALF, SPIN_HALF, np.float64(1), ("analytic", "analytic"), "j")
    assert type(joint.local_limit) is float and joint.local_limit == 1.0


@pytest.mark.parametrize(
    "kind, params, count",
    [
        ("white", (SpinQuantum(2),), 2),
        ("white", (SpinQuantum(2), 0.5, 0.5), 2),
        ("xdecoherence", (), 1),
        ("xdecoherence", (0.5, 0.5), 1),
        ("bell", (0.5, 0.5, 0.0), 4),
        ("bell", (0.5, 0.5, 0.0, 0.0, 0.0), 4),
    ],
)
def test_family_weights_refuses_a_wrong_parameter_count(kind, params, count):
    with pytest.raises(InvalidParameterError) as exc:
        family_weights(kind, params)
    plural = "s" if count > 1 else ""
    assert str(exc.value) == f"family {kind!r} takes {count} parameter{plural}, got {len(params)}"


@pytest.mark.parametrize("vector", [[np.nan, 1.0], [1.0, np.inf], [-np.inf, 0.0]], ids=repr)
@pytest.mark.parametrize("build", [PureState.normalized, PureState.canonical], ids=lambda f: f.__name__)
def test_a_non_finite_ket_is_refused_before_any_warning(build, vector):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError) as exc:
            build(vector)
    assert str(exc.value) == "state vector amplitudes must be finite"


# finite entries whose differences, or the modulus of one, pass the float range
OVERFLOWING = {
    "real-difference": np.array([[0.5, 1.7e308], [-1.7e308, 0.5]]),
    "complex-difference": np.array([[0.5, 1.7e308j], [1.7e308j, 0.5]]),
    "complex-modulus": np.array([[0.5, 1.3e308 + 1.3e308j], [0.0, 0.5]]),
}


@pytest.mark.parametrize("matrix", OVERFLOWING.values(), ids=OVERFLOWING.keys())
def test_an_overflowing_deviation_is_refused_without_a_warning(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError) as state:
            validate(matrix, (2,))
        with pytest.raises(NotHermitianError) as operator:
            OperatorSet("big", (matrix,))
    assert str(state.value) == "state deviates from Hermiticity by inf (tolerance 1.0e-09)"
    assert str(operator.value) == "big[0] deviates from Hermiticity by inf (tolerance 1.0e-09)"


@pytest.mark.parametrize("diagonal, shown", [
    ([1.1, 0.0], "1.1000000000000001"),
    ([0.6 + 4e-4j, 0.6 - 2e-4j], "1.2"),
])
def test_the_trace_message_prints_the_judged_real_part(diagonal, shown):
    # only Re Tr rho = Tr rho_H is judged, so only it is printed; the
    # diagonal's imaginary parts are within the tolerance given
    with pytest.raises(TraceNotOneError) as exc:
        validate(np.diag(diagonal), (2,), tolerance=1e-3)
    assert str(exc.value) == f"state trace is {shown}, expected 1"


@pytest.mark.parametrize("entry", [np.nextafter(2.0**1021, 0), np.nextafter(2.0**1021, 0) * np.exp(0.7j)])
def test_the_largest_entries_checked_without_the_overflow_guard_differ_in_range(entry):
    # below 2^1021 in modulus validation forms the differences with numpy's
    # overflow warning on, and none of them, nor its modulus, overflows
    matrix = np.array([[0.5, entry], [-np.conj(entry), 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotHermitianError) as exc:
            validate(matrix, (2,))
    assert str(exc.value) == f"state deviates from Hermiticity by {abs(2 * entry):.3e} (tolerance 1.0e-09)"
    assert np.isfinite(abs(2 * entry))


@pytest.mark.parametrize("phi, message", [
    ("inf", "phi must be finite, got inf"),
    ("nan", "phi must be finite, got nan"),
    ("-inf", "phi must be finite, got -inf"),
])
def test_a_non_finite_phi_is_refused_before_any_warning(phi, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([*STATE_GEN, "minuncert3", f"--phi={phi}"]) == cli.EXIT_VALIDATION
        with pytest.raises(InvalidParameterError) as exc:
            min_uncertainty_state_n3(float(phi))
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [f"error[invalid-parameter]: {message}"]
    assert str(exc.value) == message
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("phi", ["1", True, 1j, None])
def test_phi_is_a_real_number(phi):
    with pytest.raises(InvalidParameterError) as exc:
        min_uncertainty_state_n3(phi)
    assert str(exc.value) == f"phi: expected a real number, got {phi!r}"


# a Pauli X and Z scaled by a: their squared Frobenius norms sum to 4 a^2
CAP_SCALE = np.sqrt(_MAX_SQUARED_NORM / 4)
PAULI_XZ = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, -1.0]]))


def scaled_side(a):
    rows = [[[[float(a * x), 0.0] for x in row] for row in op] for op in PAULI_XZ]
    return {"label": "xz", "bound": 1.0, "provenance": "analytic", "operators": rows}


def test_the_squared_norm_cap_is_derived_from_the_float_range():
    # the squared descent gradient, at most (6 s)^2, stays below the range
    assert 36 * _MAX_SQUARED_NORM**2 < np.finfo(float).max / 7


@pytest.mark.parametrize("relative", [1 - 1e-12, 1 + 1e-12], ids=["below", "above"])
def test_operator_sets_past_the_squared_norm_cap_are_refused_without_a_warning(
    relative, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    side = scaled_side(CAP_SCALE * relative)
    (tmp_path / "ops.json").write_text(json.dumps(side))
    (tmp_path / "bound.json").write_text(json.dumps(side))
    below = relative < 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a mixture whose variance sum is about a^2, far above the bound
        assert cli.main([*STATE_GEN, "bell", "--ps", "0.1", "--p1", "0.2", "--p2", "0.3",
                         "--p3", "0.4", "--out", "bell.json"]) == cli.EXIT_OK
        capsys.readouterr()
        searched = cli.main(["search-bound", "--set", "ops.json", "--restarts", "2"])
        searched_io = capsys.readouterr()
        certified = cli.main(["certify", "--state", "bell.json", "--relation", "bound.json"])
        certified_io = capsys.readouterr()
    if below:
        assert (searched, certified) == (cli.EXIT_OK, cli.EXIT_OK)
        assert searched_io.err == certified_io.err == ""
        numbers = [line.split()[-1] for line in searched_io.out.splitlines() if line.startswith("minimum:")]
        numbers += [line.split()[-1] for line in certified_io.out.splitlines()
                    if line.startswith(("total:", "relative violation C:"))]
        assert len(numbers) == 3 and all(np.isfinite(float(x)) for x in numbers), numbers
        return
    assert (searched, certified) == (cli.EXIT_VALIDATION, cli.EXIT_VALIDATION)
    for captured, code in ((searched_io, "invalid-parameter"), (certified_io, "bound-file")):
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error[{code}]: operator set 'xz' is too large: ")


@pytest.mark.parametrize("scale", [CAP_SCALE * (1 + 1e-12), 1e200, 1e307])
def test_an_operator_set_past_the_squared_norm_cap_is_refused(scale):
    ops = tuple(scale * op for op in PAULI_XZ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameterError) as exc:
            OperatorSet("xz", ops)
    shown = 4 * scale**2 if scale < 1e150 else np.inf
    assert str(exc.value) == (
        f"operator set 'xz' is too large: its squared Frobenius norms sum to {shown:.3e},"
        f" above {_MAX_SQUARED_NORM:.3e}"
    )
    assert OperatorSet("xz", tuple(CAP_SCALE * (1 - 1e-12) * op for op in PAULI_XZ)).dim == 2
