"""The matrix codec of the state, bound and operator files against per-cell
reference codecs: the same text, the same matrix bytes, the same errors."""

import json
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurcert.cli import _matrix_to_rows
from lurcert.spin_ops import SpinQuantum, spin_components
from lurcert.states import (
    DensityMatrix,
    StateFormatError,
    matrix_from_rows,
    state_digest,
    state_to_json,
)

from oracles import random_mixed_state

# --- per-cell reference codecs ----------------------------------------------


def reference_state_to_json(state) -> str:
    rows = []
    for row in state.matrix:
        cells = ",".join(f"[{z.real + 0.0:.17g},{z.imag + 0.0:.17g}]" for z in row)
        rows.append(f"[{cells}]")
    dims = ",".join(str(d) for d in state.dims)
    return f'{{"dims":[{dims}],"matrix":[{",".join(rows)}]}}'


def reference_matrix_from_rows(rows, size, what, error):
    if not isinstance(rows, list) or len(rows) != size:
        raise error(f"{what} must be a list of {size} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise error(f"{what} row {i} must have {size} entries")
    matrix = np.zeros((size, size), dtype=complex)
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise error(f"{what} entry ({i},{j}) must be a [re, im] pair")
            try:
                matrix[i, j] = complex(cell[0], cell[1])
            except OverflowError as exc:
                raise error(f"{what} entry ({i},{j}) is out of floating-point range") from exc
    return matrix


def reference_matrix_to_rows(m):
    return [[[z.real, z.imag] for z in row] for row in m]


def _outcome(codec, rows, size):
    """The matrix bytes ``codec`` builds from ``rows``, or the class and
    message of the error it raises."""
    try:
        matrix = codec(rows, size, '"matrix"', StateFormatError)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)
    return matrix.shape, matrix.tobytes()


# --- write side ---------------------------------------------------------------

# state_to_json reads only the stored matrix (complex, C-ordered) and dims,
# so unphysical matrices exercise the formatting through a stand-in
Stored = namedtuple("Stored", "matrix dims")

SPECIAL_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1 / 3, 2 / 3,
                   0.1, 1e300, -1.7976931348623157e308, float("inf"), float("-inf"), float("nan")]
DOUBLES = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_DOUBLES)


@st.composite
def stored_matrices(draw):
    size = draw(st.integers(1, 5))
    re = draw(st.lists(DOUBLES, min_size=size * size, max_size=size * size))
    if draw(st.booleans()):
        im = draw(st.lists(DOUBLES, min_size=size * size, max_size=size * size))
    else:  # a real matrix, with or without negative zeros
        im = [draw(st.sampled_from([0.0, -0.0]))] * (size * size)
    matrix = (np.array(re) + 0j).reshape(size, size)
    matrix.imag = np.array(im).reshape(size, size)
    matrix.setflags(write=False)
    return Stored(matrix, (size,))


@settings(max_examples=200, deadline=None)
@given(stored_matrices())
def test_state_text_matches_the_per_cell_writer(state):
    assert state_to_json(state) == reference_state_to_json(state)


@pytest.mark.parametrize("two_l", [1, 2, 3, 4])
def test_bound_file_operators_match_the_per_cell_rows(two_l):
    ops = list(spin_components(SpinQuantum(two_l)))
    ops.append(np.array([[-0.0 + 1e-310j, 1e-310 - 0.0j], [5e-324 + 0j, -0.0 - 0.0j]]))
    ops.append(np.array([[1.0, -0.0], [-0.0, 2.0]]))  # a real operator
    for op in ops:
        assert json.dumps(_matrix_to_rows(op)) == json.dumps(reference_matrix_to_rows(op))


def test_stored_layout_does_not_change_text_or_digest():
    rho = random_mixed_state(4, np.random.default_rng(31), dims=(2, 2))
    big = np.zeros((8, 8), dtype=complex)
    big[::2, ::2] = rho.matrix
    for matrix in (np.asfortranarray(rho.matrix), big[::2, ::2]):
        assert not matrix.flags.c_contiguous
        again = DensityMatrix(matrix, (2, 2))
        assert again.matrix.flags.c_contiguous
        assert np.array_equal(again.matrix, rho.matrix)
        assert state_to_json(again) == state_to_json(rho)
        assert state_digest(again) == rho.digest


# --- read side ----------------------------------------------------------------

# integers that round when converted, and ones beyond the float range
INTS = st.integers(-(2**1100), 2**1100) | st.sampled_from(
    [0, 1, -1, 2**53 + 1, -(2**53 + 1), 2**63, 2**64 + 1, 10**400,
     2**1024 - 2**970 - 1, 2**1024 - 2**970]
)
LEAVES = DOUBLES | INTS


@st.composite
def json_rows(draw):
    size = draw(st.integers(1, 5))
    leaves = draw(st.lists(LEAVES, min_size=2 * size * size, max_size=2 * size * size))
    cells = [leaves[k : k + 2] for k in range(0, len(leaves), 2)]
    return [cells[i * size : (i + 1) * size] for i in range(size)], size


@settings(max_examples=300, deadline=None)
@given(json_rows())
def test_matrix_matches_the_per_cell_reader(case):
    rows, size = case
    expected = _outcome(reference_matrix_from_rows, rows, size)
    assert _outcome(matrix_from_rows, rows, size) == expected


def test_matrix_keeps_each_pair_bit_for_bit():
    rows = [
        [[-0.0, -0.0], [float("inf"), 5e-324]],
        [[2**53 + 1, -(2**64 + 1)], [1e-310, float("-inf")]],
    ]
    matrix = matrix_from_rows(rows, 2, "m", StateFormatError)
    assert matrix.tobytes() == np.array(
        [-0.0, -0.0, np.inf, 5e-324, 2.0**53, -(2.0**64), 1e-310, -np.inf]
    ).tobytes()


def _square(size):
    return [[[0.25, 0.0] for _ in range(size)] for _ in range(size)]


BAD_LEAVES = [True, False, "0.5", None, [0.5], {}, 10**400, -(10**400)]


@pytest.mark.parametrize("bad", BAD_LEAVES, ids=repr)
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 2, 1), (2, 2, 0)])
def test_bad_leaf_names_the_first_bad_entry(bad, where):
    i, j, k = where
    rows = _square(3)
    rows[i][j][k] = bad
    if (i, j) != (2, 2):
        rows[2][2][1] = "later"  # a second bad entry further on is not named
    outcome = _outcome(matrix_from_rows, rows, 3)
    assert outcome == _outcome(reference_matrix_from_rows, rows, 3)
    if isinstance(bad, int) and not isinstance(bad, bool):
        problem = "is out of floating-point range"
    else:
        problem = "must be a [re, im] pair"
    assert outcome == (StateFormatError, f'"matrix" entry ({i},{j}) {problem}')


@pytest.mark.parametrize(
    "cell, where",
    [
        ([0.5], (0, 1)),
        ([0.5, 0.0, 0.0], (1, 0)),
        (0.5, (2, 1)),
        ("ab", (0, 2)),
        ({"re": 0.5}, (1, 1)),
        ([], (2, 2)),
    ],
    ids=repr,
)
def test_bad_cell_names_the_first_bad_entry(cell, where):
    # a one-element and a three-element cell together still hold 2*size^2
    # leaves: the count alone must not let them through
    i, j = where
    rows = _square(3)
    rows[i][j] = cell
    rows[2][2] = [0.5, 0.0, 0.0] if where != (2, 2) else []
    outcome = _outcome(matrix_from_rows, rows, 3)
    assert outcome == _outcome(reference_matrix_from_rows, rows, 3)
    assert outcome == (StateFormatError, f'"matrix" entry ({i},{j}) must be a [re, im] pair')


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[[1, 0], [0, 0]], 5], '"matrix" row 1 must have 2 entries'),
        ([[[1, 0]], [[0, 0], [0, 0]]], '"matrix" row 0 must have 2 entries'),
        ([[[1, 0], [0, 0]]], '"matrix" must be a list of 2 rows'),
        ({"rows": 2}, '"matrix" must be a list of 2 rows'),
    ],
    ids=repr,
)
def test_bad_row_is_refused_before_any_cell(rows, message):
    outcome = _outcome(matrix_from_rows, rows, 2)
    assert outcome == _outcome(reference_matrix_from_rows, rows, 2)
    assert outcome == (StateFormatError, message)
