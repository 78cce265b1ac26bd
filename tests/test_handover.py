"""The trust boundary: state constructors whose output is valid by
construction hand it over unchecked, and every input from outside is
checked and copied.

Each handed-over state must pass ``validate`` at the default tolerance and
keep its bytes there.  Each built spin or Stokes matrix, which
``OperatorSet._adopt`` hands over unchecked, must be Hermitian to the bit,
and a file that holds such matrices is checked again when it is read.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lurcert import cli, states
from lurcert.linalg import InvalidParameterError, ensure_hermitian, hermiticity_deviation
from lurcert.lur import closed_form_violation
from lurcert.spin_ops import (
    OperatorSet,
    SpinQuantum,
    spin_components,
    spin_subset,
    stokes_components,
    stokes_subset,
)
from lurcert.states import (
    DensityMatrix,
    PureState,
    bell_mixture,
    bell_states,
    family_weights,
    maximally_mixed,
    singlet_state,
    validate,
    white_noise_mixture,
    x_decoherence_mixture,
)

# White and singlet states up to D = 1024; a D = 4096 state (2l = 63) is
# 268 MB, and validating it takes about 1 GB.
TWO_L = st.integers(1, 31)
FRACTION = st.floats(0.0, 1.0)


def assert_valid_as_built(state):
    """``state`` passes ``validate`` at the default tolerance, which keeps
    its dims and bytes."""
    checked = validate(state.matrix, state.dims)
    assert checked.dims == state.dims
    assert checked.matrix.dtype == state.matrix.dtype == complex
    assert checked.matrix.tobytes() == state.matrix.tobytes()
    assert not state.matrix.flags.writeable


@st.composite
def simplex_points(draw):
    """Four weights on the probability simplex, with any face (vertices and
    edges included) as likely as the interior."""
    support = draw(st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    raw = [draw(st.floats(1e-6, 1.0)) if inside else 0.0 for inside in support]
    return tuple(w / sum(raw) for w in raw)


@settings(max_examples=200, deadline=None)
@given(simplex_points())
@example((1.0, 0.0, 0.0, 0.0))
@example((0.0, 0.0, 0.0, 1.0))
@example((0.5, 0.0, 0.5, 0.0))
def test_bell_mixtures_are_valid_as_built(weights):
    assert_valid_as_built(bell_mixture(*weights))


@settings(max_examples=100, deadline=None)
@given(FRACTION)
@example(0.0)
@example(1.0)
def test_decohered_singlets_are_valid_as_built(p_d):
    assert_valid_as_built(x_decoherence_mixture(p_d))


@settings(max_examples=40, deadline=None)
@given(TWO_L, FRACTION)
@example(1, 0.0)
@example(1, 1.0)
@example(31, 0.5)
def test_white_noise_singlets_are_valid_as_built(two_l, p_w):
    assert_valid_as_built(white_noise_mixture(SpinQuantum(two_l), p_w))


@settings(max_examples=20, deadline=None)
@given(TWO_L)
@example(31)
def test_singlets_are_valid_as_built(two_l):
    assert_valid_as_built(singlet_state(SpinQuantum(two_l)))


@st.composite
def kets_and_dims(draw):
    """A unit ket of dimension d_a d_b <= 64, with dims (d_a, d_b), (D,) or
    None."""
    d_a, d_b = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    parts = st.floats(-1e3, 1e3, allow_subnormal=False)
    amps = np.array(draw(st.lists(st.tuples(parts, parts), min_size=d_a * d_b, max_size=d_a * d_b)))
    vector = amps[:, 0] + 1j * amps[:, 1]
    if not np.linalg.norm(vector) > 1e-100:
        vector[0] = 1.0
    dims = draw(st.sampled_from([(d_a, d_b), (d_a * d_b,), None]))
    return PureState.normalized(vector), dims


@settings(max_examples=200, deadline=None)
@given(kets_and_dims())
def test_projectors_are_valid_as_built(ket_dims):
    ket, dims = ket_dims
    state = ket.projector(dims)
    assert state.dims == ((ket.dim,) if dims is None else dims)
    assert_valid_as_built(state)


def test_bell_states_and_maximally_mixed_states_are_valid_as_built():
    for state in bell_states().values():
        assert_valid_as_built(state)
    for dims in ((1,), (7,), (2, 2), (3, 5), (8, 8)):
        assert_valid_as_built(maximally_mixed(dims))


def test_bell_states_do_not_share_the_import_time_projectors():
    for state, projector in zip(bell_states().values(), states._BELL_PROJECTORS):
        assert np.array_equal(state.matrix, projector)
        assert not np.shares_memory(state.matrix, projector)


def test_projector_checks_the_dims_it_is_given():
    ket = PureState.normalized(np.ones(6))
    assert ket.projector((2, 3)).dims == (2, 3)
    for dims, error in (((2, 2), "imply dimension 4"), ((2.0, 3), "positive integers"), ((0, 6), "positive integers")):
        with pytest.raises(ValueError, match=error):
            ket.projector(dims)


SUBSETS = ["".join(c) for k in (1, 2, 3) for c in itertools.permutations("xyz", k)]


@pytest.mark.parametrize("two_l", [*range(64), 100, 255])
def test_built_spin_and_stokes_sets_are_hermitian_to_the_bit(two_l):
    sets = [spin_components(SpinQuantum(two_l)), stokes_components(two_l)]
    sets += [spin_subset(SpinQuantum(two_l), axes) for axes in SUBSETS]
    sets += [stokes_subset(two_l, axes.translate(str.maketrans("xyz", "123"))) for axes in SUBSETS]
    for op_set in sets:
        for op in op_set:
            assert op is ensure_hermitian(op)
            assert hermiticity_deviation(op) == 0.0
            assert op.dtype == complex and op.shape == (two_l + 1, two_l + 1)
            assert not op.flags.writeable


@pytest.mark.parametrize("two_l", [0, 1, 2, 5, 12, 63])
def test_an_adopted_set_stores_what_the_checked_constructor_stores(two_l):
    sets = [spin_components(SpinQuantum(two_l)), stokes_components(two_l)]
    sets += [spin_subset(SpinQuantum(two_l), axes) for axes in SUBSETS]
    for adopted in sets:
        checked = OperatorSet(adopted.label, adopted.operators)
        assert (checked.label, checked.dim, len(checked)) == (adopted.label, adopted.dim, len(adopted))
        for kept, copied in zip(adopted, checked):
            assert not kept.flags.writeable and not copied.flags.writeable
            assert kept.dtype == copied.dtype and kept.shape == copied.shape
            assert kept.tobytes() == copied.tobytes()
    # the hand-over keeps the arrays it is given, marked read-only
    fresh = (np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex))
    adopted = OperatorSet._adopt("fresh", fresh)
    assert all(kept is given and not kept.flags.writeable for kept, given in zip(adopted, fresh))


def test_a_file_of_built_operators_made_non_hermitian_is_refused(tmp_path, capsys):
    # search-bound writes a built set's operators into its bound file; a
    # bound file or an operator file with one entry broken is refused on
    # the way back in, through OperatorSet(...)
    bound = tmp_path / "bound.json"
    assert cli.main(["search-bound", "--set", "spin:xy", "--two-l", "2", "--emit-bound", str(bound)]) == 0
    state = tmp_path / "state.json"
    assert cli.main(["state-gen", "--kind", "singlet", "--two-l", "2", "--out", str(state)]) == 0
    assert cli.main(["certify", "--state", str(state), "--relation", str(bound)]) == 3
    doc = json.loads(bound.read_text())
    doc["operators"][1][0][1] = [0.0, 0.5]  # L_y[0, 1] made -L_y[1, 0]^*
    bound.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (
        ["certify", "--state", str(state), "--relation", str(bound)],
        ["search-bound", "--set", str(bound), "--restarts", "2"],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(("error[bound-file]:", "error[not-hermitian]:")), err
        assert "L{x,y}(l=1)[1] deviates from Hermiticity" in err and len(err.splitlines()) == 1


def test_a_callers_arrays_are_copied():
    # the checks themselves are counted in test_per_state_path and
    # test_spin_ops
    given_matrix = np.eye(4, dtype=complex) / 4
    given_op = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    stored = (DensityMatrix(given_matrix, (2, 2)).matrix, OperatorSet("given", (given_op,)).operators[0])
    for given, kept in zip((given_matrix, given_op), stored):
        assert given.flags.writeable
        assert not np.shares_memory(kept, given)
        before = kept.copy()
        given[0, 0] = 5.0
        assert np.array_equal(kept, before)


BAD_PARAMETERS = [True, False, np.bool_(True), "0.5", b"0.5", 0.5j, None, [0.5], Fraction]


@pytest.mark.parametrize("bad", BAD_PARAMETERS, ids=repr)
def test_family_parameters_must_be_real_numbers(bad):
    spin = SpinQuantum(2)
    for build in (
        lambda: bell_mixture(bad, 0.5, 0.5, 0.0),
        lambda: bell_mixture(0.5, 0.5, 0.0, bad),
        lambda: white_noise_mixture(spin, bad),
        lambda: x_decoherence_mixture(bad),
        lambda: family_weights("white", (spin, bad)),
        lambda: family_weights("xdecoherence", (bad,)),
        lambda: family_weights("bell", (0.5, bad, 0.5, 0.0)),
        lambda: closed_form_violation("white", "l3", (spin, bad)),
        lambda: closed_form_violation("bell", "l3", (bad, 0.5, 0.5, 0.0)),
    ):
        with pytest.raises(InvalidParameterError, match="expected a real number"):
            build()


@pytest.mark.parametrize(
    "good", [0.5, np.float64(0.5), np.float32(0.5), np.float16(0.5), Fraction(1, 2), 1, np.int64(0)], ids=repr
)
def test_real_family_parameters_are_accepted(good):
    p = float(good)
    assert white_noise_mixture(SpinQuantum(1), good).matrix.tobytes() == (
        white_noise_mixture(SpinQuantum(1), p).matrix.tobytes()
    )
    assert x_decoherence_mixture(good).matrix.tobytes() == x_decoherence_mixture(p).matrix.tobytes()
    assert bell_mixture(good, 1 - p, 0, 0).matrix.tobytes() == bell_mixture(p, 1 - p, 0, 0).matrix.tobytes()
