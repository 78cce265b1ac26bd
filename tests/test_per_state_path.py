"""The per-state path of certify: built states, validation and moments.

The reference functions below spell out the per-state arithmetic in its
plainest form: explicit outer products of the Bell and singlet kets,
function-form partial traces, separate products with the rows of the A_i,
the A_i^2, the B_i and the B_i^2, and one imaginary-part guard per moment
row.  ``reference_score`` is the certificate arithmetic on numpy arrays.
Every stored matrix, moment, certificate field and digest must equal
theirs to the bit, for catalog joints and for random bound-file-like
joints of one, two and four components.
"""

import numpy as np
import pytest

from lurcert import states
from lurcert.linalg import DimensionMismatchError, InvalidParameterError
from lurcert.lur import (
    VERDICT_MARGIN,
    build_joint,
    certify,
    joint_from_catalog,
    joint_moments,
    score,
)
from lurcert.spin_ops import OperatorSet, SpinQuantum
from lurcert.states import (
    DensityMatrix,
    bell_kets,
    bell_mixture,
    maximally_mixed,
    singlet_ket,
    singlet_state,
    state_digest,
    validate,
    white_noise_mixture,
    x_basis_kets,
    x_decoherence_mixture,
)
from lurcert.uncertainty import clip_variance, real_part

from oracles import random_mixed_state, random_product_state, random_pure_state

DRAWS = 300
RELATIONS = {
    (2, 2): ("l3", "s3", "l2n2", "s2n2"),
    (3, 3): ("l3", "s3", "l2n3", "s2n3"),
    (4, 4): ("l3", "s3"),
    (2, 3): ("l3", "s3"),
}


def _projector(ket):
    return np.outer(ket, ket.conj())


def reference_bell_mixture(weights):
    matrix = np.zeros((4, 4), dtype=complex)
    for w, ket in zip(weights, bell_kets().values()):
        matrix += w * _projector(ket.amplitudes)
    return matrix


def reference_white_noise_mixture(spin, p_w):
    n = spin.dim
    sing = singlet_ket(spin).amplitudes
    return (1 - p_w) * _projector(sing) + p_w * np.eye(n * n) / (n * n)


def reference_x_decoherence_mixture(p_d):
    matrix = (1 - p_d) * _projector(singlet_ket(SpinQuantum(2)).amplitudes)
    minus, zero, plus = x_basis_kets()
    for a, b in ((minus, plus), (zero, zero), (plus, minus)):
        matrix += (p_d / 3) * _projector(np.kron(a, b))
    return matrix


def _rows(ops):
    return ops.transpose(0, 2, 1).reshape(len(ops), -1)


def reference_moments(matrix, joint):
    da, db = joint.dim_a, joint.dim_b
    ops_a, ops_b = np.array(joint.set_a.operators), np.array(joint.set_b.operators)
    vec_a, vec_b, sq_a, sq_b = (_rows(o) for o in (ops_a, ops_b, ops_a @ ops_a, ops_b @ ops_b))
    r = matrix.reshape(da, db, da, db)
    rho_a = np.trace(r, axis1=1, axis2=3).reshape(-1)
    rho_b = np.trace(r, axis1=0, axis2=2).reshape(-1)
    pairs = r.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    scales = joint.guard_scales
    mean = real_part(vec_a @ rho_a + vec_b @ rho_b, scales)
    second = real_part(
        sq_a @ rho_a + sq_b @ rho_b + 2 * ((vec_a @ pairs) * vec_b).sum(axis=1), scales
    )
    return mean, second


def reference_score(moments, joint):
    """Clipped variances, total, C and verdict from the numpy rows
    (<J_i>, <J_i^2>), with array products and differences."""
    mean, second = moments
    per_component = tuple(
        v if v >= 0 else clip_variance(v, s)
        for v, s in zip((second - mean * mean).tolist(), joint.guard_scales)
    )
    total = sum(per_component)
    limit = joint.local_limit
    return per_component, total, 1.0 - total / limit, total < limit - VERDICT_MARGIN


def _random_joint(dims, count, rng):
    """A joint of ``count`` random Hermitian components per side, the kind
    a bound file brings."""

    def side(d):
        ops = []
        for _ in range(count):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ops.append((g + g.conj().T) / 2)
        return OperatorSet(label=f"random-{d}", operators=tuple(ops))

    return build_joint(side(dims[0]), 0.1, side(dims[1]), 0.1)


def assert_bit_identical(rho, reference_matrix, joints):
    matrix = np.array(reference_matrix, dtype=complex, order="C")
    assert rho.matrix.tobytes() == matrix.tobytes()
    digest = state_digest(DensityMatrix(matrix, rho.dims))
    for joint in joints:
        want = reference_moments(matrix, joint)
        got = joint_moments(rho, joint)
        assert [row.tobytes() for row in got] == [row.tobytes() for row in want]
        cert = certify(rho, joint)
        ref = score(want, joint)
        # float arithmetic equals the arrays'
        assert ref == reference_score(want, joint)
        assert cert.per_component == ref.per_component
        assert cert.total == ref.total
        assert cert.relative_violation == ref.relative_violation
        assert cert.entangled == ref.entangled
        assert cert.state_digest == digest


def _catalog(dims):
    return [joint_from_catalog(rel, *dims) for rel in RELATIONS[dims]]


def test_bell_mixtures_are_bit_identical_to_the_outer_product_sum():
    rng = np.random.default_rng(1701)
    joints = _catalog((2, 2))
    for _ in range(DRAWS):
        weights = tuple(float(w) for w in rng.dirichlet(np.ones(4)))
        assert_bit_identical(bell_mixture(*weights), reference_bell_mixture(weights), joints)


@pytest.mark.parametrize("two_l", [1, 2, 3])
def test_white_noise_mixtures_are_bit_identical(two_l):
    rng = np.random.default_rng([1702, two_l])
    spin = SpinQuantum(two_l)
    joints = _catalog((spin.dim, spin.dim))
    for _ in range(DRAWS):
        p_w = float(rng.uniform())
        assert_bit_identical(
            white_noise_mixture(spin, p_w), reference_white_noise_mixture(spin, p_w), joints
        )


def test_x_decoherence_mixtures_are_bit_identical():
    rng = np.random.default_rng(1703)
    joints = _catalog((3, 3))
    for _ in range(DRAWS):
        p_d = float(rng.uniform())
        assert_bit_identical(
            x_decoherence_mixture(p_d), reference_x_decoherence_mixture(p_d), joints
        )


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_random_states_certify_bit_identically(dims):
    rng = np.random.default_rng([1704, *dims])
    d = dims[0] * dims[1]
    joints = _catalog(dims) + [_random_joint(dims, count, rng) for count in (1, 2, 4)]
    for k in range(DRAWS):
        if k % 3 == 0:
            matrix = random_mixed_state(d, rng).matrix
        elif k % 3 == 1:
            matrix = random_pure_state(d, rng).projector().matrix
        else:
            matrix = random_product_state(*dims, rng, pure=bool(k % 2)).matrix
        # a fresh writable copy, as a caller's own array would be
        matrix = np.array(matrix)
        assert_bit_identical(validate(matrix, dims), matrix, joints)


def test_built_states_use_the_import_time_projectors(monkeypatch):
    weights = (0.4, 0.3, 0.2, 0.1)
    bell_want = reference_bell_mixture(weights)
    x_want = reference_x_decoherence_mixture(0.3)

    def refuse(*args, **kwargs):
        raise AssertionError("rebuilt a component that is built at import")

    monkeypatch.setattr(states, "singlet_ket", refuse)
    monkeypatch.setattr(states.np, "outer", refuse)
    assert bell_mixture(*weights).matrix.tobytes() == bell_want.tobytes()
    assert x_decoherence_mixture(0.3).matrix.tobytes() == x_want.tobytes()


def test_white_noise_mixture_skips_the_pure_state_round_trip(monkeypatch):
    spin = SpinQuantum(3)
    want = reference_white_noise_mixture(spin, 0.25)

    def refuse(*args, **kwargs):
        raise AssertionError("built a PureState")

    monkeypatch.setattr(states.PureState, "__post_init__", refuse)
    assert white_noise_mixture(spin, 0.25).matrix.tobytes() == want.tobytes()
    # the l = 0 refusal is kept
    with pytest.raises(InvalidParameterError, match="l = 0"):
        white_noise_mixture(SpinQuantum(0), 0.25)


@pytest.mark.parametrize(
    "projector",
    [*states._BELL_PROJECTORS, states._SPIN1_SINGLET_PROJECTOR, *states._X_PRODUCT_PROJECTORS],
)
def test_import_time_projectors_are_read_only(projector):
    with pytest.raises(ValueError, match="read-only"):
        projector[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        projector *= 2.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: bell_mixture(0.1, 0.2, 0.3, 0.4),
        lambda: white_noise_mixture(SpinQuantum(2), 0.3),
        lambda: x_decoherence_mixture(0.3),
        lambda: singlet_state(SpinQuantum(1)),
        lambda: maximally_mixed((2, 3)),
        lambda: validate(np.eye(4) / 4, (2, 2)),
    ],
)
def test_each_built_state_is_validated_once(monkeypatch, build):
    original = DensityMatrix.__post_init__
    calls = []

    def counting(self, tolerance):
        calls.append(self.dims)
        return original(self, tolerance)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    rho = build()
    assert len(calls) == 1
    assert not rho.matrix.flags.writeable


@pytest.mark.parametrize("dims", [(2.7, 2), ("2", "2"), (True, 4), (2, False), 4.9, True, None, "4"])
def test_malformed_dims_are_refused(dims):
    with pytest.raises(DimensionMismatchError, match="positive integers"):
        validate(np.eye(4) / 4, dims)


def test_integer_dims_are_accepted_as_ints():
    for dims in ((np.int64(2), np.int32(2)), [2, 2], np.array([2, 2])):
        rho = validate(np.eye(4) / 4, dims)
        assert rho.dims == (2, 2)
        assert all(type(d) is int for d in rho.dims)
    assert validate(np.eye(4) / 4, np.int8(4)).dims == (4,)


def test_maximally_mixed_checks_dims_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the dims were checked")

    monkeypatch.setattr(states.np, "full", refuse)
    for dims in ((2.5, 2), ("2", "2"), (True, 2), 4.9):
        with pytest.raises(DimensionMismatchError, match="positive integers"):
            maximally_mixed(dims)


def test_moments_refuse_what_is_not_a_density_matrix():
    joint = joint_from_catalog("l3", 2, 2)
    with pytest.raises(InvalidParameterError, match="got ndarray"):
        certify(np.eye(4) / 4, joint)
    with pytest.raises(InvalidParameterError, match="got PureState"):
        joint_moments(singlet_ket(SpinQuantum(1)), joint)
