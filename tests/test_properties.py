"""Property tests: invariances the witness total must have, and exact state
files with stable digests."""

import hashlib
import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lurcert.lur import build_joint, certify, joint_from_catalog
from lurcert.spin_ops import OperatorSet, SpinQuantum, spin_components
from lurcert.states import singlet_state, state_from_json, state_to_json, validate

from oracles import random_mixed_state, random_pure_state

DIMS = st.tuples(st.integers(2, 4), st.integers(2, 4))


def _hermitian_set(dim, count, rng, label):
    ops = []
    for _ in range(count):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops.append((g + g.conj().T) / 2)
    return OperatorSet(label, tuple(ops))


def _state(dims, rng, pure):
    d = math.prod(dims)
    if pure:
        return random_pure_state(d, rng).projector(dims=dims)
    return random_mixed_state(d, rng, dims=dims)


@st.composite
def certify_inputs(draw):
    dims = draw(DIMS)
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    set_a = _hermitian_set(dims[0], count, rng, "A")
    set_b = _hermitian_set(dims[1], count, rng, "B")
    return dims, set_a, set_b, _state(dims, rng, draw(st.booleans()))


def _close(x, y):
    return abs(x - y) <= 1e-12 * max(1.0, abs(x))


@settings(max_examples=60, deadline=None)
@given(certify_inputs(), st.data())
def test_permuting_components_keeps_the_total(inputs, data):
    dims, set_a, set_b, rho = inputs
    order = data.draw(st.permutations(range(len(set_a))))
    permuted = build_joint(
        OperatorSet("A", tuple(set_a.operators[i] for i in order)), 1.0,
        OperatorSet("B", tuple(set_b.operators[i] for i in order)), 1.0,
    )
    cert = certify(rho, build_joint(set_a, 1.0, set_b, 1.0))
    again = certify(rho, permuted)
    assert _close(cert.total, again.total)
    assert all(_close(cert.per_component[i], v) for i, v in zip(order, again.per_component))


@settings(max_examples=60, deadline=None)
@given(certify_inputs())
def test_swapping_subsystems_keeps_the_total(inputs):
    (dim_a, dim_b), set_a, set_b, rho = inputs
    # SWAP rho SWAP^dag: r[a, b, a', b'] -> r[b, a, b', a']
    swapped = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b).transpose(1, 0, 3, 2)
    rho_swapped = validate(swapped.reshape(rho.dim, rho.dim), (dim_b, dim_a))
    cert = certify(rho, build_joint(set_a, 1.0, set_b, 2.0))
    again = certify(rho_swapped, build_joint(set_b, 2.0, set_a, 1.0))
    assert _close(cert.total, again.total)


@st.composite
def rotated_pairs(draw):
    """A state on two spin-l systems and the local rotation R (x) R of it,
    R = exp(-i theta n.L) built from the eigendecomposition of n.L."""
    spin = SpinQuantum(draw(st.integers(1, 3)))
    n = spin.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = _state((n, n), rng, draw(st.booleans()))
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    w, v = np.linalg.eigh(sum(a * op for a, op in zip(axis, spin_components(spin))))
    r = (v * np.exp(-1j * draw(st.floats(0, 2 * np.pi)) * w)) @ v.conj().T
    rr = np.kron(r, r)
    return rho, validate(rr @ rho.matrix @ rr.conj().T, (n, n))


@settings(max_examples=40, deadline=None)
@given(rotated_pairs(), st.sampled_from(["l3", "s3"]))
def test_local_rotation_keeps_the_total(pair, relation):
    rho, rotated = pair
    joint = joint_from_catalog(relation, *rho.dims)
    assert _close(certify(rho, joint).total, certify(rotated, joint).total)


@st.composite
def file_states(draw):
    """Random states, some with negative zeros in the imaginary diagonal."""
    dims = draw(st.sampled_from([(2,), (3,), (2, 2), (2, 3), (3, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = _state(dims, rng, draw(st.booleans())).matrix.copy()
    if draw(st.booleans()):
        matrix.imag[np.diag_indices(len(matrix))] = -0.0
    return validate(matrix, dims)


def recipe_digest(text):
    """The digest of a state file's text by README's recipe, without lurcert."""
    doc = json.loads(text)
    header = "lurcert-state/2 dims=" + ",".join(map(str, doc["dims"])) + "\n"
    doubles = np.array(doc["matrix"], dtype=float) + 0.0  # -0.0 -> +0.0
    return hashlib.sha256(header.encode("ascii") + doubles.astype("<f8").tobytes()).hexdigest()


@settings(max_examples=60, deadline=None)
@given(file_states())
def test_state_file_round_trip_is_exact_and_keeps_the_digest(rho):
    text = state_to_json(rho)
    back = state_from_json(text)
    assert back.dims == rho.dims
    assert np.array_equal(back.matrix, rho.matrix)
    assert state_to_json(back) == text
    assert back.digest == rho.digest == recipe_digest(text)


def pinned_digest(header, rows):
    """SHA-256 of the literal header and the literal (re, im) doubles of
    each row, packed as little-endian binary64."""
    doubles = [x for row in rows for x in row]
    return hashlib.sha256(header + struct.pack(f"<{len(doubles)}d", *doubles)).hexdigest()


_H = 0.4999999999999999  # (1/sqrt(2))^2 in doubles
PINNED_SINGLET_DIGEST = pinned_digest(
    b"lurcert-state/2 dims=2,2\n",
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, _H, 0.0, -_H, 0.0, 0.0, 0.0],
        [0.0, 0.0, -_H, 0.0, _H, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ],
)


def test_state_digest_is_pinned():
    # the stored spin-1/2 singlet holds negative zeros, hashed as +0.0
    rho = singlet_state(SpinQuantum(1))
    assert np.signbit(rho.matrix.view(float)[rho.matrix.view(float) == 0]).any()
    assert rho.digest == PINNED_SINGLET_DIGEST


PINNED_COMPLEX_TEXT = (
    '{"dims":[2],"matrix":[[[0.66666666666666663,0],[0.10000000000000001,-4.9406564584124654e-324]],'
    '[[0.10000000000000001,4.9406564584124654e-324],[0.33333333333333331,0]]]}'
)
PINNED_COMPLEX_DIGEST = pinned_digest(
    b"lurcert-state/2 dims=2\n",
    [
        [0.66666666666666663, 0.0, 0.10000000000000001, -4.9406564584124654e-324],
        [0.10000000000000001, 4.9406564584124654e-324, 0.33333333333333331, 0.0],
    ],
)


def test_complex_state_text_and_digest_are_pinned():
    # imaginary cells, 17-digit cells, subnormals and a negative zero
    # written and hashed as 0, in one state
    rho = validate([[complex(2 / 3, -0.0), 0.1 - 5e-324j], [0.1 + 5e-324j, 1 / 3]], (2,))
    assert state_to_json(rho) == PINNED_COMPLEX_TEXT
    assert rho.digest == PINNED_COMPLEX_DIGEST


def test_negative_and_positive_zero_share_a_digest():
    matrix = np.diag([0.5, 0.5]).astype(complex)
    negative = matrix.copy()
    negative.real[0, 1] = negative.real[1, 0] = -0.0
    negative.imag[:] = -0.0
    plus, minus = validate(matrix, (2,)), validate(negative, (2,))
    assert plus.matrix.tobytes() != minus.matrix.tobytes()
    assert plus.digest == minus.digest


def test_dims_are_part_of_the_digest():
    matrix = np.eye(4, dtype=complex) / 4
    assert validate(matrix, (4,)).digest != validate(matrix, (2, 2)).digest
