"""Property tests of certify: invariances the witness total must have."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lurcert.lur import build_joint, certify
from lurcert.spin_ops import OperatorSet
from lurcert.states import random_mixed_state, random_pure_state, validate

DIMS = st.tuples(st.integers(2, 4), st.integers(2, 4))


def _hermitian_set(dim, count, rng, label):
    ops = []
    for _ in range(count):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops.append((g + g.conj().T) / 2)
    return OperatorSet(label, tuple(ops))


def _state(dims, rng, pure):
    d = dims[0] * dims[1]
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
