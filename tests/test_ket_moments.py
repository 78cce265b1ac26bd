"""The moments of a ket and of 1/D, taken without a D x D matrix, agree
with ``joint_moments`` on the built density matrix."""

import numpy as np
import pytest

from lurcert.linalg import InvalidParameterError
from lurcert.lur import (
    RELATION_KINDS,
    _ket_moments,
    _mixed_moments,
    build_joint,
    joint_from_catalog,
    joint_moments,
)
from lurcert.spin_ops import OperatorSet
from lurcert.states import maximally_mixed

from oracles import random_pure_state

# the number of catalog relations valid for each pair of dims
CATALOG = {(2, 2): 4, (2, 3): 2, (3, 3): 4, (4, 4): 2}
DIMS = list(CATALOG)
KETS = 200


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def joints(dims, rng):
    """Every catalog relation valid for ``dims``, then random Hermitian
    joints of 1, 2 and 4 components."""
    found = []
    for relation in RELATION_KINDS:
        try:
            found.append(joint_from_catalog(relation, *dims))
        except InvalidParameterError:
            pass  # a relation for other dimensions
    for count in (1, 2, 4):
        sides = [
            OperatorSet(f"random{count}", tuple(random_hermitian(d, rng) for _ in range(count)))
            for d in dims
        ]
        found.append(build_joint(sides[0], 1.0, sides[1], 1.0))
    return found


def assert_close(got, want, joint):
    scales = np.array(joint.guard_scales)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == float and g.shape == w.shape == scales.shape
        assert (np.abs(g - w) <= 1e-13 * scales).all(), (joint.label, g - w)


def dims_id(dims):
    return f"{dims[0]}x{dims[1]}"


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_ket_moments_match_the_projector(dims):
    rng = np.random.default_rng(sum(dims) * 100 + dims[0])
    found = joints(dims, rng)
    assert len(found) == CATALOG[dims] + 3
    for _ in range(KETS):
        ket = random_pure_state(dims[0] * dims[1], rng)
        rho = ket.projector(dims)
        for joint in found:
            assert_close(_ket_moments(ket, joint), joint_moments(rho, joint), joint)


@pytest.mark.parametrize("dims", DIMS, ids=dims_id)
def test_mixed_moments_match_the_maximally_mixed_state(dims):
    rng = np.random.default_rng(7 + dims[0] * dims[1])
    rho = maximally_mixed(dims)
    for joint in joints(dims, rng):
        assert_close(_mixed_moments(joint), joint_moments(rho, joint), joint)
