"""Partial-transpose oracle for the verdicts: a negative partial transpose
is necessary and sufficient for entanglement at 2x2 and 2x3 (Peres;
Horodecki, Horodecki and Horodecki), so every ENTANGLED verdict on those
dims must come with one.  Separable mixtures must never be flagged."""

import numpy as np
import pytest

from lurcert.linalg import InvalidParameterError
from lurcert.lur import RELATION_KINDS, certify, joint_from_catalog
from lurcert.spin_ops import SpinQuantum
from lurcert.states import bell_mixture, singlet_state, validate

from oracles import random_mixed_state, random_product_state, random_pure_state


def min_partial_transpose_eigenvalue(rho):
    dim_a, dim_b = rho.dims
    blocks = rho.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    transposed = blocks.transpose(0, 3, 2, 1).reshape(dim_a * dim_b, dim_a * dim_b)
    return np.linalg.eigvalsh(transposed)[0]


def valid_joints(dim_a, dim_b):
    joints = []
    for relation in RELATION_KINDS:
        try:
            joints.append(joint_from_catalog(relation, dim_a, dim_b))
        except InvalidParameterError:
            continue
    return joints


def sample_states(dim_a, dim_b, rng):
    dims = (dim_a, dim_b)
    for _ in range(200):
        yield random_mixed_state(dim_a * dim_b, rng, dims=dims)
        yield random_pure_state(dim_a * dim_b, rng).projector(dims=dims)
    for _ in range(100):
        yield random_product_state(dim_a, dim_b, rng, pure=bool(rng.integers(2)))
    if dims == (2, 2):
        for weights in rng.dirichlet(np.ones(4), size=200):
            yield bell_mixture(*weights)


def test_partial_transpose_oracle_reference_points():
    assert min_partial_transpose_eigenvalue(singlet_state(SpinQuantum(1))) == pytest.approx(-0.5)
    rng = np.random.default_rng(5)
    assert min_partial_transpose_eigenvalue(random_product_state(2, 3, rng)) > 0


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2)])
def test_entangled_verdicts_have_negative_partial_transpose(dims):
    joints = valid_joints(*dims)
    assert {j.label for j in joints} >= {"l3", "s3"}
    rng = np.random.default_rng([17, *dims])
    entangled = 0
    for rho in sample_states(*dims, rng):
        ppt_min = None
        for joint in joints:
            if certify(rho, joint).entangled:
                entangled += 1
                if ppt_min is None:
                    ppt_min = min_partial_transpose_eigenvalue(rho)
                assert ppt_min < 0, (joint.label, rho)
    assert entangled > 0


def separable_mixtures(dim_a, dim_b, rng, count):
    """Convex sums of 2 to 4 random product states, pure or mixed."""
    for _ in range(count):
        terms = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(terms))
        matrix = sum(
            w * random_product_state(dim_a, dim_b, rng, pure=bool(rng.integers(2))).matrix
            for w in weights
        )
        yield validate(matrix, (dim_a, dim_b))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_no_false_positives_on_separable_mixtures(dims):
    joints = valid_joints(*dims)
    rng = np.random.default_rng([23, *dims])
    for rho in separable_mixtures(*dims, rng, 500):
        for joint in joints:
            assert not certify(rho, joint).entangled, (joint.label, rho)
        if dims != (3, 3):
            assert min_partial_transpose_eigenvalue(rho) > -1e-12
