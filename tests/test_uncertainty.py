import numpy as np
import pytest

from lurcert.linalg import (
    DimensionMismatchError,
    InvalidParameterError,
    LurcertError,
    NotHermitianError,
)
from lurcert.spin_ops import SpinQuantum, spin_components, stokes_components
from lurcert.states import validate
from lurcert.uncertainty import (
    ANALYTIC,
    CATALOG_KINDS,
    catalog_bound,
    clip_variance,
    variance,
)

from oracles import random_mixed_state, random_pure_state, sum_uncertainty


def basis_state(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return validate(np.outer(v, v.conj()), (dim,))


def test_variance_eigenstate_is_zero():
    lz = spin_components(SpinQuantum(2)).operators[2]
    rho = basis_state(3, 0)  # |m=+1>
    assert variance(rho, lz) == 0.0


def test_variance_transverse_component():
    # Tr(rho Lx^2) = (l(l+1) - m^2)/2 = 1/2 for l = 1, m = 1
    lx = spin_components(SpinQuantum(2)).operators[0]
    assert abs(variance(basis_state(3, 0), lx) - 0.5) < 1e-14


def test_variance_maximally_mixed_qubit():
    s1 = stokes_components(1).operators[0]
    rho = validate(np.eye(2) / 2, (2,))
    assert abs(variance(rho, s1) - 1.0) < 1e-14
    assert np.trace(rho.matrix @ s1).real == 0.0


def test_variance_input_checks():
    rho = basis_state(2, 0)
    with pytest.raises(DimensionMismatchError):
        variance(rho, np.eye(3))
    with pytest.raises(NotHermitianError):
        variance(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sum_uncertainty_qubit_pure_states():
    # l(l+1) - |<L>|^2 with |<L>| = 1/2 on the Bloch sphere: always 1/2
    rng = np.random.default_rng(21)
    ops = spin_components(SpinQuantum(1))
    for _ in range(50):
        rho = random_pure_state(2, rng).projector()
        assert abs(sum_uncertainty(rho, ops) - 0.5) < 1e-12


def test_sum_uncertainty_coherent_state_attains_spin_bound():
    # eigenstate of L_x with L_x = +l saturates the bound l
    spin = SpinQuantum(2)
    lx = spin_components(spin).operators[0]
    _, vecs = np.linalg.eigh(lx)
    rho = validate(np.outer(vecs[:, -1], vecs[:, -1].conj()), (3,))
    assert abs(sum_uncertainty(rho, spin_components(spin)) - 1.0) < 1e-12


def test_sum_uncertainty_min_state():
    from lurcert.spin_ops import spin_subset
    from lurcert.states import min_uncertainty_state_n3

    rho = min_uncertainty_state_n3(0.0).projector()
    assert abs(sum_uncertainty(rho, spin_subset(SpinQuantum(2), "xy")) - 7 / 16) < 1e-12


def test_catalog_values():
    assert catalog_bound("spin3", SpinQuantum(3)).bound == 1.5
    assert catalog_bound("stokes3", 1).bound == 2.0
    rel = catalog_bound("spin2_N3", SpinQuantum(2))
    assert rel.bound == 7 / 16
    assert rel.provenance == ANALYTIC
    assert catalog_bound("spin2_N2", SpinQuantum(1)).bound == 0.25
    assert catalog_bound("stokes2_N2", 1).bound == 1.0
    assert catalog_bound("stokes2_N3", 2).bound == 7 / 4


def test_catalog_kind_size_mismatch():
    with pytest.raises(InvalidParameterError):
        catalog_bound("spin2_N2", SpinQuantum(2))
    with pytest.raises(InvalidParameterError):
        catalog_bound("stokes2_N3", 1)
    with pytest.raises(InvalidParameterError):
        catalog_bound("spin3", 2)  # spin kinds take a SpinQuantum
    with pytest.raises(InvalidParameterError):
        catalog_bound("stokes3", SpinQuantum(2))
    with pytest.raises(InvalidParameterError):
        catalog_bound("nope", SpinQuantum(2))


def catalog_entries():
    return [
        catalog_bound("spin3", SpinQuantum(1)),
        catalog_bound("spin3", SpinQuantum(2)),
        catalog_bound("stokes3", 1),
        catalog_bound("stokes3", 2),
        catalog_bound("spin2_N2", SpinQuantum(1)),
        catalog_bound("stokes2_N2", 1),
        catalog_bound("spin2_N3", SpinQuantum(2)),
        catalog_bound("stokes2_N3", 2),
    ]


@pytest.mark.parametrize("relation", catalog_entries(), ids=lambda r: r.operator_set.label)
def test_no_catalog_bound_violated_by_random_states(relation):
    rng = np.random.default_rng(22)
    dim = relation.operator_set.dim
    worst = np.inf
    for k in range(10_000):
        if k % 2:
            rho = random_pure_state(dim, rng).projector()
        else:
            rho = random_mixed_state(dim, rng)
        worst = min(worst, sum_uncertainty(rho, relation.operator_set))
    assert worst >= relation.bound - 1e-10


def test_three_component_pure_state_identity():
    rng = np.random.default_rng(23)
    for two_l in (1, 2, 3):
        spin = SpinQuantum(two_l)
        ops = spin_components(spin)
        l = spin.l
        for _ in range(30):
            rho = random_pure_state(spin.dim, rng).projector()
            mean_sq = sum(np.trace(rho.matrix @ op).real ** 2 for op in ops)
            expected = l * (l + 1) - mean_sq
            assert abs(sum_uncertainty(rho, ops) - expected) < 1e-10


def test_variance_unitary_invariance():
    rng = np.random.default_rng(24)
    for _ in range(10):
        rho = random_mixed_state(3, rng)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (m + m.conj().T) / 2
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        u = (v * np.exp(1j * w)) @ v.conj().T
        rho_rot = validate(u @ rho.matrix @ u.conj().T, (3,))
        a_rot = u @ a @ u.conj().T
        assert abs(variance(rho_rot, a_rot) - variance(rho, a)) < 1e-9


def test_variance_never_negative():
    rng = np.random.default_rng(25)
    for _ in range(200):
        rho = random_mixed_state(2, rng)
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = (m + m.conj().T) / 2
        assert variance(rho, a) >= 0.0


def test_catalog_kind_list_is_complete():
    assert set(CATALOG_KINDS) == {
        "spin3",
        "stokes3",
        "spin2_N2",
        "stokes2_N2",
        "spin2_N3",
        "stokes2_N3",
    }


def test_guards_scale_with_the_traces():
    assert clip_variance(-1e-13) == 0.0
    with pytest.raises(LurcertError, match="negative beyond tolerance"):
        clip_variance(-1e-6)
    assert clip_variance(-1e-6, 1e7) == 0.0
    with pytest.raises(LurcertError, match="negative beyond tolerance"):
        clip_variance(-1e-6, 1e5)


# every size a Stokes kind accepts, with its spin twin: S_i = 2 L_i at l = n/2
STOKES_TWINS = [
    *(("stokes3", "spin3", n) for n in range(64)),
    ("stokes2_N2", "spin2_N2", 1),
    ("stokes2_N3", "spin2_N3", 2),
]


@pytest.mark.parametrize("stokes, spin, n", STOKES_TWINS)
def test_a_stokes_entry_is_its_spin_twin_scaled(stokes, spin, n):
    s_rel = catalog_bound(stokes, n)
    l_rel = catalog_bound(spin, SpinQuantum(n))
    # bit for bit: doubling and the power-of-two scale of the limit round nothing
    assert s_rel.bound == 4 * l_rel.bound
    assert len(s_rel.operator_set) == len(l_rel.operator_set)
    for s_op, l_op in zip(s_rel.operator_set, l_rel.operator_set):
        assert np.array_equal(s_op, 2 * l_op)
        assert s_op.tobytes() == (2 * l_op).tobytes()
