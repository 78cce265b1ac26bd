import numpy as np
import pytest

from lurcert import linalg, spin_ops
from lurcert.linalg import InvalidParameterError, NotHermitianError
from lurcert.spin_ops import (
    OperatorSet,
    SpinQuantum,
    spin_components,
    spin_subset,
    stokes_components,
    stokes_subset,
)
from lurcert.uncertainty import catalog_bound

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def test_spin_quantum_basics():
    spin = SpinQuantum(3)
    assert spin.l == 1.5
    assert spin.dim == 4
    assert np.allclose(spin.m_values(), [1.5, 0.5, -0.5, -1.5])
    assert str(spin) == "3/2"
    with pytest.raises(InvalidParameterError):
        SpinQuantum(-1)
    with pytest.raises(InvalidParameterError):
        SpinQuantum(1.5)


def test_spin_half_is_pauli_over_two():
    ops = spin_components(SpinQuantum(1))
    for op, name in zip(ops, "xyz"):
        assert np.allclose(op, PAULI[name] / 2)
    total = sum(op @ op for op in ops)
    assert np.allclose(total, 0.75 * np.eye(2))


def test_spin_zero_is_trivial():
    ops = spin_components(SpinQuantum(0))
    for op in ops:
        assert op.shape == (1, 1)
        assert op[0, 0] == 0


def test_spin_one_commutator():
    lx, ly, lz = spin_components(SpinQuantum(2))
    assert np.abs(lx @ ly - ly @ lx - 1j * lz).max() < 1e-12


def test_stokes_single_photon_is_pauli():
    ops = stokes_components(1)
    for op, name in zip(ops, "xyz"):
        assert np.allclose(op, PAULI[name])


def test_stokes_zero_photons():
    for op in stokes_components(0):
        assert op.shape == (1, 1) and op[0, 0] == 0
    with pytest.raises(InvalidParameterError):
        stokes_components(-1)


# the three entry points that take a photon number
PHOTON_ENTRY_POINTS = {
    "stokes_components": stokes_components,
    "stokes_subset": lambda n: stokes_subset(n, "12"),
    "catalog_bound": lambda n: catalog_bound("stokes3", n).operator_set,
}


@pytest.mark.parametrize(
    "n, message",
    [(2.7, "must be an integer, got 2.7"), (True, "must be an integer, got True"),
     ("3", "must be an integer, got '3'"), (-1, "must be nonnegative, got -1")],
)
def test_stokes_refuses_a_photon_number_that_is_not_a_nonnegative_integer(n, message):
    # one check and one message, naming the photon number n, on every entry
    # point: the spin number two_l is not the caller's parameter here
    for name, build in PHOTON_ENTRY_POINTS.items():
        with pytest.raises(InvalidParameterError) as info:
            build(n)
        assert str(info.value) == f"photon number n {message}", name


def test_stokes_takes_a_numpy_integer_photon_number():
    ops = stokes_subset(np.int64(2), "12")
    assert ops.label == "S{1,2}(n=2)"
    for got, want in zip(ops, stokes_components(2).operators[:2]):
        assert np.array_equal(got, want)
    for name, build in PHOTON_ENTRY_POINTS.items():
        got = build(np.int64(2))
        assert len(got) in (2, 3) and got.label.endswith("(n=2)"), name
        for a, b in zip(got, stokes_components(2)):
            assert np.array_equal(a, b), name


def test_stokes_two_photon_casimir():
    ops = stokes_components(2)
    total = sum(op @ op for op in ops)
    assert np.allclose(total, 8.0 * np.eye(3))


def test_casimir_check_values():
    spin = spin_components(SpinQuantum(3))
    assert np.abs(sum(op @ op for op in spin) - 3.75 * np.eye(4)).max() < 1e-12
    pauli_set = stokes_components(1)
    total = sum(op @ op for op in pauli_set)
    assert np.abs(total - 3.0 * np.eye(2)).max() < 1e-12


@pytest.mark.parametrize("two_l", [0, 1, 2, 3, 4, 5, 6])
def test_su2_algebra(two_l):
    lx, ly, lz = spin_components(SpinQuantum(two_l))
    for a, b, c in ((lx, ly, lz), (ly, lz, lx), (lz, lx, ly)):
        assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-12


@pytest.mark.parametrize("two_l", [1, 2, 3, 4, 5, 6])
def test_component_spectra_isotropic(two_l):
    spin = SpinQuantum(two_l)
    expected = np.sort(spin.m_values())
    for op in spin_components(spin):
        assert np.abs(np.linalg.eigvalsh(op) - expected).max() < 1e-10


def test_max_z_eigenvalue_squared_is_l_squared():
    for two_l in (1, 2, 5):
        spin = SpinQuantum(two_l)
        lz = spin_components(spin).operators[2]
        assert abs(np.linalg.eigvalsh(lz)[-1] ** 2 - spin.l**2) < 1e-12


def test_subsets():
    xy = spin_subset(SpinQuantum(2), "xy")
    assert len(xy) == 2
    full = spin_components(SpinQuantum(2))
    assert np.allclose(xy.operators[0], full.operators[0])
    assert np.allclose(xy.operators[1], full.operators[1])
    s12 = stokes_subset(1, "12")
    assert np.allclose(s12.operators[0], PAULI["x"])
    with pytest.raises(InvalidParameterError):
        spin_subset(SpinQuantum(2), "xq")
    with pytest.raises(InvalidParameterError):
        spin_subset(SpinQuantum(2), "xx")
    with pytest.raises(InvalidParameterError):
        spin_subset(SpinQuantum(2), "")


@pytest.mark.parametrize("two_l", [0, 1, 2, 7])
def test_subsets_hand_over_the_picked_operators_unchecked(two_l, monkeypatch):
    # built sets are exactly Hermitian (test_handover), so no operator is
    # checked, and a subset holds the bits of the full set's members
    checked = []

    def counting(op, what="matrix"):
        checked.append(what)
        return linalg.ensure_hermitian(op, what)

    monkeypatch.setattr(spin_ops, "ensure_hermitian", counting)
    for subset, full, names in (
        (spin_subset, spin_components(SpinQuantum(two_l)), "xyz"),
        (stokes_subset, stokes_components(two_l), "123"),
    ):
        for picked in (names[2], names[:2], names[::-1]):
            checked.clear()
            size = SpinQuantum(two_l) if subset is spin_subset else two_l
            got = subset(size, picked)
            assert checked == []
            assert all(not op.flags.writeable for op in got)
            # the same bits as the picked members of the full set
            want = [full.operators[names.index(name)] for name in picked]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_operator_set_validation():
    with pytest.raises(InvalidParameterError):
        OperatorSet("empty", ())
    with pytest.raises(NotHermitianError):
        OperatorSet("bad", (np.array([[0.0, 1.0], [0.0, 0.0]]),))
    ok = OperatorSet("ok", (np.eye(2),))
    assert ok.dim == 2
    with pytest.raises(ValueError):
        ok.operators[0][0, 0] = 5.0  # stored matrices are read-only
