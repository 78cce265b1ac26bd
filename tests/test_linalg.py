import numpy as np
import pytest

from lurcert import linalg
from lurcert.linalg import (
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
)
from lurcert.spin_ops import SpinQuantum, ladder_raising, spin_components
from lurcert.states import singlet_state, validate


def test_multiply_pauli_halves():
    lx = spin_components(SpinQuantum(1)).operators[0]
    assert np.allclose(lx @ lx, np.eye(2) / 4)


def test_multiply_ladder_product():
    # L+ L- |m> = (l(l+1) - m(m-1)) |m| -> diag(2, 2, 0) for l = 1
    lp = ladder_raising(SpinQuantum(2))
    lm = lp.conj().T
    assert np.allclose(lp @ lm, np.diag([2.0, 2.0, 0.0]))


def test_adjoint_spin_operator_hermitian():
    ly = spin_components(SpinQuantum(2)).operators[1]
    assert np.allclose(ly.conj().T, ly)


def test_trace_values():
    lz = spin_components(SpinQuantum(2)).operators[2]
    assert abs(np.trace(lz)) < 1e-14


def test_trace_casimir_spin_one():
    # sum of squared components is l(l+1) identity, so the trace is 3 * 2
    ops = spin_components(SpinQuantum(2))
    total = sum(op @ op for op in ops)
    assert abs(np.trace(total) - 6.0) < 1e-12


def test_hermitian_eigen_spin_spectrum():
    lx = spin_components(SpinQuantum(2)).operators[0]
    assert np.allclose(np.linalg.eigvalsh(lx), [-1.0, 0.0, 1.0], atol=1e-12)


def test_hermitian_eigen_singlet_projector():
    rho = singlet_state(SpinQuantum(1))
    assert np.allclose(np.linalg.eigvalsh(rho.matrix), [0.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_ensure_hermitian_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError, match="deviates"):
        linalg.ensure_hermitian(m)


def test_as_square_matrix_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        linalg.as_square_matrix(np.ones((2, 3)))
    with pytest.raises(InvalidParameterError):
        linalg.as_square_matrix(np.array([[np.nan, 0], [0, 1]]))


def test_matrices_are_coerced_once_per_check(monkeypatch):
    calls = []
    original = linalg.as_square_matrix

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(linalg, "as_square_matrix", counting)
    linalg.ensure_hermitian(np.eye(2))
    assert len(calls) == 1
    # a built state is handed over unchecked; validate checks it once
    rho = singlet_state(SpinQuantum(1))
    assert len(calls) == 1
    validate(rho.matrix, rho.dims)
    assert len(calls) == 2


def test_tolerances_from_env(monkeypatch):
    monkeypatch.delenv(linalg.ENV_TOLERANCE_VAR, raising=False)
    assert linalg.tolerance_from_env() == linalg.DEFAULT_TOLERANCE == 1e-9
    monkeypatch.setenv(linalg.ENV_TOLERANCE_VAR, "1e-6")
    assert linalg.tolerance_from_env() == 1e-6
    monkeypatch.setenv(linalg.ENV_TOLERANCE_VAR, "bogus")
    with pytest.raises(InvalidParameterError, match="must be a number, got 'bogus'"):
        linalg.tolerance_from_env()


@pytest.mark.parametrize("raw", ["inf", "Infinity", "1e400", "nan", "-inf", "0", "-1e-6"])
def test_tolerances_from_env_refuses_non_finite_and_non_positive(raw, monkeypatch):
    # an infinite epsilon would accept any state with finite entries
    monkeypatch.setenv(linalg.ENV_TOLERANCE_VAR, raw)
    with pytest.raises(InvalidParameterError, match=linalg.ENV_TOLERANCE_VAR):
        linalg.tolerance_from_env()


def _difference_deviation(a):
    """The deviation as ``a - a^H`` with fresh temporaries: the reference
    for the in-place evaluation."""
    return float(np.abs(a - a.conj().T).max())


def _layouts(a):
    """``a`` C-ordered and Fortran-ordered, and for a real ``a`` also the
    strided real view of complex storage that validation checks a real
    state through."""
    yield np.ascontiguousarray(a)
    yield np.asfortranarray(a)
    if not np.iscomplexobj(a):
        yield np.array(a, dtype=complex).real


@pytest.mark.parametrize("dim", [2, 4, 9, 16, 144])
@pytest.mark.parametrize("real", [True, False])
def test_hermiticity_deviation_is_the_difference_deviation(dim, real):
    # the deviation is printed in the not-hermitian message, so it must be
    # the same float, on either side of the tolerance
    rng = np.random.default_rng([dim, real])
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    tol = linalg.DEFAULT_TOLERANCE
    for skew in (0.5 * tol, 2 * tol):
        a = h + 1e-13 * rng.standard_normal((dim, dim))
        a[0, 1] += skew
        for layout in _layouts(a):
            before = layout.copy()
            dev = linalg.hermiticity_deviation(layout)
            assert dev == _difference_deviation(layout)
            assert (dev > tol) == (skew > tol)
            assert np.array_equal(layout, before)
