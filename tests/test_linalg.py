from fractions import Fraction

import numpy as np
import pytest

from lurcert import linalg
from lurcert.linalg import (
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
)
from lurcert.spin_ops import SpinQuantum, ladder_raising, spin_components
from lurcert.states import NotPositiveError, singlet_state, validate


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


def test_coerced_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        linalg._coerced(np.ones((2, 3)))
    with pytest.raises(InvalidParameterError):
        linalg._coerced(np.array([[np.nan, 0], [0, 1]]))


def test_matrices_are_coerced_once_per_check(monkeypatch):
    # _coerced is the one coercion: ensure_hermitian and validation call it
    calls = []
    original = linalg._coerced

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(linalg, "_coerced", counting)
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
    strided real view of complex storage."""
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


# --- the Cholesky proof rule ---------------------------------------------


def proves(m, tolerance):
    """Whether ``linalg._proves_floor`` proves the floor of ``m``, formed
    as validation forms its Hermitian part."""
    m = np.asarray(m)
    return linalg._proves_floor(linalg._hermitian_part(m, linalg._difference(m)), tolerance)


def spectrum_matrices(least, dim, rng):
    """Unit-trace matrices whose least eigenvalue is exactly ``least``
    (up to the rounding of the trace): a real diagonal, the same diagonal
    permuted, and a complex diagonal."""
    rest = np.full(dim - 1, (1.0 - least) / (dim - 1))
    diagonal = np.diag(np.concatenate((rest, [least])))
    yield diagonal
    yield np.diag(rng.permutation(np.diag(diagonal)))
    yield np.diag(rng.permutation(np.diag(diagonal))).astype(complex)


@pytest.mark.parametrize("dim", [2, 9, 144])
def test_the_rule_never_proves_a_floor_below_minus_the_tolerance(dim):
    rng = np.random.default_rng([31, dim])
    for tolerance in (1e-9, 1e-6, 1e-3):
        for ulps in (1, 2, 4):
            least = -tolerance - ulps * dim * np.spacing(tolerance)
            for m in spectrum_matrices(least, dim, rng):
                assert np.linalg.eigvalsh(m)[0] == least
                assert not proves(m, tolerance)
                with pytest.raises(NotPositiveError):
                    validate(m, (dim,), tolerance)
            # a 1 + b J with a + b = 1/D, whose least eigenvalue a + D b is
            # exact in rationals: b is stepped down until it is below the floor
            b = (least - 1.0 / dim) / (dim - 1)
            a = 1.0 / dim - b
            while not Fraction(a) + dim * Fraction(b) < -Fraction(tolerance):
                b = np.nextafter(b, -1.0)
            assert not proves(a * np.eye(dim) + b * np.ones((dim, dim)), tolerance)
        # the same matrices a little inside the floor are proved
        for m in spectrum_matrices(-tolerance / 2, dim, rng):
            assert proves(m, tolerance)


@pytest.mark.parametrize("dim", [2, 9, 144])
def test_the_rule_proves_pure_and_mixed_states(dim):
    rng = np.random.default_rng([32, dim])
    ket = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ket /= np.linalg.norm(ket)
    for m in (np.outer(ket, ket.conj()), np.outer(ket.real, ket.real) / (ket.real @ ket.real),
              np.eye(dim) / dim):
        assert proves(m, linalg.DEFAULT_TOLERANCE)


def test_the_rule_does_not_factor_below_its_allowance(monkeypatch):
    def no_factor(a, *args, **kwargs):
        raise AssertionError("factored")

    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    # at D = 144 the allowance is about 1e-14, above this tolerance
    assert not proves(np.eye(144) / 144, 1e-15)


@pytest.mark.parametrize("real", [True, False])
def test_the_hermitian_part_of_a_hermitian_matrix_is_the_matrix(real):
    rng = np.random.default_rng([33, real])
    g = rng.standard_normal((9, 9))
    if not real:
        g = g + 1j * rng.standard_normal((9, 9))
    h = (g + g.conj().T) / 2
    part = linalg._hermitian_part(h, linalg._difference(h))
    assert np.array_equal(part, h)
    # and an anti-Hermitian part is taken off, whatever its size
    k = 1e300 * (g - g.conj().T)
    with np.errstate(all="raise"):
        part = linalg._hermitian_part(h + k, linalg._difference(h + k))
    assert np.abs(part - h).max() <= 1e-15 * np.abs(k).max()


def test_the_interval_search_keeps_its_allowance():
    for size in (2, 3, 16, 129):
        gamma = linalg._gamma(size + 1)
        assert linalg._demmel(size) == gamma / (1 - gamma)
    # the complex constant is sqrt(2) gamma_{2m+2}, above the real one
    assert linalg._demmel(9, True) > linalg._demmel(18)


@pytest.mark.parametrize("real", [True, False])
def test_a_pure_state_is_proved_in_every_layout(real):
    # the shift lands on the diagonal only in a C-ordered array, and a
    # rank-one state factors only when shifted
    rng = np.random.default_rng([34, real])
    ket = rng.standard_normal(9) + (0 if real else 1j) * rng.standard_normal(9)
    ket /= np.linalg.norm(ket)
    for layout in _layouts(np.outer(ket, ket.conj())):
        assert linalg._difference(layout).flags.c_contiguous
        assert proves(layout, linalg.DEFAULT_TOLERANCE)
