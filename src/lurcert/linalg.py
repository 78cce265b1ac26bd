"""Dense complex linear algebra shared by all modules.

Operators and states are plain numpy ``complex128`` square arrays.  This
module owns the validation tolerance and the structured errors raised
when an input breaks a contract.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_TOLERANCE_VAR = "LURCERT_VALIDATION_TOL"


class LurcertError(ValueError):
    """Base class for structured errors; ``code`` is a stable machine tag."""

    code = "error"


class DimensionMismatchError(LurcertError):
    code = "dim-mismatch"


class NotHermitianError(LurcertError):
    code = "not-hermitian"


class InvalidParameterError(LurcertError):
    code = "invalid-parameter"


class BoundFileError(InvalidParameterError):
    """A bound file breaks its schema or holds an invalid relation."""

    code = "bound-file"


# The one validation tolerance: a state's deviation from Hermiticity and
# from unit trace may reach it, and its smallest eigenvalue may reach minus
# it.  Certified uncertainty bounds never depend on it.
DEFAULT_TOLERANCE = 1e-9


def tolerance_from_env() -> float:
    """The validation tolerance: ``LURCERT_VALIDATION_TOL`` when set, else
    ``DEFAULT_TOLERANCE``."""
    raw = os.environ.get(ENV_TOLERANCE_VAR)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        eps = float(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"{ENV_TOLERANCE_VAR} must be a number, got {raw!r}") from exc
    if not eps > 0:
        raise InvalidParameterError(f"{ENV_TOLERANCE_VAR} must be positive, got {raw!r}")
    # an infinite epsilon would switch every validation check off
    if not math.isfinite(eps):
        raise InvalidParameterError(f"{ENV_TOLERANCE_VAR} must be finite, got {raw!r}")
    return eps


# Entries of modulus below 2^1021 differ by less than 2^1022 in each part,
# so no difference of two of them, nor its modulus, passes the float range.
_MODERATE = 2.0**1021


def _coerced(data) -> tuple[np.ndarray, bool]:
    """``data`` as a complex square matrix, rejecting non-finite entries,
    and whether every entry's modulus is below ``_MODERATE``.  One pass of
    moduli answers that and, when it holds, finiteness too; only a matrix
    with a large or non-finite entry is checked for finiteness on its own."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    # count_nonzero, at a fraction of the call cost of the .all() reduction;
    # NaN compares below nothing
    moderate = np.count_nonzero(np.abs(m) < _MODERATE) == m.size
    if not moderate and np.count_nonzero(np.isfinite(m)) < m.size:
        raise InvalidParameterError("matrix entries must be finite")
    return m, moderate


def _difference(a: np.ndarray, moderate: bool = False) -> np.ndarray:
    """The differences ``a - a^H`` of the square array ``a`` of finite
    entries, in one fresh C-ordered array.  ``a`` is conjugated and
    transposed into it in one pass, which the differences then overwrite,
    so that with a C-ordered ``a`` every later pass over it runs in step
    with ``a``.

    Two finite entries can differ by more than the float range; the
    difference is then infinite, and so is the deviation, which every
    tolerance refuses.  Unless ``moderate`` says that every entry is below
    ``_MODERATE``, numpy's overflow warning, an exception under
    ``python -W error``, is switched off while the differences are formed
    (about 1.3 us a call).
    """
    if not moderate:
        with np.errstate(over="ignore"):
            return _difference(a, True)
    d = np.conjugate(a.T, order="C")
    return np.subtract(a, d, out=d)


def hermiticity_deviation(a: np.ndarray) -> float:
    """Max entrywise deviation of the square array ``a`` from its conjugate
    transpose, inf when a difference overflows (numpy takes the modulus of
    an infinite entry without a warning).  ``a`` is used as given: coerce
    it with ``_coerced`` first."""
    return float(np.abs(_difference(a)).max())


def _hermitian_part(a: np.ndarray, difference: np.ndarray) -> np.ndarray:
    """rho_H = a - (a - a^H)/2, formed in the array of ``difference`` =
    ``_difference(a)``, which it overwrites and returns.

    Formed from the differences, not as (a + a^H)/2, so that no finite
    input overflows; for an exactly Hermitian ``a`` the differences are
    zeros and rho_H is ``a`` bit for bit, up to the sign of a zero.
    """
    difference *= -0.5
    difference += a
    return difference


def ensure_hermitian(a, what: str = "matrix") -> np.ndarray:
    a = _coerced(a)[0]
    dev = hermiticity_deviation(a)
    if dev > DEFAULT_TOLERANCE:
        raise NotHermitianError(
            f"{what} deviates from Hermiticity by {dev:.3e} (tolerance {DEFAULT_TOLERANCE:.1e})"
        )
    return a


# --- Cholesky proofs -------------------------------------------------------

# unit roundoff of binary64 arithmetic, rounding to nearest
_UNIT_ROUNDOFF = 2.0**-53


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), with u the unit roundoff."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _demmel(size: int, complex_arithmetic: bool = False) -> float:
    """Demmel's allowance per unit trace: when the floating-point Cholesky
    factorization R^H R = F + dF of a Hermitian ``size`` x ``size`` F runs
    to completion, ||dF||_2 <= _demmel(size) tr(F) (Demmel; Rump, BIT 46,
    433 (2006)).

    Higham (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    Thm 10.3) gives |dF| <= c |R^T| |R| entrywise, with c = gamma_{m+1}
    for a real F of size m.  Summing the diagonal, ||R||_F^2 = tr(F +
    dF) <= tr(F) + c ||R||_F^2, so ||dF||_2 <= c ||R||_F^2 <= c / (1 - c)
    tr(F), the value returned.

    A complex F is factored as a complex matrix, in conventional complex
    arithmetic (no 3M product), and the constant is c = sqrt(2)
    gamma_{2m+2}.  The real part of sum_k conj(r_ki) r_kj is a real inner
    product of 2(i - 1) terms whose moduli sum to at most sum_k |r_ki|
    |r_kj|, and so is its imaginary part.  Higham's real analysis
    (section 10.1 and Lemma 8.4, which hold in any order of summation and
    with or without fused multiply-adds) bounds the error of each part by
    gamma_{2m+2} (|R^T| |R|)_ij, with room for the division by the real
    r_ii and the square root on the diagonal.  A complex number whose
    parts are each within e is within sqrt(2) e (section 3.6), so |dF| <=
    c |R^T| |R|, and the trace argument above gives c / (1 - c) tr(F).
    """
    c = math.sqrt(2) * _gamma(2 * size + 2) if complex_arithmetic else _gamma(size + 1)
    return c / (1 - c)


def _proves_floor(hermitian: np.ndarray, tolerance: float) -> bool:
    """Whether a Cholesky factorization proves that the exact rho_H =
    (rho + rho^H)/2 has no eigenvalue below -``tolerance``.

    ``hermitian`` is ``_hermitian_part(rho, _difference(rho))``, a
    C-ordered array, of a square rho, real or complex, whose deviation
    from Hermiticity is at most ``tolerance`` and whose numpy trace has a
    real part within ``tolerance`` of 1.  Its diagonal is shifted in place
    by s = tolerance - allowance, and the proof is that the factorization
    of the shifted matrix runs to completion; then lambda_min(rho_H) >=
    -s - allowance = -tolerance.  A False proves nothing.  (Were
    ``hermitian`` not C-ordered, the shift would land in a copy: the proof
    would hold for s = 0, and fail more often.)

    Let D be the size, eps the tolerance, u the unit roundoff, H the exact
    rho_H and G the Hermitian matrix of the triangle that the
    factorization reads, F = fl(G + s 1), and k = ``_demmel(D, complex)``
    with its c, so that ||dF||_2 <= k tr(F) and, from |F| <= (1 + c)
    |R^T| |R|, every entry and the spectral norm of |F| is at most
    (1 + 2k) tr(F).  Then lambda_min(H) + s >= -(the sum of)

    - ||dF||_2 <= k tr(F), the factorization;
    - u (1 + 2k) tr(F), the rounding of the diagonal shift, each at most
      u |F_jj|;
    - u (1 + 2k) tr(F) + (D - 1)(u eps / 2 + 2^-1074), the rounding of
      G: each entry fl(a - fl(a - b)/2) of a = rho_jk, b = conj(rho_kj)
      is within u |G_jk| + u |a - b| / 2 + 2^-1074 of (a + b)/2 (the last
      for a halving below the normal range), |a - b| <= eps (1 + 4u), and
      the diagonal is exact;

    so the allowance is (k + 2u (1 + 2k)) tr(F) + D u eps + 1e-290, the
    last two terms also covering the rounding of s, of eps (1 + 4u) and
    any underflow in the factorization.  The trace bound follows from
    the checked trace, whose rounding is within gamma_D sum |H_jj|, and
    |H_jj| <= (1 + u) |F_jj| + s:

        tr(F) <= (1 + (D + 1) eps) (1 + gamma_D) / (1 - gamma_{D+1} (1 + 2k)),

    and gamma_D and gamma_{D+1} are at most k.

    The allowance is widened by a millionth for its own rounding.  When
    it is not below eps the matrix is not factored.
    """
    dim = len(hermitian)
    u = _UNIT_ROUNDOFF
    k = _demmel(dim, hermitian.dtype.kind == "c")
    trace = (1 + (dim + 1) * tolerance) * (1 + k) / (1 - k * (1 + 2 * k))
    allowance = (1 + 1e-6) * ((k + 2 * u * (1 + 2 * k)) * trace + dim * u * tolerance + 1e-290)
    if not allowance < tolerance:
        return False
    diagonal = hermitian.reshape(-1)[:: dim + 1]
    diagonal += tolerance - allowance
    try:
        np.linalg.cholesky(hermitian)
    except np.linalg.LinAlgError:
        return False
    return True
