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


def as_square_matrix(data) -> np.ndarray:
    """Coerce to a complex square matrix, rejecting non-finite entries."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameterError("matrix entries must be finite")
    return m


def hermiticity_deviation(a: np.ndarray) -> float:
    """Max entrywise deviation of the square array ``a`` from its conjugate
    transpose.  ``a`` is used as given: coerce it with ``as_square_matrix``
    first.  A real ``a`` is its own conjugate."""
    # The differences a - a^H in one temporary: a complex ``a`` is
    # conjugated into a fresh array that the differences overwrite, and
    # real differences are overwritten by their moduli.
    h = a.conj()  # ``a`` itself when it is real
    d = np.subtract(a, h.T, out=None if h is a else h.T)
    return float(np.abs(d, out=d if h is a else None).max())


def ensure_hermitian(a, what: str = "matrix") -> np.ndarray:
    a = as_square_matrix(a)
    dev = hermiticity_deviation(a)
    if dev > DEFAULT_TOLERANCE:
        raise NotHermitianError(
            f"{what} deviates from Hermiticity by {dev:.3e} (tolerance {DEFAULT_TOLERANCE:.1e})"
        )
    return a
