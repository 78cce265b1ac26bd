"""Variances, the variance floor, and the catalog of certified lower bounds.

The catalog entries are the analytic minima of the uncertainty sum over all
states for the standard spin sets: the three-component bound l, and the
two-component bounds 1/4 for two-level and 7/16 for three-level systems.
Each Stokes bound is 4x its spin twin's, since S_i = 2 L_i at l = n/2.
They are stored as exact rationals and rendered to floats at use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import DimensionMismatchError, InvalidParameterError
from .spin_ops import (
    OperatorSet,
    SpinQuantum,
    _photon_number,
    spin_components,
    spin_subset,
    stokes_components,
    stokes_subset,
)
from .states import DensityMatrix, NotPositiveError, _real

# A variance within this much below zero, for operators of norm about 1, is
# rounding; callers scale it by the size of the traces.
_VARIANCE_FLOOR = -1e-12

ANALYTIC = "analytic"
NUMERICALLY_CERTIFIED = "numerically-certified"
# the proven lower end of an interval search (bound_search.interval_minimum)
INTERVAL = "interval"


def clip_variance(value: float, scale: float = 1.0) -> float:
    """Clip a variance within 1e-12 times ``scale`` below zero to zero;
    raise NotPositiveError below that."""
    if value < 0:
        if value < _VARIANCE_FLOOR * scale:
            raise NotPositiveError(
                f"variance {value:.3e} is negative beyond tolerance; inputs look corrupted"
            )
        value = 0.0
    return value


def variance(rho: DensityMatrix, a: np.ndarray) -> float:
    """Measurement variance Tr(rho A^2) - Tr(rho A)^2 from the real parts
    of the traces, clipped at zero when the value is within -1e-12 of it."""
    a = linalg.ensure_hermitian(a, what="operator")
    if a.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"operator dimension {a.shape[0]} does not match state dimension {rho.dim}"
        )
    mean = float(np.trace(rho.matrix @ a).real)
    second = float(np.trace(rho.matrix @ (a @ a)).real)
    return clip_variance(second - mean * mean)


def _checked_bound(value, what: str) -> float:
    """``value`` as a float, by the one rule for an uncertainty bound and a
    local limit: a finite real number >= 0, so no bool, string, NaN,
    infinity or integer beyond the float range.  Raises
    InvalidParameterError naming ``what``."""
    bound = _real(value, what)
    if not 0 <= bound < math.inf:
        raise InvalidParameterError(
            f"{what} must be nonnegative" if bound < 0 else f"{what} must be finite, got {bound}"
        )
    return bound


@dataclass(frozen=True, eq=False)
class UncertaintyRelation:
    """Operator set together with a certified lower bound on its
    uncertainty sum, checked by ``_checked_bound`` and stored as a float."""

    operator_set: OperatorSet
    bound: float
    provenance: str

    def __post_init__(self):
        if self.provenance not in (ANALYTIC, NUMERICALLY_CERTIFIED, INTERVAL):
            raise InvalidParameterError(f"unknown provenance {self.provenance!r}")
        bound = _checked_bound(self.bound, f"bound of {self.operator_set.label}")
        object.__setattr__(self, "bound", bound)


CATALOG_KINDS = ("spin3", "stokes3", "spin2_N2", "stokes2_N2", "spin2_N3", "stokes2_N3")

# The two-component spin limits, each with the one spin at which it exists.
# A Stokes limit is 4x its spin twin's at l = n/2, since S_i = 2 L_i: 2n,
# 1 and 7/4, exact in binary.
_TWO_COMPONENT_BOUNDS = {
    "spin2_N2": (SpinQuantum(1), Fraction(1, 4)),
    "spin2_N3": (SpinQuantum(2), Fraction(7, 16)),
}


def catalog_bound(kind: str, size) -> UncertaintyRelation:
    """Catalog entry for ``kind`` at the given size.

    ``size`` is a SpinQuantum for spin kinds and the photon number for
    Stokes kinds.  The two-component kinds exist only at N=2 (l=1/2, n=1)
    and N=3 (l=1, n=2).
    """
    if kind not in CATALOG_KINDS:
        raise InvalidParameterError(f"unknown catalog kind {kind!r}; valid: {CATALOG_KINDS}")
    twin = kind.replace("stokes", "spin")
    if kind == twin and not isinstance(size, SpinQuantum):
        raise InvalidParameterError(f"kind {kind!r} takes a SpinQuantum size, got {size!r}")
    spin = size if kind == twin else SpinQuantum(_photon_number(size))
    if twin == "spin3":
        limit = Fraction(spin.two_l, 2)
    else:
        required, limit = _TWO_COMPONENT_BOUNDS[twin]
        if spin != required:
            sizes = (
                f"l={required}, got l={spin}"
                if kind == twin
                else f"n={required.two_l}, got n={spin.two_l}"
            )
            raise InvalidParameterError(f"kind {kind!r} requires {sizes}")
    if kind == twin:
        ops = spin_components(spin) if kind == "spin3" else spin_subset(spin, "xy")
        return UncertaintyRelation(ops, float(limit), ANALYTIC)
    n = spin.two_l
    ops = stokes_components(n) if kind == "stokes3" else stokes_subset(n, "12")
    return UncertaintyRelation(ops, float(4 * limit), ANALYTIC)
