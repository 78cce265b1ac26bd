"""Variances, sum uncertainties, and the catalog of certified lower bounds.

The catalog entries are the analytic minima of the uncertainty sum over all
states for the standard spin/Stokes sets: the three-component bounds l and
2n, and the two-component bounds 1/4 and 1 for two-level systems, 7/16 and
7/4 for three-level systems.  They are stored as exact rationals and
rendered to floats at use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .linalg import DimensionMismatchError, InvalidParameterError, NotHermitianError
from .spin_ops import (
    OperatorSet,
    SpinQuantum,
    spin_components,
    spin_subset,
    stokes_components,
    stokes_subset,
)
from .states import DensityMatrix, NotPositiveError

# Traces of Hermitian products are real; larger imaginary parts mean the
# inputs are corrupted, not rounding noise.  Both limits are for operators
# of norm about 1, and callers scale them by the size of the traces.
_IMAG_GUARD = 1e-10
_VARIANCE_FLOOR = -1e-12

ANALYTIC = "analytic"
NUMERICALLY_CERTIFIED = "numerically-certified"
# the proven lower end of an interval search (bound_search.interval_minimum)
INTERVAL = "interval"


def real_part(traces, scale=1.0):
    """Real part of a numpy trace, or an array of traces, of Hermitian
    products; raises NotHermitianError when an imaginary part exceeds the
    rounding guard, 1e-10 times ``scale``.  ``scale`` is at least 1, one
    value for all traces or one per trace."""
    imag = np.abs(traces.imag)
    # a guard scaled by at least 1 is never below the unscaled one; counting
    # costs less than a max reduction
    if np.count_nonzero(imag > _IMAG_GUARD) and (imag > _IMAG_GUARD * np.asarray(scale)).any():
        raise NotHermitianError(
            f"trace has non-negligible imaginary part {imag.max():.3e}; inputs look corrupted"
        )
    return traces.real


def _real_trace(product: np.ndarray) -> float:
    return float(real_part(np.trace(product)))


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
    """Measurement variance Tr(rho A^2) - Tr(rho A)^2, clipped at zero when
    the value is within -1e-12 of it."""
    a = linalg.ensure_hermitian(a, what="operator")
    if a.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"operator dimension {a.shape[0]} does not match state dimension {rho.dim}"
        )
    mean = _real_trace(rho.matrix @ a)
    second = _real_trace(rho.matrix @ (a @ a))
    return clip_variance(second - mean * mean)


def sum_uncertainty(rho: DensityMatrix, operator_set: OperatorSet) -> float:
    """Sum of the variances of the set members."""
    return sum(variance(rho, a) for a in operator_set)


@dataclass(frozen=True, eq=False)
class UncertaintyRelation:
    """Operator set together with a certified lower bound on its
    uncertainty sum."""

    operator_set: OperatorSet
    bound: float
    provenance: str

    def __post_init__(self):
        if self.provenance not in (ANALYTIC, NUMERICALLY_CERTIFIED, INTERVAL):
            raise InvalidParameterError(f"unknown provenance {self.provenance!r}")
        if self.bound < 0:
            raise InvalidParameterError(f"bound must be nonnegative, got {self.bound}")


CATALOG_KINDS = ("spin3", "stokes3", "spin2_N2", "stokes2_N2", "spin2_N3", "stokes2_N3")

_TWO_COMPONENT_BOUNDS = {
    "spin2_N2": Fraction(1, 4),
    "stokes2_N2": Fraction(1, 1),
    "spin2_N3": Fraction(7, 16),
    "stokes2_N3": Fraction(7, 4),
}


def catalog_bound(kind: str, size) -> UncertaintyRelation:
    """Catalog entry for ``kind`` at the given size.

    ``size`` is a SpinQuantum for spin kinds and the photon number for
    Stokes kinds.  The two-component kinds exist only at N=2 (l=1/2, n=1)
    and N=3 (l=1, n=2).
    """
    if kind not in CATALOG_KINDS:
        raise InvalidParameterError(f"unknown catalog kind {kind!r}; valid: {CATALOG_KINDS}")

    if kind.startswith("spin"):
        if not isinstance(size, SpinQuantum):
            raise InvalidParameterError(f"kind {kind!r} takes a SpinQuantum size, got {size!r}")
        spin = size
        if kind == "spin3":
            return UncertaintyRelation(spin_components(spin), float(Fraction(spin.two_l, 2)), ANALYTIC)
        required = SpinQuantum(1) if kind == "spin2_N2" else SpinQuantum(2)
        if spin != required:
            raise InvalidParameterError(
                f"kind {kind!r} requires l={required}, got l={spin}"
            )
        return UncertaintyRelation(
            spin_subset(spin, "xy"), float(_TWO_COMPONENT_BOUNDS[kind]), ANALYTIC
        )

    if isinstance(size, bool) or not isinstance(size, (int, np.integer)):
        raise InvalidParameterError(f"kind {kind!r} takes an integer photon number, got {size!r}")
    n = int(size)
    if n < 0:
        raise InvalidParameterError(f"photon number must be nonnegative, got {n}")
    if kind == "stokes3":
        return UncertaintyRelation(stokes_components(n), float(2 * n), ANALYTIC)
    required_n = 1 if kind == "stokes2_N2" else 2
    if n != required_n:
        raise InvalidParameterError(f"kind {kind!r} requires n={required_n}, got n={n}")
    return UncertaintyRelation(
        stokes_subset(n, "12"), float(_TWO_COMPONENT_BOUNDS[kind]), ANALYTIC
    )
