"""Spin and Stokes operator sets for N-level systems.

All matrices use the descending-m basis: index 0 is |m=l>, index N-1 is
|m=-l>.  Stokes operators are twice the spin components of l = n/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DimensionMismatchError, InvalidParameterError, ensure_hermitian


@dataclass(frozen=True)
class SpinQuantum:
    """Spin quantum number l, stored as the integer 2l so half-integer
    spins stay exact."""

    two_l: int

    def __post_init__(self):
        if not isinstance(self.two_l, (int, np.integer)) or isinstance(self.two_l, bool):
            raise InvalidParameterError(f"two_l must be an integer, got {self.two_l!r}")
        if self.two_l < 0:
            raise InvalidParameterError(f"two_l must be nonnegative, got {self.two_l}")

    @property
    def l(self) -> float:
        return self.two_l / 2

    @property
    def dim(self) -> int:
        """Number of levels N = 2l + 1."""
        return self.two_l + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in descending order l, l-1, ..., -l."""
        return (self.two_l - 2 * np.arange(self.dim)) / 2

    def __str__(self) -> str:
        return str(Fraction(self.two_l, 2))


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Ordered set of Hermitian operators whose variances are summed."""

    label: str
    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.operators) == 0:
            raise InvalidParameterError(f"operator set {self.label!r} must not be empty")
        ops = []
        for i, op in enumerate(self.operators):
            op = np.array(ensure_hermitian(op, what=f"{self.label}[{i}]"), dtype=complex)
            op.setflags(write=False)
            ops.append(op)
        dim = ops[0].shape[0]
        for i, op in enumerate(ops):
            if op.shape[0] != dim:
                raise DimensionMismatchError(
                    f"{self.label}[{i}] has dimension {op.shape[0]}, expected {dim}"
                )
        object.__setattr__(self, "operators", tuple(ops))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)


def ladder_raising(spin: SpinQuantum) -> np.ndarray:
    """L_+ in the descending-m basis: <m+1|L_+|m> = sqrt(l(l+1) - m(m+1))."""
    n = spin.dim
    l = spin.l
    m = spin.m_values()
    op = np.zeros((n, n), dtype=complex)
    for col in range(1, n):
        op[col - 1, col] = np.sqrt(l * (l + 1) - m[col] * (m[col] + 1))
    return op


def _spin_matrices(spin: SpinQuantum) -> tuple[np.ndarray, ...]:
    """L_x, L_y and L_z as complex arrays, not yet validated."""
    lp = ladder_raising(spin)
    lm = lp.conj().T
    lx = (lp + lm) / 2
    ly = (lp - lm) / 2j
    lz = np.diag(spin.m_values()).astype(complex)
    return lx, ly, lz


def _photon_number(n) -> int:
    """``n`` as an int: the one check of a photon number.  A bool, a float,
    a string or a negative number raises InvalidParameterError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidParameterError(f"photon number n must be an integer, got {n!r}")
    if n < 0:
        raise InvalidParameterError(f"photon number n must be nonnegative, got {n}")
    return int(n)


def _stokes_matrices(n_photons: int) -> tuple[np.ndarray, ...]:
    """S_1, S_2 and S_3 = 2L_x, 2L_y and 2L_z at l = n/2, not yet validated."""
    return tuple(2 * op for op in _spin_matrices(SpinQuantum(_photon_number(n_photons))))


def spin_components(spin: SpinQuantum) -> OperatorSet:
    """Angular momentum components {L_x, L_y, L_z} of a spin-l system."""
    return OperatorSet(label=f"L(l={spin})", operators=_spin_matrices(spin))


def stokes_components(n_photons: int) -> OperatorSet:
    """Stokes operators {S_1, S_2, S_3} = {2L_x, 2L_y, 2L_z} of an n-photon
    polarization state (dimension n + 1; Pauli matrices at n = 1)."""
    return OperatorSet(label=f"S(n={n_photons})", operators=_stokes_matrices(n_photons))


_SPIN_AXES = {"x": 0, "y": 1, "z": 2}
_STOKES_AXES = {"1": 0, "2": 1, "3": 2}


def spin_subset(spin: SpinQuantum, axes: str) -> OperatorSet:
    """Subset of spin components, e.g. ``axes="xy"`` for {L_x, L_y}."""
    picked = _pick(_spin_matrices(spin), axes, _SPIN_AXES)
    return OperatorSet(label=f"L{{{','.join(axes)}}}(l={spin})", operators=picked)


def stokes_subset(n_photons: int, components: str) -> OperatorSet:
    """Subset of Stokes components, e.g. ``components="12"`` for {S_1, S_2}."""
    picked = _pick(_stokes_matrices(n_photons), components, _STOKES_AXES)
    return OperatorSet(label=f"S{{{','.join(components)}}}(n={n_photons})", operators=picked)


def _pick(full: tuple[np.ndarray, ...], names: str, table: dict[str, int]) -> tuple[np.ndarray, ...]:
    if not names:
        raise InvalidParameterError("component subset must not be empty")
    seen = set()
    picked = []
    for name in names:
        if name not in table:
            raise InvalidParameterError(f"unknown component {name!r}; valid: {sorted(table)}")
        if name in seen:
            raise InvalidParameterError(f"component {name!r} repeated")
        seen.add(name)
        picked.append(full[table[name]])
    return tuple(picked)
