"""Spin and Stokes operator sets for N-level systems.

All matrices use the descending-m basis: index 0 is |m=l>, index N-1 is
|m=-l>.  Stokes operators are twice the spin components of l = n/2.
"""

from __future__ import annotations

import math
import sys
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


# The cap on s = sum_i ||A_i||_F^2 of a set that ``OperatorSet(...)``
# checks.  With s the larger sum of a joint's two sets and a state of unit
# trace, every number that certify and the search form is at most 4 s or
# (6 s)^2: the entries of sum_i A_i^2, each moment <J_i>^2 and <J_i^2>,
# the scale of certify's variance floor, and the squared descent gradient
# |2 S x - 4 sum_i <A_i> A_i x|^2.  At a sixteenth of the square root of
# the float range, 36 s^2 is below a seventh of the range, so all of them
# stay finite, rounding included.
_MAX_SQUARED_NORM = math.sqrt(sys.float_info.max) / 16


@dataclass(frozen=True, eq=False)
class OperatorSet:
    """Ordered set of Hermitian operators whose variances are summed.

    ``OperatorSet(...)`` checks each operator for Hermiticity within the
    default tolerance, refuses a set whose squared Frobenius norms sum
    above ``_MAX_SQUARED_NORM``, and stores a read-only complex copy of
    each operator; the operators of bound and operator files come through
    it.  The spin and Stokes sets of this module are exactly Hermitian by
    construction and are handed over through ``_adopt`` instead.

    ``_shape`` is (2l, c, axes) for a set that this module built from the
    components c L_x, c L_y, c L_z (c = 1 spin, 2 Stokes), numbered 0, 1
    and 2 in ``axes`` in the set's order, and None for any other set; the
    interval search proves only sets with a shape.
    """

    label: str
    operators: tuple[np.ndarray, ...]
    # not a field: only _adopt sets it
    _shape = None

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
        # the sum as computed: inf once a square overflows, and otherwise
        # within a rounding of the exact sum that the cap's margin covers
        with np.errstate(over="ignore"):
            squared = sum(np.vdot(op, op).real for op in ops)
        if not squared <= _MAX_SQUARED_NORM:
            raise InvalidParameterError(
                f"operator set {self.label!r} is too large: its squared Frobenius norms sum to"
                f" {squared:.3e}, above {_MAX_SQUARED_NORM:.3e}"
            )
        object.__setattr__(self, "operators", tuple(ops))

    @classmethod
    def _adopt(cls, label: str, operators: tuple[np.ndarray, ...], shape=None) -> "OperatorSet":
        """The set of ``operators``, with no check and no copy, and with
        ``shape`` as its ``_shape``.

        The one hand-over path of ``spin_components``, ``stokes_components``,
        ``spin_subset`` and ``stokes_subset``, whose operators are exactly
        Hermitian, entry for entry:

        - L_+ is real, so L_- = L_+^H is its transpose with imaginary parts
          -0;
        - L_x = (L_+ + L_-)/2 adds each pair of mirrored entries, in either
          order, and halves the sum, so it is real and exactly symmetric;
        - L_y = (L_+ - L_-)/2i divides a real antisymmetric matrix by 2i,
          which in numpy's complex division only halves each entry's parts
          and swaps them, the real part moving negated to the imaginary
          part, so L_y is imaginary and exactly antisymmetric, hence
          Hermitian;
        - L_z is a real diagonal;
        - a Stokes operator doubles one of these, which is exact.

        ``operators`` is a nonempty tuple of fresh C-ordered complex arrays
        of one size that no caller holds; each is marked read-only and
        stored as it is.  Every input from outside goes through
        ``OperatorSet(...)`` instead.
        """
        for op in operators:
            op.setflags(write=False)
        op_set = object.__new__(cls)
        object.__setattr__(op_set, "label", label)
        object.__setattr__(op_set, "_shape", shape)
        object.__setattr__(op_set, "operators", operators)
        return op_set

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
    col = np.arange(1, n)
    op[col - 1, col] = np.sqrt(l * (l + 1) - m[1:] * (m[1:] + 1))
    return op


def _spin_matrices(spin: SpinQuantum, axes: tuple[int, ...] = (0, 1, 2)) -> tuple[np.ndarray, ...]:
    """The components L_x, L_y and L_z numbered 0, 1 and 2 in ``axes``, in
    that order, as fresh complex arrays; only these are built."""
    lp = ladder_raising(spin)
    lm = lp.conj().T
    build = (
        lambda: (lp + lm) / 2,
        lambda: (lp - lm) / 2j,
        lambda: np.diag(spin.m_values()).astype(complex),
    )
    return tuple(build[axis]() for axis in axes)


def _photon_number(n) -> int:
    """``n`` as an int: the one check of a photon number.  A bool, a float,
    a string or a negative number raises InvalidParameterError."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise InvalidParameterError(f"photon number n must be an integer, got {n!r}")
    if n < 0:
        raise InvalidParameterError(f"photon number n must be nonnegative, got {n}")
    return int(n)


def _stokes_matrices(n_photons: int, axes: tuple[int, ...] = (0, 1, 2)) -> tuple[np.ndarray, ...]:
    """The Stokes operators S_1, S_2 and S_3 = 2L_x, 2L_y and 2L_z at
    l = n/2 numbered 0, 1 and 2 in ``axes``, in that order."""
    return tuple(2 * op for op in _spin_matrices(SpinQuantum(_photon_number(n_photons)), axes))


def spin_components(spin: SpinQuantum) -> OperatorSet:
    """Angular momentum components {L_x, L_y, L_z} of a spin-l system."""
    return OperatorSet._adopt(f"L(l={spin})", _spin_matrices(spin), (spin.two_l, 1.0, (0, 1, 2)))


def stokes_components(n_photons: int) -> OperatorSet:
    """Stokes operators {S_1, S_2, S_3} = {2L_x, 2L_y, 2L_z} of an n-photon
    polarization state (dimension n + 1; Pauli matrices at n = 1)."""
    ops = _stokes_matrices(n_photons)
    return OperatorSet._adopt(f"S(n={n_photons})", ops, (len(ops[0]) - 1, 2.0, (0, 1, 2)))


_SPIN_AXES = {"x": 0, "y": 1, "z": 2}
_STOKES_AXES = {"1": 0, "2": 1, "3": 2}


def spin_subset(spin: SpinQuantum, axes: str) -> OperatorSet:
    """Subset of spin components, e.g. ``axes="xy"`` for {L_x, L_y}."""
    numbers = _picked(axes, _SPIN_AXES)
    picked = _spin_matrices(spin, numbers)
    return OperatorSet._adopt(f"L{{{','.join(axes)}}}(l={spin})", picked, (spin.two_l, 1.0, numbers))


def stokes_subset(n_photons: int, components: str) -> OperatorSet:
    """Subset of Stokes components, e.g. ``components="12"`` for {S_1, S_2}."""
    n_photons = _photon_number(n_photons)  # refused before the components
    numbers = _picked(components, _STOKES_AXES)
    picked = _stokes_matrices(n_photons, numbers)
    label = f"S{{{','.join(components)}}}(n={n_photons})"
    return OperatorSet._adopt(label, picked, (n_photons, 2.0, numbers))


def _picked(names: str, table: dict[str, int]) -> tuple[int, ...]:
    """The component numbers of ``names`` in ``table``, in order."""
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
        picked.append(table[name])
    return tuple(picked)
