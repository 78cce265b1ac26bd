"""The interval search as it stood at 0.4.0, kept as the reference that
``tests/test_interval_parity.py`` holds ``bound_search.interval_minimum``
to: the two intervals must overlap, each within the tolerance.

``_row_norm``, ``_round_down``, ``_Reduction``, ``_proved_floors`` and
``interval_minimum`` below are that code unchanged: every level builds its
per-box radii, floor chain and split mask as arrays, each proof is a
dense Cholesky factorization of the set's own Q - 2tA (in the real block
form when it is complex), and the upper end is evaluated on the real
block form.  ``_completes`` and ``_factorizes`` are its Cholesky rule, as
``lurcert.linalg`` held it.  The constants and the helpers that did not
change come from ``lurcert.bound_search``, so a test that lowers a cap
must lower it here too.
"""

import numpy as np

from lurcert.bound_search import (
    _CHILD_OFFSETS,
    _UNIT_ROUNDOFF,
    BOX_SPLIT,
    INTERVAL_TOLERANCE,
    MAX_LEVEL_BOXES,
    MAX_LEVELS,
    SHIFT_WIDENING,
    IntervalResult,
    _evaluate,
    _gamma,
    _operator_stack,
)
from lurcert.linalg import InvalidParameterError
from lurcert.spin_ops import OperatorSet
from lurcert.states import PureState

CHOLESKY_RETRIES = 8


def _completes(matrices: np.ndarray) -> bool:
    """Whether a floating-point Cholesky factorization of ``matrices``, a
    matrix or a stack of them, runs to completion for every one."""
    try:
        np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        return False
    return True


def _factorizes(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack has a floating-point Cholesky
    factorization that runs to completion."""
    if _completes(stack):
        return np.ones(len(stack), dtype=bool)
    # a stack of one has failed already
    return np.array([len(stack) > 1 and _completes(m) for m in stack], dtype=bool)


def _row_norm(m: np.ndarray) -> float:
    """Largest absolute row sum, which bounds the spectral norm of ``m`` and
    of its entrywise modulus."""
    return float(np.abs(m).sum(axis=-1).max())


def _round_down(x):
    return np.nextafter(x, -np.inf)


class _Reduction:
    """The matrices Q - 2tA of a reduced set, and the rounding allowance of
    a Cholesky proof on them.

    A proof factors the real symmetric F = fl(Q - 2tA) - shift * 1: the real
    parts when Q and A are real, else the block form [[Re, -Im], [Im, Re]],
    which has the same eigenvalues (each twice).  If the factorization runs
    to completion, F + dF is positive semidefinite with
    ||dF|| <= gamma_{m+1} / (1 - gamma_{m+1}) tr(F) (Demmel; Rump, BIT 46,
    433 (2006)).  F also differs from the exact Q - 2tA - shift * 1 of the
    exact spin matrices by the rounding of the stored matrices and of the
    products and sums that form it, at most gamma_w (2P + 4|t| ||A|| +
    |shift|) in spectral norm, where P = sum_i ||A_i||^2 in the largest
    absolute row sum.  The stored set's uncertainty sum differs from the
    exact set's by at most 8 u P.  The allowance c0 + c1 |t| + c2 |shift|
    adds the three, widened by a millionth for the rounding of its own
    evaluation.  ``e0`` bounds the rounding of an uncertainty sum evaluated
    at a vector normalized in floating point, 32 gamma_{2d+8} P, likewise
    widened.
    """

    def __init__(self, operator_set: OperatorSet):
        ops = list(operator_set)
        self.q = sum(a @ a for a in ops)
        self.a = ops[0]
        if self.q.imag.any() or self.a.imag.any():
            self.qr, self.ar = (np.block([[m.real, -m.imag], [m.imag, m.real]]) for m in (self.q, self.a))
        else:
            self.qr, self.ar = self.q.real.copy(), self.a.real.copy()
        size, dim = self.qr.shape[0], operator_set.dim
        alpha = _gamma(size + 1) / (1 - _gamma(size + 1))
        form = _gamma(2 * dim + 2 * len(ops) + 16)
        p = sum(_row_norm(a) ** 2 for a in ops)
        copies = size // dim
        widen = 1 + 1e-6
        # allowance(t, shift) = c0 + c1 |t| + c2 |shift|
        self.c0 = widen * (alpha * copies * float(np.abs(np.diag(self.q)).sum())
                           + 2 * form * p + 8 * _UNIT_ROUNDOFF * p + 1e-290)
        self.c1 = widen * (alpha * copies * 2 * float(np.abs(np.diag(self.a)).sum())
                           + 4 * form * _row_norm(self.a))
        self.c2 = widen * (alpha * size + form)
        self.e0 = widen * 32 * _gamma(2 * dim + 8) * p
        # the first shift below an eigenvalue estimate: d0 + d1 |t|
        self.d0 = 16 * size * _UNIT_ROUNDOFF * _row_norm(self.qr) + 1e-300
        self.d1 = 32 * size * _UNIT_ROUNDOFF * _row_norm(self.ar)

    def matrices(self, t: np.ndarray) -> np.ndarray:
        return self.qr - (2 * t)[:, None, None] * self.ar

    def floors(self, shift: np.ndarray, t: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Box lower bounds shift - allowance + t^2 - r^2, each step rounded
        down, for boxes whose shift a factorization proved."""
        s = _round_down(shift - (self.c0 + self.c1 * np.abs(t) + self.c2 * np.abs(shift)))
        return _round_down(_round_down(s + _round_down(t * t)) - np.nextafter(r * r, np.inf))


def _proved_floors(red: _Reduction, t, r, estimate) -> np.ndarray:
    """Proven box lower bounds; -inf for a box that no retry proves."""
    floors = np.full(t.size, -np.inf)
    pending = np.arange(t.size)
    delta = red.d0 + red.d1 * np.abs(t)
    for _ in range(CHOLESKY_RETRIES + 1):
        shift = estimate[pending] - delta[pending]
        stack = red.matrices(t[pending])
        diagonal = np.einsum("bii->bi", stack)
        diagonal -= shift[:, None]
        ok = _factorizes(stack)
        done = pending[ok]
        floors[done] = red.floors(shift[ok], t[done], r[done])
        pending = pending[~ok]
        if pending.size == 0:
            break
        delta[pending] *= SHIFT_WIDENING
    return floors


def interval_minimum(operator_set: OperatorSet, reach: float) -> IntervalResult:
    """Enclose the minimum uncertainty sum of a spin or Stokes subset.

    ``operator_set`` must be a subset of {L_x, L_y, L_z} or of the Stokes
    operators, in any order, and ``reach`` = c l the largest eigenvalue of
    its members (c = 1 for spin, 2 for Stokes), from the spin quantum number.
    As a multiple of 1/2 it keeps every box end an exact binary fraction.

    Let Q = sum_i A_i^2 and A = A_0.  A rotation about the missing axis (any
    axis for three components) turns a state's mean vector onto A_0's
    direction without changing <Q>, so the minimum of the sum is the minimum
    of g = <Q> - <A>^2 over states with <A> in [lo, hi] = [0, c l]; a single
    operator keeps [-c l, c l].  For a state with <A> in a box [t - r, t + r],
    -<A>^2 = t^2 - 2t<A> - (<A> - t)^2, so g >= h(t) - r^2 with
    h(t) = lambda_min(Q - 2tA) + t^2.  The eigenvector of Q - 2tA reaches g
    <= h(t) at its state, and the sum there is at most g.

    The search runs level by level, one stacked ``eigvalsh`` per level.
    The first level evaluates the root box [lo, hi] and h at both ends; each
    box whose bound h(t) - r^2, less the proof allowance, is still below
    upper - tol, tol = INTERVAL_TOLERANCE * max(1, upper), splits into
    BOX_SPLIT boxes while upper > tol and r^2 > tol / BOX_SPLIT^2, and the
    others are final.  ``upper`` is the sum at the
    eigenvector of Q - 2tA at the best t evaluated, plus the bound on the
    rounding of that evaluation.  ``lower`` is max(0, the
    least final box bound s + t^2 - r^2), where each s is proved by a
    Cholesky factorization of Q - 2tA - s 1 (see ``_Reduction``).
    """
    if not (reach >= 0 and float(2 * reach).is_integer()):
        raise InvalidParameterError(f"reach must be a nonnegative multiple of 1/2, got {reach!r}")
    red = _Reduction(operator_set)
    hi = float(reach)
    lo = 0.0 if len(operator_set) > 1 else -hi
    t = np.array([(lo + hi) / 2])
    r = np.array([(hi - lo) / 2])
    points = np.array([t[0], lo, hi])
    upper, best = np.inf, hi
    final_t, final_r, final_estimate = [], [], []
    boxes = 0
    for level in range(MAX_LEVELS):
        estimate = np.linalg.eigvalsh(red.matrices(points))[:, 0]
        h = estimate + points * points
        j = int(np.argmin(h))
        if h[j] < upper:
            upper, best = float(h[j]), float(points[j])
        estimate = estimate[: t.size]
        boxes += t.size
        floors = red.floors(estimate - (red.d0 + red.d1 * np.abs(t)), t, r)
        tol = INTERVAL_TOLERANCE * max(1.0, upper)
        # A box's bound is at least upper - r^2 less its allowance, so a box
        # with r^2 <= tol / BOX_SPLIT^2 gains nothing that matters by
        # splitting; and a variance sum is never negative, so when upper <= tol
        # the lower end 0 already closes the gap.
        split = (floors < upper + red.e0 - tol) & (r * r > tol / BOX_SPLIT**2) & (upper > tol)
        if level + 1 == MAX_LEVELS or BOX_SPLIT * np.count_nonzero(split) > MAX_LEVEL_BOXES:
            split[:] = False
        final_t.append(t[~split])
        final_r.append(r[~split])
        final_estimate.append(estimate[~split])
        if not split.any():
            break
        r = np.repeat(r[split] / BOX_SPLIT, BOX_SPLIT)
        t = (t[split, None] + r.reshape(-1, BOX_SPLIT) * _CHILD_OFFSETS).ravel()
        points = t

    t, r, estimate = (np.concatenate(parts) for parts in (final_t, final_r, final_estimate))
    lower = max(0.0, float(_proved_floors(red, t, r, estimate).min()))
    vector = np.linalg.eigh(red.q - 2 * best * red.a)[1][:, 0]
    argmin = PureState.normalized(vector).phase_normalized()
    # the sum as the descent evaluates it, at the state's real coordinates
    x = np.concatenate([argmin.amplitudes.real, argmin.amplitudes.imag])[:, None]
    minimum = float(_evaluate(_operator_stack(operator_set), x)[0][0])
    upper = float(np.nextafter(minimum + red.e0, np.inf))
    return IntervalResult(lower, upper, minimum, argmin, boxes)
