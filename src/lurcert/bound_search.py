"""Numerical certification of uncertainty limits by global minimization.

The uncertainty sum is concave over density matrices, so its minimum over
all states is attained at a pure state; the search space is the unit
sphere of state vectors.  For the spin and Stokes subsets, rotations reduce
the minimum to one real variable, and ``interval_minimum`` encloses it in a
proven interval.  For any other set, projected gradient descent with random
restarts provides the estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import InvalidParameterError
from .spin_ops import OperatorSet
from .states import PureState

# Restart minima within this distance of the best count as the same basin.
AGREEMENT_WINDOW = 1e-8
# Global-minimum confidence requires this fraction of restarts agreeing.
CONFIDENCE_FRACTION = 0.25
# Restarts descend together in blocks of this many columns, so the solver's
# arrays stay O(dim * RESTART_BLOCK) whatever the restart count.
RESTART_BLOCK = 64
# Each restart keeps its minimum and stop reason, so the count is capped.
MAX_RESTARTS = 10**5

# Descent rules of every restart.  The line search backtracks by halving
# from at most INITIAL_STEP; the starting trial is the spectral
# (Barzilai-Borwein) step estimated from the previous move, which keeps plain
# gradient descent fast on the degenerate minimizer manifolds these
# objectives have.
MAX_ITERATIONS = 10_000
GRADIENT_TOLERANCE = 1e-10
INITIAL_STEP = 0.5
STEP_SHRINK = 0.5
MIN_STEP = 1e-18
ARMIJO = 1e-4
STALL_WINDOW = 50
STALL_DECREASE = 1e-14

STOP_REASONS = ("gradient", "line-search", "stall", "max-iterations")
_GRADIENT, _LINE_SEARCH, _STALL, _MAX_ITERATIONS = range(len(STOP_REASONS))
_ACTIVE = -1


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search configuration; a fixed seed fixes the run.

    All starts come from the one stream ``np.random.default_rng(rng_seed)``:
    restart r starts from the r-th group of 2d standard normals, so the
    starts of ``restarts=R`` are the first R starts of any larger run.
    """

    restarts: int = 64
    rng_seed: int = 0

    def __post_init__(self):
        # a bool is an int to Python, and other types fail later in range or
        # SeedSequence with bare errors
        for name in ("restarts", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise InvalidParameterError("restarts must be a positive integer")
        if self.restarts > MAX_RESTARTS:
            raise InvalidParameterError(f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")
        # numpy refuses a negative seed with a bare ValueError
        if self.rng_seed < 0:
            raise InvalidParameterError(f"seed must be nonnegative, got {self.rng_seed}")


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best minimum over restarts with per-restart bookkeeping.

    ``restart_stops`` names why each restart stopped: the gradient fell
    below tolerance, the line search reached the floating-point floor (the
    Armijo decrease rounds away, or the step falls below ``MIN_STEP``), the
    stall window saw too little decrease, or the iteration cap hit.
    """

    minimum: float
    argmin: PureState
    restart_minima: tuple[float, ...]
    restart_stops: tuple[str, ...]
    restarts_agreeing: int
    low_confidence: bool

    @property
    def restart_converged(self) -> tuple[bool, ...]:
        return tuple(stop != "max-iterations" for stop in self.restart_stops)

    @property
    def converged_count(self) -> int:
        return sum(self.restart_converged)

    @property
    def any_converged(self) -> bool:
        return any(self.restart_converged)

    @property
    def stop_counts(self) -> dict[str, int]:
        return {reason: self.restart_stops.count(reason) for reason in STOP_REASONS}


def _operator_stack(operator_set: OperatorSet) -> np.ndarray:
    """(k+1, 2d, 2d) real stack: S = sum_i A_i^2, then the A_i.

    The search works in the real coordinates x = [Re psi; Im psi] of a
    state vector psi.  There a Hermitian A acts as the real symmetric block
    [[Re A, -Im A], [Im A, Re A]], and x . (block x) = <psi|A|psi>.
    """
    ops = np.stack(list(operator_set))
    ops = np.concatenate([(ops @ ops).sum(axis=0)[None], ops])
    top = np.concatenate([ops.real, -ops.imag], axis=2)
    return np.concatenate([top, np.concatenate([ops.imag, ops.real], axis=2)], axis=1)


def _evaluate(stack: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty sums and tangent gradients of the columns of ``x``.

    f = <S> - sum_i <A_i>^2 with S = sum_i A_i^2, and the gradient
    2 S x - 4 sum_i <A_i> A_i x is projected onto the tangent space of
    the unit sphere; its global-phase component vanishes identically
    because f is phase invariant.  The k+1 blocks act in one matmul.
    """
    size = stack.shape[1]
    images = (stack.reshape(-1, size) @ x).reshape(len(stack), size, -1)
    values = np.einsum("dr,kdr->kr", x, images)
    means = values[1:]
    f = values[0] - np.einsum("kr,kr->r", means, means)
    grad = 2.0 * images[0] - 4.0 * np.einsum("kr,kdr->dr", means, images[1:])
    grad -= np.einsum("dr,dr->r", x, grad) * x
    return f, grad


def _minimize_block(stack: np.ndarray, x: np.ndarray, history=None):
    """Projected-gradient descent on every column of the (2d, R) block ``x``
    of real coordinates.

    Each column follows the single-start rules on its own: a Barzilai-Borwein
    trial step capped at ``INITIAL_STEP``, Armijo backtracking by halving
    until the demanded decrease rounds away or the step falls below
    ``MIN_STEP``, the gradient and step stops before an iteration's first
    trial, and the stall window and ``MAX_ITERATIONS`` counted on the
    column's own completed iterations.  The descent runs in passes, and each
    pass evaluates every column's current trial (the first of an iteration
    or its next halving) in one batch of the block's full width.  A column
    that stops stays in the block, and masked updates leave its point, value
    and trial unchanged.  ``history``, if given, receives the (R,) array of
    current values once at the start and after every pass.  Returns (minima,
    final block, stop reason per column).
    """
    x = x.copy()
    f, grad = _evaluate(stack, x)
    grad_sq = np.einsum("dr,dr->r", grad, grad)
    reason = np.full(f.size, _ACTIVE)
    active = np.ones(f.size, dtype=bool)
    iterations = np.zeros(f.size, dtype=np.int64)
    anchor = f.copy()
    # each column's trial step, and whether that trial is its iteration's first
    step = np.full(f.size, INITIAL_STEP)
    first = active.copy()
    if history is not None:
        history.append(f.copy())
    # a column completes at most one iteration per pass
    for passes in itertools.count(1):
        target = f - ARMIJO * step * grad_sq
        # The stops before an iteration's first trial, and the end of a
        # line search: its step fell below MIN_STEP, or the Armijo target of
        # a halved trial rounds to f, so no decrease it asks for shows.
        gradient = first & (np.sqrt(grad_sq) < GRADIENT_TOLERANCE)
        exhausted = (step < MIN_STEP) | ((target == f) & ~first)
        reason[active & exhausted] = _LINE_SEARCH
        reason[gradient] = _GRADIENT
        active = reason == _ACTIVE
        if not active.any():
            break
        trial = x - step * grad
        trial /= np.sqrt(np.einsum("dr,dr->r", trial, trial))
        new_f, new_grad = _evaluate(stack, trial)
        first = active & (new_f <= target)
        np.multiply(step, STEP_SHRINK, out=step, where=active ^ first)
        if first.any():
            # the columns that passed take their move and their next
            # spectral step, and complete an iteration
            move = trial - x
            curvature = np.einsum("dr,dr->r", move, new_grad - grad)
            spectral = np.full(f.size, INITIAL_STEP)
            np.divide(np.einsum("dr,dr->r", move, move), curvature, out=spectral, where=curvature > 0)
            np.minimum(spectral, INITIAL_STEP, out=spectral)
            for old, new in ((step, spectral), (x, trial), (f, new_f), (grad, new_grad)):
                np.copyto(old, new, where=first)
            grad_sq = np.einsum("dr,dr->r", grad, grad)
            iterations += first
            if passes >= STALL_WINDOW:
                window = first & (iterations % STALL_WINDOW == 0)
                reason[window & (anchor - f < STALL_DECREASE)] = _STALL
                np.copyto(anchor, f, where=window)
            if passes >= MAX_ITERATIONS:
                reason[first & (reason == _ACTIVE) & (iterations == MAX_ITERATIONS)] = _MAX_ITERATIONS
            active = reason == _ACTIVE
            first &= active
        if history is not None:
            history.append(f.copy())
    return f, x, [STOP_REASONS[r] for r in reason]


def minimize_sum_uncertainty(
    operator_set: OperatorSet, config: SearchConfig | None = None
) -> SearchResult:
    """Minimize the uncertainty sum of ``operator_set`` over pure states.

    The run is fully deterministic for a fixed config.  Every start comes
    from the one stream ``np.random.default_rng(rng_seed)``: restart r takes
    the r-th group of 2d standard normals, d real parts then d imaginary
    parts, normalized, so the starts of R restarts are the first R starts of
    any larger run.  Restarts descend together in blocks of
    ``RESTART_BLOCK`` columns, and each block draws its starts in one call
    that continues the stream where the previous block stopped.  The best
    restart (the first at the lowest minimum) is reported together with how
    many restarts agreed with it.
    """
    config = config or SearchConfig()
    stack = _operator_stack(operator_set)
    dim = operator_set.dim
    rng = np.random.default_rng(config.rng_seed)

    minima = []
    stops = []
    best_f = np.inf
    best_x = None
    for first in range(0, config.restarts, RESTART_BLOCK):
        count = min(RESTART_BLOCK, config.restarts - first)
        starts = rng.standard_normal((count, 2, dim)).reshape(count, -1)
        # normalized row by row, so each start's rounding is the same
        # whatever the block's width
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        f, x, block_stops = _minimize_block(stack, np.ascontiguousarray(starts.T))
        minima.extend(f.tolist())
        stops.extend(block_stops)
        j = int(np.argmin(f))
        if f[j] < best_f:
            best_f = float(f[j])
            best_x = x[:, j]

    agreeing = sum(1 for f in minima if f - best_f < AGREEMENT_WINDOW)
    return SearchResult(
        minimum=best_f,
        argmin=PureState.normalized(best_x[:dim] + 1j * best_x[dim:]).phase_normalized(),
        restart_minima=tuple(minima),
        restart_stops=tuple(stops),
        restarts_agreeing=agreeing,
        low_confidence=agreeing < CONFIDENCE_FRACTION * config.restarts,
    )


# The interval search stops once upper - lower <= INTERVAL_TOLERANCE * max(1, upper).
INTERVAL_TOLERANCE = 1e-9
# Each kept box splits into BOX_SPLIT boxes.  A level evaluates at most
# MAX_LEVEL_BOXES boxes and a search at most MAX_LEVELS levels; past either
# the search stops and reports the gap it has.
BOX_SPLIT = 8
MAX_LEVELS = 12
MAX_LEVEL_BOXES = 512
# A box whose Cholesky proof fails retries with its shift widened by
# SHIFT_WIDENING, at most CHOLESKY_RETRIES times, and then proves nothing.
CHOLESKY_RETRIES = 8
SHIFT_WIDENING = 16.0

_UNIT_ROUNDOFF = 2.0**-53
# the midpoints of a box's children, in units of the children's half-width
_CHILD_OFFSETS = np.arange(1 - BOX_SPLIT, BOX_SPLIT, 2, dtype=float)


def _gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), with u the unit roundoff."""
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


@dataclass(frozen=True, eq=False)
class IntervalResult:
    """Proven enclosure [lower, upper] of a minimum uncertainty sum.

    ``minimum`` is the uncertainty sum of ``argmin`` as evaluated, and
    ``upper`` adds the bound on that evaluation's rounding; ``lower`` is
    proved by Cholesky factorizations.  ``boxes`` counts the boxes the
    search evaluated.
    """

    lower: float
    upper: float
    minimum: float
    argmin: PureState
    boxes: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower


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


def _factorizes(stack: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack has a floating-point Cholesky
    factorization that runs to completion."""
    try:
        np.linalg.cholesky(stack)
        return np.ones(len(stack), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    ok = np.zeros(len(stack), dtype=bool)
    for i, m in enumerate(stack):
        try:
            np.linalg.cholesky(m)
            ok[i] = True
        except np.linalg.LinAlgError:
            pass
    return ok


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
