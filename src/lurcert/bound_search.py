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
import math
from dataclasses import dataclass

import numpy as np

from .linalg import _UNIT_ROUNDOFF, InvalidParameterError, _demmel, _factorizes, _gamma
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


def _complex_stack(operator_set: OperatorSet) -> np.ndarray:
    """(k+1, d, d) complex stack: S = sum_i A_i^2, then the A_i."""
    ops = np.stack(list(operator_set))
    return np.concatenate([(ops @ ops).sum(axis=0)[None], ops])


def _real_blocks(ops: np.ndarray) -> np.ndarray:
    """Each complex matrix of the stack ``ops`` as the real symmetric block
    [[Re, -Im], [Im, Re]]."""
    top = np.concatenate([ops.real, -ops.imag], axis=2)
    return np.concatenate([top, np.concatenate([ops.imag, ops.real], axis=2)], axis=1)


def _operator_stack(operator_set: OperatorSet) -> np.ndarray:
    """(k+1, 2d, 2d) real stack: S = sum_i A_i^2, then the A_i.

    The search works in the real coordinates x = [Re psi; Im psi] of a
    state vector psi.  There a Hermitian A acts as the real symmetric block
    [[Re A, -Im A], [Im A, Re A]], and x . (block x) = <psi|A|psi>.
    """
    return _real_blocks(_complex_stack(operator_set))


def _sums(stack: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uncertainty sums f = <S> - sum_i <A_i>^2 of the columns of ``x``,
    with their images under the k+1 blocks (one matmul) and the means
    <A_i>."""
    size = stack.shape[1]
    images = (stack.reshape(-1, size) @ x).reshape(len(stack), size, -1)
    values = np.einsum("dr,kdr->kr", x, images)
    means = values[1:]
    return values[0] - np.einsum("kr,kr->r", means, means), images, means


def _evaluate(stack: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncertainty sums and tangent gradients of the columns of ``x``.

    f = <S> - sum_i <A_i>^2 with S = sum_i A_i^2, and the gradient
    2 S x - 4 sum_i <A_i> A_i x is projected onto the tangent space of
    the unit sphere; its global-phase component vanishes identically
    because f is phase invariant.
    """
    f, images, means = _sums(stack, x)
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
        argmin=PureState.canonical(best_x[:dim] + 1j * best_x[dim:]),
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

# the midpoints of a box's children, in units of the children's half-width
_CHILD_OFFSETS = tuple(float(k) for k in range(1 - BOX_SPLIT, BOX_SPLIT, 2))


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


class _Reduction:
    """The matrices Q - 2tA of a reduced set, and the rounding allowance of
    a Cholesky proof on them.

    A proof factors the real symmetric F = fl(Q - 2tA) - shift * 1: the real
    parts when Q and A are real, else the block form [[Re, -Im], [Im, Re]],
    which has the same eigenvalues (each twice).  If the factorization runs
    to completion, F + dF is positive semidefinite with ||dF|| <=
    ``_demmel(m)`` tr(F) (Demmel; Rump, BIT 46, 433 (2006)), m the size
    of F.  F also differs from the exact Q - 2tA - shift * 1 of the
    exact spin matrices by the rounding of the stored matrices and of the
    products and sums that form it, at most gamma_w (2P + 4|t| ||A|| +
    |shift|) in spectral norm, where P = sum_i ||A_i||^2 in the largest
    absolute row sum (which bounds the spectral norm of a matrix and of its
    entrywise modulus).  The stored set's uncertainty sum differs from the
    exact set's by at most 8 u P.  The allowance c0 + c1 |t| + c2 |shift|
    adds the three, widened by a millionth for the rounding of its own
    evaluation.  ``e0`` bounds the rounding of an uncertainty sum evaluated
    at a vector normalized in floating point, 32 gamma_{2d+8} P, likewise
    widened.  ``stack`` is the set's ``_operator_stack``.
    """

    def __init__(self, operator_set: OperatorSet):
        ops = _complex_stack(operator_set)
        self.stack = _real_blocks(ops)
        self.q, self.a = ops[0], ops[1]
        # One pass of moduli gives the largest absolute row sum of Q and of
        # each A_i, and the diagonals of Q and A.
        moduli = np.abs(ops)
        q_norm, *norms = moduli.sum(axis=-1).max(axis=-1).tolist()
        q_trace, a_trace = np.diagonal(moduli[:2], axis1=1, axis2=2).sum(axis=-1).tolist()
        # Q and A as factored, with their row sums: the real parts, whose
        # moduli are those of the complex entries with imaginary parts 0,
        # or the block form, whose rows hold |Re| and |Im| of a row each
        if np.count_nonzero(ops[:2].imag):
            pair = self.stack[:2]
            qr_norm, ar_norm = np.abs(pair).sum(axis=-1).max(axis=-1).tolist()
        else:
            pair = ops[:2].real.copy()
            qr_norm, ar_norm = q_norm, norms[0]
        self.qr = pair[0]
        # 2t A and t (2A) round alike
        self.ar2 = 2 * pair[1]
        size, dim = pair.shape[1], operator_set.dim
        alpha = _demmel(size)
        form = _gamma(2 * dim + 2 * len(operator_set) + 16)
        p = sum(n**2 for n in norms)
        copies = size // dim
        widen = 1 + 1e-6
        # allowance(t, shift) = c0 + c1 |t| + c2 |shift|
        self.c0 = widen * (alpha * copies * q_trace + 2 * form * p + 8 * _UNIT_ROUNDOFF * p + 1e-290)
        self.c1 = widen * (alpha * copies * 2 * a_trace + 4 * form * norms[0])
        self.c2 = widen * (alpha * size + form)
        self.e0 = widen * 32 * _gamma(2 * dim + 8) * p
        # the first shift below an eigenvalue estimate: d0 + d1 |t|
        self.d0 = 16 * size * _UNIT_ROUNDOFF * qr_norm + 1e-300
        self.d1 = 32 * size * _UNIT_ROUNDOFF * ar_norm

    def matrices(self, t) -> np.ndarray:
        """The stack of Q - 2tA, one matrix per entry of ``t``."""
        return self.qr - np.array(t)[:, None, None] * self.ar2


def _floor(red: _Reduction, shift: float, t: float, r: float) -> float:
    """The lower bound shift - allowance + t^2 - r^2 of the box with
    midpoint ``t`` and radius ``r``, each step rounded down, for a box whose
    ``shift`` a factorization proved.  Squares are products: a Python
    float's ``**`` raises OverflowError where numpy's rounds to inf."""
    s = math.nextafter(shift - (red.c0 + red.c1 * abs(t) + red.c2 * abs(shift)), -math.inf)
    s = math.nextafter(s + math.nextafter(t * t, -math.inf), -math.inf)
    return math.nextafter(s - math.nextafter(r * r, math.inf), -math.inf)


def _proved_floors(red: _Reduction, boxes: list) -> list:
    """Proven lower bounds of ``boxes``, each a tuple (t, r, estimate,
    shift, floor) of floats: midpoint, radius, eigenvalue estimate, first
    shift estimate - (d0 + d1 |t|) and ``_floor`` there, as the level loop
    computed them; -inf for a box that no retry proves.

    Every box is first factored at its first shift, in one stack, and when
    each factorization completes the floors are returned as they are.  The
    boxes that fail retry together, one stack per retry, each with its
    shift widened by SHIFT_WIDENING every time, at most CHOLESKY_RETRIES
    times.
    """
    t, r, estimate, shift, floors = (list(v) for v in zip(*boxes))
    ok = _factorizes(_shifted(red, t, shift))
    if ok.all():
        return floors
    # the boxes not yet proved, each with its shift's distance below its estimate
    pending = [(i, red.d0 + red.d1 * abs(t[i])) for i, proved in enumerate(ok.tolist()) if not proved]
    for i, _ in pending:
        floors[i] = -math.inf
    for _ in range(CHOLESKY_RETRIES):
        pending = [(i, delta * SHIFT_WIDENING) for i, delta in pending]
        shift = [estimate[i] - delta for i, delta in pending]
        ok = _factorizes(_shifted(red, [t[i] for i, _ in pending], shift)).tolist()
        for (i, _), s, proved in zip(pending, shift, ok):
            if proved:
                floors[i] = _floor(red, s, t[i], r[i])
        pending = [box for box, proved in zip(pending, ok) if not proved]
        if not pending:
            break
    return floors


def _shifted(red: _Reduction, t, shift) -> np.ndarray:
    """The stack of Q - 2tA - shift 1, one matrix per box."""
    stack = red.matrices(t)
    diagonal = np.einsum("bii->bi", stack)
    diagonal -= np.array(shift)[:, None]
    return stack


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
    others are final.  The boxes of a level share one radius r.  ``upper``
    is the sum at the eigenvector of Q - 2tA at the best t evaluated (the
    first at the least h), plus the bound on the rounding of that
    evaluation.  ``lower`` is max(0, the least final box bound
    s + t^2 - r^2), where each s is proved by a Cholesky factorization of
    Q - 2tA - s 1 (see ``_Reduction``); the final boxes of all levels are
    proved together by ``_proved_floors``.

    A level holds at most 16 boxes on every built-in set, so each box's
    numbers (t, its estimate, h, its first shift, its floor, its split test
    and its children's midpoints) are Python floats, which round each
    operation as numpy's float64 does; numpy only forms and reduces the
    matrix stacks.  A search makes one ``eigvalsh`` per level, one
    ``eigh`` for the eigenvector, and one stacked factorization when every
    final box is proved at its first shift.
    """
    if not (reach >= 0 and float(2 * reach).is_integer()):
        raise InvalidParameterError(f"reach must be a nonnegative multiple of 1/2, got {reach!r}")
    red = _Reduction(operator_set)
    hi = float(reach)
    lo = 0.0 if len(operator_set) > 1 else -hi
    t = [(lo + hi) / 2]
    r = (hi - lo) / 2
    points = t + [lo, hi]
    upper, best = math.inf, hi
    # the final boxes of every level, as _proved_floors takes them
    finals = []
    boxes = 0
    for level in range(MAX_LEVELS):
        estimates = np.linalg.eigvalsh(red.matrices(points))[:, 0].tolist()
        # the first point at the least h, as argmin takes it
        for point, estimate in zip(points, estimates):
            h = estimate + point * point
            if h < upper:
                upper, best = h, point
        boxes += len(t)
        tol = INTERVAL_TOLERANCE * max(1.0, upper)
        # each box's first shift and its floor there, which its split test
        # reads and, for a final box, its proof: (t, r, estimate, shift, floor)
        level_boxes = []
        for c, estimate in zip(t, estimates):
            shift = estimate - (red.d0 + red.d1 * abs(c))
            level_boxes.append((c, r, estimate, shift, _floor(red, shift, c, r)))
        # A box's bound is at least upper - r^2 less its allowance, so a box
        # with r^2 <= tol / BOX_SPLIT^2 gains nothing that matters by
        # splitting; and a variance sum is never negative, so when upper <= tol
        # the lower end 0 already closes the gap.
        split = []
        if level + 1 < MAX_LEVELS and r * r > tol / BOX_SPLIT**2 and upper > tol:
            cut = upper + red.e0 - tol
            split = [box for box in level_boxes if box[4] < cut]
        if not split or BOX_SPLIT * len(split) > MAX_LEVEL_BOXES:
            finals += level_boxes
            break
        finals += [box for box in level_boxes if not box[4] < cut]
        r /= BOX_SPLIT
        steps = [r * k for k in _CHILD_OFFSETS]
        t = points = [box[0] + step for box in split for step in steps]

    lower = max(0.0, min(_proved_floors(red, finals)))
    argmin = PureState.canonical(np.linalg.eigh(red.q - 2 * best * red.a)[1][:, 0])
    # the sum as the descent evaluates it, at the state's real coordinates
    x = np.concatenate([argmin.amplitudes.real, argmin.amplitudes.imag])[:, None]
    minimum = float(_sums(red.stack, x)[0][0])
    upper = math.nextafter(minimum + red.e0, math.inf)
    return IntervalResult(lower, upper, minimum, argmin, boxes)
