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

from .linalg import _UNIT_ROUNDOFF, InvalidParameterError, _gamma
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
    because f is phase invariant.  The images of ``x`` under the k+1
    blocks take one matmul.
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
# A box whose pivot proof fails retries with its shift widened by
# SHIFT_WIDENING, at most PROOF_RETRIES times, and then proves nothing.
PROOF_RETRIES = 8
SHIFT_WIDENING = 16.0

# the midpoints of a box's children, in units of the children's half-width
_CHILD_OFFSETS = tuple(float(k) for k in range(1 - BOX_SPLIT, BOX_SPLIT, 2))


@dataclass(frozen=True, eq=False)
class IntervalResult:
    """Proven enclosure [lower, upper] of a minimum uncertainty sum.

    ``minimum`` is the uncertainty sum of ``argmin`` as evaluated (0 if
    that rounds below 0), and ``upper`` adds the bound on that
    evaluation's rounding; ``lower`` is proved by LDL^T pivots.  ``boxes``
    counts the boxes the search evaluated.
    """

    lower: float
    upper: float
    minimum: float
    argmin: PureState
    boxes: int

    @property
    def gap(self) -> float:
        return self.upper - self.lower


class _Pencil:
    """The real symmetric tridiagonal pencil Q - 2tA of a built-in set's
    shape (k components at spin l and scale c), and the rounding
    allowances of its proofs and of the upper end.

    A set of k of c L_x, c L_y and c L_z (c = 1 spin, 2 Stokes), in any
    order, shares the pencil of its k: Q is the diagonal c^2 (l(l+1) - m^2)
    and A = c L_x for k = 2, c^2 l(l+1) and A = c L_x for k = 3, and
    c^2 m^2 and A = c L_z for k = 1 (m = l, ..., -l).  A rotation maps the
    set's first operator A_0 onto A and keeps Q (for k = 2 it maps the
    missing axis onto z, up to a sign that Q does not see), so
    lambda_min(Q - 2tA) is that of the set's own Q - 2t A_0 in exact
    arithmetic.  The diagonal of Q, the diagonal 2cm of 2A (k = 1) and the
    squares F_j = c^2 (l(l+1) - m(m+1)) of 2A's off-diagonal entries
    (m = l-1, ..., -l; zero for k = 1) are exact binary numbers.
    ``matrices`` forms Q - 2tA densely, with the entries sqrt(F_j) rounded
    (the stored 2c L_x, bit for bit), for ``eigvalsh`` and for the
    eigenvector of a set in the pencil's own orientation; those only
    estimate, and the proof (``_pivots_positive``) reads q, F and 2cm.

    P = k rho^2, with rho = ||c L_x|| in the largest absolute row sum,
    bounds sum_i ||A_i||^2 in that norm for every order: |L_y| = |L_x|
    entry by entry, and ||L_z|| = l = ||L_x||_2 <= rho / c.  Each stored
    entry of L_x and L_y is its exact value correctly rounded, and L_z is
    exact, so at any state the stored set's uncertainty sum is within
    4 ||A|| ||E|| + 2 ||E||^2 <= 8 u P of the exact set's, ||E|| <= u rho.
    ``c0 + c1 |t|`` is the proof's allowance, that 8 u P and 1e-290 for
    underflow added; ``e0`` bounds the upper end's evaluation
    (``_normalized_sum``) plus the same 8 u P; ``d0 + d1 |t|`` is the
    first shift's distance below an eigenvalue estimate.  Each is widened
    by a millionth, for its own rounding and for the terms of second order
    in the unit roundoff u that the derivations drop.
    """

    def __init__(self, k: int, two_l: int, c: float):
        n, u, widen = two_l + 1, _UNIT_ROUNDOFF, 1 + 1e-6
        m = [(two_l - 2 * j) / 2 for j in range(n)]
        ll, cc = two_l * (two_l + 2) / 4, c * c
        f = [cc * (ll - x * (x + 1)) for x in m[1:]]
        root = [math.sqrt(x) for x in f]
        # the largest row sum of c L_x, whose off-diagonal entries are root / 2
        rho = max(a + b for a, b in zip([0.0, *root], [*root, 0.0])) / 2
        p = k * rho * rho
        # Q and -2A as dense matrices, for the level stacks
        qm, neg2a = np.zeros((2, n * n))
        if k == 1:
            q, self.f = [cc * x * x for x in m], None
            self.alpha2 = np.array([2 * c * x for x in m])
            neg2a[:: n + 1] = -self.alpha2
            a_norm = c * two_l / 2
            c0, self.c1 = u * max(q), widen * 4 * u * a_norm
        else:
            q = [cc * (ll - x * x) if k == 2 else cc * ll for x in m]
            self.alpha2, self.f = None, np.array(f)
            neg2a[1 :: n + 1] = neg2a[n :: n + 1] = [-x for x in root]
            a_norm = rho
            c0, self.c1 = 0.0, widen * 2 * _gamma(6) * rho
        qm[:: n + 1] = q
        self.q, self.qm, self.neg2a = np.array(q), qm.reshape(n, n), neg2a.reshape(n, n)
        self.c0 = widen * (8 * u * p + c0 + 1e-290)
        self.e0 = widen * _gamma(12 * n + 2 * k + 35) * p
        self.d0 = 16 * n * u * max(q) + 1e-300
        self.d1 = 32 * n * u * a_norm

    def matrices(self, t) -> np.ndarray:
        """The stack of Q - 2tA, one matrix per entry of ``t``, formed as
        t (-2A) + Q: that rounds as Q - t (2A), and 2t A and t (2A) round
        alike."""
        stack = np.multiply.outer(t, self.neg2a)
        stack += self.qm
        return stack


def _floor(pen: _Pencil, shift: float, t: float, r: float) -> float:
    """The lower bound shift - allowance + t^2 - r^2 of the box with
    midpoint ``t`` and radius ``r``, each step rounded down, for a box whose
    ``shift`` a pivot pass proved.  Squares are products: a Python
    float's ``**`` raises OverflowError where numpy's rounds to inf."""
    s = math.nextafter(shift - (pen.c0 + pen.c1 * abs(t)), -math.inf)
    s = math.nextafter(s + math.nextafter(t * t, -math.inf), -math.inf)
    return math.nextafter(s - math.nextafter(r * r, math.inf), -math.inf)


def _pivots_positive(pen: _Pencil, t: list, shift: list) -> list:
    """Whether every LDL^T pivot of Q - 2tA - s 1 comes out positive, for
    each pair (t, s) of ``t`` and ``shift``, in one pass of the recurrence
    d_0 = p_0, d_j = p_j - t^2 F_j / d_{j-1} across all the pairs, with
    p_j the shifted diagonal.  A True proves lambda_min(Q - 2tA) >
    s - (c0 + c1 |t|) for the exact pencil; c0 also holds the stored set's
    8 u P, so the floor bounds the stored set's sum too.

    The pass forms w_j = fl(F_j fl(t t)), p^_j = fl(q_j - s) and
    d^_j = fl(p^_j - fl(w_j / d^_{j-1})).  Write each rounding as a factor
    (1 + delta), |delta| <= u.  Dividing d^_j by the factors of p^_j and
    of its subtraction leaves d~_j = d^_j / kappa_j, kappa_j > 0, which
    obeys the exact recurrence d~_j = (q_j - s) - w~_j / d~_{j-1} with
    w~_j = t^2 F_j (1 + theta_j): theta_j gathers six factors, so
    |theta_j| <= gamma_6 (Higham, Lemma 3.1).  This is the argument of
    Kahan's relative-perturbation lemma for Sturm counts (Kahan, 1966;
    Demmel, *Applied Numerical Linear Algebra*, section 5.3), with this
    pass's own roundings counted.  When every d^_j > 0
    the exact pivots d~_j are positive too, so the tridiagonal T~ - s 1,
    with Q's diagonal and off-diagonal entries b_j sqrt(1 + theta_j) where
    T = Q - 2tA has b_j, is positive definite (Sylvester).  T~ - T has a
    zero diagonal and entries at most gamma_6 |b_j|, and 2A's row sums are
    at most 2 rho, so by Weyl lambda_min(T) > s - 2 gamma_6 rho |t|, the
    c1 |t| of the allowance.

    For k = 1, F = 0 and the pivots are the diagonal fl(fl(q_j -
    fl(t 2cm_j)) - s) itself: the exact q_j - 2tcm_j - s moved by at most
    u q_j + 2u |t| |2cm_j| and scaled by a positive factor, so
    lambda_min(T) > s - u max q - 4u c l |t|.

    No product underflows: F_j >= 1, 2|m_j| >= 1 or m_j = 0, and each box
    midpoint is 0 or an odd multiple of its radius, at least 2^-36 (c l
    >= 1/2 and at most MAX_LEVELS levels of BOX_SPLIT-way splits).  A
    quotient that underflows is off by less than 2^-1074, a change of one
    diagonal entry that the 1e-290 of c0 covers.  A zero, negative or NaN
    pivot fails its box, whatever the later pivots of that box are.
    """
    t, s = np.array(t), np.array(shift)
    if pen.f is None:
        return (((pen.q[:, None] - pen.alpha2[:, None] * t) - s).min(axis=0) > 0).tolist()
    # row j of d holds the shifted diagonal p_j and then pivot j of every box
    d = pen.q[:, None] - s
    w = pen.f[:, None] * (t * t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for previous, row, w_j in zip(d, d[1:], w):
            row -= w_j / previous
    return (d > 0).all(axis=0).tolist()


def _proved_floors(pen: _Pencil, boxes: list) -> list:
    """Proven lower bounds of ``boxes``, each a tuple (t, r, estimate,
    shift, floor) of floats: midpoint, radius, eigenvalue estimate, first
    shift estimate - (d0 + d1 |t|) and ``_floor`` there, as the level loop
    computed them; -inf for a box that no retry proves.

    Every box is first tried at its first shift, in one pivot pass, and
    when each proof holds the floors are returned as they are.  The boxes
    that fail retry together, one pass per retry, each with its shift
    widened by SHIFT_WIDENING every time, at most PROOF_RETRIES times.
    """
    t, r, estimate, shift, floors = (list(v) for v in zip(*boxes))
    ok = _pivots_positive(pen, t, shift)
    if all(ok):
        return floors
    # the boxes not yet proved, each with its shift's distance below its estimate
    pending = [(i, pen.d0 + pen.d1 * abs(t[i])) for i, proved in enumerate(ok) if not proved]
    for i, _ in pending:
        floors[i] = -math.inf
    for _ in range(PROOF_RETRIES):
        pending = [(i, delta * SHIFT_WIDENING) for i, delta in pending]
        shift = [estimate[i] - delta for i, delta in pending]
        ok = _pivots_positive(pen, [t[i] for i, _ in pending], shift)
        for (i, _), s, proved in zip(pending, shift, ok):
            if proved:
                floors[i] = _floor(pen, s, t[i], r[i])
        pending = [box for box, proved in zip(pending, ok) if not proved]
        if not pending:
            break
    return floors


def _normalized_sum(ops: np.ndarray, psi: np.ndarray) -> float:
    """The uncertainty sum of the stack ``ops`` at the state psi / |psi|,
    evaluated as a / nu - b / nu^2 from the images y_i = A_i psi, with
    a = sum_i |y_i|^2, b = sum_i (psi^H y_i)^2 and nu = |psi|^2, each
    inner product a real one over the 2d parts.

    For a built-in set its rounding is at most (12d + 2k + 26) u P (d the
    dimension, k the number of operators, P as in ``_Pencil``).  A row of
    a built-in operator has at most two nonzero entries, and a product
    with a zero entry or a sum with a zero partial sum is exact, so in
    conventional complex arithmetic each part of y_i is a real inner
    product of at most four terms, and the computed image is y_i + e_i
    with |e_i| <= g |A_i| |psi| entrywise, g = sqrt(2) gamma_4 < 5.7u,
    hence |e_i| <= g rho_i |psi| (rho_i the largest row sum of |A_i|, which
    bounds its spectral norm).  An inner product of 2d terms is within
    gamma_2d of its sum of moduli (Higham, section 3.1), |y_i| <=
    rho_i |psi| and |psi^H y_i| <= rho_i nu.  To first order in u:

    - the computed a is within (2g + gamma_{2d+k-1}) nu P of a;
    - each mean is within (g + gamma_2d) rho_i nu of psi^H A_i psi, so the
      computed b is within (2g + 2 gamma_2d + gamma_k) nu^2 P of b;
    - the computed nu is within gamma_2d nu of nu, which moves a / nu <= P
      by gamma_2d P and b / nu^2 <= P by 2 gamma_2d P;
    - the two divisions, the square of nu and the difference of two
      numbers in [0, P] add 4u P.

    With 4g < 23u that is (12d + 2k + 26) u P.  ``_Pencil.e0`` adds one u
    P of slack and the stored set's 8 u P.
    """
    x = psi.view(float)
    z = (ops @ psi).view(float)
    nu = float(x @ x)
    a = float(np.einsum("kj,kj->k", z, z).sum())
    means = z @ x
    return a / nu - float(means @ means) / (nu * nu)


def interval_minimum(operator_set: OperatorSet, reach: float) -> IntervalResult:
    """Enclose the minimum uncertainty sum of a spin or Stokes subset.

    ``operator_set`` must be a subset of {L_x, L_y, L_z} or of the Stokes
    operators, in any order, as ``spin_subset``, ``stokes_subset`` and their
    full sets build it, and ``reach`` = c l the largest eigenvalue of its
    members (c = 1 for spin, 2 for Stokes), from the spin quantum number.
    As a multiple of 1/2 it keeps every box end an exact binary fraction.

    Let Q = sum_i A_i^2 and A = A_0.  A rotation about the missing axis (any
    axis for three components) turns a state's mean vector onto A_0's
    direction without changing <Q>, so the minimum of the sum is the minimum
    of g = <Q> - <A>^2 over states with <A> in [lo, hi] = [0, c l]; a single
    operator keeps [-c l, c l].  For a state with <A> in a box [t - r, t + r],
    -<A>^2 = t^2 - 2t<A> - (<A> - t)^2, so g >= h(t) - r^2 with
    h(t) = lambda_min(Q - 2tA) + t^2.  The eigenvector of Q - 2tA reaches g
    <= h(t) at its state, and the sum there is at most g.  Every order of
    k components has the same h, that of the real tridiagonal pencil of
    its shape (``_Pencil``), and the search runs on that pencil.

    The pencil's lower end holds only for the components themselves, so a
    set without the shape those constructors record (``OperatorSet._shape``)
    is refused, and so is a ``reach`` other than its c l.

    The search runs level by level, one stacked ``eigvalsh`` per level.
    The first level evaluates the root box [lo, hi] and h at both ends; each
    box whose bound h(t) - r^2, less the proof allowance, is still below
    upper - tol, tol = INTERVAL_TOLERANCE * max(1, upper), splits into
    BOX_SPLIT boxes while upper > tol and r^2 > tol / BOX_SPLIT^2, and the
    others are final.  The boxes of a level share one radius r.  ``lower``
    is max(0, the least final box bound s + t^2 - r^2), where each s is
    proved by the LDL^T pivots of Q - 2tA - s 1 (``_pivots_positive``);
    the final boxes of all levels are proved together by
    ``_proved_floors``.  ``upper`` is the set's own: its sum at the
    eigenvector of its own Q - 2tA_0 at the best t evaluated (the first at
    the least h), plus the bound on the rounding of that evaluation
    (``_normalized_sum``).  When A_0 is the pencil's A and, for two
    components, the missing axis is z, the set's own Q - 2tA_0 is the
    pencil's, and the eigenvector is taken from the pencil's real matrix.

    A level holds at most 16 boxes on every built-in set, so each box's
    numbers (t, its estimate, h, its first shift, its floor, its split test
    and its children's midpoints) are Python floats; numpy only forms and
    reduces the matrix stacks.  A search makes one ``eigvalsh`` per level,
    one ``eigh`` for the eigenvector, and one pivot pass when every final
    box is proved at its first shift.
    """
    if operator_set._shape is None:
        raise InvalidParameterError(
            f"operator set {operator_set.label!r} is not a built-in spin or Stokes subset"
        )
    two_l, c, axes = operator_set._shape
    if reach != c * two_l / 2:
        raise InvalidParameterError(
            f"reach must be c l = {c * two_l / 2} for {operator_set.label}, got {reach!r}"
        )
    k = len(axes)
    pen = _Pencil(k, two_l, c)
    hi = float(reach)
    lo = 0.0 if k > 1 else -hi
    t = [(lo + hi) / 2]
    r = (hi - lo) / 2
    points = t + [lo, hi]
    upper, best = math.inf, hi
    # the final boxes of every level, as _proved_floors takes them
    finals = []
    boxes = 0
    for level in range(MAX_LEVELS):
        estimates = np.linalg.eigvalsh(pen.matrices(points))[:, 0].tolist()
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
            shift = estimate - (pen.d0 + pen.d1 * abs(c))
            level_boxes.append((c, r, estimate, shift, _floor(pen, shift, c, r)))
        # A box's bound is at least upper - r^2 less its allowance, so a box
        # with r^2 <= tol / BOX_SPLIT^2 gains nothing that matters by
        # splitting; and a variance sum is never negative, so when upper <= tol
        # the lower end 0 already closes the gap.
        split = []
        if level + 1 < MAX_LEVELS and r * r > tol / BOX_SPLIT**2 and upper > tol:
            cut = upper + pen.e0 - tol
            split = [box for box in level_boxes if box[4] < cut]
        if not split or BOX_SPLIT * len(split) > MAX_LEVEL_BOXES:
            finals += level_boxes
            break
        finals += [box for box in level_boxes if not box[4] < cut]
        r /= BOX_SPLIT
        steps = [r * k for k in _CHILD_OFFSETS]
        t = points = [box[0] + step for box in split for step in steps]

    lower = max(0.0, min(_proved_floors(pen, finals)))
    # the argmin and its sum are the set's own, in its own order
    ops = np.stack(operator_set.operators)
    if axes[0] == (2 if k == 1 else 0) and (k != 2 or axes[1] == 1):
        matrix = pen.matrices([best])[0]
    else:
        matrix = (ops @ ops).sum(axis=0) - 2 * best * ops[0]
    argmin = PureState.canonical(np.linalg.eigh(matrix)[1][:, 0])
    # a variance sum is never negative, so 0 is at least as near the exact
    # sum as an evaluation that rounded below it
    minimum = max(0.0, _normalized_sum(ops, argmin.amplitudes))
    upper = math.nextafter(minimum + pen.e0, math.inf)
    return IntervalResult(lower, upper, minimum, argmin, boxes)
