"""The pass-based block descent against the sequential descent it replaced.

``reference_minimize_block`` is that sequential descent: every iteration
evaluates the first trials of the active columns in one batch, backtracks
each failing column in further batches of the failing columns only, and
compacts the block as columns retire.  ``_minimize_block`` follows the
same per-column rules in passes of one full-width evaluation each.  The
two differ only in the widths of the batches that their products see, and
numpy can round a one-column batch differently from a wider one, so results
agree to rounding, not to the bit.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest

from lurcert import bound_search
from lurcert.bound_search import (
    _ACTIVE,
    _GRADIENT,
    _LINE_SEARCH,
    _MAX_ITERATIONS,
    _STALL,
    ARMIJO,
    GRADIENT_TOLERANCE,
    INITIAL_STEP,
    MAX_ITERATIONS,
    MIN_STEP,
    RESTART_BLOCK,
    STALL_DECREASE,
    STALL_WINDOW,
    STEP_SHRINK,
    STOP_REASONS,
    SearchConfig,
    _evaluate,
    _operator_stack,
    minimize_sum_uncertainty,
)
from lurcert.spin_ops import SpinQuantum, spin_components, spin_subset, stokes_subset

from test_bound_search import block_starts, random_hermitian_set


def reference_minimize_block(stack, x, history=None):
    """The sequential-backtracking descent, kept as the reference."""
    f, grad = _evaluate(stack, x)
    minima = f.copy()
    final = x.copy()
    reasons = np.full(f.size, _MAX_ITERATIONS)
    cols = np.arange(f.size)
    grad_sq = np.einsum("dr,dr->r", grad, grad)
    step = np.full(f.size, INITIAL_STEP)
    anchor = f
    if history is not None:
        history.append(minima.copy())
    for iteration in range(1, MAX_ITERATIONS + 1):
        reason = np.full(cols.size, _ACTIVE)
        # the stops before a trial, tested on the extreme columns first
        if math.sqrt(grad_sq.min()) < GRADIENT_TOLERANCE or step.min() < MIN_STEP:
            reason[np.sqrt(grad_sq) < GRADIENT_TOLERANCE] = _GRADIENT
            # no descent left at floating-point resolution
            reason[(reason == _ACTIVE) & (step < MIN_STEP)] = _LINE_SEARCH
        # Every column takes its first trial in one batch; a column that
        # stopped gets its point back below.
        new_x = x - step * grad
        new_x /= np.sqrt(np.einsum("dr,dr->r", new_x, new_x))
        new_f, new_grad = _evaluate(stack, new_x)
        target = f - ARMIJO * step * grad_sq
        retry = np.flatnonzero(~(new_f <= target) & (reason == _ACTIVE))
        trial_step = step[retry]
        while retry.size:
            trial_step = trial_step * STEP_SHRINK
            # the next Armijo target rounds to f, so no decrease it asks for shows
            target = f[retry] - ARMIJO * trial_step * grad_sq[retry]
            exhausted = (trial_step < MIN_STEP) | (target == f[retry])
            if exhausted.any():
                reason[retry[exhausted]] = _LINE_SEARCH
                going = ~exhausted
                retry, trial_step, target = retry[going], trial_step[going], target[going]
                if not retry.size:
                    break
            trial = x[:, retry] - trial_step * grad[:, retry]
            trial /= np.sqrt(np.einsum("dr,dr->r", trial, trial))
            f_trial, grad_trial = _evaluate(stack, trial)
            new_x[:, retry], new_f[retry], new_grad[:, retry] = trial, f_trial, grad_trial
            going = ~(f_trial <= target)
            retry, trial_step, target = retry[going], trial_step[going], target[going]
        held = np.flatnonzero(reason != _ACTIVE)
        if held.size:
            new_x[:, held], new_f[held], new_grad[:, held] = x[:, held], f[held], grad[:, held]
        move = new_x - x
        curvature = np.einsum("dr,dr->r", move, new_grad - grad)
        step = np.full(cols.size, INITIAL_STEP)
        np.divide(np.einsum("dr,dr->r", move, move), curvature, out=step, where=curvature > 0)
        np.minimum(step, INITIAL_STEP, out=step)
        x, f, grad = new_x, new_f, new_grad
        grad_sq = np.einsum("dr,dr->r", grad, grad)
        if history is not None:
            minima[cols] = f
            history.append(minima.copy())
        if iteration % STALL_WINDOW == 0:
            reason[(reason == _ACTIVE) & (anchor - f < STALL_DECREASE)] = _STALL
            anchor = f
            held = np.flatnonzero(reason != _ACTIVE)
        if held.size:
            minima[cols[held]] = f[held]
            final[:, cols[held]] = x[:, held]
            reasons[cols[held]] = reason[held]
            keep = reason == _ACTIVE
            cols, x, f, grad = cols[keep], x[:, keep], f[keep], grad[:, keep]
            grad_sq, step, anchor = grad_sq[keep], step[keep], anchor[keep]
            if not cols.size:
                break
    minima[cols] = f
    final[:, cols] = x
    return minima, final, [STOP_REASONS[r] for r in reasons]


class EvaluationLog:
    """Stands in for ``_evaluate`` in one block and records each call's
    batch width and, from the descent's ``active`` mask at the call, how
    many trials each column has taken."""

    def __init__(self):
        self.widths = []
        self.trials = None

    def __call__(self, stack, x):
        self.widths.append(x.shape[1])
        if self.trials is None:  # the starts
            self.trials = np.zeros(x.shape[1], dtype=int)
        else:
            active = sys._getframe(1).f_locals["active"]
            assert active.any()
            self.trials += active
        return _evaluate(stack, x)


def logged_search(op_set, config):
    """The search with a fresh ``EvaluationLog`` for each block."""
    logs = []
    block = bound_search._minimize_block

    def logged_block(stack, x, history=None):
        logs.append(EvaluationLog())
        with mock.patch.object(bound_search, "_evaluate", logs[-1]):
            return block(stack, x, history)

    with mock.patch.object(bound_search, "_minimize_block", logged_block):
        return minimize_sum_uncertainty(op_set, config), logs


def reference_search(op_set, config):
    with mock.patch.object(bound_search, "_minimize_block", reference_minimize_block):
        return minimize_sum_uncertainty(op_set, config)


BENCHMARK_SETS = [
    ("spin:xy 2l=2", lambda: spin_subset(SpinQuantum(2), "xy")),
    ("spin:xy 2l=3", lambda: spin_subset(SpinQuantum(3), "xy")),
    ("spin:xy 2l=4", lambda: spin_subset(SpinQuantum(4), "xy")),
    ("stokes:12 n=2", lambda: stokes_subset(2, "12")),
    ("spin:xyz 2l=6", lambda: spin_components(SpinQuantum(6))),
]
CASES = (
    [(f"{name} seed={seed}", make, seed) for name, make in BENCHMARK_SETS for seed in range(4)]
    + [(f"random d={d} k={k}", lambda d=d, k=k: random_hermitian_set(np.random.default_rng([d, k, 0]), d, k), 0)
       for d in range(2, 9) for k in range(1, 4)]
    + [(f"spin:xy 2l={two_l}", lambda two_l=two_l: spin_subset(SpinQuantum(two_l), "xy"), 0)
       for two_l in range(1, 7)]
)


@pytest.mark.parametrize("make,seed", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_pass_descent_matches_the_sequential_descent(make, seed):
    op_set = make()
    config = SearchConfig(rng_seed=seed)
    scale = sum(np.linalg.norm(a, 2) ** 2 for a in op_set)
    new, logs = logged_search(op_set, config)
    old = reference_search(op_set, config)

    assert new.restarts_agreeing == old.restarts_agreeing
    assert new.restart_converged == old.restart_converged
    assert new.low_confidence == old.low_confidence
    for a, b in zip(new.restart_stops, old.restart_stops):
        # which of the two fires first at the floor depends on rounding
        assert a == b or {a, b} == {"gradient", "line-search"}
    new_minima, old_minima = np.array(new.restart_minima), np.array(old.restart_minima)
    converged = np.array(new.restart_converged)
    assert (np.abs(new_minima - old_minima)[converged] <= 1e-12 * scale).all()
    # a restart at the iteration cap has not converged, and 10^4 iterations
    # carry the rounding of its batches further along its path
    assert (np.abs(new_minima - old_minima)[~converged] <= 1e-6 * scale).all()
    assert abs(new.minimum - old.minimum) <= 1e-12 * scale

    (log,) = logs
    assert set(log.widths) == {config.restarts}
    assert len(log.widths) <= 1 + log.trials.max()


@pytest.mark.parametrize("restarts", [1, RESTART_BLOCK - 1, RESTART_BLOCK + 1, 2 * RESTART_BLOCK + 6])
def test_every_evaluation_spans_the_whole_block(restarts):
    op_set = spin_subset(SpinQuantum(3), "xy")
    new, logs = logged_search(op_set, SearchConfig(restarts=restarts, rng_seed=2))
    widths = [min(RESTART_BLOCK, restarts - first) for first in range(0, restarts, RESTART_BLOCK)]
    assert [set(log.widths) for log in logs] == [{width} for width in widths]
    for log in logs:
        assert len(log.widths) <= 1 + log.trials.max()
    old = reference_search(op_set, SearchConfig(restarts=restarts, rng_seed=2))
    scale = sum(np.linalg.norm(a, 2) ** 2 for a in op_set)
    assert np.abs(np.array(new.restart_minima) - old.restart_minima).max() <= 1e-12 * scale


@pytest.mark.parametrize("descent", [bound_search._minimize_block, reference_minimize_block],
                         ids=["pass", "sequential"])
@pytest.mark.parametrize("constants,reason,count", [
    # every column stalls at the end of its first window, if nothing stops it before
    ({"STALL_WINDOW": 3, "STALL_DECREASE": math.inf}, "stall", 3),
    ({"STALL_WINDOW": 5, "STALL_DECREASE": math.inf}, "stall", 5),
    ({"MAX_ITERATIONS": 4}, "max-iterations", 4),
    ({"MAX_ITERATIONS": 9}, "max-iterations", 9),
])
@pytest.mark.parametrize("make", [case[1] for case in CASES[::4]], ids=[case[0] for case in CASES[::4]])
def test_each_column_counts_its_own_iterations(descent, constants, reason, count, make, monkeypatch):
    # A column that backtracks completes fewer iterations than the block
    # makes passes, so its window and its cap come at a later pass; an
    # accepted trial lowers the column's value, so the history counts them.
    for name, value in constants.items():
        monkeypatch.setattr(bound_search, name, value)
        monkeypatch.setitem(globals(), name, value)
    op_set = make()
    history = []
    starts = block_starts(np.random.default_rng(0), RESTART_BLOCK, op_set.dim)
    _, _, stops = descent(_operator_stack(op_set), starts, history=history)
    iterations = (np.diff(np.array(history), axis=0) < 0).sum(axis=0)
    stopped_there = np.array(stops) == reason
    assert stopped_there.any()
    assert (iterations[stopped_there] == count).all()
    assert (iterations[~stopped_there] < count).all()
