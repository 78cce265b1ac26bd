import json
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lurcert import bound_search, cli, linalg
from lurcert.bound_search import (
    ARMIJO,
    INTERVAL_TOLERANCE,
    MAX_RESTARTS,
    RESTART_BLOCK,
    STOP_REASONS,
    SearchConfig,
    _evaluate,
    _minimize_block,
    _operator_stack,
    interval_minimum,
    minimize_sum_uncertainty,
)
from lurcert.linalg import DimensionMismatchError, InvalidParameterError
from lurcert.lur import build_joint, certify
from lurcert.spin_ops import OperatorSet, SpinQuantum, spin_components, spin_subset, stokes_subset
from lurcert.states import read_state, validate
from lurcert.uncertainty import catalog_bound

from oracles import brute_force_minimum, sum_uncertainty

FAST = SearchConfig(restarts=16)


def block_starts(rng, count, dim):
    """The next ``count`` starts of a search's stream in real coordinates:
    restart r is the r-th group of 2 * dim standard normals, normalized."""
    x = rng.standard_normal((count, 2, dim)).reshape(count, -1)
    return np.ascontiguousarray((x / np.linalg.norm(x, axis=1, keepdims=True)).T)


def grid_error(op_set, resolution):
    # the grid minimum overshoots by O(h^2) with the curvature set by the
    # squared spectral radii of the set members
    scale = sum(np.abs(np.linalg.eigvalsh(a)).max() ** 2 for a in op_set)
    return resolution**2 * scale


def test_minimize_three_component_spin_one():
    res = minimize_sum_uncertainty(spin_components(SpinQuantum(2)), FAST)
    assert abs(res.minimum - 1.0) < 1e-6


def test_minimize_two_component_spin_one():
    res = minimize_sum_uncertainty(spin_subset(SpinQuantum(2), "xy"), FAST)
    assert abs(res.minimum - 0.4375) < 1e-6


def test_minimize_single_operator_set():
    res = minimize_sum_uncertainty(spin_subset(SpinQuantum(2), "z"), FAST)
    assert abs(res.minimum) < 1e-8  # eigenstate exists


def test_minimum_matches_argmin_sum_uncertainty():
    op_set = spin_subset(SpinQuantum(2), "xy")
    res = minimize_sum_uncertainty(op_set, FAST)
    direct = sum_uncertainty(res.argmin.projector(), op_set)
    assert abs(res.minimum - direct) < 1e-10


def test_argmin_matches_known_amplitudes():
    res = minimize_sum_uncertainty(spin_subset(SpinQuantum(2), "xy"), SearchConfig())
    expected = np.array([np.sqrt(5) / 4, np.sqrt(6) / 4, np.sqrt(5) / 4])
    assert np.abs(np.abs(res.argmin.amplitudes) - expected).max() < 1e-4


def test_search_is_deterministic():
    op_set = spin_components(SpinQuantum(3))
    a = minimize_sum_uncertainty(op_set, FAST)
    b = minimize_sum_uncertainty(op_set, FAST)
    assert a.minimum == b.minimum
    assert a.restart_minima == b.restart_minima
    assert np.array_equal(a.argmin.amplitudes, b.argmin.amplitudes)
    c = minimize_sum_uncertainty(op_set, SearchConfig(restarts=16, rng_seed=7))
    assert c.restart_minima != a.restart_minima  # different stream, same minimum
    assert abs(c.minimum - a.minimum) < 1e-9


def test_descent_is_monotone():
    op_set = spin_subset(SpinQuantum(2), "xy")
    config = SearchConfig()
    starts = block_starts(np.random.default_rng(0), config.restarts, 3)
    history = []
    _minimize_block(_operator_stack(op_set), starts, history=history)
    values = np.array(history)
    assert values.shape[1] == config.restarts
    assert (np.diff(values, axis=0) <= 0).all()
    assert len(history) > 2


def test_restarts_cross_block_boundary():
    op_set = spin_subset(SpinQuantum(3), "xy")
    short = minimize_sum_uncertainty(op_set, SearchConfig(restarts=16))
    long = minimize_sum_uncertainty(op_set, SearchConfig(restarts=RESTART_BLOCK + 16))
    assert len(long.restart_minima) == RESTART_BLOCK + 16
    assert all(type(f) is float for f in long.restart_minima)
    first = np.array(long.restart_minima[:16])
    assert (np.abs(first - short.restart_minima) <= 1e-12 * np.abs(first)).all()
    assert long.restart_converged[:16] == short.restart_converged
    assert long.minimum <= short.minimum
    # the second block continues the stream after the first block's 64
    # starts, not from the stream's beginning
    rng = np.random.default_rng(0)
    block_starts(rng, RESTART_BLOCK, op_set.dim)
    tail = block_starts(rng, 16, op_set.dim)
    minima, _, _ = _minimize_block(_operator_stack(op_set), tail)
    assert minima.tolist() == list(long.restart_minima[RESTART_BLOCK:])


@pytest.fixture(scope="module")
def settled_block():
    """The final block of a 64-restart spin:xy descent at l = 2, seed 1."""
    stack = _operator_stack(spin_subset(SpinQuantum(4), "xy"))
    starts = block_starts(np.random.default_rng(1), RESTART_BLOCK, 5)
    minima, final, stops = _minimize_block(stack, starts)
    return stack, minima, final, stops


def test_floor_columns_retire_without_backtracking(monkeypatch):
    # converged columns used to halve their step down to 1e-18 on every
    # iteration until the stall window retired them: 2,912 calls here
    calls = []

    def counted(stack, psi):
        calls.append(1)
        return _evaluate(stack, psi)

    monkeypatch.setattr(bound_search, "_evaluate", counted)
    res = minimize_sum_uncertainty(spin_subset(SpinQuantum(2), "xy"), SearchConfig(rng_seed=5))
    assert abs(res.minimum - 0.4375) < 1e-12
    assert res.restarts_agreeing == 64
    assert len(calls) <= 100


def test_descent_from_the_final_block_finds_no_decrease(settled_block):
    stack, minima, final, _ = settled_block
    again, _, _ = _minimize_block(stack, final)
    assert (minima - again <= 1e-12 * np.maximum(1.0, np.abs(minima))).all()


def test_line_search_stops_sit_at_the_floor(settled_block):
    stack, minima, final, stops = settled_block
    f, grad = _evaluate(stack, final)
    assert np.array_equal(f, minima)
    # Along the sphere, f has curvature at most L = 4||S|| + 16 sum_i ||A_i||^2,
    # so every step s <= 1/L along -g descends, and the Armijo test asks it for
    # ARMIJO * s * |g|^2 <= ARMIJO * |g|^2 / L.  Below the norm g_floor that
    # demand is under eps * max(1, |f|), within f's rounding, and the gain the
    # bound guarantees for s = 1/L, |g|^2 / (2L), is under 5e3 eps, about
    # 1e-12 relative: f is at its floor as the line search can see it.
    norm = lambda a: np.linalg.norm(a, 2)
    curvature = 4 * norm(stack[0]) + 16 * sum(norm(a) ** 2 for a in stack[1:])
    eps = np.finfo(float).eps
    g_floor = np.sqrt(curvature * eps * np.maximum(1.0, np.abs(f)) / ARMIJO)
    line_search = np.array(stops) == "line-search"
    assert line_search.sum() >= RESTART_BLOCK // 2
    assert (np.linalg.norm(grad, axis=0)[line_search] < g_floor[line_search]).all()
    # the stall window is a backstop: every column here stops at the floor first
    assert set(stops) <= {"gradient", "line-search"}


def test_stop_reasons_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(bound_search, "MAX_ITERATIONS", 1)
    res = minimize_sum_uncertainty(spin_subset(SpinQuantum(2), "xy"), SearchConfig(restarts=8))
    assert set(res.restart_stops) == {"max-iterations"}
    assert res.converged_count == 0
    assert not res.any_converged


def test_rotation_invariance_of_minimum():
    rng = np.random.default_rng(31)
    op_set = spin_subset(SpinQuantum(2), "xy")
    base = minimize_sum_uncertainty(op_set, FAST).minimum
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    u = (v * np.exp(1j * w)) @ v.conj().T
    rotated = OperatorSet("rotated", tuple(u @ a @ u.conj().T for a in op_set))
    assert abs(minimize_sum_uncertainty(rotated, FAST).minimum - base) < 1e-7


def test_restart_bookkeeping_healthy_run():
    res = minimize_sum_uncertainty(spin_components(SpinQuantum(2)), FAST)
    assert res.restarts_agreeing == FAST.restarts
    assert res.converged_count == FAST.restarts
    assert res.any_converged
    assert tuple(res.stop_counts) == STOP_REASONS
    assert res.stop_counts["max-iterations"] == 0
    assert sum(res.stop_counts.values()) == FAST.restarts
    assert not res.low_confidence


def test_brute_force_spin_half():
    res = np.pi / 200
    ops3 = spin_components(SpinQuantum(1))
    assert abs(brute_force_minimum(ops3, res) - 0.5) < 1e-3
    ops2 = spin_subset(SpinQuantum(1), "xy")
    assert abs(brute_force_minimum(ops2, res) - 0.25) < 1e-3


def test_brute_force_spin_one_two_components():
    val = brute_force_minimum(spin_subset(SpinQuantum(2), "xy"), np.pi / 100)
    assert abs(val - 0.4375) < 1e-3


def test_brute_force_full_phases_agrees():
    op_set = spin_subset(SpinQuantum(2), "xy")
    coarse = brute_force_minimum(op_set, np.pi / 24, full_phases=True)
    assert coarse >= 0.4375 - 1e-12
    assert coarse - 0.4375 < grid_error(op_set, np.pi / 24)


def test_brute_force_guards():
    with pytest.raises(DimensionMismatchError):
        brute_force_minimum(spin_components(SpinQuantum(3)), 0.1)
    with pytest.raises(InvalidParameterError):
        brute_force_minimum(spin_components(SpinQuantum(1)), 0.0)
    assert brute_force_minimum(OperatorSet("scalar", (np.zeros((1, 1)),)), 0.1) == 0.0


def dim_le_3_catalog_sets():
    return [
        ("spin3 l=1/2", catalog_bound("spin3", SpinQuantum(1))),
        ("spin3 l=1", catalog_bound("spin3", SpinQuantum(2))),
        ("stokes3 n=1", catalog_bound("stokes3", 1)),
        ("stokes3 n=2", catalog_bound("stokes3", 2)),
        ("spin2_N2", catalog_bound("spin2_N2", SpinQuantum(1))),
        ("stokes2_N2", catalog_bound("stokes2_N2", 1)),
        ("spin2_N3", catalog_bound("spin2_N3", SpinQuantum(2))),
        ("stokes2_N3", catalog_bound("stokes2_N3", 2)),
    ]


@pytest.mark.parametrize("label,relation", dim_le_3_catalog_sets(), ids=lambda v: v if isinstance(v, str) else "")
def test_search_agrees_with_brute_force(label, relation):
    resolution = np.pi / 100
    searched = minimize_sum_uncertainty(relation.operator_set, FAST).minimum
    brute = brute_force_minimum(relation.operator_set, resolution)
    assert brute >= searched - 1e-7  # grid states can never beat the true minimum
    assert brute - searched <= 2 * grid_error(relation.operator_set, resolution)
    assert abs(searched - relation.bound) < 1e-6


CATALOG_ENTRIES = [
    *((kind, two_l) for kind in ("spin3", "stokes3") for two_l in range(1, 12)),
    ("spin2_N2", 1),
    ("stokes2_N2", 1),
    ("spin2_N3", 2),
    ("stokes2_N3", 2),
]


@pytest.mark.parametrize("kind, two_l", CATALOG_ENTRIES)
def test_no_restart_beats_a_catalog_bound(kind, two_l):
    # the descent as adversary: a restart that ends below the bound, less
    # rounding, is a state that refutes it
    relation = catalog_bound(kind, SpinQuantum(two_l) if kind.startswith("spin") else two_l)
    result = minimize_sum_uncertainty(relation.operator_set, SearchConfig(64, 0))
    floor = relation.bound - 1e-12 * max(1.0, relation.bound)
    assert min(result.restart_minima) >= floor


@pytest.mark.parametrize("spec", ["spin:xy", "stokes:12"])
@pytest.mark.parametrize("two_l", range(1, 9))
def test_no_restart_beats_an_emitted_bound_file(tmp_path, capsys, spec, two_l):
    # the same adversary on what --emit-bound writes: the operators are
    # rebuilt from the file's [re, im] rows with numpy, not the loader
    path = tmp_path / "bound.json"
    argv = ["search-bound", "--set", spec, "--two-l", str(two_l), "--emit-bound", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    pairs = np.array(doc["operators"], dtype=float)
    ops = OperatorSet(doc["label"], tuple(pairs[..., 0] + 1j * pairs[..., 1]))
    assert (ops.dim, doc["provenance"]) == (two_l + 1, "interval")
    result = minimize_sum_uncertainty(ops, SearchConfig(64, 0))
    floor = doc["bound"] - 1e-12 * max(1.0, doc["bound"])
    assert min(result.restart_minima) >= floor


def test_search_config_validation():
    with pytest.raises(InvalidParameterError):
        SearchConfig(restarts=0)
    with pytest.raises(InvalidParameterError):
        SearchConfig(rng_seed=-1)
    # each restart keeps a minimum and a stop reason, so the count is capped
    assert SearchConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    with pytest.raises(InvalidParameterError, match=f"at most {MAX_RESTARTS}"):
        SearchConfig(restarts=MAX_RESTARTS + 1)


@pytest.mark.parametrize(
    "field,value",
    [("restarts", True), ("rng_seed", True), ("rng_seed", False), ("restarts", 2.5),
     ("restarts", "4"), ("restarts", 4.0), ("rng_seed", 1.5), ("rng_seed", None), ("rng_seed", "0")],
)
def test_search_config_refuses_non_integers(field, value):
    # a bool would be recorded as "seed": true in a bound file, and the
    # others used to fail in range, < or SeedSequence with bare errors
    with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
        SearchConfig(**{field: value})


def test_search_config_takes_numpy_integers():
    config = SearchConfig(restarts=np.int64(3), rng_seed=np.uint32(5))
    res = minimize_sum_uncertainty(spin_subset(SpinQuantum(2), "xy"), config)
    assert res.restart_minima == minimize_sum_uncertainty(
        spin_subset(SpinQuantum(2), "xy"), SearchConfig(restarts=3, rng_seed=5)
    ).restart_minima


def random_hermitian_set(rng, dim, count):
    """``count`` operators (G + G^+)/2 with G of standard complex normals."""
    ops = []
    for _ in range(count):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops.append((g + g.conj().T) / 2)
    return OperatorSet("random", tuple(ops))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_a_search_bound_is_never_above_the_minimum():
    # two restarts agree with themselves and report confidence, yet their
    # minimum 0.4408 is an upper estimate: 64 restarts find 0.2853, and
    # against the 2-restart bound the product of two minimizers is entangled
    op_set = random_hermitian_set(np.random.default_rng(1), 3, 2)
    few = minimize_sum_uncertainty(op_set, SearchConfig(restarts=2, rng_seed=4))
    many = minimize_sum_uncertainty(op_set, SearchConfig(restarts=64, rng_seed=4))
    assert abs(few.minimum - 0.44083725188212) < 1e-12 and not few.low_confidence
    assert abs(many.minimum - 0.2852721823682) < 1e-12
    psi = many.argmin.amplitudes
    product = np.kron(psi, psi)
    rho = validate(np.outer(product, product.conj()), (3, 3))
    joint = build_joint(op_set, few.minimum, op_set, few.minimum)
    assert not certify(rho, joint).entangled


@settings(max_examples=20, deadline=None)
# a lone start must round as the same start does in a block of 65
@example(dim=7, count=1, set_seed=0, restarts=1, seed=1)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_search_output_properties(dim, count, set_seed, restarts, seed):
    op_set = random_hermitian_set(np.random.default_rng(set_seed), dim, count)
    scale = sum(np.linalg.norm(a, 2) ** 2 for a in op_set)

    def run(restarts):
        with mock.patch.object(
            bound_search, "_minimize_block", wraps=bound_search._minimize_block
        ) as spy:
            res = minimize_sum_uncertainty(op_set, SearchConfig(restarts=restarts, rng_seed=seed))
        return res, np.concatenate([call.args[1] for call in spy.call_args_list], axis=1)

    res, starts = run(restarts)
    # the reported minimum is the sum at the reported state
    assert abs(res.minimum - sum_uncertainty(res.argmin.projector(), op_set)) <= 1e-12 * scale
    # R restarts start where the first R of a longer run start
    _, longer = run(restarts + RESTART_BLOCK)
    assert starts.shape == (2 * dim, restarts)
    assert np.array_equal(longer[:, :restarts], starts)
    # a rerun is bit-identical
    again, again_starts = run(restarts)
    assert np.array_equal(again_starts, starts)
    assert again.restart_minima == res.restart_minima
    assert again.restart_stops == res.restart_stops
    assert np.array_equal(again.argmin.amplitudes, res.argmin.amplitudes)


# --- the interval method of the built-in spin and Stokes sets ---------------


def builtin_set(family, axes, two_l):
    """A built-in set and its reach c l (c = 1 spin, 2 Stokes), as
    ``search-bound`` builds them."""
    if family == "spin":
        return spin_subset(SpinQuantum(two_l), axes), SpinQuantum(two_l).l
    return stokes_subset(two_l, axes), 2 * SpinQuantum(two_l).l


def tolerance(res):
    return INTERVAL_TOLERANCE * max(1.0, res.upper)


ANALYTIC_LIMITS = (
    [("spin", "xy", 1, 0.25), ("spin", "xy", 2, 0.4375), ("stokes", "12", 1, 1.0), ("stokes", "12", 2, 1.75)]
    + [("spin", "xyz", two_l, two_l / 2) for two_l in range(1, 13)]
    + [("stokes", "123", n, 2.0 * n) for n in range(1, 13)]
)


@pytest.mark.parametrize("family, axes, two_l, exact", ANALYTIC_LIMITS)
def test_interval_contains_the_analytic_limit(family, axes, two_l, exact):
    res = interval_minimum(*builtin_set(family, axes, two_l))
    assert 0 < res.lower <= exact <= res.upper
    assert res.gap <= tolerance(res)


@pytest.mark.parametrize("family, axes", [("spin", "xy"), ("stokes", "12"), ("spin", "xyz"), ("stokes", "123")])
def test_interval_gap_is_within_the_tolerance(family, axes):
    for two_l in range(1, 13):
        res = interval_minimum(*builtin_set(family, axes, two_l))
        assert 0 < res.lower <= res.upper, two_l
        assert res.gap <= tolerance(res), (two_l, res.gap)


@pytest.mark.parametrize("family, axes", [("spin", "xy"), ("stokes", "12"), ("spin", "xyz"), ("stokes", "31")])
def test_no_descent_minimum_is_below_the_lower_end(family, axes):
    # the same matrices as an operator file hold them take the descent
    for two_l in range(1, 9):
        op_set, reach = builtin_set(family, axes, two_l)
        res = interval_minimum(op_set, reach)
        twin = OperatorSet("operator file", tuple(np.array(a) for a in op_set))
        descent = minimize_sum_uncertainty(twin, SearchConfig(restarts=64))
        assert min(descent.restart_minima) >= res.lower, two_l
        assert abs(descent.minimum - res.upper) <= tolerance(res), two_l


@pytest.mark.parametrize("family, axes, two_l", [
    ("spin", "xy", 2), ("spin", "xy", 5), ("spin", "yx", 3), ("spin", "xyz", 6),
    ("stokes", "12", 2), ("stokes", "23", 4), ("spin", "x", 3),
])
def test_emitted_argmin_attains_the_printed_minimum(family, axes, two_l, tmp_path, capsys):
    state_path = tmp_path / "argmin.json"
    assert cli.main(["search-bound", "--set", f"{family}:{axes}", "--two-l", str(two_l),
                     "--emit-state", str(state_path)]) == 0
    out = capsys.readouterr().out
    minimum = float(next(l for l in out.splitlines() if l.startswith("minimum:")).split()[1])
    interval = next(l for l in out.splitlines() if l.startswith("interval:"))
    lower, upper = (float(v) for v in interval[len("interval: ["):interval.index("]")].split(", "))
    # the upper end adds the bound on the rounding of the minimum's evaluation
    assert lower <= minimum <= upper <= minimum + 1e-10 * max(1.0, minimum)
    achieved = sum_uncertainty(read_state(state_path), builtin_set(family, axes, two_l)[0])
    assert abs(achieved - minimum) <= 1e-12 * max(1.0, minimum)


@pytest.mark.parametrize("family, pairs", [("spin", ("xz", "yz", "yx", "zy")), ("stokes", ("13", "23", "21"))])
def test_every_pair_of_axes_gives_the_interval_of_the_first(family, pairs):
    first = "xy" if family == "spin" else "12"
    for two_l in range(1, 7):
        base = interval_minimum(*builtin_set(family, first, two_l))
        for axes in pairs:
            res = interval_minimum(*builtin_set(family, axes, two_l))
            assert abs(res.lower - base.lower) <= tolerance(base), (axes, two_l)
            assert abs(res.upper - base.upper) <= tolerance(base), (axes, two_l)
            assert max(res.lower, base.lower) <= min(res.upper, base.upper)


@pytest.mark.parametrize("spec", ["spin:x", "spin:y", "spin:z", "stokes:1", "stokes:2"])
def test_a_single_axis_gives_zero(spec, capsys):
    for two_l in range(0, 5):
        family, axes = spec.split(":")
        res = interval_minimum(*builtin_set(family, axes, two_l))
        assert res.lower == 0.0 and abs(res.minimum) <= res.upper < 1e-10
        assert cli.main(["search-bound", "--set", spec, "--two-l", str(two_l)]) == 0
        out = capsys.readouterr().out
        assert "interval: [0, " in out
        assert "note: minimum is ~0, a common eigenstate exists; no usable uncertainty limit" in out


@pytest.mark.parametrize("reach", [-0.5, 0.3, float("inf"), float("nan")])
def test_a_reach_off_the_half_integers_is_refused(reach):
    # box ends must stay exact binary fractions of c l
    with pytest.raises(InvalidParameterError, match="reach must be a nonnegative multiple of 1/2"):
        interval_minimum(spin_subset(SpinQuantum(2), "xy"), reach)


def test_a_failed_cholesky_proves_nothing(monkeypatch, tmp_path, capsys):
    op_set, reach = builtin_set("spin", "xy", 2)
    proved = interval_minimum(op_set, reach)
    calls = []

    def failing(a):
        calls.append(np.shape(a))
        raise np.linalg.LinAlgError("patched to fail")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    res = interval_minimum(op_set, reach)
    # every box was tried, and retried, and none is taken on trust
    assert len(calls) > bound_search.CHOLESKY_RETRIES
    assert res.lower == 0.0 and res.upper == proved.upper
    bound_path = tmp_path / "bound.json"
    assert cli.main(["search-bound", "--set", "spin:xy", "--two-l", "2",
                     "--emit-bound", str(bound_path)]) == 0
    assert "interval: [0, " in capsys.readouterr().out
    assert json.loads(bound_path.read_text())["bound"] == 0.0


def test_a_failed_stack_is_proved_matrix_by_matrix(monkeypatch):
    # one failing matrix fails numpy's stacked call; the others still prove
    op_set, reach = builtin_set("spin", "xy", 3)
    proved = interval_minimum(op_set, reach)
    cholesky = np.linalg.cholesky

    def stack_fails(a):
        if np.ndim(a) == 3:
            raise np.linalg.LinAlgError("patched to fail")
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", stack_fails)
    res = interval_minimum(op_set, reach)
    assert res.lower == proved.lower > 0


def test_a_widened_shift_still_proves_a_lower_end(monkeypatch):
    # the first factorization of every box fails, so each proof takes the
    # once-widened shift, and the lower end moves down but stays proved
    op_set, reach = builtin_set("stokes", "12", 2)
    proved = interval_minimum(op_set, reach)
    factorizes = bound_search._factorizes
    attempts = []

    def first_fails(stack):
        attempts.append(len(stack))
        ok = factorizes(stack)
        return ok & (len(attempts) > 1)

    monkeypatch.setattr(bound_search, "_factorizes", first_fails)
    res = interval_minimum(op_set, reach)
    assert len(attempts) == 2 and attempts[0] == attempts[1]
    assert 0 < res.lower < proved.lower <= 1.75 <= res.upper == proved.upper


def exactly_above(axes, scale, two_l, t, floor):
    """Whether lambda_min(Q - 2tA) >= floor - t^2 holds for the exact
    spin-l L_x, L_y (and L_z for ``axes="xyz"``) times ``scale``, with A
    = L_x or L_y.  Q is diagonal and A tridiagonal, with off-diagonal squares
    t^2 scale^2 (l(l+1) - m(m+1)) in rationals, so the LDL^T pivots decide
    it exactly."""
    l = Fraction(two_l, 2)
    shift = Fraction(floor) - t * t
    pivot = None
    for k in range(two_l + 1):
        m = l - k
        entry = scale**2 * (l * (l + 1) - (0 if axes == "xyz" else m * m)) - shift
        if k:
            entry -= scale**2 * t * t * (l * (l + 1) - m * (m + 1)) / pivot
        if entry < 0:
            return False
        pivot = entry if entry else Fraction(1, 10**30)
    return True


def final_boxes(op_set, reach):
    """``interval_minimum(op_set, reach)`` with its final boxes recorded:
    the result, and the boxes' midpoints, radii and proved floors.  A
    search whose final boxes share one radius passes it as a scalar."""
    calls = []

    def recording(red, t, r, estimate, shift, floors, prove=bound_search._proved_floors):
        calls.append((t, np.broadcast_to(r, t.shape), prove(red, t, r, estimate, shift, floors)))
        return calls[-1][2]

    with mock.patch.object(bound_search, "_proved_floors", recording):
        res = interval_minimum(op_set, reach)
    [(t, r, floors)] = calls
    return res, t, r, floors


def assert_boxes_tile(t, r, reach):
    """The boxes [t - r, t + r] tile [0, reach] exactly."""
    boxes = sorted((Fraction(c) - Fraction(w), Fraction(c) + Fraction(w)) for c, w in zip(t, r))
    assert boxes[0][0] == 0 and boxes[-1][1] == Fraction(reach)
    assert all(a[1] == b[0] for a, b in zip(boxes, boxes[1:]))


@pytest.mark.parametrize("family, axes", [
    ("spin", "xy"), ("stokes", "12"), ("spin", "xyz"), ("stokes", "123"), ("spin", "yx"), ("stokes", "21"),
])
def test_final_boxes_cover_the_range_and_hold_exactly(family, axes):
    # every final box bound is checked against the exact spin matrices in
    # rational arithmetic, and the final boxes tile [0, c l]; with L_y first
    # the pivots are those of L_x, since they take only |off-diagonal|^2
    scale = 1 if family == "spin" else 2
    for two_l in range(1, 9):
        op_set, reach = builtin_set(family, axes, two_l)
        res, t, r, floors = final_boxes(op_set, reach)
        assert res.lower == max(0.0, floors.min())
        assert_boxes_tile(t, r, reach)
        for c, w, floor in zip(t, r, floors):
            c, w = Fraction(c), Fraction(w)
            assert exactly_above("xyz" if len(axes) == 3 else "xy", scale, two_l, c, Fraction(floor) + w * w)


def _counting(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_the_interval_search_makes_each_numpy_call_once(monkeypatch):
    # spin:xy at 2l = 2 evaluates six levels (1, 8, 8, 16, 8 and 16 boxes),
    # proves every final box in one stack and takes one eigenvector
    calls = {}
    for name in ("eigvalsh", "eigh"):
        _counting(monkeypatch, np.linalg, name, calls)
    _counting(monkeypatch, bound_search, "_factorizes", calls)
    op_set, reach = builtin_set("spin", "xy", 2)
    assert interval_minimum(op_set, reach).boxes == 57
    assert calls == {"eigvalsh": 6, "_factorizes": 1, "eigh": 1}


def _count_hermiticity_checks(monkeypatch, calls):
    """Count ``ensure_hermitian`` through every lurcert namespace that holds it."""
    original = linalg.ensure_hermitian
    for module_name, module in list(sys.modules.items()):
        if module_name == "lurcert" or module_name.startswith("lurcert."):
            for name, value in list(vars(module).items()):
                if value is original:
                    _counting(monkeypatch, module, name, calls)


def test_a_built_in_search_checks_no_operator(monkeypatch, capsys):
    calls = {}
    _count_hermiticity_checks(monkeypatch, calls)
    assert cli.main(["search-bound", "--set", "spin:xy", "--two-l", "2"]) == 0
    assert "interval: [" in capsys.readouterr().out
    assert calls == {}


def test_an_operator_file_search_checks_each_operator_once(monkeypatch, capsys):
    calls = {}
    _count_hermiticity_checks(monkeypatch, calls)
    path = Path(__file__).parent / "data" / "spin1_xy_operators.json"
    count = len(json.loads(path.read_text(encoding="utf-8"))["operators"])
    assert cli.main(["search-bound", "--set", str(path), "--restarts", "2"]) == 0
    capsys.readouterr()
    assert calls == {"ensure_hermitian": count} and count == 2
