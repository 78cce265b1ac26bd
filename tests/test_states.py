import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from lurcert.linalg import (
    DEFAULT_TOLERANCE,
    DimensionMismatchError,
    InvalidParameterError,
    NotHermitianError,
)
from lurcert.lur import certify, joint_from_catalog
from lurcert.spin_ops import SpinQuantum, spin_components
from lurcert.states import (
    DensityMatrix,
    NotPositiveError,
    PureState,
    StateFormatError,
    TraceNotOneError,
    bell_kets,
    bell_mixture,
    bell_states,
    maximally_mixed,
    min_uncertainty_state_n3,
    read_state,
    singlet_ket,
    singlet_state,
    state_digest,
    state_from_json,
    state_to_json,
    validate,
    white_noise_mixture,
    x_basis_kets,
    x_decoherence_mixture,
)
from lurcert.uncertainty import variance

from oracles import random_mixed_state, random_product_state, random_pure_state


def purity(rho):
    return np.trace(rho.matrix @ rho.matrix).real


def joint_ops(spin):
    ops = spin_components(spin)
    n = spin.dim
    return [np.kron(a, np.eye(n)) + np.kron(np.eye(n), a) for a in ops]


# --- validation ----------------------------------------------------------


def test_validate_maximally_mixed():
    rho = validate(np.eye(4) / 4, (2, 2))
    assert rho.dims == (2, 2)
    assert rho.is_bipartite
    assert abs(purity(rho) - 0.25) < 1e-12


@pytest.mark.parametrize("dims", [1, 4, (2, 2), (3, 3), (7, 5), (12, 12)])
def test_maximally_mixed_holds_the_bits_of_eye_over_d(dims):
    # family CSVs and certificates print these numbers to 17 digits
    total = int(np.prod(dims))
    expected = np.eye(total, dtype=complex) / total
    assert maximally_mixed(dims).matrix.tobytes() == expected.tobytes()


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveError, match="-2.000e-01"):
        validate(np.diag([0.6, 0.6, -0.2]), (3,))


def test_validate_rejects_bad_trace():
    with pytest.raises(TraceNotOneError):
        validate(np.eye(3), (3,))


def test_validate_rejects_non_hermitian():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 0.1
    with pytest.raises(NotHermitianError):
        validate(m, (2,))


def test_validate_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        validate(np.eye(4) / 4, (2, 3))
    with pytest.raises(DimensionMismatchError):
        validate(np.eye(4) / 4, (2, 2, 1))


def test_validate_accepts_boundary_noise():
    m = np.diag([1.0 + 5e-10, -5e-10])
    assert np.array_equal(validate(m, (2,)).matrix, m)


def test_validate_env_tolerance_widening():
    m = np.diag([1.2, -0.2])
    with pytest.raises(NotPositiveError):
        validate(m, (2,))
    assert validate(m, (2,), 0.5).dim == 2


@pytest.mark.parametrize(
    "tolerance",
    [math.nan, math.inf, -math.inf, 0.0, -1e-6, "1e-6", [1e-6], 1e-6 + 0j, True, 10**400],
)
def test_a_tolerance_that_is_not_finite_and_positive_is_refused(tolerance, tmp_path):
    # [[5, 3], [0, -7]] has trace -2, is not Hermitian and is indefinite;
    # a NaN tolerance used to accept it, since every comparison was false
    for m in (np.array([[5.0, 3.0], [0.0, -7.0]]), np.eye(2) / 2):
        text = json.dumps({"dims": [2], "matrix": [[[x, 0] for x in row] for row in m.tolist()]})
        path = tmp_path / "state.json"
        path.write_text(text)
        for build in (
            lambda: DensityMatrix(m, (2,), tolerance),
            lambda: validate(m, (2,), tolerance),
            lambda: state_from_json(text, tolerance),
            lambda: read_state(path, tolerance),
        ):
            with pytest.raises(InvalidParameterError) as err:
                build()
            assert str(err.value) == (
                f"validation tolerance must be a finite number above zero, got {tolerance!r}"
            )


@pytest.mark.parametrize("tolerance", [None, 1e-6, np.float64(1e-6), Fraction(1, 1000)])
def test_a_number_or_none_is_a_tolerance(tolerance):
    assert DensityMatrix(np.eye(2) / 2, (2,), tolerance).dims == (2,)


# --- the solvers of validation ----------------------------------------------


def record_solvers(monkeypatch):
    """Wrap np.linalg.cholesky and np.linalg.eigvalsh; return the list they
    fill with (name, dtype, result), where a failed factorization records
    the LinAlgError instead of a result."""
    calls = []

    def recording(name):
        solver = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            try:
                result = solver(a, *args, **kwargs)
            except np.linalg.LinAlgError as exc:
                calls.append((name, np.asarray(a).dtype, exc))
                raise
            calls.append((name, np.asarray(a).dtype, result))
            return result

        monkeypatch.setattr(np.linalg, name, wrapper)

    recording("cholesky")
    recording("eigvalsh")
    return calls


def states_with_their_calls(states, calls):
    """Pair each state the iterable builds with the solver calls made while
    building it."""
    states = iter(states)
    while True:
        del calls[:]
        try:
            rho = next(states)
        except StopIteration:
            return
        yield rho, list(calls)


def real_family_members():
    """Every built-in family with real entries, 2l = 1..11, built lazily."""
    for two_l in range(1, 12):
        spin = SpinQuantum(two_l)
        yield singlet_state(spin)
        yield maximally_mixed((spin.dim, spin.dim))
        for p_w in (0.0, 0.3, 1.0):
            yield white_noise_mixture(spin, p_w)
    for p_d in (0.0, 0.5, 1.0):
        yield x_decoherence_mixture(p_d)
    for weights in ((1, 0, 0, 0), (0.4, 0.3, 0.2, 0.1), (0.25, 0.25, 0.25, 0.25)):
        yield bell_mixture(*weights)
    yield min_uncertainty_state_n3(0.0).projector()


def random_real_states(count=20):
    """Seeded real symmetric PSD matrices of unit trace, some rank-deficient."""
    rng = np.random.default_rng(21)
    for k in range(count):
        dim = 2 + k % 11
        g = rng.standard_normal((dim, 1 + k % dim))
        m = g @ g.T
        yield m / np.trace(m)


def test_real_states_are_accepted(monkeypatch):
    calls = record_solvers(monkeypatch)
    # the family constructors check nothing, so their matrices go through
    # validate as a caller's would
    members = (validate(rho.matrix, rho.dims) for rho in real_family_members())
    randoms = (validate(m, (len(m),)) for m in random_real_states())
    built = states_with_their_calls(itertools.chain(members, randoms), calls)
    for rho, made in built:
        # accepted by one complex factorization per validation, no eigensolve
        assert made and all(name == "cholesky" and dtype == np.complex128 for name, dtype, _ in made)
        assert rho.matrix.dtype == complex
        assert not rho.matrix.imag.any()


def test_complex_states_keep_the_complex_solver(monkeypatch):
    calls = record_solvers(monkeypatch)
    rng = np.random.default_rng(22)
    nearly_real = np.diag([0.5, 0.3, 0.2]).astype(complex)
    nearly_real[0, 2] += 1e-300j
    nearly_real[2, 0] -= 1e-300j
    builders = (
        lambda: random_mixed_state(6, rng),
        lambda: random_product_state(2, 3, rng),
        lambda: validate(min_uncertainty_state_n3(1.0).projector().matrix, (3,)),
        lambda: validate(nearly_real, (3,)),
    )
    for rho, made in states_with_their_calls((build() for build in builders), calls):
        assert made and all(name == "cholesky" and dtype == np.complex128 for name, dtype, _ in made)


def tiny_imaginary_pair(m):
    """``m`` plus 1e-300i on a conjugate pair: the same state, complex path."""
    out = np.array(m, dtype=complex)
    out[0, 1] += 1e-300j
    out[1, 0] -= 1e-300j
    return out


def test_real_path_rejects_as_the_complex_path_does(monkeypatch):
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    negative = q @ np.diag([0.5, 0.3, 0.2 + 1e-6, 0.0, -1e-6]) @ q.T
    skewed = next(random_real_states(1))
    skewed[0, 1] += 1e-6
    bad_trace = next(random_real_states(1)) * 1.01
    calls = record_solvers(monkeypatch)
    for m, error in ((skewed, NotHermitianError), (negative, NotPositiveError),
                     (bad_trace, TraceNotOneError)):
        with pytest.raises(error) as real:
            validate(m, (len(m),))
        with pytest.raises(error) as complex_:
            validate(tiny_imaginary_pair(m), (len(m),))
        assert type(real.value) is type(complex_.value)
        assert str(real.value) == str(complex_.value)
    # only the non-positive state reaches the factorization, which fails
    # and falls back to the spectrum, in complex arithmetic for both
    assert [(name, dtype) for name, dtype, _ in calls] == [
        ("cholesky", np.complex128), ("eigvalsh", np.complex128),
        ("cholesky", np.complex128), ("eigvalsh", np.complex128),
    ]


# --- the factorization against the eigvalsh rule --------------------------


def eigvalsh_rule(m, floor):
    """The reference rule validation must agree with: accept when the
    smallest eigenvalue clears the floor.  Returns ``(accepted,
    NotPositiveError text or None)``."""
    m = np.asarray(m)
    least = np.linalg.eigvalsh(m if m.imag.any() else m.real)[0]
    if least < floor:
        return False, f"state is not positive semidefinite: min eigenvalue {least:.3e}"
    return True, None


def positivity_decision(m, tolerance=None):
    try:
        validate(m, (len(m),), tolerance)
    except NotPositiveError as exc:
        return False, str(exc)
    return True, None


def state_with_least_eigenvalue(least, dim, real, rng):
    """Hermitian unit-trace matrix, smallest eigenvalue ``least``, in a
    random real or complex basis."""
    rest = rng.uniform(0.5, 1.0, dim - 1)
    spectrum = np.concatenate(([least], rest * (1.0 - least) / rest.sum()))
    g = rng.standard_normal((dim, dim))
    if not real:
        g = g + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    m = (q * spectrum) @ q.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [2, 4, 9, 16, 144])
def test_factorization_decides_as_eigvalsh_at_the_floor(dim, real):
    rng = np.random.default_rng([24, dim, real])
    for tolerance in (1e-9, 1e-6, 1e-3):
        floor = -tolerance
        for offset in (1e-12, -1e-12):
            m = state_with_least_eigenvalue(floor + offset, dim, real, rng)
            assert bool(m.imag.any()) is not real
            expected = eigvalsh_rule(m, floor)
            # the construction lands on the intended side of the floor
            assert expected[0] is (offset > 0)
            assert positivity_decision(m, tolerance) == expected
            assert positivity_decision(np.asfortranarray(m), tolerance) == expected


@pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)], ids=["real", "complex"])
def test_both_triangles_get_the_decision_of_the_hermitian_part(phase):
    floor = -DEFAULT_TOLERANCE
    inside = 0.5 - floor - 1e-12  # lambda_min = floor + 1e-12
    # rho_H 2e-10 inside the floor and 2e-10 outside it, each with triangles
    # 4e-10 on either side of it
    for mean in (inside - 2e-10, inside + 2e-10):
        for lower, upper in ((mean + 4e-10, mean - 4e-10), (mean - 4e-10, mean + 4e-10)):
            m = np.array([[0.5, np.conj(upper * phase)], [lower * phase, 0.5]])
            assert 0 < np.abs(m - m.conj().T).max() <= DEFAULT_TOLERANCE
            # the two triangles disagree about positivity ...
            by_triangle = [np.linalg.eigvalsh(m, UPLO=uplo)[0] >= floor for uplo in "LU"]
            assert by_triangle == [lower < inside, upper < inside]
            # ... and validation decides as eigvalsh does on rho_H
            expected = eigvalsh_rule((m + m.conj().T) / 2, floor)
            assert expected[0] is (mean < inside)
            assert positivity_decision(m) == expected


def antisymmetric(dim, below):
    """The real antisymmetric matrix with ``below`` below the diagonal."""
    return below * (np.tril(np.ones((dim, dim)), -1) - np.triu(np.ones((dim, dim)), 1))


def test_a_hermitian_part_below_the_floor_is_refused():
    # rho = A - c eps uu^T + K with A >= 0, Au = 0 and Tr A = 1 + c eps, so
    # rho_H has least eigenvalue -c eps; the completion of rho's lower
    # triangle adds 0.98 eps along u, which at c = 1.5 puts it inside the
    # floor that rho_H is outside
    eps = 1e-3
    u = np.ones(3) / np.sqrt(3)
    for c in (1.5, 3.0):
        a = (np.eye(3) - np.outer(u, u)) * (1 + c * eps) / 2
        rho = a - c * eps * np.outer(u, u) + antisymmetric(3, 0.49 * eps)
        assert bool(np.linalg.eigvalsh(rho, UPLO="L")[0] >= -eps) is (c == 1.5)
        with pytest.raises(NotPositiveError) as err:
            validate(rho, (3,), eps)
        assert str(err.value) == f"state is not positive semidefinite: min eigenvalue {-c * eps:.3e}"


def test_a_product_with_an_antisymmetric_part_certifies_as_the_product():
    # |0> (x) |-> plus K = -K^T of 0.49e-3 off the diagonal: rho_H is the
    # product, though rho's lower triangle has least eigenvalue -1.47e-3
    eps = 1e-3
    ket = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
    product = np.outer(ket, ket)
    rho = product - antisymmetric(4, 0.49 * eps)
    assert np.linalg.eigvalsh(rho)[0] < -eps
    joint = joint_from_catalog("l3", 2, 2)
    total = certify(validate(product, (2, 2)), joint).total
    skewed = certify(validate(rho, (2, 2), eps), joint).total
    assert abs(skewed - total) <= 1e-12 * max(1.0, abs(total))


def test_eigvalsh_decides_where_the_factorization_fails(monkeypatch):
    def no_factor(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # with every factorization failing, the spectrum alone decides, against
    # the floor -DEFAULT_TOLERANCE
    monkeypatch.setattr(np.linalg, "cholesky", no_factor)
    calls = record_solvers(monkeypatch)
    floor = -DEFAULT_TOLERANCE
    rng = np.random.default_rng(25)
    cases = [np.diag([1.0, 0.0]), tiny_imaginary_pair(np.diag([0.0, 1.0, 0.0]))]
    cases += [
        state_with_least_eigenvalue(floor + offset, 4, real, rng)
        for offset in (1e-12, -1e-12)
        for real in (True, False)
    ]
    cases.append(np.diag([0.6, 0.6, -0.2]))
    decisions = []
    for m in cases:
        expected = eigvalsh_rule(m, floor)
        del calls[:]
        assert positivity_decision(m) == expected
        (factor, _, failure), (solve, _, _) = calls
        assert (factor, solve) == ("cholesky", "eigvalsh")
        assert isinstance(failure, np.linalg.LinAlgError)
        decisions.append(expected)
    assert [accepted for accepted, _ in decisions] == [True] * 4 + [False] * 3
    assert decisions[-1][1] == "state is not positive semidefinite: min eigenvalue -2.000e-01"


@pytest.mark.parametrize("phase", [1.0, 1j], ids=["real", "complex"])
def test_huge_entries_are_refused_without_a_warning(phase):
    # Hermitian with trace 1, and eigenvalues 0.5 -+ 1e308: rho_H is formed
    # from the differences, never as the overflowing rho + rho^H
    m = np.array([[0.5, 1e308 * np.conj(phase)], [1e308 * phase, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveError) as err:
            validate(m, (2,))
    assert str(err.value) == "state is not positive semidefinite: min eigenvalue -1.000e+308"


def test_not_positive_message_is_unchanged():
    m = np.diag([0.6, 0.6, -0.2])
    for matrix in (m, tiny_imaginary_pair(m)):
        with pytest.raises(NotPositiveError) as err:
            validate(matrix, (3,))
        assert str(err.value) == "state is not positive semidefinite: min eigenvalue -2.000e-01"
        assert err.value.code == "not-positive"


def test_pure_state_norm_and_phase():
    with pytest.raises(InvalidParameterError):
        PureState(np.array([1.0, 1.0]))
    psi = PureState.normalized(np.array([0.0, 1j, 1.0]))
    fixed = psi.phase_normalized()
    lead = fixed.amplitudes[1]
    assert abs(lead.imag) < 1e-15 and lead.real > 0


# --- singlet and Bell states ----------------------------------------------


def test_singlet_half_matches_hand_vector():
    expected = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(singlet_ket(SpinQuantum(1)).amplitudes, expected)
    rho = singlet_state(SpinQuantum(1))
    assert abs(purity(rho) - 1.0) < 1e-12


@pytest.mark.parametrize("two_l", [1, 2, 3])
def test_singlet_annihilated_by_joint_components(two_l):
    spin = SpinQuantum(two_l)
    vec = singlet_ket(spin).amplitudes
    for j in joint_ops(spin):
        assert np.abs(j @ vec).max() < 1e-12
    assert abs(np.trace(singlet_state(spin).matrix) - 1) < 1e-12


def test_singlet_requires_spin():
    with pytest.raises(InvalidParameterError):
        singlet_ket(SpinQuantum(0))


def test_singlet_swap_invariant():
    for two_l in (1, 2):
        n = two_l + 1
        rho = singlet_state(SpinQuantum(two_l)).matrix
        swap = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                swap[i * n + j, j * n + i] = 1.0
        assert np.abs(swap @ rho @ swap - rho).max() < 1e-12


def test_bell_kets_returns_a_fresh_dict():
    kets = bell_kets()
    kets["S"] = kets["T1"]
    del kets["T2"]
    again = bell_kets()
    assert set(again) == {"S", "T1", "T2", "T3"}
    assert np.allclose(again["S"].amplitudes, np.array([0, 1, -1, 0]) / np.sqrt(2.0))


def test_bell_states_annihilation_and_orthogonality():
    kets = bell_kets()
    pauli = [2 * op for op in spin_components(SpinQuantum(1))]
    eye = np.eye(2)
    for i, name in enumerate(("T1", "T2", "T3")):
        joint = np.kron(pauli[i], eye) + np.kron(eye, pauli[i])
        assert np.abs(joint @ kets[name].amplitudes).max() < 1e-12
    names = list(kets)
    for a in range(4):
        for b in range(a + 1, 4):
            overlap = np.vdot(kets[names[a]].amplitudes, kets[names[b]].amplitudes)
            assert abs(overlap) < 1e-12
    states = bell_states()
    assert set(states) == {"S", "T1", "T2", "T3"}
    for rho in states.values():
        assert rho.dims == (2, 2)


# --- mixtures --------------------------------------------------------------


def test_bell_mixture_limits():
    assert np.allclose(bell_mixture(1, 0, 0, 0).matrix, singlet_state(SpinQuantum(1)).matrix)
    assert np.allclose(bell_mixture(0.25, 0.25, 0.25, 0.25).matrix, np.eye(4) / 4)


def test_bell_mixture_joint_uncertainty_closes():
    rho = bell_mixture(0.8, 0.2, 0, 0)
    s1 = 2 * spin_components(SpinQuantum(1)).operators[0]
    joint = np.kron(s1, np.eye(2)) + np.kron(np.eye(2), s1)
    assert variance(rho, joint) < 1e-12  # 4 - 4(p_S + p_1) = 0


def test_bell_mixture_weight_validation():
    with pytest.raises(InvalidParameterError):
        bell_mixture(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(InvalidParameterError):
        bell_mixture(0.5, 0.2, 0.2, 0.2)


def test_bell_mixture_variance_formula_on_grid():
    # each joint Stokes variance is 4 - 4(p_S + p_i) across the simplex
    stokes = [2 * op for op in spin_components(SpinQuantum(1))]
    eye = np.eye(2)
    joints = [np.kron(s, eye) + np.kron(eye, s) for s in stokes]
    grid = np.linspace(0.0, 1.0, 5)
    for p_s in grid:
        for p_1 in grid:
            for p_2 in grid:
                p_3 = 1.0 - p_s - p_1 - p_2
                if p_3 < -1e-12:
                    continue
                p_3 = max(p_3, 0.0)
                rho = bell_mixture(p_s, p_1, p_2, p_3)
                for p_i, joint in zip((p_1, p_2, p_3), joints):
                    expected = 4.0 - 4.0 * (p_s + p_i)
                    assert abs(variance(rho, joint) - expected) < 1e-10


def test_white_noise_limits():
    spin = SpinQuantum(2)
    assert np.allclose(white_noise_mixture(spin, 0).matrix, singlet_state(spin).matrix)
    top = white_noise_mixture(spin, 1)
    assert np.allclose(top.matrix, np.eye(9) / 9)
    assert abs(purity(top) - 1 / 9) < 1e-12
    with pytest.raises(InvalidParameterError):
        white_noise_mixture(spin, 1.2)


def test_white_noise_half_kills_violation():
    # three-component violation 1 - 2 p_W vanishes at p_W = 1/2 for l = 1
    rho = white_noise_mixture(SpinQuantum(2), 0.5)
    total = sum(variance(rho, j) for j in joint_ops(SpinQuantum(2)))
    assert abs(total - 2.0) < 1e-12  # equals the local limit 2l


def test_white_noise_rotation_isotropy():
    rng = np.random.default_rng(11)
    spin = SpinQuantum(2)
    ops = spin_components(spin)
    rho = white_noise_mixture(spin, 0.3)
    base = sum(variance(rho, j) for j in joint_ops(spin))
    for _ in range(5):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        generator = sum(a * op for a, op in zip(axis, ops))
        w, v = np.linalg.eigh(generator)
        u = (v * np.exp(1j * rng.uniform(0, 2 * np.pi) * w)) @ v.conj().T
        eye = np.eye(spin.dim)
        rotated = 0.0
        for op in ops:
            conj = u @ op @ u.conj().T
            joint = np.kron(conj, eye) + np.kron(eye, conj)
            rotated += variance(rho, joint)
        assert abs(rotated - base) < 1e-10


def test_x_decoherence_family():
    assert np.allclose(x_decoherence_mixture(0).matrix, singlet_state(SpinQuantum(2)).matrix)
    lx = spin_components(SpinQuantum(2)).operators[0]
    joint_x = np.kron(lx, np.eye(3)) + np.kron(np.eye(3), lx)
    for p_d in np.linspace(0, 1, 11):
        assert variance(x_decoherence_mixture(p_d), joint_x) < 1e-12
    total = sum(variance(x_decoherence_mixture(0.3), j) for j in joint_ops(SpinQuantum(2)))
    assert abs(total - 0.8) < 1e-12  # (8/3) p_D
    with pytest.raises(InvalidParameterError):
        x_decoherence_mixture(-0.1)


def test_x_basis_kets_are_eigenvectors():
    lx = spin_components(SpinQuantum(2)).operators[0]
    for ket, ev in zip(x_basis_kets(), (-1.0, 0.0, 1.0)):
        assert np.abs(lx @ ket - ev * ket).max() < 1e-12
        lead = ket[np.flatnonzero(np.abs(ket) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-15 and lead.real > 0


def test_mutated_x_basis_kets_leave_the_family_unchanged():
    before = x_decoherence_mixture(0.4).matrix.copy()
    kets = x_basis_kets()
    assert all(ket.flags.writeable for ket in kets)
    for ket in kets:
        ket[:] = 7.0
    assert not any(ket is other for ket, other in zip(kets, x_basis_kets()))
    assert all(np.abs(ket).max() < 1.0 + 1e-12 for ket in x_basis_kets())
    assert np.array_equal(x_decoherence_mixture(0.4).matrix, before)


def test_min_uncertainty_state():
    for phi in (0.0, 0.4, np.pi / 2, 2.0):
        psi = min_uncertainty_state_n3(phi)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-15
    psi0 = min_uncertainty_state_n3(0.0)
    assert np.allclose(
        psi0.amplitudes, [np.sqrt(5) / 4, np.sqrt(6) / 4, np.sqrt(5) / 4]
    )
    xy = spin_components(SpinQuantum(2)).operators[:2]
    for phi in (0.0, np.pi / 2):
        rho = min_uncertainty_state_n3(phi).projector()
        total = sum(variance(rho, op) for op in xy)
        assert abs(total - 7 / 16) < 1e-12


def test_constructors_pass_validate():
    cases = [
        singlet_state(SpinQuantum(2)),
        bell_mixture(0.4, 0.3, 0.2, 0.1),
        white_noise_mixture(SpinQuantum(1), 0.7),
        x_decoherence_mixture(0.5),
        min_uncertainty_state_n3(1.0).projector(),
        maximally_mixed((3, 3)),
    ]
    for rho in cases:
        again = validate(rho.matrix, rho.dims)
        assert np.array_equal(again.matrix, rho.matrix)


def test_random_state_helpers():
    rng = np.random.default_rng(12)
    psi = random_pure_state(4, rng)
    assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
    rho = random_mixed_state(3, rng)
    assert np.linalg.eigvalsh(rho.matrix)[0] > 0
    prod = random_product_state(2, 3, rng)
    assert prod.dims == (2, 3)
    pure_prod = random_product_state(2, 2, rng, pure=True)
    assert abs(purity(pure_prod) - 1.0) < 1e-10


# --- JSON files -------------------------------------------------------------


def test_json_round_trip_exact():
    # the spin-l singlets hold negative zeros, which are written as 0
    rng = np.random.default_rng(13)
    cases = [random_mixed_state(4, rng, dims=(2, 2))]
    cases += [singlet_state(SpinQuantum(two_l)) for two_l in (1, 2, 3)]
    for rho in cases:
        text = state_to_json(rho)
        back = state_from_json(text)
        assert back.dims == rho.dims
        assert np.array_equal(back.matrix, rho.matrix)
        assert state_to_json(back) == text
        assert state_digest(back) == state_digest(rho)


def test_json_has_full_precision():
    rho = validate(np.diag([1 / 3, 2 / 3]), (2,))
    text = state_to_json(rho)
    assert "0.33333333333333331" in text


def test_json_schema_errors():
    with pytest.raises(StateFormatError):
        state_from_json("[1, 2, 3]")
    with pytest.raises(StateFormatError):
        state_from_json('{"dims": [2], "matrix": [[[0, 0], [0, 0]]]}')
    with pytest.raises(StateFormatError):
        state_from_json('{"dims": [0], "matrix": []}')
    with pytest.raises(StateFormatError):
        state_from_json('{"dims": [1], "matrix": [[3]]}')
    with pytest.raises(StateFormatError, match="out of floating-point range"):
        state_from_json('{"dims": [1], "matrix": [[[1%s, 0]]]}' % ("0" * 400))
    with pytest.raises(StateFormatError, match="not valid JSON"):
        state_from_json("{nope")


@pytest.mark.parametrize("dims", [[True, 2], [2, True], [True]])
def test_state_dims_reject_booleans(dims):
    # isinstance(True, int) holds: an int check alone reads [true, 2] as (1, 2)
    doc = json.loads(state_to_json(maximally_mixed(math.prod(dims))))
    doc["dims"] = dims
    with pytest.raises(StateFormatError, match='"dims" must be'):
        state_from_json(json.dumps(doc))


def test_density_matrix_is_read_only():
    rho = maximally_mixed((2, 2))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
