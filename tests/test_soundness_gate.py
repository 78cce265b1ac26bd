"""A soundness gate at the local limit: the first slice of ROADMAP item 1.

Every case is a state that validation accepts within the default
tolerance eps of a separable state on or above the limit.  P is a product
of local minimizers, and the case is rho' = (1 + d) P - d 1/D with
d = 0.99 D eps: its trace is 1 and its least eigenvalue -0.99 eps.  The
products are

- spin coherent states along seeded random axes at 2l = 1..7, 20 per 2l,
  on the l3 and s3 limits;
- the argmins that ``interval_minimum`` finds for spin:xy and stokes:12
  at N = 2 and 3, on their own two-component limits and above l3 and s3;
- the 2l = 1 coherent product along (1,1,1)/sqrt(3) at d = 3e-10 and
  5e-10.

Each case goes through ``write_state``, ``read_state`` and ``certify``,
and one case per invariant also through the in-process ``cli.main``.  The
invariants are

- (a) no such state is called ENTANGLED;
- (b) a state that ``read_state`` accepted is never refused as corrupt;
- (c) a Stokes relation and its spin twin see the same state: the Stokes
  total is exactly 4x the spin total, and the two verdicts agree.

All three fail today, because the fixed ``VERDICT_MARGIN`` and
``_VARIANCE_FLOOR`` ignore eps and the scale of the witness (ROADMAP item
2), so each is a strict xfail that fails on its own assertion.

Two further perturbations of the 140 coherent products run at eps = 1e-9
and under ``LURCERT_VALIDATION_TOL=1e-3``, on the l3 and s3 limits:

- the trace class, rho' = (1 + 0.99 eps) P, whose total moves to first
  order by 0.99 eps (2l - |<J>|^2), so that products with a long joint
  mean vector cross the fixed margin and break (a), for the same reason
  as above, so it is again a strict xfail;
- the anti-Hermitian class, rho' = P + K with K_01 = K_10 = 0.49i eps,
  which moves no real part of a moment.  ``certify`` reads the real part
  of each moment, Re Tr(rho' J) = Tr(P J), so the class is never called
  ENTANGLED and never refused, and (b) holds for it.

Under (b) also, ``TestSkewedPureStates`` validates 200 random 4 x 4 pure
states plus an anti-Hermitian part of 0.49 eps off the diagonal at eps =
1e-3, in process: positivity is judged on rho_H, which is the pure state,
so none is refused and each certifies as the pure state does.

Three classes certify against bound files, each through the in-process
``cli.main``:

- the descent file of two random Hermitian 3 x 3 operators, whose
  2-restart bound lies above the true minimum, so the product of two
  minimizers breaks (a): a strict xfail of ROADMAP item 3;
- the descent file of Pauli X and Z times 2^66, whose exact minimum is
  2^132: the descent's absolute step constants stop all 8 restarts 14 %
  above it, so the product |00> breaks (a): a strict xfail of ROADMAP
  item 3;
- the interval files of spin:xy at 2l = 1, 2 and stokes:12 at n = 2 with
  every operator times a power of two s and the bound times s^2, still
  proven bounds, against the argmin product, unperturbed and with the
  white noise above.  Wherever ``certify`` returns, C is the same at
  every s, which passes; but
- (d) neither the verdict nor a refusal depends on s
  fails, because the fixed margin and floor do not scale with the
  operators: a strict xfail of ROADMAP item 2.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from lurcert import cli
from lurcert.bound_search import SearchConfig, interval_minimum, minimize_sum_uncertainty
from lurcert.linalg import DEFAULT_TOLERANCE, ENV_TOLERANCE_VAR, LurcertError, tolerance_from_env
from lurcert.lur import certify, joint_from_catalog
from lurcert.spin_ops import OperatorSet, SpinQuantum, spin_components, spin_subset, stokes_subset
from lurcert.states import read_state, validate, write_state

CASES_PER_TWO_L = 20
TWO_LS = range(1, 8)
# each Stokes relation and its spin twin, whose operators are exactly half
TWINS = {"s3": "l3", "s2n2": "l2n2", "s2n3": "l2n3"}
# 2l = 1 product along (1,1,1)/sqrt(3) at noise weights below 0.99 D eps,
# where today s3 says ENTANGLED and l3 does not
TWIN_DELTAS = (3e-10, 5e-10)
ON_LIMIT = 1e-8


@dataclass(frozen=True)
class Case:
    name: str
    path: Path
    relations: tuple[str, ...]
    # relations whose limit the noiseless product P attains
    on_limit: tuple[str, ...]
    product: np.ndarray


@dataclass(frozen=True)
class Outcome:
    case: str
    relation: str
    # "entangled", "no violation" or the structured error code
    result: str
    total: float | None


def coherent_ket(two_l: int, axis: np.ndarray) -> np.ndarray:
    """The spin-l coherent state along the unit ``axis``: the top
    eigenvector of n . L."""
    ops = spin_components(SpinQuantum(two_l)).operators
    _, vecs = np.linalg.eigh(sum(n * op for n, op in zip(axis, ops)))
    return vecs[:, -1]


def noisy(ket: np.ndarray, delta: float) -> np.ndarray:
    """(1 + delta)|ket><ket| - delta 1/D."""
    dim = ket.size
    return (1 + delta) * np.outer(ket, ket.conj()) - delta * np.eye(dim) / dim


def argmin_ket(spec: str, two_l: int) -> np.ndarray:
    """The ``interval_minimum`` argmin of spin:xy or stokes:12 at 2l."""
    if spec == "spin:xy":
        return interval_minimum(spin_subset(SpinQuantum(two_l), "xy"), two_l / 2).argmin.amplitudes
    return interval_minimum(stokes_subset(two_l, "12"), float(two_l)).argmin.amplitudes


def coherent_products() -> list[tuple[str, np.ndarray]]:
    """The named products of two coherent kets along seeded random axes,
    ``CASES_PER_TWO_L`` at each 2l of ``TWO_LS``."""
    products = []
    for two_l in TWO_LS:
        rng = np.random.default_rng([2024, two_l])
        for k in range(CASES_PER_TWO_L):
            axes = rng.standard_normal((2, 3))
            axes /= np.linalg.norm(axes, axis=1, keepdims=True)
            ket = np.kron(coherent_ket(two_l, axes[0]), coherent_ket(two_l, axes[1]))
            products.append((f"coherent-2l{two_l}-{k}", ket))
    return products


def build_cases(workdir: Path) -> list[Case]:
    """Every case of the gate, each written with ``write_state``."""
    specs = [  # (name, product ket, noise weight, relations, on-limit relations)
        (name, ket, None, ("l3", "s3"), ("l3", "s3")) for name, ket in coherent_products()
    ]
    for n in (2, 3):
        own = (f"l2n{n}", f"s2n{n}")
        for spec in ("spin:xy", "stokes:12"):
            a = argmin_ket(spec, n - 1)
            specs.append((f"argmin-{spec}-N{n}", np.kron(a, a), None, (*own, "l3", "s3"), own))
    diagonal = coherent_ket(1, np.ones(3) / np.sqrt(3))
    for delta in TWIN_DELTAS:
        ket = np.kron(diagonal, diagonal)
        specs.append((f"diagonal-2l1-d{delta:g}", ket, delta, ("l3", "s3"), ("l3", "s3")))
    cases = []
    for name, ket, delta, relations, on_limit in specs:
        side = int(round(np.sqrt(ket.size)))
        delta = 0.99 * ket.size * DEFAULT_TOLERANCE if delta is None else delta
        path = workdir / f"{name}.json"
        write_state(validate(noisy(ket, delta), (side, side)), path)
        cases.append(Case(name, path, relations, on_limit, np.outer(ket, ket.conj())))
    return cases


def verdict(name: str, rho, relation: str) -> Outcome:
    try:
        cert = certify(rho, joint_from_catalog(relation, rho.dim_a, rho.dim_b))
    except LurcertError as exc:
        return Outcome(name, relation, exc.code, None)
    return Outcome(name, relation, "entangled" if cert.entangled else "no violation", cert.total)


@pytest.fixture(scope="module")
def gate(tmp_path_factory):
    cases = build_cases(tmp_path_factory.mktemp("gate"))
    # each file read once, as certify reads it, and certified per relation
    outcomes = {
        (case.name, rel): verdict(case.name, rho, rel)
        for case in cases
        for rho in [read_state(case.path)]
        for rel in case.relations
    }
    return cases, outcomes


def cli_exit(case: Case, relation: str, monkeypatch, capsys, tolerance: str | None = None) -> int:
    if tolerance is None:
        monkeypatch.delenv(ENV_TOLERANCE_VAR, raising=False)
    else:
        monkeypatch.setenv(ENV_TOLERANCE_VAR, tolerance)
    code = cli.main(["certify", "--state", str(case.path), "--relation", relation])
    capsys.readouterr()
    return code


def named(cases, prefix: str) -> Case:
    return next(case for case in cases if case.name.startswith(prefix))


def test_the_cases_are_accepted_separable_states_at_the_limit(gate):
    cases, _ = gate
    assert len(cases) == len(TWO_LS) * CASES_PER_TWO_L + 4 + len(TWIN_DELTAS)
    for case in cases:
        side = int(round(np.sqrt(case.product.shape[0])))
        rho = read_state(case.path)
        # within the tolerance of the product, as validation allows
        assert np.abs(rho.matrix - case.product).max() <= 2 * side * side * DEFAULT_TOLERANCE
        pure = validate(case.product, (side, side))
        for relation in case.relations:
            cert = certify(pure, joint_from_catalog(relation, side, side))
            scale = max(1.0, cert.local_limit)
            assert cert.total >= cert.local_limit - ON_LIMIT * scale, (case.name, relation)
            if relation in case.on_limit:
                assert cert.total <= cert.local_limit + ON_LIMIT * scale, (case.name, relation)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the fixed VERDICT_MARGIN ignores the validation tolerance",
)
def test_no_entangled_verdict_within_the_tolerance_of_the_limit(gate, monkeypatch, capsys):
    cases, outcomes = gate
    wrong = [(o.case, o.relation) for o in outcomes.values() if o.result == "entangled"]
    if cli_exit(cases[0], "l3", monkeypatch, capsys) == cli.EXIT_ENTANGLED:
        wrong.append((cases[0].name, "cli l3"))
    assert not wrong, f"{len(wrong)} ENTANGLED verdicts within the tolerance of a separable state, first {wrong[:4]}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the fixed variance floor ignores the validation tolerance",
)
def test_a_state_that_was_read_is_never_refused(gate, monkeypatch, capsys):
    cases, outcomes = gate
    refused = [
        (o.case, o.relation, o.result)
        for o in outcomes.values()
        if o.result not in ("entangled", "no violation")
    ]
    case = named(cases, "argmin-spin:xy-N2")
    if cli_exit(case, "l2n2", monkeypatch, capsys) == cli.EXIT_VALIDATION:
        refused.append((case.name, "cli l2n2", "exit 2"))
    assert not refused, f"{len(refused)} refusals of states that read_state accepted, first {refused[:4]}"


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the fixed VERDICT_MARGIN is 4x looser on the Stokes scale",
)
def test_a_stokes_relation_agrees_with_its_spin_twin(gate, monkeypatch, capsys):
    cases, outcomes = gate
    apart = []
    for (name, relation), stokes in outcomes.items():
        spin = outcomes.get((name, TWINS.get(relation)))
        if spin is None:
            continue
        scaled = None if spin.total is None else 4 * spin.total
        if (stokes.result, stokes.total) != (spin.result, scaled):
            apart.append((name, relation, stokes.result, spin.result))
    case = named(cases, "diagonal-2l1")
    codes = {rel: cli_exit(case, rel, monkeypatch, capsys) for rel in ("s3", "l3")}
    if codes["s3"] != codes["l3"]:
        apart.append((case.name, "cli", codes["s3"], codes["l3"]))
    assert not apart, f"{len(apart)} Stokes relations disagree with their spin twins, first {apart[:4]}"


# the validation tolerance of each run: unset (DEFAULT_TOLERANCE) and the
# loosened value that the environment variable sets
PERTURBED_RUNS = {None: DEFAULT_TOLERANCE, "1e-3": 1e-3}


def scaled_trace(product: np.ndarray, eps: float) -> np.ndarray:
    """(1 + 0.99 eps) P: Hermitian and positive, with trace 1 + 0.99 eps."""
    return (1 + 0.99 * eps) * product


def skewed(product: np.ndarray, eps: float) -> np.ndarray:
    """P + K with K_01 = K_10 = 0.49i eps: K = -K^H, so the trace and the
    Hermitian part are P's, and the deviation from Hermiticity is 0.98 eps."""
    matrix = product.astype(complex)
    matrix[0, 1] += 0.49j * eps
    matrix[1, 0] += 0.49j * eps
    return matrix


PERTURBATIONS = {"trace": scaled_trace, "anti-hermitian": skewed}


@pytest.fixture(scope="module")
def perturbed(tmp_path_factory):
    """Per (class, run): each case with the state read back from its file
    under the run's environment, as ``certify`` reads it, and the outcomes
    under l3 and s3."""
    workdir = tmp_path_factory.mktemp("perturbed")
    products = coherent_products()
    runs = {}
    with pytest.MonkeyPatch.context() as env:
        for setting, eps in PERTURBED_RUNS.items():
            if setting is None:
                env.delenv(ENV_TOLERANCE_VAR, raising=False)
            else:
                env.setenv(ENV_TOLERANCE_VAR, setting)
            tolerance = tolerance_from_env()
            for name, perturb in PERTURBATIONS.items():
                read, outcomes = [], []
                for case_name, ket in products:
                    side = int(round(np.sqrt(ket.size)))
                    product = np.outer(ket, ket.conj())
                    path = workdir / f"{name}-{setting}-{case_name}.json"
                    write_state(validate(perturb(product, eps), (side, side), eps), path)
                    case = Case(case_name, path, ("l3", "s3"), ("l3", "s3"), product)
                    rho = read_state(path, tolerance)
                    read.append((case, rho))
                    outcomes += [verdict(case_name, rho, rel) for rel in case.relations]
                runs[name, setting] = read, outcomes
    return runs


def test_the_perturbed_products_are_accepted_near_the_limit(perturbed):
    assert len(perturbed) == len(PERTURBATIONS) * len(PERTURBED_RUNS)
    for (name, setting), (read, outcomes) in perturbed.items():
        eps = PERTURBED_RUNS[setting]
        assert len(read) == len(TWO_LS) * CASES_PER_TWO_L
        assert len(outcomes) == 2 * len(read)
        for case, rho in read:
            assert np.abs(rho.matrix - case.product).max() <= eps, (name, setting, case.name)
        # an anti-Hermitian K moves no real part of a moment, so no total
        if name == "anti-hermitian":
            assert all(o.result != "entangled" for o in outcomes), setting


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the fixed VERDICT_MARGIN ignores a trace off by up to eps",
)
def test_no_entangled_verdict_when_the_trace_is_off_within_the_tolerance(
    perturbed, monkeypatch, capsys
):
    wrong = [
        (setting, o.case, o.relation)
        for (name, setting), (_, outcomes) in perturbed.items()
        if name == "trace"
        for o in outcomes
        if o.result == "entangled"
    ]
    # a product with a long joint mean vector
    case = named([case for case, _ in perturbed["trace", "1e-3"][0]], "coherent-2l7-19")
    if cli_exit(case, "s3", monkeypatch, capsys, "1e-3") == cli.EXIT_ENTANGLED:
        wrong.append(("1e-3", case.name, "cli s3"))
    assert not wrong, f"{len(wrong)} ENTANGLED verdicts on products with a scaled trace, first {wrong[:4]}"


def test_a_state_with_an_anti_hermitian_part_that_was_read_is_never_refused(
    perturbed, monkeypatch, capsys
):
    refused = [
        (setting, o.case, o.relation, o.result)
        for (name, setting), (_, outcomes) in perturbed.items()
        if name == "anti-hermitian"
        for o in outcomes
        if o.result not in ("entangled", "no violation")
    ]
    case = named([case for case, _ in perturbed["anti-hermitian", None][0]], "coherent-2l1-0")
    if cli_exit(case, "l3", monkeypatch, capsys) == cli.EXIT_VALIDATION:
        refused.append((None, case.name, "cli l3", "exit 2"))
    assert not refused, f"{len(refused)} refusals of states that read_state accepted, first {refused[:4]}"


# random 4 x 4 pure states, each plus an anti-Hermitian K off the diagonal
SKEWED_PURE_CASES = 200
SKEW_TOLERANCE = 1e-3


class TestSkewedPureStates:
    """Random 4 x 4 pure states P (``default_rng(3)``), each plus an
    anti-Hermitian K with |K_jk| = 0.49 eps off the diagonal and random
    phases, at eps = 1e-3.  rho_H = P, so positivity judged on rho_H
    accepts every case, and each certifies as P does; judged on the lower
    triangle, 44 of them were refused."""

    @pytest.fixture(scope="class")
    def skewed_pure(self):
        rng = np.random.default_rng(3)
        upper = np.triu_indices(4, 1)
        cases = []
        for _ in range(SKEWED_PURE_CASES):
            ket = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            ket /= np.linalg.norm(ket)
            k = np.zeros((4, 4), dtype=complex)
            k[upper] = 0.49 * SKEW_TOLERANCE * np.exp(2j * np.pi * rng.random(upper[0].size))
            k -= k.conj().T
            cases.append((np.outer(ket, ket.conj()), k))
        return cases

    def test_a_skewed_pure_state_is_never_refused(self, skewed_pure):
        refused = []
        for index, (product, k) in enumerate(skewed_pure):
            try:
                validate(product + k, (2, 2), SKEW_TOLERANCE)
            except LurcertError as exc:
                refused.append((index, exc.code))
        assert not refused, f"{len(refused)} refusals of states whose Hermitian part is pure, first {refused[:4]}"

    def test_a_skewed_pure_state_certifies_as_its_hermitian_part(self, skewed_pure):
        joint = joint_from_catalog("l3", 2, 2)
        for product, k in skewed_pure:
            total = certify(validate(product, (2, 2)), joint).total
            skewed = certify(validate(product + k, (2, 2), SKEW_TOLERANCE), joint).total
            assert abs(skewed - total) <= 1e-12 * max(1.0, abs(total))


def run_cli(argv: list) -> tuple[int, str]:
    """``cli.main`` on ``argv`` with its output kept from the test log; the
    exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, err.getvalue()


def certified(state: Path, bound_file: Path) -> tuple[str, float | None]:
    """The result of ``certify --json`` of ``state`` against ``bound_file``
    ("entangled", "no violation" or the error code) and its C."""
    cert = state.with_suffix(".cert.json")
    code, err = run_cli(["certify", "--state", state, "--relation", bound_file, "--json", cert])
    if code == cli.EXIT_VALIDATION:
        return err[len("error["):err.index("]")], None
    violation = json.loads(cert.read_text())["relative_violation"]
    return ("entangled" if code == cli.EXIT_ENTANGLED else "no violation"), violation


def operator_rows(ops) -> list:
    return [np.stack([a.real, a.imag], -1).tolist() for a in ops]


def product_file(ket: np.ndarray, delta: float, path: Path) -> Path:
    """``noisy(ket (x) ket, delta)`` written with ``write_state``."""
    side = ket.size
    write_state(validate(noisy(np.kron(ket, ket), delta), (side, side)), path)
    return path


class TestDescentFile:
    """The 2-restart descent file of the two random Hermitian 3 x 3
    operators of ``test_a_search_bound_is_never_above_the_minimum``
    (``default_rng(1)``), against the product of the argmin of 64
    restarts, which sits above the true limit."""

    @pytest.fixture(scope="class")
    def descent(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("descent")
        rng = np.random.default_rng(1)
        ops = []
        for _ in range(2):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ops.append((g + g.conj().T) / 2)
        ops_file, bound_file = workdir / "ops.json", workdir / "bound.json"
        ops_file.write_text(json.dumps({"label": "random", "operators": operator_rows(ops)}))
        code, _ = run_cli(["search-bound", "--set", ops_file, "--restarts", 2, "--seed", 4,
                           "--emit-bound", bound_file])
        assert code == cli.EXIT_OK
        many = minimize_sum_uncertainty(OperatorSet("random", tuple(ops)), SearchConfig(64, 4))
        state = product_file(many.argmin.amplitudes, 0.0, workdir / "product.json")
        return json.loads(bound_file.read_text())["bound"], many.minimum, certified(state, bound_file)

    def test_the_file_bound_is_above_the_minimum(self, descent):
        bound, minimum, _ = descent
        assert abs(bound - 0.44083725188212) < 1e-12
        assert abs(minimum - 0.2852721823682) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: a descent file records the lowest value found, not a lower bound",
    )
    def test_the_argmin_product_is_not_called_entangled(self, descent):
        _, _, (result, violation) = descent
        assert result != "entangled", f"the product of two minimizers is ENTANGLED at C = {violation}"


# Pauli X and Z times LARGE_SCALE: an exact minimum uncertainty sum of
# LARGE_SCALE^2, at an eigenstate of either
LARGE_SCALE = 2.0**66


class TestLargeDescentFile:
    """The 8-restart descent file of Pauli X and Z times ``LARGE_SCALE``
    (seed 0), against the product |00>, whose total is exactly twice the
    true minimum."""

    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("large")
        pauli = [np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1, -1]).astype(complex)]
        ops_file, bound_file = workdir / "ops.json", workdir / "bound.json"
        ops_file.write_text(json.dumps({"label": "large", "operators": operator_rows(LARGE_SCALE * a for a in pauli)}))
        code, _ = run_cli(["search-bound", "--set", ops_file, "--restarts", 8, "--emit-bound", bound_file])
        assert code == cli.EXIT_OK
        state = product_file(np.array([1.0, 0.0]), 0.0, workdir / "product.json")
        return json.loads(bound_file.read_text())["bound"], certified(state, bound_file)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 3: the descent's absolute step constants stop it above the minimum of large operators",
    )
    def test_the_file_bound_is_at_most_the_minimum(self, large):
        bound, (result, violation) = large
        assert bound <= LARGE_SCALE**2 and result != "entangled", (
            f"bound {bound / LARGE_SCALE**2} x the minimum; the product |00> is {result} at C = {violation}"
        )


# operator scales, powers of two, so that s A and s^2 U are exact
SCALES = (2.0**-7, 2.0**-3, 1.0, 2.0**7, 2.0**14)
INTERVAL_FILES = (("spin:xy", 1), ("spin:xy", 2), ("stokes:12", 2))


class TestScaledIntervalFiles:
    """The ``--emit-bound`` files of ``INTERVAL_FILES`` with every operator
    times s and the bound times s^2, each still a proven bound, against
    the argmin product, unperturbed and at the floor perturbation."""

    @pytest.fixture(scope="class")
    def scaled(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("scaled")
        outcomes = {}
        for spec, two_l in INTERVAL_FILES:
            emitted = workdir / "emitted.json"
            code, _ = run_cli(["search-bound", "--set", spec, "--two-l", two_l, "--emit-bound", emitted])
            assert code == cli.EXIT_OK
            doc = json.loads(emitted.read_text())
            ket = argmin_ket(spec, two_l)
            for delta in (0.0, 0.99 * ket.size**2 * DEFAULT_TOLERANCE):
                state = product_file(ket, delta, workdir / f"{spec}-{two_l}-{delta:g}.json")
                for s in SCALES:
                    bound_file = workdir / f"{spec}-{two_l}-{s:g}.json"
                    scaled_ops = [(np.array(rows) * s).tolist() for rows in doc["operators"]]
                    bound_file.write_text(json.dumps({**doc, "bound": doc["bound"] * s * s, "operators": scaled_ops}))
                    outcomes[spec, two_l, delta, s] = certified(state, bound_file)
        return outcomes

    def test_the_violation_does_not_depend_on_the_scale(self, scaled):
        # the unperturbed products certify at every scale
        assert all(v is not None for (_, _, delta, _), (_, v) in scaled.items() if delta == 0)
        violations = {}
        for (spec, two_l, delta, _), (_, violation) in scaled.items():
            if violation is not None:
                violations.setdefault((spec, two_l, delta), set()).add(violation)
        assert len(violations) == 2 * len(INTERVAL_FILES)
        assert all(len(found) == 1 for found in violations.values()), violations

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 2: the fixed VERDICT_MARGIN and variance floor ignore the scale of the operators",
    )
    def test_neither_the_verdict_nor_a_refusal_depends_on_the_scale(self, scaled):
        results = {}
        for (spec, two_l, delta, s), (result, _) in scaled.items():
            results.setdefault((spec, two_l, delta), {})[s] = result
        apart = {key: found for key, found in results.items() if len(set(found.values())) > 1}
        assert not apart, f"{len(apart)} files whose outcome depends on the scale: {apart}"
