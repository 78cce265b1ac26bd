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
  mean vector cross the fixed margin and break (a);
- the anti-Hermitian class, rho' = P + K with K_01 = K_10 = 0.49i eps,
  which moves no real part of a moment, so it is never called ENTANGLED,
  but whose moments' imaginary parts pass the fixed 1e-10 guard and break
  (b).

Each breaks its invariant for the same reason as above, so each is again a
strict xfail.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from lurcert import cli
from lurcert.bound_search import interval_minimum
from lurcert.linalg import DEFAULT_TOLERANCE, ENV_TOLERANCE_VAR, LurcertError, tolerance_from_env
from lurcert.lur import certify, joint_from_catalog
from lurcert.spin_ops import SpinQuantum, spin_components, spin_subset, stokes_subset
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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the fixed 1e-10 imaginary-part guard ignores the validation tolerance",
)
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
