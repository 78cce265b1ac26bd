import dataclasses
import json

import numpy as np
import pytest

import lurcert
from lurcert import lur, states
from lurcert.linalg import DimensionMismatchError, InvalidParameterError, LurcertError
from lurcert.lur import (
    RELATION_KINDS,
    VERDICT_MARGIN,
    build_joint,
    certify,
    closed_form_violation,
    joint_from_catalog,
    joint_from_relations,
)
from lurcert.spin_ops import OperatorSet, SpinQuantum, spin_components, spin_subset
from lurcert.states import (
    DensityMatrix,
    bell_mixture,
    bell_states,
    maximally_mixed,
    singlet_state,
    validate,
    white_noise_mixture,
    x_decoherence_mixture,
)
from lurcert.uncertainty import catalog_bound

from oracles import (
    random_mixed_state,
    random_product_state,
    random_pure_state,
    stokes_visibilities,
    wootters_concurrence,
)


def kron_reference(rho, joint):
    """Per-component Tr(rho J^2) - Tr(rho J)^2 with J = A (x) 1 + 1 (x) B
    built as a full joint matrix."""
    eye_a, eye_b = np.eye(joint.dim_a), np.eye(joint.dim_b)
    out = []
    for a, b in zip(joint.set_a, joint.set_b):
        j = np.kron(a, eye_b) + np.kron(eye_a, b)
        mean = np.trace(rho.matrix @ j).real
        out.append(np.trace(rho.matrix @ j @ j).real - mean * mean)
    return out


def assert_matches_kron_reference(rho, joint):
    cert = certify(rho, joint)
    reference = kron_reference(rho, joint)
    total = sum(reference)
    tol = 1e-12 * max(1.0, abs(total))
    assert len(cert.per_component) == len(reference)
    assert np.abs(np.array(cert.per_component) - reference).max() <= tol
    assert abs(cert.total - total) <= tol
    assert cert.entangled == (total < joint.local_limit - VERDICT_MARGIN)


def test_build_joint_local_limits():
    assert joint_from_catalog("l3", 3, 3).local_limit == 2.0
    assert joint_from_catalog("s3", 2, 2).local_limit == 4.0
    assert joint_from_catalog("l2n3", 3, 3).local_limit == 7 / 8
    assert joint_from_catalog("s2n2", 2, 2).local_limit == 2.0


def test_build_joint_checks():
    xy = spin_subset(SpinQuantum(2), "xy")
    xyz = spin_components(SpinQuantum(2))
    with pytest.raises(DimensionMismatchError):
        build_joint(xy, 1.0, xyz, 1.0)
    with pytest.raises(InvalidParameterError):
        build_joint(xy, 0.0, xy, 0.0)
    with pytest.raises(InvalidParameterError):
        joint_from_catalog("l2n3", 2, 2)
    with pytest.raises(InvalidParameterError):
        joint_from_catalog("スピン", 2, 2)


def test_build_joint_asymmetric_pair():
    # a 2x3 pair mixing two different local relations is allowed
    rel_a = catalog_bound("spin3", SpinQuantum(1))
    rel_b = catalog_bound("spin3", SpinQuantum(2))
    joint = build_joint(
        rel_a.operator_set, rel_a.bound, rel_b.operator_set, rel_b.bound
    )
    assert joint.local_limit == 1.5
    assert_matches_kron_reference(random_mixed_state(6, np.random.default_rng(40), dims=(2, 3)), joint)


def test_certify_singlet_maximal_violation():
    cert = certify(singlet_state(SpinQuantum(1)), joint_from_catalog("s3", 2, 2))
    assert cert.total < 1e-12
    assert cert.relative_violation == pytest.approx(1.0, abs=1e-12)
    assert cert.entangled


def test_certify_maximally_mixed_pair():
    # each joint Stokes variance is 2 on the maximally mixed pair, so the
    # total is 6 against the local limit 4 and C = -1/2
    cert = certify(maximally_mixed((2, 2)), joint_from_catalog("s3", 2, 2))
    assert cert.total == pytest.approx(6.0, abs=1e-12)
    assert cert.relative_violation == pytest.approx(-0.5, abs=1e-12)
    assert not cert.entangled


def test_certify_dimension_checks():
    joint = joint_from_catalog("s3", 2, 2)
    with pytest.raises(DimensionMismatchError):
        certify(maximally_mixed((3, 3)), joint)
    with pytest.raises(DimensionMismatchError):
        certify(maximally_mixed(4), joint)  # single-system state


@pytest.mark.parametrize("two_l", [1, 2, 3])
def test_white_noise_curve_matches_closed_form(two_l):
    spin = SpinQuantum(two_l)
    n = spin.dim
    joint_l = joint_from_catalog("l3", n, n)
    joint_s = joint_from_catalog("s3", n, n)
    for p_w in np.linspace(0.0, 1.0, 21):
        rho = white_noise_mixture(spin, p_w)
        expected = closed_form_violation("white", "l3", (spin, p_w))
        assert abs(certify(rho, joint_l).relative_violation - expected) < 1e-9
        # the Stokes normalization gives the same relative violation
        assert abs(certify(rho, joint_s).relative_violation - expected) < 1e-9


def test_white_noise_two_component_curve():
    joint = joint_from_catalog("l2n3", 3, 3)
    for p_w in np.linspace(0.0, 1.0, 11):
        rho = white_noise_mixture(SpinQuantum(2), p_w)
        expected = closed_form_violation("white", "l2n3", (SpinQuantum(2), p_w))
        assert abs(certify(rho, joint).relative_violation - expected) < 1e-9


def test_closed_form_table_blanks_and_checks():
    assert closed_form_violation("white", "l2n2", (SpinQuantum(1), 0.3)) is None
    assert closed_form_violation("white", "l2n3", (SpinQuantum(3), 0.3)) is None
    assert closed_form_violation("xdecoherence", "l2n2", (0.3,)) is None
    assert closed_form_violation("bell", "l2n3", (1.0, 0.0, 0.0, 0.0)) is None
    for kind, params in (
        ("white", (SpinQuantum(2), 1.5)),
        ("xdecoherence", (-0.1,)),
        ("bell", (0.9, 0.9, 0.0, 0.0)),
        ("bell", (float("nan"), 0.0, 0.0, 0.0)),
        ("thermal", (0.5,)),
    ):
        with pytest.raises(InvalidParameterError):
            closed_form_violation(kind, "l3", params)



def test_closed_forms_refuse_an_unknown_relation():
    for kind, params in (("white", (SpinQuantum(2), 0.3)), ("xdecoherence", (0.3,)), ("bell", (1, 0, 0, 0))):
        with pytest.raises(InvalidParameterError) as err:
            closed_form_violation(kind, "zz", params)
        assert str(err.value) == f"unknown relation kind 'zz'; valid: {RELATION_KINDS}"


# parameters that family_weights refuses, each in the slot it checks
REFUSED_FAMILY_PARAMS = [
    *(
        (kind, params)
        for bad in (True, "0.5", 0.5j, None, 1.5, -0.25)
        for kind, params in (
            ("white", (SpinQuantum(2), bad)),
            ("xdecoherence", (bad,)),
            ("bell", (bad, 0.5, 0.5, 0.0)),
        )
    ),
    ("thermal", (0.5,)),
    # a wrong number of parameters, refused by the count check of every kind
    ("white", (SpinQuantum(2),)),
    ("white", (SpinQuantum(2), 0.5, 0.5)),
    ("xdecoherence", (0.5, 0.5)),
]


@pytest.mark.parametrize("kind, params", REFUSED_FAMILY_PARAMS)
def test_closed_forms_refuse_as_family_weights_does(kind, params):
    # LurcertError is a ValueError
    with pytest.raises(ValueError) as want:
        states.family_weights(kind, params)
    for relation in RELATION_KINDS:
        with pytest.raises(ValueError) as got:
            closed_form_violation(kind, relation, params)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

def test_bell_mixture_analysis_examples():
    assert closed_form_violation("bell", "s3", (0.9, 0.1, 0, 0)) == pytest.approx(0.8, abs=1e-12)
    c_s3 = closed_form_violation("bell", "s3", (0.9, 0, 0, 0.1))
    c_s2 = closed_form_violation("bell", "s2n2", (0.9, 0, 0, 0.1))
    assert c_s2 == pytest.approx(0.6, abs=1e-12)
    assert c_s2 <= c_s3
    assert closed_form_violation("bell", "s3", (0.25,) * 4) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        closed_form_violation("bell", "s3", (0.5, 0.5, 0.5, -0.5))


def test_two_component_estimate_is_conservative():
    rng = np.random.default_rng(41)
    for _ in range(200):
        w = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        c_s3 = closed_form_violation("bell", "s3", w)
        c_s2 = closed_form_violation("bell", "s2n2", w)
        assert c_s2 <= c_s3 + 1e-12
        if w[3] < 1e-15:
            assert c_s2 == pytest.approx(c_s3, abs=1e-12)
        else:
            assert c_s2 < c_s3


def test_wootters_concurrence_reference_states():
    assert wootters_concurrence(singlet_state(SpinQuantum(1))) == pytest.approx(1.0, abs=1e-9)
    assert wootters_concurrence(maximally_mixed((2, 2))) == 0.0
    rho = bell_mixture(0.75, 0.25, 0, 0)
    assert wootters_concurrence(rho) == pytest.approx(0.5, abs=1e-9)
    for name, rho in bell_states().items():
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-9), name
    with pytest.raises(DimensionMismatchError):
        wootters_concurrence(maximally_mixed((3, 3)))


def test_concurrence_equals_c_s3_for_singlet_dominated_mixtures():
    rng = np.random.default_rng(42)
    for p_s in np.linspace(0.51, 1.0, 25):
        rest = rng.dirichlet((1.0, 1.0, 1.0)) * (1.0 - p_s)
        conc = wootters_concurrence(bell_mixture(p_s, *rest))
        assert abs(closed_form_violation("bell", "s3", (p_s, *rest)) - conc) < 1e-9
        assert closed_form_violation("bell", "s2n2", (p_s, *rest)) <= conc + 1e-12


def test_visibility_bridge_on_bell_mixtures():
    rng = np.random.default_rng(43)
    joint = joint_from_catalog("s3", 2, 2)
    for _ in range(100):
        w = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        rho = bell_mixture(*w)
        vis = stokes_visibilities(rho)
        # V_i = p_S + p_i minus the other two weights
        expected = [w[0] + w[i] - (1.0 - w[0] - w[i]) for i in (1, 2, 3)]
        assert np.allclose(vis, expected, atol=1e-12)
        # without local polarization each joint uncertainty is 2(1 - V_i)
        mapped = [2.0 * (1.0 - v) for v in vis]
        cert = certify(rho, joint)
        assert np.abs(np.array(mapped) - np.array(cert.per_component)).max() < 1e-9
        assert vis[0] + vis[1] - 1.0 <= wootters_concurrence(rho) + 1e-9


def test_visibility_bound_stays_below_certificate_when_polarized():
    # mixing in a polarized product state keeps the identity
    # C_S2 = (V1 + V2 - 1) + (<J1>^2 + <J2>^2)/2 >= V1 + V2 - 1
    rng = np.random.default_rng(44)
    polarized = np.zeros((4, 4), dtype=complex)
    polarized[0, 0] = 1.0
    joint2 = joint_from_catalog("s2n2", 2, 2)
    for _ in range(50):
        w = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        lam = rng.uniform(0.0, 0.6)
        rho = validate((1 - lam) * bell_mixture(*w).matrix + lam * polarized, (2, 2))
        v1, v2, _ = stokes_visibilities(rho)
        cert = certify(rho, joint2)
        assert v1 + v2 - 1.0 <= cert.relative_violation + 1e-12


def test_decoherence_analysis_curve():
    assert closed_form_violation("xdecoherence", "l3", (0.0,)) == 1.0
    assert closed_form_violation("xdecoherence", "l2n3", (0.0,)) == 1.0
    assert closed_form_violation("xdecoherence", "l3", (0.3,)) == pytest.approx(0.6, abs=1e-12)
    c_l2 = closed_form_violation("xdecoherence", "l2n3", (0.3,))
    assert c_l2 == pytest.approx(1.0 - 9.6 / 21.0, abs=1e-12)
    with pytest.raises(InvalidParameterError):
        closed_form_violation("xdecoherence", "l3", (1.5,))


def test_decoherence_x_uncertainty_stays_zero():
    joint = joint_from_catalog("l3", 3, 3)
    for p_d in np.linspace(0.0, 1.0, 11):
        cert = certify(x_decoherence_mixture(p_d), joint)
        assert cert.per_component[0] < 1e-12


@pytest.mark.parametrize("relation", RELATION_KINDS)
def test_no_false_positives_on_product_states(relation):
    dim = 2 if relation.endswith("n2") or relation in ("l3", "s3") else 3
    if relation in ("l3", "s3"):
        dims = (2, 3)
    else:
        dims = (dim, dim)
    rng = np.random.default_rng(45)
    for d in sorted(set(dims)):
        joint = joint_from_catalog(relation, d, d)
        for k in range(2000):
            rho = random_product_state(d, d, rng, pure=bool(k % 2))
            cert = certify(rho, joint)
            assert not cert.entangled
            assert cert.total >= joint.local_limit - 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_no_false_positive_within_the_positivity_floor():
    # (1 + d)|aa><aa| - d 1/4, a the qubit coherent state along
    # (1,1,1)/sqrt(3): |aa> sits on the l3 limit, and the eigenvalue
    # -d/4 is within the default positivity floor, so validation accepts it
    theta, phi = np.arccos(1 / np.sqrt(3)), np.pi / 4
    a = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    aa = np.kron(a, a)
    joint = joint_from_catalog("l3", 2, 2)
    verdicts = [
        certify(validate((1 + d) * np.outer(aa, aa.conj()) - d * np.eye(4) / 4, (2, 2)), joint).entangled
        for d in (3.9e-9, 1e-9)
    ]
    assert verdicts == [False, False]


def test_mixtures_of_non_violating_states_do_not_violate():
    rng = np.random.default_rng(46)
    joint = joint_from_catalog("s3", 2, 2)
    for _ in range(50):
        rho1 = random_mixed_state(4, rng, dims=(2, 2))
        rho2 = random_mixed_state(4, rng, dims=(2, 2))
        t1 = certify(rho1, joint).total
        t2 = certify(rho2, joint).total
        if t1 < joint.local_limit or t2 < joint.local_limit:
            continue
        for lam in (0.25, 0.5, 0.75):
            mix = validate(lam * rho1.matrix + (1 - lam) * rho2.matrix, (2, 2))
            total = certify(mix, joint).total
            # concavity of the variance in the state
            assert total >= lam * t1 + (1 - lam) * t2 - 1e-9
            assert total >= joint.local_limit - 1e-9


def test_certificate_json_schema():
    cert = certify(singlet_state(SpinQuantum(1)), joint_from_catalog("s3", 2, 2))
    doc = cert.to_json_dict()
    assert set(doc) == {
        "per_component",
        "total",
        "local_limit",
        "relative_violation",
        "verdict",
        "bound_provenance",
        "state_digest",
        "relation",
        "lurcert_version",
    }
    assert doc["lurcert_version"] == lurcert.__version__
    assert doc["verdict"] is True
    assert doc["bound_provenance"] == ["analytic", "analytic"]
    assert len(doc["state_digest"]) == 64
    json.dumps(doc)  # serializable as-is


def _random_hermitian_set(dim, count, rng, label):
    ops = []
    for _ in range(count):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ops.append((g + g.conj().T) / 2)
    return OperatorSet(label, tuple(ops))


def _joint_pairs(dim_a, dim_b, rng):
    """A catalog-style relation and a random Hermitian relation on dim_a x dim_b."""
    if dim_a == dim_b:
        catalog = joint_from_catalog("l3", dim_a, dim_b)
    else:
        rel_a = catalog_bound("spin3", SpinQuantum(dim_a - 1))
        rel_b = catalog_bound("stokes3", dim_b - 1)
        catalog = build_joint(rel_a.operator_set, rel_a.bound, rel_b.operator_set, rel_b.bound)
    random_set = build_joint(
        _random_hermitian_set(dim_a, 3, rng, "ra"), 0.5,
        _random_hermitian_set(dim_b, 3, rng, "rb"), 0.5,
    )
    return catalog, random_set


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (4, 4), (12, 12)])
def test_certify_matches_kron_reference(dims):
    rng = np.random.default_rng(47 + dims[0] * 13 + dims[1])
    d = dims[0] * dims[1]
    joints = _joint_pairs(*dims, rng)
    for k in range(12 if d < 100 else 3):
        for rho in (
            random_mixed_state(d, rng, dims=dims),
            random_pure_state(d, rng).projector(dims=dims),
            random_product_state(*dims, rng, pure=bool(k % 2)),
        ):
            for joint in joints:
                assert_matches_kron_reference(rho, joint)


def test_certify_matches_kron_reference_on_families():
    for p in np.linspace(0.0, 1.0, 11):
        for two_l in (1, 2, 11):
            n = two_l + 1
            rho = white_noise_mixture(SpinQuantum(two_l), p)
            for relation in ("l3", "s3"):
                assert_matches_kron_reference(rho, joint_from_catalog(relation, n, n))
        for relation in ("l3", "s3", "l2n3", "s2n3"):
            assert_matches_kron_reference(x_decoherence_mixture(p), joint_from_catalog(relation, 3, 3))
        for relation in ("s3", "s2n2"):
            assert_matches_kron_reference(bell_mixture(p, 1 - p, 0, 0), joint_from_catalog(relation, 2, 2))


def test_certify_reads_the_hermitian_part_of_a_skewed_state():
    # an anti-Hermitian perturbation below a loosened Hermiticity tolerance
    # passes validation and moves no real part of a moment
    g = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    matrix = maximally_mixed((2, 2)).matrix + 1e-4j * g
    rho = DensityMatrix(matrix, (2, 2), 1e-3)
    for relation in ("s3", "l3"):
        joint = joint_from_catalog(relation, 2, 2)
        got, want = certify(rho, joint), certify(maximally_mixed((2, 2)), joint)
        assert got.per_component == want.per_component
        assert got.total == want.total
        assert got.relative_violation == want.relative_violation


def test_states_with_an_anti_hermitian_part_certify_as_their_hermitian_part():
    # rho + K with K = -K^H off the diagonal and |K_jk| <= 0.49 eps, so that
    # it deviates from Hermiticity by at most 0.98 eps
    eps = 1e-3
    rng = np.random.default_rng(30)
    checked = 0
    for dims in ((2, 2), (3, 3), (2, 3), (4, 4)):
        relations = [r for r in RELATION_KINDS if r in ("l3", "s3") or int(r[-1]) == dims[0] == dims[1]]
        dim = dims[0] * dims[1]
        for _ in range(10):
            hermitian = random_mixed_state(dim, rng, dims).matrix
            x = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
            k = (x - x.conj().T) / 2
            np.fill_diagonal(k, 0)
            k *= 0.49 * eps / np.abs(k).max()
            rho = DensityMatrix(hermitian + k, dims, eps)
            for relation in relations:
                joint = joint_from_catalog(relation, *dims)
                got, want = certify(rho, joint), certify(DensityMatrix(hermitian, dims), joint)
                tol = 1e-12 * max(1.0, abs(want.total))
                assert np.abs(np.subtract(got.per_component, want.per_component)).max() <= tol
                assert abs(got.total - want.total) <= tol
                checked += 1
    assert checked == 10 * (4 + 4 + 2 + 2)


def test_certify_keeps_the_negative_variance_floor():
    # (1 + eps)|S><S| - eps|up up><up up| has eigenvalue -eps and a negative
    # joint variance -eps <J^2>, which only a loosened tolerance admits
    eps = 1e-4
    up_up = np.zeros((4, 4), dtype=complex)
    up_up[0, 0] = 1.0
    matrix = (1 + eps) * singlet_state(SpinQuantum(1)).matrix - eps * up_up
    rho = DensityMatrix(matrix, (2, 2), 1e-3)
    with pytest.raises(LurcertError, match="negative beyond tolerance") as err:
        certify(rho, joint_from_catalog("s3", 2, 2))
    assert err.value.code == "not-positive"
    # a deficit within the floor is clipped to zero
    matrix = (1 + 1e-14) * singlet_state(SpinQuantum(1)).matrix - 1e-14 * up_up
    rho = DensityMatrix(matrix, (2, 2))
    cert = certify(rho, joint_from_catalog("s3", 2, 2))
    assert min(cert.per_component) >= 0.0


def test_certificate_fields_are_plain_python_values():
    cert = certify(white_noise_mixture(SpinQuantum(2), 0.2), joint_from_catalog("l3", 3, 3))
    assert all(type(v) is float for v in cert.per_component)
    assert type(cert.total) is float
    assert type(cert.local_limit) is float
    assert type(cert.relative_violation) is float
    assert type(cert.entangled) is bool


def test_state_digest_is_hashed_lazily_and_once(monkeypatch):
    original = states.state_digest
    calls = []

    def counting(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(states, "state_digest", counting)
    rho = white_noise_mixture(SpinQuantum(2), 0.3)
    cert = certify(rho, joint_from_catalog("l3", 3, 3))
    assert calls == []
    first = cert.state_digest
    second = cert.state_digest
    assert len(calls) == 1
    assert first == second == original(rho)
    # another certificate of the same state reuses its digest
    assert certify(rho, joint_from_catalog("s3", 3, 3)).state_digest == first
    assert len(calls) == 1


def test_joint_trace_rows_are_built_once(monkeypatch):
    original = lur._transposed_rows
    calls = []

    def counting(ops):
        calls.append(len(ops))
        return original(ops)

    monkeypatch.setattr(lur, "_transposed_rows", counting)
    # joint_from_relations builds a new set on every call; the catalog
    # joints are shared, so theirs may already be built
    side = catalog_bound("spin3", SpinQuantum(2))
    joint = joint_from_relations(side, side)
    rng = np.random.default_rng(31)
    certs = [certify(random_mixed_state(9, rng, dims=(3, 3)), joint) for _ in range(3)]
    assert calls == [3, 3, 3, 3]
    assert all(not rows.flags.writeable for rows in joint.trace_rows)
    # a fresh joint set gives the same totals to the bit
    for cert in certs:
        again = certify(cert.state, joint_from_relations(side, side))
        assert again.per_component == cert.per_component
        assert again.total == cert.total
    assert calls == [3, 3, 3, 3] * 4


def test_catalog_joints_are_shared_and_read_only():
    joint = joint_from_catalog("l2n3", 3, 3)
    assert joint_from_catalog("l2n3", 3, 3) is joint
    assert joint_from_catalog("l2n3", 3, 3).trace_rows is joint.trace_rows
    for op in (*joint.set_a, *joint.set_b, *joint.trace_rows):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0
    # the shared set certifies as a freshly built one does, to the bit
    rel = catalog_bound("spin2_N3", SpinQuantum(2))
    fresh = dataclasses.replace(joint_from_relations(rel, rel), label="l2n3")
    rho = random_mixed_state(9, np.random.default_rng(5), dims=(3, 3))
    shared_cert, fresh_cert = certify(rho, joint), certify(rho, fresh)
    assert shared_cert.per_component == fresh_cert.per_component
    assert shared_cert.relation_label == fresh_cert.relation_label == "l2n3"
    assert joint_from_catalog("l3", 2, 3) is not joint_from_catalog("l3", 3, 2)


@pytest.mark.parametrize(
    "args", [("bogus", 2, 2), ("l2n3", 2, 2), ("l3", 1, 2), ("s3", 3, 0), ("l2n2", 3, 3)]
)
def test_invalid_catalog_keys_raise_on_every_call(args):
    for _ in range(3):
        with pytest.raises(InvalidParameterError):
            joint_from_catalog(*args)


def test_catalog_joint_cache_is_bounded():
    size = joint_from_catalog.cache_info().maxsize
    assert size == 32
    keys = [(a, b) for a in range(2, 9) for b in range(2, 9)]
    assert len(keys) > size
    joints = [joint_from_catalog("s3", dim_a, dim_b) for dim_a, dim_b in keys]
    assert [(j.dim_a, j.dim_b) for j in joints] == keys
    assert joint_from_catalog.cache_info().currsize == size
    # the oldest key was evicted and comes back as a new, equal set
    again = joint_from_catalog("s3", *keys[0])
    assert again is not joints[0]
    assert again.local_limit == joints[0].local_limit == 4.0
    assert joint_from_catalog("s3", *keys[-1]) is joints[-1]
