"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or in the failure output) and then asserts.
"""

import time

import numpy as np

from lurcert.bound_search import SearchConfig, minimize_sum_uncertainty
from lurcert.lur import certify, joint_from_catalog
from lurcert.spin_ops import SpinQuantum, spin_components, spin_subset
from lurcert.states import (
    bell_mixture,
    min_uncertainty_state_n3,
    singlet_state,
    white_noise_mixture,
    x_decoherence_mixture,
)
from lurcert.uncertainty import catalog_bound

from oracles import (
    brute_force_minimum,
    random_product_state,
    stokes_visibilities,
    sum_uncertainty,
    wootters_concurrence,
)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_catalog_bound_attainment():
    config = SearchConfig(restarts=64)
    targets = [(spin_components(SpinQuantum(two_l)), two_l / 2) for two_l in (1, 2, 3, 4)]
    targets.append((spin_subset(SpinQuantum(2), "xy"), 7 / 16))
    start = time.perf_counter()
    worst = 0.0
    for op_set, expected in targets:
        got = minimize_sum_uncertainty(op_set, config).minimum
        worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(1, ok, f"five searches, max deviation {worst:.2e}, {elapsed:.1f}s (64 restarts each)")


def test_criterion_2_min_uncertainty_family():
    xy = spin_subset(SpinQuantum(2), "xy")
    worst = 0.0
    for phi in (0.0, np.pi / 4, np.pi / 2):
        total = sum_uncertainty(min_uncertainty_state_n3(phi).projector(), xy)
        worst = max(worst, abs(total - 0.4375))
    report(2, worst < 1e-12, f"xy uncertainty sum vs 7/16, max deviation {worst:.2e}")


def test_criterion_3_singlet_certificates():
    worst_total = 0.0
    worst_c = 0.0
    for two_l in (1, 2, 3):
        n = two_l + 1
        cert = certify(singlet_state(SpinQuantum(two_l)), joint_from_catalog("l3", n, n))
        worst_total = max(worst_total, cert.total)
        worst_c = max(worst_c, abs(cert.relative_violation - 1.0))
        assert cert.entangled
    ok = worst_total < 1e-10 and worst_c < 1e-10
    report(3, ok, f"singlet totals <= {worst_total:.2e}, |C-1| <= {worst_c:.2e}")


def test_criterion_4_white_noise_curve():
    worst = 0.0
    for two_l in (1, 2, 3):  # N = 2, 3, 4
        spin = SpinQuantum(two_l)
        n = spin.dim
        joint_l = joint_from_catalog("l3", n, n)
        joint_s = joint_from_catalog("s3", n, n)
        for p_w in np.arange(0.0, 1.0 + 1e-12, 0.05):
            rho = white_noise_mixture(spin, p_w)
            expected = 1.0 - p_w * (n + 1) / 2.0
            for joint in (joint_l, joint_s):
                worst = max(worst, abs(certify(rho, joint).relative_violation - expected))
    report(4, worst < 1e-9, f"C vs 1 - p(N+1)/2 over N=2,3,4, max deviation {worst:.2e}")


def test_criterion_5_bell_concurrence_equality():
    rng = np.random.default_rng(2026)
    joint = joint_from_catalog("s3", 2, 2)
    worst_formula = 0.0
    worst_conc = 0.0
    checked_conc = 0
    for p_s in np.linspace(0.0, 1.0, 21):
        split = rng.dirichlet((1.0, 1.0, 1.0)) * (1.0 - p_s)
        rho = bell_mixture(p_s, *split)
        c_s3 = certify(rho, joint).relative_violation
        worst_formula = max(worst_formula, abs(c_s3 - (2 * p_s - 1)))
        if p_s > 0.5:
            worst_conc = max(worst_conc, abs(c_s3 - wootters_concurrence(rho)))
            checked_conc += 1
    ok = worst_formula < 1e-9 and worst_conc < 1e-9 and checked_conc > 0
    report(
        5,
        ok,
        f"C_S3 vs 2p_S-1 deviation {worst_formula:.2e}; vs concurrence "
        f"{worst_conc:.2e} on {checked_conc} points with p_S > 1/2",
    )


def test_criterion_6_two_component_estimate():
    rng = np.random.default_rng(2027)
    joint2 = joint_from_catalog("s2n2", 2, 2)
    worst_formula = 0.0
    margin = np.inf
    for _ in range(10_000):
        p_s, p_1, p_2, p_3 = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        rho = bell_mixture(p_s, p_1, p_2, p_3)
        c_s2 = certify(rho, joint2).relative_violation
        worst_formula = max(worst_formula, abs(c_s2 - (2 * p_s - 1 - 2 * p_3)))
        margin = min(margin, wootters_concurrence(rho) - c_s2)
    ok = worst_formula < 1e-9 and margin > -1e-9
    report(
        6,
        ok,
        f"C_S2 vs 2p_S-1-2p_3 deviation {worst_formula:.2e}; "
        f"min(concurrence - C_S2) = {margin:.3e} over 10^4 simplex samples",
    )


def test_criterion_7_decoherence_curves():
    joint3 = joint_from_catalog("l3", 3, 3)
    joint2 = joint_from_catalog("l2n3", 3, 3)
    worst = 0.0
    worst_x = 0.0
    for p_d in np.linspace(0.0, 1.0, 21):
        rho = x_decoherence_mixture(p_d)
        cert3 = certify(rho, joint3)
        cert2 = certify(rho, joint2)
        worst = max(worst, abs(cert3.relative_violation - (1.0 - 4.0 * p_d / 3.0)))
        worst = max(worst, abs(cert2.relative_violation - (1.0 - 32.0 * p_d / 21.0)))
        worst_x = max(worst_x, cert3.per_component[0], cert2.per_component[0])
    ok = worst < 1e-9 and worst_x < 1e-12
    report(7, ok, f"C_L3/C_L2 max deviation {worst:.2e}; x-component uncertainty <= {worst_x:.2e}")


def test_criterion_8_visibility_bound():
    rng = np.random.default_rng(2028)
    worst_violation = -np.inf
    worst_equality = 0.0
    for k in range(2000):
        if k % 2:
            p_s = rng.uniform(0.5, 1.0)
            weights = (p_s, 1.0 - p_s, 0.0, 0.0)  # p_3 = 0: equality regime
        else:
            weights = tuple(rng.dirichlet((1.0, 1.0, 1.0, 1.0)))
        rho = bell_mixture(*weights)
        v1, v2, _ = stokes_visibilities(rho)
        bound = v1 + v2 - 1.0
        conc = wootters_concurrence(rho)
        worst_violation = max(worst_violation, bound - conc)
        if weights[3] == 0.0 and weights[0] > 0.5:
            worst_equality = max(worst_equality, abs(bound - conc))
    ok = worst_violation < 1e-9 and worst_equality < 1e-9
    report(
        8,
        ok,
        f"max(V1+V2-1-concurrence) = {worst_violation:.3e}; "
        f"equality deviation {worst_equality:.2e} when p_3=0, p_S>1/2",
    )


def test_criterion_9_no_false_positives():
    rng = np.random.default_rng(2029)
    joints = [
        joint_from_catalog("l3", 2, 2),
        joint_from_catalog("s3", 2, 2),
        joint_from_catalog("l2n2", 2, 2),
        joint_from_catalog("s2n2", 2, 2),
        joint_from_catalog("l3", 3, 3),
        joint_from_catalog("s3", 3, 3),
        joint_from_catalog("l2n3", 3, 3),
        joint_from_catalog("s2n3", 3, 3),
    ]
    false_positives = 0
    for joint in joints:
        d = joint.dim_a
        for k in range(10_000):
            rho = random_product_state(d, d, rng, pure=bool(k % 2))
            if certify(rho, joint).entangled:
                false_positives += 1
    report(
        9,
        false_positives == 0,
        f"{false_positives} entangled verdicts on 10^4 product states x {len(joints)} joints",
    )


def test_criterion_10_oracle_cross_check_and_determinism():
    resolution = np.pi / 100
    config = SearchConfig(restarts=32)
    sets = [
        catalog_bound("spin3", SpinQuantum(1)),
        catalog_bound("spin3", SpinQuantum(2)),
        catalog_bound("stokes3", 1),
        catalog_bound("stokes3", 2),
        catalog_bound("spin2_N2", SpinQuantum(1)),
        catalog_bound("stokes2_N2", 1),
        catalog_bound("spin2_N3", SpinQuantum(2)),
        catalog_bound("stokes2_N3", 2),
    ]
    agree = True
    worst_ratio = 0.0
    for relation in sets:
        op_set = relation.operator_set
        searched = minimize_sum_uncertainty(op_set, config).minimum
        brute = brute_force_minimum(op_set, resolution)
        scale = sum(np.abs(np.linalg.eigvalsh(a)).max() ** 2 for a in op_set)
        grid_error = resolution**2 * scale
        agree = agree and (-1e-7 < brute - searched <= 2 * grid_error)
        worst_ratio = max(worst_ratio, (brute - searched) / grid_error)
    first = minimize_sum_uncertainty(sets[-1].operator_set, config)
    second = minimize_sum_uncertainty(sets[-1].operator_set, config)
    deterministic = (
        first.minimum == second.minimum
        and first.restart_minima == second.restart_minima
        and np.array_equal(first.argmin.amplitudes, second.argmin.amplitudes)
    )
    ok = agree and deterministic
    report(
        10,
        ok,
        f"brute-force gap <= {worst_ratio:.2f}x grid error on 8 sets; "
        f"rerun bit-identical: {deterministic}",
    )
