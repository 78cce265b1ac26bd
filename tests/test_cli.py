import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lurcert
from lurcert import bound_search, cli, states
from lurcert.lur import certify, joint_from_catalog
from lurcert.spin_ops import SpinQuantum
from lurcert.linalg import DimensionMismatchError
from lurcert.states import (
    DensityMatrix,
    bell_mixture,
    maximally_mixed,
    min_uncertainty_state_n3,
    read_state,
    singlet_state,
    state_to_json,
    write_state,
)


def run(*argv):
    return cli.main(list(argv))


def test_certify_singlet_reports_entanglement(tmp_path, capsys):
    state = tmp_path / "singlet.json"
    assert run("state-gen", "--kind", "singlet", "--two-l", "1", "--out", str(state)) == 0
    code = run("certify", "--state", str(state), "--relation", "s3")
    out = capsys.readouterr().out
    assert code == 3
    assert "ENTANGLED" in out
    assert "relative violation C:      1" in out


def test_certify_maximally_mixed_no_violation(tmp_path, capsys):
    state = tmp_path / "mixed.json"
    run("state-gen", "--kind", "white", "--two-l", "1", "--p", "1", "--out", str(state))
    code = run("certify", "--state", str(state), "--relation", "s3")
    out = capsys.readouterr().out
    assert code == 0
    assert "no violation" in out
    assert "-0.5" in out


def test_certify_round_trip_is_bit_exact(tmp_path):
    state = tmp_path / "bell.json"
    cert_path = tmp_path / "cert.json"
    run(
        "state-gen", "--kind", "bell",
        "--ps", "0.8", "--p1", "0.1", "--p2", "0.05", "--p3", "0.05",
        "--out", str(state),
    )
    code = run("certify", "--state", str(state), "--relation", "s3", "--json", str(cert_path))
    assert code == 3
    doc = json.loads(cert_path.read_text())
    direct = certify(bell_mixture(0.8, 0.1, 0.05, 0.05), joint_from_catalog("s3", 2, 2))
    assert doc["total"] == direct.total
    assert doc["relative_violation"] == direct.relative_violation
    assert doc["per_component"] == list(direct.per_component)
    assert doc["state_digest"] == direct.state_digest
    assert doc["relative_violation"] == pytest.approx(0.6, abs=1e-12)


def test_certify_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{definitely not json")
    code = run("certify", "--state", str(bad), "--relation", "s3")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[parse]:")


def test_certify_missing_file(tmp_path, capsys):
    code = run("certify", "--state", str(tmp_path / "nope.json"), "--relation", "s3")
    assert code == 2
    assert capsys.readouterr().err.startswith("error[io]:")


def test_certify_single_system_state_rejected(tmp_path, capsys):
    state = tmp_path / "minuncert3.json"
    run("state-gen", "--kind", "minuncert3", "--phi", "0", "--out", str(state))
    code = run("certify", "--state", str(state), "--relation", "l3")
    assert code == 2
    assert "error[invalid-parameter]" in capsys.readouterr().err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        run("certify", "--state", "x.json")
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error[usage]:")
    with pytest.raises(SystemExit) as exc:
        run("certify", "--state", "x.json", "--relation", "s3", "--bogus")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 1


def test_state_gen_minuncert3_amplitudes(tmp_path):
    state = tmp_path / "minuncert3.json"
    run("state-gen", "--kind", "minuncert3", "--phi", "0", "--out", str(state))
    rho = read_state(state)
    assert rho.dims == (3,)
    expected = min_uncertainty_state_n3(0.0).projector()
    assert np.array_equal(rho.matrix, expected.matrix)
    amps = np.sqrt(np.diag(rho.matrix).real)
    assert np.allclose(amps, [np.sqrt(5) / 4, np.sqrt(6) / 4, np.sqrt(5) / 4])


def test_state_gen_singlet_round_trip(tmp_path):
    state = tmp_path / "s.json"
    run("state-gen", "--kind", "singlet", "--two-l", "2", "--out", str(state))
    rho = read_state(state)
    assert np.array_equal(rho.matrix, singlet_state(SpinQuantum(2)).matrix)


def test_state_gen_singlet_certifies_with_the_library_digest(tmp_path):
    for two_l in (1, 2, 3):
        state = tmp_path / f"singlet{two_l}.json"
        cert_path = tmp_path / f"cert{two_l}.json"
        run("state-gen", "--kind", "singlet", "--two-l", str(two_l), "--out", str(state))
        assert run("certify", "--state", str(state), "--relation", "l3", "--json", str(cert_path)) == 3
        n = two_l + 1
        direct = certify(singlet_state(SpinQuantum(two_l)), joint_from_catalog("l3", n, n))
        assert json.loads(cert_path.read_text())["state_digest"] == direct.state_digest


def test_state_gen_parameter_errors(tmp_path, capsys):
    code = run("state-gen", "--kind", "singlet", "--out", str(tmp_path / "x.json"))
    assert code == 2
    code = run("state-gen", "--kind", "white", "--two-l", "1", "--p", "1.5",
               "--out", str(tmp_path / "x.json"))
    assert code == 2
    code = run("state-gen", "--kind", "bell", "--ps", "0.9", "--p1", "0.3",
               "--p2", "0", "--p3", "0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "error[invalid-parameter]" in capsys.readouterr().err


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_family_white_curve(tmp_path):
    out = tmp_path / "white.csv"
    code = run("family", "--kind", "white", "--grid", "0:1:0.05", "--relation", "l3",
               "--two-l", "2", "--out", str(out))
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["parameter", "total", "local_limit", "C", "closed_form_C", "abs_difference"]
    assert len(rows) == 21
    for row in rows:
        p = float(row[0])
        assert abs(float(row[3]) - (1 - 2 * p)) < 1e-9
        assert float(row[5]) < 1e-9
    # full 17-significant-digit output, '.' decimal separator
    assert any(len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 16
               for row in rows for cell in row[3:4])


def test_family_bell_curve(tmp_path):
    out = tmp_path / "bell.csv"
    assert run("family", "--kind", "bell", "--grid", "0:1:0.1", "--relation", "s3",
               "--out", str(out)) == 0
    _, rows = read_csv(out)
    for row in rows:
        p_s = float(row[0])
        assert abs(float(row[3]) - (2 * p_s - 1)) < 1e-9
        assert float(row[5]) < 1e-9


def test_family_xdecoherence_endpoint(tmp_path):
    out = tmp_path / "xdec.csv"
    assert run("family", "--kind", "xdecoherence", "--grid", "0:1:0.5", "--relation", "l3",
               "--out", str(out)) == 0
    _, rows = read_csv(out)
    assert abs(float(rows[-1][3]) - (-1 / 3)) < 1e-9


def test_family_no_closed_form_leaves_blank(tmp_path):
    out = tmp_path / "blank.csv"
    assert run("family", "--kind", "white", "--grid", "0:1:0.5", "--relation", "l2n2",
               "--two-l", "1", "--out", str(out)) == 0
    _, rows = read_csv(out)
    for row in rows:
        assert row[4] == "" and row[5] == ""


def test_family_errors(tmp_path, capsys):
    code = run("family", "--kind", "white", "--grid", "0:1:0.1", "--relation", "l3",
               "--out", str(tmp_path / "x.csv"))
    assert code == 2  # white needs --two-l
    code = run("family", "--kind", "white", "--grid", "0:2:0.5", "--relation", "l3",
               "--two-l", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2  # p_W beyond 1
    code = run("family", "--kind", "bell", "--grid", "0:1:-0.1", "--relation", "s3",
               "--out", str(tmp_path / "x.csv"))
    assert code == 2
    code = run("family", "--kind", "xdecoherence", "--grid", "0:1:0.5", "--relation", "l2n2",
               "--out", str(tmp_path / "x.csv"))
    assert code == 2  # 3x3 family vs 2-level relation
    capsys.readouterr()


def test_family_grid_point_cap(tmp_path, capsys):
    out = tmp_path / "x.csv"
    # one point over the cap is refused before the grid is built
    over = f"0:1:{1 / cli.MAX_GRID_POINTS!r}"
    code = run("family", "--kind", "bell", "--grid", over, "--relation", "s3", "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err.startswith("error[invalid-parameter]:")
    assert not out.exists()
    for spec in ("0:1e300:1e-300", "0:inf:1", "0:1:nan"):
        code = run("family", "--kind", "bell", "--grid", spec, "--relation", "s3", "--out", str(out))
        assert code == 2, spec
        assert capsys.readouterr().err.startswith("error[invalid-parameter]:"), spec
    assert len(cli._parse_grid(f"0:{cli.MAX_GRID_POINTS - 1}:1")) == cli.MAX_GRID_POINTS


def test_a_step_below_the_snap_window_repeats_no_parameter(tmp_path, capsys):
    # 1e-13 is a tenth of the 1e-12 window within which the last point is
    # snapped onto stop; only that point may move
    grid = cli._parse_grid("0:5e-11:1e-13")
    assert len(grid) == len(set(grid)) == 501
    assert grid == sorted(grid)
    assert grid[-1] == 5e-11
    out = tmp_path / "tiny.csv"
    argv = ["family", "--kind", "white", "--two-l", "1", "--grid", "0:5e-11:1e-13"]
    assert run(*argv, "--relation", "l3", "--out", str(out)) == 0
    params = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert len(params) == len(set(params)) == 501
    assert params[-1] == "5.0000000000000002e-11"


def _python_m_lurcert(*argv):
    src = str(Path(lurcert.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "LURCERT_VALIDATION_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "lurcert", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_python_m_lurcert_prints_the_version():
    proc = _python_m_lurcert("--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"lurcert {lurcert.__version__}\n", "")


def test_python_m_lurcert_certifies_like_main(tmp_path, capsys):
    state = tmp_path / "singlet.json"
    write_state(singlet_state(SpinQuantum(2)), state)
    argv = ["certify", "--state", str(state), "--relation", "l3"]
    code = cli.main(argv)
    expected = (code, *capsys.readouterr())
    proc = _python_m_lurcert(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert code == 3


def test_certify_json_digest_is_hashed_once(tmp_path, monkeypatch):
    state = tmp_path / "white.json"
    cert_path = tmp_path / "cert.json"
    run("state-gen", "--kind", "white", "--two-l", "2", "--p", "0.3", "--out", str(state))
    original = states.state_digest
    calls = []
    monkeypatch.setattr(states, "state_digest", lambda s: calls.append(s) or original(s))
    assert run("certify", "--state", str(state), "--relation", "l3", "--json", str(cert_path)) == 3
    assert len(calls) == 1
    doc = json.loads(cert_path.read_text())
    assert doc["state_digest"] == original(read_state(state))


def test_certify_json_formats_no_state_text(tmp_path, monkeypatch):
    # the digest hashes the stored doubles: certify never writes the state
    # as text, so it runs with the file writer broken
    state = tmp_path / "singlet.json"
    cert_path = tmp_path / "cert.json"
    run("state-gen", "--kind", "singlet", "--two-l", "2", "--out", str(state))

    def broken(_state):
        raise AssertionError("certify formatted the state as text")

    monkeypatch.setattr(states, "state_to_json", broken)
    assert run("certify", "--state", str(state), "--relation", "l3", "--json", str(cert_path)) in (0, 3)
    doc = json.loads(cert_path.read_text())
    assert doc["state_digest"] == read_state(state).digest
    assert doc["lurcert_version"] == lurcert.__version__


def reported_minimum(out):
    line = next(l for l in out.splitlines() if l.startswith("minimum:"))
    return float(line.split()[1])


# an operator file with the bits of the built-in spin-1 L_x, L_y, so that
# search-bound runs the descent on the set whose interval spin:xy proves
SPIN1_XY_FILE = str(Path(__file__).parent / "data" / "spin1_xy_operators.json")


def test_search_bound_builtin_sets(capsys):
    assert run("search-bound", "--set", "spin:xy", "--two-l", "2", "--restarts", "16") == 0
    out = capsys.readouterr().out
    assert abs(reported_minimum(out) - 0.4375) < 1e-6
    assert "method: interval (deterministic; --restarts and --seed apply to operator files)" in out
    assert run("search-bound", "--set", SPIN1_XY_FILE, "--restarts", "16") == 0
    out = capsys.readouterr().out
    assert abs(reported_minimum(out) - 0.4375) < 1e-6
    assert "confidence: ok" in out
    assert run("search-bound", "--set", "spin:xyz", "--two-l", "4", "--restarts", "16") == 0
    assert abs(reported_minimum(capsys.readouterr().out) - 2.0) < 1e-6
    assert run("search-bound", "--set", "spin:z", "--two-l", "2", "--restarts", "8") == 0
    assert "common eigenstate exists" in capsys.readouterr().out


def emitted_bound_certifies(operator_set, provenance, tmp_path, capsys):
    """Run search-bound on ``operator_set`` (the spin-1 L_x, L_y) with both
    outputs, and certify the 3x3 singlet against the emitted bound file."""
    state_path = tmp_path / "argmin.json"
    bound_path = tmp_path / "bound.json"
    assert run(
        "search-bound", *operator_set, "--restarts", "16",
        "--emit-state", str(state_path), "--emit-bound", str(bound_path),
    ) == 0
    capsys.readouterr()
    argmin = read_state(state_path)  # round-trips through validation
    assert argmin.dims == (3,)
    doc = json.loads(bound_path.read_text())
    assert doc["provenance"] == provenance
    assert abs(doc["bound"] - 0.4375) < 1e-6

    # the emitted bound file drives certify on a 3x3 pair
    singlet_path = tmp_path / "singlet3.json"
    run("state-gen", "--kind", "singlet", "--two-l", "2", "--out", str(singlet_path))
    code = run("certify", "--state", str(singlet_path), "--relation", str(bound_path))
    out = capsys.readouterr().out
    assert code == 3
    assert f"(bounds {provenance}, {provenance})" in out


def test_search_bound_emits_state_and_bound(tmp_path, capsys):
    emitted_bound_certifies(("--set", "spin:xy", "--two-l", "2"), "interval", tmp_path, capsys)


def test_search_bound_emits_a_descent_bound_for_an_operator_file(tmp_path, capsys):
    emitted_bound_certifies(("--set", SPIN1_XY_FILE), "numerically-certified", tmp_path, capsys)


def stop_counts(out):
    line = next(l for l in out.splitlines() if l.startswith("stops:"))
    return {k: int(v) for k, v in (item.split("=") for item in line.split()[1:])}


def test_search_bound_reports_stop_reasons(capsys, monkeypatch):
    assert run("search-bound", "--set", SPIN1_XY_FILE, "--restarts", "16") == 0
    counts = stop_counts(capsys.readouterr().out)
    assert list(counts) == ["gradient", "line-search", "stall", "max-iterations"]
    assert counts["max-iterations"] == 0
    assert sum(counts.values()) == 16
    monkeypatch.setattr(bound_search, "MAX_ITERATIONS", 1)
    assert run("search-bound", "--set", SPIN1_XY_FILE, "--restarts", "8") == 0
    out = capsys.readouterr().out
    assert stop_counts(out) == {"gradient": 0, "line-search": 0, "stall": 0, "max-iterations": 8}
    assert "converged: 0" in out
    assert "warning: no restart converged" in out


def test_emitted_bound_file_is_auditable(tmp_path, capsys):
    bound_path = tmp_path / "bound.json"
    assert run(
        "search-bound", "--set", SPIN1_XY_FILE, "--restarts", "16", "--seed", "5",
        "--emit-bound", str(bound_path),
    ) == 0
    out = capsys.readouterr().out
    doc = json.loads(bound_path.read_text())
    assert doc["lurcert_version"] == lurcert.__version__
    search = doc["search"]
    assert (search["seed"], search["restarts"]) == (5, 16)
    assert search["stops"] == stop_counts(out)
    assert f"agreeing: {search['agreeing']}  converged: {search['converged']}" in out
    assert search["low_confidence"] is False

    # the audit keys change nothing: the file certifies like one without them
    bare_path = tmp_path / "bare.json"
    bare = {k: doc[k] for k in ("label", "dim", "bound", "provenance", "operators")}
    bare_path.write_text(json.dumps(bare))
    singlet_path = tmp_path / "singlet3.json"
    run("state-gen", "--kind", "singlet", "--two-l", "2", "--out", str(singlet_path))
    certs = []
    for path in (bound_path, bare_path):
        cert_path = tmp_path / f"cert-{path.stem}.json"
        assert run("certify", "--state", str(singlet_path), "--relation", str(path),
                   "--json", str(cert_path)) == 3
        certs.append(json.loads(cert_path.read_text()))
    capsys.readouterr()
    assert certs[0]["total"] == certs[1]["total"]
    assert certs[0]["verdict"] == certs[1]["verdict"]


GOOD_SIDE = {
    "label": "xy",
    "dim": 2,
    "bound": 0.25,
    "provenance": "analytic",
    "operators": [
        [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]],
        [[[0, 0], [0, -0.5]], [[0, 0.5], [0, 0]]],
    ],
}


def malformed(**changes):
    doc = {**GOOD_SIDE, **changes}
    return {k: v for k, v in doc.items() if v is not None}


MALFORMED_BOUND_FILES = {
    "bound-string": malformed(bound="abc"),
    "bound-bool": malformed(bound=True),
    "bound-nan": malformed(bound=float("nan")),
    "bound-infinite": malformed(bound=float("inf")),
    "bound-huge-int": malformed(bound=10**400),
    "bound-negative": malformed(bound=-0.25),
    "operators-number": malformed(operators=5),
    "operators-empty": malformed(operators=[]),
    "operators-empty-matrix": malformed(operators=[[]]),
    "operators-not-square": malformed(operators=[[[[0, 0], [1, 0]]]]),
    "operators-mixed-sizes": malformed(operators=[GOOD_SIDE["operators"][0], [[[1, 0]]]]),
    "operators-bad-cell": malformed(operators=[[[[0, 0], [1, 0, 0]], [[1, 0], [0, 0]]]]),
    "operators-bool-cell": malformed(operators=[[[[True, 0], [0, 0]], [[0, 0], [0, 0]]]]),
    "provenance-made-up": malformed(provenance="made-up"),
    "provenance-list": malformed(provenance=["analytic"]),
    "dim-mismatch": malformed(dim=3),
    "dim-bool": malformed(dim=True),
    "missing-bound": malformed(bound=None),
    "not-an-object": [GOOD_SIDE],
    "side-not-an-object": {"side_a": GOOD_SIDE, "side_b": 7},
}


@pytest.mark.parametrize("name", list(MALFORMED_BOUND_FILES))
def test_malformed_bound_file_is_a_structured_error(name, tmp_path, capsys):
    bound_path = tmp_path / "bound.json"
    bound_path.write_text(json.dumps(MALFORMED_BOUND_FILES[name]))
    state = tmp_path / "singlet.json"
    run("state-gen", "--kind", "singlet", "--two-l", "1", "--out", str(state))
    capsys.readouterr()
    code = run("certify", "--state", str(state), "--relation", str(bound_path))
    captured = capsys.readouterr()
    assert code == 2
    errors = [line for line in captured.err.splitlines() if "error[" in line]
    assert len(errors) == 1 and errors[0].startswith("error[bound-file]:"), captured.err
    assert "Traceback" not in captured.err
    assert "ENTANGLED" not in captured.out


def test_emitted_interval_file_is_auditable(tmp_path, capsys):
    bound_path = tmp_path / "bound.json"
    assert run("search-bound", "--set", "spin:xy", "--two-l", "2", "--emit-bound", str(bound_path)) == 0
    out = capsys.readouterr().out
    doc = json.loads(bound_path.read_text())
    assert doc["lurcert_version"] == lurcert.__version__ == "0.5.0"
    assert "search" not in doc
    lower, upper = doc["interval"]
    assert (doc["provenance"], doc["bound"]) == ("interval", lower)
    assert (f"interval: [{cli._fmt(lower)}, {cli._fmt(upper)}]  gap: {cli._fmt(doc['gap'])}"
            f"  boxes: {doc['boxes']}") in out.splitlines()
    assert doc["gap"] == upper - lower and doc["boxes"] >= 1
    assert cli._load_relation_side(doc, "bound file").provenance == "interval"


def test_wellformed_bound_file_certifies(tmp_path, capsys):
    bound_path = tmp_path / "bound.json"
    bound_path.write_text(json.dumps(GOOD_SIDE))
    state = tmp_path / "singlet.json"
    run("state-gen", "--kind", "singlet", "--two-l", "1", "--out", str(state))
    assert run("certify", "--state", str(state), "--relation", str(bound_path)) == 3
    assert "bounds analytic, analytic" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_a_file_bound_above_the_minimum_is_refused(tmp_path, capsys):
    # spin-1/2 L_x, L_y, L_z sum to 1/2 at least; a file that claims 3/4 as
    # "analytic" is taken on trust, and |up up> (total 1 < 3/2) is called
    # entangled with C = 1/3
    bound_path = tmp_path / "bound.json"
    assert run("search-bound", "--set", "spin:xyz", "--two-l", "1", "--emit-bound", str(bound_path)) == 0
    doc = json.loads(bound_path.read_text())
    doc.update(bound=0.75, provenance="analytic")
    bound_path.write_text(json.dumps(doc))
    up = np.array([1.0, 0.0, 0.0, 0.0])
    state = tmp_path / "upup.json"
    write_state(DensityMatrix(np.outer(up, up).astype(complex), (2, 2)), state)
    capsys.readouterr()
    code = run("certify", "--state", str(state), "--relation", str(bound_path))
    out = capsys.readouterr().out
    # the verdict first: a fix may withhold it or refuse the whole file,
    # and a refusal prints no certificate to read C from
    assert code != 3 and "ENTANGLED" not in out
    if "relative violation C:" in out:
        assert abs(float(out.split("relative violation C:")[1].split()[0]) - 1 / 3) < 1e-12


def scaled_spin1_xy_bound_file(path, scale):
    """A bound file of spin-1 L_x, L_y times ``scale``, at 7/16 scale^2."""
    ops = [scale * a for a in lurcert.spin_subset(SpinQuantum(2), "xy")]
    doc = {"label": "xy", "dim": 3, "bound": 0.4375 * scale**2, "provenance": "numerically-certified",
           "operators": [np.stack([a.real, a.imag], -1).tolist() for a in ops]}
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("scale", [1e5, 1e6, 1e7])
def test_large_operator_bound_file_certifies_as_unscaled(scale, tmp_path, capsys):
    # the traces of these operators carry imaginary rounding of 1e-7 to
    # 1e-3, which the real parts of the moments leave out
    rng = np.random.default_rng(3)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    state = tmp_path / "state.json"
    write_state(DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real, (3, 3)), state)
    violations = []
    for s in (1.0, scale):
        scaled_spin1_xy_bound_file(tmp_path / "bound.json", s)
        assert run("certify", "--state", str(state), "--relation", str(tmp_path / "bound.json")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        violations.append(float(captured.out.split("relative violation C:")[1].split()[0]))
    assert abs(violations[1] - violations[0]) <= 1e-9


def test_search_bound_operator_file(tmp_path, capsys):
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps({
        "label": "custom",
        "operators": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]],
    }))
    assert run("search-bound", "--set", str(ops_path), "--restarts", "8") == 0
    capsys.readouterr()
    bad_path = tmp_path / "bad_ops.json"
    bad_path.write_text(json.dumps({
        "label": "broken",
        "operators": [[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]],
    }))
    code = run("search-bound", "--set", str(bad_path), "--restarts", "8")
    assert code == 2
    assert "error[not-hermitian]" in capsys.readouterr().err


def test_negative_search_minimum_emits_a_zero_bound(tmp_path, capsys):
    # one operator has an eigenstate, so the minimum is 0 and rounding can
    # leave the search a little below it
    rng = np.random.default_rng([7, 1, 0])
    g = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    h = (g + g.conj().T) / 2
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps({"operators": [np.stack([h.real, h.imag], -1).tolist()]}))
    bound_path = tmp_path / "bound.json"
    assert run("search-bound", "--set", str(ops_path), "--restarts", "8",
               "--emit-bound", str(bound_path)) == 0
    minimum = reported_minimum(capsys.readouterr().out)
    doc = json.loads(bound_path.read_text())
    assert doc["bound"] == max(0.0, minimum) < 1e-12
    assert cli._load_relation_side(doc, "bound file").bound == doc["bound"]


def test_bound_subcommand(capsys):
    assert run("bound", "--kind", "spin2_N3", "--two-l", "2") == 0
    out = capsys.readouterr().out
    assert "7/16" in out and "analytic" in out
    assert run("bound", "--kind", "stokes3", "--two-l", "3") == 0
    assert "bound: 6" in capsys.readouterr().out
    assert run("bound", "--kind", "spin2_N2", "--two-l", "2") == 2
    assert "error[invalid-parameter]" in capsys.readouterr().err


def test_env_tolerance_override(tmp_path, monkeypatch, capsys):
    state = tmp_path / "offtrace.json"
    doc = json.loads(state_to_json(singlet_state(SpinQuantum(1))))
    doc["matrix"][1][1][0] += 1e-8  # trace now off by more than the default 1e-9
    state.write_text(json.dumps(doc))
    monkeypatch.delenv("LURCERT_VALIDATION_TOL", raising=False)
    assert run("certify", "--state", str(state), "--relation", "s3") == 2
    assert "error[trace-not-one]" in capsys.readouterr().err
    monkeypatch.setenv("LURCERT_VALIDATION_TOL", "1e-6")
    assert run("certify", "--state", str(state), "--relation", "s3") == 3
    capsys.readouterr()


def coherent_product_below_zero(path):
    """Write 1.2|aa><aa| - 0.05*1 at 2x2, a the qubit coherent state along
    (1,1,1)/sqrt(3): trace one, Hermitian, min eigenvalue -0.05."""
    theta, phi = np.arccos(1 / np.sqrt(3)), np.pi / 4
    a = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    aa = np.kron(a, a)
    m = 1.2 * np.outer(aa, aa.conj()) - 0.05 * np.eye(4)
    rows = [[[z.real, z.imag] for z in row] for row in m]
    path.write_text(json.dumps({"dims": [2, 2], "matrix": rows}))


def test_infinite_env_tolerance_is_refused(tmp_path, monkeypatch, capsys):
    state = tmp_path / "negative.json"
    coherent_product_below_zero(state)
    monkeypatch.delenv("LURCERT_VALIDATION_TOL", raising=False)
    assert run("certify", "--state", str(state), "--relation", "l3") == 2
    assert "error[not-positive]: state is not positive semidefinite: min eigenvalue -5.000e-02" \
        in capsys.readouterr().err
    for tol in ("inf", "1e400", "-inf", "nan"):
        monkeypatch.setenv("LURCERT_VALIDATION_TOL", tol)
        assert run("certify", "--state", str(state), "--relation", "l3") == 2
        captured = capsys.readouterr()
        assert "ENTANGLED" not in captured.out
        assert structured_error(captured).startswith("error[invalid-parameter]:")


def structured_error(captured):
    errors = [line for line in captured.err.splitlines() if "error[" in line]
    assert len(errors) == 1, captured.err
    assert "Traceback" not in captured.err
    return errors[0]


def test_negative_seed_is_refused(capsys):
    assert run("search-bound", "--set", "spin:xy", "--two-l", "2", "--seed", "-1") == 2
    assert structured_error(capsys.readouterr()) == (
        "error[invalid-parameter]: seed must be nonnegative, got -1"
    )


def test_oversized_restarts_are_refused(capsys):
    # refused before the search keeps a minimum per restart
    assert run("search-bound", "--set", "spin:xy", "--two-l", "2", "--restarts", "100000000000") == 2
    assert structured_error(capsys.readouterr()) == (
        "error[invalid-parameter]: restarts must be at most 100000, got 100000000000"
    )


def test_corrupt_moments_name_the_broken_invariant(tmp_path, monkeypatch, capsys):
    # states that only a loosened tolerance admits: a skewed one certifies
    # as its Hermitian part, (1 + 1e-4)|S><S| - 1e-4|up up><up up| leaves a
    # negative variance
    skewed = np.eye(4, dtype=complex) / 4
    skewed[0, 1] = 1e-4j
    singlet = singlet_state(SpinQuantum(1)).matrix
    negative = (1 + 1e-4) * singlet - 1e-4 * np.diag([1.0, 0.0, 0.0, 0.0])
    monkeypatch.setenv("LURCERT_VALIDATION_TOL", "1e-3")

    def certify_file(m, relation):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"dims": [2, 2], "matrix": np.stack([m.real, m.imag], -1).tolist()}))
        return run("certify", "--state", str(state), "--relation", relation), capsys.readouterr()

    code, captured = certify_file(skewed, "l3")
    assert (code, captured.err) == (0, "")
    total = [line for line in captured.out.splitlines() if line.startswith("total:")]
    code, captured = certify_file((skewed + skewed.conj().T) / 2, "l3")
    assert (code, captured.err) == (0, "")
    assert len(total) == 1 and total == [
        line for line in captured.out.splitlines() if line.startswith("total:")
    ]
    code, captured = certify_file(negative, "s3")
    assert code == 2
    assert structured_error(captured) == (
        "error[not-positive]: variance -2.000e-04 is negative beyond tolerance; inputs look corrupted"
    )


def test_hostile_row_counts_allocate_only_the_cells_present(tmp_path, capsys):
    # 5,000 empty rows claim a 5,000 x 5,000 matrix (400 MB) in a 20 KB file
    singlet = tmp_path / "singlet.json"
    run("state-gen", "--kind", "singlet", "--two-l", "1", "--out", str(singlet))
    state = tmp_path / "rows.json"
    state.write_text(json.dumps({"dims": [50, 100], "matrix": [[]] * 5000}))
    bound = tmp_path / "bound.json"
    bound.write_text(json.dumps({**GOOD_SIDE, "operators": [[[]] * 5000]}))
    capsys.readouterr()
    for argv in (("--state", str(state), "--relation", "s3"),
                 ("--state", str(singlet), "--relation", str(bound))):
        tracemalloc.start()
        try:
            code = run("certify", *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 10 * 2**20, (argv, peak)
        assert "row 0 must have 5000 entries" in structured_error(capsys.readouterr())


# 2l = 10^6 asks for a 14.6 TiB matrix if it is not refused first
OVER_CAP_TWO_L = {
    "family": ("family", "--kind", "white", "--grid", "0:1:0.5", "--relation", "l3"),
    "search-bound": ("search-bound", "--set", "spin:xy"),
    "state-gen": ("state-gen", "--kind", "white", "--p", "0.5"),
    "bound": ("bound", "--kind", "spin3"),
}


@pytest.mark.parametrize("command", sorted(OVER_CAP_TWO_L))
def test_two_l_over_the_cap_is_refused_before_allocating(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = OVER_CAP_TWO_L[command] + ("--two-l", "1000000")
    if command in ("family", "state-gen"):
        argv += ("--out", str(out))
    tracemalloc.start()
    try:
        code = run(*argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 10 * 2**20, peak
    line = structured_error(capsys.readouterr())
    assert line == f"error[invalid-parameter]: --two-l must be at most {cli.MAX_TWO_L}, got 1000000"
    assert not out.exists()


def test_two_l_cap_boundary(capsys):
    assert run("bound", "--kind", "spin3", "--two-l", str(cli.MAX_TWO_L)) == 0
    assert "bound: 31.5" in capsys.readouterr().out
    assert run("bound", "--kind", "stokes3", "--two-l", str(cli.MAX_TWO_L + 1)) == 2
    assert structured_error(capsys.readouterr()).startswith("error[invalid-parameter]:")


# the arguments, but --two-l, of each kind that fixes its level number
FIXED_LEVEL_ARGS = {
    ("family", "bell"): ("--grid", "0:1:0.5", "--relation", "s3"),
    ("family", "xdecoherence"): ("--grid", "0:1:0.5", "--relation", "s3"),
    ("state-gen", "bell"): ("--ps", "0.7", "--p1", "0.3", "--p2", "0", "--p3", "0"),
    ("state-gen", "minuncert3"): ("--phi", "0.3"),
    ("state-gen", "xdecoherence"): ("--p", "0.3"),
}


@pytest.mark.parametrize("command, kind", sorted(FIXED_LEVEL_ARGS))
@pytest.mark.parametrize("offset", [0, 3])
def test_a_fixed_level_number_is_checked_not_ignored(command, kind, offset, tmp_path, capsys):
    out = tmp_path / "out"
    argv = (command, "--kind", kind, *FIXED_LEVEL_ARGS[command, kind], "--out", str(out))
    assert run(*argv) == 0
    unset = out.read_bytes()
    out.unlink()
    capsys.readouterr()
    two_l = cli.FIXED_TWO_L[kind] + offset
    code = run(*argv, "--two-l", str(two_l))
    if offset == 0:
        # the level number the kind fixes is accepted, and changes no byte
        assert code == 0 and out.read_bytes() == unset
    else:
        assert code == 2 and not out.exists()
        assert structured_error(capsys.readouterr()) == (
            f"error[invalid-parameter]: {command} {kind} is fixed at "
            f"two_l={cli.FIXED_TWO_L[kind]}, got --two-l {two_l}"
        )


def test_state_dims_product_does_not_wrap(tmp_path, capsys):
    # 4 * 4611686018427387905 is 4 modulo 2^64
    doc = json.loads(state_to_json(maximally_mixed((2, 2))))
    doc["dims"] = [4, 4611686018427387905]
    state = tmp_path / "wrapped.json"
    state.write_text(json.dumps(doc))
    assert run("certify", "--state", str(state), "--relation", "s3") == 2
    assert structured_error(capsys.readouterr()).startswith("error[parse]:")
    with pytest.raises(DimensionMismatchError):
        DensityMatrix(np.eye(4) / 4, (4, 4611686018427387905))


def test_state_dims_reject_booleans(tmp_path, capsys):
    doc = json.loads(state_to_json(maximally_mixed((2, 2))))
    doc["dims"] = [True, 4]
    state = tmp_path / "bool_dims.json"
    state.write_text(json.dumps(doc))
    assert run("certify", "--state", str(state), "--relation", "s3") == 2
    assert structured_error(capsys.readouterr()).startswith('error[parse]: "dims" must be')


HOSTILE_CONTENTS = {
    "not-utf8": b'{"dims": [2, 2], "matrix": "\xff\xfe"}',
    "deep-nesting": b"[" * 200000,
    "long-integer": b'{"dims": [' + b"7" * 5000 + b"]}",
}


@pytest.mark.parametrize("content", list(HOSTILE_CONTENTS))
@pytest.mark.parametrize("where", ["state", "bound", "operators"])
def test_hostile_files_are_parse_errors(where, content, tmp_path, capsys):
    hostile = tmp_path / "hostile.json"
    hostile.write_bytes(HOSTILE_CONTENTS[content])
    singlet = tmp_path / "singlet.json"
    run("state-gen", "--kind", "singlet", "--two-l", "1", "--out", str(singlet))
    capsys.readouterr()
    argv = {
        "state": ("certify", "--state", str(hostile), "--relation", "s3"),
        "bound": ("certify", "--state", str(singlet), "--relation", str(hostile)),
        "operators": ("search-bound", "--set", str(hostile), "--restarts", "2"),
    }[where]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    # the message names the file kind at fault
    kind = {"state": "state file", "bound": "bound file", "operators": "operator file"}[where]
    reason = "is not UTF-8 text" if content == "not-utf8" else "is not valid JSON"
    assert structured_error(captured).startswith(f"error[parse]: {kind} {reason}: ")
    assert captured.out == ""


def test_a_sequence_of_in_process_calls_matches_fresh_processes(tmp_path, monkeypatch, capsys):
    """A sequence of in-process calls gives the bytes and exit codes of the
    same calls in fresh processes."""
    singlet, mixed, loose = (tmp_path / f"{name}.json" for name in ("singlet", "mixed", "loose"))
    write_state(singlet_state(SpinQuantum(2)), singlet)
    write_state(maximally_mixed((2, 2)), mixed)
    doc = json.loads(state_to_json(maximally_mixed((2, 2))))
    doc["matrix"][0][0][0] += 1e-6  # trace off by more than the default tolerance
    loose.write_text(json.dumps(doc))
    curve = tmp_path / "curve.csv"
    calls = [
        (["certify", "--state", str(singlet)], None),
        (["--version"], None),
        (["certify", "--state", str(singlet), "--relation", "l3"], None),
        (["certify", "--state", str(mixed), "--relation", "s3"], None),
        (["family", "--kind", "bell", "--grid", "0:1:0.25", "--relation", "s2n2",
          "--out", str(curve)], None),
        (["certify", "--state", str(loose), "--relation", "s3"], None),
        (["certify", "--state", str(loose), "--relation", "s3"], "1e-3"),
    ]

    capsys.readouterr()
    in_process = []
    for argv, tol in calls:
        if tol is None:
            monkeypatch.delenv("LURCERT_VALIDATION_TOL", raising=False)
        else:
            monkeypatch.setenv("LURCERT_VALIDATION_TOL", tol)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        written = curve.read_bytes() if argv[0] == "family" else None
        in_process.append((code, captured.out, captured.err, written))
    assert [result[0] for result in in_process] == [1, 0, 3, 0, 0, 2, 0]

    src = str(Path(lurcert.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "LURCERT_VALIDATION_TOL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for (argv, tol), expected in zip(calls, in_process):
        curve.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "lurcert.cli", *argv],
            env=env if tol is None else {**env, "LURCERT_VALIDATION_TOL": tol},
            capture_output=True,
            text=True,
            timeout=120,
        )
        written = curve.read_bytes() if argv[0] == "family" else None
        assert (proc.returncode, proc.stdout, proc.stderr, written) == expected, argv


def test_two_l_is_refused_on_an_operator_file(capsys):
    argv = ("search-bound", "--set", SPIN1_XY_FILE, "--restarts", "2")
    assert run(*argv, "--two-l", "40") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert structured_error(captured) == (
        "error[invalid-parameter]: --two-l applies to built-in spin and stokes sets,"
        f" not to the operator file {SPIN1_XY_FILE!r}"
    )
    assert run(*argv) == 0


@pytest.mark.parametrize("dim", [7, 2, True, "3"])
def test_an_operator_file_dim_must_match_its_operators(dim, tmp_path, capsys):
    doc = json.loads(Path(SPIN1_XY_FILE).read_text())
    ops_path = tmp_path / "ops.json"
    ops_path.write_text(json.dumps({**doc, "dim": dim}))
    assert run("search-bound", "--set", str(ops_path), "--restarts", "2") == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error[" in line]
    assert len(errors) == 1 and errors[0].startswith("error[invalid-parameter]:"), captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_each_bound_file_operator_is_checked_for_hermiticity_once(monkeypatch):
    calls = []

    def counting(a, *args):
        calls.append(a.shape)
        return original(a, *args)

    original = lurcert.linalg.hermiticity_deviation
    monkeypatch.setattr(lurcert.linalg, "hermiticity_deviation", counting)
    relation = cli._load_relation_side(GOOD_SIDE, "bound file")
    assert len(relation.operator_set) == 2
    assert calls == [(2, 2), (2, 2)]
