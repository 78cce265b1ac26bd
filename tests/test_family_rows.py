"""The row path of ``family``: one product of the weights with the flat
component moment rows, scored on floats by the ``score`` that ``certify``
uses.

``reference_family_csv`` below is the earlier sweep in full: its grid
parser, the component moments as a (K, 2, m) stack mixed with
``np.tensordot``, ``reference_score`` on numpy arrays, and a CSV joined
from its lines.  Every CSV byte, exit code and error line of ``family``
must equal its output, and the sweep must hold no grid-sized array.
"""

import tracemalloc

import numpy as np
import pytest

from lurcert import cli
from lurcert.linalg import LurcertError
from lurcert.lur import _ket_moments, _mixed_moments, closed_form_violation, joint_from_catalog
from lurcert.spin_ops import SpinQuantum
from lurcert.states import family_components, family_weights

from test_per_state_path import reference_score

VALID_RELATIONS = {2: ("l3", "s3", "l2n2", "s2n2"), 3: ("l3", "s3", "l2n3", "s2n3")}
CASES = [
    *(("white", two_l) for two_l in (1, 2, 3, 11, 63)),
    ("xdecoherence", 2),
    ("bell", 1),
]
# a fine grid, odd steps, a last point short of stop, a point refused
# mid-sweep and a first point refused before any component is built
GRIDS = ["0:1:0.001", "0.013:0.987:0.0371", "0:1:0.3", "0:1:0.6", "0.5:1.5:0.25", "1.25:2:0.25"]


def reference_parse_grid(spec):
    start, stop, step = (float(p) for p in spec.split(":"))
    count = int(round((stop - start) / step))
    values = [start + k * step for k in range(count + 1)]
    values = [stop if abs(v - stop) < 1e-12 else v for v in values]
    return [v for v in values if v <= stop]


def reference_family_csv(kind, two_l, relation, grid):
    """The earlier sweep's CSV text; raises what it raised."""
    spin = SpinQuantum(two_l) if kind == "white" else None
    lines = ["parameter,total,local_limit,C,closed_form_C,abs_difference"]
    joint = moments = None
    for value in reference_parse_grid(grid):
        params = cli._family_params(kind, spin, value)
        weights = family_weights(kind, params)
        if moments is None:
            components = family_components(kind, spin)
            joint = joint_from_catalog(relation, two_l + 1, two_l + 1)
            moments = np.array(
                [_mixed_moments(joint) if c is None else _ket_moments(c, joint) for c in components]
            )
        _, total, violation, _ = reference_score(np.tensordot(weights, moments, axes=1), joint)
        closed = closed_form_violation(kind, relation, params)
        if closed is None:
            closed_s, diff_s = "", ""
        else:
            closed_s, diff_s = cli._fmt(closed), cli._fmt(abs(violation - closed))
        lines.append(
            f"{cli._fmt(value)},{cli._fmt(total)},{cli._fmt(joint.local_limit)},"
            f"{cli._fmt(violation)},{closed_s},{diff_s}"
        )
    return "\n".join(lines) + "\n"


def family(tmp_path, capsys, kind, two_l, relation, grid):
    """``family``'s exit code, stderr and CSV text (None when it wrote none)."""
    out = tmp_path / "curve.csv"
    out.unlink(missing_ok=True)
    argv = ["family", "--kind", kind, "--two-l", str(two_l), f"--grid={grid}"]
    code = cli.main([*argv, "--relation", relation, "--out", str(out)])
    err = capsys.readouterr().err
    return code, err, out.read_text() if out.exists() else None


@pytest.mark.parametrize("kind, two_l", CASES)
def test_family_rows_are_byte_identical_to_the_tensordot_loop(tmp_path, capsys, kind, two_l):
    for relation in VALID_RELATIONS.get(two_l + 1, ("l3", "s3")):
        for grid in GRIDS:
            try:
                want = (0, "", reference_family_csv(kind, two_l, relation, grid))
            except LurcertError as exc:
                want = (2, f"error[{exc.code}]: {exc}\n", None)
            assert family(tmp_path, capsys, kind, two_l, relation, grid) == want, (relation, grid)


@pytest.mark.parametrize(
    "grid", ["0:1:0.5", "0:1:0.25", "0:1:0.05", "0:1:0.01", "0:1:0.1", "0:2:0.5", "0:1:1e-5", "0:1:0.001"]
)
def test_grids_in_use_keep_their_points(grid):
    assert cli._parse_grid(grid) == reference_parse_grid(grid)


def test_a_long_sweep_holds_no_grid_sized_temporary(tmp_path, capsys):
    # The grid and the CSV's lines take about 2.1 times the CSV's length.
    # A (rows, 2m) product of every row's weights with the moment rows
    # adds about 0.8 times, and a joined copy of the lines 1 to 2 times.
    out = tmp_path / "long.csv"
    argv = ["family", "--kind", "white", "--two-l", "3", "--relation", "l3", "--out", str(out)]
    assert cli.main([*argv, "--grid", "0:1:0.5"]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--grid", "0:0.99999:0.00001"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out.endswith("wrote 100000 rows to " + str(out) + "\n")
    assert peak < 2.5 * out.stat().st_size
