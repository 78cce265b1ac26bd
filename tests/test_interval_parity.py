"""The interval search against the code it replaced, bit for bit.

``interval_reference`` keeps the search whose every level built per-box
radii, a full floor chain and a split mask as arrays.  The search now
takes one radius per level and keeps each box's numbers as Python floats,
with numpy only for the matrix stacks, but it makes the same
floating-point operations in the same order, so every field of the result
must equal the reference's exactly, on whatever BLAS both run on.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interval_reference
from lurcert import bound_search
from lurcert.bound_search import interval_minimum

from test_bound_search import assert_boxes_tile, builtin_set, final_boxes

AXES = {"spin": "xyz", "stokes": "123"}


def every_order(letters):
    """Every nonempty subset of ``letters`` in every order."""
    return ["".join(p) for k in range(1, len(letters) + 1) for p in itertools.permutations(letters, k)]


def fields(res):
    """The result's fields, the floats as their exact bits."""
    assert all(type(v) is float for v in (res.lower, res.upper, res.minimum))
    return (res.lower.hex(), res.upper.hex(), res.minimum.hex(), res.boxes, res.argmin.amplitudes.tobytes())


def assert_matches_reference(family, axes, two_l):
    op_set, reach = builtin_set(family, axes, two_l)
    want = interval_reference.interval_minimum(op_set, reach)
    assert fields(interval_minimum(op_set, reach)) == fields(want), (family, axes, two_l)
    return want


# finite floats of either sign up to 1e150, so that t^2 and r^2 stay finite;
# hypothesis draws +-0.0 and subnormals among them
BOX_FLOATS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@pytest.mark.parametrize("axes", ["xy", "yx"])
@settings(max_examples=300, deadline=None)
@given(shift=BOX_FLOATS, t=BOX_FLOATS, r=BOX_FLOATS)
@example(shift=0.0, t=-0.0, r=5e-324)
@example(shift=-0.0, t=5e-324, r=-2.2250738585072014e-308)
@example(shift=-1e150, t=1e150, r=-1e150)
def test_the_scalar_floor_is_the_reference_floor_rule(axes, shift, t, r):
    # spin:xy factors the real parts and spin:yx the block form; both
    # reductions hold the reference's allowance constants bit for bit
    op_set, _ = builtin_set("spin", axes, 3)
    red, want = bound_search._Reduction(op_set), interval_reference._Reduction(op_set)
    assert [v.hex() for v in (red.c0, red.c1, red.c2)] == [v.hex() for v in (want.c0, want.c1, want.c2)]
    floor = bound_search._floor(red, shift, t, r)
    assert type(floor) is float
    assert floor.hex() == float(want.floors(*(np.array([v]) for v in (shift, t, r)))[0]).hex()


@pytest.mark.parametrize("family", sorted(AXES))
@pytest.mark.parametrize("two_l", range(13))
def test_every_order_matches_the_reference(family, two_l):
    for axes in every_order(AXES[family]):
        assert_matches_reference(family, axes, two_l)


@pytest.mark.parametrize("family, axes", [("spin", "xy"), ("stokes", "21")])
def test_the_cap_matches_the_reference(family, axes):
    assert assert_matches_reference(family, axes, 63).boxes > 1


# spin:xy at 2l = 2 and stokes:12 at n = 2 evaluate 1, 8, 8, 16, 8 and 16
# boxes in six levels; either cap below stops them after the third level
CAPS = [("MAX_LEVELS", 3), ("MAX_LEVEL_BOXES", 15)]


@pytest.mark.parametrize("name, cap", CAPS)
@pytest.mark.parametrize("family, axes, two_l, exact", [("spin", "xy", 2, 0.4375), ("stokes", "12", 2, 1.75)])
def test_a_capped_search_still_encloses_the_limit(monkeypatch, name, cap, family, axes, two_l, exact):
    op_set, reach = builtin_set(family, axes, two_l)
    assert interval_minimum(op_set, reach).boxes == 57
    for module in (bound_search, interval_reference):
        monkeypatch.setattr(module, name, cap)
    res, t, r, floors = final_boxes(op_set, reach)
    assert res.boxes == 1 + 8 + 8
    assert 0 < res.lower <= exact <= res.upper
    assert res.lower == max(0.0, floors.min())
    assert_boxes_tile(t, r, reach)
    assert fields(res) == fields(interval_reference.interval_minimum(op_set, reach))


def test_a_failed_stack_matches_the_reference(monkeypatch):
    # every attempt fails every other box, so the pending boxes shrink and
    # are retried with widened shifts
    factorizes = bound_search._factorizes
    attempts = []

    def every_other_fails(stack):
        attempts.append(len(stack))
        ok = factorizes(stack)
        ok[len(attempts) % 2::2] = False
        return ok

    monkeypatch.setattr(bound_search, "_factorizes", every_other_fails)
    monkeypatch.setattr(interval_reference, "_factorizes", every_other_fails)
    for family, axes, two_l in [("spin", "xy", 3), ("stokes", "21", 4), ("spin", "yz", 5)]:
        op_set, reach = builtin_set(family, axes, two_l)
        res = interval_minimum(op_set, reach)
        proving = attempts[:]
        del attempts[:]
        assert fields(res) == fields(interval_reference.interval_minimum(op_set, reach))
        assert len(proving) > 2 and attempts == proving
        del attempts[:]
