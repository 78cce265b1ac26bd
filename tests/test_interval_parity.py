"""The interval search against the code it replaced, bit for bit.

``interval_reference`` keeps the search whose every level built per-box
radii, a full floor chain and a split mask as arrays.  The search now
takes one radius per level and builds the floor chain and the mask only
when a box can split, but it makes the same floating-point operations in
the same order, so every field of the result must equal the reference's
exactly, on whatever BLAS both run on.
"""

import itertools

import pytest

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
