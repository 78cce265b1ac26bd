"""The interval search against the code it replaced, interval for interval.

``interval_reference`` keeps the search as 0.4.0 released it: dense
Cholesky proofs on each set's own matrices, in the real block form when
a set is complex, and an upper end evaluated on that block form.  The
search now proves every order of a set's shape on one real tridiagonal
pencil by LDL^T pivots, and evaluates its upper end on the set's own
operators, so the bits differ; but both intervals are proven enclosures
of the same minimum, so they must overlap, and each must be within the
tolerance.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interval_reference
from lurcert import bound_search
from lurcert.bound_search import INTERVAL_TOLERANCE, interval_minimum

from test_bound_search import assert_boxes_tile, builtin_set, final_boxes

AXES = {"spin": "xyz", "stokes": "123"}


def every_order(letters):
    """Every nonempty subset of ``letters`` in every order."""
    return ["".join(p) for k in range(1, len(letters) + 1) for p in itertools.permutations(letters, k)]


def within_tolerance(res):
    return res.gap <= INTERVAL_TOLERANCE * max(1.0, res.upper)


def assert_encloses_with_the_reference(family, axes, two_l, closed=True):
    """The search and the reference overlap, and, when ``closed``, each
    closes within the tolerance.  The reference's upper-end bound,
    32 gamma_{2d+8} P, is by itself above the tolerance for a single
    Stokes operator at n >= 50, whose lower end is 0; its gap is only
    checked below that."""
    op_set, reach = builtin_set(family, axes, two_l)
    res = interval_minimum(op_set, reach)
    want = interval_reference.interval_minimum(op_set, reach)
    assert all(type(v) is float for v in (res.lower, res.upper, res.minimum))
    assert 0 <= res.lower <= res.upper, (family, axes, two_l)
    assert max(res.lower, want.lower) <= min(res.upper, want.upper), (family, axes, two_l)
    if closed:
        assert within_tolerance(res), (family, axes, two_l, res.gap)
        if not (family == "stokes" and len(axes) == 1 and two_l >= 50):
            assert within_tolerance(want), (family, axes, two_l, want.gap)
    return res, want


# finite floats of either sign up to 1e150, so that t^2 and r^2 stay finite;
# hypothesis draws +-0.0 and subnormals among them
BOX_FLOATS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(max_examples=300, deadline=None)
@given(shift=BOX_FLOATS, t=BOX_FLOATS, r=BOX_FLOATS)
@example(shift=0.0, t=-0.0, r=5e-324)
@example(shift=-0.0, t=5e-324, r=-2.2250738585072014e-308)
@example(shift=-1e150, t=1e150, r=-1e150)
def test_the_scalar_floor_rounds_every_step_down(k, shift, t, r):
    # the floor is at most shift - fl(c0 + c1 |t|) + t^2 - r^2 in exact
    # arithmetic: the allowance's own rounding is in its widening
    pen = bound_search._Pencil(k, 3, 1.0)
    floor = bound_search._floor(pen, shift, t, r)
    assert type(floor) is float
    allowance = Fraction(pen.c0 + pen.c1 * abs(t))
    exact = Fraction(shift) - allowance + Fraction(t) ** 2 - Fraction(r) ** 2
    assert floor == float("-inf") or Fraction(floor) <= exact


@pytest.mark.parametrize("family", sorted(AXES))
@pytest.mark.parametrize("two_l", [*range(9), 31, 63])
def test_every_order_encloses_with_the_reference(family, two_l):
    for axes in every_order(AXES[family]):
        assert_encloses_with_the_reference(family, axes, two_l)


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
    want = interval_reference.interval_minimum(op_set, reach)
    assert want.boxes == res.boxes
    assert max(res.lower, want.lower) <= exact <= min(res.upper, want.upper)


def test_a_failed_proof_still_encloses_with_the_reference(monkeypatch):
    # every pivot pass fails every other box, so the pending boxes halve
    # and are retried with widened shifts, and so do the reference's
    # Cholesky stacks; the widened shifts open the gaps, but both
    # intervals still hold the minimum
    pivots_positive, factorizes = bound_search._pivots_positive, interval_reference._factorizes
    attempts = []

    def every_other_fails(pen, t, shift):
        ok = pivots_positive(pen, t, shift)
        ok = [proved and (i + len(attempts)) % 2 == 0 for i, proved in enumerate(ok)]
        attempts.append((len(t), ok.count(False)))
        return ok

    def every_other_fails_in_the_reference(stack):
        ok = factorizes(stack)
        ok[::2] = False
        return ok

    monkeypatch.setattr(bound_search, "_pivots_positive", every_other_fails)
    monkeypatch.setattr(interval_reference, "_factorizes", every_other_fails_in_the_reference)
    for family, axes, two_l in [("spin", "xy", 3), ("stokes", "21", 4), ("spin", "yz", 5)]:
        del attempts[:]
        res, _ = assert_encloses_with_the_reference(family, axes, two_l, closed=False)
        assert res.lower > 0 and len(attempts) > 2
        # each retry takes the boxes that the previous pass failed
        assert all(failed == size for (_, failed), (size, _) in zip(attempts, attempts[1:])), attempts
