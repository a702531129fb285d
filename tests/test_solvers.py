"""The bracketing root finder: NaN from the objective fails loudly, infinities keep their sign.

On monotone functions with a sign change the ITP steps keep a sign change
in the bracket, stop on the relative width, and take at most one step
more than bisection to the same stop.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from seqinvest import BracketError, DomainError
from seqinvest.solvers import bisect


def nan_above(limit, f):
    return lambda x: math.nan if x > limit else f(x)


class TestBisect:
    def test_nan_endpoint(self):
        with pytest.raises(DomainError):
            bisect(nan_above(0.9, lambda x: x - 0.5), 0.0, 1.0)
        with pytest.raises(DomainError):
            bisect(lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0)

    def test_nan_inside_the_bracket(self):
        f = lambda x: math.nan if 0.3 < x < 0.9 else x - 0.95
        with pytest.raises(DomainError):
            bisect(f, 0.0, 1.0)

    def test_infinite_value_keeps_its_sign(self):
        f = lambda x: -math.inf if x == 0.0 else x - 0.25
        assert bisect(f, 0.0, 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_same_sign_is_still_a_bracket_error(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x + 1.0, 0.0, 1.0)

    def test_tiny_values_of_one_sign_are_a_bracket_error(self):
        # their product underflows to 0, which used to read as a sign change
        with pytest.raises(BracketError):
            bisect(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0)
        with pytest.raises(BracketError):
            bisect(lambda x: 1e-200 * (x + 1.0), 0.0, 1.0, limit=8.0)

    @pytest.mark.parametrize("root", [0.0, 1.0])
    def test_root_at_an_endpoint_is_returned(self, root):
        calls = []

        def f(x):
            calls.append(x)
            return x - root

        assert bisect(f, 0.0, 1.0) == root
        assert calls == [0.0, 1.0]

    def test_zero_tolerance_terminates(self):
        # the halving cap ends the loop once the bracket stops shrinking
        assert bisect(lambda x: x - 0.3, 0.0, 1.0, xtol=0.0) == pytest.approx(
            0.3, rel=0.0, abs=1e-15
        )


class TestBisectGrowth:
    """``bisect(..., limit=...)`` doubles ``hi`` until the sign changes."""

    def test_nan_on_growth(self):
        with pytest.raises(DomainError):
            bisect(nan_above(3.0, lambda x: x - 10.0), 0.0, 1.0, limit=100.0)

    def test_nan_at_the_low_end(self):
        with pytest.raises(DomainError):
            bisect(lambda x: math.nan if x == 0.0 else x - 0.5, 0.0, 1.0, limit=100.0)

    def test_infinite_value_keeps_its_sign(self):
        f = lambda x: -math.inf if x == 0.0 else x - 3.0
        assert bisect(f, 0.0, 1.0, limit=100.0) == pytest.approx(3.0, abs=1e-12)

    def test_no_sign_change_by_the_limit(self):
        with pytest.raises(BracketError, match="up to limit 100"):
            bisect(lambda x: x - 500.0, 0.0, 1.0, limit=100.0)

    def test_endpoint_values_are_not_recomputed(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 3.0

        bisect(f, 0.0, 1.0, limit=100.0, xtol=0.3)
        # 0 and 1, the doublings 2 and 4 (each same-sign end becomes the
        # low end), then one step inside [2, 4], whose width 2 is above the
        # relative stop 0.3 * 4: no point is evaluated twice
        assert calls == [0.0, 1.0, 2.0, 4.0, 3.0]

    def test_halving_toward_a_lower_limit(self):
        # a root far below the start: hi halves toward the limit 0
        root = bisect(lambda x: x - 1e-20, 1.0, 0.5, limit=0.0)
        assert root == pytest.approx(1e-20, rel=1e-12, abs=0.0)

    def test_no_sign_change_within_the_halvings(self):
        with pytest.raises(BracketError, match="up to limit 0"):
            bisect(lambda x: x + 1.0, 1.0, 0.5, limit=0.0)


# monotone in floating point too, so rounding never flips the sign of f back
SHAPES = {
    "linear": lambda x: x,
    "cube": lambda x: x ** 3,
    "signed_sqrt": lambda x: math.copysign(math.sqrt(abs(x)), x),
    "cube_plus_linear": lambda x: x ** 3 + x,
    "exp": math.exp,
}


@st.composite
def monotone_problems(draw):
    """``(f, lo, hi, xtol)``: ``f`` monotone with its root inside ``[lo, hi]``."""
    g = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    root = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, 0.5))
    lo = root - draw(st.floats(1e-3, 3.0))
    hi = root + draw(st.floats(1e-3, 3.0))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    g_root = g(root)
    return (lambda x: sign * (g(x) - g_root)), lo, hi, draw(st.sampled_from((1e-6, 1e-9, 1e-12)))


def bisection_steps(f, lo, hi, xtol):
    """Halvings plain bisection needs for the same stop, never stopping early on a zero."""
    negative_lo = f(lo) < 0.0
    steps = 0
    while hi - lo > xtol * max(abs(lo), abs(hi)) and steps < 200:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == negative_lo:
            lo = mid
        else:
            hi = mid
        steps += 1
    return steps


class TestITPProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(monotone_problems())
    def test_sign_change_kept_and_at_most_one_step_over_bisection(self, problem):
        f, lo, hi, xtol = problem
        calls = []

        def recorded(x):
            calls.append((x, f(x)))
            return calls[-1][1]

        root = bisect(recorded, lo, hi, xtol=xtol)
        assert len(calls) - 2 <= bisection_steps(f, lo, hi, xtol) + 1
        if f(root) == 0.0 and root in (x for x, _ in calls):
            return
        # the tightest evaluated pair of opposite signs around the answer
        lo_sign = f(lo) < 0.0
        a = max(x for x, y in calls if y != 0.0 and (y < 0.0) == lo_sign)
        b = min(x for x, y in calls if y != 0.0 and (y < 0.0) != lo_sign)
        assert a < b
        assert root == 0.5 * (a + b)
        assert b - a <= xtol * max(abs(a), abs(b))
