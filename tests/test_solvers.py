"""The bracketing root finder: NaN from the objective fails loudly, infinities keep their sign."""

import math

import pytest

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

        bisect(f, 0.0, 1.0, limit=100.0, xtol=1.0)
        # 0 and 1, the doublings 2 and 4 (each same-sign end becomes the
        # low end), then the midpoint of [2, 4]: no point is evaluated twice
        assert calls == [0.0, 1.0, 2.0, 4.0, 3.0]
