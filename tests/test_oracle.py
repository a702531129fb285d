"""The 50-digit recomputations of ``oracle.py`` against the library.

The rate-only ORACLE constants match their frozen values.  The support
band's edges from ``near_constant_bounds`` and the investments attaining
them in ``region_sweep`` rows, in both modes, match ``band_edges`` and
``investment_for`` over derandomized draws of cap, tail and floor: each
edge within ``1e-15`` of the sum of its summands' magnitudes, each
inversion of the library's own edge within ``2e-15`` relative.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import ORACLE  # noqa: E402
from oracle import band_edges, constants, investment_for  # noqa: E402
from seqinvest import Mode, near_constant_bounds, region_sweep, scaled_sqrt_ratio, sqrt_ratio  # noqa: E402

EDGE_TOL = 1e-15  # of the edge's scale
INVERSION_TOL = 2e-15  # relative


@pytest.mark.parametrize("name, value", list(constants().items()))
def test_matches_frozen_value(name, value):
    assert getattr(ORACLE, name) == pytest.approx(float(value), rel=1e-15, abs=0.0)


def _rate(eps: float):
    return sqrt_ratio() if eps == 0.0 else scaled_sqrt_ratio(eps)


def _edge_error(got: float, want, scale) -> float:
    return float(abs(mp.mpf(got) - want) / scale)


def _inverts(eps: float, x: float, t: float) -> bool:
    # the row's investment for the return t: 0 for t <= 0, else within
    # INVERSION_TOL of the 50-digit inverse
    if t <= 0.0:
        return x == 0.0
    want = investment_for(eps, t)
    return abs(mp.mpf(x) - want) <= INVERSION_TOL * want


CAPS = st.one_of(st.just(0.0), st.floats(1e-9, 0.99))
TAILS = st.floats(-12.0, math.log10(0.4)).map(lambda e: 10.0 ** e)


class TestBandAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(eps=CAPS, c=TAILS, gamma=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    def test_near_constant_bounds(self, eps, c, gamma):
        lower, upper = near_constant_bounds(_rate(eps), c, gamma)
        want_lower, want_upper, lower_scale, upper_scale = band_edges(eps, c, gamma)
        assert _edge_error(lower, want_lower, lower_scale) <= EDGE_TOL
        assert _edge_error(upper, want_upper, upper_scale) <= EDGE_TOL

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(eps=CAPS, c=TAILS, mode=st.sampled_from(list(Mode)))
    def test_region_rows(self, eps, c, mode):
        sr = _rate(eps)
        gamma = c if mode is Mode.SELF_FINANCED else 0.0
        (row,) = region_sweep(sr, [c], mode)
        lower, upper = near_constant_bounds(sr, c, gamma)
        want_lower, want_upper, lower_scale, upper_scale = band_edges(eps, c, gamma)
        assert _edge_error(lower, want_lower, lower_scale) <= EDGE_TOL
        assert _edge_error(upper, want_upper, upper_scale) <= EDGE_TOL
        assert row.c == c
        if upper < 0.0:
            assert row.lower is None and row.upper is None
            return
        assert _inverts(eps, row.upper, upper)
        assert _inverts(eps, row.lower, lower)
