"""The 50-digit recomputations of ``oracle.py`` against the library.

The ORACLE constants the oracle recomputes match their frozen values.
The support band's edges from ``near_constant_bounds`` and the
investments attaining them in ``region_sweep`` rows, in both modes, match
``band_edges`` and ``investment_for`` over derandomized draws of cap, tail
and floor: each edge within ``1e-15`` of the sum of its summands'
magnitudes, each inversion of the library's own edge within ``2e-15``
relative.  The optima, both tail limits and the band's crossing match
``optima`` over derandomized draws of the cap, each within the relative
``xtol`` its solve states, and each investment the closed-form inversion
gives within ``2e-15`` relative.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import ORACLE  # noqa: E402
from oracle import Rate, band_edges, constants, investment_for, optima  # noqa: E402
from seqinvest import (  # noqa: E402
    Mode,
    first_best_investment,
    initiator_optimal,
    near_constant_bounds,
    region_curve_intersection,
    region_sweep,
    scaled_sqrt_ratio,
    self_financed_optimal,
    socially_optimal,
    sqrt_ratio,
    tail_limit,
)

EDGE_TOL = 1e-15  # of the edge's scale
INVERSION_TOL = 2e-15  # relative
# each solve's stated xtol, relative to the root: first_best_investment and
# region_curve_intersection use the solver's default, the initiator's tail,
# the self-financed tail and tail_limit their own
XTOL = {"c_fb": 1e-12, "c_cross": 1e-12, "c_circ": 1e-14, "c_s": 1e-13, "tail_limit": 1e-15}


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


def _rel_error(got: float, want) -> float:
    return float(abs(mp.mpf(got) - want) / abs(want))


class TestOptimaAgainstOracle:
    """Caps near 1 included, where every root shrinks like ``(1 - eps)^2``:
    the first best is 2.5e-13 at a cap of ``1 - 1e-6``."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(eps=st.one_of(st.just(0.0), st.floats(1e-9, 0.99), st.floats(0.99, 1.0 - 1e-6)))
    def test_optima(self, eps):
        sr = _rate(eps)
        want = optima(eps)
        assert _rel_error(first_best_investment(sr), want["c_fb"]) <= XTOL["c_fb"]
        # c* is the closed-form inversion of the return 1
        social = socially_optimal(sr)
        assert _rel_error(social.profile.tail, want["c_star"]) <= INVERSION_TOL
        # the initiator's return is stationary in the tail at c_circ, so its
        # investment does not feel the tail's solve tolerance
        initiator = initiator_optimal(sr)
        assert _rel_error(initiator.profile.tail, want["c_circ"]) <= XTOL["c_circ"]
        assert _rel_error(initiator.profile.prefix[0], want["x0_circ"]) <= INVERSION_TOL
        # the self-financed initiator moves with the tail: its investment is
        # the inversion of the band's upper edge at the library's own tail
        financed = self_financed_optimal(sr)
        c_s, x0_s = financed.profile.tail, financed.profile.prefix[0]
        assert _rel_error(c_s, want["c_s"]) <= XTOL["c_s"]
        with mp.workdps(50):
            r, c = Rate(eps), mp.mpf(c_s)
            upper = (1 - c - r.prize(c)) / (1 - r.p(c))
        assert _rel_error(x0_s, investment_for(eps, upper)) <= INVERSION_TOL
        assert _rel_error(tail_limit(sr), want["prize_one_level"]) <= XTOL["tail_limit"]
        limit_sf = tail_limit(sr, Mode.SELF_FINANCED)
        assert _rel_error(limit_sf, want["c_max_sf"]) <= XTOL["tail_limit"]
        assert _rel_error(region_curve_intersection(sr), want["c_cross"]) <= XTOL["c_cross"]
