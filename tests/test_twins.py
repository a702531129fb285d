"""A custom rate built from a built-in family's own ``p`` and ``p'`` gives
the family's answers.

A built-in family answers through its closed forms: the band, the
inverse of the required return and the prize's slope.  Its twin, a
``custom_rate`` with the same ``p``, ``p'`` and cap, answers through the
generic path: the prize ``p / p'``, bracketed inversions and a
finite-difference slope.  Every public answer of the twin must match the
family's, within a tolerance stated per answer, on ``sqrt_ratio`` and
``scaled_sqrt_ratio`` at caps whose optima lie at ever smaller
investments.  All inputs are fixed grids.
"""

import pytest

from seqinvest import (
    Mode,
    best_response_dynamics,
    custom_rate,
    equal_split,
    first_best_investment,
    fixed_fraction,
    fixed_fraction_floor,
    initiator_optimal,
    investment_for_return,
    jackpot,
    near_constant_bounds,
    region_curve_intersection,
    region_sweep,
    scaled_sqrt_ratio,
    self_financed_optimal,
    socially_optimal,
    sqrt_ratio,
    synthesize_rule,
    tail_limit,
)

FAMILIES = {"sqrt": sqrt_ratio} | {
    f"eps{eps:g}": lambda eps=eps: scaled_sqrt_ratio(eps) for eps in (0.3, 0.9, 0.99, 0.999)
}

# Relative tolerances, each about 10 times the worst gap seen on these
# rates.  Solves that read the same p and p' on both paths (the first
# best, the tail limits, the crossing, and c* through the inverse at 1)
# agree to a few ulps.  The bracketed inverse, at xtol 1e-12 of its
# bracket, leaves the region rows and dynamics within 5e-13.  The
# initiator and self-financed optima read the prize's slope: with a
# second-order step of 1e-6 it put the initiator's tail up to 8.2e-6 off
# (at eps 0.99), the fourth-order difference within 5e-13
SAME_SOLVE = 1e-14
INVERTED = 5e-12
INITIATOR = 5e-12
SELF_FINANCED = 5e-13


@pytest.fixture(params=list(FAMILIES))
def pair(request):
    sr = FAMILIES[request.param]()
    return sr, custom_rate(f"twin of {sr.name}", sr.probability, sr.marginal, epsilon=sr.epsilon)


def _rel(a, b):
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def _values(profile):
    return (*profile.prefix, profile.tail)


class TestTwinAnswers:
    def test_same_solve(self, pair):
        sr, twin = pair
        for answer in (
            first_best_investment,
            lambda r: socially_optimal(r).profile.tail,
            lambda r: socially_optimal(r).objective,
            tail_limit,
            lambda r: tail_limit(r, Mode.SELF_FINANCED),
            region_curve_intersection,
        ):
            assert _rel(answer(sr), answer(twin)) <= SAME_SOLVE

    @pytest.mark.parametrize("solve, tol", [
        (initiator_optimal, INITIATOR), (self_financed_optimal, SELF_FINANCED),
    ], ids=["initiator_optimal", "self_financed_optimal"])
    def test_optimum_through_the_prize_slope(self, pair, solve, tol):
        sr, twin = pair
        a, b = solve(sr), solve(twin)
        assert a.report.supported and b.report.supported
        assert len(_values(a.profile)) == len(_values(b.profile)) == 2
        for u, v in zip(_values(a.profile), _values(b.profile)):
            assert _rel(u, v) <= tol, (u, v)
        assert _rel(a.objective, b.objective) <= tol

    @pytest.mark.parametrize("mode", list(Mode))
    def test_region_rows(self, pair, mode):
        sr, twin = pair
        # tails inside the band and past its end; at the end itself the
        # upper edge is rounding noise about 0, and so is its investment
        tails = [tail_limit(sr) * k / 16 for k in range(1, 20) if k != 16]
        rows = region_sweep(sr, tails, mode)
        assert any(row.upper is not None for row in rows)
        for a, b in zip(rows, region_sweep(twin, tails, mode), strict=True):
            assert a.c == b.c
            for u, v in zip(a[1:], b[1:]):
                assert (u is None) is (v is None)
                assert u is None or _rel(u, v) <= INVERTED, (a, b)

    def test_synthesis_labels(self, pair):
        sr, twin = pair
        n = 0
        # tails up to where the band closes, floors up to the tail itself
        for k in range(1, 12):
            c = region_curve_intersection(sr) * k / 12
            for gamma in (0.0, 0.5 * c, c):
                lower, upper = near_constant_bounds(sr, c, gamma)
                lower = max(lower, 0.0)
                if upper < lower:
                    continue
                for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                    x0 = investment_for_return(sr, lower + u * (upper - lower))
                    labels = [synthesize_rule(r, x0, c, gamma).label for r in pair]
                    assert labels[0] == labels[1], (c, gamma, u)
                    n += 1
        assert n >= 50

    @pytest.mark.parametrize("rule", [
        equal_split, lambda: fixed_fraction(0.9), jackpot, lambda: fixed_fraction_floor(0.6, 0.1),
    ], ids=["equal_split", "fixed_fraction", "jackpot", "fixed_fraction_floor"])
    def test_dynamics(self, pair, rule):
        sr, twin = pair
        rule = rule()
        a, b = (best_response_dynamics(r, rule, 6) for r in pair)
        assert a.sweeps == b.sweeps and a.converged == b.converged
        for u, v in zip(_values(a.profile), _values(b.profile), strict=True):
            assert _rel(u, v) <= INVERTED, (u, v)

