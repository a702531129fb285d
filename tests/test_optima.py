"""The four optimum programs, their supporting rules, and region curves."""

import dataclasses
import math
import re

import numpy as np
import pytest

from seqinvest import (
    BracketError,
    ConstantTailProfile,
    DomainError,
    Mode,
    UnboundedRatioError,
    constant_profile,
    constant_support_check,
    custom_rate,
    equal_split,
    expected_welfare,
    first_best_investment,
    fixed_fraction,
    flatten_tail,
    initiator_optimal,
    investment_for_return,
    near_constant_bounds,
    near_constant_feasibility,
    near_constant_profile,
    region_curve_intersection,
    region_sweep,
    scaled_sqrt_ratio,
    self_financed_optimal,
    socially_optimal,
    sqrt_ratio,
    tail_limit,
    validate,
    verify_equilibrium,
)
from seqinvest.equilibrium import _band_upper_slope, _upper_endpoint_rule


class TestFirstBest:
    def test_reference_value(self, sr, oracle):
        assert first_best_investment(sr) == pytest.approx(oracle.c_fb, abs=1e-10)

    def test_interior(self, sr):
        c = first_best_investment(sr)
        assert 0.0 < c < 1.0

    def test_prize_exceeds_probability_there(self, sr):
        c = first_best_investment(sr)
        assert sr.incentive_prize(c) > sr.probability(c)

    def test_welfare_grid_maximum(self, sr):
        c = first_best_investment(sr)
        best = expected_welfare(sr, constant_profile(c))
        for other in np.linspace(1e-4, 0.999, 500):
            assert expected_welfare(sr, constant_profile(other)) <= best + 1e-12

    def test_scaled_family(self, sr_scaled, oracle):
        assert first_best_investment(sr_scaled) == pytest.approx(
            oracle.c_fb_scaled, abs=1e-10
        )


class TestSociallyOptimal:
    def test_reference_value(self, sr, oracle):
        res = socially_optimal(sr)
        assert res.profile.prefix == ()
        assert res.profile.tail == pytest.approx(oracle.c_star, abs=1e-10)
        assert res.objective == pytest.approx(oracle.welfare_c_star, abs=1e-10)

    def test_below_first_best(self, sr):
        assert socially_optimal(sr).profile.tail < first_best_investment(sr)

    def test_supported_by_equal_split(self, sr):
        res = socially_optimal(sr)
        assert res.rule.label == "equal_split"
        assert res.report.supported
        assert res.max_residual <= 1e-9

    def test_one_equal_split_for_every_rate(self, sr):
        # every optimum holds one checked equal split, which has no
        # parameters and is immutable; rules compare by identity, so two
        # results for one rate compare equal
        a, b = socially_optimal(sr), socially_optimal(scaled_sqrt_ratio(0.3))
        assert a.rule is b.rule
        fresh = equal_split()
        assert [a.rule.row(k) for k in range(10)] == [fresh.row(k) for k in range(10)]
        assert repr(a.rule) == repr(fresh)
        assert socially_optimal(sr) == a
        # equal_split() itself still builds a new rule on each call
        assert equal_split() is not fresh

    def test_no_first_best_solve(self, sr):
        # c* is one inversion of the required return; a first-best solve
        # alongside it would take about 44 more p' evaluations
        calls = []

        def marginal(x):
            calls.append(x)
            return sr.marginal(x)

        socially_optimal(dataclasses.replace(sr, _p_prime=marginal))
        assert len(calls) <= 4

    def test_perturbations_do_not_improve(self, sr, oracle):
        # supportable constants are exactly c <= c*; nearby feasible
        # points are all weakly worse
        res = socially_optimal(sr)
        for delta in np.linspace(-0.02, 0.0, 41):
            c = res.profile.tail + delta
            assert constant_support_check(sr, c).supported
            assert expected_welfare(sr, constant_profile(c)) <= res.objective + 1e-9


class TestInitiatorOptimal:
    def test_reference_values(self, sr, oracle):
        res = initiator_optimal(sr)
        assert res.profile.tail == pytest.approx(oracle.c_circ, abs=1e-10)
        assert res.profile.prefix[0] == pytest.approx(oracle.x0_circ, abs=1e-10)
        assert res.objective == pytest.approx(oracle.payoff0_circ, abs=1e-10)

    def test_tail_solves_reduced_cubic(self, sr):
        # for the reference family the stationarity condition reduces to
        # 8 s^3 + 12 s^2 + 4 s = 1 in s = sqrt(c); independent derivation
        s = math.sqrt(initiator_optimal(sr).profile.tail)
        assert 8 * s**3 + 12 * s**2 + 4 * s - 1 == pytest.approx(0.0, abs=1e-10)

    def test_initiator_invests_more_than_tail(self, sr):
        res = initiator_optimal(sr)
        assert res.profile.prefix[0] > res.profile.tail

    def test_initiator_below_first_best(self, sr):
        res = initiator_optimal(sr)
        assert res.profile.prefix[0] <= first_best_investment(sr) + 1e-12

    def test_supported_by_fixed_fraction(self, sr, oracle):
        res = initiator_optimal(sr)
        assert res.rule.label.startswith("fixed_fraction(alpha=")
        assert sr.required_return(res.profile.tail) == pytest.approx(
            oracle.alpha_circ, abs=1e-10
        )
        assert res.report.supported
        assert res.max_residual <= 1e-9

    def test_perturbations_do_not_improve(self, sr):
        # payoff rises in x0, so feasible perturbations cap x0 at the
        # upper support bound for the perturbed tail
        res = initiator_optimal(sr)
        c0 = res.profile.tail
        for dc in np.linspace(-0.005, 0.005, 41):
            c = c0 + dc
            _, upper = near_constant_bounds(sr, c, 0.0)
            x0 = investment_for_return(sr, upper)
            assert near_constant_feasibility(sr, x0, c, 0.0).feasible
            payoff = 1.0 + sr.incentive_prize(x0) - x0
            assert payoff <= res.objective + 1e-9


class TestSelfFinancedOptimal:
    def test_reference_values(self, sr, oracle):
        res = self_financed_optimal(sr)
        assert res.profile.tail == pytest.approx(oracle.c_s, abs=1e-9)
        assert res.profile.prefix[0] == pytest.approx(oracle.x0_s, abs=1e-9)
        assert res.objective == pytest.approx(oracle.welfare_s, abs=1e-10)

    def test_initiator_invests_more(self, sr):
        res = self_financed_optimal(sr)
        assert res.profile.prefix[0] > res.profile.tail

    def test_budget_shrinks_welfare(self, sr):
        assert self_financed_optimal(sr).objective <= socially_optimal(sr).objective

    def test_constraint_saturated(self, sr):
        res = self_financed_optimal(sr)
        residuals = dict(res.residuals)
        assert residuals["budget_constraint_active"] <= 1e-9
        assert residuals["reduced_objective_slope"] <= 1e-9

    def test_supported_in_sf_mode(self, sr, oracle):
        res = self_financed_optimal(sr)
        assert res.report.mode is Mode.SELF_FINANCED
        assert res.report.supported
        assert res.rule.label.startswith("fixed_fraction_floor(alpha=")
        assert sr.required_return(res.profile.tail) + res.profile.tail == pytest.approx(
            oracle.alpha_s, abs=1e-9
        )

    def test_perturbations_do_not_improve(self, sr):
        res = self_financed_optimal(sr)
        c0 = res.profile.tail
        for dc in np.linspace(-0.004, 0.004, 41):
            c = c0 + dc
            ratio = (1.0 - c - sr.incentive_prize(c)) / (1.0 - sr.probability(c))
            x0 = investment_for_return(sr, ratio)
            welfare = expected_welfare(sr, near_constant_profile(x0, c))
            assert welfare <= res.objective + 1e-9


class TestOptimaOnPublicBand:
    """Both near-constant optima put the initiator on the public band's
    upper edge, bit for bit: the optima read the edge where
    ``near_constant_bounds`` does, so it is formed one way only."""

    RATES = {
        "sqrt_ratio": sqrt_ratio,
        "scaled_03": lambda: scaled_sqrt_ratio(0.3),
        "scaled_07071": lambda: scaled_sqrt_ratio(0.7071),
        "custom_sqrt": lambda: custom_rate(
            "custom_sqrt", sqrt_ratio().probability, sqrt_ratio().marginal
        ),
    }

    @pytest.mark.parametrize("name", RATES)
    def test_initiator_on_upper_edge_at_floor_zero(self, name):
        sr = self.RATES[name]()
        res = initiator_optimal(sr)
        upper = near_constant_bounds(sr, res.profile.tail)[1]
        assert res.profile.prefix[0] == investment_for_return(sr, upper)

    @pytest.mark.parametrize("name", RATES)
    def test_self_financed_on_upper_edge_at_floor_tail(self, name):
        sr = self.RATES[name]()
        res = self_financed_optimal(sr)
        c_s = res.profile.tail
        upper = near_constant_bounds(sr, c_s, c_s)[1]
        assert res.profile.prefix[0] == investment_for_return(sr, upper)


class TestRateReadOncePerPoint:
    """Each program reads ``p``, the required return and the prize at a
    point through one call of the rate, and ``p'`` once: a counting custom
    rate pins the calls of its ``p`` and ``p'``, so a second read of
    ``p(c*)``, of ``p'`` at the initiator optimum, or of ``p`` or ``p'`` in
    a step of the self-financed slope changes a count.  Each prize slope
    of a custom rate reads the prize, so ``p`` and ``p'``, four times."""

    @pytest.mark.parametrize("solve, want", [
        (socially_optimal, {"p": 3, "p'": 13}),
        (initiator_optimal, {"p": 121, "p'": 153}),
        (self_financed_optimal, {"p": 206, "p'": 398}),
    ], ids=["socially_optimal", "initiator_optimal", "self_financed_optimal"])
    def test_counted_calls(self, sr, solve, want):
        calls = {"p": 0, "p'": 0}

        def counted(key, fn):
            def f(x):
                calls[key] += 1
                return fn(x)
            return f

        solve(custom_rate("counting", counted("p", sr.probability), counted("p'", sr.marginal)))
        assert calls == want


def _exp_sqrt_rate(eps, b):
    # p = (1 - eps)(1 - exp(-b sqrt(x))): steep at zero, concave, capped
    # below 1 - eps; exp(b sqrt(x)) stays finite up to the domain cap of 50
    scale = 1.0 - eps

    def p_prime(x):
        if x == 0.0:
            return math.inf
        s = math.sqrt(x)
        return scale * b * math.exp(-b * s) / (2.0 * s)

    return custom_rate(
        f"exp_sqrt(eps={eps:g},b={b:g})", lambda x: scale * (1.0 - math.exp(-b * math.sqrt(x))),
        p_prime, epsilon=eps, domain_cap=50.0,
    )


def _proof_terms(sr, c):
    # L, Q, the reduced welfare's slope, u' and A' at tail c, from the
    # public evaluators; each derivative of a quotient times (1 - p(c))^2
    p, dp = sr.probability(c), sr.marginal(c)
    h, dh = sr.incentive_prize(c), sr.incentive_prize_slope(c)
    a, b = (1.0 - c) / (1.0 - p), h / (1.0 - p)
    da = (1.0 - c) * dp - (1.0 - p)
    db = dh * (1.0 - p) + h * dp
    u = near_constant_bounds(sr, c, c)[1]
    x0 = investment_for_return(sr, u)
    px0, dpx0 = sr.probability(x0), sr.marginal(x0)
    dhx0 = sr.incentive_prize_slope(x0)
    # r' at x0, as (prize' p - prize p') / p^2
    dr = (dhx0 * px0 - sr.incentive_prize(x0) * dpx0) / (px0 * px0)
    slope = (da - db) / (1.0 - p) ** 2 / dr * (dpx0 * a - 1.0) + px0 * da / (1.0 - p) ** 2
    return u * (dhx0 - 1.0), b * (db / da - 1.0), slope, da - db, da


class TestSelfFinancedOptimumInterval:
    """Where the self-financed optimum lies, and why one solve finds it:
    above the peak ``c_u`` of the band's upper edge at floor ``c``, ``u(c) =
    (1 - c - prize(c)) / (1 - p(c))``, and at most at ``min(c_fb, c_max)``.

    The reduced welfare ``W = 1 - x0 + p(x0) A(c)``, with ``r(x0) = u(c)``
    and ``A(c) = (1 - c) / (1 - p(c))``, has slope ``h / (1 - c - h) x0' +
    p(x0) A'`` (``h`` the prize), and ``x0'`` has the sign of ``u'``; ``u``
    and ``A`` are single-peaked, at ``c_u`` and at the first best.  So ``W``
    rises up to ``c_u`` and falls past ``c_fb``, and between them its slope
    has the sign of ``L - Q``, ``L`` falling and ``Q`` rising (the proof in
    ``self_financed_optimal``).  ``c_u`` is read from the public band
    alone: the argmax of ``u`` on a log grid fine enough that its upper
    neighbour lies below ``c_s``.  The slack ``1e-12`` covers the two
    solves' tolerances where ``c_s`` and ``c_fb`` nearly meet."""

    RATES = {
        "sqrt_ratio": sqrt_ratio,
        "scaled_03": lambda: scaled_sqrt_ratio(0.3),
        "scaled_07071": lambda: scaled_sqrt_ratio(0.7071),
        "scaled_099": lambda: scaled_sqrt_ratio(0.99),
        "custom_sqrt": lambda: custom_rate(
            "custom_sqrt", sqrt_ratio().probability, sqrt_ratio().marginal
        ),
        # c_max below c_fb, and c_fb below c_max
        "exp_sqrt_binding_limit": lambda: _exp_sqrt_rate(0.1, 2.0),
        "exp_sqrt_binding_first_best": lambda: _exp_sqrt_rate(0.3, 0.5),
    }

    @pytest.mark.parametrize("name", RATES)
    def test_between_upper_edge_peak_and_first_best(self, name):
        sr = self.RATES[name]()
        assert validate(sr).passed
        c_s = self_financed_optimal(sr).profile.tail
        end = min(first_best_investment(sr), tail_limit(sr, Mode.SELF_FINANCED))
        assert c_s <= end * (1.0 + 1e-12)
        # 100 points a decade over the six decades below the end
        grid = [end * 10.0 ** (k / 100.0 - 6.0) for k in range(601)]
        upper = [near_constant_bounds(sr, c, c)[1] for c in grid]
        j = max(range(len(grid)), key=upper.__getitem__)
        assert 0 < j < len(grid) - 1  # the peak lies inside the grid
        assert grid[j + 1] < c_s

    @pytest.mark.parametrize("name", RATES)
    def test_slope_has_the_sign_of_l_minus_q(self, name):
        # on the tails of a 300-point grid inside (c_u, min(c_fb, c_max)),
        # where u falls and A rises, L strictly falls, Q strictly rises, and
        # the chain-rule slope of W, written as the program writes it, has
        # the sign of L - Q: positive at the first, negative next to the end
        sr = self.RATES[name]()
        end = min(first_best_investment(sr), tail_limit(sr, Mode.SELF_FINANCED))
        terms = [_proof_terms(sr, end * k / 301) for k in range(1, 301)]
        inside = [t for t in terms if t[3] < 0.0 < t[4]]
        assert len(inside) >= 30
        ell, q, slope = ([t[j] for t in inside] for j in range(3))
        assert all(a > b for a, b in zip(ell, ell[1:]))
        assert all(a < b for a, b in zip(q, q[1:]))
        assert [w > 0.0 for w in slope] == [a > b for a, b in zip(ell, q)]
        assert slope[0] > 0.0 > _proof_terms(sr, end * (1.0 - 1e-9))[2]

    @pytest.mark.parametrize("name", [*RATES, "scaled_1e-6", "scaled_1-1e-6"])
    def test_in_the_full_scans_cell(self, name):
        # an independent reference for the one solve: the best of a full
        # 256-point scan of (0, c_max), rebuilt here from the public band,
        # lies in the cell pair around the program's tail
        caps = {"scaled_1e-6": 1e-6, "scaled_1-1e-6": 1.0 - 1e-6}
        sr = scaled_sqrt_ratio(caps[name]) if name in caps else self.RATES[name]()
        c_max = tail_limit(sr, Mode.SELF_FINANCED)
        step = c_max / 257
        grid = [step * (j + 1) for j in range(256)]

        def gain(c):
            x0 = investment_for_return(sr, near_constant_bounds(sr, c, c)[1])
            return sr.probability(x0) * (1.0 - c) / (1.0 - sr.probability(c)) - x0

        values = [gain(c) for c in grid]
        j = max(range(256), key=values.__getitem__)
        lo = grid[j - 1] if j > 0 else 0.0
        hi = grid[j + 1] if j < 255 else c_max
        assert lo <= self_financed_optimal(sr).profile.tail <= hi


class TestSinglePeaked:
    @pytest.mark.parametrize("shape", ["identity", "prize", "prize_plus_identity"])
    def test_rise_then_fall_once(self, sr, shape):
        h = {
            "identity": lambda c: c,
            "prize": sr.incentive_prize,
            "prize_plus_identity": lambda c: sr.incentive_prize(c) + c,
        }[shape]

        def q(c):
            return (1.0 - h(c)) / (1.0 - sr.probability(c))

        # sweep the domain where h stays below 1
        hi = 0.999
        while h(hi) >= 1.0:
            hi *= 0.9
        grid = np.linspace(1e-6, hi, 800)
        vals = [q(c) for c in grid]
        falls = 0
        rising = True
        for a, b in zip(vals, vals[1:]):
            if rising and b < a:
                rising = False
                falls += 1
            elif not rising:
                assert b <= a + 1e-12
        assert falls <= 1


class TestZeroInitiatorImprovement:
    def test_dominating_profile(self, sr):
        # the whole row to the initiator (fraction 0): every later agent
        # stays out while the initiator invests to p'(x0) = 1, and welfare
        # exceeds 1, the welfare of every profile with a zero initiator
        x0 = investment_for_return(sr, 1.0)
        profile = ConstantTailProfile((x0,), 0.0)
        assert x0 > 0.0
        assert expected_welfare(sr, profile) > 1.0
        # stationarity: marginal success probability 1 at the optimum
        assert sr.marginal(x0) == pytest.approx(1.0, rel=1e-9)
        assert verify_equilibrium(sr, fixed_fraction(0.0), profile).supported


class TestTailLimit:
    RATES = {
        "sqrt_ratio": sqrt_ratio,
        # same prize as sqrt_ratio, so the same limits
        "scaled_half": lambda: scaled_sqrt_ratio(0.5),
        "scaled_03": lambda: scaled_sqrt_ratio(0.3),
        "custom_sqrt": lambda: custom_rate(
            "custom_sqrt", sqrt_ratio().probability, sqrt_ratio().marginal
        ),
    }

    @pytest.mark.parametrize("name", RATES)
    def test_prize_reaches_one(self, name, oracle):
        c = tail_limit(self.RATES[name]())
        assert c == pytest.approx(oracle.prize_one_level, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("name", RATES)
    def test_self_financed_floor(self, name, oracle):
        c = tail_limit(self.RATES[name](), Mode.SELF_FINANCED)
        assert c == pytest.approx(oracle.c_max_sf, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_limit_near_the_bracket_start(self, mode):
        # p = x^(5e-12) / 2 has the prize 2e11 x, which reaches 1 at 5e-12,
        # five times the solve's lower end _EDGE; the self-financed optimum
        # below that limit still verifies
        a = 2e11

        def p(x):
            return 0.5 * x ** (1.0 / a)

        sr = custom_rate("steep", p, lambda x: math.inf if x == 0.0 else p(x) / (a * x))
        want = 1.0 / a if mode is Mode.UNCONSTRAINED else 1.0 / (1.0 + a)
        assert tail_limit(sr, mode) == pytest.approx(want, rel=1e-12)
        assert self_financed_optimal(sr).report.supported

    @pytest.mark.parametrize("mode", list(Mode))
    def test_limit_below_the_bracket_start(self, mode):
        # with a = 2e12 the limit is 5e-13, below the solve's lower end
        # 1e-12: the error names that end, not the domain cap, and so do
        # the programs that start from the limit
        a = 2e12

        def p(x):
            return 0.5 * x ** (1.0 / a)

        sr = custom_rate("steep", p, lambda x: math.inf if x == 0.0 else p(x) / (a * x))
        message = "tail_limit: rate steep has no solution above the lower end 1e-12 of its bracket"
        with pytest.raises(BracketError) as raised:
            tail_limit(sr, mode)
        assert str(raised.value) == message
        solve = initiator_optimal if mode is Mode.UNCONSTRAINED else self_financed_optimal
        with pytest.raises(BracketError) as raised:
            solve(sr)
        assert str(raised.value) == message

    @staticmethod
    def upper(sr, c, mode):
        # the band's upper edge at the mode's floor alone
        return near_constant_bounds(sr, c, c if mode is Mode.SELF_FINANCED else 0.0)[1]

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", RATES)
    def test_upper_bound_changes_sign_at_limit(self, name, mode):
        sr = self.RATES[name]()
        d = tail_limit(sr, mode)
        assert self.upper(sr, d * (1.0 - 1e-9), mode) >= 0.0
        assert self.upper(sr, d * (1.0 + 1e-9), mode) < 0.0

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", RATES)
    def test_band_slope_matches_upper_bound(self, name, mode):
        # the slope helper is the derivative times (1 - p)^2: the sign of
        # a central difference, and its value once divided back
        sr = self.RATES[name]()
        d = tail_limit(sr, mode)
        for c in (0.02 * d, 0.5 * d, 0.9 * d):
            h = 1e-6 * c
            diff = (self.upper(sr, c + h, mode) - self.upper(sr, c - h, mode)) / (2.0 * h)
            slope = _band_upper_slope(
                sr, c, mode, sr.probability(c), sr.incentive_prize(c), sr.marginal(c)
            )
            assert math.copysign(1.0, slope) == math.copysign(1.0, diff)
            assert slope / (1.0 - sr.probability(c)) ** 2 == pytest.approx(diff, rel=1e-6)


class TestRegion:
    def test_flattened_point_below_lower_curve(self, sr, oracle):
        rows = region_sweep(sr, [oracle.ex5_cbar], Mode.UNCONSTRAINED)
        row = rows[0]
        assert row.lower is not None and row.lower > oracle.ex5_x0

    def test_infeasible_tails_emit_empty(self, sr, oracle):
        rows = region_sweep(sr, [oracle.prize_one_level * 1.05], Mode.UNCONSTRAINED)
        assert rows[0].lower is None and rows[0].upper is None

    def test_curves_cross_at_reference_point(self, sr, oracle):
        c = region_curve_intersection(sr)
        assert c == pytest.approx(oracle.c_cross, abs=1e-9)
        # the crossing satisfies required_return = 3 - 2 p
        assert abs(sr.required_return(c) - (3.0 - 2.0 * sr.probability(c))) <= 1e-6

    def test_self_financed_inside_unconstrained(self, sr, oracle):
        grid = np.linspace(oracle.c_max_sf / 257, oracle.c_max_sf, 256, endpoint=False)
        free = region_sweep(sr, grid, Mode.UNCONSTRAINED)
        tight = region_sweep(sr, grid, Mode.SELF_FINANCED)
        for a, b in zip(free, tight):
            assert b.lower >= a.lower - 1e-12
            assert b.upper <= a.upper + 1e-12

    def test_self_financed_upper_hits_optimum(self, sr, oracle):
        rows = region_sweep(sr, [oracle.c_s], Mode.SELF_FINANCED)
        assert rows[0].upper == pytest.approx(oracle.x0_s, abs=1e-9)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("rate", [
        sqrt_ratio(),
        custom_rate("custom_sqrt", sqrt_ratio().probability, sqrt_ratio().marginal),
    ], ids=lambda rate: rate.name)
    def test_numpy_grid_gives_python_float_rows(self, rate, mode):
        # the last tails are past the band's end in both modes: empty rows
        grid = np.linspace(0.002, 0.34, 24)
        rows = region_sweep(rate, grid, mode)
        assert rows == region_sweep(rate, grid.tolist(), mode)
        assert rows[-1].upper is None
        for row in rows:
            assert type(row.c) is float
            assert all(v is None or type(v) is float for v in (row.lower, row.upper))

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("grid, shown", [
        (["0.05", b"0.1"], "'0.05'"),
        ([0.05, b"0.1"], "b'0.1'"),
        ([0.05, bytearray(b"0.1")], "bytearray(b'0.1')"),
    ], ids=["str", "bytes", "bytearray"])
    def test_text_tail_rejected(self, sr, mode, grid, shown):
        # float() parses text, so a sweep once returned rows at c = 0.05 and 0.1
        message = f"sqrt_ratio: investment must be a real number, got {shown}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            region_sweep(sr, grid, mode)

    @pytest.mark.parametrize("grid", ["0.1", b"0.1", bytearray(b"0.1")], ids=repr)
    def test_text_grid_rejected(self, sr, grid):
        # iterated, b"0.1" once gave rows at its character codes 48, 46 and 49
        message = f"sqrt_ratio: tails must be real numbers, got {grid!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            region_sweep(sr, grid)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_non_float_reals_convert(self, sr, mode):
        # ints, bools and numpy scalars are converted to the same float rows
        grid = [0.0, 0.125, 0.25]
        rows = region_sweep(sr, grid, mode)
        assert region_sweep(sr, [0, np.float32(0.125), np.float64(0.25)], mode) == rows
        assert region_sweep(sr, [False], mode) == rows[:1]
        assert region_sweep(sr, iter(grid), mode) == rows

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("c, message", [
        (-0.1, "investment must be >= 0, got -0.1"),
        (math.nan, "investment must be finite, got nan"),
    ])
    def test_bad_tail_named_as_investment(self, sr, mode, c, message):
        # the self-financed sweep used to blame its floor, which is the tail
        with pytest.raises(DomainError, match=f"^sqrt_ratio: {re.escape(message)}$"):
            region_sweep(sr, [c], mode)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_edge_past_the_cap_raises_as_its_inversion(self, mode):
        # the sweep inverts a built-in family's edges through its closure
        # only after investment_for_return's own range test: an upper edge
        # past the return the cap attains (1.00219, or 1.00218 at floor c,
        # against 0.029) raises just as inverting it does
        sr = scaled_sqrt_ratio(0.3, domain_cap=1e-4)
        c = 1e-5
        upper = near_constant_bounds(sr, c, c if mode is Mode.SELF_FINANCED else 0.0)[1]
        with pytest.raises(UnboundedRatioError) as inverted:
            investment_for_return(sr, upper)
        with pytest.raises(UnboundedRatioError, match=f"^{re.escape(str(inverted.value))}$"):
            region_sweep(sr, [c], mode)


class TestModeArgument:
    """``tail_limit`` and ``region_sweep`` take a ``Mode`` or its value
    string; a value string used to give the unconstrained answer."""

    @pytest.mark.parametrize("mode", list(Mode))
    def test_value_string_gives_its_mode(self, sr, oracle, mode):
        limit = tail_limit(sr, mode.value)
        assert limit == tail_limit(sr, mode)
        want = oracle.c_max_sf if mode is Mode.SELF_FINANCED else oracle.prize_one_level
        assert limit == pytest.approx(want, rel=1e-15, abs=0.0)
        rows = region_sweep(sr, [0.05, 0.1], mode.value)
        assert rows == region_sweep(sr, [0.05, 0.1], mode)

    def test_modes_give_different_bands(self, sr):
        # the control for the test above: the two modes' rows differ
        free, tight = (region_sweep(sr, [0.1], mode)[0] for mode in Mode)
        assert tight.upper < free.upper

    @pytest.mark.parametrize("mode", ["bogus", "Self_Financed", None, 0])
    def test_other_values_rejected(self, sr, mode):
        message = f"^mode must be a Mode or one of .*, got {re.escape(repr(mode))}$"
        with pytest.raises(DomainError, match=message):
            tail_limit(sr, mode)
        with pytest.raises(DomainError, match="^mode must be a Mode"):
            region_sweep(sr, [0.05], mode)

    def test_empty_grid_still_checks_the_mode(self, sr):
        with pytest.raises(DomainError, match="^mode must be a Mode"):
            region_sweep(sr, [], "bogus")


class TestCapsNearOne:
    """Roots below any fixed absolute edge: they shrink like ``(1 - eps)^2``."""

    @pytest.mark.parametrize("eps", [0.999999, 1.0 - 1e-9])
    def test_first_best_social_and_crossing(self, eps):
        sr = scaled_sqrt_ratio(eps)
        c_fb = first_best_investment(sr)
        assert c_fb < 1e-12
        welfare = (1.0 - c_fb) / (1.0 - sr.probability(c_fb))
        assert welfare == pytest.approx(sr.required_return(c_fb), rel=1e-9, abs=0.0)
        res = socially_optimal(sr)
        assert res.report.supported
        assert sr.marginal(res.profile.tail) == pytest.approx(1.0, rel=1e-9, abs=0.0)
        c = region_curve_intersection(sr)
        crossing = 3.0 - 2.0 * sr.probability(c)
        assert sr.required_return(c) == pytest.approx(crossing, rel=1e-9, abs=0.0)

    def test_rate_not_steep_at_zero_rejected(self):
        # p'(0) = 1/2: the prize exceeds the probability at every c > 0
        flat = custom_rate("flat", lambda x: 0.5 * x / (1.0 + x), lambda x: 0.5 / (1.0 + x) ** 2)
        with pytest.raises(BracketError, match="steep-at-zero"):
            socially_optimal(flat)


class TestDomainCapBelowOne:
    """A cap below 1 bounds the brackets that start at the investment 1.

    At cap 0.5 every answer of ``sqrt_ratio`` lies below the cap, and each
    program matches its default-cap answer within its solve's ``xtol``.  At
    cap 0.05, below the first best, the programs fail on their own
    brackets, not on an evaluation of the rate at 1."""

    PROGRAMS = {
        "first_best_investment": (first_best_investment, 1e-12),
        "tail_limit": (tail_limit, 1e-15),
        "tail_limit_self_financed": (lambda sr: tail_limit(sr, Mode.SELF_FINANCED), 1e-15),
        "initiator_optimal": (lambda sr: initiator_optimal(sr).profile.tail, 1e-14),
        "self_financed_optimal": (lambda sr: self_financed_optimal(sr).profile.tail, 1e-13),
        "region_curve_intersection": (region_curve_intersection, 1e-12),
    }

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_matches_the_default_cap(self, name):
        solve, xtol = self.PROGRAMS[name]
        assert solve(sqrt_ratio(domain_cap=0.5)) == pytest.approx(solve(sqrt_ratio()), rel=xtol)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_cap_below_the_answers_fails_on_its_bracket(self, name):
        # the error names the solve whose bracket ran out, the rate and its
        # cap: the first best for itself, the tail limit for the others
        solve, _ = self.PROGRAMS[name]
        program = "first_best_investment" if name == "first_best_investment" else "tail_limit"
        with pytest.raises(BracketError) as raised:
            solve(sqrt_ratio(domain_cap=0.05))
        assert str(raised.value) == (
            f"{program}: rate sqrt_ratio has no solution below its domain cap 0.05"
        )

    @pytest.mark.parametrize("cap", [0.5, 0.05])
    def test_flatten_tail_matches_the_default_cap(self, cap):
        # every investment of the profile, and so its flattened tail, lies
        # below both caps
        profile = ConstantTailProfile((0.04, 0.03), 0.02)
        got = flatten_tail(sqrt_ratio(domain_cap=cap), profile, 0).tail
        assert got == pytest.approx(flatten_tail(sqrt_ratio(), profile, 0).tail, rel=1e-12)


class TestScaledRatePrograms:
    def test_all_four_solve_and_verify(self):
        rate = scaled_sqrt_ratio(0.5)
        c_fb = first_best_investment(rate)
        assert 0.0 < c_fb < 1.0
        for solve in (socially_optimal, initiator_optimal, self_financed_optimal):
            res = solve(rate)
            assert math.isfinite(res.objective)
            assert res.report.supported, solve.__name__
            assert res.max_residual <= 1e-8

    def test_self_financed_near_a_unit_cap(self):
        # the optimum's tail sits a relative 2.5e-9 below the crossing
        # r(c) + c = 1, where the fraction with floor reaches 1 (a solve
        # stopped at an absolute 1e-13 had put the 6.2e-10 tail past it).
        # Past the crossing no fixed fraction with floor is a valid rule,
        # and the next-step bonus supports the upper-bound profile instead
        sr = scaled_sqrt_ratio(0.99995)
        res = self_financed_optimal(sr)
        c = res.profile.tail
        assert sr.required_return(c) + c < 1.0
        assert res.rule.label.startswith("fixed_fraction_floor")
        assert res.report.supported
        assert res.max_residual <= 1e-8
        past = 1.01 * c
        assert sr.required_return(past) + past > 1.0
        upper = near_constant_bounds(sr, past, past)[1]
        rule = _upper_endpoint_rule(sr.required_return(past), past, upper)
        assert rule.label.startswith("next_step_bonus")
        x0 = investment_for_return(sr, upper)
        profile = ConstantTailProfile((x0,), past)
        assert verify_equilibrium(sr, rule, profile, mode=Mode.SELF_FINANCED).supported
