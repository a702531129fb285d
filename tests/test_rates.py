"""Success-rate evaluators, derived quantities, and grid validation."""

import dataclasses
import functools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from seqinvest import (
    ConstantTailProfile,
    DomainError,
    constant_profile,
    custom_rate,
    expected_value,
    expected_welfare,
    incentive_cost,
    rate_from_config,
    scaled_sqrt_ratio,
    sqrt_ratio,
    validate,
)
from seqinvest.rates import CheckResult, SuccessRate, ValidationReport

GRID = np.geomspace(1e-6, 1e3, 160)
EVALUATORS = ["probability", "marginal", "incentive_prize", "incentive_prize_slope", "required_return"]


class TestClosedForms:
    def test_probability_at_zero(self, sr):
        assert sr.probability(0.0) == 0.0

    def test_probability_quarter(self, sr):
        # sqrt(0.25) / (1 + sqrt(0.25)) = 0.5 / 1.5
        assert sr.probability(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_probability_combination_point(self, sr, oracle):
        assert sr.probability(0.1777) == pytest.approx(oracle.p_01777, abs=1e-12)

    def test_prize_at_zero_is_limit(self, sr):
        assert sr.incentive_prize(0.0) == 0.0

    def test_prize_quarter(self, sr):
        # 2 * 0.25 * 1.5
        assert sr.incentive_prize(0.25) == pytest.approx(0.75, abs=1e-15)

    def test_prize_slope_values(self, sr):
        assert sr.incentive_prize_slope(1.0) == pytest.approx(5.0, abs=1e-15)
        assert sr.incentive_prize_slope(0.25) == pytest.approx(3.5, abs=1e-15)
        assert sr.incentive_prize_slope(0.0264) == pytest.approx(
            2.0 + 3.0 * math.sqrt(0.0264), abs=1e-15
        )

    def test_required_return_spot(self, sr, oracle):
        assert sr.required_return(0.0131) == pytest.approx(
            oracle.ratio_00131, abs=1e-12
        )

    def test_required_return_zero_limit(self, sr):
        assert sr.required_return(0.0) == 0.0


class TestDomain:
    def test_negative_rejected(self, sr):
        with pytest.raises(DomainError):
            sr.probability(-1e-9)

    def test_non_finite_rejected(self, sr):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                sr.probability(bad)

    def test_beyond_cap_rejected(self, sr):
        with pytest.raises(DomainError):
            sr.probability(2e6)

    def test_prize_slope_needs_positive(self, sr):
        with pytest.raises(DomainError):
            sr.incentive_prize_slope(0.0)

    @pytest.mark.parametrize("method", EVALUATORS)
    @pytest.mark.parametrize("bad, message", [
        (math.nan, "investment must be finite, got nan"),
        (math.inf, "investment must be finite, got inf"),
        (-math.inf, "investment must be finite, got -inf"),
        (-1e-9, "investment must be >= 0, got -1e-09"),
    ])
    def test_every_evaluator_rejects(self, sr, method, bad, message):
        with pytest.raises(DomainError, match=re.escape(f"sqrt_ratio: {message}")):
            getattr(sr, method)(bad)

    @pytest.mark.parametrize("method", EVALUATORS)
    def test_every_evaluator_rejects_just_past_the_cap(self, sr, method):
        past = math.nextafter(sr.domain_cap, math.inf)
        with pytest.raises(DomainError, match="investment 1e\\+06 exceeds domain cap 1e\\+06"):
            getattr(sr, method)(past)

    @pytest.mark.parametrize("method", EVALUATORS)
    def test_every_evaluator_accepts_the_cap(self, sr, method):
        assert math.isfinite(getattr(sr, method)(sr.domain_cap))

    @pytest.mark.parametrize("method", EVALUATORS)
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_accepted_except_by_the_slope(self, sr, method, zero):
        if method == "incentive_prize_slope":
            with pytest.raises(DomainError, match="investment must be > 0 here"):
                getattr(sr, method)(zero)
        else:
            getattr(sr, method)(zero)

    @pytest.mark.parametrize("cap", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_domain_cap_must_be_finite_and_positive(self, cap):
        for build in (sqrt_ratio, lambda cap: scaled_sqrt_ratio(0.5, cap),
                      lambda cap: custom_rate("c", math.sqrt, math.sqrt, domain_cap=cap)):
            with pytest.raises(DomainError, match="domain_cap"):
                build(cap)

    def test_sqrt_ratio_takes_no_epsilon(self):
        assert rate_from_config("sqrt_ratio", 0.0).epsilon == 0.0
        for eps in (0.5, math.nan, 1.0, -0.5):
            with pytest.raises(DomainError, match="epsilon"):
                rate_from_config("sqrt_ratio", eps)

    def test_scaled_epsilon_range(self):
        with pytest.raises(DomainError):
            scaled_sqrt_ratio(0.0)
        with pytest.raises(DomainError):
            scaled_sqrt_ratio(1.0)

    def test_custom_epsilon_range(self, sr):
        for eps in (-0.1, 1.0, math.nan):
            with pytest.raises(DomainError, match="epsilon"):
                custom_rate("c", sr.probability, sr.marginal, epsilon=eps)


def _custom_sqrt():
    def p(x):
        s = math.sqrt(x)
        return 0.8 * s / (1.0 + s)

    def p_prime(x):
        if x == 0.0:
            return math.inf
        s = math.sqrt(x)
        return 0.8 / (2.0 * s * (1.0 + s) ** 2)

    return custom_rate("custom_sqrt", p, p_prime, epsilon=0.2)


ACCEPT_RATES = {
    "sqrt_ratio": sqrt_ratio,
    "scaled": lambda: scaled_sqrt_ratio(0.3),
    "custom": _custom_sqrt,
}
CAP = 1e6  # every rate in ACCEPT_RATES has the default domain cap


def _closure_value(sr, method, x):
    # the evaluator's formula, read off the rate's own closures, on a float
    p, d = sr._p, sr._p_prime
    if method == "probability":
        return p(x)
    if method == "marginal":
        return d(x)
    if method == "incentive_prize":
        if sr._prize is not None:
            return sr._prize(x)
        return 0.0 if x == 0.0 else p(x) / d(x)
    if method == "incentive_prize_slope":
        if sr._prize_slope is not None:
            return sr._prize_slope(x)
        def f(y):
            return p(y) / d(y)

        h = 1e-3 * x
        if x + 2.0 * h > sr.domain_cap:
            back = 25.0 * f(x) - 48.0 * f(x - h) + 36.0 * f(x - 2.0 * h)
            return (back - 16.0 * f(x - 3.0 * h) + 3.0 * f(x - 4.0 * h)) / (12.0 * h)
        return (8.0 * (f(x + h) - f(x - h)) - (f(x + 2.0 * h) - f(x - 2.0 * h))) / (12.0 * h)
    assert method == "required_return"
    return 0.0 if x == 0.0 else 1.0 / d(x)


class TestAcceptPath:
    """Every evaluator gives the closure's bits on ``float(x)``, or the
    domain error, whatever number type ``x`` has."""

    @pytest.mark.parametrize("method", EVALUATORS)
    @pytest.mark.parametrize("rate", ACCEPT_RATES)
    @pytest.mark.parametrize("x", [
        2, True, np.float64(0.3), np.float32(0.25), np.int64(3), 0.0, -0.0, 0.7, CAP,
        # within a custom rate's one-sided stretch below the cap (x + 2h
        # past it, h = 1e-3 x; the slope once stepped past the cap and
        # raised), and on either side of its start at CAP / 1.002
        CAP - 0.1, CAP - 0.9, CAP - 2.0, 998_000.0, 998_010.0,
    ], ids=repr)
    def test_same_bits_as_closure_on_float(self, rate, method, x):
        sr = ACCEPT_RATES[rate]()
        if method == "incentive_prize_slope" and x == 0.0:
            with pytest.raises(DomainError, match=f"^{re.escape(sr.name)}: investment must be > 0 here$"):
                getattr(sr, method)(x)
            return
        got = getattr(sr, method)(x)
        assert type(got) is float
        assert got.hex() == _closure_value(sr, method, float(x)).hex()

    @pytest.mark.parametrize("method", EVALUATORS)
    @pytest.mark.parametrize("rate", ACCEPT_RATES)
    @pytest.mark.parametrize("x, message", [
        (math.nextafter(CAP, math.inf), "investment 1e+06 exceeds domain cap 1e+06"),
        (2_000_000, "investment 2e+06 exceeds domain cap 1e+06"),
        (math.nan, "investment must be finite, got nan"),
        (np.float64(math.nan), "investment must be finite, got nan"),
        (math.inf, "investment must be finite, got inf"),
        (-math.inf, "investment must be finite, got -inf"),
        (-1e-9, "investment must be >= 0, got -1e-09"),
        (-1, "investment must be >= 0, got -1.0"),
    ], ids=repr)
    def test_rejects_with_the_domain_message(self, rate, method, x, message):
        sr = ACCEPT_RATES[rate]()
        with pytest.raises(DomainError, match=f"^{re.escape(f'{sr.name}: {message}')}$"):
            getattr(sr, method)(x)


NOT_REAL = ["0.05", b"0.05", bytearray(b"0.05"), memoryview(b"0.05"), None, 1j, [0.05]]


class TestTextIsNotANumber:
    """Text that ``float()`` would parse is not an investment: every
    evaluator, and the band, raise the rate's domain error for it and for
    anything ``float()`` rejects, while every real number type still
    converts to the bits of ``float(x)``."""

    METHODS = [*EVALUATORS, "_band_at"]

    @pytest.mark.parametrize("rate", ACCEPT_RATES)
    @pytest.mark.parametrize("x", NOT_REAL, ids=lambda x: type(x).__name__)
    def test_rejected_naming_the_rate(self, rate, x):
        sr = ACCEPT_RATES[rate]()
        message = f"^{re.escape(f'{sr.name}: investment must be a real number, got {x!r}')}$"
        for method in self.METHODS:
            with pytest.raises(DomainError, match=message):
                getattr(sr, method)(x)

    @pytest.mark.parametrize("rate", ACCEPT_RATES)
    @pytest.mark.parametrize("x", [Fraction(3, 10), Fraction(0), 3, False, np.float16(0.5)], ids=repr)
    def test_other_reals_convert(self, rate, x):
        sr = ACCEPT_RATES[rate]()
        for method in self.METHODS:
            if method == "incentive_prize_slope" and x == 0:
                continue
            assert repr(getattr(sr, method)(x)) == repr(getattr(sr, method)(float(x)))


def _band_expected(sr, x):
    # the three evaluators' answers, or the first one's domain error
    try:
        return tuple(v.hex() for v in (
            sr.probability(x), sr.required_return(x), sr.incentive_prize(x)))
    except DomainError as e:
        return str(e)


def _band_got(sr, x):
    try:
        return tuple(v.hex() for v in sr._band_at(x))
    except DomainError as e:
        return str(e)


BAND_RATES = {
    **{f"sqrt_ratio(cap={cap:g})": functools.partial(sqrt_ratio, cap)
       for cap in (1e6, 1.0, 1e-3, 1e300)},
    **{f"scaled(eps={eps:g},cap={cap:g})": functools.partial(scaled_sqrt_ratio, eps, cap)
       for eps in (1e-9, 0.3, 0.7071, 1.0 - 1e-9) for cap in (1e6, 1e300)},
}


def _band_points(cap):
    # 0, the smallest subnormal and other tiny investments, a log grid up
    # to the cap, and the cap
    points = [0.0, -0.0, 5e-324, 1e-300, 1e-12, *(10.0 ** (k / 4) for k in range(-40, 25)), cap]
    return [x for x in points if x <= cap]


class TestBandEvaluation:
    """``_band_at`` gives ``(probability, required_return, incentive_prize)``
    bit for bit, the built-in closed form and a custom rate's generic path
    alike, and converts or rejects every input as the evaluators do."""

    @pytest.mark.parametrize("rate", BAND_RATES)
    def test_closed_form_same_bits_as_the_evaluators(self, rate):
        sr = BAND_RATES[rate]()
        assert sr._band is not None
        for x in _band_points(sr.domain_cap):
            assert _band_got(sr, x) == _band_expected(sr, x), x

    def test_return_overflows_to_inf_as_the_evaluator_does(self):
        # 2 s (1 + s)^2 overflows near a cap of 1e300, so p' is 0 there
        sr = sqrt_ratio(1e300)
        assert sr._band_at(1e300) == (sr.probability(1e300), math.inf, sr.incentive_prize(1e300))
        assert sr.required_return(1e300) == math.inf

    @pytest.mark.parametrize("rate", [
        "custom_sqrt", "flat", "nan_slope", "closed_prize",
    ])
    def test_generic_path_same_bits_as_the_evaluators(self, rate):
        sr = {
            "custom_sqrt": _custom_sqrt,
            # p' vanishes past 0.5: an infinite return and prize
            "flat": lambda: custom_rate(
                "flat", lambda x: min(x, 0.5), lambda x: 1.0 if x < 0.5 else 0.0),
            # an unchecked NaN slope: a NaN return and prize
            "nan_slope": lambda: SuccessRate(
                "nan_slope", 0.0, 1e6, sqrt_ratio()._p, lambda x: math.nan),
            # a closed-form prize without the band's closed form
            "closed_prize": lambda: dataclasses.replace(scaled_sqrt_ratio(0.3), _band=None),
        }[rate]()
        assert sr._band is None
        for x in _band_points(sr.domain_cap):
            assert _band_got(sr, x) == _band_expected(sr, x), x

    def test_generic_path_evaluates_p_and_p_prime_once(self):
        calls = []
        base = _custom_sqrt()
        sr = custom_rate("counting", lambda x: calls.append("p") or base.probability(x),
                         lambda x: calls.append("p'") or base.marginal(x))
        sr._band_at(0.3)
        assert calls == ["p'", "p"]
        calls.clear()
        sr._band_at(0.0)  # the return and the prize are 0 by convention
        assert calls == ["p"]

    @pytest.mark.parametrize("rate", ["sqrt_ratio", "scaled", "custom"])
    @pytest.mark.parametrize("x", [
        2, True, np.float64(0.3), np.float32(0.25), np.int64(3), math.nan, np.float64(math.nan),
        math.inf, -1e-9, -1, math.nextafter(CAP, math.inf), 2_000_000,
    ], ids=repr)
    def test_converts_and_rejects_as_the_evaluators(self, rate, x):
        sr = ACCEPT_RATES[rate]()
        got, want = _band_got(sr, x), _band_expected(sr, x)
        assert got == want
        if isinstance(want, str):
            with pytest.raises(DomainError, match=f"^{re.escape(want)}$"):
                sr._band_at(x)
        else:
            assert all(type(v) is float for v in sr._band_at(x))


class TestCustomRateValues:
    """``custom_rate`` checks each value of the user's ``p`` and ``p'`` as it enters."""

    def test_nan_fails_loudly(self, sr):
        # p is NaN above 0.4: the functionals at c = 0.5 used to return nan
        rate = custom_rate(
            "nan_above", lambda x: math.nan if x > 0.4 else sr.probability(x), sr.marginal
        )
        for functional in (expected_value, expected_welfare, incentive_cost):
            with pytest.raises(DomainError, match=r"^nan_above: p\(0\.5\) = nan is not a probability$"):
                functional(rate, constant_profile(0.5))
        slope = custom_rate(
            "nan_slope", sr.probability, lambda x: math.nan if x > 0.4 else sr.marginal(x)
        )
        with pytest.raises(DomainError, match=r"^nan_slope: p'\(0\.5\) is NaN$"):
            slope.required_return(0.5)

    def test_probability_above_one_fails_loudly(self):
        # p(4) is exactly 1 and p(9) = 1.125: expected_value used to return
        # 2.3026 here, and validate passed the rate
        def p(x):
            return 1.5 * math.sqrt(x) / (1.0 + math.sqrt(x))

        def p_prime(x):
            return math.inf if x == 0.0 else 0.75 / (math.sqrt(x) * (1.0 + math.sqrt(x)) ** 2)

        rate = custom_rate("too_steep", p, p_prime)
        assert rate.probability(4.0) == 1.0
        with pytest.raises(DomainError, match=r"^too_steep: p\(9\.0\) = 1\.125 is not a probability$"):
            expected_value(rate, ConstantTailProfile((9.0,), 0.01))
        evaluable = {c.name: c for c in validate(rate).checks}["evaluable"]
        assert not evaluable.passed and evaluable.worst_x > 4.0

    @pytest.mark.parametrize("x", [5e-324, 1e-321])
    def test_prize_slope_where_its_step_underflows(self, sr, x):
        # the step 1e-3 x is 0 below about 2.5e-321: the slope used to end
        # in a bare ZeroDivisionError
        twin = custom_rate("twin", sr.probability, sr.marginal)
        with pytest.raises(DomainError, match=re.escape(f"twin: no prize slope at {x!r}, where its step underflows")):
            twin.incentive_prize_slope(x)
        # just above, the slope is the closed form's
        assert twin.incentive_prize_slope(3e-321) == 2.0 == sr.incentive_prize_slope(3e-321)

    def test_prize_infinite_where_the_slope_vanishes(self):
        # p / p' used to end in a bare ZeroDivisionError
        rate = custom_rate("flat", lambda x: min(x, 0.5), lambda x: 1.0 if x < 0.5 else 0.0)
        assert rate.incentive_prize(0.7) == math.inf == rate.required_return(0.7)
        assert rate.incentive_prize(0.25) == 0.25


class TestScaledFamily:
    def test_probability_scaled(self, sr, sr_scaled, oracle):
        for x in (0.01, 0.3, 2.0):
            assert sr_scaled.probability(x) == pytest.approx(
                (1.0 - oracle.eps_half_sqrt2) * sr.probability(x), abs=1e-15
            )

    def test_prize_unchanged_by_scaling(self, sr, sr_scaled):
        # the scale cancels in p / p'
        for x in (0.01, 0.3, 2.0):
            assert sr_scaled.incentive_prize(x) == pytest.approx(
                sr.incentive_prize(x), abs=1e-15
            )

    def test_cap_honoured(self, sr_scaled, oracle):
        # p stays below 1 - eps even for enormous investments
        assert sr_scaled.probability(1e6) < 1.0 - oracle.eps_half_sqrt2

    def test_validation_passes(self, sr_scaled):
        assert validate(sr_scaled).passed


class TestDerivedIdentities:
    def test_prize_times_marginal_equals_probability(self, sr):
        for x in GRID:
            p = sr.probability(x)
            err = abs(sr.incentive_prize(x) * sr.marginal(x) - p)
            assert err <= 1e-10 * max(1.0, p)

    def test_marginal_matches_finite_difference(self, sr):
        # away from zero, where the quotient is numerically meaningful
        for x in np.geomspace(1e-2, 1e3, 120):
            h = 1e-6 * max(1.0, x)
            fd = (sr.probability(x + h) - sr.probability(x - h)) / (2.0 * h)
            assert abs(sr.marginal(x) - fd) <= 1e-5

    def test_required_return_strictly_increasing(self, sr):
        vals = [sr.required_return(x) for x in GRID]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestValidation:
    def test_reference_family_passes(self, sr):
        report = validate(sr)
        assert report.passed, report.lines()

    def test_kinked_rate_flagged(self):
        rate = custom_rate(
            "kinked",
            lambda x: min(x, 0.9),
            lambda x: 1.0 if x < 0.9 else 0.0,
            epsilon=0.1,
        )
        report = validate(rate)
        names = {c.name for c in report.checks if not c.passed}
        assert "concave" in names  # flat slopes are not strictly decreasing
        assert not report.passed

    def test_custom_wrapper_matches_builtin(self, sr):
        mirror = custom_rate("mirror", sr.probability, sr.marginal)
        # the cap and a point within two steps of it take the one-sided difference
        for x in (1e-6, 0.02, 0.3, 4.0, CAP - 0.1, CAP):
            assert mirror.incentive_prize(x) == pytest.approx(
                sr.incentive_prize(x), rel=1e-12
            )
            # the derived slope is a fourth-order finite difference: within
            # 5e-13 of the closed form centrally and 4e-12 one-sided
            assert mirror.incentive_prize_slope(x) == pytest.approx(
                sr.incentive_prize_slope(x), rel=1e-11
            )
        assert validate(mirror).passed

    @pytest.mark.parametrize("kink, passed", [(4e-9, True), (4e-8, False)])
    def test_prize_convex_allows_rounding(self, kink, passed):
        # a second difference of about -0.9 * kink is rounding within
        # _TOL_CONVEX at 4e-9, a concave kink at 4e-8
        check = _linear_prize_check(validate(_linear_prize_rate(kink=kink)), "prize_convex")
        assert check.worst_value == pytest.approx(-0.9065 * kink, rel=1e-3)
        assert check.passed is passed

    @pytest.mark.parametrize("offset, passed", [(3e-7, True), (3e-6, False)])
    def test_prize_at_zero_allows_rounding(self, offset, passed):
        # the prize at the grid's first point, 1e-9, is 2e-9 + offset:
        # within _TOL_LIMIT at 3e-7, a prize that does not vanish at 3e-6
        check = _linear_prize_check(validate(_linear_prize_rate(offset=offset)),
                                    "prize_vanishes_at_zero")
        assert check.worst_value == pytest.approx(2e-9 + offset, rel=1e-12)
        assert check.passed is passed

    def test_report_lines_render(self, sr):
        lines = validate(sr, points=64).lines()
        assert lines and all(line.startswith("pass") for line in lines)

    def test_never_raises_even_when_unevaluable(self):
        def explode(_):
            raise RuntimeError("boom")

        report = validate(custom_rate("broken", explode, explode), points=32)
        assert not report.passed
        assert {c.name for c in report.checks if not c.passed} >= {"evaluable", "increasing"}


def _linear_prize_rate(kink=0.0, offset=0.0):
    # p = sqrt(x) / 2 with p' chosen to make the prize 2x, less a slope
    # drop of ``kink`` at 0.5, plus ``offset``; validate does not check
    # that p' is the slope of p, so only the prize checks see the changes
    def prize(x):
        return 2.0 * x + offset - kink * max(0.0, x - 0.5)

    def p(x):
        return 0.5 * math.sqrt(x)

    def p_prime(x):
        return math.inf if x == 0.0 else p(x) / prize(x)

    return custom_rate("linear_prize", p, p_prime, domain_cap=1.0)


def _linear_prize_check(report, name):
    # the named check, every other check passing
    assert [c.name for c in report.checks if not c.passed] in ([], [name])
    return next(c for c in report.checks if c.name == name)


class TestValidationNaN:
    """A rate that is NaN on ``(0.5, 2)`` and the square-root family elsewhere."""

    @pytest.fixture
    def holed(self, sr):
        def hole(fn):
            return lambda x: math.nan if 0.5 < x < 2.0 else fn(x)

        return custom_rate("holed", hole(sr.probability), hole(sr.marginal))

    def test_nan_failures_name_the_first_nan_point(self, holed):
        report = validate(holed)
        grid = np.geomspace(1e-9, holed.domain_cap, 512)
        first_nan = float(grid[(grid > 0.5) & (grid < 2.0)][0])
        failed = {c.name: c for c in report.checks if not c.passed}
        assert set(failed) == {
            "evaluable", "increasing", "concave", "prize_exceeds_investment", "prize_convex",
        }
        for c in failed.values():
            assert c.worst_x == first_nan, c

    def test_finite_failure_still_named_beside_nan(self):
        # prize x (so margin 0 at every grid point) and NaN above 0.5: the
        # margin check fails on finite points and names one of those
        rate = custom_rate(
            "flat_prize",
            lambda x: math.nan if x > 0.5 else x,
            lambda x: math.nan if x > 0.5 else 1.0,
        )
        check = {c.name: c for c in validate(rate).checks}["prize_exceeds_investment"]
        assert not check.passed
        assert check.worst_x <= 0.5 and check.worst_value == 0.0

    def test_lines_render_missing_values(self, holed):
        lines = validate(holed).lines()
        assert "FAIL  evaluable  worst at x=0.522636 (n/a)" in lines

    def test_passed_is_a_python_bool(self, sr, holed):
        for rate in (sr, holed):
            report = validate(rate)
            assert all(type(c.passed) is bool for c in report.checks)
            assert type(report.passed) is bool


def _numpy_validate(sr, points=512, *, tol_convex=1e-8, tol_limit=1e-6):
    """The numpy implementation ``validate`` replaced, kept as its reference.

    A prize is infinite where ``p'`` is 0; its differences are NaN, as in
    plain Python, without numpy's warning.
    """
    with np.errstate(invalid="ignore"):
        return _numpy_checks(sr, points, tol_convex, tol_limit)


def _numpy_checks(sr, points, tol_convex, tol_limit):

    def safe_eval(fn, xs):
        out = np.empty(xs.shape)
        for i, x in enumerate(xs):
            try:
                out[i] = fn(float(x))
            except Exception:
                out[i] = np.nan
        return out

    grid = np.geomspace(1e-9, sr.domain_cap, points)
    pv = safe_eval(sr.probability, grid)
    gv = safe_eval(sr.incentive_prize, grid)
    p0 = sr.probability(0.0)
    checks = [CheckResult("starts_at_zero", bool(abs(p0) <= 1e-12), 0.0, p0)]
    if np.isnan(pv).any():
        bad = float(grid[int(np.isnan(pv).argmax())])
        checks.append(CheckResult("evaluable", False, bad, None))
    else:
        checks.append(CheckResult("evaluable", True))

    def grid_check(name, values, ok, source, *, highest=False, shift=0):
        nan = np.isnan(values)
        if nan.any() and (ok | nan).all():
            bad = ~np.isfinite(source)
            j = int(bad.argmax()) if bad.any() else int(nan.argmax()) + shift
            return CheckResult(name, False, float(grid[j]), math.nan)
        j = int(np.nanargmax(values) if highest else np.nanargmin(values))
        return CheckResult(name, bool(ok.all()), float(grid[j + shift]), float(values[j]))

    diffs = np.diff(pv)
    dslopes = np.diff(diffs / np.diff(grid))
    margin = gv - grid
    curv = np.diff(np.diff(gv) / np.diff(grid))
    checks += [
        grid_check("increasing", diffs, diffs > 0.0, pv),
        grid_check("concave", dslopes, dslopes < 0.0, pv, highest=True, shift=1),
        grid_check("prize_exceeds_investment", margin, margin > 0.0, gv),
        grid_check("prize_convex", curv, curv >= -tol_convex, gv, shift=1),
    ]
    g_small = gv[0]
    ok = bool(np.isfinite(g_small) and abs(g_small) <= tol_limit)
    checks.append(CheckResult("prize_vanishes_at_zero", ok, float(grid[0]), float(g_small)))
    return ValidationReport(sr.name, tuple(checks))


def _hole(fn, lo, hi, fill):
    def holed(x):
        if lo < x < hi:
            return fill()
        return fn(x)

    return holed


def _raise():
    raise ArithmeticError("no value here")


def _reference_rates():
    sr = sqrt_ratio()
    return [
        sr,
        sqrt_ratio(domain_cap=10.0),
        scaled_sqrt_ratio(0.5),
        scaled_sqrt_ratio(0.05, domain_cap=1e3),
        custom_rate(
            "nan_hole",
            _hole(sr.probability, 0.5, 2.0, lambda: math.nan),
            _hole(sr.marginal, 0.5, 2.0, lambda: math.nan),
        ),
        custom_rate("raises", _hole(sr.probability, 1e-3, 1e-2, _raise), sr.marginal),
        custom_rate(
            "capped_square",
            lambda x: min(x * x, 0.99),
            lambda x: 2.0 * x if x * x < 0.99 else 0.0,
            epsilon=0.01,
        ),
        custom_rate("exponential", lambda x: 1.0 - math.exp(-x), lambda x: math.exp(-x)),
    ]


class TestValidationMatchesNumpy:
    """The plain-Python grid reproduces the numpy verdicts."""

    @pytest.mark.parametrize("points", [3, 32, 128, 512])
    @pytest.mark.parametrize("rate", _reference_rates(), ids=lambda r: r.name)
    def test_same_verdicts(self, rate, points):
        got, want = validate(rate, points), _numpy_validate(rate, points)
        assert [c.name for c in got.checks] == [c.name for c in want.checks]
        assert [c.passed for c in got.checks] == [c.passed for c in want.checks]
        assert got.lines() == want.lines()
        for g, w in zip(got.checks, want.checks):
            if w.worst_x is None:
                assert g.worst_x is None
            else:
                assert g.worst_x == pytest.approx(w.worst_x, rel=1e-14, abs=0.0), g.name

    def test_failing_rates_fail(self):
        # the comparison above is not vacuous: these rates break assumptions
        failing = {r.name for r in _reference_rates() if not validate(r, 128).passed}
        assert failing == {"nan_hole", "raises", "capped_square", "exponential"}

    @pytest.mark.parametrize("points", [0, 1, 2])
    def test_too_few_points_rejected(self, sr, points):
        # with fewer than 3 points there are no second differences, so the
        # concavity and convexity checks would pass vacuously
        with pytest.raises(DomainError, match=f"points {points} < 3"):
            validate(sr, points=points)

    @pytest.mark.parametrize("points", [10.5, 10.0, "64", None])
    def test_non_integer_points_rejected(self, sr, points):
        # each used to end in a bare TypeError from range
        with pytest.raises(DomainError, match=rf"^points must be an integer, got {re.escape(repr(points))}$"):
            validate(sr, points)

    def test_numpy_integer_points_accepted(self, sr):
        assert validate(sr, np.int64(32)).lines() == validate(sr, 32).lines()

    @pytest.mark.parametrize("cap", [1e-9, 1e-12, 0.0, -1.0, math.nan, 1e-9 * (1 + 1e-12)])
    def test_degenerate_domain_rejected(self, cap):
        # the last cap exceeds 1e-9, but rounding repeats points of its grid
        with pytest.raises(DomainError, match="domain_cap"):
            validate(sqrt_ratio(domain_cap=cap))


class TestRegistry:
    def test_config_round_trip(self):
        assert rate_from_config("sqrt_ratio").name == "sqrt_ratio"
        assert rate_from_config("scaled_sqrt_ratio", 0.5).epsilon == 0.5

    @pytest.mark.parametrize("family, epsilon, cap, field", [
        ("sqrt_ratio", "0", 1e6, "epsilon"),
        ("scaled_sqrt_ratio", "0.3", 1e6, "epsilon"),
        ("scaled_sqrt_ratio", 0.3, "1e6", "domain_cap"),
    ])
    def test_text_is_not_a_field(self, family, epsilon, cap, field):
        # text used to reach the family as is: a bare TypeError, or the
        # sqrt_ratio message that "0" is an epsilon it does not take
        got = epsilon if field == "epsilon" else cap
        with pytest.raises(DomainError, match=f"^{field} must be a real number, got {got!r}$"):
            rate_from_config(family, epsilon, domain_cap=cap)

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            rate_from_config("cubic")
        # custom rates have no configuration form: callers pass the object
        with pytest.raises(DomainError, match="unknown rate family"):
            rate_from_config("custom")
