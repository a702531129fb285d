"""Success-rate evaluators, derived quantities, and grid validation."""

import math
import re

import numpy as np
import pytest

from seqinvest import (
    DomainError,
    custom_rate,
    rate_from_config,
    scaled_sqrt_ratio,
    sqrt_ratio,
    validate,
)
from seqinvest.rates import CheckResult, ValidationReport

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
        h = min(max(1e-6, 1e-6 * x), 0.5 * x)
        if x + h > sr.domain_cap:
            return (p(x) / d(x) - p(x - h) / d(x - h)) / h
        return (p(x + h) / d(x + h) - p(x - h) / d(x - h)) / (2.0 * h)
    assert method == "required_return"
    return 0.0 if x == 0.0 else 1.0 / d(x)


class TestAcceptPath:
    """Every evaluator gives the closure's bits on ``float(x)``, or the
    domain error, whatever number type ``x`` has."""

    @pytest.mark.parametrize("method", EVALUATORS)
    @pytest.mark.parametrize("rate", ACCEPT_RATES)
    @pytest.mark.parametrize("x", [
        2, True, np.float64(0.3), np.float32(0.25), np.int64(3), 0.0, -0.0, 0.7, CAP,
        # within one finite-difference step of the cap (h is 1 there; a
        # custom rate's slope used to step past the cap and raise), and
        # just outside that step
        CAP - 0.1, CAP - 0.9, CAP - 2.0,
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
        # the cap and a point within one step of it take the backward difference
        for x in (0.02, 0.3, 4.0, CAP - 0.1, CAP):
            assert mirror.incentive_prize(x) == pytest.approx(
                sr.incentive_prize(x), rel=1e-12
            )
            # derived slope is a finite difference, so looser tolerance
            assert mirror.incentive_prize_slope(x) == pytest.approx(
                sr.incentive_prize_slope(x), rel=1e-6
            )
        assert validate(mirror).passed

    def test_report_lines_render(self, sr):
        lines = validate(sr, points=64).lines()
        assert lines and all(line.startswith("pass") for line in lines)

    def test_never_raises_even_when_unevaluable(self):
        def explode(_):
            raise RuntimeError("boom")

        report = validate(custom_rate("broken", explode, explode), points=32)
        assert not report.passed
        assert {c.name for c in report.checks if not c.passed} >= {"evaluable", "increasing"}


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
    """The numpy implementation ``validate`` replaced, kept as its reference."""

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

    @pytest.mark.parametrize("cap", [1e-9, 1e-12, 0.0, -1.0, math.nan, 1e-9 * (1 + 1e-12)])
    def test_degenerate_domain_rejected(self, cap):
        # the last cap exceeds 1e-9, but rounding repeats points of its grid
        with pytest.raises(DomainError, match="domain_cap"):
            validate(sqrt_ratio(domain_cap=cap))


class TestRegistry:
    def test_config_round_trip(self):
        assert rate_from_config("sqrt_ratio").name == "sqrt_ratio"
        assert rate_from_config("scaled_sqrt_ratio", 0.5).epsilon == 0.5

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            rate_from_config("cubic")
        # custom rates have no configuration form: callers pass the object
        with pytest.raises(DomainError, match="unknown rate family"):
            rate_from_config("custom")
