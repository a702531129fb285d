"""Best responses, verification, bounds, dynamics, and rule synthesis."""

import math
import re

import numpy as np
import pytest

from seqinvest import (
    BoundSchedule,
    Column,
    ConstantTailProfile,
    DomainError,
    InfeasibleError,
    Mixture,
    Mode,
    Perturbed,
    StationaryColumnRule,
    SuccessRate,
    TailShapeError,
    UnboundedRatioError,
    best_response,
    best_response_dynamics,
    check_agent,
    constant_profile,
    constant_support_check,
    continuation_reward,
    custom_rate,
    equal_split,
    expected_value,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    implied_value,
    incentive_cost,
    investment_bounds,
    investment_for_return,
    jackpot,
    near_constant_feasibility,
    near_constant_profile,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    region_curve_intersection,
    scaled_sqrt_ratio,
    sqrt_ratio,
    synthesize_rule,
    verify_equilibrium,
)
from seqinvest.equilibrium import _SUPPORT_TOL
from conftest import three_tier_rule


class TestInvestmentForReturn:
    def test_nonpositive_target_is_zero(self, sr):
        for t in (0.0, -0.0, -3.0):
            x = investment_for_return(sr, t)
            assert x == 0.0 and math.copysign(1.0, x) == 1.0

    def test_unit_target_is_social_optimum(self, sr, oracle):
        assert investment_for_return(sr, 1.0) == pytest.approx(
            oracle.c_star, abs=1e-10
        )

    def test_fixed_point_of_three_tier_tail(self, sr, oracle):
        # the tail equation: required_return(x) = 2 - p(x) at x = 0.1777
        x = investment_for_return(sr, 2.0 - sr.probability(0.1777))
        assert x == pytest.approx(oracle.fixed_point_t, abs=1e-10)

    def test_round_trip(self, sr):
        for t in (0.05, 1.0, 7.0, 300.0):
            assert sr.required_return(investment_for_return(sr, t)) == pytest.approx(
                t, rel=1e-9
            )

    def test_tiny_target_keeps_relative_accuracy(self, sr):
        # s (1 + s)^2 = 5e-31 gives s = 5e-31 (1 - 1e-30) to double precision
        x = investment_for_return(sr, 1e-30)
        assert x == pytest.approx(2.5e-61, rel=1e-15, abs=0.0)
        assert sr.required_return(x) == pytest.approx(1e-30, rel=4e-15, abs=0.0)

    def test_return_at_the_cap_stays_inside_the_domain(self):
        rate = scaled_sqrt_ratio(1.0 - 1e-6)
        x = investment_for_return(rate, rate.required_return(rate.domain_cap))
        assert x <= rate.domain_cap
        assert 0.0 < rate.probability(x) < 1e-6

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_rejected(self, sr, t):
        with pytest.raises(DomainError, match="finite"):
            investment_for_return(sr, t)

    @pytest.mark.parametrize("t", ["0.5", b"0.5", bytearray(b"0.5"), None, 1j], ids=repr)
    def test_text_is_not_a_target(self, sr, t):
        # float() would parse the text into a target
        message = f"^target return must be a real number, got {re.escape(repr(t))}$"
        with pytest.raises(DomainError, match=message):
            investment_for_return(sr, t)

    def test_unattainable_target(self, sr):
        with pytest.raises(UnboundedRatioError):
            investment_for_return(sr, sr.required_return(sr.domain_cap) * 1.01)

    def test_targets_outside_the_range_never_evaluate_the_rate(self, sr):
        def p_prime(x):
            raise RuntimeError("evaluated")

        rate = custom_rate("unevaluable", sr.probability, p_prime)
        assert investment_for_return(rate, 0.0) == investment_for_return(rate, -1.0) == 0.0
        with pytest.raises(DomainError, match="finite"):
            investment_for_return(rate, math.nan)

    def test_largest_return_solves_to_the_cap(self, sr):
        assert investment_for_return(sr, sr.max_return) == sr.domain_cap

    def test_nan_max_return_still_solves(self, sr):
        # p' is NaN above 1e5, so the return at the cap bounds nothing;
        # custom_rate refuses a NaN p' where it enters, so the rate is built
        # from unchecked closures
        def p_prime(x):
            return math.nan if x > 1e5 else sr.marginal(x)

        rate = SuccessRate("nan_past_1e5", 0.0, sr.domain_cap, sr.probability, p_prime)
        assert math.isnan(rate.max_return)
        for t in (0.5, 2.0, 1000.0):
            assert investment_for_return(rate, t) == pytest.approx(
                investment_for_return(sr, t), rel=1e-12
            )

    def test_infinite_target_rejected_when_the_return_is_unbounded(self, sr):
        # p' reaches 0 at the cap, so max_return is inf and bounds no target
        rate = custom_rate("flat_at_cap", sr.probability,
                           lambda x: 0.0 if x >= 1e6 else sr.marginal(x))
        assert rate.max_return == math.inf
        with pytest.raises(DomainError, match="finite"):
            investment_for_return(rate, math.inf)

    def test_nan_marginal_raises(self, sr):
        # p' is NaN above 0.3: the bisection used to read NaN as "same
        # sign" and drift to the bracket end, returning about 1.0
        def p_prime(x):
            return math.nan if x > 0.3 else sr.marginal(x)

        rate = custom_rate("nan_above", sr.probability, p_prime)
        with pytest.raises(DomainError):
            investment_for_return(rate, 1.0)


class TestBestResponse:
    def test_equal_split_tail_agents(self, sr, oracle):
        rng = np.random.default_rng(11)
        for _ in range(4):
            x = ConstantTailProfile(tuple(rng.uniform(0, 2, 3)), rng.uniform(0, 2))
            for i in (1, 2, 5):
                assert best_response(sr, equal_split(), x, i) == pytest.approx(
                    oracle.c_star, abs=1e-10
                )

    def test_three_tier_chain(self, sr, ex5_rule, oracle):
        x = ConstantTailProfile((0.0, 0.0), oracle.ex5_x2)
        assert best_response(sr, ex5_rule, x, 1) == pytest.approx(
            oracle.ex5_x1, abs=1e-10
        )
        y = ConstantTailProfile((0.0, oracle.ex5_x1), oracle.ex5_x2)
        assert best_response(sr, ex5_rule, y, 0) == pytest.approx(
            oracle.ex5_x0, abs=1e-10
        )


def _counting_rate(sr, calls):
    # sr's p and p' behind a custom rate that counts each evaluation
    def counted(key, fn):
        def f(x):
            calls[key] += 1
            return fn(x)
        return f

    return custom_rate("counting", counted("p", sr.probability), counted("p'", sr.marginal))


def _transfer(beta, q):
    # a balanced transfer between agents 0 and 1 of the equal split
    return Perturbed(
        equal_split(),
        entries=(((0, 2), -beta * q), ((1, 2), beta * q)),
        column_tails=((0, (3, beta * (1.0 - q))), (1, (3, -beta * (1.0 - q)))),
    )


class TestVerifyReadsOnce:
    """A verification reads ``p`` once per agent of its profile, the tail
    once, for all checked agents, and ``p'`` likewise, in each entry's
    required return."""

    def test_three_tier_equilibrium(self, sr, ex5_rule, ex5_profile):
        calls = {"p": 0, "p'": 0}
        report = verify_equilibrium(_counting_rate(sr, calls), ex5_rule, ex5_profile)
        assert report.supported and len(report.checks) == 3
        assert calls == {"p": 3, "p'": 3}
        assert report == verify_equilibrium(sr, ex5_rule, ex5_profile)

    def test_c_star_under_a_transfer(self, sr, oracle):
        rule = _transfer(0.5, sr.probability(oracle.c_star))
        x = constant_profile(oracle.c_star)
        calls = {"p": 0, "p'": 0}
        report = verify_equilibrium(_counting_rate(sr, calls), rule, x)
        assert report.supported and len(report.checks) == 3
        assert calls == {"p": 1, "p'": 1}
        assert report == verify_equilibrium(sr, rule, x)


class TestVerify:
    def test_equal_split_supports_social_optimum(self, sr, oracle):
        report = verify_equilibrium(sr, equal_split(), constant_profile(oracle.c_star))
        assert report.supported
        assert report.max_residual <= 1e-10
        assert len(report.checks) == 2  # agent 0 and the representative tail agent 1

    def test_equal_split_rejects_first_best(self, sr, oracle):
        report = verify_equilibrium(sr, equal_split(), constant_profile(oracle.c_fb))
        assert not report.supported

    @pytest.mark.parametrize("offset, supported", [(4e-10, True), (4e-9, False)])
    def test_equal_split_just_off_c_star(self, sr, oracle, offset, supported):
        # each residual is about 8.26 times the offset: 3.3e-9 is within
        # TOL_EQ, 3.3e-8 is not
        report = verify_equilibrium(sr, equal_split(), constant_profile(oracle.c_star + offset))
        assert report.max_residual == pytest.approx(8.26 * offset, rel=1e-3)
        assert report.supported is supported

    def test_three_tier_supports_its_equilibrium(self, sr, ex5_rule, ex5_profile):
        report = verify_equilibrium(sr, ex5_rule, ex5_profile)
        assert report.supported
        assert report.max_residual <= 1e-9

    def test_perturbing_the_profile_breaks_support(self, sr, ex5_rule, ex5_profile):
        bent = ConstantTailProfile(
            (ex5_profile.at(0) + 0.01, ex5_profile.at(1)), ex5_profile.tail
        )
        assert not verify_equilibrium(sr, ex5_rule, bent).supported

    def test_zero_profile_supported_by_floor_rule(self, sr):
        rule = fixed_fraction_floor(1.0, 1.0)
        report = verify_equilibrium(sr, rule, constant_profile(0.0))
        assert report.supported
        assert all(c.corner == "zero" for c in report.checks)

    def test_only_zero_is_the_zero_corner(self, sr):
        # the best response to the net return -0.6 is 0, the zero corner;
        # 5e-13 is not 0, so its residual is its first-order gap
        rule = flat_continuation(0.5, 0.1)
        zero = check_agent(sr, rule, ConstantTailProfile((0.0,), 0.05), 0)
        assert zero.corner == "zero" and zero.residual == 0.0
        tiny = check_agent(sr, rule, ConstantTailProfile((5e-13,), 0.05), 0)
        assert tiny.corner == "" and tiny.net_return == pytest.approx(-0.6, abs=1e-12)
        assert tiny.residual == pytest.approx(0.6 + sr.required_return(5e-13), abs=1e-12)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_nan_residual_is_no_support(self, sr, mode):
        # p is NaN above 0.4, so every residual at c = 0.5 is NaN; each
        # tolerance test used to read NaN as passing.  custom_rate refuses
        # the NaN where it enters, so the rate is built from unchecked closures
        rate = SuccessRate("nan_above", 0.0, sr.domain_cap,
                           lambda x: math.nan if x > 0.4 else sr.probability(x), sr.marginal)
        report = verify_equilibrium(rate, equal_split(), constant_profile(0.5), mode=mode)
        assert [math.isnan(c.residual) for c in report.checks] == [True, True]
        assert not report.supported
        assert "agent 0: best-response residual nan" in report.failures
        assert math.isnan(report.max_residual)

    def test_jackpot_tail_never_stabilizes(self, sr):
        with pytest.raises(TailShapeError):
            verify_equilibrium(sr, jackpot(), constant_profile(0.1))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-8])
    def test_bad_tolerance_rejected(self, sr, tol):
        # every residual comparison against a NaN tolerance is false, so
        # verification used to call a far-off profile Supported
        x = constant_profile(0.01)
        with pytest.raises(DomainError):
            verify_equilibrium(sr, equal_split(), x, tol=tol)
        with pytest.raises(DomainError):
            check_agent(sr, equal_split(), x, 1, tol=tol)

    @pytest.mark.parametrize("rate", ["sr", "sr_scaled"])
    @pytest.mark.parametrize("rule", [
        equal_split(),
        fixed_fraction(0.4),
        fixed_fraction_floor(0.6, 0.1),
        flat_continuation(0.6, 0.1),
        next_step_bonus(0.3, 0.05),
        next_step_bonus_zero_initiator(0.3, 0.05),
        three_tier_rule(),
        Mixture(0.37, next_step_bonus(0.3, 0.05), next_step_bonus_zero_initiator(0.3, 0.05)),
        Perturbed(equal_split(), entries=(((0, 2), -0.1), ((1, 2), 0.1)),
                  column_tails=((0, (3, 0.5)), (1, (3, -0.5)))),
    ], ids=lambda r: r.label)
    def test_every_tail_agent_repeats_the_representative_check(self, request, rate, rule):
        # verification checks one tail agent; every later one faces a
        # shifted copy of its column against the same tail, bit for bit
        sr = request.getfixturevalue(rate)
        rng = np.random.default_rng(19)
        profiles = [constant_profile(0.0)] + [
            ConstantTailProfile(tuple(rng.uniform(0, 0.5, rng.integers(0, 4))), rng.uniform(0, 0.3))
            for _ in range(6)
        ]
        for x in profiles:
            first_tail = max(x.prefix_len, rule.stationary_from)
            for mode in Mode:
                chk = check_agent(sr, rule, x, first_tail, mode)
                for d in range(1, 6):
                    later = check_agent(sr, rule, x, first_tail + d, mode)
                    assert later == chk._replace(agent=first_tail + d)

    def test_payoffs_reported(self, sr, oracle):
        report = verify_equilibrium(sr, equal_split(), constant_profile(oracle.c_star))
        payoffs = {chk.agent: chk.payoff for chk in report.checks}
        assert payoffs[0] == pytest.approx(oracle.payoff0_c_star, abs=1e-10)
        assert payoffs[1] == pytest.approx(oracle.payoff_tail_c_star, abs=1e-10)

    @pytest.mark.parametrize("i", [0.5, 2.5])
    def test_non_integer_agent_rejected(self, sr, i):
        # each used to end in a bare TypeError from indexing or range
        x = ConstantTailProfile((0.1, 0.2), 0.05)
        with pytest.raises(DomainError, match=rf"^agent index must be an integer, got {i!r}$"):
            check_agent(sr, equal_split(), x, i)
        with pytest.raises(DomainError, match=rf"^column index must be an integer, got {i!r}$"):
            best_response(sr, equal_split(), x, i)


class TestSelfFinancedVerify:
    def test_optimal_rule_supports_in_sf_mode(self, sr, oracle):
        rule = fixed_fraction_floor(
            sr.required_return(oracle.c_s) + oracle.c_s, oracle.c_s
        )
        profile = near_constant_profile(oracle.x0_s, oracle.c_s)
        report = verify_equilibrium(sr, rule, profile, mode=Mode.SELF_FINANCED)
        assert report.supported
        assert report.max_residual <= 1e-8

    def test_equal_split_fails_sf_budget(self, sr, oracle):
        # tail agents invest c* against a stay-put payment of zero
        report = verify_equilibrium(
            sr, equal_split(), constant_profile(oracle.c_star), mode=Mode.SELF_FINANCED
        )
        assert not report.supported
        assert any("budget" in f for f in report.failures)

    def test_budget_corner_accepted(self, sr):
        # floor below the unconstrained response: agents sit at the corner
        gamma = 0.02
        rule = fixed_fraction_floor(1.0, gamma)
        profile = ConstantTailProfile((investment_for_return(sr, 1.0 - gamma),), gamma)
        unconstrained = verify_equilibrium(sr, rule, profile)
        assert not unconstrained.supported  # tail FOC would ask for more
        constrained = verify_equilibrium(sr, rule, profile, mode=Mode.SELF_FINANCED)
        assert constrained.supported
        tail_checks = [c for c in constrained.checks if c.agent >= 1]
        assert all(c.corner == "budget" for c in tail_checks)

    def test_continuation_below_stay_put_payment_fails(self, sr):
        # a floor of 0.1 above a continuation fraction of 0.05
        rule = fixed_fraction_floor(0.05, 0.1)
        report = verify_equilibrium(sr, rule, ConstantTailProfile((), 0.05), mode=Mode.SELF_FINANCED)
        assert not report.supported
        assert (
            "agent 1: some continuation entry is below the stay-put payment (gap -0.05)"
            in report.failures
        )

    def test_falling_column_tail_fails(self, sr):
        # a column tail that falls, however slowly, ends below any stay-put
        # payment, though every entry it lists is above this one's
        falling = Column(0, (1.0,), 2.0, slope=-4e-10)
        rule = StationaryColumnRule(
            "falling", leading=(falling,), repeating_entries=(0.0,), repeating_tail=1.0
        )
        report = verify_equilibrium(
            sr, rule, constant_profile(0.0), mode=Mode.SELF_FINANCED, tol=1e-3
        )
        assert (
            "agent 0: some continuation entry is below the stay-put payment (gap -inf)"
            in report.failures
        )

    def test_aggregate_inequality_at_sf_equilibrium(self, sr, oracle):
        rule = fixed_fraction_floor(
            sr.required_return(oracle.c_s) + oracle.c_s, oracle.c_s
        )
        profile = near_constant_profile(oracle.x0_s, oracle.c_s)
        value = expected_value(sr, profile)
        assert value >= incentive_cost(sr, profile) + profile.at(0) - 1e-8
        assert implied_value(sr, rule, profile) <= value + 1e-8


class TestModeArgument:
    """A mode is a ``Mode`` or its value string, converted once on entry;
    a value string used to run the unconstrained checks."""

    @staticmethod
    def budget_corner(sr):
        # the tail agents sit at their budget: supported only when self-financed
        gamma = 0.02
        profile = ConstantTailProfile((investment_for_return(sr, 1.0 - gamma),), gamma)
        return fixed_fraction_floor(1.0, gamma), profile

    @pytest.mark.parametrize("mode", list(Mode))
    def test_value_string_runs_its_mode(self, sr, mode):
        rule, profile = self.budget_corner(sr)
        report = verify_equilibrium(sr, rule, profile, mode=mode.value)
        assert report == verify_equilibrium(sr, rule, profile, mode=mode)
        assert report.mode is mode
        assert report.supported == (mode is Mode.SELF_FINANCED)
        chk = check_agent(sr, rule, profile, 1, mode.value)
        assert chk == check_agent(sr, rule, profile, 1, mode)
        assert chk.corner == ("budget" if mode is Mode.SELF_FINANCED else "")

    @pytest.mark.parametrize("mode", ["bogus", "SELF_FINANCED", None, 1, ["self_financed"]])
    def test_other_values_rejected(self, sr, mode):
        rule, profile = self.budget_corner(sr)
        message = f"^mode must be a Mode or one of .*, got {re.escape(repr(mode))}$"
        with pytest.raises(DomainError, match=message):
            verify_equilibrium(sr, rule, profile, mode=mode)
        with pytest.raises(DomainError, match=message):
            check_agent(sr, rule, profile, 0, mode)


class TestBounds:
    def test_values(self, sr_scaled, oracle):
        sched = investment_bounds(sr_scaled)
        assert sched.bound(0) == pytest.approx(oracle.bound0_scaled, abs=1e-10)
        assert sched.bound(5) == pytest.approx(oracle.bound5_scaled, abs=1e-10)

    def test_strictly_increasing(self, sr_scaled):
        sched = investment_bounds(sr_scaled)
        bounds = [sched.bound(i) for i in range(8)]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))

    def test_uncapped_rate_rejected(self, sr):
        with pytest.raises(DomainError):
            investment_bounds(sr)

    def test_uncapped_schedule_built_directly_rejected(self, sr):
        # used to divide by the zero cap: a bare ZeroDivisionError
        with pytest.raises(DomainError, match="^bounds need a positive cap parameter"):
            BoundSchedule(sr).bound(0)

    def test_negative_agent_rejected(self, sr_scaled):
        with pytest.raises(DomainError, match=r"^agent index must be >= 0, got -1$"):
            investment_bounds(sr_scaled).bound(-1)

    @pytest.mark.parametrize("i", [0.5, 2.5, "1"])
    def test_non_integer_agent_rejected(self, i):
        # 0.5 used to give 0.1838, the bound of no agent
        with pytest.raises(DomainError, match=rf"^agent index must be an integer, got {i!r}$"):
            investment_bounds(scaled_sqrt_ratio(0.5)).bound(i)

    def test_schedule_is_its_rate(self, sr_scaled):
        # the cap each bound needs is the rate's own
        assert investment_bounds(sr_scaled) == (sr_scaled,)


class TestDynamics:
    def test_equal_split_converges_immediately(self, sr, oracle):
        result = best_response_dynamics(sr, equal_split(), horizon=6)
        assert result.converged
        assert result.sweeps == 2  # values land in sweep 1, confirmed in sweep 2
        for i in range(6):
            assert result.profile.at(i) == pytest.approx(oracle.c_star, abs=1e-10)

    def test_three_tier_recovers_equilibrium(self, sr, ex5_rule, oracle):
        result = best_response_dynamics(sr, ex5_rule, horizon=8)
        assert result.converged
        assert result.profile.at(0) == pytest.approx(oracle.ex5_x0, abs=5e-4)
        assert result.profile.at(1) == pytest.approx(oracle.ex5_x1, abs=5e-4)
        assert result.profile.at(2) == pytest.approx(oracle.ex5_x2, abs=5e-4)

    def test_deep_horizon_is_exact(self, sr, ex5_rule, oracle):
        result = best_response_dynamics(sr, ex5_rule, horizon=40)
        assert result.profile.at(0) == pytest.approx(oracle.ex5_x0, abs=1e-11)
        assert result.profile.at(2) == pytest.approx(oracle.ex5_x2, abs=1e-11)
        assert result.max_residual <= 1e-10

    @pytest.mark.parametrize("rate", ["sr", "sr_scaled"])
    @pytest.mark.parametrize("make_rule", [
        equal_split,
        lambda: fixed_fraction_floor(0.6, 0.1),
        three_tier_rule,
        jackpot,
        lambda: Mixture(0.5, equal_split(), jackpot()),
        lambda: Perturbed(equal_split(), column_tails=((0, (3, 0.5)), (1, (3, -0.5)))),
    ], ids=["equal_split", "floor", "three_tier", "jackpot", "jackpot_mix", "transfer"])
    def test_undamped_sweep_is_exact(self, request, rate, make_rule):
        # agent i's reward reads only x_j for j > i and the frozen tail, so
        # the first backward sweep is backward induction and the second
        # moves nothing at all
        sr, rule = request.getfixturevalue(rate), make_rule()
        for horizon in (1, 8, 40):
            for init in (None, ConstantTailProfile((0.5, 0.1, 0.3), 0.05)):
                result = best_response_dynamics(sr, rule, horizon, init)
                assert result.converged
                assert result.sweeps == 2
                assert result.max_change == 0.0

    @pytest.mark.parametrize("offset, sweeps", [(0.0, 1), (1e-11, 2)])
    def test_a_pass_that_moves_at_all_is_confirmed(self, sr, offset, sweeps):
        # an init on the answer is confirmed by the first pass; one 1e-11
        # off moves in it, so a second pass confirms
        answer = best_response_dynamics(sr, equal_split(), 3).profile.at(0)
        result = best_response_dynamics(sr, equal_split(), 3, constant_profile(answer + offset))
        assert result.sweeps == sweeps
        assert result.converged and result.max_change == 0.0
        assert result.history[-1] == (answer,) * 3

    def test_moving_confirmation_reports_nonconvergence(self, drifting):
        # the confirming pass moves: reported, not raised
        result = best_response_dynamics(drifting, fixed_fraction(0.4), horizon=3)
        assert not result.converged
        assert result.sweeps == 2
        assert result.max_change > 1e-10
        assert result.history[0] != result.history[1]

    def test_unique_equilibrium_for_constant_column_rules(self, sr):
        # constant columns make responses start-independent: different
        # starting prefixes (same frozen tail) reach the same profile
        for rule in (equal_split(), fixed_fraction(0.4), fixed_fraction_floor(0.6, 0.1)):
            a = best_response_dynamics(sr, rule, horizon=5)
            b = best_response_dynamics(
                sr, rule, horizon=5, init=ConstantTailProfile((1.5, 0.2, 0.9), 0.0)
            )
            for i in range(5):
                assert a.profile.at(i) == pytest.approx(b.profile.at(i), abs=1e-9)

    def test_init_past_horizon_stays_frozen(self, sr):
        # the successors the swept agent answers are init's own (0.3, 0.4),
        # not the tail: dropping them gave 0.1047571 at residual 4e-16
        init = ConstantTailProfile((0.01, 0.3, 0.4), 0.05)
        result = best_response_dynamics(sr, fixed_fraction(0.4), 1, init)
        assert result.profile.prefix[1:] == (0.3, 0.4)
        assert result.profile.tail == 0.05
        want = best_response(sr, fixed_fraction(0.4), init, 0)
        assert result.profile.at(0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.1272200, abs=1e-7)

    def test_jackpot_overinvestment(self, sr_scaled, oracle):
        result = best_response_dynamics(sr_scaled, jackpot(), horizon=12)
        assert result.converged
        xs = [result.profile.at(i) for i in range(12)]
        assert xs[0] <= oracle.c_fb_scaled
        assert all(x > oracle.c_fb_scaled for x in xs[1:11])
        sched = investment_bounds(sr_scaled)
        for step in result.history:
            assert all(step[i] <= sched.bound(i) + 1e-9 for i in range(12))

    def test_jackpot_exceeds_any_fixed_bound(self, sr_scaled):
        # investments grow along the chain, eventually past the level-0 bound
        result = best_response_dynamics(sr_scaled, jackpot(), horizon=12)
        fixed = investment_bounds(sr_scaled).bound(0)
        assert max(result.profile.at(i) for i in range(12)) > fixed

    def test_bad_arguments(self, sr):
        with pytest.raises(DomainError, match="horizon must be >= 1, got 0"):
            best_response_dynamics(sr, equal_split(), horizon=0)

    @pytest.mark.parametrize("horizon", [8.0, 2.5, math.nan, "8"])
    def test_non_integer_horizon_rejected(self, sr, horizon):
        # range() used to raise a bare TypeError
        with pytest.raises(DomainError, match="horizon must be an integer, got "):
            best_response_dynamics(sr, equal_split(), horizon=horizon)

    def test_numpy_integer_horizon_accepted(self, sr):
        result = best_response_dynamics(sr, equal_split(), horizon=np.int64(6))
        assert result == best_response_dynamics(sr, equal_split(), horizon=6)


class TestConstantSupport:
    def test_zero_trivially_supported(self, sr):
        res = constant_support_check(sr, 0.0)
        assert res.supported
        assert verify_equilibrium(sr, res.witness, constant_profile(0.0)).supported

    def test_boundary_witness_is_equal_split(self, sr, oracle):
        res = constant_support_check(sr, oracle.c_star)
        assert res.supported
        assert abs(res.gap) <= 1e-9
        for k in range(6):
            assert res.witness.row(k) == pytest.approx(equal_split().row(k), abs=1e-9)

    def test_interior_witness_verifies(self, sr):
        res = constant_support_check(sr, 0.05)
        assert res.supported
        report = verify_equilibrium(sr, res.witness, constant_profile(0.05))
        assert report.supported and report.max_residual <= 1e-9

    def test_negative_investment_rejected(self, sr):
        # the rate's own domain check, which names the rate
        message = f"^{re.escape(sr.name)}: investment must be >= 0, got -0.01$"
        with pytest.raises(DomainError, match=message):
            constant_support_check(sr, -0.01)

    @pytest.mark.parametrize("c", ["0.05", b"0.05", bytearray(b"0.05"), None], ids=repr)
    def test_text_is_not_an_investment(self, sr, c):
        # the rate's own check, which used to let the text through into the
        # result's investment field
        message = f"^{re.escape(sr.name)}: investment must be a real number, got {re.escape(repr(c))}$"
        with pytest.raises(DomainError, match=message):
            constant_support_check(sr, c)

    def test_first_best_not_supportable(self, sr, oracle):
        res = constant_support_check(sr, oracle.c_fb)
        assert not res.supported
        assert res.gap > 0.0
        assert res.witness is None

    def test_verdict(self, sr, oracle):
        assert constant_support_check(sr, 0.05).verdict == "Supported"
        assert constant_support_check(sr, oracle.c_fb).verdict == "NotSupported"

    @pytest.mark.parametrize("offset, supported", [(1.6e-10, True), (1.6e-9, False)])
    def test_gap_against_the_slack(self, sr, oracle, offset, supported):
        # just past c_star the gap prize(c) - p(c) is about 1.89 times the
        # offset: 3e-10 is within _SUPPORT_TOL, 3e-9 is not
        res = constant_support_check(sr, oracle.c_star + offset)
        assert res.gap == pytest.approx(1.89 * offset, rel=1e-2)
        assert res.supported is supported


class TestNearConstantFeasibility:
    def test_flattened_equilibrium_infeasible(self, sr, oracle):
        res = near_constant_feasibility(sr, oracle.ex5_x0, oracle.ex5_cbar, 0.0)
        assert not res.feasible
        assert res.ratio == pytest.approx(oracle.ex5_ratio_x0, abs=1e-9)
        assert res.lower == pytest.approx(oracle.ex5_lower_at_cbar, abs=1e-9)
        assert res.upper == pytest.approx(oracle.ex5_upper_at_cbar, abs=1e-9)
        assert res.ratio < res.lower

    def test_initiator_optimum_saturates_upper(self, sr, oracle):
        res = near_constant_feasibility(sr, oracle.x0_circ, oracle.c_circ, 0.0)
        assert res.feasible
        assert res.ratio == pytest.approx(res.upper, abs=1e-9)

    def test_diagonal_point_feasible(self, sr, oracle):
        # at the prize = probability point both sides are exactly 1, so the
        # upper bound binds with equality while the lower has full slack
        res = near_constant_feasibility(sr, oracle.c_star, oracle.c_star, 0.0)
        assert res.feasible
        assert res.lower < res.ratio <= res.upper + 1e-12
        assert res.ratio == pytest.approx(1.0, abs=1e-12)

    def test_floor_tightens_both_bounds(self, sr):
        for c in (0.05, 0.1, 0.2):
            l0, u0 = near_constant_feasibility(sr, c, c, 0.0).lower, None
            free = near_constant_feasibility(sr, c, c, 0.0)
            tight = near_constant_feasibility(sr, c, c, c)
            assert tight.lower >= free.lower
            assert tight.upper <= free.upper

    @pytest.mark.parametrize("offset, verdict", [(3e-10, "Feasible"), (3e-9, "Infeasible")])
    def test_return_past_the_upper_edge(self, sr, offset, verdict):
        # the initiator's return may exceed the upper edge by _SUPPORT_TOL
        x0 = _past_the_upper_edge(sr, offset)
        res = near_constant_feasibility(sr, x0, 0.05)
        assert res.ratio - res.upper == pytest.approx(offset, rel=1e-6)
        assert res.verdict == verdict

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.1])
    def test_floor_must_be_finite_and_non_negative(self, sr, gamma):
        # a NaN or infinite floor used to give an Infeasible verdict with NaN bounds
        with pytest.raises(DomainError, match="floor must be finite and >= 0"):
            near_constant_feasibility(sr, 0.06, 0.12, gamma)


def _past_the_upper_edge(sr, offset):
    # the initiator whose required return is ``offset`` past the upper edge
    # of the band at the tail 0.05 and floor 0
    return investment_for_return(sr, near_constant_feasibility(sr, 0.0, 0.05).upper + offset)


class TestSynthesize:
    def test_supports_social_optimum_profile(self, sr, oracle):
        rule = synthesize_rule(sr, oracle.c_star, oracle.c_star, 0.0)
        report = verify_equilibrium(
            sr, rule, constant_profile(oracle.c_star)
        )
        assert report.supported and report.max_residual <= 1e-9

    def test_initiator_optimum_equivalent_to_fixed_fraction(self, sr, oracle):
        rule = synthesize_rule(sr, oracle.x0_circ, oracle.c_circ, 0.0)
        profile = near_constant_profile(oracle.x0_circ, oracle.c_circ)
        assert verify_equilibrium(sr, rule, profile).supported
        # same incentives as the canonical fraction rule: equal net returns
        canonical = fixed_fraction(oracle.alpha_circ)
        for i in (0, 1, 3):
            a = continuation_reward(sr, rule, profile, i) - rule.value(i, i)
            b = continuation_reward(sr, canonical, profile, i) - canonical.value(i, i)
            assert a == pytest.approx(b, abs=1e-9)

    def test_self_financed_optimum_with_floor(self, sr, oracle):
        rule = synthesize_rule(sr, oracle.x0_s, oracle.c_s, oracle.c_s)
        profile = near_constant_profile(oracle.x0_s, oracle.c_s)
        report = verify_equilibrium(sr, rule, profile, mode=Mode.SELF_FINANCED)
        assert report.supported
        for i in range(8):
            assert rule.value(i, i) >= oracle.c_s - 1e-12 or i == 0

    def test_floor_respected_by_all_agents(self, sr):
        gamma = 0.04
        c = 0.09
        x0 = investment_for_return(
            sr, 0.5 * near_constant_feasibility(sr, 0.0, c, gamma).upper
        )
        rule = synthesize_rule(sr, x0, c, gamma)
        for i in range(1, 10):
            assert rule.value(i, i) >= gamma - 1e-12

    def test_zero_initiator_corner(self, sr):
        rule = synthesize_rule(sr, 0.0, 0.05, 0.0)
        report = verify_equilibrium(sr, rule, ConstantTailProfile((0.0,), 0.05))
        assert report.supported

    def test_high_tail_uses_bonus_pair(self, sr):
        c = 0.24  # required return above 1: the bonus endpoints apply
        assert sr.required_return(c) > 1.0
        feas = near_constant_feasibility(sr, 0.0, c, 0.0)
        x0 = investment_for_return(sr, 0.5 * (max(feas.lower, 0.0) + feas.upper))
        rule = synthesize_rule(sr, x0, c, 0.0)
        report = verify_equilibrium(sr, rule, ConstantTailProfile((x0,), c))
        assert report.supported and report.max_residual <= 1e-9

    def test_infeasible_raises(self, sr, oracle):
        with pytest.raises(InfeasibleError):
            synthesize_rule(sr, oracle.ex5_x0, oracle.ex5_cbar, 0.0)

    @pytest.mark.parametrize("offset, kind", [
        (3e-9, None), (3e-10, "endpoint"), (-3e-10, "endpoint"), (-3e-9, "mixture"),
    ])
    def test_target_against_the_slack_of_the_upper_edge(self, sr, offset, kind):
        # a target within _SUPPORT_TOL of the upper endpoint's return gets
        # that endpoint rule; 3e-9 above it is infeasible, and 3e-9 below
        # it gets a mixture
        x0 = _past_the_upper_edge(sr, offset)
        if kind is None:
            with pytest.raises(InfeasibleError, match="is not supportable"):
                synthesize_rule(sr, x0, 0.05)
            return
        rule = synthesize_rule(sr, x0, 0.05)
        assert isinstance(rule, Mixture) is (kind == "mixture")
        assert verify_equilibrium(sr, rule, ConstantTailProfile((x0,), 0.05)).supported

    @pytest.mark.parametrize("x0, c, pair", [
        (0.06, 0.12, "next_step_bonus"), (0.01, 0.05, "fixed_fraction_floor"),
    ])
    def test_band_evaluated_once(self, sr, x0, c, pair):
        # the one band evaluation at the tail, p and p' once each, gives the
        # edges, the tail's required return the endpoint rules take, and
        # the p each endpoint's initiator return reads; p' once more is the
        # initiator's required return.  At (0.12, 0) the tail's required
        # return is above 1, so the bonus pair is built; at (0.05, 0) it is
        # below, so the fixed fraction with floor and the flat continuation
        assert (sr.required_return(c) > 1.0) is (pair == "next_step_bonus")
        calls = {"p": 0, "p'": 0}
        rule = synthesize_rule(_counting_rate(sr, calls), x0, c, 0.0)
        assert rule.label.startswith("mix(") and pair in rule.label
        assert calls == {"p": 1, "p'": 2}


LANDING_RATES = {
    "sqrt": sqrt_ratio,
    "eps0.3": lambda: scaled_sqrt_ratio(0.3),
    "eps0.7071": lambda: scaled_sqrt_ratio(0.7071),
    "custom": lambda: custom_rate("twin", sqrt_ratio().probability, sqrt_ratio().marginal),
}


class TestSynthesisLandsTheInitiator:
    @pytest.mark.parametrize("name", LANDING_RATES)
    def test_net_return_is_the_required_return(self, name):
        # on a fixed grid of tails up to where the band closes, floors 0,
        # 0.1 and the tail itself, and targets across the band: a mixture
        # pays the initiator, by the public API, exactly the required
        # return of x0, and an endpoint pays it within the slack that gave
        # the endpoint
        sr = LANDING_RATES[name]()
        kinds = {"fixed_fraction_floor": 0, "next_step_bonus": 0, "endpoint": 0}
        top = region_curve_intersection(sr)
        for k in range(1, 20):
            c = top * k / 20
            for gamma in (0.0, 0.1, c):
                feas = near_constant_feasibility(sr, 0.0, c, gamma)
                lower = max(feas.lower, 0.0)
                if feas.upper < lower:
                    continue
                for u in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                    x0 = investment_for_return(sr, lower + u * (feas.upper - lower))
                    rule = synthesize_rule(sr, x0, c, gamma)
                    net = continuation_reward(sr, rule, constant_profile(c), 0) - rule.value(0, 0)
                    want = sr.required_return(x0)
                    if not isinstance(rule, Mixture):
                        kinds["endpoint"] += 1
                        assert abs(net - want) <= _SUPPORT_TOL, (c, gamma, u)
                        continue
                    kinds["next_step_bonus" if "next_step_bonus" in rule.label
                          else "fixed_fraction_floor"] += 1
                    # relative, but to at least 1: the net return is the
                    # reward less a stay-put payment of 1, so at the zero
                    # corner (target 0) it lands within rounding of 1
                    assert abs(net - want) <= 1e-13 * max(want, 1.0), (c, gamma, u, rule.label)
        # both endpoint pairs, and the endpoints themselves, are reached
        assert min(kinds.values()) >= 10, kinds


class TestMixingClosure:
    def test_return_weighted_interpolation(self, sr):
        # two supported near-constant profiles with a common tail mix into
        # a supported profile under the return-interpolating weight
        rng = np.random.default_rng(17)
        for _ in range(6):
            c = float(rng.uniform(0.02, 0.22))
            feas = near_constant_feasibility(sr, 0.0, c, 0.0)
            lo, hi = max(feas.lower, 0.0), feas.upper
            ra, rb = sorted(rng.uniform(lo + 1e-6, hi - 1e-6, size=2))
            if rb - ra < 1e-9:
                continue
            xa, xb = investment_for_return(sr, ra), investment_for_return(sr, rb)
            rule_a = synthesize_rule(sr, xa, c, 0.0)
            rule_b = synthesize_rule(sr, xb, c, 0.0)
            for lam in (0.25, 0.5, 0.75):
                x_mid = lam * xb + (1.0 - lam) * xa
                r_mid = sr.required_return(x_mid)
                weight = (r_mid - ra) / (rb - ra)
                mixed = Mixture(weight, rule_b, rule_a)
                report = verify_equilibrium(
                    sr, mixed, ConstantTailProfile((x_mid,), c)
                )
                assert report.supported, (c, lam)


class TestInitiatorCap:
    def test_supported_initiators_stay_below_first_best(self, sr):
        # the upper support bound is maximized at the initiator optimum,
        # itself below the first best; random feasible pairs obey the cap
        from seqinvest import first_best_investment

        c_fb = first_best_investment(sr)
        rng = np.random.default_rng(23)
        for _ in range(40):
            c = float(rng.uniform(0.005, 0.24))
            feas = near_constant_feasibility(sr, 0.0, c, 0.0)
            lo, hi = max(feas.lower, 0.0), feas.upper
            if hi <= lo:
                continue
            x0 = investment_for_return(sr, float(rng.uniform(lo, hi)))
            assert near_constant_feasibility(sr, x0, c, 0.0).feasible
            assert x0 <= c_fb + 1e-9

    def test_verified_profiles_respect_cap(self, sr, ex5_profile, oracle):
        assert ex5_profile.at(0) <= oracle.c_fb + 1e-9
        assert oracle.x0_circ <= oracle.c_fb + 1e-9
        assert oracle.x0_s <= oracle.c_fb + 1e-9


class TestAggregateIdentities:
    def test_value_matches_implied_value_when_supported(
        self, sr, ex5_rule, ex5_profile, oracle
    ):
        cases = [
            (equal_split(), constant_profile(oracle.c_star)),
            (fixed_fraction(oracle.alpha_circ), near_constant_profile(oracle.x0_circ, oracle.c_circ)),
            (ex5_rule, ex5_profile),
        ]
        for rule, profile in cases:
            assert verify_equilibrium(sr, rule, profile).supported
            value = expected_value(sr, profile)
            assert implied_value(sr, rule, profile) == pytest.approx(value, abs=1e-8)
            assert value - 1.0 >= incentive_cost(sr, profile) - 1e-8
