"""Monte Carlo engine: distribution, consistency with closed forms,
exact closure past the thinning cap, reproducibility, and shard
independence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from seqinvest import (
    ChainCapError,
    ConstantTailProfile,
    DomainError,
    PayoffStat,
    Perturbed,
    SimulationConfig,
    constant_profile,
    custom_rate,
    equal_split,
    expected_investment,
    expected_payoff,
    expected_value,
    expected_welfare,
    fixed_fraction,
    fixed_fraction_floor,
    jackpot,
    summarize,
    synthesize_rule,
    terminal_histogram,
)
from seqinvest.simulate import _stat


class TestEpisodeOutcomes:
    def test_zero_profile_stops_immediately(self, sr):
        # p(0) = 0: every chain ends at agent 0, who keeps the unit value
        config = SimulationConfig(episodes=1_000, seed=0)
        summary = summarize(sr, constant_profile(0.0), equal_split(), config)
        assert summary.histogram == (1_000,)
        assert summary.payoffs == (PayoffStat(0, 1_000, 1.0, 0.0),)

    def test_row_balance_realized(self, sr, ex5_rule, ex5_profile):
        # realized payouts sum to the created value minus sunk
        # investments, so the reach-weighted payoff means add up to the
        # welfare of all episodes
        config = SimulationConfig(episodes=20_000, seed=1, payoff_horizon=10_000)
        summary = summarize(sr, ex5_profile, ex5_rule, config)
        assert len(summary.payoffs) == len(summary.histogram)
        paid = sum(pay.reached * pay.mean for pay in summary.payoffs)
        assert paid == pytest.approx(summary.episodes * summary.welfare.mean, rel=1e-12)


class TestGeometricLaw:
    def test_chi_square_fit(self, sr, oracle):
        # terminal index of a constant profile is geometric with
        # success probability p(c)
        config = SimulationConfig(episodes=200_000, seed=31)
        profile = constant_profile(oracle.c_star)
        hist, discarded = terminal_histogram(sr, profile, config)
        assert discarded == 0
        p = sr.probability(oracle.c_star)
        n = hist.sum()
        # merge the far tail so expected counts stay comfortably large
        cut = 8
        observed = np.concatenate([hist[:cut], [hist[cut:].sum()]])
        expected = np.array(
            [n * (1 - p) * p**j for j in range(cut)] + [n * p**cut]
        )
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.001


class TestSummaryConsistency:
    def test_matches_closed_forms_within_three_se(self, sr, oracle):
        config = SimulationConfig(episodes=300_000, seed=7)
        profile = constant_profile(oracle.c_star)
        rule = equal_split()
        summary = summarize(sr, profile, rule, config)
        checks = [
            (summary.total_value, expected_value(sr, profile)),
            (summary.total_investment, expected_investment(sr, profile)),
            (summary.welfare, expected_welfare(sr, profile)),
        ]
        for stat, truth in checks:
            assert abs(stat.mean - truth) <= 3.0 * stat.se
        for i in (0, 1, 2):
            truth = expected_payoff(sr, rule, profile, i)
            pay = summary.payoffs[i]
            assert abs(pay.mean - truth) <= 3.0 * pay.se

    def test_value_is_terminal_plus_one_exactly(self, sr, oracle):
        config = SimulationConfig(episodes=50_000, seed=9)
        summary = summarize(sr, constant_profile(oracle.c_star), equal_split(), config)
        assert summary.total_value.mean == summary.terminal_index.mean + 1.0

    def test_welfare_equals_value_minus_investment_in_means(self, sr, oracle):
        config = SimulationConfig(episodes=50_000, seed=9)
        summary = summarize(sr, constant_profile(oracle.c_star), equal_split(), config)
        assert summary.welfare.mean == pytest.approx(
            summary.total_value.mean - summary.total_investment.mean, abs=1e-12
        )


class TestReproducibility:
    def test_bit_identical_rerun(self, sr, ex5_rule, ex5_profile):
        config = SimulationConfig(episodes=100_000, seed=123)
        a = summarize(sr, ex5_profile, ex5_rule, config)
        b = summarize(sr, ex5_profile, ex5_rule, config)
        assert a == b

    def test_seed_changes_output(self, sr, oracle):
        profile = constant_profile(oracle.c_star)
        a = summarize(sr, profile, equal_split(), SimulationConfig(episodes=10_000, seed=1))
        b = summarize(sr, profile, equal_split(), SimulationConfig(episodes=10_000, seed=2))
        assert a.histogram != b.histogram

    def test_shard_plan_deterministic(self, sr, oracle):
        profile = constant_profile(oracle.c_star)
        config = SimulationConfig(episodes=40_000, seed=5, shards=4)
        assert summarize(sr, profile, equal_split(), config) == summarize(
            sr, profile, equal_split(), config
        )


class TestSharding:
    def test_sharded_matches_single_stream_in_distribution(self, sr, oracle):
        profile = constant_profile(oracle.c_star)

        def samples(config):
            # the terminal index of every episode, expanded from the histogram
            hist, _ = terminal_histogram(sr, profile, config)
            return np.repeat(np.arange(hist.size), hist)

        single = samples(SimulationConfig(episodes=120_000, seed=41))
        sharded = samples(SimulationConfig(episodes=120_000, seed=42, shards=8))
        result = stats.ks_2samp(single, sharded)
        assert result.pvalue > 0.001

    def test_shard_counts_partition_episodes(self, sr, oracle):
        config = SimulationConfig(episodes=99_999, seed=3, shards=7)
        hist, discarded = terminal_histogram(sr, constant_profile(oracle.c_star), config)
        assert hist.sum() + discarded == config.episodes


class TestDiscards:
    def test_long_chains_closed_without_discards(self, sr):
        # p(10) ~ 0.76: with 3 thinning steps many episodes outlive them,
        # and the geometric closure places them exactly
        config = SimulationConfig(episodes=5_000, seed=11, max_chain_length=3)
        profile = constant_profile(10.0)
        summary = summarize(sr, profile, equal_split(), config)
        assert summary.discarded == 0
        assert summary.episodes == config.episodes
        assert len(summary.histogram) > 3
        hist = np.asarray(summary.histogram)
        p = sr.probability(10.0)
        n = hist.sum()
        # every bin up to the cut, the rest of the histogram in one bin
        cut = 15
        observed = np.concatenate([hist[:cut], [hist[cut:].sum()]])
        expected = np.array([n * (1 - p) * p**j for j in range(cut)] + [n * p**cut])
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_capped_long_chains_match_closed_forms(self, sr):
        # p(1e5) ~ 0.9968, mean chain ~317: 50 thinning steps leave most
        # episodes to the closure, which must not bias any mean
        config = SimulationConfig(episodes=100_000, seed=50, max_chain_length=50)
        profile = constant_profile(1e5)
        rule = equal_split()
        summary = summarize(sr, profile, rule, config)
        assert summary.discarded == 0
        checks = [
            (summary.total_value, expected_value(sr, profile)),
            (summary.total_investment, expected_investment(sr, profile)),
            (summary.welfare, expected_welfare(sr, profile)),
        ] + [(summary.payoffs[i], expected_payoff(sr, rule, profile, i)) for i in (0, 1, 2)]
        for stat, truth in checks:
            assert abs(stat.mean - truth) <= 4.0 * stat.se

    def test_histogram_counts_match_episode_count(self, sr, ex5_rule, ex5_profile):
        config = SimulationConfig(episodes=20_000, seed=13)
        summary = summarize(sr, ex5_profile, ex5_rule, config)
        assert sum(summary.histogram) == summary.episodes


# (rule, profile, config overrides) for one aggregation check; callables
# taking (sr, oracle, ex5_rule, ex5_profile), so a case builds only its own rule
_AGGREGATION_CASES = {
    "three_tier": lambda sr, o, rule, prof: (rule, prof, {}),
    "affine_tail": lambda sr, o, rule, prof: (
        fixed_fraction(0.7), ConstantTailProfile((0.0994,), 0.0264), {}
    ),
    # pattern from column 1 on
    "equal_split@c*": lambda sr, o, rule, prof: (
        equal_split(), ConstantTailProfile((), o.c_star), {}
    ),
    # two-entry pattern after one leading column
    "fraction_floor@s": lambda sr, o, rule, prof: (
        fixed_fraction_floor(o.alpha_s, o.c_s), ConstantTailProfile((o.x0_s,), o.c_s), {}
    ),
    # drifting pattern: no stationary column
    "jackpot": lambda sr, o, rule, prof: (jackpot(), ConstantTailProfile((0.2,), 0.5), {}),
    "perturbed": lambda sr, o, rule, prof: (
        Perturbed(
            equal_split(),
            entries=(((0, 1), -0.25), ((1, 1), 0.25)),
            column_tails=((0, (3, 0.5)), (1, (3, -0.5))),
        ),
        ConstantTailProfile((0.2,), 0.3),
        {},
    ),
    "synthesized_mixture": lambda sr, o, rule, prof: (
        synthesize_rule(sr, 0.03, 0.05), ConstantTailProfile((0.03,), 0.05), {}
    ),
    # the histogram ends well before the last reported agent
    "short_histogram": lambda sr, o, rule, prof: (
        fixed_fraction_floor(o.alpha_s, o.c_s),
        ConstantTailProfile((), o.c_star),
        {"payoff_horizon": 40},
    ),
    "shards=3": lambda sr, o, rule, prof: (
        equal_split(), ConstantTailProfile((), o.c_star), {"shards": 3}
    ),
    # stationary agents inside the prefix, each investing differently: the
    # shared net-reward row is rebuilt for each of them
    "stationary_in_prefix": lambda sr, o, rule, prof: (
        equal_split(), ConstantTailProfile((0.1, 0.2, 0.05, 0.3), 0.08), {}
    ),
}


class TestAggregation:
    @pytest.mark.parametrize("case", list(_AGGREGATION_CASES))
    def test_matches_scalar_reaggregation(self, sr, oracle, ex5_rule, ex5_profile, case):
        # the vectorized sums equal a re-aggregation through rule.value
        rule, profile, overrides = _AGGREGATION_CASES[case](sr, oracle, ex5_rule, ex5_profile)
        config = SimulationConfig(**{"episodes": 30_000, "seed": 23, "payoff_horizon": 6, **overrides})
        summary = summarize(sr, profile, rule, config)
        hist = np.asarray(summary.histogram)
        investments = np.cumsum([profile.at(j) for j in range(hist.size)])
        assert summary.total_investment == _stat(hist, investments, hist.sum())
        assert len(summary.payoffs) == min(config.payoff_horizon + 1, hist.size)
        for pay in summary.payoffs:
            i = pay.agent
            rewards = np.array([rule.value(i, k) for k in range(i, hist.size)])
            stat = _stat(hist[i:], rewards - profile.at(i), hist[i:].sum())
            assert pay.reached == hist[i:].sum()
            # exact equality, NaN standard errors (one episode) included
            np.testing.assert_equal((pay.mean, pay.se), (stat.mean, stat.se))
        if case == "short_histogram":
            assert hist.size <= config.payoff_horizon
        if case == "stationary_in_prefix":
            assert rule.stationary_from < len(profile.prefix) < config.payoff_horizon < hist.size

    @pytest.mark.parametrize("counts", [
        [1],
        [0, 0, 1],
        [3, 0, 5, 1],
        [999_983, 1_000_003, 12, 0, 999_999, 7, 1],
    ], ids=repr)
    def test_stat_same_bits_on_int_and_float_weights(self, counts):
        # summarize passes float64 weights; dot casts an int64 histogram to
        # the same values, so both give the same bits
        hist = np.asarray(counts, dtype=np.int64)
        values = np.linspace(-0.37, 2.9, hist.size) ** 3
        before = values.copy()
        n = int(hist.sum())
        exact = _stat(hist, values, n)
        floats = _stat(hist.astype(np.float64), values, n)
        assert [v.hex() for v in floats] == [v.hex() for v in exact]
        np.testing.assert_array_equal(values, before)  # values left as they are


class TestThinning:
    def test_no_prefix_probability_after_the_last_episode(self, sr):
        # agent 1 invests nothing, so every episode has stopped by then:
        # the probabilities of agents 2 and 3 are never needed
        seen = []
        counting = custom_rate(
            "counting", lambda x: seen.append(x) or sr.probability(x), sr.marginal
        )
        x = ConstantTailProfile((0.3, 0.0, 0.2, 0.05), 0.1)
        hist, _ = terminal_histogram(counting, x, SimulationConfig(episodes=1000, seed=3))
        assert hist.size == 2 and hist.sum() == 1000
        assert seen == [0.1, 0.3, 0.0]


class TestBadRates:
    @pytest.mark.parametrize("p_tail", [1.0, 1.0 - 1e-12])
    def test_tail_that_never_fails(self, p_tail):
        # p_tail == 1 has no geometric closure; 1 - 1e-12 would need a
        # histogram of ~1e12 rows
        rate = custom_rate("sticky", lambda x: p_tail if x > 0.0 else 0.0, lambda x: 0.0)
        config = SimulationConfig(episodes=100, seed=1, max_chain_length=5)
        with pytest.raises(ChainCapError):
            summarize(rate, constant_profile(1.0), equal_split(), config)

    @pytest.mark.parametrize("p", [math.nan, 1.5, -0.25])
    def test_probability_outside_unit_interval(self, sr, p):
        bad = custom_rate("bad", lambda x: p if x > 0.5 else sr.probability(x), sr.marginal)
        config = SimulationConfig(episodes=100, seed=1)
        with pytest.raises(DomainError):
            summarize(bad, ConstantTailProfile((1.0,), 0.1), equal_split(), config)
        with pytest.raises(DomainError):
            summarize(bad, constant_profile(1.0), equal_split(), config)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("episodes", 0), ("seed", -1), ("max_chain_length", 0), ("shards", 0), ("payoff_horizon", -1),
        # a float used to be rounded (1,001 episodes) or to reach numpy or
        # range as a bare TypeError
        ("episodes", 1000.7), ("seed", 1.5), ("shards", 2.0), ("payoff_horizon", 2.5),
        ("max_chain_length", 3.5), ("episodes", math.nan), ("seed", "3"),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        # a negative seed used to reach numpy, which raised a plain ValueError
        wording = ">= " if isinstance(value, int) else "an integer, got "
        with pytest.raises(DomainError, match=f"{field} must be {wording}"):
            SimulationConfig(**{field: value})

    def test_integer_types_accepted(self):
        # what operator.index accepts: numpy integers and bools too
        config = SimulationConfig(episodes=np.int64(5), seed=True, shards=np.uint8(2))
        assert (config.episodes, config.seed, config.shards) == (5, 1, 2)


class TestEngineProperties:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        episodes=st.integers(1, 5_000),
        shards=st.integers(1, 4),
        cap=st.integers(1, 20),
        prefix=st.lists(st.floats(0.0, 50.0), min_size=0, max_size=3),
        tail=st.floats(0.0, 1e4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_episode_counted_and_reproducible(
        self, sr, episodes, shards, cap, prefix, tail, seed
    ):
        profile = ConstantTailProfile(tuple(prefix), tail)
        config = SimulationConfig(
            episodes=episodes, seed=seed, max_chain_length=cap, shards=shards
        )
        summary = summarize(sr, profile, equal_split(), config)
        assert sum(summary.histogram) == episodes
        assert summary.episodes == episodes
        assert summary.discarded == 0
        assert summarize(sr, profile, equal_split(), config) == summary


class TestPayoffConditioning:
    def test_reached_counts_decrease(self, sr, ex5_rule, ex5_profile):
        config = SimulationConfig(episodes=50_000, seed=17, payoff_horizon=5)
        summary = summarize(sr, ex5_profile, ex5_rule, config)
        reached = [p.reached for p in summary.payoffs]
        assert reached[0] == summary.episodes
        assert all(b <= a for a, b in zip(reached, reached[1:]))

    def test_near_constant_fixture_payoffs(self, sr, ex5_rule, ex5_profile, oracle):
        config = SimulationConfig(episodes=400_000, seed=19)
        summary = summarize(sr, ex5_profile, ex5_rule, config)
        for i, truth in ((0, oracle.ex5_payoff0), (1, oracle.ex5_payoff1), (2, oracle.ex5_payoff2)):
            pay = summary.payoffs[i]
            assert abs(pay.mean - truth) <= 3.0 * pay.se


    def test_identical_payoffs_have_exact_mean_and_zero_se(self, sr):
        # agent 5 is reached 13 times and all 13 fail: 13 equal payoffs,
        # whose mean is the payoff itself and whose sample SE is exactly 0
        config = SimulationConfig(episodes=20_000, seed=311)
        summary = summarize(sr, constant_profile(0.0883), equal_split(), config)
        pay = summary.payoffs[5]
        assert summary.histogram[5:] == (pay.reached,)
        assert (pay.mean, pay.se) == (-0.0883, 0.0)


# (rule, profile, max_chain_length) for the calibration sweep
_CALIBRATION_CASES = {
    "equal_split@c*": lambda o, ex5_rule, ex5_profile: (
        equal_split(), constant_profile(o.c_star), 10_000
    ),
    "three_tier@ex5": lambda o, ex5_rule, ex5_profile: (ex5_rule, ex5_profile, 10_000),
    # p(1e5) ~ 0.9968: 8 thinning steps leave almost every chain to the closure
    "equal_split@1e5,cap=8": lambda o, ex5_rule, ex5_profile: (
        equal_split(), constant_profile(1e5), 8
    ),
}


class TestCalibration:
    """Pooled over 200 seeds, each estimate is unbiased and its standard
    error matches the spread of the estimates over seeds.

    Per-seed z-scores are not averaged: a payoff with few failures
    divides by its own noisy SE, which biases the mean z.
    """

    SEEDS = range(200)

    @pytest.mark.parametrize("case", list(_CALIBRATION_CASES))
    def test_pooled_error_and_variance_ratio(self, sr, oracle, ex5_rule, ex5_profile, case):
        rule, profile, cap = _CALIBRATION_CASES[case](oracle, ex5_rule, ex5_profile)
        truths = {
            "value": expected_value(sr, profile),
            "investment": expected_investment(sr, profile),
            "welfare": expected_welfare(sr, profile),
        }
        truths.update(
            (f"payoff_{i}", expected_payoff(sr, rule, profile, i)) for i in range(9)
        )
        estimates: dict[str, list[tuple[float, float, int]]] = {name: [] for name in truths}
        for seed in self.SEEDS:
            config = SimulationConfig(episodes=20_000, seed=seed, max_chain_length=cap)
            summary = summarize(sr, profile, rule, config)
            for name, stat in (
                ("value", summary.total_value),
                ("investment", summary.total_investment),
                ("welfare", summary.welfare),
            ):
                estimates[name].append((stat.mean, stat.se, summary.episodes))
            for pay in summary.payoffs:
                estimates[f"payoff_{pay.agent}"].append((pay.mean, pay.se, pay.reached))
        checked = 0
        for name, rows in estimates.items():
            if len(rows) < len(self.SEEDS) or min(n for _, _, n in rows) < 1_000:
                continue
            means = np.array([m for m, _, _ in rows])
            se2 = np.array([se for _, se, _ in rows]) ** 2
            unit = math.sqrt(se2.mean() / len(rows))
            assert abs(means.mean() - truths[name]) <= 4.0 * unit, name
            assert 0.72 <= means.var(ddof=1) / se2.mean() <= 1.33, name
            checked += 1
        assert checked >= 5
