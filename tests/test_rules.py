"""Rule families, balance validation, and the payoff functionals.

The continuation-reward closed forms are cross-checked two ways: against
hand-derived per-family formulas for constant-tail profiles, and against
brute-force truncated series.
"""

import numpy as np
import pytest

from seqinvest import (
    ConstantTailProfile,
    DomainError,
    Mixture,
    Perturbed,
    RuleConstructionError,
    constant_profile,
    continuation_reward,
    equal_split,
    expected_payoff,
    expected_value,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    implied_value,
    incentive_cost,
    jackpot,
    near_constant_profile,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    rule_from_config,
)
from seqinvest.rules import Column, StationaryColumnRule
from conftest import three_tier_rule


def brute_reward(sr, rule, x, i, terms=400):
    """Truncated direct sum of the continuation-reward series."""
    total = 0.0
    reach = 1.0
    for k in range(i + 1, i + 1 + terms):
        pk = sr.probability(x.at(k))
        total += reach * (1.0 - pk) * rule.value(i, k)
        reach *= pk
    return total


ALL_RULES = [
    equal_split(),
    fixed_fraction(0.0),
    fixed_fraction(0.5),
    fixed_fraction(1.0),
    fixed_fraction_floor(0.7, 0.2),
    fixed_fraction_floor(1.0, 1.0),
    jackpot(),
    flat_continuation(0.6, 0.1),
    next_step_bonus(0.8, 0.3),
    next_step_bonus_zero_initiator(0.8, 0.3),
    three_tier_rule(),
]


class TestMatrices:
    def test_equal_split_rows(self):
        rule = equal_split()
        assert rule.row(0) == [1.0]
        assert rule.row(1) == [2.0, 0.0]
        assert rule.row(3) == [2.0, 1.0, 1.0, 0.0]
        assert rule.value(0, 1) == 2.0
        assert rule.value(1, 3) == 1.0
        assert rule.value(3, 3) == 0.0

    def test_fixed_fraction_rows(self):
        rule = fixed_fraction(0.5)
        assert rule.row(2) == [3.0 - 0.5, 0.5, 0.0]
        assert rule.value(0, 3) == 4.0 - 2.0 * 0.5

    def test_equal_split_is_unit_fraction(self):
        a, b = equal_split(), fixed_fraction(1.0)
        for k in range(8):
            assert a.row(k) == b.row(k)

    def test_fraction_floor_rows(self):
        rule = fixed_fraction_floor(0.7, 0.2)
        assert rule.row(1) == pytest.approx([1.8, 0.2])
        assert rule.row(3) == pytest.approx([4 - 1.4 - 0.2, 0.7, 0.7, 0.2])

    def test_jackpot_rows(self):
        rule = jackpot()
        assert rule.row(1) == [2.0, 0.0]
        assert rule.row(2) == [1.0, 2.0, 0.0]
        assert rule.row(3) == [1.0, 0.0, 3.0, 0.0]
        assert rule.value(2, 3) == 3.0
        assert rule.value(1, 3) == 0.0
        assert rule.value(0, 3) == 1.0

    def test_flat_continuation_rows(self):
        a, g = 0.6, 0.1
        rule = flat_continuation(a, g)
        assert rule.row(1) == pytest.approx([a - g, 2 - a + g])
        assert rule.row(3) == pytest.approx([a - g, 2.0, 1.0, 1 - a + g])

    def test_next_step_bonus_rows(self):
        b, g = 0.8, 0.3
        rule = next_step_bonus(b, g)
        assert rule.row(2) == pytest.approx([2 - b - g, 1 + b, g])
        assert rule.row(3) == pytest.approx([2 - b - g, 1.0, 1 + b, g])

    def test_zero_initiator_bonus_rows(self):
        b, g = 0.8, 0.3
        rule = next_step_bonus_zero_initiator(b, g)
        assert rule.row(1) == pytest.approx([b, 2 - b])
        assert rule.row(2) == pytest.approx([0.0, 3 - g, g])
        assert rule.row(4) == pytest.approx([0.0, 3 - b - g, 1.0, 1 + b, g])

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            equal_split().value(2, 1)
        with pytest.raises(DomainError):
            equal_split().value(-1, 0)
        with pytest.raises(DomainError, match="precedes column start"):
            Column(3, (0.0,), 1.0).value(2)
        # there is no row -1; it used to read as an empty row
        with pytest.raises(DomainError, match=r"^row index must be >= 0, got -1$"):
            equal_split().row(-1)

    @pytest.mark.parametrize(
        "rule",
        [
            equal_split(),
            Mixture(0.5, equal_split(), fixed_fraction(0.3)),
            Perturbed(equal_split(), column_tails=((0, (3, 0.5)), (1, (3, -0.5)))),
        ],
        ids=lambda r: r.label,
    )
    def test_negative_column_index(self, sr, rule):
        # -1 must not wrap around to the last leading column
        with pytest.raises(DomainError):
            rule.column(-1)
        with pytest.raises(DomainError, match=r"^column index must be >= 0, got -1$"):
            continuation_reward(sr, rule, constant_profile(0.2), -1)

    @pytest.mark.parametrize("call, name, value", [
        # the first used to build Column(start=2.5, ...), the third to give
        # 4.25, read off the initiator's affine tail
        (lambda: equal_split().column(2.5), "column index", 2.5),
        (lambda: equal_split().column("1"), "column index", "1"),
        (lambda: fixed_fraction(0.5).value(0, 5.5), "row index", 5.5),
        (lambda: fixed_fraction(0.5).value(0.5, 5), "column index", 0.5),
        (lambda: fixed_fraction(0.5).row(2.5), "row index", 2.5),
        (lambda: Column(0, (1.0,), 2.0, 0.5).value(5.5), "row index", 5.5),
        (lambda: Column(0, (1.0,), 2.0, 0.5).value(None), "row index", None),
    ], ids=["column", "column_str", "value_row", "value_column", "row", "Column.value",
            "Column.value_none"])
    def test_non_integer_index_rejected(self, call, name, value):
        with pytest.raises(DomainError, match=rf"^{name} must be an integer, got {value!r}$"):
            call()

    @pytest.mark.parametrize("i", [0.5, 2.5])
    def test_payoff_functionals_reject_a_non_integer_agent(self, sr, i):
        # each used to end in a bare TypeError from indexing or range
        x = ConstantTailProfile((0.1, 0.2), 0.05)
        with pytest.raises(DomainError, match=rf"^column index must be an integer, got {i!r}$"):
            continuation_reward(sr, equal_split(), x, i)
        with pytest.raises(DomainError, match=rf"^agent index must be an integer, got {i!r}$"):
            expected_payoff(sr, equal_split(), x, i)

    def test_numpy_integer_index(self):
        rule = fixed_fraction(0.5)
        for i in (0, 1, 3):
            col = rule.column(np.int64(i))
            assert col == rule.column(i) and type(col.start) is int
        assert rule.value(np.int64(0), np.int32(5)) == rule.value(0, 5)
        assert rule.row(np.int64(3)) == rule.row(3)
        assert Column(0, (1.0,), 2.0, 0.5).value(np.int64(5)) == 4.0


class TestConstruction:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label)
    def test_balance_and_nonnegativity(self, rule):
        for k in range(65):
            row = rule.row(k)
            assert min(row) >= -1e-9
            assert sum(row) == pytest.approx(k + 1, abs=1e-9)

    def test_row_zero_pins_initiator(self):
        for rule in ALL_RULES:
            assert rule.value(0, 0) == 1.0

    def test_fraction_out_of_range(self):
        with pytest.raises(RuleConstructionError):
            fixed_fraction(1.5)
        with pytest.raises(RuleConstructionError):
            fixed_fraction_floor(0.5, 2.5)
        for alpha in (-0.5, 1.5):
            with pytest.raises(RuleConstructionError, match="alpha"):
                fixed_fraction_floor(alpha, 0.5)

    def test_malformed_form_rejected(self):
        with pytest.raises(RuleConstructionError, match="diagonal entry"):
            Column(0, (), 2.0)
        with pytest.raises(RuleConstructionError, match="declares start 1"):
            StationaryColumnRule("s", (Column(1, (1.0,), 2.0),), (0.0,), 1.0)
        with pytest.raises(RuleConstructionError, match="repeating pattern"):
            StationaryColumnRule("s", (Column(0, (1.0,), 2.0),), (), 1.0)

    def test_negative_tail_slope_rejected(self):
        # rows balance through row K + 1 = 4, but column 0 falls by 0.5 a
        # row and turns negative from row 5 on
        leading = (Column(0, (1.0,), 2.0, slope=-0.5), Column(1, (0.0,), 1.5, slope=0.5))
        with pytest.raises(RuleConstructionError, match="column 0 tail eventually negative"):
            StationaryColumnRule("sloped", leading, (0.0,), 1.0)

    def test_unbalanced_perturbation_rejected(self):
        with pytest.raises(RuleConstructionError):
            Perturbed(equal_split(), entries=(((0, 2), 0.5),))

    def test_negative_entry_perturbation_rejected(self):
        with pytest.raises(RuleConstructionError):
            Perturbed(
                equal_split(),
                entries=(((0, 2), 1.5), ((1, 2), -1.5)),  # drives f(1,2) below 0
            )

    def test_nan_entries_rejected(self):
        nan = float("nan")
        with pytest.raises(RuleConstructionError):
            flat_continuation(nan, 0.1)
        with pytest.raises(RuleConstructionError):
            Perturbed(equal_split(), entries=(((0, 2), nan), ((1, 2), -nan)))

    def test_tail_deltas_must_cancel(self):
        # the one balance bound names the first unbalanced row
        with pytest.raises(RuleConstructionError, match="row 2 sums to 3.25, expected 3"):
            Perturbed(equal_split(), column_tails=((0, (2, 0.25)),))

    def test_perturbation_outside_the_matrix(self):
        with pytest.raises(RuleConstructionError, match="invalid cell"):
            Perturbed(equal_split(), entries=(((2, 1), 0.5),))
        for k0 in (0, 1):
            with pytest.raises(RuleConstructionError, match="after the diagonal"):
                Perturbed(equal_split(), column_tails=((1, (k0, 0.5)),))

    @pytest.mark.parametrize("kwargs, field, value", [
        # truncated, these built the balanced transfer on cell (0, 2)
        ({"entries": (((0.9, 2), -0.1), ((1, 2), 0.1))}, "entries column", 0.9),
        ({"entries": (((0, 2.7), -0.1), ((1, 2), 0.1))}, "entries row", 2.7),
        ({"entries": (((0, 2.0), -0.1), ((1, 2), 0.1))}, "entries row", 2.0),
        # truncated, these moved the tails from row 3
        ({"column_tails": ((0.5, (3, 0.5)), (1, (3, -0.5)))}, "column_tails column", 0.5),
        ({"column_tails": ((0, (3.9, 0.5)), (1, (3, -0.5)))}, "column_tails start", 3.9),
        ({"column_tails": ((0, ("3", 0.5)), (1, (3, -0.5)))}, "column_tails start", "3"),
    ])
    def test_non_integer_indices_rejected(self, kwargs, field, value):
        with pytest.raises(DomainError, match=rf"^{field} must be an integer, got {value!r}$"):
            Perturbed(equal_split(), **kwargs)

    def test_numpy_integer_indices_accepted(self):
        i, k = np.int64(0), np.int32(2)
        rule = Perturbed(equal_split(), entries=(((i, k), -0.1), ((np.uint8(1), k), 0.1)),
                         column_tails=((i, (np.int16(3), 0.5)), (1, (3, -0.5))))
        plain = Perturbed(equal_split(), entries=(((0, 2), -0.1), ((1, 2), 0.1)),
                          column_tails=((0, (3, 0.5)), (1, (3, -0.5))))
        assert [rule.row(k) for k in range(6)] == [plain.row(k) for k in range(6)]
        assert all(type(col.start) is int for col in rule.leading)

    def test_mixture_weight_range(self):
        with pytest.raises(RuleConstructionError):
            Mixture(1.5, equal_split(), jackpot())


def drifting(drift, entries=(0.0, 1.0)):
    return StationaryColumnRule(
        "drifting",
        leading=(Column(0, (1.0, 2.0), 1.0),),
        repeating_entries=entries,
        repeating_tail=0.0,
        repeating_drift=drift,
    )


class TestDrift:
    def test_jackpot_is_a_drifting_pattern(self):
        rule = jackpot()
        assert isinstance(rule, StationaryColumnRule)
        assert (rule.repeating_entries, rule.repeating_drift) == ((0.0, 1.0), (0.0, 1.0))
        assert rule.column(5) == Column(5, (0.0, 6.0), 0.0)
        assert rule.stationary_from is None

    def test_diagonal_drift_rejected(self):
        # a growing stay-put payment would leave implied_value's series open
        with pytest.raises(RuleConstructionError, match="diagonal"):
            drifting((0.5, 1.0))

    def test_negative_drift_rejected(self):
        with pytest.raises(RuleConstructionError, match="negative drift"):
            drifting((0.0, -1.0), entries=(0.0, 100.0))

    def test_drift_length_must_match_pattern(self):
        with pytest.raises(RuleConstructionError):
            drifting((0.0,))

    def test_zero_drift_is_stationary(self):
        rule = StationaryColumnRule(
            "equal_split",
            leading=(Column(0, (1.0,), 2.0),),
            repeating_entries=(0.0, 1.0),
            repeating_tail=1.0,
            repeating_drift=(0.0, 0.0),
        )
        assert rule.repeating_drift == ()
        assert rule.stationary_from == 1

    def test_mixture_drifts_while_jackpot_weighs(self):
        assert Mixture(0.5, equal_split(), jackpot()).repeating_drift == (0.0, 0.5)
        assert Mixture(1.0, equal_split(), jackpot()).stationary_from == 1


def transfer_rule(p_tail, beta):
    """Equal split with value shifted between agents 0 and 1 across rows.

    Rows stay balanced: the row-2 entries move ``beta * p`` from agent 0
    to agent 1, later rows move ``beta * (1 - p)`` the other way.
    """
    return Perturbed(
        equal_split(),
        entries=(((0, 2), -beta * p_tail), ((1, 2), beta * p_tail)),
        column_tails=(
            (0, (3, beta * (1.0 - p_tail))),
            (1, (3, -beta * (1.0 - p_tail))),
        ),
    )


class TestPerturbed:
    def test_transfer_family_validates_in_unit_range(self, sr, oracle):
        p = sr.probability(oracle.c_star)
        for beta in (-1.0, -0.5, 0.5, 1.0):
            rule = transfer_rule(p, beta)
            for k in range(32):
                assert sum(rule.row(k)) == pytest.approx(k + 1, abs=1e-9)
                assert min(rule.row(k)) >= -1e-12

    def test_transfer_family_breaks_beyond_unit(self, sr, oracle):
        p = sr.probability(oracle.c_star)
        with pytest.raises(RuleConstructionError):
            transfer_rule(p, 1.5)

    def test_every_tail_delta_applies(self):
        # two tail deltas per column: from row 5 a second pair moves 0.25 more
        rule = Perturbed(
            equal_split(),
            column_tails=((0, (3, 0.5)), (1, (3, -0.5)), (0, (5, 0.25)), (1, (5, -0.25))),
        )
        assert rule.row(4) == [2.5, 0.5, 1.0, 1.0, 0.0]
        assert rule.row(5) == [2.75, 0.25, 1.0, 1.0, 1.0, 0.0]
        assert rule.row(9)[:2] == [2.75, 0.25]

    def test_untouched_columns_pass_through(self, sr, oracle):
        rule = transfer_rule(sr.probability(oracle.c_star), 0.5)
        base = equal_split()
        for k in range(3, 10):
            assert rule.value(2, k) == base.value(2, k)


class TestContinuationReward:
    def test_equal_split_initiator_is_two(self, sr):
        rng = np.random.default_rng(5)
        for _ in range(5):
            x = ConstantTailProfile(tuple(rng.uniform(0, 2, 3)), rng.uniform(0, 2))
            assert continuation_reward(sr, equal_split(), x, 0) == pytest.approx(
                2.0, abs=1e-12
            )

    def test_constant_column_rewards_profile_independent(self, sr):
        rng = np.random.default_rng(6)
        for rule in (equal_split(), fixed_fraction(0.4)):
            ref = continuation_reward(sr, rule, constant_profile(0.2), 1)
            for _ in range(4):
                x = ConstantTailProfile(tuple(rng.uniform(0, 2, 4)), rng.uniform(0, 2))
                assert continuation_reward(sr, rule, x, 1) == pytest.approx(
                    ref, abs=1e-12
                )
                assert continuation_reward(sr, rule, x, 3) == pytest.approx(
                    ref, abs=1e-12
                )

    def test_jackpot_identity(self, sr):
        # R_i = (1 - p(x_{i+1})) * (i + 1) + f(i, i)
        rule = jackpot()
        x = ConstantTailProfile((0.4, 0.9, 0.05), 0.3)
        for i in range(5):
            expected = (1.0 - sr.probability(x.at(i + 1))) * (i + 1) + rule.value(i, i)
            assert continuation_reward(sr, rule, x, i) == pytest.approx(
                expected, abs=1e-12
            )

    def test_three_tier_initiator(self, sr, ex5_rule, ex5_profile, oracle):
        # R_0 - f(0,0) = 1 - 2 p(x_1)
        got = continuation_reward(sr, ex5_rule, ex5_profile, 0) - 1.0
        assert got == pytest.approx(1.0 - 2.0 * sr.probability(oracle.ex5_x1), abs=1e-12)
        assert got == pytest.approx(oracle.ex5_ratio_x0, abs=1e-12)

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.label)
    def test_matches_truncated_series(self, sr, rule):
        x = ConstantTailProfile((0.15, 0.6), 0.08)
        for i in (0, 1, 2, 4):
            closed = continuation_reward(sr, rule, x, i)
            assert closed == pytest.approx(brute_reward(sr, rule, x, i), abs=1e-10)

    def test_wrapped_rules_match_truncated_series(self, sr):
        x = ConstantTailProfile((0.15, 0.6), 0.08)
        wrapped = [
            Mixture(0.3, fixed_fraction(0.2), next_step_bonus(0.5, 0.1)),
            transfer_rule(sr.probability(0.08), 0.7),
        ]
        for rule in wrapped:
            for i in (0, 1, 2, 4):
                closed = continuation_reward(sr, rule, x, i)
                assert closed == pytest.approx(brute_reward(sr, rule, x, i), abs=1e-10)

    def test_affine_tail_closed_forms(self, sr):
        # hand-derived returns for a tail at probability q:
        #   fraction-floor: R_0 - 1 = (1 - alpha q) / (1 - q) - gamma
        #   flat continuation: R_0 - 1 = alpha - 1 - gamma
        #   next-step bonus: R_0 - 1 = 1 - beta q - gamma
        #   zero-initiator bonus: R_0 - 1 = beta (1 - q) - 1
        alpha, beta, gamma = 0.7, 0.8, 0.2
        for c in (0.05, 0.3, 1.4):
            q = sr.probability(c)
            x = near_constant_profile(0.5, c)
            cases = [
                (fixed_fraction_floor(alpha, gamma), (1 - alpha * q) / (1 - q) - gamma),
                (flat_continuation(alpha, gamma), alpha - 1.0 - gamma),
                (next_step_bonus(beta, gamma), 1.0 - beta * q - gamma),
                (next_step_bonus_zero_initiator(beta, gamma), beta * (1.0 - q) - 1.0),
            ]
            for rule, expected in cases:
                got = continuation_reward(sr, rule, x, 0) - rule.value(0, 0)
                assert got == pytest.approx(expected, abs=1e-12), rule.label

    def test_non_initiator_closed_forms(self, sr):
        # all four synthesis families give agents i > 0 the same net return
        alpha, beta, gamma = 0.7, 0.8, 0.2
        c = 0.3
        q = sr.probability(c)
        x = constant_profile(c)
        for rule, expected in [
            (fixed_fraction_floor(alpha, gamma), alpha - gamma),
            (flat_continuation(alpha, gamma), alpha - gamma),
            (next_step_bonus(beta, gamma), 1.0 + beta * (1.0 - q) - gamma),
            (next_step_bonus_zero_initiator(beta, gamma), 1.0 + beta * (1.0 - q) - gamma),
        ]:
            for i in (1, 2, 5):
                got = continuation_reward(sr, rule, x, i) - rule.value(i, i)
                assert got == pytest.approx(expected, abs=1e-12), (rule.label, i)


class TestExpectedPayoff:
    def test_zero_investment_pays_the_floor(self, sr):
        rule = fixed_fraction_floor(0.7, 0.2)
        x = ConstantTailProfile((0.0,), 0.0)
        assert expected_payoff(sr, rule, x, 0) == rule.value(0, 0)
        assert expected_payoff(sr, rule, x, 1) == rule.value(1, 1)

    def test_equilibrium_payoff_identity(self, sr, ex5_rule, ex5_profile, oracle):
        # at a supported profile: U_i = f(i,i) + prize(x_i) - x_i
        for i, expected in ((0, oracle.ex5_payoff0), (1, oracle.ex5_payoff1), (2, oracle.ex5_payoff2)):
            xi = ex5_profile.at(i)
            identity = ex5_rule.value(i, i) + sr.incentive_prize(xi) - xi
            direct = expected_payoff(sr, ex5_rule, ex5_profile, i)
            assert direct == pytest.approx(identity, abs=1e-10)
            assert direct == pytest.approx(expected, abs=1e-10)

    def test_equal_split_at_social_optimum(self, sr, oracle):
        x = constant_profile(oracle.c_star)
        u0 = expected_payoff(sr, equal_split(), x, 0)
        assert u0 == pytest.approx(oracle.payoff0_c_star, abs=1e-10)


class TestImpliedValue:
    def test_equal_split_is_one_plus_cost(self, sr, ex5_profile):
        got = implied_value(sr, equal_split(), ex5_profile)
        assert got == pytest.approx(1.0 + incentive_cost(sr, ex5_profile), abs=1e-12)

    def test_floor_diagonals_geometric(self, sr):
        alpha, gamma, c = 0.7, 0.2, 0.3
        x = constant_profile(c)
        q = sr.probability(c)
        expected = 1.0 + gamma * q / (1.0 - q) + incentive_cost(sr, x)
        got = implied_value(sr, fixed_fraction_floor(alpha, gamma), x)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_equals_value_at_equilibrium(self, sr, ex5_rule, ex5_profile):
        assert implied_value(sr, ex5_rule, ex5_profile) == pytest.approx(
            expected_value(sr, ex5_profile), abs=1e-8
        )


class TestMixture:
    def test_entries_interpolate(self):
        mix = Mixture(0.25, equal_split(), jackpot())
        for k in range(6):
            for i in range(k + 1):
                expected = 0.25 * equal_split().value(i, k) + 0.75 * jackpot().value(i, k)
                assert mix.value(i, k) == pytest.approx(expected, abs=1e-15)

    def test_stationarity_metadata(self):
        assert Mixture(0.5, equal_split(), fixed_fraction(0.3)).stationary_from == 1
        assert Mixture(0.5, equal_split(), jackpot()).stationary_from is None


class TestConfigLookup:
    def test_round_trips(self):
        assert rule_from_config("equal_split").label == "equal_split"
        assert rule_from_config("fixed_fraction", {"alpha": 0.25}).value(0, 2) == 2.75
        assert rule_from_config("jackpot").value(2, 3) == 3.0

    def test_missing_parameters(self):
        with pytest.raises(DomainError):
            rule_from_config("fixed_fraction")
        with pytest.raises(DomainError):
            rule_from_config("no_such_rule")

    @pytest.mark.parametrize("kind, params", [
        ("equal_split", {"alpha": 0.3, "bogus": 7.0}),
        ("jackpot", {"gamma": 0.0}),
        ("fixed_fraction", {"alpha": 0.3, "gamma": 0.1}),
        ("next_step_bonus", {"beta": 0.2, "gamma": 0.1, "alpha": 0.5}),
    ])
    def test_unknown_parameters_rejected(self, kind, params):
        # a parameter the family does not take used to be ignored
        with pytest.raises(DomainError, match="takes parameter"):
            rule_from_config(kind, params)
