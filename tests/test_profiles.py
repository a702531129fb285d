"""Profile representation and the closed-form process functionals.

Brute-force partial sums (truncated at 200 terms) serve as the
independent oracle for the geometric closed forms throughout.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from seqinvest import (
    ConstantTailProfile,
    DivergenceError,
    DomainError,
    InfeasibleError,
    constant_profile,
    custom_rate,
    expected_investment,
    expected_value,
    expected_welfare,
    flatten_tail,
    functionals,
    incentive_cost,
    near_constant_profile,
    scaled_sqrt_ratio,
    sqrt_ratio,
)
from seqinvest.profiles import _reach_series

TRUNC = 200


def brute_force(sr, x, term, n=TRUNC):
    """Direct partial sum of reach(j) * term(x_j); oracle for the closed forms."""
    total = 0.0
    reach = 1.0
    for j in range(n):
        total += reach * term(x.at(j))
        reach *= sr.probability(x.at(j))
    return total, reach


class TestRepresentation:
    def test_trailing_entries_absorbed(self):
        x = ConstantTailProfile((0.1, 0.2, 0.2), 0.2)
        assert x.prefix == (0.1,)
        assert x.tail == 0.2

    def test_all_equal_has_empty_prefix(self):
        assert ConstantTailProfile((0.3, 0.3), 0.3).prefix == ()

    def test_bad_entries_rejected(self):
        with pytest.raises(DomainError):
            ConstantTailProfile((-0.1,), 0.0)
        with pytest.raises(DomainError):
            ConstantTailProfile((), float("inf"))

    @pytest.mark.parametrize("bad", ["0.1", b"0.1", bytearray(b"0.1"), None, 1j], ids=repr)
    def test_text_is_not_an_entry(self, bad):
        # float() would parse the text into a profile
        message = f"must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(DomainError, match=f"^profile entry {message}"):
            ConstantTailProfile((bad,), 0.05)
        with pytest.raises(DomainError, match=f"^profile tail {message}"):
            ConstantTailProfile((0.1,), bad)

    def test_real_entries_convert(self):
        x = ConstantTailProfile((Fraction(1, 10), np.float64(0.2), 1, True), np.float32(0.25))
        assert x == ConstantTailProfile((0.1, 0.2, 1.0, 1.0), 0.25)
        assert all(type(v) is float for v in (*x.prefix, x.tail))

    def test_indexing(self):
        x = ConstantTailProfile((0.5, 0.25), 0.1)
        assert [x.at(j) for j in range(4)] == [0.5, 0.25, 0.1, 0.1]
        with pytest.raises(DomainError):
            x.at(-1)


class TestAgentIndex:
    """``at`` takes an integer agent index of at least 0."""

    def test_negative_index_rejected(self, ex5_profile):
        with pytest.raises(DomainError, match=r"^agent index must be >= 0, got -1$"):
            ex5_profile.at(-1)

    @pytest.mark.parametrize("j", [2.5, 0.5, 2.0, "2", None])
    def test_non_integer_index_rejected(self, j):
        # 2.5 used to return the tail
        with pytest.raises(DomainError, match=rf"^agent index must be an integer, got {j!r}$"):
            ConstantTailProfile((0.1, 0.2), 0.05).at(j)

    def test_numpy_integer_index(self, ex5_profile):
        for j in (1, 2, 7):
            got = ex5_profile.at(np.int64(j))
            assert type(got) is float and got == ex5_profile.at(j)
        assert ex5_profile.at(True) == ex5_profile.at(1)


class TestSeriesKernel:
    """The kernel takes the walk's success probabilities and reads no rate."""

    def test_prefix_from_the_list_tail_from_pc(self):
        # agents 1 .. 3 of a 4-entry prefix, then the tail at p = 0.2
        got = _reach_series([0.5, 0.25, 0.5], 0.2, 4, 1, 4, lambda _: 1.0)
        assert got == 1.0 + 0.5 + 0.125 + 0.0625 * 1.0 / (1.0 - 0.2)

    def test_a_short_list_fails_on_its_index(self):
        # agent 3 is a prefix agent: its p is never the tail's in its place
        with pytest.raises(IndexError):
            _reach_series([0.5, 0.25], 0.2, 4, 1, 4, lambda _: 1.0)


class TestReachProbability:
    def test_equilibrium_prefix(self, sr, oracle):
        # agent 2 of the three-tier equilibrium is reached when agents 0 and 1 succeed
        reach = sr.probability(oracle.ex5_x0) * sr.probability(oracle.ex5_x1)
        assert reach == pytest.approx(oracle.reach2_ex5, abs=1e-12)


class TestExpectedValue:
    def test_zeros(self, sr):
        assert expected_value(sr, constant_profile(0.0)) == 1.0

    def test_constant_closed_form(self, sr, oracle):
        # V = 1 / (1 - p(c))
        assert expected_value(sr, constant_profile(0.2588)) == pytest.approx(
            oracle.value_const_2588, abs=1e-12
        )

    def test_equilibrium_profile(self, sr, ex5_profile, oracle):
        assert expected_value(sr, ex5_profile) == pytest.approx(
            oracle.ex5_value, abs=1e-12
        )

    def test_matches_truncated_sum(self, sr, ex5_profile):
        closed = expected_value(sr, ex5_profile)
        partial, reach = brute_force(sr, ex5_profile, lambda _: 1.0)
        bound = reach / (1.0 - sr.probability(ex5_profile.tail))
        assert abs(closed - partial) <= bound + 1e-15

    def test_divergent_tail_rejected(self):
        saturating = custom_rate("saturating", lambda x: min(x, 1.0), lambda x: 1.0)
        with pytest.raises(DivergenceError):
            expected_value(saturating, constant_profile(1.0))


class TestExpectedInvestment:
    def test_zeros(self, sr):
        assert expected_investment(sr, constant_profile(0.0)) == 0.0

    def test_constant_quarter(self, sr):
        # I = c / (1 - p(c)) = 0.25 / (2/3)
        assert expected_investment(sr, constant_profile(0.25)) == pytest.approx(
            0.375, abs=1e-15
        )

    def test_equilibrium_profile(self, sr, ex5_profile, oracle):
        assert expected_investment(sr, ex5_profile) == pytest.approx(
            oracle.ex5_invest, abs=1e-12
        )


class TestExpectedWelfare:
    def test_zeros(self, sr):
        assert expected_welfare(sr, constant_profile(0.0)) == 1.0

    def test_first_best_is_grid_max(self, sr, oracle):
        best = expected_welfare(sr, constant_profile(oracle.c_fb))
        assert best == pytest.approx(oracle.welfare_fb, abs=1e-12)
        for c in np.linspace(1e-4, 0.999, 400):
            assert expected_welfare(sr, constant_profile(c)) <= best + 1e-12

    def test_self_financed_optimum_value(self, sr, oracle):
        x = near_constant_profile(oracle.x0_s, oracle.c_s)
        assert expected_welfare(sr, x) == pytest.approx(oracle.welfare_s, abs=1e-12)

    def test_identity_exact(self, sr, ex5_profile):
        f = functionals(sr, ex5_profile)
        assert f.value - f.investment - f.welfare == 0.0

    def test_one_pass_over_the_profile(self, sr):
        # V - I as one reach-weighted series: one p per prefix entry and
        # one for the tail, where two series would make twice as many
        calls = []
        counting = custom_rate(
            "counting", lambda x: calls.append(x) or sr.probability(x), sr.marginal
        )
        x = ConstantTailProfile((0.3, 0.01, 0.2, 0.05), 0.1)
        welfare = expected_welfare(counting, x)
        assert len(calls) == 5
        two_pass = expected_value(sr, x) - expected_investment(sr, x)
        assert welfare == pytest.approx(two_pass, rel=1e-15, abs=0.0)

    def test_functionals_read_the_profile_once(self, sr):
        # one p per prefix entry and one for the tail, shared by the three
        # series, plus one per prefix entry inside the custom rate's prize
        calls = []
        counting = custom_rate(
            "counting", lambda x: calls.append(x) or sr.probability(x), sr.marginal
        )
        x = ConstantTailProfile((0.3, 0.01, 0.2, 0.05), 0.1)
        f = functionals(counting, x)
        assert len(calls) == 10
        # bit for bit the three walks it shares its reads between
        assert f == (expected_value(counting, x), expected_investment(counting, x),
                     incentive_cost(counting, x))

class TestIncentiveCost:
    def test_zeros(self, sr):
        assert incentive_cost(sr, constant_profile(0.0)) == 0.0

    def test_constant_closed_form(self, sr, oracle):
        # G = prize(c) / (1 - p(c))
        assert incentive_cost(sr, constant_profile(0.2588)) == pytest.approx(
            oracle.cost_const_2588, abs=1e-12
        )

    def test_equilibrium_profile(self, sr, ex5_profile, oracle):
        assert incentive_cost(sr, ex5_profile) == pytest.approx(
            oracle.ex5_cost, abs=1e-12
        )

    def test_flattening_is_cheaper(self, sr, ex5_profile, oracle):
        flat = flatten_tail(sr, ex5_profile, 1)
        assert incentive_cost(sr, flat) == pytest.approx(oracle.ex5_cost_flat, abs=1e-10)
        assert incentive_cost(sr, flat) <= incentive_cost(sr, ex5_profile) + 1e-9

    def test_matches_truncated_sum(self, sr, ex5_profile):
        closed = incentive_cost(sr, ex5_profile)
        partial, reach = brute_force(sr, ex5_profile, sr.incentive_prize)
        tail = ex5_profile.tail
        bound = reach * sr.incentive_prize(tail) / (1.0 - sr.probability(tail))
        assert abs(closed - partial) <= bound + 1e-15


class TestFlatten:
    def test_constant_profile_unchanged(self, sr):
        x = constant_profile(0.3)
        assert flatten_tail(sr, x, 0) == x

    def test_keeps_initiator(self, sr, ex5_profile, oracle):
        flat = flatten_tail(sr, ex5_profile, 1)
        assert flat.prefix == (oracle.ex5_x0,)
        assert flat.tail == pytest.approx(oracle.ex5_cbar, abs=1e-10)
        assert expected_value(sr, flat) == pytest.approx(
            expected_value(sr, ex5_profile), abs=1e-10
        )

    def test_full_flatten(self, sr, ex5_profile, oracle):
        flat = flatten_tail(sr, ex5_profile, 0)
        assert flat.prefix == ()
        assert flat.tail == pytest.approx(oracle.ex5_ctilde, abs=1e-10)

    def test_position_out_of_range(self, sr, ex5_profile):
        with pytest.raises(DomainError):
            flatten_tail(sr, ex5_profile, 3)

    @pytest.mark.parametrize("k", [0.5, 1.0, "1", None])
    def test_non_integer_position_rejected(self, sr, ex5_profile, k):
        # 0.5 used to end in a bare TypeError from slicing
        with pytest.raises(DomainError, match=rf"^flatten position must be an integer, got {k!r}$"):
            flatten_tail(sr, ex5_profile, k)

    def test_unreachable_position_flattens_to_zero(self, sr):
        x = ConstantTailProfile((0.5, 0.0, 0.3), 0.7)
        flat = flatten_tail(sr, x, 2)
        assert flat.tail == 0.0

    def test_no_rate_evaluated_past_an_unreachable_agent(self):
        # agent 1 invests nothing, so agents 2 and 3 are never reached
        plain = sqrt_ratio()

        def p(x):
            assert x not in (0.3, 0.4), f"p evaluated at {x} past an unreachable agent"
            return plain.probability(x)

        rate = custom_rate("guarded", p, plain.marginal)
        x = ConstantTailProfile((0.5, 0.0, 0.3, 0.4), 0.7)
        assert flatten_tail(rate, x, 3) == ConstantTailProfile((0.5, 0.0, 0.3), 0.0)

    def test_head_walked_once(self, sr, ex5_profile):
        # the tail solves 1 / (1 - p(c)) = V(suffix), so no solver step
        # walks the kept head again; each step used to rebuild and walk
        # the whole profile, 15 evaluations at the kept initiator
        x0 = ex5_profile.at(0)
        seen = []
        counting = custom_rate(
            "counting", lambda x: seen.append(x) or sr.probability(x), sr.marginal
        )
        flat = flatten_tail(counting, ex5_profile, 1)
        assert seen.count(x0) <= 3
        assert flat.tail == pytest.approx(flatten_tail(sr, ex5_profile, 1).tail, rel=1e-15, abs=0.0)

    def test_zero_investment_at_the_position_flattens_to_zero(self, sr):
        # position 1 is reached, but invests nothing: nothing after it adds value
        x = ConstantTailProfile((0.1, 0.0, 0.3), 0.2)
        assert flatten_tail(sr, x, 1) == ConstantTailProfile((0.1,), 0.0)

    def test_unmatched_value_raises(self):
        # p jumps from 0.2 * sqrt(x) to 0.6 at x = 0.5, so no tail attains
        # p(c) = 0.496, what (0.6, 0.6, 0.1, ...) is worth: the solve ends
        # at the jump and the value check refuses it
        def p(x):
            return 0.2 * math.sqrt(x) if x < 0.5 else 0.6

        def p_prime(x):
            return 0.0 if x >= 0.5 else 0.1 / math.sqrt(x) if x > 0.0 else math.inf

        jump = custom_rate("jump", p, p_prime)
        with pytest.raises(InfeasibleError, match="^flattening failed to match the expected value$"):
            flatten_tail(jump, ConstantTailProfile((0.6, 0.6), 0.1), 0)

    def test_investment_reduction_spot(self, sr, ex5_profile, oracle):
        flat = flatten_tail(sr, ex5_profile, 1)
        assert expected_investment(sr, flat) == pytest.approx(
            oracle.ex5_invest_flat, abs=1e-10
        )


class TestFlatteningProperties:
    """Random-profile checks that flattening never raises cost measures."""

    @pytest.mark.parametrize("rate_key", ["plain", "eps01", "eps05"])
    def test_never_increases_investment_or_cost(self, sr, rate_key):
        rate = {
            "plain": sr,
            "eps01": scaled_sqrt_ratio(0.1),
            "eps05": scaled_sqrt_ratio(0.5),
        }[rate_key]
        rng = np.random.default_rng(20240612)
        for _ in range(120):
            m = int(rng.integers(0, 7))
            prefix = tuple(rng.uniform(0.0, 2.0, size=m))
            x = ConstantTailProfile(prefix, float(rng.uniform(0.0, 2.0)))
            invest = expected_investment(rate, x)
            cost = incentive_cost(rate, x)
            for k in range(x.prefix_len + 1):
                flat = flatten_tail(rate, x, k)
                assert expected_investment(rate, flat) <= invest + 1e-9
                assert incentive_cost(rate, flat) <= cost + 1e-9
