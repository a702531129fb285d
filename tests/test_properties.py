"""Property tests for rule validation and the reach-weighted series.

Rule construction checks balance on a bounded block of rows and proves
the rest structurally.  Here a brute-force scan of the first 256 rows
decides the same question entry by entry, on random named rules, random
balanced transfers, and copies corrupted at a random row up to 200: both
must accept the clean rules and reject every corrupted one.  Mixtures
(jackpot included) and transfers, built once into the one rule form, are
read back over the same rows against their definitions.

The closed-form series (payoff functionals, continuation reward,
implied value) are compared with explicit 2000-term truncated sums on
random constant-tail profiles.

The closed-form inverse of the required return is checked by round trip
and against the bracketing inverse of a custom rate with the same
formula, over caps from 0 to ``1 - 1e-6`` and returns log-uniform from
``1e-150`` up to the return at the domain cap; a custom rate's inverse
round-trips to 1e-9 relative for returns from ``1e-12`` to ``1e2``.  Over
caps up to ``1 - 1e-9`` the initiator and self-financed optima either
verify or fail with a named error other than :class:`BracketError`.

Rules synthesized for near-constant profiles, with the initiator's
return drawn inside the support band and at both of its edges, verify;
they mix the two endpoint rules exactly when the return is more than the
support slack away from both endpoints' returns.  No such supported
profile, on the uncapped rate or at caps 0.3 and 0.7071, has welfare
above ``socially_optimal`` or an initiator payoff above
``initiator_optimal``.

Verification, best responses and payoffs read each agent's column once;
on named, synthesized and transferred rules, in both modes, they equal
exactly (``==``) what the public per-agent path gives: ``check_agent``,
and the continuation reward less ``rule.value(i, i)``.
"""

import functools
import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from seqinvest import (
    BracketError,
    ConstantTailProfile,
    Mixture,
    Mode,
    Perturbed,
    RuleConstructionError,
    SeqInvestError,
    best_response,
    check_agent,
    continuation_reward,
    custom_rate,
    equal_split,
    expected_payoff,
    expected_welfare,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    functionals,
    implied_value,
    initiator_optimal,
    investment_for_return,
    near_constant_bounds,
    jackpot,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    scaled_sqrt_ratio,
    self_financed_optimal,
    socially_optimal,
    sqrt_ratio,
    synthesize_rule,
    verify_equilibrium,
)
from seqinvest.equilibrium import (
    _SUPPORT_TOL,
    _column_floor_gap,
    _endpoint_rules,
)
from seqinvest.rules import Column, StationaryColumnRule
from conftest import ORACLE, three_tier_rule

SCAN_ROWS = 256
CORRUPT_ROWS = 200
TERMS = 2000
TOL = 1e-9

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

unit = st.floats(0.0, 1.0)
stationary_rules = st.one_of(
    st.just(equal_split()),
    st.just(three_tier_rule()),
    st.builds(fixed_fraction, unit),
    st.builds(fixed_fraction_floor, unit, st.floats(0.0, 2.0)),
    st.tuples(unit, unit).map(lambda ag: flat_continuation(ag[0], ag[0] * ag[1])),
    st.builds(next_step_bonus, unit, unit),
    st.builds(next_step_bonus_zero_initiator, unit, unit),
)
base_rules = st.one_of(
    stationary_rules,
    st.just(jackpot()),
    st.builds(Mixture, unit, stationary_rules, st.one_of(stationary_rules, st.just(jackpot()))),
)
magnitudes = st.floats(1e-3, 1.0)


def scan_ok(value) -> bool:
    """Brute force: every entry ``value(i, k)`` of rows ``0..SCAN_ROWS``."""
    for k in range(SCAN_ROWS + 1):
        row = [value(i, k) for i in range(k + 1)]
        if min(row) < -TOL or abs(sum(row) - (k + 1)) > TOL:
            return False
    return True


def constructs(build) -> bool:
    try:
        build()
    except RuleConstructionError:
        return False
    return True


def column_value(column):
    """``value(i, k)`` over the first columns of ``column(i)``, built once."""
    cols = [column(i) for i in range(SCAN_ROWS + 1)]
    return lambda i, k: cols[i].value(k)


def spec_value(leading, entries, tail):
    return column_value(lambda i: leading[i] if i < len(leading) else Column(i, entries, tail))


def corrupt(rule: StationaryColumnRule, row: int, cells: dict[int, float], ramp: int | None = None):
    """Structural spec of ``rule`` with ``cells[i]`` added to ``f(i, row)``;
    with ``ramp`` given, column ``ramp`` also gains ``slope * (k - row)`` on
    every row ``k >= row`` (the slope is ``cells[ramp]``, not a one-row change).

    Every column up to the last touched one becomes an explicit leading
    column; touched columns list their entries up to ``row`` and keep
    their original tail beyond it.
    """
    leading = [rule.column(c) for c in range(max(len(rule.leading), max(cells) + 1))]
    for c, delta in cells.items():
        col = leading[c]

        def change(k):
            if c == ramp:
                return delta * max(k - row, 0)
            return delta if k == row else 0.0

        # a ramp's tail starts at the row itself, where it is still exact
        n = max(row + (c != ramp) - c, len(col.entries), 1)
        values = tuple(col.value(c + t) + change(c + t) for t in range(n))
        slope = col.slope + (delta if c == ramp else 0.0)
        leading[c] = Column(c, values, col.value(c + n) + change(c + n), slope)
    return tuple(leading), rule.repeating_entries, rule.repeating_tail


@st.composite
def row_corruptions(draw, rule):
    """Arguments of :func:`corrupt`: an unbalanced change of one entry, a
    balanced move that drives one entry negative, or a slope error that
    starts at the row (zero there, off by the slope one row later)."""
    row = draw(st.integers(0, CORRUPT_ROWS))
    i = draw(st.integers(0, row))
    signed = draw(magnitudes) * draw(st.sampled_from((-1.0, 1.0)))
    kind = draw(st.sampled_from(("cell", "negative", "slope")))
    if kind == "slope":
        return row, {i: signed}, i
    if kind == "cell" or row == 0:
        return row, {i: signed}, None
    j = draw(st.integers(0, row).filter(lambda j: j != i))
    move = rule.value(i, row) + draw(magnitudes)
    return row, {i: -move, j: move}, None


class TestStructuralBalance:
    @PROPERTY
    @given(stationary_rules)
    def test_named_rules_pass_both_checks(self, rule):
        spec = rule.leading, rule.repeating_entries, rule.repeating_tail
        assert scan_ok(spec_value(*spec))
        assert constructs(lambda: StationaryColumnRule("copy", *spec))

    @PROPERTY
    @given(st.data())
    def test_corrupted_rules_fail_both_checks(self, data):
        rule = data.draw(stationary_rules)
        spec = corrupt(rule, *data.draw(row_corruptions(rule)))
        assert not scan_ok(spec_value(*spec))
        assert not constructs(lambda: StationaryColumnRule("corrupt", *spec))

    @PROPERTY
    @given(st.data())
    def test_clean_restatement_passes_both_checks(self, data):
        # the same rewriting as a corruption, with a zero change: a rule
        # with up to 200 explicit leading columns still validates
        rule = data.draw(stationary_rules)
        row = data.draw(st.integers(0, CORRUPT_ROWS))
        spec = corrupt(rule, row, {data.draw(st.integers(0, row)): 0.0})
        assert scan_ok(spec_value(*spec))
        assert constructs(lambda: StationaryColumnRule("restated", *spec))


def perturbed_value(base, entries, tails):
    """Entry of ``Perturbed(base, entries, tails)`` summed from its parts:
    the base entry, its entry delta, then every tail delta that has begun."""
    base_value = column_value(base.column)
    cells = dict(entries)

    def value(i, k):
        v = base_value(i, k) + cells.get((i, k), 0.0)
        for c, (k0, shift) in tails:
            if c == i and k >= k0:
                v += shift
        return v

    return value


@st.composite
def transfers(draw):
    """A base rule with a balanced tail move between two columns, maybe a
    partial move back from a later row (two tail deltas on each of the two
    columns), and a balanced entry move on one row, all sized to keep
    entries >= 0."""
    base = draw(base_rules)
    k0 = draw(st.integers(2, CORRUPT_ROWS))
    c, d = draw(st.lists(st.integers(0, k0 - 1), min_size=2, max_size=2, unique=True))
    col = base.column(c)
    room = min(col.value(k) for k in range(k0, max(k0, col.tail_start) + 1))
    shift = draw(unit) * room
    tails = ((c, (k0, -shift)), (d, (k0, shift)))
    if draw(st.booleans()):
        k1, back = k0 + draw(st.integers(0, 8)), draw(unit) * shift
        tails += ((c, (k1, back)), (d, (k1, -back)))
    row = draw(st.integers(1, CORRUPT_ROWS))
    a, b = draw(st.lists(st.integers(0, row), min_size=2, max_size=2, unique=True))
    move = draw(unit) * perturbed_value(base, (), tails)(a, row)
    entries = (((a, row), -move), ((b, row), move))
    return base, entries, tails


class TestPerturbedBalance:
    @PROPERTY
    @given(transfers())
    def test_balanced_transfers_pass_both_checks(self, spec):
        base, entries, tails = spec
        assert scan_ok(perturbed_value(*spec))
        assert scan_ok(column_value(Perturbed(base, entries, tails).column))

    @PROPERTY
    @given(transfers(), magnitudes, st.sampled_from(("unbalanced", "negative", "tail")))
    def test_corrupted_transfers_fail_both_checks(self, spec, excess, kind):
        base, entries, tails = spec
        ((a, row), _), ((b, _), _) = entries
        if kind == "unbalanced":
            entries = entries[:1] + (((b, row), entries[1][1] + excess),)
        elif kind == "negative":
            move = perturbed_value(base, (), tails)(a, row) + excess
            entries = (((a, row), -move), ((b, row), move))
        else:
            (c, (k0, shift)), *rest = tails
            tails = ((c, (k0, shift - excess)), *rest)
        assert not scan_ok(perturbed_value(base, entries, tails))
        assert not constructs(lambda: Perturbed(base, entries, tails))


ULPS = 4


def assert_agrees(got, want, scale, exact):
    """``got == want``; only where a slope or a drift is rounded in another
    order than the definition, within ``ULPS`` ulps of ``scale``."""
    if exact:
        assert got == want
    else:
        assert all(abs(g - x) <= ULPS * math.ulp(s) for g, x, s in zip(got, want, scale))


class TestOneForm:
    """Mixtures and transfers are built into leading columns plus one
    pattern at construction; read back, rows ``0..SCAN_ROWS`` equal their
    definitions entry by entry."""

    @PROPERTY
    @given(unit, stationary_rules, st.one_of(stationary_rules, st.just(jackpot())))
    def test_mixture_matches_definition(self, w, left, right):
        rule = Mixture(w, left, right)
        for i in range(SCAN_ROWS + 1):
            col, a, b = rule.column(i), left.column(i), right.column(i)
            rows = range(i, SCAN_ROWS + 1)
            assert_agrees(
                [col.value(k) for k in rows],
                [w * a.value(k) + (1.0 - w) * b.value(k) for k in rows],
                [max(a.value(k), b.value(k)) for k in rows],
                exact=not rule.repeating_drift and a.slope == b.slope == 0.0,
            )
        if right.stationary_from is None:  # jackpot: the mixture drifts unless w = 1
            expected = None if w < 1.0 else max(left.stationary_from, len(right.leading))
        else:
            expected = max(left.stationary_from, right.stationary_from)
        assert rule.stationary_from == expected

    def test_jackpot_rows(self):
        rule = jackpot()
        assert rule.row(0) == [1.0]
        assert rule.row(1) == [2.0, 0.0]
        for k in range(2, SCAN_ROWS + 1):
            assert rule.row(k) == [1.0] + [0.0] * (k - 2) + [float(k), 0.0]

    @PROPERTY
    @given(transfers())
    def test_transfer_matches_definition(self, spec):
        base, entries, tails = spec
        rule = Perturbed(base, entries, tails)
        want = perturbed_value(*spec)
        for i in range(SCAN_ROWS + 1):
            col, b = rule.column(i), base.column(i)
            rows = range(i, SCAN_ROWS + 1)
            expected = [want(i, k) for k in rows]
            assert_agrees(
                [col.value(k) for k in rows],
                expected,
                [max(b.value(k), abs(x)) for k, x in zip(rows, expected)],
                exact=b.slope == 0.0,
            )
        touched = max(i for i, _ in tails + tuple((i, k) for (i, k), _ in entries))
        s = base.stationary_from
        assert rule.stationary_from == (None if s is None else max(s, touched + 1))


rates = st.sampled_from(
    (sqrt_ratio(), scaled_sqrt_ratio(0.5), scaled_sqrt_ratio(0.7071067811865476))
)
investments = st.floats(0.0, 2.0)
profiles = st.builds(ConstantTailProfile, st.lists(investments, max_size=5).map(tuple), investments)
# a balanced move of part of f(0, 2) to f(1, 2)
row_transfers = st.builds(
    lambda rule, beta: Perturbed(
        rule,
        entries=(((0, 2), -beta * rule.value(0, 2)), ((1, 2), beta * rule.value(0, 2))),
    ),
    stationary_rules,
    unit,
)
series_rules = st.one_of(base_rules, row_transfers)


def truncated(sr, x, start, weight):
    """``sum_{j < start + TERMS} reach(start .. j - 1) * weight(j, p_j)``."""
    total, reach = 0.0, 1.0
    for j in range(start, start + TERMS):
        pj = sr.probability(x.at(j))
        total += reach * weight(j, pj)
        reach *= pj
    return total


def close(a, b):
    return a == pytest.approx(b, rel=1e-10, abs=1e-12)


class TestSeriesKernel:
    @PROPERTY
    @given(rates, profiles)
    def test_functionals_match_truncated_sums(self, sr, x):
        got = functionals(sr, x)
        value = truncated(sr, x, 0, lambda j, p: 1.0)
        investment = truncated(sr, x, 0, lambda j, p: x.at(j))
        assert close(got.value, value)
        assert close(got.investment, investment)
        assert close(got.welfare, value - investment)
        cost = truncated(sr, x, 0, lambda j, p: sr.incentive_prize(x.at(j)))
        assert close(got.incentive_cost, cost)

    @PROPERTY
    @given(rates, series_rules, profiles, st.integers(0, 6))
    def test_continuation_reward_matches_truncated_sum(self, sr, rule, x, i):
        expected = truncated(sr, x, i + 1, lambda k, p: (1.0 - p) * rule.value(i, k))
        assert close(continuation_reward(sr, rule, x, i), expected)

    @PROPERTY
    @given(rates, series_rules, profiles)
    def test_implied_value_matches_truncated_sum(self, sr, rule, x):
        expected = truncated(sr, x, 0, lambda j, p: rule.value(j, j) + sr.incentive_prize(x.at(j)))
        assert close(implied_value(sr, rule, x), expected)


T_MIN = 1e-150
caps = st.one_of(st.just(0.0), st.floats(1e-6, 1.0 - 1e-6))


def with_cap(eps):
    return sqrt_ratio() if eps == 0.0 else scaled_sqrt_ratio(eps)


def log_uniform_return(sr, u):
    """Return at fraction ``u`` of the log range ``[T_MIN, required_return(cap)]``."""
    t_max = sr.required_return(sr.domain_cap)
    return min(math.exp(math.log(T_MIN) + u * math.log(t_max / T_MIN)), t_max)


def assert_round_trip(sr, t):
    x = investment_for_return(sr, t)
    assert 0.0 < x <= sr.domain_cap
    # below the smallest normal float (only at caps near 1 and t below
    # about 3e-148) x itself carries just the subnormal spacing
    assert sr.required_return(x) == pytest.approx(
        t, rel=max(4e-15, math.ulp(x) / x), abs=0.0
    )


class TestReturnInverse:
    @PROPERTY
    @given(caps, unit)
    def test_round_trip(self, eps, u):
        sr = with_cap(eps)
        assert_round_trip(sr, log_uniform_return(sr, u))

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0 - 1e-6])
    def test_round_trip_on_a_log_grid(self, eps):
        # 25 points a decade: narrow bands of lost accuracy (a start
        # that cancels, a skipped refinement) show here
        sr = with_cap(eps)
        for j in range(4001):
            assert_round_trip(sr, log_uniform_return(sr, j / 4000))

    @PROPERTY
    @given(caps, unit)
    def test_matches_bracketing(self, eps, u):
        sr = with_cap(eps)
        bracketing = custom_rate("bracketing", sr.probability, sr.marginal, epsilon=eps)
        t = log_uniform_return(sr, u)
        x = investment_for_return(sr, t)
        assert abs(x - investment_for_return(bracketing, t)) <= 2e-12 + 1e-9 * x


    @PROPERTY
    @given(st.floats(math.log(1e-12), math.log(1e2)))
    def test_custom_rate_round_trip(self, log_t):
        # the bracketing inverse stops on a width relative to its bracket,
        # so tiny targets keep their accuracy too
        t = math.exp(log_t)
        x = investment_for_return(SQRT_CUSTOM, t)
        assert x == pytest.approx(investment_for_return(sqrt_ratio(), t), rel=1e-9, abs=0.0)
        assert SQRT_CUSTOM.required_return(x) == pytest.approx(t, rel=1e-9, abs=0.0)


class TestOptimaOverCaps:
    @PROPERTY
    @given(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0 - 1e-9)),
        st.sampled_from([initiator_optimal, self_financed_optimal]),
    )
    @example(0.999999, initiator_optimal)
    @example(0.999999, self_financed_optimal)
    @example(1.0 - 1e-9, initiator_optimal)
    @example(1.0 - 1e-9, self_financed_optimal)
    def test_verified_or_loud(self, eps, solve):
        # a tail however close to 0 is bracketed, so a BracketError is a bug
        try:
            res = solve(with_cap(eps))
        except BracketError:
            raise
        except SeqInvestError:  # a named error that says why
            return
        assert res.report.supported, (eps, res.report.failures)


def initiator_return(sr, rule, x):
    # the net return the rule offers the initiator at the profile, from the
    # public API: continuation reward less the stay-put payment
    return continuation_reward(sr, rule, x, 0) - rule.value(0, 0)


SQRT_CUSTOM = custom_rate("sqrt_custom", sqrt_ratio().probability, sqrt_ratio().marginal)
band_positions = st.one_of(st.just(0.0), st.just(1.0), unit)


class TestSynthesizeThenVerify:
    @PROPERTY
    @given(
        st.sampled_from((sqrt_ratio(), scaled_sqrt_ratio(0.5), SQRT_CUSTOM)),
        st.floats(1e-4, 0.25),
        st.floats(0.0, 0.1),
        band_positions,
    )
    # the self-financed optimum sits on the upper edge; the custom rate's
    # bracketing inverse lands it about 1e-12 inside
    @example(SQRT_CUSTOM, ORACLE.c_s, ORACLE.c_s, 1.0)
    # x0 about 2e-13, below the zero-investment threshold, with a required
    # return near 1e-6 that the synthesized rule pays
    @example(sqrt_ratio(), 0.125, 0.0, 1e-6)
    def test_supported_and_mixed_only_inside(self, sr, c, gamma, u):
        lower, upper = near_constant_bounds(sr, c, gamma)
        lower = max(lower, 0.0)
        assume(lower <= upper)
        x0 = investment_for_return(sr, lower + u * (upper - lower))
        rule = synthesize_rule(sr, x0, c, gamma)
        assert verify_equilibrium(sr, rule, ConstantTailProfile((x0,), c)).supported
        high, low = _endpoint_rules(sr.required_return(c), gamma, upper)
        target, tail = sr.required_return(x0), ConstantTailProfile((), c)
        inside = (
            initiator_return(sr, low, tail) + _SUPPORT_TOL
            < target
            < initiator_return(sr, high, tail) - _SUPPORT_TOL
        )
        assert isinstance(rule, Mixture) == inside, rule.label


DOMINANCE_RATES = (sqrt_ratio(), scaled_sqrt_ratio(0.3), scaled_sqrt_ratio(0.7071))


@functools.cache
def optimum_objectives(k):
    """Welfare at the social optimum and the initiator's payoff at theirs."""
    sr = DOMINANCE_RATES[k]
    return socially_optimal(sr).objective, initiator_optimal(sr).objective


class TestOptimaDominance:
    @settings(PROPERTY, max_examples=200)
    @given(
        st.sampled_from(range(len(DOMINANCE_RATES))),
        st.floats(1e-4, 0.3),
        st.floats(0.0, 0.1),
        band_positions,
    )
    # the initiator optimum itself: sqrt_ratio's tail there, on the upper edge
    @example(0, ORACLE.c_circ, 0.0, 1.0)
    def test_supported_profiles_never_beat_the_optima(self, k, c, gamma, u):
        sr = DOMINANCE_RATES[k]
        lower, upper = near_constant_bounds(sr, c, gamma)
        lower = max(lower, 0.0)
        assume(lower <= upper)
        x = ConstantTailProfile((investment_for_return(sr, lower + u * (upper - lower)),), c)
        rule = synthesize_rule(sr, x.at(0), c, gamma)
        assert verify_equilibrium(sr, rule, x).supported
        welfare, initiator = optimum_objectives(k)
        assert expected_welfare(sr, x) <= welfare + 1e-12
        assert expected_payoff(sr, rule, x, 0) <= initiator + 1e-12


@st.composite
def synthesized_rules(draw):
    """``synthesize_rule`` at a return drawn inside the support band: a
    mixture of the endpoint rules unless it lands within the slack of one."""
    sr = sqrt_ratio()
    c, gamma = draw(st.floats(1e-3, 0.25)), draw(st.floats(0.0, 0.1))
    lower, upper = near_constant_bounds(sr, c, gamma)
    assume(max(lower, 0.0) <= upper)
    t = max(lower, 0.0) + draw(unit) * (upper - max(lower, 0.0))
    return synthesize_rule(sr, investment_for_return(sr, t), c, gamma)


def outcome(fn):
    """The value of ``fn()``, or the type and message of what it raised."""
    try:
        return fn()
    except SeqInvestError as exc:
        return type(exc), str(exc)


def expected_failures(rule, x, mode, tol, checks):
    """``verify_equilibrium``'s failure list, rebuilt from per-agent checks."""
    failures = []
    for chk in checks:
        i = chk.agent
        if chk.residual > tol:
            failures.append(f"agent {i}: best-response residual {chk.residual:.3g}")
        if mode is Mode.SELF_FINANCED:
            over = x.at(i) - rule.value(i, i)
            if over > tol:
                failures.append(f"agent {i}: investment exceeds stay-put budget by {over:.3g}")
            gap = _column_floor_gap(rule.column(i))
            if gap < -tol:
                failures.append(
                    f"agent {i}: some continuation entry is below the "
                    f"stay-put payment (gap {gap:.3g})"
                )
    return failures


class TestOneColumnRead:
    @settings(PROPERTY, max_examples=60)
    @given(
        rates,
        st.one_of(stationary_rules, synthesized_rules(), row_transfers),
        st.builds(
            ConstantTailProfile, st.lists(st.floats(0.0, 0.5), max_size=3).map(tuple),
            st.floats(0.0, 0.5),
        ),
        st.sampled_from(tuple(Mode)),
        st.sampled_from((1e-8, 1e-3)),
    )
    def test_matches_public_per_agent_path(self, sr, rule, x, mode, tol):
        report = verify_equilibrium(sr, rule, x, mode, tol)
        assert report.failures == tuple(expected_failures(rule, x, mode, tol, report.checks))
        for chk in report.checks:
            i = chk.agent
            assert chk == check_agent(sr, rule, x, i, mode, tol)
            reward = continuation_reward(sr, rule, x, i)
            fii = rule.value(i, i)
            assert outcome(lambda: best_response(sr, rule, x, i)) == outcome(
                lambda: investment_for_return(sr, reward - fii)
            )
            p = sr.probability(x.at(i))
            assert expected_payoff(sr, rule, x, i) == (1.0 - p) * fii + p * reward - x.at(i)
