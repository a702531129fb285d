"""Shared fixtures and frozen reference values.

The ORACLE constants were computed independently with 50-digit mpmath
arithmetic (bisection on the defining equations, derivative-sign
bisection for the argmax problems) and are frozen here to full float64
precision.  Tests compare library output against these, and several
tests additionally recompute values through brute-force routes.
"""

from __future__ import annotations

import itertools

import pytest

from seqinvest import ConstantTailProfile, custom_rate, scaled_sqrt_ratio, sqrt_ratio
from seqinvest.rules import Column, StationaryColumnRule


class ORACLE:
    # prize(c) = p(c): boundary of supportable constants
    c_star = 0.08830199035219968
    # welfare max over constants: (1 - c) / (1 - p(c)) = required_return(c)
    c_fb = 1.0 / 9.0
    welfare_fb = 32.0 / 27.0
    welfare_c_star = 1.1826150067070484
    value_c_star = 1.2971565081774244
    invest_c_star = 0.11454150147037595
    payoff0_c_star = 1.1407810125885522
    payoff_tail_c_star = 0.14078101258855222

    # fixed point of the three-tier rule (x2), then x1, x0 backward
    ex5_x2 = 0.17767002726557623
    ex5_x1 = 0.31063262881172208
    ex5_x0 = 0.013094524347364401
    ex5_value = 1.1549185787792145
    ex5_invest = 0.054271691554226875
    ex5_welfare = 1.1006468872249876
    ex5_cost = 0.15491857877921446
    ex5_ratio_x0 = 0.28423756134363612
    ex5_payoff0 = 1.0160913714558518
    ex5_payoff1 = 0.6568912566809965
    ex5_payoff2 = 0.3274491384755227
    # flattening the equilibrium profile
    ex5_cbar = 0.25880769324928165
    ex5_lower_at_cbar = 0.31602091155955201
    ex5_upper_at_cbar = 0.33049876692578361
    ex5_ctilde = 0.023999766050971678
    ex5_cost_flat = 0.15016841585398660
    ex5_invest_flat = 0.053188644362670011

    # initiator optimum: tail stationarity then the saturated bound
    c_circ = 0.026360437939300177
    x0_circ = 0.099436518124228261
    payoff0_circ = 1.1621482592374197
    alpha_circ = 0.43871941656167319
    prize_one_level = 0.31944845973567631  # prize(d) = 1

    # self-financed optimum
    c_max_sf = 0.25
    c_s = 0.072253936722996871
    x0_s = 0.081618511136979279
    welfare_s = 1.1799472119201400
    alpha_s = 0.93771538144173721

    # unconstrained region curves close here
    c_cross = 0.25995646161883662

    # scaled family at eps = sqrt(2)/2
    eps_half_sqrt2 = 0.7071067811865476
    c_fb_scaled = 0.014162108570281321
    bound0_scaled = 0.054139123041058012
    bound5_scaled = 0.23955079938857625

    # assorted spot values
    p_01777 = 0.29653992237280778
    ratio_00131 = 0.28430918990846396
    reach2_ex5 = 0.036747725838431494
    value_const_2588 = 1.5087238936790762
    cost_const_2588 = 1.1781858547365797
    fixed_point_t = 0.17766772348926616  # required_return(x) = 2 - p(0.1777)


@pytest.fixture(scope="session")
def sr():
    return sqrt_ratio()


@pytest.fixture(scope="session")
def sr_scaled():
    return scaled_sqrt_ratio(ORACLE.eps_half_sqrt2)


def three_tier_rule() -> StationaryColumnRule:
    """Asymmetric rule: the initiator is paid only on immediate success,
    agent 1 gets a boosted stream, later agents a one-step bonus.

    Matrix rows: [1], [2, 0], [0, 3, 0], [0, 2, 2, 0], [0, 2, 1, 2, 0]...
    Its unique equilibrium is near-constant-from-2 with an overinvesting
    agent 1, which makes it the standard counterexample profile for the
    near-constant support bounds.
    """
    return StationaryColumnRule(
        "three_tier",
        leading=(Column(0, (1.0, 2.0), 0.0), Column(1, (0.0, 3.0), 2.0)),
        repeating_entries=(0.0, 2.0),
        repeating_tail=1.0,
    )


@pytest.fixture
def drifting(sr):
    """``sr`` with ``p`` shrinking by 1e-6 relative on every call: a second
    pass of best responses sees other successors' probabilities than the
    first, so it moves."""
    calls = itertools.count()
    return custom_rate(
        "drifting", lambda x: sr.probability(x) * (1.0 - 1e-6 * next(calls)), sr.marginal
    )


@pytest.fixture(scope="session")
def ex5_rule():
    return three_tier_rule()


@pytest.fixture(scope="session")
def ex5_profile():
    return ConstantTailProfile((ORACLE.ex5_x0, ORACLE.ex5_x1), ORACLE.ex5_x2)


@pytest.fixture(scope="session")
def oracle():
    return ORACLE
