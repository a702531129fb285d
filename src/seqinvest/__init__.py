"""Numerical toolkit for sequential investment processes.

An initiator starts a value-creating chain with a costly investment that
succeeds with probability ``p(x)``; on success the next agent faces the
same decision, and the first failure ends the chain.  A balanced reward
rule splits the realized value among the participants and thereby
induces a game.  The library evaluates the process functionals in closed
form, computes best responses and verifies equilibria under arbitrary
rules, synthesizes rules supporting target profiles, solves the
first-best, socially optimal, initiator-optimal and budget-constrained
optimal programs, and validates the closed forms by seeded Monte Carlo.
"""

from .equilibrium import (
    AgentCheck,
    BoundSchedule,
    ConstantSupport,
    DynamicsResult,
    EquilibriumReport,
    Mode,
    NearConstantFeasibility,
    best_response,
    best_response_dynamics,
    check_agent,
    constant_support_check,
    investment_bounds,
    investment_for_return,
    near_constant_bounds,
    near_constant_feasibility,
    synthesize_rule,
    verify_equilibrium,
)
from .errors import (
    BracketError,
    ChainCapError,
    DivergenceError,
    DomainError,
    InfeasibleError,
    RuleConstructionError,
    SeqInvestError,
    TailShapeError,
    UnboundedRatioError,
)
from .optima import (
    OptimumResult,
    RegionRow,
    first_best_investment,
    initiator_optimal,
    region_curve_intersection,
    region_sweep,
    self_financed_optimal,
    socially_optimal,
    tail_limit,
    zero_initiator_improvement,
)
from .profiles import (
    ConstantTailProfile,
    FunctionalValues,
    constant_profile,
    expected_investment,
    expected_value,
    expected_welfare,
    flatten_tail,
    functionals,
    incentive_cost,
    near_constant_profile,
    reach_probability,
)
from .rates import (
    SuccessRate,
    ValidationReport,
    custom_rate,
    rate_from_config,
    register_rate,
    scaled_sqrt_ratio,
    sqrt_ratio,
    validate,
)
from .rules import (
    Column,
    JackpotRule,
    Mixture,
    Perturbed,
    RewardRule,
    StationaryColumnRule,
    continuation_reward,
    equal_split,
    expected_payoff,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    implied_value,
    jackpot,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    rule_from_config,
)
from .simulate import (
    PayoffStat,
    SimulationConfig,
    SimulationSummary,
    Stat,
    summarize,
    terminal_histogram,
    terminal_samples,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
