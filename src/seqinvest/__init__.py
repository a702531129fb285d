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

``import seqinvest`` binds only ``__version__``.  The first access to any
other exported name imports every library module and binds all exports
(PEP 562), so ``python -m seqinvest.cli`` loads only what its command uses.
"""

__version__ = "0.1.0"

# library module -> the names the package exports from it (each module is exported too)
_EXPORTS = {
    "equilibrium": (
        "AgentCheck", "BoundSchedule", "ConstantSupport", "DynamicsResult",
        "EquilibriumReport", "Mode", "NearConstantFeasibility", "best_response",
        "best_response_dynamics", "check_agent", "constant_support_check",
        "investment_bounds", "investment_for_return", "near_constant_bounds",
        "near_constant_feasibility", "synthesize_rule", "verify_equilibrium",
    ),
    "errors": (
        "BracketError", "ChainCapError", "DivergenceError", "DomainError",
        "InfeasibleError", "RuleConstructionError", "SeqInvestError", "TailShapeError",
        "UnboundedRatioError",
    ),
    "optima": (
        "OptimumResult", "RegionRow", "first_best_investment", "initiator_optimal",
        "region_curve_intersection", "region_sweep", "self_financed_optimal",
        "socially_optimal", "tail_limit",
    ),
    "profiles": (
        "ConstantTailProfile", "FunctionalValues", "constant_profile",
        "expected_investment", "expected_value", "expected_welfare", "flatten_tail",
        "functionals", "incentive_cost", "near_constant_profile",
    ),
    "rates": (
        "SuccessRate", "ValidationReport", "custom_rate", "rate_from_config",
        "scaled_sqrt_ratio", "sqrt_ratio", "validate",
    ),
    "rules": (
        "Column", "Mixture", "Perturbed", "StationaryColumnRule",
        "continuation_reward", "equal_split", "expected_payoff", "fixed_fraction",
        "fixed_fraction_floor", "flat_continuation", "implied_value", "jackpot",
        "next_step_bonus", "next_step_bonus_zero_initiator", "rule_from_config",
    ),
    "simulate": (
        "PayoffStat", "SimulationConfig", "SimulationSummary", "Stat", "summarize",
        "terminal_histogram",
    ),
    "solvers": (),
}

# plus RewardRule, a second name for StationaryColumnRule bound in the package
# only, kept while the benchmark reads it: perfbench's tracer counts rule
# constructions by it, and its workloads check rules against it
__all__ = sorted(["RewardRule", *_EXPORTS, *(n for names in _EXPORTS.values() for n in names)])


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        namespace[module] = mod = import_module(f"{__name__}.{module}")
        namespace.update((attr, getattr(mod, attr)) for attr in names)
    namespace["RewardRule"] = namespace["StationaryColumnRule"]
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
