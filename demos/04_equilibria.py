# Best responses, equilibrium verification, and rule synthesis.
#
# The walkthrough reproduces the standard counterexample chain: an
# asymmetric three-tier rule whose equilibrium has agent 1 overinvesting,
# and whose flattened profile cannot be supported by any rule.
from seqinvest import (
    ConstantTailProfile,
    best_response_dynamics,
    constant_support_check,
    flatten_tail,
    investment_bounds,
    jackpot,
    near_constant_feasibility,
    scaled_sqrt_ratio,
    sqrt_ratio,
    synthesize_rule,
    verify_equilibrium,
)
from seqinvest.rules import Column, StationaryColumnRule

sr = sqrt_ratio()

three_tier = StationaryColumnRule(
    "three_tier",
    leading=(Column(0, (1.0, 2.0), 0.0), Column(1, (0.0, 3.0), 2.0)),
    repeating_entries=(0.0, 2.0),
    repeating_tail=1.0,
)

print("backward best-response sweeps, horizon 8, zero start:")
dyn = best_response_dynamics(sr, three_tier, horizon=8)
print(f"  converged in {dyn.sweeps} sweeps; first agents:")
for i in range(4):
    print(f"    x_{i} = {dyn.profile.at(i):.4f}")

profile = ConstantTailProfile((dyn.profile.at(0), dyn.profile.at(1)), dyn.profile.at(2))
report = verify_equilibrium(sr, three_tier, profile)
print("  verification:", report.verdict, f"(max residual {report.max_residual:.1e})")

print()
flat = flatten_tail(sr, profile, 1)
print(f"flattening the tail to c = {flat.tail:.4f} preserves the value, but:")
feas = near_constant_feasibility(sr, profile.at(0), flat.tail, 0.0)
print(
    f"  initiator return {feas.ratio:.4f} < lower bound {feas.lower:.4f}"
    f" -> {feas.verdict}: no rule supports the flattened profile"
)

print()
print("constant profiles are supportable exactly up to the prize =")
print("probability point; a floor rule witnesses the supportable ones:")
for c in (0.05, 0.0883, 0.12):
    res = constant_support_check(sr, c)
    mark = res.witness.label if res.supported else f"gap {res.gap:.4f}"
    print(f"  c = {c:5.3f}: {res.verdict:13s} {mark}")

print()
print("synthesis inside the feasible band mixes two endpoint rules:")
rule = synthesize_rule(sr, 0.06, 0.12, 0.0)
print(" ", rule.label)
rep = verify_equilibrium(sr, rule, ConstantTailProfile((0.06,), 0.12))
print("  verifies:", rep.verdict, f"(max residual {rep.max_residual:.1e})")

print()
print("jackpot overinvestment under a capped rate (eps = sqrt(2)/2):")
capped = scaled_sqrt_ratio(0.7071067811865476)
dyn = best_response_dynamics(capped, jackpot(), horizon=12)
sched = investment_bounds(capped)
print("  agent  investment  bound")
for i in (0, 1, 5, 10, 11):
    print(f"  {i:5d}  {dyn.profile.at(i):10.4f}  {sched.bound(i):6.4f}")
print("  (everyone except the initiator exceeds the first best of 0.0142)")
