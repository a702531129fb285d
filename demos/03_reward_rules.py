# Reward rules in matrix form and the payoffs they induce.
#
# Row k shows how the realized value k+1 is split when agent k is the
# first to fail; column i is the payoff stream agent i faces.
from seqinvest import (
    constant_profile,
    continuation_reward,
    equal_split,
    expected_payoff,
    fixed_fraction,
    fixed_fraction_floor,
    jackpot,
    sqrt_ratio,
)

sr = sqrt_ratio()


def show_rows(rule, rows=5):
    print(f"{rule.label}:")
    for k in range(rows):
        print("   ", "  ".join(f"{v:5.2f}" for v in rule.row(k)))


show_rows(equal_split())
print()
show_rows(fixed_fraction(0.5))
print()
show_rows(fixed_fraction_floor(0.5, 0.25))
print()
show_rows(jackpot())

print()
print("continuation rewards against a constant profile at 0.1:")
x = constant_profile(0.1)
for rule in (equal_split(), fixed_fraction(0.5), jackpot()):
    rewards = [continuation_reward(sr, rule, x, i) for i in range(4)]
    print(f"  {rule.label:28s}", "  ".join(f"{r:6.3f}" for r in rewards))
print("  (the jackpot reward grows with the agent's position; the others are flat)")

print()
print("expected payoffs at the same profile:")
for rule in (equal_split(), fixed_fraction(0.5)):
    payoffs = [expected_payoff(sr, rule, x, i) for i in range(4)]
    print(f"  {rule.label:28s}", "  ".join(f"{u:6.3f}" for u in payoffs))
