# The four scalar optimum programs side by side.
from seqinvest import (
    constant_profile,
    expected_welfare,
    first_best_investment,
    initiator_optimal,
    self_financed_optimal,
    socially_optimal,
    sqrt_ratio,
)

sr = sqrt_ratio()

c_fb = first_best_investment(sr)
print("first best (support ignored):")
print(f"  c = {c_fb:.6f},  welfare = {expected_welfare(sr, constant_profile(c_fb)):.6f}")
print("  not supportable: the prize exceeds the probability there")

for result in (socially_optimal(sr), initiator_optimal(sr), self_financed_optimal(sr)):
    print()
    print(f"{result.name}:")
    if result.profile.prefix:
        print(f"  x0 = {result.profile.prefix[0]:.6f}")
    print(f"  c  = {result.profile.tail:.6f}")
    print(f"  objective = {result.objective:.6f}")
    print(f"  supporting rule: {result.rule.label}")
    print(f"  verified: {result.report.verdict} (max residual {result.report.max_residual:.1e})")
    for name, value in result.residuals:
        print(f"  {name}: {value:.2e}")

print()
print("reading: welfare falls from the first best (1.1852) to the best")
print("supportable constant (1.1826) and further once investments must be")
print("self-financed (1.1799); the initiator's own optimum concentrates")
print("investment at the start instead.")
