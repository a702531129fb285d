# Success rates and their derived quantities.
#
# A success rate p maps an investment to the probability of extending the
# chain.  Two derived objects drive everything downstream: the incentive
# prize p/p' (the gross prize making an investment optimal) and the
# required return 1/p' (the net continuation return making it a best
# response).
import numpy as np

from seqinvest import custom_rate, scaled_sqrt_ratio, sqrt_ratio, validate

sr = sqrt_ratio()

print("reference family: p(x) = sqrt(x) / (1 + sqrt(x))")
print(f"{'x':>8}  {'p(x)':>8}  {'prize':>8}  {'return':>8}")
for x in (0.01, 0.05, 0.1, 0.25, 0.5, 1.0):
    print(
        f"{x:8.2f}  {sr.probability(x):8.4f}  {sr.incentive_prize(x):8.4f}"
        f"  {sr.required_return(x):8.4f}"
    )

print()
print("the prize always exceeds the investment (concavity of p):")
xs = np.geomspace(1e-3, 10, 7)
print(f"  min prize/x = {min(sr.incentive_prize(x) / x for x in xs):.10g}")

print()
print("grid validation of the modelling assumptions:")
for line in validate(sr).lines():
    print(" ", line)

print()
scaled = scaled_sqrt_ratio(0.5)
print("capped variant (eps = 0.5): p stays below", 1 - scaled.epsilon)
print(f"  p(1e6) = {scaled.probability(1e6):.10g}")
print("  prize unchanged by the cap:", scaled.incentive_prize(0.25), "==", sr.incentive_prize(0.25))

print()
print("a kinked rate is diagnosed, not rejected:")
kinked = custom_rate("kinked", lambda x: min(x, 0.9), lambda x: 1.0 if x < 0.9 else 0.0)
for line in validate(kinked).lines():
    print(" ", line)
