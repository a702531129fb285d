# Support-region boundary curves, written as CSV for external plotting.
#
# For each tail c the band of supportable initiator investments runs from
# the lower to the upper curve; the self-financed band (floor = c) sits
# strictly inside.  The unconstrained curves cross where the band closes.
import sys

import numpy as np

from seqinvest import Mode, region_curve_intersection, region_sweep, sqrt_ratio

sr = sqrt_ratio()

c_cross = region_curve_intersection(sr)
print(f"# unconstrained band closes at c = {c_cross:.6f}", file=sys.stderr)

grid = np.linspace(0.002, 0.30, 150)
free = region_sweep(sr, grid, Mode.UNCONSTRAINED)
tight = region_sweep(sr, grid, Mode.SELF_FINANCED)


def cell(v):
    return "" if v is None else f"{v:.8f}"


print("c,diagonal,lower,upper,sf_lower,sf_upper")
for a, b in zip(free, tight):
    print(
        f"{a.c:.8f},{cell(a.c)},{cell(a.lower)},{cell(a.upper)},"
        f"{cell(b.lower)},{cell(b.upper)}"
    )
