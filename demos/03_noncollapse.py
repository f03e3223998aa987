"""The non-collapse point: the product state converges in norm to the
Born-scaled state, yet its spectral mass over the frequency eigenspaces
spreads out instead of concentrating on a single eigenvalue.
"""

import math

from freqop.hilbert import StateVector
from freqop.analysis import convergence_sweep, noncollapse_verdict

state = StateVector.two_level(0.5)
rows = convergence_sweep(state, 0, [100, 10**4, 10**6])

print("p = 0.5:")
print(f"{'N':>8}  {'distance^2':>12}  {'max weight':>12}  {'off-peak mass':>14}")
for row in rows:
    print(
        f"{row['n']:>8}  {row['distance_sq']:>12.3e}  {row['max_weight']:>12.3e}  "
        f"{row['off_peak_mass']:>14.6f}"
    )

print("\nmax_weight * sqrt(N) stays near sqrt(2/pi) = 0.7979:")
for row in rows:
    print(f"  N={row['n']:>8}: {row['max_weight'] * math.sqrt(row['n']):.4f}")

print("\nVerdict:", noncollapse_verdict(state, 0, rows))
