"""Closed-form ensemble statistics and the 1/N distance law, cross-checked
against the dense oracle where the dense oracle can reach.
"""

from freqop.hilbert import EnsembleSpec, StateVector
from freqop import analytic, dense
from freqop.analysis import convergence_sweep, loglog_slope

state = StateVector.two_level(0.5)

print("p = 0.5: expectation, uncertainty, distance^2, gram vs N")
for n in (2, 5, 7):
    spec = EnsembleSpec(state, n, 0)
    dd = dense.statistics_dense(spec)["distance_sq"]
    print(
        f"  N={n}: <F>={analytic.expectation(spec):.4f}  "
        f"dF={analytic.uncertainty(spec):.4f}  "
        f"|F psi - p psi|^2={analytic.distance_sq(spec):.6f} (dense {dd:.6f})  "
        f"gram={analytic.gram(spec):.6f}"
    )

rows = convergence_sweep(state, 0, [10, 100, 1000, 10000])
print("\nDistance law over large N (no dense matrices needed):")
for row in rows:
    print(f"  N={row['n']:>6}  distance^2 = {row['distance_sq']:.2e}")
print(f"log-log slope: {loglog_slope(rows):.9f}  (the 1/N law)")
