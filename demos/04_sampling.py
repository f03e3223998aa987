"""Seeded Monte Carlo measurement of every system in the ensemble, checked
against the operator-level predictions: the mean empirical frequency is the
Born weight and its variance is p(1-p)/N.
"""

from freqop.hilbert import EnsembleSpec, StateVector
from freqop import analytic
from freqop.sampler import RNG_ALGORITHM, STREAM_RULE, run_trials

state = StateVector.two_level(0.36)
n, trials, seed = 100, 10_000, 42

summary = run_trials(state, n, trials, seed, j=0)
# Trial 0 draws from the master seed's own stream: one ensemble of N.
k = round(summary.frequencies[0] * n)
print(f"one ensemble of N={n}: {k} outcomes were 0, empirical f_0 = {k / n}")

spec = EnsembleSpec(state, n, 0)
print(f"\n{trials} independent trials (rng {RNG_ALGORITHM}, seed {seed}):")
print(f"  mean frequency    {summary.mean_frequency:.5f}   predicted {analytic.expectation(spec):.5f}")
print(f"  sample variance   {summary.sample_variance:.3e}  predicted {analytic.uncertainty(spec)**2:.3e}")
print(f"  stream rule: {STREAM_RULE}")
