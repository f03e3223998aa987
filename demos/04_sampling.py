"""Seeded Monte Carlo measurement of every system in the ensemble, checked
against the operator-level predictions: the mean empirical frequency is the
Born weight and its variance is p(1-p)/N.
"""

import numpy as np

from freqop.hilbert import EnsembleSpec, StateVector
from freqop import analytic
from freqop.sampler import RNG_ALGORITHM, STREAM_RULE, run_trials, sample_outcomes

state = StateVector.two_level(0.36)
n, trials, seed = 100, 10_000, 42

outcomes = sample_outcomes(state, n, seed)
k = np.count_nonzero(outcomes == 0)
print(f"one ensemble of N={n}: {k} outcomes were 0, empirical f_0 = {k / n}")

summary = run_trials(state, n, trials, seed, j=0)
spec = EnsembleSpec(state, n, 0)
print(f"\n{trials} independent trials (rng {RNG_ALGORITHM}, seed {seed}):")
print(f"  mean frequency    {summary.mean_frequency:.5f}   predicted {analytic.expectation(spec):.5f}")
print(f"  sample variance   {summary.sample_variance:.3e}  predicted {analytic.uncertainty(spec)**2:.3e}")
print(f"  stream rule: {STREAM_RULE}")
