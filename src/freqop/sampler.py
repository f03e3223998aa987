"""Seeded Monte Carlo simulation of ensemble measurements.

Each system in the ensemble is measured independently; outcomes are drawn
i.i.d. with Born weights |c_i|^2 by inverse-CDF over the cumulative
probabilities in ascending index order. The generator is Philox
(counter-based), so streams for parallel trials derive cheaply and
reproducibly from one master seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import StateVector

RNG_ALGORITHM = "philox4x64"

# Odd multiplier for deriving per-trial stream seeds from the master seed.
STREAM_CONSTANT = 0x9E3779B97F4A7C15

_SEED_MASK = (1 << 64) - 1


def stream_seed(master_seed: int, trial_index: int) -> int:
    """Derived seed for one trial: master XOR (index * odd constant), mod 2**64."""
    return (master_seed ^ (trial_index * STREAM_CONSTANT)) & _SEED_MASK


def _check_seed(seed: int) -> None:
    # Philox accepts 128-bit keys, so a seed outside [0, 2**64) would
    # otherwise name a stream other than the one the metadata records.
    if not 0 <= seed <= _SEED_MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _born_cdf(state: StateVector) -> np.ndarray:
    """Cumulative Born weights in ascending index order, with the last
    entry set to +inf so that rounding in the sum cannot leave a draw
    above it."""
    cdf = np.cumsum(state.probabilities())
    cdf[-1] = np.inf
    return cdf


def _draw(cdf: np.ndarray, key: int, n: int) -> np.ndarray:
    """Outcome indices of n inverse-CDF draws from the Philox stream keyed
    by ``key``."""
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    u = np.random.Generator(np.random.Philox(key=key)).random(n)
    # side='left' sends a draw landing exactly on a CDF boundary to the
    # lower outcome index.
    return np.searchsorted(cdf, u, side="left")


@dataclass(frozen=True)
class OutcomeRecord:
    """Outcomes of measuring every system of one ensemble."""

    n: int
    outcomes: np.ndarray
    seed: int
    rng_algorithm: str = RNG_ALGORITHM


@dataclass(frozen=True)
class TrialSummary:
    """Empirical frequency statistics over repeated ensemble measurements.

    The seed, RNG identifier, and stream derivation rule are embedded so a
    summary is reproducible from its own metadata.
    """

    trials: int
    mean_frequency: float
    sample_variance: float
    frequencies: np.ndarray
    seed: int
    rng_algorithm: str = RNG_ALGORITHM
    stream_rule: str = field(
        default=f"stream_seed = master ^ (trial_index * {STREAM_CONSTANT:#x}) mod 2**64"
    )


def sample_outcomes(state: StateVector, n: int, seed: int) -> OutcomeRecord:
    """Draw N i.i.d. outcomes with Born weights, deterministically per seed."""
    _check_seed(seed)
    outcomes = _draw(_born_cdf(state), seed, n)
    outcomes.flags.writeable = False
    return OutcomeRecord(n=n, outcomes=outcomes, seed=seed)


def empirical_frequency(rec: OutcomeRecord, j: int) -> tuple[int, float]:
    """Count and fraction of outcomes equal to j: (k, k/N)."""
    k = int(np.count_nonzero(rec.outcomes == j))
    return k, k / rec.n


def run_trials(
    state: StateVector, n: int, trials: int, seed: int, j: int = 0
) -> TrialSummary:
    """Repeat the N-system measurement over independent seeded streams.

    Trial t uses the stream seed derived by :func:`stream_seed`; the mean
    and unbiased sample variance of the per-trial frequencies of outcome j
    are accumulated in ascending trial order.
    """
    if trials < 2:
        raise ValueError(f"need at least two trials, got {trials}")
    if not 0 <= j < state.dim:
        raise ValueError(f"outcome index {j} out of range [0, {state.dim})")
    _check_seed(seed)
    cdf = _born_cdf(state)
    freqs = np.empty(trials)
    for t in range(trials):
        outcomes = _draw(cdf, stream_seed(seed, t), n)
        freqs[t] = np.count_nonzero(outcomes == j) / n
    freqs.flags.writeable = False
    return TrialSummary(
        trials=trials,
        mean_frequency=float(freqs.mean()),
        sample_variance=float(freqs.var(ddof=1)),
        frequencies=freqs,
        seed=seed,
    )
