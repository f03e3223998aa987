"""Seeded Monte Carlo simulation of ensemble measurements.

Each system in the ensemble is measured independently; outcomes are drawn
i.i.d. with Born weights |c_i|^2 by inverse-CDF over the cumulative
probabilities in ascending index order. The generator is Philox
(counter-based): the stream of key k is the block cipher run over counters
0, 1, 2, ..., so one Philox re-keyed per trial yields every trial's stream
without building a generator for each, and streams derive reproducibly
from one master seed.

``sample_outcomes`` turns each uniform into an outcome index.
``run_trials`` needs only how many of a trial's draws land on outcome j,
so it counts the draws inside j's CDF interval and builds no indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import StateVector

RNG_ALGORITHM = "philox4x64"

# Odd multiplier for deriving per-trial stream seeds from the master seed.
STREAM_CONSTANT = 0x9E3779B97F4A7C15

# How run_trials derives each trial's stream seed (see stream_seed).
STREAM_RULE = f"stream_seed = master ^ (trial_index * {STREAM_CONSTANT:#x}) mod 2**64"

_SEED_MASK = (1 << 64) - 1

# Most draws (N x trials) one request may ask for; a sampling job above it
# would run for hours, so it is refused before any draw.
MAX_DRAWS = 10**9

# Most trial runs (trials x ensemble sizes) one request may ask for. Each
# run costs ~10 us however small N is, so 10^6 runs take ~10 s; without
# this cap the draw budget alone admits ~3 h of one-draw trials.
MAX_TRIAL_RUNS = 10**6


def stream_seed(master_seed: int, trial_index: int) -> int:
    """Derived seed for one trial: master XOR (index * odd constant), mod 2**64."""
    return (master_seed ^ (trial_index * STREAM_CONSTANT)) & _SEED_MASK


def _check_seed(seed: int) -> None:
    # Philox accepts 128-bit keys, so a seed outside [0, 2**64) would
    # otherwise name a stream other than the one the metadata records.
    if not 0 <= seed <= _SEED_MASK:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def check_sampling(trials: int, seed: int, ns: list[int]) -> None:
    """Refuse a request to run ``trials`` trials at each ensemble size in
    ``ns`` before any draw: fewer than two trials, a seed outside
    [0, 2**64), more than ``MAX_DRAWS`` draws in all, or more than
    ``MAX_TRIAL_RUNS`` trial runs in all, checked in that order."""
    if trials < 2:
        raise ValueError(f"need at least two trials, got {trials}")
    _check_seed(seed)
    draws = trials * sum(ns)
    if draws > MAX_DRAWS:
        raise ValueError(
            f"sampling limited to N x trials <= {MAX_DRAWS} draws, got {draws}"
        )
    runs = trials * len(ns)
    if runs > MAX_TRIAL_RUNS:
        raise ValueError(
            f"sampling limited to trials x ensemble sizes <= {MAX_TRIAL_RUNS} "
            f"trial runs, got {runs}"
        )


def _born_cdf(state: StateVector) -> np.ndarray:
    """Cumulative Born weights in ascending index order, with the last
    entry set to +inf so that rounding in the sum cannot leave a draw
    above it, and a leading run of zero-weight entries set to -inf so that
    a draw of exactly 0.0 cannot land on an outcome of weight 0."""
    cdf = np.cumsum(state.probabilities())
    cdf[-1] = np.inf
    # Only a leading run of zero weights sums to exactly 0.0.
    cdf[cdf == 0.0] = -np.inf
    return cdf


def _uniforms(keys, n: int):
    """Yield n uniforms in [0, 1) for each key in turn, from one Philox.

    Before each key the Philox is re-keyed through its ``state``: counter
    0, key ``[k, 0]``, empty buffer. That is exactly the start state of
    ``Philox(key=k)``, so the draws for k equal
    ``Generator(Philox(key=k)).random(n)``.
    """
    if n < 1:
        raise ValueError(f"need at least one draw, got n={n}")
    bit_generator = np.random.Philox(key=0)
    gen = np.random.Generator(bit_generator)
    start = bit_generator.state
    for key in keys:
        start["state"]["key"] = np.array([key, 0], dtype=np.uint64)
        bit_generator.state = start
        yield gen.random(n)


@dataclass(frozen=True)
class TrialSummary:
    """Empirical frequency statistics over repeated ensemble measurements.

    ``frequencies`` holds one read-only entry per trial, in trial order.
    The seed, trial count, RNG and stream rule that reproduce a summary
    are the caller's inputs and the constants ``RNG_ALGORITHM`` and
    ``STREAM_RULE``.
    """

    mean_frequency: float
    sample_variance: float
    frequencies: np.ndarray


def sample_outcomes(state: StateVector, n: int, seed: int) -> np.ndarray:
    """Draw N i.i.d. outcomes with Born weights, deterministically per seed.

    Returns a read-only integer array of N outcome indices in draw order.
    """
    _check_seed(seed)
    u = next(_uniforms([seed], n))
    # side='left' sends a draw landing exactly on a CDF boundary to the
    # lower outcome index.
    outcomes = np.searchsorted(_born_cdf(state), u, side="left")
    outcomes.flags.writeable = False
    return outcomes


def run_trials(
    state: StateVector, n: int, trials: int, seed: int, j: int = 0
) -> TrialSummary:
    """Repeat the N-system measurement over independent seeded streams.

    Trial t uses the stream seed derived by :func:`stream_seed`; the mean
    and unbiased sample variance of the per-trial frequencies of outcome j
    are accumulated in ascending trial order.

    A draw u is outcome j when ``cdf[j-1] < u <= cdf[j]`` (``-inf`` below
    j = 0), the ``side='left'`` rule of :func:`sample_outcomes`, so a trial
    counts the draws in that interval without building outcome indices.
    An outcome index out of range, then whatever :func:`check_sampling`
    refuses for ``trials`` trials at the one size N, is refused before any
    draw.
    """
    if not 0 <= j < state.dim:
        raise ValueError(f"outcome index {j} out of range [0, {state.dim})")
    check_sampling(trials, seed, [n])
    cdf = _born_cdf(state)
    # The CDF is non-decreasing, so count(u <= hi) - count(u <= lo) is
    # count(lo < u <= hi).
    lo = cdf[j - 1] if j else -np.inf
    hi = cdf[j]
    freqs = np.empty(trials)
    keys = (stream_seed(seed, t) for t in range(trials))
    for t, u in enumerate(_uniforms(keys, n)):
        freqs[t] = (np.count_nonzero(u <= hi) - np.count_nonzero(u <= lo)) / n
    freqs.flags.writeable = False
    return TrialSummary(
        mean_frequency=float(freqs.mean()),
        sample_variance=float(freqs.var(ddof=1)),
        frequencies=freqs,
    )
