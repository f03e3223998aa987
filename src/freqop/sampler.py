"""Seeded Monte Carlo simulation of ensemble measurements.

Each system in the ensemble is measured independently; outcomes are drawn
i.i.d. with Born weights |c_i|^2 by inverse-CDF over the cumulative
probabilities in ascending index order. The generator is Philox
(counter-based): the stream of key k is the block cipher run over counters
0, 1, 2, ..., so one Philox re-keyed per trial yields every trial's stream
without building a generator for each, streams derive reproducibly from
one master seed, and trials can run on separate threads in any order.

A draw is the raw 64-bit word w, standing for the uniform
``(w >> 11) * 2**-53`` that ``Generator.random`` would return. The
cumulative weights become d + 1 integer edges t, and outcome i takes the
words with ``t[i] < w >> 11 <= t[i + 1]``, exactly the draws that an
inverse-CDF search over the weights sends to i, so no float is formed.
``sample_outcomes`` turns each word into an outcome index by a search
over the edges. ``run_trials`` needs only how many of a trial's words
land on outcome j, so it counts the words between j's two edges and
builds no indices. Each worker holds one chunk of at most 2**15 words at
a time: a block of short trials, or a slice of a long one, let go before
the next is drawn. From 2**13 words a trial, the trials are split into
contiguous slices over the CPUs the process may use, one thread and one
Philox each.
"""

from __future__ import annotations

import os
import threading
from collections import namedtuple

import numpy as np

from .guards import SEED_MASK, check_draws, check_sampling, check_seed, check_target
from .hilbert import StateVector

RNG_ALGORITHM = "philox4x64"

# Odd multiplier for deriving per-trial stream seeds from the master seed.
STREAM_CONSTANT = 0x9E3779B97F4A7C15

# How run_trials derives each trial's stream seed (see stream_seed).
STREAM_RULE = f"stream_seed = master ^ (trial_index * {STREAM_CONSTANT:#x}) mod 2**64"

# Each worker of run_trials holds one chunk of at most _CHUNK words (and a
# compare's bool temporary, an eighth of it) at a time. Trials of at most
# _BLOCK_N words are counted a block of _CHUNK // n trials at a time
# (n = 100: 2.1 us a trial, 3.7 alone); from ~4096 words, copying the words
# into a block costs more than it saves (n = 10^4: 51 against 44 us).
_CHUNK = 2**15
_BLOCK_N = 2**11

# Only trials of at least _THREADS_N words run on several threads: shorter
# ones queue on the GIL (two CPUs, n = 3000 x 1000: 33 -> 46 ms CPU).
_THREADS_N = 2**13


def stream_seed(master_seed: int, trial_index: int) -> int:
    """Derived seed for one trial: master XOR (index * odd constant), mod 2**64."""
    return (master_seed ^ (trial_index * STREAM_CONSTANT)) & SEED_MASK


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """The d + 1 integer edges t of the cumulative Born weights cdf:
    outcome i takes the words w with ``t[i] < w >> 11 <= t[i + 1]``.

    A Philox word w is the draw ``(w >> 11) * 2**-53``
    (``Generator.random``'s map), so for cdf[i] > 0 the draw is at most
    cdf[i] exactly when ``w >> 11 <= floor(min(cdf[i], 1) * 2**53)``
    (exact, a power-of-two scaling), which is t[i + 1]. t[0] is -1, and so
    is the edge of each entry of a leading run of zero weights, so that a
    draw of exactly 0.0 cannot land on an outcome of weight 0. The last
    edge is 2**53, every draw, so that rounding in the sum cannot leave a
    draw above it.
    """
    t = np.floor(np.minimum(cdf, 1.0) * 2.0**53).astype(np.int64)
    # Only a leading run of zero weights sums to exactly 0.0.
    t[cdf == 0.0] = -1
    t[-1] = 2**53
    return np.concatenate(([-1], t))


def _count_at_most(words: np.ndarray, t: int):
    """How many words w of 1-D ``words`` (of each row, if 2-D) have
    ``w >> 11 <= t``, for an edge t of :func:`_thresholds` as a Python int;
    comparing w itself with ``(t << 11) | 2047`` skips the shift. The edges
    -1 and 2**53, whose ``(t << 11) | 2047`` lies outside uint64, take no
    compare. A count along an axis costs ~4 us more, so 1-D words are
    counted whole."""
    if t < 0:
        return 0
    if t >= 2**53:
        return words.shape[-1]
    axis = 1 if words.ndim == 2 else None
    return np.count_nonzero(words <= ((t << 11) | 2047), axis=axis)


def _count_in(words: np.ndarray, lo: int, hi: int):
    """How many words w of ``words`` (of each row, if 2-D) have
    ``lo < w >> 11 <= hi``, for edges lo <= hi of :func:`_thresholds`."""
    return _count_at_most(words, hi) - _count_at_most(words, lo)


def _rekeyed(bit_generator, keys):
    """Yield ``bit_generator``, a Philox, at the start of each key's stream
    in turn: counter 0, key ``[k, 0]`` and an empty buffer (``buffer_pos``
    4), exactly the state of ``Philox(key=k)``, so the words drawn after key
    k are those of ``Philox(key=k).random_raw``, however many calls draw
    them. The state is held once as Python ints and only ``key[0]`` changes:
    the setter takes ~1 us on ints, ~3 us on the arrays ``state`` returns."""
    key = [0, 0]
    start = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for k in keys:
        key[0] = k
        bit_generator.state = start
        yield bit_generator


def _count_trials(bit_generator, keys, n: int, lo: int, hi: int, out) -> None:
    """Write to out[i] the fraction of the first n words w of key i's
    stream with ``lo < w >> 11 <= hi``: up to ``_BLOCK_N`` words a trial,
    ``_CHUNK // n`` trials at a time, one a row of a block, by one compare
    per edge (exact integer counts, so ``counts / n`` are the doubles
    ``count / n``); a longer trial on its own, ``_CHUNK`` words at a time."""
    streams = _rekeyed(bit_generator, keys)
    if n <= _BLOCK_N:
        block = np.empty((_CHUNK // n, n), dtype=np.uint64)
        for a in range(0, len(out), len(block)):
            rows = block[: len(out) - a]
            # zip takes a row first, so it re-keys no stream past the block.
            for row, stream in zip(rows, streams):
                row[:] = stream.random_raw(n)
            out[a : a + len(rows)] = _count_in(rows, lo, hi) / n
        return
    for i, stream in enumerate(streams):
        count = 0
        for start in range(0, n, _CHUNK):
            # No name holds a chunk, so it is freed before the next is drawn.
            count += _count_in(stream.random_raw(min(_CHUNK, n - start)), lo, hi)
        out[i] = count / n


def _run_parallel(target, jobs) -> None:
    """Call ``target(*job)`` for each job: the first on the calling thread,
    each other on a thread of its own. Once all have ended, re-raise the
    calling thread's exception, else the first one a thread raised."""
    errors = []

    def run(job):
        try:
            target(*job)
        except BaseException as exc:  # re-raised below, in the caller
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(job,)) for job in jobs[1:]]
    for thread in threads:
        thread.start()
    try:
        target(*jobs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (Linux), else one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


# Empirical frequency statistics over repeated ensemble measurements.
# ``frequencies`` holds one read-only entry per trial, in trial order. The
# seed, trial count, RNG and stream rule that reproduce a summary are the
# caller's inputs and the constants ``RNG_ALGORITHM`` and ``STREAM_RULE``.
TrialSummary = namedtuple(
    "TrialSummary", ("mean_frequency", "sample_variance", "frequencies"))


def sample_outcomes(state: StateVector, n: int, seed: int) -> np.ndarray:
    """Draw N i.i.d. outcomes with Born weights, deterministically per seed.

    Returns a read-only integer array of N outcome indices in draw order.
    """
    check_seed(seed)
    check_draws(n)
    words = np.random.Philox(key=seed).random_raw(n)
    # side='left' sends a draw landing exactly on an edge to the lower
    # outcome index. The shifted words lie below 2**53, so the int64 view
    # keeps their values.
    edges = _thresholds(np.cumsum(state.probabilities()))
    outcomes = np.searchsorted(edges[1:], (words >> 11).view(np.int64), side="left")
    outcomes.flags.writeable = False
    return outcomes


def run_trials(
    state: StateVector, n: int, trials: int, seed: int, j: int = 0
) -> TrialSummary:
    """Repeat the N-system measurement over independent seeded streams.

    Trial t uses the stream seed derived by :func:`stream_seed`; the mean
    and unbiased sample variance of the per-trial frequencies of outcome j
    are accumulated in ascending trial order.

    A word w is outcome j when ``t[j] < w >> 11 <= t[j + 1]`` for the edges
    t of :func:`_thresholds`, the ``side='left'`` rule of
    :func:`sample_outcomes`, so a trial counts the words between j's two
    edges without building outcome indices.
    The frequencies are the same bytes however many threads count them.
    A target index out of range, then whatever :func:`check_sampling`
    refuses for ``trials`` trials at the one size N, is refused before any
    draw.
    """
    check_target(j, state.dim)
    check_sampling(trials, seed, [n])
    lo, hi = _thresholds(np.cumsum(state.probabilities()))[j : j + 2].tolist()
    freqs = np.empty(trials)
    workers = min(_cpus(), trials) if n >= _THREADS_N else 1
    bounds = [trials * w // workers for w in range(workers + 1)]
    # Built here, one per worker, so a failure to build one raises before
    # any thread starts.
    bit_generators = [np.random.Philox(key=0) for _ in range(workers)]
    jobs = [
        (bg, (stream_seed(seed, t) for t in range(a, b)), n, lo, hi, freqs[a:b])
        for bg, a, b in zip(bit_generators, bounds, bounds[1:])
    ]
    _run_parallel(_count_trials, jobs)
    freqs.flags.writeable = False
    return TrialSummary(
        mean_frequency=float(freqs.mean()),
        sample_variance=float(freqs.var(ddof=1)),
        frequencies=freqs,
    )
