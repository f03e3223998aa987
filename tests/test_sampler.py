import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from freqop.guards import MAX_DRAWS, MAX_TRIAL_RUNS
from freqop.hilbert import StateVector
from freqop.sampler import (
    _CHUNK,
    _born_cdf,
    _rekeyed,
    run_trials,
    sample_outcomes,
    stream_seed,
)

_Philox = np.random.Philox


class TestSampleOutcomes:
    def test_degenerate_state(self):
        outcomes = sample_outcomes(StateVector([0, 1]), 50, seed=123)
        assert np.all(outcomes == 1)

    def test_determinism(self):
        s = StateVector.two_level(0.36)
        a = sample_outcomes(s, 1000, seed=99)
        b = sample_outcomes(s, 1000, seed=99)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        s = StateVector.two_level(0.5)
        a = sample_outcomes(s, 1000, seed=1)
        b = sample_outcomes(s, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_outcomes_in_range(self):
        outcomes = sample_outcomes(StateVector.uniform(3), 500, seed=5)
        assert outcomes.min() >= 0
        assert outcomes.max() < 3

    def test_concentration_large_n(self):
        # 5-sigma binomial bound at N = 10**6.
        n = 10**6
        outcomes = sample_outcomes(StateVector.two_level(0.36), n, seed=20260826)
        f0 = np.count_nonzero(outcomes == 0) / n
        assert abs(f0 - 0.36) <= 5 * math.sqrt(0.36 * 0.64 / n)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample_outcomes(StateVector.uniform(2), 0, seed=1)


class TestEmpiricalFrequency:
    def test_frequencies_partition(self):
        outcomes = sample_outcomes(StateVector.uniform(3), 271, seed=8)
        total = sum(np.count_nonzero(outcomes == j) / 271 for j in range(3))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestRunTrials:
    def test_degenerate(self):
        summary = run_trials(StateVector.two_level(1.0), 20, 10, seed=3, j=0)
        assert summary.mean_frequency == 1.0
        assert summary.sample_variance == 0.0

    def test_determinism_bitwise(self):
        s = StateVector.two_level(0.5)
        a = run_trials(s, 100, 200, seed=77)
        b = run_trials(s, 100, 200, seed=77)
        assert a.mean_frequency == b.mean_frequency
        assert a.sample_variance == b.sample_variance
        np.testing.assert_array_equal(a.frequencies, b.frequencies)

    def test_stream_seeds_distinct(self):
        seeds = {stream_seed(42, t) for t in range(1000)}
        assert len(seeds) == 1000

    def test_mean_and_variance_match_theory(self):
        # p(1-p)/N = 0.0025 at p = 0.5, N = 100.
        summary = run_trials(StateVector.two_level(0.5), 100, 10**4, seed=7)
        se = 5 * math.sqrt(0.25 / (100 * 10**4))
        assert abs(summary.mean_frequency - 0.5) <= se
        assert 0.9 * 0.0025 <= summary.sample_variance <= 1.1 * 0.0025

    def test_variance_halves_with_doubled_n(self):
        s = StateVector.two_level(0.5)
        v1 = run_trials(s, 200, 4000, seed=11).sample_variance
        v2 = run_trials(s, 400, 4000, seed=11).sample_variance
        assert v2 / v1 == pytest.approx(0.5, abs=0.075)

    def test_requires_two_trials(self):
        with pytest.raises(ValueError):
            run_trials(StateVector.uniform(2), 10, 1, seed=0)


def _constant_philox(word):
    """Stand-in for np.random.Philox whose every word is ``word``; it
    takes any key and keeps whatever state is set on it."""

    class _Constant:
        def __init__(self, key=None):
            self.state = {"state": {}}

        def random_raw(self, size):
            return np.full(size, word, dtype=np.uint64)

    return _Constant


def test_draw_above_rounded_cdf_is_last_outcome(monkeypatch):
    # Word 2**64 - 1 is the draw 1 - 2**-53, the largest double below 1,
    # which lies above the last cumulative Born weight of uniform:2
    # (1 - 2**-52 after rounding).
    monkeypatch.setattr(np.random, "Philox", _constant_philox(2**64 - 1))
    state = StateVector.uniform(2)
    assert run_trials(state, 10, 2, seed=0, j=1).mean_frequency == 1.0
    assert np.all(sample_outcomes(state, 10, seed=0) == 1)


def test_zero_draw_skips_zero_weight_outcomes(monkeypatch):
    # Word 0 is the draw 0.0, which Philox gives with probability 2**-53.
    monkeypatch.setattr(np.random, "Philox", _constant_philox(0))
    assert list(sample_outcomes(StateVector.two_level(0.0), 3, 1)) == [1, 1, 1]
    assert list(sample_outcomes(StateVector([0, 0, 1]), 3, 1)) == [2, 2, 2]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    state = StateVector.uniform(2)
    with pytest.raises(ValueError, match="seed"):
        sample_outcomes(state, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        run_trials(state, 10, 2, seed)


@pytest.mark.parametrize("n", [1, 3, 6, 101])
def test_uniforms_match_fresh_philox(n):
    # One Philox serves every key, so each key's words must not depend on
    # what the previous key left in the buffer; 0 comes back at the end.
    # Each key's words are drawn in two calls, as run_trials draws chunks.
    keys = [0, 1, 2**64 - 1, 0]
    m = n // 2
    drawn = [np.concatenate([s.random_raw(m), s.random_raw(n - m)])
             for s in _rekeyed(_Philox(key=0), keys)]
    assert len(drawn) == len(keys)
    for key, words in zip(keys, drawn):
        assert words.tobytes() == _Philox(key=key).random_raw(n).tobytes()
        fresh = np.random.Generator(_Philox(key=key)).random(n)
        assert ((words >> 11) * 2.0**-53).tobytes() == fresh.tobytes()


def _plain(state):
    """A bit generator's ``state`` with its arrays as lists."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


@pytest.mark.parametrize("key", [0, 1, 2**63, 2**64 - 1])
def test_rekeyed_state_is_fresh_philox_state(key):
    # Words and a 32-bit draw first move the counter, fill the buffer and
    # keep half a word, all of which the re-key must reset.
    bit_generator = _Philox(key=5)
    bit_generator.random_raw(2)
    np.random.Generator(bit_generator).integers(2**32, dtype=np.uint32)
    stream = next(_rekeyed(bit_generator, [key]))
    assert _plain(stream.state) == _plain(_Philox(key=key).state)


# Trials of at most 2**11 words are counted in blocks of _CHUNK // n: at
# n = 1000 and at n = 2**11, two full blocks and a partial one (of 7 and
# of 3 trials). Longer trials are counted one by one, from 2**13 words on
# several threads where the process may use several CPUs, and from _CHUNK
# (2**15) words a trial is drawn in chunks.
@pytest.mark.parametrize("n", [1, 3, 101, 1000, 2**11, 2**11 + 1, 2**15, 2**15 + 1,
                               2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3])
@pytest.mark.parametrize("state", [
    StateVector.two_level(0.36),
    StateVector.two_level(0.0),
    StateVector([0, 0, 1]),
    StateVector([0.0, 0.6, 0.0, 0.8j]),
    StateVector([0.5, 0.5j, -0.5, 0.5, 0.0]),
    StateVector(np.array([1.0, 2.0 - 1.0j, 0.3, 0.0, 1.5j]) / np.sqrt(8.34)),
], ids=["two_level", "p0", "basis_d3", "zero_middle", "zero_last", "complex_d5"])
def test_trial_frequencies_match_searchsorted_reference(state, n):
    """Counting the words in outcome j's CDF interval gives the bytes of
    building every outcome index from fresh Generator floats and counting
    those equal to j."""
    partial, seed = {1000: 7, 2**11: 3}.get(n), 2026
    trials = 2 * (_CHUNK // n) + partial if partial else 4
    cdf = _born_cdf(state)
    outcomes = [
        np.searchsorted(
            cdf,
            np.random.Generator(np.random.Philox(key=stream_seed(seed, t))).random(n),
            side="left",
        )
        for t in range(trials)
    ]
    for j in range(state.dim):
        reference = np.array([np.count_nonzero(o == j) / n for o in outcomes])
        got = run_trials(state, n, trials, seed, j).frequencies
        assert got.tobytes() == reference.tobytes()


# One sampler, two read-outs: trial 0's stream seed is the master seed
# (stream_seed(seed, 0) == seed), and both compare Philox words with the
# same thresholds. n covers the block path (up to 2**11 words a trial), the
# long path, and a long trial whose last chunk is partial.
@pytest.mark.parametrize("n", [1, 100, 2**11, 2**11 + 1, 2**15 + 3])
@pytest.mark.parametrize("state", [
    StateVector([0.0, 0.6, 0.0, 0.8j]),
    StateVector([0.5, 0.5j, -0.5, 0.5, 0.0]),
    StateVector([0, 0, 1]),
], ids=["zero_middle", "zero_last", "basis_d3"])
def test_sample_outcomes_are_trial_0(state, n):
    seed = 2027
    outcomes = sample_outcomes(state, n, seed)
    for j in range(state.dim):
        frequency = run_trials(state, n, 2, seed, j).frequencies[0]
        assert np.count_nonzero(outcomes == j) / n == frequency


@pytest.mark.parametrize("j", [0, 1, 2])
def test_draw_on_cdf_boundary_is_lower_outcome(monkeypatch, j):
    # uniform:4 has Born weights of exactly 1/4, so cdf[j] == (j + 1) / 4,
    # and word ((j + 1) << 51) << 11 is the draw (j + 1) / 4 exactly.
    monkeypatch.setattr(np.random, "Philox", _constant_philox(((j + 1) << 51) << 11))
    state = StateVector.uniform(4)
    assert run_trials(state, 5, 2, seed=0, j=j).mean_frequency == 1.0
    assert run_trials(state, 5, 2, seed=0, j=j + 1).mean_frequency == 0.0
    assert np.all(sample_outcomes(state, 5, seed=0) == j)


class _Drew(Exception):
    pass


def _refusing_philox(built):
    """Stand-in for np.random.Philox that records its construction and
    draws nothing."""

    def philox(*args, **kwargs):
        built.append(kwargs)
        raise _Drew

    return philox


def test_draw_budget_refused_before_any_draw(monkeypatch):
    built = []
    monkeypatch.setattr(np.random, "Philox", _refusing_philox(built))
    state = StateVector.uniform(2)
    with pytest.raises(ValueError, match="draws"):
        run_trials(state, 10**6, MAX_DRAWS // 10**6 + 1, seed=0)
    assert built == []
    # Exactly at the budget the job reaches its first draw.
    with pytest.raises(_Drew):
        run_trials(state, 10**6, MAX_DRAWS // 10**6, seed=0)
    assert len(built) == 1


def test_trial_run_cap_refused_before_any_draw(monkeypatch):
    built = []
    monkeypatch.setattr(np.random, "Philox", _refusing_philox(built))
    state = StateVector.uniform(2)
    # One draw per trial keeps far inside the draw budget.
    with pytest.raises(ValueError, match="trial runs"):
        run_trials(state, 1, MAX_TRIAL_RUNS + 1, seed=0)
    assert built == []
    # Exactly at the cap the job reaches its first draw.
    with pytest.raises(_Drew):
        run_trials(state, 1, MAX_TRIAL_RUNS, seed=0)
    assert len(built) == 1


class _RecordedPhilox:
    """A real Philox that records, into ``log``, its construction and the
    key and thread of every draw; a draw from stream ``fail_key`` raises
    ``_Drew``."""

    def __init__(self, log, fail_key, key):
        self._bg = _Philox(key=key)
        self._log = log
        self._fail_key = fail_key
        log.append("built")

    @property
    def state(self):
        return self._bg.state

    @state.setter
    def state(self, value):
        self._bg.state = value

    def random_raw(self, size):
        key = int(self._bg.state["state"]["key"][0])
        self._log.append((key, threading.current_thread()))
        if key == self._fail_key:
            raise _Drew
        return self._bg.random_raw(size)


def _record_philox(monkeypatch, cpus, fail_key=None):
    log = []
    # raising=False: a platform without an affinity mask gains one here.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(
        np.random, "Philox", lambda key: _RecordedPhilox(log, fail_key, key))
    return log


@pytest.mark.parametrize("n", [2**13 - 1, 2**13, 2**16 - 1, 2**16 + 5])
def test_worker_count_leaves_frequencies_unchanged(monkeypatch, n):
    # 7 trials on 3 workers split 2, 2, 3. Below 2**13 words a trial runs
    # on the calling thread whatever the CPUs.
    state, trials = StateVector([0.6, 0.0, 0.8j]), 7
    summaries = {}
    for cpus in (1, 3):
        log = _record_philox(monkeypatch, cpus)
        summaries[cpus] = run_trials(state, n, trials, seed=5, j=2)
        workers = min(cpus, trials) if n >= 2**13 else 1
        assert log.count("built") == workers
        assert len({entry[1] for entry in log if entry != "built"}) == workers
    one, three = summaries[1], summaries[3]
    assert three.frequencies.tobytes() == one.frequencies.tobytes()
    assert three.mean_frequency == one.mean_frequency
    assert three.sample_variance == one.sample_variance


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_worker_holds_one_chunk(monkeypatch, cpus):
    """Each worker lets go of a trial's chunk of words before it draws the
    next, so the traced peak stays below one and a half chunks a worker: a
    chunk and its compare's bool temporary. A loop that keeps the last
    chunk while it draws the next peaks at two."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    # Three full chunks and a partial one a trial, two trials a worker.
    state, n, trials = StateVector.two_level(0.36), 3 * _CHUNK + 5, 2 * cpus
    run_trials(state, n, trials, seed=3)  # lazy imports and caches settle first
    tracemalloc.start()
    try:
        run_trials(state, n, trials, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * cpus * _CHUNK * 8


def test_worker_exception_propagates(monkeypatch):
    # The last of three workers fails on its only trial while the other
    # two finish theirs; run_trials must raise, not return.
    seed, trials = 9, 3
    log = _record_philox(monkeypatch, 3, fail_key=stream_seed(seed, trials - 1))
    with pytest.raises(_Drew):
        run_trials(StateVector.uniform(2), 2**16, trials, seed)
    draws = [e for e in log if e != "built"]
    assert {key for key, _ in draws} == {stream_seed(seed, t) for t in range(trials)}
    failed = [thread for key, thread in draws if key == stream_seed(seed, trials - 1)]
    assert failed and failed[0] is not threading.main_thread()
