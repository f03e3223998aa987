import math

import numpy as np
import pytest

from freqop.hilbert import StateVector
from freqop.sampler import (
    MAX_DRAWS,
    MAX_TRIAL_RUNS,
    _born_cdf,
    _uniforms,
    run_trials,
    sample_outcomes,
    stream_seed,
)


class TestSampleOutcomes:
    def test_degenerate_state(self):
        outcomes = sample_outcomes(StateVector.basis(2, 1), 50, seed=123)
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


class _TopOfUnitInterval:
    """Stands in for np.random.Generator: every draw is the largest double
    below 1, which lies above the last cumulative Born weight of uniform:2
    (1 - 2**-52 after rounding)."""

    def __init__(self, bit_generator):
        pass

    def random(self, n):
        return np.full(n, np.nextafter(1.0, 0.0))


def test_draw_above_rounded_cdf_is_last_outcome(monkeypatch):
    monkeypatch.setattr(np.random, "Generator", _TopOfUnitInterval)
    state = StateVector.uniform(2)
    assert run_trials(state, 10, 2, seed=0, j=1).mean_frequency == 1.0
    assert np.all(sample_outcomes(state, 10, seed=0) == 1)


class _BottomOfUnitInterval:
    """Stands in for np.random.Generator: every draw is exactly 0.0, which
    Philox's random() returns with probability 2**-53."""

    def __init__(self, bit_generator):
        pass

    def random(self, n):
        return np.zeros(n)


def test_zero_draw_skips_zero_weight_outcomes(monkeypatch):
    monkeypatch.setattr(np.random, "Generator", _BottomOfUnitInterval)
    assert list(sample_outcomes(StateVector.two_level(0.0), 3, 1)) == [1, 1, 1]
    assert list(sample_outcomes(StateVector.basis(3, 2), 3, 1)) == [2, 2, 2]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    state = StateVector.uniform(2)
    with pytest.raises(ValueError, match="seed"):
        sample_outcomes(state, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        run_trials(state, 10, 2, seed)


@pytest.mark.parametrize("n", [1, 3, 6, 101])
def test_uniforms_match_fresh_philox(n):
    # One Philox serves every key, so each key's draws must not depend on
    # what the previous key left in the buffer; 0 comes back at the end.
    keys = [0, 1, 2**64 - 1, 0]
    drawn = list(_uniforms(keys, n))
    assert len(drawn) == len(keys)
    for key, u in zip(keys, drawn):
        fresh = np.random.Generator(np.random.Philox(key=key)).random(n)
        assert u.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("n", [1, 3, 101])
@pytest.mark.parametrize("state", [
    StateVector.two_level(0.36),
    StateVector.two_level(0.0),
    StateVector.basis(3, 2),
    StateVector([0.0, 0.6, 0.0, 0.8j]),
    StateVector([0.5, 0.5j, -0.5, 0.5, 0.0]),
    StateVector(np.array([1.0, 2.0 - 1.0j, 0.3, 0.0, 1.5j]) / np.sqrt(8.34)),
], ids=["two_level", "p0", "basis_d3", "zero_middle", "zero_last", "complex_d5"])
def test_trial_frequencies_match_searchsorted_reference(state, n):
    """Counting the draws in outcome j's CDF interval gives the bytes of
    building every outcome index and counting those equal to j."""
    trials, seed = 4, 2026
    cdf = _born_cdf(state)
    for j in range(state.dim):
        reference = np.array([
            np.count_nonzero(np.searchsorted(
                cdf,
                np.random.Generator(np.random.Philox(key=stream_seed(seed, t))).random(n),
                side="left",
            ) == j) / n
            for t in range(trials)
        ])
        got = run_trials(state, n, trials, seed, j).frequencies
        assert got.tobytes() == reference.tobytes()


def _constant_generator(value):
    """Stand-in for np.random.Generator whose every draw is ``value``."""

    class _Constant:
        def __init__(self, bit_generator):
            pass

        def random(self, n):
            return np.full(n, value)

    return _Constant


@pytest.mark.parametrize("j", [0, 1, 2])
def test_draw_on_cdf_boundary_is_lower_outcome(monkeypatch, j):
    # uniform:4 has Born weights of exactly 1/4, so cdf[j] == (j + 1) / 4.
    monkeypatch.setattr(np.random, "Generator", _constant_generator((j + 1) / 4))
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
