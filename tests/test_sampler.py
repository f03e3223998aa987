import math

import numpy as np
import pytest

from freqop.hilbert import StateVector
from freqop.sampler import (
    OutcomeRecord,
    empirical_frequency,
    run_trials,
    sample_outcomes,
    stream_seed,
)


class TestSampleOutcomes:
    def test_degenerate_state(self):
        rec = sample_outcomes(StateVector.basis(2, 1), 50, seed=123)
        assert np.all(rec.outcomes == 1)

    def test_determinism(self):
        s = StateVector.two_level(0.36)
        a = sample_outcomes(s, 1000, seed=99)
        b = sample_outcomes(s, 1000, seed=99)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)

    def test_different_seeds_differ(self):
        s = StateVector.two_level(0.5)
        a = sample_outcomes(s, 1000, seed=1)
        b = sample_outcomes(s, 1000, seed=2)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_outcomes_in_range(self):
        rec = sample_outcomes(StateVector.uniform(3), 500, seed=5)
        assert rec.outcomes.min() >= 0
        assert rec.outcomes.max() < 3

    def test_concentration_large_n(self):
        # 5-sigma binomial bound at N = 10**6.
        n = 10**6
        rec = sample_outcomes(StateVector.two_level(0.36), n, seed=20260826)
        _, f0 = empirical_frequency(rec, 0)
        assert abs(f0 - 0.36) <= 5 * math.sqrt(0.36 * 0.64 / n)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            sample_outcomes(StateVector.uniform(2), 0, seed=1)


class TestEmpiricalFrequency:
    def test_direct_count(self):
        rec = OutcomeRecord(n=4, outcomes=np.array([0, 1, 0, 0]), seed=0)
        k, f = empirical_frequency(rec, 0)
        assert (k, f) == (3, 0.75)

    def test_absent_outcome(self):
        rec = OutcomeRecord(n=4, outcomes=np.array([0, 1, 0, 0]), seed=0)
        assert empirical_frequency(rec, 2) == (0, 0.0)

    def test_frequencies_partition(self):
        rec = sample_outcomes(StateVector.uniform(3), 271, seed=8)
        total = sum(empirical_frequency(rec, j)[1] for j in range(3))
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

    def test_metadata_embedded(self):
        summary = run_trials(StateVector.uniform(2), 10, 3, seed=5)
        assert summary.seed == 5
        assert summary.rng_algorithm == "philox4x64"
        assert "0x9e3779b97f4a7c15" in summary.stream_rule


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
    assert np.all(sample_outcomes(state, 10, seed=0).outcomes == 1)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    state = StateVector.uniform(2)
    with pytest.raises(ValueError, match="seed"):
        sample_outcomes(state, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        run_trials(state, 10, 2, seed)
