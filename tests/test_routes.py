"""Route agreement: each fast route against an independent one.

The closed forms give the spectral mass of the product state as a binomial
term in p = |c_j|^2. Here that kernel is held to a 50-digit ``mpmath``
reference over N <= 10**6 and p near 0 (subnormal included), near 1, at
two-mode ties and at the p where the window's edge is tight; the peak that
``noncollapse_metrics`` reads is held to the table ``spectral_weights``
returns; and the table is held to the dense oracle's projections wherever
d**N <= 2**12. The dense oracle's scalar statistics are held to the closed
forms to 1e-14 absolute up to d**N = 2**20. The oracle's per-digit builders
are held byte for byte to ``np.kron`` and to outer sums of the counts, and
its in-place statistics bit for bit to three separate products, up to the
vector guard.

The sampler compares raw Philox words with integer thresholds; each count
and each outcome index is held to the float route on the same words,
``u = (w >> 11) * 2**-53`` (``Generator.random``'s map) against the CDF
entries themselves. The mean and variance of the sampled frequencies are
held to the closed forms' expectation and uncertainty within a fixed
z-bound, at fixed seeds, on each of the sampler's counting paths.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqop import analytic, dense, guards, sampler
from freqop.analytic import WEIGHT_FLOOR, noncollapse_metrics, spectral_weights
from freqop.hilbert import EnsembleSpec, StateVector, kron_fold, product_state_vector
from freqop.sampler import _count_at_most, _thresholds

from conftest import (
    SMALLEST_NORMAL,
    mp_binomial_weight,
    random_state,
    relative_error,
    sizes_and_probabilities,
    spec_with_p,
)

# Relative bounds against the reference: at the mode and its neighbours,
# for p in [1e-12, 1 - 1e-12] and outside it, and anywhere in the window.
MODE_REL = 1e-14
MODE_REL_EXTREME_P = 1e-12
WINDOW_REL = 1e-11


@settings(max_examples=40, deadline=None)
@given(sizes_and_probabilities())
@example((3, 1e-300))
@example((10, 1.1125369292536007e-308))
@example((2, SMALLEST_NORMAL / 2))
@example((10**6, 0.3712))
@example((10**6, 1e-7))
@example((10**6, 0.9999))
@example((999_999, 0.5))  # (N + 1)p = 500000: a two-mode tie
def test_closed_forms_against_mpmath(case):
    n, p = case
    spec = spec_with_p(n, p)
    weights = spectral_weights(spec)
    _, max_weight, off_peak_mass = noncollapse_metrics(spec)

    mode = min(int((n + 1) * Fraction(p)), n)
    peak = {k: mp_binomial_weight(n, k, p)
            for k in range(max(mode - 1, 0), min(mode + 1, n) + 1)}
    bound = MODE_REL if 1e-12 <= p <= 1 - 1e-12 else MODE_REL_EXTREME_P
    for k, reference in peak.items():
        if reference >= WEIGHT_FLOOR:
            assert relative_error(weights[k], reference) <= bound, k
            # The peak's own kernel, in Python floats.
            assert relative_error(analytic._binom_terms(k, k, n, p)[0], reference) <= bound, k
    assert relative_error(max_weight, max(peak.values())) <= bound
    # The peak route reads the same kernel terms as the table.
    assert max_weight == weights.max()
    assert max_weight <= 1.0 and off_peak_mass >= 0.0

    nonzero = np.flatnonzero(weights)
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    assert hi - lo + 1 == len(nonzero)
    for k in np.unique(np.linspace(lo, hi, 25).round().astype(int)).tolist():
        reference = mp_binomial_weight(n, k, p)
        if reference >= WEIGHT_FLOOR:
            assert relative_error(weights[k], reference) <= WINDOW_REL, k
    for k in (lo - 1, hi + 1):
        if 0 <= k <= n:
            assert mp_binomial_weight(n, k, p) < WEIGHT_FLOOR * (1 + WINDOW_REL), k


@st.composite
def small_ensembles(draw):
    """A random state of dimension d <= 4, an outcome j and N with
    d**N <= 2**12: the reach of the dense oracle in this suite."""
    d = draw(st.integers(2, 4))
    n = draw(st.integers(1, int(12 / math.log2(d))))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array(draw(st.lists(st.tuples(parts, parts), min_size=d, max_size=d)))
    amps = amps[:, 0] + 1j * amps[:, 1]
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps, norm = np.eye(d)[0].astype(complex), 1.0
    state = StateVector(amps / norm)
    return EnsembleSpec(state, n, draw(st.integers(0, d - 1)))


@settings(max_examples=30, deadline=None)
@given(small_ensembles())
def test_spectral_weights_match_dense(spec):
    # The closed form takes 1 - p for the other outcomes' weight; the dense
    # route multiplies their amplitudes, whose weights sum to 1 - p only to
    # a few ulp. Each term may therefore differ by about N ulp absolute.
    np.testing.assert_allclose(
        spectral_weights(spec), dense.spectral_weights_dense(spec),
        rtol=1e-12, atol=1e-13,
    )


# Label -> (state, sizes N, outcomes j). Inner products of the coefficient vectors
# through BLAS drifted up to 1.06e-12 from the closed forms on this grid and
# N = 18; N = 18 is left out to keep the test under a second.
STATISTICS_GRID = {
    **{f"two-level:{p}": (StateVector.two_level(p), (12, 16, 20), (0, 1))
       for p in (0.36, 0.37, 0.5, 0.9, 0.013, 1e-6)},
    "uniform:3": (StateVector.uniform(3), (12,), (0, 1, 2)),
}


@pytest.mark.parametrize("label", sorted(STATISTICS_GRID))
def test_dense_statistics_match_closed_forms(label):
    state, sizes, outcomes = STATISTICS_GRID[label]
    for n in sizes:
        for j in outcomes:
            spec = EnsembleSpec(state, n, j)
            for key, value in dense.statistics_dense(spec).items():
                closed = getattr(analytic, key)(spec)
                assert abs(value - closed) <= 1e-14, (n, j, key, value - closed)


def _largest_n(d: int) -> int:
    return max(n for n in range(1, 21) if guards.fits(d, n, guards.DENSE_VECTOR_GUARD))


def _kron_reference(factor: np.ndarray, n: int) -> np.ndarray:
    out = np.ones(1, dtype=factor.dtype)
    for _ in range(n):
        out = np.kron(out, factor)
    return out


def _counts_reference(d: int, n: int, j: int) -> np.ndarray:
    """int64 counts of j by outer sums, one site at a time."""
    hit = (np.arange(d) == j).astype(np.int64)
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        counts = (counts[:, None] + hit).ravel()
    return counts


def _statistics_reference(spec: EnsembleSpec) -> dict:
    """The statistics as three separate products of full-size temporaries."""
    w = _kron_reference(spec.state.probabilities(), spec.n)
    f = _counts_reference(spec.state.dim, spec.n, spec.j) / spec.n
    return {
        "expectation": float(np.sum(w * f)),
        "distance_sq": float(np.sum(w * (f - spec.born_probability) ** 2)),
        "gram": float(np.sum(w * f * f)),
    }


@pytest.mark.parametrize("d", [1, 2, 3, 5, 16, 1024, 4099])
def test_per_digit_builders_match_kron(rng, d):
    # Complex amplitudes and real Born weights, each N up to the vector guard
    # (N <= 2 at d = 1024, N = 1 at d = 4099).
    state = random_state(rng, d)
    for n in range(1, _largest_n(d) + 1):
        spec = EnsembleSpec(state, n, 0)
        for got, factor in ((product_state_vector(spec), state.amplitudes),
                            (kron_fold(state.probabilities(), n), state.probabilities())):
            ref = _kron_reference(factor, n)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), n
        for j in sorted({0, d - 1}):
            counts = dense.frequency_counts(d, n, j)
            assert counts.dtype == np.int8
            assert np.array_equal(counts, _counts_reference(d, n, j)), (n, j)


@settings(max_examples=30, deadline=None)
@given(small_ensembles())
def test_statistics_dense_matches_three_products(spec):
    assert dense.statistics_dense(spec) == _statistics_reference(spec)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 16, 1024, 4099])
def test_statistics_dense_matches_three_products_at_the_guard(rng, d):
    # Blocks of d**m <= 2**15 strings and sums in runs of at most 2**13:
    # runs that cross blocks (d = 3, 5, 7), runs of several blocks (16,
    # 1024), one block of the last digit alone (4099) and odd tails (3**12).
    state = random_state(rng, d)
    for j in range(d) if d <= 5 else sorted({0, d - 1}):
        spec = EnsembleSpec(state, _largest_n(d), j)
        assert dense.statistics_dense(spec) == _statistics_reference(spec), j


def test_statistics_dense_matches_three_products_at_each_n(rng):
    # d = 2 from one string to the guard: one block up to N = 15, then
    # 2**(N - 15) blocks and, from N = 14, more than one pairwise run.
    state = random_state(rng, 2)
    for n in range(1, 21):
        spec = EnsembleSpec(state, n, 1)
        assert dense.statistics_dense(spec) == _statistics_reference(spec), n


def test_statistics_dense_peak_memory():
    # One block of at most 2**15 weights and counts and the temporaries of
    # one run of at most 2**13 strings; the 2**20 weights alone take 8 MiB.
    for state, n in ((StateVector.two_level(0.36), 20), (StateVector.uniform(3), 12)):
        spec = EnsembleSpec(state, n, 0)
        tracemalloc.start()
        try:
            dense.statistics_dense(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, (state.dim, n, peak / 2**20)


def test_statistics_dense_sums_its_runs_outside_pairwise_sum(monkeypatch):
    # A traced run charges a call to the layer whose binding it entered, and
    # a pairwise_sum callback runs inside hilbert's span. The run sums are
    # dense's arithmetic, so statistics_dense computes them in its own loop:
    # one block of one run (N = 7), and four blocks of four runs (N = 17).
    depth, seen = [0], []
    pairwise, run_sums = dense.pairwise_sum, dense._run_sums

    def tracked(*args):
        depth[0] += 1
        try:
            return pairwise(*args)
        finally:
            depth[0] -= 1

    def recorded(*args):
        seen.append(depth[0])
        return run_sums(*args)

    monkeypatch.setattr(dense, "pairwise_sum", tracked)
    monkeypatch.setattr(dense, "_run_sums", recorded)
    for n in (7, 17):
        spec = EnsembleSpec(StateVector.two_level(0.36), n, 1)
        assert dense.statistics_dense(spec) == _statistics_reference(spec), n
    assert len(seen) == 1 + 2**17 // 2**13 and set(seen) == {0}, seen


def _nearby(c: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        c = math.nextafter(c, math.copysign(math.inf, ulps))
    return c


# CDF entries: exact multiples of 2**-53 and their neighbours, zero,
# subnormals, 1 - 2**-53, values just above 1 (a cumulative sum can round
# a middle entry there) and the +-inf that _born_cdf puts at the ends.
CDF_VALUES = st.one_of(
    st.tuples(st.integers(0, 2**53), st.integers(-2, 2)).map(
        lambda ku: _nearby(ku[0] * 2.0**-53, ku[1])),
    st.floats(0.0, SMALLEST_NORMAL),
    st.floats(0.0, 1.0),
    st.integers(0, 4).map(lambda u: _nearby(1.0, u)),
    st.sampled_from([0.0, 5e-324, 2.0**-53, 1.0 - 2.0**-53, math.inf, -math.inf]),
)


@st.composite
def cdf_and_words(draw):
    """Sorted CDF entries, and words that include 0, 2047, 2048, 2**64 - 1
    and, for each entry, the first and last word of the draws just below,
    at and just above it."""
    cdf = sorted(draw(st.lists(CDF_VALUES, min_size=1, max_size=6)))
    words = [0, 2047, 2048, 2**64 - 1]
    for c in cdf:
        if 0.0 <= c < 1.0:
            m = math.floor(Fraction(c) * 2**53)
            for k in (m - 1, m, m + 1):
                if 0 <= k < 2**53:
                    words += [k << 11, (k << 11) | 2047]
    words += draw(st.lists(st.integers(0, 2**64 - 1), max_size=20))
    return np.array(cdf), np.array(words, dtype=np.uint64)


@settings(max_examples=100, deadline=None)
@given(cdf_and_words())
@example((np.array([-math.inf, 0.5, 1.0 + 2.0**-52, math.inf]),
          np.array([0, 2047, 2048, 2**63, (2**63) | 2047, 2**64 - 1], dtype=np.uint64)))
def test_word_thresholds_match_float_draws(case):
    cdf, words = case
    u = (words >> 11) * 2.0**-53
    thresholds = _thresholds(cdf)
    for c, t in zip(cdf, thresholds.tolist()):
        assert _count_at_most(words, t) == np.count_nonzero(u <= c), c
    np.testing.assert_array_equal(
        np.searchsorted(thresholds, (words >> 11).view(np.int64), side="left"),
        np.searchsorted(cdf, u, side="left"),
    )


# Label -> (state, outcome j, N, trials, seed). N = 100 and 1000 take the
# blocks of short trials, N = 3000 one trial at a time, and N >= 2**13 the
# threads, N = 10**5 over two chunks of words a trial. p = 0.001 puts about
# one expected count in a trial, where the frequencies are most skewed.
SAMPLED_MOMENTS_GRID = {
    "two-level:0.36-n100": (StateVector.two_level(0.36), 1, 100, 10**4, 11),
    "two-level:0.5-n3000": (StateVector.two_level(0.5), 0, 3000, 400, 12),
    "two-level:0.2-n1e5": (StateVector.two_level(0.2), 0, 10**5, 200, 13),
    "two-level:0.001-n1000": (StateVector.two_level(0.001), 0, 1000, 4000, 14),
    "uniform:8-n1000": (StateVector.uniform(8), 5, 1000, 2000, 15),
    "d3-n2e4": (StateVector(np.sqrt([0.5, 0.3, 0.2]) * np.exp(1j * np.arange(3))),
                2, 20000, 300, 16),
}
# Largest |z| admitted for the sampled mean and for the sampled variance:
# one of the 12 checks exceeds it by chance with probability below 1e-3.
Z_BOUND = 4.0


@pytest.mark.parametrize("label", list(SAMPLED_MOMENTS_GRID))
def test_sampled_moments_match_closed_forms(label):
    """The per-trial frequency K/N has mean p and variance s**2 =
    uncertainty**2 = p(1-p)/N, and K is binomial, so over T trials the
    sample mean has standard error s/sqrt(T) and the sample variance
    s**2 * sqrt(2/(T-1) + kurt/T), kurt = (1 - 6p(1-p)) / (N p(1-p)) the
    binomial's excess kurtosis."""
    state, j, n, trials, seed = SAMPLED_MOMENTS_GRID[label]
    spec = EnsembleSpec(state, n, j)
    summary = sampler.run_trials(state, n, trials, seed, j)
    p, s = analytic.expectation(spec), analytic.uncertainty(spec)
    pq = p * (1 - p)
    kurt = (1 - 6 * pq) / (n * pq)
    z_mean = (summary.mean_frequency - p) / (s / math.sqrt(trials))
    z_var = (summary.sample_variance - s * s) / (
        s * s * math.sqrt(2 / (trials - 1) + kurt / trials))
    assert abs(z_mean) <= Z_BOUND and abs(z_var) <= Z_BOUND, (z_mean, z_var)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_sampled_moments_of_an_eigenstate_are_exact(p):
    state = StateVector.two_level(p)
    summary = sampler.run_trials(state, 1000, 50, 17, 0)
    spec = EnsembleSpec(state, 1000, 0)
    assert summary.mean_frequency == analytic.expectation(spec) == p
    assert summary.sample_variance == analytic.uncertainty(spec) ** 2 == 0.0
