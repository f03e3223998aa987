"""Route agreement: each fast route against an independent one.

The closed forms give the spectral mass of the product state as a binomial
term in p = |c_j|^2. Here that kernel is held to a 50-digit ``mpmath``
reference over N <= 10**6 and p near 0 (subnormal included), near 1, at
two-mode ties and at the p where the window's edge is tight; the peak that
``noncollapse_metrics`` reads is held to the table ``spectral_weights``
returns; and the table is held to the dense oracle's projections wherever
d**N <= 2**12.

The sampler compares raw Philox words with integer thresholds; each count
and each outcome index is held to the float route on the same words,
``u = (w >> 11) * 2**-53`` (``Generator.random``'s map) against the CDF
entries themselves.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqop import dense
from freqop.analytic import WEIGHT_FLOOR, noncollapse_metrics, spectral_weights
from freqop.hilbert import EnsembleSpec, StateVector
from freqop.sampler import _count_at_most, _thresholds

from conftest import (
    SMALLEST_NORMAL,
    mp_binomial_weight,
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
