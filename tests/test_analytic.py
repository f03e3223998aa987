import math
from fractions import Fraction
from math import comb

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings

from freqop import analytic, dense
from freqop.analytic import (
    distance_sq,
    expectation,
    gram,
    noncollapse_metrics,
    spectral_weights,
    uncertainty,
)
from freqop.hilbert import EnsembleSpec, StateVector

from conftest import (
    SMALLEST_NORMAL,
    mp_binomial_weight,
    random_state,
    relative_error,
    sizes_and_probabilities,
    spec_with_p,
)


def exact_binomial_weight(n: int, k: int, p: Fraction) -> float:
    """Independent oracle: exact-rational binomial term."""
    return float(comb(n, k) * p**k * (1 - p) ** (n - k))


class TestExpectation:
    def test_real_two_level(self):
        assert expectation(EnsembleSpec(StateVector.two_level(0.36), 4, 0)) == (
            pytest.approx(0.36, abs=1e-15)
        )

    def test_uniform(self):
        assert expectation(EnsembleSpec(StateVector.uniform(4), 3, 2)) == (
            pytest.approx(0.25, abs=1e-15)
        )

    def test_matches_dense(self, rng):
        for _ in range(30):
            spec = EnsembleSpec(random_state(rng, 2), 6, int(rng.integers(0, 2)))
            assert expectation(spec) == pytest.approx(
                dense.expectation_dense(spec), abs=1e-12
            )


class TestUncertainty:
    def test_known_value(self):
        spec = EnsembleSpec(StateVector.two_level(0.5), 10, 0)
        assert uncertainty(spec) == pytest.approx(0.158113883, abs=1e-9)

    def test_eigenstate_zero(self):
        assert uncertainty(EnsembleSpec(StateVector.two_level(1.0), 7, 0)) == 0.0

    def test_inverse_sqrt_scaling(self):
        s = StateVector.two_level(0.3)
        assert uncertainty(EnsembleSpec(s, 400, 0)) == pytest.approx(
            0.5 * uncertainty(EnsembleSpec(s, 100, 0)), rel=1e-14
        )


class TestDistanceAndGram:
    def test_distance_half(self):
        assert distance_sq(EnsembleSpec(StateVector.two_level(0.5), 10, 0)) == (
            pytest.approx(0.025, abs=1e-15)
        )

    def test_distance_p036(self):
        assert distance_sq(EnsembleSpec(StateVector.two_level(0.36), 100, 0)) == (
            pytest.approx(0.002304, abs=1e-15)
        )

    def test_gram_known_values(self):
        assert gram(EnsembleSpec(StateVector.two_level(0.5), 2, 0)) == (
            pytest.approx(0.375, abs=1e-15)
        )
        assert gram(EnsembleSpec(StateVector.two_level(0.5), 10, 0)) == (
            pytest.approx(0.275, abs=1e-15)
        )

    def test_matches_dense(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 3))
            n = int(rng.integers(2, 9))
            spec = EnsembleSpec(random_state(rng, d), n, int(rng.integers(0, d)))
            oracle = dense.statistics_dense(spec)
            assert distance_sq(spec) == pytest.approx(oracle["distance_sq"], abs=1e-11)
            assert gram(spec) == pytest.approx(oracle["gram"], abs=1e-11)

    def test_variance_equals_distance_sq(self):
        for p in np.linspace(0.0, 1.0, 1000):
            spec = EnsembleSpec(StateVector.two_level(p), 17, 0)
            assert uncertainty(spec) ** 2 == pytest.approx(
                distance_sq(spec), abs=1e-15
            )

    def test_expansion_reconstruction(self):
        for p in np.linspace(0.0, 1.0, 101):
            spec = EnsembleSpec(StateVector.two_level(p), 9, 0)
            reconstructed = gram(spec) - 2 * p * expectation(spec) + p**2
            assert reconstructed == pytest.approx(distance_sq(spec), abs=1e-14)

    def test_halving_law(self):
        s = StateVector.two_level(0.7)
        for n in (1, 5, 50, 1234):
            ratio = distance_sq(EnsembleSpec(s, 2 * n, 0)) / distance_sq(
                EnsembleSpec(s, n, 0)
            )
            assert ratio == pytest.approx(0.5, rel=1e-14)


class TestSpectralWeights:
    def test_uniform_qubit_pair_vs_dense(self):
        spec = EnsembleSpec(StateVector.uniform(2), 2, 0)
        w = spectral_weights(spec)
        np.testing.assert_allclose(w, dense.spectral_weights_dense(spec), atol=1e-14)
        np.testing.assert_allclose(w, [0.25, 0.5, 0.25], atol=1e-14)

    def test_degenerate_p(self):
        # The whole mass sits on k = N (p = 1) or k = 0 (p = 0), bit for bit.
        for p in (0.0, 1.0):
            for n in (1, 5, 10**6):
                w = spectral_weights(EnsembleSpec(StateVector.two_level(p), n, 0))
                expected = np.zeros(n + 1)
                expected[n if p == 1.0 else 0] = 1.0
                assert w.dtype == np.float64, (p, n)
                assert w.tobytes() == expected.tobytes(), (p, n)

    def test_central_term_n1000(self):
        # Exact-rational oracle: C(1000, 500) / 2**1000.
        expected = exact_binomial_weight(1000, 500, Fraction(1, 2))
        w = spectral_weights(EnsembleSpec(StateVector.two_level(0.5), 1000, 0))
        assert w.argmax() == 500
        assert w.max() == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.02523, abs=5e-6)

    def test_against_exact_rationals(self):
        p = Fraction(9, 25)  # p = 0.36
        w = spectral_weights(EnsembleSpec(StateVector.two_level(0.36), 30, 0))
        for k in range(31):
            assert w[k] == pytest.approx(
                exact_binomial_weight(30, k, p), rel=1e-10, abs=1e-18
            )

    @pytest.mark.parametrize("n", [1, 10, 100, 10**4])
    def test_moments(self, n):
        spec = EnsembleSpec(StateVector.two_level(0.36), n, 0)
        w = spectral_weights(spec)
        f = np.arange(n + 1) / n
        mean = np.sum(f * w)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(expectation(spec), abs=1e-12)
        assert np.sum((f - mean) ** 2 * w) == pytest.approx(
            uncertainty(spec) ** 2, abs=1e-12
        )

    def test_matches_dense_random(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 8))
            spec = EnsembleSpec(random_state(rng, d), n, int(rng.integers(0, d)))
            np.testing.assert_allclose(
                spectral_weights(spec),
                dense.spectral_weights_dense(spec),
                atol=1e-11,
            )

    def test_scale_limit(self):
        with pytest.raises(ValueError, match="limited"):
            spectral_weights(EnsembleSpec(StateVector.two_level(0.5), 10**6 + 1, 0))

    def test_kernel_matches_exact_rationals(self):
        # The exact term at the float p itself, over every count k: to
        # 1e-14 relative at the mode and its neighbours, 1e-11 elsewhere,
        # and exactly zero below the floor.
        for n in (1, 2, 7, 16, 30):
            for p in (0.0, 1.0, 0.36, 0.5, 1 / 3, 3 / 11, 1e-7, 0.9999, 1 - 1e-12):
                weights = spectral_weights(spec_with_p(n, p))
                exact_p = Fraction(p)
                mode = min(int((n + 1) * exact_p), n)
                for k in range(n + 1):
                    exact = comb(n, k) * exact_p**k * (1 - exact_p) ** (n - k)
                    if exact < analytic.WEIGHT_FLOOR:
                        assert weights[k] == 0.0, (n, p, k)
                        continue
                    bound = 1e-14 if abs(k - mode) <= 1 else 1e-11
                    assert abs(Fraction(weights[k]) - exact) <= bound * exact, (n, p, k)


# The reference the window kernel is held to, bit for bit: the array form
# of Loader's kernel that ``spectrum`` ran before its window was computed in
# Python floats. It does ``analytic._binom_terms``'s float operations, in
# the same order, on a float array, and takes every exp and log that can
# reach an output bit from libm, through ``math``: numpy's own can differ
# in the last bit, by the CPU's SIMD dispatch.


def libm(f, x: np.ndarray) -> np.ndarray:
    """f, a function of ``math``, at each element of the float array x."""
    return np.fromiter(map(f, x.tolist()), float, x.size)


def stirlerr_array(k: np.ndarray) -> np.ndarray:
    big = k.clip(16.0)
    kk = big * big
    out = (
        1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk
    ) / big
    small = k <= 15
    out[small] = [analytic._STIRLERR[int(v)] for v in k[small].tolist()]
    return out


def bd0_array(x: np.ndarray, mean: float, log) -> np.ndarray:
    d = x - mean
    v = d / (x + mean)
    v2 = v * v
    tail = 0.0
    for j in range(9, 0, -1):
        tail = v2 * (1 / (2 * j + 1) + tail)
    out = d * v + 2 * x * v * tail
    far = abs(d) >= 0.1 * (x + mean)
    xf = x[far]
    out[far] = xf * log(xf / mean) + mean - xf
    return out


def log_term_array(x: np.ndarray, n: int, p: float, log) -> np.ndarray:
    """The log of the term at each count 0 < x < n, with ``log`` the log."""
    y = n - x
    log_c = (stirlerr_array(np.array([float(n)]))[0] - stirlerr_array(x) - stirlerr_array(y)
             - bd0_array(x, n * p, log) - bd0_array(y, n * (1.0 - p), log))
    return log_c - 0.5 * (math.log(2 * math.pi) + log(x) + log(y / n))


def reference_terms(ks, n: int, p: float) -> np.ndarray:
    """The kernel's floored terms at the integer counts ``ks``, by the
    array form. A count whose log term, taken with numpy's own log, is below
    ln(WEIGHT_FLOOR) - 1 floors to 0.0 whichever libm rounds it (the two
    logs differ by far less than 1), so only the other counts take libm's
    log and exp, one Python float at a time."""
    x = np.asarray(ks, dtype=np.float64)
    out = np.zeros_like(x)
    out[x == 0] = math.exp(n * math.log1p(-p)) if p < 1.0 else 0.0
    out[x == n] = math.exp(n * math.log(p)) if p > 0.0 else 0.0
    inner = np.flatnonzero((x > 0) & (x < n))
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        rough = log_term_array(x[inner], n, p, np.log)
        near = inner[rough >= math.log(analytic.WEIGHT_FLOOR) - 1]
        out[near] = libm(math.exp, log_term_array(
            x[near], n, p, lambda v: libm(math.log, v)))
    out[out < analytic.WEIGHT_FLOOR] = 0.0
    return out


def window_kernel_bytes(a: int, b: int, n: int, p: float) -> bytes:
    return np.array(analytic._binom_terms(a, b, n, p), dtype=np.float64).tobytes()


def full_table_weights(n: int, p: float) -> np.ndarray:
    """The reference on all N + 1 counts: the table the window, padded with
    its zeros, must reproduce."""
    return reference_terms(np.arange(n + 1), n, p)


@settings(max_examples=40, deadline=None)
@given(sizes_and_probabilities())
@example((10, 0.5))  # the window is every count
@example((10**6, 1e-7))
@example((10**6, 0.9999))
@example((10**6, 0.5))
@example((1000, 0.49881276637272776))  # (1 - p)**N just above the floor
@example((2000, 0.29205421561586214))
# Counts where ``_bd0`` meets its own edges: one term fewer of its series
# changes a bit at N = 3951, one term more at N = 12269 (count 5366), and
# at N = 242 a count sits exactly on |x - mean| = 0.1 (x + mean), where the
# series and the direct form differ in the last bit.
@example((3951, 9 / 22))
@example((12269, 0.3129339550774455))
@example((242, 2 / 11))
def test_window_matches_full_table(case):
    n, p = case
    expected = full_table_weights(n, p)
    assert spectral_weights(spec_with_p(n, p)).tobytes() == expected.tobytes()


def chernoff_rate(n: int, k: int, p: float) -> mpmath.mpf:
    """N·D(k/N || p), the Chernoff exponent of the count k, at 30 digits
    from the float p itself, with 0 log 0 = 0."""
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        rate = k * (mpmath.log(mpmath.mpf(k) / n) - mpmath.log(p)) if k else mpmath.mpf(0)
        if k < n:
            rate += (n - k) * (mpmath.log(mpmath.mpf(n - k) / n) - mpmath.log1p(-p))
        return rate


# Room for the package's float rounding of the rate. At an edge the rate
# moves by more than 0.07 from one count to the next (N <= 10**6), so a
# window one count too wide or too narrow still fails.
RATE_SLACK = 1e-6


@settings(max_examples=200, deadline=None)
@given(sizes_and_probabilities())
@example((1, 0.5))
@example((10**6, 0.3712))
@example((10**6, 5e-324))
@example((10**6, 1 - 1e-12))
def test_window_edges_are_tight(case):
    """[a, b] holds the mode and is exactly the run of counts within the
    Chernoff limit: the rate is within it at a and b and above it at a - 1
    and b + 1. A window too wide still matches the full table, because its
    extra terms floor to the same zeros; only this test sees it."""
    n, p = case
    a, b = analytic._window(n, p)
    mode = min(int((n + 1) * Fraction(p)), n)
    if p in (0.0, 1.0):
        assert (a, b) == (mode, mode)
        return
    limit = -math.log(analytic.WEIGHT_FLOOR) + analytic.WINDOW_MARGIN
    assert a <= mode <= b
    for k in (a, b):
        assert chernoff_rate(n, k, p) <= limit + RATE_SLACK, k
    for k in (a - 1, b + 1):
        if 0 <= k <= n:
            assert chernoff_rate(n, k, p) > limit - RATE_SLACK, k


@pytest.mark.parametrize("p", [1e-7, 0.01, 0.3712, 0.5, 0.9999, 3 / 11])
@pytest.mark.parametrize("n", [10**3, 10**5, 10**6])
def test_spectrum_against_mpmath(n, p):
    """The weights against a 50-digit reference: to 1e-14 relative at the
    mode and its neighbours, to 1e-11 across the nonzero span, and exactly
    zero only where the exact term is below the floor."""
    w = spectral_weights(spec_with_p(n, p))
    mode = min(int((n + 1) * Fraction(p)), n)
    for k in range(max(mode - 1, 0), min(mode + 1, n) + 1):
        assert relative_error(w[k], mp_binomial_weight(n, k, p)) <= 1e-14, k
    nonzero = np.flatnonzero(w)
    lo, hi = int(nonzero[0]), int(nonzero[-1])
    assert hi - lo + 1 == len(nonzero)
    for k in np.unique(np.linspace(lo, hi, 25).round().astype(int)).tolist():
        reference = mp_binomial_weight(n, k, p)
        if reference >= analytic.WEIGHT_FLOOR:
            assert relative_error(w[k], reference) <= 1e-11, k
    for k in (lo - 1, hi + 1):
        if 0 <= k <= n:
            assert mp_binomial_weight(n, k, p) < analytic.WEIGHT_FLOOR, k


def mode_and_neighbours(n: int, p: float) -> list[int]:
    m = min(int((n + 1) * p), n)
    return list(range(max(m - 1, 0), min(m + 1, n) + 1))


@settings(max_examples=200, deadline=None)
@given(sizes_and_probabilities())
@example((2, SMALLEST_NORMAL / 2))
@example((7, 0.0))
@example((7, 1.0))
@example((10**6, 0.3712))
def test_scalar_kernel_equals_array_kernel(case):
    """The window kernel in Python floats, which ``noncollapse`` reads its
    peak from at the mode and its neighbours, gives the array form's bits
    there."""
    n, p = case
    ks = mode_and_neighbours(n, p)
    assert window_kernel_bytes(ks[0], ks[-1], n, p) == reference_terms(ks, n, p).tobytes()


def test_scalar_kernel_equals_array_kernel_random(rng):
    for _ in range(4000):
        n = int(10 ** rng.uniform(0, 6))
        p = float(rng.choice([rng.random(), rng.random() * 1e-4, 1 - rng.random() * 1e-4]))
        ks = mode_and_neighbours(n, p)
        assert window_kernel_bytes(ks[0], ks[-1], n, p) == (
            reference_terms(ks, n, p).tobytes()), (n, p)


def test_scalar_kernel_equals_array_kernel_over_a_window():
    n, p = 10**6, 0.3712
    a, b = analytic._window(n, p)
    assert window_kernel_bytes(a, b, n, p) == reference_terms(np.arange(a, b + 1), n, p).tobytes()


class TestNoncollapse:
    def test_n100(self):
        d2, max_w, off_peak = noncollapse_metrics(
            EnsembleSpec(StateVector.two_level(0.5), 100, 0)
        )
        assert d2 == pytest.approx(0.0025, abs=1e-15)
        # Exact central term C(100, 50) / 2**100 = 0.0795892...
        assert max_w == pytest.approx(
            exact_binomial_weight(100, 50, Fraction(1, 2)), rel=1e-11
        )
        assert off_peak == pytest.approx(0.9204, abs=5e-4)

    def test_eigenstate(self):
        _, max_w, off_peak = noncollapse_metrics(
            EnsembleSpec(StateVector.two_level(1.0), 50, 0)
        )
        assert max_w == 1.0
        assert off_peak == 0.0

    @pytest.mark.parametrize("n, p", [
        # Two-mode ties: (N+1)p is an integer.
        *((n, 0.5) for n in (1, 3, 7, 99, 1001)),
        *((n, 0.25) for n in (3, 7, 11)),
        # Born weights on either side of 0.5, as real amplitudes give them.
        (99, 0.5000000000000001), (99, 0.4999999999999999),
        # The kernel's rounding puts the table's maximum at floor((N+1)p) + 1.
        (186, 3 / 11), (194, 5 / 39),
        (1, 0.0), (7, 0.0), (1, 1.0), (7, 1.0),
        (30, 0.36), (1000, 1 / 3), (1000, 1e-7), (1000, 0.9999),
        (10**6, 0.5), (10**6, 0.36),
    ])
    def test_peak_at_mode_matches_table(self, n, p):
        spec = spec_with_p(n, p)
        assert noncollapse_metrics(spec)[1] == spectral_weights(spec).max()

    def test_peak_at_mode_matches_table_random(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, 2000))
            spec = EnsembleSpec(random_state(rng, d), n, int(rng.integers(0, d)))
            assert noncollapse_metrics(spec)[1] == spectral_weights(spec).max()

    def test_peak_decays(self):
        s = StateVector.two_level(0.5)
        w100 = noncollapse_metrics(EnsembleSpec(s, 100, 0))[1]
        w400 = noncollapse_metrics(EnsembleSpec(s, 400, 0))[1]
        assert w400 < w100
