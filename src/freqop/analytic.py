"""Closed-form ensemble statistics of the frequency operator.

All quantities depend on the state only through p = |c_j|^2 and scale to
arbitrary N. Tensor factors beyond the first N are untouched by the
operator and have unit norm, so every inner product equals its N-factor
value; nothing here ever materializes an infinite product.
"""

from __future__ import annotations

import math

from .guards import check_spectral_n
from .hilbert import EnsembleSpec

# Binomial terms smaller than this underflow to exact zero.
WEIGHT_FLOOR = 1e-300

# Slack, in units of the exponent, between the floor and the edge of the
# window on which spectral weights are computed: outside the window the
# Chernoff bound puts every term below e**-5 * WEIGHT_FLOOR.
WINDOW_MARGIN = 5.0

# stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)**k) for k = 0..15, from a
# 60-digit evaluation; a difference of lgamma values would lose ~6e-15 to
# cancellation. stirlerr(0) is infinite and never used: the kernel takes
# k = 0 and k = N apart.
_STIRLERR = (
    math.inf,
    0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def expectation(spec: EnsembleSpec) -> float:
    """Ensemble expectation of the frequency operator: exactly |c_j|^2."""
    return spec.born_probability


def uncertainty(spec: EnsembleSpec) -> float:
    """sqrt(p(1-p)/N): the frequency uncertainty on the product state."""
    p = spec.born_probability
    return math.sqrt(p * (1.0 - p) / spec.n)


def distance_sq(spec: EnsembleSpec) -> float:
    """Squared distance between F|psi^N> and the Born-scaled product state:
    p(1-p)/N. Decays as 1/N; zero only for p in {0, 1}."""
    p = spec.born_probability
    return p * (1.0 - p) / spec.n


def gram(spec: EnsembleSpec) -> float:
    """<F psi^N | F psi^N> = (p/N^2)(N + N(N-1) p)."""
    p = spec.born_probability
    n = spec.n
    return (p / n**2) * (n + n * (n - 1) * p)


def _mode(n: int, p: float) -> int:
    """The binomial mode floor((N+1)p), clipped to N."""
    return min(int((n + 1) * p), n)


def _stirlerr(k: float) -> float:
    """Stirling's error log(k!) - log(sqrt(2 pi k) (k/e)**k) at an integer
    k >= 1, as a float: the table up to 15, above it the asymptotic series
    to 1/k**9, whose first omitted term is about 1e-16 at k = 16."""
    if k <= 15:
        return _STIRLERR[int(k)]
    kk = k * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


# 1/(2j + 1) for j = 9 down to 1: the coefficients of _bd0's series.
_BD0_SERIES = tuple(1 / (2 * j + 1) for j in range(9, 0, -1))


def _bd0(x: float, mean: float) -> float:
    """The deviance x log(x/mean) + mean - x, for x >= 1 and mean >= 0.

    Where |x - mean| < 0.1 (x + mean) the two terms nearly cancel, so it is
    summed as the series of 2x atanh(v) - v (x + mean) in v = (x - mean) /
    (x + mean), whose terms fall by v**2 <= 0.01 each: nine of them reach
    the last bit. Elsewhere x/mean may overflow (mean subnormal or 0); the
    deviance is then +inf and the term it belongs to is 0.
    """
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x if mean else math.inf
    v = d / (x + mean)
    v2 = v * v
    tail = 0.0
    for c in _BD0_SERIES:
        tail = v2 * (c + tail)
    return d * v + 2 * x * v * tail


def _binom_terms(a: int, b: int, n: int, p: float) -> list[float]:
    """The Binomial(n, p) probabilities of the counts a..b (0 <= a <= b <=
    n), as Python floats, each below ``WEIGHT_FLOOR`` reported as 0.0.

    C. Loader's saddle-point form (Fast and Accurate Computation of Binomial
    Probabilities, 2000), as in R's dbinom_raw: for 0 < k < n the log term is
    stirlerr(n) - stirlerr(k) - stirlerr(n - k) - bd0(k, np) - bd0(n - k, nq)
    - log(2 pi k (n - k) / n) / 2, with no lgamma difference to cancel.
    k = 0 and k = n are (1 - p)**n and p**n, taken as exp(n log1p(-p)) and
    exp(n log p), so p = 0 and p = 1 give exactly 1 there and 0 elsewhere.
    Against an mpmath reference it is within 1e-14 relative at the mode and
    its neighbours for p in [1e-12, 1 - 1e-12] (1e-12 outside it) and within
    1e-11 across the window. It neither raises nor warns, for p = 0, p = 1
    and subnormal p too. Every ``exp`` and ``log`` is libm's, through
    ``math``, so no bit depends on numpy's SIMD dispatch; about 2 us a term.
    """
    log = math.log
    exp = math.exp
    stirlerr_n, mean_k, mean_rest = _stirlerr(float(n)), n * p, n * (1.0 - p)
    log_2pi = log(2 * math.pi)
    terms = [exp(n * math.log1p(-p)) if p < 1.0 else 0.0] if a == 0 else []
    for k in range(max(a, 1), min(b, n - 1) + 1):
        x = float(k)
        y = n - x
        log_c = (stirlerr_n - _stirlerr(x) - _stirlerr(y)
                 - _bd0(x, mean_k) - _bd0(y, mean_rest))
        # log((n - k)/n), not log1p(-k/n): k/n rounds, and near k = n that
        # rounding costs up to 2.5e-13.
        terms.append(exp(log_c - 0.5 * (log_2pi + log(x) + log(y / n))))
    if b == n:
        terms.append(exp(n * log(p)) if p > 0.0 else 0.0)
    return [0.0 if t < WEIGHT_FLOOR else t for t in terms]


def _window(n: int, p: float) -> tuple[int, int]:
    """[a, b]: the counts k with N·D(k/N || p) <= -ln(WEIGHT_FLOOR) + margin.

    D is the Kullback-Leibler divergence of Bernoulli(k/N) from Bernoulli(p),
    and the Chernoff point bound pmf(k) <= exp(-N·D(k/N || p)) (Arratia and
    Gordon 1989) holds for every k, so each term outside [a, b] is below
    e**-WINDOW_MARGIN times the floor. D falls to 0 at k = Np and rises on
    either side of it, and the mode m is inside (pmf(m) >= 1/(N+1), so
    N·D(m/N || p) <= ln(N+1)), so each edge is found by bisection on the
    counts from m to 0 or to N, never evaluating D at every count.
    """
    from bisect import bisect_left  # here, not at the top: only spectrum calls this

    m = _mode(n, p)
    if not 0.0 < p < 1.0:
        return m, m
    limit = -math.log(WEIGHT_FLOOR) + WINDOW_MARGIN
    log_p, log_q = math.log(p), math.log1p(-p)

    def outside(k: int) -> bool:
        rate = k * (math.log(k / n) - log_p) if k else 0.0
        if k < n:
            rate += (n - k) * (math.log((n - k) / n) - log_q)
        return rate > limit

    # The first count outside, walking from m down to 0 and from m up to N.
    down = bisect_left(range(m, -1, -1), True, key=outside)
    up = bisect_left(range(m, n + 1), True, key=outside)
    return m + 1 - down, m + up - 1


def spectral_window(spec: EnsembleSpec) -> tuple[int, list[float]]:
    """(a, weights): the binomial pmf with parameter p = |c_j|^2 over the
    counts a..b of its window, as Python floats. Entry i of ``weights`` is
    the mass of the product state on the eigenspace of eigenvalue
    (a + i)/N; every count outside [a, b] has mass exactly 0.

    Terms come from Loader's saddle-point kernel (see :func:`_binom_terms`),
    which neither overflows nor loses the peak for N up to 10**6; terms
    below the underflow floor are reported as exact zeros. The window holds
    every count whose term can reach the floor (see :func:`_window`): by the
    Chernoff bound every term outside it is below e**-5 times the floor, so
    the zeros there are exact, the same zeros the floor would give the full
    table. At N = 10**6 and p = 0.3712 it holds 36,040 of the 10**6 + 1
    counts. At p = 0 and p = 1 the window is the single count k = 0 or
    k = N, where the kernel gives exactly 1.
    """
    n = spec.n
    check_spectral_n(n)
    p = spec.born_probability
    a, b = _window(n, p)
    return a, _binom_terms(a, b, n, p)


def spectral_weights(spec: EnsembleSpec) -> np.ndarray:
    """The float64 array of length N + 1 indexed by the count k, entry k the
    mass on the eigenspace of eigenvalue k/N: :func:`spectral_window`,
    padded with its zeros."""
    a, window = spectral_window(spec)
    import numpy as np  # here, not at the top: analytic loads without numpy

    weights = np.zeros(spec.n + 1)
    weights[a : a + len(window)] = window
    return weights


def noncollapse_metrics(spec: EnsembleSpec) -> tuple[float, float, float]:
    """(distance_sq, max_weight, off_peak_mass) for one ensemble spec.

    For 0 < p < 1 the distance to the Born-scaled state vanishes as 1/N
    while the spectral mass off the single largest eigenspace grows toward
    1: the product state approaches no frequency eigenvector. At p = 0 and
    p = 1 the state is an eigenstate: distance 0, max weight exactly 1.

    The peak is read at the binomial mode floor((N+1)p) rather than from
    the full table: the window's kernel is run at the mode and its two
    neighbours (clipped to [0, N]), which covers the two-mode tie when
    (N+1)p is an integer, the rounding of (N+1)p, and the kernel's own
    rounding, which can put the table's maximum one step above the mode.
    """
    n = spec.n
    check_spectral_n(n)
    p = spec.born_probability
    m = _mode(n, p)
    max_w = max(_binom_terms(max(m - 1, 0), min(m + 1, n), n, p))
    return distance_sq(spec), max_w, 1.0 - max_w
