"""Closed-form ensemble statistics of the frequency operator.

All quantities depend on the state only through p = |c_j|^2 and scale to
arbitrary N. Tensor factors beyond the first N are untouched by the
operator and have unit norm, so every inner product equals its N-factor
value; nothing here ever materializes an infinite product.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import EnsembleSpec

# Spectral weights are computed over N+1 eigenvalues; cap the table size.
MAX_SPECTRAL_N = 10**6

# Binomial terms smaller than this underflow to exact zero.
WEIGHT_FLOOR = 1e-300

# Slack, in units of the exponent, between the floor and the edge of the
# window on which spectral weights are computed: outside the window the
# Chernoff bound puts every term below e**-5 * WEIGHT_FLOOR.
WINDOW_MARGIN = 5.0


def expectation(spec: EnsembleSpec) -> float:
    """Ensemble expectation of the frequency operator: exactly |c_j|^2."""
    return spec.born_probability


def uncertainty(spec: EnsembleSpec) -> float:
    """sqrt(p(1-p)/N): the frequency uncertainty on the product state."""
    p = spec.born_probability
    return float(np.sqrt(p * (1.0 - p) / spec.n))


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


def check_spectral_n(n: int) -> None:
    if n > MAX_SPECTRAL_N:
        raise ValueError(
            f"spectral weights limited to N <= {MAX_SPECTRAL_N}, got {n}"
        )


def _mode(n: int, p: float) -> int:
    """The binomial mode floor((N+1)p), clipped to N."""
    return min(int((n + 1) * p), n)


def _window(n: int, p: float) -> tuple[int, int]:
    """[a, b]: the counts k with N·D(k/N || p) <= -ln(WEIGHT_FLOOR) + margin.

    D is the Kullback-Leibler divergence of Bernoulli(k/N) from Bernoulli(p),
    and the Chernoff point bound pmf(k) <= exp(-N·D(k/N || p)) (Arratia and
    Gordon 1989) holds for every k, so each term outside [a, b] is below
    e**-WINDOW_MARGIN times the floor. D falls to 0 at k = Np and rises on
    either side of it, and the mode m is inside (pmf(m) >= 1/(N+1), so
    N·D(m/N || p) <= ln(N+1)), so each edge is found by bisection between m
    and 0 or N, never evaluating D at every count.
    """
    m = _mode(n, p)
    if not 0.0 < p < 1.0:
        return m, m
    limit = -math.log(WEIGHT_FLOOR) + WINDOW_MARGIN
    log_p, log_q = math.log(p), math.log1p(-p)

    def inside(k: int) -> bool:
        rate = k * (math.log(k / n) - log_p) if k else 0.0
        if k < n:
            rate += (n - k) * (math.log((n - k) / n) - log_q)
        return rate <= limit

    def edge(inner: int, outer: int) -> int:
        if inside(outer):
            return outer
        while abs(outer - inner) > 1:
            mid = (inner + outer) // 2
            if inside(mid):
                inner = mid
            else:
                outer = mid
        return inner

    return edge(m, 0), edge(m, n)


def spectral_weights(spec: EnsembleSpec) -> np.ndarray:
    """Binomial pmf over the eigenvalue counts k with parameter p = |c_j|^2.

    Returns the float64 weights as an array of length N + 1 indexed by k:
    entry k is the mass of the product state on the eigenspace of
    eigenvalue k/N.

    Terms come from ``scipy.special._ufuncs._binom_pmf``, the kernel behind
    ``scipy.stats.binom.pmf``, which neither overflows nor loses the peak
    for N up to 10**6; terms below the underflow floor are reported as
    exact zeros. The kernel runs only on the window of counts that can
    reach the floor (see :func:`_window`): by the Chernoff bound every term
    outside it is below e**-5 times the floor, so the zeros there are
    exact, the same zeros the floor would give the full table. At N = 10**6
    and p = 0.3712 the window holds 36,040 of the 10**6 + 1 counts.
    At p = 0 and p = 1 the window is the single count k = 0 or k = N,
    where the kernel gives exactly 1. The kernel is imported here, after
    the scale check, as in :func:`noncollapse_metrics`: loading it pulls in
    all of ``scipy.special``, which processes that compute no binomial
    term (``verify``, ``stats``, ``sample``, refused jobs) never pay for.
    """
    n = spec.n
    check_spectral_n(n)
    from scipy.special._ufuncs import _binom_pmf

    p = spec.born_probability
    a, b = _window(n, p)
    weights = np.zeros(n + 1)
    with np.errstate(under="ignore"):
        window = _binom_pmf(np.arange(a, b + 1), n, p)
    window[window < WEIGHT_FLOOR] = 0.0
    weights[a : b + 1] = window
    return weights


def noncollapse_metrics(spec: EnsembleSpec) -> tuple[float, float, float]:
    """(distance_sq, max_weight, off_peak_mass) for one ensemble spec.

    For 0 < p < 1 the distance to the Born-scaled state vanishes as 1/N
    while the spectral mass off the single largest eigenspace grows toward
    1: the product state approaches no frequency eigenvector. At p = 0 and
    p = 1 the state is an eigenstate: distance 0, max weight exactly 1.

    The peak is read at the binomial mode floor((N+1)p) rather than from
    the full table: the kernel is evaluated at the mode and its two
    neighbours (clipped to [0, N]), which covers the two-mode tie when
    (N+1)p is an integer, the rounding of (N+1)p, and the kernel's own
    rounding, which can put the table's maximum one step above the mode.
    """
    n = spec.n
    check_spectral_n(n)
    from scipy.special._ufuncs import _binom_pmf

    p = spec.born_probability
    m = _mode(n, p)
    k = np.arange(max(m - 1, 0), min(m + 1, n) + 1)
    max_w = float(_binom_pmf(k, n, p).max())
    return distance_sq(spec), max_w, 1.0 - max_w
