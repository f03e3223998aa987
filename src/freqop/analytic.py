"""Closed-form ensemble statistics of the frequency operator.

All quantities depend on the state only through p = |c_j|^2 and scale to
arbitrary N. Tensor factors beyond the first N are untouched by the
operator and have unit norm, so every inner product equals its N-factor
value; nothing here ever materializes an infinite product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import EnsembleSpec

# Spectral weights are computed over N+1 eigenvalues; cap the table size.
MAX_SPECTRAL_N = 10**6

# Binomial terms smaller than this underflow to exact zero.
WEIGHT_FLOOR = 1e-300


@dataclass(frozen=True)
class SpectralWeights:
    """Binomial probability mass of the product state over the frequency
    eigenspaces {k/N}."""

    n: int
    weights: np.ndarray  # index k in [0, N]

    def weight(self, k: int) -> float:
        return float(self.weights[k])

    def max_weight(self) -> float:
        return float(self.weights.max())

    def argmax(self) -> int:
        return int(self.weights.argmax())

    def mean_frequency(self) -> float:
        k = np.arange(self.n + 1)
        return float(np.sum(k / self.n * self.weights))

    def variance_frequency(self) -> float:
        f = np.arange(self.n + 1) / self.n
        m = self.mean_frequency()
        return float(np.sum((f - m) ** 2 * self.weights))


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


def spectral_weights(spec: EnsembleSpec) -> SpectralWeights:
    """Binomial pmf over the eigenvalue counts k with parameter p = |c_j|^2.

    Terms come from ``scipy.special._ufuncs._binom_pmf``, the kernel behind
    ``scipy.stats.binom.pmf``, which neither overflows nor loses the peak
    for N up to 10**6; terms below the underflow floor are reported as
    exact zeros. The kernel is imported here, after the scale check and
    only for 0 < p < 1, as in :func:`noncollapse_metrics`: loading it
    pulls in all of ``scipy.special``, which processes that compute no
    binomial term (``verify``, ``stats``, ``sample``, refused jobs) never
    pay for.
    """
    n = spec.n
    check_spectral_n(n)
    p = spec.born_probability
    weights = np.zeros(n + 1)
    if p == 0.0:
        weights[0] = 1.0
    elif p == 1.0:
        weights[n] = 1.0
    else:
        from scipy.special._ufuncs import _binom_pmf

        with np.errstate(under="ignore"):
            weights = _binom_pmf(np.arange(n + 1), n, p)
        weights[weights < WEIGHT_FLOOR] = 0.0
    return SpectralWeights(n=n, weights=weights)


def noncollapse_metrics(spec: EnsembleSpec) -> tuple[float, float, float]:
    """(distance_sq, max_weight, off_peak_mass) for one ensemble spec.

    For 0 < p < 1 the distance to the Born-scaled state vanishes as 1/N
    while the spectral mass off the single largest eigenspace grows toward
    1: the product state approaches no frequency eigenvector.

    The peak is read at the binomial mode floor((N+1)p) rather than from
    the full table: the kernel is evaluated at the mode and its two
    neighbours, which covers the two-mode tie when (N+1)p is an integer,
    the rounding of (N+1)p, and the kernel's own rounding, which can put
    the table's maximum one step above the mode.
    """
    n = spec.n
    check_spectral_n(n)
    p = spec.born_probability
    if p in (0.0, 1.0):
        max_w = 1.0
    else:
        from scipy.special._ufuncs import _binom_pmf

        m = int((n + 1) * p)
        k = np.arange(max(m - 1, 0), min(m + 1, n) + 1)
        max_w = float(_binom_pmf(k, n, p).max())
    return distance_sq(spec), max_w, 1.0 - max_w
