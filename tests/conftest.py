import math
import sys
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

from freqop import analytic
from freqop.hilbert import StateVector

# Below the smallest normal double, p is subnormal.
SMALLEST_NORMAL = sys.float_info.min


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    """Haar-ish random normalized complex state."""
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps))


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


def spec_with_p(n: int, p: float) -> SimpleNamespace:
    """Stand-in for an EnsembleSpec with Born weight exactly p. The closed
    forms read only ``n`` and ``born_probability``; no real amplitude
    squares to exactly 0.5, so the exact tie cases need this."""
    return SimpleNamespace(n=n, born_probability=p)


def mp_binomial_weight(n: int, k: int, p: float) -> mpmath.mpf:
    """Independent 50-digit oracle for the binomial term at the float p,
    with 1 - p taken exactly from ``Fraction``."""
    q = 1 - Fraction(p)
    with mpmath.workdps(50):
        return (
            mpmath.binomial(n, k)
            * mpmath.mpf(p) ** k
            * (mpmath.mpf(q.numerator) / q.denominator) ** (n - k)
        )


def relative_error(weight: float, reference: mpmath.mpf) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(weight) - reference) / reference)


def edge_tight_p(n: int) -> float:
    """The p with (1 - p)**N = WEIGHT_FLOOR: there the Chernoff bound is
    exact at k = 0, so the window's margin is all that keeps the edge."""
    return -math.expm1(math.log(analytic.WEIGHT_FLOOR) / n)


def nudge(p: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        p = math.nextafter(p, math.copysign(math.inf, ulps))
    return min(max(p, 0.0), 1.0)


@st.composite
def sizes_and_probabilities(draw):
    """(N, p) with N <= 10**6 and p anywhere in [0, 1], weighted toward the
    cases that strain the kernel and the window: p near 0 (subnormal
    included) and near 1, two-mode ties and the edge-tight p."""
    n = draw(st.integers(0, 6).flatmap(lambda e: st.integers(1, 10**e)))
    small = st.floats(0.0, 1e-3)
    p = draw(st.one_of(
        st.floats(0.0, 1.0),
        small,
        small.map(lambda x: 1.0 - x),
        st.floats(0.0, SMALLEST_NORMAL),
        # Two-mode ties: (N + 1)p is an integer.
        st.integers(0, n + 1).map(lambda k: k / (n + 1)),
        st.integers(-40, 40).map(lambda u: nudge(edge_tight_p(n), u)),
        st.integers(-40, 40).map(lambda u: 1.0 - nudge(edge_tight_p(n), u)),
    ))
    return n, p
