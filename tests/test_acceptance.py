"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import math
import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from freqop import analytic, dense, sampler
from freqop.analysis import convergence_sweep, loglog_slope
from freqop.hilbert import EnsembleSpec, StateVector

from conftest import random_state


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def test_criterion_1_eigenrelation():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3):
        for n in range(1, 7):
            for j in range(d):
                op = dense.build_frequency_operator(
                    EnsembleSpec(StateVector.uniform(d), n, j)
                )
                eigs = dense.frequency_counts(d, n, j) / n
                # Residual per basis column of (F - f_j(s) * 1) e_s.
                residuals = np.abs(op - eigs)
                worst = max(worst, float(residuals.max()))
                for string in itertools.product(range(d), repeat=n):
                    expected = sum(1 for i in string if i == j) / n
                    idx = sum(i * d ** (n - 1 - a) for a, i in enumerate(string))
                    assert eigs[idx] == expected
    elapsed = time.monotonic() - start
    report(
        1,
        "every basis string is an eigenvector with eigenvalue count/N",
        worst < 1e-13 and elapsed < 10,
        f"max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_construction_equivalence():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3):
        for n in range(1, 7):
            dev = dense.verify_operator_algebra(d, n)["construction_route_deviation"]
            worst = max(worst, dev)
    elapsed = time.monotonic() - start
    report(
        2,
        "string-sum and projector-sum constructions agree entrywise",
        worst < 1e-14 and elapsed < 10,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_operator_algebra():
    worst = 0.0
    ok = True
    for d in (2, 3):
        for n in range(1, 7):
            rep = dense.verify_operator_algebra(d, n)
            worst = max(
                worst,
                rep["sum_to_identity"],
                rep["max_commutator"],
                rep["hermiticity"],
                rep["spectrum_membership"],
            )
            ok = ok and rep["multiplicity_ok"]
    report(
        3,
        "resolution of identity, commutation, Hermiticity, spectrum",
        ok and worst < 1e-13,
        f"max deviation {worst:.2e}",
    )


def test_criterion_4_central_numbers():
    start = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(1, 8))
        j = int(rng.integers(0, d))
        spec = EnsembleSpec(random_state(rng, d), n, j)
        oracle = dense.statistics_dense(spec)
        worst = max(
            worst,
            abs(analytic.expectation(spec) - oracle["expectation"]),
            abs(analytic.gram(spec) - oracle["gram"]),
            abs(analytic.distance_sq(spec) - oracle["distance_sq"]),
        )
    spec_half = EnsembleSpec(StateVector.two_level(0.5), 10, 0)
    instances_ok = (
        analytic.distance_sq(spec_half) == pytest.approx(0.025, abs=1e-12)
        and analytic.uncertainty(spec_half) == pytest.approx(0.1581139, abs=1e-7)
        and analytic.gram(spec_half) == pytest.approx(0.275, abs=1e-12)
        and analytic.distance_sq(EnsembleSpec(StateVector.two_level(0.36), 100, 0))
        == pytest.approx(0.002304, abs=1e-12)
    )
    elapsed = time.monotonic() - start
    report(
        4,
        "closed forms match dense oracle and evaluated instances",
        worst < 1e-11 and instances_ok and elapsed < 30,
        f"max oracle deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_one_over_n_law():
    start = time.monotonic()
    slope = loglog_slope(
        convergence_sweep(StateVector.two_level(0.5), 0, [10, 100, 1000, 10000])
    )
    elapsed = time.monotonic() - start
    report(
        5,
        "log-log slope of distance_sq over N is -1",
        slope is not None
        and abs(slope + 1.0) < 1e-9
        and elapsed < 1,
        f"slope {slope:.12f}, {elapsed:.2f}s",
    )


def test_criterion_6_noncollapse():
    start = time.monotonic()
    state = StateVector.two_level(0.5)
    rows = [
        analytic.noncollapse_metrics(EnsembleSpec(state, n, 0))
        for n in (10**2, 10**4, 10**6)
    ]
    d2 = [r[0] for r in rows]
    off_peak = [r[2] for r in rows]
    ratio_ok = all(
        b / a == pytest.approx(0.01, rel=1e-12) for a, b in zip(d2, d2[1:])
    )
    spread_ok = all(b > a for a, b in zip(off_peak, off_peak[1:]))
    scaled = [r[1] * math.sqrt(n) for r, n in zip(rows, (10**2, 10**4, 10**6))]
    const_ok = max(scaled) / min(scaled) < 1.02

    # Dense eigenspace projections at small N.
    rng = np.random.default_rng(6)
    dense_dev = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 8))
        spec = EnsembleSpec(random_state(rng, 2), n, int(rng.integers(0, 2)))
        dense_dev = max(
            dense_dev,
            float(
                np.max(
                    np.abs(
                        analytic.spectral_weights(spec)
                        - dense.spectral_weights_dense(spec)
                    )
                )
            ),
        )
    elapsed = time.monotonic() - start
    report(
        6,
        "distance vanishes while spectral mass spreads",
        ratio_ok and spread_ok and const_ok and dense_dev < 1e-11 and elapsed < 10,
        f"peak*sqrt(N) spread {max(scaled) / min(scaled) - 1:.4f}, "
        f"dense deviation {dense_dev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_monte_carlo():
    start = time.monotonic()
    state = StateVector.two_level(0.5)
    a = sampler.run_trials(state, 100, 10**4, seed=20260826)
    b = sampler.run_trials(state, 100, 10**4, seed=20260826)
    deterministic = np.array_equal(a.frequencies, b.frequencies)
    mean_ok = abs(a.mean_frequency - 0.5) <= 0.0025
    var_ok = 0.85 * 0.0025 <= a.sample_variance <= 1.15 * 0.0025
    elapsed = time.monotonic() - start
    report(
        7,
        "Monte Carlo frequencies reproduce the operator statistics",
        deterministic and mean_ok and var_ok and elapsed < 30,
        f"mean {a.mean_frequency:.5f}, variance {a.sample_variance:.3e}, "
        f"{elapsed:.1f}s",
    )
