"""Convergence studies over ensemble size and the non-collapse verdict."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, sampler
from .guards import check_n_list, check_sampling
from .hilbert import EnsembleSpec, StateVector


@dataclass(frozen=True)
class ConvergenceRow:
    """One ensemble size of a sweep: the closed forms, and the sampled
    moments when the sweep samples."""

    n: int
    distance_sq: float
    uncertainty: float
    max_weight: float
    off_peak_mass: float
    sampled_mean: float | None = None
    sampled_variance: float | None = None


def convergence_sweep(
    state: StateVector, j: int, n_list, trials: int | None = None, seed: int = 0
) -> list[ConvergenceRow]:
    """Evaluate the distance law and spectral peak at each N, one row each.

    Analytic columns are always present. When ``trials`` is given the
    sampled columns are filled too, each N running ``trials`` trials from
    the same master ``seed`` so the sweep is reproducible as a whole; the
    whole sweep passes :func:`guards.check_sampling` before its first N.
    Without ``trials`` the seed is not read.
    """
    ns = check_n_list(n_list)
    if trials is not None:
        check_sampling(trials, seed, ns)
    rows = []
    for n in ns:
        spec = EnsembleSpec(state, n, j)
        d2, max_w, off_peak = analytic.noncollapse_metrics(spec)
        sampled_mean = sampled_var = None
        if trials is not None:
            summary = sampler.run_trials(state, n, trials, seed, j)
            sampled_mean = summary.mean_frequency
            sampled_var = summary.sample_variance
        rows.append(
            ConvergenceRow(
                n=n,
                distance_sq=d2,
                uncertainty=analytic.uncertainty(spec),
                max_weight=max_w,
                off_peak_mass=off_peak,
                sampled_mean=sampled_mean,
                sampled_variance=sampled_var,
            )
        )
    return rows


def loglog_slope(rows) -> float | None:
    """OLS slope of ln(distance_sq) against ln(N) over a sweep's rows; None
    for a single row or when any distance is exactly zero (degenerate p),
    which is a legitimate input, not an error."""
    d2 = np.array([r.distance_sq for r in rows], dtype=float)
    if len(rows) < 2 or np.any(d2 == 0.0):
        return None
    ln_n = np.log([r.n for r in rows])
    slope, _ = np.polyfit(ln_n, np.log(d2), 1)
    return float(slope)


def noncollapse_verdict(state: StateVector, j: int, rows) -> str:
    """Pair the vanishing distance with the spreading spectral mass, read
    off the last of the sweep ``rows`` of ``state`` and outcome ``j``.

    The point made quantitative: convergence in norm to the Born-scaled
    state does not make the product state a frequency eigenstate, since the
    mass off the single largest eigenspace grows toward 1.
    """
    p = state.probability(j)
    if p == 0.0 or p == 1.0:
        return (
            f"exact eigenstate: the product state lies entirely in the "
            f"eigenspace of eigenvalue {p:g} for every N"
        )
    last = rows[-1]
    return (
        f"at N={last.n} the squared distance to the Born-scaled state is "
        f"{last.distance_sq:.3e}, yet {last.off_peak_mass:.4f} of the "
        f"spectral mass lies off the largest eigenspace "
        f"(max weight {last.max_weight:.3e}): the product state never "
        f"becomes a frequency eigenstate"
    )
