"""Convergence studies over ensemble size and the non-collapse report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analytic, sampler
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


@dataclass(frozen=True)
class SweepResult:
    rows: list[ConvergenceRow]
    # OLS slope of ln(distance_sq) against ln(N); None when any distance is
    # exactly zero (degenerate p), which is a legitimate input, not an error.
    slope: float | None


@dataclass(frozen=True)
class NoncollapseReport:
    rows: list[ConvergenceRow]
    verdict: str


def _validate_n_list(n_list) -> list[int]:
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns):
        raise ValueError("n_list must be nonempty with every entry >= 1")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n_list must be strictly increasing")
    analytic.check_spectral_n(ns[-1])
    return ns


def convergence_sweep(
    state: StateVector, j: int, n_list, trials: int | None = None, seed: int = 0
) -> SweepResult:
    """Evaluate the distance law and spectral peak across ensemble sizes.

    Analytic columns are always present. When ``trials`` is given the
    sampled columns are filled too, each N running ``trials`` trials from
    the same master ``seed`` so the sweep is reproducible as a whole; the
    whole sweep's draws pass :func:`sampler.check_sampling` before its
    first N. Without ``trials`` the seed is not read.
    """
    ns = _validate_n_list(n_list)
    if trials is not None:
        sampler.check_sampling(trials, seed, trials * sum(ns))
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
    return SweepResult(rows=rows, slope=_loglog_slope(rows))


def _loglog_slope(rows) -> float | None:
    d2 = np.array([r.distance_sq for r in rows], dtype=float)
    if len(rows) < 2 or np.any(d2 == 0.0):
        return None
    ln_n = np.log([r.n for r in rows])
    slope, _ = np.polyfit(ln_n, np.log(d2), 1)
    return float(slope)


def noncollapse_report(state: StateVector, j: int, n_list) -> NoncollapseReport:
    """Pair the vanishing distance with the spreading spectral mass.

    The point made quantitative: convergence in norm to the Born-scaled
    state does not make the product state a frequency eigenstate, since the
    mass off the single largest eigenspace grows toward 1.
    """
    rows = convergence_sweep(state, j, n_list).rows
    p = state.probability(j)
    if p == 0.0 or p == 1.0:
        verdict = (
            f"exact eigenstate: the product state lies entirely in the "
            f"eigenspace of eigenvalue {p:g} for every N"
        )
    else:
        last = rows[-1]
        verdict = (
            f"at N={last.n} the squared distance to the Born-scaled state is "
            f"{last.distance_sq:.3e}, yet {last.off_peak_mass:.4f} of the "
            f"spectral mass lies off the largest eigenspace "
            f"(max weight {last.max_weight:.3e}): the product state never "
            f"becomes a frequency eigenstate"
        )
    return NoncollapseReport(rows=rows, verdict=verdict)
