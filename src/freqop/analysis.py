"""Closed-form convergence studies over ensemble size and the non-collapse
verdict."""

from __future__ import annotations

import math

from . import analytic
from .guards import check_n_list
from .hilbert import EnsembleSpec, StateVector


def convergence_sweep(state: StateVector, j: int, n_list) -> list[dict]:
    """Evaluate the distance law and spectral peak at each N: one dict of
    the closed forms per N, keyed ``n``, ``distance_sq``, ``uncertainty``,
    ``max_weight`` and ``off_peak_mass``."""
    rows = []
    for n in check_n_list(n_list):
        spec = EnsembleSpec(state, n, j)
        d2, max_w, off_peak = analytic.noncollapse_metrics(spec)
        rows.append({"n": n, "distance_sq": d2, "uncertainty": analytic.uncertainty(spec),
                     "max_weight": max_w, "off_peak_mass": off_peak})
    return rows


def loglog_slope(rows) -> float | None:
    """Ordinary least-squares slope of ln(distance_sq) against ln(N) over a
    sweep's rows, about the means, each sum rounded once by ``math.fsum``;
    None for a single row or when any distance is exactly zero (degenerate
    p), which is a legitimate input, not an error."""
    if len(rows) < 2 or any(r["distance_sq"] == 0.0 for r in rows):
        return None
    xs = [math.log(r["n"]) for r in rows]
    ys = [math.log(r["distance_sq"]) for r in rows]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    return (math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys))
            / math.fsum(dx * dx for dx in dxs))


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
        f"at N={last['n']} the squared distance to the Born-scaled state is "
        f"{last['distance_sq']:.3e}, yet {last['off_peak_mass']:.4f} of the "
        f"spectral mass lies off the largest eigenspace "
        f"(max weight {last['max_weight']:.3e}): the product state never "
        f"becomes a frequency eigenstate"
    )
