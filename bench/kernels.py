"""Kernel timings: each layer's hot functions alone, warm, at fixed sizes.

Each kernel is called once at a small size to warm it, then timed at its
fixed size: repeatedly, reporting the median, while the repeats stay
under ``REPEAT_BUDGET_S``; once when a single call is longer. The d=2,
N=12 operator-algebra check runs once, under ``tracemalloc``, and gives
both its time and its peak traced memory. A function that does not exist
at this commit is reported as missing; the run goes on.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc

REPEAT_BUDGET_S = 0.5
MAX_REPEATS = 5
CONVERGENCE_NS = [10, 100, 1000, 10**4, 10**5, 10**6]


def _kernels(hilbert, p: float, seed: int, j8: int):
    two = hilbert.StateVector.two_level(p)
    uni2 = hilbert.StateVector.uniform(2)
    uni8 = hilbert.StateVector.uniform(8)

    def spec(state, n, j=0):
        return hilbert.EnsembleSpec(state, n, j)

    # (metric, module, function, warm-up args, timed args)
    return [
        ("dense.verify_operator_algebra.d2n11_s", "dense", "verify_operator_algebra",
         (2, 6), (2, 11)),
        ("dense.verify_operator_algebra.d3n7_s", "dense", "verify_operator_algebra",
         (3, 4), (3, 7)),
        ("dense.verify_operator_algebra.d2n20_s", "dense", "verify_operator_algebra",
         (2, 14), (2, 20)),
        ("dense.build_frequency_operator.d2n12_s", "dense", "build_frequency_operator",
         (spec(uni2, 6),), (spec(uni2, 12),)),
        ("dense.build_frequency_operator_projector_sum.d2n12_s", "dense",
         "build_frequency_operator_projector_sum", (spec(uni2, 6),), (spec(uni2, 12),)),
        ("dense.frequency_counts.d2n20_s", "dense", "frequency_counts",
         (2, 10, 0), (2, 20, 0)),
        ("dense.expectation_dense.d2n20_s", "dense", "expectation_dense",
         (spec(two, 10),), (spec(two, 20),)),
        ("dense.apply_to_product.d2n20_s", "dense", "apply_to_product",
         (spec(two, 10),), (spec(two, 20),)),
        ("hilbert.product_state_vector.d2n20_s", "hilbert", "product_state_vector",
         (spec(two, 10),), (spec(two, 20),)),
        ("analytic.spectral_weights.n1e4_s", "analytic", "spectral_weights",
         (spec(two, 100),), (spec(two, 10**4),)),
        ("analytic.spectral_weights.n1e6_s", "analytic", "spectral_weights",
         (spec(two, 100),), (spec(two, 10**6),)),
        ("analytic.noncollapse_metrics.n1e6_s", "analytic", "noncollapse_metrics",
         (spec(two, 100),), (spec(two, 10**6),)),
        ("analysis.convergence_sweep.n1e6_s", "analysis", "convergence_sweep",
         (two, 0, [10, 100]), (two, 0, CONVERGENCE_NS)),
        ("sampler.run_trials.n100_t1e4_s", "sampler", "run_trials",
         (two, 100, 10, seed, 0), (two, 100, 10**4, seed, 0)),
        ("sampler.run_trials.n1e6_t100_s", "sampler", "run_trials",
         (two, 10**4, 10, seed, 0), (two, 10**6, 100, seed, 0)),
        ("sampler.run_trials.d8_n1e5_t200_s", "sampler", "run_trials",
         (uni8, 1000, 10, seed, j8), (uni8, 10**5, 200, seed, j8)),
        ("sampler.sample_outcomes.n1e6_s", "sampler", "sample_outcomes",
         (two, 1000, seed), (two, 10**6, seed)),
    ]


def _time(fn, args) -> float:
    times = []
    while True:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
        if len(times) >= MAX_REPEATS or sum(times) + times[-1] > REPEAT_BUDGET_S:
            return statistics.median(times)


def run_kernels(p: float, seed: int, j8: int) -> tuple[dict, list[str], list[str], int]:
    """({metric: value}, missing names, errors, kernel calls attempted)."""
    modules = {name: importlib.import_module(f"freqop.{name}")
               for name in ("hilbert", "dense", "analytic", "analysis", "sampler")}
    metrics, missing, errors, attempted = {}, [], [], 0

    def lookup(module, name):
        fn = getattr(modules[module], name, None)
        if fn is None and f"{module}.{name}" not in missing:
            missing.append(f"{module}.{name}")
        return fn

    hilbert = modules["hilbert"]
    try:
        kernels = _kernels(hilbert, p, seed, j8)
    except (AttributeError, TypeError) as exc:
        missing.append(f"hilbert state API: {exc}")
        kernels = []
    for metric, module, name, warm, args in kernels:
        fn = lookup(module, name)
        if fn is None:
            continue
        attempted += 1
        try:
            fn(*warm)
            metrics[metric] = _time(fn, args)
        except Exception as exc:  # reported, and the run goes on
            errors.append(f"{metric}: {type(exc).__name__}: {exc}")

    verify = lookup("dense", "verify_operator_algebra")
    if verify is not None:
        attempted += 1
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            verify(2, 12)
            metrics["dense.verify_operator_algebra.d2n12_s"] = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
            metrics["dense.verify_operator_algebra.d2n12_peak_mb"] = peak / 2**20
        except Exception as exc:  # reported, and the run goes on
            errors.append(f"dense.verify_operator_algebra.d2n12: {type(exc).__name__}: {exc}")
        finally:
            tracemalloc.stop()
    return metrics, missing, errors, attempted
