"""Every program name the benchmark looks up still resolves and runs.

``bench/kernels.py`` times functions it finds by module and name, and
``bench/tracing.py`` hooks three of them by name and wraps the bindings
between the layers it lists. A function deleted or renamed in the package
is reported there only as a missing metric, so these tests hold each name
to the package: each kernel runs on its warm-up arguments, each hook
counts, and a traced CLI run prints its document to the redirected stdout
and nothing after it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from freqop import analytic, cli, dense, hilbert
from freqop.hilbert import EnsembleSpec, StateVector

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    """Load ``bench/<name>.py`` under a private name, so that it does not
    take the place of any other module called ``name``."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _per_layer_names() -> set[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"] for metric in bench["per_layer"]}


def test_every_kernel_resolves_and_runs_its_warm_up():
    kernels = _bench_module("kernels")
    table = kernels._kernels(hilbert, 0.36, 2021, 5)
    assert table
    for metric, module, name, warm, _ in table:
        fn = getattr(importlib.import_module(f"freqop.{module}"), name)
        fn(*warm)
        assert metric in _per_layer_names(), metric
    # run_kernels also times the d=2, N=12 check alone, under tracemalloc.
    for metric in ("d2n12_s", "d2n12_peak_mb"):
        assert f"dense.verify_operator_algebra.{metric}" in _per_layer_names()


def test_tracing_hooks_count_and_every_layer_imports():
    tracing = _bench_module("tracing")
    for layer in tracing.LAYERS:
        importlib.import_module(f"freqop.{layer}")
    # The benchmark runs each job untraced first, so the CLI has bound its
    # layers before the tracer replaces them.
    assert tracing.run_cli(cli.main, ["verify", "--dim", "2", "--n-max", "1"])[0] == 0
    tracer = tracing.Tracer()
    assert tracer.install()
    try:
        analytic.spectral_weights(EnsembleSpec(StateVector.two_level(0.36), 10, 0))
        assert tracer.table_entries == 11
        spec = EnsembleSpec(StateVector.uniform(2), 2, 0)
        dense.build_frequency_operator(spec)
        dense.build_frequency_operator_projector_sum(spec)
        assert tracer.matrix_bytes == 2 * 4 * 16  # two complex128 diagonals of 4

        main = tracer.wrap("cli", "cli.main", cli.main)
        argv = ["stats", "--state", "two-level:0.36", "--n", "8", "--cross-check"]
        rc, out, err = tracing.run_cli(main, argv)
    finally:
        tracer.uninstall()
    assert rc == 0 and err == b""
    assert json.loads(out)["result"]["cross_check"] == "PASS"
    calls = {layer: n for layer, (_, n) in tracer.layer_stats().items()}
    assert calls["cli"] >= 1 and calls["dense"] >= 1 and calls["hilbert"] >= 1
