"""In-process traced run: spans on the bindings between freqop's modules.

The program is not edited. ``Tracer.install`` replaces, in each freqop
module's namespace, every name bound to another freqop module (``cli``'s
``dense``) or to a function or class imported from one (``dense``'s
``product_state_vector``) with a wrapper that records a span around the
call. Calls inside a module are left alone, so per-element helpers such
as ``hilbert.string_to_index`` are traced only where another module calls
them. ``Tracer.uninstall`` puts the original bindings back.

Spans are kept in memory as (layer, name, start, end, parent, job) rows.
A layer's self time is the time of its spans minus the time of their
child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import time
import types

LAYERS = ("hilbert", "dense", "analytic", "sampler", "analysis", "cli")
_PACKAGE = "freqop"


def run_cli(main, argv) -> tuple[int, bytes, bytes]:
    """Run one CLI invocation in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue().encode(), err.getvalue().encode()


def _layer_of(obj) -> str | None:
    name = getattr(obj, "__name__", None) if isinstance(obj, types.ModuleType) \
        else getattr(obj, "__module__", None)
    if not name or not name.startswith(_PACKAGE + "."):
        return None
    layer = name.split(".", 1)[1]
    return layer if layer in LAYERS else None


class Tracer:
    """Records spans on cross-module bindings and counts work done."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.job = -1
        # Work counters, filled by _arg_counter and the counting hooks.
        self.draws = 0
        self.table_entries = 0
        self.matrix_bytes = 0

    # -- spans -----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        count = self._arg_counter(name, fn)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, name, t0, t1, parent, self.job)
            if count:
                count(args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def traced(self, value, layer: str, qual: str):
        """The traced stand-in for a binding to ``value``, or ``value``
        itself where there is nothing to trace (constants, exceptions)."""
        if isinstance(value, types.ModuleType):
            return _Proxy(self, value, layer, qual)
        if isinstance(value, type):
            if issubclass(value, BaseException):
                return value
            return _Proxy(self, value, layer, qual)
        if callable(value):
            return self.wrap(layer, qual, value)
        return value

    def install(self) -> list[str]:
        """Trace every cross-module binding; return the bindings traced."""
        bindings = []
        for layer in LAYERS:
            module = importlib.import_module(f"{_PACKAGE}.{layer}")
            for name, value in list(vars(module).items()):
                target = _layer_of(value)
                if target is None or target == layer or name.startswith("__"):
                    continue
                qual = target if isinstance(value, types.ModuleType) else f"{target}.{name}"
                new = self.traced(value, target, qual)
                if new is value:
                    continue
                self._saved.append((module, name, value))
                setattr(module, name, new)
                bindings.append(f"{layer}->{qual}")
        self._install_counters()
        return bindings

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()

    # -- work counters ---------------------------------------------------

    def _arg_counter(self, name: str, fn):
        """Sampling draws, read from the arguments of sampler entry points."""
        if name not in ("sampler.run_trials", "sampler.sample_outcomes"):
            return None
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None

        def count(args, kwargs):
            try:
                bound = sig.bind(*args, **kwargs).arguments
            except TypeError:
                return
            self.draws += int(bound.get("n", 0)) * int(bound.get("trials", 1))

        return count

    def _install_counters(self) -> None:
        """Counting hooks on the few intra-module calls that build large
        tables: binomial weight tables and explicit dense matrices. Each
        is called a handful of times per job, so the hooks cost nothing
        measurable. A name missing at this commit is skipped."""
        hooks = (
            ("analytic", "spectral_weights", self._count_table),
            ("dense", "build_frequency_operator", self._count_matrix),
            ("dense", "build_frequency_operator_projector_sum", self._count_matrix),
        )
        for layer, name, counter in hooks:
            module = importlib.import_module(f"{_PACKAGE}.{layer}")
            fn = getattr(module, name, None)
            if fn is None:
                continue

            def hooked(*args, _fn=fn, _counter=counter, **kwargs):
                result = _fn(*args, **kwargs)
                _counter(result)
                return result

            self._saved.append((module, name, fn))
            setattr(module, name, hooked)

    def _count_table(self, result) -> None:
        weights = getattr(result, "weights", result)
        self.table_entries += len(weights)

    def _count_matrix(self, result) -> None:
        self.matrix_bytes += getattr(getattr(result, "entries", result), "nbytes", 0)

    # -- analysis --------------------------------------------------------

    def layer_stats(self) -> dict[str, tuple[float, int]]:
        """{layer: (self seconds, calls)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for layer, name, t0, t1, parent, job in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {layer: [0.0, 0] for layer in LAYERS}
        for i, (layer, name, t0, t1, parent, job) in enumerate(self.spans):
            stats[layer][0] += (t1 - t0) - child[i]
            stats[layer][1] += 1
        return {k: (v[0], v[1]) for k, v in stats.items()}

    def job_time(self, job: int) -> float:
        """Time of the root spans of one job."""
        return sum(t1 - t0 for layer, name, t0, t1, parent, j in self.spans
                   if j == job and parent < 0)


class _Proxy:
    """Stand-in for a module or class bound in another module. Calls through
    it (functions, classmethods, construction) are traced; constants and
    exception classes pass through."""

    def __init__(self, tracer: Tracer, target, layer: str, qual: str):
        self._target, self._tracer, self._layer, self._qual = target, tracer, layer, qual
        if isinstance(target, type):
            self._new = tracer.wrap(layer, qual, target)

    def __call__(self, *args, **kwargs):
        return self._new(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        layer = _layer_of(value) or self._layer
        value = self._tracer.traced(value, layer, f"{self._qual}.{attr}")
        setattr(self, attr, value)
        return value
