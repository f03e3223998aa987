import json
import math
import re
import statistics

import numpy as np
import pytest

from freqop import analytic, dense, guards, sampler
from freqop.analysis import convergence_sweep, loglog_slope, noncollapse_verdict
from freqop.cli import main
from freqop.hilbert import EnsembleSpec, StateVector

# Largest N whose 1000-trial sampled sweep fits the draw budget on its own.
_TOP = guards.MAX_DRAWS // 1000


class TestConvergenceSweep:
    def test_rows_hold_the_closed_forms_only(self, capsys):
        rows = convergence_sweep(StateVector.two_level(0.36), 0, [10, 100])
        assert [list(row) for row in rows] == [
            ["n", "distance_sq", "uncertainty", "max_weight", "off_peak_mass"]] * 2
        # The CLI adds the sampled cells, empty unless converge samples.
        argv = ["converge", "--state", "two-level:0.36", "--n-list", "10,100"]
        assert main(argv) == 0
        for row in json.loads(capsys.readouterr().out)["result"]["rows"]:
            assert (row["sampled_mean"], row["sampled_variance"]) == (None, None)
        assert main([*argv, "--format", "csv"]) == 0
        body = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
        assert len(body) == 2 and all(line.endswith(",,") for line in body)

    def test_known_distances_and_slope(self):
        rows = convergence_sweep(StateVector.two_level(0.5), 0, [10, 100, 1000])
        d2 = [r["distance_sq"] for r in rows]
        assert d2 == pytest.approx([0.025, 0.0025, 0.00025], abs=1e-15)
        assert loglog_slope(rows) == pytest.approx(-1.0, abs=1e-9)

    def test_degenerate_slope_marker(self):
        rows = convergence_sweep(StateVector.two_level(1.0), 0, [10, 100])
        assert all(r["distance_sq"] == 0.0 for r in rows)
        assert loglog_slope(rows) is None

    def test_slope_error_within_polyfit(self):
        """Against the exact slope of -1, the fsum fit errs no more than
        ``np.polyfit`` did, in the median and at worst, over random sweeps."""
        rng = np.random.default_rng(20261019)
        fsum_err, polyfit_err = [], []
        for _ in range(1000):
            p = float(rng.random())
            ns = np.unique(rng.integers(1, 10**6, size=int(rng.integers(2, 10))))
            if ns.size < 2:
                continue
            rows = [{"n": int(n), "distance_sq": p * (1.0 - p) / int(n)} for n in ns]
            d2 = [r["distance_sq"] for r in rows]
            fsum_err.append(abs(loglog_slope(rows) + 1.0))
            polyfit_err.append(abs(np.polyfit(np.log(ns), np.log(d2), 1)[0] + 1.0))
        assert statistics.median(fsum_err) <= statistics.median(polyfit_err)
        assert max(fsum_err) <= max(polyfit_err)

    def test_dense_cross_check_small_n(self):
        state = StateVector.two_level(0.3)
        for row in convergence_sweep(state, 0, [2, 3, 5, 7]):
            spec = EnsembleSpec(state, row["n"], 0)
            assert row["distance_sq"] == pytest.approx(
                dense.statistics_dense(spec)["distance_sq"], abs=1e-11
            )

    def test_identity_per_row(self):
        for row in convergence_sweep(StateVector.two_level(0.42), 0, [3, 30, 300]):
            assert row["uncertainty"]**2 == pytest.approx(row["distance_sq"], abs=1e-14)

    def test_monotone_decrease(self):
        rows = convergence_sweep(StateVector.two_level(0.2), 0, [1, 2, 5, 50, 500])
        d2 = [r["distance_sq"] for r in rows]
        assert all(b < a for a, b in zip(d2, d2[1:]))

    def test_sampled_columns(self, capsys):
        assert main(["converge", "--state", "two-level:0.5", "--n-list", "100,200",
                     "--sample", "--trials", "2000", "--seed", "13"]) == 0
        for row in json.loads(capsys.readouterr().out)["result"]["rows"]:
            assert row["sampled_mean"] is not None
            assert abs(row["sampled_mean"] - 0.5) < 0.01
            assert row["sampled_variance"] / row["uncertainty"]**2 == pytest.approx(
                1.0, abs=0.2
            )

    def test_rejects_bad_n_list(self):
        s = StateVector.uniform(2)
        with pytest.raises(ValueError):
            convergence_sweep(s, 0, [10, 10])
        with pytest.raises(ValueError):
            convergence_sweep(s, 0, [])
        with pytest.raises(ValueError):
            convergence_sweep(s, 0, [0, 5])

    def test_rejects_whole_sweep_before_any_work(self, monkeypatch, capsys):
        calls = record_layer_calls(monkeypatch, lambda fn, *args, **kwargs: fn(*args, **kwargs))
        with pytest.raises(ValueError, match="limited to N <= "):
            convergence_sweep(StateVector.two_level(0.5), 0, [10, guards.MAX_SPECTRAL_N + 1])
        line = refused_sweep(capsys, [10, guards.MAX_SPECTRAL_N + 1], 3, 1)
        assert "limited to N <= " in line
        assert calls == []

    @pytest.mark.parametrize("refused, n_list, match, accepted, accepted_n_list", [
        # Each request is (trials, seed). 1000 trials x (10 + top) draws:
        # the last N alone fits the budget; exactly at the budget the sweep
        # starts on its first N.
        ((1000, 1), [10, _TOP], "draws", (1000, 1), [10, _TOP - 10]),
        # 1000 trials x 1001 sizes: half the draw budget, one run too many.
        ((1000, 1), list(range(1, 1002)), "trial runs", (1000, 1),
         list(range(1, 1001))),
        ((1, 1), [10, 100], "two trials", (2, 1), [10, 100]),
        ((3, -1), [10, 100], "seed", (3, 0), [10, 100]),
        ((3, 2**64), [10, 100], "seed", (3, 2**64 - 1), [10, 100]),
    ], ids=["draws", "runs", "trials", "seed-negative", "seed-65-bits"])
    def test_rejects_over_budget_sampled_sweep_before_any_work(
        self, monkeypatch, capsys, refused, n_list, match, accepted, accepted_n_list
    ):
        def refused_call(fn, *args, **kwargs):
            raise RuntimeError(f"{fn.__name__} ran")

        calls = record_layer_calls(monkeypatch, refused_call)
        assert re.search(match, refused_sweep(capsys, n_list, *refused))
        assert calls == []
        with pytest.raises(RuntimeError, match="noncollapse_metrics ran"):
            main(sampled_sweep_argv(accepted_n_list, *accepted))
        assert calls == ["noncollapse_metrics"]


def record_layer_calls(monkeypatch, call) -> list[str]:
    """Route the sweep's closed forms and draws, ``analytic.noncollapse_metrics``
    and ``sampler.run_trials``, through ``call(fn, *args, **kwargs)``; the
    returned list records the name of each one called."""
    calls = []

    def recorded(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return call(fn, *args, **kwargs)
        return wrapper

    for layer, name in ((analytic, "noncollapse_metrics"), (sampler, "run_trials")):
        monkeypatch.setattr(layer, name, recorded(getattr(layer, name)))
    return calls


def sampled_sweep_argv(n_list, trials, seed) -> list[str]:
    return ["converge", "--state", "two-level:0.5", "--n-list", ",".join(map(str, n_list)),
            "--sample", "--trials", str(trials), "--seed", str(seed)]


def refused_sweep(capsys, n_list, trials, seed) -> str:
    """The one stderr line of a sampled ``converge`` that exits 2."""
    assert main(sampled_sweep_argv(n_list, trials, seed)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    return line


class TestNoncollapseReport:
    def test_large_n_numbers(self):
        row = convergence_sweep(StateVector.two_level(0.5), 0, [10**4])[0]
        assert row["distance_sq"] == pytest.approx(2.5e-5, abs=1e-18)
        assert row["max_weight"] == pytest.approx(0.00798, abs=5e-5)
        assert row["off_peak_mass"] > 0.99

    def test_eigenstate_verdict(self):
        state = StateVector.two_level(0.0)
        rows = convergence_sweep(state, 0, [10, 100])
        assert "exact eigenstate" in noncollapse_verdict(state, 0, rows)
        assert all(r["off_peak_mass"] == 0.0 for r in rows)

    def test_generic_verdict_mentions_spread(self):
        state = StateVector.two_level(0.5)
        rows = convergence_sweep(state, 0, [100, 1000])
        assert "never becomes" in noncollapse_verdict(state, 0, rows)

    def test_peak_scaling_constant(self):
        # De Moivre-Laplace: max weight ~ 1/sqrt(2 pi N p(1-p)), so
        # max_weight * sqrt(N) ~ sqrt(2/pi) = 0.7979 at p = 0.5.
        rows = convergence_sweep(StateVector.two_level(0.5), 0, [10**2, 10**4, 10**6])
        scaled = [r["max_weight"] * math.sqrt(r["n"]) for r in rows]
        ref = math.sqrt(2 / math.pi)
        for value in scaled:
            assert value == pytest.approx(ref, rel=0.02)

    def test_distance_vs_spread_opposition(self):
        rows = convergence_sweep(StateVector.two_level(0.3), 0, [10, 100, 1000, 10000])
        d2 = [r["distance_sq"] for r in rows]
        off = [r["off_peak_mass"] for r in rows]
        assert all(b < a for a, b in zip(d2, d2[1:]))
        assert all(b > a for a, b in zip(off, off[1:]))
