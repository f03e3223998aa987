import ast
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freqop import analysis, analytic, cli, dense
from freqop.cli import CSV_CHUNK_ROWS, main, parse_state
from freqop.hilbert import kron_fold

from test_golden import CASES, LARGE_CASES, golden_path, read_digests

SRC = Path(__file__).parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def assert_usage_error(capsys, *argv):
    """Exit 2, nothing on stdout, one 'error:' line on stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


class TestParseState:
    def test_presets(self):
        s = parse_state("two-level:0.36")
        assert s.probability(0) == pytest.approx(0.36)
        assert parse_state("uniform:4").dim == 4

    def test_json_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({
            "dim": 2,
            "amplitudes": [{"re": 0.6, "im": 0.0}, {"re": 0.0, "im": 0.8}],
        }))
        s = parse_state(str(path))
        assert s.probability(1) == pytest.approx(0.64)

    @pytest.mark.parametrize("state,message", [
        ("uniform:abc", "--state uniform:D needs an integer D, got 'abc'"),
        ("uniform:1.5", "--state uniform:D needs an integer D, got '1.5'"),
        ("uniform:", "--state uniform:D needs an integer D, got ''"),
        ("two-level:", "--state two-level:P needs a number P, got ''"),
        ("two-level:0.5x", "--state two-level:P needs a number P, got '0.5x'"),
    ])
    def test_malformed_preset_names_its_value(self, capsys, state, message):
        error = assert_usage_error(capsys, "stats", "--state", state, "--n", "5")
        assert error == f"error: {message}"

    def test_preset_value_is_all_after_the_first_colon(self, capsys):
        error = assert_usage_error(capsys, "stats", "--state", "uniform:4:5", "--n", "5")
        assert error == "error: --state uniform:D needs an integer D, got '4:5'"

    @pytest.mark.parametrize("dim", [0, -1])
    def test_json_dim_below_one_exit_2(self, tmp_path, capsys, dim):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": dim, "amplitudes": []}))
        error = assert_usage_error(capsys, "stats", "--state", str(path), "--n", "3")
        assert error == f'error: "dim" needs dimension >= 1, got {dim}'

    @pytest.mark.parametrize("doc", [
        [0.6, 0.8],
        {"amplitudes": [{"re": 1.0, "im": 0.0}]},
        {"dim": 2},
        {"dim": "2", "amplitudes": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]},
        {"dim": 2, "amplitudes": [1, 0]},
        {"dim": 2, "amplitudes": [{"re": "1", "im": 0}, {"re": 0, "im": 0}]},
        {"dim": 2, "amplitudes": [{"re": 1.0}, {"re": 0.0, "im": 0.0}]},
        # A JSON integer too large for a float.
        {"dim": 2, "amplitudes": [{"re": 10**400, "im": 0}, {"re": 0, "im": 0}]},
    ], ids=["not-object", "no-dim", "no-amplitudes", "string-dim",
            "bare-numbers", "string-re", "no-im", "overflowing-re"])
    def test_bad_schema_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert_usage_error(capsys, "stats", "--state", str(path), "--n", "3")

    @pytest.mark.parametrize("text", [
        "[" * 200000 + "]" * 200000,
        '{"dim": 2, "amplitudes": ' + "[" * 5000 + "]" * 5000 + "}",
    ], ids=["bare-lists", "nested-amplitudes"])
    def test_deeply_nested_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        assert_usage_error(capsys, "stats", "--state", str(path), "--n", "3")

    def test_born_weight_above_one_is_an_eigenstate(self, tmp_path, capsys):
        # |c_0|^2 = 1 + 8e-13 passes the norm tolerance; p is read as 1.0.
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"dim": 2, "amplitudes": [
            {"re": 1.0000000000004, "im": 0}, {"re": 0, "im": 0}]}))
        state = ("--state", str(path))
        code, doc = run_json(capsys, "stats", *state, "--n", "10")
        assert code == 0
        result = doc["result"]
        assert (result["expectation"], result["uncertainty"]) == (1.0, 0.0)
        assert (result["distance_sq"], result["gram"]) == (0.0, 1.0)
        code, doc = run_json(capsys, "converge", *state, "--n-list", "10,100")
        assert code == 0 and doc["result"]["slope"] == "undefined"
        code, doc = run_json(capsys, "noncollapse", *state, "--n-list", "10,100")
        assert code == 0
        assert doc["result"]["verdict"].startswith("exact eigenstate")
        assert [r["max_weight"] for r in doc["result"]["rows"]] == [1.0, 1.0]
        assert [r["off_peak_mass"] for r in doc["result"]["rows"]] == [0.0, 0.0]

    @pytest.mark.parametrize("data", [b"", b'{"dim": 2', b"\xff\xfe"],
                             ids=["empty", "truncated", "not-utf8"])
    def test_not_json_names_the_file(self, tmp_path, capsys, data):
        path = tmp_path / "state.json"
        path.write_bytes(data)
        line = assert_usage_error(capsys, "stats", "--state", str(path), "--n", "3")
        assert line.startswith(f"error: --state file {path} is not JSON: ")

    @pytest.mark.parametrize("dim", ["0", "-1"])
    def test_empty_uniform_exit_2(self, capsys, dim):
        assert_usage_error(capsys, "stats", "--state", f"uniform:{dim}", "--n", "3")


class TestVerify:
    def test_pass_d2(self, capsys):
        code, doc = run_json(capsys, "verify", "--dim", "2", "--n-max", "6")
        assert code == 0
        assert doc["result"]["status"] == "PASS"
        assert doc["result"]["max_deviation"] < 1e-13

    def test_pass_d3(self, capsys):
        code, doc = run_json(capsys, "verify", "--dim", "3", "--n-max", "4")
        assert code == 0
        assert doc["result"]["status"] == "PASS"

    @pytest.mark.parametrize("check,status", [
        ({"max_deviation": 1e-13}, "PASS"),
        ({"max_deviation": 2e-13}, "FAIL"),
        ({"construction_route_deviation": 1e-14}, "PASS"),
        ({"construction_route_deviation": 2e-14}, "FAIL"),
    ], ids=["algebra_at_tol", "algebra_above", "routes_at_tol", "routes_above"])
    def test_deviation_at_its_tolerance_passes(self, capsys, monkeypatch, check, status):
        """A deviation equal to its tolerance passes; one above it fails,
        with exit 1."""
        monkeypatch.setattr(dense, "verify_operator_algebra",
                            lambda d, n: {"max_deviation": 0.0, "multiplicity_ok": True, **check})
        code, doc = run_json(capsys, "verify", "--dim", "2", "--n-max", "1")
        assert doc["result"]["status"] == status
        assert code == (0 if status == "PASS" else 1)

    @pytest.mark.parametrize(
        "dim,n_max", [(2, 0), (2, -1), (1, 3), (0, 3), (-2, 3)]
    )
    def test_checks_nothing_exit_2(self, capsys, dim, n_max):
        assert_usage_error(
            capsys, "verify", "--dim", str(dim), "--n-max", str(n_max)
        )

    def test_builds_each_literal_diagonal_once(self, capsys, monkeypatch):
        calls = []
        build = dense.build_frequency_operator

        def counting(spec):
            calls.append((spec.n, spec.j))
            return build(spec)

        monkeypatch.setattr(dense, "build_frequency_operator", counting)
        assert main(["verify", "--dim", "3", "--n-max", "4"]) == 0
        capsys.readouterr()
        # One call per (N, j): N = 1..4, j = 0..2.
        assert sorted(calls) == [(n, j) for n in range(1, 5) for j in range(3)]

    def test_scale_guard_exit_2(self, capsys):
        code = main(["verify", "--dim", "2", "--n-max", "25"])
        captured = capsys.readouterr()
        assert code == 2
        assert "guard" in captured.err

    @pytest.mark.parametrize("dim", [4097, 2**20])
    def test_work_guard_exit_2(self, capsys, dim):
        # d**1 fits the vector guard, but d count vectors of d entries
        # exceed the work guard of 2**24; d = 4096 is exactly at it.
        err = assert_usage_error(capsys, "verify", "--dim", str(dim), "--n-max", "1")
        assert "work guard of 16777216" in err


@pytest.mark.parametrize("argv", [
    # 10**5000 has more digits than Python prints as an integer.
    ("verify", "--dim", "10", "--n-max", "5000"),
    # 1**21 = 1 fits any size guard; the N-site loops would still run.
    ("stats", "--state", "uniform:1", "--n", "21", "--cross-check"),
], ids=["d10-n5000", "uniform1-n21"])
def test_vector_guard_decides_by_n(capsys, argv):
    assert "guard" in assert_usage_error(capsys, *argv)


def test_single_system_dimension_guard(capsys):
    state = ("--state", "uniform:1048577")
    assert "guard" in assert_usage_error(capsys, "stats", *state, "--n", "3")
    code, doc = run_json(capsys, "stats", "--state", "uniform:1048576", "--n", "3")
    assert code == 0
    assert doc["result"]["expectation"] == pytest.approx(2.0**-20)


@pytest.mark.parametrize("argv, error", [
    (("verify", "--dim", "2", "--n-max", "0"),
     "error: verify needs --dim >= 2 and --n-max >= 1, got 2 and 0"),
    (("noncollapse", "--state", "two-level:0.3", "--n-list", "0,10"),
     "error: n_list must be nonempty with every entry >= 1"),
], ids=["verify-n-max-0", "noncollapse-n-0"])
def test_guard_at_its_boundary_names_the_bad_field(capsys, argv, error):
    """The smallest value a guard refuses is refused by that guard, whose
    message names the field, and not by a later layer."""
    assert assert_usage_error(capsys, *argv) == error


class TestStats:
    def test_known_values(self, capsys):
        code, doc = run_json(
            capsys, "stats", "--state", "two-level:0.5", "--j", "0", "--n", "10"
        )
        assert code == 0
        r = doc["result"]
        assert r["expectation"] == pytest.approx(0.5)
        assert r["uncertainty"] == pytest.approx(0.15811388300841897)
        assert r["distance_sq"] == pytest.approx(0.025)
        assert r["gram"] == pytest.approx(0.275)

    def test_eigenstate(self, capsys):
        code, doc = run_json(
            capsys, "stats", "--state", "two-level:1.0", "--j", "0", "--n", "5"
        )
        assert doc["result"]["uncertainty"] == 0.0
        assert doc["result"]["distance_sq"] == 0.0

    def test_cross_check(self, capsys):
        code, doc = run_json(
            capsys, "stats", "--state", "uniform:2", "--j", "1", "--n", "7",
            "--cross-check",
        )
        assert code == 0
        assert doc["result"]["cross_check"] == "PASS"
        assert doc["result"]["cross_check_deviation"] < 1e-11

    @pytest.mark.parametrize("deviation,status", [(1e-11, "PASS"), (2e-11, "FAIL")],
                             ids=["at_tol", "above"])
    def test_cross_check_deviation_at_its_tolerance_passes(
            self, capsys, monkeypatch, deviation, status):
        """The eigenstate's uncertainty is exactly 0, so a dense uncertainty
        of ``deviation`` deviates by exactly that."""
        monkeypatch.setattr(dense, "statistics_dense", lambda spec: {"uncertainty": deviation})
        code, doc = run_json(capsys, "stats", "--state", "two-level:1.0", "--n", "5",
                             "--cross-check")
        assert doc["result"]["cross_check_deviation"] == deviation
        assert doc["result"]["cross_check"] == status
        assert code == (0 if status == "PASS" else 1)

    def test_cross_check_builds_each_vector_once(self, capsys, monkeypatch):
        # N = 17: the weights and counts of the 2**12 prefixes of 12 digits
        # and the counts of the 32 suffixes of 5, then four blocks of 2**15
        # strings, each folding its weights on over the last 5 digits and
        # adding its counts, once each, from its 2**10 prefixes' folds.
        # N = 7, one block: the same walk from the 2**6 prefixes of 6 digits,
        # not one fold of the whole space. No vector of 2**N entries is
        # built, and no product-state amplitude.
        calls, folds = [], []

        def counting(name):
            build = getattr(dense, name)

            def wrapper(*args):
                calls.append(name)
                return build(*args)
            return wrapper

        def folding(factor, n, ufunc=None, start=None):
            folds.append((factor.dtype.kind, n, start is not None))
            return kron_fold(factor, n, ufunc, start)

        for name in ("frequency_counts", "product_state_vector"):
            monkeypatch.setattr(dense, name, counting(name))
        monkeypatch.setattr(dense, "kron_fold", folding)
        for n, expected in (
                (17, [("f", 12, False), ("i", 12, False), ("i", 5, False)]
                 + [("f", 5, True), ("i", 1, True)] * 4),
                (7, [("f", 6, False), ("i", 6, False), ("i", 1, False),
                     ("f", 1, True), ("i", 1, True)])):
            folds.clear()
            code, doc = run_json(
                capsys, "stats", "--state", "two-level:0.36", "--j", "1", "--n", str(n),
                "--cross-check",
            )
            assert code == 0 and doc["result"]["cross_check"] == "PASS"
            assert calls == []
            assert sorted(folds) == sorted(expected), n

    def test_cross_check_refused_before_closed_forms(self, capsys, monkeypatch):
        # 3**13 is above the vector guard though N = 13 <= 20 passes the
        # argument guard: the state's dimension decides, before any work.
        calls = []

        class Recording:
            def __getattr__(self, name):
                calls.append(name)
                return getattr(analytic, name)

        main(["stats", "--state", "uniform:3", "--n", "2"])
        capsys.readouterr()
        monkeypatch.setattr(cli, "analytic", Recording())
        err = assert_usage_error(
            capsys, "stats", "--state", "uniform:3", "--n", "13", "--cross-check"
        )
        assert err.startswith("error: product space 3**13 exceeds the dense vector guard")
        assert calls == []

    @pytest.mark.parametrize("cross_check", [(), ("--cross-check",)],
                             ids=["closed-forms", "cross-check"])
    def test_overflowing_n_exit_2(self, capsys, cross_check):
        # N = 10^400 overflows a float in the closed forms.
        assert_usage_error(
            capsys, "stats", "--state", "two-level:0.36", "--n", str(10**400),
            *cross_check,
        )

    def test_n_is_refused_exactly_where_its_square_overflows_a_float(self, capsys):
        # Python rounds an int at or above 2**1024 - 2**970 to infinity.
        top = math.isqrt(2**1024 - 2**970 - 1)
        code, doc = run_json(capsys, "stats", "--state", "two-level:0.3", "--n", str(top))
        assert code == 0 and doc["result"]["gram"] == pytest.approx(0.09)
        for n in (top + 1, 2**512):
            err = assert_usage_error(capsys, "stats", "--state", "two-level:0.3", "--n", str(n))
            assert err.startswith("error: --n too large: N**2 overflows a float")

    def test_metadata_block(self, capsys):
        _, doc = run_json(
            capsys, "stats", "--state", "uniform:2", "--n", "3"
        )
        assert doc["meta"]["tool"] == "freqop"
        assert doc["meta"]["config"]["n"] == 3


class TestConverge:
    def test_csv_schema(self, capsys):
        code, out = run(
            capsys, "converge", "--state", "two-level:0.5", "--j", "0",
            "--n-list", "10,100,1000", "--format", "csv",
        )
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "n,distance_sq,uncertainty,max_weight,sampled_mean,sampled_variance"
        first = lines[1].split(",")
        assert first[0] == "10"
        assert float(first[1]) == pytest.approx(0.025)

    def test_json_slope(self, capsys):
        code, doc = run_json(
            capsys, "converge", "--state", "two-level:0.5",
            "--n-list", "10,100,1000",
        )
        assert doc["result"]["slope"] == pytest.approx(-1.0, abs=1e-9)

    def test_one_row_csv(self, capsys):
        """A sweep of one N is one template row, and its slope is undefined."""
        argv = ("converge", "--state", "two-level:0.5", "--n-list", "10")
        _, doc = run_json(capsys, *argv)
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert '\n# slope="undefined"\n' in out
        row = ",".join(map(per_cell, doc["result"]["rows"][0].values()))
        assert out.endswith(f"sampled_variance\n{row}\n")

    def test_degenerate_slope_marker(self, capsys):
        _, doc = run_json(
            capsys, "converge", "--state", "two-level:1.0", "--n-list", "10,100"
        )
        assert doc["result"]["slope"] == "undefined"

    def test_sampled_columns(self, capsys):
        code, out = run(
            capsys, "converge", "--state", "two-level:0.5",
            "--n-list", "50,100", "--format", "csv",
            "--sample", "--trials", "500", "--seed", "3",
        )
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[1].split(",")[4] != ""

    def test_config_echoes_trials_and_seed_only_when_sampled(self, capsys):
        """An unsampled sweep reads neither default, so its meta names none;
        ``--sample`` echoes the defaults it drew with."""
        argv = ("converge", "--state", "two-level:0.5", "--n-list", "10,100")
        _, doc = run_json(capsys, *argv)
        assert not {"trials", "seed"} & doc["meta"]["config"].keys()
        _, doc = run_json(capsys, *argv, "--sample")
        config = doc["meta"]["config"]
        assert (config["trials"], config["seed"], doc["meta"]["seed"]) == (1000, 0, 0)

    def test_csv_names_the_rng_only_when_sampled(self, capsys):
        """The seed, RNG and stream rule follow the config in the CSV meta
        lines of a sampled sweep, and are absent from an unsampled one,
        even one given a seed."""
        argv = ("converge", "--state", "two-level:0.5", "--n-list", "10,100",
                "--seed", "7", "--format", "csv")
        _, out = run(capsys, *argv)
        assert [line.split("=")[0] for line in out.splitlines()[:4]] == [
            "# tool", "# version", "# config", "# slope"]
        _, out = run(capsys, *argv, "--sample", "--trials", "20")
        assert [line.split("=")[0] for line in out.splitlines()[:7]] == [
            "# tool", "# version", "# config", "# seed", "# rng", "# stream_rule", "# slope"]
        assert "\n# seed=7\n# rng=\"philox4x64\"\n" in out

    @pytest.mark.parametrize("n_list", ["10,,20", ",10", "10,", "10, ,20", "", "10,abc"])
    @pytest.mark.parametrize("command", ["converge", "noncollapse"])
    def test_blank_or_non_integer_entry_refused_before_any_layer(
            self, capsys, monkeypatch, command, n_list):
        """A blank entry is not dropped: it is refused like any other entry
        that is not an integer, before a layer or the state is loaded."""
        def no_layers(*names):
            raise AssertionError(f"loaded {names}")

        monkeypatch.setattr(cli, "_load_layers", no_layers)
        error = assert_usage_error(capsys, command, "--state", "two-level:0.5",
                                   "--n-list", n_list)
        assert error == f"error: --n-list entries must be integers, got {n_list!r}"


class TestSampleAndSpectrum:
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_sample_nonpositive_n_exit_2(self, capsys, n):
        assert_usage_error(
            capsys, "sample", "--state", "uniform:2", "--n", n,
            "--trials", "3", "--seed", "1",
        )

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [
        ("sample", "--n", "10", "--trials", "3"),
        ("converge", "--n-list", "10,100", "--sample", "--trials", "3"),
    ], ids=["sample", "converge"])
    def test_seed_outside_64_bits_exit_2(self, capsys, command, seed):
        assert_usage_error(
            capsys, *command, "--state", "uniform:2", "--seed", seed
        )

    @pytest.mark.parametrize("command", [
        ("sample", "--n", "1000000", "--trials", "1000000"),
        ("converge", "--n-list", "10,1000000", "--sample", "--trials", "1000"),
        # Within the draw budget, above the trial-run cap.
        ("sample", "--n", "1", "--trials", "1000000000"),
        ("converge", "--n-list", ",".join(map(str, range(1, 1002))), "--sample",
         "--trials", "1000"),
        ("sample", "--j", "2", "--n", "10", "--trials", "3"),
    ], ids=["sample", "converge", "sample-runs", "converge-runs", "sample-j"])
    def test_draw_budget_exit_2(self, capsys, monkeypatch, command):
        def no_draws(*args, **kwargs):
            raise AssertionError("a draw started")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        assert_usage_error(
            capsys, *command, "--state", "two-level:0.5", "--seed", "1"
        )

    @pytest.mark.parametrize("argv,message", [
        (("spectrum", "--state", "nosuch.json", "--n", "2000000"),
         "spectral weights limited to N <= 1000000, got 2000000"),
        (("sample", "--state", "two-level:0.5", "--j", "5", "--n", "10", "--trials", "1",
          "--seed", "0"), "need at least two trials, got 1"),
        (("converge", "--state", "two-level:2", "--n-list", "10,5"),
         "n_list must be strictly increasing"),
        (("noncollapse", "--state", "uniform:0", "--n-list", "2000000"),
         "spectral weights limited to N <= 1000000, got 2000000"),
        (("stats", "--state", "nosuch.json", "--n", "21", "--cross-check"),
         "N = 21 exceeds the dense vector guard's N <= 20 for any dimension; "
         "use the analytic engine"),
        (("stats", "--state", "nosuch.json", "--n", str(2**512)),
         "--n too large: N**2 overflows a float for an N of 513 bits"),
    ], ids=["spectrum-file", "sample-j", "converge-p", "noncollapse-dim", "stats-file",
            "stats-float"])
    def test_argv_guard_reported_before_state_fault(self, capsys, tmp_path,
                                                    monkeypatch, argv, message):
        """A request with a fault in its state (or --j) and one that a guard
        finds from the arguments alone reports the guard's."""
        monkeypatch.chdir(tmp_path)
        assert assert_usage_error(capsys, *argv) == f"error: {message}"

    @pytest.mark.parametrize("command", [
        ("stats", "--n", "3"),
        ("spectrum", "--n", "3"),
        ("converge", "--n-list", "3"),
        ("sample", "--n", "3", "--trials", "2", "--seed", "0"),
    ], ids=["stats", "spectrum", "converge", "sample"])
    def test_out_of_range_j_has_one_wording(self, capsys, command):
        error = assert_usage_error(capsys, *command, "--state", "two-level:0.5", "--j", "2")
        assert error == "error: target index 2 out of range [0, 2)"

    def test_sample_degenerate(self, capsys):
        code, doc = run_json(
            capsys, "sample", "--state", "two-level:1.0",
            "--n", "5", "--trials", "3", "--seed", "7",
        )
        assert code == 0
        assert doc["result"]["frequencies"] == [1.0, 1.0, 1.0]
        assert doc["meta"]["rng"] == "philox4x64"

    def test_spectrum_uniform_pair(self, capsys):
        code, doc = run_json(
            capsys, "spectrum", "--state", "uniform:2", "--j", "0", "--n", "2"
        )
        assert doc["result"]["weights"] == pytest.approx([0.25, 0.5, 0.25])

    def test_spectrum_json_types(self, capsys):
        _, doc = run_json(
            capsys, "spectrum", "--state", "two-level:0.36", "--n", "50"
        )
        result = doc["result"]
        weights = result["weights"]
        assert type(result["argmax"]) is int
        assert weights[result["argmax"]] == max(weights)
        assert type(result["max_weight"]) is float
        assert result["max_weight"] == max(weights)

    def test_spectrum_argmax_counts_from_k_0(self, capsys):
        """At N = 10**4 the window starts well above k = 0, so the argmax
        is its first count plus the peak's place in it: the mode,
        floor((N + 1)p)."""
        _, doc = run_json(capsys, "spectrum", "--state", "two-level:0.36", "--n", "10000")
        result = doc["result"]
        weights = result["weights"]
        assert weights[0] == 0.0
        assert result["argmax"] == weights.index(result["max_weight"]) == 3600

    def test_noncollapse_rows(self, capsys):
        code, doc = run_json(
            capsys, "noncollapse", "--state", "two-level:0.5",
            "--n-list", "100,10000",
        )
        rows = doc["result"]["rows"]
        assert rows[0]["distance_sq"] == pytest.approx(0.0025)
        assert rows[1]["max_weight"] == pytest.approx(0.00798, abs=5e-5)
        assert "never becomes" in doc["result"]["verdict"]

    @pytest.mark.parametrize("p, n_list", [
        # p = 2**-1023, a subnormal double: no term may overflow.
        ("1.1125369292536007e-308", "10"),
        # (1 - p)**N is 1 to within an ulp: the peak may not exceed 1.
        ("1e-300", "3"),
    ])
    def test_noncollapse_tiny_p(self, capsys, p, n_list):
        code, doc = run_json(
            capsys, "noncollapse", "--state", f"two-level:{p}", "--n-list", n_list,
        )
        assert code == 0
        row = doc["result"]["rows"][0]
        assert row["max_weight"] <= 1.0
        assert row["off_peak_mass"] >= 0.0


class TestReproducibility:
    def test_byte_identical_outputs(self, tmp_path, capsys):
        args = [
            "converge", "--state", "two-level:0.36", "--j", "0",
            "--n-list", "10,100", "--format", "csv",
            "--sample", "--trials", "200", "--seed", "42",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        # Without --sample the sampled columns are empty cells.
        ("converge", "--state", "two-level:0.36", "--n-list", "10,100,1000"),
        ("spectrum", "--state", "two-level:0.36", "--n", "5000"),
    ], ids=["converge", "spectrum"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, argv):
        argv = [*argv, "--format", "csv"]
        code, out = run(capsys, *argv)
        assert code == 0
        path = tmp_path / "out.csv"
        assert main([*argv, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()

    def test_invalid_state_exit_2(self, capsys):
        assert main(["stats", "--state", "two-level:1.5", "--n", "5"]) == 2

    def test_bad_j_exit_2(self, capsys):
        assert main(["stats", "--state", "uniform:2", "--j", "5", "--n", "3"]) == 2


def per_cell(x) -> str:
    """The per-cell CSV rule the row templates reproduce."""
    if x is None:
        return ""
    if isinstance(x, int):
        return str(x)
    return f"{x:.17g}"


def zero_template(c, d) -> str:
    """The rows ``k,0`` for k in [c, d), one ``%d`` per row."""
    return ("%d,0\n" * (d - c)) % tuple(range(c, d))


class TestCsvRows:
    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072009e-308)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(1e17)
    @example(2.0**60)
    @example(-1.2345678901234567e300)
    def test_float_template_is_per_cell_rule(self, x):
        assert "%.17g" % x == per_cell(x)

    @given(st.integers())
    def test_int_template_is_per_cell_rule(self, k):
        assert "%d" % k == per_cell(k)

    @pytest.mark.parametrize("argv,column", [
        (("spectrum", "--state", "two-level:0.36", "--n", "100000"), "weights"),
        (("sample", "--state", "two-level:0.36", "--n", "10", "--trials", "20000",
          "--seed", "11"), "frequencies"),
        # Whole slices of zero frequencies, each through the row template.
        (("sample", "--state", "two-level:1e-6", "--n", "10", "--trials", "10000",
          "--seed", "124"), "frequencies"),
    ], ids=["spectrum", "sample", "sample_zeros"])
    def test_rows_follow_per_cell_rule(self, capsys, argv, column):
        _, doc = run_json(capsys, *argv)
        code, out = run(capsys, *argv, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        values = doc["result"][column]
        assert len(lines) - header - 1 == len(values)
        expected = [",".join(map(per_cell, row)) for row in enumerate(values)]
        assert lines[header + 1:] == expected

    @pytest.mark.parametrize("size,start,values", [
        (5 * CSV_CHUNK_ROWS + 7, CSV_CHUNK_ROWS + 5,
         [0.25] * 10 + [0.0] * (2 * CSV_CHUNK_ROWS) + [0.5] * 20),
        (3 * CSV_CHUNK_ROWS, 0, np.array([0.5] * 3 + [0.0] * CSV_CHUNK_ROWS + [0.125])),
        (2 * CSV_CHUNK_ROWS + 8, 7, [0.0] * CSV_CHUNK_ROWS + [1.0] * (CSV_CHUNK_ROWS + 1)),
        (4 * CSV_CHUNK_ROWS, CSV_CHUNK_ROWS, np.full(2 * CSV_CHUNK_ROWS, 0.5)),
    ], ids=["inside", "from_0", "to_size", "on_grid"])
    def test_slices_cut_on_the_grid_and_span_edges(self, size, start, values):
        """The slices tile the column, cut exactly at the multiples of
        ``CSV_CHUNK_ROWS`` and at ``start`` and ``stop``; the grid is a
        multiple of ``_zero_rows``' 100-row block; cells are None exactly outside the
        values, and a whole slice of zeros among the values comes back as
        its cells."""
        assert CSV_CHUNK_ROWS % 100 == 0
        stop = start + len(values)
        slices = list(cli._slices((size, start, values)))
        edges = [c for c, _, _ in slices] + [size]
        assert edges == sorted({*range(0, size, CSV_CHUNK_ROWS), start, stop, size})
        assert [d for _, d, _ in slices] == edges[1:]
        assert all(0 < d - c <= CSV_CHUNK_ROWS for c, d, _ in slices)
        for c, d, cells in slices:
            assert (cells is None) == (d <= start or c >= stop)
        cells = [x for _, _, part in slices if part is not None for x in part]
        assert all(type(x) is float for x in cells)
        assert cells == list(values)

    def test_zero_rows_match_the_template_on_every_slice(self):
        """Every slice of the N = 10^6 table, as if each held only zeros."""
        n = 10**6 + 1
        for c in range(0, n, CSV_CHUNK_ROWS):
            d = min(c + CSV_CHUNK_ROWS, n)
            assert cli._zero_rows(c, d) == zero_template(c, d)

    @given(st.integers(0, 2**53), st.integers(0, CSV_CHUNK_ROWS))
    @example(0, CSV_CHUNK_ROWS)
    @example(0, 1)
    @example(0, 100)
    @example(0, 201)
    @example(7, 300)
    @example(99, 1)
    @example(99, 2)
    @example(100, 100)
    @example(999, 1)
    @example(999, 2)
    @example(950, 200)  # prefix 9 -> 10
    @example(9_950, 200)  # 99 -> 100
    @example(99_950, 200)  # 999 -> 1000
    @example(10**15 - 150, CSV_CHUNK_ROWS)
    @example(2**53 - CSV_CHUNK_ROWS, CSV_CHUNK_ROWS)
    # Whole grid cells and their near misses (the first cell, (0, 1000), is
    # above): the first cell of blocks, a cell's length off the grid (one
    # row past a grid line, and halfway), one row short of a cell, and
    # blocks at a 13-digit q.
    @example(CSV_CHUNK_ROWS, CSV_CHUNK_ROWS)
    @example(CSV_CHUNK_ROWS + 1, CSV_CHUNK_ROWS)
    @example(1500, CSV_CHUNK_ROWS)
    @example(2 * CSV_CHUNK_ROWS, CSV_CHUNK_ROWS - 1)
    @example(10**15, CSV_CHUNK_ROWS)
    def test_zero_rows_match_the_template(self, c, rows):
        assert cli._zero_rows(c, c + rows) == zero_template(c, c + rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writes_at_most_a_chunk_of_rows(self, monkeypatch, fmt):
        class Recording(io.StringIO):
            def __init__(self):
                super().__init__()
                self.writes = []

            def write(self, s):
                self.writes.append(s)
                return super().write(s)

        stdout = Recording()
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = ["spectrum", "--state", "two-level:0.36", "--n", "100000",
                "--format", fmt]
        assert main(argv) == 0
        out = stdout.getvalue()
        if fmt == "csv":  # three meta lines, the header, and N + 1 rows
            assert out.count("\n") == 4 + 100001
        else:  # one line per weight
            assert len(json.loads(out)["result"]["weights"]) == 100001
        assert max(s.count("\n") for s in stdout.writes) <= CSV_CHUNK_ROWS

    def test_sweep_longer_than_a_chunk(self, capsys):
        """A sweep's CSV is its meta block, header and one template row per
        N, also when it has more rows than a column writes at once."""
        ns = range(1, 5001)
        assert len(ns) > CSV_CHUNK_ROWS
        argv = ["noncollapse", "--state", "two-level:0.36", "--n-list", ",".join(map(str, ns)),
                "--format", "csv"]
        code, out = run(capsys, *argv)
        assert code == 0
        head, header, body = out.partition("\nn,distance_sq,max_weight,off_peak_mass\n")
        assert header and all(line.startswith("# ") for line in head.splitlines())
        assert "\n# verdict=" in head
        rows = analysis.convergence_sweep(parse_state("two-level:0.36"), 0, ns)
        assert body == "".join("%d,%.17g,%.17g,%.17g\n"
                               % (r["n"], r["distance_sq"], r["max_weight"], r["off_peak_mass"])
                               for r in rows)


def test_spectrum_csv_render_builds_no_list_of_every_weight(tmp_path, monkeypatch):
    """A Python list of the N + 1 weights takes four times the bytes of an
    array of them (an 8-byte pointer plus a 24-byte float each), so a render
    that peaks below that builds no such list. Only the render is traced:
    the window is computed once, in the untraced first run, and handed to
    the second."""
    n = 100000
    argv = ["spectrum", "--state", "two-level:0.36", "--n", str(n),
            "--format", "csv", "--out", str(tmp_path / "spectrum.csv")]
    spectral_window, windows = analytic.spectral_window, []

    def first_window(spec):
        if not windows:
            windows.append(spectral_window(spec))
        return windows[0]

    monkeypatch.setattr(analytic, "spectral_window", first_window)
    assert main(argv) == 0  # lazy imports and caches settle first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * (n + 1)


@pytest.mark.parametrize("render,size", [(cli._column_rows, 2 * 10**4),
                                         (cli._column_json, 10**4)], ids=["csv", "json"])
def test_sampled_column_render_holds_one_small_slice(render, size):
    """A sampled column of k/1000 rendered piece by piece, each piece
    dropped once read, as ``_emit`` writes it: the render holds one slice
    of Python objects at a time, and a slice of at most ``CSV_CHUNK_ROWS``
    rows stays well below 256 KiB (a 4096-row slice peaks at 430-470 KiB)."""
    column = (size, 0, np.arange(size) / 1000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert sum(map(len, render(column))) > size
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_no_command_imports_scipy():
    """Every closed form, the binomial terms included, is computed with
    numpy or in pure Python, so no command imports scipy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [
        ["--version"],
        ["verify", "--dim", "2", "--n-max", "3"],
        ["stats", "--state", "two-level:0.36", "--n", "4", "--cross-check"],
        ["sample", "--state", "two-level:0.36", "--n", "10", "--trials", "3",
         "--seed", "1"],
        ["noncollapse", "--state", "two-level:0.36", "--n-list", "10,100"],
        ["converge", "--state", "two-level:0.36", "--n-list", "10,100",
         "--sample", "--trials", "3", "--seed", "1"],
        ["spectrum", "--state", "two-level:0.36", "--n", "20", "--format", "csv"],
    ]
    code = f"""
import sys
from freqop import cli
assert 'scipy' not in sys.modules
for argv in {runs!r}:
    try:
        assert cli.main(argv) == 0
    except SystemExit as exc:
        assert exc.code == 0
    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]
    assert not loaded, (argv, loaded[:3])
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, layer, expected", [
    (["stats", "--state", "two-level:0.36", "--n", "10"], "analytic",
     ["expectation", "uncertainty", "distance_sq", "gram"]),
    # One run per N, then the meta block's RNG constants.
    (["converge", "--state", "two-level:0.36", "--n-list", "10,100", "--sample",
      "--trials", "3", "--seed", "1"], "sampler",
     ["run_trials", "run_trials", "RNG_ALGORITHM", "STREAM_RULE"]),
], ids=["stats", "converge-sample"])
def test_later_runs_keep_replaced_layer_bindings(monkeypatch, capsys, argv, layer, expected):
    """The layers are bound on the first run only, so a binding replaced
    after it (as the benchmark's tracer replaces them) is the one used."""
    assert main(argv) == 0
    module = getattr(cli, layer)
    calls = []

    class Recording:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(module, name)

    monkeypatch.setattr(cli, layer, Recording())
    assert main(argv) == 0
    assert calls == expected


# Requests that end before numpy is imported: --version, --help, an argparse
# error, the benchmark's three refusals and every other guard a command runs
# on its arguments alone, before its state, with the exit code and the start
# of the one stderr line holding "error:" (None: no such line).
ARGV_ONLY_RUNS = {
    "version": (["--version"], 0, None),
    "help": (["--help"], 0, None),
    "argparse-error": (["verify", "--dim", "two", "--n-max", "3"], 2,
                       "freqop verify: error: argument --dim"),
    "refused-verify": (["verify", "--dim", "3", "--n-max", "13"], 2,
                       "error: product space 3**13 exceeds the dense vector guard"),
    "refused-spectrum": (["spectrum", "--state", "two-level:0.36", "--n", "2000000"], 2,
                         "error: spectral weights limited to N <= 1000000"),
    "refused-sample": (["sample", "--state", "two-level:0.36", "--n", "10", "--trials", "1",
                        "--seed", "0"], 2, "error: need at least two trials, got 1"),
    "refused-stats": (["stats", "--state", "two-level:0.3", "--n", "21", "--cross-check"], 2,
                      "error: N = 21 exceeds the dense vector guard"),
    "refused-verify-dim": (["verify", "--dim", "1", "--n-max", "3"], 2,
                           "error: verify needs --dim >= 2 and --n-max >= 1, got 1 and 3"),
    "refused-noncollapse": (["noncollapse", "--state", "two-level:0.3",
                             "--n-list", "10,2000000"], 2,
                            "error: spectral weights limited to N <= 1000000, got 2000000"),
    "refused-converge-order": (["converge", "--state", "two-level:0.3", "--n-list", "100,10"],
                               2, "error: n_list must be strictly increasing"),
    "refused-converge-seed": (["converge", "--state", "two-level:0.3", "--n-list", "10,100",
                               "--sample", "--seed", "-1"], 2,
                              "error: seed must lie in [0, 2**64), got -1"),
    "refused-converge-draws": (["converge", "--state", "two-level:0.3", "--n-list", "10,1000000",
                                "--sample", "--trials", "1000"], 2,
                               "error: sampling limited to N x trials <= 1000000000 draws"),
    "refused-sample-n": (["sample", "--state", "two-level:0.3", "--n", "0", "--trials", "10",
                          "--seed", "0"], 2, "error: need at least one draw, got n=0"),
    "refused-stats-float": (["stats", "--state", "two-level:0.3", "--n", str(2**512)], 2,
                            "error: --n too large: N**2 overflows a float"),
    # The argv guard comes before the state, which here does not exist.
    "refused-spectrum-no-state": (["spectrum", "--state", "no-such-state.json",
                                   "--n", "2000000"], 2,
                                  "error: spectral weights limited to N <= 1000000"),
}


# The start of a harness script that runs ``freqop.cli`` as ``__main__`` and
# then reports on the child: ``cli.run`` ends the process with ``os._exit``
# after its flush, which would end the child before the report, so here
# ``os._exit`` appends its code to ``exits`` and raises ``SystemExit``.
RAISING_EXIT = (
    "import os, runpy, sys\n"
    "exits = []\n"
    "def _exit(rc):\n"
    "    exits.append(rc)\n"
    "    raise SystemExit(rc)\n"
    "os._exit = _exit\n"
)


@pytest.mark.parametrize("name", list(ARGV_ONLY_RUNS))
def test_argv_only_runs_import_no_numpy(name):
    """``python -m freqop.cli`` in a child that then prints, as its last two
    stdout lines, the codes it passed to ``os._exit`` and whether numpy was
    imported. argparse's exits end through ``cli.run``'s ``os._exit`` too."""
    argv, code, error = ARGV_ONLY_RUNS[name]
    script = (
        RAISING_EXIT +
        "try:\n"
        "    runpy.run_module('freqop.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "print(exits)\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(rc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    *out, exits, numpy_loaded = proc.stdout.splitlines()
    assert exits == f"[{code}]"
    assert numpy_loaded == "False"
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    if error is None:
        assert errors == [] and out
    else:
        assert out == [] and len(errors) == 1 and errors[0].startswith(error)


# Golden cases (see test_golden.py) of the commands that answer from Python
# floats: stats, noncollapse, converge without --sample and spectrum, in
# each format they have, with a two-level state, uniform:3 and a JSON state
# file.
NUMPY_FREE_CASES = (
    "stats_two_level", "stats_uniform3", "stats_d3",
    "noncollapse_p05", "noncollapse_p05_csv", "noncollapse_uniform3_csv", "noncollapse_d3",
    "converge", "converge_csv", "converge_degenerate_csv", "converge_uniform3",
    "converge_d3_csv",
    "spectrum", "spectrum_csv", "spectrum_p0", "spectrum_p1_csv", "spectrum_tail_csv",
)

# The layers a numpy-free command loads, as run_child reports them
# (``analysis`` imports ``analytic``).
NUMPY_FREE_LAYERS = {
    "stats": ["freqop.analytic"],
    "noncollapse": ["freqop.analysis", "freqop.analytic"],
    "converge": ["freqop.analysis", "freqop.analytic"],
    "spectrum": ["freqop.analytic"],
}

# Commands that build arrays, and so still import numpy, with the layers
# each loads: only those it calls.
ARRAY_RUNS = {
    "sample": (["sample", "--state", "uniform:3", "--n", "10", "--trials", "3", "--seed", "1"],
               ("freqop.sampler",)),
    "verify": (["verify", "--dim", "2", "--n-max", "3"], ("freqop.dense",)),
    "stats-cross-check": (["stats", "--state", "state_d3.json", "--n", "4", "--cross-check"],
                          ("freqop.analytic", "freqop.dense")),
    "converge-sample": (["converge", "--state", "two-level:0.36", "--n-list", "10,100",
                         "--sample", "--trials", "3", "--seed", "1"],
                        ("freqop.analysis", "freqop.analytic", "freqop.sampler")),
}

# The modules a child reports as loaded (see run_child).
REPORTED = ("dataclasses", "freqop.analysis", "freqop.analytic", "freqop.dense",
            "freqop.sampler", "numpy")

# The libraries a process has mapped, one path a line, as Linux lists them.
MAPS = Path("/proc/self/maps")

# The end of a harness script: the child's report (see run_child).
REPORT = (
    f"layers = [m for m in {REPORTED!r} if sys.modules.get(m) is not None]\n"
    "try:\n"
    f"    with open({str(MAPS)!r}) as f:\n"
    "        crypto = sorted({line.split()[-1] for line in f if 'libcrypto' in line})\n"
    "except FileNotFoundError:\n"
    "    crypto = None\n"
    "print(repr((layers, sys.modules.get('_hashlib', '') is None, crypto)))\n"
)


def run_child(argv, block=(), first="") -> subprocess.CompletedProcess:
    """``python -m freqop.cli`` in a child run from ``tests/golden`` that
    then prints, as its last stdout line, a report (:func:`child_report`).
    Importing a module named in ``block`` raises in the child; the script
    ``first`` runs before the CLI."""
    script = (
        RAISING_EXIT +
        f"for name in {tuple(block)!r}:\n"
        "    sys.modules[name] = None\n"
        + first +
        "try:\n"
        "    runpy.run_module('freqop.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        + REPORT +
        "sys.exit(rc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          cwd=SRC.parent / "tests" / "golden", capture_output=True)


def child_report(proc) -> tuple:
    """A run_child child's stdout before its report, and the report: the
    sorted list of the ``REPORTED`` modules it loaded, whether ``_hashlib``
    is blocked (None in ``sys.modules``), and the ``libcrypto`` paths it has
    mapped (None where there is no ``/proc/self/maps``)."""
    out, _, report = proc.stdout[:-1].rpartition(b"\n")
    return out + b"\n" if out else b"", ast.literal_eval(report.decode())


@pytest.mark.parametrize("name", NUMPY_FREE_CASES)
def test_closed_form_commands_run_without_numpy(name):
    """Neither numpy nor ``dataclasses`` (which imports ``inspect``) is
    needed: with both blocked, each case still prints its golden bytes."""
    proc = run_child(CASES[name], block=("numpy", "dataclasses"))
    assert proc.returncode == 0, proc.stderr.decode()
    out, (layers, _, _) = child_report(proc)
    assert out == golden_path(name).read_bytes()
    assert layers == NUMPY_FREE_LAYERS[CASES[name][0]]


def test_spectrum_at_its_largest_n_runs_without_numpy():
    """The largest spectrum, N = 10**6, whose window holds 36,040 of its
    counts, prints its pinned bytes with numpy and ``dataclasses`` blocked."""
    name = "spectrum_0.3712_n1e6_csv"
    proc = run_child(LARGE_CASES[name], block=("numpy", "dataclasses"))
    assert proc.returncode == 0, proc.stderr.decode()
    out, (layers, _, _) = child_report(proc)
    assert hashlib.sha256(out).hexdigest() == read_digests()[name]
    assert layers == NUMPY_FREE_LAYERS["spectrum"]


@pytest.mark.parametrize("name", list(ARRAY_RUNS))
def test_array_commands_import_numpy(name):
    """Each loads numpy and the layers it calls, and, entered through
    ``cli.run``, maps no OpenSSL: ``run`` blocks ``_hashlib``, which
    ``numpy.random`` would load through ``secrets`` and ``hmac``."""
    argv, layers = ARRAY_RUNS[name]
    proc = run_child(argv)
    assert proc.returncode == 0, proc.stderr.decode()
    _, (loaded, hashlib_blocked, crypto) = child_report(proc)
    assert loaded == sorted(("numpy", *layers))
    assert hashlib_blocked
    if crypto is not None:
        assert crypto == []


SAMPLE_ARGV = list(CASES["sample"])


def test_main_in_process_blocks_no_hashlib():
    """Only the process entry blocks ``_hashlib``: after ``cli.main`` in
    process, as the tests and the benchmark's traced pass call it, the
    module still imports."""
    code = ("from freqop import cli\n"
            f"assert cli.main({SAMPLE_ARGV!r}) == 0\n"
            "import _hashlib\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          cwd=SRC.parent / "tests" / "golden", capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_run_keeps_a_loaded_hashlib():
    """A process that loaded ``hashlib`` (and so ``_hashlib``) before
    ``cli.run`` keeps it, and still prints the golden bytes."""
    proc = run_child(SAMPLE_ARGV, first="import hashlib\n")
    assert proc.returncode == 0, proc.stderr.decode()
    out, (_, hashlib_blocked, _) = child_report(proc)
    assert out == golden_path("sample").read_bytes()
    assert not hashlib_blocked


# The exit path of ``freqop`` itself: a ``python -m freqop.cli`` child, with
# nothing patched, ends through ``cli.run``'s flush and ``os._exit``. Its
# stdout is block-buffered (no PYTHONUNBUFFERED) unless ``env`` sets it, so
# the output reaches the pipe at that flush.
def real_child_env(env=()) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | dict(env)
    env["PYTHONPATH"] = str(SRC)
    return env


def real_child(argv, env=(), **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "freqop.cli", *argv],
                          env=real_child_env(env),
                          cwd=SRC.parent / "tests" / "golden", **kwargs)


@pytest.mark.parametrize("extra_env", [
    pytest.param({}, id="buffered"),
    pytest.param({"PYTHONUNBUFFERED": "1"}, id="unbuffered"),
])
def test_closed_stdout_pipe_exits_141_without_an_error_line(extra_env):
    """A reader that stops after one line (``| head -1``) is not a usage
    error: the child exits 141, as a shell reports for a filter killed by
    SIGPIPE, and writes nothing to stderr, not even at its final flush.
    Unbuffered, the failed write in ``main`` returns 141; buffered, the
    output still held fails again at ``cli.run``'s flush."""
    argv = ["spectrum", "--state", "two-level:0.5", "--n", "1000000", "--format", "csv"]
    with subprocess.Popen([sys.executable, "-m", "freqop.cli", *argv],
                          env=real_child_env(extra_env),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b'# tool="freqop"\n'
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 141 and err == b"", err


# The golden cases of each command and format that no other test runs as a
# child.
REAL_EXIT_CASES = ("verify_d2_n6", "sample", "sample_csv", "spectrum", "spectrum_csv",
                   "converge_sample", "converge_sample_csv")


@pytest.mark.parametrize("name", REAL_EXIT_CASES)
def test_real_exit_prints_golden_bytes(name):
    proc = real_child(CASES[name], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == golden_path(name).read_bytes()
    assert proc.stderr == b""


def test_real_exit_closes_the_out_file(tmp_path, capsys):
    argv = ["verify", "--dim", "2", "--n-max", "3"]
    path = tmp_path / "verify.json"
    proc = real_child([*argv, "--out", str(path)], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    code, out = run(capsys, *argv)
    assert code == 0 and path.read_bytes() == out.encode()


def test_real_exit_flushes_a_refusal_to_stderr():
    proc = real_child(["verify", "--dim", "3", "--n-max", "13"], capture_output=True)
    assert proc.returncode == 2
    assert proc.stdout == b""
    errors = [line for line in proc.stderr.decode().splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("error: product space 3**13 exceeds the dense vector guard")


def test_uncaught_exception_still_prints_its_traceback():
    """An exception ``main`` does not catch leaves by the normal exit, not
    ``os._exit``: here importing ``freqop.dense`` raises."""
    script = (
        "import runpy, sys\n"
        "sys.modules['freqop.dense'] = None\n"
        "runpy.run_module('freqop.cli', run_name='__main__', alter_sys=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, "verify", "--dim", "2",
                           "--n-max", "3"], env=env, capture_output=True, text=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "Traceback" in proc.stderr and "import of freqop.dense halted" in proc.stderr


STATS_ARGV = ["stats", "--state", "two-level:0.3", "--n", "10"]


@pytest.mark.parametrize("argv, extra_env", [
    pytest.param(STATS_ARGV, {}, id="buffered"),
    pytest.param(STATS_ARGV, {"PYTHONUNBUFFERED": "1"}, id="unbuffered"),
    # argparse's own exits. Unbuffered, its text's failed write raises
    # from parse_args inside main, not at the flush.
    pytest.param(["--version"], {}, id="buffered-version"),
    pytest.param(["--help"], {}, id="buffered-help"),
    pytest.param(["stats", "--help"], {}, id="buffered-stats-help"),
    pytest.param(["--version"], {"PYTHONUNBUFFERED": "1"}, id="unbuffered-version"),
    pytest.param(["--help"], {"PYTHONUNBUFFERED": "1"}, id="unbuffered-help"),
    pytest.param(["stats", "--help"], {"PYTHONUNBUFFERED": "1"}, id="unbuffered-stats-help"),
])
def test_pipe_closed_before_the_write_exits_141(argv, extra_env):
    """No reader at all: a block-buffered stdout fails at ``cli.run``'s
    flush, an unbuffered one at the write in ``main``; either way the
    child exits 141 and writes nothing to stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = real_child(argv, env=extra_env,
                          stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 141 and proc.stderr == b"", proc.stderr


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["stats", "--help"]])
def test_argparse_text_into_a_closed_pipe_returns_141(argv, monkeypatch):
    """argparse drops its write's OSError; freqop's parser lets it reach
    ``main``, which returns 141 in process as through ``cli.run``."""
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == 141


@pytest.mark.parametrize("preset", [None, "4"])
def test_import_sets_one_blas_thread_unless_set(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = "import os, freqop.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{preset or 1}\n"


# -- the exit-code contract over the argv grammar -------------------------

# Each option's values: good ones, which pass argparse and its guards on
# their own, and edge ones: negative, zero and huge integers (past a
# float's square, past int()'s digit limit), non-decimal and empty ones,
# seeds just inside and outside 64 bits, and the preset values nan, inf and
# empty. No accepted request draws more than about 10^6 words.
INT_EDGES = ("-1", "0", str(10**30), str(10**400), "9" * 5000, "0x10", "1e3", "")
SIZES = ("1", "3", "1000"), INT_EDGES
TRIAL_COUNTS = ("2", "3", "1000"), INT_EDGES
SEEDS = ("0", "7", str(2**64 - 1)), (str(2**64), "-1", "0x10", "")
N_LISTS = ("1", "1,3,1000", "10,100"), ("3,1", "0", "-1", "", "1,,3", "1,", "1000001", "0x10")
PRESETS = ("two-level:0.3", "uniform:3", "uniform:1000"), (
    "two-level:nan", "two-level:inf", "two-level:-inf", "two-level:", "uniform:0",
    "uniform:-1", f"uniform:{10**30}", "uniform:0x10", "uniform:", "qutrit:3")
AMPLITUDE = {"re": 0.6, "im": 0.0}
STATE_FILES = {
    "good.json": json.dumps({"dim": 2, "amplitudes": [AMPLITUDE, {"re": 0.0, "im": 0.8}]}),
    "dim_zero.json": json.dumps({"dim": 0, "amplitudes": []}),
    "dim_bool.json": json.dumps({"dim": True, "amplitudes": [{"re": 1.0, "im": 0.0}]}),
    "dim_huge.json": json.dumps({"dim": 2**64, "amplitudes": []}),
    "shape_short.json": json.dumps({"dim": 3, "amplitudes": [AMPLITUDE]}),
    "shape_object.json": json.dumps({"dim": 1, "amplitudes": {"re": 1.0, "im": 0.0}}),
    "nan.json": '{"dim": 2, "amplitudes": [{"re": NaN, "im": 0}, {"re": 0, "im": 1}]}',
    "inf.json": '{"dim": 1, "amplitudes": [{"re": Infinity, "im": 0}]}',
    "bom.json": "\ufeff" + json.dumps({"dim": 1, "amplitudes": [{"re": 1.0, "im": 0.0}]}),
    "nested.json": "[" * 100_000 + "]" * 100_000,
}


@pytest.fixture(scope="module")
def grammar_dir(tmp_path_factory):
    """The state files, a directory, and room for --out files."""
    root = tmp_path_factory.mktemp("grammar")
    for name, text in STATE_FILES.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "a_dir").mkdir()
    return root


def option(flag, values):
    """(good, edge) argv pieces of an option with (good, edge) values;
    leaving the option out is an edge piece."""
    good, edge = values
    return tuple((flag, v) for v in good), (*((flag, v) for v in edge), ())


def grammar(root) -> dict:
    """Each command's options, in the parser's order, as (good, edge) argv
    pieces."""
    files = [str(root / name) for name in STATE_FILES]
    good_states, edge_states = PRESETS
    state = option("--state", ((*good_states, files[0]),
                               (*edge_states, *files[1:], str(root / "a_dir"),
                                str(root / "missing.json"))))
    j = option("--j", (("0", "1"), ("-1", "5", str(10**30), "x")))
    fmt = option("--format", (("json", "csv"), ("xml",)))
    out = ((), ("--out", str(root / "out.txt"))), (
        ("--out", str(root / "no_dir" / "out.txt")), ("--out", str(root / "a_dir")))
    return {
        "verify": (option("--dim", (("2", "3", "1000"), INT_EDGES)),
                   option("--n-max", (("1", "2", "3"), INT_EDGES)), out),
        "stats": (state, j, option("--n", ((*SIZES[0], str(10**30)), INT_EDGES)),
                  (((), ("--cross-check",)), ()), out),
        "converge": (state, j, fmt, option("--n-list", N_LISTS), (((), ("--sample",)), ()),
                     option("--trials", TRIAL_COUNTS), option("--seed", SEEDS), out),
        "noncollapse": (state, j, fmt, option("--n-list", N_LISTS), out),
        "sample": (state, j, fmt, option("--n", SIZES), option("--trials", TRIAL_COUNTS),
                   option("--seed", SEEDS), out),
        "spectrum": (state, j, fmt, option("--n", SIZES), out),
    }


@st.composite
def argvs(draw, root):
    """An argv of one of the six commands: the options at a drawn set of
    places (few, as hypothesis draws sets) take edge pieces, the others
    good ones."""
    commands = grammar(root)
    command = draw(st.sampled_from(sorted(commands)))
    parts = commands[command]
    edged = draw(st.sets(st.sampled_from(range(len(parts)))))
    pieces = [draw(st.sampled_from(edge if i in edged and edge else good))
              for i, (good, edge) in enumerate(parts)]
    return [command, *itertools.chain.from_iterable(pieces)]


def assert_exit_contract(argv):
    """``main(argv)`` returns 0, 1 or 2, or argparse exits 2; nothing else
    escapes. A refusal (2) writes nothing to stdout and one ``error:`` line
    to stderr; argparse's exit writes its usage and then one error line. A
    run that returns 0 or 1 writes its output to stdout or --out, and
    nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    out, err = out.getvalue(), err.getvalue()
    if code == ("argparse", 2):
        assert out == ""
        lines = err.splitlines()
        assert lines[0].startswith("usage: freqop")
        assert [line for line in lines if ": error: " in line] == lines[-1:]
    elif code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert code in (0, 1)
        assert err == ""
        assert (out == "") == ("--out" in argv)


@settings(deadline=None)
@given(data=st.data())
def test_every_argv_keeps_the_exit_contract(grammar_dir, data):
    """Edge values in any combination over the six commands' grammar."""
    assert_exit_contract(data.draw(argvs(grammar_dir)))


def test_each_edge_value_alone_keeps_the_exit_contract(grammar_dir):
    """Each edge piece of each command's options, all its other options at
    their first good piece: each guard meets each value it may see alone,
    which random combinations reach too rarely."""
    for command, parts in grammar(grammar_dir).items():
        for i, (_, edge) in enumerate(parts):
            for piece in edge:
                pieces = [piece if k == i else good[0] for k, (good, _) in enumerate(parts)]
                argv = [command, *itertools.chain.from_iterable(pieces)]
                try:
                    assert_exit_contract(argv)
                except AssertionError as exc:
                    raise AssertionError(f"argv {argv}: {exc}") from None
