import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from freqop import dense
from freqop.cli import CSV_CHUNK_ROWS, main, parse_state


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

    def test_cross_check_builds_each_vector_once(self, capsys, monkeypatch):
        calls = []

        def counting(name):
            build = getattr(dense, name)

            def wrapper(*args):
                calls.append(name)
                return build(*args)
            return wrapper

        for name in ("born_weights", "frequency_diagonal", "product_state_vector"):
            monkeypatch.setattr(dense, name, counting(name))
        code, doc = run_json(
            capsys, "stats", "--state", "two-level:0.36", "--j", "1", "--n", "8",
            "--cross-check",
        )
        assert code == 0 and doc["result"]["cross_check"] == "PASS"
        assert sorted(calls) == ["born_weights", "frequency_diagonal"]

    @pytest.mark.parametrize("cross_check", [(), ("--cross-check",)],
                             ids=["closed-forms", "cross-check"])
    def test_overflowing_n_exit_2(self, capsys, cross_check):
        # N = 10^400 overflows a float in the closed forms.
        assert_usage_error(
            capsys, "stats", "--state", "two-level:0.36", "--n", str(10**400),
            *cross_check,
        )

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
    ], ids=["spectrum", "sample"])
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

    def test_writes_at_most_a_chunk_of_rows(self, monkeypatch):
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
                "--format", "csv"]
        assert main(argv) == 0
        # Three meta lines, the header, and N + 1 rows.
        assert stdout.getvalue().count("\n") == 4 + 100001
        assert max(s.count("\n") for s in stdout.writes) <= CSV_CHUNK_ROWS


def test_spectrum_csv_rows_come_from_the_weight_array(tmp_path):
    """A Python list of the N + 1 weights takes four times the array's
    bytes (an 8-byte pointer plus a 24-byte float each), so a run that
    peaks below that builds no such list."""
    n = 100000
    argv = ["spectrum", "--state", "two-level:0.36", "--n", str(n),
            "--format", "csv", "--out", str(tmp_path / "spectrum.csv")]
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


def test_no_command_imports_scipy():
    """Every closed form, the binomial terms included, is computed with
    numpy alone, so no command imports scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
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
