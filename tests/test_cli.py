import json

import pytest

from freqop.cli import main, parse_state


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
    ], ids=["not-object", "no-dim", "no-amplitudes", "string-dim",
            "bare-numbers", "string-re", "no-im"])
    def test_bad_schema_exit_2(self, tmp_path, capsys, doc):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert_usage_error(capsys, "stats", "--state", str(path), "--n", "3")


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

    def test_scale_guard_exit_2(self, capsys):
        code = main(["verify", "--dim", "2", "--n-max", "25"])
        captured = capsys.readouterr()
        assert code == 2
        assert "guard" in captured.err


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

    def test_noncollapse_rows(self, capsys):
        code, doc = run_json(
            capsys, "noncollapse", "--state", "two-level:0.5",
            "--n-list", "100,10000",
        )
        rows = doc["result"]["rows"]
        assert rows[0]["distance_sq"] == pytest.approx(0.0025)
        assert rows[1]["max_weight"] == pytest.approx(0.00798, abs=5e-5)
        assert "never becomes" in doc["result"]["verdict"]


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

    def test_invalid_state_exit_2(self, capsys):
        assert main(["stats", "--state", "two-level:1.5", "--n", "5"]) == 2

    def test_bad_j_exit_2(self, capsys):
        assert main(["stats", "--state", "uniform:2", "--j", "5", "--n", "3"]) == 2
