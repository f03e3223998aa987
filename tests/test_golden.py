"""Golden CLI outputs: every command, in every format it has, byte for byte.

Each case runs ``freqop.cli.main`` in process from ``tests/golden`` (the
config block echoes the state path, so the JSON state file lives there too)
and compares stdout with ``tests/golden/<case>.<json|csv>``. A change that
alters any output byte fails here; rewrite the files only when the output is
meant to change, by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
from pathlib import Path

import pytest

from freqop.cli import main

GOLDEN = Path(__file__).parent / "golden"

TWO_LEVEL = ("--state", "two-level:0.36")
D3 = ("--state", "state_d3.json")
CSV = ("--format", "csv")
SAMPLED = ("--sample", "--trials", "200", "--seed", "42")
MAX_SEED = ("--seed", "18446744073709551615")

CASES = {
    "verify_d2_n6": ("verify", "--dim", "2", "--n-max", "6"),
    "verify_d3_n4": ("verify", "--dim", "3", "--n-max", "4"),
    # N <= 12 builds the literal routes, N = 13, 14 take the implicit diagonal.
    "verify_d2_n14": ("verify", "--dim", "2", "--n-max", "14"),
    # 3**7 = 2187 basis strings: the d=3 literal routes just below the guard.
    "verify_d3_n7": ("verify", "--dim", "3", "--n-max", "7"),
    "stats_two_level": ("stats", *TWO_LEVEL, "--j", "1", "--n", "10"),
    "stats_uniform_cross_check": (
        "stats", "--state", "uniform:2", "--j", "1", "--n", "7", "--cross-check"),
    "stats_d3_cross_check": ("stats", *D3, "--j", "1", "--n", "6", "--cross-check"),
    "stats_two_level_n16_cross_check": (
        "stats", *TWO_LEVEL, "--j", "1", "--n", "16", "--cross-check"),
    "stats_d3_n12_cross_check": ("stats", *D3, "--j", "2", "--n", "12", "--cross-check"),
    "converge": ("converge", *TWO_LEVEL, "--n-list", "10,100,1000,1000000"),
    "converge_csv": ("converge", *TWO_LEVEL, "--n-list", "10,100,1000,1000000", *CSV),
    "converge_sample": ("converge", *TWO_LEVEL, "--j", "1", "--n-list", "10,100,1000",
                        *SAMPLED),
    "converge_sample_csv": ("converge", *TWO_LEVEL, "--j", "1", "--n-list", "10,100,1000",
                            *SAMPLED, *CSV),
    "converge_degenerate": ("converge", "--state", "two-level:1.0", "--n-list", "10,100"),
    "converge_degenerate_csv": (
        "converge", "--state", "two-level:1.0", "--n-list", "10,100", *CSV),
    "noncollapse_p0": ("noncollapse", "--state", "two-level:0.0", "--n-list", "10,100,10000"),
    "noncollapse_p0_csv": (
        "noncollapse", "--state", "two-level:0.0", "--n-list", "10,100,10000", *CSV),
    "noncollapse_p05": ("noncollapse", "--state", "two-level:0.5", "--n-list", "10,100,10000"),
    "noncollapse_p05_csv": (
        "noncollapse", "--state", "two-level:0.5", "--n-list", "10,100,10000", *CSV),
    "sample": ("sample", *TWO_LEVEL, "--n", "100", "--trials", "50", *MAX_SEED),
    "sample_csv": ("sample", *TWO_LEVEL, "--n", "100", "--trials", "50", *MAX_SEED, *CSV),
    "sample_d3_last_outcome": (
        "sample", *D3, "--j", "2", "--n", "1000", "--trials", "20", "--seed", "5"),
    "sample_uniform3_csv": (
        "sample", "--state", "uniform:3", "--j", "2", "--n", "1000", "--trials", "20",
        "--seed", "7", *CSV),
    "spectrum": ("spectrum", *TWO_LEVEL, "--n", "20"),
    "spectrum_csv": ("spectrum", *TWO_LEVEL, "--j", "1", "--n", "20", *CSV),
}


def golden_path(name: str) -> Path:
    ext = "csv" if "csv" in CASES[name] else "json"
    return GOLDEN / f"{name}.{ext}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(list(CASES[name])) == 0
    assert capsys.readouterr().out.encode() == golden_path(name).read_bytes()


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        golden_path(name).write_bytes(out.getvalue().encode())
        print(f"wrote {golden_path(name).name}")
