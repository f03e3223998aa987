"""Golden CLI outputs: every command, in every format it has, byte for byte.

Each case runs ``freqop.cli.main`` in process from ``tests/golden`` (the
config block echoes the state path, so the JSON state file lives there too)
and compares stdout with ``tests/golden/<case>.<json|csv>``. The spectra at
N = 10^5 and 10^6 are too large to keep, so ``LARGE_CASES`` pins the sha256
of their stdout in ``tests/golden/large_n.sha256`` instead, as it does for
sampling at the benchmark's trial counts. Each ``--cross-check`` case runs a
second time as a ``python -m freqop.cli`` child limited to one OpenBLAS
thread, so that the dense oracle's bytes cannot depend on the CPU count. A
change that alters any output byte fails here; rewrite the files only when
the output is meant to change, by running this module as a script, which
also rewrites the digests and the demos' pinned stdout (see
``test_demos.py``):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from freqop.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parents[1] / "src"

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
    # The largest product space, 2**20 strings, and the largest d at N = 5
    # and at N = 1 that the work guard admits.
    "verify_d2_n20": ("verify", "--dim", "2", "--n-max", "20"),
    "verify_d16_n5": ("verify", "--dim", "16", "--n-max", "5"),
    "verify_d4096_n1": ("verify", "--dim", "4096", "--n-max", "1"),
    "stats_two_level": ("stats", *TWO_LEVEL, "--j", "1", "--n", "10"),
    "stats_uniform_cross_check": (
        "stats", "--state", "uniform:2", "--j", "1", "--n", "7", "--cross-check"),
    "stats_d3_cross_check": ("stats", *D3, "--j", "1", "--n", "6", "--cross-check"),
    "stats_two_level_n16_cross_check": (
        "stats", *TWO_LEVEL, "--j", "1", "--n", "16", "--cross-check"),
    "stats_d3_n12_cross_check": ("stats", *D3, "--j", "2", "--n", "12", "--cross-check"),
    # The largest product space the dense oracle takes, 2**20 strings.
    "stats_two_level_n20_cross_check": (
        "stats", "--state", "two-level:0.3712", "--j", "1", "--n", "20", "--cross-check"),
    # 5**8 = 390625 strings: not a power of two, so the sums' halves end on odd tails.
    "stats_uniform5_n8_cross_check": (
        "stats", "--state", "uniform:5", "--j", "3", "--n", "8", "--cross-check"),
    # Closed forms of a d=3 state, a preset and a JSON file, with no dense oracle.
    "stats_uniform3": ("stats", "--state", "uniform:3", "--j", "2", "--n", "1000"),
    "stats_d3": ("stats", *D3, "--j", "2", "--n", "100000"),
    "converge": ("converge", *TWO_LEVEL, "--n-list", "10,100,1000,1000000"),
    "converge_csv": ("converge", *TWO_LEVEL, "--n-list", "10,100,1000,1000000", *CSV),
    "converge_sample": ("converge", *TWO_LEVEL, "--j", "1", "--n-list", "10,100,1000",
                        *SAMPLED),
    "converge_sample_csv": ("converge", *TWO_LEVEL, "--j", "1", "--n-list", "10,100,1000",
                            *SAMPLED, *CSV),
    "converge_degenerate": ("converge", "--state", "two-level:1.0", "--n-list", "10,100"),
    "converge_degenerate_csv": (
        "converge", "--state", "two-level:1.0", "--n-list", "10,100", *CSV),
    "converge_uniform3": ("converge", "--state", "uniform:3", "--n-list", "10,100,1000000"),
    "converge_d3_csv": ("converge", *D3, "--j", "1", "--n-list", "10,100,1000000", *CSV),
    "noncollapse_p0": ("noncollapse", "--state", "two-level:0.0", "--n-list", "10,100,10000"),
    "noncollapse_p0_csv": (
        "noncollapse", "--state", "two-level:0.0", "--n-list", "10,100,10000", *CSV),
    "noncollapse_p05": ("noncollapse", "--state", "two-level:0.5", "--n-list", "10,100,10000"),
    "noncollapse_p05_csv": (
        "noncollapse", "--state", "two-level:0.5", "--n-list", "10,100,10000", *CSV),
    "noncollapse_uniform3_csv": (
        "noncollapse", "--state", "uniform:3", "--j", "1", "--n-list", "10,1000,1000000", *CSV),
    "noncollapse_d3": ("noncollapse", *D3, "--j", "2", "--n-list", "10,1000,1000000"),
    "sample": ("sample", *TWO_LEVEL, "--n", "100", "--trials", "50", *MAX_SEED),
    "sample_csv": ("sample", *TWO_LEVEL, "--n", "100", "--trials", "50", *MAX_SEED, *CSV),
    "sample_d3_last_outcome": (
        "sample", *D3, "--j", "2", "--n", "1000", "--trials", "20", "--seed", "5"),
    "sample_uniform3_csv": (
        "sample", "--state", "uniform:3", "--j", "2", "--n", "1000", "--trials", "20",
        "--seed", "7", *CSV),
    "spectrum": ("spectrum", *TWO_LEVEL, "--n", "20"),
    "spectrum_csv": ("spectrum", *TWO_LEVEL, "--j", "1", "--n", "20", *CSV),
    # Degenerate p: the whole mass on one eigenspace.
    "spectrum_p0": ("spectrum", "--state", "two-level:0.0", "--n", "20"),
    "spectrum_p1_csv": ("spectrum", "--state", "two-level:1.0", "--n", "20", *CSV),
    # Most of the 2001 rows are weights that underflow to 0.
    "spectrum_tail_csv": ("spectrum", "--state", "two-level:0.01", "--n", "2000", *CSV),
}

# At scale, where the golden spectra above stop (N = 2000): the far tails
# underflow to exact zeros, and p near 0 or 1 puts the mass at one end.
LARGE_CASES = {
    **{
        f"spectrum_{p}_n1e6_csv": (
            "spectrum", "--state", f"two-level:{p}", "--n", "1000000", *CSV)
        for p in ("0.3712", "1e-7", "0.9999", "0.5", "0.0", "1.0")
    },
    **{
        f"spectrum_{p}_n1e5": ("spectrum", "--state", f"two-level:{p}", "--n", "100000")
        for p in ("0.3712", "1e-7", "0.9999", "0.5")
    },
    # The benchmark's short-trial sampling shapes, and a frequency column of
    # exact zeros but one (p = 1e-6 over 10 draws; trial 896 draws outcome 0)
    # in both formats.
    "sample_n100_t1e4": (
        "sample", *TWO_LEVEL, "--n", "100", "--trials", "10000", "--seed", "101"),
    "sample_n1000_t2e4_csv": (
        "sample", *TWO_LEVEL, "--j", "1", "--n", "1000", "--trials", "20000",
        "--seed", "102", *CSV),
    **{
        f"sample_1e-6_n10_t1000{suffix}": (
            "sample", "--state", "two-level:1e-6", "--n", "10", "--trials", "1000",
            "--seed", "124", *fmt)
        for suffix, fmt in (("", ()), ("_csv", CSV))
    },
    "converge_sample_n1e4": (
        "converge", *TWO_LEVEL, "--n-list", "10,100,1000,10000", "--sample",
        "--seed", "104"),
    # Long trials, counted a chunk of words at a time on each worker: the
    # benchmark's uniform:8 shape, and trials of 300000 words, whose last
    # chunk is partial at 2**15 and at 2**16 words a chunk.
    "sample_uniform8_n1e5_t200": (
        "sample", "--state", "uniform:8", "--j", "3", "--n", "100000", "--trials", "200",
        "--seed", "103"),
    "sample_n3e5_t20": ("sample", *TWO_LEVEL, "--n", "300000", "--trials", "20",
                        "--seed", "105"),
}
LARGE_DIGESTS = GOLDEN / "large_n.sha256"


class _Sha256Writer:
    """A stdout stand-in that keeps only the sha256 of what is written."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def writelines(self, pieces):
        for text in pieces:
            self.write(text)


def stdout_sha256(argv) -> str:
    out = _Sha256Writer()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.sha.hexdigest()


def read_digests() -> dict:
    lines = LARGE_DIGESTS.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


def golden_path(name: str) -> Path:
    ext = "csv" if "csv" in CASES[name] else "json"
    return GOLDEN / f"{name}.{ext}"


def one_blas_thread_stdout(argv) -> bytes:
    """stdout of the CLI run in a child process with one OpenBLAS thread."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "freqop.cli", *argv],
                          cwd=GOLDEN, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


GOLDEN_RUNS = [pytest.param(name, False, id=name) for name in sorted(CASES)] + [
    pytest.param(name, True, id=f"{name}-one-blas-thread")
    for name in sorted(CASES) if "--cross-check" in CASES[name]
]


@pytest.mark.parametrize("name,one_blas_thread", GOLDEN_RUNS)
def test_golden_output(name, one_blas_thread, monkeypatch, capsys):
    if one_blas_thread:
        out = one_blas_thread_stdout(CASES[name])
    else:
        monkeypatch.chdir(GOLDEN)
        assert main(list(CASES[name])) == 0
        out = capsys.readouterr().out.encode()
    assert out == golden_path(name).read_bytes()


def test_large_cases_pinned():
    assert sorted(read_digests()) == sorted(LARGE_CASES)


@pytest.mark.parametrize("name", sorted(LARGE_CASES))
def test_large_n_digest(name):
    assert stdout_sha256(LARGE_CASES[name]) == read_digests()[name]


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

    LARGE_DIGESTS.write_text(
        "".join(f"{stdout_sha256(argv)}  {name}\n" for name, argv in LARGE_CASES.items()),
        encoding="utf-8",
    )
    print(f"wrote {LARGE_DIGESTS.name}")

    from test_demos import DEMOS, demo_golden_path

    for demo in DEMOS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        demo_golden_path(demo).write_bytes(out.getvalue().encode())
        print(f"wrote {demo_golden_path(demo).name}")
