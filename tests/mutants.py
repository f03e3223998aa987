"""Mutation checks: each row breaks the program in one known way, and the
tests it names must then fail. A later change that deletes or weakens the
only test that caught a mutant makes its row fail here.

A row is (file, old text, new text, tests that must fail); a row of
``EQUIVALENT`` names a mutant that changes no output, and its tests must
pass. The script copies ``pyproject.toml``, ``src/`` and ``tests/`` to a
temporary directory, so that pyproject's ``pythonpath = ["src"]`` loads the
mutated copy and not this checkout's ``src``. For each row it replaces the
old text, which must occur exactly once (a stale row is an error, not a
pass), and runs the named tests there with pytest, writing no bytecode, so
no cached module outlives its mutant. The named tests must first pass on
the unmutated copy. pytest does not collect this file; run it from
anywhere as a script:

    python tests/mutants.py
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GOLDEN = "tests/test_golden.py::test_golden_output"
MULTIPLICITIES = "tests/test_dense.py::TestAlgebra::test_eigenspace_multiplicities"
THREE_PRODUCTS = "tests/test_routes.py::test_statistics_dense_matches_three_products_at_each_n"

MUTANTS = [
    # The run sums added left to right instead of up numpy's pairwise tree.
    ("src/freqop/dense.py",
     "    sums = pairwise_sum(lambda lo, size: next(runs), 0, total, _NODE)\n",
     "    sums = sum(runs)\n",
     (THREE_PRODUCTS, f"{GOLDEN}[stats_two_level_n20_cross_check]",
      f"{GOLDEN}[stats_uniform5_n8_cross_check]")),
    # The float weights' suffix folded as one digit, like the exact counts:
    # a block's weights lose the full fold's bits.
    ("src/freqop/dense.py",
     '        if factor.dtype.kind == "i":\n',
     "        if True:\n",
     (THREE_PRODUCTS, f"{GOLDEN}[stats_two_level_n20_cross_check]",
      "tests/test_cli.py::TestStats::test_cross_check_builds_each_vector_once")),
    # np.bincount on the int8 counts without the uint8 view: a count of -1
    # raises instead of landing outside the row as 255.
    ("src/freqop/dense.py",
     "np.bincount(counts.view(np.uint8), minlength=n + 1)",
     "np.bincount(counts, minlength=n + 1)",
     (f"{MULTIPLICITIES}[8-2]", f"{MULTIPLICITIES}[8-3]")),
    # sum_to_identity taken from the largest sum over j only: a string whose
    # counts sum below N goes unseen.
    ("src/freqop/dense.py",
     "float(diag_sum.max()) - 1, 1 - float(diag_sum.min()))",
     "float(diag_sum.max()) - 1)",
     (f"{MULTIPLICITIES}[2-3]", f"{MULTIPLICITIES}[8-2]")),
    # The site sum perturbed by up to 1 ulp, inside the routes' 1e-12 check.
    ("src/freqop/dense.py",
     "        plain = np.multiply.outer(plain, b).ravel()\n    return total\n",
     "        plain = np.multiply.outer(plain, b).ravel()\n    return total * (1 + 2**-52)\n",
     ("tests/test_dense.py::TestSiteSum::test_projector_sum_has_the_kron_bytes[2]",
      "tests/test_dense.py::TestSiteSum::test_structural_route_has_the_kron_bytes",
      f"{GOLDEN}[verify_d2_n6]")),
]

# Mutants that change no output, with the same columns; their tests must pass.
EQUIVALENT = [
    # verify adds counts / N over j in reverse. Each string's sum may move,
    # but sum_to_identity reads only the largest and smallest, and the set
    # of sums is the same: the string with each digit i read as d - 1 - i
    # has the reversed counts.
    ("src/freqop/dense.py",
     "(np.eye(1, d, j, np.int8)[0], np.add) for j in range(d))):",
     "(np.eye(1, d, j, np.int8)[0], np.add) for j in range(d - 1, -1, -1))):",
     (f"{GOLDEN}[verify_d3_n7]", f"{GOLDEN}[verify_d16_n5]", f"{MULTIPLICITIES}[8-3]")),
]


def _failed(root: Path, tests) -> set:
    """The named tests that fail (or error) when run in the copy at root."""
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=root, capture_output=True, text=True)
    if proc.returncode not in (0, 1):  # a usage error, or no test collected
        sys.exit(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE))


def main() -> int:
    rows = [(row, True) for row in MUTANTS] + [(row, False) for row in EQUIVALENT]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        named = sorted({test for (*_, tests), _ in rows for test in tests})
        broken = _failed(copy, named)
        if broken:
            sys.exit(f"fail without a mutant: {sorted(broken)}")
        for (path, old, new, tests), killed in rows:
            source = (copy / path).read_text()
            if source.count(old) != 1:
                sys.exit(f"{path}: {source.count(old)} matches for {old!r}")
            (copy / path).write_text(source.replace(old, new))
            try:
                failed = _failed(copy, tests)
            finally:
                (copy / path).write_text(source)
            wrong = sorted(set(tests) - failed if killed else failed)
            print(f"{'ok  ' if not wrong else 'BAD '}{path}: {new.strip()!r}")
            for test in wrong:
                print(f"     {'passed' if killed else 'failed'}: {test}")
            bad += bool(wrong)
    print(f"{len(rows) - bad} of {len(rows)} rows as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
