"""How ``tests/mutants.py`` reads the tests that failed from pytest's
output, which mutants ``tests/boundary_mutants.py`` generates, and how
both scripts end a pytest child that runs too long."""

import subprocess

import pytest

from boundary_mutants import _run, apply, mutants
from mutants import _run_rows, failed_ids

MALFORMED = ("tests/test_cli.py::TestParseState::test_malformed_preset_names_its_value"
             "[uniform:abc---state uniform:D needs an integer D, got 'abc']")

# The end of a ``pytest -q -rfE`` run: a parametrized id that holds spaces,
# too long to leave room for its message; an id with its message, which
# holds the separator again; an error; and the counts line.
SUMMARY = f"""\
tests/test_cli.py:71: AssertionError
=========================== short test summary info ============================
FAILED {MALFORMED}
FAILED tests/test_cli.py::TestConverge::test_one_row_csv - IndexError: list index - out of range
ERROR tests/test_cli.py::test_array_commands_import_numpy[sample] - RuntimeError: x
2 failed, 5 passed, 1 error in 0.70s
"""


def test_failed_ids_run_to_the_message_separator_or_the_line_end():
    assert failed_ids(SUMMARY) == {
        MALFORMED,
        "tests/test_cli.py::TestConverge::test_one_row_csv",
        "tests/test_cli.py::test_array_commands_import_numpy[sample]",
    }


# Every kind of mutation point: the exit codes' assignments, a bool (no
# mutant), and on the last line a chained comparison with an int and a
# float constant after a two-byte character, so ``ast``'s byte offsets
# must not be read as character offsets.
SNIPPET = """\
EXIT_USAGE = 2
EXIT_TOLERANCE = 1
STRICT = True


def inside(x):
    label = "\u00b5"; return 0 < x <= 2.5 and label
""".encode()


def test_boundary_mutants_of_a_fixed_snippet():
    found = mutants(SNIPPET)
    assert [(line, old, new) for line, _, old, new in found] == [
        (1, "2", "1"),
        (1, "EXIT_USAGE and EXIT_TOLERANCE", "swapped"),
        (1, "2", "3"),
        (2, "1", "0"),
        (2, "1", "2"),
        (7, "0", "-1"),
        (7, "0", "1"),
        (7, "<", "<="),
        (7, "<=", "<"),
        (7, "2.5", "1.5"),
        (7, "2.5", "3.5"),
    ]
    lines = [[f"EXIT_USAGE = {usage}", f"EXIT_TOLERANCE = {tolerance}", "STRICT = True",
              "", "", "def inside(x):", f'    label = "\u00b5"; return {test} and label']
             for usage, tolerance, test in [
                 (1, 1, "0 < x <= 2.5"),
                 (1, 2, "0 < x <= 2.5"),
                 (3, 1, "0 < x <= 2.5"),
                 (2, 0, "0 < x <= 2.5"),
                 (2, 2, "0 < x <= 2.5"),
                 (2, 1, "-1 < x <= 2.5"),
                 (2, 1, "1 < x <= 2.5"),
                 (2, 1, "0 <= x <= 2.5"),
                 (2, 1, "0 < x < 2.5"),
                 (2, 1, "0 < x <= 1.5"),
                 (2, 1, "0 < x <= 3.5"),
             ]]
    assert [apply(SNIPPET, edits).decode().splitlines() for _, edits, _, _ in found] == lines


def test_a_child_that_times_out_stops_the_row_or_kills_the_mutant(monkeypatch, tmp_path):
    def stalled(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", stalled)
    (tmp_path / "m.py").write_text("x = 1\n")
    with pytest.raises(SystemExit, match=r"^m\.py: 'x = 2': tests timed out after 60 s$"):
        _run_rows(tmp_path, [(0, ("m.py", "x = 1", "x = 2", ("t",)))])
    assert (tmp_path / "m.py").read_text() == "x = 1\n"
    assert _run(tmp_path, "m.py", b"x = 2\n", b"x = 1\n", ("t",)) == "timed out"
    assert (tmp_path / "m.py").read_text() == "x = 1\n"
