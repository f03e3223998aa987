"""How ``tests/mutants.py`` reads the tests that failed from pytest's
output, and which mutants ``tests/boundary_mutants.py`` generates."""

from boundary_mutants import apply, mutants
from mutants import failed_ids

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
