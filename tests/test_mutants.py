"""How ``tests/mutants.py`` reads the tests that failed from pytest's output."""

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
