"""Every demo script runs against the current API and prints the bytes
pinned in ``tests/golden/demo_<stem>.txt``. Rewrite those files, with the
CLI golden files, only when a demo's output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"


def demo_golden_path(demo: Path) -> Path:
    return GOLDEN / f"demo_{demo.stem}.txt"


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.encode() == demo_golden_path(path).read_bytes()
