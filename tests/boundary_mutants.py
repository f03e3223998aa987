"""Generated boundary mutants of one module, run against its test files.

The mutation points come from the module's syntax tree (stdlib ``ast``):

- each comparison's boundary flipped (``<`` and ``<=``, ``>`` and ``>=``);
- each numeric constant moved by +1 and by -1;
- ``EXIT_USAGE`` and ``EXIT_TOLERANCE`` swapped, where the module sets both.

Each mutant is written into its own copy of ``src/``, ``tests/`` and
``pyproject.toml`` (as ``tests/mutants.py`` copies them), on min(2, usable
CPUs) copies at once, and the named test files run there with pytest,
stopping at the first failure, with plain asserts as ``tests/mutants.py``
runs them. A mutant survives when they all pass. The survivors are what
``tests/mutants.py`` needs: a test that kills one makes it a ``MUTANTS``
row, and one that changes no output an ``EQUIVALENT`` row.

This script is neither a CI step nor part of tier-1: it runs every test
file once per mutant (minutes, not seconds). Run it from anywhere:

    python tests/boundary_mutants.py src/freqop/cli.py tests/test_cli.py tests/test_golden.py
"""

import ast
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mutants import ROOT, _copy, _cpus

FLIP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
SWAP = ("EXIT_USAGE", "EXIT_TOLERANCE")


def mutants(source: bytes):
    """(line, edits, old, new) of each mutant of ``source``: ``edits`` is a
    list of (start, end, text), each replacing the bytes [start, end) by
    ``text``; ``old`` and ``new`` describe it. ``ast`` offsets count UTF-8
    bytes."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    found = []
    assigned = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if type(op) in FLIP:
                    old, new = FLIP[type(op)]
                    lo, hi = span(a)[1], span(b)[0]
                    at = lo + source[lo:hi].index(old.encode())
                    found.append((a.end_lineno, [(at, at + len(old), new)], old, new))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            lo, hi = span(node)
            for step in (1, -1):
                new = repr(node.value + step)
                found.append((node.lineno, [(lo, hi, new)], source[lo:hi].decode(), new))
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name) and node.targets[0].id in SWAP):
            assigned[node.targets[0].id] = node.value
    if len(assigned) == 2:
        a, b = (assigned[name] for name in SWAP)
        found.append((a.lineno, [(*span(a), ast.unparse(b)), (*span(b), ast.unparse(a))],
                      " and ".join(SWAP), "swapped"))
    return sorted(found, key=lambda m: (m[0], m[1]))


def apply(source: bytes, edits) -> bytes:
    """``source`` with each edit made, from the last, so offsets hold."""
    for lo, hi, text in sorted(edits, reverse=True):
        source = source[:lo] + text.encode() + source[hi:]
    return source


def _passes(root: Path, path: str, text: bytes, source: bytes, tests) -> bool:
    """Whether ``tests`` pass in the copy at root with ``path`` holding
    ``text``; ``source`` is put back after."""
    (root / path).write_bytes(text)
    try:
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--assert=plain", *tests],
            cwd=root, capture_output=True, text=True)
    finally:
        (root / path).write_bytes(source)
    return proc.returncode == 0


def main(path: str, *tests: str) -> int:
    source = (ROOT / path).read_bytes()
    found = mutants(source)
    workers = min(2, _cpus())
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(workers) as pool:
        copies = [_copy(Path(tmp) / str(w)) for w in range(workers)]
        if not _passes(copies[0], path, source, source, tests):
            sys.exit(f"{tests} fail without a mutant")

        def share(w):
            return [(i, _passes(copies[w], path, apply(source, found[i][1]), source, tests))
                    for i in range(w, len(found), workers)]

        survived = dict(pair for part in pool.map(share, range(workers)) for pair in part)
    for i, (line, _, old, new) in enumerate(found):
        print(f"{'SURVIVED' if survived[i] else 'killed  '} {path}:{line}: {old!r} -> {new!r}")
    print(f"{len(found) - sum(survived.values())} of {len(found)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
