"""Layering: freqop's modules meet only through each other's public names.

Each ``src/freqop/*.py`` is parsed, not imported. A module may not read an
underscore name of another freqop module, either as ``module._name`` on a
module it imported or through ``from .module import _name``. Dunder names
(``__version__``) are public.

Every public name of the package has a caller outside the tests: each
public top-level function and class, and each public method of a
top-level class, is read by code in the package outside its own
definition, in ``demos/`` or in ``bench/``, as a name, an attribute or a
string constant that is the bare identifier. Imports, ``__all__`` and
docstrings name without reading, so they do not count.

``analysis`` is the closed-form layer of a sweep: it does not import
``sampler``, whose draws ``cli`` joins to the sweep's rows.

Every request limit has one owner, ``guards.py``: no other module raises
``ScaleError`` or binds a ``*_GUARD`` or ``MAX_*`` name, and ``guards``
imports only the standard library, so it, the package root and ``cli``
load without numpy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freqop"
SOURCES = sorted(PACKAGE.glob("*.py"))
GUARDS = PACKAGE / "guards.py"
CALLERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted(
    (ROOT / "bench").glob("*.py")
)

# The brute-force reference the tests hold analytic.spectral_weights to:
# only the tests call it, but a reference implementation stays in the
# package beside the dense routes it is built from.
TEST_ORACLES = {"dense.spectral_weights_dense"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_package_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "freqop"


def private_reads(source: str) -> list[str]:
    """Every private cross-module read in one module's source, as
    ``module._name``."""
    tree = ast.parse(source)
    modules = {}  # local name -> freqop module it is bound to
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_import(node):
            base = (node.module or "").removeprefix("freqop").lstrip(".")
            for alias in node.names:
                if base:
                    if _private(alias.name):
                        reads.append(f"{base}.{alias.name}")
                else:
                    # ``from . import dense`` binds a module of the package.
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            reads.append(f"{modules[node.value.id]}.{node.attr}")
    return reads


def test_sources_found():
    assert {p.stem for p in SOURCES} >= {"cli", "dense", "analysis", "sampler"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_private_cross_module_reads(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


def test_detector_finds_both_forms():
    source = (
        "from . import dense, __version__\n"
        "from .sampler import _check_seed, run_trials\n"
        "from freqop import hilbert as hb\n"
        "dense._vectors(spec)\n"
        "dense.expectation_dense(spec)\n"
        "hb._is_json_number(1)\n"
        "__version__\n"
    )
    assert sorted(private_reads(source)) == [
        "dense._vectors",
        "hilbert._is_json_number",
        "sampler._check_seed",
    ]


def public_defs(tree) -> list[tuple[str, ast.AST]]:
    """(name, node) of each public top-level function and class and each
    public method of a top-level class, a method named ``Class.method``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                ]
    return found


def _lists_without_reading(node) -> bool:
    """An import, ``__all__`` or a docstring: it names without calling."""
    return (
        isinstance(node, (ast.Import, ast.ImportFrom))
        or isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        or isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def words_read(tree, skip=None) -> set[str]:
    """Every name the code of ``tree`` reads outside the node ``skip``:
    names, attributes, and string constants that are one identifier
    (``bench`` looks kernels up by name)."""
    words, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip or _lists_without_reading(node):
            continue
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                words.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return words


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_public_names_have_callers_outside_tests(path):
    tree = _tree(path)
    elsewhere = set().union(*(words_read(_tree(p)) for p in CALLERS if p != path))
    uncalled = [
        name
        for name, node in public_defs(tree)
        if f"{path.stem}.{name}" not in TEST_ORACLES
        and name.rsplit(".", 1)[-1] not in elsewhere | words_read(tree, skip=node)
    ]
    assert uncalled == []


def test_imports_all_and_docstrings_are_not_reads():
    tree = ast.parse(
        "from .hilbert import inner_product\n"
        '__all__ = ["inner_product"]\n'
        "def f():\n"
        '    """Calls inner_product."""\n'
        '    return getattr(m, "expectation_dense")(g.h, "not one identifier")\n'
    )
    assert words_read(tree) == {"getattr", "m", "expectation_dense", "g", "h"}


def test_analysis_is_closed_form():
    """``analysis`` computes a sweep's closed forms alone: it imports nothing
    from ``sampler`` and binds no global, and ``convergence_sweep`` takes
    exactly ``(state, j, n_list)``; ``converge --sample`` draws itself."""
    tree = _tree(PACKAGE / "analysis.py")
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert [m for m in imported if m.rsplit(".", 1)[-1] == "sampler"] == []
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))
    [sweep] = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "convergence_sweep"]
    args = sweep.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == [
        "state", "j", "n_list"]
    assert args.vararg is None and args.kwarg is None


def test_guards_import_only_the_standard_library():
    modules = []
    for node in ast.walk(_tree(GUARDS)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []


def _raised_names(tree) -> set[str]:
    """The names of the exceptions a module raises: ``raise E(...)``,
    ``raise E`` or ``raise m.E``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    return names


def test_only_guards_raises_scale_error():
    probe = ast.parse("def f():\n    raise guards.ScaleError('x')\n    raise ValueError\n")
    assert _raised_names(probe) == {"ScaleError", "ValueError"}
    assert [p.stem for p in SOURCES if "ScaleError" in _raised_names(_tree(p))] == ["guards"]


def _limits_bound(tree) -> list[str]:
    """Module-level names assigned in ``tree`` that end in ``_GUARD`` or
    start with ``MAX_``."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name)
                  and (t.id.endswith("_GUARD") or t.id.startswith("MAX_"))]
    return names


def test_only_guards_binds_limits():
    probe = ast.parse("MAX_N = 3\nX_GUARD: int = 4\nOTHER = 5\ndef f():\n    LOCAL_GUARD = 1\n")
    assert _limits_bound(probe) == ["MAX_N", "X_GUARD"]
    assert [p.stem for p in SOURCES if _limits_bound(_tree(p))] == ["guards"]


def test_package_root_and_guards_load_without_numpy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))}
    code = ("import sys, freqop, freqop.guards, freqop.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
