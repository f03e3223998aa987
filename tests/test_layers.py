"""Layering: freqop's modules meet only through each other's public names.

Each ``src/freqop/*.py`` is parsed, not imported. A module may not read an
underscore name of another freqop module, either as ``module._name`` on a
module it imported or through ``from .module import _name``. Dunder names
(``__version__``) are public.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "freqop"
SOURCES = sorted(PACKAGE.glob("*.py"))


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
