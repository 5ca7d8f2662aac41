"""numpy is the only runtime dependency: the package imports nothing else
outside the standard library and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "fewcache").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "fewcache"}


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of the absolute imports in `tree`."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_fewcache(path):
    foreign = imported_roots(ast.parse(path.read_text(), filename=str(path))) - ALLOWED
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_foreign_import_detected():
    tree = ast.parse("import json\nfrom scipy.special import expit\nfrom . import codec\n")
    assert imported_roots(tree) - ALLOWED == {"scipy"}
