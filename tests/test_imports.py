"""Every name a ``loopstable`` module or a test module imports is used in
that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "loopstable"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def _annotation_names(node: ast.AST):
    """Names inside string annotations such as ``-> "SimplicialMap"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        for sub in ast.walk(ast.parse(node.value, mode="eval")):
            if isinstance(sub, ast.Name):
                yield sub.id


def unused_imports(source: str):
    """``(line, name)`` for each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = "from typing import Optional, Tuple\nimport os\nx: Tuple = ()\n"
    assert unused_imports(src) == [(1, "Optional"), (2, "os")]


def test_string_annotation_counts_as_use():
    src = "from typing import List\ndef f() -> \"List[int]\":\n    return []\n"
    assert unused_imports(src) == []
