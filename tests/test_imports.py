"""Every name a ``loopstable`` module or a test module imports is used in
that module, every public top-level function and class of ``loopstable``
is reached from the command line or the module-level tables, and the
command line starts without ``dataclasses`` or ``inspect``."""

import ast
import os
import subprocess
import sys
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


# Public definitions no check reaches, each kept for a stated reason.
UNREACHED_ALLOWED = {
    "kkcat.promote": "the colimit structure map, kept for ROADMAP item 4",
    "kkcat.lambda_rep": "the degree-raising operator, kept for ROADMAP item 4",
    "algebras.format_algebra_file": "the writer half of the algebra file format",
    "algebras.product_algebra": "finite products; generates the round-trip test",
}


def unreached_definitions(sources):
    """``module.name`` of each public top-level function or class in
    ``sources`` (module name -> source text) that no chain of name uses
    connects to ``cli.main`` or to a module-level statement other than a
    definition or an import (the catalog, the built-in table, constants).

    A name resolves to the definition of that name in its own module or,
    through a ``from .module import name`` anywhere in the module, in
    another one."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs, aliases, stack = {}, {}, []
    for mod, tree in trees.items():
        aliases[mod] = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, stmt.name] = stmt
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                stack.append((mod, stmt))
    reached = {("cli", "main")}
    stack.append(("cli", defs["cli", "main"]))
    while stack:
        mod, node = stack.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                key = (mod, sub.id) if (mod, sub.id) in defs else aliases[mod].get(sub.id)
                if key in defs and key not in reached:
                    reached.add(key)
                    stack.append((key[0], defs[key]))
    return sorted(
        f"{mod}.{name}" for mod, name in defs
        if (mod, name) not in reached and not name.startswith("_")
    )


def test_every_public_definition_is_reached():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreached_definitions(sources) == sorted(UNREACHED_ALLOWED)


def test_detects_unreached_definition():
    sources = {
        "cli": "from .core import run\ndef main():\n    return run()\n",
        "core": (
            "TABLE = {'k': lambda: helper()}\n"
            "def run():\n    return 0\n"
            "def helper():\n    return 1\n"
            "def dead():\n    return helper()\n"
            "class Orphan:\n    pass\n"
        ),
    }
    assert unreached_definitions(sources) == ["core.Orphan", "core.dead"]


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    # with them come ast, dis, tokenize, linecache, copy and
    # importlib.machinery, all paid by every CLI process
    code = ("import sys; before = set(sys.modules); import loopstable.cli; "
            "print(*sorted(set(sys.modules) - before))")
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert "loopstable.verifier" in out
    assert {"dataclasses", "inspect"}.isdisjoint(out)


def package_imports(source: str) -> set:
    """The modules of ``loopstable`` that ``source`` imports, relatively or
    by the package name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [("loopstable." if node.level else "") + (node.module or "")]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(n.removeprefix("loopstable.") for n in names if n.startswith("loopstable"))
    return found


def test_carriers_and_algebras_stay_below_the_tensor_layer():
    # carriers holds the protocol, morphisms and replay, so an algebra map
    # is a Morphism without the tensor layer
    read = lambda name: (SRC / f"{name}.py").read_text(encoding="utf-8")
    assert package_imports(read("carriers")) == set()
    assert package_imports(read("algebras")) == {"carriers", "poly"}


def test_detects_a_package_import():
    src = ("import os\nfrom .poly import cp_add\nfrom loopstable.tensorj import j_of\n"
           "import loopstable.funalg\nfrom typing import Any\n")
    assert package_imports(src) == {"poly", "tensorj", "funalg"}
