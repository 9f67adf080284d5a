"""Every name a ``loopstable`` module or a test module imports is used in
that module, every public top-level function and class of ``loopstable``
is reached from the command line or the module-level tables, every
function of ``loopstable`` is entered by the whole catalog and every cache
hit there (or is allowlisted with a reason), and the command line starts
without ``dataclasses`` or ``inspect``."""

import ast
import json
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
    "kkcat.promote": "the colimit structure map; ROADMAP items 4 and 12 reach it",
    "kkcat.lambda_rep": "the degree raise behind promote; ROADMAP item 12 reaches it",
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


# Functions and methods of ``loopstable`` (nested ones included, lambdas
# not) that the catalog runs of test_every_function_is_entered_and_every_cache_hit
# never enter, each kept for a stated reason.
_STUB = "a stub of the carrier protocol, which every carrier overrides"
_MEMBERSHIP = "membership, the carrier protocol's validation; tests check it"
UNENTERED_ALLOWED = {
    **UNREACHED_ALLOWED,
    "kkcat.swap_pullback": "a pending sign at N >= 2; ROADMAP items 4 and 6 reach it",
    "kkcat.swap_pullback.vmap": "the vertex map of swap_pullback",
    "tensorj.TensorAlgebra.basis_vec": "words as a basis; ROADMAP item 14 reaches it",
    "tensorj.TensorAlgebra.coordinates": "words as a basis; ROADMAP item 14 reaches it",
    **{f"carriers.Carrier.{m}": _STUB
       for m in ("zero", "add", "scale", "combine", "contains", "sample")},
    "carriers.Rationals.sample": "the carrier protocol: a decidable carrier samples",
    "extensions.PolyExtension.zero": "the carrier protocol of C[u], whose values "
                                     "a certificate only combines and compares",
    "extensions.PolyExtension.scale": "the carrier protocol of C[u], as zero",
    "extensions.PolyExtension.contains": _MEMBERSHIP,
    "tensorj.TensorAlgebra.contains": _MEMBERSHIP,
    "tensorj.JKernel.contains": _MEMBERSHIP,
    "carriers.Carrier.__repr__": "debugging output; no report prints a carrier",
    "carriers.Morphism.__repr__": "debugging output; no report prints a morphism",
    "simplicial.SimplicialPair.__eq__": "value equality behind __hash__; the run "
                                        "looks up each pair by the same object",
    "verifier.UnknownCheckError.__init__": "an unknown --check id, a CLI path "
                                           "TestCLI drives",
}

# The catalog on each algebra at one sample, under a profiler that records
# every code object entered; prints the exit codes, those code objects and
# the hits of each module-level cache of loopstable.
_CATALOG_UNDER_PROFILE = """
import contextlib, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from loopstable import cli
codes = []
for source, form in zip(sys.argv[1::2], sys.argv[2::2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(["--check", "all", "--samples", "1", "--seed", "0",
                               "--algebra", source, "--format", form]))
sys.setprofile(None)
print(json.dumps({
    "exit": codes,
    "entered": sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}),
    "hits": {f"{name.partition('.')[2]}.{var}": obj.cache_info().hits
             for name, mod in list(sys.modules.items()) if name.startswith("loopstable.")
             for var, obj in vars(mod).items()
             if hasattr(obj, "cache_info") and obj.__module__ == name},
}))
"""

# the dual numbers on a = 1 + 4x, b = 1/2 + x, in the file format
_DUAL_FILE = ("basis: a b\nunit: -1*a + 4*b\na*a = 3*a - 4*b\n"
              "a*b = 1*a - 1*b\nb*a = 1*a - 1*b\nb*b = 1/4*a\n")


def defined_functions(sources):
    """``(module, first line, name) -> qualified name`` for each ``def`` in
    ``sources`` (module name -> source text), nested ones included; the
    first line is that of the first decorator, as in ``co_firstlineno``."""
    found = {}

    def visit(node, mod, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                line = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[mod, line, child.name] = name
            visit(child, mod, name)

    for mod, text in sources.items():
        visit(ast.parse(text), mod, mod)
    return found


def cache_sites(sources):
    """``module.name`` of each module-level ``@cache`` function and
    ``name = cache(...)`` in ``sources``; any other use of ``cache`` is
    ``module:line``, which no module-level cache can match."""
    sites = set()
    for mod, text in sources.items():
        tree = ast.parse(text)
        named = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                named.update({id(d): stmt.name for d in stmt.decorator_list})
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                named[id(stmt.value.func)] = stmt.targets[0].id
        sites.update(f"{mod}.{named[id(n)]}" if id(n) in named else f"{mod}:{n.lineno}"
                     for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "cache")
    return sites


def test_every_function_is_entered_and_every_cache_hit(tmp_path):
    alg = tmp_path / "dual.alg"
    alg.write_text(_DUAL_FILE, encoding="utf-8")
    runs = [f"builtin:{a}" for a in ("q", "dual", "sq0", "m2q")]
    argv = [arg for a in runs for arg in (a, "text")] + [f"file:{alg}", "json"]
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p)
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _CATALOG_UNDER_PROFILE, *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout)
    assert out["exit"] == [0] * 5
    entered = {(Path(f).stem, line, name) for f, line, name in out["entered"]
               if Path(f).parent == SRC}
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    defs = defined_functions(sources)
    assert sorted(q for key, q in defs.items() if key not in entered) == sorted(UNENTERED_ALLOWED)
    assert set(out["hits"]) == cache_sites(sources)
    assert [c for c, hits in out["hits"].items() if not hits] == []


def test_detects_defs_and_caches():
    src = ("from functools import cache\n"
           "class C:\n    @property\n    def p(self):\n"
           "        def inner():\n            return 1\n        return lambda: inner\n"
           "@cache\ndef f():\n    return 0\n"
           "g = cache(f)\n"
           "def h():\n    return cache(f)\n")
    assert defined_functions({"m": src}) == {
        ("m", 3, "p"): "m.C.p", ("m", 5, "inner"): "m.C.p.inner",
        ("m", 8, "f"): "m.f", ("m", 12, "h"): "m.h",
    }
    assert cache_sites({"m": src}) == {"m.f", "m.g", "m:13"}


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


def test_tensor_layer_takes_only_cube_algebras_and_coefficient_maps_from_funalg():
    # κ lands in cube algebras and lifts coefficients; the function-algebra
    # morphisms live in funalg and λ in extensions
    tree = ast.parse((SRC / "tensorj.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.module or "").removeprefix("loopstable.") == "funalg"
             for alias in node.names}
    assert names == {"function_algebra", "apply_to_coefficients"}


def test_detects_a_package_import():
    src = ("import os\nfrom .poly import cp_add\nfrom loopstable.tensorj import j_of\n"
           "import loopstable.funalg\nfrom typing import Any\n")
    assert package_imports(src) == {"poly", "tensorj", "funalg"}
