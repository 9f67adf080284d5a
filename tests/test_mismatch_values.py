"""Every ``Mismatch`` raised in ``loopstable`` names at least one offending
value, so that every FAIL carries its counterexample."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loopstable"


def mismatches(source: str):
    """``(line, number of named values)`` for each call of ``Mismatch``."""
    return sorted(
        (node.lineno, len(node.keywords))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Mismatch"
    )


def test_every_mismatch_names_an_offending_value():
    calls = {p.name: mismatches(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    # replay, the extension and certificate validators and the check
    # bodies all fail through the one class
    for module in ("carriers.py", "extensions.py", "verifier.py"):
        assert calls[module], module
    valueless = [(name, line) for name, found in calls.items()
                 for line, n in found if n == 0]
    assert valueless == []


def test_detects_a_valueless_mismatch():
    src = (
        "def f(x):\n"
        "    if x:\n"
        "        raise Mismatch('x fails', element=x)\n"
        "    raise Mismatch('no value')\n"
    )
    assert mismatches(src) == [(3, 1), (4, 0)]
