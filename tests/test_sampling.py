"""Carriers sample themselves: every carrier the catalog draws from yields
members of itself, a carrier without a sampler says so by name, and every
sample comes from ``Carrier.draws``, the one place that seeds a
``random.Random``, called only by ``carriers.replay``; no check compares
elements in a loop of its own."""

import ast
import random
import re
from pathlib import Path

import pytest

from loopstable.algebras import algebra_map, dual_numbers, rationals, square_zero
from loopstable.carriers import RAT, identity_morphism
from loopstable.extensions import (
    PolyExtension,
    mapping_cylinder,
    mapping_path,
    tr4_tower,
)
from loopstable.funalg import function_algebra
from loopstable.simplicial import cube
from loopstable.tensorj import j_tower, tensor_algebra

ALGEBRAS = {"dual": dual_numbers(), "sq0": square_zero()}
Q = rationals()


def augmentation(A):
    """The algebra map A → Q keeping the unit and killing every other
    basis vector (the zero map when A has no unit)."""
    images = {l: Q.basis_vec("1") if l == "1" else Q.zero() for l in A.labels}
    return algebra_map(A, Q, images, "aug")


def carrier(kind, A):
    ida = identity_morphism(A)
    if kind == "A":
        return A
    if kind == "RAT":
        return RAT
    if kind in ("J(A)", "J2(A)"):
        return j_tower(A, 1 if kind == "J(A)" else 2)[-1]
    if kind.startswith("A^(S_1)_"):
        return function_algebra(A, cube(1), int(kind[-1]))
    if kind == "P[id]":
        return mapping_path(ida).mid
    if kind == "P[aug]":
        return mapping_path(augmentation(A)).mid
    if kind == "P[pi]":
        return mapping_path(mapping_path(ida).pi).mid
    if kind == "Z[id]":
        return mapping_cylinder(ida).extension.mid
    if kind == "P[eta]":
        return tr4_tower(ida, ida).mp_eta.mid
    raise ValueError(kind)


KINDS = ["A", "RAT", "J(A)", "J2(A)", "A^(S_1)_0", "A^(S_1)_1",
         "P[id]", "P[aug]", "P[pi]", "Z[id]", "P[eta]"]


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
def test_samples_are_members(kind, alg):
    car = carrier(kind, ALGEBRAS[alg])
    rng = random.Random(3)
    for _ in range(3):
        x = car.sample(rng)
        assert car.contains(x), (car.name, x)


@pytest.mark.parametrize("make", [tensor_algebra, PolyExtension],
                         ids=["T(A)", "A[u]"])
def test_carrier_without_sampler_names_itself(make):
    car = make(ALGEBRAS["dual"])
    with pytest.raises(ValueError, match=re.escape(f"no sampler for carrier {car.name}")):
        car.sample(random.Random(0))


SRC = Path(__file__).resolve().parent.parent / "src" / "loopstable"


def call_scopes(source: str, is_target) -> list:
    """The qualified name of the definition around each call whose callee
    expression satisfies ``is_target``, ``<module>`` at top level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call) and is_target(child.func):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def rng_constructions(source: str):
    """The scope of each call of ``random.Random`` (or a bare ``Random``)."""
    return call_scopes(source, lambda f: ast.unparse(f) in ("random.Random", "Random"))


def draws_calls(source: str):
    """The scope of each call of a ``.draws`` method."""
    return call_scopes(source, lambda f: isinstance(f, ast.Attribute) and f.attr == "draws")


def mismatches_in_loops(source: str) -> list:
    """The line of each ``raise Mismatch`` inside a ``for`` or ``while`` loop."""
    def names_mismatch(exc):
        f = exc.func if isinstance(exc, ast.Call) else exc
        return getattr(f, "id", getattr(f, "attr", None)) == "Mismatch"

    return sorted({node.lineno for loop in ast.walk(ast.parse(source))
                   if isinstance(loop, (ast.For, ast.AsyncFor, ast.While))
                   for node in ast.walk(loop)
                   if isinstance(node, ast.Raise) and node.exc and names_mismatch(node.exc)})


def test_no_check_compares_elements_by_hand():
    # replay is the one comparison in a loop: a law on the basis, an
    # algebra's own laws included, is a replay law on fixed elements, so
    # its failure names its sample like any other law's
    found = {}
    for p in SRC.glob("*.py"):
        source = p.read_text(encoding="utf-8")
        replay_lines = {n for d in ast.parse(source).body
                        if isinstance(d, ast.FunctionDef) and d.name == "replay"
                        for n in range(d.lineno, d.end_lineno + 1)}
        lines = [n for n in mismatches_in_loops(source) if n not in replay_lines]
        if lines:
            found[p.stem] = lines
    assert found == {}


def test_detects_a_mismatch_raised_in_a_loop():
    src = (
        "def check(A):\n"
        "    if A.bad:\n"
        "        raise Mismatch('index data', v=1)\n"
        "    for l in A.labels:\n"
        "        if l:\n"
        "            raise Mismatch(f'law fails at {l!r}', element=l)\n"
        "    while A:\n"
        "        raise carriers.Mismatch\n"
        "    for l in A.labels:\n"
        "        raise ValueError(l)\n"
    )
    assert mismatches_in_loops(src) == [6, 8]


def test_only_draws_seeds_a_generator():
    calls = {p.stem: rng_constructions(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    assert {m: c for m, c in calls.items() if c} == {"carriers": ["Carrier.draws"]}


def test_detects_a_private_generator():
    src = (
        "import random\n"
        "from random import Random\n"
        "class C:\n"
        "    def draws(self, seed):\n"
        "        return random.Random(seed)\n"
        "def check(seed):\n"
        "    rng = Random(seed)\n"
        "    return [random.Random(s) for s in (seed,)]\n"
    )
    assert rng_constructions(src) == ["C.draws", "check", "check"]


def test_only_replay_draws():
    # every sampled law is compared through carriers.replay, so sample counts
    # and the choice of draws change in one place
    calls = {p.stem: draws_calls(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    assert {m: c for m, c in calls.items() if c} == {"carriers": ["replay"]}


def test_detects_a_draw_outside_replay():
    src = (
        "def replay(laws, n, seed):\n"
        "    return [s.draws(n, seed) for s in laws]\n"
        "class E:\n"
        "    def validate(self):\n"
        "        for x in self.kernel.draws(4, 0):\n"
        "            pass\n"
        "xs = A.draws(2, 1)\n"
    )
    assert draws_calls(src) == ["replay", "E.validate", "<module>"]
