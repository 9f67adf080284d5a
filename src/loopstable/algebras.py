"""Finite-dimensional algebras given by exact structure constants.

Elements are canonical vectors ``((label, coefficient), ...)``, each
coefficient an int, or a Fraction when not integral: sparse
combinations of basis labels over the rationals in the canonical form of
:mod:`loopstable.poly`.  ``add`` and ``scale`` are ``cp_add``/``cp_scale``
over ``RAT``; the sum of products ``combine`` (and ``mul``, its one-term
case) collects every term in one dict and canonicalises it once.
Includes the built-in test algebras and the text file format consumed by
the CLI.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .carriers import RAT, Carrier, Morphism, rat, replay
from .poly import cp_add, cp_norm, cp_scale

#: ``((label, coefficient), ...)``; a coefficient is an int, or a Fraction
#: when not integral
Vec = Tuple[Tuple[str, Union[int, Fraction]], ...]


def vec(d: Dict[str, Any]) -> Vec:
    return cp_norm(RAT, {k: rat(v) for k, v in d.items()})


class FinAlgebra(Carrier):
    """An associative, not necessarily unital algebra over the rationals.

    Parameters
    ----------
    name : printable name.
    labels : basis labels.
    table : structure constants, ``(i, j) -> Vec`` for the product of basis
        elements ``i·j``; missing entries mean zero.
    unit : optional two-sided unit vector.

    Every algebra is validated when it is built (:meth:`validate`).
    """

    based = True

    def __init__(
        self,
        name: str,
        labels: Iterable[str],
        table: Dict[Tuple[str, str], Vec],
        unit: Optional[Vec] = None,
    ) -> None:
        self.name = name
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate basis labels")
        self.table = {k: vec(dict(v)) for k, v in table.items() if v}
        self.unit = None if unit is None else vec(dict(unit))
        self.validate()

    # -- carrier interface ----------------------------------------------

    def zero(self) -> Vec:
        return ()

    def basis_vec(self, label: str) -> Vec:
        if label not in self.labels:
            raise ValueError(f"unknown basis label {label!r}")
        return ((label, 1),)

    def coordinates(self, x: Vec) -> Vec:
        """The coordinates of ``x`` in the basis: ``x`` itself."""
        return x

    def basis(self) -> List[Vec]:
        return [self.basis_vec(l) for l in self.labels]

    def add(self, x: Vec, y: Vec) -> Vec:
        return cp_add(RAT, x, y)

    def scale(self, a, x: Vec) -> Vec:
        return cp_scale(RAT, a, x)

    def combine(self, terms) -> Vec:
        d: Dict[str, Any] = {}
        get = d.get
        tbl = self.table
        for a, xs in terms:
            n = len(xs)
            if n == 1:
                for k, c in xs[0]:
                    d[k] = get(k, 0) + a * c
                continue
            if n > 2:
                xs = (reduce(self.mul, xs[:-1]), xs[-1])
            x, y = xs
            for i, ci in x:
                ci = a * ci
                for j, cj in y:
                    e = tbl.get((i, j))
                    if not e:
                        continue
                    c = ci * cj
                    for k, ck in e:
                        d[k] = get(k, 0) + c * ck
        return cp_norm(RAT, d)

    def contains(self, x) -> bool:
        return isinstance(x, tuple) and all(
            isinstance(k, str) and k in self.labels and RAT.contains(v)
            for k, v in x
        )

    def sample(self, rng) -> Vec:
        return vec({l: rng.randint(-2, 2) for l in self.labels})

    # -- validation ------------------------------------------------------

    def validate(self) -> None:
        """Replay the algebra's own laws at zero samples: the unit laws
        u·b = b = b·u on the basis, then associativity on the label pairs
        (i, (j, k)).  A structure constant on an unknown label, or with an
        invalid value, is an argument error."""
        for (i, j), v in self.table.items():
            if i not in self.labels or j not in self.labels:
                raise ValueError(f"structure constant on unknown pair ({i},{j})")
            if not self.contains(v):
                raise ValueError(f"structure constant value for ({i},{j}) invalid")
        b, mul, u = self.basis_vec, self.mul, self.unit
        laws = []
        if u is not None:
            # not identity_morphism, whose cache would keep every algebra alive
            ida = Morphism(self, self, lambda x: x, "id")
            left = Morphism(self, self, lambda x: mul(u, x), "u*")
            right = Morphism(self, self, lambda x: mul(x, u), "*u")
            laws = [(side, ida, "declared unit is not two-sided", lambda xs: self.basis())
                    for side in (left, right)]
        triples = [(i, (j, k)) for i in self.labels for j in self.labels for k in self.labels]
        replay(laws, 0, 0, [(lambda at, i, jk: mul(mul(b(i), b(jk[0])), b(jk[1])),
                             lambda at, i, jk: mul(b(i), mul(b(jk[0]), b(jk[1]))),
                             "multiplication not associative", lambda xs: triples)],
               sources=[self])


def algebra_map(source: FinAlgebra, target: FinAlgebra, images: Dict[str, Vec],
                name: str) -> Morphism:
    """The algebra map x ↦ Σ c·images[k] given on the basis of ``source``,
    replayed multiplicative on the basis label pairs when built."""
    images = {l: vec(dict(v)) for l, v in images.items()}
    if set(images) != set(source.labels):
        raise ValueError("images must be given on the whole basis")
    f = Morphism(source, target,
                 lambda x: target.combine((c, (images[k],)) for k, c in x), name)
    b = source.basis_vec
    pairs = [(i, j) for i in source.labels for j in source.labels]
    replay([], 0, 0, [(lambda at, i, j: f(source.mul(b(i), b(j))),
                       lambda at, i, j: target.mul(images[i], images[j]),
                       f"{name} not multiplicative", lambda xs: pairs)],
           sources=[source])
    return f


# -- built-in algebras ---------------------------------------------------


def rationals() -> FinAlgebra:
    """Q, with basis {1}."""
    return FinAlgebra("Q", ["1"], {("1", "1"): (("1", 1),)}, unit=(("1", 1),))


def dual_numbers() -> FinAlgebra:
    """Q[x]/(x²)."""
    return FinAlgebra(
        "Q[x]/(x^2)",
        ["1", "x"],
        {
            ("1", "1"): (("1", 1),),
            ("1", "x"): (("x", 1),),
            ("x", "1"): (("x", 1),),
            # x*x = 0
        },
        unit=(("1", 1),),
    )


def m2q() -> FinAlgebra:
    """2×2 rational matrices, basis the elementary matrices e_{ij}."""
    labels = ["e11", "e12", "e21", "e22"]
    table = {}
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    if j == k:
                        table[(f"e{i}{j}", f"e{k}{l}")] = ((f"e{i}{l}", 1),)
    return FinAlgebra("M2(Q)", labels, table, unit=(("e11", 1), ("e22", 1)))


def square_zero() -> FinAlgebra:
    """The 2-dimensional nonunital algebra with all products zero."""
    return FinAlgebra("sq0", ["a", "b"], {}, unit=None)


BUILTIN_ALGEBRAS = {
    "q": rationals,
    "dual": dual_numbers,
    "m2q": m2q,
    "sq0": square_zero,
}


def product_algebra(B: FinAlgebra, C: FinAlgebra) -> Tuple[FinAlgebra, Morphism, Morphism]:
    """B × C with componentwise structure constants, plus projections."""
    labels = [f"l.{l}" for l in B.labels] + [f"r.{l}" for l in C.labels]
    table: Dict[Tuple[str, str], Vec] = {}
    for (i, j), v in B.table.items():
        table[(f"l.{i}", f"l.{j}")] = tuple((f"l.{k}", c) for k, c in v)
    for (i, j), v in C.table.items():
        table[(f"r.{i}", f"r.{j}")] = tuple((f"r.{k}", c) for k, c in v)
    unit = None
    if B.unit is not None and C.unit is not None:
        unit = tuple((f"l.{k}", c) for k, c in B.unit) + tuple(
            (f"r.{k}", c) for k, c in C.unit
        )
    P = FinAlgebra(f"({B.name}x{C.name})", labels, table, unit=unit)
    pr1 = algebra_map(
        P, B,
        {**{f"l.{l}": B.basis_vec(l) for l in B.labels},
         **{f"r.{l}": B.zero() for l in C.labels}},
        name="pr1",
    )
    pr2 = algebra_map(
        P, C,
        {**{f"l.{l}": C.zero() for l in B.labels},
         **{f"r.{l}": C.basis_vec(l) for l in C.labels}},
        name="pr2",
    )
    return P, pr1, pr2


# -- algebra file format -------------------------------------------------

# a term's sign may stand apart from its coefficient: "- 1*b"
_TERM = re.compile(r"^\s*(-?)\s*(\d+(?:/\d+)?)\s*\*\s*([A-Za-z0-9_.]+)\s*$")


def _parse_combo(text: str, labels: Tuple[str, ...], line: str) -> Vec:
    """The vector ``text`` spells on ``labels``; an empty term, or an empty
    ``text``, is an error naming ``line``.  The zero vector is ``0``."""
    d: Dict[str, Any] = {}
    text = text.strip()
    if text == "0":
        return ()
    if not all(chunk.strip() for chunk in text.split("+")):
        raise ValueError(f"empty term in {line!r}")
    # a term ends at each + and before each - that does not follow * or /
    for term in re.split(r"\+|(?<![*/])(?=-)", text):
        term = term.strip()
        if not term:  # what the split leaves before a leading -
            continue
        part = term
        if part.startswith("-") and "*" not in part:
            part = f"-1*{part[1:].strip()}"
        if "*" not in part:
            part = f"1*{part}"
        m = _TERM.match(part)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        try:
            coeff = Fraction(m.group(1) + m.group(2))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {term!r}") from None
        label = m.group(3)
        if label not in labels:
            raise ValueError(f"unknown label {label!r}")
        d[label] = d.get(label, 0) + coeff
    return vec(d)


def parse_algebra_file(text: str) -> FinAlgebra:
    """Parse the algebra definition format.

    ::

        name: my-algebra
        basis: a b c
        unit: 1*a            # optional
        a*b = 1/2*c + -1*a   # missing products are zero

    Coefficients are exact fractions ``p`` or ``p/q``.  Lines may come in
    any order: the unit and the products are read against the basis once
    the whole file is read.  A repeated ``name:``, ``basis:`` or ``unit:``
    line, or a repeated product pair, is an error.
    """
    name = "unnamed"
    labels: Tuple[str, ...] = ()
    unit: Optional[Tuple[str, str]] = None  # (line, right-hand side)
    products: Dict[Tuple[str, str], Tuple[str, str]] = {}
    headers = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("name:", "basis:", "unit:")):
            header, _, rest = line.partition(":")
            if header in headers:
                raise ValueError(f"repeated {header!r} line")
            headers.add(header)
            if header == "name":
                name = rest.strip()
            elif header == "basis":
                labels = tuple(rest.split())
            else:
                unit = (line, rest)
        elif "=" in line:
            lhs, rhs = line.split("=", 1)
            if "*" not in lhs:
                raise ValueError(f"malformed product line {line!r}")
            i, j = (s.strip() for s in lhs.split("*", 1))
            if (i, j) in products:
                raise ValueError(f"repeated product {i}*{j}")
            products[(i, j)] = (line, rhs)
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if not labels:
        raise ValueError("algebra file declares no basis")
    table: Dict[Tuple[str, str], Vec] = {}
    for (i, j), (line, rhs) in products.items():
        if i not in labels or j not in labels:
            raise ValueError(f"unknown labels in {line!r}")
        table[(i, j)] = _parse_combo(rhs, labels, line)
    return FinAlgebra(name, labels, table,
                      unit=None if unit is None else _parse_combo(unit[1], labels, unit[0]))


def format_algebra_file(A: FinAlgebra) -> str:
    lines = [f"name: {A.name}", f"basis: {' '.join(A.labels)}"]
    if A.unit is not None:
        lines.append("unit: " + " + ".join(f"{c}*{k}" for k, c in A.unit))
    for (i, j), v in sorted(A.table.items()):
        rhs = " + ".join(f"{c}*{k}" for k, c in v)
        lines.append(f"{i}*{j} = {rhs}")
    return "\n".join(lines) + "\n"
