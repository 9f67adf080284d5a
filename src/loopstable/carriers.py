"""The carrier protocol and generic compound carriers.

A *carrier* is an algebra whose elements are canonical immutable (hashable)
Python values; the carrier object interprets them (arithmetic, zero test,
membership) and, where it can, draws deterministic samples of them from a
``random.Random`` (:meth:`Carrier.sample`, and :meth:`Carrier.draws` for a
list of them from one seed, the one place in the package that seeds a
``random.Random``).  The arithmetic is ``zero``, ``add``, ``scale`` and one
sum of products of one or two factors, :meth:`Carrier.combine`, of which
``mul`` is the one-term case; a longer word is multiplied out in
:mod:`loopstable.tensorj` alone.  Every carrier sums in one pass: ``RAT``,
``FinAlgebra``, ``TensorAlgebra`` (and its subclass ``JKernel``) and
``FunctionAlgebra`` build one dict and canonicalise it once, instead of
once per term; a ``PullbackCarrier`` sums each component in one pass of its
own carrier, and the homotopy carrier ``PolyExtension`` sums with
``poly.cp_combine``.  Where zero is decidable every element has exactly one
representation, so ``==`` is equality and ``x == zero()`` is the zero test.
A carrier with a canonical basis sets ``based`` and answers ``basis_vec``
and ``coordinates``; these are ``FinAlgebra`` and the tensor carriers over
a based carrier.  Concrete carriers: finite-dimensional algebras
(:mod:`loopstable.algebras`), polynomial function algebras
(:mod:`loopstable.funalg`), tensor algebras and J-kernels
(:mod:`loopstable.tensorj`), and the homotopy carrier ``C[u]``
(:mod:`loopstable.extensions`); here live the ground field ``RAT``, the
coefficient carrier of scalar polynomials, and the generic pullback.

A map between carriers is a :class:`Morphism`, an algebra map of
:mod:`loopstable.algebras` included; composites are chains of
:meth:`Morphism.after`.  :func:`replay`, the one caller of
``Carrier.draws``, checks lists of laws (two morphisms on one source) and
pair laws (such as additivity) exactly on draws, or at zero samples on
fixed elements such as a basis, each morphism evaluated once per element.
This module imports nothing from the package.

A rational coefficient is an ``int``, or a ``Fraction`` when it is not
integral.  ``hash`` and ``==`` agree across the two types, so canonical
forms compare and hash alike whichever type a coefficient has; integers
only keep the arithmetic off the slow ``Fraction`` path.  :func:`rat` is
where a given or parsed coefficient enters.

A replayed identity that fails raises :class:`Mismatch`; an argument out
of a function's domain raises a plain ``ValueError``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple


class Mismatch(ValueError):
    """A replayed identity does not hold.  The message says which identity;
    ``values`` holds each offending value by name (at least one)."""

    def __init__(self, detail: str, **values: Any) -> None:
        super().__init__(detail)
        self.values = values


class Carrier:
    """Base class: an algebra interpreting canonical immutable elements.

    Arithmetic returns canonical elements, so two elements of a carrier
    that decides zero are equal exactly when they are ``==``.  A subclass
    implements ``zero``, ``add``, ``scale``, ``contains`` and a one-pass
    :meth:`combine`, through which ``mul`` multiplies.
    """

    name: str = "?"
    #: whether ``==`` decides equality (False for formal tensors, whose
    #: equal elements may be spelled differently)
    can_decide_zero: bool = True
    #: whether the carrier has a canonical basis, answered by
    #: ``basis_vec(key)`` and ``coordinates(x)`` (the ``(key, coefficient)``
    #: pairs of ``x`` in key order)
    based: bool = False
    #: whether an element is a sparse combination ``((word, rational), ...)``
    #: of tuples multiplied by concatenation (the tensor carriers), so that
    #: ``poly.cp_combine`` may multiply its polynomials word by word
    concatenates: bool = False

    def zero(self) -> Any:
        raise NotImplementedError

    def add(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    def neg(self, x: Any) -> Any:
        return self.scale(-1, x)

    def sub(self, x: Any, y: Any) -> Any:
        return self.add(x, self.neg(y))

    def scale(self, a: int | Fraction, x: Any) -> Any:
        """``a·x`` for a rational ``a``: an int, or a Fraction when not
        integral."""
        raise NotImplementedError

    def mul(self, x: Any, y: Any) -> Any:
        return self.combine(((1, (x, y)),))

    def combine(self, terms: Iterable[Tuple[int | Fraction, Sequence[Any]]]) -> Any:
        """Σ aᵢ·xᵢ and Σ aᵢ·xᵢ·yᵢ in one, over terms ``(aᵢ, (xᵢ,))`` and
        ``(aᵢ, (xᵢ, yᵢ))`` of a rational and one or two elements."""
        raise NotImplementedError

    def is_zero(self, x: Any) -> bool:
        return x == self.zero()

    def contains(self, x: Any) -> bool:
        """Structural membership validation (may be expensive)."""
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Any:
        """A deterministic random element drawn from ``rng``."""
        raise ValueError(f"no sampler for carrier {self.name}")

    def draws(self, count: int, seed: int) -> list:
        """``count`` samples drawn in turn from one ``random.Random(seed)``."""
        rng = random.Random(seed)
        return [self.sample(rng) for _ in range(count)]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def rat(x) -> int | Fraction:
    """``x`` as a rational coefficient: an int, or a Fraction when not
    integral."""
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


class Rationals(Carrier):
    """The ground field as a carrier; an element is an int, or a Fraction
    when it is not integral."""

    name = "QQ"

    def zero(self):
        return 0

    def add(self, x, y):
        return x + y

    def scale(self, a, x):
        return a * x

    def combine(self, terms):
        s = 0
        for a, xs in terms:
            for x in xs:
                a = a * x
            s += a
        return s

    def is_zero(self, x):
        return x == 0

    def contains(self, x):
        # bool is an int subclass and float is inexact: both are rejected
        return type(x) is int or type(x) is Fraction

    def sample(self, rng):
        return rng.randint(-3, 3)


#: shared instance — the ground field never varies
RAT = Rationals()


class PullbackCarrier(Carrier):
    """Fibre product of two carriers over a common target.

    Elements are pairs ``(l, r)`` with ``lmap(l) == rmap(r)`` in ``over``;
    the constraint is validated by :meth:`contains`, making the structural
    identities of projections (e.g. π∘ι = 0) hold by representation.
    A pullback has no generic sampler: its constructor takes ``sample``,
    which draws compatible pairs.
    """

    def __init__(
        self,
        left: Carrier,
        right: Carrier,
        over: Carrier,
        lmap: Callable[[Any], Any],
        rmap: Callable[[Any], Any],
        sample: Callable[[random.Random], Any],
        name: str = "",
    ) -> None:
        self.left = left
        self.right = right
        self.over = over
        self.lmap = lmap
        self.rmap = rmap
        self.sample = sample
        self.name = name or f"({left.name} x_{over.name} {right.name})"
        self.can_decide_zero = left.can_decide_zero and right.can_decide_zero

    def zero(self):
        return (self.left.zero(), self.right.zero())

    def make(self, l, r):
        el = (l, r)
        if not self.contains(el):
            raise ValueError(f"pair violates the {self.name} compatibility")
        return el

    def add(self, x, y):
        return (self.left.add(x[0], y[0]), self.right.add(x[1], y[1]))

    def scale(self, a, x):
        return (self.left.scale(a, x[0]), self.right.scale(a, x[1]))

    def combine(self, terms):
        terms = list(terms)
        return tuple(
            car.combine((a, tuple(x[side] for x in xs)) for a, xs in terms)
            for side, car in enumerate((self.left, self.right))
        )

    def contains(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        l, r = x
        if not (self.left.contains(l) and self.right.contains(r)):
            return False
        if not self.over.can_decide_zero:
            return True
        return self.lmap(l) == self.rmap(r)


# -- morphisms -----------------------------------------------------------


class Morphism:
    """A named morphism with exact evaluation semantics.

    The ``name`` is the expression tree in textual form; composites record
    their constituents.  Equality of morphisms is never decided here — only
    observational agreement on sampled elements (:func:`replay`).
    """

    def __init__(self, source: Carrier, target: Carrier, fn: Callable, name: str,
                 factors: Optional[Tuple["Morphism", "Morphism"]] = None):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name
        self.factors = factors  # (g, f) for the composite g ∘ f of :meth:`after`

    def __call__(self, x):
        return self.fn(x)

    def after(self, other: "Morphism") -> "Morphism":
        """The composite self ∘ other.  When one side is the identity of
        its carrier (``identity_morphism``), the other side is returned
        itself; a map with an identity function between two different
        carriers, such as an inclusion, is composed like any other."""
        if is_identity(other) and other.target is self.source:
            return self
        if is_identity(self) and self.source is other.target:
            return other
        return Morphism(
            other.source,
            self.target,
            lambda x: self.fn(other.fn(x)),
            f"({self.name} . {other.name})",
            (self, other),
        )

    def named(self, name: str) -> "Morphism":
        """This map under another name."""
        return Morphism(self.source, self.target, self.fn, name, self.factors)

    def __repr__(self):
        return f"<Morphism {self.name}: {self.source.name} -> {self.target.name}>"


@cache
def identity_morphism(car: Carrier) -> Morphism:
    """id on ``car``, one per carrier (by identity)."""
    return Morphism(car, car, lambda x: x, f"id[{car.name}]")


def is_identity(f: Morphism) -> bool:
    """Whether ``f`` is :func:`identity_morphism` of its carrier; only an
    endomorphism is looked up."""
    return f.source is f.target and f is identity_morphism(f.source)


def zero_morphism(source: Carrier, target: Carrier) -> Morphism:
    return Morphism(source, target, lambda x: target.zero(), "0")


def replay(laws: Sequence[tuple], samples: int, seed: int, pairs: Sequence[tuple] = (),
           sources: Optional[Sequence[Carrier]] = None) -> int:
    """Replay laws exactly on deterministic draws; returns ``samples``.

    ``sources`` (by default the first law's source) draw ``samples``
    elements each, the k-th at ``seed + k``, so a carrier listed twice
    draws two lists xs₀, xs₁.  A law ``(lhs, rhs, what)`` compares two
    morphisms on each element of xs₀, or of ``on(xs₀, xs₁, …)`` if it has a
    fourth item ``on``.  Then a pair law ``(lhs, rhs, what)`` compares
    ``lhs(at, x, y)`` with ``rhs(at, x, y)`` on each pair of xs₀[::2] with
    xs₀[1::2], or of its own ``on``.  ``at(f, x)`` is ``f(x)`` for a
    morphism, ``at(g, x, y)`` is ``g(at, x, y)``, and each, like the right
    factor of each composite of :meth:`Morphism.after`, is evaluated once
    per element or pair.  The first element or pair i where the sides
    differ raises ``Mismatch("<what> at sample i")`` naming it ``element``,
    or ``x`` and ``y``.
    """
    for lhs, rhs, *_ in laws:
        if lhs.source is not rhs.source:
            raise ValueError(f"{lhs.name} and {rhs.name} have different sources: "
                             f"{lhs.source.name} and {rhs.source.name}")
    drawn = [s.draws(samples, seed + k)
             for k, s in enumerate(sources or [laws[0][0].source])]
    memo: Dict[tuple, Tuple[tuple, Any]] = {}

    def at(f, *xs):
        key = (f, *map(id, xs))
        if key not in memo:  # holding xs keeps their ids their own
            memo[key] = (xs, f(at, *xs) if not isinstance(f, Morphism) else
                         f.factors[0].fn(at(f.factors[1], *xs)) if f.factors else f.fn(*xs))
        return memo[key][1]

    try:
        for lhs, rhs, what, *on in laws:
            for i, x in enumerate(on[0](*drawn) if on else drawn[0]):
                if at(lhs, x) != at(rhs, x):
                    raise Mismatch(f"{what} at sample {i}", element=x)
        xs = drawn[0]
        for lhs, rhs, what, *on in pairs:
            for i, (x, y) in enumerate(on[0](*drawn) if on else zip(xs[::2], xs[1::2])):
                if lhs(at, x, y) != rhs(at, x, y):
                    raise Mismatch(f"{what} at sample {i}", x=x, y=y)
    finally:
        memo.clear()  # `at` refers to itself: free the values now, not at the next collection
    return samples


def preserves(f: Morphism, op: str, what: str) -> tuple:
    """The pair law f(x + y) = f(x) + f(y) for ``op`` "add", "<what> not
    additive", or f(xy) = f(x)f(y) for "mul", "<what> not multiplicative"."""
    src_op, tgt_op = getattr(f.source, op), getattr(f.target, op)
    return (lambda at, x, y: f(src_op(x, y)), lambda at, x, y: tgt_op(at(f, x), at(f, y)),
            f"{what} not {'additive' if op == 'add' else 'multiplicative'}")
