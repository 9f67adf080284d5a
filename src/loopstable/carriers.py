"""The carrier protocol and generic compound carriers.

A *carrier* is an algebra whose elements are canonical immutable (hashable)
Python values; the carrier object interprets them (arithmetic, zero test,
membership) and, where it can, draws deterministic samples of them from a
``random.Random`` (:meth:`Carrier.sample`, and :meth:`Carrier.draws` for a
list of them from one seed).  The arithmetic is ``zero``,
``add``, ``scale`` and one sum of products, :meth:`Carrier.combine`
(Σ aᵢ·xᵢ₁⋯xᵢₖ), of which ``mul`` is the one-term case.  ``combine``
defaults to a fold of ``mul``, ``scale`` and ``add``; a carrier whose
elements are sparse combinations overrides it to build one dict and
canonicalise it once, instead of once per term.  The one-pass overrides
are ``RAT``, ``FinAlgebra``, ``TensorAlgebra`` (and ``JKernel``, which
delegates to it) and ``FunctionAlgebra``; ``PullbackCarrier`` and
``PolyExtension`` keep the fold and give their own ``mul``.  Where zero
is decidable every element has exactly one representation, so ``==`` is
equality and ``x == zero()`` is the zero test.  Concrete carriers:
finite-dimensional algebras (:mod:`loopstable.algebras`), polynomial
function algebras (:mod:`loopstable.funalg`), tensor algebras and
J-kernels (:mod:`loopstable.tensorj`), and the homotopy carrier ``C[u]``
(:mod:`loopstable.extensions`); here live the ground field ``RAT``, the
coefficient carrier of scalar polynomials, and the generic pullback.  This
module imports nothing from the package.

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
from functools import reduce
from typing import Any, Callable, Iterable, Sequence, Tuple


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
    implements ``zero``, ``add``, ``scale``, ``contains`` and either
    ``mul`` (which the default :meth:`combine` folds) or a one-pass
    :meth:`combine` (through which ``mul`` multiplies).
    """

    name: str = "?"
    #: whether ``==`` decides equality (False for formal tensors, whose
    #: equal elements may be spelled differently)
    can_decide_zero: bool = True

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
        """Σ aᵢ·xᵢ₁⋯xᵢₖ over terms ``(aᵢ, (xᵢ₁, …, xᵢₖ))`` of a rational and
        k ≥ 1 elements."""
        out = []
        for a, xs in terms:
            p = reduce(self.mul, xs)
            out.append(p if a == 1 else self.scale(a, p))
        return reduce(self.add, out) if out else self.zero()

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

    def mul(self, x, y):
        return x * y

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

    def mul(self, x, y):
        return (self.left.mul(x[0], y[0]), self.right.mul(x[1], y[1]))

    def contains(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        l, r = x
        if not (self.left.contains(l) and self.right.contains(r)):
            return False
        if not self.over.can_decide_zero:
            return True
        return self.lmap(l) == self.rmap(r)
