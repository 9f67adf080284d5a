"""Nonunital tensor algebras, counit kernels, and classifying-map machinery.

Two flavors of tensor carrier share one element shape
``((word, coefficient), ...)``, a sparse combination of words over the
rationals in the canonical form of :mod:`loopstable.poly` (sorted by the
native order of the words, which are tuples of letters); a coefficient is
an int, or a Fraction when not integral:

- *based*: the letters of a word are basis keys of the base carrier
  (labels of a finite-dimensional algebra, or length-≥2 words indexing the
  canonical basis of a counit kernel).  Words over a basis are linearly
  independent, so zero is decidable and ``==`` is equality.
- *formal*: letters are literal elements of the base carrier (used over
  function algebras and other unbased carriers).  Elements are only ever
  consumed letterwise; zero is not decidable, and ``==`` only compares
  spellings.

On top of these live the counit ``η`` (multiply the letters), the module
splitting ``σ``, curvature elements ``σ(a)σ(b) − σ(ab)``, the kernel
functor ``J`` on objects and morphisms, the word-map evaluation behind
classifying maps, the loop classifying map ``λ``, and the exchange maps
``κ^{n,m}``.  :func:`replay` compares two morphisms exactly on draws from
their common source.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, reduce
from typing import Any, Callable, Dict, List, Tuple, Union

from .algebras import FinAlgebra
from .carriers import RAT, Carrier, Mismatch
from .funalg import (
    FunctionAlgebra,
    apply_to_coefficients,
    function_algebra,
    poly_family,
    scalar_algebra,
    scalar_to_base,
    transition_n,
)
from .poly import ONE_MINUS_T, cp_add, cp_norm, cp_scale
from .simplicial import cube, interval_rel_one

Word = Tuple[Any, ...]
#: ``((word, coefficient), ...)``; a coefficient is an int, or a Fraction
#: when not integral
TElement = Tuple[Tuple[Word, Union[int, Fraction]], ...]


def is_based(car: Carrier) -> bool:
    """Whether the carrier exposes a canonical basis for σ."""
    if isinstance(car, FinAlgebra):
        return True
    if isinstance(car, JKernel):
        return car.ta.based
    return False


class TensorAlgebra(Carrier):
    """The nonunital tensor algebra T(A) (words of length ≥ 1)."""

    def __init__(self, base: Carrier) -> None:
        self.base = base
        self.based = is_based(base)
        flavor = "" if self.based else "'"
        self.name = f"T{flavor}({base.name})"
        self.can_decide_zero = self.based

    # -- canonical arithmetic -------------------------------------------

    def _norm(self, d: Dict[Word, Any]) -> TElement:
        # only a name for cp_norm over RAT: the benchmark's span recorder
        # (perfbench/spans.py) times the tensor canonicalisation by it
        return cp_norm(RAT, d)

    def combine(self, terms) -> TElement:
        d: Dict[Word, Any] = {}
        get = d.get
        for a, xs in terms:
            n = len(xs)
            if n == 1:
                for w, c in xs[0]:
                    d[w] = get(w, 0) + a * c
                continue
            if n > 2:
                xs = (reduce(self.mul, xs[:-1]), xs[-1])
            x, y = xs
            for w1, c1 in x:
                c1 = a * c1
                for w2, c2 in y:
                    w = w1 + w2
                    d[w] = get(w, 0) + c1 * c2
        return self._norm(d)

    def zero(self) -> TElement:
        return ()

    def add(self, x: TElement, y: TElement) -> TElement:
        return cp_add(RAT, x, y)

    def scale(self, a, x: TElement) -> TElement:
        return cp_scale(RAT, a, x)

    def contains(self, x) -> bool:
        if not isinstance(x, tuple):
            return False
        for w, c in x:
            if not (isinstance(w, tuple) and w and RAT.contains(c)):
                return False
        return True

    # -- letters, counit, splitting -------------------------------------

    def letter(self, k):
        """The carrier element behind a letter of a word."""
        return based_key_element(self.base, k) if self.based else k

    def eta(self, x: TElement):
        """The counit: multiply each word out in the base carrier."""
        return self.base.combine((c, tuple(map(self.letter, w))) for w, c in x)

    def sigma(self, b) -> TElement:
        """The module splitting A → T(A) by length-1 words."""
        if self.based:
            # the decomposition is canonical, and k ↦ (k,) keeps its order
            return tuple(((k,), c) for k, c in based_decompose(self.base, b))
        if b == self.base.zero():
            return ()
        return (((b,), 1),)

    def curvature(self, a, b) -> TElement:
        """σ(a)σ(b) − σ(ab), the canonical counit-kernel element."""
        return self.sub(self.mul(self.sigma(a), self.sigma(b)),
                        self.sigma(self.base.mul(a, b)))


class JKernel(Carrier):
    """The counit kernel J(A) ⊆ T(A), as a carrier in its own right.

    When the underlying tensor algebra is based, J(A) is itself based, with
    basis ``e_w = w − σ(η(w))`` indexed by the words of length ≥ 2.
    """

    def __init__(self, ta: TensorAlgebra) -> None:
        self.ta = ta
        flavor = "" if ta.based else "'"
        self.name = f"J{flavor}({ta.base.name})"
        self.can_decide_zero = ta.can_decide_zero
        #: e_w by word, filled on first use by :func:`based_key_element`
        self.basis_elements: Dict[Word, TElement] = {}

    def zero(self):
        return ()

    def add(self, x, y):
        return self.ta.add(x, y)

    def scale(self, a, x):
        return self.ta.scale(a, x)

    def combine(self, terms):
        return self.ta.combine(terms)

    def eta(self, x):
        return self.ta.eta(x)

    def contains(self, x) -> bool:
        if not self.ta.contains(x):
            return False
        if not self.ta.base.can_decide_zero:
            return True
        return self.ta.base.is_zero(self.ta.eta(x))

    def sample(self, rng):
        return sample_j_element(self.ta.base, rng)

    def check(self, x):
        if not self.contains(x):
            raise ValueError(f"element has nonzero counit image in {self.name}")
        return x


def based_decompose(car: Carrier, x) -> Tuple[Tuple[Any, int | Fraction], ...]:
    if isinstance(car, FinAlgebra):
        return x  # already ((label, coeff), ...)
    if isinstance(car, JKernel) and car.ta.based:
        return tuple((w, c) for w, c in x if len(w) >= 2)
    raise ValueError(f"carrier {car.name} has no canonical basis")


def based_key_element(car: Carrier, k):
    if isinstance(car, FinAlgebra):
        return car.basis_vec(k)
    if isinstance(car, JKernel) and car.ta.based:
        e = car.basis_elements.get(k)
        if e is None:
            w = ((k, 1),)
            e = car.basis_elements[k] = car.ta.sub(w, car.ta.sigma(car.ta.eta(w)))
        return e
    raise ValueError(f"carrier {car.name} has no canonical basis")


@cache
def tensor_algebra(base: Carrier) -> TensorAlgebra:
    """T(base), one per carrier (by identity)."""
    return TensorAlgebra(base)


@cache
def j_kernel(base: Carrier) -> JKernel:
    """J(base), one per carrier (by identity)."""
    return JKernel(tensor_algebra(base))


def j_tower(base: Carrier, depth: int) -> List[Carrier]:
    """[A, J(A), J²(A), ...] up to the requested depth."""
    out: List[Carrier] = [base]
    for _ in range(depth):
        out.append(j_kernel(out[-1]))
    return out


def curvature(base: Carrier, a, b) -> TElement:
    return tensor_algebra(base).curvature(a, b)


# -- morphisms -----------------------------------------------------------


class Morphism:
    """A named morphism with exact evaluation semantics.

    The ``name`` is the expression tree in textual form; composites record
    their constituents.  Equality of morphisms is never decided here — only
    observational agreement on sampled elements (:func:`replay`).
    """

    def __init__(self, source: Carrier, target: Carrier, fn: Callable, name: str):
        self.source = source
        self.target = target
        self.fn = fn
        self.name = name

    def __call__(self, x):
        return self.fn(x)

    def after(self, other: "Morphism") -> "Morphism":
        """The composite self ∘ other."""
        return Morphism(
            other.source,
            self.target,
            lambda x: self.fn(other.fn(x)),
            f"({self.name} . {other.name})",
        )

    def __repr__(self):
        return f"<Morphism {self.name}: {self.source.name} -> {self.target.name}>"


@cache
def identity_morphism(car: Carrier) -> Morphism:
    """id on ``car``, one per carrier (by identity)."""
    return Morphism(car, car, lambda x: x, f"id[{car.name}]")


def zero_morphism(source: Carrier, target: Carrier) -> Morphism:
    return Morphism(source, target, lambda x: target.zero(), "0")


def replay(lhs: Morphism, rhs: Morphism, samples: int, seed: int, what: str) -> int:
    """Compare ``lhs`` and ``rhs`` exactly on ``samples`` draws from their
    common source; returns ``samples``.  The first sample where they differ
    raises :class:`~loopstable.carriers.Mismatch` ``"<what> at sample i"``
    with that sample as ``element``."""
    if lhs.source is not rhs.source:
        raise ValueError(f"{lhs.name} and {rhs.name} have different sources: "
                         f"{lhs.source.name} and {rhs.source.name}")
    for i, x in enumerate(lhs.source.draws(samples, seed)):
        if lhs(x) != rhs(x):
            raise Mismatch(f"{what} at sample {i}", element=x)
    return samples


def word_image(ta: TensorAlgebra, x: TElement, letter_fn: Callable, target: Carrier):
    """Σ c_w Π letter_fn(letter): the evaluation scheme of classifying maps,
    every word multiplied out and summed in one ``target.combine``.  Each
    distinct letter is evaluated once."""
    images: Dict[Any, Any] = {}

    def image(k):
        v = images.get(k)
        if v is None:
            v = images[k] = letter_fn(ta.letter(k))
        return v

    return target.combine((c, tuple(map(image, w))) for w, c in x)


def j_of(f: Morphism) -> Morphism:
    """J applied to a morphism: letterwise image, formal target words."""
    dom = j_kernel(f.source)
    tgt = j_kernel(f.target)
    ta = tensor_algebra(f.source)
    tta = tensor_algebra(f.target)

    def fn(x):
        # T(f): letter l ↦ σ(f(l)), multiplied out in T(target)
        return word_image(ta, x, lambda l: tta.sigma(f(l)), tta)

    return Morphism(dom, tgt, fn, f"J({f.name})")


def j_of_n(f: Morphism, n: int) -> Morphism:
    for _ in range(n):
        f = j_of(f)
    return f


# -- the loop classifying map λ ------------------------------------------


def path_splitting(B: Carrier, fa_path: FunctionAlgebra) -> Morphism:
    """b ↦ b(1−t) into functions on (I,{1}) (vanishing at the 1-endpoint)."""
    sfa = scalar_algebra(fa_path.pair0, 0)
    scal = transition_n(sfa, poly_family(sfa, ONE_MINUS_T), fa_path.r)[1]
    return Morphism(
        B, fa_path, lambda b: scalar_to_base(fa_path, scal, b), "s[b->b(1-t)]"
    )


def lambda_(B: Carrier, r: int = 0) -> Morphism:
    """The classifying map J(B) → B^{𝔖_1}_r of the loop extension."""
    fa_path = function_algebra(B, interval_rel_one(), r)
    fa_loop = function_algebra(B, cube(1), r)
    s = path_splitting(B, fa_path)
    dom = j_kernel(B)
    ta = tensor_algebra(B)

    def fn(x):
        mid = word_image(ta, x, s, fa_path)
        return fa_loop.canon(dict(mid))

    return Morphism(dom, fa_loop, fn, f"lambda[{B.name}]_{r}")


# -- the exchange maps κ^{n,m} -------------------------------------------


def kappa1(Bc: Carrier, m: int, r: int = 0) -> Morphism:
    """κ^{1,m}: classifying map of the simplicially-extended universal
    extension: a word of function families goes to the product of their
    coefficientwise σ-lifts, landing in kernel-valued families."""
    C = function_algebra(Bc, cube(m), r)
    TB = tensor_algebra(Bc)
    JB = j_kernel(Bc)
    faT = function_algebra(TB, cube(m), r)
    faJ = function_algebra(JB, cube(m), r)
    dom = j_kernel(C)
    ta = tensor_algebra(C)

    def slift(x):
        return apply_to_coefficients(C, x, TB, TB.sigma)

    def fn(x):
        mid = word_image(ta, x, slift, faT)
        return faJ.canon(dict(mid))

    return Morphism(dom, faJ, fn, f"kappa(1,{m})[{Bc.name}]_{r}")


KAPPA_N_BOUND = 2
KAPPA_M_BOUND = 2


def kappa(n: int, m: int, B: Carrier, r: int = 0) -> Morphism:
    """κ^{n,m}: J^n(B^{𝔖_m}_r) → (J^nB)^{𝔖_m}_r, inductively."""
    if n > KAPPA_N_BOUND or m > KAPPA_M_BOUND:
        raise ValueError(
            f"kappa indices ({n},{m}) exceed bounds "
            f"({KAPPA_N_BOUND},{KAPPA_M_BOUND})"
        )
    if n == 0:
        return identity_morphism(function_algebra(B, cube(m), r))
    if n == 1:
        return kappa1(B, m, r)
    towers = j_tower(B, n)
    return kappa1(towers[n - 1], m, r).after(j_of(kappa(n - 1, m, B, r)))


# -- samples -------------------------------------------------------------


def sample_j_element(base: Carrier, rng: random.Random):
    """A random element of J(base): curvature products with multipliers.
    The body of :meth:`JKernel.sample`, kept a module function because the
    benchmark's span recorder (perfbench/spans.py) counts its outputs by
    name."""
    ta = tensor_algebra(base)
    a = base.sample(rng)
    b = base.sample(rng)
    el = ta.curvature(a, b)
    if rng.random() < 0.3:
        # J(A) is an ideal of T(A): multiplying by σ(c) stays inside
        el = ta.mul(el, ta.sigma(base.sample(rng)))
    return ta.scale(rng.randint(1, 2), el)
