"""Nonunital tensor algebras, counit kernels, J and the exchange maps κ.

Two flavors of tensor carrier share one element shape
``((word, coefficient), ...)``, a sparse combination of words over the
rationals in the canonical form of :mod:`loopstable.poly` (sorted by the
native order of the words, which are tuples of letters); a coefficient is
an int, or a Fraction when not integral:

- *based*, over a carrier whose ``based`` is True: the letters of a word
  are basis keys of the base, which answers for its own basis —
  ``basis_vec(key)`` is the element behind a letter and ``coordinates(x)``
  the keyed coefficients that σ lifts.  The keys are the labels of a
  finite-dimensional algebra, or the length-≥2 words indexing the basis
  ``e_w = w − σ(η(w))`` of a counit kernel.  Words over a basis are
  linearly independent, so zero is decidable and ``==`` is equality.
- *formal*: letters are literal elements of the base carrier (used over
  function algebras and other unbased carriers).  Elements are only ever
  consumed letterwise; zero is not decidable, and ``==`` only compares
  spellings.

The counit kernel J(A) is a :class:`TensorAlgebra` over the same base —
an ideal of T(A) with T's arithmetic — that adds only its membership test
(η(x) = 0 where zero is decidable), its sampler and, when based, its basis.
On top of these live the counit ``η`` (multiply the letters), the module
splitting ``σ``, curvature elements ``σ(a)σ(b) − σ(ab)``, the kernel
functor ``J`` on objects and morphisms, the word-map evaluation behind
classifying maps (:func:`word_image`), and the exchange maps
``κ^{n,m}``, each a :class:`~loopstable.carriers.Morphism`.  The loop
classifying map λ is the classifying map of the path extension, in
:mod:`loopstable.extensions`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Dict, List, Tuple, Union

from .carriers import RAT, Carrier, Morphism, identity_morphism
from .funalg import apply_to_coefficients, function_algebra
from .poly import cp_add, cp_norm, cp_scale
from .simplicial import cube

Word = Tuple[Any, ...]
#: ``((word, coefficient), ...)``; a coefficient is an int, or a Fraction
#: when not integral
TElement = Tuple[Tuple[Word, Union[int, Fraction]], ...]


class TensorAlgebra(Carrier):
    """The nonunital tensor algebra T(A) (words of length ≥ 1)."""

    concatenates = True

    def __init__(self, base: Carrier) -> None:
        self.base = base
        self.based = base.based
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
            if len(xs) == 1:
                for w, c in xs[0]:
                    d[w] = get(w, 0) + a * c
                continue
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

    # -- basis, letters, counit, splitting ------------------------------

    def basis_vec(self, w: Word) -> TElement:
        """The basis element of a word over a based carrier: the word."""
        self.need_basis()
        return ((w, 1),)

    def coordinates(self, x: TElement) -> TElement:
        """The coordinates of ``x`` in the basis of words: ``x`` itself."""
        self.need_basis()
        return x

    def need_basis(self) -> None:
        if not self.based:
            raise ValueError(f"carrier {self.name} has no canonical basis")

    def letter(self, k):
        """The carrier element behind a letter of a word."""
        return self.base.basis_vec(k) if self.based else k

    def eta(self, x: TElement):
        """The counit: multiply each word out in the base carrier."""
        return self.base.combine(_word_terms(x, self.letter, self.base))

    def sigma(self, b) -> TElement:
        """The module splitting A → T(A) by length-1 words."""
        if self.based:
            # coordinates come in canonical order, which k ↦ (k,) keeps
            return tuple(((k,), c) for k, c in self.base.coordinates(b))
        if b == self.base.zero():
            return ()
        return (((b,), 1),)

    def curvature(self, a, b) -> TElement:
        """σ(a)σ(b) − σ(ab), the canonical counit-kernel element."""
        return self.sub(self.mul(self.sigma(a), self.sigma(b)),
                        self.sigma(self.base.mul(a, b)))


class JKernel(TensorAlgebra):
    """The counit kernel J(A) ⊆ T(A): an ideal of T(A) with T's
    arithmetic, and a carrier in its own right.

    When A is based, so is J(A), with basis ``e_w = w − σ(η(w))`` indexed
    by the words of length ≥ 2.
    """

    def __init__(self, base: Carrier) -> None:
        super().__init__(base)
        self.name = f"J{self.name[1:]}"  # J(A), or J'(A) when formal
        #: the ambient T(A)
        self.ta = tensor_algebra(base)
        #: e_w by word, filled on first use by :meth:`basis_vec`
        self.basis_elements: Dict[Word, TElement] = {}

    def contains(self, x) -> bool:
        if not super().contains(x):
            return False
        if not self.base.can_decide_zero:
            return True
        return self.base.is_zero(self.eta(x))

    def sample(self, rng):
        return sample_j_element(self.base, rng)

    def basis_vec(self, w: Word) -> TElement:
        """e_w = w − σ(η(w)) for a word w of length ≥ 2."""
        e = self.basis_elements.get(w)
        if e is None:
            self.need_basis()
            x = ((w, 1),)
            e = self.basis_elements[w] = self.sub(x, self.sigma(self.eta(x)))
        return e

    def coordinates(self, x: TElement) -> TElement:
        """The coordinates of ``x`` in the basis e_w: its words of length
        ≥ 2, in order."""
        self.need_basis()
        return tuple((w, c) for w, c in x if len(w) >= 2)


@cache
def tensor_algebra(base: Carrier) -> TensorAlgebra:
    """T(base), one per carrier (by identity)."""
    return TensorAlgebra(base)


@cache
def j_kernel(base: Carrier) -> JKernel:
    """J(base), one per carrier (by identity)."""
    return JKernel(base)


def j_tower(base: Carrier, depth: int) -> List[Carrier]:
    """[A, J(A), J²(A), ...] up to the requested depth."""
    out: List[Carrier] = [base]
    for _ in range(depth):
        out.append(j_kernel(out[-1]))
    return out


def curvature(base: Carrier, a, b) -> TElement:
    return tensor_algebra(base).curvature(a, b)


def _word_terms(x: TElement, image: Callable, target: Carrier):
    """The terms of Σ c_w Π image(letter) for ``target.combine``, the one
    place where a word is multiplied out: ``(c, (image(k),))`` for a word
    ``(k,)``, else ``(c, (head, image(last)))``.  Each distinct letter's
    image is taken once, and each distinct head is built once in
    ``target``, from the next-shorter one.  A plain generator: a closure
    calling itself would keep a call's images alive while checks pause the
    cyclic garbage collector."""
    images: Dict[Any, Any] = {}
    heads: Dict[Word, Any] = {}
    for w, c in x:
        for k in w:
            if k not in images:
                images[k] = image(k)
        head = images[w[0]]
        for i in range(2, len(w)):
            v = heads.get(w[:i])
            if v is None:
                v = heads[w[:i]] = target.mul(head, images[w[i - 1]])
            head = v
        yield (c, (head, images[w[-1]])) if len(w) > 1 else (c, (head,))


def word_image(ta: TensorAlgebra, x: TElement, letter_fn: Callable, target: Carrier):
    """Σ c_w Π letter_fn(letter), the evaluation scheme of classifying maps,
    summed by one ``target.combine`` of one- and two-factor terms."""
    return target.combine(_word_terms(x, lambda k: letter_fn(ta.letter(k)), target))


def j_of(f: Morphism) -> Morphism:
    """J applied to a morphism: letterwise image, formal target words."""
    dom = j_kernel(f.source)
    tgt = j_kernel(f.target)
    tta = tensor_algebra(f.target)

    def fn(x):
        # T(f): letter l ↦ σ(f(l)), multiplied out in T(target)
        return word_image(dom, x, lambda l: tta.sigma(f(l)), tta)

    return Morphism(dom, tgt, fn, f"J({f.name})")


def j_of_n(f: Morphism, n: int) -> Morphism:
    for _ in range(n):
        f = j_of(f)
    return f


# -- the exchange maps κ^{n,m} -------------------------------------------


def kappa1(Bc: Carrier, m: int) -> Morphism:
    """κ^{1,m}: classifying map of the simplicially-extended universal
    extension: a word of function families goes to the product of their
    coefficientwise σ-lifts, landing in kernel-valued families."""
    C = function_algebra(Bc, cube(m), 0)
    TB = tensor_algebra(Bc)
    JB = j_kernel(Bc)
    faT = function_algebra(TB, cube(m), 0)
    faJ = function_algebra(JB, cube(m), 0)
    dom = j_kernel(C)

    def slift(x):
        return apply_to_coefficients(C, x, TB, TB.sigma)

    def fn(x):
        mid = word_image(dom, x, slift, faT)
        return faJ.canon(dict(mid))

    return Morphism(dom, faJ, fn, f"kappa(1,{m})[{Bc.name}]_0")


KAPPA_N_BOUND = 2
KAPPA_M_BOUND = 2


def kappa(n: int, m: int, B: Carrier) -> Morphism:
    """κ^{n,m}: J^n(B^{𝔖_m}) → (J^nB)^{𝔖_m}, inductively."""
    if n > KAPPA_N_BOUND or m > KAPPA_M_BOUND:
        raise ValueError(
            f"kappa indices ({n},{m}) exceed bounds "
            f"({KAPPA_N_BOUND},{KAPPA_M_BOUND})"
        )
    if n == 0:
        return identity_morphism(function_algebra(B, cube(m), 0))
    if n == 1:
        return kappa1(B, m)
    towers = j_tower(B, n)
    return kappa1(towers[n - 1], m).after(j_of(kappa(n - 1, m, B)))


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
