"""The substitution and flattening kernels reuse what they computed.

``qp_monomial`` builds each monomial from its cached predecessor,
``cp_subst`` sums each output exponent in one ``combine``, ``cp_combine``
multiplies polynomials with tensor coefficients word by word, a word image
multiplies out each distinct head of its words once, one ``mu``
call reads each projected value once, and composing with an identity
returns the other map, so ``tr4_tower(id, id)`` shares one mapping path
for id and id∘id.  Each shortcut is checked against the plain computation
it replaces.
"""

import gc
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopstable import extensions, funalg, poly
from loopstable.algebras import dual_numbers, m2q, square_zero
from loopstable.carriers import RAT, Morphism, identity_morphism
from loopstable.extensions import (
    G_SHRINK,
    SQUARE_SHRINK,
    classifying_map,
    mapping_path,
    universal_extension,
)
from loopstable.funalg import FunctionAlgebra, function_algebra, mu, sample_element
from loopstable.poly import (
    ONE_MINUS_T,
    WORD_MAJOR_PAIRS,
    _combine_words,
    cp_combine,
    cp_mul,
    cp_norm,
    cp_subst,
    delta_alpha,
    monotone_images,
    qp_const,
    qp_monomial,
    qp_var,
)
from loopstable.simplicial import cube
from loopstable.tensorj import JKernel, TensorAlgebra, j_kernel, tensor_algebra, word_image
from loopstable.verifier import CheckConfig, run_check

SRC = Path(__file__).resolve().parents[1] / "src"
ALGEBRAS = {"dual": dual_numbers(), "sq0": square_zero()}

#: (images, variables of the images): the engine's substitution images
IMAGE_SETS = {
    "G_SHRINK": ((G_SHRINK,), 2),
    "SQUARE_SHRINK": (SQUARE_SHRINK, 3),
    "ONE_MINUS_T": ((ONE_MINUS_T,), 1),
    "degeneracy s0": (monotone_images((0, 0, 1), 1, 2), 2),
    "degeneracy s1 on an edge": (monotone_images((0, 1, 1, 2), 2, 3), 3),
    "face d1": (monotone_images(delta_alpha(1, 2), 2, 1), 1),
    "face d0 of a triangle": (monotone_images(delta_alpha(0, 3), 3, 2), 2),
}


def naive_monomial(images, e, nvars):
    """Π images[i]^{e_i} multiplied up from 1, one factor at a time."""
    out = qp_const(1, nvars)
    for img, k in zip(images, e):
        for _ in range(k):
            out = cp_mul(RAT, out, img)
    return out


def exponents(n, degree):
    """Every exponent tuple of length ``n`` and total degree ≤ ``degree``."""
    return [e for e in itertools.product(range(degree + 1), repeat=n)
            if sum(e) <= degree]


@pytest.mark.parametrize("name", sorted(IMAGE_SETS))
def test_monomial_equals_the_product_fold(name):
    images, nvars = IMAGE_SETS[name]
    for e in exponents(len(images), 6):
        assert qp_monomial(images, e, nvars) == naive_monomial(images, e, nvars), e


def test_monomial_needs_one_exponent_per_image():
    images, nvars = IMAGE_SETS["SQUARE_SHRINK"]
    with pytest.raises(ValueError):
        qp_monomial(images, (1,), nvars)
    with pytest.raises(ValueError):
        qp_monomial(images, (1, 0, 2), nvars)


# -- substitution --------------------------------------------------------


def fold_subst(car, p, images, nvars):
    """The substitution as a fold of ``scale`` and ``add``, term by term."""
    d = {}
    for e, c in p:
        for e2, a in naive_monomial(images, e, nvars):
            v = car.scale(a, c)
            d[e2] = car.add(d[e2], v) if e2 in d else v
    return cp_norm(car, d)


def carrier_and_sampler(kind, A):
    if kind == "A":
        return A, A.sample
    if kind == "P[id]":
        mid = mapping_path(identity_morphism(A)).mid
        return mid, mid.sample
    if kind == "formal T(A^(S_1))":
        fa = function_algebra(A, cube(1), 0)
        ta = tensor_algebra(fa)
        assert not ta.can_decide_zero
        return ta, lambda rng: ta.add(
            ta.sigma(sample_element(fa, rng)),
            ta.mul(ta.sigma(sample_element(fa, rng)), ta.sigma(sample_element(fa, rng))),
        )
    raise ValueError(kind)


def random_poly(car, sample, rng, nvars, terms):
    """A carrier polynomial of total degree ≤ 3 with ``terms`` terms."""
    exps = rng.sample(exponents(nvars, 3), terms)
    return cp_norm(car, {e: sample(rng) for e in exps})


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", ["A", "P[id]", "formal T(A^(S_1))"])
def test_subst_equals_the_scale_add_fold(kind, alg):
    car, sample = carrier_and_sampler(kind, ALGEBRAS[alg])
    rng = random.Random(3)
    for name in sorted(IMAGE_SETS):
        images, nvars = IMAGE_SETS[name]
        for terms in (1, 3):
            p = random_poly(car, sample, rng, len(images), terms)
            assert cp_subst(car, p, images, nvars) == fold_subst(car, p, images, nvars)
    # t1 ↦ t, t2 ↦ t: c·t1 − c·t2 cancels in one output exponent
    c = sample(rng)
    p = cp_norm(car, {(1, 0): c, (0, 1): car.neg(c)})
    t = qp_var(1, 1)
    assert cp_subst(car, p, (t, t), 1) == ()  # the zero polynomial


# -- word-major products over tensor coefficients ----------------------------


def _formal_letters():
    fa = function_algebra(ALGEBRAS["dual"], cube(1), 0)
    return fa, [sample_element(fa, random.Random(k)) for k in range(3)]


#: (coefficient carrier, class, letters): words over the basis keys of a
#: based carrier, and formal words over function-algebra elements
_FA, _FORMAL = _formal_letters()
TENSOR_CARRIERS = {
    "T(dual)": (tensor_algebra(ALGEBRAS["dual"]), TensorAlgebra, ["1", "x"]),
    "J(J(dual))": (j_kernel(j_kernel(ALGEBRAS["dual"])), JKernel,
                   [("1", "x"), ("x", "x"), ("x", "1", "x")]),
    "T'(dual^S1)": (tensor_algebra(_FA), TensorAlgebra, _FORMAL),
    "J'(dual^S1)": (j_kernel(_FA), JKernel, _FORMAL),
}
RATIONALS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def exponent_major(name):
    """A fresh copy of a tensor carrier that does not declare concatenation,
    so ``cp_combine`` takes its exponent-major path over it."""
    car, cls, _ = TENSOR_CARRIERS[name]
    plain = cls(car.base)
    plain.concatenates = False
    return plain


@st.composite
def tensor_terms(draw, name):
    """Terms ``(a, (p₁,))`` and ``(a, (p₁, p₂))``, polynomials in one to
    three variables with tensor coefficients, on either side of the size
    rule, and a negated copy of some terms, so that products cancel."""
    car, _, letters = TENSOR_CARRIERS[name]
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    words = st.lists(st.sampled_from(letters), min_size=1, max_size=3).map(tuple)
    element = st.dictionaries(words, RATIONALS, min_size=1, max_size=3).map(
        lambda d: cp_norm(RAT, d))
    # one or two exponents a factor stay below the size rule, three to five
    # mostly reach it
    low, high = draw(st.sampled_from([(1, 2), (3, 5)]))
    polys = st.dictionaries(exps, element, min_size=low, max_size=high).map(
        lambda d: cp_norm(car, d))
    terms = draw(st.lists(st.tuples(RATIONALS, st.lists(polys, min_size=1, max_size=2)
                                    .map(tuple)), min_size=1, max_size=3))
    cancel = draw(st.lists(st.booleans(), min_size=len(terms), max_size=len(terms)))
    return terms + [(-a, ps) for (a, ps), c in zip(terms, cancel) if c]


@pytest.mark.parametrize("name", sorted(TENSOR_CARRIERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_word_major_products_equal_the_exponent_major_ones(name, data):
    car = TENSOR_CARRIERS[name][0]
    terms = data.draw(tensor_terms(name))
    plain = cp_combine(exponent_major(name), terms)
    # repr tells an int from an integral Fraction: the forms are identical
    assert repr(_combine_words(car, terms)) == repr(plain)
    assert repr(cp_combine(car, terms)) == repr(plain)


@pytest.mark.parametrize("name", sorted(TENSOR_CARRIERS))
def test_word_major_products_cancel_to_zero(name):
    car, _, letters = TENSOR_CARRIERS[name]
    rng = random.Random(5)
    x = lambda: cp_norm(RAT, {tuple(rng.choices(letters, k=rng.randint(1, 3))):
                              rng.choice([1, Fraction(1, 2)]) for _ in range(3)})
    p = cp_norm(car, {e: x() for e in exponents(2, 2)})
    q = cp_norm(car, {e: x() for e in exponents(2, 1)})
    assert len(p) * len(q) >= WORD_MAJOR_PAIRS
    pq = cp_combine(car, [(Fraction(1, 2), (p, q))])
    assert pq and pq == cp_combine(exponent_major(name), [(Fraction(1, 2), (p, q))])
    assert cp_combine(car, [(Fraction(1, 2), (p, q)), (-1, (pq,))]) == ()
    assert cp_combine(car, [(2, (p, q)), (-2, (p, q)), (1, (p,)), (-1, (p,))]) == ()


def _routing(monkeypatch):
    """Count the sums of products over concatenating carriers: the largest
    two-factor product of each call, in exponent pairs, for every call and
    for the calls that went word by word."""
    every, word_major = [], []
    combine, words = poly.cp_combine, poly._combine_words
    largest = lambda terms: max(
        [len(ps[0]) * len(ps[1]) for _, ps in terms if len(ps) == 2], default=0)

    def counted(car, terms):
        if car.concatenates:
            terms = list(terms)
            every.append(largest(terms))
        return combine(car, terms)

    def counted_words(car, terms):
        word_major.append(largest(terms))
        return words(car, terms)

    monkeypatch.setattr(poly, "_combine_words", counted_words)
    for mod in (poly, funalg, extensions):
        monkeypatch.setattr(mod, "cp_combine", counted)
    return every, word_major


def test_kappa_takes_the_word_path_and_small_products_do_not(monkeypatch):
    every, word_major = _routing(monkeypatch)
    # seed 21 draws an exchange-benchmark input: κ^{2,1} has ~19k entries
    result = run_check("kappa-pq", CheckConfig("m2q", m2q(), samples=1, seed=21))
    assert result.status == "PASS"
    assert max(word_major) >= 20
    assert word_major == [n for n in every if n >= WORD_MAJOR_PAIRS]
    every.clear()
    word_major.clear()
    run_check("star-lambda-identities", CheckConfig("m2q", m2q(), samples=1, seed=1))
    # 752 small products: each distinct head of a word image is built once
    assert every.count(4) > 700 and 4 not in word_major
    assert word_major == [n for n in every if n >= WORD_MAJOR_PAIRS]


# -- word images build each head once ---------------------------------------


#: targets of word images: a finite-dimensional algebra and a function
#: algebra, each given three letter images
WORD_TARGETS = {"m2q": m2q(), "dual^S1": function_algebra(ALGEBRAS["dual"], cube(1), 0)}


def head_words(seed):
    """An element of T'(QQ): 30 words of one to four letters 0, 1, 2, so
    that many share a head (the word minus its last letter)."""
    rng = random.Random(seed)
    words = [w for n in range(1, 5) for w in itertools.product(range(3), repeat=n)]
    return cp_norm(RAT, {w: rng.choice([1, -2, Fraction(1, 2)]) for w in rng.sample(words, 30)})


def fold_words(target, x, image):
    """Σ c_w · image(w₁)⋯image(w_k), each word multiplied up from its
    first letter."""
    out = target.zero()
    for w, c in x:
        prod = image(w[0])
        for k in w[1:]:
            prod = target.mul(prod, image(k))
        out = target.add(out, target.scale(c, prod))
    return out


@pytest.mark.parametrize("name", sorted(WORD_TARGETS))
def test_word_image_multiplies_out_each_head_once(name, monkeypatch):
    target = WORD_TARGETS[name]
    images = target.draws(3, 4)
    x = head_words(1)
    # every head of two or more letters, and every shorter part of one
    heads = {w[:i] for w, _ in x for i in range(2, len(w))}
    assert len(heads) < sum(max(len(w) - 2, 0) for w, _ in x)  # heads are shared
    calls = []
    mul = target.mul
    monkeypatch.setattr(target, "mul", lambda a, b: calls.append(1) or mul(a, b))
    out = word_image(tensor_algebra(RAT), x, images.__getitem__, target)
    monkeypatch.undo()
    assert len(calls) == len(heads)
    assert out == fold_words(target, x, images.__getitem__) != target.zero()


@pytest.mark.parametrize("name", sorted(WORD_TARGETS))
def test_word_image_leaves_no_cyclic_garbage(name):
    # the checks pause the cyclic collector, so a cycle made per call, such
    # as a closure that calls itself, would hold its images until the end
    target = WORD_TARGETS[name]
    images, x, ta = target.draws(3, 4), head_words(2), tensor_algebra(RAT)
    word_image(ta, x, images.__getitem__, target)  # fill the carriers' caches
    gc.collect()
    gc.disable()
    try:
        word_image(ta, x, images.__getitem__, target)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- μ reads each projected value once -------------------------------------


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
def test_mu_reads_each_value_once(alg, monkeypatch):
    outer = function_algebra(function_algebra(ALGEBRAS[alg], cube(1), 0), cube(1), 0)
    x = sample_element(outer, random.Random(1))
    assert x
    reads = Counter()
    value = FunctionAlgebra.value

    def counted(self, y, chain):
        reads[id(self), y, chain] += 1
        return value(self, y, chain)

    monkeypatch.setattr(FunctionAlgebra, "value", counted)
    target, flat = mu(outer, x)
    monkeypatch.undo()
    assert len(target.pair0.coords) == 2 and flat
    assert reads and max(reads.values()) == 1
    assert mu(outer, x) == (target, flat)


# -- composing with an identity ---------------------------------------------


def test_tr4_tower_of_identities_builds_two_mapping_paths():
    # a fresh process, so that no mapping path is cached yet
    code = """
from loopstable.algebras import dual_numbers
from loopstable.extensions import _mapping_path, mapping_path, tr4_tower
from loopstable.carriers import identity_morphism
ida = identity_morphism(dual_numbers())
before = _mapping_path.cache_info().misses
tw = tr4_tower(ida, ida)
print(_mapping_path.cache_info().misses - before)
# the two paths built are P[id] and P[η]
assert tw.mp_a is mapping_path(ida) and tw.mp_eta.quotient is tw.mp_a.mid
assert _mapping_path.cache_info().currsize == 2
"""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["2"]


def test_composing_with_an_identity_returns_the_map():
    A = ALGEBRAS["dual"]
    double = Morphism(A, A, lambda x: A.scale(2, x), "double")
    U = universal_extension(A)
    for f in (double, U.s, U.pi):
        assert f.after(identity_morphism(f.source)) is f
        assert identity_morphism(f.target).after(f) is f
    idA = identity_morphism(A)
    assert idA.after(idA) is idA


def test_inclusion_is_not_elided():
    # J(A) → T(A) has an identity function, but it is no identity map
    A = ALGEBRAS["dual"]
    U = universal_extension(A)
    J, T = U.kernel, U.mid
    assert U.iota.source is J and U.iota.target is T
    xi = classifying_map(U)  # J(A) → J(A)
    for c in (U.pi.after(U.iota), U.iota.after(xi)):
        assert c not in (U.pi, U.iota, xi)
        assert c.source is J
    x = J.draws(1, 0)[0]
    assert U.pi.after(U.iota)(x) == U.pi(x)
    assert identity_morphism(T).after(U.iota) is U.iota
    assert U.iota.after(identity_morphism(J)) is U.iota
