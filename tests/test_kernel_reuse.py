"""The substitution and flattening kernels reuse what they computed.

``qp_monomial`` builds each monomial from its cached predecessor,
``cp_subst`` sums each output exponent in one ``combine``, one ``mu`` call
reads each projected value once, and composing with an identity returns
the other map, so ``tr4_tower(id, id)`` shares one mapping path for id and
id∘id.  Each shortcut is checked against the plain computation it
replaces.
"""

import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from loopstable.algebras import dual_numbers, square_zero
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
from loopstable.tensorj import tensor_algebra

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
