"""The canonical sparse form that lets ``==`` decide equality.

Every decidable carrier's arithmetic returns elements in one spelling:
keys strictly increasing in their native order, no zero coefficient, and
the same rule one level down for polynomial and pair components.  These
tests pin that invariant on every carrier flavour the catalog compares,
and check the one-pass sum of products ``combine`` against folds of
``add`` with ``scale`` and ``mul``.

A coefficient is an int, or a Fraction when it is not integral.  Over an
algebra with integral structure constants, integer arithmetic never makes
a Fraction, so a Fraction there means that one leaked in (a single
``Fraction(1)`` constant is enough) and slows every later operation.
"""

import random
from fractions import Fraction as F

import pytest

from loopstable.algebras import FinAlgebra, dual_numbers, m2q, parse_algebra_file
from loopstable.carriers import RAT, PullbackCarrier, Rationals, identity_morphism
from loopstable.extensions import PolyExtension, mapping_path
from loopstable.funalg import FunctionAlgebra, function_algebra, sample_element
from loopstable.poly import cp_norm
from loopstable.simplicial import cube, free_pair
from loopstable.tensorj import JKernel, TensorAlgebra, j_tower, tensor_algebra

# both have integral structure constants
ALGEBRAS = {"dual": dual_numbers(), "m2q": m2q()}
SCALARS = [0, 1, -1, F(3, 2)]


def assert_sparse(x, coeff_car, integral):
    """Keys strictly increasing, coefficients nonzero and canonical."""
    assert isinstance(x, tuple)
    keys = [k for k, _ in x]
    assert all(a < b for a, b in zip(keys, keys[1:])), keys
    for _, c in x:
        assert c != coeff_car.zero()
        assert_canonical(coeff_car, c, integral)


def assert_canonical(car, x, integral=False):
    """``x`` is canonical in ``car``; with ``integral``, every rational
    coefficient, through polynomial and pair components, is an int."""
    if isinstance(car, Rationals):
        assert RAT.contains(x), x
        assert not integral or type(x) is int, x
    elif isinstance(car, PullbackCarrier):
        assert_canonical(car.left, x[0], integral)
        assert_canonical(car.right, x[1], integral)
        assert car.contains(x)
    elif isinstance(car, FunctionAlgebra):
        simplices = [b for b, _ in x]
        assert all(a < b for a, b in zip(simplices, simplices[1:]))
        for _, p in x:
            assert p != ()
            assert_sparse(p, car.base, integral)
    elif isinstance(car, PolyExtension):
        assert_sparse(x, car.base, integral)
    else:
        assert isinstance(car, (FinAlgebra, TensorAlgebra, JKernel))
        assert_sparse(x, RAT, integral)


def small_element(car, rng):
    """A few-term element, kept small so that products in J²(M2(Q)) stay
    cheap: sums of two scaled basis vectors, and curvatures of those."""
    if isinstance(car, FinAlgebra):
        out = car.zero()
        for _ in range(2):
            b = car.basis_vec(rng.choice(car.labels))
            out = car.add(out, car.scale(rng.randint(-2, 2), b))
        return out
    ta = car.ta
    a, b = small_element(ta.base, rng), small_element(ta.base, rng)
    return ta.scale(rng.choice((1, -1, 2)), ta.curvature(a, b))


def carrier_and_sampler(kind, A):
    """The carrier named by ``kind`` over ``A`` and a sampler for it."""
    if kind == "A":
        return A, lambda rng: small_element(A, rng)
    if kind in ("J(A)", "J2(A)"):
        car = j_tower(A, 1 if kind == "J(A)" else 2)[-1]
        return car, lambda rng: small_element(car, rng)
    if kind == "T(A)":
        ta = tensor_algebra(A)
        J = j_tower(A, 1)[-1]
        return ta, lambda rng: ta.add(
            small_element(J, rng), ta.sigma(small_element(A, rng))
        )
    if kind in ("A^(S_1)", "A^I"):
        pair = cube(1) if kind == "A^(S_1)" else free_pair(cube(1))
        fa = function_algebra(A, pair, 0)
        return fa, lambda rng: sample_element(fa, rng)
    if kind == "A[u]":
        px = PolyExtension(A)
        return px, lambda rng: px.from_powers(
            {k: small_element(A, rng) for k in range(3)}
        )
    if kind == "P[id]":
        mp = mapping_path(identity_morphism(A))
        return mp.mid, mp.mid.sample
    raise ValueError(kind)


KINDS = ["A", "T(A)", "J(A)", "J2(A)", "A^(S_1)", "A^I", "A[u]", "P[id]"]


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
def test_arithmetic_is_canonical(kind, alg):
    car, sample = carrier_and_sampler(kind, ALGEBRAS[alg])
    rng = random.Random(7)
    xs = [sample(rng) for _ in range(4)]
    for x in xs:
        assert_canonical(car, x, integral=True)
        assert car.add(x, car.neg(x)) == car.zero()
        for a in SCALARS:
            assert_canonical(car, car.scale(a, x), integral=type(a) is int)
    for x, y in zip(xs, xs[1:] + xs[:1]):
        s = car.add(x, y)
        assert_canonical(car, s, integral=True)
        assert s == car.add(y, x)
        assert_canonical(car, car.mul(x, y), integral=True)


def test_detects_a_non_canonical_spelling():
    A = ALGEBRAS["dual"]
    with pytest.raises(AssertionError):
        assert_canonical(A, (("x", F(1)), ("1", F(1))))
    with pytest.raises(AssertionError):
        assert_canonical(A, (("1", F(0)),))
    with pytest.raises(AssertionError):
        assert_canonical(PolyExtension(A), (((0,), A.zero()),))
    with pytest.raises(AssertionError):
        assert_canonical(PolyExtension(A), (((0,), (("x", F(1)),)),), integral=True)


def test_rational_coefficients_are_exact():
    assert RAT.contains(2) and RAT.contains(F(1, 2))
    assert not RAT.contains(True) and not RAT.contains(0.5)


# -- the canonical form itself ---------------------------------------------

NORM_VALUES = [0, F(0), 1, -2, 7, F(1, 2), F(-3, 4)]


def exponent_key(rng):
    return tuple(rng.randrange(3) for _ in range(2))


def word_key(rng):
    """A tensor word whose letters are themselves sparse combinations."""
    return tuple(
        tuple(((rng.randrange(2), rng.randrange(2)), rng.choice([1, -1, F(1, 2)]))
              for _ in range(rng.randrange(1, 3)))
        for _ in range(rng.randrange(1, 4))
    )


@pytest.mark.parametrize("key", [exponent_key, word_key], ids=lambda f: f.__name__)
def test_cp_norm_sorts_the_nonzero_items(key):
    rng = random.Random(key.__name__)
    cases = [{}, {key(rng): F(1, 3)}, {key(rng): 0}, {key(rng): 0, key(rng): F(0)}]
    cases += [{key(rng): rng.choice(NORM_VALUES) for _ in range(rng.randrange(12))}
              for _ in range(300)]
    for d in cases:
        expected = tuple(sorted((k, c) for k, c in d.items() if c != 0))
        assert cp_norm(RAT, d) == expected


# -- one-pass sums of products ------------------------------------------------


def nonzero_samples(car, sample, rng, n):
    """``n`` nonzero samples, so that no sum below is vacuously zero."""
    out = []
    while len(out) < n:
        x = sample(rng)
        if x != car.zero():
            out.append(x)
    return out


def fold_lincomb(car, terms):
    out = car.zero()
    for a, x in terms:
        out = car.add(out, car.scale(a, x))
    return out


def fold_dot(car, pairs):
    out = car.zero()
    for x, y in pairs:
        out = car.add(out, car.mul(x, y))
    return out


def linear(terms):
    """One-factor ``combine`` terms: Σ aᵢ·xᵢ."""
    return [(a, (x,)) for a, x in terms]


def products(pairs):
    """Two-factor ``combine`` terms: Σ xᵢ·yᵢ."""
    return [(1, (x, y)) for x, y in pairs]


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
def test_sums_equal_the_fold(kind, alg):
    car, sample = carrier_and_sampler(kind, ALGEBRAS[alg])
    xs = nonzero_samples(car, sample, random.Random(11), 4)
    terms = list(zip([2, -1, 1, 3], xs))
    s = car.combine(linear(terms))
    assert s == fold_lincomb(car, terms)
    assert_canonical(car, s, integral=True)
    terms = list(zip([F(3, 2), -1, 1, F(-1, 3)], xs))
    s = car.combine(iter(linear(terms)))  # any iterable of terms
    assert s == fold_lincomb(car, terms)
    assert_canonical(car, s)
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    p = car.combine(products(pairs))
    assert p == fold_dot(car, pairs)
    assert_canonical(car, p, integral=True)


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
def test_three_factor_terms_equal_the_fold(kind, alg):
    car, sample = carrier_and_sampler(kind, ALGEBRAS[alg])
    x, y, z, w = nonzero_samples(car, sample, random.Random(13), 4)
    for a in (1, -2, F(1, 2)):
        s = car.combine([(a, (x, y, z))])
        assert s == car.scale(a, car.mul(car.mul(x, y), z))
        assert_canonical(car, s, integral=type(a) is int)
    # mixed lengths in one sum, including a four-factor term
    terms = [(2, (x, y, z)), (-1, (w,)), (1, (z, x)), (3, (y, z, w, x))]
    expected = car.zero()
    for a, factors in terms:
        prod = factors[0]
        for f in factors[1:]:
            prod = car.mul(prod, f)
        expected = car.add(expected, car.scale(a, prod))
    s = car.combine(iter(terms))
    assert s == expected
    assert_canonical(car, s, integral=True)


@pytest.mark.parametrize("alg", sorted(ALGEBRAS))
@pytest.mark.parametrize("kind", KINDS)
def test_sums_drop_what_cancels(kind, alg):
    car, sample = carrier_and_sampler(kind, ALGEBRAS[alg])
    x, y = nonzero_samples(car, sample, random.Random(5), 2)
    assert car.combine([]) == car.zero()
    assert car.combine(iter(())) == car.zero()
    assert car.combine(linear([(2, x), (1, y), (-1, y), (-2, x)])) == car.zero()
    assert car.combine(linear([(F(1, 2), x), (F(-1, 2), x)])) == car.zero()
    assert car.combine(products([(x, y), (car.neg(x), y)])) == car.zero()
    assert car.combine(linear([(0, x)])) == car.zero()
    assert car.combine(linear([(0, x), (1, y)])) == y
    assert car.combine(linear([(1, y), (0, x)])) == y


def test_rational_sums():
    assert RAT.combine([]) == 0 and RAT.combine(products([])) == 0
    assert RAT.combine(linear([(F(1, 2), 3), (2, F(1, 4))])) == 2
    assert RAT.combine(products([(F(1, 2), 3), (-3, F(1, 2))])) == 0
    assert type(RAT.combine(linear([(2, 3), (-1, 1)]))) is int
    assert type(RAT.combine(products([(2, 3), (-1, 1)]))) is int
    assert RAT.combine([(F(1, 2), (2, 3, -1))]) == -3


# -- FinAlgebra's one-pass sums ----------------------------------------------

# the file format with non-integral structure constants: a = e11/2 and
# b = e12 in the upper triangular 2×2 matrices
HALF_TRIANGULAR = parse_algebra_file("""name: half-triangular
basis: a b
a*a = 1/2*a
a*b = 1/2*b
""")
FIN_ALGEBRAS = {**ALGEBRAS, "file": HALF_TRIANGULAR}


def table_product(A, x, y):
    """x·y expanded on basis pairs with ``add`` and ``scale`` only, as a
    reference that does not go through ``mul`` or ``combine``."""
    out = A.zero()
    for i, ci in x:
        for j, cj in y:
            out = A.add(out, A.scale(ci * cj, A.table.get((i, j), A.zero())))
    return out


@pytest.mark.parametrize("alg", sorted(FIN_ALGEBRAS))
def test_fin_algebra_sums_equal_the_fold(alg):
    A = FIN_ALGEBRAS[alg]
    integral = alg != "file"
    xs = nonzero_samples(A, A.sample, random.Random(3), 4)
    for coeffs in ([2, -1, 1, 3], [F(3, 2), -1, 1, F(-1, 3)]):
        terms = list(zip(coeffs, xs))
        s = A.combine(iter(linear(terms)))
        assert s == fold_lincomb(A, terms) != A.zero()
        assert_canonical(A, s, all(type(a) is int for a in coeffs))
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    for x, y in pairs:
        assert A.mul(x, y) == table_product(A, x, y)
        assert_canonical(A, A.mul(x, y), integral)
    p = A.combine(iter(products(pairs)))
    expected = A.zero()
    for x, y in pairs:
        expected = A.add(expected, table_product(A, x, y))
    assert p == expected != A.zero()
    assert_canonical(A, p, integral)
    assert A.combine([]) == A.zero() and A.combine(products([])) == A.zero()
    assert A.combine(products([(x, y), (A.neg(x), y)])) == A.zero()
