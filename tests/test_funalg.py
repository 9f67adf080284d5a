"""Function-algebra layer: families, restriction, transition, μ, ω and
concatenation."""

import itertools
import random
from fractions import Fraction as F

import pytest

from loopstable.algebras import BUILTIN_ALGEBRAS, algebra_map, dual_numbers, rationals
from loopstable.carriers import RAT
from loopstable.funalg import (
    apply_to_coefficients,
    concatenate,
    constant_function,
    d0,
    d1,
    function_algebra,
    global_poly,
    make_element,
    mu,
    omega,
    poly_family,
    pullback_along,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    transition,
    vanishing_scalar,
)
from loopstable.poly import (
    cp_add, cp_flatten, cp_mul, cp_scale, cp_subst, qp_const, qp_var,
)
from loopstable.simplicial import (
    FinSimplicialSet,
    SimplicialMap,
    SimplicialPair,
    cube,
    cube_pair,
    free_pair,
    interval_rel_one,
    last_vertex_map,
    path_pair,
    point,
)
from loopstable.tensorj import tensor_algebra

B = dual_numbers()
BX = B.basis_vec("x")
B1 = B.basis_vec("1")
S1 = cube(1)
I = free_pair(S1)  # (I, ∅): its algebras are the absolute B^I
V0, V1V, EDGE = ((0,),), ((1,),), ((0,), (1,))
T2MT = (((1,), F(-1)), ((2,), F(1)))  # t² − t


def _decomposable(outer, rng):
    """b ⊗ V in ``outer`` over the 1-cube, with b drawn from its base: an
    element on which μ is the projection-pullback formula."""
    return scalar_to_base(outer, vanishing_scalar(S1), outer.base.sample(rng))


def coordinate(sfa, i):
    """The cube coordinate t_{i+1} as a scalar family."""
    return poly_family(sfa, qp_var(i + 1, len(sfa.pair0.coords)))


def poly_scaled(qp, b):
    return tuple((e, tuple((k, c * v) for k, v in b)) for e, c in qp)


class TestMakeElement:
    def test_vanishing_generator(self):
        V = vanishing_scalar(S1)
        assert V == ((EDGE, T2MT),)

    def test_product_still_vanishes(self):
        sfa = scalar_algebra(S1, 0)
        V = vanishing_scalar(S1)
        sq = sfa.mul(V, V)
        assert sq == ((EDGE, (((2,), F(1)), ((3,), F(-2)), ((4,), F(1)))),)
        function_algebra(RAT, S1, 0).check(sq)

    def test_make_element(self):
        fa = function_algebra(B, S1, 0)
        x = make_element(fa, BX, vanishing_scalar(S1))
        assert x == ((EDGE, poly_scaled(T2MT, BX)),)

    def test_zero_family(self):
        fa = function_algebra(B, S1, 0)
        assert make_element(fa, BX, ()) == ()

    def test_nonvanishing_family_rejected(self):
        fa = function_algebra(B, S1, 0)
        t = coordinate(scalar_algebra(I, 0), 0)
        with pytest.raises(ValueError):
            make_element(fa, BX, t)

    def test_sampler_rejects_pairs_without_cube_profile(self):
        delta1 = FinSimplicialSet(range(2), lambda a, b: a <= b, name="Delta^1")
        fa = function_algebra(B, SimplicialPair(delta1, frozenset(), "Delta^1"), 0)
        with pytest.raises(ValueError):
            sample_element(fa, random.Random(0))

    def test_ops_revalidate(self):
        fa = function_algebra(B, S1, 0)
        rng = random.Random(7)
        for _ in range(5):
            x, y = sample_element(fa, rng), sample_element(fa, rng)
            fa.check(fa.add(x, y))
            fa.check(fa.mul(x, y))
            fa.check(fa.scale(F(3, 2), x))


class TestRestrict:
    def test_evaluation_at_endpoint(self):
        faI = function_algebra(B, I, 0)
        t = coordinate(scalar_algebra(I, 0), 0)
        x = scalar_to_base(faI, t, BX)
        fa0 = function_algebra(B, point(), 0)
        end1 = SimplicialMap.from_vertex_map(fa0.sset, faI.sset, lambda v: (1,))
        y = pullback_along(faI, x, end1, fa0)
        assert fa0.vertex_value(y, ((),)) == BX

    def test_identity(self):
        faI = function_algebra(B, I, 0)
        x = scalar_to_base(faI, coordinate(scalar_algebra(I, 0), 0), BX)
        ident = SimplicialMap.from_vertex_map(faI.sset, faI.sset, lambda v: v)
        assert pullback_along(faI, x, ident, faI) == x

    def test_coordinate_along_bottom_edge(self):
        fa2 = scalar_algebra(cube_pair(("free", "free")), 0)
        t1 = coordinate(fa2, 0)
        faI = scalar_algebra(I, 0)
        incl = SimplicialMap.from_vertex_map(
            faI.sset, fa2.sset, lambda v: (v[0], 0)
        )
        assert pullback_along(fa2, t1, incl, faI) == coordinate(faI, 0)

    def test_restrict_is_multiplicative(self):
        fa = function_algebra(B, S1, 0)
        fa1 = function_algebra(B, S1, 1)
        gamma = last_vertex_map(fa.sset)
        rng = random.Random(11)
        for _ in range(10):
            x, y = sample_element(fa, rng), sample_element(fa, rng)
            lhs = pullback_along(fa, fa.mul(x, y), gamma, fa1)
            rhs = fa1.mul(
                pullback_along(fa, x, gamma, fa1), pullback_along(fa, y, gamma, fa1)
            )
            assert lhs == rhs


class TestTransition:
    def test_generator_goes_to_first_half(self):
        fa = function_algebra(B, S1, 0)
        x = make_element(fa, BX, vanishing_scalar(S1))
        fa1, tx = transition(fa, x)
        edge1 = (V0, EDGE)  # first half: original 0-endpoint to barycenter
        assert dict(tx) == {edge1: poly_scaled(T2MT, BX)}
        fa1.check(tx)

    def test_zero(self):
        fa = function_algebra(B, S1, 0)
        assert transition(fa, fa.zero())[1] == ()

    def test_multiplicative_on_samples(self):
        fa = function_algebra(B, S1, 0)
        rng = random.Random(3)
        for _ in range(50):
            x, y = sample_element(fa, rng), sample_element(fa, rng)
            _, t_xy = transition(fa, fa.mul(x, y))
            fa1, tx = transition(fa, x)
            _, ty = transition(fa, y)
            assert t_xy == fa1.mul(tx, ty)

    def test_injective_on_samples(self):
        fa = function_algebra(B, S1, 0)
        rng = random.Random(5)
        for _ in range(10):
            x = sample_element(fa, rng)
            if fa.is_zero(x):
                continue
            assert not fa.is_zero(transition(fa, x)[1])


class TestOmega:
    def setup_method(self):
        self.fa = function_algebra(B, S1, 0)
        self.sfa = scalar_algebra(I, 0)

    def test_fixed_point(self):
        x = make_element(self.fa, BX, vanishing_scalar(S1))
        assert omega(self.fa, x) == x

    def test_cubic(self):
        h = coordinate(self.sfa, 0)
        one = constant_function(self.sfa, F(1))
        q = self.sfa.mul(self.sfa.mul(h, h), self.sfa.sub(h, one))  # t³ − t²
        x = make_element(self.fa, BX, q)
        expected_poly = (((1,), F(-1)), ((2,), F(2)), ((3,), F(-1)))
        assert omega(self.fa, x) == ((EDGE, poly_scaled(expected_poly, BX)),)

    def test_involution(self):
        rng = random.Random(9)
        for _ in range(5):
            x = sample_element(self.fa, rng)
            assert omega(self.fa, omega(self.fa, x)) == x
            fa1, tx = transition(self.fa, x)
            assert omega(fa1, omega(fa1, tx)) == tx

    def test_swaps_endpoints(self):
        faI = function_algebra(B, I, 0)
        t = coordinate(scalar_algebra(I, 0), 0)
        x = scalar_to_base(faI, t, BX)
        assert d1(faI, omega(faI, x)) == d0(faI, x)
        assert d0(faI, omega(faI, x)) == d1(faI, x)

    def test_subdivided_reversal_is_algebra_map(self):
        rng = random.Random(21)
        for _ in range(5):
            x, y = sample_element(self.fa, rng), sample_element(self.fa, rng)
            fa1, tx = transition(self.fa, x)
            _, ty = transition(self.fa, y)
            assert omega(fa1, fa1.mul(tx, ty)) == fa1.mul(
                omega(fa1, tx), omega(fa1, ty)
            )


class TestConcatenate:
    def test_generator_with_zero(self):
        fa = function_algebra(B, S1, 0)
        x = make_element(fa, BX, vanishing_scalar(S1))
        tgt, z = concatenate(fa, x, fa.zero())
        assert dict(z) == {(V0, EDGE): poly_scaled(T2MT, BX)}
        tgt.check(z)

    def test_zero_with_zero(self):
        fa = function_algebra(B, S1, 0)
        assert concatenate(fa, fa.zero(), fa.zero())[1] == ()

    def test_endpoint_mismatch_rejected(self):
        faI = function_algebra(B, I, 0)
        sfa = scalar_algebra(I, 0)
        t = coordinate(sfa, 0)
        x = scalar_to_base(faI, t, BX)  # d0 = BX
        y = scalar_to_base(faI, sfa.mul(t, t), BX)  # d1 = 0
        with pytest.raises(ValueError):
            concatenate(faI, x, y)

    def test_concatenation_and_reversal_are_homomorphisms(self):
        fa = function_algebra(B, S1, 0)
        rng = random.Random(17)
        for _ in range(100):
            x1, y1 = sample_element(fa, rng), sample_element(fa, rng)
            x2, y2 = sample_element(fa, rng), sample_element(fa, rng)
            tgt, c1 = concatenate(fa, x1, y1)
            _, c2 = concatenate(fa, x2, y2)
            _, c12 = concatenate(fa, fa.mul(x1, x2), fa.mul(y1, y2))
            assert tgt.mul(c1, c2) == c12
            assert omega(fa, fa.mul(x1, x2)) == fa.mul(
                omega(fa, x1), omega(fa, x2)
            )


    @pytest.mark.parametrize("algebra", ["dual", "sq0"])
    def test_reversal_reverses_subdivided_concatenation(self, algebra):
        # at r = 1 the halves and the reversal are maps of sd I and sd² I
        A = BUILTIN_ALGEBRAS[algebra]()
        fa = function_algebra(A, S1, 1)
        rng = random.Random(5)
        for _ in range(3):
            x, y = sample_element(fa, rng), sample_element(fa, rng)
            fa2, c = concatenate(fa, x, y)
            assert fa2.r == 2 and c
            assert omega(fa2, c) == concatenate(fa, omega(fa, y), omega(fa, x))[1]


class TestMu:
    def test_point_factor_is_transition(self):
        inner = function_algebra(B, S1, 0)
        x = make_element(inner, BX, vanishing_scalar(S1))
        outer = function_algebra(inner, point(), 1)
        tgt, res = mu(outer, constant_function(outer, x))
        fa1, tx = transition(inner, x)
        assert tgt is fa1
        assert res == tx

    def test_decomposable_product_of_coordinates(self):
        inner = function_algebra(B, S1, 0)
        x = make_element(inner, BX, vanishing_scalar(S1))
        outer = function_algebra(inner, S1, 0)
        xx = scalar_to_base(outer, vanishing_scalar(S1), x)
        tgt, res = mu(outer, xx)
        sfa2 = scalar_algebra(free_pair(cube(2)), 0)
        p1 = _tsq_minus_t(sfa2, 0)
        p2 = _tsq_minus_t(sfa2, 1)
        expected = scalar_to_base(tgt, sfa2.mul(p1, p2), BX)
        assert res == expected
        tgt.check(res)

    def test_associativity_on_random_triples(self):
        F1 = function_algebra(B, S1, 0)
        F11 = function_algebra(F1, S1, 0)
        F111 = function_algebra(F11, S1, 0)
        F2 = function_algebra(B, cube(2), 0)
        rng = random.Random(23)
        for _ in range(30):
            z = _decomposable(F111, rng)
            # combine the outer two levels first, then the inner one
            _, v1 = mu(F111, z)
            left = mu(function_algebra(F1, cube(2), 0), v1)[1]
            # combine the inner two levels first (coefficientwise), then
            # the outer one
            w1 = apply_to_coefficients(
                F111, z, F2, lambda c: mu(F11, c)[1]
            )
            right = mu(function_algebra(F2, S1, 0), w1)[1]
            assert left == right

    def test_naturality_in_base(self):
        Q = rationals()
        g = algebra_map(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()}, "g")
        inner = function_algebra(B, S1, 0)
        innerQ = function_algebra(Q, S1, 0)
        outer = function_algebra(inner, S1, 0)
        outerQ = function_algebra(innerQ, S1, 0)
        rng = random.Random(29)
        for _ in range(10):
            x = _decomposable(outer, rng)
            tgt, m = mu(outer, x)
            tgtQ, mQ = mu(
                outerQ,
                apply_to_coefficients(
                    outer, x, innerQ,
                    lambda c: apply_to_coefficients(inner, c, Q, g),
                ),
            )
            assert mQ == apply_to_coefficients(tgt, m, Q, g)

    def test_commutes_with_outer_transition(self):
        inner = function_algebra(B, S1, 0)
        outer = function_algebra(inner, S1, 0)
        rng = random.Random(31)
        for _ in range(5):
            x = _decomposable(outer, rng)
            tgt, m = mu(outer, x)
            _, tm = transition(tgt, m)
            _, tx = transition(outer, x)
            outer1 = function_algebra(inner, S1, 1)
            tgt1, m1 = mu(outer1, tx)
            assert m1 == tm

    def test_commutes_with_inner_transition(self):
        inner = function_algebra(B, S1, 0)
        inner1 = function_algebra(B, S1, 1)
        outer = function_algebra(inner, S1, 0)
        outer_i1 = function_algebra(inner1, S1, 0)
        rng = random.Random(37)
        for _ in range(5):
            x = _decomposable(outer, rng)
            tgt, m = mu(outer, x)
            _, tm = transition(tgt, m)
            x2 = apply_to_coefficients(
                outer, x, inner1, lambda c: transition(inner, c)[1]
            )
            tgt1, m1 = mu(outer_i1, x2)
            assert m1 == tm

    def test_subdivided_inner_runs_and_validates(self):
        inner = function_algebra(B, S1, 1)
        outer = function_algebra(inner, S1, 0)
        rng = random.Random(41)
        x = _decomposable(outer, rng)
        tgt, m = mu(outer, x)
        assert tgt.r == 1
        tgt.check(m)


class TestCarrierIdentity:
    def test_pairs_sharing_a_name_get_distinct_algebras(self):
        I = cube(1).total
        free = SimplicialPair(I, frozenset(), name="X")
        rel = SimplicialPair(I, frozenset({((1,),)}), name="X")
        fa_free = function_algebra(RAT, free, 0)
        fa_rel = function_algebra(RAT, rel, 0)
        assert fa_free is not fa_rel
        assert fa_free.subset == frozenset()
        assert fa_rel.subset == frozenset({((1,),)})

    def test_interned_constructors(self):
        assert cube(2) is cube(2)
        fa = function_algebra(B, cube(1), 0)
        assert function_algebra(B, cube_pair(("both",)), 0) is fa
        assert tensor_algebra(B) is tensor_algebra(B)
        outer = function_algebra(function_algebra(B, S1, 0), S1, 0)
        x = _decomposable(outer, random.Random(43))
        assert mu(outer, x)[0] is mu(outer, x)[0]


    def test_one_carrier_for_the_free_interval(self):
        fa = function_algebra(B, free_pair(cube(1)), 0)
        assert function_algebra(B, free_pair(interval_rel_one()), 0) is fa
        assert function_algebra(B, cube_pair(("free",)), 0) is fa
        assert fa.subset == frozenset()
        assert fa.name == "Q[x]/(x^2)^(I[free])_0"

    def test_one_tower_for_every_interval_pair(self):
        # the subdivision tower belongs to the cube, not to the carrier
        pairs = [cube(1), interval_rel_one(), free_pair(cube(1))]
        ssets = {id(function_algebra(B, P, 2).sset) for P in pairs}
        assert len(ssets) == 1
        assert function_algebra(RAT, cube(1), 2).sset is function_algebra(B, cube(1), 2).sset


def _weak_chains(K, length):
    """The weakly increasing chains of ``K``'s elements with at most
    ``length`` entries."""
    chains = frontier = [(v,) for v in K.elements]
    for _ in range(length - 1):
        frontier = [c + (v,) for c in frontier for v in K.elements if K.leq(c[-1], v)]
        chains = chains + frontier
    return chains


def _random_global_poly(pair, rng):
    """b₁·V·q₁ + b₂·V·q₂: V the pair's vanishing generator, q_i random
    scalar polynomials of degree at most 2, b_i random dual numbers."""
    n = len(pair.coords)
    V = global_poly(scalar_algebra(pair, 0), vanishing_scalar(pair))
    out = ()
    for _ in range(2):
        q = tuple(
            (e, F(rng.randint(-2, 2)))
            for e in itertools.product(range(3), repeat=n)
            if sum(e) <= 2
        )
        b = B.sample(rng)
        out = cp_add(B, out, tuple((e, B.scale(c, b)) for e, c in cp_mul(RAT, V, q)))
    return out


class TestGlobalPoly:
    PAIRS = [cube(1), interval_rel_one(), path_pair(1), cube(2)]

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
    def test_poly_family_roundtrip(self, pair):
        fa = function_algebra(B, pair, 0)
        rng = random.Random(61)
        for _ in range(5):
            p = _random_global_poly(pair, rng)
            x = fa.check(poly_family(fa, p))
            assert global_poly(fa, x) == p
        n = len(pair.coords)
        with pytest.raises(ValueError):
            poly_family(fa, (((0,) * n, B1),))

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
    def test_coordinate_vertex_values(self, pair):
        sfa = scalar_algebra(free_pair(pair), 0)
        vertices = [b for b in sfa.sset.bases() if sfa.sset.dims[b] == 0]
        assert len(vertices) == 2 ** len(pair.coords)
        for i in range(len(pair.coords)):
            t = coordinate(sfa, i)
            for b in vertices:
                assert sfa.vertex_value(t, b) == b[0][i]

    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
    def test_value_on_chains_is_the_global_poly(self, pair):
        # the value on a chain (v_0, ..., v_p), degenerate or not, is the
        # global polynomial at t_i = v_0[i] + Σ_j (v_j[i] − v_0[i]) t'_j
        fa = function_algebra(B, pair, 0)
        n = len(pair.coords)
        rng = random.Random(63)
        for _ in range(3):
            x = sample_element(fa, rng)
            gp = global_poly(fa, x)
            for c in _weak_chains(fa.sset, 4):
                p = len(c) - 1
                images = []
                for i in range(n):
                    img = qp_const(c[0][i], p)
                    for j in range(1, p + 1):
                        step = cp_scale(RAT, c[j][i] - c[0][i], qp_var(j, p))
                        img = cp_add(RAT, img, step)
                    images.append(img)
                assert fa.value(x, c) == cp_subst(B, gp, images, p)

    def test_rejects_subdivided_and_non_cube_spaces(self):
        with pytest.raises(ValueError):
            global_poly(function_algebra(B, S1, 1), ())
        with pytest.raises(ValueError):
            global_poly(function_algebra(B, point(), 0), ())

    @pytest.mark.parametrize("pair", [cube(1), interval_rel_one()], ids=lambda p: p.name)
    def test_flatten_is_mu_on_global_polys(self, pair):
        inner = function_algebra(B, pair, 0)
        outer = function_algebra(inner, pair, 0)
        rng = random.Random(62)
        for _ in range(3):
            x = sample_element(outer, rng)
            flat = cp_flatten(B, global_poly(outer, x), lambda c: global_poly(inner, c))
            assert flat == global_poly(*mu(outer, x))

    def test_substitution_expands_the_square(self):
        # c·t² at t := 1 − (1−t)(1−u) = t + u − tu
        shrink = (((0, 1), F(1)), ((1, 0), F(1)), ((1, 1), F(-1)))
        c = B.add(B1, BX)
        got = cp_subst(B, (((2,), c),), [shrink], 2)
        expected = {
            (2, 0): 1, (0, 2): 1, (2, 2): 1, (1, 1): 2, (2, 1): -2, (1, 2): -2,
        }
        assert got == tuple(sorted((e, B.scale(k, c)) for e, k in expected.items()))


def _tsq_minus_t(sfa, i):
    h = coordinate(sfa, i)
    return sfa.sub(sfa.mul(h, h), h)
