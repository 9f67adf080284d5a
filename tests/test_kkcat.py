"""Graded morphism representatives, ⋆ composition, signs, and triangles."""

import random

import pytest

from loopstable.algebras import AlgebraMap, FinAlgebra, dual_numbers, product_algebra, rationals
from loopstable.extensions import path_extension
from loopstable.funalg import function_algebra, mu, omega, sample_element
from loopstable.kkcat import (
    extension_triangle,
    from_algebra_map,
    identity_hom,
    kk_hom,
    lambda_rep,
    mapping_path_triangle,
    promote,
    resolve_sign,
    star,
    swap_pullback,
)
from loopstable.simplicial import cube
from loopstable.tensorj import (
    Morphism,
    identity_morphism,
    j_kernel,
    j_of,
    kappa,
    lambda_,
    zero_morphism,
)

B = dual_numbers()
Q = rationals()
JB = j_kernel(B)
LAM = lambda_(B)


def _a_map():
    a = AlgebraMap(Q, B, {"1": B.basis_vec("1")})
    return Morphism(Q, B, a.apply, "a")


def _g_map():
    g = AlgebraMap(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()})
    return Morphism(B, Q, g.apply, "g")


class TestHoms:
    def test_bounds(self):
        with pytest.raises(ValueError):
            kk_hom((B, 3), (B, 0), 0, identity_morphism(B))
        with pytest.raises(ValueError):
            kk_hom((B, 0), (B, 0), -1, identity_morphism(B))

    def test_identity(self):
        h = identity_hom(B, 1)
        assert h.dom_index == 0 and h.cod_index == 0
        x = B.basis_vec("x")
        assert h(x) == x


class TestDegreeRaising:
    def test_degree_zero_is_loop_classifier(self):
        L0 = lambda_rep(identity_morphism(B), 0)
        for x in j_kernel(B).draws(10, 1):
            assert L0(x) == LAM(x)

    def test_zero_map(self):
        Lz = lambda_rep(zero_morphism(B, Q), 0)
        for x in j_kernel(B).draws(5, 2):
            assert Lz.target.is_zero(Lz(x))

    def test_composition_law(self):
        # raising (g∘f) equals raising g and precomposing with J(f)
        ja = j_of(_a_map())
        gf = Morphism(j_kernel(Q), LAM.target, lambda x: LAM(ja(x)), "lam∘Ja")
        lhs = lambda_rep(gf, 1)
        rhs = lambda_rep(LAM, 1)
        jja = j_of(ja)
        for x in j_kernel(j_kernel(Q)).draws(6, 3):
            assert lhs(x) == rhs(jja(x))

    def test_factors_through_identity(self):
        faB1 = LAM.target
        lid = lambda_rep(identity_morphism(faB1), 1)
        jlam = j_of(LAM)
        lgl = lambda_rep(LAM, 1)
        for x in j_kernel(j_kernel(B)).draws(6, 4):
            assert lgl(x) == lid(jlam(x))

    def test_commutes_with_flattening(self):
        # raising then flattening agrees with flattening then raising
        faB1 = LAM.target
        lam2 = lambda_(faB1)
        nested = lam2.target
        fa2 = function_algebra(B, cube(2), 0)
        muf = Morphism(
            j_kernel(faB1), fa2, lambda x: mu(nested, lam2(x))[1], "mu∘lam2"
        )
        lhs = lambda_rep(muf, 2)
        l1 = lambda_rep(lam2, 1)
        for x in j_kernel(j_kernel(faB1)).draws(2, 5):
            assert lhs(x) == mu(l1.target, l1(x))[1]

    def test_promote_keeps_endpoints(self):
        h = promote(from_algebra_map(_g_map()))
        assert h.source == (B, 0) and h.target == (Q, 0) and h.v == 1
        for x in j_kernel(B).draws(4, 6):
            assert h.rep(x) == lambda_rep(_g_map(), 0)(x)


class TestStar:
    def test_unit_on_plain_maps(self):
        h = star(identity_hom(B, 0), from_algebra_map(_a_map()))
        one = Q.basis_vec("1")
        assert h.rep(one) == _a_map()(one)
        assert h.pending_sign == 1

    def test_plain_star_is_composition(self):
        h = star(from_algebra_map(_g_map()), from_algebra_map(_a_map()))
        one = Q.basis_vec("1")
        assert h.rep(one) == _g_map()(_a_map()(one))

    def test_unit_absorbs_on_right(self):
        # composing with the degree-shift unit on the right is exact
        id_JB = kk_hom((B, 1), (JB, 0), 0, identity_morphism(JB))
        lamH = kk_hom((JB, 0), (B, 1), 0, LAM)
        h = star(lamH, id_JB)
        for x in j_kernel(B).draws(10, 7):
            assert h.rep(x) == LAM(x)
        assert h.v == 0 and h.pending_sign == 1

    def test_unit_on_left_gives_signed_exchange(self):
        # the other composite materializes the crossing sign via reversal
        id_JB = kk_hom((B, 1), (JB, 0), 0, identity_morphism(JB))
        lamH = kk_hom((JB, 0), (B, 1), 0, LAM)
        h = star(id_JB, lamH, resolve=False)
        assert h.pending_sign == -1 and h.cod_index == 1
        hr = resolve_sign(h)
        assert hr.pending_sign == 1
        k11 = kappa(1, 1, B)
        jlam = j_of(LAM)
        faJB1 = k11.target
        for x in j_kernel(j_kernel(B)).draws(5, 8):
            assert hr.rep(x) == omega(faJB1, k11(jlam(x)))

    def test_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            star(from_algebra_map(_a_map()), from_algebra_map(_a_map()))


def _negated(h):
    """Materialize a pending −1 on ``h``."""
    return resolve_sign(h._replace(pending_sign=-1))


class TestSigns:
    def test_double_negation(self):
        # one coordinate: the sign is the interval reversal
        lamH = kk_hom((JB, 0), (B, 1), 0, LAM)
        once = _negated(lamH)
        assert once.pending_sign == 1 and once.rep.name == f"rev∘{LAM.name}"
        h = _negated(once)
        for x in j_kernel(B).draws(5, 9):
            assert h.rep(x) == lamH.rep(x)

    def test_negation_needs_a_coordinate(self):
        # no coordinate: the sign stays pending on the unchanged rep
        g = from_algebra_map(_g_map())
        h = _negated(g)
        assert h.pending_sign == -1 and h.rep is g.rep

    def test_negate_zero_is_zero(self):
        # two coordinates: the sign is the coordinate swap
        zH = kk_hom(
            (B, 0), (B, 1), 1,
            zero_morphism(JB, function_algebra(B, cube(2), 0)),
        )
        h = _negated(zH)
        assert h.pending_sign == 1 and h.rep.name == f"(c* . {zH.rep.name})"
        for x in j_kernel(B).draws(3, 10):
            assert h.rep.target.is_zero(h.rep(x))

    def test_swap_twice_is_identity(self):
        fa2 = function_algebra(B, cube(2), 0)
        c = swap_pullback(fa2)
        rng = random.Random(11)
        for _ in range(4):
            x = sample_element(fa2, rng)
            assert c(c(x)) == x


class TestTriangles:
    def test_mapping_path_triangle(self):
        t = mapping_path_triangle(_g_map(), 0)
        assert t.boundary.pending_sign == -1
        (Bo, n1), (Po, n2), (Ao, n3), (Bo2, n4) = t.objects
        assert (n1, n2, n3, n4) == (1, 0, 0, 0) and Bo is Q and Ao is B

    def test_extension_triangle_boundary(self):
        E = path_extension(0, B, 0)
        t = extension_triangle(E, 0)
        assert t.boundary.pending_sign == 1
        for x in j_kernel(B).draws(5, 13):
            assert t.boundary.rep(x) == LAM(x)

    def test_extension_triangle_sign_at_one(self):
        E = path_extension(0, B, 0)
        t = extension_triangle(E, 1)
        assert t.boundary.pending_sign == -1


class TestProducts:
    def test_zero_algebra_is_unit(self):
        Z = FinAlgebra("0", [], {}, unit=None)
        P0, q1, q2 = product_algebra(B, Z)
        assert len(P0.labels) == len(B.labels)
        x = P0.basis_vec("l.x")
        assert q1(x) == B.basis_vec("x")
