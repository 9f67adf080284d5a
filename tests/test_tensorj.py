"""Tensor algebras, counit kernels, λ, κ, and the J functor."""

import random
from fractions import Fraction as F

import pytest

from loopstable.algebras import AlgebraMap, dual_numbers, m2q, rationals
from loopstable.carriers import Mismatch
from loopstable.funalg import (
    apply_to_coefficients,
    function_algebra,
    make_element,
    mu,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    vanishing_scalar,
)
from loopstable.simplicial import cube
from loopstable.tensorj import (
    Morphism,
    based_decompose,
    based_key_element,
    curvature,
    identity_morphism,
    j_kernel,
    j_of,
    j_tower,
    kappa,
    kappa1,
    lambda_,
    replay,
    tensor_algebra,
    word_image,
)

B = dual_numbers()
Q = rationals()
BX = B.basis_vec("x")
B1 = B.basis_vec("1")
S1 = cube(1)


class TestEtaSigmaCurvature:
    def test_counit_unit(self):
        ta = tensor_algebra(B)
        for v in (BX, B1, B.add(BX, B.scale(F(2), B1))):
            assert ta.eta(ta.sigma(v)) == v

    def test_counit_kills_curvature(self):
        ta = tensor_algebra(B)
        for a in B.basis():
            for b in B.basis():
                assert ta.eta(ta.curvature(a, b)) == B.zero()

    def test_square_of_nilpotent(self):
        ta = tensor_algebra(B)
        assert ta.eta(ta.mul(ta.sigma(BX), ta.sigma(BX))) == B.zero()

    def test_rational_curvature_word(self):
        ta = tensor_algebra(Q)
        one = Q.basis_vec("1")
        assert ta.curvature(one, one) == (
            (("1",), F(-1)),
            (("1", "1"), F(1)),
        )

    def test_dual_curvature_word(self):
        ta = tensor_algebra(B)
        assert ta.curvature(BX, BX) == ((("x", "x"), F(1)),)

    def test_bilinearity(self):
        ta = tensor_algebra(B)
        lhs = ta.curvature(B.add(B1, BX), BX)
        rhs = ta.add(ta.curvature(B1, BX), ta.curvature(BX, BX))
        assert lhs == rhs

    def test_kernel_membership(self):
        J = j_kernel(B)
        assert J.contains(curvature(B, BX, B1))
        assert not J.contains(tensor_algebra(B).sigma(BX))

    def test_sigma_not_multiplicative_for_dual(self):
        ta = tensor_algebra(B)
        assert ta.mul(ta.sigma(BX), ta.sigma(BX)) != ta.sigma(B.mul(BX, BX))
        assert ta.sigma(B.mul(BX, BX)) == ()

    @pytest.mark.parametrize("A", [dual_numbers(), m2q()], ids=["dual", "m2q"])
    def test_eta_of_three_letter_words_is_the_product(self, A):
        ta = tensor_algebra(A)
        for i in A.labels:
            for j in A.labels:
                for k in A.labels:
                    x = ta.scale(3, (((i, j, k), 1),))
                    a, b, c = (A.basis_vec(l) for l in (i, j, k))
                    assert ta.eta(x) == A.scale(3, A.mul(A.mul(a, b), c))
        x, y, z = (A.sample(random.Random(s)) for s in range(3))
        word = ta.mul(ta.mul(ta.sigma(x), ta.sigma(y)), ta.sigma(z))
        assert ta.eta(word) == A.mul(A.mul(x, y), z)


class TestWordImage:
    def test_each_distinct_letter_is_evaluated_once(self):
        ta = tensor_algebra(B)
        # the letter x occurs five times over three words
        x = ((("1", "x"), 1), (("x",), 2), (("x", "1", "x"), 1), (("x", "x"), -1))
        seen = []

        def letter_fn(v):
            seen.append(v)
            return ta.sigma(v)

        out = word_image(ta, x, letter_fn, ta)
        assert sorted(seen) == sorted([B1, BX])
        assert out == x  # σ on letters multiplies out to the word itself


class TestBasedKernelBasis:
    def test_basis_element_is_built_once(self):
        J = j_kernel(m2q())
        e = based_key_element(J, ("e12", "e21"))
        assert based_key_element(J, ("e12", "e21")) is e
        assert e == ((("e11",), -1), (("e12", "e21"), 1))

    def test_basis_elements_lie_in_kernel(self):
        J = j_kernel(B)
        for w in (("x", "x"), ("1", "x"), ("1", "1", "x")):
            e = based_key_element(J, w)
            assert J.contains(e)

    def test_decompose_roundtrip(self):
        J = j_kernel(B)
        ta = tensor_algebra(B)
        x = ta.add(
            curvature(B, BX, BX),
            ta.scale(F(3), curvature(B, B1, BX)),
        )
        recon = ta.zero()
        for w, c in based_decompose(J, x):
            recon = ta.add(recon, ta.scale(c, based_key_element(J, w)))
        assert recon == x


class TestLambda:
    def test_rational_curvature_formula(self):
        lam = lambda_(Q)
        one = Q.basis_vec("1")
        fa = function_algebra(Q, S1, 0)
        expected = make_element(fa, one, vanishing_scalar(S1))
        assert lam(curvature(Q, one, one)) == expected

    def test_curvature_formula_all_basis_pairs(self):
        for A in (B, m2q()):
            lam = lambda_(A)
            fa = function_algebra(A, S1, 0)
            V = vanishing_scalar(S1)
            for a in A.basis():
                for b in A.basis():
                    assert lam(curvature(A, a, b)) == scalar_to_base(
                        fa, V, A.mul(a, b)
                    )

    def test_vanishes_on_zero(self):
        assert lambda_(B)(()) == ()

    def test_algebra_map_on_sampled_words(self):
        lam = lambda_(B)
        fa = function_algebra(B, S1, 0)
        J = j_kernel(B)
        xs = j_kernel(B).draws(30, 2)
        ys = j_kernel(B).draws(30, 3)
        for x, y in zip(xs, ys):
            assert lam(J.mul(x, y)) == fa.mul(lam(x), lam(y))
            assert lam(J.add(x, y)) == fa.add(lam(x), lam(y))


class TestJFunctor:
    def test_identity(self):
        jid = j_of(identity_morphism(B))
        for x in j_kernel(B).draws(10, 5):
            assert jid(x) == x

    def test_curvature_naturality(self):
        g = AlgebraMap(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()})
        gm = Morphism(B, Q, g.apply, "g")
        jg = j_of(gm)
        for a in B.basis():
            for b in B.basis():
                assert jg(curvature(B, a, b)) == curvature(Q, g(a), g(b))

    def test_functoriality(self):
        f = AlgebraMap(Q, B, {"1": B1})
        g = AlgebraMap(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()})
        fm = Morphism(Q, B, f.apply, "f")
        gm = Morphism(B, Q, g.apply, "g")
        gf = Morphism(Q, Q, lambda x: g.apply(f.apply(x)), "gf")
        lhs = j_of(gf)
        rhs = j_of(gm).after(j_of(fm))
        for x in j_kernel(Q).draws(10, 7):
            assert lhs(x) == rhs(x)


class TestKappa:
    def test_kappa0_is_identity(self):
        k0 = kappa(0, 1, B)
        fa = function_algebra(B, S1, 0)
        rng = random.Random(1)
        x = sample_element(fa, rng)
        assert k0(x) == x

    def test_kappa11_on_decomposables(self):
        fa = function_algebra(B, S1, 0)
        sfa = scalar_algebra(S1, 0)
        V = vanishing_scalar(S1)
        s2 = sfa.mul(V, V)
        p = scalar_to_base(fa, V, BX)
        q = scalar_to_base(fa, s2, B1)
        k11 = kappa(1, 1, B)
        C = function_algebra(B, S1, 0)
        x = tensor_algebra(C).curvature(p, q)
        faJ = k11.target
        expected = scalar_to_base(faJ, sfa.mul(V, s2), curvature(B, BX, B1))
        assert k11(x) == expected

    def test_kappa_pq_decomposition(self):
        # kappa(2, 1, B) is built by the same expression as rhs: this guards
        # the n = 2 recursion, not an independently constructed κ^{2,1}
        C = function_algebra(B, S1, 0)
        towers = j_tower(B, 2)
        lhs = kappa(2, 1, B)
        rhs = kappa1(towers[1], 1, 0).after(j_of(kappa(1, 1, B)))
        for x in j_kernel(j_kernel(C)).draws(10, 11):
            assert lhs(x) == rhs(x)

    def test_bounds(self):
        with pytest.raises(ValueError):
            kappa(3, 1, B)
        with pytest.raises(ValueError):
            kappa(1, 3, B)

    def test_pentagon_n1_p1_q1(self):
        fa1 = function_algebra(B, S1, 0)
        C2 = function_algebra(fa1, S1, 0)
        JB = j_kernel(B)
        k_outer = kappa(1, 1, fa1)  # J(C2) → (J'(fa1))^{S_1}
        k_inner = kappa(1, 1, B)  # J(fa1) → (JB)^{S_1}
        fa_JB1 = k_inner.target
        mu_m = Morphism(
            C2,
            function_algebra(B, cube(2), 0),
            lambda x: mu(C2, x)[1],
            "mu",
        )
        k12 = kappa(1, 2, B)
        for x in j_kernel(C2).draws(5, 13):
            y = k_outer(x)
            y2 = apply_to_coefficients(
                k_outer.target, y, fa_JB1, k_inner
            )
            left = mu(function_algebra(fa_JB1, S1, 0), y2)[1]
            right = k12(j_of(mu_m)(x))
            assert left == right


class TestSamplers:
    def test_deterministic(self):
        a = j_kernel(B).draws(20, 42)
        b = j_kernel(B).draws(20, 42)
        assert a == b

    def test_all_in_kernel(self):
        J = j_kernel(B)
        for x in j_kernel(B).draws(20, 42):
            assert J.contains(x)
        J2 = j_tower(B, 2)[2]
        for x in j_kernel(j_kernel(B)).draws(10, 43):
            assert J2.contains(x)

    def test_depth1_rationals(self):
        ta = tensor_algebra(Q)
        for x in j_kernel(Q).draws(10, 44):
            assert Q.is_zero(ta.eta(x))


class TestReplay:
    def test_different_sources_rejected(self):
        # λ_A lives on J(A), λ_{JA} on J(JA): no common draws to compare on
        with pytest.raises(ValueError, match="different sources") as e:
            replay(lambda_(B), lambda_(j_kernel(B)), 3, 0, "λ")
        assert type(e.value) is ValueError

    def test_wrong_side_raises_with_its_sample(self):
        lam = lambda_(B)
        doubled = Morphism(
            lam.source, lam.target, lambda x: lam.target.scale(2, lam(x)), "2λ"
        )
        with pytest.raises(Mismatch, match="λ doubled at sample 0") as e:
            replay(lam, doubled, 5, 1, "λ doubled")
        (x,) = j_kernel(B).draws(1, 1)
        assert lam(x) and e.value.values == {"element": x}

    def test_agreeing_pair_returns_its_count(self):
        lam = lambda_(B)
        assert replay(lam, identity_morphism(lam.target).after(lam), 7, 2, "λ") == 7
