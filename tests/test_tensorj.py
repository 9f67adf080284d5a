"""Tensor algebras, counit kernels, λ, κ, and the J functor."""

import random
from fractions import Fraction as F

import pytest

from loopstable.algebras import BUILTIN_ALGEBRAS, algebra_map, dual_numbers, m2q, rationals
from loopstable.carriers import Mismatch, Morphism, identity_morphism, replay
from loopstable.extensions import PolyExtension, lambda_
from loopstable.funalg import (
    apply_to_coefficients,
    function_algebra,
    global_poly,
    make_element,
    mu,
    mu_map,
    pushforward,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    vanishing_scalar,
)
from loopstable.simplicial import cube
from loopstable.tensorj import (
    curvature,
    j_kernel,
    j_of,
    j_of_n,
    j_tower,
    kappa,
    kappa1,
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
        e = J.basis_vec(("e12", "e21"))
        assert J.basis_vec(("e12", "e21")) is e
        assert e == ((("e11",), -1), (("e12", "e21"), 1))

    def test_basis_elements_lie_in_kernel(self):
        J = j_kernel(B)
        for w in (("x", "x"), ("1", "x"), ("1", "1", "x")):
            e = J.basis_vec(w)
            assert J.contains(e)

    def test_decompose_roundtrip(self):
        J = j_kernel(B)
        ta = tensor_algebra(B)
        x = ta.add(
            curvature(B, BX, BX),
            ta.scale(F(3), curvature(B, B1, BX)),
        )
        recon = ta.zero()
        for w, c in J.coordinates(x):
            recon = ta.add(recon, ta.scale(c, J.basis_vec(w)))
        assert recon == x

    @pytest.mark.parametrize("name", sorted(BUILTIN_ALGEBRAS))
    @pytest.mark.parametrize("depth", [1, 2])
    def test_kernel_answers_for_its_basis(self, name, depth):
        A = j_tower(BUILTIN_ALGEBRAS[name](), depth - 1)[-1]
        J = j_kernel(A)
        assert J.based and J is not tensor_algebra(A)
        assert J.ta is tensor_algebra(A)
        # seed 24: both draws are nonzero on every built-in, and their
        # product in J²(M2(Q)) stays small
        x, y = J.draws(2, 24)
        assert x and y
        assert J.combine((c, (J.basis_vec(w),)) for w, c in J.coordinates(x)) == x
        assert tensor_algebra(J).sigma(x) == tuple(
            ((w,), c) for w, c in x if len(w) >= 2)
        assert J.mul(x, y) == tensor_algebra(A).mul(x, y)

    @pytest.mark.parametrize("name", sorted(BUILTIN_ALGEBRAS))
    def test_tensor_over_a_tensor_algebra_is_based_on_words(self, name):
        A = BUILTIN_ALGEBRAS[name]()
        T, TT = tensor_algebra(A), tensor_algebra(tensor_algebra(A))
        assert TT.based and TT.can_decide_zero and TT.name == f"T(T({A.name}))"
        x = j_kernel(A).draws(1, 24)[0]
        assert x and T.coordinates(x) == x
        s = TT.sigma(x)
        assert s == tuple(((w,), c) for w, c in x)
        assert all(TT.letter(w) == ((w, 1),) for w, _ in x)
        assert TT.eta(s) == x

    def test_formal_carriers_have_no_basis(self):
        fa = function_algebra(B, S1, 0)
        J, T = j_kernel(fa), tensor_algebra(fa)
        assert not J.based and not T.based
        w = ((fa.zero(), fa.zero()), 1)
        for ask in (lambda: J.basis_vec(w[0]), lambda: J.coordinates((w,)),
                    lambda: T.basis_vec(w[0]), lambda: T.coordinates((w,))):
            with pytest.raises(ValueError, match="no canonical basis"):
                ask()

    def test_coordinates_can_be_read_twice(self):
        J = j_kernel(B)
        c = J.coordinates(curvature(B, BX, BX))
        assert isinstance(c, tuple) and c and list(c) == list(c)


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
        g = algebra_map(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()}, "g")
        jg = j_of(g)
        for a in B.basis():
            for b in B.basis():
                assert jg(curvature(B, a, b)) == curvature(Q, g(a), g(b))

    def test_functoriality(self):
        fm = algebra_map(Q, B, {"1": B1}, "f")
        gm = algebra_map(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()}, "g")
        gf = Morphism(Q, Q, lambda x: gm(fm(x)), "gf")
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
        rhs = kappa1(towers[1], 1).after(j_of(kappa(1, 1, B)))
        for x in j_kernel(j_kernel(C)).draws(10, 11):
            assert lhs(x) == rhs(x)

    @pytest.mark.parametrize("name", ["dual", "sq0"])
    @pytest.mark.parametrize("t", [2, -1], ids=["t=2", "t=-1"])
    @pytest.mark.parametrize("n", [1, 2], ids=["kappa11", "kappa21"])
    def test_kappa_at_a_point_is_j_of_the_evaluation(self, name, t, n):
        # κ is natural and the identity at a point: ev_t ∘ κ^{n,1} = Jⁿ(ev_t)
        # at every rational t, independently of how κ^{n,1} is built
        def ev(fa):
            px = PolyExtension(fa.base)
            return Morphism(fa, fa.base, lambda x: px.evaluate(global_poly(fa, x), t), "ev")

        A = BUILTIN_ALGEBRAS[name]()
        k = kappa(n, 1, A)
        lhs = ev(k.target).after(k)
        rhs = j_of_n(ev(function_algebra(A, S1, 0)), n)
        xs = k.source.draws(6, 5)
        assert any(lhs(x) for x in xs)
        for x in xs:
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
            replay([(lambda_(B), lambda_(j_kernel(B)), "λ")], 3, 0)
        assert type(e.value) is ValueError

    def test_wrong_side_raises_with_its_sample(self):
        lam = lambda_(B)
        doubled = Morphism(
            lam.source, lam.target, lambda x: lam.target.scale(2, lam(x)), "2λ"
        )
        with pytest.raises(Mismatch, match="λ doubled at sample 0") as e:
            replay([(lam, doubled, "λ doubled")], 5, 1)
        (x,) = j_kernel(B).draws(1, 1)
        assert lam(x) and e.value.values == {"element": x}

    def test_agreeing_pair_returns_its_count(self):
        lam = lambda_(B)
        assert replay([(lam, identity_morphism(lam.target).after(lam), "λ")], 7, 2) == 7


class TestMorphismForms:
    def test_pushforward_needs_coefficients_in_the_source(self):
        aug = algebra_map(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()}, "aug")
        fa = function_algebra(B, S1, 0)
        assert pushforward(aug, fa).target is function_algebra(Q, S1, 0)
        with pytest.raises(ValueError, match="coefficients"):
            pushforward(aug, function_algebra(Q, S1, 0))

    def test_mu_map_lands_where_mu_does(self):
        outer = function_algebra(function_algebra(B, S1, 0), S1, 1)
        (x,) = outer.draws(1, 0)
        assert mu(outer, x) == (mu_map(outer).target, mu_map(outer)(x))
        with pytest.raises(ValueError, match="function algebra of function"):
            mu_map(function_algebra(B, S1, 0))
