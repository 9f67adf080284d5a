"""Split extensions, mapping paths/cylinders, and homotopy certificates."""

import random
from fractions import Fraction as F

import pytest

from loopstable.algebras import algebra_map, dual_numbers, product_algebra, rationals
from loopstable.carriers import RAT, Mismatch, Morphism, identity_morphism
from loopstable.extensions import (
    ExtensionData,
    HomotopyCertificate,
    classifying_map,
    lambda_,
    mapping_cylinder,
    mapping_path,
    make_extension,
    naturality_check,
    path_extension,
    path_splitting,
    pb_contraction_certificate,
    phi,
    reversed_link,
    splitting_homotopy,
    square_contraction_certificate,
    strong_morphism_check,
    tr2_certificate,
    tr4_tower,
    universal_extension,
    with_splitting,
)
from loopstable.funalg import (
    apply_to_coefficients,
    constant_function,
    d1,
    function_algebra,
    make_element,
    omega,
    poly_family,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    transition,
    vanishing_scalar,
)
from loopstable.poly import cp_norm, qp_var
from loopstable.simplicial import cube, free_pair, interval_rel_one
from loopstable.tensorj import (
    curvature,
    sample_j_element,
    tensor_algebra,
    word_image,
)

B = dual_numbers()
Q = rationals()
BX = B.basis_vec("x")
B1 = B.basis_vec("1")
V0, V1, EDGE = ((0,),), ((1,),), ((0,), (1,))


def _g_map():
    return algebra_map(B, Q, {"1": Q.basis_vec("1"), "x": Q.zero()}, "g")


def _a_map():
    return algebra_map(Q, B, {"1": B1}, "a")


class TestUniversalExtension:
    def test_counit_splitting(self):
        U = universal_extension(B)
        for l in B.labels:
            v = B.basis_vec(l)
            assert U.pi(U.s(v)) == v

    def test_counit_kills_kernel(self):
        U = universal_extension(B)
        assert B.is_zero(U.pi(U.iota(curvature(B, BX, B1))))

    def test_splitting_not_multiplicative(self):
        U = universal_extension(B)
        ta = U.mid
        assert ta.mul(U.s(BX), U.s(BX)) == ((("x", "x"), F(1)),)
        assert U.s(B.mul(BX, BX)) == ()

    def test_classifying_is_expansion(self):
        U = universal_extension(B)
        xi = classifying_map(U)
        x = curvature(B, BX, B1)
        assert xi(x) == x

    def test_default_into_kernel_is_the_identity(self):
        # the kernel is J(A) inside T(A), so no map back is passed
        U = universal_extension(B)
        x = curvature(B, BX, B1)
        assert U.into_kernel(x) is x
        assert ExtensionData(*U[:7]).into_kernel is U.into_kernel


class TestPathExtension:
    def test_presentation_r0(self):
        E = path_extension(B, 0)
        # kernel: families vanishing at both endpoints, generated by t^2-t
        gen = make_element(E.kernel, B1, vanishing_scalar(cube(1)))
        assert gen == ((EDGE, (((1,), B.neg(B1)), ((2,), B1))),)
        # mid: families vanishing at the 1-endpoint only
        sfa = scalar_algebra(interval_rel_one(), 0)
        tm1 = vanishing_scalar(interval_rel_one())
        assert make_element(E.mid, B1, tm1)  # (t-1)·1 is a valid element

    def test_splitting_formula_r0(self):
        E = path_extension(B, 0)
        sfa = scalar_algebra(free_pair(interval_rel_one()), 0)
        # 1 − t as a constant minus the coordinate, not poly.ONE_MINUS_T,
        # which the splitting itself uses
        one_minus_t = sfa.sub(
            constant_function(sfa, F(1)), poly_family(sfa, qp_var(1, 1))
        )
        for l in B.labels:
            v = B.basis_vec(l)
            assert E.s(v) == scalar_to_base(E.mid, one_minus_t, v)

    @pytest.mark.parametrize("r", [0, 1])
    def test_splitting_by_one_minus_t_squared(self, r):
        # the one constructor at q = 1 − t², against 1 − h·h built from the
        # coordinate h on the free interval and transitioned r times
        fa_path = path_extension(B, r).mid
        s2 = path_splitting(B, fa_path, cp_norm(RAT, {(0,): 1, (2,): -1}), "1-t^2")
        sfa = scalar_algebra(free_pair(interval_rel_one()), 0)
        h = poly_family(sfa, qp_var(1, 1))
        q = sfa.sub(constant_function(sfa, 1), sfa.mul(h, h))
        for _ in range(r):
            sfa, q = transition(sfa, q)
        assert s2.name == "s[b->b(1-t^2)]"
        for v in B.basis() + B.draws(5, 3):
            assert s2(v) == scalar_to_base(fa_path, q, v)

    def test_splitting_formula_r1(self):
        # at one subdivision the splitting is supported on the first half
        E = path_extension(B, 1)
        x = E.s(BX)
        halves = {bsx for bsx, _ in x}
        first_edge = (V0, (V0, V1))
        for bsx in halves:
            assert V1 not in bsx or bsx == ((V0, V1),) or first_edge == bsx
        # value at the global 0-endpoint is the original element
        assert d1(E.mid, x) == BX
        # second-half edge carries no value: matches the (p, 0) presentation
        second_edge = (V1, (V0, V1))
        assert second_edge not in dict(x)

    def test_transition_is_strong_morphism(self):
        E0 = path_extension(B, 0)
        E1 = path_extension(B, 1)
        a = Morphism(E0.kernel, E1.kernel, lambda x: transition(E0.kernel, x)[1], "tr")
        b = Morphism(E0.mid, E1.mid, lambda x: transition(E0.mid, x)[1], "tr")
        c = identity_morphism(B)
        assert strong_morphism_check(E0, E1, a, b, c, samples=6, seed=1)

    def test_classifying_equals_loop_map(self):
        E = path_extension(B, 0)
        xi = classifying_map(E)
        lam = lambda_(B)
        rng = random.Random(2)
        for _ in range(10):
            x = sample_j_element(B, rng)
            assert xi(x) == lam(x)


class TestClassifyingNaturality:
    def test_universal_base_change(self):
        gm = _g_map()
        U1, U2 = universal_extension(B), universal_extension(Q)
        ta1, ta2 = U1.mid, U2.mid
        from loopstable.tensorj import j_of

        a = j_of(gm)
        b = Morphism(
            ta1,
            ta2,
            lambda x: word_image(ta1, x, lambda l: ta2.sigma(gm(l)), ta2),
            "T(g)",
        )
        assert strong_morphism_check(U1, U2, a, b, gm, samples=5, seed=4)
        assert naturality_check(U1, U2, a, gm, samples=10, seed=5)

    def test_path_base_change(self):
        gm = _g_map()
        E1, E2 = path_extension(B, 0), path_extension(Q, 0)
        a = Morphism(
            E1.kernel,
            E2.kernel,
            lambda x: apply_to_coefficients(E1.kernel, x, Q, gm),
            "g*",
        )
        b = Morphism(
            E1.mid,
            E2.mid,
            lambda x: apply_to_coefficients(E1.mid, x, Q, gm),
            "g*",
        )
        assert strong_morphism_check(E1, E2, a, b, gm, samples=5, seed=6)
        assert naturality_check(E1, E2, a, gm, samples=10, seed=7)

    def test_subdivision_change(self):
        E0, E1 = path_extension(B, 0), path_extension(B, 1)
        a = Morphism(E0.kernel, E1.kernel, lambda x: transition(E0.kernel, x)[1], "tr")
        assert naturality_check(E0, E1, a, identity_morphism(B), samples=10, seed=8)

    @staticmethod
    def _transition_times(k, car, tgt):
        return Morphism(car, tgt, lambda x: tgt.scale(k, transition(car, x)[1]), f"{k}tr")

    def test_non_commuting_triple_raises_with_its_sample(self):
        # a doubled mid map breaks b∘iota = iota∘a on the first nonzero
        # kernel sample, and the replay names that sample
        E0, E1 = path_extension(B, 0), path_extension(B, 1)
        a = self._transition_times(1, E0.kernel, E1.kernel)
        b2 = self._transition_times(2, E0.mid, E1.mid)
        with pytest.raises(Mismatch, match="does not commute with iota at sample 0") as e:
            strong_morphism_check(E0, E1, a, b2, identity_morphism(B), samples=6, seed=1)
        x = E0.kernel.sample(random.Random(1))
        assert x and e.value.values == {"element": x}

    def test_non_natural_kernel_map_raises_with_its_sample(self):
        E0, E1 = path_extension(B, 0), path_extension(B, 1)
        a = self._transition_times(1, E0.kernel, E1.kernel)
        a2 = self._transition_times(2, E0.kernel, E1.kernel)
        with pytest.raises(Mismatch, match="do not commute") as e:
            naturality_check(E0, E1, a2, identity_morphism(B), samples=10, seed=8)
        x = e.value.values["element"]
        xi = classifying_map(E0)(x)
        assert classifying_map(E1)(x) == a(xi) != a2(xi)


class TestMappingPath:
    def test_identity_map_is_path_algebra(self):
        idb = identity_morphism(B)
        mp = mapping_path(idb)
        PB = mp.mid.left
        rng = random.Random(9)
        for _ in range(6):
            z = mp.mid.sample(rng)
            p, a = z
            # the path determines the pair: a = p(0)
            assert a == d1(PB, p)
            assert mp.mid.make(p, d1(PB, p)) == z

    def test_compatibility_enforced(self):
        gm = _g_map()
        mp = mapping_path(gm)
        bad_p = mp.s(Q.basis_vec("1"))[0]  # p with p(0) = 1
        with pytest.raises(ValueError):
            mp.mid.make(bad_p, Q.zero())

    def test_projection_section(self):
        gm = _g_map()
        mp = mapping_path(gm)
        rng = random.Random(10)
        for _ in range(6):
            a = sample_j_element(B, rng) and None  # keep rng moving
            v = mp.quotient.sample(rng)
            z = mp.s(v)
            assert mp.pi(z) == v
            assert d1(mp.mid.left, z[0]) == gm(v)

    def test_loops_include_with_zero_component(self):
        gm = _g_map()
        mp = mapping_path(gm)
        rng = random.Random(11)
        q = sample_element(mp.kernel, rng)
        z = mp.iota(q)
        assert B.is_zero(mp.pi(z))


class TestPhi:
    def test_formula_and_projection(self):
        gm = _g_map()
        ph = phi(gm)
        mp_f = mapping_path(gm)
        mp_pi = mapping_path(mp_f.pi)
        assert ph.source is mp_f.kernel and ph.target is mp_pi.mid
        rng = random.Random(12)
        for _ in range(8):
            p = sample_element(mp_f.kernel, rng)
            z = ph(p)
            # the path component is zero ...
            assert mp_pi.mid.left.is_zero(z[0])
            # ... and the double projection recovers the loop inclusion
            assert mp_pi.pi(z) == mp_f.iota(p)


class TestCertificates:
    def test_rotation_certificate(self):
        cert = tr2_certificate(_g_map())
        cert.verify(samples=25, seed=13)

    def test_path_contraction(self):
        cert = pb_contraction_certificate(B)
        cert.verify(samples=25, seed=14)

    def test_path_contraction_endpoint_values(self):
        cert = pb_contraction_certificate(Q)
        fa = cert.left.source
        rng = random.Random(15)
        x = sample_element(fa, rng)
        px = cert.chain[0].target
        v = cert.chain[0](x)
        assert px.evaluate(v, 0) == x
        assert fa.is_zero(px.evaluate(v, 1))

    def test_square_contraction(self):
        cert = square_contraction_certificate(B)
        cert.verify(samples=10, seed=16)

    def test_splitting_independence(self):
        E = path_extension(B, 0)
        s2 = path_splitting(B, E.mid, cp_norm(RAT, {(0,): 1, (2,): -1}), "1-t^2")
        cert = splitting_homotopy(E, s2)
        cert.verify(samples=20, seed=17)

    def test_bad_certificate_detected(self):
        # swapping the endpoints must fail verification
        good = pb_contraction_certificate(B)
        bad = HomotopyCertificate(
            name="swapped",
            left=good.right,
            right=good.left,
            chain=good.chain,
        )
        with pytest.raises(Mismatch):
            bad.verify(samples=5, seed=18)

    def test_empty_chain_rejected(self):
        good = pb_contraction_certificate(B)
        empty = HomotopyCertificate(
            name="empty",
            left=good.left,
            right=good.left,
            chain=[],
        )
        with pytest.raises(Mismatch, match="empty chain"):
            empty.verify(samples=2, seed=0)

    @staticmethod
    def _bent(cert, extra):
        """``cert`` with its one link H replaced by H + u(1−u)·extra(H(x)),
        which keeps the values at u = 0 and u = 1."""
        link = cert.chain[0]
        px = link.target
        fa = px.base

        def fn(x):
            h = link(x)
            d = {}  # u(1−u)·e = u·e − u²·e
            for (k,), c in extra(px, h):
                d[k + 1] = fa.add(d.get(k + 1, fa.zero()), c)
                d[k + 2] = fa.sub(d.get(k + 2, fa.zero()), c)
            return px.add(h, px.from_powers(d))

        return HomotopyCertificate(
            name=f"bent-{cert.name}",
            left=cert.left,
            right=cert.right,
            chain=[Morphism(link.source, px, fn, "bent")],
        )

    def test_non_additive_link_detected(self):
        # the path algebra over Q has no zero divisors, so the cross term
        # u(1−u)·(H(x)H(y) + H(y)H(x)) of a nonzero pair is nonzero
        cert = self._bent(pb_contraction_certificate(Q), lambda px, h: px.mul(h, h))
        with pytest.raises(Mismatch, match="not additive at sample 0"):
            cert.verify(samples=2, seed=3)

    def test_non_multiplicative_link_detected(self):
        cert = self._bent(pb_contraction_certificate(Q), lambda px, h: h)
        with pytest.raises(Mismatch, match="not multiplicative at sample 0"):
            cert.verify(samples=2, seed=3)


class TestPolyExtension:
    """The homotopy carrier C[u] on sampled link values: the pb-contraction
    link on the dual numbers, whose values have degree 2 in u."""

    AT = (F(0), F(1), F(1, 2))

    def setup_method(self):
        cert = pb_contraction_certificate(B)
        self.link = cert.chain[0]
        self.px = self.link.target
        rng = random.Random(31)
        self.xs = [cert.left.source.sample(rng) for _ in range(4)]
        self.vs = [self.link(x) for x in self.xs]
        assert all(self.px.contains(v) for v in self.vs)
        assert max(k for v in self.vs for (k,), _ in v) >= 2

    def test_reversal_is_an_involution(self):
        twice = reversed_link(reversed_link(self.link))
        for x, v in zip(self.xs, self.vs):
            assert twice(x) == v

    def test_reversal_substitutes_one_minus_u(self):
        rev = reversed_link(self.link)
        for x, v in zip(self.xs, self.vs):
            for a in self.AT:
                assert self.px.evaluate(rev(x), a) == self.px.evaluate(v, 1 - a)

    def test_evaluation_is_an_algebra_map(self):
        px, fa = self.px, self.px.base
        for v, w in zip(self.vs, self.vs[1:]):
            for a in self.AT:
                ev, ew = px.evaluate(v, a), px.evaluate(w, a)
                assert px.evaluate(px.add(v, w), a) == fa.add(ev, ew)
                assert px.evaluate(px.mul(v, w), a) == fa.mul(ev, ew)
                assert px.evaluate(px.scale(F(-3, 2), v), a) == fa.scale(F(-3, 2), ev)

    def test_from_powers_drops_zero_coefficients(self):
        px = self.px
        x = self.xs[0]
        assert px.from_powers({2: x, 0: px.base.zero()}) == (((2,), x),)
        assert px.is_zero(px.from_powers({1: px.base.zero()}))


class TestMappingCylinder:
    def setup_method(self):
        self.gm = _g_map()
        self.cyl = mapping_cylinder(self.gm)

    def test_evaluation_formula(self):
        rng = random.Random(19)
        for _ in range(5):
            z = self.cyl.extension.kernel.sample(rng)
            # the kernel consists of pairs whose path vanishes at 1
            zz = self.cyl.extension.iota(z)
            assert Q.is_zero(self.cyl.extension.pi(zz))

    def test_projection_section(self):
        rng = random.Random(20)
        for _ in range(5):
            v = B.basis_vec("x") if rng.random() < 0.5 else B.basis_vec("1")
            assert self.cyl.pr(self.cyl.section(v)) == v

    def test_retract_homotopy(self):
        self.cyl.retract.verify(samples=10, seed=21)

    def test_classifying_is_reversed_loop_inclusion(self):
        lam = lambda_(Q)
        loopQ = function_algebra(Q, cube(1), 0)
        xi = classifying_map(self.cyl.extension)
        rng = random.Random(22)
        for _ in range(12):
            x = sample_j_element(Q, rng)
            assert xi(x) == self.cyl.mp.iota(omega(loopQ, lam(x)))

    def test_reversal_inclusion_is_strong(self):
        # the path extension of the target maps into the cylinder by
        # reversal; its classifying maps are natural along that map
        E1 = path_extension(Q, 0)
        loopQ = E1.kernel
        a = Morphism(
            loopQ,
            self.cyl.extension.kernel,
            lambda q: self.cyl.mp.iota(omega(loopQ, q)),
            "incl∘rev",
        )
        assert naturality_check(
            E1, self.cyl.extension, a, identity_morphism(Q), samples=8, seed=24
        )


class TestTowerOfThree:
    def setup_method(self):
        self.tw = tr4_tower(_a_map(), _g_map())

    def test_section(self):
        rng = random.Random(25)
        for _ in range(6):
            v = self.tw.mp_a.mid.sample(rng)
            assert self.tw.theta(self.tw.section_theta(v)) == v

    def test_triangle_certificate(self):
        self.tw.triangle.verify(samples=8, seed=27)

    def test_kernel_contraction(self):
        self.tw.ker_theta_contraction.verify(samples=8, seed=28)


class TestExtensionInvariants:
    def test_broken_splitting_rejected(self):
        ta = tensor_algebra(B)
        from loopstable.tensorj import j_kernel

        J = j_kernel(B)
        with pytest.raises(Mismatch):
            make_extension(
                kernel=J,
                mid=ta,
                quotient=B,
                iota=Morphism(J, ta, lambda x: x, "incl"),
                pi=Morphism(ta, B, ta.eta, "counit"),
                s=Morphism(B, ta, lambda b: ta.zero(), "bad"),
                name="broken",
            )

    def test_non_additive_splitting_rejected(self):
        # a curvature lies in the counit kernel, so π∘s = id still holds,
        # but b ↦ σ(b) + curvature(b, b) is quadratic in b
        U = universal_extension(B)
        ta = U.mid
        s2 = Morphism(
            B, ta, lambda b: ta.add(ta.sigma(b), ta.curvature(b, b)), "sigma+curv"
        )
        with pytest.raises(Mismatch, match="splitting not additive at sample 0"):
            with_splitting(U, s2)

    def test_kernel_that_is_the_quotient(self):
        # A → A × A → A: kernel and quotient are one carrier, yet the kernel
        # draws at the seed and the quotient at seed + 1, so π is replayed
        # on m = s(q) + ι(x) for independent x and q
        P, p1, p2 = product_algebra(B, B)
        E = make_extension(
            kernel=B, mid=P, quotient=B,
            iota=Morphism(B, P, lambda a: tuple((f"l.{k}", c) for k, c in a), "inl"),
            pi=p2,
            s=Morphism(B, P, lambda a: tuple((f"r.{k}", c) for k, c in a), "inr"),
            name="BxB", into_kernel=p1,
        )
        ids = (identity_morphism(B), identity_morphism(P), identity_morphism(B))
        ms = []
        pi = Morphism(P, B, lambda m: ms.append(m) or p2(m), "pr2")
        assert strong_morphism_check(E, E._replace(pi=pi), *ids, samples=3, seed=2) == 3
        xs, qs = B.draws(3, 2), B.draws(3, 3)
        assert xs != qs
        assert ms == [P.add(E.s(q), E.iota(x)) for x, q in zip(xs, qs)]
        with pytest.raises(Mismatch, match="^BxB<inl>: pi∘s != id at sample 0$"):
            with_splitting(E, E.iota)


class TestBuilderCaches:
    """Each cached construction is built once per argument tuple, keyed by the
    identity of its carriers and morphisms, never by a printable name."""

    def test_same_arguments_same_object(self):
        A = dual_numbers()
        f = identity_morphism(A)
        assert identity_morphism(A) is f
        assert path_extension(A) is path_extension(A, 0)
        assert path_extension(A, 1) is not path_extension(A)
        assert mapping_path(f) is mapping_path(f)
        assert vanishing_scalar(cube(1)) is vanishing_scalar(cube(1))

    def test_equal_names_get_distinct_objects(self):
        A1, A2 = dual_numbers(), dual_numbers()
        assert A1.name == A2.name
        id1, id2 = identity_morphism(A1), identity_morphism(A2)
        assert id1.name == id2.name and id1 is not id2
        E1, E2 = path_extension(A1), path_extension(A2)
        assert E1.name == E2.name and E1 is not E2
        assert E1.quotient is A1 and E2.quotient is A2
        M1, M2 = mapping_path(id1), mapping_path(id2)
        assert M1.name == M2.name and M1 is not M2
        assert M1.quotient is A1 and M2.quotient is A2
        g1, g2 = _g_map(), _g_map()
        assert g1.name == g2.name
        assert mapping_path(g1) is not mapping_path(g2)

    def test_validate_runs_once_per_construction(self, monkeypatch):
        names = []
        validate = ExtensionData.validate

        def counting(self, *args, **kwargs):
            names.append(self.name)
            validate(self, *args, **kwargs)

        monkeypatch.setattr(ExtensionData, "validate", counting)
        A = dual_numbers()
        for _ in range(2):
            universal_extension(A)
            path_extension(A)
            mapping_path(identity_morphism(A))
        # the universal extension is built, and validated, on each call
        assert len(names) == 4, names
