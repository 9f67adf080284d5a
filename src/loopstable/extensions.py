"""Split extensions of algebras and the named constructions built on them.

Provides: extension records with a validated module splitting, the universal
extension (counit-kernel inclusion into the tensor algebra), path extensions
with the one path-splitting constructor b ↦ b·q(t), classifying maps of split
extensions, the loop classifying map λ as the classifying map of the path
extension (the loop extension ΩB → PB → B), mapping paths
(each returned as its split extension loops → P[f] → source), the comparison
map into a double mapping path, mapping cylinders, and the three-map tower
used to rotate composable morphisms, with all accompanying elementary-homotopy
certificates.  Certificates, validation and the strong-morphism check are
:func:`~loopstable.carriers.replay` laws and pair laws.  Each elementary homotopy is
a polynomial substitution h(t, u): read the family's global polynomial
(:func:`~loopstable.funalg.global_poly`), substitute the images of h
(:func:`~loopstable.poly.cp_subst`), and split the result by powers of the
homotopy variable u into families (:func:`~loopstable.funalg.poly_family`).
The homotopy carrier ``C[u]`` (:class:`PolyExtension`) holds one-variable
carrier polynomials and does its arithmetic with :mod:`loopstable.poly`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import cache
from typing import Any, Callable, Dict, List, NamedTuple

from .algebras import FinAlgebra
from .carriers import (
    RAT,
    Carrier,
    Mismatch,
    Morphism,
    PullbackCarrier,
    identity_morphism,
    preserves,
    replay,
    zero_morphism,
)
from .funalg import (
    Element,
    FunctionAlgebra,
    apply_to_coefficients,
    constant_function,
    d0,
    d1,
    function_algebra,
    global_poly,
    omega_map,
    poly_family,
    pushforward,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    transition_n,
)
from .poly import (
    ONE_MINUS_T,
    CPoly,
    cp_add,
    cp_combine,
    cp_flatten,
    cp_map_coeffs,
    cp_mul,
    cp_norm,
    cp_scale,
    cp_subst,
    qp_const,
    qp_var,
)
from .simplicial import cube, free_pair, interval_rel_one, path_pair
from .tensorj import j_kernel, j_of, tensor_algebra, word_image

class PolyExtension(Carrier):
    """``C[u]``: polynomials in one homotopy variable with C coefficients.

    Elements are one-variable carrier polynomials ``(((k,), c_k), ...)``
    (:mod:`loopstable.poly`) with nonzero ``c_k``.
    """

    def __init__(self, base: Carrier) -> None:
        self.base = base
        self.name = f"{base.name}[u]"
        self.can_decide_zero = base.can_decide_zero

    def zero(self):
        return ()

    def from_powers(self, d: Dict[int, Any]):
        """The element ``Σ_k d[k]·u^k``."""
        return cp_norm(self.base, {(k,): c for k, c in d.items()})

    def add(self, x, y):
        return cp_add(self.base, x, y)

    def scale(self, a, x):
        return cp_scale(self.base, a, x)

    def combine(self, terms):
        return cp_combine(self.base, terms)

    def evaluate(self, x, at):
        """Evaluate at a rational value of the homotopy variable."""
        value = cp_subst(self.base, x, (qp_const(at, 0),), 0)
        return value[0][1] if value else self.base.zero()

    def evaluation(self, u) -> Morphism:
        """The evaluation at ``u`` as a morphism ``C[u] → C``."""
        return Morphism(self, self.base, lambda x: self.evaluate(x, u), f"u={u}")

    def contains(self, x):
        return isinstance(x, tuple) and all(
            isinstance(e, tuple) and len(e) == 1 and isinstance(e[0], int)
            and e[0] >= 0 and self.base.contains(c)
            for e, c in x
        )


def reversed_link(link: Morphism) -> Morphism:
    """The link followed by the substitution u ↦ 1 − u."""
    px = link.target
    return Morphism(
        link.source,
        px,
        lambda x: cp_subst(px.base, link(x), (ONE_MINUS_T,), 1),
        f"rev({link.name})",
    )


@contextmanager
def paused_gc():
    """Suspend the cyclic collector during hot exact-arithmetic loops.

    All values here are acyclic (tuples of coefficients), so reference
    counting reclaims them; generational collections only add large
    scanning overhead over the memoization tables.
    """
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


# -- elementary homotopies as polynomial substitutions -------------------

# a coordinate t and the homotopy variable u
T, U = qp_var(1, 2), qp_var(2, 2)
# t·u
G_SCALE = cp_mul(RAT, T, U)
# 1 − (1−t)(1−u) = t + u − tu
G_SHRINK = cp_add(RAT, cp_add(RAT, T, U), cp_scale(RAT, -1, G_SCALE))
# (1−t)·u
G_TAIL = cp_add(RAT, U, cp_scale(RAT, -1, G_SCALE))
# (t, s, u) ↦ (t, 1 − (1−s)(1−u))
SQUARE_SHRINK = (
    qp_var(1, 3),
    cp_subst(RAT, G_SHRINK, (qp_var(2, 3), qp_var(3, 3)), 3),
)


def _substitute(p: CPoly, images, out: FunctionAlgebra) -> Dict[int, Element]:
    """p(h(t, u)) on ``out``, split by the power of u.

    ``p`` is a global polynomial (:func:`~loopstable.funalg.global_poly`)
    with coefficients in ``out.base``; ``images[i]`` replaces its i-th
    variable and is a scalar polynomial in the coordinates of ``out``
    followed by u.  The result maps each power k of u to its coefficient
    family on ``out``.
    """
    nvars = len(out.pair0.coords) + 1
    by_u: Dict[int, list] = {}
    for e, c in cp_subst(out.base, p, images, nvars):
        by_u.setdefault(e[-1], []).append((e[:-1], c))
    return {k: poly_family(out, tuple(q)) for k, q in by_u.items()}


def _pairs_by_power(car: PullbackCarrier, left: Dict[int, Any], right: Dict[int, Any]):
    """``{k: car.make(left[k], right[k])}`` over the powers of either side,
    a missing power read as that side's zero."""
    lz, rz = car.left.zero(), car.right.zero()
    return {
        k: car.make(left.get(k, lz), right.get(k, rz)) for k in set(left) | set(right)
    }


# -- extension records ----------------------------------------------------


def _identity(x):
    return x


class ExtensionData(NamedTuple):
    """A split extension kernel → mid → quotient with module splitting s.

    Validation and the strong-morphism check :func:`replay` laws on kernel
    draws at ``seed`` and quotient draws at ``seed + 1``, two lists even when
    the kernel is the quotient.
    """

    kernel: Carrier
    mid: Carrier
    quotient: Carrier
    iota: Morphism
    pi: Morphism
    s: Morphism
    name: str
    into_kernel: Callable[[Any], Any] = _identity

    # -- invariant suite -------------------------------------------------

    def validate(self, samples: int = 4, seed: int = 0) -> None:
        """Replay π∘ι = 0 (where the quotient decides zero) and the kernel
        roundtrip on kernel draws, π∘s = id on the quotient's basis vectors
        (if any) and draws, and, where the mid decides zero, additivity of s
        on each of those q₁ with each of the first three q₂."""
        kernel, quo, name = self.kernel, self.quotient, self.name
        basis = [quo.basis_vec(l) for l in quo.labels] if isinstance(quo, FinAlgebra) else []

        def quotient(xs, qs):  # the quotient's basis vectors, then its draws
            return basis + qs

        def with_first_three(xs, qs):
            q2s = quotient(xs, qs)
            return [(q1, q2) for q1 in q2s for q2 in q2s[:3]]

        into = Morphism(self.mid, kernel, self.into_kernel, "into-kernel")
        laws = [(self.pi.after(self.iota), zero_morphism(kernel, quo),
                 f"{name}: pi∘iota != 0")] if quo.can_decide_zero else []
        laws += [(into.after(self.iota), identity_morphism(kernel), f"{name}: kernel roundtrip"),
                 (self.pi.after(self.s), identity_morphism(quo), f"{name}: pi∘s != id", quotient)]
        pairs = ([preserves(self.s, "add", f"{name}: splitting") + (with_first_three,)]
                 if self.mid.can_decide_zero else [])
        replay(laws, samples, seed, pairs, sources=[kernel, quo])


def make_extension(**kw) -> ExtensionData:
    ext = ExtensionData(**kw)
    ext.validate()
    return ext


def with_splitting(E: ExtensionData, s2: Morphism) -> ExtensionData:
    ext = E._replace(s=s2, name=f"{E.name}<{s2.name}>")
    ext.validate()
    return ext


# -- the universal extension ---------------------------------------------


def universal_extension(A: Carrier) -> ExtensionData:
    """J(A) → T(A) → A with the length-one-word splitting, validated on
    each call; T(A) and J(A) themselves are one per carrier."""
    ta = tensor_algebra(A)
    J = j_kernel(A)
    return make_extension(
        kernel=J,
        mid=ta,
        quotient=A,
        iota=Morphism(J, ta, lambda x: x, "incl"),
        pi=Morphism(ta, A, ta.eta, "counit"),
        s=Morphism(A, ta, ta.sigma, "sigma"),
        name=f"U[{A.name}]",
    )


# -- classifying maps -----------------------------------------------------


def classifying_map(E: ExtensionData) -> Morphism:
    """The kernel-valued map classifying E.

    Words of the counit kernel of the quotient are multiplied out through
    the splitting; for x with zero counit image the product lies in the
    kernel of pi and is converted by the extension's kernel presentation.
    """
    ta = tensor_algebra(E.quotient)
    fn = lambda x: E.into_kernel(word_image(ta, x, E.s, E.mid))
    return Morphism(j_kernel(E.quotient), E.kernel, fn, f"xi[{E.name}]")


def strong_morphism_check(E1: ExtensionData, E2: ExtensionData, a: Morphism, b: Morphism,
                          c: Morphism, samples: int = 5, seed: int = 0) -> int:
    """Replay that (a, b, c) commutes with iota on kernel draws x, with the
    splittings on quotient draws q, and with pi on each m = s(q) + ι(x) of
    the i-th x and q; returns the number of samples replayed."""
    name = f"({a.name}, {b.name}, {c.name}): {E1.name} -> {E2.name}"

    def mid(at, x, q):  # m = s(q) + ι(x), shared by both sides
        return E1.mid.add(at(E1.s, q), at(E1.iota, x))

    return replay(
        [(b.after(E1.iota), E2.iota.after(a), f"{name} does not commute with iota"),
         (b.after(E1.s), E2.s.after(c), f"{name} does not commute with the splittings",
          lambda xs, qs: qs)],
        samples, seed, sources=[E1.kernel, E1.quotient],
        pairs=[(lambda at, x, q: E2.pi(b(at(mid, x, q))),
                lambda at, x, q: c(E1.pi(at(mid, x, q))),
                f"{name} does not commute with pi", zip)],
    )


def naturality_check(E1: ExtensionData, E2: ExtensionData, a: Morphism, c: Morphism,
                     samples: int = 10, seed: int = 0) -> int:
    """Replay xi2 ∘ J(c) = a ∘ xi1 on sampled counit-kernel elements;
    returns the number of samples replayed."""
    return replay([(classifying_map(E2).after(j_of(c)), a.after(classifying_map(E1)),
                    f"classifying maps of {E1.name} and {E2.name} do not commute with "
                    f"({a.name}, {c.name})")], samples, seed)


# -- path extensions ------------------------------------------------------


def path_splitting(B: Carrier, fa_path: FunctionAlgebra, q: CPoly, label: str) -> Morphism:
    """b ↦ b·q(t) into functions on (I,{1}), for a scalar polynomial q with
    q(0) = 1 and q(1) = 0, transitioned to ``fa_path.r``; named
    ``s[b->b(<label>)]``."""
    sfa = scalar_algebra(fa_path.pair0, 0)
    scal = transition_n(sfa, poly_family(sfa, q), fa_path.r)[1]
    return Morphism(
        B, fa_path, lambda b: scalar_to_base(fa_path, scal, b), f"s[b->b({label})]"
    )


def path_extension(B: Carrier, r: int = 0) -> ExtensionData:
    """Functions on the interval vanishing at 1, as an extension of B by
    the loops, split by b ↦ b·(1 − t); built once per ``(B, r)``, the
    carrier by identity.  The path extension of B^{𝔖_n} is this one over
    that function-algebra base."""
    return _path_extension(B, r)


@cache
def _path_extension(B: Carrier, r: int) -> ExtensionData:
    mid = function_algebra(B, interval_rel_one(), r)
    kernel = function_algebra(B, cube(1), r)
    return make_extension(
        kernel=kernel,
        mid=mid,
        quotient=B,
        iota=Morphism(kernel, mid, lambda x: mid.canon(dict(x)), "incl"),
        pi=Morphism(mid, B, lambda x: d1(mid, x), "ev0"),
        s=path_splitting(B, mid, ONE_MINUS_T, "1-t"),
        # the 0 is the dimension of the base cube, as reports have printed it
        name=f"P[0,{B.name}]_{r}",
        into_kernel=lambda y: kernel.canon(dict(y)),
    )


def lambda_(B: Carrier) -> Morphism:
    """λ : J(B) → B^{𝔖_1}, by definition the classifying map of the loop
    extension ΩB → PB → B, the path extension at r = 0."""
    return classifying_map(path_extension(B, 0)).named(f"lambda[{B.name}]_0")


def splitting_homotopy(E: ExtensionData, s2: Morphism) -> "HomotopyCertificate":
    """Interpolate two splittings linearly in the homotopy variable; the
    word products give an elementary homotopy between the two classifying
    maps (each coefficient lands in the kernel)."""
    px_mid = PolyExtension(E.mid)
    px_ker = PolyExtension(E.kernel)
    ta = tensor_algebra(E.quotient)
    dom = j_kernel(E.quotient)

    def shat(l):
        lo = E.s(l)
        return px_mid.from_powers({0: lo, 1: E.mid.sub(s2(l), lo)})

    def H(x):
        return cp_map_coeffs(E.kernel, word_image(ta, x, shat, px_mid), E.into_kernel)

    left = classifying_map(E)
    right = classifying_map(with_splitting(E, s2))
    link = Morphism(dom, px_ker, H, "splitting-interpolation")
    return HomotopyCertificate(
        name=f"splitting-independence[{E.name}]",
        left=left,
        right=right,
        chain=[link],
    )


# -- homotopy certificates -----------------------------------------------


class HomotopyCertificate(NamedTuple):
    """A chain of elementary polynomial homotopies between two morphisms.

    Each link is a morphism into the [u]-extension of the common target.
    Verification replays on draws of the common source that link₀ at u = 0
    is ``left``, the last link at u = 1 is ``right`` and linkᵢ at 1 is
    linkᵢ₊₁ at 0, and on pairs of draws that every link is additive and
    multiplicative.  Each link is evaluated once per draw, and again only
    on the sum and the product of each pair.
    """

    name: str
    left: Morphism
    right: Morphism
    chain: List[Morphism]

    def verify(self, samples: int = 20, seed: int = 0) -> int:
        """Replay the certificate; returns the number of samples replayed,
        at least two so that the algebra-map checks see a pair."""
        if not self.chain:
            raise Mismatch(f"{self.name}: empty chain of homotopies",
                           chain=self.chain)
        at0, at1 = ([h.target.evaluation(u).after(h) for h in self.chain] for u in (0, 1))
        laws = [(at0[0], self.left, f"{self.name}: u=0 endpoint"),
                (at1[-1], self.right, f"{self.name}: u=1 endpoint")]
        laws += [(h1, k0, f"{self.name}: links {i},{i + 1} do not chain")
                 for i, (h1, k0) in enumerate(zip(at1, at0[1:]))]
        pairs = [preserves(h, op, f"{self.name}: link {h.name}")
                 for h in self.chain for op in ("add", "mul")]
        with paused_gc():
            return replay(laws, max(samples, 2), seed, pairs=pairs)


# -- mapping paths --------------------------------------------------------


def mapping_path(f: Morphism) -> ExtensionData:
    """The mapping path of f : A → B as the split extension
    B^(S_1) → P[f] → A, built once per morphism, by identity.

    The mid holds pairs (p, a) with p a path in B vanishing at 1 and
    p(0) = f(a); ``mid.left`` is that path algebra.  Loops include as
    (q, 0), the projection is (p, a) ↦ a and the section
    a ↦ (f(a)(1 − t), a).
    """
    return _mapping_path(f)


@cache
def _mapping_path(f: Morphism) -> ExtensionData:
    A, Bc = f.source, f.target
    PB = function_algebra(Bc, interval_rel_one(), 0)
    loop = function_algebra(Bc, cube(1), 0)
    s_path = path_splitting(Bc, PB, ONE_MINUS_T, "1-t")

    def sample(rng):
        a = A.sample(rng)
        extra = sample_element(loop, rng, terms=1)
        p = PB.add(s_path(f(a)), PB.canon(dict(extra)))
        return car.make(p, a)

    car = PullbackCarrier(
        PB, A, Bc, lambda p: d1(PB, p), f, sample, name=f"P[{f.name}]_0"
    )
    iota = Morphism(
        loop, car, lambda q: car.make(PB.canon(dict(q)), A.zero()), "q->(q,0)"
    )
    pi = Morphism(car, A, lambda z: z[1], "pr2")
    section = Morphism(
        A, car, lambda a: car.make(s_path(f(a)), a), "a->(f(a)(1-t),a)"
    )

    def into_kernel(z):
        p, a = z
        if A.can_decide_zero and not A.is_zero(a):
            raise ValueError("element has a nonzero projection component")
        return loop.canon(dict(p))

    return make_extension(
        kernel=loop,
        mid=car,
        quotient=A,
        iota=iota,
        pi=pi,
        s=section,
        name=f"MP[{f.name}]_0",
        into_kernel=into_kernel,
    )


# -- the comparison map into the double mapping path ----------------------


def phi(f: Morphism) -> Morphism:
    """Loops in the target included into the mapping path of the mapping
    path projection, with zero path component: p ↦ ((p, 0), path-slot 0).
    Both mapping paths are ``mapping_path(f)`` and
    ``mapping_path(mapping_path(f).pi)``, built once each."""
    mp_f = mapping_path(f)
    car = mapping_path(mp_f.pi).mid

    def fn(p):
        return car.make(car.left.zero(), mp_f.iota(p))

    return Morphism(mp_f.kernel, car, fn, f"phi[{f.name}]")


def tr2_certificate(f: Morphism) -> HomotopyCertificate:
    """The rotation homotopy: the inclusion of source loops into the double
    mapping path is elementarily homotopic to the comparison map composed
    with the pushforward of the reversed loop:
    H(q) = (q(1−(1−t)(1−u)), (f(q((1−t)u)), q(u)))."""
    mp_f = mapping_path(f)
    mp_pi = mapping_path(mp_f.pi)
    Bc = f.target
    loopA = mp_pi.kernel
    Pf, Ppi = mp_f.mid, mp_pi.mid
    PA, PB = Ppi.left, Pf.left
    px = PolyExtension(Ppi)

    def H(q):
        qp = global_poly(loopA, q)
        pa = _substitute(qp, (G_SHRINK,), PA)
        pb = _substitute(cp_map_coeffs(Bc, qp, f), (G_TAIL,), PB)
        qu = {k: c for (k,), c in qp}  # q(u)
        return px.from_powers(_pairs_by_power(Ppi, pa, _pairs_by_power(Pf, pb, qu)))

    link = Morphism(loopA, px, H, "rotation-interpolation")
    return HomotopyCertificate(
        name=f"rotation[{f.name}]",
        left=mp_pi.iota,
        right=phi(f).after(pushforward(f, loopA)).after(omega_map(loopA))
        .named(f"phi∘{f.name}*∘rev"),
        chain=[link],
    )


def _contraction(fa: FunctionAlgebra, images, link: str, name: str) -> HomotopyCertificate:
    """id ≃ 0 on ``fa`` by the one elementary homotopy H(p) = p(images)."""
    px = PolyExtension(fa)
    H = lambda x: px.from_powers(_substitute(global_poly(fa, x), images, fa))
    return HomotopyCertificate(
        name=name,
        left=identity_morphism(fa),
        right=zero_morphism(fa, fa),
        chain=[Morphism(fa, px, H, link)],
    )


def pb_contraction_certificate(B: Carrier) -> HomotopyCertificate:
    """Contraction of the based path algebra: H(p) = p(1−(1−t)(1−u))."""
    fa = function_algebra(B, interval_rel_one(), 0)
    return _contraction(fa, (G_SHRINK,), "endpoint-shrink", f"path-contraction[{B.name}]")


def square_contraction_certificate(B: Carrier) -> HomotopyCertificate:
    """Contraction of functions on the square vanishing on t ∈ {0,1} and
    s = 1: H(p) = p(t, 1−(1−s)(1−u))."""
    fa = function_algebra(B, path_pair(1), 0)
    return _contraction(
        fa, SQUARE_SHRINK, "second-coordinate-shrink", f"square-contraction[{B.name}]"
    )


# -- mapping cylinders ----------------------------------------------------


class MappingCylinder(NamedTuple):
    """The mapping cylinder Z[g] of g : B → C as an extension by the
    mapping path, with the projection onto B, its section and the
    certificate that section∘pr ≃ id."""

    extension: ExtensionData
    pr: Morphism
    section: Morphism
    retract: HomotopyCertificate
    mp: ExtensionData


def mapping_cylinder(g: Morphism) -> MappingCylinder:
    """Pairs (p, b) with p a free path in the target and p(0) = g(b);
    the evaluation at 1 exhibits an extension by the mapping path of g.
    The projection (p, b) ↦ b and the section b ↦ (g(b), b) are inverse
    up to the path-scaling homotopy ``retract``, so Z[g] retracts onto
    B."""
    B, C = g.source, g.target
    mp = mapping_path(g)
    Pg = mp.mid
    PC = Pg.left
    CI = function_algebra(C, free_pair(cube(1)), 0)
    car = PullbackCarrier(
        CI, B, C, lambda p: d1(CI, p), g, lambda rng: iota(Pg.sample(rng)),
        name=f"Z[{g.name}]",
    )
    eps = Morphism(car, C, lambda z: d0(CI, z[0]), "ev1")
    iota = Morphism(
        Pg, car, lambda z: car.make(CI.canon(dict(z[0])), z[1]), "incl"
    )
    tcoord = poly_family(scalar_algebra(free_pair(cube(1)), 0), qp_var(1, 1))
    s_Z = Morphism(
        C, car, lambda c: car.make(scalar_to_base(CI, tcoord, c), B.zero()), "c->(ct,0)"
    )

    def into_kernel(z):
        p, b = z
        return Pg.make(PC.canon(dict(p)), b)

    ext = make_extension(
        kernel=Pg,
        mid=car,
        quotient=C,
        iota=iota,
        pi=eps,
        s=s_Z,
        name=f"Cyl[{g.name}]",
        into_kernel=into_kernel,
    )
    pr = Morphism(car, B, lambda z: z[1], "pr2")
    section = Morphism(
        B, car, lambda b: car.make(constant_function(CI, g(b)), b), "b->(g(b),b)"
    )
    px = PolyExtension(car)

    def H(z):
        p, b = z
        comp = _substitute(global_poly(CI, p), (G_SCALE,), CI)
        return px.from_powers(_pairs_by_power(car, comp, {0: b}))

    retract = HomotopyCertificate(
        name=f"cylinder-retract[{g.name}]",
        left=Morphism(car, car, lambda z: section(pr(z)), "section∘pr"),
        right=identity_morphism(car),
        chain=[Morphism(car, px, H, "path-scale")],
    )

    return MappingCylinder(
        extension=ext,
        pr=pr,
        section=section,
        retract=retract,
        mp=mp,
    )


# -- the three-map tower for composable morphisms -------------------------


class TR4Tower(NamedTuple):
    """The mapping paths of a and of η : P[b∘a] → P[b], the comparison map
    θ and its section, and the two certificates of :func:`tr4_tower`; the
    shortcut ξ lives inside the left end of ``triangle``."""

    mp_a: ExtensionData
    mp_eta: ExtensionData
    theta: Morphism
    section_theta: Morphism
    triangle: HomotopyCertificate
    ker_theta_contraction: HomotopyCertificate


def tr4_tower(a: Morphism, b: Morphism) -> TR4Tower:
    """All comparison maps and homotopies relating the mapping paths of
    a, b and b∘a: the double-path projection θ with its section, the
    shortcut ξ, the two elementary homotopies showing ξ∘θ ≃ projection,
    and the contraction of ker θ, the functions on the square vanishing
    on t ∈ {0,1} and s = 1 (:func:`square_contraction_certificate`)."""
    Bc, C = a.target, b.target
    c = b.after(a)  # b∘a, or a or b itself when the other is an identity
    mp_a = mapping_path(a)
    mp_b = mapping_path(b)
    mp_c = mapping_path(c)
    Pb, Pc, Pa = mp_b.mid, mp_c.mid, mp_a.mid
    PB, PC = Pa.left, Pb.left

    eta = Morphism(
        Pc, Pb, lambda w: Pb.make(w[0], a(w[1])), "(q,z)->(q,a(z))"
    )
    mp_eta = mapping_path(eta)
    Peta = mp_eta.mid
    faPPb = Peta.left  # paths in Pb vanishing at 1

    def theta_fn(zel):
        rho, w = zel
        y = apply_to_coefficients(faPPb, rho, Bc, lambda pb: pb[1])
        return Pa.make(PB.canon(dict(y)), w[1])

    theta = Morphism(Peta, Pa, theta_fn, "second-slot-path")

    def xi_fn(v):
        y, z = v
        return Pc.make(apply_to_coefficients(PB, y, C, b), z)

    xi = Morphism(Pa, Pc, xi_fn, "(y,z)->(b(y),z)")

    def section_fn(v):
        y, z = v
        yb = apply_to_coefficients(PB, y, C, b)
        pc = _substitute(global_poly(PC, yb), (G_SHRINK,), PC)
        yu = {k: c for (k,), c in global_poly(PB, y)}  # y(u)
        rho = poly_family(
            faPPb, tuple(((k,), v) for k, v in _pairs_by_power(Pb, pc, yu).items())
        )
        return Peta.make(rho, Pc.make(yb, z))

    section_theta = Morphism(Pa, Peta, section_fn, "path-thickening")

    px_c = PolyExtension(Pc)
    squares: Dict[Any, CPoly] = {}  # by ρ: H1 and H2 sweep the same square

    def sweep(zel, images):
        """The square ρ(t')(t) at (t, t') := images."""
        rho, w = zel
        square = squares.get(rho)
        if square is None:
            square = squares[rho] = cp_flatten(
                C, global_poly(faPPb, rho), lambda pb: global_poly(PC, pb[0])
            )
        parts = _substitute(square, images, PC)
        return px_c.from_powers(_pairs_by_power(Pc, parts, {0: w[1]}))

    H1 = Morphism(Peta, px_c, lambda zel: sweep(zel, (G_SCALE, T)), "diagonal-sweep-1")
    H2 = Morphism(Peta, px_c, lambda zel: sweep(zel, (T, G_SCALE)), "diagonal-sweep-2")

    triangle = HomotopyCertificate(
        name=f"triangle[{a.name},{b.name}]",
        left=Morphism(Peta, Pc, lambda zel: xi(theta(zel)), "shortcut∘proj"),
        right=mp_eta.pi,
        chain=[H1, reversed_link(H2)],
    )

    return TR4Tower(
        mp_a=mp_a,
        mp_eta=mp_eta,
        theta=theta,
        section_theta=section_theta,
        triangle=triangle,
        ker_theta_contraction=square_contraction_certificate(C),
    )
