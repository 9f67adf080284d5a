"""Split extensions of algebras and the named constructions built on them.

Provides: extension records with a validated module splitting, the universal
extension (counit-kernel inclusion into the tensor algebra), path extensions
with their t0-splitting, classifying maps of split extensions, mapping paths
(each returned as its split extension loops → P[f] → source), the comparison
map into a double mapping path, mapping cylinders, and the three-map tower
used to rotate composable morphisms, with all accompanying elementary-homotopy
certificates, verified exactly on samples that each carrier draws itself
(:meth:`~loopstable.carriers.Carrier.sample`).  Each elementary homotopy is
a polynomial substitution h(t, u): read the family's global polynomial
(:func:`~loopstable.funalg.global_poly`), substitute the images of h
(:func:`~loopstable.poly.cp_subst`), and split the result by powers of the
homotopy variable u into families (:func:`~loopstable.funalg.poly_family`).
The homotopy carrier ``C[u]`` (:class:`PolyExtension`) holds one-variable
carrier polynomials and does its arithmetic with :mod:`loopstable.poly`.
"""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager
from functools import cache
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from .algebras import FinAlgebra
from .carriers import RAT, Carrier, Mismatch, PullbackCarrier
from .funalg import (
    Element,
    FunctionAlgebra,
    apply_to_coefficients,
    constant_function,
    d0,
    d1,
    function_algebra,
    global_poly,
    mu,
    omega,
    poly_family,
    pullback_along,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    transition_n,
)
from .poly import (
    ONE_MINUS_T,
    CPoly,
    cp_add,
    cp_flatten,
    cp_map_coeffs,
    cp_mul,
    cp_norm,
    cp_scale,
    cp_subst,
    qp_const,
    qp_var,
)
from .simplicial import (
    SimplicialMap,
    cube,
    free_pair,
    interval_rel_one,
    path_pair,
    subdivide_map,
)
from .tensorj import (
    Morphism,
    identity_morphism,
    j_kernel,
    j_of,
    path_splitting,
    replay,
    tensor_algebra,
    word_image,
    zero_morphism,
)

PATH_EXT_BOUND = 2


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

    def mul(self, x, y):
        return cp_mul(self.base, x, y)

    def evaluate(self, x, at):
        """Evaluate at a rational value of the homotopy variable."""
        value = cp_subst(self.base, x, (qp_const(at, 0),), 0)
        return value[0][1] if value else self.base.zero()

    def contains(self, x):
        return isinstance(x, tuple) and all(
            isinstance(e, tuple) and len(e) == 1 and isinstance(e[0], int)
            and e[0] >= 0 and self.base.contains(c)
            for e, c in x
        )


@cache
def poly_carrier(car: Carrier) -> PolyExtension:
    """``car[u]``: the one-homotopy-variable extension, one per carrier."""
    return PolyExtension(car)


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

    Validation and the strong-morphism check draw their samples from the
    kernel and quotient carriers themselves.
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
        rng = random.Random(seed)
        mid, quo = self.mid, self.quotient
        for _ in range(samples):
            x = self.kernel.sample(rng)
            m = self.iota(x)
            if quo.can_decide_zero and not quo.is_zero(self.pi(m)):
                raise Mismatch(f"{self.name}: pi∘iota != 0", element=x)
            if self.into_kernel(m) != x:
                raise Mismatch(f"{self.name}: kernel roundtrip", element=x)
        qs = []
        if isinstance(quo, FinAlgebra):
            qs = [quo.basis_vec(l) for l in quo.labels]
        qs += [quo.sample(rng) for _ in range(samples)]
        sq = []  # s(q) for q in qs, shared by both checks
        for q in qs:
            s_q = self.s(q)
            if self.pi(s_q) != q:
                raise Mismatch(f"{self.name}: pi∘s != id", element=q)
            sq.append(s_q)
        if mid.can_decide_zero:
            for q1, s1 in zip(qs, sq):
                for q2, s2 in zip(qs[:3], sq[:3]):
                    lhs = self.s(quo.add(q1, q2))
                    rhs = mid.add(s1, s2)
                    if lhs != rhs:
                        raise Mismatch(f"{self.name}: splitting not additive",
                                       x=q1, y=q2)


def make_extension(**kw) -> ExtensionData:
    ext = ExtensionData(**kw)
    ext.validate()
    return ext


def with_splitting(E: ExtensionData, s2: Morphism) -> ExtensionData:
    ext = E._replace(s=s2, name=f"{E.name}<{s2.name}>")
    ext.validate()
    return ext


# -- the universal extension ---------------------------------------------


@cache
def universal_extension(A: Carrier) -> ExtensionData:
    """J(A) → T(A) → A with the length-one-word splitting, one per carrier
    (by identity)."""
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


def classifying_map(E: ExtensionData, f: Optional[Morphism] = None) -> Morphism:
    """The kernel-valued map classifying E along f (default: along id).

    Words of the counit kernel of the (co)domain are multiplied out through
    the splitting; for x with zero counit image the product lies in the
    kernel of pi and is converted by the extension's kernel presentation.
    """
    src = f.source if f is not None else E.quotient
    ta = tensor_algebra(src)
    dom = j_kernel(src)
    if f is not None:
        letter = lambda l: E.s(f(l))
        name = f"xi[{E.name}]∘T({f.name})"
    else:
        letter = E.s
        name = f"xi[{E.name}]"
    fn = lambda x: E.into_kernel(word_image(ta, x, letter, E.mid))
    return Morphism(dom, E.kernel, fn, name)


def strong_morphism_check(
    E1: ExtensionData,
    E2: ExtensionData,
    a: Morphism,
    b: Morphism,
    c: Morphism,
    samples: int = 5,
    seed: int = 0,
) -> int:
    """Replay that (a, b, c) commutes with iota, pi and the splittings;
    returns the number of samples replayed."""
    rng = random.Random(seed)
    name = f"({a.name}, {b.name}, {c.name}): {E1.name} -> {E2.name}"
    for _ in range(samples):
        x = E1.kernel.sample(rng)
        ix = E1.iota(x)
        if b(ix) != E2.iota(a(x)):
            raise Mismatch(f"{name} does not commute with iota", element=x)
        q = E1.quotient.sample(rng)
        sq = E1.s(q)
        if b(sq) != E2.s(c(q)):
            raise Mismatch(f"{name} does not commute with the splittings", element=q)
        m = E1.mid.add(sq, ix)
        if E2.pi(b(m)) != c(E1.pi(m)):
            raise Mismatch(f"{name} does not commute with pi", element=m)
    return samples


def naturality_check(
    E1: ExtensionData,
    E2: ExtensionData,
    a: Morphism,
    c: Morphism,
    samples: int = 10,
    seed: int = 0,
) -> int:
    """Replay xi2 ∘ J(c) = a ∘ xi1 on sampled counit-kernel elements;
    returns the number of samples replayed."""
    return replay(
        classifying_map(E2).after(j_of(c)), a.after(classifying_map(E1)),
        samples, seed,
        f"classifying maps of {E1.name} and {E2.name} do not commute with "
        f"({a.name}, {c.name})",
    )


# -- path extensions ------------------------------------------------------


def path_extension(n: int, B: Carrier, r: int = 0) -> ExtensionData:
    """Functions on the cube-with-path pair, as an extension over the
    n-cube algebra, split by b ↦ b·(1 − t_last); built once per
    ``(n, B, r)``, the carrier by identity."""
    if not 0 <= n <= PATH_EXT_BOUND:
        raise ValueError(f"path extension index {n} out of range")
    return _path_extension(n, B, r)


@cache
def _path_extension(n: int, B: Carrier, r: int) -> ExtensionData:
    if n == 0:
        mid = function_algebra(B, interval_rel_one(), r)
        kernel = function_algebra(B, cube(1), r)
        quotient = B
        s = path_splitting(B, mid)
        pi = Morphism(mid, B, lambda x: d1(mid, x), "ev0")
        iota = Morphism(kernel, mid, lambda x: mid.canon(dict(x)), "incl")
        into_kernel = lambda y: kernel.canon(dict(y))
    else:
        quotient = function_algebra(B, cube(n), r)
        mid = function_algebra(B, path_pair(n), r)
        kernel = function_algebra(B, cube(n + 1), r)
        iota = Morphism(kernel, mid, lambda x: mid.canon(dict(x)), "incl")
        into_kernel = lambda y: kernel.canon(dict(y))
        f0 = SimplicialMap.from_vertex_map(
            quotient.pair0.total, mid.pair0.total, lambda v: v + (0,)
        )
        fr = subdivide_map(f0, r)
        pi = Morphism(
            mid, quotient, lambda x: pullback_along(mid, x, fr, quotient), "ev-t0"
        )
        outer = function_algebra(quotient, interval_rel_one(), 0)
        one_minus = poly_family(scalar_algebra(interval_rel_one(), 0), ONE_MINUS_T)

        def split(x):
            return mu(outer, scalar_to_base(outer, one_minus, x))[1]

        s = Morphism(quotient, mid, split, "b->b(1-t)")
    return make_extension(
        kernel=kernel,
        mid=mid,
        quotient=quotient,
        iota=iota,
        pi=pi,
        s=s,
        name=f"P[{n},{B.name}]_{r}",
        into_kernel=into_kernel,
    )


def alternate_path_splitting(B: Carrier, fa_path: FunctionAlgebra) -> Morphism:
    """b ↦ b(1 − t²): a second module splitting of the 0-index path
    extension, used for splitting-independence interpolation."""
    sfa = scalar_algebra(free_pair(fa_path.pair0), 0)
    h = poly_family(sfa, qp_var(1, 1))
    scal0 = sfa.sub(constant_function(sfa, 1), sfa.mul(h, h))
    scal = transition_n(sfa, scal0, fa_path.r)[1]
    return Morphism(
        B, fa_path, lambda b: scalar_to_base(fa_path, scal, b), "s[b->b(1-t^2)]"
    )


def splitting_homotopy(E: ExtensionData, s2: Morphism) -> "HomotopyCertificate":
    """Interpolate two splittings linearly in the homotopy variable; the
    word products give an elementary homotopy between the two classifying
    maps (each coefficient lands in the kernel)."""
    px_mid = poly_carrier(E.mid)
    px_ker = poly_carrier(E.kernel)
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

    Each link is a morphism into the [u]-extension of the common target;
    verification checks the endpoint equalities, the chaining of
    consecutive links, and that every link is an algebra map, exactly on
    deterministic samples of the common source.  Each link is evaluated
    once per sample; the algebra-map checks reuse those images and
    evaluate the links again only on sums and products of two samples.
    """

    name: str
    left: Morphism
    right: Morphism
    chain: List[Morphism]

    def verify(self, samples: int = 20, seed: int = 0) -> int:
        """Replay the certificate; returns the number of samples replayed,
        at least two so that the algebra-map checks see a pair."""
        with paused_gc():
            return self._verify(samples, seed)

    def _verify(self, samples: int, seed: int) -> int:
        if not self.chain:
            raise Mismatch(f"{self.name}: empty chain of homotopies",
                           chain=self.chain)
        src = self.left.source
        xs = src.draws(max(samples, 2), seed)
        images = []  # images[k][i] = chain[i](xs[k])
        for x in xs:
            vals = [link(x) for link in self.chain]
            images.append(vals)
            px = self.chain[0].target
            if px.evaluate(vals[0], 0) != self.left(x):
                raise Mismatch(f"{self.name}: u=0 endpoint", element=x)
            pxl = self.chain[-1].target
            if pxl.evaluate(vals[-1], 1) != self.right(x):
                raise Mismatch(f"{self.name}: u=1 endpoint", element=x)
            for i in range(len(vals) - 1):
                a = self.chain[i].target.evaluate(vals[i], 1)
                b = self.chain[i + 1].target.evaluate(vals[i + 1], 0)
                if a != b:
                    raise Mismatch(f"{self.name}: links {i},{i + 1} do not chain",
                                   element=x)
        for x, y, vx, vy in zip(xs[::2], xs[1::2], images[::2], images[1::2]):
            for link, lx, ly in zip(self.chain, vx, vy):
                px = link.target
                if link(src.add(x, y)) != px.add(lx, ly):
                    raise Mismatch(f"{self.name}: link {link.name} not additive",
                                   x=x, y=y)
                if link(src.mul(x, y)) != px.mul(lx, ly):
                    raise Mismatch(f"{self.name}: link {link.name} not multiplicative",
                                   x=x, y=y)
        return len(xs)


# -- mapping paths --------------------------------------------------------


def mapping_path(f: Morphism, r: int = 0) -> ExtensionData:
    """The mapping path of f : A → B as the split extension
    B^(S_1)_r → P[f]_r → A, built once per ``(f, r)``, the morphism by
    identity.

    The mid holds pairs (p, a) with p a path in B vanishing at 1 and
    p(0) = f(a); ``mid.left`` is that path algebra.  Loops include as
    (q, 0), the projection is (p, a) ↦ a and the section
    a ↦ (f(a)(1 − t), a).
    """
    return _mapping_path(f, r)


@cache
def _mapping_path(f: Morphism, r: int) -> ExtensionData:
    A, Bc = f.source, f.target
    PBr = function_algebra(Bc, interval_rel_one(), r)
    loop = function_algebra(Bc, cube(1), r)
    s_path = path_splitting(Bc, PBr)

    def sample(rng):
        a = A.sample(rng)
        extra = sample_element(loop, rng, terms=1)
        p = PBr.add(s_path(f(a)), PBr.canon(dict(extra)))
        return car.make(p, a)

    car = PullbackCarrier(
        PBr, A, Bc, lambda p: d1(PBr, p), f, sample, name=f"P[{f.name}]_{r}"
    )
    iota = Morphism(
        loop, car, lambda q: car.make(PBr.canon(dict(q)), A.zero()), "q->(q,0)"
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
        name=f"MP[{f.name}]_{r}",
        into_kernel=into_kernel,
    )


# -- the comparison map into the double mapping path ----------------------


class PhiData(NamedTuple):
    phi: Morphism
    mp_f: ExtensionData
    mp_pi: ExtensionData


def phi(f: Morphism) -> PhiData:
    """Loops in the target included into the mapping path of the mapping
    path projection, with zero path component: p ↦ ((p, 0), path-slot 0)."""
    mp_f = mapping_path(f)
    mp_pi = mapping_path(mp_f.pi)
    car = mp_pi.mid

    def fn(p):
        return car.make(car.left.zero(), mp_f.iota(p))

    return PhiData(
        phi=Morphism(mp_f.kernel, car, fn, f"phi[{f.name}]"),
        mp_f=mp_f,
        mp_pi=mp_pi,
    )


def tr2_certificate(f: Morphism) -> HomotopyCertificate:
    """The rotation homotopy: the inclusion of source loops into the double
    mapping path is elementarily homotopic to the comparison map composed
    with the pushforward of the reversed loop:
    H(q) = (q(1−(1−t)(1−u)), (f(q((1−t)u)), q(u)))."""
    ph = phi(f)
    Bc = f.target
    loopA = ph.mp_pi.kernel
    Pf, Ppi = ph.mp_f.mid, ph.mp_pi.mid
    PA, PB = Ppi.left, Pf.left
    px = poly_carrier(Ppi)

    def left_fn(q):
        qrev = omega(loopA, q)
        qf = apply_to_coefficients(loopA, qrev, Bc, f)
        return ph.phi(qf)

    right = Morphism(loopA, Ppi, left_fn, f"phi∘{f.name}*∘rev")
    left = ph.mp_pi.iota

    def H(q):
        qp = global_poly(loopA, q)
        pa = _substitute(qp, (G_SHRINK,), PA)
        pb = _substitute(cp_map_coeffs(Bc, qp, f), (G_TAIL,), PB)
        qu = {k: c for (k,), c in qp}  # q(u)
        return px.from_powers(_pairs_by_power(Ppi, pa, _pairs_by_power(Pf, pb, qu)))

    link = Morphism(loopA, px, H, "rotation-interpolation")
    return HomotopyCertificate(
        name=f"rotation[{f.name}]",
        left=left,
        right=right,
        chain=[link],
    )


def _contraction(fa: FunctionAlgebra, images, link: str, name: str) -> HomotopyCertificate:
    """id ≃ 0 on ``fa`` by the one elementary homotopy H(p) = p(images)."""
    px = poly_carrier(fa)
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
    extension: ExtensionData
    pr: Morphism
    section: Morphism
    retract: HomotopyCertificate
    beta: Morphism
    mp: ExtensionData


def mapping_cylinder(g: Morphism) -> MappingCylinder:
    """Pairs (p, b) with p a free path in the target and p(0) = g(b);
    the evaluation at 1 exhibits an extension by the mapping path of g."""
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
    px = poly_carrier(car)

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

    def beta_fn(p):
        rev = omega(CI, CI.canon(dict(p)))
        return car.make(rev, B.zero())

    beta = Morphism(
        function_algebra(C, interval_rel_one(), 0), car, beta_fn, "p->(p(1-t),0)"
    )
    return MappingCylinder(
        extension=ext,
        pr=pr,
        section=section,
        retract=retract,
        beta=beta,
        mp=mp,
    )


# -- the three-map tower for composable morphisms -------------------------


class TR4Tower(NamedTuple):
    mp_a: ExtensionData
    mp_eta: ExtensionData
    theta: Morphism
    section_theta: Morphism
    xi: Morphism
    triangle: HomotopyCertificate
    ker_theta_contraction: HomotopyCertificate
    ker_embed: Morphism


def tr4_tower(a: Morphism, b: Morphism) -> TR4Tower:
    """All comparison maps and homotopies relating the mapping paths of
    a, b and b∘a: the double-path projection θ with its section, the
    shortcut ξ, the two elementary homotopies showing ξ∘θ ≃ projection,
    and the contraction of ker θ."""
    A, Bc, C = a.source, a.target, b.target
    c = Morphism(A, C, lambda x: b(a(x)), f"{b.name}∘{a.name}")
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

    px_c = poly_carrier(Pc)

    def sweep(zel, images):
        """The square ρ(t')(t) at (t, t') := images."""
        rho, w = zel
        square = cp_flatten(
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

    K = function_algebra(C, path_pair(1), 0)

    def embed_fn(x):
        # x(t, s) by powers of s
        per_s = _substitute(global_poly(K, x), (T, U), PC)
        rho = poly_family(
            faPPb, tuple(((j,), Pb.make(q, Bc.zero())) for j, q in per_s.items())
        )
        return Peta.make(rho, Pc.make(per_s.get(0, PC.zero()), A.zero()))

    ker_embed = Morphism(K, Peta, embed_fn, "square-as-double-path")

    return TR4Tower(
        mp_a=mp_a,
        mp_eta=mp_eta,
        theta=theta,
        section_theta=section_theta,
        xi=xi,
        triangle=triangle,
        ker_theta_contraction=square_contraction_certificate(C),
        ker_embed=ker_embed,
    )
