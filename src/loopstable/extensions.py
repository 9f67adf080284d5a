"""Split extensions of algebras and the named constructions built on them.

Provides: extension records with a validated module splitting, the universal
extension (counit-kernel inclusion into the tensor algebra), path extensions
with their t0-splitting, classifying maps of split extensions, mapping paths
and their projections, the comparison map into a double mapping path, mapping
cylinders, and the three-map tower used to rotate composable morphisms, with
all accompanying elementary-homotopy certificates (explicit one-variable
polynomial interpolations that are verified exactly on samples).
"""

from __future__ import annotations

import gc
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from .algebras import FinAlgebra
from .carriers import Carrier, PolyExtension, PullbackCarrier
from .funalg import (
    Element,
    FunctionAlgebra,
    affine_coordinate,
    apply_to_coefficients,
    constant_function,
    d0,
    d1,
    function_algebra,
    interval_pair,
    mu_flat,
    omega,
    pullback_along,
    sample_element,
    scalar_algebra,
    scalar_to_base,
    transition_n,
    tower_map,
    vanishing_scalar,
)
from .poly import (
    cp_add,
    cp_constant,
    cp_from_scalar,
    cp_subst,
    cp_zero,
    qp_add,
    qp_const,
    qp_mul,
    qp_pow,
    qp_scale,
    qp_var,
)
from .simplicial import (
    SimplicialMap,
    cube,
    flatten_vertex,
    interval_rel_one,
    nd,
    path_pair,
)
from .tensorj import (
    Morphism,
    identity_morphism,
    j_kernel,
    j_of,
    path_splitting,
    sample_algebra_element,
    sample_j_element,
    tensor_algebra,
    word_image,
    zero_morphism,
)

V0 = ((0,),)
V1 = ((1,),)
EDGE = ((0,), (1,))

PATH_EXT_BOUND = 2


def _eq(car: Carrier, x, y) -> bool:
    """Equality: exact when decidable, syntactic on canonical forms else."""
    if car.can_decide_zero:
        return car.eq(x, y)
    return x == y


@cache
def poly_carrier(car: Carrier) -> PolyExtension:
    """``car[u]``: the one-homotopy-variable extension, one per carrier."""
    return PolyExtension(car)


def px_reverse(px: PolyExtension, x):
    """The substitution u ↦ 1 − u on a polynomial carrier element."""
    base = px.base
    d: Dict[int, Any] = {}
    for k, c in x:
        for j in range(k + 1):
            coef = Fraction(math.comb(k, j) * (-1) ** j)
            v = base.scale(coef, c)
            d[j] = base.add(d[j], v) if j in d else v
    return px._norm(d)


def reversed_link(link: Morphism) -> Morphism:
    px = link.target
    return Morphism(
        link.source, px, lambda x: px_reverse(px, link(x)), f"rev({link.name})"
    )


@contextmanager
def paused_gc():
    """Suspend the cyclic collector during hot exact-arithmetic loops.

    All values here are acyclic (tuples of Fractions), so reference
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


# -- polynomial presentations of interval and square families ------------


def _interval_poly(fa: FunctionAlgebra, x: Element) -> Dict[int, Any]:
    """The edge polynomial q(t) of a one-coordinate level-0 family."""
    if fa.r != 0 or len(fa.pair0.coords or ()) != 1:
        raise ValueError("interval presentation needs a one-coordinate r=0 space")
    edge = dict(x).get(EDGE, ())
    return {e[0]: c for e, c in edge}


def _interval_family(fa: FunctionAlgebra, coeffs: Dict[int, Any]) -> Element:
    """The family with edge polynomial Σ c_k t^k (endpoints derived)."""
    base = fa.base
    v0 = coeffs.get(0, base.zero())
    v1 = base.zero()
    for c in coeffs.values():
        v1 = base.add(v1, c)
    edge = tuple(
        sorted(((k,), c) for k, c in coeffs.items() if not base.is_zero(c))
    )
    return fa.canon(
        {
            V0: cp_constant(base, v0, 0),
            V1: cp_constant(base, v1, 0),
            EDGE: edge,
        }
    )


def poly_family(fa: FunctionAlgebra, d: Dict[Tuple[int, ...], Any]) -> Element:
    """The family of a global polynomial Σ c_e Π t_i^{e_i} on a flat cube.

    Evaluates the polynomial simplexwise through the affine coordinate
    expressions; canonicalization verifies the vanishing conditions.
    """
    if fa.r != 0 or fa.pair0.coords is None:
        raise ValueError("polynomial families need a flat r=0 space")
    ncoords = len(fa.pair0.coords)
    parts = {}
    for bsx in fa.sset.bases():
        acc = cp_zero()
        for e, c in d.items():
            qp = _monomial_on_simplex(fa, bsx, e, ncoords)
            acc = cp_add(fa.base, acc, cp_from_scalar(fa.base, qp, c))
        parts[bsx] = acc
    return fa.canon(parts)


@cache
def _coordinate_images(fa: FunctionAlgebra, bsx, ncoords: int):
    """The cube coordinates t_i in the affine coordinates of one simplex."""
    p = fa.sset.dims[bsx]
    verts = [flatten_vertex(v[0]) for v in fa.sset.vertices(nd(bsx))]
    images = []
    for i in range(ncoords):
        poly = qp_const(verts[0][i], p)
        for j in range(1, p + 1):
            poly = qp_add(
                poly,
                qp_scale(Fraction(verts[j][i] - verts[0][i]), qp_var(j, p)),
            )
        images.append(poly)
    return tuple(images)


@cache
def _monomial_on_simplex(fa: FunctionAlgebra, bsx, e: Tuple[int, ...], ncoords: int):
    """Π t_i^{e_i} expressed in the affine coordinates of one simplex."""
    images = _coordinate_images(fa, bsx, ncoords)
    qp = qp_const(1, fa.sset.dims[bsx])
    for i, ei in enumerate(e):
        if ei:
            qp = qp_mul(qp, qp_pow(images[i], ei))
    return qp


_SQ_TOP = ((0, 0), (1, 0), (1, 1))


def _square_poly(fa: FunctionAlgebra, x: Element) -> Dict[Tuple[int, int], Any]:
    """The global polynomial p(t, s) of a two-coordinate level-0 family.

    Read off the triangle 00 ≤ 10 ≤ 11, where the barycentric variables
    invert affinely: x1 = t − s, x2 = s.
    """
    if fa.r != 0 or len(fa.pair0.coords or ()) != 2:
        raise ValueError("square presentation needs a two-coordinate r=0 space")
    stored = dict(x).get(_SQ_TOP, ())
    t_minus_s = qp_add(qp_var(1, 2), qp_scale(Fraction(-1), qp_var(2, 2)))
    images = [t_minus_s, qp_var(2, 2)]
    out = cp_subst(fa.base, stored, images, 2)
    return {e: c for e, c in out}


# -- small rational polynomials in (t, u) used by the homotopies ---------

Poly2 = Dict[Tuple[int, int], Fraction]

# 1 − (1−t)(1−u) = t + u − tu
G_SHRINK: Poly2 = {(1, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(-1)}
# (1−t)·u
G_TAIL: Poly2 = {(0, 1): Fraction(1), (1, 1): Fraction(-1)}
# t·u
G_SCALE: Poly2 = {(1, 1): Fraction(1)}


def _p2_mul(a: Poly2, b: Poly2) -> Poly2:
    out: Poly2 = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _p2_pow(g: Poly2, e: int, memo: Dict[int, Poly2]) -> Poly2:
    if e not in memo:
        if e == 0:
            memo[e] = {(0, 0): Fraction(1)}
        else:
            memo[e] = _p2_mul(_p2_pow(g, e - 1, memo), g)
    return memo[e]


def _compose1(
    base: Carrier, qdict: Dict[int, Any], g: Poly2
) -> Dict[int, Dict[int, Any]]:
    """q(g(t, u)) for q(t) = Σ c_e t^e, split by u-power."""
    memo: Dict[int, Poly2] = {}
    out: Dict[int, Dict[int, Any]] = {}
    for e, c in qdict.items():
        for (i, k), a in _p2_pow(g, e, memo).items():
            tp = out.setdefault(k, {})
            v = base.scale(a, c)
            tp[i] = base.add(tp[i], v) if i in tp else v
    return out


def _px_from_tpolys(fa: FunctionAlgebra, d: Dict[int, Dict[int, Any]]):
    px = poly_carrier(fa)
    out = px.zero()
    for k, tp in d.items():
        out = px.add(out, px.monomial(k, _interval_family(fa, tp)))
    return out


def compose_interval(
    xfa: FunctionAlgebra, x: Element, g: Poly2, out_fa: Optional[FunctionAlgebra] = None
):
    """x(g(t, u)) as an element of ``out_fa[u]`` (default: ``xfa[u]``)."""
    tgt = out_fa or xfa
    return _px_from_tpolys(tgt, _compose1(xfa.base, _interval_poly(xfa, x), g))


# -- generic family sampler over arbitrary base carriers -----------------


def sampled_family(
    fa: FunctionAlgebra,
    rng: random.Random,
    base_sampler: Optional[Callable] = None,
    degree: int = 2,
    terms: int = 2,
) -> Element:
    """Like the built-in cube sampler, but with a custom coefficient sampler
    (required over pullback or other non-built-in base carriers)."""
    if base_sampler is None:
        return sample_element(fa, rng, degree, terms)
    pair0 = fa.pair0
    sfa = scalar_algebra(pair0, 0, relative=False)
    if fa.relative:
        V = vanishing_scalar(pair0)
    else:
        V = constant_function(sfa, Fraction(1))
    handles = [affine_coordinate(sfa, i) for i in range(len(pair0.coords))]
    fa0 = function_algebra(fa.base, pair0, 0, fa.relative)
    total = fa0.zero()
    for _ in range(terms):
        bel = base_sampler(rng)
        P = V
        for _ in range(rng.randint(0, max(degree - 1, 0))):
            combo = constant_function(sfa, Fraction(rng.randint(-2, 2)))
            for h in handles:
                combo = sfa.add(combo, sfa.scale(Fraction(rng.randint(-2, 2)), h))
            P = sfa.mul(P, combo)
        total = fa0.add(total, scalar_to_base(fa0, P, bel))
    return transition_n(fa0, total, fa.r)[1]


# -- extension records ----------------------------------------------------


class ExtensionError(ValueError):
    pass


@dataclass
class ExtensionData:
    """A split extension kernel → mid → quotient with module splitting s."""

    kernel: Carrier
    mid: Carrier
    quotient: Carrier
    iota: Morphism
    pi: Morphism
    s: Morphism
    name: str
    into_kernel: Callable[[Any], Any] = None
    kernel_sampler: Callable[[random.Random], Any] = None
    quotient_sampler: Callable[[random.Random], Any] = None

    def __post_init__(self):
        if self.into_kernel is None:
            self.into_kernel = lambda x: x
        if self.kernel_sampler is None:
            self.kernel_sampler = lambda rng: sample_algebra_element(
                self.kernel, rng
            )
        if self.quotient_sampler is None:
            self.quotient_sampler = lambda rng: sample_algebra_element(
                self.quotient, rng
            )

    # -- invariant suite -------------------------------------------------

    def validate(self, samples: int = 4, seed: int = 0) -> None:
        rng = random.Random(seed)
        ker, mid, quo = self.kernel, self.mid, self.quotient
        for _ in range(samples):
            x = self.kernel_sampler(rng)
            m = self.iota(x)
            if quo.can_decide_zero and not quo.is_zero(self.pi(m)):
                raise ExtensionError(f"{self.name}: pi∘iota != 0 at {x!r}")
            if not _eq(ker, self.into_kernel(m), x):
                raise ExtensionError(f"{self.name}: kernel roundtrip at {x!r}")
        qs = []
        if isinstance(quo, FinAlgebra):
            qs = [quo.basis_vec(l) for l in quo.labels]
        qs += [self.quotient_sampler(rng) for _ in range(samples)]
        for q in qs:
            if not _eq(quo, self.pi(self.s(q)), q):
                raise ExtensionError(f"{self.name}: pi∘s != id at {q!r}")
        if mid.can_decide_zero:
            for q1 in qs:
                for q2 in qs[:3]:
                    lhs = self.s(quo.add(q1, q2))
                    rhs = mid.add(self.s(q1), self.s(q2))
                    if not _eq(mid, lhs, rhs):
                        raise ExtensionError(
                            f"{self.name}: splitting not additive at "
                            f"({q1!r}, {q2!r})"
                        )


def make_extension(validate: bool = True, samples: int = 4, seed: int = 0, **kw):
    ext = ExtensionData(**kw)
    if validate:
        ext.validate(samples=samples, seed=seed)
    return ext


def with_splitting(E: ExtensionData, s2: Morphism, validate: bool = True):
    ext = replace(E, s=s2, name=f"{E.name}<{s2.name}>")
    if validate:
        ext.validate()
    return ext


# -- the universal extension ---------------------------------------------


def universal_extension(A: Carrier) -> ExtensionData:
    """J(A) → T(A) → A with the length-one-word splitting."""
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
        kernel_sampler=lambda rng: sample_j_element(A, rng),
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
) -> bool:
    """(a, b, c) commutes with iota, pi and the splittings, on samples."""
    rng = random.Random(seed)
    for _ in range(samples):
        x = E1.kernel_sampler(rng)
        if not _eq(E2.mid, b(E1.iota(x)), E2.iota(a(x))):
            return False
        q = E1.quotient_sampler(rng)
        if not _eq(E2.mid, b(E1.s(q)), E2.s(c(q))):
            return False
        m = E1.mid.add(E1.s(q), E1.iota(x))
        if not _eq(E2.quotient, E2.pi(b(m)), c(E1.pi(m))):
            return False
    return True


def naturality_check(
    E1: ExtensionData,
    E2: ExtensionData,
    a: Morphism,
    c: Morphism,
    samples: int = 10,
    seed: int = 0,
) -> bool:
    """xi2 ∘ J(c) = a ∘ xi1 on sampled counit-kernel elements."""
    xi1 = classifying_map(E1)
    xi2 = classifying_map(E2)
    jc = j_of(c)
    rng = random.Random(seed)
    for _ in range(samples):
        x = sample_j_element(E1.quotient, rng)
        if not _eq(E2.kernel, xi2(jc(x)), a(xi1(x))):
            return False
    return True


# -- path extensions ------------------------------------------------------


def path_extension(n: int, B: Carrier, r: int = 0) -> ExtensionData:
    """Functions on the cube-with-path pair, as an extension over the
    n-cube algebra, split by b ↦ b·(1 − t_last)."""
    if not 0 <= n <= PATH_EXT_BOUND:
        raise ValueError(f"path extension index {n} out of range")
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
            quotient.levels[0].total,
            mid.levels[0].total,
            lambda v: v + (0,),
            name="t0-face",
        )
        fr = tower_map(f0, quotient.levels, mid.levels, r)
        pi = Morphism(
            mid, quotient, lambda x: pullback_along(mid, x, fr, quotient), "ev-t0"
        )
        outer = function_algebra(quotient, interval_rel_one(), 0, relative=True)
        sfa = scalar_algebra(interval_rel_one(), 0)
        one_minus = sfa.sub(
            constant_function(sfa, Fraction(1)), affine_coordinate(sfa, 0)
        )

        def split(x):
            return mu_flat(outer, scalar_to_base(outer, one_minus, x))[1]

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
    sfa = scalar_algebra(fa_path.pair0, 0)
    h = affine_coordinate(sfa, 0)
    scal0 = sfa.sub(constant_function(sfa, Fraction(1)), sfa.mul(h, h))
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
        hi = E.mid.sub(s2(l), lo)
        return px_mid.add(px_mid.monomial(0, lo), px_mid.monomial(1, hi))

    def H(x):
        w = word_image(ta, x, shat, px_mid)
        return px_ker._norm({k: E.into_kernel(c) for k, c in w})

    left = classifying_map(E)
    right = classifying_map(with_splitting(E, s2))
    link = Morphism(dom, px_ker, H, "splitting-interpolation")
    return HomotopyCertificate(
        name=f"splitting-independence[{E.name}]",
        left=left,
        right=right,
        chain=[link],
        sampler=lambda rng: sample_j_element(E.quotient, rng),
    )


# -- homotopy certificates -----------------------------------------------


class CertificateError(AssertionError):
    pass


@dataclass
class HomotopyCertificate:
    """A chain of elementary polynomial homotopies between two morphisms.

    Each link is a morphism into the [u]-extension of the common target;
    verification checks the endpoint equalities, the chaining of
    consecutive links, and that every link is an algebra map, exactly on
    deterministic samples.
    """

    name: str
    left: Morphism
    right: Morphism
    chain: List[Morphism]
    sampler: Callable[[random.Random], Any]
    provenance: str = "shipped"

    def verify(
        self,
        samples: int = 20,
        seed: int = 0,
        multiplicative: bool = True,
        multiplicative_pairs: Optional[int] = None,
    ) -> None:
        with paused_gc():
            self._verify(samples, seed, multiplicative, multiplicative_pairs)

    def _verify(
        self,
        samples: int,
        seed: int,
        multiplicative: bool,
        multiplicative_pairs: Optional[int] = None,
    ) -> None:
        rng = random.Random(seed)
        tgt = self.left.target
        xs = [self.sampler(rng) for _ in range(max(samples, 2))]
        if not self.chain:
            for x in xs:
                if not _eq(tgt, self.left(x), self.right(x)):
                    raise CertificateError(
                        f"{self.name}: endpoints differ at {x!r}"
                    )
            return
        for x in xs:
            vals = [link(x) for link in self.chain]
            px = self.chain[0].target
            if not _eq(tgt, px.evaluate(vals[0], 0), self.left(x)):
                raise CertificateError(f"{self.name}: u=0 endpoint at {x!r}")
            pxl = self.chain[-1].target
            if not _eq(tgt, pxl.evaluate(vals[-1], 1), self.right(x)):
                raise CertificateError(f"{self.name}: u=1 endpoint at {x!r}")
            for i in range(len(vals) - 1):
                a = self.chain[i].target.evaluate(vals[i], 1)
                b = self.chain[i + 1].target.evaluate(vals[i + 1], 0)
                if not _eq(tgt, a, b):
                    raise CertificateError(
                        f"{self.name}: links {i},{i + 1} do not chain at {x!r}"
                    )
        if multiplicative:
            src = self.left.source
            pairs = list(zip(xs[::2], xs[1::2]))
            if multiplicative_pairs is not None:
                pairs = pairs[:multiplicative_pairs]
            for x, y in pairs:
                for link in self.chain:
                    px = link.target
                    if not _eq(px, link(src.add(x, y)), px.add(link(x), link(y))):
                        raise CertificateError(
                            f"{self.name}: link {link.name} not additive"
                        )
                    if not _eq(px, link(src.mul(x, y)), px.mul(link(x), link(y))):
                        raise CertificateError(
                            f"{self.name}: link {link.name} not multiplicative"
                        )


# -- mapping paths --------------------------------------------------------


@dataclass
class MappingPath:
    """Pairs (p, a) with p a path in the target vanishing at 1 and
    p(0) = f(a), together with the inclusion of loops and the projection."""

    f: Morphism
    r: int
    carrier: PullbackCarrier
    iota: Morphism
    pi: Morphism
    section: Morphism
    extension: ExtensionData
    path_algebra: FunctionAlgebra
    loop_algebra: FunctionAlgebra
    mid_sampler: Callable[[random.Random], Any]


def mapping_path(
    f: Morphism,
    r: int = 0,
    source_sampler: Optional[Callable] = None,
    target_sampler: Optional[Callable] = None,
) -> MappingPath:
    A, Bc = f.source, f.target
    if source_sampler is None:
        source_sampler = lambda rng: sample_algebra_element(A, rng)
    if target_sampler is None:
        target_sampler = lambda rng: sample_algebra_element(Bc, rng)
    PBr = function_algebra(Bc, interval_rel_one(), r)
    loop = function_algebra(Bc, cube(1), r)
    car = PullbackCarrier(
        PBr, A, Bc, lambda p: d1(PBr, p), f, name=f"P[{f.name}]_{r}"
    )
    s_path = path_splitting(Bc, PBr)
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

    def mid_sample(rng):
        a = source_sampler(rng)
        extra = sampled_family(loop, rng, base_sampler=target_sampler, terms=1)
        p = PBr.add(s_path(f(a)), PBr.canon(dict(extra)))
        return car.make(p, a)

    ext = make_extension(
        kernel=loop,
        mid=car,
        quotient=A,
        iota=iota,
        pi=pi,
        s=section,
        name=f"MP[{f.name}]_{r}",
        into_kernel=into_kernel,
        kernel_sampler=lambda rng: sampled_family(
            loop, rng, base_sampler=target_sampler
        ),
        quotient_sampler=source_sampler,
    )
    return MappingPath(
        f=f,
        r=r,
        carrier=car,
        iota=iota,
        pi=pi,
        section=section,
        extension=ext,
        path_algebra=PBr,
        loop_algebra=loop,
        mid_sampler=mid_sample,
    )


# -- the comparison map into the double mapping path ----------------------


@dataclass
class PhiData:
    phi: Morphism
    mp_f: MappingPath
    mp_pi: MappingPath


def phi(f: Morphism, mp_f: Optional[MappingPath] = None) -> PhiData:
    """Loops in the target included into the mapping path of the mapping
    path projection, with zero path component: p ↦ ((p, 0), path-slot 0)."""
    if mp_f is None:
        mp_f = mapping_path(f)
    mp_pi = mapping_path(
        mp_f.pi,
        r=mp_f.r,
        source_sampler=mp_f.mid_sampler,
    )
    PA = mp_pi.path_algebra
    car = mp_pi.carrier

    def fn(p):
        return car.make(PA.zero(), mp_f.iota(p))

    return PhiData(
        phi=Morphism(mp_f.loop_algebra, car, fn, f"phi[{f.name}]"),
        mp_f=mp_f,
        mp_pi=mp_pi,
    )


def tr2_certificate(f: Morphism, ph: Optional[PhiData] = None) -> HomotopyCertificate:
    """The rotation homotopy: the inclusion of source loops into the double
    mapping path is elementarily homotopic to the comparison map composed
    with the pushforward of the reversed loop:
    H(q) = (q(1−(1−t)(1−u)), (f(q((1−t)u)), q(u)))."""
    if ph is None:
        ph = phi(f)
    mp_f, mp_pi = ph.mp_f, ph.mp_pi
    A, Bc = f.source, f.target
    loopA = function_algebra(A, cube(1), mp_f.r)
    PA, PB = mp_pi.path_algebra, mp_f.path_algebra
    Pf, Ppi = mp_f.carrier, mp_pi.carrier
    px = poly_carrier(Ppi)

    def left_fn(q):
        qrev = omega(loopA, q)
        qf = apply_to_coefficients(loopA, qrev, Bc, f)
        return ph.phi(qf)

    right = Morphism(loopA, Ppi, left_fn, f"phi∘{f.name}*∘rev")
    left = mp_pi.iota

    def H(q):
        qd = _interval_poly(loopA, q)
        pa = _compose1(A, qd, G_SHRINK)
        qf = {i: f(c) for i, c in qd.items()}
        pb = _compose1(Bc, qf, G_TAIL)
        out = px.zero()
        for k in set(pa) | set(pb) | set(qd):
            pa_k = _interval_family(PA, pa.get(k, {}))
            pb_k = _interval_family(PB, pb.get(k, {}))
            a_k = qd.get(k, A.zero())
            out = px.add(out, px.monomial(k, Ppi.make(pa_k, Pf.make(pb_k, a_k))))
        return out

    link = Morphism(loopA, px, H, "rotation-interpolation")
    return HomotopyCertificate(
        name=f"rotation[{f.name}]",
        left=left,
        right=right,
        chain=[link],
        sampler=lambda rng: sample_element(loopA, rng),
    )


def pb_contraction_certificate(B: Carrier, name: str = "") -> HomotopyCertificate:
    """Contraction of the based path algebra: H(p) = p(1−(1−t)(1−u))."""
    fa = function_algebra(B, interval_rel_one(), 0)
    link = Morphism(
        fa,
        poly_carrier(fa),
        lambda x: compose_interval(fa, x, G_SHRINK),
        "endpoint-shrink",
    )
    return HomotopyCertificate(
        name=name or f"path-contraction[{B.name}]",
        left=identity_morphism(fa),
        right=zero_morphism(fa, fa),
        chain=[link],
        sampler=lambda rng: sample_element(fa, rng),
    )


def square_contraction_certificate(B: Carrier) -> HomotopyCertificate:
    """Contraction of functions on the square vanishing on t ∈ {0,1} and
    s = 1: H(p) = p(t, 1−(1−s)(1−u))."""
    fa = function_algebra(B, path_pair(1), 0)
    px = poly_carrier(fa)

    def H(x):
        d2 = _square_poly(fa, x)
        qcache: Dict[int, Poly2] = {}
        acc: Dict[int, Dict[Tuple[int, int], Any]] = {}
        for (i, j), c in d2.items():
            for (js, k), a in _p2_pow(G_SHRINK, j, qcache).items():
                tp = acc.setdefault(k, {})
                key = (i, js)
                v = B.scale(a, c)
                tp[key] = B.add(tp[key], v) if key in tp else v
        out = px.zero()
        for k, d in acc.items():
            out = px.add(out, px.monomial(k, poly_family(fa, d)))
        return out

    link = Morphism(fa, px, H, "second-coordinate-shrink")
    return HomotopyCertificate(
        name=f"square-contraction[{B.name}]",
        left=identity_morphism(fa),
        right=zero_morphism(fa, fa),
        chain=[link],
        sampler=lambda rng: sample_element(fa, rng),
    )


# -- mapping cylinders ----------------------------------------------------


@dataclass
class MappingCylinder:
    g: Morphism
    carrier: PullbackCarrier
    extension: ExtensionData
    pr: Morphism
    section: Morphism
    retract: HomotopyCertificate
    beta: Morphism
    mp: MappingPath


def mapping_cylinder(
    g: Morphism,
    source_sampler: Optional[Callable] = None,
) -> MappingCylinder:
    """Pairs (p, b) with p a free path in the target and p(0) = g(b);
    the evaluation at 1 exhibits an extension by the mapping path of g."""
    B, C = g.source, g.target
    if source_sampler is None:
        source_sampler = lambda rng: sample_algebra_element(B, rng)
    CI = function_algebra(C, interval_pair(), 0)
    car = PullbackCarrier(
        CI, B, C, lambda p: d1(CI, p), g, name=f"Z[{g.name}]"
    )
    eps = Morphism(car, C, lambda z: d0(CI, z[0]), "ev1")
    mp = mapping_path(g, 0, source_sampler=source_sampler)
    Pg = mp.carrier
    PC = mp.path_algebra
    iota = Morphism(
        Pg, car, lambda z: car.make(CI.canon(dict(z[0])), z[1]), "incl"
    )
    sfa = scalar_algebra(interval_pair(), 0)
    tcoord = affine_coordinate(sfa, 0)
    s_Z = Morphism(
        C, car, lambda c: car.make(scalar_to_base(CI, tcoord, c), B.zero()), "c->(ct,0)"
    )

    def into_kernel(z):
        p, b = z
        return Pg.make(PC.canon(dict(p)), b)

    def mid_sample(rng):
        z = mp.mid_sampler(rng)
        return iota(z)

    ext = make_extension(
        kernel=Pg,
        mid=car,
        quotient=C,
        iota=iota,
        pi=eps,
        s=s_Z,
        name=f"Cyl[{g.name}]",
        into_kernel=into_kernel,
        kernel_sampler=mp.mid_sampler,
    )
    pr = Morphism(car, B, lambda z: z[1], "pr2")
    section = Morphism(
        B, car, lambda b: car.make(constant_function(CI, g(b)), b), "b->(g(b),b)"
    )
    px = poly_carrier(car)

    def H(z):
        p, b = z
        comp = dict(compose_interval(CI, p, G_SCALE))
        out = px.zero()
        for k in set(comp) | {0}:
            pk = comp.get(k, CI.zero())
            pair = car.make(pk, b if k == 0 else B.zero())
            out = px.add(out, px.monomial(k, pair))
        return out

    retract = HomotopyCertificate(
        name=f"cylinder-retract[{g.name}]",
        left=Morphism(car, car, lambda z: section(pr(z)), "section∘pr"),
        right=identity_morphism(car),
        chain=[Morphism(car, px, H, "path-scale")],
        sampler=mid_sample,
    )

    def beta_fn(p):
        rev = omega(CI, CI.canon(dict(p)))
        return car.make(rev, B.zero())

    beta = Morphism(
        function_algebra(C, interval_rel_one(), 0), car, beta_fn, "p->(p(1-t),0)"
    )
    return MappingCylinder(
        g=g,
        carrier=car,
        extension=ext,
        pr=pr,
        section=section,
        retract=retract,
        beta=beta,
        mp=mp,
    )


# -- the three-map tower for composable morphisms -------------------------


@dataclass
class TR4Tower:
    a: Morphism
    b: Morphism
    c: Morphism
    mp_a: MappingPath
    mp_b: MappingPath
    mp_c: MappingPath
    eta: Morphism
    mp_eta: MappingPath
    theta: Morphism
    section_theta: Morphism
    xi: Morphism
    H1: Morphism
    H2: Morphism
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
    Pb, Pc, Pa = mp_b.carrier, mp_c.carrier, mp_a.carrier
    PB, PC = mp_a.path_algebra, mp_b.path_algebra

    eta = Morphism(
        Pc, Pb, lambda w: Pb.make(w[0], a(w[1])), "(q,z)->(q,a(z))"
    )
    mp_eta = mapping_path(
        eta,
        source_sampler=mp_c.mid_sampler,
        target_sampler=mp_b.mid_sampler,
    )
    Peta = mp_eta.carrier
    faPPb = mp_eta.path_algebra  # paths in Pb vanishing at 1

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
        comp = _compose1(C, _interval_poly(PC, yb), G_SHRINK)
        yd = _interval_poly(PB, y)
        coeffs = {}
        for j in set(comp) | set(yd):
            pc_j = _interval_family(PC, comp.get(j, {}))
            coeffs[j] = Pb.make(pc_j, yd.get(j, Bc.zero()))
        rho = _interval_family(faPPb, coeffs)
        return Peta.make(rho, Pc.make(yb, z))

    section_theta = Morphism(Pa, Peta, section_fn, "path-thickening")

    def _square_of(rho) -> Dict[Tuple[int, int], Any]:
        out: Dict[Tuple[int, int], Any] = {}
        for j, pb in _interval_poly(faPPb, rho).items():
            for i, cc in _interval_poly(PC, pb[0]).items():
                key = (i, j)
                out[key] = C.add(out[key], cc) if key in out else cc
        return out

    px_c = poly_carrier(Pc)

    def _assemble(acc: Dict[int, Dict[int, Any]], z):
        out = px_c.zero()
        ks = set(acc) | {0}
        for k in ks:
            pc_k = _interval_family(PC, acc.get(k, {}))
            out = px_c.add(
                out, px_c.monomial(k, Pc.make(pc_k, z if k == 0 else A.zero()))
            )
        return out

    def H1_fn(zel):
        rho, w = zel
        acc: Dict[int, Dict[int, Any]] = {}
        for (i, j), cc in _square_of(rho).items():
            tp = acc.setdefault(i, {})
            key = i + j
            tp[key] = C.add(tp[key], cc) if key in tp else cc
        return _assemble(acc, w[1])

    def H2_fn(zel):
        rho, w = zel
        acc: Dict[int, Dict[int, Any]] = {}
        for (i, j), cc in _square_of(rho).items():
            tp = acc.setdefault(j, {})
            key = i + j
            tp[key] = C.add(tp[key], cc) if key in tp else cc
        return _assemble(acc, w[1])

    H1 = Morphism(Peta, px_c, H1_fn, "diagonal-sweep-1")
    H2 = Morphism(Peta, px_c, H2_fn, "diagonal-sweep-2")

    def peta_sample(rng):
        return mp_eta.mid_sampler(rng)

    triangle = HomotopyCertificate(
        name=f"triangle[{a.name},{b.name}]",
        left=Morphism(Peta, Pc, lambda zel: xi(theta(zel)), "shortcut∘proj"),
        right=mp_eta.pi,
        chain=[H1, reversed_link(H2)],
        sampler=peta_sample,
    )

    K = function_algebra(C, path_pair(1), 0)

    def embed_fn(x):
        d2 = _square_poly(K, x)
        per_s: Dict[int, Dict[int, Any]] = {}
        for (i, j), cc in d2.items():
            per_s.setdefault(j, {})[i] = cc
        coeffs = {
            j: Pb.make(_interval_family(PC, tp), Bc.zero())
            for j, tp in per_s.items()
        }
        rho = _interval_family(faPPb, coeffs)
        q0 = _interval_family(PC, per_s.get(0, {}))
        return Peta.make(rho, Pc.make(q0, A.zero()))

    ker_embed = Morphism(K, Peta, embed_fn, "square-as-double-path")

    return TR4Tower(
        a=a,
        b=b,
        c=c,
        mp_a=mp_a,
        mp_b=mp_b,
        mp_c=mp_c,
        eta=eta,
        mp_eta=mp_eta,
        theta=theta,
        section_theta=section_theta,
        xi=xi,
        H1=H1,
        H2=H2,
        triangle=triangle,
        ker_theta_contraction=square_contraction_certificate(C),
        ker_embed=ker_embed,
    )


# -- triangles ------------------------------------------------------------

TRIANGLE_TAGS = ("mapping_path", "extension")


@dataclass
class TriangleData:
    """A rotated four-object diagram with its boundary morphism."""

    objects: Tuple[Tuple[Carrier, int], ...]
    maps: Tuple[Any, Any, Any]
    boundary: Any
    tag: str

    def __post_init__(self):
        if len(self.objects) != 4:
            raise ValueError("triangles have four objects")
        if self.tag not in TRIANGLE_TAGS:
            raise ValueError(f"unknown triangle tag {self.tag!r}")


# -- homotopy search ------------------------------------------------------


def search_homotopy(
    left: Morphism,
    right: Morphism,
    sampler: Callable[[random.Random], Any],
    *,
    samples: int = 8,
    seed: int = 0,
) -> Optional[HomotopyCertificate]:
    """The empty-chain certificate when the two morphisms agree exactly on
    ``samples`` sampled inputs, else None.  No homotopy is searched for."""
    rng = random.Random(seed)
    xs = [sampler(rng) for _ in range(samples)]
    tgt = left.target
    if all(_eq(tgt, left(x), right(x)) for x in xs):
        return HomotopyCertificate(
            name=f"equal[{left.name}={right.name}]",
            left=left,
            right=right,
            chain=[],
            sampler=sampler,
            provenance="trivial",
        )
    return None
