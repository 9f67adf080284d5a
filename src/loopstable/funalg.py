"""Algebras of polynomial functions on subdivided simplicial pairs.

An element of ``B^(K,L)_r`` is a family assigning to each nondegenerate
p-simplex of ``sd^r K`` a polynomial in ``t_1..t_p`` with coefficients in the
base carrier ``B``, compatible with faces and vanishing on ``sd^r L``; on
a free pair (L = ∅) this is the absolute algebra ``B^{sd^r K}``.
Families are sparse combinations ``((simplex, poly), ...)`` in the
canonical form of :mod:`loopstable.poly`, sorted by the native order of
the simplices (strictly increasing chains of :mod:`loopstable.simplicial`);
the value on a degenerate simplex, a chain with repeats, is read off its
nondegenerate part by degeneracy substitution.

A carrier keeps its pair ``pair0`` and the total and subobject of
``sd^r pair0``; the subdivision tower itself, and every map between its
levels, belongs to :mod:`loopstable.simplicial` and is shared by all
carriers on the same cube.

Provides restriction (pullback along simplicial maps), the transition map
(pullback along the last-vertex map), the multiplication morphisms μ onto
the flat cube, path concatenation, the reversal ω, change of coefficients,
deterministic samples, and the global-polynomial presentation of families
on a flat cube at r = 0 (:func:`global_poly` and its inverse
:func:`poly_family`), through which every elementary homotopy is a
polynomial substitution.  Change of coefficients, μ and ω also come as
:class:`~loopstable.carriers.Morphism` (:func:`pushforward`,
:func:`mu_map`, :func:`omega_map`), so every composite is a chain of
``Morphism.after``.
"""

from __future__ import annotations

import random
from functools import cache
from operator import add
from typing import Any, Dict, Tuple

from .carriers import RAT, Carrier, Morphism
from .poly import (
    CPoly,
    ONE_MINUS_T,
    QPoly,
    cp_add,
    cp_combine,
    cp_constant,
    cp_map_coeffs,
    cp_norm,
    cp_scale,
    cp_subst,
    cp_zero,
    delta_alpha,
    monotone_images,
    qp_const,
    qp_var,
)
from .simplicial import (
    FinSimplicialSet,
    SimplicialMap,
    SimplicialPair,
    _nondegenerate,
    cube_pair,
    free_pair,
    interval_halves,
    interval_reversal,
    last_vertex_map,
    sd_pair,
    subdivide_map,
)

Element = Tuple[Tuple[Any, CPoly], ...]


class FunctionAlgebra(Carrier):
    """The carrier ``B^(K,L)_r``; on a free pair (:func:`free_pair`) it is
    the absolute algebra ``B^{sd^r K}``."""

    def __init__(self, base: Carrier, pair0: SimplicialPair, r: int) -> None:
        self.base = base
        self.pair0 = pair0
        self.r = r
        space = sd_pair(pair0, r)
        self.sset = space.total
        self.subset = space.sub
        self.name = f"{base.name}^({pair0.name})_{r}"
        self.can_decide_zero = base.can_decide_zero

    # -- canonical elements ----------------------------------------------

    def canon(self, parts: Dict[Any, CPoly]) -> Element:
        """The family of canonical polynomials ``parts``: a sparse
        combination keyed by simplices, whose zero polynomial ``()`` is this
        carrier's zero, dropped like any zero coefficient."""
        out = {}
        for b, p in parts.items():
            if b in self.subset:
                if self.base.can_decide_zero and p:
                    raise ValueError(f"nonzero value on subobject simplex {b!r}")
                continue
            out[b] = p
        return cp_norm(self, out)

    def zero(self) -> Element:
        return ()

    def value(self, x: Element, chain: Tuple[Any, ...]) -> CPoly:
        """Value on a p-simplex of ``sd^r K`` given as a weakly increasing
        chain.  Its nondegenerate part drops the repeats; the degeneracy
        operator α : [p] → [q] sends ``j`` to the index of ``chain[j]`` in
        that part, and the value is the stored polynomial pulled back
        along α."""
        base = _nondegenerate(chain)
        stored = dict(x).get(base, cp_zero())
        if len(base) == len(chain):
            return stored
        alpha = tuple(base.index(v) for v in chain)
        q, p = len(base) - 1, len(chain) - 1
        return cp_subst(self.base, stored, monotone_images(alpha, q, p), p)

    def add(self, x: Element, y: Element) -> Element:
        d = dict(x)
        for b, p in y:
            d[b] = cp_add(self.base, d[b], p) if b in d else p
        return self.canon(d)

    def scale(self, a, x: Element) -> Element:
        return self.canon({b: cp_scale(self.base, a, p) for b, p in x})

    def combine(self, terms) -> Element:
        # a product lives on the simplices where both factors are nonzero
        groups: Dict[Any, list] = {}
        for a, xs in terms:
            if len(xs) == 1:
                for b, p in xs[0]:
                    groups.setdefault(b, []).append((a, (p,)))
                continue
            x, y = xs
            dy = dict(y)
            for b, p in x:
                if b in dy:
                    groups.setdefault(b, []).append((a, (p, dy[b])))
        return self.canon({b: cp_combine(self.base, g) for b, g in groups.items()})

    def contains(self, x) -> bool:
        """Face compatibility plus vanishing (skipped over formal bases):
        the value on ``b`` restricted to its ``i``-th face is the value on
        ``b[:i] + b[i+1:]``."""
        if not isinstance(x, tuple):
            return False
        d = dict(x)
        if any(b not in self.sset.dims for b in d):
            return False
        if any(b in self.subset for b in d):
            return False
        if not self.base.can_decide_zero:
            return True
        for b in self.sset.bases():
            q = self.sset.dims[b]
            if q == 0:
                continue
            poly = d.get(b, cp_zero())
            for i in range(q + 1):
                lhs = cp_subst(
                    self.base, poly,
                    monotone_images(delta_alpha(i, q), q, q - 1), q - 1,
                )
                rhs = d.get(b[:i] + b[i + 1:], cp_zero())
                if lhs != rhs:
                    return False
        return True

    def sample(self, rng) -> Element:
        return sample_element(self, rng)

    def check(self, x: Element) -> Element:
        if not self.contains(x):
            raise ValueError(f"invalid element of {self.name}")
        return x

    # -- point evaluation ------------------------------------------------

    def vertex_value(self, x: Element, vbase: Any):
        """The base-carrier value at a vertex."""
        p = dict(x).get(vbase, cp_zero())
        return p[0][1] if p else self.base.zero()


_function_algebra = cache(FunctionAlgebra)


def function_algebra(base: Carrier, pair0: SimplicialPair, r: int) -> FunctionAlgebra:
    """The algebra ``base^(pair0)_r``, built once per argument tuple.

    Keys are the argument objects: the carrier by identity, the pair by its
    total (by identity) and subobject, so two pairs that share only a name
    get distinct algebras.  Interning the pair constructors is what keeps
    the carriers of two calls such as ``cube(1)`` the same object.
    """
    return _function_algebra(base, pair0, r)


# -- restriction and transition -----------------------------------------


def pullback_along(
    src: FunctionAlgebra, x: Element, smap: SimplicialMap, tgt: FunctionAlgebra
) -> Element:
    """``x ∘ smap`` where ``smap : tgt.sset → src.sset``: the value on a
    simplex ``b`` is the value of ``x`` on the chain ``smap.apply(b)``,
    degenerate where ``smap`` collapses vertices of ``b``."""
    return tgt.canon({b: src.value(x, smap.apply(b)) for b in tgt.sset.bases()})


def transition(src: FunctionAlgebra, x: Element) -> Tuple[FunctionAlgebra, Element]:
    """Pullback along the last-vertex map; raises the subdivision index."""
    tgt = function_algebra(src.base, src.pair0, src.r + 1)
    return tgt, pullback_along(src, x, last_vertex_map(src.sset), tgt)


def transition_n(src: FunctionAlgebra, x: Element, n: int) -> Tuple[FunctionAlgebra, Element]:
    fa = src
    for _ in range(n):
        fa, x = transition(fa, x)
    return fa, x


# -- the multiplication morphism μ --------------------------------------


@cache
def mu_plan(outer: FunctionAlgebra):
    """The target of μ on ``outer``, the inner algebra at level r+s and the
    two subdivided projections of the flat cube onto the factors' cubes."""
    inner = outer.base
    if not isinstance(inner, FunctionAlgebra):
        raise ValueError("mu needs a function algebra of function algebras")
    B, r, s = inner.base, inner.r, outer.r
    n = len(inner.pair0.coords)
    target = function_algebra(
        B, cube_pair(inner.pair0.coords + outer.pair0.coords), r + s
    )
    inner_rs = function_algebra(B, inner.pair0, r + s)
    flat = target.pair0.total
    pr1 = SimplicialMap.from_vertex_map(flat, inner.pair0.total, lambda v: v[:n])
    pr2 = SimplicialMap.from_vertex_map(flat, outer.pair0.total, lambda v: v[n:])
    return target, inner_rs, subdivide_map(pr1, r + s), subdivide_map(pr2, r + s)


def mu(outer: FunctionAlgebra, x: Element) -> Tuple[FunctionAlgebra, Element]:
    """μ : (B^P_r)^Q_s → B^{P□Q}_{r+s} for cube pairs P and Q, where P □ Q
    is the cube pair of the concatenated profile (𝔖_n ∧ 𝔖_m ≅ 𝔖_{n+m}).

    Direct evaluation: a simplex ``z`` of the subdivided flat cube projects
    to (possibly degenerate) chains ``a``, ``b`` of the factors, along
    v ↦ v[:n] and v ↦ v[n:]; the value at ``z`` is the value at ``a`` of
    the (inner-transitioned) coefficients of the value at ``b`` of the
    (outer-transitioned) family.  On decomposable tensors this is the
    projection-pullback formula.  Many simplices ``z`` share a projected
    chain, so one call reads each outer value (by ``b``) and each inner
    value (by coefficient and ``a``) once; the terms of each exponent at
    ``z`` are summed by one ``B.combine``.
    """
    target, inner_rs, prK, prK2 = mu_plan(outer)
    inner = outer.base
    B, r, s = inner.base, inner.r, outer.r
    outer_rs_fa, x2 = transition_n(outer, x, r)
    tcache: Dict[Element, Element] = {}
    outer_values: Dict[Any, CPoly] = {}  # by chain b
    inner_values: Dict[Tuple[Element, Any], CPoly] = {}  # by (c, chain a)
    parts: Dict[Any, CPoly] = {}
    for z in target.sset.bases():
        a = prK.apply(z)
        b = prK2.apply(z)
        Q = outer_values.get(b)
        if Q is None:
            # coefficients are inner elements at r
            Q = outer_values[b] = outer_rs_fa.value(x2, b)
        groups: Dict[Tuple[int, ...], list] = {}
        for e, c in Q:
            v = inner_values.get((c, a))
            if v is None:
                if c not in tcache:
                    tcache[c] = transition_n(inner, c, s)[1]
                v = inner_values[c, a] = inner_rs.value(tcache[c], a)
            for e2, c2 in v:
                ee = tuple(map(add, e2, e))
                g = groups.get(ee)
                if g is None:
                    groups[ee] = [(1, (c2,))]
                else:
                    g.append((1, (c2,)))
        parts[z] = cp_norm(B, {
            ee: B.combine(g) if len(g) > 1 else g[0][1][0] for ee, g in groups.items()
        })
    return target, target.canon(parts)


def mu_map(outer: FunctionAlgebra) -> Morphism:
    """The flattening μ on ``outer``, onto the flat cube of its plan."""
    return Morphism(outer, mu_plan(outer)[0], lambda x: mu(outer, x)[1], "mu")


# -- interval structure: endpoints, ω, concatenation ---------------------


def endpoint_bases(r: int) -> Tuple[Any, Any]:
    """The global 0- and 1-endpoint vertex bases of sd^r I."""
    e0: Any = ((0,),)
    e1: Any = ((1,),)
    for _ in range(r):
        e0, e1 = (e0,), (e1,)
    return e0, e1


def ev_endpoint(fa: FunctionAlgebra, x: Element, which: int):
    """Evaluation at the global endpoint (0 or 1) of an interval space."""
    e0, e1 = endpoint_bases(fa.r)
    return fa.vertex_value(x, e1 if which else e0)


def d0(fa: FunctionAlgebra, x: Element):
    """Face d₀ = evaluation at the global 1-endpoint."""
    return ev_endpoint(fa, x, 1)


def d1(fa: FunctionAlgebra, x: Element):
    """Face d₁ = evaluation at the global 0-endpoint."""
    return ev_endpoint(fa, x, 0)


def omega(fa: FunctionAlgebra, x: Element) -> Element:
    """The reversal automorphism of functions on a one-coordinate space.

    At r = 0 this is the substitution t ↦ 1−t (the endpoint swap of I is
    not simplicial); at r ≥ 1 it is the pullback along the
    endpoint-exchanging simplicial automorphism of sd^r I.
    """
    if len(fa.pair0.coords) != 1:
        raise ValueError("omega acts on one-coordinate spaces only")
    if fa.r == 0:
        v0, v1, edge = ((0,),), ((1,),), ((0,), (1,))
        d = dict(x)
        parts = {
            v0: d.get(v1, cp_zero()),
            v1: d.get(v0, cp_zero()),
            edge: cp_subst(fa.base, d.get(edge, cp_zero()), (ONE_MINUS_T,), 1),
        }
        return fa.canon(parts)
    rev = interval_reversal(fa.r)
    return pullback_along(fa, x, rev, fa)


def omega_map(fa: FunctionAlgebra) -> Morphism:
    """The reversal ω of a one-coordinate function algebra."""
    return Morphism(fa, fa, lambda x: omega(fa, x), "rev")


def concatenate(fa: FunctionAlgebra, x: Element, y: Element) -> Tuple[FunctionAlgebra, Element]:
    """Concatenation of interval families: x on the first half, the
    reversal of y on the second; requires d₀(x) = d₁(y)."""
    if fa.base.can_decide_zero and d0(fa, x) != d1(fa, y):
        raise ValueError("endpoint mismatch: d0(first) != d1(second)")
    tgt = function_algebra(fa.base, fa.pair0, fa.r + 1)
    f1, f2 = interval_halves(fa.r)
    if f1.source is not fa.sset:
        raise ValueError("concatenation needs a pair on the interval I^1")
    # the reversal of the second half is computed in the absolute algebra
    # (it moves any endpoint-vanishing condition to the other endpoint)
    fa_abs = function_algebra(fa.base, free_pair(fa.pair0), fa.r)
    yrev = omega(fa_abs, y)
    parts: Dict[Any, CPoly] = {}

    def put(b, p):
        if b in parts and parts[b] != p:
            raise ValueError("concatenation halves disagree on the overlap")
        parts[b] = p

    dx, dy = dict(x), dict(yrev)
    for b in fa.sset.bases():
        put(f1.apply(b), dx.get(b, cp_zero()))
        put(f2.apply(b), dy.get(b, cp_zero()))
    missing = set(tgt.sset.bases()) - set(parts)
    if missing:
        raise AssertionError(f"concatenation did not cover {missing!r}")
    return tgt, tgt.canon(parts)


def apply_to_coefficients(
    src: FunctionAlgebra, x: Element, tgt_base: Carrier, fn
) -> Element:
    """Change of base: apply ``fn`` to every polynomial coefficient.

    For a linear/multiplicative ``fn : src.base → tgt_base`` this is the
    induced map ``src.base^(K,L)_r → tgt_base^(K,L)_r``.
    """
    tgt = function_algebra(tgt_base, src.pair0, src.r)
    return tgt.canon({b: cp_map_coeffs(tgt_base, p, fn) for b, p in x})


def pushforward(f: Morphism, fa: FunctionAlgebra) -> Morphism:
    """Change of coefficients along ``f``: fa → f.target^{(pair)}_r, where
    ``fa`` has coefficients in ``f.source``."""
    if fa.base is not f.source:
        raise ValueError(f"{fa.name} does not have coefficients in {f.source.name}")
    tgt = function_algebra(f.target, fa.pair0, fa.r)
    return Morphism(fa, tgt, lambda x: apply_to_coefficients(fa, x, f.target, f),
                    f"{f.name}*")


# -- scalar families, samples, make_element ------------------------------


def scalar_algebra(pair0: SimplicialPair, r: int) -> FunctionAlgebra:
    return function_algebra(RAT, pair0, r)


def constant_function(fa: FunctionAlgebra, c) -> Element:
    """The constant family (valid on free pairs, or for c = 0)."""
    return fa.canon(
        {b: cp_constant(fa.base, c, fa.sset.dims[b]) for b in fa.sset.bases()}
    )


@cache
def _coordinate_table(sset: FinSimplicialSet) -> Dict[Any, Tuple[QPoly, ...]]:
    """For each simplex of a flat cube, the cube coordinates t_i as affine
    polynomials in the coordinates of that simplex."""
    table = {}
    for b in sset.bases():
        p = sset.dims[b]
        images = []
        for i in range(len(b[0])):
            poly: QPoly = qp_const(b[0][i], p)
            for j in range(1, p + 1):
                poly = cp_add(
                    RAT, poly, cp_scale(RAT, b[j][i] - b[0][i], qp_var(j, p))
                )
            images.append(poly)
        table[b] = tuple(images)
    return table


def poly_family(fa: FunctionAlgebra, p: CPoly) -> Element:
    """The family of a global polynomial ``p`` in the cube coordinates
    ``t_1..t_n`` of a flat r = 0 space.

    Evaluates ``p`` simplexwise through the affine coordinate images;
    canonicalization checks the vanishing conditions.
    """
    if fa.r != 0:
        raise ValueError("polynomial families need a flat r=0 space")
    return fa.canon(
        {
            b: cp_subst(fa.base, p, imgs, fa.sset.dims[b])
            for b, imgs in _coordinate_table(fa.sset).items()
        }
    )


def global_poly(fa: FunctionAlgebra, x: Element) -> CPoly:
    """The global polynomial of a family on a flat r = 0 cube, in the cube
    coordinates ``t_1..t_n``; the inverse of :func:`poly_family`.

    Read off the top chain 0…0 < 10…0 < … < 1…1, whose simplex coordinates
    invert affinely: x_i = t_i − t_{i+1} and x_n = t_n.
    """
    n = len(fa.pair0.coords)
    top = tuple(tuple(int(i < j) for i in range(n)) for j in range(n + 1))
    if fa.r != 0 or n == 0 or top not in fa.sset.dims:
        raise ValueError("global polynomials need a flat r=0 cube")
    images = [
        cp_add(RAT, qp_var(i, n), cp_scale(RAT, -1, qp_var(i + 1, n)))
        for i in range(1, n)
    ]
    images.append(qp_var(n, n))
    return cp_subst(fa.base, dict(x).get(top, cp_zero()), images, n)


@cache
def vanishing_scalar(pair0: SimplicialPair) -> Element:
    """A scalar family generating the vanishing conditions of the pair:
    the product of (t_i² − t_i) for 'both' coordinates and (t_i − 1) for
    'one' coordinates (constant 1 if the profile is empty/free); built
    once per pair."""
    sfa = scalar_algebra(free_pair(pair0), 0)
    n = len(pair0.coords)
    out = constant_function(sfa, 1)
    for i, kind in enumerate(pair0.coords):
        h = poly_family(sfa, qp_var(i + 1, n))
        if kind == "both":
            out = sfa.mul(out, sfa.sub(sfa.mul(h, h), h))
        elif kind == "one":
            out = sfa.mul(out, sfa.sub(h, constant_function(sfa, 1)))
    return out


def scalar_to_base(fa: FunctionAlgebra, scalar: Element, b) -> Element:
    """``b ⊗ q``: scale a scalar family into the base carrier."""
    scale = lambda c: fa.base.scale(c, b)
    return fa.canon({s: cp_map_coeffs(fa.base, poly, scale) for s, poly in scalar})


def make_element(fa: FunctionAlgebra, b, scalar: Element) -> Element:
    """``b ⊗ q`` with the integral family re-validated on the pair."""
    sfa = scalar_algebra(fa.pair0, fa.r)
    sfa.check(scalar)
    return fa.check(scalar_to_base(fa, scalar, b))


def sample_element(fa: FunctionAlgebra, rng: random.Random, terms: int = 2) -> Element:
    """Deterministic random element of a cube-like function algebra.

    A sum of ``terms`` terms ``b · V``, each times at most one affine
    combination of coordinates, transitioned to the requested subdivision
    level, where V is the vanishing generator and each ``b`` is drawn by
    the base carrier's own :meth:`~Carrier.sample`.
    """
    pair0 = fa.pair0
    n = len(pair0.coords)
    if not n:
        raise ValueError(f"no sampler for pair {pair0.name}")
    sfa = scalar_algebra(free_pair(pair0), 0)
    V = vanishing_scalar(pair0)
    handles = [poly_family(sfa, qp_var(i + 1, n)) for i in range(n)]
    fa0 = function_algebra(fa.base, pair0, 0)
    total = fa0.zero()
    for _ in range(terms):
        b = fa.base.sample(rng)
        P = V
        if rng.randint(0, 1):
            combo = constant_function(sfa, rng.randint(-2, 2))
            for h in handles:
                combo = sfa.add(combo, sfa.scale(rng.randint(-2, 2), h))
            P = sfa.mul(P, combo)
        total = fa0.add(total, scalar_to_base(fa0, P, b))
    return transition_n(fa0, total, fa.r)[1]
