"""The loop-stable category at the representative level.

Objects are pairs (A, m) of an algebra carrier and an integer grading.
Morphisms are stored as concrete representatives f : Jᵃ A → B^{𝔖_b},
unsubdivided, together with a stabilization index; homotopy classes are
never reified.
This module provides the degree-raising operator on representatives, the
⋆ composition with its sign bookkeeping (a pending −1 is materialized by
interval reversal or a coordinate swap), and the two triangle
constructors: mapping-path triangles and extension triangles.
"""

from typing import NamedTuple, Tuple

from .carriers import Carrier, Morphism, identity_morphism
from .extensions import ExtensionData, classifying_map, lambda_, mapping_path
from .funalg import FunctionAlgebra, mu_map, omega_map, pullback_along, pushforward
from .simplicial import SimplicialMap
from .tensorj import j_of_n, kappa

INDEX_BOUND = 2
J_DEPTH_BOUND = 3

Obj = Tuple[Carrier, int]


class KKHom(NamedTuple):
    """A graded morphism representative.

    ``rep`` is a concrete map J^{m+v}A → B^{𝔖_{n+v}}, at subdivision
    level 0.  ``pending_sign``
    records an unmaterialized factor of ±1; it is resolved through an
    interval coordinate as soon as one is available and is part of the
    value until then.
    """

    source: Obj
    target: Obj
    v: int
    rep: Morphism
    pending_sign: int = 1

    @property
    def dom_index(self) -> int:
        return self.source[1] + self.v

    @property
    def cod_index(self) -> int:
        return self.target[1] + self.v


def kk_hom(
    source: Obj,
    target: Obj,
    v: int,
    rep: Morphism,
    pending_sign: int = 1,
) -> KKHom:
    """A representative of grading-``(m, n)`` morphisms with stabilization
    index ``v``; its target must not be subdivided."""
    m, n = source[1], target[1]
    if not (0 <= m + v <= INDEX_BOUND and 0 <= n + v <= INDEX_BOUND):
        raise ValueError(
            f"indices (m+v, n+v) = ({m + v}, {n + v}) outside [0, {INDEX_BOUND}]"
        )
    if pending_sign not in (1, -1):
        raise ValueError("pending_sign must be ±1")
    if isinstance(rep.target, FunctionAlgebra) and rep.target.r != 0:
        raise ValueError(f"representative target {rep.target.name} is subdivided; "
                         "representatives land at subdivision level 0")
    return KKHom(source, target, v, rep, pending_sign)


def from_algebra_map(f: Morphism, m: int = 0) -> KKHom:
    """An ordinary algebra map viewed in grading (·, m)."""
    return kk_hom((f.source, m), (f.target, m), -m, f)


def identity_hom(B: Carrier, n: int = 0) -> KKHom:
    return from_algebra_map(identity_morphism(B), n)


# -- the degree-raising operator ----------------------------------------


def lambda_rep(f: Morphism, n: int) -> Morphism:
    """Raise a representative's degree: μ^{n,1} ∘ f^{𝔖_1} ∘ λ, the chain
    ``pushforward(f) . λ`` followed by μ when n > 0.

    ``f`` maps some carrier X into B^{𝔖_n} (a plain carrier when n = 0);
    the result maps J(X) into B^{𝔖_{n+1}}.
    """
    lam = lambda_(f.source)
    rep = pushforward(f, lam.target).after(lam)
    if n > 0:
        rep = mu_map(rep.target).after(rep)
    return rep.named(f"raise({f.name})")


def promote(h: KKHom) -> KKHom:
    """The colimit structure map: bump the stabilization index by one."""
    return kk_hom(
        h.source,
        h.target,
        h.v + 1,
        lambda_rep(h.rep, h.cod_index),
        h.pending_sign,
    )


# -- sign materialization ------------------------------------------------


def swap_pullback(fa: FunctionAlgebra) -> Morphism:
    """Pullback along the swap of the first two interval coordinates.

    An odd permutation of coordinates realizes multiplication by −1 at
    the class level; applied twice it is the identity on the nose.
    """
    if len(fa.pair0.coords) < 2 or fa.r != 0:
        raise ValueError("swap needs at least two coordinates at r = 0")

    def vmap(v):
        return (v[1], v[0]) + tuple(v[2:])

    smap = SimplicialMap.from_vertex_map(fa.sset, fa.sset, vmap)
    return Morphism(fa, fa, lambda x: pullback_along(fa, x, smap, fa), "c*")


def resolve_sign(h: KKHom) -> KKHom:
    """Materialize a pending −1 through an interval coordinate.

    With one coordinate the reversal automorphism represents the class
    inverse; with two or more, the swap of the first two coordinates
    does.  With no coordinate available the flag stays pending.
    """
    if h.pending_sign == 1:
        return h
    N = h.cod_index
    fa = h.rep.target
    if N == 1:
        new = omega_map(fa).after(h.rep).named(f"rev∘{h.rep.name}")
        return h._replace(rep=new, pending_sign=1)
    if N >= 2:
        c = swap_pullback(fa)
        return h._replace(rep=c.after(h.rep), pending_sign=1)
    return h


# -- the ⋆ composition ---------------------------------------------------


def crossing_sign(n2: int, n3: int) -> int:
    """(−1)^{n2·n3}: the sign of moving n3 kernel layers past n2 loop
    coordinates when the middle stages are interleaved."""
    return -1 if (n2 * n3) % 2 else 1


def star(g: KKHom, f: KKHom, resolve: bool = True) -> KKHom:
    """The composite μ ∘ g^{𝔖} ∘ ±κ ∘ Jⁿ(f) of graded representatives.

    One ``after`` chain from J^{N3}(f): g itself when f lands in a plain
    carrier (N2 = 0); otherwise κ^{N3,N2} (the identity when N3 = 0), g
    on coefficients, and μ when g lands in a cube algebra (N4 > 0).
    """
    if f.target[0] is not g.source[0] or f.target[1] != g.source[1]:
        raise ValueError("endpoint mismatch: target of f != source of g")
    m, n = f.source[1], f.target[1]
    k = g.target[1]
    N1, N2 = f.dom_index, f.cod_index
    N3, N4 = g.dom_index, g.cod_index
    if N1 + N3 > J_DEPTH_BOUND:
        raise ValueError(f"composite depth {N1 + N3} exceeds {J_DEPTH_BOUND}")
    Cc = g.target[0]
    rep = j_of_n(f.rep, N3)
    if N2 == 0:
        # κ^{N3,0} and μ^{N4,0} are identities
        rep = g.rep.after(rep)
    else:
        rep = kappa(N3, N2, g.source[0]).after(rep)
        rep = pushforward(g.rep, rep.target).after(rep)
        if N4 > 0:
            rep = mu_map(rep.target).after(rep)
    rep = rep.named(f"{g.rep.name}⋆{f.rep.name}")
    sign = f.pending_sign * g.pending_sign * crossing_sign(N2, N3)
    # the composite has J-depth N1+N3 and loop exponent N4+N2, i.e. its
    # stabilization index is v + w + n (which is v + w when n = 0)
    out = kk_hom((f.source[0], m), (Cc, k), f.v + g.v + n, rep, sign)
    return resolve_sign(out) if resolve else out


# -- triangles -----------------------------------------------------------


class TriangleData(NamedTuple):
    """A rotated four-object diagram with its boundary morphism."""

    objects: Tuple[Obj, Obj, Obj, Obj]
    maps: Tuple[KKHom, KKHom, KKHom]

    @property
    def boundary(self) -> KKHom:
        """The first map, from the shifted quotient to the kernel."""
        return self.maps[0]


def mapping_path_triangle(f: Morphism, n: int = 0) -> TriangleData:
    """The triangle of an algebra map f : A → B through its mapping path;
    the boundary is (−1)^{n+1} · (inclusion of loops) ∘ λ."""
    A, Bc = f.source, f.target
    mp = mapping_path(f)
    P = mp.mid
    lam = lambda_(Bc)
    brep = mp.iota.after(lam).named(f"incl∘loops[{f.name}]")
    boundary = kk_hom((Bc, n + 1), (P, n), -n, brep, pending_sign=(-1) ** (n + 1))
    maps = (boundary, from_algebra_map(mp.pi, n), from_algebra_map(f, n))
    objects = ((Bc, n + 1), (P, n), (A, n), (Bc, n))
    return TriangleData(objects, maps)


def extension_triangle(E: ExtensionData, n: int = 0) -> TriangleData:
    """The triangle of a split extension; the boundary is
    (−1)^n · (classifying map)."""
    xi = classifying_map(E)
    boundary = kk_hom(
        (E.quotient, n + 1), (E.kernel, n), -n, xi, pending_sign=(-1) ** n
    )
    maps = (boundary, from_algebra_map(E.iota, n), from_algebra_map(E.pi, n))
    objects = ((E.quotient, n + 1), (E.kernel, n), (E.mid, n), (E.quotient, n))
    return TriangleData(objects, maps)
