"""Finite simplicial sets as nerves of finite posets.

Every simplicial set the engine builds is the nerve of a finite poset:
cubes {0<1}^n and their barycentric subdivisions (the nerve of a nerve's
poset of nondegenerate simplices).  Every pair on a cube (𝔖_n, the path
pair (I, {1}), the free cube (I^n, ∅) and the domains of μ) is described
by its coordinate profile alone (:func:`cube_pair`).
A p-simplex of a nerve is a weakly increasing chain ``(x_0 <= ... <= x_p)``
of poset elements, stored as a tuple.  Its nondegenerate part is the chain
with repeats dropped, ``d_i`` deletes the ``i``-th entry and ``s_j``
repeats it, so simplices need no separate face or degeneracy tables.  A
simplicial map between nerves is a monotone map of elements, applied to a
chain entrywise.

This module owns barycentric subdivision: each simplicial set is
subdivided once (``_sd``, cached by identity), so every pair on it
(:func:`sd_pair`), every subdivided map (:func:`subdivide_map`), its
last-vertex maps, the interval reversal and the interval halves share one
tower sd^r K; callers pass a level r, never a list of levels.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

#: Largest cube the engine will build (dimension bound of the design).
MAX_CUBE_DIM = 3


class FinSimplicialSet:
    """The nerve of a finite poset.

    ``elements`` must be natively ordered (numbers, or tuples of them),
    which fixes the order of simplices everywhere; ``leq`` is the partial
    order.  ``dims`` maps each nondegenerate simplex, a strictly increasing
    chain, to its dimension.
    """

    def __init__(
        self,
        elements: Iterable[Any],
        leq: Callable[[Any, Any], bool],
        name: str = "",
    ) -> None:
        self.elements = tuple(sorted(set(elements)))
        self.leq = leq
        self.name = name
        strictly_above: Dict[Any, List[Any]] = {
            e: [f for f in self.elements if f != e and leq(e, f)]
            for e in self.elements
        }
        chains: List[Tuple[Any, ...]] = [(e,) for e in self.elements]
        frontier = chains[:]
        while frontier:
            frontier = [c + (e,) for c in frontier for e in strictly_above[c[-1]]]
            chains.extend(frontier)
        self.dims = {c: len(c) - 1 for c in chains}

    def bases(self, dim: Optional[int] = None) -> List[Any]:
        """The nondegenerate simplices (of dimension ``dim``), in order."""
        if dim is None:
            return sorted(self.dims)
        return sorted(b for b, d in self.dims.items() if d == dim)


def _nondegenerate(chain: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """The nondegenerate part of a simplex: its chain with repeats dropped."""
    return chain[:1] + tuple(v for u, v in zip(chain, chain[1:]) if v != u)


# -- simplicial maps ----------------------------------------------------


class SimplicialMap:
    """A simplicial map between nerves: a monotone map of poset elements."""

    def __init__(
        self, source: FinSimplicialSet, target: FinSimplicialSet, vmap: Dict[Any, Any]
    ) -> None:
        self.source = source
        self.target = target
        self.vmap = vmap

    @staticmethod
    def from_vertex_map(
        source: FinSimplicialSet,
        target: FinSimplicialSet,
        vfun: Callable[[Any], Any],
    ) -> "SimplicialMap":
        """The simplicial map induced by ``vfun`` on poset elements.

        Raises ``ValueError`` unless ``vfun`` is a monotone map into the
        target's elements, which is what makes it send chains to chains.
        """
        vmap = {v: vfun(v) for v in source.elements}
        for v, w in vmap.items():
            if (w,) not in target.dims:
                raise ValueError(
                    f"vertex {v!r} maps to {w!r}, not an element of "
                    f"{target.name or 'the target'}"
                )
        for a, b in source.bases(1):
            if not target.leq(vmap[a], vmap[b]):
                raise ValueError(
                    f"vertex map is not monotone on the edge {(a, b)!r}"
                )
        return SimplicialMap(source, target, vmap)

    def apply(self, chain: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """The image of a (possibly degenerate) simplex, entrywise."""
        return tuple(self.vmap[v] for v in chain)


# -- pairs ---------------------------------------------------------------


class SimplicialPair:
    """A simplicial set with a (possibly empty) face-closed subset of bases.

    Pairs compare and hash by the identity of ``total``, the subobject and
    the name, never by ``coords``, which makes them keys of the carrier
    caches.  They are not changed after construction.
    """

    __slots__ = ("total", "sub", "name", "coords")

    def __init__(
        self,
        total: FinSimplicialSet,
        sub: FrozenSet[Any],
        name: str = "",
        coords: Tuple[Any, ...] = (),
    ) -> None:
        self.total = total
        self.sub = sub
        self.name = name
        self.coords = coords

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.total, self.sub, self.name) == (other.total, other.sub, other.name)

    def __hash__(self) -> int:
        return hash((self.total, self.sub, self.name))


# -- cube pairs ----------------------------------------------------------


def _tuple_leq(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _bits(n: int) -> List[Tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [b + (x,) for b in out for x in (0, 1)]
    return out


@cache
def _cube_total(n: int) -> FinSimplicialSet:
    """I^n, the nerve of the poset {0<1}^n, shared by every pair on it."""
    if n > MAX_CUBE_DIM:
        raise ValueError(f"cube dimension {n} exceeds bound {MAX_CUBE_DIM}")
    return FinSimplicialSet(_bits(n), _tuple_leq, name=f"I^{n}")


@cache
def cube_pair(profile: Tuple[str, ...]) -> SimplicialPair:
    """The pair on I^n whose subobject is described per coordinate.

    Vertices are 0/1 tuples of length n = ``len(profile)``, and a chain
    lies in the subobject iff, for some coordinate i, ``profile[i]`` is
    ``"both"`` and the chain is constant in coordinate i (the full
    boundary ∂I), or ``"one"`` and the chain is constantly 1 there (the
    face {1}).  A ``"free"`` coordinate adds nothing.  This is the only
    description of a cube-like domain: the box product of two such pairs
    is the pair of the concatenated profile (the first len(p) coordinates
    project to the first factor, the rest to the second), and the pair of
    an all-``"free"`` profile carries the absolute function algebra.

    Interned: a profile always gives the same pair object, so the carriers
    built on two calls' pairs are the same object too.
    """
    n = len(profile)
    total = _cube_total(n)
    sub = frozenset(
        c for c in total.bases()
        if any(
            (kind == "both" and len({v[i] for v in c}) == 1)
            or (kind == "one" and all(v[i] == 1 for v in c))
            for i, kind in enumerate(profile)
        )
    )
    if profile == ("both",) * n:
        name = f"S_{n}"
    elif profile == ("one",):
        name = "(I,{1})"
    elif profile == ("both",) * (n - 1) + ("one",):
        name = f"S_{n - 1}xPath"
    else:
        name = f"I[{','.join(profile)}]"
    return SimplicialPair(total, sub, name=name, coords=profile)


def cube(n: int) -> SimplicialPair:
    """The pair 𝔖_n = (I^n, ∂I^n); ``cube(0)`` is the point."""
    return cube_pair(("both",) * n)


def point() -> SimplicialPair:
    return cube(0)


def interval_rel_one() -> SimplicialPair:
    """The path pair (I, {1}): the interval with its 1-endpoint."""
    return cube_pair(("one",))


def path_pair(n: int) -> SimplicialPair:
    """𝔖_n □ (I, {1}) on the flat cube I^{n+1}."""
    return cube_pair(("both",) * n + ("one",))


def free_pair(P: SimplicialPair) -> SimplicialPair:
    """(I^n, ∅) on the cube of the cube pair ``P``: its absolute twin."""
    return cube_pair(("free",) * len(P.coords))


# -- barycentric subdivision: one shared tower per simplicial set -------


def subdivide(K: FinSimplicialSet) -> FinSimplicialSet:
    """Barycentric subdivision: the nerve of the nondegenerate simplices of
    ``K`` ordered by sub-chain inclusion; its simplices are flags."""
    return FinSimplicialSet(
        K.bases(), lambda a, b: set(a) <= set(b), name=f"sd({K.name})"
    )


@cache
def _sd(K: FinSimplicialSet) -> FinSimplicialSet:
    """sd K, built once per simplicial set (by identity): every pair, map
    and carrier on K climbs the same tower K, sd K, sd² K, ..."""
    return subdivide(K)


@cache
def last_vertex_map(K: FinSimplicialSet) -> SimplicialMap:
    """γ : sd K → K, sending each member of a flag to its last vertex."""
    return SimplicialMap.from_vertex_map(_sd(K), K, lambda x: x[-1])


def subdivide_map(f: SimplicialMap, r: int) -> SimplicialMap:
    """sd^r f : sd^r K → sd^r L on the shared towers, sending a simplex to
    the nondegenerate part of its image."""
    for _ in range(r):
        f = SimplicialMap.from_vertex_map(
            _sd(f.source), _sd(f.target), lambda x, f=f: _nondegenerate(f.apply(x))
        )
    return f


def sd_pair(P: SimplicialPair, r: int) -> SimplicialPair:
    """sd^r P on the shared tower of ``P.total``: at each step the flags all
    of whose members lie in the subobject."""
    for _ in range(r):
        sdK = _sd(P.total)
        sub = frozenset(c for c in sdK.bases() if all(x in P.sub for x in c))
        P = SimplicialPair(sdK, sub, name=f"sd({P.name})", coords=P.coords)
    return P


def interval_reversal(r: int) -> SimplicialMap:
    """The endpoint-exchanging simplicial automorphism of sd^r I (r ≥ 1).

    The reversal of I itself is not simplicial; after one subdivision it is
    the poset automorphism of sd I that swaps the two endpoints and fixes
    the edge.
    """
    if r < 1:
        raise ValueError("interval reversal is simplicial only for r >= 1")
    sdI = _sd(_cube_total(1))
    swap = {((0,),): ((1,),), ((1,),): ((0,),)}
    f = SimplicialMap.from_vertex_map(sdI, sdI, lambda b: swap.get(b, b))
    return subdivide_map(f, r - 1)


@cache
def interval_halves(r: int) -> Tuple[SimplicialMap, SimplicialMap]:
    """sd^r of the two inclusions I → sd I, both oriented toward the
    barycenter: maps sd^r I → sd^{r+1} I onto the two halves, shared by
    every one-coordinate pair (all of them live on I^1)."""
    I = _cube_total(1)
    edge = ((0,), (1,))

    def half(end):
        j = SimplicialMap.from_vertex_map(
            I, _sd(I), lambda v: end if v == (0,) else edge
        )
        return subdivide_map(j, r)

    return half(((0,),)), half(((1,),))
