"""Finite simplicial sets in degeneracy normal form.

A finite simplicial set is stored by its nondegenerate simplices; every
simplex is a formal pair ``(word, base)`` where ``word`` is a strictly
decreasing tuple of degeneracy indices applied (outermost first) to a
nondegenerate ``base``.  Faces of nondegenerate simplices are stored
explicitly as formal simplices; faces and degeneracies of arbitrary formal
simplices are computed by pushing operators through the word with the
simplicial identities.

All concrete instances used by the engine are nerves of finite posets
(standard simplices, cubes, their products and barycentric subdivisions),
which makes products, subdivision and the last-vertex map functorial on
monotone vertex maps while the validation layer stays fully general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

Word = Tuple[int, ...]

#: Largest cube the engine will build (dimension bound of the design).
MAX_CUBE_DIM = 3


@dataclass(frozen=True, order=True)
class FormalSimplex:
    """A possibly degenerate simplex: degeneracy ``word`` applied to ``base``.

    ``word = (j1, j2, ..., jm)`` with ``j1 > j2 > ... > jm`` encodes
    ``s_{j1} s_{j2} ... s_{jm} base``.
    """

    word: Word
    base: Any


def nd(base: Any) -> FormalSimplex:
    """The nondegenerate formal simplex on ``base``."""
    return FormalSimplex((), base)


def _insert_degeneracy(word: Word, j: int) -> Word:
    """Canonical word for ``s_j`` composed outside ``word``.

    Uses ``s_i s_k = s_{k+1} s_i`` for ``i <= k`` to keep the word strictly
    decreasing.
    """
    out: List[int] = []
    cur = j
    rest = list(word)
    while rest:
        w = rest[0]
        if cur <= w:
            out.append(w + 1)
            rest = rest[1:]
        else:
            break
    out.append(cur)
    out.extend(rest)
    return tuple(out)


class FinSimplicialSet:
    """A finite simplicial set presented by nondegenerate simplices.

    Parameters
    ----------
    dims : mapping from simplex id to dimension.
    faces : mapping from simplex id to the tuple ``(d_0 x, ..., d_n x)`` of
        formal simplices (empty tuple in dimension 0).
    name : printable name.
    """

    def __init__(
        self,
        dims: Dict[Any, int],
        faces: Dict[Any, Tuple[FormalSimplex, ...]],
        name: str = "",
        poset: Optional[Tuple[Tuple[Any, ...], Callable[[Any, Any], bool]]] = None,
    ) -> None:
        self.dims = dict(dims)
        self.faces = dict(faces)
        self.name = name
        self.poset = poset
        self._vertex_cache: Dict[FormalSimplex, Tuple[Any, ...]] = {}
        self._closure_cache: Dict[Any, FrozenSet[Any]] = {}
        self._formal_cache: Dict[int, Tuple[FormalSimplex, ...]] = {}

    # -- basic queries -------------------------------------------------

    def bases(self, dim: Optional[int] = None) -> List[Any]:
        if dim is None:
            return sorted(self.dims)
        return sorted(b for b, d in self.dims.items() if d == dim)

    @property
    def top_dim(self) -> int:
        return max(self.dims.values()) if self.dims else -1

    def dim(self, fs: FormalSimplex) -> int:
        return self.dims[fs.base] + len(fs.word)

    # -- operator calculus ---------------------------------------------

    def degeneracy(self, fs: FormalSimplex, j: int) -> FormalSimplex:
        if not 0 <= j <= self.dim(fs):
            raise ValueError(f"s_{j} undefined on a {self.dim(fs)}-simplex")
        return FormalSimplex(_insert_degeneracy(fs.word, j), fs.base)

    def face(self, fs: FormalSimplex, i: int) -> FormalSimplex:
        n = self.dim(fs)
        if n == 0:
            raise ValueError("a vertex has no faces")
        if not 0 <= i <= n:
            raise ValueError(f"d_{i} undefined on a {n}-simplex")
        if not fs.word:
            return self.faces[fs.base][i]
        j, rest = fs.word[0], FormalSimplex(fs.word[1:], fs.base)
        if i == j or i == j + 1:
            return rest
        if i < j:
            return self.degeneracy(self.face(rest, i), j - 1)
        return self.degeneracy(self.face(rest, i - 1), j)

    def apply_monotone(self, fs: FormalSimplex, alpha: Tuple[int, ...]) -> FormalSimplex:
        """Apply a monotone operator ``alpha : [k] -> [dim fs]`` (images listed)."""
        n = self.dim(fs)
        if any(alpha[i] > alpha[i + 1] for i in range(len(alpha) - 1)):
            raise ValueError("operator is not monotone")
        if alpha and (alpha[0] < 0 or alpha[-1] > n):
            raise ValueError("operator out of range")
        # collapse repeats (degeneracies), outermost last repeat first
        for j in range(len(alpha) - 2, -1, -1):
            if alpha[j] == alpha[j + 1]:
                inner = self.apply_monotone(fs, alpha[:j + 1] + alpha[j + 2:])
                return self.degeneracy(inner, j)
        # injective: remove missing values (faces), largest first
        image = set(alpha)
        for v in range(n, -1, -1):
            if v not in image:
                shifted = tuple(a if a < v else a - 1 for a in alpha)
                return self.apply_monotone(self.face(fs, v), shifted)
        return fs

    def vertices(self, fs: FormalSimplex) -> Tuple[Any, ...]:
        """Vertex bases ``(v_0, ..., v_n)`` of a formal simplex."""
        if fs in self._vertex_cache:
            return self._vertex_cache[fs]
        n = self.dim(fs)
        verts = tuple(self.apply_monotone(fs, (j,)).base for j in range(n + 1))
        self._vertex_cache[fs] = verts
        return verts

    def formal_simplices(self, p: int) -> Tuple[FormalSimplex, ...]:
        """All formal (possibly degenerate) ``p``-simplices."""
        if p in self._formal_cache:
            return self._formal_cache[p]
        if p < 0:
            result: Tuple[FormalSimplex, ...] = ()
        else:
            found = {nd(b) for b in self.bases(p)}
            for z in self.formal_simplices(p - 1):
                for j in range(p):
                    found.add(self.degeneracy(z, j))
            result = tuple(sorted(found))
        self._formal_cache[p] = result
        return result

    def face_closure(self, base: Any) -> FrozenSet[Any]:
        """Bases of all iterated faces of ``base`` (excluding ``base`` itself)."""
        if base in self._closure_cache:
            return self._closure_cache[base]
        out = set()
        stack = [base]
        while stack:
            b = stack.pop()
            for i in range(self.dims[b] + 1):
                if self.dims[b] == 0:
                    break
                fb = self.faces[b][i].base
                if fb not in out:
                    out.add(fb)
                    stack.append(fb)
        out.discard(base)
        closed = frozenset(out)
        self._closure_cache[base] = closed
        return closed

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check the stored face data satisfies the simplicial identities."""
        for b, d in self.dims.items():
            if d > 0 and len(self.faces[b]) != d + 1:
                raise ValueError(f"simplex {b!r} of dim {d} has wrong face count")
            for fs in self.faces.get(b, ()):
                if fs.base not in self.dims:
                    raise ValueError(f"face of {b!r} refers to unknown simplex")
                if self.dim(fs) != d - 1:
                    raise ValueError(f"face of {b!r} has wrong dimension")
        for b, d in self.dims.items():
            if d < 2:
                continue
            x = nd(b)
            for j in range(d + 1):
                for i in range(j):
                    if self.face(self.face(x, j), i) != self.face(self.face(x, i), j - 1):
                        raise ValueError(
                            f"d_{i} d_{j} != d_{j-1} d_{i} on simplex {b!r}"
                        )


# -- nerves of posets ---------------------------------------------------


def nerve(
    elements: Iterable[Any],
    leq: Callable[[Any, Any], bool],
    name: str = "",
) -> FinSimplicialSet:
    """Nerve of a finite poset.

    Nondegenerate ``p``-simplices are the strict chains ``(x_0 < ... < x_p)``,
    stored as tuples; ``d_i`` deletes the ``i``-th entry.  The elements must be
    natively ordered (numbers, or tuples of them), which fixes the order of
    simplices everywhere.
    """
    elems = sorted(set(elements))
    strictly_above: Dict[Any, List[Any]] = {
        e: [f for f in elems if f != e and leq(e, f)] for e in elems
    }
    chains: List[Tuple[Any, ...]] = [(e,) for e in elems]
    frontier = chains[:]
    while frontier:
        nxt = []
        for c in frontier:
            for e in strictly_above[c[-1]]:
                nxt.append(c + (e,))
        chains.extend(nxt)
        frontier = nxt
    dims = {c: len(c) - 1 for c in chains}
    faces = {
        c: tuple(nd(c[:i] + c[i + 1:]) for i in range(len(c)))
        for c in chains
        if len(c) > 1
    }
    for c in chains:
        if len(c) == 1:
            faces[c] = ()
    return FinSimplicialSet(dims, faces, name=name, poset=(tuple(elems), leq))


# -- simplicial maps ----------------------------------------------------


class SimplicialMap:
    """A simplicial map, stored by its values on nondegenerate simplices."""

    def __init__(
        self,
        source: FinSimplicialSet,
        target: FinSimplicialSet,
        base_map: Dict[Any, FormalSimplex],
        name: str = "",
    ) -> None:
        self.source = source
        self.target = target
        self.base_map = dict(base_map)
        self.name = name

    @staticmethod
    def from_vertex_map(
        source: FinSimplicialSet,
        target: FinSimplicialSet,
        vfun: Callable[[Any], Any],
        name: str = "",
    ) -> "SimplicialMap":
        """Extend a map on vertices to a simplicial map.

        ``vfun`` acts on poset elements (vertex bases are the singleton
        chains ``(elem,)``).  The target must be vertex-determined — each
        formal simplex pinned down by its vertex tuple — which holds for
        nerves of posets.
        """
        by_verts: Dict[Tuple[int, Tuple[Any, ...]], FormalSimplex] = {}
        for p in range(source.top_dim + 1):
            for fs in target.formal_simplices(p):
                key = (p, target.vertices(fs))
                if key in by_verts and by_verts[key] != fs:
                    raise ValueError("target is not vertex-determined")
                by_verts[key] = fs
        base_map = {}
        for b in source.bases():
            verts = tuple((vfun(v[0]),) for v in source.vertices(nd(b)))
            key = (len(verts) - 1, verts)
            if key not in by_verts:
                raise ValueError(
                    f"vertex images {verts!r} of {b!r} span no simplex of "
                    f"{target.name or 'target'}"
                )
            base_map[b] = by_verts[key]
        return SimplicialMap(source, target, base_map, name=name)

    def apply(self, fs: FormalSimplex) -> FormalSimplex:
        out = self.base_map[fs.base]
        for j in reversed(fs.word):
            out = self.target.degeneracy(out, j)
        return out

    def __call__(self, fs: FormalSimplex) -> FormalSimplex:
        return self.apply(fs)

    def validate(self) -> None:
        for b in self.source.bases():
            if self.source.dims[b] != self.target.dim(self.base_map[b]):
                raise ValueError(f"map does not preserve dimension at {b!r}")
            for i in range(self.source.dims[b] + 1):
                if self.source.dims[b] == 0:
                    break
                lhs = self.apply(self.source.face(nd(b), i))
                rhs = self.target.face(self.apply(nd(b)), i)
                if lhs != rhs:
                    raise ValueError(f"map does not commute with d_{i} at {b!r}")


# -- pairs ---------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialPair:
    """A simplicial set with a (possibly empty) face-closed subset of bases.

    Pairs compare and hash by the identity of ``total``, the subobject and
    the name, which makes them keys of the carrier caches.
    """

    total: FinSimplicialSet
    sub: FrozenSet[Any]
    name: str = ""
    coords: Tuple[Any, ...] = field(default=(), compare=False)

    def validate(self) -> None:
        self.total.validate()
        for b in self.sub:
            if b not in self.total.dims:
                raise ValueError(f"sub simplex {b!r} missing from total")
            if not self.total.face_closure(b) <= self.sub:
                raise ValueError(f"sub is not face-closed at {b!r}")


# -- standard objects ----------------------------------------------------

# The pair constructors are interned: equal arguments give the same pair
# object, so the carriers built on two calls' pairs are the same object too.


@cache
def standard_simplex(p: int) -> SimplicialPair:
    """Δ^p as a pair with empty subobject."""
    total = nerve(range(p + 1), lambda a, b: a <= b, name=f"Delta^{p}")
    return SimplicialPair(total, frozenset(), name=f"Delta^{p}")


def point() -> SimplicialPair:
    return standard_simplex(0)


def _tuple_leq(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


@cache
def cube(n: int) -> SimplicialPair:
    """The pair 𝔖_n = (I^n, ∂I^n): the n-cube with its full boundary.

    Vertices are 0/1 tuples of length n; nondegenerate simplices are chains
    in the product poset {0<1}^n.  A chain lies in the boundary iff some
    coordinate is constant along it.  ``cube(0)`` is the point pair with
    empty subobject.
    """
    if n > MAX_CUBE_DIM:
        raise ValueError(f"cube dimension {n} exceeds bound {MAX_CUBE_DIM}")
    verts = [tuple(bits) for bits in _bits(n)]
    total = nerve(verts, _tuple_leq, name=f"I^{n}")
    if n == 0:
        return SimplicialPair(total, frozenset(), name="S_0")
    sub = frozenset(
        c for c in total.bases()
        if any(len({v[i] for v in c}) == 1 for i in range(n))
    )
    return SimplicialPair(total, sub, name=f"S_{n}", coords=("both",) * n)


def _bits(n: int) -> List[Tuple[int, ...]]:
    out = [()]
    for _ in range(n):
        out = [b + (x,) for b in out for x in (0, 1)]
    return out


@cache
def interval_rel_one() -> SimplicialPair:
    """The pair (I, {1}): the interval relative to its 1-endpoint."""
    total = cube(1).total
    return SimplicialPair(total, frozenset({((1,),)}), name="(I,{1})",
                          coords=("one",))


@cache
def path_pair(n: int) -> SimplicialPair:
    """The pair 𝔖_n □ (I, {1}) presented on the flat cube I^{n+1}.

    Total is I^{n+1}; the subobject consists of chains that are constant in
    one of the first n coordinates or constantly 1 in the last.
    """
    verts = [tuple(bits) for bits in _bits(n + 1)]
    total = nerve(verts, _tuple_leq, name=f"I^{n + 1}")
    sub = frozenset(
        c for c in total.bases()
        if any(len({v[i] for v in c}) == 1 for i in range(n))
        or all(v[n] == 1 for v in c)
    )
    return SimplicialPair(total, sub, name=f"S_{n}xPath",
                          coords=("both",) * n + ("one",))


# -- products and box products ------------------------------------------


def product(
    K: FinSimplicialSet, L: FinSimplicialSet
) -> Tuple[FinSimplicialSet, SimplicialMap, SimplicialMap]:
    """Product of two poset nerves, with its two projections."""
    if K.poset is None or L.poset is None:
        raise ValueError("product requires poset presentations")
    (ke, kleq), (le, lleq) = K.poset, L.poset
    elems = [(a, b) for a in ke for b in le]

    def leq(x, y):
        return kleq(x[0], y[0]) and lleq(x[1], y[1])

    P = nerve(elems, leq, name=f"({K.name}x{L.name})")
    pr1 = SimplicialMap.from_vertex_map(P, K, lambda v: v[0], name="pr1")
    pr2 = SimplicialMap.from_vertex_map(P, L, lambda v: v[1], name="pr2")
    return P, pr1, pr2


@dataclass
class BoxProduct:
    pair: SimplicialPair
    pr1: SimplicialMap
    pr2: SimplicialMap


@cache
def box_product(P: SimplicialPair, Q: SimplicialPair) -> BoxProduct:
    """(K,L) □ (K',L') = (K×K', K×L' ∪ L×K')."""
    total, pr1, pr2 = product(P.total, Q.total)
    sub = frozenset(
        c for c in total.bases()
        if pr1.apply(nd(c)).base in P.sub or pr2.apply(nd(c)).base in Q.sub
    )
    coords = P.coords + Q.coords
    return BoxProduct(
        SimplicialPair(total, sub, name=f"{P.name}#{Q.name}", coords=coords),
        pr1,
        pr2,
    )


def flatten_vertex(v: Any) -> Tuple[int, ...]:
    """Flatten a nested product vertex into a flat 0/1 tuple."""
    if isinstance(v, tuple) and v and all(isinstance(x, int) for x in v):
        return v
    if isinstance(v, tuple) and len(v) == 2:
        return flatten_vertex(v[0]) + flatten_vertex(v[1])
    if isinstance(v, int):
        return (v,)
    raise ValueError(f"cannot flatten vertex {v!r}")


# -- barycentric subdivision and last-vertex map -------------------------


def subdivide(K: FinSimplicialSet) -> FinSimplicialSet:
    """Barycentric subdivision: nerve of the face poset of nondegenerate
    simplices (flags of iterated faces)."""
    elems = K.bases()

    def leq(a, b):
        return a == b or a in K.face_closure(b)

    return nerve(elems, leq, name=f"sd({K.name})")


def last_vertex_map(K: FinSimplicialSet, sdK: Optional[FinSimplicialSet] = None) -> SimplicialMap:
    """γ : sd K → K, sending a flag to the last vertices of its members."""
    if sdK is None:
        sdK = subdivide(K)
    return SimplicialMap.from_vertex_map(
        sdK, K, lambda x: K.vertices(nd(x))[-1][0], name="gamma"
    )


def subdivide_map(
    f: SimplicialMap, sd_src: FinSimplicialSet, sd_tgt: FinSimplicialSet
) -> SimplicialMap:
    """sd f : sd K → sd L, on flags via nondegenerate parts of images."""
    return SimplicialMap.from_vertex_map(
        sd_src, sd_tgt, lambda x: f.base_map[x].base, name=f"sd({f.name})"
    )


def subdivide_pair(P: SimplicialPair) -> SimplicialPair:
    """sd of a pair: flags all of whose members lie in the subobject."""
    sdK = subdivide(P.total)
    sub = frozenset(c for c in sdK.bases() if all(x in P.sub for x in c))
    return SimplicialPair(sdK, sub, name=f"sd({P.name})", coords=P.coords)


def iterated_sd(P: SimplicialPair, r: int) -> List[SimplicialPair]:
    """[P, sd P, ..., sd^r P]."""
    out = [P]
    for _ in range(r):
        out.append(subdivide_pair(out[-1]))
    return out


def interval_reversal(r: int) -> SimplicialMap:
    """The endpoint-exchanging simplicial automorphism of sd^r I (r ≥ 1).

    The reversal of I itself is not simplicial; after one subdivision it is
    induced by the flag-poset automorphism coming from the reversal's action
    on nondegenerate simplices.
    """
    if r < 1:
        raise ValueError("interval reversal is simplicial only for r >= 1")
    levels = iterated_sd(interval_rel_one(), r)
    swap = {((0,),): ((1,),), ((1,),): ((0,),)}
    f = SimplicialMap.from_vertex_map(
        levels[1].total, levels[1].total, lambda b: swap.get(b, b), name="rev(sd I)"
    )
    for k in range(2, r + 1):
        f = subdivide_map(f, levels[k].total, levels[k].total)
        f.name = f"rev(sd^{k} I)"
    return f
