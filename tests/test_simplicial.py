"""Tests for the simplicial layer: nerves and their chains, cube pairs
given by their coordinate profiles, subdivision (one shared tower per
simplicial set), last-vertex maps and interval reversal."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopstable.carriers import RAT
from loopstable.funalg import function_algebra
from loopstable.simplicial import (
    FinSimplicialSet,
    SimplicialMap,
    SimplicialPair,
    _nondegenerate,
    cube,
    cube_pair,
    free_pair,
    interval_rel_one,
    interval_reversal,
    last_vertex_map,
    path_pair,
    point,
    sd_pair,
    subdivide,
    subdivide_map,
)


def count(sset, dim):
    return len(sset.bases(dim))


def composite(g, f):
    """``g`` after ``f`` on the nondegenerate simplices of ``f.source``."""
    return {b: g.apply(f.apply(b)) for b in f.source.bases()}


def faces(b):
    """The faces ``b[:i] + b[i+1:]`` of a chain (none for a vertex)."""
    return [b[:i] + b[i + 1:] for i in range(len(b))] if len(b) > 1 else []


def assert_face_closed(simplices):
    assert all(f in simplices for b in simplices for f in faces(b))


def assert_simplicial(f, injective=False):
    """``f`` sends every simplex of its source to a simplex of its target
    (nondegenerate ones to nondegenerate ones when ``injective``)."""
    for b in f.source.bases():
        image = f.apply(b)
        assert len(image) == len(b)
        base = _nondegenerate(image)
        assert base in f.target.dims
        if injective:
            assert base == image


class TestCube:
    def test_cube0(self):
        p = cube(0)
        assert p.total.bases() == [((),)]
        assert p.sub == frozenset()

    def test_cube1(self):
        p = cube(1)
        assert count(p.total, 0) == 2
        assert count(p.total, 1) == 1
        assert len(p.sub) == 2
        assert all(p.total.dims[b] == 0 for b in p.sub)

    def test_cube2_shuffles(self):
        p = cube(2)
        assert count(p.total, 0) == 4
        assert count(p.total, 1) == 5
        assert count(p.total, 2) == 2  # the two shuffles of I x I
        assert_face_closed(p.total.dims)
        assert_face_closed(p.sub)
        assert p.sub <= p.total.dims.keys()

    def test_cube2_boundary(self):
        p = cube(2)
        sub_dims = sorted(p.total.dims[b] for b in p.sub)
        assert sub_dims == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_cube3_counts(self):
        p = cube(3)
        assert [count(p.total, d) for d in range(4)] == [8, 19, 18, 6]
        assert_face_closed(p.total.dims)
        assert_face_closed(p.sub)
        assert p.sub <= p.total.dims.keys()

    def test_bound(self):
        with pytest.raises(ValueError):
            cube(4)


class TestSubdivision:
    def test_sd_point(self):
        K = point().total
        g = last_vertex_map(K)
        sdK = g.source
        assert len(sdK.bases()) == 1
        assert g.apply(sdK.bases()[0]) == K.bases()[0]

    def test_sd_interval(self):
        K = cube(1).total
        g = last_vertex_map(K)
        sdK = g.source
        assert count(sdK, 0) == 3
        assert count(sdK, 1) == 2
        assert_face_closed(sdK.dims)
        assert_simplicial(g)
        # one edge maps onto the edge, the other is crushed to vertex 1
        images = sorted(g.apply(b) for b in sdK.bases(1))
        assert images == [((0,), (1,)), ((1,), (1,))]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sd_r_interval_counts(self, r):
        K = sd_pair(interval_rel_one(), r).total
        assert count(K, 1) == 2 ** r
        assert count(K, 0) == 2 ** r + 1

    def test_sd_square_counts(self):
        K = cube(2).total
        sdK = subdivide(K)
        assert [count(sdK, d) for d in range(3)] == [11, 22, 12]
        assert_face_closed(sdK.dims)

    def test_sd_pair_sub(self):
        p = interval_rel_one()
        sdp = sd_pair(p, 1)
        assert len(sdp.sub) == 1  # the endpoint stays a single vertex

    def test_gamma_naturality(self):
        K, L = cube(2).total, cube(1).total
        f = SimplicialMap.from_vertex_map(K, L, lambda v: (max(v),))
        gK, gL = last_vertex_map(K), last_vertex_map(L)
        sdf = subdivide_map(f, 1)
        assert (sdf.source, sdf.target) == (gK.source, gL.source)
        assert_simplicial(sdf)
        assert composite(gL, sdf) == composite(f, gK)

    def test_reversal_is_involution(self):
        for r in (1, 2):
            rev = interval_reversal(r)
            assert_simplicial(rev, injective=True)
            assert composite(rev, rev) == {b: b for b in rev.source.bases()}


SUBDIVISIONS_PER_SET = """
import collections, contextlib, io
from loopstable import cli, simplicial
calls = collections.Counter()
subdivide = simplicial.subdivide
def counted(K):
    calls[id(K)] += 1
    return subdivide(K)
simplicial.subdivide = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["--check", "all", "--samples", "1", "--algebra", "builtin:dual"])
print(code, sum(calls.values()), max(calls.values()))
"""


def test_each_simplicial_set_is_subdivided_once():
    # a fresh interpreter, so that no earlier test has filled the caches
    path = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    os.environ.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SUBDIVISIONS_PER_SET],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout.split()
    code, calls, most = map(int, out)
    assert code == 0
    assert calls > 0
    assert most == 1


class TestSimplicialPair:
    def test_coords_do_not_enter_equality_or_hash(self):
        P = cube(2)
        Q = SimplicialPair(P.total, P.sub, P.name, coords=("one", "one"))
        assert P == Q
        assert not P != Q
        assert hash(P) == hash(Q)
        # so Q finds the carrier cached for P
        assert function_algebra(RAT, Q, 0) is function_algebra(RAT, P, 0)

    def test_total_sub_and_name_enter_equality(self):
        P = cube(1)
        twin = FinSimplicialSet(P.total.elements, P.total.leq, P.total.name)
        for other in (
            SimplicialPair(twin, P.sub, P.name, P.coords),
            SimplicialPair(P.total, frozenset(), P.name, P.coords),
            SimplicialPair(P.total, P.sub, "other", P.coords),
        ):
            assert P != other
            assert not P == other
        assert P != (P.total, P.sub, P.name)


KINDS = ("both", "one", "free")


def profiles(length):
    return list(itertools.product(KINDS, repeat=length))


def box_sub(p, q):
    """The subobject of cube_pair(p) □ cube_pair(q) on the flat cube: the
    chains whose first-len(p) projection, or whose remaining projection,
    has its nondegenerate part in that factor's subobject."""
    n = len(p)
    P, Q = cube_pair(p), cube_pair(q)
    return frozenset(
        c for c in cube_pair(p + q).total.bases()
        if _nondegenerate(tuple(v[:n] for v in c)) in P.sub
        or _nondegenerate(tuple(v[n:] for v in c)) in Q.sub
    )


def test_cube_pair_of_a_concatenated_profile_is_the_box_product():
    # one coordinate fixes the rule, the box products fix every longer profile
    assert cube_pair(("both",)).sub == {((0,),), ((1,),)}
    assert cube_pair(("one",)).sub == {((1,),)}
    assert cube_pair(("free",)).sub == frozenset()
    pairs = [(p, q) for total in range(4) for k in range(total + 1)
             for p in profiles(k) for q in profiles(total - k)]
    assert len(pairs) == 142
    for p, q in pairs:
        assert cube_pair(p + q).sub == box_sub(p, q), (p, q)


def test_cube_pair_shares_one_total_per_dimension():
    for n in range(4):
        pairs = [cube_pair(p) for p in profiles(n)]
        assert all(P.total is pairs[0].total for P in pairs)
        assert len(set(pairs)) == len(pairs)
    assert cube_pair(("both", "one")) is path_pair(1)
    assert cube_pair(("one",)) is interval_rel_one()
    assert point() is cube(0)


class TestBoxProduct:
    """The box product of cube pairs is the cube pair of the concatenated
    profile, with projections v ↦ v[:n] and v ↦ v[n:]."""

    def test_s1_box_s1_is_s2(self):
        assert cube_pair(cube(1).coords + cube(1).coords) is cube(2)
        assert cube(2).sub == box_sub(cube(1).coords, cube(1).coords)

    def test_unit(self):
        for b in (cube_pair(cube(1).coords + point().coords),
                  cube_pair(point().coords + cube(1).coords)):
            assert b is cube(1)
            assert count(b.total, 1) == 1
            assert len(b.sub) == 2

    def test_empty_subs(self):
        P = free_pair(cube(1))
        assert cube_pair(P.coords + P.coords).sub == frozenset()
        assert box_sub(P.coords, P.coords) == frozenset()

    def _iso_pairs(self, p1, p2, vfun):
        f = SimplicialMap.from_vertex_map(p1.total, p2.total, vfun)
        assert_simplicial(f, injective=True)
        assert len(p1.total.bases()) == len(p2.total.bases())
        assert {f.apply(b) for b in p1.sub} == p2.sub

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
    def test_symmetry(self, i, j):
        # mixed profiles, so that the swap is not an automorphism
        p, q = KINDS[:i], KINDS[::-1][:j]
        self._iso_pairs(cube_pair(p + q), cube_pair(q + p), lambda v: v[i:] + v[:i])

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, 1, 1), (1, 0, 2)])
    def test_associativity(self, dims):
        i, j, k = dims
        p, q, r = KINDS[:i], KINDS[1:1 + j], KINDS[::-1][:k]
        assert box_sub(p + q, r) == box_sub(p, q + r) == cube_pair(p + q + r).sub


class TestProduct:
    def test_projections(self):
        P = cube(2).total
        for f in (
            SimplicialMap.from_vertex_map(P, cube(1).total, lambda v: v[:1]),
            SimplicialMap.from_vertex_map(P, cube(1).total, lambda v: v[1:]),
        ):
            assert_simplicial(f)
        assert count(P, 2) == 2

    def test_non_monotone_vertex_map_rejected(self):
        I = cube(1).total
        with pytest.raises(ValueError):
            SimplicialMap.from_vertex_map(I, I, lambda v: (1 - v[0],))


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
def test_nerve_of_divisibility_poset_validates(elems):
    K = FinSimplicialSet(elems, lambda a, b: b % a == 0)
    assert_face_closed(K.dims)
    g = last_vertex_map(K)
    assert_face_closed(g.source.dims)
    assert_simplicial(g)
