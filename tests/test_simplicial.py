"""Tests for the simplicial layer: nerves and their chains, cubes,
subdivision, last-vertex maps, box products and interval reversal."""

import pytest
from hypothesis import given, settings, strategies as st

from loopstable.simplicial import (
    FinSimplicialSet,
    SimplicialMap,
    SimplicialPair,
    _nondegenerate,
    box_product,
    cube,
    flatten_vertex,
    interval_rel_one,
    interval_reversal,
    iterated_sd,
    last_vertex_map,
    product,
    standard_simplex,
    subdivide,
    subdivide_map,
    subdivide_pair,
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
        K = standard_simplex(0).total
        sdK = subdivide(K)
        g = last_vertex_map(K, sdK)
        assert len(sdK.bases()) == 1
        assert g.apply(sdK.bases()[0]) == K.bases()[0]

    def test_sd_interval(self):
        K = cube(1).total
        sdK = subdivide(K)
        g = last_vertex_map(K, sdK)
        assert count(sdK, 0) == 3
        assert count(sdK, 1) == 2
        assert_face_closed(sdK.dims)
        assert_simplicial(g)
        # one edge maps onto the edge, the other is crushed to vertex 1
        images = sorted(g.apply(b) for b in sdK.bases(1))
        assert images == [((0,), (1,)), ((1,), (1,))]

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_sd_r_interval_counts(self, r):
        levels = iterated_sd(interval_rel_one(), r)
        K = levels[r].total
        assert count(K, 1) == 2 ** r
        assert count(K, 0) == 2 ** r + 1

    def test_sd_square_counts(self):
        K = cube(2).total
        sdK = subdivide(K)
        assert [count(sdK, d) for d in range(3)] == [11, 22, 12]
        assert_face_closed(sdK.dims)

    def test_sd_pair_sub(self):
        p = interval_rel_one()
        sdp = subdivide_pair(p)
        assert len(sdp.sub) == 1  # the endpoint stays a single vertex

    def test_gamma_naturality(self):
        K, L = cube(2).total, cube(1).total
        f = SimplicialMap.from_vertex_map(K, L, lambda v: (max(v),))
        sdK, sdL = subdivide(K), subdivide(L)
        gK, gL = last_vertex_map(K, sdK), last_vertex_map(L, sdL)
        sdf = subdivide_map(f, sdK, sdL)
        assert_simplicial(sdf)
        assert composite(gL, sdf) == composite(f, gK)

    def test_reversal_is_involution(self):
        for r in (1, 2):
            rev = interval_reversal(r)
            assert_simplicial(rev, injective=True)
            assert composite(rev, rev) == {b: b for b in rev.source.bases()}


class TestSimplicialPair:
    def test_coords_do_not_enter_equality_or_hash(self):
        P = cube(2)
        Q = SimplicialPair(P.total, P.sub, P.name, coords=("one", "one"))
        assert P == Q
        assert not P != Q
        assert hash(P) == hash(Q)
        # so Q finds the products cached for P
        assert box_product(Q, Q) is box_product(P, P)

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


class TestBoxProduct:
    def test_s1_box_s1_is_s2(self):
        b = box_product(cube(1), cube(1))
        self._iso_pairs(b.pair, cube(2), flatten_vertex)

    def test_unit(self):
        b = box_product(cube(1), standard_simplex(0))
        assert count(b.pair.total, 1) == 1
        assert len(b.pair.sub) == 2

    def test_empty_subs(self):
        P = standard_simplex(1)
        b = box_product(P, P)
        assert b.pair.sub == frozenset()

    def _iso_pairs(self, p1, p2, vfun):
        f = SimplicialMap.from_vertex_map(p1.total, p2.total, vfun)
        assert_simplicial(f, injective=True)
        assert len(p1.total.bases()) == len(p2.total.bases())
        assert {f.apply(b) for b in p1.sub} == p2.sub

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1)])
    def test_symmetry(self, i, j):
        mk = lambda n: cube(n) if n else standard_simplex(0)
        b1 = box_product(mk(i), mk(j))
        b2 = box_product(mk(j), mk(i))
        self._iso_pairs(b1.pair, b2.pair, lambda v: (v[1], v[0]))

    @pytest.mark.parametrize("dims", [(0, 1, 1), (1, 1, 1), (1, 0, 2)])
    def test_associativity(self, dims):
        mk = lambda n: cube(n) if n else standard_simplex(0)
        i, j, k = dims
        left = box_product(box_product(mk(i), mk(j)).pair, mk(k))
        right = box_product(mk(i), box_product(mk(j), mk(k)).pair)
        self._iso_pairs(
            left.pair, right.pair, lambda v: (v[0][0], (v[0][1], v[1]))
        )


class TestProduct:
    def test_projections(self):
        P, pr1, pr2 = product(cube(1).total, cube(1).total)
        assert_simplicial(pr1)
        assert_simplicial(pr2)
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
    sdK = subdivide(K)
    g = last_vertex_map(K, sdK)
    assert_face_closed(sdK.dims)
    assert_simplicial(g)
