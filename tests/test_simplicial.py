"""Tests for the simplicial layer: normal form calculus, cubes,
subdivision, last-vertex maps, box products and interval reversal."""

import pytest
from hypothesis import given, settings, strategies as st

from loopstable.simplicial import (
    SimplicialMap,
    box_product,
    cube,
    flatten_vertex,
    interval_rel_one,
    interval_reversal,
    iterated_sd,
    last_vertex_map,
    nd,
    nerve,
    product,
    standard_simplex,
    subdivide,
    subdivide_map,
    subdivide_pair,
)


def count(sset, dim):
    return len(sset.bases(dim))


def composite(g, f):
    """The base map of ``g`` after ``f``."""
    return {b: g.apply(f.base_map[b]) for b in f.source.bases()}


class TestCube:
    def test_cube0(self):
        p = cube(0)
        assert p.total.top_dim == 0
        assert len(p.total.bases()) == 1
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
        p.validate()

    def test_cube2_boundary(self):
        p = cube(2)
        sub_dims = sorted(p.total.dims[b] for b in p.sub)
        assert sub_dims == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_cube3_counts(self):
        p = cube(3)
        assert [count(p.total, d) for d in range(4)] == [8, 19, 18, 6]
        p.validate()

    def test_bound(self):
        with pytest.raises(ValueError):
            cube(4)


class TestCalculus:
    def test_face_degeneracy_identities(self):
        K = cube(2).total
        K.validate()
        for b in K.bases(2):
            x = nd(b)
            for j in range(3):
                s = K.degeneracy(x, j)
                # d_j s_j = id = d_{j+1} s_j
                assert K.face(s, j) == x
                assert K.face(s, j + 1) == x

    def test_apply_monotone_vertices(self):
        K = standard_simplex(2).total
        top = nd((0, 1, 2))
        assert K.vertices(top) == ((0,), (1,), (2,))
        # the constant operator gives a doubly degenerate vertex
        fs = K.apply_monotone(top, (1, 1, 1))
        assert fs.base == (1,)
        assert len(fs.word) == 2

    def test_apply_monotone_agrees_with_faces(self):
        K = cube(2).total
        for b in K.bases(2):
            x = nd(b)
            for i in range(3):
                alpha = tuple(j for j in range(3) if j != i)
                assert K.apply_monotone(x, alpha) == K.face(x, i)

    def test_word_normal_form_strictly_decreasing(self):
        K = standard_simplex(1).total
        x = nd((0, 1))
        y = K.degeneracy(K.degeneracy(x, 0), 0)
        assert y.word == (1, 0)


class TestSubdivision:
    def test_sd_point(self):
        K = standard_simplex(0).total
        sdK = subdivide(K)
        g = last_vertex_map(K, sdK)
        assert len(sdK.bases()) == 1
        assert g.base_map[sdK.bases()[0]] == nd(K.bases()[0])

    def test_sd_interval(self):
        K = cube(1).total
        sdK = subdivide(K)
        g = last_vertex_map(K, sdK)
        assert count(sdK, 0) == 3
        assert count(sdK, 1) == 2
        sdK.validate()
        g.validate()
        # one edge maps onto the edge, the other is crushed to vertex 1
        images = sorted(
            (len(g.apply(nd(b)).word) for b in sdK.bases(1))
        )
        assert images == [0, 1]

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
        sdK.validate()

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
        sdf.validate()
        assert composite(gL, sdf) == composite(f, gK)

    def test_reversal_is_involution(self):
        for r in (1, 2):
            rev = interval_reversal(r)
            rev.validate()
            assert composite(rev, rev) == {b: nd(b) for b in rev.source.bases()}


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
        f.validate()
        assert len(p1.total.bases()) == len(p2.total.bases())
        assert {f.apply(nd(b)).base for b in p1.sub} == p2.sub

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
        pr1.validate()
        pr2.validate()
        assert count(P, 2) == 2

    def test_product_validates(self):
        P, _, _ = product(cube(1).total, cube(2).total)
        P.validate()


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
def test_nerve_of_divisibility_poset_validates(elems):
    K = nerve(elems, lambda a, b: b % a == 0)
    K.validate()
    sdK = subdivide(K)
    g = last_vertex_map(K, sdK)
    sdK.validate()
    g.validate()
