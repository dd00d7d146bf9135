"""Geometry of the centered box, its sub-boxes, and the planar dual."""

import numpy as np
import pytest

from helpers import box_arrays_oracle, dual_maps_oracle
from soc_ising import (
    box_range,
    BoxGeometry,
    build_box,
    diameter,
    dual_geometry,
    exterior_boundary_edges,
)


def test_box_range_centers_the_box():
    assert box_range(1) == (0, 0)
    assert box_range(2) == (-1, 0)
    assert box_range(3) == (-1, 1)
    assert box_range(4) == (-2, 1)
    assert box_range(5) == (-2, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13])
def test_counting_formulas(n):
    g = build_box(n)
    assert len(g.coords) == n * n
    assert g.n_edges == 2 * n * (n - 1)
    expected_boundary = 4 * (n - 1) if n > 1 else 1
    assert int(g.boundary_mask.sum()) == expected_boundary
    assert int(g.interior_edge_mask.sum()) == 2 * (n - 1) * (n - 2)
    assert g.boundary_ids.size == expected_boundary


def test_box_arrays_match_oracle_layout():
    # values, dtype, shape and strides of every index array, so that every
    # layer reads the same memory layout as before
    for n in range(1, 61):
        g = BoxGeometry(n)
        want = box_arrays_oracle(n)
        assert g.n_edges == want["edges"].shape[0]
        for name, arr in want.items():
            got = getattr(g, name)
            assert got.dtype == arr.dtype, (n, name)
            assert got.shape == arr.shape, (n, name)
            assert got.strides == arr.strides, (n, name)
            np.testing.assert_array_equal(got, arr, err_msg=f"{n} {name}")
        for j in range(1, n):
            inside = g.sub_box_mask(j)
            want_ann = np.flatnonzero(inside[want["edge_a"]] ^ inside[want["edge_b"]])
            np.testing.assert_array_equal(g.annulus_edges(j), want_ann)


def test_vertex_id_roundtrip():
    g = build_box(5)
    for v in range(25):
        x, y = g.coord(v)
        assert g.vertex_id(x, y) == v
    with pytest.raises(ValueError):
        g.vertex_id(3, 0)


def test_edges_are_sorted_and_unit_length():
    g = build_box(4)
    diffs = np.abs(g.coords[g.edge_a] - g.coords[g.edge_b]).sum(axis=1)
    assert (diffs == 1).all()
    assert (g.edge_a < g.edge_b).all()
    keys = [(int(a), int(b)) for a, b in g.edges]
    assert keys == sorted(keys)
    for e, (a, b) in enumerate(keys):
        assert g.edge_id(a, b) == e
        assert g.edge_id(b, a) == e


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_edge_endpoints_are_contiguous_and_laid_out_by_x_rows(n):
    g = build_box(n)
    for col, ends in enumerate((g.edge_a, g.edge_b)):
        assert ends.flags.c_contiguous
        np.testing.assert_array_equal(ends, g.edges[:, col])
    # x-row i < n-1 is a block of 2n-1 edges: (v, v+1) and (v, v+n) for
    # j < n-1, then (v, v+n); the last x-row holds its n-1 edges (v, v+1)
    want = []
    for i in range(n):
        for j in range(n):
            v = i * n + j
            if j < n - 1:
                want.append((v, v + 1))
            if i < n - 1:
                want.append((v, v + n))
    assert [tuple(map(int, e)) for e in g.edges] == want


@pytest.mark.parametrize("pair", [
    (5, 5),            # a vertex and itself
    (-1, 0),           # negative id
    (-4, 13),          # negative id; row -4 (vertex 12) has +y neighbour 13
    (15, 16),          # id past the last vertex
    (16, 20),          # both ids past the last vertex
    (0, 5),            # diagonal step
    (0, 2),            # two steps apart in one column
    (0, 8),            # two steps apart in one row
    (3, 4),            # column wrap: (x, hi) to (x + 1, lo)
    (11, 12),          # column wrap in the last column pair
])
def test_edge_id_rejects_non_edges(pair):
    g = build_box(4)
    for a, b in (pair, pair[::-1]):
        with pytest.raises(ValueError, match="is not an edge of the box"):
            g.edge_id(a, b)


def test_vertex_mask_refuses_ids_that_are_not_integers():
    # [1.7] used to mark vertex 1
    g = build_box(4)
    for bad in ([1.7], [2.0], np.array([True, False])):
        with pytest.raises(ValueError, match="vertex ids must be integers"):
            g.vertex_mask(bad)
    assert np.flatnonzero(g.vertex_mask(np.array([5, 1], dtype=np.int8))).tolist() == [1, 5]
    assert not g.vertex_mask([]).any()


def test_interior_checkerboard_partition():
    g = build_box(5)
    both = np.concatenate([g.interior_even, g.interior_odd])
    assert sorted(both.tolist()) == sorted(g.interior_ids.tolist())
    for sites in (g.interior_even, g.interior_odd):
        coords = g.coords[sites]
        # no two sites of one color are lattice neighbors
        for i in range(len(sites)):
            d = np.abs(coords - coords[i]).sum(axis=1)
            assert not ((d == 1).any())


def test_halfgrid_is_even_one_norm_interior():
    g = build_box(5)
    picked = {g.coord(v) for v in np.flatnonzero(g.halfgrid_mask)}
    assert picked == {(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)}


@pytest.mark.parametrize("j", [1, 2, 3])
def test_annulus_edge_count(j):
    # the exterior edge boundary of the centered side-j sub-box has 4j edges
    g = build_box(6)
    assert g.annulus_edges(j).size == 4 * j


def test_sub_box_mask_counts():
    g = build_box(7)
    for j in range(1, 8):
        assert int(g.sub_box_mask(j).sum()) == j * j


def test_exterior_boundary_of_singleton_and_ring():
    g = build_box(7)
    edges, leaves = exterior_boundary_edges([(0, 0)])
    assert len(edges) == 4
    assert all(e[0] == (0, 0) for e in edges)
    assert not any(leaves)
    # the 8-cell ring around the origin: 12 edges point outward, 4 inward
    ring = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)]
    edges, _ = exterior_boundary_edges(ring)
    inward = [e for e in edges if e[1] == (0, 0)]
    assert len(inward) == 4
    assert len(edges) == 16


def test_exterior_boundary_flags_edges_leaving_the_box():
    g = build_box(3)
    corner = [(1, 1)]
    edges, leaves = exterior_boundary_edges(corner, g)
    assert len(edges) == 4
    assert sum(leaves) == 2


def test_diameter():
    assert diameter([(0, 0)]) == 0
    assert diameter([(0, 0), (2, 1)]) == 2
    g = build_box(5)
    ids = [g.vertex_id(-2, -2), g.vertex_id(2, 2)]
    assert diameter(ids, g) == 4
    with pytest.raises(ValueError):
        diameter([])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dual_pairing_is_a_bijection(n):
    d = dual_geometry(n)
    g = d.primal
    interior = np.flatnonzero(g.interior_edge_mask)
    assert d.dual.n == n - 1
    assert (d.edge_map[interior] >= 0).all()
    assert set(d.edge_map[interior].tolist()) == set(range(d.dual.n_edges))
    ring = np.flatnonzero(~g.interior_edge_mask)
    assert (d.edge_map[ring] == -1).all()
    for e in interior:
        assert d.primal_of[d.edge_map[e]] == e


@pytest.mark.parametrize("n", range(2, 61))
def test_dual_maps_equal_per_edge_oracle(n):
    d = dual_geometry(n)
    edge_map, primal_of = dual_maps_oracle(n)
    for got, want in ((d.edge_map, edge_map), (d.primal_of, primal_of)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_dual_edges_cross_their_primal_edges():
    # each dual edge sits half a unit off its primal edge's midpoint,
    # perpendicular to it, whatever the parity convention shifted
    for n in (3, 4, 5):
        d = dual_geometry(n)
        g, h = d.primal, d.dual
        for e in np.flatnonzero(g.interior_edge_mask):
            mid_p = (g.coords[g.edge_a[e]] + g.coords[g.edge_b[e]]) / 2.0
            de = d.edge_map[e]
            mid_d = (h.coords[h.edge_a[de]] + h.coords[h.edge_b[de]]) / 2.0
            offset = mid_d - mid_p
            assert abs(abs(offset[0]) - 0.5) < 1e-12
            assert abs(abs(offset[1]) - 0.5) < 1e-12


def test_double_dual_returns_to_the_inner_box():
    # dual of the dual pairs side n with side n-2, a plain re-centering
    n = 6
    d1 = dual_geometry(n)
    d2 = dual_geometry(n - 1)
    inner = build_box(n - 2)
    assert d2.dual.n == inner.n
    g = d1.primal
    twice = 0
    for e in np.flatnonzero(g.interior_edge_mask):
        de = d1.edge_map[e]
        if d2.edge_map[de] >= 0:
            twice += 1
    assert twice == inner.n_edges
