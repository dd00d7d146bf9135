"""Random-cluster machinery: decomposition, exact laws, samplers, events."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FixedDraws, bfs_components, bfs_labels, cluster_counts,
    cluster_labels_oracle, enumerate_bond_configs_oracle,
    exact_fk_distribution_oracle, external_cluster_boundary_oracle,
    fk_law_oracle, philox, sample_chain_oracle, single_bond_sweep_oracle,
    wired_counts_oracle,
)
from soc_ising import (
    BondConfig,
    FKParams,
    bernoulli_bonds,
    build_box,
    close_edges,
    cluster_labels,
    decompose,
    event_D_n,
    event_Q_N,
    exact_fk_distribution,
    external_cluster_boundary,
    fk_weight,
    p_critical,
    sample_chain,
    single_bond_conditional,
    single_bond_heat_bath_sweep,
    swendsen_wang_step,
    tail_statistics,
    visit_counts,
)
from soc_ising import fk
from soc_ising.fk import _bridge_query, enumerate_bond_configs


def test_p_critical_values():
    assert abs(p_critical(1.0) - 0.5) < 1e-15
    assert abs(p_critical(2.0) - 0.5857864376269049) < 1e-14
    assert abs(p_critical(4.0) - 2.0 / 3.0) < 1e-15


def test_params_validation():
    with pytest.raises(ValueError):
        FKParams(p=-0.1, q=2.0, bc=1)
    with pytest.raises(ValueError):
        FKParams(p=0.5, q=0.0, bc=1)
    with pytest.raises(ValueError):
        FKParams(p=0.5, q=2.0, bc=2)


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_fk_params_reject_non_finite_q(q):
    with pytest.raises(ValueError, match="finite"):
        FKParams(p=0.5, q=q, bc=1)


@pytest.mark.parametrize("p", [math.nan, 1.5, -0.1, math.inf])
def test_bernoulli_bonds_refuses_p_outside_unit_interval(p):
    rng = philox(0)
    with pytest.raises(ValueError, match=r"p must be in \[0, 1\]"):
        bernoulli_bonds(build_box(3), p, rng)
    # refused before any draw
    assert rng.random() == philox(0).random()


def test_bernoulli_bonds_endpoints():
    g = build_box(3)
    assert bernoulli_bonds(g, 0.0, philox(0)).open_count() == 0
    assert bernoulli_bonds(g, 1.0, philox(0)).open_count() == g.n_edges


def test_bond_config_bitmask_roundtrip():
    g = build_box(3)
    rng = philox(5)
    for _ in range(20):
        mask = int(rng.integers(0, 1 << g.n_edges))
        omega = BondConfig.from_bitmask(g, mask)
        assert omega.to_bitmask() == mask
        assert omega.open_count() == bin(mask).count("1")
    assert BondConfig.all_open(g).open_count() == g.n_edges
    assert BondConfig.all_closed(g).open_count() == 0


def test_bond_config_bitmask_is_exact_above_63_edges():
    g = build_box(8)
    assert g.n_edges == 112
    only_70 = np.zeros(g.n_edges, dtype=np.uint8)
    only_70[70] = 1
    random = (philox(8).random(g.n_edges) < 0.5).astype(np.uint8)
    for bonds, mask in ((np.ones(g.n_edges, dtype=np.uint8), (1 << 112) - 1),
                        (only_70, 1 << 70),
                        (random, sum(1 << int(e) for e in np.flatnonzero(random)))):
        assert BondConfig(g, bonds).to_bitmask() == mask
        assert BondConfig.from_bitmask(g, mask).bonds.tobytes() == bonds.tobytes()
    assert BondConfig.all_closed(g).to_bitmask() == 0
    for mask in (-1, 1 << 112):
        with pytest.raises(ValueError):
            BondConfig.from_bitmask(g, mask)


@pytest.mark.parametrize("mask", [3.7, 3.0, np.float64(3), "3"])
def test_from_bitmask_refuses_a_mask_that_is_not_an_integer(mask):
    # 3.7 used to be truncated to mask 3
    with pytest.raises(ValueError, match="bitmask must be an integer"):
        BondConfig.from_bitmask(build_box(2), mask)


def test_bond_config_rejects_bad_bonds():
    g = build_box(3)
    for bad in (np.full(g.n_edges, 2), np.ones(g.n_edges - 1),
                np.ones((2, g.n_edges)), [1] * (g.n_edges + 1), -np.ones(g.n_edges)):
        with pytest.raises(ValueError):
            BondConfig(g, bad)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("bc", [0, 1])
def test_library_built_bonds_pass_the_public_check(n, bc):
    # the samplers build their configurations without the check; each
    # must be one the checked constructor accepts unchanged
    g = build_box(n)
    rng = philox(n, bc)
    params = FKParams(p=0.6, q=2.0, bc=bc)
    omega = bernoulli_bonds(g, 0.5, rng)
    built = [omega]
    for _ in range(4):
        built.append(swendsen_wang_step(built[-1], params, rng))
        built.append(single_bond_heat_bath_sweep(built[-1], params, rng))
    for omega in built:
        assert omega.bonds.dtype == np.uint8 and omega.bonds.shape == (g.n_edges,)
        checked = BondConfig(g, omega.bonds)
        assert checked.bonds.tobytes() == omega.bonds.tobytes()
        assert omega.g is g


def test_close_edges_leaves_original_untouched():
    g = build_box(3)
    omega = BondConfig.all_open(g)
    cut = close_edges(omega, [0, 3, 7])
    assert omega.open_count() == g.n_edges
    assert cut.open_count() == g.n_edges - 3
    assert cut.bonds[0] == 0 and cut.bonds[3] == 0 and cut.bonds[7] == 0


def test_close_edges_refuses_ids_that_are_not_integers():
    # [1.5] used to close edge 1, and a boolean mask closed edges 0 and 1
    omega = BondConfig.all_open(build_box(3))
    for bad in ([1.5], [1.0], np.array([True, False]), np.array([2.0])):
        with pytest.raises(ValueError, match="edge ids must be integers"):
            close_edges(omega, bad)
    for ids, closed in (([], []), (np.array([], dtype=np.int64), []),
                        (np.array([1, 3], dtype=np.uint8), [1, 3]),
                        ({3, 1}, [1, 3]), ((e for e in (3, 1)), [1, 3])):
        cut = close_edges(omega, ids)
        assert np.flatnonzero(cut.bonds == 0).tolist() == closed


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_decompose_matches_bfs_oracle(seed):
    g = build_box(5)
    rng = philox(seed)
    omega = bernoulli_bonds(g, 0.55, rng)
    dec = decompose(omega)
    comps = bfs_components(g, omega.bonds)
    k0, k1 = cluster_counts(g, omega.bonds)
    assert dec.k0 == k0
    assert dec.k1 == k1
    assert sorted(dec.sizes.tolist()) == sorted(len(c) for c in comps)
    boundary = set(int(v) for v in g.boundary_ids)
    m_oracle = set().union(*(c for c in comps if c & boundary))
    assert dec.m_count == len(m_oracle)
    assert set(np.flatnonzero(dec.m_mask).tolist()) == m_oracle
    interior_oracle = sorted(len(c) for c in comps if not (c & boundary))
    assert sorted(dec.interior_sizes.tolist()) == interior_oracle
    assert dec.max_interior == (max(interior_oracle) if interior_oracle else 0)
    assert dec.sum_sq_interior == sum(s * s for s in interior_oracle)
    # members agree cluster by cluster
    for cid in range(dec.k0):
        members = set(dec.cluster_vertices(cid).tolist())
        assert members in [set(c) for c in comps]


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 24), density=st.floats(0.0, 1.0),
       rows=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_cluster_labels_match_bfs_oracle(n, density, rows, seed):
    g = build_box(n)
    bonds = (philox(seed).random((rows, g.n_edges)) < density).astype(np.uint8)
    labels = cluster_labels(g, bonds)
    assert labels.shape == (rows, n * n)
    for row, lab in zip(bonds, labels):
        # oracle components numbered by first appearance in vertex order
        np.testing.assert_array_equal(lab, bfs_labels(g, row))
        np.testing.assert_array_equal(cluster_labels(g, row)[0], lab)


def _all_configs(g):
    masks = np.arange(1 << g.n_edges)
    return ((masks[:, None] >> np.arange(g.n_edges)) & 1).astype(np.uint8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cluster_labels_equal_oracle_on_every_small_config(n):
    g = build_box(n)
    bonds = _all_configs(g)
    want = cluster_labels_oracle(g, bonds)
    np.testing.assert_array_equal(cluster_labels(g, bonds), want)
    # one row at a time, and in stacks that start past the first mask
    for row, lab in zip(bonds, want):
        np.testing.assert_array_equal(cluster_labels(g, row), lab[None])
    for start in range(0, len(bonds), 37):
        np.testing.assert_array_equal(cluster_labels(g, bonds[start:start + 37]),
                                      want[start:start + 37])
    if n < 3:
        for row, lab in zip(bonds, want):
            np.testing.assert_array_equal(lab, bfs_labels(g, row))


@pytest.mark.parametrize("n", [4, 5, 8, 16, 17, 30, 64, 128])
@pytest.mark.parametrize("density", [0.0, 0.3, 0.5, 0.6, 1.0])
def test_cluster_labels_equal_oracles_on_random_configs(n, density):
    g = build_box(n)
    rows = 3 if n <= 64 else 2
    bonds = (philox(n, int(10 * density)).random((rows, g.n_edges))
             < density).astype(np.uint8)
    labels = cluster_labels(g, bonds)
    assert labels.shape == (rows, n * n)
    np.testing.assert_array_equal(labels, cluster_labels_oracle(g, bonds))
    for row, lab in zip(bonds, labels):
        np.testing.assert_array_equal(cluster_labels(g, row)[0], lab)
        np.testing.assert_array_equal(lab, bfs_labels(g, row))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 64])
def test_cluster_labels_all_open_and_all_closed(n):
    g = build_box(n)
    both = np.stack([BondConfig.all_open(g).bonds, BondConfig.all_closed(g).bonds])
    labels = cluster_labels(g, both)
    np.testing.assert_array_equal(labels[0], np.zeros(n * n, dtype=np.int64))
    np.testing.assert_array_equal(labels[1], np.arange(n * n))
    np.testing.assert_array_equal(labels, cluster_labels_oracle(g, both))
    assert cluster_labels(g, both[:0]).shape == (0, n * n)


@pytest.mark.parametrize("p", [1 - math.exp(-2 / 1.05), p_critical(2.0)])
def test_decompose_peak_memory_at_side_512(p):
    # the all-plus spins coupled at T = 1.05 and at T_c; the labelling
    # drops its run starts, open +x mask and bond index list once read and
    # relabels the run ids in place, which took the peak from 6.1 (5.6 at
    # T_c) to 5.0 (4.7) int64 words per vertex
    n = 512
    omega = bernoulli_bonds(build_box(n), p, philox(3))
    decompose(omega)
    tracemalloc.start()
    try:
        decompose(omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * 8 * n * n


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 40), rows=st.integers(1, 6),
       densities=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cluster_labels_equal_vertex_oracle(n, rows, densities, seed):
    # each row at its own density, so one stack mixes sparse and dense rows
    g = build_box(n)
    density = np.resize(np.asarray(densities), rows)[:, None]
    bonds = (philox(seed).random((rows, g.n_edges)) < density).astype(np.uint8)
    np.testing.assert_array_equal(cluster_labels(g, bonds),
                                  cluster_labels_oracle(g, bonds))
    np.testing.assert_array_equal(cluster_labels(g, bonds.astype(bool)),
                                  cluster_labels_oracle(g, bonds))


def test_all_closed_counts():
    g = build_box(4)
    dec = decompose(BondConfig.all_closed(g))
    assert dec.k0 == 16
    assert dec.k1 == 4 + 1  # 4 interior singletons, merged boundary
    assert dec.unit_interior_count == 4
    assert dec.m_count == 12


def test_halfgrid_singleton_count():
    g = build_box(5)
    dec = decompose(BondConfig.all_closed(g))
    # interior singletons on the even 1-norm half-grid: 5 of 9
    assert dec.u_halfgrid == 5
    assert dec.unit_interior_count == 9


def test_fk_weight_hand_value():
    g = build_box(2)
    params = FKParams(p=0.6, q=3.0, bc=0)
    omega = BondConfig.all_closed(g)
    # 4 closed edges, 4 singleton clusters
    assert abs(fk_weight(omega, params) - 0.4 ** 4 * 3.0 ** 4) < 1e-15
    wired = FKParams(p=0.6, q=3.0, bc=1)
    # all 4 vertices are boundary: one merged cluster
    assert abs(fk_weight(omega, wired) - 0.4 ** 4 * 3.0) < 1e-15


@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
@pytest.mark.parametrize("bc", [0, 1])
def test_exact_distribution_matches_enumeration_oracle(q, bc):
    g = build_box(2)
    params = FKParams(p=0.6, q=q, bc=bc)
    dist = exact_fk_distribution(g, params)
    oracle = fk_law_oracle(g, 0.6, q, wired=bool(bc))
    assert np.abs(dist.probs - oracle).max() < 1e-14
    assert abs(dist.probs.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bc", [0, 1])
def test_exact_distribution_side3_matches_enumeration_oracle(bc):
    # 4096 configurations: the labelling runs over several row blocks
    g = build_box(3)
    dist = exact_fk_distribution(g, FKParams(p=0.6, q=2.5, bc=bc))
    oracle = fk_law_oracle(g, 0.6, 2.5, wired=bool(bc))
    assert np.abs(dist.probs - oracle).max() < 1e-14


def _enumerations(n: int, wired: bool):
    """(g, the library's blocks, the oracle's blocks): every block at sides
    1-3; at side 4, where the oracle takes about 16 s for all 16,384
    blocks, the first, a middle and the last."""
    g = build_box(n)
    keep = None if n < 4 else [0, 1 << 23, (1 << 24) - 1024]
    got = [b for b in enumerate_bond_configs(g, wired) if keep is None or b[0] in keep]
    return g, got, list(enumerate_bond_configs_oracle(g, keep))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_free_enumeration_labels_equal_oracle(n):
    g, got, want = _enumerations(n, wired=False)
    assert [b[0] for b in got] == [b[0] for b in want]
    for (_, opens, labels), (_, bonds, oracle) in zip(got, want):
        assert labels.dtype == np.uint8
        np.testing.assert_array_equal(labels.T, oracle)
        np.testing.assert_array_equal(opens, bonds.sum(axis=1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_wired_enumeration_labels_give_oracle_counts_and_ranks(n):
    g, got, want = _enumerations(n, wired=True)
    assert [b[0] for b in got] == [b[0] for b in want]
    for (_, opens, labels), (_, bonds, oracle) in zip(got, want):
        k1, rank = wired_counts_oracle(g, oracle)
        assert (labels[g.boundary_ids] == 0).all()
        np.testing.assert_array_equal(labels.max(axis=0) + 1, k1)
        np.testing.assert_array_equal(labels[g.interior_ids].T, rank)
        np.testing.assert_array_equal(opens, bonds.sum(axis=1))


@pytest.mark.parametrize("bc", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_exact_distribution_equals_oracle_enumeration_bit_for_bit(n, bc):
    for p in (0.0, 0.3, 0.6, 1.0):
        for q in (1.0, 1.5, 2.0, 3.5):
            params = FKParams(p, q, bc)
            got = exact_fk_distribution(n, params)
            want = exact_fk_distribution_oracle(n, params)
            assert got.probs.tobytes() == want.probs.tobytes(), (p, q)
            assert got.z == want.z, (p, q)


def test_exact_distribution_product_case():
    # q = 1 is independent percolation whatever the boundary condition
    g = build_box(2)
    for bc in (0, 1):
        dist = exact_fk_distribution(g, FKParams(p=0.3, q=1.0, bc=bc))
        for e in range(g.n_edges):
            assert abs(dist.edge_marginal(e) - 0.3) < 1e-12


def test_prob_of_indexes_by_bitmask():
    g = build_box(2)
    params = FKParams(p=0.5, q=2.0, bc=1)
    dist = exact_fk_distribution(g, params)
    total = sum(dist.prob_of(BondConfig.from_bitmask(g, m))
                for m in range(1 << g.n_edges))
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("mask", [-1, -16, 16, 1 << 40])
def test_prob_of_refuses_masks_outside_the_box(mask):
    dist = exact_fk_distribution(build_box(2), FKParams(p=0.6, q=2.0, bc=1))
    for m in (mask, np.int64(mask)):
        with pytest.raises(ValueError, match=r"bitmask outside \[0, 2\^4\)"):
            dist.prob_of(m)


@pytest.mark.parametrize("mask", [3.7, np.float64(3)])
def test_prob_of_refuses_a_mask_that_is_not_an_integer(mask):
    # both used to fail with an AttributeError
    dist = exact_fk_distribution(build_box(2), FKParams(p=0.6, q=2.0, bc=1))
    with pytest.raises(ValueError, match="bitmask must be an integer"):
        dist.prob_of(mask)
    assert dist.prob_of(np.uint8(3)) == dist.probs[3]


def test_prob_of_refuses_a_configuration_of_another_box():
    dist = exact_fk_distribution(build_box(2), FKParams(p=0.6, q=2.0, bc=1))
    with pytest.raises(ValueError, match="side-3 box"):
        dist.prob_of(BondConfig.all_closed(build_box(3)))
    # a box of the same side built apart is the same box
    assert dist.prob_of(BondConfig.all_open(build_box(2))) == dist.probs[15]


@pytest.mark.parametrize("e", [-1, 4, 12])
def test_edge_marginal_refuses_edges_outside_the_box(e):
    dist = exact_fk_distribution(build_box(2), FKParams(p=0.6, q=2.0, bc=1))
    with pytest.raises(ValueError, match="edge id out of range"):
        dist.edge_marginal(e)


def test_edge_marginal_refuses_an_edge_that_is_not_an_integer():
    dist = exact_fk_distribution(build_box(2), FKParams(p=0.6, q=2.0, bc=1))
    with pytest.raises(ValueError, match="edge id must be an integer"):
        dist.edge_marginal(1.5)
    assert dist.edge_marginal(np.int64(1)) == dist.edge_marginal(1)


@pytest.mark.parametrize("e", [-1, 12, 100])
def test_single_bond_conditional_refuses_edges_outside_the_box(e):
    omega = BondConfig.all_open(build_box(3))
    with pytest.raises(ValueError, match="edge id out of range"):
        single_bond_conditional(omega, e, FKParams(p=0.6, q=2.0, bc=1))


def test_single_bond_conditional_refuses_an_edge_that_is_not_an_integer():
    omega = BondConfig.all_open(build_box(3))
    with pytest.raises(ValueError, match="edge id must be an integer"):
        single_bond_conditional(omega, 1.5, FKParams(p=0.6, q=2.0, bc=1))


def test_single_bond_conditional_detailed_balance():
    # pi(x) K_e(x -> y) = pi(y) K_e(y -> x) for every edge and state
    g = build_box(2)
    for bc in (0, 1):
        params = FKParams(p=0.6, q=2.0, bc=bc)
        dist = exact_fk_distribution(g, params)
        for mask in range(1 << g.n_edges):
            for e in range(g.n_edges):
                x = BondConfig.from_bitmask(g, mask)
                y = BondConfig.from_bitmask(g, mask ^ (1 << e))
                px = single_bond_conditional(x, e, params)
                py = single_bond_conditional(y, e, params)
                # conditional prob of the edge being open given the rest
                x_open = (mask >> e) & 1
                kxy = px if not x_open else 1.0 - px
                kyx = py if x_open else 1.0 - py
                lhs = dist.prob_of(x) * kxy
                rhs = dist.prob_of(y) * kyx
                assert abs(lhs - rhs) < 1e-14


@pytest.mark.parametrize("method", ["sw", "single-bond"])
@pytest.mark.parametrize("bc", [0, 1])
def test_sampler_visits_match_exact_law(method, bc):
    g = build_box(2)
    params = FKParams(p=0.6, q=2.0, bc=bc)
    dist = exact_fk_distribution(g, params)
    omega0 = BondConfig.all_open(g)
    counts = visit_counts(omega0, params, 60000, philox(97, bc), method=method)
    emp = counts / counts.sum()
    tv = 0.5 * np.abs(emp - dist.probs).sum()
    assert tv < 0.03


def test_swendsen_wang_needs_q2():
    g = build_box(2)
    params = FKParams(p=0.5, q=3.0, bc=1)
    with pytest.raises(ValueError):
        swendsen_wang_step(BondConfig.all_open(g), params, philox(1))


def test_single_bond_sweep_q1_is_fresh_bernoulli():
    g = build_box(3)
    params = FKParams(p=0.25, q=1.0, bc=0)
    rng = philox(31)
    omega = BondConfig.all_closed(g)
    total = 0
    for _ in range(4000):
        omega = single_bond_heat_bath_sweep(omega, params, rng)
        total += omega.open_count()
    mean_density = total / (4000 * g.n_edges)
    assert abs(mean_density - 0.25) < 0.01


@pytest.mark.parametrize("bc", [0, 1])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_single_bond_sweep_equals_per_edge_oracle(n, bc):
    g = build_box(n)
    for i, q in enumerate((1.0, 1.0 + 1e-12, 1.5, 2.0, 4.0)):
        for j, p in enumerate((0.0, 0.1, 0.3, 0.6, 0.7, 1.0)):
            params = FKParams(p=p, q=q, bc=bc)
            rng, rng_oracle = philox(n, 100 * i + j), philox(n, 100 * i + j)
            omega = bernoulli_bonds(g, 0.5, philox(n, 10_000 + 100 * i + j))
            oracle = omega
            for _ in range(4):
                omega = single_bond_heat_bath_sweep(omega, params, rng)
                oracle = single_bond_sweep_oracle(oracle, params, rng_oracle)
                assert omega.bonds.tolist() == oracle.bonds.tolist()
            assert rng.random() == rng_oracle.random()


@pytest.mark.parametrize("bc", [0, 1])
@pytest.mark.parametrize("q", [1.0, 1.0 + 1e-12, 1.5, 4.0])
def test_single_bond_sweep_draws_on_window_ends(q, bc):
    # uniforms that sit exactly on p, on merge_p and on their neighbours
    g = build_box(5)
    for p in (0.1, 0.6, 1.0):
        params = FKParams(p=p, q=q, bc=bc)
        merge_p = p / (p + (1.0 - p) * q)
        ends = [np.nextafter(x, d) for x in (p, merge_p) for d in (0.0, 2.0)]
        ends = np.array([x for x in ends + [p, merge_p] if x < 1.0])
        rng = philox(int(q * 10), bc)
        draws = rng.choice(ends, size=4 * g.n_edges)
        omega = oracle = bernoulli_bonds(g, 0.5, rng)
        fixed, fixed_oracle = FixedDraws(draws), FixedDraws(draws)
        for _ in range(4):
            omega = single_bond_heat_bath_sweep(omega, params, fixed)
            oracle = single_bond_sweep_oracle(oracle, params, fixed_oracle)
            assert omega.bonds.tolist() == oracle.bonds.tolist()


def _glued_connected_oracle(g, bonds, e: int, wired: bool) -> bool:
    """Endpoints of e in one BFS component once e is closed; under the
    wired condition consecutive boundary vertices are joined first."""
    open_edges = np.array(bonds, dtype=bool)
    open_edges[e] = False
    ea, eb = g.edge_a, g.edge_b
    if wired:
        bids = g.boundary_ids
        ea = np.concatenate([ea, bids[:-1]])
        eb = np.concatenate([eb, bids[1:]])
        open_edges = np.concatenate([open_edges, np.ones(bids.size - 1, bool)])
    glued = SimpleNamespace(n=g.n, edge_a=ea, edge_b=eb)
    a, b = int(g.edge_a[e]), int(g.edge_b[e])
    return any(a in c and b in c for c in bfs_components(glued, open_edges))


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 12), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bridge_query_matches_bfs_oracle(n, density, seed):
    g = build_box(n)
    rng = philox(seed)
    first, second = (rng.random((2, g.n_edges)) < density).astype(np.uint8)
    for wired in (False, True):
        bonds, connected = _bridge_query(BondConfig(g, first), wired)
        for config in (first, second):
            # the query reads the live buffer, so rewriting it re-targets it
            bonds[:g.n_edges] = config.tobytes()
            for e in range(g.n_edges):
                assert connected(e) == _glued_connected_oracle(g, config, e, wired)
            assert bonds[:g.n_edges] == config.tobytes()


def test_sample_chain_is_reproducible():
    g = build_box(4)
    params = FKParams(p=0.55, q=2.0, bc=1)
    run1 = sample_chain(BondConfig.all_open(g), params, 10, 20, 3, philox(7))
    run2 = sample_chain(BondConfig.all_open(g), params, 10, 20, 3, philox(7))
    assert [w.to_bitmask() for w, _ in run1] == [w.to_bitmask() for w, _ in run2]


@pytest.mark.parametrize("thin", [1, 3])
@pytest.mark.parametrize("burn_in", [0, 5])
@pytest.mark.parametrize("method", ["sw", "single-bond"])
@pytest.mark.parametrize("bc", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 8, 16])
def test_sample_chain_matches_list_oracle(n, bc, method, burn_in, thin):
    params = FKParams(p=0.6, q=2.0, bc=bc)
    omega0 = bernoulli_bonds(build_box(n), 0.6, philox(n, bc))
    rng, rng_oracle = philox(61, n), philox(61, n)
    want = sample_chain_oracle(omega0, params, 4, burn_in, thin, rng_oracle,
                               method=method)
    got = list(sample_chain(omega0, params, 4, burn_in, thin, rng,
                            method=method))
    assert len(got) == len(want)
    for (omega, dec), w in zip(got, want):
        assert omega.to_bitmask() == w.to_bitmask()
        assert omega.bonds.tobytes() == w.bonds.tobytes()
        assert np.array_equal(dec.labels, decompose(omega).labels)
    assert rng.random() == rng_oracle.random()


@pytest.mark.parametrize("bc", [0, 1])
def test_swendsen_wang_step_reuses_given_decomposition(bc):
    params = FKParams(p=0.6, q=2.0, bc=bc)
    for n in (2, 5, 12):
        omega = bernoulli_bonds(build_box(n), 0.6, philox(71, n))
        rng1, rng2 = philox(72, n), philox(72, n)
        fresh = swendsen_wang_step(omega, params, rng1)
        reused = swendsen_wang_step(omega, params, rng2, decompose(omega))
        assert fresh.bonds.tobytes() == reused.bonds.tobytes()
        # the Philox state holds small arrays, printed in full
        assert repr(rng1.bit_generator.state) == repr(rng2.bit_generator.state)


@pytest.mark.parametrize("n_samples,burn_in,thin",
                         [(1, 0, 1), (4, 0, 3), (3, 5, 1), (5, 7, 2)])
def test_sample_chain_labels_each_configuration_once(monkeypatch, n_samples,
                                                     burn_in, thin):
    calls = []
    labels = fk.cluster_labels

    def counting(g, bonds):
        calls.append(1)
        return labels(g, bonds)

    monkeypatch.setattr(fk, "cluster_labels", counting)
    g = build_box(6)
    omega0 = bernoulli_bonds(g, 0.6, philox(81))
    sw = FKParams(p=0.6, q=2.0, bc=1)
    for _ in sample_chain(omega0, sw, n_samples, burn_in, thin, philox(82)):
        pass
    assert len(calls) == burn_in + n_samples * thin + 1
    calls.clear()
    single = FKParams(p=0.6, q=1.5, bc=1)
    for _ in sample_chain(omega0, single, n_samples, burn_in, thin, philox(83),
                          method="single-bond"):
        pass
    assert len(calls) == n_samples


def test_decompose_and_samplers_label_through_cluster_labels(monkeypatch):
    # the exact enumeration labels by edge insertion; everything that labels
    # one configuration at a time still goes through cluster_labels
    calls = []
    labels = fk.cluster_labels

    def counting(g, bonds):
        calls.append(np.asarray(bonds).shape)
        return labels(g, bonds)

    monkeypatch.setattr(fk, "cluster_labels", counting)
    g = build_box(5)
    omega = bernoulli_bonds(g, 0.6, philox(84))
    decompose(omega)
    swendsen_wang_step(omega, FKParams(0.6, 2.0, 1), philox(85))
    visit_counts(BondConfig.all_open(build_box(3)), FKParams(0.6, 2.0, 0), 3,
                 philox(86))
    assert calls == [(g.n_edges,)] * 2 + [(12,)] * 3
    calls.clear()
    exact_fk_distribution(3, FKParams(0.6, 2.0, 1))
    assert calls == []


def test_sample_chain_rejects_unknown_method_at_call():
    g = build_box(3)
    with pytest.raises(ValueError, match="unknown method"):
        sample_chain(BondConfig.all_open(g), FKParams(0.6, 2.0, 1), 2, 0, 1,
                     philox(1), method="metropolis")


def test_tail_statistics_geometric_oracle():
    # geometric sizes have exactly exponential tails with rate -log(rho)
    rng = philox(12)
    rho = 0.6
    sizes = rng.geometric(1.0 - rho, size=40000)
    fit = tail_statistics(sizes, min_hits=80)
    assert not fit.degenerate
    assert abs(fit.psi_hat - (-math.log(rho))) < 0.03
    assert fit.ci_low < fit.psi_hat < fit.ci_high


def test_tail_statistics_degenerate_cases():
    assert tail_statistics([2] * 500).degenerate  # no decay in the window
    assert tail_statistics([1, 2, 3]).degenerate  # window too thin
    with pytest.raises(ValueError):
        tail_statistics([])


def test_event_D_n_hand_cases():
    g = build_box(4)
    dec = decompose(BondConfig.all_open(g))
    # a single cluster of 16 = n^2; mass 16 against amp * n^2
    assert event_D_n(dec, 1.0, 1.0, 2.0)
    assert not event_D_n(dec, 1.1, 1.0, 2.0)
    # threshold above the cluster size: nothing qualifies
    assert not event_D_n(dec, 0.1, 2.1, 0.0)


def test_event_Q_N_hand_cases():
    g = build_box(4)
    closed = decompose(BondConfig.all_closed(g))
    # sixteen singletons: any three vertices sit in distinct unit clusters
    assert event_Q_N(closed, [(0, 1), (1, 1), (2, 1)])
    assert not event_Q_N(closed, [(0, 2), (1, 1)])
    full = decompose(BondConfig.all_open(g))
    assert event_Q_N(full, [(0, 16)])
    # two vertices of the same cluster are not distinct witnesses
    assert not event_Q_N(full, [(0, 1), (1, 1)])


def test_external_cluster_boundary_singleton():
    g = build_box(5)
    v = g.vertex_id(0, 0)
    edges = external_cluster_boundary([v], g)
    incident = sorted(
        e for e in range(g.n_edges)
        if v in (int(g.edge_a[e]), int(g.edge_b[e]))
    )
    assert edges.tolist() == incident


def test_external_cluster_boundary_excludes_holes():
    # ring of 8 vertices around the origin: the 4 edges into the hole are
    # unreachable from outside and must not appear
    g = build_box(7)
    ring = [g.vertex_id(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
            if (dx, dy) != (0, 0)]
    edges = external_cluster_boundary(ring, g)
    center = g.vertex_id(0, 0)
    for e in edges.tolist():
        assert center not in (int(g.edge_a[e]), int(g.edge_b[e]))
    assert len(edges) == 12
    assert edges.tolist() == sorted(edges.tolist())


def test_external_cluster_boundary_rejects_ids_outside_the_box():
    g = build_box(5)
    v = g.vertex_id(0, 0)
    # v - 25 used to wrap around to v, and 25 to raise IndexError
    for bad in ([v - 25], [25], [v, 25]):
        with pytest.raises(ValueError, match="vertex id out of range"):
            external_cluster_boundary(bad, g)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(3, 20), density=st.floats(0.0, 1.0),
       rings=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_external_cluster_boundary_matches_flood_fill_oracle(n, density, rings, seed):
    # interior vertices kept at the given density, plus the outlines of a
    # few rectangles, whose insides become holes; the set may be disconnected
    g = build_box(n)
    rng = philox(seed)
    lo, hi = g.lo + 1, g.hi - 1
    picked = set(g.interior_ids[rng.random(g.interior_ids.size) < density].tolist())
    for _ in range(rings):
        x0, x1 = sorted(rng.integers(lo, hi + 1, size=2).tolist())
        y0, y1 = sorted(rng.integers(lo, hi + 1, size=2).tolist())
        picked |= {g.vertex_id(x, y) for x in range(x0, x1 + 1)
                   for y in range(y0, y1 + 1) if x in (x0, x1) or y in (y0, y1)}
    if not picked:
        with pytest.raises(ValueError, match="empty cluster"):
            external_cluster_boundary(picked, g)
        return
    edges = external_cluster_boundary(picked, g)
    assert edges.dtype == np.int64
    assert edges.tolist() == external_cluster_boundary_oracle(picked, g)
