"""Three-stage surgery on the boundary-connected set, the certified
events, and the sign-compensation arithmetic."""

import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    exact_cut_H2_oracle, maximal_subset_H1_oracle, philox,
    sign_compensation_fraction_oracle, stirling_constant_oracle,
    walk_bound_dp_oracle, walk_bound_mc_oracle,
)
from soc_ising import (
    BondConfig,
    EventParams,
    FKParams,
    annulus_cut_H0,
    bernoulli_bonds,
    build_box,
    close_edges,
    compensation_walk_bound_check,
    decompose,
    event_G_n,
    event_R_n,
    event_S_n,
    exact_cut_H2,
    forced_sign,
    fss_conditions,
    maximal_subset_H1,
    sample_chain,
    sign_compensation_probability,
    stirling_constant,
    surgery,
)
from soc_ising import experiments
from soc_ising.experiments import build_config


def test_event_params_validation_and_derived_values():
    params = EventParams(n=30, a=1.95)
    assert params.n1 == 25
    assert abs(params.s - 0.4) < 1e-12
    assert abs(params.size_cap - 30.0 ** 0.9) < 1e-10
    assert params.N == math.floor(30.0 ** 0.9)
    assert abs(params.h_budget - 30.0 ** 0.975) < 1e-10
    assert (params.lam, params.mu, params.nu) == (4, 3, 2)
    with pytest.raises(ValueError):
        EventParams(n=30, a=1.9)  # below 31/16
    with pytest.raises(ValueError):
        EventParams(n=30, a=31.0 / 16.0)  # the range is open
    with pytest.raises(ValueError):
        EventParams(n=30, a=2.0)
    assert EventParams(n=30, a=1.999).a == 1.999
    with pytest.raises(ValueError):
        EventParams(n=0, a=1.95)
    # n = 30.5 used to give the inner side n1 = 25.0
    for n in (30.5, 30.0):
        with pytest.raises(ValueError, match="side must be an integer"):
            EventParams(n=n, a=1.95)
    with pytest.raises(ValueError):
        EventParams(n=30, a=1.95, K=0.0)


@pytest.mark.parametrize("kwargs", [
    {"a": math.nan}, {"a": math.inf}, {"delta": math.nan},
    {"delta": math.inf}, {"K": math.nan}, {"K": math.inf},
])
def test_event_params_reject_non_finite_values(kwargs):
    with pytest.raises(ValueError):
        EventParams(**{"n": 30, "a": 1.95, **kwargs})


def test_annulus_cut_takes_the_inner_side_from_the_caller():
    # floor(5n/6) lives in EventParams.n1 alone
    with pytest.raises(TypeError, match="n1"):
        annulus_cut_H0(_path_config())


def _path_config(n=12, length=5):
    """All edges closed except a straight open path walking in from the
    boundary site (hi, 0) toward the center."""
    g = build_box(n)
    bonds = np.zeros(g.n_edges, dtype=np.uint8)
    xs = list(range(g.hi, g.hi - length - 1, -1))
    for x1, x2 in zip(xs, xs[1:]):
        e = g.edge_id(g.vertex_id(x1, 0), g.vertex_id(x2, 0))
        bonds[e] = 1
    return BondConfig(g, bonds)


def test_annulus_cut_on_path_fixture():
    # the only candidate annulus at n = 12 is the side-10 ring, and the
    # path crosses it once, at the edge from (5, 0) to (4, 0)
    omega = _path_config()
    g = omega.g
    params = EventParams(n=12, a=1.95)
    j_star, h0 = annulus_cut_H0(omega, params.n1)
    assert j_star == 5
    expected = g.edge_id(g.vertex_id(5, 0), g.vertex_id(4, 0))
    assert h0.tolist() == [expected]
    dec = decompose(omega)
    assert dec.m_count == 44 + 5


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_annulus_pigeonhole_bound(seed):
    # the chosen annulus carries at most its share of the spanned edges:
    # |H0| <= 2 |M| / (number of candidate annuli)
    g = build_box(60)
    params = EventParams(n=60, a=1.95)
    omega = bernoulli_bonds(g, 0.7, philox(seed))
    j_star, h0 = annulus_cut_H0(omega, params.n1)
    dec = decompose(omega)
    lo = -(-params.n1 // 2)
    hi = (60 - 2) // 2
    n_annuli = hi - lo + 1
    assert lo <= j_star <= hi
    assert h0.size <= 2 * dec.m_count / n_annuli
    # every returned edge joins two boundary-connected vertices and
    # crosses the chosen sub-box boundary
    inside = g.sub_box_mask(2 * j_star)
    for e in h0:
        a, b = g.edge_a[e], g.edge_b[e]
        assert dec.m_mask[a] and dec.m_mask[b]
        assert inside[a] != inside[b]


def test_greedy_maximality_recheck():
    g = build_box(30)
    omega = bernoulli_bonds(g, 0.7, philox(11))
    dec = decompose(omega)
    params = EventParams(n=30, a=1.95)
    _, h0 = annulus_cut_H0(omega, params.n1)
    m = dec.m_count
    target = -((-(m + int(0.8 * m))) // 2)
    full = decompose(close_edges(omega, h0)).m_count
    if not full < target <= m:
        pytest.skip("fixture misses the greedy precondition")
    h1, witness = maximal_subset_H1(omega, h0, target)[:2]
    assert decompose(close_edges(omega, h1)).m_count >= target
    kept = set(h1.tolist())
    assert witness in set(h0.tolist()) - kept
    for f in h0:
        if int(f) in kept:
            continue
        # every rejected edge is a maximality witness
        dropped = decompose(close_edges(omega, list(h1) + [int(f)])).m_count
        assert dropped < target


def test_maximal_subset_preconditions():
    omega = _path_config()
    _, h0 = annulus_cut_H0(omega, 10)
    with pytest.raises(ValueError):
        maximal_subset_H1(omega, h0, 50)  # above the current count
    with pytest.raises(ValueError):
        maximal_subset_H1(omega, h0, 44)  # closing everything still leaves 44


def test_exact_cut_H2_on_a_path():
    g = build_box(5)
    v0, v1, v2 = (g.vertex_id(0, y) for y in (-1, 0, 1))
    e01 = g.edge_id(v0, v1)
    e12 = g.edge_id(v1, v2)
    cluster = np.array([v0, v1, v2])
    h2 = exact_cut_H2(g, cluster, [e01, e12], v0, 2)
    assert h2.tolist() == [e12]
    assert exact_cut_H2(g, cluster, [e01, e12], v0, 1).tolist() == [e01]
    assert exact_cut_H2(g, cluster, [e01, e12], v0, 3).size == 0
    with pytest.raises(ValueError):
        exact_cut_H2(g, cluster, [e01, e12], v0, 0)
    with pytest.raises(ValueError):
        exact_cut_H2(g, cluster, [e01, e12], v0, 4)
    with pytest.raises(ValueError):
        exact_cut_H2(g, cluster, [e01, e12], g.vertex_id(2, 2), 1)


def test_surgery_short_circuit_at_full_count():
    omega = _path_config()
    params = EventParams(n=12, a=1.95)
    res = surgery(omega, 49, params)
    assert res.success and res.stage == "ok"
    assert res.target == res.m_before == res.m_after == 49
    assert res.h.size == 0 and res.c0_sizes.size == 0
    assert res.parity_unit == -1


def test_surgery_full_pipeline_on_path_fixture():
    # closing the single fine-cut edge must sever exactly the path tail
    omega = _path_config()
    g = omega.g
    params = EventParams(n=12, a=1.95)
    res = surgery(omega, 45, params)
    assert res.success and res.stage == "ok"
    assert res.target == 47 and res.m_after == 47
    assert res.j_star == 5
    assert res.h1.size == 0
    assert res.witness_edge == g.edge_id(g.vertex_id(5, 0), g.vertex_id(4, 0))
    assert res.h2.tolist() == [g.edge_id(g.vertex_id(2, 0), g.vertex_id(1, 0))]
    assert res.h.tolist() == res.h2.tolist()
    # the witness edge itself stays open
    omega_h = close_edges(omega, res.h)
    assert omega_h.bonds[res.witness_edge] == 1
    assert res.c0_sizes.tolist() == [2]
    severed = {int(v) for v in res.disconnected[0]}
    assert severed == {g.vertex_id(1, 0), g.vertex_id(0, 0)}
    assert res.identity_ok
    assert res.fine_m == 3


def test_surgery_parity_unit_path():
    # odd |M| + b: one pre-existing interior singleton joins the family
    omega = _path_config()
    g = omega.g
    params = EventParams(n=12, a=1.95)
    res = surgery(omega, 46, params)
    assert res.success
    assert res.target == 48 and res.m_after == 48
    assert res.parity_unit == g.vertex_id(-5, -5)
    assert sorted(res.c0_sizes.tolist()) == [1, 1]
    assert res.identity_ok
    # the unaccounted variant of the same target, even parity
    res2 = surgery(omega, 47, params)
    assert res2.success and res2.parity_unit == -1
    assert res2.m_after - int(res2.c0_sizes.sum()) == 47


def test_surgery_failure_stages():
    omega = _path_config()
    params = EventParams(n=12, a=1.95)
    assert surgery(omega, 51, params).stage == "target-above-count"
    # even closing every annulus edge still leaves the target count
    assert surgery(omega, 39, params).stage == "greedy-precondition"
    with pytest.raises(ValueError):
        surgery(omega, -1, params)
    # boxes too small to hold any candidate annulus
    g6 = build_box(6)
    params6 = EventParams(n=6, a=1.95)
    res = surgery(BondConfig.all_open(g6), 24, params6)
    assert res.stage == "annulus-precondition"
    assert not res.success


@pytest.mark.parametrize("seed", range(6))
def test_surgery_random_samples_reach_exact_target(seed):
    g = build_box(30)
    params = EventParams(n=30, a=1.95)
    omega = bernoulli_bonds(g, 0.7, philox(100 + seed))
    dec0 = decompose(omega)
    m = dec0.m_count
    b = int(0.8 * m)
    if (m + b) % 2:
        b -= 1
    res = surgery(omega, b, params)
    precondition = {"target-above-count", "annulus-precondition",
                    "greedy-precondition"}
    if res.stage in precondition:
        pytest.skip(f"sample rejected at {res.stage}")
    assert res.success
    assert res.m_after == res.target == (m + b + 1) // 2
    assert res.identity_ok
    assert res.c0_sizes.size <= res.h.size + 1
    # H only ever cuts within the boundary-connected subgraph
    for e in res.h:
        assert dec0.m_mask[g.edge_a[e]] and dec0.m_mask[g.edge_b[e]]
    # interior clusters of the input survive untouched
    omega_h = close_edges(omega, res.h)
    before = set(map(frozenset, _interior_clusters(dec0)))
    after = set(map(frozenset, _interior_clusters(decompose(omega_h))))
    assert before <= after
    # severed families are pure: every member used to touch the boundary
    for fam in res.disconnected:
        members = [int(v) for v in fam]
        if res.parity_unit in members and len(members) == 1:
            continue
        assert dec0.m_mask[members].all()


def _interior_clusters(dec):
    return [tuple(int(v) for v in dec.cluster_vertices(int(c)))
            for c in dec.interior_cluster_ids]


def test_event_S_certificate_on_the_fixture():
    omega = _path_config()
    g = omega.g
    params = EventParams(n=12, a=1.95)
    res = surgery(omega, 45, params)
    omega_h = close_edges(omega, res.h)
    assert event_S_n(omega_h, 45, params, res.disconnected)
    # wrong level, boundary cluster, or split family all fail
    assert not event_S_n(omega_h, 44, params, res.disconnected)
    assert not event_S_n(omega_h, 45, params, [[g.vertex_id(5, 5)]])
    part = [list(res.disconnected[0])[:1]]
    assert not event_S_n(omega_h, 45, params, part)


def test_event_S_rejects_mixed_vertex_sets():
    # two distinct singletons fused into one claimed cluster of size 2
    g = build_box(12)
    omega = BondConfig.all_closed(g)
    params = EventParams(n=12, a=1.95)
    v1, v2 = g.vertex_id(0, 0), g.vertex_id(2, 2)
    b = decompose(omega).m_count - 2
    assert not event_S_n(omega, b, params, [[v1, v2]])
    assert event_S_n(omega, b, params, [[v1], [v2]])


def test_event_R_on_the_fixture():
    omega = _path_config()
    params = EventParams(n=12, a=1.95)
    assert event_R_n(omega, 45, params)
    # shrinking the budget far enough removes the certificate
    tight = EventParams(n=12, a=1.95, K=1e-3)
    assert not event_R_n(omega, 45, tight)
    # a target the annulus cannot reach has no witness either
    assert not event_R_n(omega, 39, params)


def test_event_G_matches_direct_recomputation():
    params = EventParams(n=30, a=1.95)
    g = build_box(30)
    for seed in range(4):
        omega = bernoulli_bonds(g, 0.62, philox(300 + seed))
        dec = decompose(omega)
        na = 30.0 ** 1.95
        inner = int((dec.m_mask & g.sub_box_mask(params.n1)).sum())
        expect = (
            dec.m_count <= 4 * na
            and inner >= 2 * na
            and dec.max_interior <= params.size_cap
            and dec.unit_interior_count - 1 >= params.size_cap
        )
        assert event_G_n(dec, params) == expect


@pytest.mark.parametrize("n", [12, 16, 32, 64])
@pytest.mark.parametrize("a", [1.94, 1.95, 1.99])
def test_event_G_cannot_hold_at_reachable_sides(n, a):
    # all-open puts every vertex in the boundary cluster: the most inner-box
    # mass any configuration has.  That is n1^2 <= 25 n^2 / 36 vertices, short
    # of 2 n^a until n^(2 - a) >= 72/25 (n >= 2.2e7 at a = 31/16)
    params = EventParams(n=n, a=a)
    g = build_box(n)
    dec = decompose(BondConfig.all_open(g))
    assert dec.m_count == n * n <= 4 * n ** a  # the mass clause holds
    inner = int((dec.m_mask & g.sub_box_mask(params.n1)).sum())
    assert inner == params.n1 ** 2 < 2 * n ** a
    assert not event_G_n(dec, params)


def test_fss_conditions_against_direct_recomputation():
    from soc_ising import p_critical, theta_asymptotic
    params = EventParams(n=30, a=1.95)
    g = build_box(30)
    p = 0.64
    theta = theta_asymptotic(p)
    for seed in range(4):
        omega = bernoulli_bonds(g, p, philox(400 + seed))
        dec = decompose(omega)
        c1, c2, c3 = fss_conditions(dec, params, p)
        inner = int((dec.m_mask & g.sub_box_mask(params.n1)).sum())
        assert c1 == (dec.m_count <= (1 + params.delta) * theta * 900)
        assert c2 == (dec.max_interior <= 30.0 ** (params.s + 0.5))
        assert c3 == (inner >= (1 - params.delta) * theta * 625)
    with pytest.raises(ValueError):
        fss_conditions(decompose(omega), params, p_critical(2.0) - 0.01)


def _brute_zero_probability(sizes):
    sums = np.zeros(1, dtype=np.int64)
    for s in sizes:
        sums = np.concatenate([sums + s, sums - s])
    return Fraction(int((sums == 0).sum()), 1 << len(sizes))


def test_sign_compensation_matches_brute_force():
    rng = philox(77)
    for _ in range(120):
        k = int(rng.integers(0, 13))
        sizes = [int(s) for s in rng.integers(1, 7, size=k)]
        got = sign_compensation_probability(sizes)
        want = _brute_zero_probability(sizes)
        if sum(sizes) <= 64:
            assert got == want
        else:
            assert abs(float(got) - float(want)) < 1e-12


def test_sign_compensation_edge_cases():
    assert sign_compensation_probability([]) == Fraction(1)
    assert sign_compensation_probability([3]) == Fraction(0)  # odd total
    # only +2-1-1 and -2+1+1 hit zero among the 8 sign choices
    assert sign_compensation_probability([2, 1, 1]) == Fraction(1, 4)
    with pytest.raises(ValueError):
        sign_compensation_probability([0, 2])
    # float path beyond the exact-rational mass threshold
    sizes = [5] * 14  # total 70
    got = sign_compensation_probability(sizes)
    assert isinstance(got, float)
    assert abs(got - float(_brute_zero_probability(sizes))) < 1e-12


@pytest.mark.parametrize("sizes", [
    [], [2], [1, 1], [2, 1, 1], [1] * 64, [64], [32, 32], [1] * 62 + [2],
    [63, 1], [31, 33], [2] * 32, [7, 5, 3, 1, 9, 11, 13, 15], [3] * 21 + [1],
])
def test_sign_compensation_matches_fraction_oracle(sizes):
    got = sign_compensation_probability(sizes)
    want = sign_compensation_fraction_oracle(sizes)
    assert type(got) is Fraction
    assert got == want


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.lists(st.integers(1, 64), max_size=64).filter(lambda s: sum(s) <= 64))
def test_sign_compensation_matches_fraction_oracle_on_small_totals(sizes):
    got = sign_compensation_probability(sizes)
    assert type(got) is Fraction
    assert got == sign_compensation_fraction_oracle(sizes)


def test_sign_compensation_budget_guard():
    with pytest.raises(ValueError):
        sign_compensation_probability([10 ** 6] * 12)


def test_forced_sign():
    assert forced_sign(-3) == 1
    assert forced_sign(0) == 1
    assert forced_sign(2) == -1


def test_stirling_constant_is_sqrt2_over_2():
    assert abs(stirling_constant() - math.sqrt(2.0) / 2.0) < 1e-12


def test_stirling_constant_equals_log_gamma_oracle():
    assert stirling_constant() == stirling_constant_oracle()


def test_walk_bound_check_small_instance():
    rep = compensation_walk_bound_check([1, 1, 2], N=4, n=5)
    assert rep.method == "dp"
    assert rep.parity_ok
    assert rep.holds
    assert rep.probs[0] == 1.0
    assert rep.js.tolist() == [0, 1, 2, 3, 4]
    # partial sums only involve clusters of size <= j; S_1 = +-1 + +-1
    assert abs(rep.probs[1] - 1.0) < 1e-12  # |S_1| <= 4 always (max 2)
    assert (rep.probs >= rep.bounds - 1e-12).all()


@pytest.mark.parametrize("sizes,N", [
    ([], 5), ([1, 1, 2], 4), ([3], 3), ([7, 2, 2, 9, 5, 7, 1], 9),
    (list(range(1, 40)) * 3, 60), ([40] * 50, 45),
])
def test_walk_bound_dp_equals_per_j_oracle(sizes, N):
    rep = compensation_walk_bound_check(sizes, N=N, n=5)
    assert rep.method == "dp"
    assert np.array_equal(rep.probs, walk_bound_dp_oracle(sizes, N))


def test_walk_bound_parity_flag():
    rep = compensation_walk_bound_check([1, 1, 2], N=5, n=5)
    assert not rep.parity_ok  # 5 - 4 is odd


def test_walk_bound_requires_sampling_beyond_dp_budget():
    # a total mass past the DP table budget demands rng and trials
    sizes = [2] * 600_000
    with pytest.raises(ValueError):
        compensation_walk_bound_check(sizes, N=2, n=10)


def test_walk_bound_samples_beyond_dp_budget():
    # 1,001 clusters of size 1,000: a total of 1,001,000 is past the DP
    # budget.  S_j = 0 for j < 1000, and |S_1000| <= 1000 exactly when the
    # 1,001 signs sum to +-1, with probability 2 C(1001, 500) / 2^1001
    trials = 2000
    # the cached K2 scan of 10^6 terms is not part of the walk
    stirling_constant()
    tracemalloc.start()
    try:
        rep = compensation_walk_bound_check([1000] * 1001, N=1000, n=10,
                                            rng=philox(5), trials=trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.method == "mc"
    assert (rep.probs[:1000] == 1.0).all()
    exact = 2 * math.comb(1001, 500) / 2 ** 1001
    se = math.sqrt(exact * (1 - exact) / trials)
    assert abs(rep.probs[1000] - exact) < 5 * se
    want = walk_bound_mc_oracle([1000] * 1001, 1000, philox(5), trials)
    assert np.array_equal(rep.probs, want)
    # the 2,000 x 1,001 int64 sign matrix alone takes 16 MB
    assert peak < 20 * 2 ** 20
    # 1,500 sizes in [400, 1000]: S_j grows over many stretches of sizes
    sizes = philox(6).integers(400, 1001, size=1500).tolist()
    rep = compensation_walk_bound_check(sizes, N=1000, n=10, rng=philox(7),
                                        trials=500)
    assert rep.method == "mc"
    want = walk_bound_mc_oracle(sizes, 1000, philox(7), 500)
    assert np.array_equal(rep.probs, want)


def test_surgery_identity_on_random_configurations():
    # recount the cut configuration with decompose rather than trusting the
    # identity_ok flag that surgery computes itself
    oks = 0
    for seed in range(40):
        rng = philox(seed, 11)
        n = int(rng.integers(12, 21))
        omega = bernoulli_bonds(build_box(n), float(rng.uniform(0.6, 0.9)),
                                rng)
        m = decompose(omega).m_count
        b = int(rng.integers(0, m + 1))
        res = surgery(omega, b, EventParams(n=n, a=1.95))
        if res.stage != "ok":
            continue
        oks += 1
        severed = sum(len(c) for c in res.disconnected)
        assert decompose(close_edges(omega, res.h)).m_count - severed == b
    assert oks >= 20


def test_exact_cut_H2_rejects_ids_outside_the_box():
    g = build_box(5)
    # a cluster of the single id -1 used to give an empty cut
    with pytest.raises(ValueError, match="vertex id out of range"):
        exact_cut_H2(g, [-1], [], -1, 1)
    with pytest.raises(ValueError, match="vertex id out of range"):
        exact_cut_H2(g, [0, 25], [], 0, 1)
    e01 = g.edge_id(0, 1)
    for bad in (-1, g.n_edges):
        with pytest.raises(ValueError, match="edge id out of range"):
            exact_cut_H2(g, [0, 1], [e01, bad], 0, 1)


def test_exact_cut_H2_refuses_ids_that_are_not_integers():
    # edge id e01 + 0.5 used to be taken as e01
    g = build_box(5)
    e01 = g.edge_id(0, 1)
    with pytest.raises(ValueError, match="edge ids must be integers"):
        exact_cut_H2(g, [0, 1], [e01 + 0.5], 0, 1)
    with pytest.raises(ValueError, match="vertex ids must be integers"):
        exact_cut_H2(g, [0.0, 1.0], [e01], 0, 1)
    with pytest.raises(ValueError, match="vertex id must be an integer"):
        exact_cut_H2(g, [0, 1], [e01], 0.5, 1)
    assert exact_cut_H2(g, [0, 1], [e01], np.int64(0), 1).tolist() == [e01]


def test_exact_cut_H2_refuses_a_kept_size_that_is_not_an_integer():
    # m = 1.5 used to pass the size check and fail slicing the traversal
    g = build_box(5)
    e01 = g.edge_id(0, 1)
    for bad in (1.5, 1.0, "1"):
        with pytest.raises(ValueError, match="kept size m must be an integer"):
            exact_cut_H2(g, [0, 1], [e01], 0, bad)
    assert exact_cut_H2(g, [0, 1], [e01], 0, np.int64(1)).tolist() == [e01]


@settings(derandomize=True, deadline=None)
@given(n=st.integers(1, 16), density=st.floats(0.0, 1.0),
       repeats=st.integers(0, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_exact_cut_H2_matches_dict_bfs_oracle(n, density, repeats, seed):
    # the cluster of a random vertex of a Bernoulli configuration, its open
    # edges in random order with some of them repeated, random v and m
    g = build_box(n)
    rng = philox(seed)
    omega = bernoulli_bonds(g, density, rng)
    dec = decompose(omega)
    cid = dec.labels[rng.integers(n * n)]
    cluster = dec.cluster_vertices(cid)
    edges = np.flatnonzero(omega.bonds.astype(bool) & (dec.labels[g.edge_a] == cid))
    if edges.size:
        edges = np.concatenate([edges, rng.choice(edges, size=repeats)])
    rng.shuffle(edges)
    v = int(rng.choice(cluster))
    m = int(rng.integers(1, cluster.size + 1))
    h2 = exact_cut_H2(g, cluster, edges, v, m)
    assert h2.dtype == np.int64
    assert h2.tolist() == exact_cut_H2_oracle(g, cluster, edges, v, m)


def test_event_S_rejects_ids_outside_the_box():
    g = build_box(12)
    omega = BondConfig.all_closed(g)
    params = EventParams(n=12, a=1.95)
    v = g.vertex_id(0, 0)
    b = decompose(omega).m_count - 1
    assert event_S_n(omega, b, params, [[v]])
    # v - 144 used to wrap around to v, and 144 to raise IndexError
    for bad in ([v - 144], [144]):
        with pytest.raises(ValueError, match="vertex id out of range"):
            event_S_n(omega, b, params, [bad])


def _sw_sample(n, bc, seed, steps=8):
    """A Swendsen-Wang sample of the q = 2 law at p = 0.7, after a short
    burn-in from a Bernoulli start."""
    rng = philox(seed, bc)
    omega0 = bernoulli_bonds(build_box(n), 0.7, rng)
    return next(sample_chain(omega0, FKParams(p=0.7, q=2.0, bc=bc), 1, steps,
                             1, rng))[0]


def _assert_greedy_matches_oracle(omega, h0, target):
    want = maximal_subset_H1_oracle(omega, h0, target)
    for dec in (None, decompose(omega)):
        h1, witness, dec_h1, dec_h0 = maximal_subset_H1(omega, h0, target, dec)
        assert h1.dtype == np.int64
        assert (h1.tolist(), witness) == (want[0].tolist(), want[1])
        # the handed decompositions are those of the two closures
        for got, closed in ((dec_h1, h1), (dec_h0, h0)):
            np.testing.assert_array_equal(
                got.labels, decompose(close_edges(omega, closed)).labels)


@pytest.mark.parametrize("n", [12, 16, 20, 24, 30])
@pytest.mark.parametrize("bc", [0, 1])
def test_greedy_bisection_matches_edge_by_edge_oracle(n, bc):
    # every target the precondition admits at sides 12 and 16, so that the
    # stages near the full count reject many edges; a spread at larger sides
    omega = _sw_sample(n, bc, seed=n)
    _, h0 = annulus_cut_H0(omega, EventParams(n=n, a=1.95).n1)
    m0 = decompose(close_edges(omega, h0)).m_count
    m_full = decompose(omega).m_count
    assert m0 < m_full
    targets = range(m0 + 1, m_full + 1)
    if n > 16:
        targets = np.unique(np.linspace(m0 + 1, m_full, 12).astype(int))
    for target in targets:
        _assert_greedy_matches_oracle(omega, h0, int(target))
    for target in (m0, m_full + 1):
        with pytest.raises(ValueError, match="greedy cut needs") as got:
            maximal_subset_H1(omega, h0, target)
        with pytest.raises(ValueError) as want:
            maximal_subset_H1_oracle(omega, h0, target)
        assert str(got.value) == str(want.value)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(12, 30), bc=st.integers(0, 1),
       extra=st.integers(0, 40), repeats=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1), frac=st.floats(0.0, 1.0))
def test_greedy_bisection_matches_oracle_on_unsorted_h0_with_closed_edges(
        n, bc, extra, repeats, seed, frac):
    # the annulus cut plus random other edges (closed ones included), some
    # of them repeated, in random order
    omega = _sw_sample(n, bc, seed=seed % 1000)
    rng = philox(seed, 7)
    _, h0 = annulus_cut_H0(omega, EventParams(n=n, a=1.95).n1)
    h0 = np.concatenate([h0, rng.choice(omega.g.n_edges, size=extra)])
    if h0.size:
        h0 = np.concatenate([h0, rng.choice(h0, size=repeats)])
    rng.shuffle(h0)
    m0 = decompose(close_edges(omega, h0)).m_count
    m_full = decompose(omega).m_count
    if m0 < m_full:
        target = m0 + 1 + int(frac * (m_full - m0 - 1))
        _assert_greedy_matches_oracle(omega, h0, target)


def test_surgery_demo_labels_each_input_once_and_bisects(monkeypatch):
    # surgery-demo at its defaults: every surgery's input is labelled once,
    # by the sample chain, and the greedy stage makes at most
    # (rejections + 1) (ceil(log2 |H0|) + 1) decompose calls, where the
    # edge-by-edge loop makes |H0| + 2
    surgery_module = importlib.import_module("soc_ising.surgery")
    labelled = []  # the argument of every decompose call
    stages = []  # (|H0|, rejections, decompose calls) per greedy stage
    inputs = []  # the input of every surgery

    def counted_decompose(omega):
        labelled.append(omega)
        return decompose(omega)

    def counted_greedy(omega, h0, target, dec=None):
        start = len(labelled)
        out = maximal_subset_H1(omega, h0, target, dec)
        stages.append((len(h0), len(h0) - len(out[0]), len(labelled) - start))
        return out

    def recorded_surgery(omega, b, params, dec=None):
        inputs.append(omega)
        return surgery(omega, b, params, dec)

    for module in (importlib.import_module("soc_ising.fk"), surgery_module):
        monkeypatch.setattr(module, "decompose", counted_decompose)
    monkeypatch.setattr(surgery_module, "maximal_subset_H1", counted_greedy)
    monkeypatch.setattr(surgery_module, "surgery", recorded_surgery)
    cfg = build_config("surgery-demo")
    experiments._run_surgery_demo(cfg)
    assert len(inputs) == cfg.samples
    for omega in inputs:
        assert sum(arg is omega for arg in labelled) == 1
    assert len(stages) >= cfg.samples // 2
    for size, rejections, calls in stages:
        assert calls <= (rejections + 1) * (math.ceil(math.log2(size)) + 1)


def test_surgery_labels_no_configuration_twice(monkeypatch):
    # surgery-demo --n 30 --p 0.7 --a 1.95 --samples 20 --burn-in 20
    # --seed 7: the greedy stage hands back its decompositions of omega
    # with H1 closed and with H0 closed, and bisects over the open edges
    # of H0 only, so no surgery labels one configuration twice; the same
    # run made 233 labellings inside surgeries, 66 of them repeats, when
    # surgery labelled both closures again and the bisection probed
    # closures that differed only by closed edges
    surgery_module = importlib.import_module("soc_ising.surgery")
    per_surgery = []  # the bonds of every decompose call, per surgery
    inside = []  # holds the current surgery's list while one runs

    def counted_decompose(omega):
        if inside:
            inside[0].append(omega.bonds.tobytes())
        return decompose(omega)

    def recorded_surgery(omega, b, params, dec=None):
        per_surgery.append([])
        inside.append(per_surgery[-1])
        try:
            res = surgery(omega, b, params, dec)
        finally:
            inside.clear()
        h1_closed = close_edges(omega, res.h1).bonds.tobytes()
        h0_closed = close_edges(omega, res.h0).bonds.tobytes()
        assert per_surgery[-1].count(h1_closed) == 1
        assert per_surgery[-1].count(h0_closed) == 1
        return res

    for module in (importlib.import_module("soc_ising.fk"), surgery_module):
        monkeypatch.setattr(module, "decompose", counted_decompose)
    monkeypatch.setattr(surgery_module, "surgery", recorded_surgery)
    cfg = build_config("surgery-demo", {}, {
        "n": "30", "p": "0.7", "a": "1.95", "samples": "20", "burn_in": "20",
        "seed": "7"})
    experiments._run_surgery_demo(cfg)
    assert len(per_surgery) == 20
    for bonds in per_surgery:
        assert len(set(bonds)) == len(bonds)
    assert sum(map(len, per_surgery)) == 182


def test_surgery_results_unchanged_by_handed_decompositions(monkeypatch):
    # the reference greedy stage hands back fresh decompositions of omega
    # with H1 closed and with H1 and the witness closed, which is what
    # surgery reads; targets over the whole range reach several rejections
    surgery_module = importlib.import_module("soc_ising.surgery")

    def fresh_greedy(omega, h0, target, dec=None):
        h1, witness, _, _ = maximal_subset_H1(omega, h0, target, dec)
        return (h1, witness, decompose(close_edges(omega, h1)),
                decompose(close_edges(omega, list(h1) + [witness])))

    params = EventParams(n=30, a=1.95)
    rejections = set()
    for seed in range(3):
        omega = _sw_sample(30, 1, seed)
        dec = decompose(omega)
        for b in range(0, dec.m_count, 7):
            got = surgery(omega, b, params, dec)
            with monkeypatch.context() as patch:
                patch.setattr(surgery_module, "maximal_subset_H1", fresh_greedy)
                want = surgery(omega, b, params, dec)
            assert got.stage == want.stage == "ok"
            for key in ("h0", "h1", "h2", "h", "c0_sizes"):
                np.testing.assert_array_equal(getattr(got, key), getattr(want, key))
            assert ((got.m_after, got.witness_edge, got.fine_m, got.parity_unit)
                    == (want.m_after, want.witness_edge, want.fine_m,
                        want.parity_unit))
            rejections.add(got.h0.size - got.h1.size)
    assert max(rejections) > 1
