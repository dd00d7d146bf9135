"""Edwards-Sokal coupling and planar duality, checked exactly where the
state space allows full enumeration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FixedDraws,
    bond_pushforward_oracle,
    duality_check_oracle,
    exact_fk_distribution_oracle,
    philox,
    pushforward_check_oracle,
    spin_pushforward_oracle,
    wired_law_and_spins_oracle,
)
from soc_ising import (
    BondConfig,
    FKParams,
    SpinConfig,
    T_CRITICAL,
    build_box,
    decompose,
    dual_config,
    dual_geometry,
    dual_parameter,
    duality_check,
    es_fk_to_ising,
    es_bond_pushforward,
    es_ising_to_fk,
    es_pushforward_check,
    es_spin_pushforward,
    exact_fk_distribution,
    p_critical,
    p_to_t,
    phi_n,
    t_to_p,
)
from soc_ising import coupling
from soc_ising.coupling import _wired_law_and_spins, dual_masks


def test_temperature_density_dictionary():
    assert t_to_p(0.0) == 1.0
    assert p_to_t(1.0) == 0.0
    assert abs(t_to_p(2.0) - (1.0 - math.exp(-1.0))) < 1e-15
    # the critical temperature maps to the self-dual density
    assert abs(t_to_p(T_CRITICAL) - p_critical(2.0)) < 1e-14
    for t in (0.3, 1.0, 2.269, 10.0):
        assert abs(p_to_t(t_to_p(t)) - t) < 1e-12
    with pytest.raises(ValueError):
        p_to_t(0.0)


def test_temperature_density_refuses_nan():
    assert t_to_p(math.inf) == 0.0
    with pytest.raises(ValueError, match=">= 0"):
        t_to_p(math.nan)
    with pytest.raises(ValueError, match=">= 0"):
        es_ising_to_fk(SpinConfig.all_plus(build_box(4)), math.nan, philox(0))


@pytest.mark.parametrize("q", [math.nan, math.inf])
def test_cluster_weight_must_be_finite(q):
    with pytest.raises(ValueError, match="finite"):
        p_critical(q)
    with pytest.raises(ValueError, match="finite"):
        dual_parameter(0.5, q)


@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_phi_n_refuses_non_finite_or_non_positive_exponent(a):
    for b in (0, 3):
        with pytest.raises(ValueError, match="exponent a must be finite"):
            phi_n(b, 4, a)


def test_es_ising_to_fk_keeps_infinite_temperature_limit():
    # T = inf is the bond density p = 0: every bond closed
    omega = es_ising_to_fk(SpinConfig.all_plus(build_box(4)), math.inf, philox(0))
    assert omega.open_count() == 0


def test_phi_n_values():
    assert phi_n(0, 10, 1.8) == 1.0
    # b = n^2 gives the density at the feedback temperature n^(4-2a)
    n, a = 10, 1.8
    expect = 1.0 - math.exp(-2.0 * n ** (2 * a) / float(n ** 2) ** 2)
    assert abs(phi_n(n * n, n, a) - expect) < 1e-15
    assert phi_n(60, 10, 1.8) > phi_n(80, 10, 1.8)  # decreasing in b


def test_dual_parameter():
    pc = p_critical(2.0)
    assert abs(dual_parameter(pc, 2.0) - pc) < 1e-15
    assert abs(dual_parameter(0.3, 1.0) - 0.7) < 1e-15
    for p in (0.1, 0.35, 0.5857, 0.9):
        for q in (1.0, 2.0, 3.0):
            assert abs(dual_parameter(dual_parameter(p, q), q) - p) < 1e-12


def test_es_fk_to_ising_respects_boundary():
    g = build_box(4)
    rng = philox(3)
    omega = BondConfig.all_closed(g)
    for _ in range(10):
        sigma = es_fk_to_ising(omega, rng)
        assert (sigma.spins[g.boundary_ids] == 1).all()


def test_es_fk_to_ising_constant_on_clusters():
    g = build_box(4)
    rng = philox(9)
    for _ in range(10):
        omega = BondConfig.from_bitmask(g, int(rng.integers(0, 1 << 24)))
        sigma = es_fk_to_ising(omega, rng)
        s = sigma.spins
        open_e = np.flatnonzero(omega.bonds)
        assert (s[g.edge_a[open_e]] == s[g.edge_b[open_e]]).all()
        dec = decompose(omega)
        assert (s[dec.m_mask] == 1).all()  # boundary clusters forced plus


def test_es_ising_to_fk_zero_temperature_opens_everything():
    g = build_box(3)
    sigma = SpinConfig.all_plus(g)
    omega = es_ising_to_fk(sigma, 0.0, philox(1))
    assert omega.open_count() == g.n_edges


def test_es_ising_to_fk_only_opens_agreeing_edges():
    g = build_box(4)
    u = philox(17).random(g.n_edges)
    sigma = SpinConfig.all_plus(g)
    for v in g.interior_ids[::2]:
        sigma.flip(int(v))
    omega = es_ising_to_fk(sigma, 1.3, FixedDraws(u))
    s = sigma.spins
    open_e = np.flatnonzero(omega.bonds)
    assert (s[g.edge_a[open_e]] == s[g.edge_b[open_e]]).all()
    # edge e opens iff its spins agree and its uniform is below p
    eq = s[g.edge_a] == s[g.edge_b]
    assert omega.bonds.dtype == np.uint8
    assert omega.bonds.tolist() == (eq & (u < t_to_p(1.3))).astype(int).tolist()


@pytest.mark.parametrize("t", [0.8, T_CRITICAL, 5.0])
def test_exact_pushforwards_tiny_box(t):
    spin_err, bond_err = es_pushforward_check(2, t)
    assert spin_err < 1e-12
    assert bond_err < 1e-12


def test_dual_config_complements_interior_edges():
    g = build_box(4)
    rng = philox(23)
    for _ in range(10):
        omega = BondConfig.from_bitmask(g, int(rng.integers(0, 1 << 24)))
        star = dual_config(omega)
        assert star.g.n == 3
        interior = np.flatnonzero(g.interior_edge_mask)
        open_interior = int(omega.bonds[interior].sum())
        assert star.open_count() == len(interior) - open_interior


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("p", [0.3, 0.8])
def test_duality_pushforward_small_error(p, q):
    assert duality_check(3, p, q) < 1e-12


def test_duality_at_self_dual_point():
    assert duality_check(3, p_critical(2.0), 2.0) < 1e-12


ORACLE_TEMPERATURES = [0.0, 0.05, 1.0, T_CRITICAL, 100.0]


@pytest.mark.parametrize("t", ORACLE_TEMPERATURES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pushforwards_equal_per_mask_oracles(n, t):
    g = build_box(n)
    spin = es_spin_pushforward(g, t)
    assert list(spin.items()) == list(spin_pushforward_oracle(g, t).items())
    assert np.array_equal(es_bond_pushforward(g, t), bond_pushforward_oracle(g, t))
    assert es_pushforward_check(g, t) == pushforward_check_oracle(g, t)


@pytest.mark.parametrize("t", ORACLE_TEMPERATURES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_bond_law_equals_exact_fk_distribution(n, t):
    g = build_box(n)
    law = exact_fk_distribution(g, FKParams(t_to_p(t), 2.0, 1)).probs
    assert np.array_equal(_wired_law_and_spins(g, t)[0], law)


# the bond densities of the oracle comparisons, as coupling temperatures
ORACLE_DENSITY_TEMPERATURES = [math.inf, p_to_t(0.3), p_to_t(0.6), 0.0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wired_law_and_spins_equal_oracle_enumeration_bit_for_bit(n):
    g = build_box(n)
    for t in ORACLE_DENSITY_TEMPERATURES:
        got, want = _wired_law_and_spins(g, t), wired_law_and_spins_oracle(g, t)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), t


@pytest.mark.parametrize("n", [1, 2, 3])
def test_checks_equal_oracle_enumeration_path_bit_for_bit(monkeypatch, n):
    got = {t: es_pushforward_check(n, t) for t in ORACLE_DENSITY_TEMPERATURES}
    grid = [(p, q) for p in (0.0, 0.3, 0.6, 1.0) for q in (1.0, 1.5, 2.0, 3.5)]
    dual = {pq: duality_check(n, *pq) for pq in grid} if n > 1 else {}
    monkeypatch.setattr(coupling, "_wired_law_and_spins", wired_law_and_spins_oracle)
    monkeypatch.setattr(coupling, "exact_fk_distribution",
                        exact_fk_distribution_oracle)
    assert got == {t: es_pushforward_check(n, t) for t in got}
    assert dual == {pq: duality_check(n, *pq) for pq in dual}


@pytest.mark.parametrize("n, blocks", [(1, 1), (2, 1), (3, 4)])
def test_coupling_check_labels_each_configuration_once(monkeypatch, n, blocks):
    # one pass per check, each mask yielded once and in bitmask order
    passes = []
    enumerate_bond_configs = coupling.enumerate_bond_configs

    def counting(g, wired):
        assert wired
        passes.append([])
        for start, opens, labels in enumerate_bond_configs(g, wired):
            passes[-1].append(np.arange(start, start + len(opens)))
            yield start, opens, labels

    monkeypatch.setattr(coupling, "enumerate_bond_configs", counting)
    n_configs = 1 << build_box(n).n_edges
    for check in (es_pushforward_check, es_spin_pushforward):
        passes.clear()
        check(n, 1.0)
        assert len(passes) == 1 and len(passes[0]) == blocks
        assert np.concatenate(passes[0]).tolist() == list(range(n_configs))


def test_coupling_check_refuses_boxes_past_enumeration():
    for check in (es_pushforward_check, es_spin_pushforward):
        with pytest.raises(ValueError, match="<= 24 edges"):
            check(5, 1.0)


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [2, 3])
def test_duality_check_equals_per_mask_oracle(n, p, q):
    assert duality_check(n, p, q) == duality_check_oracle(n, p, q)


def test_dual_masks_match_dual_config():
    g3 = build_box(3)
    masks = np.arange(1 << g3.n_edges)
    expect = [dual_config(BondConfig.from_bitmask(g3, int(m))).to_bitmask()
              for m in masks]
    assert dual_masks(3, masks).tolist() == expect
    g4 = build_box(4)
    masks = philox(41).integers(0, 1 << g4.n_edges, size=200)
    expect = [dual_config(BondConfig.from_bitmask(g4, int(m))).to_bitmask()
              for m in masks]
    assert dual_masks(4, masks).tolist() == expect


@settings(derandomize=True, deadline=None)
@given(n=st.integers(3, 6), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dual_config_twice_restores_the_bonds_it_maps(n, density, seed):
    # the dual of a side-n box is a side n-1 box, so applying dual_config
    # twice lands on side n-2: compare on the edges both pairings map
    g = build_box(n)
    omega = BondConfig(g, (philox(seed).random(g.n_edges) < density).astype(np.uint8))
    twice = dual_config(dual_config(omega))
    assert twice.g.n == n - 2
    first = dual_geometry(n).edge_map
    second = dual_geometry(n - 1).edge_map
    primal = np.flatnonzero(first >= 0)
    primal = primal[second[first[primal]] >= 0]
    image = second[first[primal]]
    # every edge of the side n-2 box is the image of exactly one primal edge
    assert sorted(image.tolist()) == list(range(twice.g.n_edges))
    np.testing.assert_array_equal(twice.bonds[image], omega.bonds[primal])
