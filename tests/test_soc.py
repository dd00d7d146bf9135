"""Feedback temperature machinery: fixed points, exact self-tuned laws,
deviation bounds, and the two dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_fields_bit_equal, deviation_bound_check_oracle, exact_mu_n_oracle,
    exact_mu_prime_oracle, naive_mu_prime_oracle, philox, prob_of_oracle,
    two_timescale_oracle,
)
from soc_ising import (
    EPS_T,
    DeviationReport,
    FeedbackParams,
    SocTrajectory,
    SpinConfig,
    T_CRITICAL,
    build_box,
    deviation_bound_check,
    edge_closing_price,
    exact_mu_n,
    exact_mu_prime,
    fixed_point,
    heat_bath_sweep,
    naive_mu_prime_dynamics,
    p_critical,
    theta_asymptotic,
    two_timescale_dynamics,
)
from soc_ising import ising
from soc_ising.soc import _PROPOSAL_BLOCK, _acceptance_table, _draw_proposals


def test_feedback_params_ranges():
    fp = FeedbackParams(a=1.95)
    assert fp.valid_conditional_range
    assert not FeedbackParams(a=2.0).valid_conditional_range
    assert not FeedbackParams(a=1.9).valid_conditional_range
    # the theorem range 81/41 < a < 2 is strictly narrower
    assert not FeedbackParams(a=81.0 / 41.0).valid_theorem_range
    assert FeedbackParams(a=1.98).valid_theorem_range
    assert abs(fp.rho - 0.975) < 1e-14
    assert abs(FeedbackParams(a=1.94).rho - 0.98) < 1e-12
    with pytest.raises(ValueError):
        FeedbackParams(a=-1.0)


@pytest.mark.parametrize("a", [0.0, math.nan, math.inf, -math.inf])
def test_feedback_params_reject_non_finite_or_non_positive(a):
    with pytest.raises(ValueError, match="finite"):
        FeedbackParams(a=a)


def test_fixed_point_frozen_oracle_values():
    # independently computed from the defining formula at a = 1.8
    fp = fixed_point(100, 1.8)
    assert abs(fp.b_prime - 3798.037095242593) < 1e-9
    assert fp.b_n == 3798
    assert abs(fp.p_n - 0.888914536014417) < 1e-12
    assert abs(fp.t_star - 0.9101436026487265) < 1e-12
    fp = fixed_point(1000, 1.8)
    assert abs(fp.b_prime - 374465.16313774633) < 1e-7
    assert fp.b_n == 374464
    assert abs(fp.p_n - 0.5934028245544117) < 1e-12
    fp = fixed_point(10000, 1.8)
    assert abs(fp.b_prime - 23868285.593353055) < 1e-5
    assert fp.b_n == 23868284
    assert abs(fp.p_n - 0.5859777442634642) < 1e-12


@pytest.mark.parametrize("n", [100, 315, 1000, 10000])
def test_fixed_point_parity_matches_square(n):
    fp = fixed_point(n, 1.8)
    assert (fp.b_n - n * n) % 2 == 0
    assert fp.b_n <= fp.b_prime < fp.b_n + 2


def test_fixed_point_asymptotics_at_reachable_exponent():
    # the three asymptotic clauses hold far inside the domain of definition
    pc = p_critical(2.0)
    for n in (1000, 10000):
        fp = fixed_point(n, 1.8)
        delta = 3.0 ** 8 * pc / (8.0 * n ** (16 - 8 * 1.8))
        assert 0.95 < (fp.p_n - pc) / delta < 1.05
        assert 0.98 < fp.b_n / (n ** 1.8 * math.sqrt(T_CRITICAL)) < 1.01
        theta = theta_asymptotic(fp.p_n)
        assert 0.95 < theta * n * n / (3.0 * n ** 1.8) < 1.05


def test_fixed_point_domain_is_empty_near_a_2():
    # at a = 1.99 the defining logarithm leaves (0, 1) for every
    # simulable n; the error names the threshold
    with pytest.raises(ValueError, match="needs n >"):
        fixed_point(10 ** 4, 1.99)
    with pytest.raises(ValueError):
        fixed_point(10 ** 6, 1.99)
    # at a = 1.8 the threshold is ~82, so n = 10 fails and n = 100 works
    with pytest.raises(ValueError):
        fixed_point(10, 1.8)
    fixed_point(100, 1.8)


def test_theta_asymptotic():
    pc = p_critical(2.0)
    assert theta_asymptotic(pc) == 0.0
    assert abs(theta_asymptotic(0.7) - 1.057142526812691) < 1e-14
    assert theta_asymptotic(1.0) == (8.0 * (1.0 / pc - 1.0)) ** 0.125
    with pytest.raises(ValueError):
        theta_asymptotic(pc - 1e-6)


@pytest.mark.parametrize("p", [math.nan, math.inf, 1.0 + 1e-12, -math.inf])
def test_theta_asymptotic_refuses_p_outside_pc_to_1(p):
    with pytest.raises(ValueError, match=r"\[p_c, 1\]"):
        theta_asymptotic(p)


@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_fixed_point_refuses_exponent_before_solving(a):
    # the exponent check comes first, so nan never reaches the threshold
    # message ("needs n > nan")
    with pytest.raises(ValueError, match="exponent a must be finite"):
        fixed_point(10, a)


def test_edge_closing_price():
    assert abs(edge_closing_price(10, 0.3, 2) - 1.1111111111111113e-05) < 1e-18
    assert edge_closing_price(10, 0.3, 0) == 1.0
    assert edge_closing_price(5, 0.9, 1) == pytest.approx(0.1 / (3 * 0.9 * 25))
    with pytest.raises(ValueError):
        edge_closing_price(10, 0.0, 1)
    with pytest.raises(ValueError):
        edge_closing_price(10, 0.5, -1)


def test_exact_mu_n_trivial_boxes():
    # side 1 and 2 have no free spins: the law is a point mass and the
    # partition identity is exact
    for n in (1, 2):
        mu = exact_mu_n(n, 1.99)
        assert len(mu.probs) == 1
        assert abs(mu.probs[0] - 1.0) < 1e-15
        assert abs(mu.z_direct - 1.0) < 1e-15
        assert abs(mu.z_rewrite - 1.0) < 1e-12


def test_exact_mu_n_hand_oracle_n3():
    mu = exact_mu_n(3, 1.99)
    assert abs(mu.z_direct - 0.9996034027185691) < 1e-12
    g = build_box(3)
    from soc_ising import zero_temperature_config
    assert abs(mu.prob_of(zero_temperature_config(g))
               - 0.9999975919488557) < 1e-12
    assert abs(mu.probs.sum() - 1.0) < 1e-12
    # temperatures recorded per configuration are the feedback values
    assert np.allclose(mu.temps, mu.mags.astype(float) ** 2 / 3.0 ** 3.98)


@pytest.mark.parametrize("a", [1.8, 1.98, 1.99])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partition_identity(n, a):
    mu = exact_mu_n(n, a)
    assert abs(mu.z_direct - mu.z_rewrite) < 1e-12 * max(1.0, mu.z_direct)


def test_exact_mu_prime_hand_oracle_n3():
    mu = exact_mu_prime(3, 1.99)
    assert abs(mu.probs.sum() - 1.0) < 1e-12
    idx = int(np.flatnonzero(mu.mags == 9)[0])
    assert abs(mu.probs[idx] - 0.9948860957409982) < 1e-12


@pytest.mark.parametrize("a", [1.8, 1.94, 1.99])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_mu_laws_equal_oracles(n, a):
    assert_fields_bit_equal(exact_mu_n(n, a), exact_mu_n_oracle(n, a))
    assert_fields_bit_equal(exact_mu_prime(n, a), exact_mu_prime_oracle(n, a))


@pytest.mark.parametrize("exact", [exact_mu_n, exact_mu_prime])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_mu_prob_of_reads_every_row(n, exact):
    g = build_box(n)
    mu = exact(g, 1.94)
    for row, p in zip(mu.spins, mu.probs):
        assert mu.prob_of(SpinConfig(g, row)) == p
        assert prob_of_oracle(mu.spins, mu.probs, row) == p
    bad = SpinConfig.all_plus(g)
    bad.flip(0)  # a corner is a boundary site
    assert mu.prob_of(bad) == prob_of_oracle(mu.spins, mu.probs, bad) == 0.0


# eps = 3.0 puts T_c - eps below 0, where the lower inequality is empty
@pytest.mark.parametrize("eps", [0.1, 0.5, 3.0])
@pytest.mark.parametrize("a", [1.8, 1.94, 1.99])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_deviation_bound_check_equals_oracle(n, a, eps):
    assert_fields_bit_equal(deviation_bound_check(n, a, eps),
                            deviation_bound_check_oracle(n, a, eps))


def test_deviation_bound_check_enumerates_the_plus_table_once(monkeypatch):
    calls = []
    enumerate_plus_configs = ising.enumerate_plus_configs

    def counted(g):
        calls.append(g.n)
        return enumerate_plus_configs(g)

    monkeypatch.setattr(ising, "enumerate_plus_configs", counted)
    deviation_bound_check(4, 1.94, 0.1)
    assert calls == [4]


def test_mu_and_mu_prime_differ():
    mu = exact_mu_n(4, 1.99)
    mup = exact_mu_prime(4, 1.99)
    assert np.abs(mu.probs - mup.probs).max() > 1e-4


@pytest.mark.parametrize("a", [1.98, 1.99])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_deviation_bounds_hold(n, a):
    for eps in (0.1, 0.5):
        rep = deviation_bound_check(n, a, eps)
        assert isinstance(rep, DeviationReport)
        assert rep.holds_above
        assert rep.holds_below


@pytest.mark.parametrize("a", [math.nan, math.inf])
def test_exact_laws_and_dynamics_refuse_non_finite_exponent(a):
    calls = [
        lambda: exact_mu_n(3, a),
        lambda: exact_mu_prime(3, a),
        lambda: deviation_bound_check(3, a, 0.1),
        lambda: two_timescale_dynamics(5, a, 2, 4, philox(0)),
        lambda: naive_mu_prime_dynamics(5, a, 3, philox(0)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="exponent a must be finite"):
            call()


def test_deviation_bound_check_refuses_nan_eps():
    with pytest.raises(ValueError, match="eps"):
        deviation_bound_check(3, 1.9, math.nan)


def test_trajectory_validates_steps():
    with pytest.raises(ValueError):
        SocTrajectory(
            n=4, a=1.99, tau=2, variant="two-timescale",
            steps=np.array([2, 2]), temps=np.zeros(2), mags=np.zeros(2),
            flips=np.zeros(2), floor_used=np.zeros(2, dtype=bool),
        )


def test_trajectory_statistics_of_a_constant_series_are_exact():
    k = 38
    t = 1.013959479790029
    temps = np.concatenate([np.zeros(12), np.full(k, t)])
    traj = SocTrajectory(
        n=2, a=1.99, tau=1, variant="mu-prime-naive",
        steps=np.arange(1, k + 13), temps=temps, mags=np.zeros(k + 12),
        flips=np.zeros(k + 12), floor_used=np.zeros(k + 12, dtype=bool),
        burn_in=12,
    )
    # numpy's plain mean of the 38 equal values is 1.0139594797900295
    assert traj.mean_temperature() == t
    assert traj.temperature_std() == 0.0
    # a varying series keeps its statistics up to rounding
    traj.temps = philox(3).random(50)
    assert traj.mean_temperature() == pytest.approx(traj.kept().mean(), rel=1e-15)
    assert traj.temperature_std() == pytest.approx(traj.kept().std(), rel=1e-14)


def test_two_timescale_reproducible_and_consistent():
    t1 = two_timescale_dynamics(8, 1.99, 4, 400, philox(5))
    t2 = two_timescale_dynamics(8, 1.99, 4, 400, philox(5))
    assert np.array_equal(t1.temps, t2.temps)
    assert np.array_equal(t1.mags, t2.mags)
    assert len(t1.steps) == 100
    assert t1.steps[0] == 4 and t1.steps[-1] == 400
    # the recorded temperature is the feedback value of the recorded
    # magnetization (except where the zero floor kicked in)
    expect = t1.mags.astype(float) ** 2 / 8.0 ** (2 * 1.99)
    free = ~t1.floor_used
    assert np.allclose(t1.temps[free], expect[free])
    assert (t1.temps[t1.floor_used] == EPS_T).all()
    assert t1.burn_in == 25
    # the self-tuned temperature can never exceed n^(4-2a)
    assert (t1.temps <= 8.0 ** (4 - 2 * 1.99) + 1e-12).all()


def test_two_timescale_snapshots():
    traj = two_timescale_dynamics(6, 1.99, 4, 80, philox(8), snapshot_every=5)
    assert traj.m_ns is not None
    taken = traj.m_ns >= 0
    assert np.flatnonzero(taken).tolist() == [4, 9, 14, 19]
    assert (traj.m_ns[taken] <= 36).all()


# the last entry lists the records that land on m = 0 and take EPS_T
@pytest.mark.parametrize("n, a, tau, total, seed, snapshot_every, floored", [
    pytest.param(n, 1.99, 3, 90, 60 + n, k, [], id=f"{k}-{n}")
    for k in (0, 1, 3) for n in (1, 2, 3, 4, 6, 8)
] + [pytest.param(12, 1.0, 1, 4000, 3, 0, [533, 2715, 3561], id="floor"),
      # windows of 4 + 4 + 1 sweeps per draw block, spins stored at snapshots
      pytest.param(129, 1.8, 9, 36, 129, 2, [], id="blocks-129"),
      # spins stored between single-sweep windows
      pytest.param(32, 1.7, 1, 300, 32, 7, [], id="store-32")])
def test_two_timescale_equals_copy_and_compare_oracle(n, a, tau, total, seed,
                                                      snapshot_every, floored):
    rng_got, rng_want = philox(seed), philox(seed)
    got = two_timescale_dynamics(n, a, tau, total, rng_got,
                                 snapshot_every=snapshot_every)
    want = two_timescale_oracle(n, a, tau, total, rng_want,
                                snapshot_every=snapshot_every)
    arrays = (got.steps, got.temps, got.mags, got.flips, got.floor_used,
              got.m_ns)
    for name, g_arr, w_arr in zip(
            ("steps", "temps", "mags", "flips", "floor_used", "m_ns"),
            arrays, want):
        assert g_arr.dtype == w_arr.dtype, name
        assert np.array_equal(g_arr, w_arr), name
    assert rng_got.random() == rng_want.random()
    assert np.flatnonzero(got.floor_used).tolist() == floored
    assert (got.temps[got.floor_used] == EPS_T).all()
    assert (got.mags[got.floor_used] == 0).all()


def _generator_pair(kind, seed, buffered=False):
    """Two equal Generators on Philox key [seed, 0], or on PCG64 or MT19937
    seeded with seed; buffered, each holds a 32-bit half in its buffer."""
    pair = []
    for _ in range(2):
        rng = (philox(seed) if kind == "Philox"
               else np.random.Generator(getattr(np.random, kind)(seed)))
        if buffered:
            rng.integers(0, 2)
        pair.append(rng)
    return pair


def _assert_naive_matches_oracle(n, a, total, seed, accounted, kind="Philox",
                                 buffered=False):
    rng_got, rng_want = _generator_pair(kind, seed, buffered)
    got = naive_mu_prime_dynamics(n, a, total, rng_got,
                                  account_for_T_change=accounted)
    temps, mags, flips = naive_mu_prime_oracle(n, a, total, rng_want,
                                               account_for_T_change=accounted)
    assert np.array_equal(got.steps, np.arange(1, total + 1))
    for name, g_arr, w_arr in (("temps", got.temps, temps),
                               ("mags", got.mags, mags),
                               ("flips", got.flips, flips)):
        assert g_arr.dtype == w_arr.dtype, name
        assert np.array_equal(g_arr, w_arr), name
    assert got.steps.dtype == np.int64 and got.floor_used.dtype == bool
    assert repr(rng_got.bit_generator.state) == repr(rng_want.bit_generator.state)
    assert rng_got.random() == rng_want.random()
    return got


def _naive_total(n):
    """300 sweeps, or at sides 16 and 33 two sweeps more than three blocks
    of draws hold."""
    if n in (16, 33):
        return 3 * (_PROPOSAL_BLOCK // (n - 2) ** 2) + 2
    return 300


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 16, 33])
@pytest.mark.parametrize("a", [0.5, 1.5, 1.94, 1.99])
@pytest.mark.parametrize("accounted", [True, False])
def test_naive_dynamics_equals_numpy_oracle(n, a, accounted):
    got = _assert_naive_matches_oracle(n, a, _naive_total(n), 70 + n,
                                       accounted)
    # side 3 rarely leaves all-plus in 300 sweeps; larger sides must move
    assert n < 4 or got.flips.sum() > 0


# a sweep of 4,096 (side 66) or 4,225 (side 67) proposals fills a draw
# block by itself; at side 67 the scalar stretch reaches its cap in it
@pytest.mark.parametrize("n", [66, 67])
@pytest.mark.parametrize("a", [0.5, 1.99])
@pytest.mark.parametrize("total", [2, 3, 4])
@pytest.mark.parametrize("accounted", [True, False])
def test_naive_dynamics_equals_oracle_at_one_sweep_per_block(n, a, total,
                                                             accounted):
    _assert_naive_matches_oracle(n, a, total, 90 + n, accounted)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       a=st.sampled_from([0.5, 1.5, 1.8, 1.94, 1.99]) | st.floats(0.2, 2.2),
       total=st.integers(1, 100), accounted=st.booleans())
def test_naive_dynamics_equals_oracle_on_random_settings(n, seed, a, total,
                                                         accounted):
    _assert_naive_matches_oracle(n, a, total, seed, accounted)


def _redraws(halves, ni):
    """Whether numpy's bounded draw below ni rejects one of these
    half-words."""
    return bool((halves * np.uint32(ni) < (1 << 32) % ni).any())


@pytest.mark.parametrize("kind", ["Philox", "PCG64", "MT19937"])
@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("ni, sweeps, seed", [
    (1, 5, 1),  # side 3: one site draws no picks
    (36, 7, 36),  # side 8: an even count never carries a half
    (49, 7, 49),  # side 9: every other sweep carries one
    (4225, 2, 67),  # side 67, larger than a block
    (4225, 2, 833),  # Philox key [833, 0] redraws a pick in the first block
])
def test_draw_proposals_equal_per_sweep_draws(kind, buffered, ni, sweeps,
                                              seed):
    rng_got, rng_want = _generator_pair(kind, seed, buffered)
    if kind == "Philox" and ni > 1:
        halves = philox(seed).bit_generator.random_raw(ni).view(np.uint32)
        assert _redraws(halves[buffered:ni + buffered], ni) == (seed == 833)
    for _ in range(3):  # each block starts from the state the last one left
        picks, us = _draw_proposals(rng_got, sweeps, ni)
        assert picks.dtype == np.int32 and us.dtype == np.float64
        for r in range(sweeps):
            assert np.array_equal(picks[r], rng_want.integers(
                0, ni, size=ni, dtype=np.int32))
            assert np.array_equal(us[r], rng_want.random(ni))
        assert (repr(rng_got.bit_generator.state)
                == repr(rng_want.bit_generator.state))


@pytest.mark.parametrize("kind", ["Philox", "PCG64", "MT19937"])
@pytest.mark.parametrize("n, total", [(3, 300), (9, 300), (67, 3)])
@pytest.mark.parametrize("buffered", [False, True])
def test_naive_dynamics_equals_oracle_on_any_bit_generator(kind, n, total,
                                                           buffered):
    _assert_naive_matches_oracle(n, 1.5, total, 50 + n, True, kind, buffered)


@pytest.mark.parametrize("accounted", [True, False])
def test_naive_dynamics_equals_oracle_through_a_redrawn_pick(accounted):
    # Philox key [833, 0] redraws one of the first sweep's picks at side 67
    ni = 65 ** 2
    halves = philox(833).bit_generator.random_raw(ni).view(np.uint32)
    assert _redraws(halves[:ni], ni)
    _assert_naive_matches_oracle(67, 1.99, 2, 833, accounted)


def _acceptance_oracle(h, m, n2a, accounted, s, q):
    """The scalar loop's verdict on flipping spin s with q plus neighbours
    in the frozen state (h, m), as a threshold: 2.0 for always, -1.0 for
    never (m' = 0), else exp(log_acc)."""
    dh = 2 * s * (2 * q - 4)
    m_new = m - 2 * s
    if m_new == 0:
        return -1.0
    t = m * m / n2a
    if accounted:
        log_acc = h / t - (h + dh) / (m_new * m_new / n2a)
    else:
        log_acc = -dh / t
    return 2.0 if log_acc >= 0 else math.exp(log_acc)


@pytest.mark.parametrize("accounted", [True, False])
def test_acceptance_table_equals_the_scalar_expression(accounted):
    # random frozen states of random boxes: h within +-E, m of the parity
    # of n^2 and never 0, except that every tenth state has m = +-2, where
    # one spin's flip would reach m' = 0
    rng = philox(29, int(accounted))
    kinds = set()
    for i in range(2000):
        n = int(rng.integers(3, 40))
        n2a = float(n) ** (2 * float(rng.uniform(0.2, 2.2)))
        h = int(rng.integers(-2 * n * (n - 1), 2 * n * (n - 1) + 1))
        m = int(rng.choice([-2, 2])) if i % 10 == 0 else 0
        while m == 0:
            m = n * n - 2 * int(rng.integers(0, n * n + 1))
        thr = _acceptance_table(h, m, n2a, accounted)
        assert thr.shape == (10,)
        for s in (-1, 1):
            for q in range(5):
                want = _acceptance_oracle(h, m, n2a, accounted, s, q)
                assert thr[5 * (s > 0) + q] == want, (h, m, n2a, s, q)
                kinds.add(want if want in (-1.0, 2.0) else "exp")
    assert kinds == {-1.0, 2.0, "exp"}


@pytest.mark.parametrize("ni", [1, 2, 3, 36, 37, 196, 3844])
@pytest.mark.parametrize("buffered", [False, True])
def test_int32_picks_equal_int64_picks(ni, buffered):
    # the chain draws its picks as int32: the same values, and the same
    # generator state after the call, including a buffered 32-bit half
    rng32, rng64 = philox(ni), philox(ni)
    if buffered:
        rng32.integers(0, 2)
        rng64.integers(0, 2)
    assert rng32.bit_generator.state["has_uint32"] == int(buffered)
    for _ in range(3):
        got = rng32.integers(0, ni, size=ni, dtype=np.int32)
        want = rng64.integers(0, ni, size=ni)
        assert got.dtype == np.int32 and want.dtype == np.int64
        assert np.array_equal(got, want)
        s32, s64 = rng32.bit_generator.state, rng64.bit_generator.state
        assert (s32["has_uint32"], s32["uinteger"]) == (s64["has_uint32"],
                                                        s64["uinteger"])
        assert repr(s32) == repr(s64)
    assert rng32.random() == rng64.random()


@pytest.mark.parametrize("n", [1, 2])
def test_naive_dynamics_without_interior_reports_variant_and_burn_in(n):
    for accounted, variant in ((True, "mu-prime"), (False, "mu-prime-naive")):
        rng = philox(80 + n)
        traj = naive_mu_prime_dynamics(n, 1.99, 40, rng,
                                       account_for_T_change=accounted)
        assert traj.variant == variant
        assert traj.burn_in == 10
        assert (traj.mags == n * n).all() and (traj.flips == 0).all()
        assert rng.random() == philox(80 + n).random()  # nothing drawn
        assert naive_mu_prime_dynamics(n, 1.99, 40, rng, burn_in=3).burn_in == 3


@pytest.mark.parametrize("run", [
    lambda rng: two_timescale_dynamics(6, 1.99, 4, 40, rng, burn_in=-3),
    lambda rng: naive_mu_prime_dynamics(6, 1.99, 40, rng, burn_in=-3),
], ids=["two-timescale", "mu-prime"])
def test_negative_burn_in_is_refused_before_any_draw(run):
    # -3 would keep only the last 3 records
    rng = philox(5)
    with pytest.raises(ValueError, match="burn_in"):
        run(rng)
    assert rng.random() == philox(5).random()


@pytest.mark.parametrize("run, name", [
    (lambda rng: two_timescale_dynamics(6, 1.99, 4, -1, rng), "total"),
    (lambda rng: two_timescale_dynamics(6, 1.99, 4, 10.0, rng), "total"),
    (lambda rng: two_timescale_dynamics(6, 1.99, 2.5, 40, rng), "tau"),
    (lambda rng: two_timescale_dynamics(6, 1.99, 0, 40, rng), "tau"),
    (lambda rng: two_timescale_dynamics(6, 1.99, 4, 40, rng,
                                        snapshot_every=-1), "snapshot_every"),
    (lambda rng: two_timescale_dynamics(6, 1.99, 4, 40, rng,
                                        snapshot_every=2.0), "snapshot_every"),
    (lambda rng: two_timescale_dynamics(6, 1.99, 4, 40, rng,
                                        burn_in=2.5), "burn_in"),
    (lambda rng: naive_mu_prime_dynamics(6, 1.99, -1, rng), "total"),
    (lambda rng: naive_mu_prime_dynamics(6, 1.99, 10.0, rng), "total"),
    (lambda rng: heat_bath_sweep(SpinConfig.all_plus(build_box(6)), 1.0, rng,
                                 2.5), "sweeps"),
    (lambda rng: heat_bath_sweep(SpinConfig.all_plus(build_box(6)), 1.0, rng,
                                 0), "sweeps"),
], ids=["total-neg", "total-float", "tau-float", "tau-0", "snapshot-neg",
        "snapshot-float", "burn-in-float", "mu-prime-total-neg",
        "mu-prime-total-float", "sweeps-float", "sweeps-0"])
def test_dynamics_refuse_bad_counts_before_any_draw(run, name):
    # a count that is not an integer, or out of range, is named in the error
    rng = philox(5)
    with pytest.raises(ValueError, match=name):
        run(rng)
    assert rng.random() == philox(5).random()


def test_naive_dynamics_targets_mu_prime_exactly():
    # side 3 has two reachable states; the long-run frequencies of the
    # accounted chain must match the two-state law computed by hand:
    # P(all-plus) = 1 / (1 + exp(4/T(7) - 12/T(9)))
    a = 1.99
    t9 = 81.0 / 3.0 ** (2 * a)
    t7 = 49.0 / 3.0 ** (2 * a)
    p_plus = 1.0 / (1.0 + math.exp(4.0 / t7 - 12.0 / t9))
    traj = naive_mu_prime_dynamics(3, a, 40000, philox(13), burn_in=1000)
    freq_plus = float((traj.mags[1000:] == 9).mean())
    assert abs(freq_plus - p_plus) < 0.01
    assert traj.variant == "mu-prime"


@pytest.mark.parametrize("a", [1.5, 1.99])
@pytest.mark.parametrize("n", [8, 9, 10])
def test_accounted_chain_keeps_the_sign_of_m_on_even_sides(n, a):
    # a flip moves m by 2 and a move to m = 0 is refused: from all-plus an
    # even side reaches m = 2 and stops there, while side 9 crosses to m < 0
    # and stays there for about the 0.2222 of the sweeps that exact mu' puts
    # on m < 0
    for seed in range(5):
        mags = naive_mu_prime_dynamics(n, a, 5000, philox(seed)).mags
        if n % 2:
            assert abs((mags < 0).mean() - 0.2222) < 0.05
        else:
            assert mags.min() == 2


def test_naive_dynamics_unaccounted_variant_differs():
    t_acc = naive_mu_prime_dynamics(5, 1.99, 4000, philox(21))
    t_naive = naive_mu_prime_dynamics(5, 1.99, 4000, philox(21),
                                      account_for_T_change=False)
    assert t_naive.variant == "mu-prime-naive"
    # dropping the normalization term visibly changes where the chain sits
    assert abs(t_acc.mean_temperature() - t_naive.mean_temperature()) > 0.05


def test_temperature_spread_shrinks_with_box_size():
    # green companion to the concentration trend: the post-burn-in std of
    # the feedback temperature decreases in n even at sizes where the
    # temperature itself cannot reach the critical window
    stds = []
    for i, n in enumerate((8, 16, 32)):
        traj = two_timescale_dynamics(n, 1.99, 32, 50_000, philox(900 + i))
        stds.append(traj.temperature_std())
    assert stds[0] > stds[1] > stds[2]


def test_self_organization_where_the_cap_allows_it():
    # at a = 1.7, n = 32 the cap n^(4-2a) = 8 is far above T_c, yet with
    # a per-sweep refresh the chain finds the critical temperature on its
    # own and hovers there (slow refreshes overshoot instead: a block
    # long enough to re-equilibrate turns the feedback into a relaxation
    # oscillator between the cap and near zero)
    traj = two_timescale_dynamics(32, 1.7, 1, 100_000, philox(950))
    mean_t = traj.mean_temperature()
    assert T_CRITICAL - 0.35 <= mean_t <= T_CRITICAL + 0.35
    assert traj.temperature_std() < 1.0
