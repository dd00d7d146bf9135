"""Plus-boundary Ising law: exact enumeration, dynamics, feedback map."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logsumexp

from helpers import (
    FixedDraws, assert_fields_bit_equal, exact_ising_distribution_oracle,
    heat_bath_sweep_oracle, philox, prob_of_oracle,
)
from soc_ising import (
    SpinConfig,
    T_CRITICAL,
    build_box,
    conditional_plus_probability,
    exact_ising_distribution,
    feedback_temperature,
    hamiltonian,
    heat_bath_sweep,
    two_timescale_dynamics,
    zero_temperature_config,
)
from soc_ising import ising, soc
from soc_ising.ising import (
    IsingParams, _SweepWork, _logsumexp, enumerate_plus_configs,
    heat_bath_table, plus_table,
)
from soc_ising.soc import EPS_T

SWEEP_TEMPS = [EPS_T, 0.5, 1.0, T_CRITICAL, 100.0]
# the smallest subnormal and a huge T: 2h/T overflows to +-inf, or rounds
# every table entry to 0.5
EXTREME_TEMPS = [5e-324, 1e300]


def test_critical_temperature_value():
    assert abs(T_CRITICAL - 2.269185314213022) < 1e-14
    assert abs(math.exp(2.0 / T_CRITICAL) - (1.0 + math.sqrt(2.0))) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError):
        IsingParams(n=0, t=1.0)
    with pytest.raises(ValueError):
        IsingParams(n=3, t=-0.5)
    for n in (2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="n must be an integer"):
            IsingParams(n=n, t=1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_ising_params_reject_non_finite_t(t):
    with pytest.raises(ValueError, match="finite"):
        IsingParams(n=3, t=t)


def test_temperature_functions_refuse_nan():
    # nan fails each bound on T; T = inf keeps its limit (fair coin flips)
    config = SpinConfig.all_plus(build_box(5))
    with pytest.raises(ValueError, match="T > 0"):
        heat_bath_sweep(config, math.nan, philox(0))
    assert (config.spins == 1).all()
    with pytest.raises(ValueError, match="T > 0"):
        conditional_plus_probability(1.0, math.nan)
    assert conditional_plus_probability(1.0, math.inf) == 0.5
    with pytest.raises(ValueError, match=">= 0"):
        exact_ising_distribution(3, math.nan)


@pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
def test_feedback_temperature_refuses_non_finite_or_non_positive_exponent(a):
    config = SpinConfig.all_plus(build_box(3))
    with pytest.raises(ValueError, match="exponent a must be finite"):
        feedback_temperature(config, a)


def test_spin_config_tracks_magnetization():
    g = build_box(3)
    c = SpinConfig.all_plus(g)
    assert c.magnetization() == 9
    center = g.vertex_id(0, 0)
    c.flip(center)
    assert c.magnetization() == 7
    assert int(c.spins.sum()) == 7
    c.flip(center)
    assert c.magnetization() == 9
    with pytest.raises(ValueError):
        SpinConfig(g, np.zeros(9))


def test_hamiltonian_hand_values():
    g = build_box(3)
    c = SpinConfig.all_plus(g)
    assert hamiltonian(c) == -12.0
    c.flip(g.vertex_id(0, 0))
    # the flipped center disagrees with its 4 neighbors: -(8 - 4)
    assert hamiltonian(c) == -4.0
    # breaking the boundary condition costs infinity
    c2 = SpinConfig.all_plus(g)
    c2.flip(g.vertex_id(1, 1))
    assert hamiltonian(c2) == math.inf


def test_feedback_temperature_values():
    g = build_box(3)
    c = SpinConfig.all_plus(g)
    assert abs(feedback_temperature(c, 1.99) - 1.022215413278477) < 1e-14
    c.flip(g.vertex_id(0, 0))  # m = 7
    assert abs(feedback_temperature(c, 1.99) - 49.0 / 3.0 ** 3.98) < 1e-14


def test_enumerate_plus_configs_shape():
    g = build_box(3)
    rows = enumerate_plus_configs(g)
    assert rows.shape == (2, 9)  # one free interior spin
    assert (rows[:, g.boundary_ids] == 1).all()
    g4 = build_box(4)
    assert enumerate_plus_configs(g4).shape == (16, 16)


def test_exact_distribution_n3_hand_oracle():
    # side 3 has a single free spin; at T = 2 the flipped-center state
    # carries weight e^{-8/2} relative to the ground state
    dist = exact_ising_distribution(3, 2.0)
    assert abs(dist.log_z - 6.0181499279178094) < 1e-12
    law = dist.magnetization_law()
    assert set(law) == {7, 9}
    assert abs(law[7] - 0.01798620996209156) < 1e-14
    assert abs(law[9] - (1.0 - 0.01798620996209156)) < 1e-14
    assert abs(dist.probs.sum() - 1.0) < 1e-14


def test_exact_distribution_zero_temperature():
    dist = exact_ising_distribution(3, 0.0)
    assert dist.probs.tolist() == [1.0]
    assert dist.magnetizations.tolist() == [9]
    assert dist.log_z == math.inf
    g = build_box(3)
    assert dist.prob_of(zero_temperature_config(g)) == 1.0


def test_partition_sum_is_finite_up_to_the_float_maximum():
    # log Z = 709.4 is below log(DBL_MAX) = 709.78, so Z is finite
    dist = exact_ising_distribution(5, 40 / 709.4)
    assert dist.log_z == 709.4
    assert dist.z == math.exp(709.4) == 1.2260423226426727e+308
    assert exact_ising_distribution(5, 40 / 720).z == math.inf


@pytest.mark.parametrize("t", [0.0, EPS_T, 0.5, T_CRITICAL, 100.0, 40 / 709.4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exact_distribution_equals_oracle(n, t):
    assert_fields_bit_equal(exact_ising_distribution(n, t),
                            exact_ising_distribution_oracle(n, t))


@pytest.mark.parametrize("t", [0.0, 1.5])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_prob_of_reads_every_plus_row(n, t):
    # at T = 0 every row but all-plus is off the support
    g = build_box(n)
    dist = exact_ising_distribution(g, t)
    for row in plus_table(g).spins:
        want = prob_of_oracle(dist.spins, dist.probs, row)
        assert dist.prob_of(SpinConfig(g, row)) == want
        assert dist.prob_of(row) == want
    assert sum(dist.prob_of(row) for row in plus_table(g).spins) == pytest.approx(1.0)


def test_prob_of_off_support_is_zero():
    dist = exact_ising_distribution(3, 1.5)
    g = build_box(3)
    bad = SpinConfig.all_plus(g)
    bad.flip(g.vertex_id(1, 0))  # boundary flip leaves the support
    zero_entry = np.ones(9, dtype=np.int8)
    zero_entry[g.vertex_id(1, 1)] = 0
    half = np.ones(9)
    half[g.vertex_id(1, 1)] = 0.5
    for config in (bad, np.ones(8, dtype=np.int8), np.ones(10, dtype=np.int8),
                   zero_entry, half):
        assert dist.prob_of(config) == 0.0
        assert prob_of_oracle(dist.spins, dist.probs, config) == 0.0
    # a float array holding a row's spins reads that row
    assert dist.prob_of(np.ones(9)) == dist.prob_of(zero_temperature_config(g)) > 0.0


def test_conditional_plus_probability():
    assert abs(conditional_plus_probability(0.0, 1.7) - 0.5) < 1e-15
    # h = 4, T = 2: sigmoid of 4
    assert abs(conditional_plus_probability(4.0, 2.0)
               - 1.0 / (1.0 + math.exp(-4.0))) < 1e-15
    with pytest.raises(ValueError):
        conditional_plus_probability(1.0, 0.0)


def test_sweep_rejects_zero_temperature():
    g = build_box(3)
    with pytest.raises(ValueError):
        heat_bath_sweep(SpinConfig.all_plus(g), 0.0, philox(1))


@pytest.mark.parametrize("t", SWEEP_TEMPS)
def test_heat_bath_table_is_the_conditional(t):
    # one entry per count k of plus neighbours, whose sum is h = 2k - 4
    table = heat_bath_table(t)
    assert table.shape == (5,)
    for k in range(5):
        assert table[k] == conditional_plus_probability(2 * k - 4, t)


# T grid from the feedback floor up, where 2h/T spans +-8e6 down to +-0.08
EXPIT_TEMPS = np.append(np.geomspace(EPS_T, 100.0, 2001), T_CRITICAL)


def test_table_and_conditional_equal_scipy_expit():
    for t in EXPIT_TEMPS:
        t = float(t)
        want = expit(2.0 * np.arange(-4, 5) / t)
        assert np.array_equal(heat_bath_table(t), want[::2]), t
        assert [conditional_plus_probability(h, t) for h in range(-4, 5)] \
            == want.tolist(), t


def test_heat_bath_table_is_read_only():
    table = heat_bath_table(1.0)
    with pytest.raises(ValueError):
        table[0] = 0.5
    assert heat_bath_table(1.0) is table  # the one cached array


def test_logsumexp_equals_scipy_on_random_arrays():
    rng = philox(5)
    for _ in range(2000):
        size = int(rng.integers(1, 200))
        a = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), size)
        if rng.random() < 0.5:
            a = np.round(a, int(rng.integers(0, 2)))  # ties, also at the max
        if rng.random() < 0.3:
            a[rng.random(size) < 0.3] = -np.inf
        if np.isneginf(a.max()):
            continue  # needs a finite maximum
        assert _logsumexp(a) == logsumexp(a), a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_logsumexp_equals_scipy_on_plus_tables(n):
    energies = plus_table(build_box(n)).energies
    for t in EXPIT_TEMPS[::20]:
        le = -energies / t
        assert _logsumexp(le) == logsumexp(le), t


def _random_interior(g, seed):
    config = SpinConfig.all_plus(g)
    config.spins[g.interior_ids] = philox(seed, 1).choice(
        np.array([-1, 1], dtype=np.int8), size=g.interior_ids.size)
    return config


def _assert_sweeps_match_oracle(start, t, rng_got, rng_want, sweeps=6,
                                window=1):
    """`sweeps` oracle sweeps against calls of `window` sweeps each."""
    got, want = start.copy(), start.copy()
    for done in range(0, sweeps, window):
        k = min(window, sweeps - done)
        oracle_flips = 0
        for _ in range(k):
            before = want.spins.copy()
            heat_bath_sweep_oracle(want, t, rng_want)
            oracle_flips += int((want.spins != before).sum())
        flips = heat_bath_sweep(got, t, rng_got, k)
        assert np.array_equal(got.spins, want.spins)
        assert flips == oracle_flips


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9, 16, 17, 31, 32, 33])
@pytest.mark.parametrize("t", SWEEP_TEMPS + EXTREME_TEMPS)
def test_sweep_equals_oracle_and_counts_its_flips(n, t):
    # sides 1 and 2 have no interior: each call returns 0 and draws nothing;
    # even sides carry a pad column in the sweep's layout, odd ones do not
    for window in (1, 3, 6):
        rng_got, rng_want = philox(40 + n), philox(40 + n)
        _assert_sweeps_match_oracle(_random_interior(build_box(n), n), t,
                                    rng_got, rng_want, window=window)
        assert rng_got.random() == rng_want.random()


@pytest.mark.parametrize("t", [0.5, T_CRITICAL] + EXTREME_TEMPS)
def test_window_spans_partial_draw_blocks(t):
    # at sides 128 and 129 a block holds 4 sweeps, so 9 sweeps draw 4 + 4 + 1
    for n in (128, 129):
        rng_got, rng_want = philox(n), philox(n)
        _assert_sweeps_match_oracle(_random_interior(build_box(n), n), t,
                                    rng_got, rng_want, sweeps=9, window=9)
        assert rng_got.random() == rng_want.random()


@settings(derandomize=True, deadline=None, max_examples=80)
@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1),
       t=st.sampled_from(SWEEP_TEMPS + EXTREME_TEMPS) | st.floats(0.01, 100.0),
       window=st.integers(1, 7), any_boundary=st.booleans())
def test_sweep_equals_oracle_on_random_boxes(n, seed, t, window, any_boundary):
    # a start with minus spins on the boundary too: they must stay put
    g = build_box(n)
    start = _random_interior(g, seed)
    if any_boundary:
        start.spins[:] = philox(seed, 2).choice(
            np.array([-1, 1], dtype=np.int8), size=n * n)
    rng_got, rng_want = philox(seed), philox(seed)
    _assert_sweeps_match_oracle(start, t, rng_got, rng_want, sweeps=window,
                                window=window)
    assert rng_got.random() == rng_want.random()


LAYOUT_SIDES = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 32, 33]


def _half(n):
    """Slots per colour class: half the cells of n rows of width w = n | 1."""
    return (n * (n | 1) + 1) // 2


def _slot_of(n, v):
    """The slot of site v = x n + y: cell q = x w + y of colour class q & 1."""
    q = v // n * (n | 1) + v % n
    return (q & 1) * _half(n) + q // 2


@pytest.mark.parametrize("n", LAYOUT_SIDES)
def test_sweep_layout_reads_each_interior_sites_neighbours(n):
    # sweep r writes class c into history row r + 1 from ranks row r, and
    # reads the other class in row r + c: class 1 as it was before the
    # sweep, class 0 as the sweep left it
    g = build_box(n)
    work = _SweepWork(n, 2)
    half = _half(n)
    assert work.plus.size == 2 * half
    assert len(set(_slot_of(n, np.arange(n * n)))) == n * n
    base, row = work.buf.ctypes.data, work.hist.strides[0]
    for r, step in enumerate(work.steps):
        spans = []
        for *nbrs, _, rank, out in step:
            out_row, lo = divmod(out.ctypes.data - base, row)
            assert out_row == r + 1 and rank.size == out.size
            assert (rank.ctypes.data - work.ranks.ctypes.data
                    == r * work.ranks.strides[0] + lo)
            reads = [divmod(s.ctypes.data - base, row) for s in nbrs]
            assert {read_row for read_row, _ in reads} == {r + lo // half}
            spans.append((lo, lo + out.size, [at - lo for _, at in reads]))
        for v in g.interior_ids:
            slot = _slot_of(n, v)
            (offsets,) = [offsets for lo, hi, offsets in spans
                          if lo <= slot < hi and slot // half == lo // half]
            # each neighbour view starts that many slots into its row
            assert (sorted(slot + d for d in offsets)
                    == sorted(_slot_of(n, g.neighbors[v]))), (r, v)


@pytest.mark.parametrize("n", LAYOUT_SIDES)
def test_sweep_layout_places_each_uniform_at_its_site(n):
    # uniforms go to the interior sites in visit order: even class, then
    # odd.  Every entry of `rank`, spare columns included, gets its own id
    # 1, 2, ..., copied one byte of the id at a time; a slot left at 0 in
    # every byte was not written
    g = build_box(n)
    work = _SweepWork(n, 3)
    visit = np.concatenate([g.interior_even, g.interior_odd])
    ids = 1 + np.arange(work.rank.size).reshape(work.rank.shape)
    got = np.zeros(work.ranks.shape, dtype=np.int64)
    for shift in (0, 8):
        work.rank[...] = ids >> shift & 255
        work.ranks[...] = 0
        for into, of in work.runs:
            into[...] = of
        got += work.ranks.astype(np.int64) << shift
    want = np.zeros_like(got)
    want[:, _slot_of(n, visit)] = ids[:, :work.n_int]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t", [100.0, EPS_T])
@pytest.mark.parametrize("n", [3, 4, 5, 16, 17])
def test_boundary_and_pad_slots_never_change(n, t):
    # every slot outside the interior, pad slots and minus boundary spins
    # included, keeps its value over a window.  With no colour classes to
    # copy, `load` keeps the random slots and gives every row their ranks
    g = build_box(n)
    work = _SweepWork(n, 7)
    plus = work.plus
    plus[:] = philox(n, 3).random(plus.size) < 0.5
    work.classes = []
    work.load(np.ones(n * n, dtype=np.int8))
    fixed = np.ones(plus.size, dtype=bool)
    fixed[_slot_of(n, g.interior_ids)] = False
    before = plus.copy()
    work.sweep(t, philox(n), 7)
    assert np.array_equal(plus[fixed], before[fixed])
    if t == 100.0:
        assert not np.array_equal(plus, before)


def test_workspace_rows_stop_at_one_draw_block():
    # 4 rows of 16,641 slot ranks, a full draw block at side 128
    work = _SweepWork(128, 9)
    assert work.rows == 4


@pytest.mark.parametrize("n,rows,sweeps", [(16, 2, 5), (3, 1, 5), (129, 9, 9),
                                           (16, 64, 200)])
def test_workspace_sweeps_past_its_rows_like_heat_bath_sweep(n, rows, sweeps):
    # a workspace with fewer rows than the sweeps asked for steps through
    # blocks of its own rows, and draws what one heat_bath_sweep call draws
    g = build_box(n)
    want, got = _random_interior(g, n), _random_interior(g, n)
    rng_want, rng_got = philox(n, 5), philox(n, 5)
    flips = heat_bath_sweep(want, 1.5, rng_want, sweeps)
    work = _SweepWork(n, rows)
    work.load(got.spins)
    assert work.sweep(1.5, rng_got, sweeps) == flips
    work.store(got.spins)
    assert np.array_equal(got.spins, want.spins)
    assert rng_got.random() == rng_want.random()


def test_feedback_run_builds_one_workspace(monkeypatch):
    # a side-128 run of 8 refresh windows sweeps in one workspace, without
    # a heat_bath_sweep call
    built = []

    class Counted(_SweepWork):
        def __init__(self, n, rows):
            built.append((n, rows))
            super().__init__(n, rows)

    def refused(*args):
        raise AssertionError("heat_bath_sweep called")

    monkeypatch.setattr(soc, "_SweepWork", Counted)
    monkeypatch.setattr(ising, "heat_bath_sweep", refused)
    assert not hasattr(soc, "heat_bath_sweep")
    traj = two_timescale_dynamics(128, 1.99, 4, 32, philox(12))
    assert traj.steps.size == 8
    assert built == [(128, 4)]


def test_concurrent_sweeps_at_one_side_match_sequential_ones():
    # each call builds its own workspace, so threads never write into one
    # another's buffers
    g = build_box(12)

    def run(seed, out):
        config, rng = _random_interior(g, seed), philox(seed)
        flips = [heat_bath_sweep(config, 1.5, rng, w) for w in (1, 3, 2, 5) * 30]
        out[seed] = flips, config.spins.copy()

    want, got = {}, {}
    for seed in range(6):
        run(seed, want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed, got))
                   for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in range(6):
        assert got[seed][0] == want[seed][0]
        assert np.array_equal(got[seed][1], want[seed][1])


def test_heat_bath_table_never_decreases():
    # the sweep's threshold ranks rest on this
    for t in np.concatenate([EXPIT_TEMPS, SWEEP_TEMPS, EXTREME_TEMPS]):
        assert (np.diff(heat_bath_table(float(t))) >= 0).all(), t


def test_sweep_rejects_fewer_than_one_sweep():
    c = SpinConfig.all_plus(build_box(4))
    with pytest.raises(ValueError):
        heat_bath_sweep(c, 1.0, philox(1), 0)


@pytest.mark.parametrize("t", SWEEP_TEMPS)
def test_sweep_draws_on_table_values(t):
    # every uniform sits exactly on a table entry or on a float neighbour
    # of one, where `u < p` and `u <= p` part
    g = build_box(6)
    table = heat_bath_table(t)
    for v in np.concatenate([table, np.nextafter(table, 0.0),
                             np.nextafter(table, 1.0)]):
        if not 0.0 <= v < 1.0:
            continue
        draws = np.full(6 * g.interior_ids.size, v)
        _assert_sweeps_match_oracle(_random_interior(g, 6), t,
                                    FixedDraws(draws), FixedDraws(draws),
                                    window=6)


def test_sweep_only_moves_interior_sites():
    g = build_box(4)
    c = SpinConfig.all_plus(g)
    rng = philox(11)
    saw_minus = False
    for _ in range(50):
        heat_bath_sweep(c, 100.0, rng)
        assert (c.spins[g.boundary_ids] == 1).all()
        saw_minus = saw_minus or (c.spins == -1).any()
    # at T = 100 the interior is nearly fair coin, so it must have moved
    assert saw_minus


def _sweep_kernel(g, t):
    """Exact one-sweep transition matrix on the interior states, built by
    composing the two checkerboard half-updates independently of the
    library's sampling code."""
    rows = enumerate_plus_configs(g)
    index = {r.tobytes(): i for i, r in enumerate(rows)}
    m = len(rows)

    def half_kernel(sites):
        K = np.zeros((m, m))
        for i, r in enumerate(rows):
            # each site of the color class resamples independently
            probs_plus = []
            for v in sites:
                h = int(r[g.neighbors[v]].sum())
                probs_plus.append(1.0 / (1.0 + math.exp(-2.0 * h / t)))
            for bits in range(1 << len(sites)):
                r2 = r.copy()
                w = 1.0
                for j, v in enumerate(sites):
                    up = (bits >> j) & 1
                    r2[v] = 1 if up else -1
                    w *= probs_plus[j] if up else 1.0 - probs_plus[j]
                K[i, index[r2.tobytes()]] += w
        return K

    K_even = half_kernel(list(g.interior_even))
    K_odd = half_kernel(list(g.interior_odd))
    return K_even @ K_odd


@pytest.mark.parametrize("t", [1.4, T_CRITICAL, 4.0])
def test_sweep_kernel_preserves_exact_law(t):
    g = build_box(4)
    dist = exact_ising_distribution(g, t)
    rows = enumerate_plus_configs(g)
    pi = np.array([dist.prob_of(r) for r in rows])
    P = _sweep_kernel(g, t)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(pi @ P - pi).max() < 1e-12


def test_sweep_matches_its_kernel_empirically():
    # the sampled sweep follows the same kernel it claims to implement
    g = build_box(4)
    t = 2.0
    rows = enumerate_plus_configs(g)
    index = {r.tobytes(): i for i, r in enumerate(rows)}
    P = _sweep_kernel(g, t)
    start = SpinConfig.all_plus(g)
    i0 = index[start.spins.tobytes()]
    counts = np.zeros(len(rows))
    rng = philox(202)
    trials = 40000
    for _ in range(trials):
        c = start.copy()
        heat_bath_sweep(c, t, rng)
        counts[index[c.spins.tobytes()]] += 1
    tv = 0.5 * np.abs(counts / trials - P[i0]).sum()
    assert tv < 0.02
