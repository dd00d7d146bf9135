"""Release gate: one test per acceptance criterion, in order.

Two criteria cannot pass at desk scale and are left failing on purpose
rather than weakened:

  * test_05: the supercritical density equation behind fixed_point is
    solvable only for astronomically large boxes when a = 1.99 (the
    threshold is near n = 2e38), so evaluating it at n = 10^4 raises,
    and that error is the honest report.
  * test_08: the mean-temperature clause.  The feedback temperature is
    capped at n^(4-2a); at n = 64, a = 1.99 that cap is about 1.087,
    far below the target band around 2.269.  The variance trend, which
    is the part the dynamics can show at these sizes, is asserted first
    and does hold.
"""

import math
import time
from fractions import Fraction

import numpy as np

from helpers import philox
from soc_ising import (
    BondConfig,
    EventParams,
    FKParams,
    T_CRITICAL,
    bernoulli_bonds,
    build_box,
    build_config,
    close_edges,
    decompose,
    deviation_bound_check,
    dual_parameter,
    duality_check,
    es_pushforward_check,
    exact_fk_distribution,
    exact_mu_n,
    fixed_point,
    p_critical,
    run,
    sample_chain,
    sign_compensation_probability,
    single_bond_conditional,
    surgery,
    tail_statistics,
    theta_asymptotic,
    two_timescale_dynamics,
    visit_counts,
)


def test_01_coupling_pushforward_exact():
    start = time.perf_counter()
    for t in (0.5, 1.0, T_CRITICAL, 3.0, 6.0):
        spin_err, bond_err = es_pushforward_check(3, t)
        assert spin_err <= 1e-10, f"T={t}: spin marginal off by {spin_err}"
        assert bond_err <= 1e-10, f"T={t}: bond marginal off by {bond_err}"
    assert time.perf_counter() - start < 5.0


def test_02_duality_pushforward_exact():
    start = time.perf_counter()
    for q in (1.0, 2.0):
        for p in (0.3, p_critical(q), 0.8):
            err = duality_check(3, p, q)
            assert err <= 1e-10, f"q={q}, p={p}: pushforward off by {err}"
            back = dual_parameter(dual_parameter(p, q), q)
            assert abs(back - p) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_03_partition_identity_and_deviation_bounds():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        g = build_box(n)
        for a in (1.98, 1.99):
            mu = exact_mu_n(g, a)
            assert abs(mu.z_direct - mu.z_rewrite) <= 1e-10
            for eps in (0.05, 0.1, 0.25, 0.5):
                rep = deviation_bound_check(g, a, eps)
                assert rep.holds_above, f"n={n}, a={a}, eps={eps}"
                assert rep.holds_below, f"n={n}, a={a}, eps={eps}"
    assert time.perf_counter() - start < 60.0


def test_04_samplers_reach_exact_law():
    g = build_box(2)
    steps = 10 ** 6
    for bc in (0, 1):
        params = FKParams(p=0.6, q=2.0, bc=bc)
        dist = exact_fk_distribution(g, params)
        # empirical occupation vs the exact law, both samplers
        for i, method in enumerate(("sw", "single-bond")):
            counts = visit_counts(BondConfig.all_open(g), params, steps,
                                  philox(400 + 10 * bc + i), method=method)
            tv = 0.5 * float(np.abs(counts / steps - dist.probs).sum())
            assert tv <= 0.01, f"bc={bc}, {method}: TV={tv:.5f}"
        # per-edge heat-bath detailed balance, exactly
        for mask in range(1 << g.n_edges):
            for e in range(g.n_edges):
                if mask & (1 << e):
                    continue
                omega = BondConfig.from_bitmask(g, mask)
                c = single_bond_conditional(omega, e, params)
                pi0 = float(dist.probs[mask])
                pi1 = float(dist.probs[mask | (1 << e)])
                assert abs(pi0 * c - pi1 * (1.0 - c)) <= 1e-12


def test_05_fixed_point_asymptotics():
    # Expected to fail for now: at a = 1.99 the density equation has no
    # solution until n exceeds roughly 2e38, so this call raises.  The
    # assertions below state the contract the fixed point must satisfy
    # wherever it exists.
    n, a = 10 ** 4, 1.99
    start = time.perf_counter()
    fp = fixed_point(n, a)
    assert fp.b_n % 2 == (n * n) % 2
    ratio = fp.b_n / (float(n) ** a * math.sqrt(T_CRITICAL))
    assert 0.99 <= ratio <= 1.01
    pc = p_critical(2.0)
    gap_scale = 3.0 ** 8 * pc / (8.0 * float(n) ** (16.0 - 8.0 * a))
    assert 0.95 <= (fp.p_n - pc) / gap_scale <= 1.05
    dens = theta_asymptotic(fp.p_n) * n * n / (3.0 * float(n) ** a)
    assert 0.95 <= dens <= 1.05
    assert time.perf_counter() - start < 1.0


def test_06_surgery_reaches_exact_target_on_wired_samples():
    start = time.perf_counter()
    g = build_box(30)
    fk_params = FKParams(p=0.7, q=2.0, bc=1)
    rng = philox(606)
    omega0 = bernoulli_bonds(g, 0.7, rng)
    samples = sample_chain(omega0, fk_params, 220, 100, 2, rng, method="sw")
    ev = EventParams(n=30, a=1.95)
    skip_stages = {"target-above-count", "annulus-precondition",
                   "greedy-precondition"}
    eligible = 0
    budgets = []
    for omega, dec in samples:
        m = dec.m_count
        b = int(0.8 * m)
        if (m + b) % 2:
            b -= 1
        res = surgery(omega, b, ev)
        if res.stage in skip_stages:
            continue
        eligible += 1
        target = (m + b + 1) // 2
        assert res.success, f"stage={res.stage}"
        assert res.m_after == target == res.target
        # clusters not reaching the boundary are exactly preserved
        before = set(dec.interior_clusters())
        after = set(decompose(close_edges(omega, res.h)).interior_clusters())
        assert before <= after
        assert res.c0_sizes.size <= res.h.size + 1
        budgets.append(res.budget_used)
    assert eligible >= 200, f"only {eligible} samples passed preconditions"
    k_fit = max(budgets)
    print(f"fitted edge budget constant: K = {k_fit:.4f} "
          f"(|H| <= K n^(a/2), {eligible} eligible samples)")
    assert k_fit > 0
    assert time.perf_counter() - start < 120.0


def test_07_sign_compensation_matches_brute_force():
    start = time.perf_counter()
    rng = philox(707)
    odd_seen = 0
    for _ in range(500):
        k = int(rng.integers(1, 21))
        hi = 6 if k <= 10 else 3
        sizes = [int(s) for s in rng.integers(1, hi + 1, size=k)]
        got = sign_compensation_probability(sizes)
        sums = np.zeros(1, dtype=np.int64)
        for s in sizes:
            sums = np.concatenate([sums + s, sums - s])
        want = Fraction(int((sums == 0).sum()), 2 ** k)
        assert got == want, f"sizes={sizes}"
        if sum(sizes) % 2:
            odd_seen += 1
            assert got == Fraction(0)
    assert odd_seen > 0
    assert time.perf_counter() - start < 60.0


def test_08_soc_concentration_trend():
    start = time.perf_counter()
    a, tau, total = 1.99, 32, 200_000
    stats = {}
    for i, n in enumerate((16, 32, 64)):
        traj = two_timescale_dynamics(n, a, tau, total, philox(808 + i))
        stats[n] = (traj.mean_temperature(), traj.temperature_std())
    assert time.perf_counter() - start < 1800.0
    stds = [stats[n][1] for n in (16, 32, 64)]
    assert stds[0] > stds[1] > stds[2], f"stds not decreasing: {stds}"
    # Expected to fail for now: the feedback temperature cannot exceed
    # n^(4-2a) = 64^0.02 ~ 1.087 at this size, so the time average cannot
    # reach the band around T_CRITICAL ~ 2.269 however long the run.
    mean64 = stats[64][0]
    assert T_CRITICAL - 0.35 <= mean64 <= T_CRITICAL + 0.35, (
        f"mean post-burn-in T at n=64 is {mean64:.4f}; the feedback cap "
        f"at this size is {64.0 ** (4 - 2 * a):.4f}"
    )


def test_09_subcritical_tail_decay_rate_positive():
    start = time.perf_counter()
    g = build_box(64)
    params = FKParams(p=0.4, q=2.0, bc=0)
    rng = philox(909)
    omega0 = bernoulli_bonds(g, 0.4, rng)
    samples = sample_chain(omega0, params, 2000, 200, 2, rng, method="sw")
    v = g.vertex_id(0, 0)
    sizes = [dec.cluster_size_of(v) for _, dec in samples]
    fit = tail_statistics(sizes)
    assert fit.n_samples == 2000
    assert fit.psi_hat > 0
    assert fit.ci_low > 0, (
        f"95% CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}] must exclude 0"
    )
    assert time.perf_counter() - start < 600.0


def test_10_reruns_are_byte_identical(tmp_path):
    specs = [
        ("fk-sample", {"n": "12", "samples": "40", "burn_in": "50",
                       "seed": "5"}),
        ("soc-run", {"n": "12", "tau": "8", "total": "400", "seed": "5"}),
    ]
    for command, base in specs:
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{command}-{tag}"
            cfg = build_config(command, overrides=dict(base, out=str(out)))
            run(cfg)
            blobs.append((out / "rows.csv").read_bytes())
        assert blobs[0] == blobs[1], f"{command}: rows differ between reruns"
