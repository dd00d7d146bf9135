"""The self-tuning model: exact law on tiny boxes, deviation inequalities,
feedback dynamics, and the fixed-point sequence.

The model replaces the temperature with the feedback T(sigma) =
m(sigma)^2 / n^(2a), so each configuration is weighted by the plus-boundary
Gibbs law evaluated at its own temperature.  On boxes of side <= 4 the law
is small enough to enumerate, which gives exact oracles for the dynamics
and for the two deviation inequalities that control T away from the
critical temperature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .lattice import BoxGeometry, _checked_index, as_box
from .ising import (
    SpinConfig, T_CRITICAL, PlusTable, _SweepWork, _logsumexp, _row_prob,
    plus_table,
)
from .fk import p_critical, decompose
from .coupling import es_ising_to_fk

# temperature floor substituted when a refresh lands on m = 0
EPS_T = 1e-6


@dataclass
class FeedbackParams:
    """Feedback exponent a with its admissible ranges and the rate exponent
    rho = max(a/2, 33/2 - 8a)."""

    a: float
    valid_theorem_range: bool = field(init=False)
    valid_conditional_range: bool = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"exponent a must be finite and > 0, got {self.a!r}")
        self.valid_theorem_range = 81.0 / 41.0 < self.a < 2.0
        self.valid_conditional_range = 31.0 / 16.0 < self.a < 2.0
        self.rho = max(self.a / 2.0, 33.0 / 2.0 - 8.0 * self.a)


def feedback_temperature(config: SpinConfig, a: float) -> float:
    """Self-tuned temperature m(sigma)^2 / n^(2a)."""
    FeedbackParams(a)  # refuses a nan, infinite or non-positive exponent
    m = config.magnetization()
    return (m * m) / float(config.g.n) ** (2.0 * a)


def phi_n(b: int, n: int, a: float) -> float:
    """Bond density fed back from magnetization level b: the density of the
    coupling at temperature b^2 / n^(2a).  b = 0 gives density 1."""
    if b < 0:
        raise ValueError("magnetization level must be >= 0")
    FeedbackParams(a)  # refuses a nan, infinite or non-positive exponent
    if b == 0:
        return 1.0
    return -math.expm1(-2.0 * float(n) ** (2 * a) / (float(b) * float(b)))


@dataclass
class FixedPoint:
    """The magnetization level b_n targeted by the feedback, its bond
    density p_n = phi_n(b_n) and temperature T* = b_n^2 / n^(2a)."""

    n: int
    a: float
    b_prime: float
    b_n: int
    p_n: float
    t_star: float


def fixed_point(n: int, a: float) -> FixedPoint:
    """Solve the self-consistency b = n^a sqrt(2) [-ln(1 - p_c - delta_n)]^(-1/2)
    with delta_n = 3^8 p_c / (8 n^(16-8a)), then round b down to the parity
    of n^2.

    Defined only when delta_n < 1 - p_c, which for a near 2 requires
    astronomically large n; the error message reports the threshold.
    """
    FeedbackParams(a)  # refuses a nan, infinite or non-positive exponent
    if n < 1:
        raise ValueError("side must be >= 1")
    pc = p_critical(2.0)
    delta = (3.0 ** 8) * pc / (8.0 * float(n) ** (16.0 - 8.0 * a))
    arg = 1.0 - pc - delta
    if not 0.0 < arg < 1.0:
        need = ((3.0 ** 8) * pc / (8.0 * (1.0 - pc))) ** (1.0 / (16.0 - 8.0 * a))
        raise ValueError(
            f"log argument {arg:.6g} outside (0, 1): at a = {a} the fixed point "
            f"needs n > {need:.4g}, got n = {n}"
        )
    b_prime = float(n) ** a * math.sqrt(2.0) / math.sqrt(-math.log(arg))
    b_n = math.floor(b_prime)
    if (b_n - n * n) % 2 != 0:
        b_n -= 1
    return FixedPoint(n=n, a=a, b_prime=b_prime, b_n=b_n, p_n=phi_n(b_n, n, a), t_star=float(b_n) ** 2 / float(n) ** (2 * a))


def theta_asymptotic(p: float) -> float:
    """Near-critical surrogate [8(p/p_c - 1)]^(1/8) for the spontaneous
    magnetization of the bond density p; exact only as p -> p_c from above."""
    pc = p_critical(2.0)
    if not pc <= p <= 1.0:
        raise ValueError("p must be in [p_c, 1], p_c the self-dual point")
    return (8.0 * (p / pc - 1.0)) ** 0.125


def edge_closing_price(n: int, p: float, N: int) -> float:
    """Lower-bound factor [min(p, 1-p) / (3 p n^2)]^N for forcing N chosen
    edges shut; contextualizes the cost of a surgery of N closures."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if N < 0:
        raise ValueError("N must be >= 0")
    return (min(p, 1.0 - p) / (3.0 * p * n * n)) ** N


@dataclass
class ExactMuN:
    """Exact self-tuned law on a tiny box: one row per plus-boundary spin
    configuration, with the partition sum computed two ways (directly, and
    as the sum over magnetization levels b of the probability of m = b at
    the level's own temperature)."""

    g: BoxGeometry = field(repr=False)
    a: float
    spins: np.ndarray = field(repr=False)
    mags: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    temps: np.ndarray = field(repr=False)
    probs: np.ndarray = field(repr=False)
    z_direct: float
    z_rewrite: float

    def prob_of(self, config) -> float:
        """Probability of a SpinConfig or raw spin array (0 off support)."""
        return _row_prob(self.spins, self.probs, config)


def _mu_front(g: BoxGeometry | int, a: float) -> tuple[BoxGeometry, PlusTable, float, np.ndarray]:
    """Set-up shared by the exact self-tuned laws: the box (side <= 4), its
    plus table, n^(2a), and each row's temperature m^2 / n^(2a)."""
    FeedbackParams(a)  # refuses a nan, infinite or non-positive exponent
    g = as_box(g)
    if g.n > 4:
        raise ValueError("exact self-tuned law limited to side <= 4")
    table = plus_table(g)
    mags = table.magnetizations
    # with a plus boundary on side <= 4 the magnetization never vanishes
    assert (mags != 0).all()
    n2a = float(g.n) ** (2 * a)
    return g, table, n2a, (mags.astype(float) ** 2) / n2a


def exact_mu_n(g: BoxGeometry | int, a: float) -> ExactMuN:
    """Enumerate the self-tuned law on a box of side <= 4."""
    g, table, n2a, temps = _mu_front(g, a)
    mags = table.magnetizations
    ms = mags.tolist()
    # the table's log Gibbs law at each level's temperature m^2 / n^(2a)
    laws = {b2 / n2a: table.log_gibbs(b2 / n2a)[0] for b2 in {m * m for m in ms}}
    weights = np.exp([laws[m * m / n2a][i] for i, m in enumerate(ms)])
    z_direct = float(weights.sum())

    z_rewrite = 0.0
    for b in sorted(set(ms)):
        z_rewrite += float(np.exp(_logsumexp(laws[b * b / n2a][mags == b])))

    return ExactMuN(
        g=g, a=a, spins=table.spins, mags=mags, energies=table.energies,
        temps=temps, probs=weights / z_direct, z_direct=z_direct,
        z_rewrite=z_rewrite,
    )


def exact_mu_prime(g: BoxGeometry | int, a: float) -> ExactMuN:
    """Enumerate the unnormalized-weight variant exp(-H(sigma)/T(sigma)) on
    a box of side <= 4.  The z_rewrite field repeats z_direct (no level
    decomposition applies)."""
    g, table, n2a, temps = _mu_front(g, a)
    mags = table.magnetizations
    log_w = -table.energies * n2a / mags.astype(float) ** 2
    log_z = _logsumexp(log_w)
    return ExactMuN(
        g=g, a=a, spins=table.spins, mags=mags, energies=table.energies,
        temps=temps, probs=np.exp(log_w - log_z), z_direct=math.exp(log_z),
        z_rewrite=math.exp(log_z),
    )


@dataclass
class DeviationReport:
    """Both sides of the two deviation inequalities bounding how often the
    feedback temperature sits away from the critical one."""

    n: int
    a: float
    eps: float
    z_n: float
    lhs_above: float
    rhs_above: float
    lhs_below: float
    rhs_below: float
    grid_above: np.ndarray = field(repr=False)
    grid_below: np.ndarray = field(repr=False)

    @property
    def holds_above(self) -> bool:
        return self.lhs_above <= self.rhs_above + 1e-12

    @property
    def holds_below(self) -> bool:
        return self.lhs_below <= self.rhs_below + 1e-12


def _plus_mag_tail(table: PlusTable, t: float, lo: float | None, hi: float | None) -> float:
    """mu+ probability that |m| >= lo (and/or <= hi) at temperature t."""
    am = np.abs(table.magnetizations)
    if t == 0:
        probs = (table.energies == table.energies.min()).astype(float)
        probs /= probs.sum()
    else:
        probs = np.exp(table.log_gibbs(t)[0])
    keep = np.ones(len(am), dtype=bool)
    if lo is not None:
        keep &= am >= lo
    if hi is not None:
        keep &= am <= hi
    return float(probs[keep].sum())


def _deviation_side(mu: ExactMuN, table: PlusTable, t_end: float, above: bool
                    ) -> tuple[float, float, list[float]]:
    """One deviation inequality, for T >= t_end (above) or T <= t_end:
    mu_n's mass on that side, the bound (n^2 + 1) / Z_n times the largest
    mu+ tail of |m| beyond n^a sqrt(t_end) over the side's temperature
    grid, and the grid."""
    n = mu.g.n
    nsq = n * n
    n2a = float(n) ** (2 * mu.a)
    side = np.greater_equal if above else np.less_equal
    thr = float(n) ** mu.a * math.sqrt(t_end)
    lhs = float(mu.probs[side(mu.temps, t_end)].sum())
    grid = [b * b / n2a for b in range(nsq + 1) if side(b * b / n2a, t_end)]
    grid.append(t_end)
    lo, hi = (thr, None) if above else (None, thr)
    rhs = (nsq + 1) / mu.z_direct * max(_plus_mag_tail(table, t, lo, hi) for t in grid)
    return lhs, rhs, grid


def deviation_bound_check(g: BoxGeometry | int, a: float, eps: float) -> DeviationReport:
    """Evaluate both deviation inequalities exactly on a box of side <= 4.

    The supremum over temperatures is exact: the only temperatures that can
    carry probability are b^2 / n^(2a) for integer levels b, so the grid is
    those values (restricted to the relevant side of T_c) together with the
    interval endpoint.  The mu+ tails read mu_n's own rows.
    """
    g = as_box(g)
    if g.n > 4:
        raise ValueError("deviation check limited to side <= 4")
    if not eps > 0:
        raise ValueError("eps must be positive")
    mu = exact_mu_n(g, a)
    table = PlusTable(mu.spins, mu.energies, mu.mags)
    lhs_above, rhs_above, grid_above = _deviation_side(mu, table, T_CRITICAL + eps, True)
    t_lo = T_CRITICAL - eps
    lhs_below, rhs_below, grid_below = (
        _deviation_side(mu, table, t_lo, False) if t_lo >= 0 else (0.0, 0.0, []))
    return DeviationReport(
        n=g.n, a=a, eps=eps, z_n=mu.z_direct,
        lhs_above=lhs_above, rhs_above=rhs_above,
        lhs_below=lhs_below, rhs_below=rhs_below,
        grid_above=np.array(grid_above), grid_below=np.array(grid_below),
    )


@dataclass
class SocTrajectory:
    """Recorded refresh points of a feedback dynamics run."""

    n: int
    a: float
    tau: int
    variant: str
    steps: np.ndarray = field(repr=False)
    temps: np.ndarray = field(repr=False)
    mags: np.ndarray = field(repr=False)
    flips: np.ndarray = field(repr=False)
    floor_used: np.ndarray = field(repr=False)
    burn_in: int = 0
    m_ns: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.steps) > 1 and not (np.diff(self.steps) > 0).all():
            raise ValueError("record steps must be strictly increasing")

    def kept(self) -> np.ndarray:
        return self.temps[self.burn_in:]

    # offsets from the first kept value: a constant series gives it and 0.0
    # exactly; t[:1] (not t[0]) leaves an empty series at NaN
    def mean_temperature(self) -> float:
        t = self.kept()
        return float(t[:1].sum() + (t - t[:1]).mean())

    def temperature_std(self) -> float:
        t = self.kept()
        return float((t - t[:1]).std())


def two_timescale_dynamics(
    g: BoxGeometry | int,
    a: float,
    tau: int,
    total: int,
    rng: np.random.Generator,
    burn_in: int | None = None,
    snapshot_every: int = 0,
) -> SocTrajectory:
    """Feedback dynamics on the slow schedule: tau spin sweeps at the
    current frozen temperature, then a refresh T <- m^2 / n^(2a) from the
    instantaneous magnetization.  A refresh from m = 0 substitutes the
    floor EPS_T and flags the record.  Records one row per refresh; by
    default the first quarter of the records is marked as burn-in, and a
    negative burn_in is refused.

    With snapshot_every = k > 0, every k-th record additionally draws a
    bond configuration coupled to the current spins at the refreshed
    temperature and stores its boundary-cluster vertex count; other rows
    store -1.  Snapshots consume randomness, so the trajectory depends on
    k (but is still a pure function of the arguments and the rng state).

    The spins live in one `_SweepWork` for the run, loaded once; each
    window draws and sweeps as `heat_bath_sweep(config, t, rng, tau)`
    would, m is read from the slots, and the spins are written back only
    for the snapshots.  tau (>= 1), total and snapshot_every (>= 0) must
    be integers."""
    FeedbackParams(a)  # refuses a nan, infinite or non-positive exponent
    g = as_box(g)
    tau = _checked_index(tau, "tau", 1)
    total = _checked_index(total, "total", 0)
    snapshot_every = _checked_index(snapshot_every, "snapshot_every", 0)
    n_rec = total // tau
    # a negative burn-in would keep only the last records
    burn_in = n_rec // 4 if burn_in is None else _checked_index(burn_in, "burn_in", 0)
    config = SpinConfig.all_plus(g)
    t = feedback_temperature(config, a)
    scale = float(g.n) ** (2.0 * a)
    steps = np.empty(n_rec, dtype=np.int64)
    temps = np.empty(n_rec, dtype=np.float64)
    mags = np.empty(n_rec, dtype=np.int64)
    flips = np.empty(n_rec, dtype=np.int64)
    floored = np.zeros(n_rec, dtype=bool)
    m_ns = np.full(n_rec, -1, dtype=np.int64)
    work = _SweepWork(g.n, tau)
    work.load(config.spins)
    # pad slots hold 1, so m = 2 (plus slots - pad slots) - n^2
    m_off = g.n * g.n - 2 * work.plus.size
    for r in range(n_rec):
        nflip = work.sweep(t, rng, tau)
        m = 2 * int(np.count_nonzero(work.plus)) + m_off
        t = (m * m) / scale  # feedback_temperature, from the m in hand
        if t == 0.0:
            t = EPS_T
            floored[r] = True
        steps[r] = (r + 1) * tau
        temps[r] = t
        mags[r] = m
        flips[r] = nflip
        if snapshot_every > 0 and (r + 1) % snapshot_every == 0:
            work.store(config.spins)
            omega = es_ising_to_fk(config, t, rng)
            m_ns[r] = decompose(omega).m_count
    return SocTrajectory(
        n=g.n, a=a, tau=tau, variant="two-timescale",
        steps=steps, temps=temps, mags=mags, flips=flips, floor_used=floored,
        burn_in=burn_in, m_ns=m_ns,
    )


# proposals per block of draws, or one sweep where a sweep holds more: at
# 2^12 proposals the block's raw words, picks and uniforms take about 100 KB
# and decoding them as much again
_PROPOSAL_BLOCK = 1 << 12
# proposals the screen tests at a time; larger windows made temporaries
# that raised a run's peak memory
_SCREEN_WINDOW = 1024
# first stretch of proposals the scalar loop takes after a screened
# acceptance; each stretch that flips doubles it, up to the maximum that
# bounds the lists a stretch converts, and one that flips nothing hands
# back to the screen
_SCALAR_STRETCH = 16
_SCALAR_STRETCH_MAX = 1 << 12


def _acceptance_table(h: int, m: int, n2a: float, accounted: bool) -> np.ndarray:
    """Thresholds of the frozen state (h, m): a proposal at a spin s with
    neighbour sum `local` is accepted exactly when its uniform u satisfies
    u < thr[5 (s + 1) + local + 4].

    Each entry is the scalar loop's own expression and `math.exp`; 2.0
    stands for log_acc >= 0 (always accepted) and -1.0 for m' = 0 (never).
    Odd slots are unused."""
    thr = np.full(19, -1.0)
    t = m * m / n2a
    for s in (-1, 1):
        m_new = m - 2 * s
        if m_new == 0:
            continue
        for local in (-4, -2, 0, 2, 4):
            dh = 2 * s * local
            if accounted:
                log_acc = h / t - (h + dh) / (m_new * m_new / n2a)
            else:
                log_acc = -dh / t
            thr[5 * (s + 1) + local + 4] = (
                2.0 if log_acc >= 0 else math.exp(log_acc))
    return thr


def _first_acceptance(us: np.ndarray, picks: np.ndarray, site_thr: np.ndarray,
                      pos: int, end: int) -> int:
    """Index of the first proposal in [pos, end) whose uniform falls below
    its site's threshold, or end.

    The scalar loop tests the proposal found here again, so the screen
    must never pass over an acceptance; stopping early would cost time
    only."""
    while pos < end:
        stop = min(pos + _SCREEN_WINDOW, end)
        hit = np.flatnonzero(us[pos:stop] < site_thr.take(picks[pos:stop]))
        if hit.size:
            return pos + int(hit[0])
        pos = stop
    return end


def _draw_proposals(rng: np.random.Generator, sweeps: int, ni: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """The picks and uniforms of `sweeps` sweeps of ni proposals, as
    (sweeps, ni) int32 and float64 arrays: value for value, and in the
    generator state they leave, those of drawing per sweep
    `rng.integers(0, ni, ni, dtype=np.int32)` and then `rng.random(ni)`.

    On Philox the block is one `random_raw` call, decoded as numpy draws
    (Lemire, ACM TOMACS 29(1), 2019).  A pick takes a 32-bit half-word x,
    low half first, and is (x ni) >> 32 unless (x ni) mod 2^32 <
    2^32 mod ni, where numpy draws again.  An unused high half waits in
    the generator's `has_uint32`/`uinteger` buffer, across the `random`
    call too, and `uinteger` keeps it after it is used.  A uniform is
    (word >> 11) 2^-53.  A block that meets such a redraw, and every block
    of another bit generator, is drawn again sweep by sweep from the state
    it started in.  One site (ni = 1) draws no picks.
    """
    picks = np.zeros((sweeps, ni), dtype=np.int32)
    if ni == 1:
        return picks, rng.random((sweeps, ni))
    bg = rng.bit_generator
    if isinstance(bg, np.random.Philox) and sys.byteorder == "little":
        start = bg.state
        # has[r]: a half is buffered as sweep r starts; an odd ni flips it
        has = np.full(sweeps, start["has_uint32"], dtype=np.int64)
        if ni & 1:
            has ^= np.arange(sweeps) & 1
        words = (ni - has + 1) // 2 + ni  # pick words, then uniform words
        first = np.cumsum(words) - words
        uni = first + words - ni  # each sweep's first uniform word
        raw = bg.random_raw(int(uni[-1]) + ni)
        halves = raw.view(np.uint32)
        # fresh halves from the sweep's first word on; a buffered first pick
        # is the high half of the sweep before's last pick word, or the
        # generator's before the first sweep
        at = (2 * first - has)[:, None] + np.arange(ni)
        at[1:, 0] = np.where(has[1:], 2 * uni[:-1] - 1, at[1:, 0])
        x = halves[at].astype(np.uint64)
        if has[0]:
            x[0, 0] = start["uinteger"]
        x *= ni
        if not (x.astype(np.uint32) < (1 << 32) % ni).any():
            x >>= 32
            picks[...] = x
            del x
            np.add(uni[:, None], np.arange(ni), out=at)
            us = raw[at]
            us >>= 11
            us = us * 2.0 ** -53
            end = bg.state
            end["has_uint32"] = int(ni - has[-1]) & 1
            end["uinteger"] = int(halves[2 * uni[-1] - 1])
            bg.state = end
            return picks, us
        bg.state = start
    us = np.empty((sweeps, ni))
    for r in range(sweeps):
        picks[r] = rng.integers(0, ni, size=ni, dtype=np.int32)
        rng.random(out=us[r])
    return picks, us


def metropolis_records(g: BoxGeometry, n2a: float, total: int,
                       rng: np.random.Generator, accounted: bool
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Run `total` sweeps of the chain from all-plus and return each sweep's
    final magnetization and flip count (int64); n2a is n^(2a).

    Blocks of at most 2^12 proposals (at least one sweep) are drawn ahead,
    each as one block of raw words where the generator allows it
    (`_draw_proposals`).  Between two flips the state (H, m) is frozen, so a
    proposal's fate depends only on its spin, its neighbour sum and its
    uniform: the screen builds the state's 10 exact thresholds
    (`_acceptance_table`) and skips every rejection up to the next
    acceptance.  From there a scalar loop runs the proposals one by one,
    counts each flip in its sweep and keeps the m after the sweep's last
    flip, and hands back to the screen after a stretch that flips nothing."""
    n = g.n
    interior = g.interior_ids
    ni = interior.size
    m0 = m = n * n
    h = -g.n_edges
    # plain Python lists: per-element numpy indexing would dominate the loop
    spins = [1] * (n * n)
    sites = interior.tolist()
    nbrs = g.neighbors[interior].tolist()
    # spin + 1 per site, read in place by the screen
    plus1 = bytearray([2]) * (n * n)
    grid = np.frombuffer(plus1, dtype=np.uint8).reshape(n, n)
    # per sweep: its flip count and the m after its last flip, 0 if none
    flips, m_end = [0] * total, [0] * total
    exp = math.exp
    t = m * m / n2a
    per_block = max(1, _PROPOSAL_BLOCK // ni) if ni else 0
    done = 0
    while ni and done < total:
        nb = min(per_block, total - done)
        picks, us = _draw_proposals(rng, nb, ni)
        picks, us = picks.ravel(), us.ravel()
        base, end, pos = done * ni, nb * ni, 0
        while pos < end:
            # 5 (s + 1) + local + 4 per interior site, in slot order
            code = grid[1:-1, 1:-1] * 5
            code += grid[:-2, 1:-1]
            code += grid[2:, 1:-1]
            code += grid[1:-1, :-2]
            code += grid[1:-1, 2:]
            thr = _acceptance_table(h, m, n2a, accounted)
            pos = _first_acceptance(us, picks, thr.take(code.ravel()),
                                    pos, end)
            stretch = _SCALAR_STRETCH
            while pos < end:
                stop = min(pos + stretch, end)
                flipped = False
                for j, k, u in zip(range(base + pos, base + stop),
                                   picks[pos:stop].tolist(),
                                   us[pos:stop].tolist()):
                    v = sites[k]
                    s = spins[v]
                    v0, v1, v2, v3 = nbrs[k]
                    local = spins[v0] + spins[v1] + spins[v2] + spins[v3]
                    dh = 2 * s * local
                    m_new = m - 2 * s
                    if m_new == 0:
                        continue  # zero-weight target state
                    # the expression _acceptance_table tabulates, inline
                    # because it runs once per proposal; t = m^2 / n^(2a)
                    # changes only with a flip
                    if accounted:
                        log_acc = h / t - (h + dh) / (m_new * m_new / n2a)
                    else:
                        log_acc = -dh / t
                    if log_acc >= 0 or u < exp(log_acc):
                        spins[v] = -s
                        plus1[v] = 1 - s
                        m = m_new
                        t = m * m / n2a
                        h += dh
                        sw = j // ni
                        flips[sw] += 1
                        m_end[sw] = m
                        flipped = True
                pos = stop
                if not flipped:
                    break
                stretch = min(2 * stretch, _SCALAR_STRETCH_MAX)
        done += nb
    # a sweep with no flip (m = 0 is never reached) keeps the m before it
    m = m0
    for r, m_r in enumerate(m_end):
        m = m_end[r] = m_r or m
    return np.array(m_end, dtype=np.int64), np.array(flips, dtype=np.int64)


def naive_mu_prime_dynamics(
    g: BoxGeometry | int,
    a: float,
    total: int,
    rng: np.random.Generator,
    account_for_T_change: bool = True,
    burn_in: int | None = None,
) -> SocTrajectory:
    """Single-flip Metropolis chain for the weight exp(-H(sigma)/T(sigma)),
    from all-plus.  One sweep is one proposal per interior site; records one
    row per sweep.

    With account_for_T_change the acceptance uses the full difference
    H'/T' - H/T.  A flip moves m by 2 and a proposal to m = 0 (weight zero)
    is always refused, so on even sides the chain keeps the sign of m that it
    starts with: it samples that law given m > 0.  This differs from the law
    itself only on even sides >= 8, since no configuration has m <= 0 at
    sides <= 6; on odd sides m never vanishes and the chain targets the law.
    Without account_for_T_change the flip is judged by Delta H / T at the
    current temperature only, the variant whose self-organization the
    model's construction does not guarantee.

    Each sweep takes its picks and then its uniforms as one
    `rng.integers(0, ni, ni)` call (int32, the same values and generator
    state as int64) and one `rng.random(ni)` call would draw them.  On a
    Philox generator a block of sweeps is one raw draw, decoded into
    exactly those values and that state (`_draw_proposals`); other bit
    generators make the two calls per sweep.  The output is that of running
    every proposal in turn, draw for draw; `metropolis_records` says how it
    skips the rejections.  A negative burn_in is refused.
    """
    FeedbackParams(a)  # refuses a nan, infinite or non-positive exponent
    g = as_box(g)
    total = _checked_index(total, "total", 0)
    burn_in = total // 4 if burn_in is None else _checked_index(burn_in, "burn_in", 0)
    n2a = float(g.n) ** (2 * a)
    mags, flips = metropolis_records(g, n2a, total, rng, account_for_T_change)
    return SocTrajectory(
        n=g.n, a=a, tau=1, variant="mu-prime" if account_for_T_change else "mu-prime-naive",
        steps=np.arange(1, total + 1, dtype=np.int64), temps=mags * mags / n2a,
        mags=mags, flips=flips, floor_used=np.zeros(total, dtype=bool),
        burn_in=burn_in,
    )
