"""Ising model on the box with all-plus boundary condition.

Energy is the negative sum of products of nearest-neighbour spins; any
configuration violating the all-plus boundary gets energy +infinity (weight
zero at every temperature).  Temperature enters as 1/T directly; T = 0 is the
point mass on the all-plus configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import BoxGeometry, _checked_index, as_box

T_CRITICAL = 2.0 / math.log(1.0 + math.sqrt(2.0))


@dataclass
class IsingParams:
    """Box side and temperature for the plus-boundary model."""

    n: int
    t: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"temperature must be finite and >= 0, got "
                             f"{self.t!r}")


class SpinConfig:
    """Spin assignment (+1/-1 per vertex); the magnetization is summed on
    demand, so code may write `spins` directly."""

    __slots__ = ("g", "spins")

    def __init__(self, g: BoxGeometry, spins):
        spins = np.asarray(spins, dtype=np.int8)
        if spins.shape != (g.n * g.n,):
            raise ValueError("spin array has wrong length")
        if not np.all(np.abs(spins) == 1):
            raise ValueError("spins must be +1 or -1")
        self.g = g
        self.spins = spins

    @classmethod
    def all_plus(cls, g: BoxGeometry) -> "SpinConfig":
        return cls(g, np.ones(g.n * g.n, dtype=np.int8))

    def magnetization(self) -> int:
        return int(self.spins.sum())

    def flip(self, v: int) -> None:
        self.spins[v] = -self.spins[v]

    def copy(self) -> "SpinConfig":
        return SpinConfig(self.g, self.spins.copy())


def hamiltonian(config: SpinConfig) -> float:
    """Energy of a configuration; +inf when the boundary is not all plus."""
    g = config.g
    s = config.spins
    if not np.all(s[g.boundary_ids] == 1):
        return math.inf
    prod = s[g.edge_a].astype(np.int64) * s[g.edge_b]
    return float(-prod.sum())


def zero_temperature_config(g: BoxGeometry) -> SpinConfig:
    """The unique configuration carrying the T = 0 plus-boundary measure."""
    return SpinConfig.all_plus(g)


def _expit(x: float) -> float:
    """Logistic function 1 / (1 + e^-x), 0.0 where e^-x overflows; the C
    library exp keeps it equal to scipy.special.expit bit for bit."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float array whose maximum is finite.

    Follows scipy.special.logsumexp step for step, so the floats match it
    bit for bit: the maxima are taken out exactly, the rest is summed
    relative to them and divided by the tie count m, and the result is
    log1p(s) + log(m) + max.
    """
    a_max = a.max()
    top = a == a_max
    m = np.float64(np.count_nonzero(top))
    s = np.exp(np.where(top, -np.inf, a - a_max)).sum() / m
    return float(np.log1p(s) + np.log(m) + a_max)


def conditional_plus_probability(h: float, t: float) -> float:
    """Heat-bath probability of drawing +1 at a site whose neighbours sum to h."""
    if not t > 0:
        raise ValueError("heat-bath conditional needs T > 0")
    return _expit(2.0 * h / t)


@lru_cache(maxsize=1)
def heat_bath_table(t: float) -> np.ndarray:
    """`conditional_plus_probability(h, t)` for h = -4..4, at index h + 4.

    Cached for the last T (the feedback dynamics sweeps many times at one
    frozen temperature), so the array is read-only.
    """
    table = np.array([_expit(2.0 * h / t) for h in range(-4, 5)])
    table.flags.writeable = False
    return table


# uniforms drawn per block of sweeps, at most this many doubles (512 KB)
_DRAW_BLOCK = 1 << 16
# sweeps per block at most: each history row holds its own update views,
# about 1 KB of Python objects per colour class
_BLOCK_SWEEPS = 64


class _SweepWork:
    """The side-n box as the heat-bath sweep stores it, with the buffers for
    up to `rows` sweeps per draw block and the views of them that its inner
    loops read, built once.  `load` puts spins in, `sweep` runs any number
    of sweeps on them in place, and `store` writes them back out.

    Rows have the odd width w = n | 1 (one pad column when n is even), so
    grid site (x, y) sits at q = x w + y and its colour is q & 1.  Colour
    class c holds the slots q = 2i + c at index c * half + i, one byte each
    (1 for spin +1).  A class-0 slot i has its neighbours at class-1
    indices i - 1, i, i - (w+1)/2 and i + (w-1)/2; a class-1 slot i at
    class-0 indices i, i + 1, i - (w-1)/2 and i + (w+1)/2.

    The slots of a block are a history: row 0 of `hist` (`plus`) holds them
    as the block starts and row r + 1 after its sweep r.  Each entry of
    `updates` spans one class's slots, from its first interior site to its
    last, in every row, with the four neighbour slices over the rows;
    `steps[r]` holds sweep r's one-row views of them.  Pad slots hold 1.
    """

    def __init__(self, n: int, rows: int):
        w, half = n | 1, (n * (n | 1) + 1) // 2
        self.n_int = max(n - 2, 0) ** 2  # interior sites, so uniforms per sweep
        # sweeps per block of at most _DRAW_BLOCK uniforms and _BLOCK_SWEEPS
        # sweeps
        self.per_block = max(1, min(_DRAW_BLOCK // max(self.n_int, 1),
                                    _BLOCK_SWEEPS))
        self.rows = rows = min(rows, self.per_block)
        self.hist = np.ones((rows + 1, 2 * half), dtype=bool)
        self.plus = self.hist[0]  # the slots
        self.buf = buf = self.plus.view(np.uint8)
        hist8 = self.hist.view(np.uint8)
        # the spins over rows of width w; slot i of class c is grid cell
        # 2i + c (the pad column is never read by an interior site)
        grid = np.ones((n, w), dtype=np.int8)
        self.box, flat = grid[:, :n], grid.reshape(-1)
        self.classes = [(cells, self.plus[c * half:][:cells.size])
                        for c, cells in ((0, flat[0::2]), (1, flat[1::2]))]
        # per block, a rank per uniform in visit order, then in slot order;
        # the runs read whole steps, so rows have n and w spare columns
        self.rank = rank = np.empty((rows, self.n_int + n), dtype=np.uint8)
        self.ranks = ranks = np.empty((rows, buf.size + w), dtype=np.uint8)
        shifts = ((-1, 0, -(w + 1) // 2, (w - 1) // 2),
                  (0, 1, -(w - 1) // 2, (w + 1) // 2))
        self.updates, self.runs, src = [], [], 0
        self.steps = [[] for _ in range(rows)]
        for c in (0, 1):
            # interior row x holds its class-c sites from y0 in {1, 2} on,
            # step 2; per row, its first uniform, first slot and length
            lines = []
            for x in range(1, n - 1):
                y0 = 2 - ((x + c) & 1)
                length = len(range(y0, n - 1, 2))
                if length:
                    lines.append((src, c * half + (x * w + y0) // 2, length))
                    src += length
            if not lines:
                continue
            # the slots from the class's first interior site to its last,
            # and the four slices of the other class holding their neighbours
            lo, hi = lines[0][1], lines[-1][1] + lines[-1][2]
            other = (1 - 2 * c) * half + lo
            span, out = slice(lo, hi), self.hist[:, lo:hi]
            nbrs = [hist8[:, other + d:other + d + hi - lo] for d in shifts[c]]
            count = np.empty(hi - lo, dtype=np.uint8)
            self.updates.append((span, out, *nbrs, count))
            # sweep r reads class 1 as it was before the sweep, in row r,
            # and class 0 as the sweep left it, in row r + 1
            for r, views in enumerate(self.steps):
                views.append((*(v[r + c] for v in nbrs), count,
                              ranks[r, span], out[r + 1]))
            # (into ranks, of rank) views copying the rows of one x parity:
            # row j holds uniforms s0 + j step on and slots d0 + j w on
            for group in (lines[0::2], lines[1::2]):
                if group:
                    s0, d0, length = group[0]
                    step = group[1][0] - s0 if len(group) > 1 else length
                    k = len(group)
                    self.runs.append((
                        ranks[:, d0:d0 + w * k].reshape(rows, k, w)[..., :length],
                        rank[:, s0:s0 + step * k].reshape(rows, k, step)[..., :length]))

    def load(self, spins: np.ndarray):
        """Take the n * n spins (+1/-1) into the slots of every row.

        A slot outside the interior gets rank 0 where it holds +1 and
        0 - 1 = 255 where it holds -1, so it never changes; no update
        writes the slots outside the spans, so every row takes them here,
        once for all the sweeps until the next load."""
        self.box[...] = spins.reshape(self.box.shape)
        for cells, slots in self.classes:
            np.greater(cells, 0, out=slots)
        np.subtract(self.buf, 1, out=self.ranks[:, :self.buf.size])
        self.hist[1:] = self.hist[0]

    def store(self, spins: np.ndarray):
        """Write the slots back into the n * n spins (+1/-1)."""
        for cells, slots in self.classes:
            cells[...] = slots
        np.subtract(2 * self.box, 1, out=spins.reshape(self.box.shape))

    def sweep(self, t: float, rng: np.random.Generator, sweeps: int) -> int:
        """`sweeps` sweeps of the loaded slots in place; returns the number
        of slot changes over them.

        p[k] is the chance of +1 with k plus neighbours (h = 2k - 4).  It
        does not decrease in k, so u < p[k] exactly when k >= rank(u),
        where rank(u) = #{j : p[j] <= u}.  A block of uniforms becomes
        ranks once; a class update is then three adds and one compare of
        contiguous slices, from one history row into the next.  The slot
        changes are counted once per block, row against row.
        """
        hist = self.hist
        p = heat_bath_table(t)[::2]
        flips = 0
        for start in range(0, sweeps, self.per_block):
            b = min(self.per_block, sweeps - start)
            self.rank_uniforms(rng, b, p)
            for dst, src in self.runs:
                dst[:b] = src[:b]
            for step in self.steps[:b]:
                for left, right, down, up, k, rank, out in step:
                    np.add(left, right, k)
                    np.add(k, down, k)
                    np.add(k, up, k)
                    np.greater_equal(k, rank, out)
            flips += int(np.count_nonzero(hist[1:b + 1] != hist[:b]))
            hist[0] = hist[b]
        return flips

    def rank_uniforms(self, rng: np.random.Generator, b: int, p: np.ndarray):
        """Draw b sweeps' uniforms into `rank` as their ranks in visit order.
        One compare per entry of p keeps each temporary at a byte per
        uniform, and the uniforms are freed before the next block's."""
        u = rng.random(b * self.n_int).reshape(b, self.n_int)
        rank = self.rank[:b, :self.n_int]
        np.greater_equal(u, p[0], out=rank)
        for pj in p[1:]:
            rank += u >= pj


def heat_bath_sweep(config: SpinConfig, t: float, rng: np.random.Generator,
                    sweeps: int = 1) -> int:
    """`sweeps` deterministic-order heat-bath passes over all interior sites
    at the one temperature t, in place; returns the total over the passes of
    the number of sites whose spin changed.

    Sites are visited in two-color checkerboard order (interior sites with
    even x+y in lexicographic order, then odd ones); sites within a color
    class are mutually non-adjacent, so this equals the sequential update in
    that order while allowing vectorization.  One uniform is drawn per site,
    in visit order, so one call draws what `sweeps` calls of one pass draw.
    Boundary spins never move.  Each call builds its own `_SweepWork` and
    loads and stores the spins once; a caller that sweeps one box many
    times keeps a workspace itself, as `two_timescale_dynamics` does.
    """
    if not t > 0:
        raise ValueError("heat_bath_sweep needs T > 0; T = 0 is the frozen point mass")
    sweeps = _checked_index(sweeps, "sweeps", 1)
    work = _SweepWork(config.g.n, sweeps)
    work.load(config.spins)
    flips = work.sweep(t, rng, sweeps)
    work.store(config.spins)
    return flips


def _row_prob(spins: np.ndarray, probs: np.ndarray, config) -> float:
    """Probability of a SpinConfig or raw spin array under the law whose
    rows are `spins`: the probability of the row it equals, 0.0 when it
    equals none (a wrong length included)."""
    arr = config.spins if isinstance(config, SpinConfig) else np.asarray(config)
    if arr.shape != spins.shape[1:]:
        return 0.0
    hit = np.flatnonzero((spins == arr).all(axis=1))
    return float(probs[hit[0]]) if hit.size else 0.0


@dataclass
class IsingDistribution:
    """Exact plus-boundary Gibbs law from full enumeration of interior spins.

    `spins` holds every configuration with finite energy (row per config,
    boundary forced to +1), `probs` the matching probabilities.  `z` may
    overflow to inf at small T; `log_z` is always finite for T > 0 and +inf
    at T = 0 (diverging ground-state weight).
    """

    n: int
    t: float
    spins: np.ndarray
    probs: np.ndarray
    energies: np.ndarray
    magnetizations: np.ndarray
    log_z: float
    z: float

    def prob_of(self, config) -> float:
        """Probability of a SpinConfig or raw spin array (0 off support)."""
        return _row_prob(self.spins, self.probs, config)

    def magnetization_law(self) -> dict[int, float]:
        law: dict[int, float] = {}
        for m, p in zip(self.magnetizations, self.probs):
            law[int(m)] = law.get(int(m), 0.0) + float(p)
        return law


def enumerate_plus_configs(g: BoxGeometry) -> np.ndarray:
    """All finite-energy spin rows: boundary +1, interior spins free.

    Bit i of the row index corresponds to the i-th interior vertex in
    lexicographic order (bit set = spin +1).
    """
    free = np.flatnonzero(~g.boundary_mask)
    k = len(free)
    if k > 16:
        raise ValueError("enumeration limited to <= 16 interior spins")
    rows = np.ones((1 << k, g.n * g.n), dtype=np.int8)
    if k:
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
        rows[:, free] = (2 * bits - 1).astype(np.int8)
    return rows


def _plus_rows(plus: np.ndarray) -> np.ndarray:
    """Row of `enumerate_plus_configs` holding each plus-boundary spin row,
    given which interior vertices are +1: bit i for the i-th of them."""
    return (plus.astype(np.int64) << np.arange(plus.shape[-1])).sum(axis=-1)


@dataclass(frozen=True)
class PlusTable:
    """Every finite-energy plus-boundary configuration (the rows of
    `enumerate_plus_configs`) with its energy and magnetization."""

    spins: np.ndarray
    energies: np.ndarray
    magnetizations: np.ndarray

    def log_gibbs(self, t: float) -> tuple[np.ndarray, float]:
        """Log-probabilities of the rows under the Gibbs law at T = t > 0,
        and the log partition sum."""
        neg = -self.energies / t
        log_z = _logsumexp(neg)
        return neg - log_z, log_z


def plus_table(g: BoxGeometry) -> PlusTable:
    """The plus-boundary table of the box, built once per caller."""
    rows = enumerate_plus_configs(g)
    prod = rows[:, g.edge_a].astype(np.int64) * rows[:, g.edge_b]
    return PlusTable(rows, -prod.sum(axis=1).astype(np.float64),
                     rows.sum(axis=1, dtype=np.int64))


def exact_ising_distribution(g: BoxGeometry | int, t: float) -> IsingDistribution:
    """Exact finite-volume law by enumeration (needs side <= 5).

    At T = 0 this is the point mass on the all-plus configuration.
    """
    g = as_box(g)
    if g.n > 5:
        raise ValueError("exact enumeration supported for side <= 5")
    if not t >= 0:
        raise ValueError("temperature must be >= 0")
    if t == 0:
        rows = np.ones((1, g.n * g.n), dtype=np.int8)
        e = -float(g.n_edges)
        return IsingDistribution(
            n=g.n, t=0.0, spins=rows, probs=np.array([1.0]),
            energies=np.array([e]), magnetizations=np.array([g.n * g.n]),
            log_z=math.inf, z=math.inf,
        )
    table = plus_table(g)
    log_p, log_z = table.log_gibbs(t)
    probs = np.exp(log_p)
    probs /= probs.sum()
    try:
        z = math.exp(log_z)
    except OverflowError:
        z = math.inf
    return IsingDistribution(
        n=g.n, t=t, spins=table.spins, probs=probs, energies=table.energies,
        magnetizations=table.magnetizations, log_z=log_z, z=z,
    )
