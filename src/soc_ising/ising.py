"""Ising model on the box with all-plus boundary condition.

Energy is the negative sum of products of nearest-neighbour spins; any
configuration violating the all-plus boundary gets energy +infinity (weight
zero at every temperature).  Temperature enters as 1/T directly; T = 0 is the
point mass on the all-plus configuration.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import BoxGeometry, as_box

T_CRITICAL = 2.0 / math.log(1.0 + math.sqrt(2.0))


@dataclass
class IsingParams:
    """Box side and temperature for the plus-boundary model."""

    n: int
    t: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.t < 0:
            raise ValueError("temperature must be >= 0")


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


def feedback_temperature(config: SpinConfig, a: float) -> float:
    """Self-tuned temperature m(sigma)^2 / n^(2a)."""
    m = config.magnetization()
    return (m * m) / float(config.g.n) ** (2.0 * a)


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
    if t <= 0:
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

# new spin by the outcome of `u < p`: take() reads False as 0, True as 1
_SPIN_OF = np.array([-1, 1], dtype=np.int8)


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
    Boundary spins never move.
    """
    if t <= 0:
        raise ValueError("heat_bath_sweep needs T > 0; T = 0 is the frozen point mass")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    g, spins = config.g, config.spins
    n, n_int = g.n, g.interior_ids.size
    if n_int == 0:
        return 0
    # entry h of the rolled table is table[h + 4]; take() wraps h < 0
    table = np.roll(heat_bath_table(t), -4)
    # interior site v has neighbours v -+ n (horizontal) and v -+ 1
    # (vertical); entry v - n of the four shifted slices holds each
    k = n * n - 2 * n
    left, right = spins[:k], spins[2 * n:]
    down, up = spins[n - 1:n - 1 + k], spins[n + 1:n + 1 + k]
    cut = g.interior_even.size  # uniforms [0, cut) go to the even class
    classes = [(sites, sites - n, lo, hi) for sites, lo, hi in (
        (g.interior_even, 0, cut), (g.interior_odd, cut, n_int)) if sites.size]
    per_block = max(1, _DRAW_BLOCK // n_int)
    flips = 0
    for start in range(0, sweeps, per_block):
        b = min(per_block, sweeps - start)
        u = rng.random(b * n_int).reshape(b, n_int)
        for row in u:
            before = spins.copy()
            for sites, at, lo, hi in classes:
                h = (left + right + down + up).take(at)
                spins[sites] = _SPIN_OF.take(row[lo:hi] < table.take(h))
            flips += int(np.count_nonzero(before != spins))
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
    if t < 0:
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
    z = math.exp(log_z) if log_z < 709 else math.inf
    return IsingDistribution(
        n=g.n, t=t, spins=table.spins, probs=probs, energies=table.energies,
        magnetizations=table.magnetizations, log_z=log_z, z=z,
    )
