"""Joint spin-bond coupling and planar duality.

The temperature T and the bond density p = 1 - exp(-2/T) parametrize the
same model: sampling bonds given spins (open equal-spin edges with
probability p) and spins given bonds (fair signs per interior cluster,
plus on boundary clusters) are the two halves of the joint construction.
Duality sends a wired configuration on the side-n box to a free one on the
side-(n-1) box, with the dual density p* = q(1-p) / (p + q(1-p)).
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import BoxGeometry, as_box, build_box, dual_geometry
from .ising import (
    SpinConfig, _plus_rows, enumerate_plus_configs, exact_ising_distribution,
)
from .fk import (
    BondConfig, FKParams, _weight_table, cluster_labels, cluster_spins,
    enumerate_bond_configs, equal_spin_bonds, exact_fk_distribution,
)


def t_to_p(t: float) -> float:
    """Bond density of the coupling at temperature t (t = 0 gives p = 1)."""
    if not t >= 0:
        raise ValueError("temperature must be >= 0")
    if t == 0:
        return 1.0
    return -math.expm1(-2.0 / t)


def p_to_t(p: float) -> float:
    """Temperature whose coupling has bond density p; p = 1 gives t = 0."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    if p == 1.0:
        return 0.0
    return -2.0 / math.log1p(-p)


def dual_parameter(p: float, q: float) -> float:
    """Dual bond density q(1-p) / (p + q(1-p)); an involution fixing the
    self-dual point."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if not (math.isfinite(q) and q >= 1):
        raise ValueError(f"q must be finite and >= 1, got {q!r}")
    return q * (1.0 - p) / (p + q * (1.0 - p))


def es_fk_to_ising(omega: BondConfig, rng: np.random.Generator) -> SpinConfig:
    """Spin half of the coupling: boundary-touching clusters take the plus
    sign, interior clusters draw independent fair signs (in cluster-id
    order, one draw per interior cluster)."""
    g = omega.g
    labels = cluster_labels(g, omega.bonds)
    return SpinConfig(g, cluster_spins(g, labels, rng, wired=True))


def es_ising_to_fk(config: SpinConfig, t: float, rng: np.random.Generator) -> BondConfig:
    """Bond half of the coupling: each equal-spin edge opens independently
    with probability 1 - exp(-2/t); unequal-spin edges stay closed."""
    return equal_spin_bonds(config.g, config.spins, t_to_p(t), rng)


def dual_config(omega: BondConfig) -> BondConfig:
    """Dual bond configuration on the side-(n-1) box: each identified dual
    edge is open exactly when its crossing primal edge is closed.  Primal
    edges between two boundary vertices have no dual partner; under the
    wired condition their state carries no weight."""
    n = omega.g.n
    dg = dual_geometry(n)
    gd = build_box(n - 1)
    bonds = np.zeros(gd.n_edges, dtype=np.uint8)
    has = dg.edge_map >= 0
    bonds[dg.edge_map[has]] = 1 - omega.bonds[has]
    return BondConfig(gd, bonds)


# masks per block when every wired configuration is mapped to its dual
_DUAL_BLOCK = 1 << 16
# configurations per block when the wired law is pushed to the spins
_SPIN_BLOCK = 1 << 14


def _wired_law_and_spins(g: BoxGeometry, t: float):
    """The wired q = 2 bond law at temperature t and the spin law pushed
    from it, from one labelling pass over every bond configuration.

    Returns (bond probabilities indexed by bitmask, spin probabilities
    indexed by plus-table row, the rows reached in order of first arrival).
    The pass writes each block's weights and keeps what the pushforward
    needs that does not depend on p: the number k of interior clusters
    and, per interior vertex, the sign bit 1 << (rank of its cluster among
    the interior ones), 0 on a boundary cluster (k <= 4 at side <= 4, so
    both fit in uint8).  Once the weights are normalized, each
    configuration of nonzero probability splits it over the 2^k sign
    choices; choice c flips the interior clusters whose bits it sets.  The
    shares are added in (mask, choice) order, so every sum keeps the order
    of a per-mask loop.
    """
    table = _weight_table(g, FKParams(t_to_p(t), 2.0, 1))
    size, ni = 1 << g.n_edges, g.interior_ids.size
    weights = np.empty(size)
    ks = np.empty(size, dtype=np.uint8)
    bits = np.empty((size, ni), dtype=np.uint8)
    for start, opens, labels in enumerate_bond_configs(g, wired=True):
        stop = start + len(opens)
        # the glued labels: 0 on the boundary cluster, and each interior
        # vertex's cluster rank from 1 among the interior clusters, the
        # largest rank being their number
        own = labels[g.interior_ids]
        k = own.max(axis=0, initial=0)
        weights[start:stop] = table[k + 1, opens]
        ks[start:stop] = k
        bits[start:stop] = ((1 << own) >> 1).T
    weights /= float(weights.sum())
    probs = np.zeros(1 << ni)
    first = np.full(1 << ni, np.iinfo(np.int64).max)
    seen = 0
    for start in range(0, size, _SPIN_BLOCK):
        masks = start + np.flatnonzero(weights[start:start + _SPIN_BLOCK] != 0.0)
        reps = 1 << ks[masks].astype(np.int64)
        row = np.repeat(masks, reps)
        choice = np.arange(row.size) - np.repeat(reps.cumsum() - reps, reps)
        idx = _plus_rows((choice[:, None] & bits[row]) == 0)
        np.add.at(probs, idx, np.repeat(weights[masks] / reps, reps))
        np.minimum.at(first, idx, seen + np.arange(idx.size))
        seen += idx.size
    reached = np.flatnonzero(first < seen)
    return weights, probs, reached[np.argsort(first[reached])]


def es_spin_pushforward(g: BoxGeometry | int, t: float) -> dict[bytes, float]:
    """Exact spin marginal of the coupling built over the wired bond law.

    Enumerates every bond configuration, splits its probability over the
    2^(interior clusters) sign choices, and accumulates per spin
    configuration (keyed by the int8 byte string of the spins, in order of
    first arrival).
    """
    g = as_box(g)
    _, probs, reached = _wired_law_and_spins(g, t)
    rows = enumerate_plus_configs(g)
    return {rows[i].tobytes(): float(probs[i]) for i in reached}


def _bond_pushforward(g: BoxGeometry, dist, p: float) -> np.ndarray:
    """Bond law pushed from the spin law `dist`, indexed by bond bitmask.

    Each spin row expands into the 2^|eq| open/closed choices of its
    equal-spin edges eq; choice c opens the i-th of them when bit i of c is
    set, and its weight takes one factor p or 1 - p per edge, in edge order.
    """
    probs = np.zeros(1 << g.n_edges, dtype=np.float64)
    for spins, pr in zip(dist.spins, dist.probs.tolist()):
        if pr == 0.0:
            continue
        eq = np.flatnonzero(spins[g.edge_a] == spins[g.edge_b])
        choice = np.arange(1 << eq.size)
        mask = np.zeros(choice.size, dtype=np.int64)
        w = np.full(choice.size, pr)
        for i, e in enumerate(eq.tolist()):
            opened = (choice >> i) & 1
            mask |= opened << e
            w *= np.where(opened == 1, p, 1.0 - p)
        np.add.at(probs, mask, w)
    return probs


def es_bond_pushforward(g: BoxGeometry | int, t: float) -> np.ndarray:
    """Exact bond marginal of the coupling built over the plus-boundary spin
    law, as probabilities indexed by bond bitmask."""
    g = as_box(g)
    return _bond_pushforward(g, exact_ising_distribution(g, t), t_to_p(t))


def es_pushforward_check(g_or_n, t: float) -> tuple[float, float]:
    """Max absolute error of both marginals of the coupling against the
    exact spin and bond laws.  Returns (spin error, bond error)."""
    g = as_box(g_or_n)
    dist = exact_ising_distribution(g, t)
    fk, pushed, _ = _wired_law_and_spins(g, t)
    # at T = 0 the spin law is the all-plus row alone
    target = np.zeros_like(pushed)
    target[_plus_rows(dist.spins[:, g.interior_ids] > 0)] = dist.probs
    err_spin = float(np.abs(pushed - target).max())
    err_bond = float(np.abs(_bond_pushforward(g, dist, t_to_p(t)) - fk).max())
    return err_spin, err_bond


def dual_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Bitmasks of the dual configurations of side-n bond bitmasks: bit d is
    the complement of bit `primal_of[d]`, as `dual_config` builds it."""
    closed = ~np.asarray(masks, dtype=np.int64)
    out = np.zeros(closed.shape, dtype=np.int64)
    for d, e in enumerate(dual_geometry(n).primal_of.tolist()):
        out |= ((closed >> e) & 1) << d
    return out


def duality_check(n: int, p: float, q: float) -> float:
    """Max absolute error between the dual pushforward of the wired side-n
    law and the free side-(n-1) law at the dual density."""
    fk = exact_fk_distribution(n, FKParams(p, q, 1))
    gd = dual_geometry(n).dual
    pushed = np.zeros(1 << gd.n_edges, dtype=np.float64)
    for start in range(0, fk.probs.size, _DUAL_BLOCK):
        pr = fk.probs[start:start + _DUAL_BLOCK]
        dmask = dual_masks(n, np.arange(start, start + pr.size))
        keep = pr != 0.0
        np.add.at(pushed, dmask[keep], pr[keep])
    target = exact_fk_distribution(gd, FKParams(dual_parameter(p, q), q, 0))
    return float(np.abs(pushed - target.probs).max())
