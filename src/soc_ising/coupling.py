"""Joint spin-bond coupling and planar duality.

The temperature T and the bond density p = 1 - exp(-2/T) parametrize the
same model: sampling bonds given spins (open equal-spin edges with
probability p) and spins given bonds (fair signs per interior cluster,
plus on boundary clusters) are the two halves of the joint construction.
Duality sends a wired configuration on the side-n box to a free one on the
side-(n-1) box, with the dual density p* = q(1-p) / (p + q(1-p)).
"""

import math

import numpy as np

from .lattice import BoxGeometry, build_box, dual_geometry
from .ising import SpinConfig, exact_ising_distribution
from .fk import (
    BondConfig, ClusterDecomposition, FKParams, cluster_spins, enumerate_bond_configs,
    exact_fk_distribution,
)


def t_to_p(t: float) -> float:
    """Bond density of the coupling at temperature t (t = 0 gives p = 1)."""
    if t < 0:
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


def phi_n(b: int, n: int, a: float) -> float:
    """Bond density fed back from magnetization level b: the density of the
    coupling at temperature b^2 / n^(2a).  b = 0 gives density 1."""
    if b < 0:
        raise ValueError("magnetization level must be >= 0")
    if b == 0:
        return 1.0
    return -math.expm1(-2.0 * float(n) ** (2 * a) / (float(b) * float(b)))


def dual_parameter(p: float, q: float) -> float:
    """Dual bond density q(1-p) / (p + q(1-p)); an involution fixing the
    self-dual point."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if q < 1:
        raise ValueError("q must be >= 1")
    return q * (1.0 - p) / (p + q * (1.0 - p))


def es_fk_to_ising(omega: BondConfig, rng: np.random.Generator) -> SpinConfig:
    """Spin half of the coupling: boundary-touching clusters take the plus
    sign, interior clusters draw independent fair signs (in cluster-id
    order, one draw per interior cluster)."""
    return SpinConfig(omega.g, cluster_spins(omega, rng, wired=True))


def es_ising_to_fk(config: SpinConfig, t: float, rng: np.random.Generator) -> BondConfig:
    """Bond half of the coupling: each equal-spin edge opens independently
    with probability 1 - exp(-2/t); unequal-spin edges stay closed."""
    g = config.g
    p = t_to_p(t)
    eq = config.spins[g.edge_a] == config.spins[g.edge_b]
    u = rng.random(g.n_edges)
    return BondConfig(g, (eq & (u < p)).astype(np.uint8))


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


def es_spin_pushforward(g: BoxGeometry | int, t: float) -> dict[bytes, float]:
    """Exact spin marginal of the coupling built over the wired bond law.

    Enumerates every bond configuration, splits its probability over the
    2^(interior clusters) sign choices, and accumulates per spin
    configuration (keyed by the int8 byte string of the spins).
    """
    if isinstance(g, (int, np.integer)):
        g = build_box(int(g))
    fk = exact_fk_distribution(g, FKParams(t_to_p(t), 2.0, 1))
    out: dict[bytes, float] = {}
    for start, _, labels in enumerate_bond_configs(g):
        for row, pr in enumerate(fk.probs[start:start + len(labels)].tolist()):
            if pr == 0.0:
                continue
            dec = ClusterDecomposition(g, labels[row])
            ids = dec.interior_cluster_ids
            share = pr / (1 << ids.size)
            # sign choice c flips interior cluster ids[i] when bit i of c is set
            bits = (np.arange(1 << ids.size)[:, None] >> np.arange(ids.size)) & 1
            signs = np.ones((bits.shape[0], dec.n_clusters), dtype=np.int8)
            signs[:, ids] = 1 - 2 * bits
            for spins in signs[:, dec.labels]:
                key = spins.tobytes()
                out[key] = out.get(key, 0.0) + share
    return out


def es_bond_pushforward(g: BoxGeometry | int, t: float) -> np.ndarray:
    """Exact bond marginal of the coupling built over the plus-boundary spin
    law, as probabilities indexed by bond bitmask."""
    if isinstance(g, (int, np.integer)):
        g = build_box(int(g))
    dist = exact_ising_distribution(g, t)
    p = t_to_p(t)
    ne = g.n_edges
    probs = np.zeros(1 << ne, dtype=np.float64)
    for row in range(dist.spins.shape[0]):
        pr = float(dist.probs[row])
        if pr == 0.0:
            continue
        spins = dist.spins[row]
        eq = np.flatnonzero(spins[g.edge_a] == spins[g.edge_b])
        # expand the independent Bernoulli(p) choices over the equal edges
        for choice in range(1 << eq.size):
            mask = 0
            w = pr
            for i in range(eq.size):
                if (choice >> i) & 1:
                    mask |= 1 << int(eq[i])
                    w *= p
                else:
                    w *= 1.0 - p
            probs[mask] += w
    return probs


def es_pushforward_check(g_or_n, t: float) -> tuple[float, float]:
    """Max absolute error of both marginals of the coupling against the
    exact spin and bond laws.  Returns (spin error, bond error)."""
    g = build_box(int(g_or_n)) if isinstance(g_or_n, (int, np.integer)) else g_or_n
    dist = exact_ising_distribution(g, t)
    pushed = es_spin_pushforward(g, t)
    err_spin = 0.0
    seen = set()
    for row in range(dist.spins.shape[0]):
        key = dist.spins[row].tobytes()
        seen.add(key)
        err_spin = max(err_spin, abs(pushed.get(key, 0.0) - float(dist.probs[row])))
    for key, pr in pushed.items():
        if key not in seen:
            err_spin = max(err_spin, pr)
    fk = exact_fk_distribution(g, FKParams(t_to_p(t), 2.0, 1))
    err_bond = float(np.abs(es_bond_pushforward(g, t) - fk.probs).max())
    return err_spin, err_bond


def duality_check(n: int, p: float, q: float) -> float:
    """Max absolute error between the dual pushforward of the wired side-n
    law and the free side-(n-1) law at the dual density."""
    fk = exact_fk_distribution(n, FKParams(p, q, 1))
    gd = build_box(n - 1)
    pushed = np.zeros(1 << gd.n_edges, dtype=np.float64)
    for mask in range(fk.probs.size):
        pr = float(fk.probs[mask])
        if pr == 0.0:
            continue
        dmask = dual_config(BondConfig.from_bitmask(fk.g, mask)).to_bitmask()
        pushed[dmask] += pr
    target = exact_fk_distribution(gd, FKParams(dual_parameter(p, q), q, 0))
    return float(np.abs(pushed - target.probs).max())
