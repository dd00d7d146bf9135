"""Small independent oracles shared by the test modules.

Everything here is deliberately naive (BFS, direct enumeration, one
mask at a time, one edge at a time) or the plainer design that a faster
one replaced, so that the library's run-based cluster labelling,
edge-insertion bond enumeration, block-wise pushforwards, windowed
single-bond sweep, table-driven
heat-bath sweep, list-based Metropolis loop, bisecting surgery greedy
stage, single-labelling sample chain, log-space code paths, the exact
spin laws built on one plus table and the dual pairing's array formulas
are checked against a second implementation rather than against
themselves.
"""

import dataclasses
import math
from collections import deque
from fractions import Fraction

import numpy as np
from scipy.special import expit, gammaln

from soc_ising.coupling import (
    _SPIN_BLOCK, dual_config, dual_parameter, es_ising_to_fk, t_to_p,
)
from soc_ising.fk import (
    BondConfig, ClusterDecomposition, FKDistribution, FKParams, _weight_table,
    close_edges, cluster_labels, decompose, exact_fk_distribution,
    single_bond_heat_bath_sweep, swendsen_wang_step,
)
from soc_ising.ising import (
    T_CRITICAL, IsingDistribution, SpinConfig, _logsumexp, _plus_rows,
    exact_ising_distribution, plus_table,
)
from soc_ising.lattice import BoxGeometry, as_box, box_range, build_box
from soc_ising.soc import EPS_T, DeviationReport, ExactMuN, feedback_temperature
from soc_ising.surgery import _add_fair_sign


def philox(seed: int, chain: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chain]))


class FixedDraws:
    """Stands in for a Generator whose uniforms are given in advance."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return out


def bfs_components(g, open_edges) -> list[set]:
    """Connected components of the open subgraph, as vertex sets, by BFS."""
    adj: dict[int, list[int]] = {v: [] for v in range(g.n * g.n)}
    for e in np.flatnonzero(np.asarray(open_edges, dtype=bool)):
        a, b = int(g.edge_a[e]), int(g.edge_b[e])
        adj[a].append(b)
        adj[b].append(a)
    seen = set()
    comps = []
    for start in range(g.n * g.n):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


def cluster_labels_oracle(g, bonds) -> np.ndarray:
    """Hoshen-Kopelman cluster ids, shape (M, n*n), of one bond
    configuration or a stack of them, by hooking and pointer jumping over
    vertices: the edges are gathered through g.edge_a and g.edge_b, each
    open edge hooks the larger of its two roots under the smaller, and
    ranking the roots row by row numbers each row's clusters by first
    appearance in vertex order."""
    rows = np.atleast_2d(bonds)
    nsq = g.n * g.n
    r, e = rows.nonzero()
    offset = r * nsq
    # every vertex starts as its own root, and edge_a < edge_b
    a = lo = g.edge_a[e] + offset
    b = hi = g.edge_b[e] + offset
    parent = np.arange(rows.shape[0] * nsq)
    while a.size:
        np.minimum.at(parent, hi, lo)
        up = parent[parent]
        while (up != parent).any():
            parent, up = up, up[up]
        ra, rb = parent[a], parent[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    rank = (parent == np.arange(parent.size)).cumsum() - 1
    return rank[parent].reshape(-1, nsq) - rank[::nsq, None]


def bfs_labels(g, open_edges) -> np.ndarray:
    """Cluster ids of one configuration from the BFS components, numbered
    by first appearance in vertex order."""
    labels = np.empty(g.n * g.n, dtype=np.int64)
    for cid, comp in enumerate(sorted(bfs_components(g, open_edges), key=min)):
        labels[sorted(comp)] = cid
    return labels


def cluster_counts(g, open_edges) -> tuple[int, int]:
    """(k0, k1) via BFS: every component, then boundary components merged."""
    comps = bfs_components(g, open_edges)
    boundary = set(int(v) for v in g.boundary_ids)
    touching = sum(1 for c in comps if c & boundary)
    k0 = len(comps)
    k1 = k0 - touching + 1 if touching else k0 + 1
    return k0, k1


def fk_law_oracle(g, p: float, q: float, wired: bool) -> np.ndarray:
    """Exact FK probabilities over all 2^E bitmasks by direct enumeration."""
    E = g.n_edges
    weights = np.empty(1 << E, dtype=np.float64)
    for mask in range(1 << E):
        open_edges = [(mask >> e) & 1 for e in range(E)]
        o = sum(open_edges)
        k0, k1 = cluster_counts(g, open_edges)
        k = k1 if wired else k0
        weights[mask] = (p ** o) * ((1 - p) ** (E - o)) * (q ** k)
    return weights / weights.sum()


def enumerate_bond_configs_oracle(g, starts=None):
    """All 2^E bond configurations in bitmask order (bit e = edge e), in
    blocks of at most 1,024, each block labelled by one `cluster_labels`
    call: the enumeration that edge insertion replaced.  Yields (first
    mask, bonds, labels), labels of shape (rows, n*n) in the free
    numbering; `starts`, when given, picks the blocks by first mask."""
    ne = g.n_edges
    for start in range(0, 1 << ne, 1024) if starts is None else starts:
        masks = np.arange(start, min(start + 1024, 1 << ne))
        bonds = ((masks[:, None] >> np.arange(ne)) & 1).astype(np.uint8)
        yield start, bonds, cluster_labels(g, bonds)


def boundary_clusters_oracle(g, labels: np.ndarray) -> np.ndarray:
    """For labels of shape (M, n*n), the (M, n*n) table whose entry [r, c]
    is True when cluster c of row r touches the boundary.  Columns past a
    row's last cluster id stay False."""
    touched = np.zeros(labels.shape, dtype=bool)
    touched[np.arange(len(labels))[:, None], labels[:, g.boundary_ids]] = True
    return touched


def wired_counts_oracle(g, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """From free labels of shape (M, n*n): k1 per row (the boundary-touching
    clusters count as one), and per interior vertex the rank from 1 of its
    cluster among the clusters that miss the boundary, 0 on a boundary
    cluster; shapes (M,) and (M, interior vertices)."""
    untouched = ~boundary_clusters_oracle(g, labels)
    rows, own = np.arange(len(labels))[:, None], labels[:, g.interior_ids]
    inner = untouched[rows, own]
    rank = untouched.cumsum(axis=1)[rows, own]
    k1 = labels.max(axis=1) + 2 - (~untouched).sum(axis=1)
    return k1, inner * rank


def exact_fk_distribution_oracle(g, params) -> FKDistribution:
    """`exact_fk_distribution` on the oracle enumeration: k counts the
    free labels' clusters, less the boundary-touching ones but one when
    wired."""
    g = as_box(g)
    table = _weight_table(g, params)
    weights = np.empty(1 << g.n_edges, dtype=np.float64)
    for start, bonds, labels in enumerate_bond_configs_oracle(g):
        k = labels.max(axis=1) + 1
        if params.bc == 1:
            k += 1 - boundary_clusters_oracle(g, labels).sum(axis=1)
        weights[start:start + len(k)] = table[k, bonds.sum(axis=1)]
    z = float(weights.sum())
    weights /= z
    return FKDistribution(g=g, params=params, probs=weights, z=z)


def wired_law_and_spins_oracle(g, t: float):
    """`coupling._wired_law_and_spins` on the oracle enumeration, the
    interior cluster count and ranks taken from `wired_counts_oracle`."""
    table = _weight_table(g, FKParams(t_to_p(t), 2.0, 1))
    size, ni = 1 << g.n_edges, g.interior_ids.size
    weights = np.empty(size)
    ks = np.empty(size, dtype=np.uint8)
    bits = np.empty((size, ni), dtype=np.uint8)
    for start, bonds, labels in enumerate_bond_configs_oracle(g):
        stop = start + len(labels)
        k1, rank = wired_counts_oracle(g, labels)
        weights[start:stop] = table[k1, bonds.sum(axis=1)]
        ks[start:stop] = k1 - 1
        bits[start:stop] = ((rank > 0) << rank) >> 1
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


def spin_pushforward_oracle(g, t: float) -> dict[bytes, float]:
    """Spin marginal of the coupling over the wired bond law, one mask and
    one sign choice at a time."""
    fk = exact_fk_distribution(g, FKParams(t_to_p(t), 2.0, 1))
    out: dict[bytes, float] = {}
    for start, _, labels in enumerate_bond_configs_oracle(g):
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


def bond_pushforward_oracle(g, t: float) -> np.ndarray:
    """Bond marginal of the coupling over the plus-boundary spin law, one
    spin row and one open/closed choice at a time."""
    dist = exact_ising_distribution(g, t)
    p = t_to_p(t)
    probs = np.zeros(1 << g.n_edges, dtype=np.float64)
    for row in range(dist.spins.shape[0]):
        pr = float(dist.probs[row])
        if pr == 0.0:
            continue
        spins = dist.spins[row]
        eq = np.flatnonzero(spins[g.edge_a] == spins[g.edge_b])
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


def pushforward_check_oracle(g, t: float) -> tuple[float, float]:
    """(spin error, bond error) of the coupling from the two oracles above,
    comparing spin laws key by key."""
    dist = exact_ising_distribution(g, t)
    pushed = spin_pushforward_oracle(g, t)
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
    err_bond = float(np.abs(bond_pushforward_oracle(g, t) - fk.probs).max())
    return err_spin, err_bond


def duality_check_oracle(n: int, p: float, q: float) -> float:
    """Duality pushforward error with one `dual_config` call per mask."""
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


def box_arrays_oracle(n: int) -> dict[str, np.ndarray]:
    """Every index array of `BoxGeometry(n)`, built the earlier way: the
    endpoint lists of the two steps concatenated and lexsorted into edge
    order, `neighbors` and `incident_edges` filled by one masked scatter
    per direction and endpoint."""
    lo, hi = box_range(n)
    axis = np.arange(lo, hi + 1)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
    nsq = n * n
    ids = np.arange(nsq)
    x = coords[:, 0]
    y = coords[:, 1]
    # vertical steps (x, y)-(x, y+1) are id steps of +1, horizontal of +n
    va = ids[y < hi]
    ha = ids[x < hi]
    ea = np.concatenate([va, ha])
    eb = np.concatenate([va + 1, ha + n])
    order = np.lexsort((eb, ea))
    ends = np.stack([ea[order], eb[order]])
    edge_a, edge_b = ends
    n_edges = len(ends.T)

    bm = (x == lo) | (x == hi) | (y == lo) | (y == hi)
    nbr = np.full((nsq, 4), -1, dtype=np.int64)
    inc = np.full((nsq, 4), -1, dtype=np.int64)
    eid = np.arange(n_edges)
    # order (-x, -y, +y, +x); fill both directions of each edge
    horiz = (edge_b - edge_a) == n
    vert = ~horiz
    nbr[edge_b[horiz], 0] = edge_a[horiz]
    inc[edge_b[horiz], 0] = eid[horiz]
    nbr[edge_b[vert], 1] = edge_a[vert]
    inc[edge_b[vert], 1] = eid[vert]
    nbr[edge_a[vert], 2] = edge_b[vert]
    inc[edge_a[vert], 2] = eid[vert]
    nbr[edge_a[horiz], 3] = edge_b[horiz]
    inc[edge_a[horiz], 3] = eid[horiz]

    interior = ids[~bm]
    colors = (x[interior] + y[interior]) & 1
    return {
        "coords": coords, "edges": ends.T, "edge_a": edge_a, "edge_b": edge_b,
        "boundary_mask": bm, "boundary_ids": ids[bm],
        "interior_edge_mask": ~(bm[edge_a] & bm[edge_b]),
        "neighbors": nbr, "incident_edges": inc, "interior_ids": interior,
        "interior_even": interior[colors == 0],
        "interior_odd": interior[colors == 1],
        "halfgrid_mask": (~bm) & (((np.abs(x) + np.abs(y)) & 1) == 0),
    }


def dual_maps_oracle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`DualGeometry(n)`'s `edge_map` and `primal_of`, one interior edge at
    a time: each dual edge is found by its two endpoints' coordinates."""
    g, d = build_box(n), build_box(n - 1)
    # identified dual endpoints: shift (0,0) for odd n, (1,1) for even n
    s = 0 if n % 2 == 1 else 1
    edge_map = np.full(g.n_edges, -1, dtype=np.int64)
    primal_of = np.full(d.n_edges, -1, dtype=np.int64)
    for e in np.flatnonzero(g.interior_edge_mask):
        a, b = g.edges[e]
        ax, ay = g.coord(int(a))
        bx, by = g.coord(int(b))
        if bx == ax + 1:  # horizontal edge -> vertical dual edge
            p1 = (ax + s, ay - 1 + s)
            p2 = (ax + s, ay + s)
        else:  # vertical edge -> horizontal dual edge
            p1 = (ax - 1 + s, ay + s)
            p2 = (ax + s, ay + s)
        de = d.edge_id(d.vertex_id(*p1), d.vertex_id(*p2))
        if primal_of[de] != -1:
            raise AssertionError("dual edge hit twice; pairing broken")
        edge_map[int(e)] = de
        primal_of[de] = int(e)
    if int(g.interior_edge_mask.sum()) != d.n_edges:
        raise AssertionError("interior/dual edge counts disagree")
    return edge_map, primal_of


def connected_without_oracle(omega, e: int, wired: bool) -> bool:
    """Are the endpoints of edge e connected by open edges other than e?
    One-sided BFS from one endpoint; under the wired condition the boundary
    acts as a single glued vertex."""
    g = omega.g
    bonds = omega.bonds
    a, b = int(g.edge_a[e]), int(g.edge_b[e])
    bm = g.boundary_mask
    if wired and bm[a] and bm[b]:
        return True
    seen = np.zeros(g.n * g.n, dtype=bool)
    seen[a] = True
    queue = deque([a])
    glued = False
    nbr = g.neighbors
    inc = g.incident_edges
    while queue:
        v = queue.popleft()
        if wired and bm[v] and not glued:
            glued = True
            if bm[b]:
                return True
            for w in g.boundary_ids:
                if not seen[w]:
                    seen[w] = True
                    queue.append(int(w))
        for i in range(4):
            k = inc[v, i]
            if k < 0 or k == e or not bonds[k]:
                continue
            w = nbr[v, i]
            if w == b:
                return True
            if not seen[w]:
                seen[w] = True
                queue.append(int(w))
    return False


def external_cluster_boundary_oracle(cluster, g) -> list[int]:
    """Edges from the cluster to the cells of its complement that a flood
    fill reaches from the ring just outside the cluster's bounding box."""
    cs = {g.coord(int(v)) for v in cluster}
    xs = [c[0] for c in cs]
    ys = [c[1] for c in cs]
    x0, x1 = min(xs) - 1, max(xs) + 1
    y0, y1 = min(ys) - 1, max(ys) + 1
    ring = [(x, y) for x in range(x0, x1 + 1) for y in (y0, y1)]
    ring += [(x, y) for y in range(y0, y1 + 1) for x in (x0, x1)]
    outside = {c for c in ring if c not in cs}
    queue = deque(outside)
    steps = ((-1, 0), (0, -1), (0, 1), (1, 0))
    while queue:
        x, y = queue.popleft()
        for dx, dy in steps:
            w = (x + dx, y + dy)
            if (x0 <= w[0] <= x1 and y0 <= w[1] <= y1 and w not in cs
                    and w not in outside):
                outside.add(w)
                queue.append(w)
    return sorted(g.edge_id(g.vertex_id(x, y), g.vertex_id(x + dx, y + dy))
                  for (x, y) in cs for dx, dy in steps
                  if (x + dx, y + dy) in outside)


def exact_cut_H2_oracle(g, cluster, edges, v: int, m: int) -> list[int]:
    """The given edges (repeats kept) with exactly one endpoint among the
    first m vertices of a BFS from v over a dict-of-lists adjacency built
    from them, neighbours sorted at every pop."""
    adj: dict[int, list[int]] = {int(u): [] for u in cluster}
    for e in edges:
        x, y = int(g.edge_a[e]), int(g.edge_b[e])
        adj[x].append(y)
        adj[y].append(x)
    order = []
    seen = {int(v)}
    queue = deque([int(v)])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    kept = set(order[:m])
    return sorted(int(e) for e in edges
                  if (int(g.edge_a[e]) in kept) != (int(g.edge_b[e]) in kept))


def single_bond_sweep_oracle(omega, params, rng):
    """One heat-bath pass in edge order, one uniform per edge, asking the
    connectivity oracle for every edge (no window, no early decision)."""
    g = omega.g
    out = BondConfig(g, omega.bonds.copy())
    u = rng.random(g.n_edges)
    p, q = params.p, params.q
    merge_p = p / (p + (1.0 - p) * q)
    for e in range(g.n_edges):
        if q == 1.0:
            cond = p
        else:
            cond = p if connected_without_oracle(out, e, params.bc == 1) else merge_p
        out.bonds[e] = 1 if u[e] < cond else 0
    return out


def stirling_constant_oracle(kmax: int = 10 ** 6) -> float:
    """min over k <= kmax of sqrt(2k) C(2k, k) 4^(-k), the binomial taken
    through log-gamma."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    logc = gammaln(2 * k + 1) - 2 * gammaln(k + 1) - k * math.log(4.0)
    return float(np.exp(logc + 0.5 * np.log(2 * k)).min())


def sign_compensation_fraction_oracle(sizes) -> Fraction:
    """Probability that fair signs on the sizes sum to 0, as a Fraction, by
    a dict-of-Fraction dynamic program over the partial sums."""
    dist = {0: Fraction(1)}
    for s in sizes:
        new: dict[int, Fraction] = {}
        for v, pr in dist.items():
            half = pr / 2
            new[v + s] = new.get(v + s, Fraction(0)) + half
            new[v - s] = new.get(v - s, Fraction(0)) + half
        dist = new
    return dist.get(0, Fraction(0))


def walk_bound_dp_oracle(sizes, N: int) -> np.ndarray:
    """P(|S_j| <= N) for j = 0..N by the exact sign DP, every j in turn:
    the clusters of size j join the law of S, whose mass in [-N, N] is
    then summed over a window of all the sums it can take."""
    total = sum(sizes)
    counts = np.bincount(np.array(sizes or [0]), minlength=N + 1)
    if sizes:
        counts[0] = 0
    probs = np.zeros(N + 1)
    dist = np.zeros(2 * total + 1)
    dist[total] = 1.0
    probs[0] = 1.0
    for j in range(1, N + 1):
        for _ in range(int(counts[j])):
            dist = _add_fair_sign(dist, j)
        window = np.arange(-total, total + 1)
        probs[j] = float(dist[np.abs(window) <= N].sum())
    return probs


def walk_bound_mc_oracle(sizes, N: int, rng, trials: int) -> np.ndarray:
    """P(|S_j| <= N) for j = 0..N by Monte Carlo, as the walk bound check
    draws it: the signs of the sorted sizes as one trials x len(sizes)
    matrix, and S_j read from the cumulative sums of the signed sizes."""
    svals = np.sort(np.array(sizes, dtype=np.int64), kind="stable")
    eps = 2 * rng.integers(0, 2, size=(trials, len(sizes))) - 1
    cum = np.cumsum(eps * svals, axis=1)
    probs = np.empty(N + 1)
    probs[0] = 1.0
    for j in range(1, N + 1):
        upto = int(np.searchsorted(svals, j, side="right"))
        sj = cum[:, upto - 1] if upto > 0 else np.zeros(trials)
        probs[j] = float((np.abs(sj) <= N).mean())
    return probs


def heat_bath_sweep_oracle(config, t: float, rng) -> None:
    """One checkerboard heat-bath pass, in place: per color class, gather
    the (k, 4) neighbour rows, take expit per site, one uniform per site."""
    g = config.g
    spins = config.spins
    for sites in (g.interior_even, g.interior_odd):
        if sites.size == 0:
            continue
        h = spins[g.neighbors[sites]].sum(axis=1)
        with np.errstate(over="ignore"):  # 2h/T = +-inf at subnormal T
            p_plus = expit(2.0 * h / t)
        u = rng.random(sites.size)
        spins[sites] = np.where(u < p_plus, 1, -1).astype(np.int8)


def two_timescale_oracle(g, a, tau, total, rng, snapshot_every=0):
    """The feedback dynamics with flips counted by copying the spins before
    every sweep and comparing after it.  Returns (steps, temps, mags,
    flips, floor_used, m_ns)."""
    g = as_box(g)
    config = SpinConfig.all_plus(g)
    t = feedback_temperature(config, a)
    n_rec = total // tau
    steps = np.empty(n_rec, dtype=np.int64)
    temps = np.empty(n_rec, dtype=np.float64)
    mags = np.empty(n_rec, dtype=np.int64)
    flips = np.empty(n_rec, dtype=np.int64)
    floored = np.zeros(n_rec, dtype=bool)
    m_ns = np.full(n_rec, -1, dtype=np.int64)
    for r in range(n_rec):
        nflip = 0
        for _ in range(tau):
            before = config.spins.copy()
            heat_bath_sweep_oracle(config, t, rng)
            nflip += int((config.spins != before).sum())
        m = config.magnetization()
        t = feedback_temperature(config, a)
        if t == 0.0:
            t = EPS_T
            floored[r] = True
        steps[r] = (r + 1) * tau
        temps[r] = t
        mags[r] = m
        flips[r] = nflip
        if snapshot_every > 0 and (r + 1) % snapshot_every == 0:
            omega = es_ising_to_fk(config, t, rng)
            m_ns[r] = decompose(omega).m_count
    return steps, temps, mags, flips, floored, m_ns


def naive_mu_prime_oracle(g, a, total, rng, account_for_T_change=True):
    """The single-flip Metropolis chain on numpy spins, indexing one numpy
    element at a time.  Returns (temps, mags, flips)."""
    g = as_box(g)
    interior = g.interior_ids
    ni = interior.size
    n2a = float(g.n) ** (2 * a)
    if ni == 0:
        nsq = g.n * g.n
        return (np.full(total, nsq * nsq / n2a), np.full(total, nsq),
                np.zeros(total, dtype=np.int64))
    spins = SpinConfig.all_plus(g).spins
    nbrs = [g.neighbors[int(v)] for v in interior]
    m = int(spins.sum())
    h = -int((spins[g.edge_a].astype(np.int64) * spins[g.edge_b]).sum())
    temps = np.empty(total, dtype=np.float64)
    mags = np.empty(total, dtype=np.int64)
    flips = np.empty(total, dtype=np.int64)
    for sweep in range(total):
        picks = rng.integers(0, ni, size=ni)
        us = rng.random(ni)
        nflip = 0
        for i in range(ni):
            v = int(interior[picks[i]])
            s = int(spins[v])
            local = int(spins[nbrs[picks[i]]].sum())
            dh = 2 * s * local
            m_new = m - 2 * s
            if m_new == 0:
                continue
            if account_for_T_change:
                log_acc = h / (m * m / n2a) - (h + dh) / (m_new * m_new / n2a)
            else:
                log_acc = -dh / (m * m / n2a)
            if log_acc >= 0 or us[i] < math.exp(log_acc):
                spins[v] = -s
                m = m_new
                h += dh
                nflip += 1
        temps[sweep] = m * m / n2a
        mags[sweep] = m
        flips[sweep] = nflip
    return temps, mags, flips


def maximal_subset_H1_oracle(omega, h0, target: int) -> tuple[np.ndarray, int]:
    """The greedy subset H1 and its first rejected edge, one edge of the
    sorted h0 at a time, labelling the whole box after every closure."""
    h0 = np.asarray(sorted(int(e) for e in h0), dtype=np.int64)
    m0 = decompose(close_edges(omega, h0)).m_count
    m_full = decompose(omega).m_count
    if not m0 < target <= m_full:
        raise ValueError(
            f"greedy cut needs count after full closure ({m0}) < target "
            f"({target}) <= count before ({m_full})"
        )
    cur = omega.copy()
    kept = []
    witness = -1
    for e in h0:
        cur.bonds[e] = 0
        if decompose(cur).m_count >= target:
            kept.append(int(e))
        else:
            cur.bonds[e] = 1
            if witness < 0:
                witness = int(e)
    # m0 < target guarantees at least one rejection
    assert witness >= 0
    return np.array(kept, dtype=np.int64), witness


def sample_chain_oracle(omega0, params, n_samples, burn_in, thin, rng,
                        method="sw") -> list:
    """Thinned samples of a sampler chain after burn-in, as a list of bond
    configurations; every Swendsen-Wang step labels its own input."""
    step = {"sw": swendsen_wang_step,
            "single-bond": single_bond_heat_bath_sweep}[method]
    omega = omega0
    for _ in range(burn_in):
        omega = step(omega, params, rng)
    out = []
    for _ in range(n_samples):
        for _ in range(thin):
            omega = step(omega, params, rng)
        out.append(omega)
    return out


def assert_fields_bit_equal(got, want) -> None:
    """Every field of two law dataclasses holds the same bits: arrays in
    dtype, shape and bytes, numbers as float64 bytes; a box by its side."""
    for f in dataclasses.fields(want):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if isinstance(y, BoxGeometry):
            assert x.n == y.n, f.name
            continue
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
        assert x.tobytes() == y.tobytes(), f.name


def prob_of_oracle(spins, probs, config) -> float:
    """Probability of a SpinConfig or raw spin array under the law with
    rows `spins`, through a dict keyed by each row's int8 bytes."""
    index = {row.tobytes(): i for i, row in enumerate(spins)}
    arr = config.spins if isinstance(config, SpinConfig) else np.asarray(config, dtype=np.int8)
    i = index.get(arr.astype(np.int8).tobytes())
    return float(probs[i]) if i is not None else 0.0


def exact_ising_distribution_oracle(g, t: float) -> IsingDistribution:
    """The plus-boundary Gibbs law spelled out: -E/T, its logsumexp, and
    the normalized exponentials; T = 0 is the all-plus point mass."""
    g = as_box(g)
    if t == 0:
        rows = np.ones((1, g.n * g.n), dtype=np.int8)
        e = -float(g.n_edges)
        return IsingDistribution(
            n=g.n, t=0.0, spins=rows, probs=np.array([1.0]),
            energies=np.array([e]), magnetizations=np.array([g.n * g.n]),
            log_z=math.inf, z=math.inf,
        )
    table = plus_table(g)
    rows, energies, mags = table.spins, table.energies, table.magnetizations
    neg = -energies / t
    log_z = _logsumexp(neg)
    probs = np.exp(neg - log_z)
    probs /= probs.sum()
    try:
        z = math.exp(log_z)
    except OverflowError:
        z = math.inf
    return IsingDistribution(
        n=g.n, t=t, spins=rows, probs=probs, energies=energies,
        magnetizations=mags, log_z=log_z, z=z,
    )


def exact_mu_n_oracle(g, a: float) -> ExactMuN:
    """The self-tuned law with every level's Gibbs law computed afresh for
    each partition sum, and the rewrite sum run over b = -n^2..n^2."""
    g = as_box(g)
    n = g.n
    table = plus_table(g)
    spins, energies, mags = table.spins, table.energies, table.magnetizations
    nsq = n * n
    n2a = float(n) ** (2 * a)

    def log_weight_at(b2: int) -> np.ndarray:
        t = b2 / n2a
        le = -energies / t
        return le - _logsumexp(le)

    log_w = np.empty(len(mags), dtype=np.float64)
    for b2 in sorted(set(int(m) * int(m) for m in mags)):
        rows = np.flatnonzero(mags * mags == b2)
        log_w[rows] = log_weight_at(b2)[rows]
    weights = np.exp(log_w)
    z_direct = float(weights.sum())

    z_rewrite = 0.0
    for b in range(-nsq, nsq + 1):
        if b == 0:
            continue
        rows = np.flatnonzero(mags == b)
        if rows.size == 0:
            continue
        lw = log_weight_at(b * b)
        z_rewrite += float(np.exp(_logsumexp(lw[rows])))

    return ExactMuN(
        g=g, a=a, spins=spins, mags=mags, energies=energies,
        temps=(mags.astype(float) ** 2) / n2a,
        probs=weights / z_direct, z_direct=z_direct, z_rewrite=z_rewrite,
    )


def exact_mu_prime_oracle(g, a: float) -> ExactMuN:
    """The weight exp(-H/T(sigma)) with m = 0 rows guarded to weight zero."""
    g = as_box(g)
    n = g.n
    table = plus_table(g)
    spins, energies, mags = table.spins, table.energies, table.magnetizations
    n2a = float(n) ** (2 * a)
    log_w = np.where(mags == 0, -np.inf, -energies * n2a / np.maximum(mags.astype(float) ** 2, 1e-300))
    log_z = _logsumexp(log_w)
    weights = np.exp(log_w - log_z)
    return ExactMuN(
        g=g, a=a, spins=spins, mags=mags, energies=energies,
        temps=(mags.astype(float) ** 2) / n2a,
        probs=weights, z_direct=math.exp(log_z), z_rewrite=math.exp(log_z),
    )


def _plus_mag_tail_oracle(table, t: float, lo, hi) -> float:
    """mu+ probability that |m| >= lo (and/or <= hi), with the Gibbs law at
    t spelled out."""
    energies = table.energies
    am = np.abs(table.magnetizations)
    if t == 0:
        probs = (energies == energies.min()).astype(float)
        probs /= probs.sum()
    else:
        le = -energies / t
        probs = np.exp(le - _logsumexp(le))
    keep = np.ones(len(am), dtype=bool)
    if lo is not None:
        keep &= am >= lo
    if hi is not None:
        keep &= am <= hi
    return float(probs[keep].sum())


def deviation_bound_check_oracle(g, a: float, eps: float) -> DeviationReport:
    """Both deviation inequalities from a second enumeration of the plus
    table and the oracle self-tuned law."""
    g = as_box(g)
    n = g.n
    mu = exact_mu_n_oracle(g, a)
    table = plus_table(g)
    nsq = n * n
    n2a = float(n) ** (2 * a)

    t_hi = T_CRITICAL + eps
    thr_hi = float(n) ** a * math.sqrt(t_hi)
    lhs_above = float(mu.probs[mu.temps >= t_hi].sum())
    grid_above = [b * b / n2a for b in range(nsq + 1) if b * b / n2a >= t_hi]
    grid_above.append(t_hi)
    rhs_above = (nsq + 1) / mu.z_direct * max(
        _plus_mag_tail_oracle(table, t, lo=thr_hi, hi=None) for t in grid_above
    )

    t_lo = T_CRITICAL - eps
    if t_lo < 0:
        lhs_below = 0.0
        rhs_below = 0.0
        grid_below = []
    else:
        thr_lo = float(n) ** a * math.sqrt(t_lo)
        lhs_below = float(mu.probs[mu.temps <= t_lo].sum())
        grid_below = [b * b / n2a for b in range(nsq + 1) if b * b / n2a <= t_lo]
        grid_below.append(t_lo)
        rhs_below = (nsq + 1) / mu.z_direct * max(
            _plus_mag_tail_oracle(table, t, lo=None, hi=thr_lo) for t in grid_below
        )

    return DeviationReport(
        n=n, a=a, eps=eps, z_n=mu.z_direct,
        lhs_above=lhs_above, rhs_above=rhs_above,
        lhs_below=lhs_below, rhs_below=rhs_below,
        grid_above=np.array(grid_above), grid_below=np.array(grid_below),
    )
