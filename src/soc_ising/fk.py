"""Random-cluster (FK) configurations on the box: decomposition, exact law,
samplers, cluster events.

Bond configurations live on the box edge list (1 = open).  Free boundary
counts every open cluster; wired counts all boundary-touching vertices as a
single cluster.  `cluster_labels` labels the clusters of given bonds, for
one configuration or a stack of them: the open +y bonds join each x-row
into vertical runs in one cumulative sum, and hooking with pointer jumping
joins the runs across the open +x bonds.  Cluster decompositions built on
it carry the observables used throughout: boundary-connected set, interior
cluster sizes, singleton counts.  The exact law labels all 2^E
configurations instead by edge insertion (`enumerate_bond_configs`): in
bitmask order, the configurations with an edge open are those without it
plus one cluster merge.
`sample_chain` labels each kept sample once and yields it with its
decomposition, which the next Swendsen-Wang step reuses.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .lattice import BoxGeometry, _checked_ids, _checked_index, as_box


def p_critical(q: float) -> float:
    """Self-dual point sqrt(q) / (1 + sqrt(q)) of the random-cluster model."""
    if not (math.isfinite(q) and q >= 1):
        raise ValueError(f"cluster weight q must be finite and >= 1, got {q!r}")
    r = math.sqrt(q)
    return r / (1.0 + r)


@dataclass
class FKParams:
    """Edge probability p, cluster weight q, boundary condition (0 free, 1 wired)."""

    p: float
    q: float
    bc: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if not (math.isfinite(self.q) and self.q >= 1):
            raise ValueError(f"q must be finite and >= 1, got {self.q!r}")
        if self.bc not in (0, 1):
            raise ValueError("bc must be 0 (free) or 1 (wired)")


def _checked_bitmask(g: BoxGeometry, mask: int) -> int:
    """`mask` as an int, refused unless it is a bitmask of the box's edges."""
    mask = _checked_index(mask, "bitmask")
    if not 0 <= mask < 1 << g.n_edges:
        raise ValueError(f"bitmask outside [0, 2^{g.n_edges})")
    return mask


class BondConfig:
    """Open/closed assignment per edge, in the deterministic edge order."""

    __slots__ = ("g", "bonds")

    def __init__(self, g: BoxGeometry, bonds):
        bonds = np.asarray(bonds)
        if bonds.shape != (g.n_edges,):
            raise ValueError("bond array has wrong length")
        # checked before the cast, which would make 0.5 a 0 and 257 a 1
        if not ((bonds == 0) | (bonds == 1)).all():
            raise ValueError("bonds must be 0 or 1")
        self.g = g
        self.bonds = bonds.astype(np.uint8, copy=False)

    @classmethod
    def _built(cls, g: BoxGeometry, bonds: np.ndarray) -> "BondConfig":
        """A configuration from bonds the library has just built: a uint8
        array of 0s and 1s of length g.n_edges, taken without a check."""
        omega = object.__new__(cls)
        omega.g = g
        omega.bonds = bonds
        return omega

    @classmethod
    def all_open(cls, g: BoxGeometry) -> "BondConfig":
        return cls(g, np.ones(g.n_edges, dtype=np.uint8))

    @classmethod
    def all_closed(cls, g: BoxGeometry) -> "BondConfig":
        return cls(g, np.zeros(g.n_edges, dtype=np.uint8))

    @classmethod
    def from_bitmask(cls, g: BoxGeometry, mask: int) -> "BondConfig":
        """The configuration whose open edges are the set bits of `mask`
        (bit e = edge e), exact at any number of edges."""
        mask = _checked_bitmask(g, mask)
        raw = np.frombuffer(mask.to_bytes((g.n_edges + 7) // 8, "little"),
                            dtype=np.uint8)
        return cls(g, np.unpackbits(raw, count=g.n_edges, bitorder="little"))

    def to_bitmask(self) -> int:
        """Inverse of `from_bitmask`: a Python int, exact at any size."""
        return int.from_bytes(np.packbits(self.bonds, bitorder="little").tobytes(),
                              "little")

    def open_count(self) -> int:
        return int(self.bonds.sum())

    def copy(self) -> "BondConfig":
        return BondConfig._built(self.g, self.bonds.copy())


def close_edges(omega: BondConfig, edge_ids) -> BondConfig:
    """New configuration with the given edges closed (ids validated)."""
    bonds = omega.bonds.copy()
    bonds[_checked_ids(edge_ids, bonds.size, "edge")] = 0
    return BondConfig._built(omega.g, bonds)


class ClusterDecomposition:
    """Connected components of the open subgraph, with the derived counts.

    Cluster ids are assigned by first appearance in vertex order, so the
    labelling is deterministic for a given configuration.  k0 counts every
    cluster; k1 counts the boundary-touching ones as a single merged cluster
    (interior clusters + 1).
    """

    def __init__(self, g: BoxGeometry, labels: np.ndarray):
        self.g = g
        self.labels = labels
        self.n_clusters = int(labels.max()) + 1 if labels.size else 0
        self.sizes = np.bincount(labels, minlength=self.n_clusters)
        touches = np.zeros(self.n_clusters, dtype=bool)
        touches[labels[g.boundary_ids]] = True
        self.touches_boundary = touches
        self.m_mask = touches[labels]
        self.m_count = int(self.m_mask.sum())
        self.interior_cluster_ids = np.flatnonzero(~touches)
        self.interior_sizes = self.sizes[self.interior_cluster_ids]
        self._members: list[np.ndarray] | None = None

    @property
    def k0(self) -> int:
        return self.n_clusters

    @property
    def k1(self) -> int:
        return len(self.interior_cluster_ids) + 1

    @property
    def max_interior(self) -> int:
        return int(self.interior_sizes.max()) if self.interior_sizes.size else 0

    @property
    def sum_sq_interior(self) -> int:
        return int((self.interior_sizes.astype(np.int64) ** 2).sum())

    @property
    def unit_interior_count(self) -> int:
        """Number of interior singleton clusters."""
        return int((self.interior_sizes == 1).sum())

    @property
    def u_halfgrid(self) -> int:
        """Interior singletons at even 1-norm sites (one half of the grid)."""
        v = np.flatnonzero(self.g.halfgrid_mask)
        return int((self.sizes[self.labels[v]] == 1).sum())

    def cluster_size_of(self, v: int) -> int:
        return int(self.sizes[self.labels[v]])

    def cluster_vertices(self, cid: int) -> np.ndarray:
        if self._members is None:
            order = np.argsort(self.labels, kind="stable")
            splits = np.cumsum(self.sizes)[:-1]
            self._members = np.split(order, splits)
        return self._members[cid]

    def interior_clusters(self) -> list[frozenset]:
        return [
            frozenset(int(v) for v in self.cluster_vertices(int(c)))
            for c in self.interior_cluster_ids
        ]


def cluster_labels(g: BoxGeometry, bonds) -> np.ndarray:
    """Cluster ids of every vertex for one bond configuration (shape (E,))
    or for M of them (shape (M, E)); returns shape (M, n*n).

    Vertex v = i*n + j sits in x-row i.  In the edge order, x-row i < n-1
    is a block of 2n - 1 edges, (v, v+1) then (v, v+n) for j < n-1 and
    (v, v+n) last, and the last x-row holds its n - 1 edges (v, v+1); so
    the +y and +x bonds of the M rows are strided views of `bonds`.  A
    vertex starts a run unless its +y bond to v - 1 is open, and the run
    ids, the running count of starts, increase in vertex order.
    The rows form one block-diagonal graph of runs joined by the open +x
    bonds.  Each such bond hooks the larger of its two root runs under the
    smaller (np.minimum.at), then pointer jumping flattens the forest,
    until every open +x bond joins a single root.  Parents only decrease,
    so each root is the smallest run of its cluster, which holds the
    cluster's smallest vertex; ranking the roots row by row numbers the
    clusters of a row by first appearance in vertex order (the
    Hoshen-Kopelman numbering).
    """
    rows = np.asarray(bonds)
    if rows.ndim == 1:
        rows = rows[None]
    m, n = rows.shape[0], g.n
    w, k = 2 * n - 1, (n - 1) * (2 * n - 1)
    head = rows[:, :k].reshape(m, n - 1, w)
    # start[v]: the +y bond (v-1, v) is closed, so v starts a run
    start = np.ones((m, n, n), dtype=bool)
    np.equal(head[:, :, 0:w - 1:2], 0, out=start[:, :n - 1, 1:])
    np.equal(rows[:, k:], 0, out=start[:, n - 1, 1:])
    # run ids from 1; id 0 stays an unused root, which shifts every rank
    # by the same 1
    run = start.cumsum()
    del start
    # xo[v]: the +x bond (v, v+n) is open
    xo = np.zeros((m, n, n), dtype=bool)
    xo[:, :n - 1, :n - 1] = head[:, :, 1::2]
    xo[:, :n - 1, n - 1] = head[:, :, w - 1]
    v = np.flatnonzero(xo)
    del xo
    # every run starts as its own root, and run[v] < run[v+n]
    a = lo = run[v]
    b = hi = run[n:][v]
    del v
    parent = np.arange(run[-1] + 1 if run.size else 1)
    while a.size:
        np.minimum.at(parent, hi, lo)
        up = parent[parent]
        while np.count_nonzero(up != parent):
            parent, up = up, up[up]
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        lo, hi = np.minimum(ra, rb), np.maximum(ra, rb)
    rank = (parent == np.arange(parent.size)).cumsum()
    # relabel in place: at side 1024 each temporary is 8 MB; the take
    # reads index i before it writes slot i, and "clip" skips the copy
    # that the default "raise" mode makes of `out`
    np.take(parent, run, out=run, mode="clip")
    np.take(rank, run, out=run, mode="clip")
    labels = run.reshape(m, n * n)
    labels -= labels[:, :1]
    return labels


def decompose(omega: BondConfig) -> ClusterDecomposition:
    """Cluster decomposition of the open subgraph."""
    return ClusterDecomposition(omega.g, cluster_labels(omega.g, omega.bonds)[0])


def _weights(params: FKParams, n_edges: int, ks, opens) -> np.ndarray:
    """Unnormalized random-cluster weights q^k p^o (1-p)^(E-o) of the
    configurations with k clusters and o of their E edges open, for every k
    in `ks` and o in `opens`, as a table indexed [k, o]."""
    p, q = params.p, params.q
    q_pow = np.array([q ** k for k in ks], dtype=np.float64)
    p_pow = np.array([p ** o for o in opens], dtype=np.float64)
    c_pow = np.array([(1.0 - p) ** (n_edges - o) for o in opens], dtype=np.float64)
    return q_pow[:, None] * p_pow * c_pow


def fk_weight(omega: BondConfig, params: FKParams) -> float:
    """Unnormalized random-cluster weight q^clusters p^open (1-p)^closed."""
    dec = decompose(omega)
    k = dec.k1 if params.bc == 1 else dec.k0
    return float(_weights(params, omega.g.n_edges, [k], [omega.open_count()])[0, 0])


def _weight_table(g: BoxGeometry, params: FKParams) -> np.ndarray:
    """`_weights` at every cluster count and open count of a box small
    enough to enumerate."""
    ne = g.n_edges
    if ne > 24:
        raise ValueError("exact enumeration limited to <= 24 edges (side <= 4)")
    return _weights(params, ne, range(g.n * g.n + 1), range(ne + 1))


@dataclass
class FKDistribution:
    """Exact law over all 2^E bond configurations (bit e of the index = edge e).

    probs[mask] is the probability of the configuration whose open set is the
    bitmask; z is the partition sum of unnormalized weights.
    """

    g: BoxGeometry = field(repr=False)
    params: FKParams
    probs: np.ndarray = field(repr=False)
    z: float

    def prob_of(self, omega: BondConfig | int) -> float:
        """Probability of a configuration of this box, or of its bitmask."""
        if not isinstance(omega, BondConfig):
            mask = _checked_bitmask(self.g, omega)
        elif omega.g.n != self.g.n:
            raise ValueError(f"configuration of a side-{omega.g.n} box, "
                             f"law of a side-{self.g.n} box")
        else:
            mask = omega.to_bitmask()
        return float(self.probs[mask])

    def edge_marginal(self, e: int) -> float:
        """Probability that edge e is open."""
        e = _checked_index(e, "edge id")
        if not 0 <= e < self.g.n_edges:
            raise ValueError("edge id out of range")
        p = self.probs.reshape(1 << (self.g.n_edges - e - 1), 2, 1 << e)
        return float(p[:, 1, :].sum())


# the low edges whose configurations make up one block of the enumeration
_LOW = 10


def _join(labels: np.ndarray, a, b) -> np.ndarray:
    """`labels` (column r: the cluster id of every vertex in configuration
    r, numbered by first appearance in vertex order) with the edge (a, b)
    open: in each column the later of the two clusters joins the earlier
    and the ids above it drop by one, so the numbering stays by first
    appearance."""
    la, lb = labels[a], labels[b]
    lo = np.minimum(la, lb)
    hi = np.maximum(la, lb)
    # columns where a and b already share a cluster stay as they are
    hi[lo == hi] = labels.shape[0]
    return np.where(labels == hi, lo, labels - (labels > hi))


def enumerate_bond_configs(g: BoxGeometry, wired: bool):
    """All 2^E bond configurations in bitmask order (bit e = edge e), in
    blocks of 2^min(E, 10), labelled by edge insertion (Newman and Ziff,
    PRL 85, 4104 (2000)).  Yields (first mask, open edge counts, labels),
    labels[v, r] the uint8 cluster id of vertex v in configuration r.

    Clusters are numbered by first appearance in vertex order; wired, every
    boundary vertex is glued into cluster 0, so the interior clusters are 1
    to the largest id.  The low 10 edges open by doubling (those with edge
    e open are those without it, each with one `_join`); block h of the
    high edges is block h & (h - 1) with h's lowest set bit joined, taken
    from a stack of h's ancestors.  The yielded labels are shared with that
    stack and must not be written.
    """
    ne, nsq = g.n_edges, g.n * g.n
    low = min(ne, _LOW)
    first = np.arange(nsq, dtype=np.uint8)
    if wired:
        first[g.boundary_ids] = 0
        first[g.interior_ids] = np.arange(1, g.interior_ids.size + 1)
    labels, opens = first[:, None], np.zeros(1, dtype=np.intp)
    for e in range(low):
        joined = _join(labels, g.edge_a[e], g.edge_b[e])
        labels = np.concatenate([labels, joined], axis=1)
        opens = np.concatenate([opens, opens + 1])
    stack = [(0, labels)]
    for h in range(1 << (ne - low)):
        if h:
            up = h & (h - 1)
            while stack[-1][0] != up:
                stack.pop()
            e = low + (h ^ up).bit_length() - 1
            stack.append((h, _join(stack[-1][1], g.edge_a[e], g.edge_b[e])))
        yield h << low, opens + h.bit_count(), stack[-1][1]


def exact_fk_distribution(g: BoxGeometry | int, params: FKParams) -> FKDistribution:
    """Exact finite-volume law by enumerating all bond configurations.

    Supported up to 24 edges (side 4); the side-4 wired law takes 0.7-1.2 s
    (11.6-17.5 s with a `cluster_labels` call per block of 1,024) and
    peaks near 165 MB of RSS either way, most of it the 128 MB of weights
    (2-CPU Intel Xeon, Python 3.11.7, numpy 2.4.6); tests of the law stay
    at side <= 3.
    """
    g = as_box(g)
    table = _weight_table(g, params)
    weights = np.empty(1 << g.n_edges, dtype=np.float64)
    for start, opens, labels in enumerate_bond_configs(g, wired=params.bc == 1):
        weights[start:start + len(opens)] = table[labels.max(axis=0) + 1, opens]
    z = float(weights.sum())
    weights /= z
    return FKDistribution(g=g, params=params, probs=weights, z=z)


_SIGNS = np.array([-1, 1], dtype=np.int8)


def cluster_spins(g: BoxGeometry, labels: np.ndarray, rng: np.random.Generator,
                  wired: bool) -> np.ndarray:
    """Spins constant on each cluster of the labelling: fair signs drawn in
    cluster-id order, except that under the wired condition the
    boundary-touching clusters take the plus sign and draw nothing."""
    k = int(labels.max()) + 1
    signs = np.ones(k, dtype=np.int8)
    draw = np.ones(k, dtype=bool)
    if wired:
        draw[labels[g.boundary_ids]] = False
    n_draw = np.count_nonzero(draw)
    if n_draw:
        # each draw of 0 or 1 picks the sign -1 or +1
        signs[draw] = _SIGNS[rng.integers(0, 2, size=n_draw)]
    return signs[labels]


def equal_spin_bonds(g: BoxGeometry, spins: np.ndarray, p: float,
                     rng: np.random.Generator) -> BondConfig:
    """Bond half of the Edwards-Sokal coupling: one uniform per edge, in
    edge order; an edge opens iff its endpoints carry equal spins and its
    uniform is below p."""
    eq = spins[g.edge_a] == spins[g.edge_b]
    u = rng.random(g.n_edges)
    return BondConfig._built(g, (eq & (u < p)).view(np.uint8))


def swendsen_wang_step(omega: BondConfig, params: FKParams, rng: np.random.Generator,
                       dec: ClusterDecomposition | None = None) -> BondConfig:
    """One cluster-update step targeting the q = 2 random-cluster law.

    Interior clusters draw independent fair signs (in cluster-id order);
    under the wired condition every boundary-touching cluster acts as one
    merged cluster and takes the plus sign, while under the free condition
    boundary clusters draw signs like any other.  Edges joining equal signs
    reopen with probability p, all others close.  `dec`, when given, must be
    decompose(omega); its labels are then read instead of made again.
    """
    if params.q != 2:
        raise ValueError("cluster step is specific to q = 2")
    g = omega.g
    labels = cluster_labels(g, omega.bonds)[0] if dec is None else dec.labels
    return equal_spin_bonds(g, cluster_spins(g, labels, rng, wired=params.bc == 1),
                            params.p, rng)


def _bridge_query(omega: BondConfig, wired: bool):
    """The bridge query: are the endpoints of edge e joined by open edges
    other than e?

    Returns (bonds, connected).  `bonds` is a bytearray copy of omega's
    bonds (1 = open) plus one last byte that stays 0: the -1 padding of
    the adjacency reads it as a closed edge.  connected(e) answers for
    `bonds` as they are at the call, so a caller may update them between
    queries.  Under the wired condition every boundary vertex maps to one
    glued node, numbered n*n, which carries all their neighbours (edges
    inside the boundary become self-loops there, which a search skips as
    already seen).  Two breadth-first searches grow from the two endpoints,
    one layer at a time, always expanding the smaller frontier; they stop
    when they meet (connected) or when either side runs out (not
    connected), so a query costs about the size of the smaller side
    (Sweeney, PRB 27, 4445 (1983); Elci and Weigel, PRE 88, 033303 (2013)).
    """
    g = omega.g
    bonds = bytearray(omega.bonds)
    bonds.append(0)
    nsq = g.n * g.n
    nbr, ends, glued = g.neighbors, g.edges, []
    if wired:
        node = np.arange(nsq + 1)
        node[g.boundary_ids] = nsq
        nbr, ends, glued = node[nbr], node[ends], g.boundary_ids.tolist()
    nbr, inc, ends = nbr.tolist(), g.incident_edges.tolist(), ends.tolist()
    nbr.append([w for v in glued for w in nbr[v]])
    inc.append([k for v in glued for k in inc[v]])
    # mark[v] == stamp: seen from the first endpoint; stamp + 1: the second
    mark = [0] * (nsq + 1)
    stamp = 0

    def connected(e: int) -> bool:
        nonlocal stamp
        x, y = ends[e]
        if x == y:
            return True
        stamp += 2
        # (frontier, own mark) of the side to grow next, then of the other
        fx, sx, fy, sy = [x], stamp, [y], stamp + 1
        mark[x], mark[y] = sx, sy
        while fx and fy:
            if len(fx) > len(fy):
                fx, sx, fy, sy = fy, sy, fx, sx
            layer = []
            for v in fx:
                for w, k in zip(nbr[v], inc[v]):
                    if bonds[k] and k != e:
                        m = mark[w]
                        if m == sy:
                            return True
                        if m != sx:
                            mark[w] = sx
                            layer.append(w)
            fx = layer
        return False

    return bonds, connected


def single_bond_conditional(omega: BondConfig, e: int, params: FKParams) -> float:
    """Conditional probability that edge e is open given all other edges:
    p when its endpoints are joined without it (the bridge query), else
    p / (p + (1 - p) q)."""
    e = _checked_index(e, "edge id")
    if not 0 <= e < omega.g.n_edges:
        raise ValueError("edge id out of range")
    p, q = params.p, params.q
    if _bridge_query(omega, params.bc == 1)[1](e):
        return p
    return p / (p + (1.0 - p) * q)


def single_bond_heat_bath_sweep(
    omega: BondConfig,
    params: FKParams,
    rng: np.random.Generator,
) -> BondConfig:
    """One pass of edge-by-edge heat-bath resampling, in edge order.

    Each edge is redrawn from its exact conditional law given the rest; one
    uniform u[e] is drawn per edge, all in one call.  The conditional is
    either p or merge_p = p / (p + (1 - p) q), so u[e] below both opens the
    edge and u[e] at or above both closes it; only the edges with u[e] in
    between ask the bridge query, against the bonds as updated so far.
    Valid for any q >= 1 (at q = 1 the conditional is p regardless of
    connectivity: independent resampling, with no query).
    """
    g = omega.g
    u = rng.random(g.n_edges)
    p, q = params.p, params.q
    merge_p = p / (p + (1.0 - p) * q)
    # the conditional is p or merge_p, and always p when q = 1
    lo, hi = (p, p) if q == 1.0 else (min(p, merge_p), max(p, merge_p))
    decided = (u < lo).view(np.uint8)
    ul = u.tolist()
    window = [e for e, ue in enumerate(ul) if lo <= ue < hi]
    if not window:
        return BondConfig._built(g, decided)
    new = decided.tobytes()
    bonds, connected = _bridge_query(omega, params.bc == 1)
    start = 0
    for e in window:
        # edges before e take their new values, edges after e keep the old
        bonds[start:e] = new[start:e]
        bonds[e] = ul[e] < (p if connected(e) else merge_p)
        start = e + 1
    bonds[start:g.n_edges] = new[start:]
    return BondConfig._built(g, np.frombuffer(bonds, dtype=np.uint8,
                                              count=g.n_edges))


def bernoulli_bonds(g: BoxGeometry, p: float, rng: np.random.Generator) -> BondConfig:
    """Direct sample of independent bond percolation (the q = 1 law)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return BondConfig._built(g, (rng.random(g.n_edges) < p).view(np.uint8))


def _chain_step(method: str, params: FKParams, rng: np.random.Generator):
    """One-step update of the named sampler chain: a Swendsen-Wang step or
    a single-bond sweep.  Steps take (omega, dec), with dec either
    decompose(omega) or None, and keep no state between calls."""
    if method == "sw":
        return lambda omega, dec: swendsen_wang_step(omega, params, rng, dec)
    if method == "single-bond":
        return lambda omega, dec: single_bond_heat_bath_sweep(omega, params, rng)
    raise ValueError(f"unknown method {method!r}")


def visit_counts(
    omega0: BondConfig,
    params: FKParams,
    steps: int,
    rng: np.random.Generator,
    method: str = "sw",
) -> np.ndarray:
    """State visit counts of a sampler chain over all 2^E configurations."""
    g = omega0.g
    if g.n_edges > 20:
        raise ValueError("visit counting limited to <= 20 edges")
    counts = np.zeros(1 << g.n_edges, dtype=np.int64)
    step = _chain_step(method, params, rng)
    omega = omega0
    for _ in range(steps):
        omega = step(omega, None)
        counts[omega.to_bitmask()] += 1
    return counts


def sample_chain(
    omega0: BondConfig,
    params: FKParams,
    n_samples: int,
    burn_in: int,
    thin: int,
    rng: np.random.Generator,
    method: str = "sw",
) -> Iterator[tuple[BondConfig, ClusterDecomposition]]:
    """Thinned samples from a sampler chain after burn-in, yielded as
    (omega, decompose(omega)) pairs.

    Each kept sample is labelled once: the step after it reuses its
    decomposition.  An unknown method raises here, not at the first sample.
    """
    return _chain(_chain_step(method, params, rng), omega0, n_samples,
                  burn_in, thin)


def _chain(step, omega: BondConfig, n_samples: int, burn_in: int, thin: int):
    for _ in range(burn_in):
        omega = step(omega, None)
    dec = None
    for _ in range(n_samples):
        for _ in range(thin):
            omega = step(omega, dec)
            dec = None
        dec = decompose(omega)
        yield omega, dec


@dataclass
class TailFit:
    """Exponential tail fit of a cluster-size law: tail(k) ~ exp(-psi k)."""

    psi_hat: float
    ci_low: float
    ci_high: float
    window: np.ndarray
    tail_probs: np.ndarray
    n_samples: int
    degenerate: bool


def tail_statistics(sizes, min_hits: int = 50) -> TailFit:
    """Fit the decay rate of P(|C(v)| >= k) from sampled cluster sizes.

    The fit regresses -log tail on k by least squares, with intercept, over
    the window of k whose tail still has at least `min_hits` samples; the CI
    is the normal 95% band on the slope.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n = len(sizes)
    if n == 0:
        raise ValueError("no samples")
    kmax = int(sizes.max())
    ks = np.arange(1, kmax + 1)
    counts = np.array([(sizes >= k).sum() for k in ks])
    keep = counts >= min_hits
    ks, counts = ks[keep], counts[keep]
    tail = counts / n
    if len(ks) < 3 or np.ptp(ks) == 0:
        return TailFit(math.nan, math.nan, math.nan, ks, tail, n, True)
    y = -np.log(tail)
    if np.ptp(y) == 0:
        # no decay observed inside the window
        return TailFit(math.nan, math.nan, math.nan, ks, tail, n, True)
    kbar = ks.mean()
    sxx = float(((ks - kbar) ** 2).sum())
    slope = float(((ks - kbar) * (y - y.mean())).sum() / sxx)
    resid = y - (y.mean() + slope * (ks - kbar))
    s2 = float((resid**2).sum() / (len(ks) - 2))
    se = math.sqrt(s2 / sxx)
    return TailFit(slope, slope - 1.96 * se, slope + 1.96 * se, ks, tail, n, False)


def event_D_n(dec: ClusterDecomposition, amp: float, b: float, c: float) -> bool:
    """Is the total mass of clusters of size >= n^b at least amp * n^c?

    Counts every cluster, boundary-touching ones included.
    """
    n = dec.g.n
    thr = float(n) ** b
    mass = int(dec.sizes[dec.sizes >= thr].sum())
    return mass >= amp * float(n) ** c


def event_Q_N(dec: ClusterDecomposition, requirements) -> bool:
    """Do the given vertices sit in pairwise distinct clusters of the given
    minimum sizes?  `requirements` is a sequence of (vertex id, min size)."""
    labels = set()
    for v, k in requirements:
        lab = int(dec.labels[v])
        if dec.cluster_size_of(int(v)) < k or lab in labels:
            return False
        labels.add(lab)
    return True


def external_cluster_boundary(cluster, g: BoxGeometry) -> np.ndarray:
    """Edges separating an interior cluster from the unbounded component of
    its complement (holes inside the cluster do not count).

    `cluster` is an iterable of vertex ids; it must not touch the box
    boundary.  The cluster and its holes are the vertices that the
    complement of the cluster does not join to the box boundary.  Returns
    sorted edge ids.
    """
    inside = g.vertex_mask(cluster)
    if not inside.any():
        raise ValueError("empty cluster")
    if (inside & g.boundary_mask).any():
        raise ValueError("cluster touches the box boundary")
    apart = ~(inside[g.edge_a] | inside[g.edge_b])
    filled = ~decompose(BondConfig(g, apart.view(np.uint8))).m_mask
    return np.flatnonzero(filled[g.edge_a] != filled[g.edge_b])
