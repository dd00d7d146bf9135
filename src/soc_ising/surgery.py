"""Cluster surgery: closing a small set of edges to steer the number of
boundary-connected vertices to an exact target, plus the event checkers
and the sign-compensation estimates built on top of it.

The pipeline runs in three stages.  A pigeonhole argument over disjoint
annuli picks a cheap cut H0; a greedy pass extracts a maximal subset H1
whose closure keeps the boundary-connected count at or above the target,
and the first rejected edge e witnesses that one more closure overshoots;
finally the cluster that e would sever is trimmed to the exact overshoot m
by cutting around a breadth-first ball, with e itself left open.  The net
count then lands on the target exactly.

Closing edges can only shrink the boundary-connected set, so the count is
monotone along H0.  The greedy pass therefore runs as a bisection over
prefixes of H0 and labels a logarithmic number of configurations per
rejected edge, with the same H1 and witness as the edge-by-edge loop.
The stages take the input's decomposition as an optional `dec`, which
must be the decomposition of omega itself, so that a surgery labels its
unchanged input at most once, and the greedy pass hands back the
decompositions it made of omega with H1 closed and with H0 closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import BoxGeometry, _checked_ids, _checked_index
from .fk import BondConfig, ClusterDecomposition, decompose, close_edges
from .soc import FeedbackParams, theta_asymptotic


@dataclass
class EventParams:
    """Shared parameters of the large-box events: the feedback exponent a,
    the inner box side n1 = floor(5n/6), the interior-cluster size cap
    n^(33/2 - 8a) with its integer floor N, the scale triple
    (lam, mu, nu) = (4, 3, 2), the tolerance delta, and the surgery budget
    constant K."""

    n: int
    a: float
    delta: float = 1.0 / 6.0
    K: float = 1.0
    lam: int = field(default=4, init=False)
    mu: int = field(default=3, init=False)
    nu: int = field(default=2, init=False)

    def __post_init__(self):
        self.n = _checked_index(self.n, "side", 1)
        if not FeedbackParams(self.a).valid_conditional_range:
            raise ValueError("exponent a must lie in (31/16, 2)")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")
        if not (math.isfinite(self.K) and self.K > 0):
            raise ValueError(f"K must be finite and > 0, got {self.K!r}")
        assert self.lam > self.mu > self.nu

    @property
    def s(self) -> float:
        return 16.0 - 8.0 * self.a

    @property
    def n1(self) -> int:
        return (5 * self.n) // 6

    @property
    def size_cap(self) -> float:
        """Interior-cluster size cap n^(33/2 - 8a) = n^(s + 1/2)."""
        return float(self.n) ** (16.5 - 8.0 * self.a)

    @property
    def N(self) -> int:
        return math.floor(self.size_cap)

    @property
    def h_budget(self) -> float:
        """Edge budget K n^(a/2) allowed to the surgery."""
        return self.K * float(self.n) ** (self.a / 2.0)


def annulus_cut_H0(omega: BondConfig, n1: int,
                   dec: ClusterDecomposition | None = None) -> tuple[int, np.ndarray]:
    """Cheapest annulus cut: the half-index j in [ceil(n1/2), floor((n-2)/2)]
    whose annulus edge set meets the fewest edges spanned by the
    boundary-connected vertices, together with that intersection.  n1 is
    the inner box side, `EventParams.n1`; `dec`, when given, must be the
    decomposition of omega itself.

    Pigeonhole over the disjoint annuli gives |H0| <= |spanned edges| / L
    with L the number of admissible j.
    """
    g = omega.g
    n = g.n
    if n < 12:
        raise ValueError("annulus cut needs side >= 12")
    jlo = -((-n1) // 2)
    jhi = (n - 2) // 2
    if jlo > jhi:
        raise ValueError("empty annulus range")
    mm = (decompose(omega) if dec is None else dec).m_mask
    spanned = mm[g.edge_a] & mm[g.edge_b]
    best_j, best_ids = -1, None
    for j in range(jlo, jhi + 1):
        ids = g.annulus_edges(2 * j)
        hit = ids[spanned[ids]]
        if best_ids is None or hit.size < best_ids.size:
            best_j, best_ids = j, hit
    return best_j, best_ids


def maximal_subset_H1(omega: BondConfig, h0, target: int,
                      dec: ClusterDecomposition | None = None
                      ) -> tuple[np.ndarray, int, ClusterDecomposition,
                                 ClusterDecomposition]:
    """Greedy maximal subset H1 of h0 whose closure keeps the number of
    boundary-connected vertices >= target, and the first rejected edge e.
    `dec`, when given, must be the decomposition of omega itself.  Also
    returns the decompositions of omega with H1 closed and with all of h0
    closed, which the stage labels on its way.

    Greedy in increasing edge order keeps an edge when closing it on top of
    the edges kept so far leaves the count >= target.  Closing extra edges
    only shrinks the boundary-connected set, so the count does not increase
    along h0, and closing an edge that is already closed changes nothing,
    so greedy keeps every closed edge.  Along the open edges f of h0, from
    the kept set, greedy keeps the longest run f[i:k] whose joint closure
    still meets the target, rejects f[k] and starts again at k + 1.  Each
    run is found with one probe of all remaining edges and, if that fails,
    a bisection over prefixes, so r rejections cost O((r + 1) log |h0|)
    labellings instead of |h0|.  By the same monotonicity every rejected
    edge still overshoots when added to the final H1, so e witnesses
    maximality.
    """
    h0 = np.asarray(sorted(int(e) for e in h0), dtype=np.int64)
    dec_h0 = decompose(close_edges(omega, h0))
    # dec_cur: the decomposition of omega with the kept edges closed
    dec_cur = decompose(omega) if dec is None else dec
    if not dec_h0.m_count < target <= dec_cur.m_count:
        raise ValueError(
            f"greedy cut needs count after full closure ({dec_h0.m_count}) "
            f"< target ({target}) <= count before ({dec_cur.m_count})"
        )
    f = h0[omega.bonds[h0] == 1]  # the open edges of h0, in order
    cur = omega.copy()  # omega with the kept edges closed

    def probe(i: int, k: int) -> ClusterDecomposition:
        """Decomposition with f[i:k] closed on top of the kept edges."""
        return decompose(close_edges(cur, f[i:k]))

    rejected = []
    i = 0
    # closing all of f[i:] misses the target; at i = 0 that is the
    # precondition, so there is at least one rejection
    while i < f.size:
        if i:
            rest = probe(i, f.size)
            if rest.m_count >= target:
                dec_cur = rest
                break
        lo, hi = i, f.size  # closing f[i:lo] meets the target, f[i:hi] not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            dec_mid = probe(i, mid)
            if dec_mid.m_count >= target:
                lo, dec_cur = mid, dec_mid
            else:
                hi = mid
        cur.bonds[f[i:lo]] = 0
        rejected.append(lo)
        i = lo + 1
    out = f[rejected]
    return h0[~np.isin(h0, out)], int(out[0]), dec_cur, dec_h0


def exact_cut_H2(g: BoxGeometry, cluster, edges, v: int, m: int) -> np.ndarray:
    """Cut edges so that the component of v inside the given cluster keeps
    exactly m vertices.

    The kept set is the first m vertices of a breadth-first traversal from
    v along the given edges, which is always connected; each vertex's
    neighbours are visited in the order of the box's adjacency rows, which
    is increasing vertex id.  H2 is every given edge leaving the kept set.
    """
    inside = g.vertex_mask(cluster)
    edges = _checked_ids(edges, g.n_edges, "edge")
    v = _checked_index(v, "vertex id")
    if not (0 <= v < inside.size and inside[v]):
        raise ValueError("v must belong to the cluster")
    size = int(inside.sum())
    m = _checked_index(m, "kept size m")
    if not 1 <= m <= size:
        raise ValueError(f"kept size m={m} outside 1..{size}")
    a, b = g.edge_a[edges], g.edge_b[edges]
    if not (inside[a] & inside[b]).all():
        raise ValueError("edge endpoints must lie in the cluster")
    # the adjacency rows with -1 wherever the edge is not given; the flag
    # after the last edge, which the rows' -1 padding reads, stays False
    given = np.zeros(g.n_edges + 1, dtype=bool)
    given[edges] = True
    nbr = np.where(given[g.incident_edges], g.neighbors, -1).tolist()
    order, seen = [v], {v, -1}  # -1 starts seen: the search never takes it
    for u in order:  # appending while iterating makes `order` the queue
        for w in nbr[u]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    if len(order) != size:
        raise ValueError("cluster is not connected by the given edges")
    kept = np.zeros(inside.size, dtype=bool)
    kept[order[:m]] = True
    return np.sort(edges[kept[a] != kept[b]])


@dataclass
class SurgeryResult:
    """Outcome of the three-stage cut toward target = ceil((|M| + b) / 2)."""

    success: bool
    stage: str
    b: int
    target: int
    m_before: int
    m_after: int
    j_star: int = -1
    h0: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    h1: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    h2: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    h: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    witness_edge: int = -1
    fine_m: int = 0
    disconnected: list = field(default_factory=list, repr=False)
    c0_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    parity_unit: int = -1
    identity_ok: bool = False
    cap_ok: bool = False
    units_ok: bool = False
    budget_used: float = 0.0


def _caps_outside(dec: ClusterDecomposition, in_c0: np.ndarray,
                  cap: float) -> tuple[bool, bool]:
    """Do the interior clusters outside the family in_c0 (a mask over
    cluster ids) stay within the size cap, and do at least the cap's worth
    of them have one vertex?"""
    out = dec.sizes[~dec.touches_boundary & ~in_c0]
    return bool(out.max(initial=0) <= cap), bool((out == 1).sum() >= cap)


def surgery(omega: BondConfig, b: int, params: EventParams,
            dec: ClusterDecomposition | None = None) -> SurgeryResult:
    """Close edges among those spanned by the boundary-connected set so that
    exactly ceil((|M| + b) / 2) vertices stay connected to the boundary,
    then collect the severed clusters.  `dec`, when given, must be the
    decomposition of omega itself; the stages share it, so the unchanged
    input is labelled at most once.

    The severed set plus (when |M| + b is odd) one pre-existing interior
    unit cluster satisfies count-after minus severed mass = b.  The two
    cap conditions on interior clusters (max size <= the size cap, enough
    interior singletons left over) describe the ambient configuration and
    are reported, not required, for success.
    """
    g = omega.g
    if b < 0:
        raise ValueError("target level b must be >= 0")
    dec0 = decompose(omega) if dec is None else dec
    m_before = dec0.m_count
    target = -((-(m_before + b)) // 2)
    need_unit = (m_before + b) % 2 == 1

    # each stage sets its own outputs; a failure reports those set so far
    h0 = h1 = h2 = np.empty(0, dtype=np.int64)
    j_star, witness, fine_m = -1, -1, 0

    def failure(stage):
        return SurgeryResult(success=False, stage=stage, b=b, target=target,
                             m_before=m_before, m_after=m_before, j_star=j_star,
                             h0=h0, h1=h1, h2=h2, witness_edge=witness,
                             fine_m=fine_m)

    if target > m_before:
        return failure("target-above-count")

    # dec_h: the decomposition of omega with H closed
    if target == m_before:
        dec_h = dec0
    else:
        try:
            j_star, h0 = annulus_cut_H0(omega, params.n1, dec0)
        except ValueError:
            return failure("annulus-precondition")
        try:
            h1, witness, dec_h, dec_h0 = maximal_subset_H1(omega, h0, target,
                                                           dec0)
        except ValueError:
            return failure("greedy-precondition")
        if dec_h.m_count != target:
            omega_h1 = close_edges(omega, h1)
            omega_we = close_edges(omega_h1, [witness])
            # after a single rejection, H1 and the witness make up all of H0
            dec_we = dec_h0 if h0.size - h1.size == 1 else decompose(omega_we)
            va, vb = int(g.edge_a[witness]), int(g.edge_b[witness])
            # exactly one endpoint loses boundary contact
            v = va if not dec_we.m_mask[va] else vb
            if dec_we.m_mask[v]:
                return failure("witness-no-drop")
            cluster = dec_we.cluster_vertices(int(dec_we.labels[v]))
            fine_m = target - dec_we.m_count
            if not 1 <= fine_m <= cluster.size:
                return failure("fine-cut-range")
            # an open edge with an endpoint in the cluster lies inside it
            e_v = np.flatnonzero(omega_we.bonds.astype(bool)
                                 & (dec_we.labels[g.edge_a] == dec_we.labels[v]))
            h2 = exact_cut_H2(g, cluster, e_v, v, fine_m)
            dec_h = decompose(close_edges(omega_h1, h2))

    # disjoint: h2 holds edges that are still open once h1 is closed
    h = np.sort(np.concatenate([h1, h2]))
    m_after = dec_h.m_count
    if m_after != target:
        return failure("count-mismatch")

    # the family c0, as a mask over the clusters of dec_h: the newly
    # severed ones (interior, made of formerly boundary-connected vertices)
    # and, when the parity needs one, the first interior singleton of omega
    in_c0 = np.zeros(dec_h.n_clusters, dtype=bool)
    in_c0[dec_h.labels[dec0.m_mask]] = True
    in_c0 &= ~dec_h.touches_boundary
    c0 = [dec_h.cluster_vertices(int(cid)) for cid in np.flatnonzero(in_c0)]
    parity_unit = -1
    if need_unit:
        units = np.flatnonzero(~g.boundary_mask & (dec0.sizes[dec0.labels] == 1))
        if not units.size:
            return failure("parity-unit-missing")
        parity_unit = int(units[0])
        c0.append(np.array([parity_unit], dtype=np.int64))
        in_c0[dec_h.labels[parity_unit]] = True

    c0_sizes = np.array([c.size for c in c0], dtype=np.int64)
    identity_ok = m_after - int(c0_sizes.sum()) == b
    cap_ok, units_ok = _caps_outside(dec_h, in_c0, params.size_cap)

    return SurgeryResult(
        success=identity_ok, stage="ok" if identity_ok else "identity-mismatch",
        b=b, target=target, m_before=m_before, m_after=m_after,
        j_star=j_star, h0=h0, h1=h1, h2=h2, h=h,
        witness_edge=witness, fine_m=fine_m,
        disconnected=c0, c0_sizes=c0_sizes, parity_unit=parity_unit,
        identity_ok=identity_ok, cap_ok=cap_ok, units_ok=units_ok,
        budget_used=h.size / float(g.n) ** (params.a / 2.0),
    )


def event_G_n(dec: ClusterDecomposition, params: EventParams) -> bool:
    """Regular-configuration event: boundary-connected mass at most 4 n^a,
    at least 2 n^a of it inside the inner box, interior clusters no larger
    than the size cap, and at least cap + 1 interior singletons.  The inner
    box holds at most 25 n^2 / 36 vertices, so the event needs n^(2 - a) >=
    72/25: n >= 2.2e7 at a = 31/16 and 1.5e9 at a = 1.95, past any box."""
    g = dec.g
    na = float(g.n) ** params.a
    if dec.m_count > 4.0 * na:
        return False
    inner = dec.m_mask & g.sub_box_mask(params.n1)
    if inner.sum() < 2.0 * na:
        return False
    cap = params.size_cap
    return dec.max_interior <= cap <= dec.unit_interior_count - 1


def event_R_n(omega: BondConfig, b: int, params: EventParams) -> bool:
    """Witness-certified: the surgery exhibits H with |H| <= K n^(a/2)
    reaching the half-way count, and the ambient config satisfies the
    interior-cluster caps.  Sound but not complete: a false return means no
    witness was found, not that none exists."""
    dec = decompose(omega)
    cap = params.size_cap
    if not (dec.max_interior <= cap <= dec.unit_interior_count - 1):
        return False
    res = surgery(omega, b, params, dec)
    return res.success and res.h.size <= params.h_budget


def event_S_n(omega: BondConfig, b: int, params: EventParams, c0) -> bool:
    """Does the witness family c0 of interior clusters certify the
    post-surgery event: at most 2 K n^(a/2) clusters whose removal from the
    boundary-connected count leaves exactly b, every other interior cluster
    at most the size cap, and at least the cap's worth of interior
    singletons left outside c0."""
    dec = decompose(omega)
    in_c0 = np.zeros(dec.n_clusters, dtype=bool)
    for cluster in c0:
        members = np.flatnonzero(dec.g.vertex_mask(cluster))
        labels = dec.labels[members]
        cid = int(labels[0])
        if (labels != cid).any():
            return False  # vertices from more than one cluster
        if dec.touches_boundary[cid] or int(dec.sizes[cid]) != members.size:
            return False  # not a whole interior cluster of this configuration
        if in_c0[cid]:
            return False  # the same cluster twice
        in_c0[cid] = True
    if in_c0.sum() > 2.0 * params.K * float(dec.g.n) ** (params.a / 2.0):
        return False
    if dec.m_count - int(dec.sizes[in_c0].sum()) != b:
        return False
    return all(_caps_outside(dec, in_c0, params.size_cap))


def fss_conditions(dec: ClusterDecomposition, params: EventParams,
                   p: float) -> tuple[bool, bool, bool]:
    """The three finite-size scaling clauses at bond density p, with the
    near-critical surrogate standing in for the connectivity function:
    upper bound on the boundary-connected mass, size cap on interior
    clusters, lower bound on the mass inside the inner box."""
    g = dec.g
    theta = theta_asymptotic(p)
    c1 = dec.m_count <= (1.0 + params.delta) * theta * g.n * g.n
    c2 = dec.max_interior <= float(g.n) ** (params.s + 0.5)
    sub = g.sub_box_mask(params.n1)
    inner = int((dec.m_mask & sub).sum())
    c3 = inner >= (1.0 - params.delta) * theta * int(sub.sum())
    return c1, c2, c3


_DP_CELL_BUDGET = 2 * 10 ** 7


def _add_fair_sign(dist: np.ndarray, s: int, half: float = 0.5) -> np.ndarray:
    """Law of S + s or S - s with a fair sign, from the law `dist` of S on
    a window of integers centred on 0; with half = 1, the counts of sign
    choices per sum from those of S."""
    new = np.zeros_like(dist)
    new[s:] += half * dist[: dist.size - s]
    new[: dist.size - s] += half * dist[s:]
    return new


def sign_compensation_probability(sizes) -> Fraction | float:
    """Probability that independent fair signs on the given sizes sum to 0.

    Dynamic program over partial-sum distributions; exact while the total
    mass is <= 64, as int64 counts of sign choices (each at most
    C(64, 32) < 2^63) over 2^len(sizes), floating point beyond.  The table
    is capped at count x span <= 2e7 cells.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    total = sum(sizes)
    if total == 0:
        return Fraction(1)
    if len(sizes) * (2 * total + 1) > _DP_CELL_BUDGET:
        raise ValueError("DP budget exceeded")
    if total % 2 == 1:
        return Fraction(0)
    exact = total <= 64
    dist = np.zeros(2 * total + 1, dtype=np.int64 if exact else np.float64)
    dist[total] = 1
    for s in sizes:
        dist = _add_fair_sign(dist, s, 1 if exact else 0.5)
    if exact:
        return Fraction(int(dist[total]), 2 ** len(sizes))
    return float(dist[total])


def forced_sign(x: int) -> int:
    """Sign pulled toward zero: +1 when x <= 0, else -1."""
    return 1 if x <= 0 else -1


_STIRLING_KMAX = 10 ** 6


@lru_cache(maxsize=1)
def stirling_constant() -> float:
    """Largest K2 with C(2k, k) 4^(-k) >= K2 / sqrt(2k) for all k <= 10^6.

    The normalized central binomial sqrt(2k) C(2k,k) 4^(-k) increases from
    sqrt(2)/2 toward sqrt(2/pi), so the minimum sits at k = 1; computed by
    scanning anyway, as the constructive definition demands.
    """
    k = np.arange(1, _STIRLING_KMAX + 1, dtype=np.float64)
    # C(2k, k) 4^(-k) is the product of 1 - 1/(2j) over j = 1..k
    logc = np.cumsum(np.log1p(-0.5 / k))
    return float(np.exp(logc + 0.5 * np.log(2 * k)).min())


@dataclass
class WalkBoundReport:
    """Exact (or sampled) probabilities that the partial signed sums stay
    within [-N, N], against the lower bound (K2 / 2n)^j."""

    js: np.ndarray
    probs: np.ndarray
    bounds: np.ndarray
    holds: bool
    parity_ok: bool
    k2: float
    method: str


def compensation_walk_bound_check(sizes, N: int, n: int,
                                  rng: np.random.Generator | None = None,
                                  trials: int = 0) -> WalkBoundReport:
    """Check P(|S_j| <= N) >= (K2/(2n))^j for j = 0..N, where S_j is the
    signed sum of the clusters of size <= j under independent fair signs.

    Exact dynamic programming when the sum distribution fits the table
    budget, Monte Carlo otherwise (pass rng and trials).  Also reports the
    parity identity: N - S_N is even exactly when N matches the total mass
    parity, which the surrounding construction arranges.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("sizes must be positive")
    if any(s > N for s in sizes):
        raise ValueError("every size must be <= N")
    k2 = stirling_constant()
    total = sum(sizes)
    js = np.arange(0, N + 1)
    bounds = (k2 / (2.0 * n)) ** js.astype(float)
    # S_j changes only at the distinct sizes, the cut points: P(|S_j| <= N)
    # is taken once at each and holds until the next, and is 1 before the
    # first, where S_j = 0
    cuts, reps = np.unique(np.array(sizes, dtype=np.int64), return_counts=True)
    at_cuts = []

    if (2 * total + 1) <= 2 * 10 ** 6:
        method = "dp"
        dist = np.zeros(2 * total + 1)
        dist[total] = 1.0
        window = np.abs(np.arange(-total, total + 1)) <= N
        for s, r in zip(cuts.tolist(), reps.tolist()):
            for _ in range(r):
                dist = _add_fair_sign(dist, s)
            at_cuts.append(float(dist[window].sum()))
    else:
        if rng is None or trials <= 0:
            raise ValueError("instance too large for DP; pass rng and trials")
        method = "mc"
        svals = np.repeat(cuts, reps)  # the sizes, sorted
        eps = rng.integers(0, 2, size=(trials, len(sizes)))
        eps *= 2
        eps -= 1
        # S_j adds the signed sizes of one cut point at a time
        sj = np.zeros(trials, dtype=np.int64)
        done = 0
        for r in reps.tolist():
            sj += eps[:, done:done + r] @ svals[done:done + r]
            done += r
            at_cuts.append(float((np.abs(sj) <= N).mean()))
    probs = np.array([1.0] + at_cuts)[np.searchsorted(cuts, js, side="right")]

    holds = bool((probs >= bounds - 1e-12).all())
    parity_ok = (N - total) % 2 == 0
    return WalkBoundReport(js=js, probs=probs, bounds=bounds, holds=holds,
                           parity_ok=parity_ok, k2=k2, method=method)
