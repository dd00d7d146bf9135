"""Small independent oracles shared by the test modules.

Everything here is deliberately naive (BFS, direct enumeration) so that
the library's vectorized cluster labelling and log-space code paths are
checked against a second implementation rather than against themselves.
"""

from collections import deque

import numpy as np


def philox(seed: int, chain: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, chain]))


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
