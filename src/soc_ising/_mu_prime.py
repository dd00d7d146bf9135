"""The single-flip Metropolis chain behind `soc.naive_mu_prime_dynamics`.

`soc` imports this module on the chain's first use: where bytecode is not
written, every start compiles the package, and this code then raised the
peak memory of runs that never call the chain.
"""

import math

import numpy as np

from .lattice import BoxGeometry

# proposals per block of draws: a block's picks and uniforms take at most
# 48 KB
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


def metropolis_records(g: BoxGeometry, n2a: float, total: int,
                       rng: np.random.Generator, accounted: bool
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Run `total` sweeps of the chain from all-plus and return each sweep's
    final magnetization and flip count (int64); n2a is n^(2a).  See
    `soc.naive_mu_prime_dynamics` for the draws and the screen."""
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
        picks = np.empty((nb, ni), dtype=np.int32)
        us = np.empty((nb, ni))
        for r in range(nb):
            picks[r] = rng.integers(0, ni, size=ni, dtype=np.int32)
            rng.random(out=us[r])
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
