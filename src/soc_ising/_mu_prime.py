"""The single-flip Metropolis chain behind `soc.naive_mu_prime_dynamics`.

`soc` imports this module on the chain's first use: where bytecode is not
written, every start compiles the package, and this code then raised the
peak memory of runs that never call the chain.
"""

import math
from itertools import islice

import numpy as np

from .lattice import BoxGeometry

# proposals per block of draws: a block's picks and uniforms take at most
# 48 KB
_PROPOSAL_BLOCK = 1 << 12
# first window of proposals the screen tests; each miss doubles it, up to
# the maximum that keeps the screen's temporaries at a few KB (larger ones
# raised a run's peak memory)
_SCREEN_WINDOW = 256
_SCREEN_WINDOW_MAX = 1024
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
    for s in (-1, 1):
        m_new = m - 2 * s
        if m_new == 0:
            continue
        for local in (-4, -2, 0, 2, 4):
            dh = 2 * s * local
            if accounted:
                log_acc = h / (m * m / n2a) - (h + dh) / (m_new * m_new / n2a)
            else:
                log_acc = -dh / (m * m / n2a)
            thr[5 * (s + 1) + local + 4] = (
                2.0 if log_acc >= 0 else math.exp(log_acc))
    return thr


def _first_acceptance(us: np.ndarray, picks: np.ndarray, site_thr: np.ndarray,
                      pos: int, end: int) -> int:
    """Index of the first proposal in [pos, end) whose uniform falls below
    its site's threshold, or end; windows double from _SCREEN_WINDOW up to
    _SCREEN_WINDOW_MAX.

    The scalar loop tests the proposal found here again, so the screen
    must never pass over an acceptance; stopping early would cost time
    only."""
    w = _SCREEN_WINDOW
    while pos < end:
        stop = min(pos + w, end)
        hit = np.flatnonzero(us[pos:stop] < site_thr.take(picks[pos:stop]))
        if hit.size:
            return pos + int(hit[0])
        pos = stop
        w = min(2 * w, _SCREEN_WINDOW_MAX)
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
    tables: dict[tuple[int, int], np.ndarray] = {}
    # one entry per sweep segment of a scalar stretch that flipped: its
    # sweep, m at its end, and its flips
    seg_sweep, seg_m, seg_flips = [], [], []
    exp = math.exp
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
        end, pos = nb * ni, 0
        while pos < end:
            thr = tables.get((h, m))
            if thr is None:
                thr = tables[h, m] = _acceptance_table(h, m, n2a, accounted)
            # 5 (s + 1) + local + 4 per interior site, in slot order
            code = grid[1:-1, 1:-1] * 5
            code += grid[:-2, 1:-1]
            code += grid[2:, 1:-1]
            code += grid[1:-1, :-2]
            code += grid[1:-1, 2:]
            pos = _first_acceptance(us, picks, thr.take(code.ravel()),
                                    pos, end)
            stretch = _SCALAR_STRETCH
            while pos < end:
                stop = min(pos + stretch, end)
                kit = iter(picks[pos:stop].tolist())
                uit = iter(us[pos:stop].tolist())
                flipped = 0
                while pos < stop:
                    seg = min(stop, pos - pos % ni + ni)
                    nflip = 0
                    for k, u in zip(islice(kit, seg - pos), uit):
                        v = sites[k]
                        s = spins[v]
                        v0, v1, v2, v3 = nbrs[k]
                        local = spins[v0] + spins[v1] + spins[v2] + spins[v3]
                        dh = 2 * s * local
                        m_new = m - 2 * s
                        if m_new == 0:
                            continue  # zero-weight target state
                        # the expression _acceptance_table tabulates,
                        # inline because it runs once per proposal
                        if accounted:
                            log_acc = (h / (m * m / n2a)
                                       - (h + dh) / (m_new * m_new / n2a))
                        else:
                            log_acc = -dh / (m * m / n2a)
                        if log_acc >= 0 or u < exp(log_acc):
                            spins[v] = -s
                            plus1[v] = 1 - s
                            m = m_new
                            h += dh
                            nflip += 1
                    pos = seg
                    if nflip:
                        seg_sweep.append(done + (seg - 1) // ni)
                        seg_m.append(m)
                        seg_flips.append(nflip)
                        flipped += nflip
                if not flipped:
                    break
                stretch = min(2 * stretch, _SCALAR_STRETCH_MAX)
        done += nb
    # sweep r's m is the one after the last segment of sweeps 0..r; the
    # float sums of the integer flip counts are exact
    seg_sweep = np.array(seg_sweep, dtype=np.int64)
    mags = np.array([m0] + seg_m, dtype=np.int64)[
        np.bincount(seg_sweep, minlength=total).cumsum()]
    flips = np.bincount(seg_sweep, weights=seg_flips,
                        minlength=total).astype(np.int64)
    return mags, flips
