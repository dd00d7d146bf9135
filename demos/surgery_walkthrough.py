"""Edge surgery on supercritical wired samples, step by step.

One sample is dissected in detail: the annulus cut, the greedy subset,
the witness edge, the exact fine cut, and the severed families, ending
with the boundary-cluster count landing exactly on the requested value.
Then a batch reports how often the preconditions hold and the largest
edge budget |H| / n^(a/2) ever used.
"""

import numpy as np

from soc_ising import (
    EventParams,
    FKParams,
    bernoulli_bonds,
    build_box,
    close_edges,
    decompose,
    sample_chain,
    surgery,
)

N, P, A = 30, 0.7, 1.95
SEED = 11

g = build_box(N)
params = EventParams(n=N, a=A)
fk = FKParams(p=P, q=2.0, bc=1)
rng = np.random.Generator(np.random.Philox(key=[SEED, 0]))
omega0 = bernoulli_bonds(g, P, rng)
samples = list(sample_chain(omega0, fk, 100, 100, 2, rng, method="sw"))

omega, dec = samples[0]
m = dec.m_count
b = int(0.8 * m)
if (m + b) % 2:
    b -= 1
res = surgery(omega, b, params, dec)

print(f"== one sample, n = {N}, p = {P} ==")
print(f"boundary-cluster count |M| = {res.m_before}, requested b = {b},")
print(f"target (|M| + b + 1) // 2 = {res.target}")
print(f"annulus index j* = {res.j_star}: cut candidates |H0| = {res.h0.size}")
print(f"greedily closed subset |H1| = {res.h1.size}, "
      f"witness edge id = {res.witness_edge} (left open)")
print(f"fine cut |H2| = {res.h2.size} keeps {res.fine_m} vertices of the "
      f"witness cluster attached")
print(f"closed set |H| = {res.h.size}, "
      f"budget used |H| / n^(a/2) = {res.budget_used:.4f}")
print(f"achieved |M| after closing: {res.m_after} (stage: {res.stage})")
sizes = res.c0_sizes.tolist()
print(f"severed interior families: {len(sizes)} with sizes {sizes}"
      + (f", parity unit at vertex {res.parity_unit}"
         if res.parity_unit >= 0 else ""))
print(f"bookkeeping identity holds: {res.identity_ok}")

# the families really are new interior clusters, nothing else moved
before = set(dec.interior_clusters())
after = set(decompose(close_edges(omega, res.h)).interior_clusters())
print(f"pre-existing interior clusters preserved: {before <= after}")

print()
print(f"== batch of {len(samples)} samples ==")
stages = {}
budgets = []
for w, d in samples:
    mm = d.m_count
    bb = int(0.8 * mm)
    if (mm + bb) % 2:
        bb -= 1
    r = surgery(w, bb, params, d)
    stages[r.stage] = stages.get(r.stage, 0) + 1
    if r.success:
        budgets.append(r.budget_used)
for stage, count in sorted(stages.items()):
    print(f"  {stage:>24s}: {count}")
print(f"  largest edge budget used: K = {max(budgets):.4f} "
      f"(bound |H| <= K n^(a/2))")
