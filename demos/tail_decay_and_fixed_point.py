"""Subcritical tails and the supercritical fixed point.

Below the self-dual density the cluster of a fixed vertex has an
exponentially decaying size law; the first block fits the decay rate
from free-boundary samples and reports its confidence interval.  The
second block evaluates the magnetization fixed point at a feedback
exponent small enough for the defining equation to be solvable at
desk-size n, and prints the ratios that the asymptotics say must drift
to 1.
"""

import math

import numpy as np

from soc_ising import (
    T_CRITICAL,
    FKParams,
    bernoulli_bonds,
    build_box,
    fixed_point,
    p_critical,
    sample_chain,
    tail_statistics,
    theta_asymptotic,
)

print("== subcritical tail fit, n = 32, p = 0.4, free boundary ==")
g = build_box(32)
rng = np.random.Generator(np.random.Philox(key=[3, 0]))
omega0 = bernoulli_bonds(g, 0.4, rng)
samples = sample_chain(omega0, FKParams(0.4, 2.0, 0), 1200, 150, 2, rng,
                       method="sw")
v = g.vertex_id(0, 0)
sizes = [dec.cluster_size_of(v) for _, dec in samples]
fit = tail_statistics(sizes)
print(f"  mean cluster size {float(np.mean(sizes)):.3f}, "
      f"max {max(sizes)}")
print(f"  decay rate psi = {fit.psi_hat:.4f}, "
      f"95% CI [{fit.ci_low:.4f}, {fit.ci_high:.4f}]")

print()
A = 1.8
print(f"== fixed point of the magnetization map, a = {A} ==")
pc = p_critical(2.0)
print(f"{'n':>6s} {'b_n':>10s} {'p_n':>12s} "
      f"{'b_n/(n^a sqrt(T_c))':>20s} {'theta n^2/(3 n^a)':>18s}")
for n in (100, 1000, 10_000):
    fp = fixed_point(n, A)
    r1 = fp.b_n / (float(n) ** A * math.sqrt(T_CRITICAL))
    r2 = theta_asymptotic(fp.p_n) * n * n / (3.0 * float(n) ** A)
    print(f"{n:6d} {fp.b_n:10d} {fp.p_n:12.8f} {r1:20.6f} {r2:18.6f}")
print(f"(p_n drifts down toward p_c = {pc:.8f} as n grows)")

print()
print("At a = 1.99 the same equation needs n beyond ~2e38, so there the")
print("fixed point is out of reach of any desk-size enumeration:")
try:
    fixed_point(10_000, 1.99)
except ValueError as err:
    print(f"  fixed_point(10^4, 1.99) -> ValueError: {err}")
