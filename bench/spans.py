"""Span tracing from outside the package, for the per-layer metrics.

`Tracer.install()` replaces each traced public function with a wrapper that
records one span per call: name, start, end and parent.  A name bound by
`from .fk import decompose` lives in several module namespaces, so the
wrapper goes into every `soc_ising` module that binds the original object;
`uninstall()` puts the originals back.  Spans stay in memory and are reduced
to per-function statistics after each traced round.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict


def _box_sites(args, result):
    g = args[0].g
    return g.interior_even.size + g.interior_odd.size


def _vertices(args, result):
    return args[0].g.n * args[0].g.n


# (module, function) -> {counter: f(args, result) -> amount added per call};
# counters whose name starts with "_" feed a derived statistic only
LAYERS = {
    ("experiments", "run"): {"rows": lambda a, r: r["n_rows"]},
    ("lattice", "build_box"): {},
    ("lattice", "dual_geometry"): {},
    ("ising", "heat_bath_sweep"): {"sites": _box_sites},
    ("ising", "enumerate_plus_configs"): {"rows": lambda a, r: r.shape[0]},
    ("ising", "exact_ising_distribution"): {},
    ("fk", "decompose"): {"vertices": _vertices},
    ("fk", "swendsen_wang_step"): {},
    ("fk", "sample_chain"): {},
    ("fk", "bernoulli_bonds"): {},
    ("fk", "tail_statistics"): {},
    ("fk", "single_bond_heat_bath_sweep"): {"edges": lambda a, r: a[0].g.n_edges},
    ("fk", "exact_fk_distribution"): {"configs": lambda a, r: r.probs.size},
    ("coupling", "es_ising_to_fk"): {},
    ("coupling", "es_spin_pushforward"): {},
    ("coupling", "es_bond_pushforward"): {},
    ("coupling", "es_pushforward_check"): {},
    ("coupling", "duality_check"): {},
    ("coupling", "dual_config"): {},
    ("soc", "two_timescale_dynamics"): {},
    ("soc", "naive_mu_prime_dynamics"): {},
    ("soc", "exact_mu_n"): {},
    ("soc", "exact_mu_prime"): {},
    ("surgery", "surgery"): {"_ok": lambda a, r: r.stage == "ok"},
    ("surgery", "annulus_cut_H0"): {},
    ("surgery", "maximal_subset_H1"): {},
    ("surgery", "exact_cut_H2"): {},
    ("surgery", "fss_conditions"): {},
    ("surgery", "event_G_n"): {},
}

# unit of each statistic a per-layer metric name can end in
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "rows": "count",
    "sites": "count",
    "vertices": "count",
    "ns_per_vertex": "ns",
    "edges": "count",
    "configs": "count",
    "ok_ratio": "ratio",
    "decompose_calls": "count",
}


# statistics computed from a function's spans and counters
DERIVED = {
    "fk.decompose": "ns_per_vertex",
    "surgery.surgery": "ok_ratio",
    "surgery.maximal_subset_H1": "decompose_calls",
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in a fixed order."""
    names = []
    for (mod, fn), counters in LAYERS.items():
        layer = f"{mod}.{fn}"
        stats = ["calls", "self_s"] + [c for c in counters if c[0] != "_"]
        if layer in DERIVED:
            stats.append(DERIVED[layer])
        names += [f"{layer}.{s}" for s in stats]
    return names


PACKAGE = "soc_ising"


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, t0, t1, parent
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, orig, counters):
        spans, counts, stack = self.spans, self.counts, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            for stat, f in counters.items():
                counts[f"{name}.{stat}"] += int(f(args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for (mod, fn), counters in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{mod}")
            orig = getattr(home, fn)
            wrapper = self._wrap(f"{mod}.{fn}", orig, counters)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_stats(self) -> dict[str, float]:
        """Per-function statistics of the spans recorded since reset().

        Self time is a span's duration minus the durations of its direct
        children; calls are strictly nested in one thread, so the children
        cover disjoint parts of the parent's interval."""
        child_ns = [0] * len(self.spans)
        decompose_children = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
                if name == "fk.decompose":
                    decompose_children[parent] += 1
        stats: dict[str, float] = defaultdict(int)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (t1 - t0 - child_ns[i]) * 1e-9
            if name == "surgery.maximal_subset_H1":
                stats[f"{name}.decompose_calls"] += decompose_children[i]
        stats.update(self.counts)
        calls = stats["surgery.surgery.calls"]
        stats["surgery.surgery.ok_ratio"] = (
            stats["surgery.surgery._ok"] / calls if calls else 0.0)
        vertices = stats["fk.decompose.vertices"]
        stats["fk.decompose.ns_per_vertex"] = (
            stats["fk.decompose.self_s"] * 1e9 / vertices if vertices else 0.0)
        return {key: stats[key] for key in layer_metric_names()}
