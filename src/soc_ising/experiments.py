"""Experiment driver: flat-file configs, command runners, on-disk records.

Every command writes three files into its output directory:

  metadata.json   the full effective config, code version, RNG family,
                  and the CSV column schema
  rows.csv        one record per row, fixed column order, floats written
                  with repr() so they round-trip exactly
  summary.json    aggregates recomputed from the rows

Nothing time-dependent goes into the files, so a rerun with the same
config and seed is byte-identical.  Randomness comes from counter-based
Philox streams keyed by (master seed, chain id); chain ids enumerate the
(n, variant) pairs of a run in row order, so adding chains never
perturbs existing ones.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .lattice import build_box
from .ising import T_CRITICAL
from .fk import (
    FKParams,
    bernoulli_bonds,
    p_critical,
    sample_chain,
    tail_statistics,
)
from .coupling import (
    dual_parameter, duality_check, es_pushforward_check, t_to_p)
from .soc import (
    FeedbackParams,
    edge_closing_price,
    exact_mu_n,
    exact_mu_prime,
    naive_mu_prime_dynamics,
    two_timescale_dynamics,
)
# `surgery` (with `fractions` and `decimal`) is imported by the two runners
# that read it, so the other commands never load it

SCHEMA_VERSION = 1
RNG_FAMILY = "philox"

# commands that take one box side, with the inclusive range of sides each
# accepts: the exact commands enumerate their box, tail-fit fits one box
_ONE_SIDE = {
    "coupling-verify": (1, 3),
    "duality-verify": (2, 4),
    "enumerate": (1, 4),
    "tail-fit": (1, math.inf),
}

# commands that sample the random-cluster law at bond density p
_SAMPLING = frozenset(["fk-sample", "surgery-demo", "fss-freq", "tail-fit"])


@dataclass(frozen=True)
class ExperimentConfig:
    """Effective settings of one run, after merging defaults, the config
    file, and command-line overrides.

    The fields declare every config key once: its name, its value type
    (the annotation, which the config-file and flag parser reads; only keys
    annotated `| None` may be unset) and the default shared by all
    commands.  Each command overrides a few of those defaults in
    `_DEFAULTS`, so build the config with `build_config`:
    `ExperimentConfig(command=...)` holds only the shared defaults, which
    some commands reject (enumerate needs a side <= 4, fk-sample a p)."""

    command: str
    n: tuple[int, ...] = (16,)
    a: float = 1.99
    t: float | None = None
    p: float | None = None
    q: float = 2.0
    bc: int = 1
    method: str = "sw"
    tau: int = 32
    total: int = 20000
    burn_in: int = -1
    thin: int = 2
    samples: int = 200
    seed: int = 0
    out: str = ""
    snapshot_every: int = 0
    variant: str = ""
    b: int = -1
    delta: float = 1.0 / 6.0
    k_budget: float = 1.0
    min_hits: int = 50
    v: int | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command: {self.command}")
        if not self.n or any(int(m) < 1 for m in self.n):
            raise ValueError("n: box sides must be integers >= 1")
        # each bound is worded so that nan fails it
        for key, ok, bound in (("a", self.a > 0, "> 0"),
                               ("t", self.t is None or self.t >= 0, ">= 0"),
                               ("q", self.q >= 1, ">= 1"),
                               ("delta", self.delta > 0, "> 0"),
                               ("k_budget", self.k_budget > 0, "> 0")):
            val = getattr(self, key)
            if not (ok and (val is None or math.isfinite(val))):
                raise ValueError(f"{key}: must be finite and {bound}, got "
                                 f"{val!r}")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p: bond density must lie in [0, 1]")
        if self.bc not in (0, 1):
            raise ValueError("bc: 0 (free) or 1 (wired)")
        if self.method not in ("sw", "single-bond"):
            raise ValueError("method: 'sw' or 'single-bond'")
        for key in ("tau", "total", "thin", "samples"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key}: must be >= 1")
        if self.burn_in < -1:
            raise ValueError("burn_in: -1 (auto) or >= 0")
        # runs with no record after burn-in have no statistics to report
        records = {"soc-run": self.total // self.tau,
                   "soc-compare": self.total}.get(self.command)
        if records == 0:
            raise ValueError("total: soc-run records once per tau sweeps, "
                             "so total must be >= tau")
        if records is not None and self.burn_in >= records:
            raise ValueError(f"burn_in: must be below the {records} records "
                             f"of this {self.command}")
        if self.command in _ONE_SIDE:
            lo, hi = _ONE_SIDE[self.command]
            if len(self.n) != 1 or not lo <= self.n[0] <= hi:
                raise ValueError(f"n: {self.command} takes one box side in "
                                 f"[{lo}, {hi}]")
        if (self.command in ("surgery-demo", "fss-freq")
                and not FeedbackParams(self.a).valid_conditional_range):
            raise ValueError(f"a: {self.command} needs the exponent in "
                             f"(31/16, 2), got {self.a!r}")
        if self.command in _SAMPLING:
            if self.p is None:
                raise ValueError(f"p: required for {self.command}")
            if self.command == "fss-freq":
                # the finite-size scaling events live on the wired q = 2
                # law at or above the critical density
                pc = p_critical(2.0)
                if self.p < pc:
                    raise ValueError(f"p: finite-size scaling clauses need "
                                     f"p >= {pc:.6f}, got {self.p}")
                for key, want in (("q", 2), ("bc", 1)):
                    if getattr(self, key) != want:
                        raise ValueError(f"{key}: fss-freq samples the wired "
                                         f"q = 2 law, so {key} must be {want}")
            if self.method == "sw" and self.q != 2:
                raise ValueError(f"q: method sw samples q = 2 only, got "
                                 f"{self.q!r}; use method single-bond")
        if (self.command == "enumerate"
                and self.variant not in ("mu", "mu-prime")):
            raise ValueError("variant: enumerate takes 'mu' or 'mu-prime', "
                             f"got {self.variant!r}")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed: a 64-bit unsigned integer")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every: 0 (off) or a positive stride")
        if self.min_hits < 1:
            raise ValueError("min_hits: must be >= 1")
        if self.v is not None and self.v < 0:
            raise ValueError("v: vertex id must be >= 0")
        if (self.command == "tail-fit" and self.v is not None
                and self.v >= self.n[0] ** 2):
            raise ValueError(f"v: vertex id out of range for side {self.n[0]}")

    def out_dir(self) -> str:
        return self.out if self.out else os.path.join("runs", self.command)

    def as_flat(self) -> dict[str, str]:
        """The config in flat key = value form, as a config file would
        spell it."""
        out: dict[str, str] = {"command": self.command}
        for f in fields(self):
            if f.name == "command":
                continue
            val = getattr(self, f.name)
            if f.name == "n":
                out["n"] = ",".join(str(m) for m in val)
            elif val is None:
                out[f.name] = "none"
            else:
                out[f.name] = repr(val) if isinstance(val, float) else str(val)
        return out


# the field defaults that each command overrides; every other key keeps
# the default shared by all commands
_DEFAULTS = {
    "soc-compare": {"n": (8,), "total": 5000},
    "fk-sample": {"p": 0.6, "burn_in": 100},
    "coupling-verify": {"n": (3,)},
    "duality-verify": {"n": (3,)},
    "surgery-demo": {"n": (30,), "a": 1.95, "p": 0.7, "burn_in": 100},
    "enumerate": {"n": (3,), "variant": "mu"},
    "fss-freq": {"n": (16, 32), "samples": 100, "burn_in": 100},
    "tail-fit": {"n": (64,), "p": 0.4, "bc": 0, "samples": 2000,
                 "burn_in": 200},
}


def _parse_n(raw) -> tuple[int, ...]:
    if isinstance(raw, (int, np.integer)):
        return (int(raw),)
    if isinstance(raw, str):
        parts = [s.strip() for s in raw.split(",") if s.strip()]
        return tuple(int(s) for s in parts)
    return tuple(int(m) for m in raw)


# value parser per field annotation; "n" is the comma list of box sides
_PARSERS = {"int": int, "float": float, "str": str,
            "tuple[int, ...]": _parse_n}
_KEY_TYPES = {f.name: f.type for f in fields(ExperimentConfig)
              if f.name != "command"}


def _coerce(key: str, raw):
    """Parse one config value from its file/flag spelling.  None and the
    spelling "none" unset a key annotated `| None` and are refused for
    every other key."""
    if key not in _KEY_TYPES:
        raise ValueError(f"unknown config key: {key}")
    kind = _KEY_TYPES[key]
    if raw is None or (isinstance(raw, str)
                       and raw.strip().lower() == "none"):
        if kind.endswith(" | None"):
            return None
        raise ValueError(f"{key}: value required")
    try:
        return _PARSERS[kind.removesuffix(" | None")](raw)
    except (TypeError, ValueError):
        raise ValueError(f"{key}: cannot parse {raw!r}") from None


def parse_config_file(path: str) -> dict:
    """Read a flat key = value config file.  Blank lines and # comments
    are skipped; unknown keys are rejected by name."""
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key = key.strip()
            if key == "command":
                raise ValueError(
                    "command comes from the command line, not the config file"
                )
            values[key] = _coerce(key, raw.strip())
    return values


def build_config(command: str, file_values: dict | None = None,
                 overrides: dict | None = None) -> ExperimentConfig:
    """Merge per-command defaults, config-file values, and explicit
    overrides (in that order of increasing precedence)."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command: {command}")
    merged: dict = dict(_DEFAULTS.get(command, {}))
    for source in (file_values or {}), (overrides or {}):
        for key, raw in source.items():
            merged[key] = _coerce(key, raw)
    return ExperimentConfig(command=command, **merged)


def chain_rng(seed: int, chain_id: int) -> np.random.Generator:
    """The stream for one chain: Philox keyed by (master seed, chain id)."""
    return np.random.Generator(np.random.Philox(key=[seed, chain_id]))


def _auto(burn_in: int, default: int | None) -> int | None:
    """The configured burn-in, or `default` when it is -1 (auto)."""
    return default if burn_in < 0 else burn_in


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial frequency."""
    if n == 0:
        return 0.0, 1.0
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# runners: each returns (columns, rows, summary)


def _trajectory_summary(traj) -> dict:
    """Post-burn-in statistics of one feedback trajectory."""
    return {
        "burn_in": traj.burn_in,
        "mean_T": traj.mean_temperature(),
        "std_T": traj.temperature_std(),
        "mean_abs_m": float(np.abs(traj.mags[traj.burn_in:]).mean()),
    }


def _run_soc_run(cfg: ExperimentConfig):
    cols = ["n", "chain", "step", "T", "m", "flips", "floor_used", "m_n"]
    rows, per_n = [], []
    for i, n in enumerate(cfg.n):
        traj = two_timescale_dynamics(
            n, cfg.a, cfg.tau, cfg.total, chain_rng(cfg.seed, i),
            burn_in=_auto(cfg.burn_in, None),
            snapshot_every=cfg.snapshot_every,
        )
        for step, t, m, f, floored, m_n in zip(
                traj.steps.tolist(), traj.temps.tolist(), traj.mags.tolist(),
                traj.flips.tolist(), traj.floor_used.tolist(),
                traj.m_ns.tolist()):
            rows.append([n, i, step, t, m, f, floored, m_n])
        per_n.append({
            "n": n,
            "records": len(traj.steps),
            **_trajectory_summary(traj),
            "floor_frac": float(traj.floor_used.mean()),
            "flip_rate": float(traj.flips.mean() / (cfg.tau * n * n)),
        })
    return cols, rows, {"t_critical": T_CRITICAL, "per_n": per_n}


def _run_soc_compare(cfg: ExperimentConfig):
    cols = ["n", "variant", "step", "T", "m", "flips"]
    rows, cells = [], []
    chain = 0
    for n in cfg.n:
        for account in (True, False):
            traj = naive_mu_prime_dynamics(
                n, cfg.a, cfg.total, chain_rng(cfg.seed, chain),
                account_for_T_change=account,
                burn_in=_auto(cfg.burn_in, None),
            )
            chain += 1
            for step, t, m, f in zip(traj.steps.tolist(), traj.temps.tolist(),
                                     traj.mags.tolist(), traj.flips.tolist()):
                rows.append([n, traj.variant, step, t, m, f])
            cells.append({"n": n, "variant": traj.variant,
                          **_trajectory_summary(traj)})
    return cols, rows, {"t_critical": T_CRITICAL, "cells": cells}


def _fk_samples(cfg: ExperimentConfig, n: int, chain: int):
    params = FKParams(p=cfg.p, q=cfg.q, bc=cfg.bc)
    rng = chain_rng(cfg.seed, chain)
    omega0 = bernoulli_bonds(build_box(n), cfg.p, rng)
    burn = _auto(cfg.burn_in, 100 + n)
    return sample_chain(omega0, params, cfg.samples, burn, cfg.thin, rng,
                        method=cfg.method)


def _run_fk_sample(cfg: ExperimentConfig):
    cols = ["n", "sample", "open_edges", "k0", "k1", "m_n", "max_interior",
            "sum_sq_interior", "u_n", "units"]
    rows, per_n = [], []
    for i, n in enumerate(cfg.n):
        stats = []
        for s, (omega, dec) in enumerate(_fk_samples(cfg, n, i)):
            rec = [n, s, omega.open_count(), dec.k0, dec.k1, dec.m_count,
                   dec.max_interior, dec.sum_sq_interior, dec.u_halfgrid,
                   dec.unit_interior_count]
            rows.append(rec)
            stats.append(rec[2:])
        arr = np.asarray(stats, dtype=np.float64)
        names = cols[2:]
        g = build_box(n)
        per_n.append({
            "n": n,
            "p": cfg.p,
            "edge_density": float(arr[:, 0].mean() / g.n_edges),
            "means": {k: float(m) for k, m in zip(names, arr.mean(axis=0))},
            "variances": {k: float(v) for k, v in zip(names, arr.var(axis=0))},
        })
    return cols, rows, {"per_n": per_n}


def _run_coupling_verify(cfg: ExperimentConfig):
    n = cfg.n[0]
    ts = [cfg.t] if cfg.t is not None else [0.5, 1.0, T_CRITICAL, 3.0, 6.0]
    cols = ["n", "T", "p", "spin_err", "bond_err"]
    rows = []
    for t in ts:
        spin_err, bond_err = es_pushforward_check(n, t)
        rows.append([n, float(t), t_to_p(t), spin_err, bond_err])
    worst = max(max(r[3], r[4]) for r in rows)
    return cols, rows, {"n": n, "temperatures": [float(t) for t in ts],
                        "max_error": worst}


def _run_duality_verify(cfg: ExperimentConfig):
    n = cfg.n[0]
    ps = [cfg.p] if cfg.p is not None else [0.3, p_critical(cfg.q), 0.8]
    cols = ["n", "p", "q", "p_dual", "pushforward_err"]
    rows = []
    for p in ps:
        err = duality_check(n, p, cfg.q)
        rows.append([n, float(p), cfg.q, dual_parameter(p, cfg.q), err])
    pc = p_critical(cfg.q)
    return cols, rows, {
        "n": n,
        "q": cfg.q,
        "self_dual_point": pc,
        "self_dual_residual": abs(dual_parameter(pc, cfg.q) - pc),
        "max_error": max(r[4] for r in rows),
    }


def _run_surgery_demo(cfg: ExperimentConfig):
    from .surgery import EventParams, surgery

    cols = ["n", "sample", "m_before", "b", "target", "m_after", "success",
            "stage", "j_star", "h0_size", "h1_size", "h2_size", "h_size",
            "c0_count", "c0_mass", "parity_unit_used", "identity_ok",
            "cap_ok", "units_ok", "budget_used", "c0_bound_ok"]
    precondition_stages = {"target-above-count", "annulus-precondition",
                           "greedy-precondition"}
    rows, per_n = [], []
    for i, n in enumerate(cfg.n):
        params = EventParams(n=n, a=cfg.a, delta=cfg.delta, K=cfg.k_budget)
        n_pre, n_success, budgets, h_sizes = 0, 0, [], []
        for s, (omega, dec) in enumerate(_fk_samples(cfg, n, i)):
            m = dec.m_count
            if cfg.b >= 0:
                b = cfg.b
            else:
                b = int(0.8 * m)
                if (m + b) % 2 != 0:
                    b -= 1
            b = max(b, 0)
            res = surgery(omega, b, params, dec)
            c0_count = int(res.c0_sizes.size)
            c0_bound = c0_count <= res.h.size + 1
            rows.append([
                n, s, res.m_before, res.b, res.target, res.m_after,
                res.success, res.stage, res.j_star, res.h0.size, res.h1.size,
                res.h2.size, res.h.size, c0_count, int(res.c0_sizes.sum()),
                res.parity_unit >= 0, res.identity_ok, res.cap_ok,
                res.units_ok, res.budget_used, c0_bound,
            ])
            if res.stage in precondition_stages:
                continue
            n_pre += 1
            if res.success:
                n_success += 1
                budgets.append(res.budget_used)
                h_sizes.append(int(res.h.size))
        cell = {
            "n": n,
            "p": cfg.p,
            "samples": cfg.samples,
            "eligible": n_pre,
            "successes": n_success,
            "success_rate_among_eligible":
                n_success / n_pre if n_pre else math.nan,
            "k_fit": max(budgets) if budgets else math.nan,
            "k_budget": cfg.k_budget,
        }
        if h_sizes:
            med = int(np.median(h_sizes))
            cell["median_h_size"] = med
            cell["edge_closing_price_at_median_h"] = edge_closing_price(
                n, cfg.p, med)
        per_n.append(cell)
    return cols, rows, {"per_n": per_n}


def _run_enumerate(cfg: ExperimentConfig):
    n = cfg.n[0]
    exact = exact_mu_n if cfg.variant == "mu" else exact_mu_prime
    mu = exact(build_box(n), cfg.a)
    cols = ["index", "m", "T", "energy", "prob"]
    rows = [[i, int(mu.mags[i]), float(mu.temps[i]), float(mu.energies[i]),
             float(mu.probs[i])] for i in range(len(mu.mags))]
    return cols, rows, {
        "n": n,
        "a": cfg.a,
        "variant": cfg.variant,
        "n_configs": len(rows),
        "z_direct": mu.z_direct,
        "z_rewrite": mu.z_rewrite,
        "z_abs_difference": abs(mu.z_direct - mu.z_rewrite),
        "prob_total": float(np.sum(mu.probs)),
    }


def fss_frequency(cfg: ExperimentConfig):
    """Frequencies of the finite-size scaling events over samples of the
    wired q = 2 random-cluster law at bond density cfg.p >= p_c(2), the
    only configs ExperimentConfig accepts for fss-freq.

    Returns (columns, rows, summary) with one row per sample and per-n
    frequencies of the event F_n (the `f_n` column: the conjunction of the
    three `fss_conditions` clauses, kept one by one in the `cond_*`
    columns), the ambient event G_n, and each clause, with Wilson 95%
    intervals, plus the boundary and inner-box mass ratios against their
    nominal thresholds 4 and 2.  `g_n` and `inner_above_2` are 0 at
    every side a run can reach (see `surgery.event_G_n`).
    """
    from .surgery import EventParams, event_G_n, fss_conditions

    cols = ["n", "sample", "m_n", "inner_m", "max_interior", "units",
            "m_ratio", "inner_ratio", "g_n", "f_n", "cond_mass_upper",
            "cond_size_cap", "cond_inner_mass"]
    rows, per_n = [], []
    for i, n in enumerate(cfg.n):
        params = EventParams(n=n, a=cfg.a, delta=cfg.delta, K=cfg.k_budget)
        g = build_box(n)
        inner_mask = g.sub_box_mask(params.n1)
        na = float(n) ** cfg.a
        counts = {k: 0 for k in ("g_n", "f_n", "c1", "c2", "c3",
                                 "m_below_4", "inner_above_2")}
        ratios, inner_ratios = [], []
        for s, (_, dec) in enumerate(_fk_samples(cfg, n, i)):
            c1, c2, c3 = fss_conditions(dec, params, cfg.p)
            gn = event_G_n(dec, params)
            fn = c1 and c2 and c3
            inner_m = int((dec.m_mask & inner_mask).sum())
            m_ratio = dec.m_count / na
            inner_ratio = inner_m / na
            rows.append([n, s, dec.m_count, inner_m, dec.max_interior,
                         dec.unit_interior_count, m_ratio, inner_ratio,
                         gn, fn, c1, c2, c3])
            for key, hit in (("g_n", gn), ("f_n", fn), ("c1", c1),
                             ("c2", c2), ("c3", c3),
                             ("m_below_4", m_ratio <= 4.0),
                             ("inner_above_2", inner_ratio >= 2.0)):
                counts[key] += bool(hit)
            ratios.append(m_ratio)
            inner_ratios.append(inner_ratio)
        ns = cfg.samples
        freq = {}
        for key, hits in counts.items():
            lo, hi = wilson_interval(hits, ns)
            freq[key] = {"freq": hits / ns, "ci": [lo, hi]}
        per_n.append({
            "n": n,
            "p": cfg.p,
            "samples": ns,
            "events": freq,
            "mean_m_ratio": float(np.mean(ratios)),
            "mean_inner_ratio": float(np.mean(inner_ratios)),
            "thresholds": {"m_ratio": 4.0, "inner_ratio": 2.0},
        })
    return cols, rows, {"per_n": per_n}


def _run_tail_fit(cfg: ExperimentConfig):
    n = cfg.n[0]
    v = cfg.v if cfg.v is not None else build_box(n).vertex_id(0, 0)
    cols = ["sample", "size"]
    rows = []
    sizes = []
    for s, (_, dec) in enumerate(_fk_samples(cfg, n, 0)):
        k = dec.cluster_size_of(v)
        rows.append([s, k])
        sizes.append(k)
    fit = tail_statistics(sizes, min_hits=cfg.min_hits)
    summary = {
        "n": n,
        "p": cfg.p,
        "q": cfg.q,
        "bc": cfg.bc,
        "vertex": int(v),
        "n_samples": fit.n_samples,
        "psi_hat": fit.psi_hat,
        "ci_low": fit.ci_low,
        "ci_high": fit.ci_high,
        "degenerate": fit.degenerate,
        "window": [int(fit.window[0]), int(fit.window[-1])]
        if fit.window.size else [],
        "mean_size": float(np.mean(sizes)),
    }
    return cols, rows, summary


_RUNNERS = {
    "soc-run": _run_soc_run,
    "soc-compare": _run_soc_compare,
    "fk-sample": _run_fk_sample,
    "coupling-verify": _run_coupling_verify,
    "duality-verify": _run_duality_verify,
    "surgery-demo": _run_surgery_demo,
    "enumerate": _run_enumerate,
    "fss-freq": fss_frequency,
    "tail-fit": _run_tail_fit,
}

COMMANDS = tuple(_RUNNERS)


def _csv_cell(x) -> str:
    # exact built-in types first; bool and numpy scalars take the
    # isinstance path
    kind = type(x)
    if kind is float:
        return repr(x)
    if kind is int or kind is str:
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        # strict JSON has no NaN or infinity
        return float(obj) if math.isfinite(obj) else None
    return obj


def run(cfg: ExperimentConfig) -> dict:
    """Execute one command and write metadata.json, rows.csv, summary.json
    into cfg.out_dir().  Returns the summary together with the paths.

    The files are written under temporary names in the output directory
    and then renamed over the final ones, so the final names never hold a
    partial file.  On failure the temporary files are removed and the
    files of an earlier run stay untouched."""
    columns, rows, summary = _RUNNERS[cfg.command](cfg)

    out_dir = cfg.out_dir()
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "metadata": os.path.join(out_dir, "metadata.json"),
        "rows": os.path.join(out_dir, "rows.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
    }
    metadata = {
        "command": cfg.command,
        "config": cfg.as_flat(),
        "version": __version__,
        "rng": RNG_FAMILY,
        "schema_version": SCHEMA_VERSION,
        "columns": columns,
    }
    temps = {key: path + ".tmp" for key, path in paths.items()}
    try:
        with open(temps["metadata"], "w", encoding="utf-8") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(temps["rows"], "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_csv_cell(x) for x in row])
        with open(temps["summary"], "w", encoding="utf-8") as fh:
            json.dump(_jsonable(summary), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")
        for key, path in paths.items():
            os.replace(temps[key], path)
    except BaseException:
        for tmp in temps.values():
            try:
                os.unlink(tmp)
            except OSError:
                pass
        raise
    result = dict(_jsonable(summary))
    result["paths"] = paths
    result["n_rows"] = len(rows)
    return result
