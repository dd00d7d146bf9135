"""The benchmark's workloads: CLI invocations and the checks on their outputs.

Each workload is a fixed list of ops.  An op is one `soc-ising` command line
(without --seed and --out, which the runner adds) together with the check
its output files must pass.  Ops that share a `metric` are timed together:
their per-round times are summed into that metric.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

EXACT_TOL = 1e-12


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token} in JSON")


def load_summary(path: str) -> dict:
    """Parse summary.json strictly: NaN and Infinity are rejected."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _sides(argv: list[str]) -> list[int]:
    return [int(s) for s in _flag(argv, "--n").split(",")]


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def check_soc_run(argv, rows, summary):
    per_side = int(_flag(argv, "--total")) // int(_flag(argv, "--tau"))
    for n in _sides(argv):
        got = sum(1 for r in rows if int(r["n"]) == n)
        if got != per_side:
            return f"side {n}: {got} records, expected {per_side}"
    bad = [r["T"] for r in rows if not math.isfinite(float(r["T"]))]
    return _expect(not bad, f"non-finite T values: {bad[:3]}")


def check_soc_compare(argv, rows, summary):
    want = 2 * int(_flag(argv, "--total")) * len(_sides(argv))
    return _expect(len(rows) == want, f"{len(rows)} rows, expected {want}")


def check_samples(argv, rows, summary):
    want = int(_flag(argv, "--samples")) * len(_sides(argv))
    return _expect(len(rows) == want, f"{len(rows)} rows, expected {want}")


def check_surgery(argv, rows, summary):
    for r in rows:
        if r["success"] == "1" and not (
                r["identity_ok"] == "1" and r["m_after"] == r["target"]):
            return f"sample {r['sample']}: success without identity/target"
    return check_samples(argv, rows, summary)


def check_max_error(argv, rows, summary):
    err = summary["max_error"]
    return _expect(err <= EXACT_TOL, f"max_error {err!r} > {EXACT_TOL}")


def check_enumerate(argv, rows, summary):
    total, zdiff = summary["prob_total"], summary["z_abs_difference"]
    if abs(total - 1.0) > EXACT_TOL:
        return f"prob_total {total!r} not within {EXACT_TOL} of 1"
    return _expect(zdiff <= EXACT_TOL, f"z_abs_difference {zdiff!r} > {EXACT_TOL}")


@dataclass(frozen=True)
class Op:
    name: str
    argv: list[str]
    check: Callable[[list[str], list[dict], dict], str | None]
    metric: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: list[Op]
    # box sides whose geometry the set-up measurement builds
    sides: tuple[int, ...]
    # untimed command line whose exit code is recorded, not checked
    probe: list[str] | None = None


# Run lengths keep one round near one second on one core: host speed
# drifts, and a run of 30 s then takes its medians over 15-20 rounds.
WORKLOADS = {
    w.name: w for w in [
        Workload(
            name="feedback",
            why="feedback dynamics: heat-bath sweeps at side 16 (per-call "
                "overhead) and 128 (array work), sparse snapshots; no surgery "
                "or enumeration",
            ops=[
                Op("soc-run-16", ["soc-run", "--n", "16", "--a", "1.99",
                                  "--tau", "32", "--total", "4000",
                                  "--snapshot-every", "25"],
                   check_soc_run, "soc_run_s"),
                Op("soc-run-128", ["soc-run", "--n", "128", "--a", "1.99",
                                   "--tau", "32", "--total", "256",
                                   "--snapshot-every", "4"],
                   check_soc_run, "soc_run_s"),
                Op("soc-compare-8", ["soc-compare", "--n", "8",
                                     "--total", "500"],
                   check_soc_compare, "soc_compare_s"),
            ],
            sides=(16, 128, 8),
        ),
        Workload(
            name="clusters",
            why="cluster labelling in large boxes, the surgery greedy stage "
                "and the single-bond sweep; no heat bath or enumeration",
            ops=[
                Op("fk-sample-sw", ["fk-sample", "--n", "64", "--p", "0.6",
                                    "--q", "2", "--bc", "1", "--samples", "10",
                                    "--burn-in", "10"],
                   check_samples, "fk_sample_s"),
                Op("tail-fit", ["tail-fit", "--n", "64", "--p", "0.4",
                                "--bc", "0", "--samples", "50",
                                "--burn-in", "10", "--min-hits", "10"],
                   check_samples, "tail_fit_s"),
                Op("surgery-demo", ["surgery-demo", "--n", "30", "--p", "0.7",
                                    "--a", "1.95", "--samples", "2",
                                    "--burn-in", "20"],
                   check_surgery, "surgery_demo_s"),
                Op("fk-sample-single-bond", ["fk-sample", "--n", "12",
                                             "--q", "1.5", "--p", "0.6",
                                             "--bc", "1", "--method",
                                             "single-bond", "--samples", "2",
                                             "--burn-in", "2"],
                   check_samples, "single_bond_s"),
                Op("fss-freq", ["fss-freq", "--n", "16,32", "--p", "0.6",
                                "--samples", "10", "--burn-in", "20"],
                   check_samples, "fss_freq_s"),
            ],
            sides=(64, 30, 12, 16, 32),
            # fss-freq at its own defaults exits 1 today (no fixed point
            # below n ~ 2e38); the probe keeps that visible, untimed.
            probe=["fss-freq"],
        ),
        Workload(
            name="exact",
            why="exact small-box laws: ~8k tiny decompose calls, bitmask "
                "union-find and pushforward loops; exposes per-call overhead",
            ops=[
                *[Op(f"coupling-verify-t{t}", ["coupling-verify", "--n", "3",
                                                "--t", t],
                     check_max_error, "coupling_verify_s")
                  for t in ("1.0", "2.269")],
                *[Op(f"duality-verify-q{q}", ["duality-verify", "--n", "3",
                                              "--q", q, "--p", p],
                     check_max_error, "duality_verify_s")
                  for q, p in (("2", "0.6"), ("1.5", "0.55"))],
                *[Op(f"enumerate-{n}-{v}", ["enumerate", "--n", str(n),
                                            "--variant", v], check_enumerate)
                  for n in (3, 4) for v in ("mu", "mu-prime")],
            ],
            sides=(3, 4, 2),
        ),
    ]
}

COMMAND_METRICS = ("soc_run_s", "soc_compare_s", "fk_sample_s", "tail_fit_s",
                   "surgery_demo_s", "single_bond_s", "fss_freq_s",
                   "coupling_verify_s", "duality_verify_s")


def check_outputs(op: Op, out_dir: str) -> str | None:
    """Run the op's check on its files; None when they pass."""
    rows = load_rows(os.path.join(out_dir, "rows.csv"))
    summary = load_summary(os.path.join(out_dir, "summary.json"))
    return op.check(op.argv, rows, summary)
