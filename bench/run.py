"""Benchmark of the soc-ising CLI: one workload, one seed, one process.

    python3 bench/run.py --workload feedback --seed 1 --seconds 25 --trace 0

Runs the workload's ops (see workloads.py) through `soc_ising.cli.main`
in process, round after round at the same seed, for --seconds seconds.  The
first round warms caches and is not timed.  Every op's output files are
checked, and their sha256 digests must repeat in every round, in traced
rounds, and in earlier runs of the same source tree at the same seed.

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced rounds and reports the per-layer metrics.  The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from spans import STAT_UNITS, Tracer, layer_metric_names
from workloads import COMMAND_METRICS, WORKLOADS, check_outputs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def inputs_digest(workload) -> str:
    """Digest of the package sources and the workload's command lines, so
    stored output digests are only compared against runs of the same code
    on the same inputs."""
    h = hashlib.sha256(json.dumps([op.argv for op in workload.ops]).encode())
    pkg = os.path.join(SRC, "soc_ising")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine_block() -> dict:
    import scipy
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu or platform.processor()}


def measure_setup(sides) -> list[float]:
    """Wall time of a fresh interpreter that imports the package and builds
    the workload's box geometries for the first time."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import soc_ising; "
            "[soc_ising.build_box(int(n)) for n in sys.argv[2:]]")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC, *map(str, sides)],
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def calibrate() -> float:
    """Seconds taken by a fixed kernel that runs no package code: an
    interpreted loop, small numpy calls and 16k-element array work, the mix
    the workloads spend their time in.  Timed before every op, it measures
    how fast the host runs at that moment."""
    rng = np.random.default_rng(0)
    a, idx = rng.random(16384), rng.integers(0, 16384, 16384)
    small = rng.random(8)
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(15000):
        acc += i * i
        table[i & 255] = acc & 1023
    for _ in range(300):
        small.sum()
        np.where(small < 0.5, 1, -1)
    for _ in range(20):
        (a[idx] * 2.0 + a).argsort(kind="stable")
    return time.perf_counter() - t0


def run_op(main, argv: list[str], out_dir: str) -> tuple[int, float, str]:
    """One CLI invocation: (exit code, seconds, captured stderr)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + ["--out", out_dir])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that crashes counts as failed
            print(repr(exc), file=sys.stderr)
            code = 1
    return code, time.perf_counter() - t0, stderr.getvalue().strip()


def run_round(main, workload, seed: int) -> dict:
    """Run every op once; returns per-op time, calibration time just
    before it, digests and failure."""
    ops = {}
    for op in workload.ops:
        out_dir = os.path.join(OUT, workload.name, op.name)
        cal = calibrate()
        code, secs, err = run_op(main, op.argv + ["--seed", str(seed)], out_dir)
        problem, digests = None, {}
        if code != 0:
            problem = f"exit {code}: {err}"
        else:
            try:
                problem = check_outputs(op, out_dir)
                digests = {f: sha256_file(os.path.join(out_dir, f))
                           for f in ("rows.csv", "summary.json")}
            except (OSError, ValueError, KeyError) as exc:
                problem = f"output check: {exc!r}"
        ops[op.name] = {"s": secs, "cal": cal, "problem": problem,
                        "digests": digests}
    return ops


def wall(rounds: list[dict], scaled: bool = False) -> float:
    """Sum over ops of the op's median time across rounds.  Scaled, each op
    time is first divided by the calibration time just before it, so the
    host's speed at that moment cancels out."""
    return sum(
        statistics.median(r[name]["s"] / (r[name]["cal"] if scaled else 1.0)
                          for r in rounds)
        for name in rounds[0])


def command_times(workload, rounds: list[dict]) -> dict[str, float]:
    """Median over rounds of each command metric's summed op time."""
    out = {}
    for metric in COMMAND_METRICS:
        names = [op.name for op in workload.ops if op.metric == metric]
        if names:
            out[metric] = statistics.median(
                sum(r[n]["s"] for n in names) for r in rounds)
    return out


def tally(rounds: list[dict], reference: dict) -> tuple[int, dict]:
    """Ops attempted, and (round, op) -> message for each failed op: nonzero
    exit, failed check, or digests that differ from the reference."""
    attempted, failures = 0, {}
    for i, rnd in enumerate(rounds):
        for name, r in rnd.items():
            attempted += 1
            if r["problem"]:
                failures[i, name] = r["problem"]
            elif r["digests"] != reference[name]:
                failures[i, name] = "output digests differ"
    return attempted, failures


def stored_digests(workload, seed: int, digests: dict) -> dict:
    """Digests of the first run of these sources and inputs at this seed;
    written on first use, read back by later runs."""
    path = os.path.join(OUT, "digests",
                        f"{inputs_digest(workload)}-{workload.name}-{seed}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    if all(digests.values()):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
    return digests


def measure(main, workload, seed: int, seconds: float, traced: bool):
    """Warm-up round, then timed rounds until `seconds` have passed.  When
    traced, timed rounds alternate between traced and untraced."""
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    warm = run_round(main, workload, seed)
    plain, with_trace, layers = [], [], []
    while (time.perf_counter() - start < seconds or len(plain) < 2
           or (traced and len(with_trace) < 2)):
        if traced and len(with_trace) <= len(plain):
            tracer.install()
            try:
                with_trace.append(run_round(main, workload, seed))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_stats())
            tracer.reset()
        else:
            plain.append(run_round(main, workload, seed))
    return warm, plain, with_trace, layers


def layer_metrics(layers: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time statistic over traced rounds; counts must repeat
    exactly from round to round."""
    out, problems = {}, []
    for key in layer_metric_names():
        values = [stats[key] for stats in layers]
        if STAT_UNITS[key.rsplit(".", 1)[1]] != "count":
            out[key] = statistics.median(values)
        elif len(set(values)) == 1:
            out[key] = values[0]
        else:
            problems.append(f"{key}: count differs between traced rounds")
            out[key] = max(values)
    return out, problems


def main_bench(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "soc_ising", "cli.py")):
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from soc_ising import build_box
    from soc_ising.cli import main

    workload = WORKLOADS[args.workload]
    seed = args.seed % 2 ** 64
    machine = machine_block()
    setup = [] if args.trace else measure_setup(workload.sides)
    for n in workload.sides:
        build_box(n)

    warm, plain, traced, layers = measure(main, workload, seed, args.seconds,
                                          bool(args.trace))
    reference = {name: r["digests"] for name, r in warm.items()}
    rounds = [warm] + plain + traced
    stored = stored_digests(workload, seed, reference)
    attempted, failures = tally(rounds, stored)

    probe_exit = None
    if workload.probe and not args.trace:
        probe_exit, _, _ = run_op(main, workload.probe + ["--seed", str(seed)],
                                  os.path.join(OUT, workload.name, "probe"))

    commands = command_times(workload, plain)
    if args.trace:
        metrics, problems = layer_metrics(layers)
        failures.update(("trace", p) for p in problems)
        plain_wall, traced_wall = wall(plain), wall(traced)
        metrics.update({name: commands.get(name, 0.0)
                        for name in COMMAND_METRICS})
        metrics.update({"trace.untraced_wall_s": plain_wall,
                        "trace.traced_wall_s": traced_wall,
                        "trace.overhead_s": traced_wall - plain_wall})
        units = {**{k: STAT_UNITS[k.rsplit(".", 1)[1]]
                    for k in layer_metric_names()},
                 **{k: "s" for k in metrics if k.endswith("_s")}}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_cal": wall(plain, scaled=True),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_cal": "x", "peak_rss_mb": "MB"}

    print(f"workload {workload.name}  seed {seed}  trace {args.trace}  "
          f"rounds {len(plain)} untraced + {len(traced)} traced "
          f"(+1 warm-up)  machine {json.dumps(machine)}")
    for (rnd, name), problem in failures.items():
        print(f"FAILED round {rnd} {name}: {problem}")
    if not args.trace:
        # every user-facing number, including those the JSON line leaves to
        # its attempted/failed counts or to the traced run
        for name, value in {"wall_s": wall(plain), **commands}.items():
            print(f"  {name:<20} {value:.6f} s")
        print(f"  {'error_rate':<20} {len(failures) / attempted:.6f} ratio")
        if probe_exit is not None:
            print(f"  probe {' '.join(workload.probe)} at defaults: "
                  f"exit {probe_exit}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    for name, d in reference.items():
        print(f"  digest {name:<22} rows {d.get('rows.csv', '-')[:16]}  "
              f"summary {d.get('summary.json', '-')[:16]}")

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload.name}-seed{seed}-"
                           f"trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "machine": machine, "setup_runs_s": setup,
                   "commands_s": commands, "digests": reference,
                   "fss_freq_defaults_exit": probe_exit,
                   "failures": [f"{r} {n}: {p}" for (r, n), p
                                in failures.items()]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_bench())
