"""Benchmark for singular-lq: one workload per run, checked outputs, JSON result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-f2-wide --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout. One process runs
one workload as a single closed-loop caller: the next call starts when the
previous one has returned. BLAS keeps the thread count a command-line user
gets by default; the count is printed with the environment because it
changes the results (one thread speeds family 1 and 3 and slows family 2).

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` the timing wrappers of ``tracing`` are installed and every
call runs twice, untraced and then traced; the run reports the per-layer
metrics of the traced calls and the tracing overhead, the extra time the
traced calls took. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from stats import nearest_rank, samples_beyond, tail_percentile
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
# Set-up is timed at least SETUP_ROUNDS times and for at least SETUP_SECONDS:
# a cold start jitters by some 20%, so cheap set-ups get more rounds.
SETUP_ROUNDS = 5
SETUP_SECONDS = 4.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "steps_match_frac": "frac",
}

PER_LAYER = {
    "cli.self_s": "s",
    "experiments.sweep_self_s": "s",
    "experiments.gen_s": "s",
    "experiments.csv_s": "s",
    "experiments.slope_s": "s",
    "experiments.records": "count",
    "experiments.usable_records": "count",
    "problem.validate_s": "s",
    "algorithm.run_s": "s",
    "algorithm.run_calls": "count",
    "algorithm.levels": "count",
    "algorithm.final_submanifold_s": "s",
    "algorithm.self_s": "s",
    "geometry.angle_s": "s",
    "geometry.angle_calls": "count",
    "geometry.subspace_s": "s",
    "geometry.perturb_s": "s",
    "geometry.self_s": "s",
    "dae.chain_s": "s",
    "dae.chain_steps": "count",
    "dae.pencil_s": "s",
    "dae.pencil_calls": "count",
    "dae.regular_verdicts": "count",
    "dae.self_s": "s",
    "linalg.svd_calls": "count",
    "linalg.svd_s": "s",
    "linalg.svd_flops": "flop",
    "cli.svd_calls": "count",
    "experiments.svd_calls": "count",
    "problem.svd_calls": "count",
    "algorithm.svd_calls": "count",
    "geometry.svd_calls": "count",
    "dae.svd_calls": "count",
    "trace.spans": "count",
    "trace.overhead_frac": "frac",
}

# One cold set-up as a CLI user pays it: import, inputs from the seed and
# warm-up, in a fresh interpreter. Arguments: src, perfbench, workdir,
# workload, seed.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
src, bench, workdir, name, seed = sys.argv[1:]
sys.path[:0] = [src, bench]
import singular_lq.cli
import workloads
from pathlib import Path
workload = workloads.make(name)
workload.prepare(int(seed), Path(workdir))
workload.warm_up()
print(time.perf_counter() - start)
"""


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
    }


def _cold_setup_seconds(name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), str(WORKDIR), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(workload, seed: int) -> float:
    """Median of the cold set-ups, then the run's own (untimed) set-up."""
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < SETUP_ROUNDS or time.perf_counter() - start < SETUP_SECONDS:
        rounds.append(_cold_setup_seconds(workload.name, seed))
    workload.prepare(seed, WORKDIR)
    workload.warm_up()
    return statistics.median(rounds)


@dataclass
class Tally:
    """Latencies, item counts and check results of one measurement."""

    latencies: list[float] = field(default_factory=list)
    busy: float = 0.0
    items: int = 0
    failed: int = 0
    steps_match: int = 0
    usable: int = 0
    regular: int = 0
    problems: list[str] = field(default_factory=list)


def _timed_call(workload, index: int, call, tally: Tally, tracer=None) -> None:
    count = workload.call_items
    tally.items += count
    if tracer is not None:
        tracer.item = len(tally.latencies)
        tracer.active = True
    t0 = time.perf_counter()
    try:
        output = call()
    except Exception:  # a failing call is counted, not fatal
        output = None
        tally.failed += count
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    tally.latencies.append(elapsed)
    tally.busy += elapsed
    if output is None:
        return
    outcome = workload.check(index, output)
    tally.steps_match += outcome.steps_match
    tally.usable += outcome.usable
    tally.regular += outcome.regular
    tally.problems += outcome.problems


def measure(workload, seconds: float, tracer=None) -> tuple[Tally, Tally | None]:
    """Whole passes over the workload's pool until the untraced calls took
    ``seconds`` and number at least the workload's ``min_calls``.

    Each call is timed alone; its output is checked after the clock stops,
    and checking time does not count towards ``seconds``. With a tracer,
    every call runs a second time right after, traced, so that machine
    drift affects both sides of the overhead alike.
    """
    plain = Tally()
    traced = None if tracer is None else Tally()
    pool = workload.pool()
    while True:
        for index, call in enumerate(pool):
            _timed_call(workload, index, call, plain)
            if tracer is not None:
                _timed_call(workload, index, call, traced, tracer)
        if plain.busy >= seconds and len(plain.latencies) >= workload.min_calls:
            return plain, traced


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    done = tally.items - tally.failed
    return {
        "setup_s": setup_s,
        "items_per_s": done / tally.busy,
        "item_p50_ms": 1e3 * nearest_rank(tally.latencies, 50.0),
        "item_p90_ms": 1e3 * nearest_rank(tally.latencies, 90.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_match_frac": tally.steps_match / tally.items,
    }


def _print_metrics(values: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")


def _describe(name: str, tally: Tally) -> None:
    count = len(tally.latencies)
    tail = tail_percentile(count)
    print(
        f"{name}: {count} calls, {tally.items} items, "
        f"{samples_beyond(count, 90.0)} calls beyond p90; highest percentile with "
        f"10 calls beyond it: {'none' if tail is None else f'p{tail:g}'}"
    )
    print(f"failed_frac = {tally.failed / tally.items:.6g} frac")
    if name.startswith("sweep"):
        print(f"usable_frac = {tally.usable / tally.items:.6g} frac")
    if name == "dae-chains":
        print(f"chains of another length than nu + 1: {tally.items - tally.steps_match}")
        print(f"regular_verdict_frac = {tally.regular / tally.items:.6g} frac")


def _run(args) -> dict:
    workload = workloads.make(args.workload)
    setup_s = setup(workload, args.seed)
    if args.trace:
        with Tracer() as tracer:
            untraced, traced = measure(workload, args.seconds, tracer)
        tallies = [untraced, traced]
        layers = summarize(tracer.spans, tracer.counters)
        metrics = {name: layers.get(name, 0.0) for name in PER_LAYER}
        metrics["trace.spans"] = len(tracer.spans)
        metrics["trace.overhead_frac"] = traced.busy / untraced.busy - 1.0
        print(f"calls took {untraced.busy:.6g} s untraced, {traced.busy:.6g} s traced")
        units = PER_LAYER
    else:
        untraced, _ = measure(workload, args.seconds)
        tallies = [untraced]
        metrics = end_to_end(untraced, setup_s)
        units = END_TO_END
    _describe(args.workload, untraced)
    _print_metrics(metrics, units)
    problems = [p for t in tallies for p in t.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(t.items for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    if not (SRC / "singular_lq" / "__init__.py").is_file():
        print(f"error: no singular_lq package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import singular_lq

    if Path(singular_lq.__file__).resolve().parent != SRC / "singular_lq":
        print(f"error: singular_lq imported from {singular_lq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("env:", json.dumps(environment(), sort_keys=True))

    WORKDIR.mkdir(exist_ok=True)
    try:
        result = _run(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
