"""Reproduce the three baseline cases the roadmap quotes, untraced and traced.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

Cases: the family-1 size sweep of criterion 3 (n = 2..202, 4 trials,
seed 0), the family-2 cell of criterion 1 (n = 1000, delta 1e-8,
tol 1e-16) and one family-3 solve at n = 120. Each case runs once without
and once with the tracing wrappers; the output gives the untraced wall
time and the traced per-layer times and SVD counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import singular_lq as slq  # noqa: E402
from run import environment  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

REPORTED = (
    "algorithm.run_s", "algorithm.final_submanifold_s", "algorithm.svd_calls",
    "geometry.angle_s", "geometry.subspace_s", "geometry.perturb_s", "problem.validate_s",
    "linalg.svd_calls", "linalg.svd_s",
)

CASES = {
    "f1_size_sweep": lambda: slq.run_sweep(1, range(2, 203, 20), [1e-9], 1e-6, trials=4, seed=0),
    "f2_cell_n1000": lambda: slq.run_sweep(2, [1000], [1e-8], 1e-16, trials=1, seed=0),
    "f3_run_n120": lambda: slq.run(slq.gen_experiment3(120), 1e-6),
}


def measure(case) -> dict:
    start = time.perf_counter()
    case()
    wall = time.perf_counter() - start
    with Tracer() as tracer:
        tracer.active = True
        start = time.perf_counter()
        case()
        traced_wall = time.perf_counter() - start
        tracer.active = False
    layers = summarize(tracer.spans, tracer.counters)
    return {
        "wall_s": wall,
        "traced_wall_s": traced_wall,
        **{name: layers.get(name, 0.0) for name in REPORTED},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    result = {"env": environment()}
    for name, case in CASES.items():
        result[name] = measure(case)
        print(name, json.dumps(result[name]), flush=True)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
