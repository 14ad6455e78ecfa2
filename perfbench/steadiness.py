"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out runs.json]

Each (workload, seed) pair runs in its own process, one at a time, for
the ``run_seconds`` in BENCHMARK.json. For every end-to-end metric the
report gives the median over the seeds and the distance between the first
and third quartile as a share of the median, next to the metric's bound.

    python3 perfbench/steadiness.py --compare first.json second.json

compares two such sets: for every workload and end-to-end metric, how much
worse the second median is than the first, as a share of the first, next
to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def _median(runs: list[dict], metric: str) -> float:
    return statistics.median(r["metrics"][metric]["value"] for r in runs)


def compare(config: dict, first: dict, second: dict) -> bool:
    """Print how much worse each median of ``second`` is than ``first``; True if within bounds."""
    ok = True
    for workload, runs in first.items():
        for metric in config["end_to_end"]:
            name = metric["name"]
            before, after = _median(runs, name), _median(second[workload], name)
            worse = (after - before if metric["better"] == "lower" else before - after) / before
            ok &= worse <= metric["bound"]
            print(
                f"{workload:15s} {name:18s} {before:.6g} -> {after:.6g} {metric['unit']:5s}"
                f" worse by {worse:+.4f} bound={metric['bound']}"
            )
    return ok


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path, help="write every run's result here as JSON")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        return 0 if compare(config, first, second) else 1

    results: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = results.setdefault(workload, [])
        for seed in args.seeds:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(config["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']}", flush=True)
        for metric in config["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            spread = quartile_spread(values)
            print(
                f"  {metric['name']:18s} median={statistics.median(values):.6g} {metric['unit']:5s}"
                f" spread={spread:.4f} bound={metric['bound']} ({spread / metric['bound']:.2f} of bound)"
            )
    if args.out:
        args.out.write_text(json.dumps(results, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
