"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/spread.py --workload overtake --seeds 1-10 [--seconds 30]

For every metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, next to the
metric's bound from BENCHMARK.json.  A benchmark is steady when every spread
except that of ``setup_s`` stays well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              contract["per_layer" if args.trace else "end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"{args.workload}: {len(args.seeds)} seeds")
    for name, vs in values.items():
        med = statistics.median(vs)
        share = stats.spread(vs) if len(vs) > 1 and med else float("nan")
        bound = bounds[name]
        print(f"  {name:32s} median {med:14.6g}  spread {share:7.4f}"
              + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
