"""Closed-loop and planner-only benchmark of the tvapf stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload overtake --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``overtake``   the bundled overtake scenario, closed loop, 60 s simulated;
* ``empty_road`` the bundled empty-road scenario, closed loop, 20 s simulated;
* ``plan_cold``  cold ``solve_ltp`` calls on seeded scenes, no closed loop.

Seed 0 of a closed-loop workload is the bundled file verbatim; other seeds
jitter it (``inputs.py``).  The loop has one client: ``simulation.run``
issues each planner instance and tracker tick only after the previous one
finished, on simulated time, so there is no arrival rate; the benchmark
reports work done at a fixed input size.

Every repetition runs in a fresh single-threaded process (``worker.py``,
BLAS and OpenMP pools pinned to one thread).  Repetitions start while the
next one is expected to end within ``--seconds``; at least one runs.  With
``--trace 0`` the end-to-end metrics are medians over repetitions, and
``setup_s`` is the median over at least five fresh processes.  An untraced
repetition also times calibration slices between the program's operations
(``calibrate.py``); the ``*_norm_*`` timings are scaled by them to a fixed
core speed, which takes out the host's drifts in speed, and the raw timings
are printed beside them.  With ``--trace 1`` each repetition is a pair,
untraced then traced, and the traced run's output must be byte-identical to
the untraced one; the
per-layer metrics are medians over the traced runs, and ``trace.overhead_s``
is the traced minus the untraced wall time.

The report goes to standard output, one metric a line with its unit and
sample count, and the last line is the JSON result.  Run-time files go to
``.perfbench_out/`` in the checkout.  The exit code is 1 when an output
check fails, 2 when the program sources are missing.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("overtake", "empty_road", "plan_cold")
COLD_SCENES = 12
SETUP_SAMPLES = 5
# every child is stopped by then, so a run ends well within 180 s
DEADLINE_S = 170.0
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


def spawn(argv, deadline):
    """Run worker.py in a fresh process; its JSON result, or None."""
    env = dict(os.environ, **THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), *argv,
           "--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {' '.join(argv)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited {proc.returncode}: {' '.join(argv)}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload, seed, root, out) -> list:
    """Write the seeded inputs; return the worker's input arguments."""
    if workload == "plan_cold":
        scenes = out / "scenes.json"
        scenes.write_text(json.dumps(inputs.cold_scenes(seed, COLD_SCENES)))
        scn = root / inputs.SCENARIO_DIR / "overtake.json"
        return ["--input", str(scn), "--scenes", str(scenes)]
    scn = out / "scenario.json"
    scn.write_text(inputs.scenario_text(workload, seed, root))
    return ["--input", str(scn)]


def measure(args, root, out):
    """Repetitions within the time budget.

    Returns the untraced and traced worker results, the set-up samples, a
    list of errors, and whether every traced output matched its untraced
    twin byte for byte.
    """
    start = time.monotonic()
    deadline = start + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed),
            *prepare(args.workload, args.seed, root, out)]
    plain, traced, setups, errors = [], [], [], []
    identical = True
    modes = [("plain", plain)] + ([("traced", traced)] if args.trace else [])
    setup_dir = out / "setup"
    setup_dir.mkdir()

    def sample_setups(n):
        # set-up only processes, taken before and after the repetitions so
        # that their median does not hinge on one moment of machine load
        for _ in range(n):
            result = spawn(base + ["--mode", "setup", "--out",
                                   str(setup_dir)], deadline)
            if result is None:
                errors.append("set-up process did not finish")
                return
            setups.append(result["setup_s"])

    if not args.trace:
        sample_setups(SETUP_SAMPLES // 2)
    durations = []
    while True:
        t0 = time.monotonic()
        k = len(durations)
        for mode, sink in modes:
            rep = out / f"{k}-{mode}"
            rep.mkdir()
            result = spawn(base + ["--mode", mode, "--out", str(rep)],
                           deadline)
            if result is None:
                errors.append(f"repetition {k} ({mode}) did not finish")
                return plain, traced, setups, errors, identical
            sink.append(result)
        setups.append(plain[-1]["setup_s"])
        if args.trace and not filecmp.cmp(plain[-1]["output"],
                                          traced[-1]["output"],
                                          shallow=False):
            identical = False
            errors.append(f"repetition {k}: traced output differs from "
                          "untraced output")
        durations.append(time.monotonic() - t0)
        if time.monotonic() + statistics.mean(durations) > \
                start + args.seconds:
            break
    if len({r["digest"] for r in plain}) > 1:
        errors.append("repetitions of one seed gave different outputs")
    if not args.trace:
        sample_setups(SETUP_SAMPLES - len(setups))
    return plain, traced, setups, errors, identical


def end_to_end(plain, setups) -> dict:
    """Every end-to-end figure, as (value, unit, sample count)."""
    plan_ms = [t for r in plain for t in r["plan_ms"]]
    tick_ms = [t for r in plain for t in r["tick_ms"]]
    plan_norm_ms = [t * r["scale"] for r in plain for t in r["plan_ms"]]
    first = plain[0]
    out = {
        "wall_norm_s": (statistics.median(r["wall_s"] * r["scale"]
                                          for r in plain), "s", len(plain)),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s",
                   len(plain)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                        "MB", len(plain)),
        "plan_mean_norm_ms": (statistics.mean(plan_norm_ms), "ms",
                              len(plan_norm_ms)),
        "plan_mean_ms": (statistics.mean(plan_ms), "ms", len(plan_ms)),
        "plan_p50_ms": (stats.percentile(plan_ms, 50), "ms", len(plan_ms)),
        "progress_m": (first["progress_m"], "m", 1),
        "plan_objective": (first["plan_objective"], "1", 1),
        "scale": (statistics.median(r["scale"] for r in plain), "1",
                  sum(r["slices"] for r in plain)),
    }
    if tick_ms:
        out["tick_p50_ms"] = (stats.percentile(tick_ms, 50), "ms",
                              len(tick_ms))
        if stats.tail_reportable(len(tick_ms), 90):
            out["tick_p90_ms"] = (stats.percentile(tick_ms, 90), "ms",
                                  len(tick_ms))
        out["track_err_max_m"] = (first["track_err_max_m"], "m", 1)
    return out


def per_layer(plain, traced) -> dict:
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in names}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"]
                                                   for r in plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="tvapf closed-loop and planner-only benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tvapf" / "__init__.py").is_file():
        print("no tvapf sources under src/: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out = root / ".perfbench_out" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    plain, traced, setups, errors, identical = measure(args, root, out)
    if not plain or (args.trace and not traced):
        print("\n".join(errors), file=sys.stderr)
        return 1
    runs = plain + traced
    failed_checks = sorted({name for r in runs
                            for name, ok in r["checks"].items() if not ok})
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = not errors and not failed_checks

    env = plain[0]["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)}")
    print(f"nproc {env['nproc']}  python {env['python']}  numpy "
          f"{env['numpy']}  scipy {env['scipy']}  threads "
          + " ".join(f"{k}={v}" for k, v in env["threads"].items()))
    print(f"output sha256 {plain[0]['digest']}")
    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} "
          "operations)  events "
          + (", ".join(sorted(set(plain[0]["events"]))) or "none"))
    for msg in errors + [f"check failed: {n}" for n in failed_checks]:
        print(msg)

    if args.trace:
        values = per_layer(plain, traced)
        print("traced output byte-identical to untraced: "
              + ("yes" if identical else "NO"))
        wanted = contract["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        for name, value in values.items():
            print(f"  {name:32s} {value:16.6f} {units.get(name, '')}  "
                  f"n={len(traced)}")
    else:
        figures = end_to_end(plain, setups)
        for name, (value, unit, n) in figures.items():
            print(f"  {name:16s} {value:14.6f} {unit:3s} n={n}")
        values = {name: fig[0] for name, fig in figures.items()}
        wanted = contract["end_to_end"]

    report = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    (out / "report.json").write_text(json.dumps(
        {**report, "env": env, "digest": plain[0]["digest"],
         "errors": errors, "failed_checks": failed_checks,
         "all_values": values, "setup_samples": setups,
         "wall_samples": [r["wall_s"] for r in plain + traced]}, indent=2))
    print(json.dumps(report))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
