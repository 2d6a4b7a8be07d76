"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with the BLAS/OpenMP thread pools pinned to one thread.
Prints one JSON object as its last line of output: the set-up time, the
timed call's wall time, the latency samples, the output-check verdicts, and
either the calibration scale (untraced, see ``calibrate.py``) or the
per-layer metrics (traced).

    python3 perfbench/worker.py --workload overtake --input scn.json \
        --out DIR --mode plain|traced|setup [--seed N] [--spawned T]

``--spawned`` is the ``time.monotonic()`` reading taken by the parent just
before it started this process, so ``setup_s`` covers interpreter start-up,
imports and scenario preparation up to the first timed call.
"""

from __future__ import annotations

import time

T_IMPORT = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
from tracing import (Tracer, instrument, layer_metrics,  # noqa: E402
                     plan_latencies, tick_latencies)

FAILURE_EVENTS = ("planner_fallback", "tracker_infeasible",
                  "horizon_exhausted", "collision_margin")


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def _sha256(file: Path) -> str:
    return hashlib.sha256(file.read_bytes()).hexdigest()


def timed(call, cal):
    """Run ``call()``; return its result and its wall seconds, less the
    calibration slices run inside it.  With a calibrator, a slice also runs
    just before and just after the call."""
    if cal is not None:
        cal.take()
        before = cal.spent()
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    if cal is not None:
        wall -= cal.spent() - before
        cal.take()
    return out, wall


def closed_loop(args, tracer: Tracer, spawned: float, cal) -> dict:
    from tvapf import scenario, simulation
    from tvapf.geometry import cartesian_to_frenet
    from tvapf.potentials import verify_lane_centering
    from tvapf.tracker import check_hierarchy

    t0 = time.perf_counter()
    scn = scenario.load(args.input)
    load_s = time.perf_counter() - t0
    # the set-up simulation.run starts with, so that setup_s prices it
    path = scn.build_path()
    check_hierarchy(scn.tracker_config(), scn.planner_config())
    verify_lane_centering(path, scn.potential_config())
    scn.tvapf_params()
    result = {"setup_s": time.monotonic() - spawned, "load_s": load_s}
    if args.mode == "setup":
        return result

    log, result["wall_s"] = timed(lambda: simulation.run(scn), cal)

    summary = simulation.summarize(log, scn)
    runlog = Path(args.out) / "runlog.csv"
    log.to_csv(runlog)
    first, last = log.steps[0], log.steps[-1]
    s0 = cartesian_to_frenet(path, (first["ego_x"], first["ego_y"])).s
    s1 = cartesian_to_frenet(path, (last["ego_x"], last["ego_y"])).s
    verdicts = checks.closed_loop(args.workload, args.seed, scn, log, summary)
    attempted = len(log.instances) + len(tick_latencies(tracer.spans))
    failed = sum(1 for e in log.events if e["kind"] in FAILURE_EVENTS)
    result.update({
        "attempted": attempted,
        "failed": attempted if not all(verdicts.values())
        else min(failed, attempted),
        "checks": verdicts,
        "events": [e["kind"] for e in log.events],
        "progress_m": s1 - s0,
        "plan_objective": sum(i["stats"].get("objective", 0.0)
                              for i in log.instances),
        "track_err_max_m": summary["max_tracking_error"],
        "digest": _sha256(runlog),
        "output": str(runlog),
    })
    return result


def plan_cold(args, tracer: Tracer, spawned: float, cal) -> dict:
    from tvapf import planner, prediction, scenario
    from tvapf.potentials import verify_lane_centering
    from tvapf.prediction import ObstacleState

    t0 = time.perf_counter()
    scn = scenario.load(args.input)
    load_s = time.perf_counter() - t0
    scenes = json.loads(Path(args.scenes).read_text())
    path = scn.build_path()
    pcfg = scn.planner_config()
    pot = scn.potential_config()
    tvapf = scn.tvapf_params()
    verify_lane_centering(path, pot)
    # leader and oncoming actors take L1's and O1's bounds
    leader_spec, oncoming_spec = scn.actors[0], scn.actors[1]
    right, left = path.rightmost_lane_center, path.lane_center(1)
    result = {"setup_s": time.monotonic() - spawned, "load_s": load_s}
    if args.mode == "setup":
        return result

    def obstacle(spec, s, d, v, direction):
        return ObstacleState(s_o=s, d_o=d, v_o=v, v_bounds=spec.v_bounds,
                             a_bounds=spec.a_bounds, direction=direction)

    def solve_all():
        plans = []
        for sc in scenes:
            with tracer.request_scope("scene"):
                s = sc["ego_s"]
                actors = [obstacle(leader_spec, s + sc["leader"][0], right,
                                   sc["leader"][1], 1)]
                actors += [obstacle(oncoming_spec, s + gap, left, v, -1)
                           for gap, v in sc["oncoming"]]
                forecasts = [prediction.propagate_obstacle(o, pcfg.T_sL,
                                                           pcfg.N_L)
                             for o in actors]
                xi0 = planner.EgoModelState(s=s, d=right, psi=0.0,
                                            nu=sc["ego_v"])
                try:
                    plans.append(planner.solve_ltp(
                        xi0, forecasts, path, pcfg, potentials_cfg=pot,
                        tvapf=tvapf, warm_start=None, t0=0.0,
                        alpha_prev=0.0))
                except (planner.Infeasible, planner.EmptyTerminalSet):
                    plans.append(None)
        return plans

    plans, result["wall_s"] = timed(solve_all, cal)
    failed = plans.count(None)

    dump = Path(args.out) / "plans.json"
    dump.write_text(json.dumps(
        [None if p is None else [[x.s, x.d, x.psi, x.nu] for x in p.states]
         for p in plans]))
    verdicts = checks.plan_cold(plans, path)
    done = [p for p in plans if p is not None]
    result.update({
        "attempted": len(scenes),
        "failed": len(scenes) if not all(verdicts.values()) else failed,
        "checks": verdicts,
        "events": [],
        "progress_m": sum(p.states[-1].s - p.states[0].s for p in done),
        "plan_objective": sum(p.solve_stats["objective"] for p in done),
        "digest": _sha256(dump),
        "output": str(dump),
    })
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True,
                        help="scenario file handed to the program")
    parser.add_argument("--scenes", help="plan_cold scene list (JSON)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "setup"),
                        default="plain")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned", type=float, default=T_IMPORT)
    args = parser.parse_args(argv)

    tracer = Tracer()
    body = plan_cold if args.workload == "plan_cold" else closed_loop
    cal = calibrate.Calibrator() if args.mode == "plain" else None
    with instrument(tracer, traced=args.mode == "traced",
                    after_op=cal.after_op if cal else None):
        result = body(args, tracer, args.spawned, cal)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    if cal is not None:
        result["scale"] = cal.scale()
        result["slices"] = len(cal.samples)
    if args.mode != "setup":
        result["plan_ms"] = [1e3 * t for t in plan_latencies(tracer.spans)]
        result["tick_ms"] = [1e3 * t for t in tick_latencies(tracer.spans)]
    if args.mode == "traced":
        result["layers"] = layer_metrics(tracer.spans)
        result["layers"]["scenario.load_s"] = result["load_s"]
        tracer.write(Path(args.out) / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
