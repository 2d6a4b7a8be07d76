"""Command-line entry point.

``tvapf run`` executes the closed-loop simulation and writes plot-ready
artifacts (runlog.csv, instances.json, summary.json); ``tvapf plan`` runs the
closed loop's planner instance at a chosen scene time and dumps its record,
the sampled obstacle field, and the published candidate's terminal set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import scenario as scenario_mod
from .prediction import ObstacleField
from .planner import V_MAX
from .scenario import Scenario, ScenarioError, initial_ego_state
from .simulation import (ActorRuntime, EventKind, RunLog, _plan_instance,
                         run, summarize)
from .tracker import VehicleState

# Event kinds that mean the run degraded to the safe-stop fallback or came
# closer to an actor than the scenario's collision margin.
_SAFESTOP_EVENTS = {EventKind.PLANNER_FALLBACK, EventKind.COLLISION_MARGIN}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvapf",
        description="Potential-field motion planner and closed-loop simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the closed-loop simulation")
    p_run.add_argument("scenario", help="scenario file (JSON or YAML)")
    p_run.add_argument("--out", default="out",
                       help="output directory (default: ./out)")
    p_run.add_argument("--strict", action="store_true",
                       help="exit 3 when the run degrades to safe-stop or "
                            "breaches the collision margin")
    p_run.add_argument("--dry-run", action="store_true",
                       help="validate and print the resolved config only")
    p_run.add_argument("--instance-period", type=float, default=None,
                       help="override the planner instance period [s]")
    p_run.add_argument("--horizon", type=int, default=None,
                       help="override the planner horizon length N_L")
    p_run.set_defaults(func=cmd_run)

    p_plan = sub.add_parser(
        "plan", help="solve one planner instance and dump plot data")
    p_plan.add_argument("scenario", help="scenario file (JSON or YAML)")
    p_plan.add_argument("--at", type=float, default=0.0,
                        help="scene time of the instance [s] (default: 0)")
    p_plan.add_argument("--out", default="plan.json",
                        help="output JSON file (default: ./plan.json)")
    p_plan.add_argument("--field-step", type=int, default=5,
                        help="dump the field every this many horizon steps")
    p_plan.set_defaults(func=cmd_plan)
    return parser


def _load_scenario(file, overrides=None) -> Scenario | None:
    try:
        return scenario_mod.load(file, overrides)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return None


def cmd_run(args) -> int:
    # the overrides replace the file's entries and pass the same checks
    planner = {key: value for key, value in (
        ("instance_period", args.instance_period), ("N_L", args.horizon))
        if value is not None}
    scn = _load_scenario(args.scenario, {"planner": planner})
    if scn is None:
        return 2
    if args.dry_run:
        json.dump({"scenario": scn.to_dict(),
                   "planner_config": asdict(scn.planner_config()),
                   "tracker_config": asdict(scn.tracker_config())},
                  sys.stdout, indent=2)
        print()
        return 0

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = run(scn)
    log.to_csv(out / "runlog.csv")
    with open(out / "instances.json", "w") as fh:
        json.dump(log.to_json_dict(), fh, indent=2)
    summary = summarize(log, scn)
    # the run log's last digits depend on the BLAS thread count (SLSQP)
    summary["threads"] = {name: os.environ.get(name) for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)

    timeline = " ".join(f"{e['decision']}@{e['t0']:g}s"
                        for e in summary["decision_timeline"])
    print(f"wrote {out / 'runlog.csv'}  ({len(log.steps)} steps, "
          f"{len(log.instances)} instances)")
    print(f"decisions: {timeline}")
    print(f"min/max speed {summary['min_speed']:.2f}/"
          f"{summary['max_speed']:.2f} m/s, "
          f"solve mean/max {summary['solve_time_mean']:.3f}/"
          f"{summary['solve_time_max']:.3f} s, events: "
          f"{summary['events'] or 'none'}")
    if args.strict and any(EventKind(e) in _SAFESTOP_EVENTS
                           for e in summary["events"]):
        print("strict mode: run degraded to safe-stop or breached the "
              "collision margin", file=sys.stderr)
        return 3
    return 0


def _scene_at(scn: Scenario, t: float):
    """Road, ego state, actors, scene time and the longitudinal input
    applied just before, at the plant step nearest t; for t > 0 the closed
    loop is replayed up to and including that step.  The input is None at
    t = 0, where no tracker tick has run."""
    path = scn.build_path()
    h = float(scn.sim["plant_step"])
    n = int(round(t / h))
    if n == 0:
        actors = [ActorRuntime(spec=a, s=a.s0, d=a.d0, v=a.v0)
                  for a in scn.actors]
        return path, initial_ego_state(scn, path), actors, 0.0, None
    log = run(replace(scn, sim={**scn.sim, "duration": (n + 1) * h}))
    row = log.steps[n]
    chi = VehicleState(x=row["ego_x"], y=row["ego_y"], theta=row["ego_theta"],
                       v=row["ego_v"], delta=row["ego_delta"])
    actors = [ActorRuntime(spec=a, s=row[f"{a.id}_s"], d=row[f"{a.id}_d"],
                           v=row[f"{a.id}_v"]) for a in scn.actors]
    return path, chi, actors, row["time"], log.steps[n - 1]["u_a"]


def cmd_plan(args) -> int:
    scn = _load_scenario(args.scenario)
    if scn is None:
        return 2
    if not 0.0 <= args.at <= scn.sim["duration"]:  # refuses nan and inf too
        print(f"--at must be a time in [0, {scn.sim['duration']:g}] s, got "
              f"{args.at}", file=sys.stderr)
        return 2
    pcfg = scn.planner_config()
    tvapf = scn.tvapf_params()
    path, chi, actors, t0, a_applied = _scene_at(scn, args.at)
    # the closed loop's instance, anchored to the input the loop applied
    log = RunLog()
    traj, forecasts = _plan_instance(
        t0, chi, actors, path, pcfg, scn.potential_config(), tvapf,
        float(scn.sim["sensor_range"]), log, a_applied=a_applied)
    for event in log.events:
        print(f"planner fallback: {event['message']}", file=sys.stderr)

    # obstacle-field samples on an (s, d, j) grid around the planned motion
    s0 = traj.states[0].s
    s_hi = min(path.length, s0 + V_MAX * pcfg.N_L * pcfg.T_sL + 50.0)
    s_grid = np.linspace(s0 - 50.0, s_hi, 141)
    d_grid = np.linspace(path.right_edge_offset, path.left_edge_offset, 33)
    j_grid = list(range(0, pcfg.N_L + 1, max(1, args.field_step)))
    S, D = np.meshgrid(s_grid, d_grid, indexing="ij")
    field = []
    for j in j_grid:
        # overlay of the per-obstacle fields (each normalized to [0, 1])
        w = ObstacleField(forecasts, np.full(S.shape, j), tvapf).at(S, D).w
        field.append(np.max(w, axis=0, initial=0.0).tolist())

    # the box of the published candidate; the fallback has none
    box = traj.solve_stats.get("terminal_set")
    dump = {**log.instances[0], "terminal_set": box,
            "field": {"s": s_grid.tolist(), "d": d_grid.tolist(), "j": j_grid,
                      "W": field}}
    with open(args.out, "w") as fh:
        json.dump(dump, fh)
    print(f"wrote {args.out}  decision={dump['decision']} "
          f"terminal_s_max={box['s_max'] if box else 'n/a'} "
          f"max W={np.max(field):.3f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
