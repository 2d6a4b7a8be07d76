"""Deterministic closed-loop simulation harness.

Fixed-step event loop over plant steps: the planner publishes a trajectory
every instance period, the tracker runs on its own tick against the latest
published trajectory, and a kinematic single-track plant integrates the
applied inputs.  Scripted actors never react to the ego, so each planner
instance steps them through its window of plant steps at once.  Every step
runs in order in one loop, so a run is bit-reproducible; there is no
concurrent mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (FrenetPoint, OutOfRange, cartesian_to_frenet,
                       frenet_to_cartesian, wrap_angle)
from .planner import (EgoModelState, Infeasible, decision_label,
                      safe_stop_trajectory, solve_ltp, state_box)
from .prediction import ObstacleState, propagate_obstacle
from .resampler import resample
from .scenario import Scenario, initial_ego_state
from .tracker import (Infeasible as TrackerInfeasible, VehicleState,
                      bicycle_step, refused_tick_input, solve_nmpc)


class EventKind(str, enum.Enum):
    """Kinds of the events a run logs; the values are the strings stored in
    the run log."""

    PLANNER_FALLBACK = "planner_fallback"
    TRACKER_INFEASIBLE = "tracker_infeasible"
    COLLISION_MARGIN = "collision_margin"
    OFF_PATH = "off_path"


@dataclass
class ActorRuntime:
    """Mutable state of one scripted actor."""

    spec: object
    s: float
    d: float
    v: float

    @property
    def direction(self) -> int:
        return self.spec.direction


def step_actor(actor: ActorRuntime, t: float, T: float) -> None:
    """Advance one actor by T seconds: position first, then relax the speed
    toward the scripted target under the actor's acceleration bounds."""
    actor.s += T * actor.direction * actor.v
    target = actor.v
    for t_entry, target_v in actor.spec.script:
        if t >= t_entry:
            target = target_v
    a_lo, a_hi = actor.spec.a_bounds
    dv = min(max(target - actor.v, a_lo * T), a_hi * T)
    v_lo, v_hi = actor.spec.v_bounds
    actor.v = float(min(max(actor.v + dv, v_lo), v_hi))


def _actor_window(actors, path, n0: int, steps: int, h: float):
    """The scripted actors over plant steps n0 .. n0 + steps - 1: per step
    the tuple (s, d, v) of each actor in turn, and the (steps, actors, 2)
    array of their Cartesian positions, converted in one call.  Advances
    the actors to step n0 + steps."""
    states = []
    for n in range(n0, n0 + steps):
        states.append(tuple(x for a in actors for x in (a.s, a.d, a.v)))
        for actor in actors:
            step_actor(actor, n * h, h)
    if not actors:
        return states, np.empty((steps, 0, 2))
    sdv = np.reshape(states, (steps, len(actors), 3))
    p = frenet_to_cartesian(path, FrenetPoint(
        s=np.clip(sdv[..., 0], 0.0, path.length), d=sdv[..., 1]))
    return states, np.stack([p.x, p.y], axis=-1)


@dataclass
class RunLog:
    steps: list = field(default_factory=list)
    instances: list = field(default_factory=list)
    events: list = field(default_factory=list)
    actor_ids: list = field(default_factory=list)

    def to_csv(self, file) -> None:
        cols = ["time", "ego_x", "ego_y", "ego_theta", "ego_v", "ego_delta",
                "u_a", "u_w", "traj_id", "sigma",
                "err_x", "err_y", "err_theta", "err_v", "min_gap"]
        for aid in self.actor_ids:
            cols.extend([f"{aid}_s", f"{aid}_d", f"{aid}_v"])
        lines = [",".join(cols)]
        for row in self.steps:
            lines.append(",".join(
                repr(v) if isinstance(v, float) else str(v)
                for v in (row[c] for c in cols)))
        with open(file, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        return {"instances": self.instances, "events": self.events}

    def event(self, t: float, kind: EventKind, message: str) -> None:
        self.events.append({"t": t, "kind": kind.value, "message": message})


def perceive(ego_chi, actors, path, pcfg, sensor_range):
    """What the planner sees: the ego's Frenet state clipped into the
    planner's ``state_box``, and the forecasts of the actors within sensor
    range.  Returns (xi0, forecasts, sensed actor ids); raises OutOfRange
    when the ego projects off the path ends."""
    q = cartesian_to_frenet(path, (ego_chi.x, ego_chi.y))
    psi = wrap_angle(ego_chi.theta - float(path.heading(q.s)))
    xi0 = EgoModelState.from_array(
        np.clip([q.s, q.d, psi, ego_chi.v], *state_box(path)))

    forecasts = []
    sensed = []
    for actor in actors:
        if abs(actor.s - xi0.s) > sensor_range:
            continue
        spec = actor.spec
        v_lo, v_hi = spec.v_bounds
        obs = ObstacleState(s_o=actor.s, d_o=actor.d,
                            v_o=float(np.clip(actor.v, v_lo, v_hi)),
                            v_bounds=spec.v_bounds, a_bounds=spec.a_bounds,
                            direction=spec.direction)
        forecasts.append(propagate_obstacle(obs, pcfg.T_sL, pcfg.N_L))
        sensed.append(spec.id)
    return xi0, forecasts, sensed


def _plan_instance(t, ego_chi, actors, path, pcfg, potentials_cfg, tvapf,
                   sensor_range, log, a_applied=None):
    """The planner instance of ``run`` and ``tvapf plan`` at scene time t:
    perceive, solve cold with the first input anchored to the tracker's
    ``a_applied`` (None before the first tick), so the reference has no jerk
    step the tracker cannot follow; on failure log the event and publish
    safe-stop, whose stats keep the failed candidates' records.  Appends
    the instance record to ``log`` and returns the trajectory with the
    forecasts it was planned against."""
    xi0, forecasts, sensed = perceive(ego_chi, actors, path, pcfg,
                                      sensor_range)
    try:
        traj = solve_ltp(xi0, forecasts, path, pcfg,
                         potentials_cfg=potentials_cfg, tvapf=tvapf,
                         t0=t, alpha_prev=a_applied)
    except Infeasible as exc:
        log.event(t, EventKind.PLANNER_FALLBACK, str(exc))
        traj = safe_stop_trajectory(xi0, pcfg, t0=t,
                                    alpha_prev=a_applied or 0.0)
        traj.solve_stats["candidates"] = exc.candidates
    label = decision_label(traj, path, forecasts,
                           v_des=potentials_cfg.v_des)
    record = {
        "t0": t,
        "decision": label.value,
        "sensed": sensed,
        "stats": traj.solve_stats,
        "states": [[x.s, x.d, x.psi, x.nu] for x in traj.states],
        "inputs": [[u.alpha, u.omega] for u in traj.inputs],
        "forecasts": [
            {"id": sensed[i], "d_o": fc.d_o, "direction": fc.direction,
             "s_min": fc.s_min.tolist(), "s_max": fc.s_max.tolist()}
            for i, fc in enumerate(forecasts)
        ],
    }
    log.instances.append(record)
    return traj, forecasts


def run(scenario: Scenario) -> RunLog:
    """Execute the closed loop and return the full run log.  The start-up
    checks (grid ratios, controller hierarchy and horizon, road width, lane
    centering) ran when ``scenario.from_dict`` built the scenario, so every
    plan covers its ticks and a tick fails only when the tracker refuses its
    solve.  A run whose ego leaves the path ends at the planner instance
    that finds it off the path, with an ``OFF_PATH`` event."""
    path = scenario.build_path()
    pcfg = scenario.planner_config()
    tcfg = scenario.tracker_config()
    potentials_cfg = scenario.potential_config()
    tvapf = scenario.tvapf_params()

    sim = scenario.sim
    h = float(sim["plant_step"])
    sensor_range = float(sim["sensor_range"])
    margin = float(sim["collision_margin"])
    steps_per_tick = int(round(tcfg.T_sMPC / scenario.sim["plant_step"]))
    steps_per_instance = int(round(pcfg.instance_period / h))
    n_steps = int(round(float(sim["duration"]) / h))

    chi = initial_ego_state(scenario, path)
    actors = [ActorRuntime(spec=a, s=a.s0, d=a.d0, v=a.v0)
              for a in scenario.actors]
    log = RunLog(actor_ids=[a.spec.id for a in actors])
    actor_cols = [f"{aid}_{c}" for aid in log.actor_ids for c in "sdv"]

    traj = u_applied = u_guess = None
    collided = set()

    for n in range(n_steps):
        t = n * h

        # planner instance
        if n % steps_per_instance == 0:
            try:
                traj, _ = _plan_instance(
                    t, chi, actors, path, pcfg, potentials_cfg, tvapf,
                    sensor_range, log, a_applied=None if u_applied is None
                    else float(u_applied[0]))
            except OutOfRange as exc:
                log.event(t, EventKind.OFF_PATH, f"ego off the path: {exc}")
                break
            actor_states, actor_xy = _actor_window(
                actors, path, n, min(steps_per_instance, n_steps - n), h)

        # tracker tick on the plan of the latest instance
        if n % steps_per_tick == 0:
            ref = resample(traj, path, t, tcfg.N_P, tcfg.T_sMPC,
                           wheelbase=tcfg.wheelbase)
            err = chi.as_array()[:4] - ref[0, :4]
            err[2] = wrap_angle(err[2])
            try:
                sol = solve_nmpc(chi, ref, tcfg, u_prev=u_applied,
                                 u_guess=u_guess)
                u_applied = sol.u0
                sigma = sol.sigma
                u_guess = np.vstack([sol.inputs[1:], sol.inputs[-1:]])
            except TrackerInfeasible as exc:
                log.event(t, EventKind.TRACKER_INFEASIBLE, str(exc))
                u_applied, u_guess = refused_tick_input(err, u_applied,
                                                        u_guess)
                sigma = math.nan

        # log the state at time t with the input applied over [t, t+h)
        j = n % steps_per_instance
        # math.hypot: np.hypot can differ in the logged min_gap's last bit
        gaps = [math.hypot(chi.x - x, chi.y - y)
                for x, y in actor_xy[j].tolist()]
        min_gap = min(gaps) if gaps else math.inf
        for aid, gap in zip(log.actor_ids, gaps):
            if gap < margin and aid not in collided:
                collided.add(aid)
                log.event(t, EventKind.COLLISION_MARGIN,
                          f"gap to {aid} is {gap:.2f} m")
        row = {
            "time": t, "ego_x": chi.x, "ego_y": chi.y, "ego_theta": chi.theta,
            "ego_v": chi.v, "ego_delta": chi.delta,
            "u_a": float(u_applied[0]), "u_w": float(u_applied[1]),
            "traj_id": len(log.instances) - 1, "sigma": sigma,
            "err_x": float(err[0]), "err_y": float(err[1]),
            "err_theta": float(err[2]), "err_v": float(err[3]),
            "min_gap": min_gap,
        }
        row.update(zip(actor_cols, actor_states[j]))
        log.steps.append(row)

        # advance the plant to t + h; it does not reverse: braking stops it
        # within the step at most, so a standing ego stays where it is
        a = max(float(u_applied[0]), -chi.v / h)
        chi = bicycle_step(chi, (a, u_applied[1]), h, tcfg.wheelbase)
        if chi.v < 0.0:
            chi = VehicleState(chi.x, chi.y, chi.theta, 0.0, chi.delta)
    return log


def summarize(log: RunLog, scenario: Scenario) -> dict:
    """Scalar regression summary recomputable from the run log, and the
    wall seconds of the planner's solves under ``timing``."""
    tcfg = scenario.tracker_config()
    L = tcfg.wheelbase
    times = [r["time"] for r in log.steps]
    v = np.array([r["ego_v"] for r in log.steps])
    delta = np.array([r["ego_delta"] for r in log.steps])
    u_a = np.array([r["u_a"] for r in log.steps])
    yaw_rate = v * np.tan(delta) / L

    # jerk between consecutive controller ticks
    steps_per_tick = int(round(tcfg.T_sMPC / scenario.sim["plant_step"]))
    tick_a = u_a[::steps_per_tick]
    jerk = np.abs(np.diff(tick_a)) / tcfg.T_sMPC if len(tick_a) > 1 else \
        np.zeros(1)

    timeline = [{"t0": inst["t0"], "decision": inst["decision"],
                 "overtake_feasible": inst["stats"].get("overtake_feasible")}
                for inst in log.instances]
    # one sample per solved candidate, a fallback's failed ones included
    cands = [c for inst in log.instances
             for c in inst["stats"].get("candidates", ())]
    solve_times = [c["wall_time"] for c in cands]
    sigmas = np.array([r["sigma"] for r in log.steps[::steps_per_tick]])
    err_pos = np.array([[r["err_x"], r["err_y"]]
                        for r in log.steps[::steps_per_tick]])
    return {
        "duration": times[-1] + scenario.sim["plant_step"],
        "min_speed": float(np.min(v)),
        "max_speed": float(np.max(v)),
        "max_abs_a_lon": float(np.max(np.abs(u_a))),
        "max_jerk": float(np.max(jerk)),
        "max_yaw_rate": float(np.max(np.abs(yaw_rate))),
        "max_abs_a_lat": float(np.max(np.abs(v * yaw_rate))),
        "max_abs_delta": float(np.max(np.abs(delta))),
        "min_gap": float(min(r["min_gap"] for r in log.steps)),
        "decision_timeline": timeline,
        "solve_time_mean": float(np.mean(solve_times)) if solve_times else 0.0,
        "solve_time_max": float(np.max(solve_times)) if solve_times else 0.0,
        "sigma_zero_fraction": float(np.mean(
            np.nan_to_num(sigmas, nan=1.0) <= 1e-3)),
        "max_tracking_error": float(np.max(np.abs(err_pos)))
        if len(err_pos) else 0.0,
        "events": [e["kind"] for e in log.events],
        # wall seconds of the planner's candidate solves over the run, of
        # their KKT systems, of the SuperLU factorizations within those, of
        # their callbacks, and of the candidates that ended infeasible;
        # never in the run log, which stays byte-deterministic
        "timing": {
            "planner_solve_s": float(sum(solve_times)),
            "planner_kkt_s": float(sum(c["phase_s"]["kkt"] for c in cands)),
            "planner_factor_s": float(sum(c["phase_s"]["factor"]
                                          for c in cands)),
            "planner_callbacks_s": float(sum(c["phase_s"]["callbacks"]
                                             for c in cands)),
            "planner_infeasible_s": float(sum(
                c["wall_time"] for c in cands if c["status"] == "infeasible")),
        },
    }
