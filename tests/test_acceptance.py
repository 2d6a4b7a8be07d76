"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the same condition.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import tvapf
from tvapf.geometry import (FrenetPoint, ReferencePath, cartesian_to_frenet,
                            frenet_to_cartesian, straight_path)
from tvapf.planner import (EgoModelState, PlannerConfig, TerminalBox,
                           _LtpProgram, braking_distance, safe_stop_trajectory,
                           terminal_set)
from tvapf.potentials import PotentialConfig
from tvapf.prediction import (ObstacleField, ObstacleState, TvapfParams,
                              propagate_obstacle)
from tvapf.simulation import run
from tvapf.tracker import E_POS, TrackerConfig, VehicleState, _NmpcProgram


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


# -- 1: scenario regression ---------------------------------------------------


def test_criterion_1_scenario_timeline(overtake_run, overtake_summary,
                                       overtake_scenario):
    log, wall = overtake_run
    s = overtake_summary
    timeline = {e["t0"]: e for e in s["decision_timeline"]}

    blocked = all(timeline[t]["overtake_feasible"] is False
                  for t in (20.0, 25.0, 30.0))
    min_ok = 8.1 <= s["min_speed"] <= 9.1
    overtakes = [t0 for t0, e in sorted(timeline.items())
                 if e["decision"] == "Overtake"]
    first_ok = bool(overtakes) and 25.0 <= overtakes[0] <= 35.0

    # time the ego is last outside the right lane, and final-speed tracking
    v_des = overtake_scenario.ego["v_des"]
    left = [r["time"] for r in log.steps if r["ego_y"] >= 0.0]
    t_return = max(left) if left else 0.0
    return_ok = left and 50.0 <= t_return <= 60.0 and \
        abs(log.steps[-1]["ego_v"] - v_des) <= 0.5
    wall_ok = wall < 60.0

    ok = blocked and min_ok and first_ok and bool(return_ok) and wall_ok
    _report(1, ok,
            f"overtake blocked at 20/25/30 s: {blocked}, "
            f"min speed {s['min_speed']:.3f} m/s, first Overtake at "
            f"{overtakes[0] if overtakes else None} s, back in right lane at "
            f"{t_return:.1f} s, wall {wall:.1f} s for 60 s simulated")


# -- 2: comfort and limits ----------------------------------------------------


def test_criterion_2_comfort_limits(overtake_summary):
    s = overtake_summary
    ok = (s["max_abs_a_lon"] <= 0.9 + 1e-9
          and s["max_jerk"] <= 0.9 + 1e-9
          and s["max_yaw_rate"] <= math.radians(4.44) + 1e-9
          and s["max_abs_delta"] <= math.radians(24.5) + 1e-9
          and s["events"] == [])
    _report(2, ok,
            f"|a_lon| {s['max_abs_a_lon']:.3f} <= 0.9, jerk "
            f"{s['max_jerk']:.3f} <= 0.9, yaw rate "
            f"{math.degrees(s['max_yaw_rate']):.2f} <= 4.44 deg/s, |delta| "
            f"{math.degrees(s['max_abs_delta']):.2f} <= 24.5 deg, "
            f"{len(s['events'])} violation events")


# -- 3: solve time ------------------------------------------------------------


def test_criterion_3_solve_time(overtake_run, overtake_summary,
                                overtake_scenario):
    log, _ = overtake_run
    s = overtake_summary
    period = overtake_scenario.planner_config().instance_period
    every_ok = all(
        c.get("wall_time", 0.0) < period
        for inst in log.instances
        for c in inst["stats"].get("candidates",
                                   [{"wall_time":
                                     inst["stats"].get("wall_time", 0.0)}]))
    ok = s["solve_time_mean"] < 0.5 and s["solve_time_max"] < 2.0 and every_ok
    slowest_t0, slowest = max(
        ((inst["t0"], c) for inst in log.instances
         for c in inst["stats"].get("candidates", [])),
        key=lambda item: item[1].get("wall_time", 0.0),
        default=(None, {}))
    _report(3, ok,
            f"planner solve mean {s['solve_time_mean']:.3f} s < 0.5, max "
            f"{s['solve_time_max']:.3f} s < 2, all within the {period:g} s "
            f"instance period: {every_ok}; slowest candidate: instance "
            f"t0={slowest_t0} s, {slowest.get('candidate')!r}, "
            f"{slowest.get('status')}, {slowest.get('iterations')} "
            f"iterations, {slowest.get('wall_time', 0.0):.3f} s")


def test_infeasible_candidates_stop_on_a_stall(overtake_run,
                                               overtake_summary):
    """Blocked candidates end on the solver's stall verdict, before the 61
    iterations an iteration cap gave them, and the overtake verdicts
    criterion 1 reads stay as they are.  Each candidate starts from its own
    seed, so only blocked ones end infeasible: pass at three instances
    before the passing lane opens at 35 s, and stay at 50 s, where the ego
    is mid lane change; the stay candidates at 40 and 45 s brake into their
    boxes, and pass at 30 s converges to a plan that keeps its lane."""
    log, _ = overtake_run
    infeasible = [(inst["t0"], c["candidate"], c["iterations"],
                   c["violation"])
                  for inst in log.instances
                  for c in inst["stats"].get("candidates", ())
                  if c["status"] == "infeasible"]
    assert [(t0, name) for t0, name, _, _ in infeasible] == [
        (10.0, "pass"), (20.0, "pass"), (25.0, "pass"), (50.0, "stay")], \
        infeasible
    assert all(it < 61 and viol > 1e-4 for _, _, it, viol in infeasible), \
        infeasible
    flags = [(e["t0"], e["overtake_feasible"])
             for e in overtake_summary["decision_timeline"]]
    # pass blocked up to 30 s, feasible from 35 s, not posed at 55 s
    assert flags == ([(t0, False) for t0 in (0.0, 5.0, 10.0, 15.0, 20.0,
                                             25.0, 30.0)]
                     + [(t0, True) for t0 in (35.0, 40.0, 45.0, 50.0)]
                     + [(55.0, None)]), flags


# -- 4: reachable-set Monte Carlo ---------------------------------------------


def test_criterion_4_reachable_sets(overtake_scenario):
    rng = np.random.default_rng(2024)
    T, N, M = 0.5, 70, 10_000
    escapes = 0
    for spec in overtake_scenario.actors:
        obs = spec.initial_state()
        fc = propagate_obstacle(obs, T, N)
        v = np.full(M, obs.v_o)
        s = np.full(M, obs.s_o)
        lo, hi = obs.v_bounds
        a_lo, a_hi = obs.a_bounds
        for j in range(N):
            s = s + T * obs.direction * v
            v = np.clip(v + T * rng.uniform(a_lo, a_hi, M), lo, hi)
            escapes += int(np.sum((s < fc.s_min[j + 1] - 1e-9)
                                  | (s > fc.s_max[j + 1] + 1e-9)))
    # two-step spread identity for the global acceleration bounds
    wide = ObstacleState(s_o=0.0, d_o=0.0, v_o=6.0, v_bounds=(0.0, 12.5),
                         a_bounds=(-0.9, 0.9))
    spread = float(propagate_obstacle(wide, T, 5).delta_s[2])
    spread_ok = abs(spread - 0.45) <= 1e-12
    ok = escapes == 0 and spread_ok
    _report(4, ok,
            f"{M} rollouts x {len(overtake_scenario.actors)} obstacles, "
            f"{escapes} escapes; two-step spread {spread:.15f} "
            f"(target 0.45 +- 1e-12)")


# -- 5: geometry round trip ---------------------------------------------------


def test_criterion_5_frenet_round_trip():
    def circle():
        th = np.linspace(0.0, 1.6 * math.pi, 400)
        pts = np.stack([50.0 * np.cos(th), 50.0 * np.sin(th)], axis=1)
        return ReferencePath(pts, lane_count=2, lane_width=4.0)

    def spline():
        x = np.linspace(0.0, 600.0, 121)
        return ReferencePath(np.stack([x, 20.0 * np.sin(x / 100.0)], axis=1),
                             lane_count=2, lane_width=4.0)

    rng = np.random.default_rng(99)
    worst = 0.0
    for factory in (lambda: straight_path(length=600.0), circle, spline):
        path = factory()
        for _ in range(1000):
            s = rng.uniform(1.0, path.length - 1.0)
            d = rng.uniform(-3.8, 3.8)
            p = frenet_to_cartesian(path, FrenetPoint(s=s, d=d))
            q = cartesian_to_frenet(path, (p.x, p.y))
            p2 = frenet_to_cartesian(path, q)
            worst = max(worst, math.hypot(p.x - p2.x, p.y - p2.y))
    ok = worst < 1e-6
    _report(5, ok,
            f"worst round-trip error {worst:.3e} m over 3 x 1000 corridor "
            f"points (straight/circular/spline)")


# -- 6: safe-stop property ----------------------------------------------------


def test_criterion_6_safe_stop():
    """Braking from anywhere in the terminal set keeps the obstacle field
    below epsilon_o.

    Scenes are drawn from the domain the terminal-set construction covers:
    moving same-lane leaders with moderate longitudinal field extent
    (sigma_s in [2, 4]) and bounded uncertainty growth.  The obstacle
    forecast is extended past the planning horizon so the field can be
    evaluated at the absolute step N_L + i reached during braking.
    """
    path = straight_path()
    cfg = PlannerConfig()
    rng = np.random.default_rng(1234)
    extra = 40
    failures = 0
    worst_O = 0.0
    samples = 0
    for _ in range(25):
        tv = TvapfParams(sigma_s=float(rng.uniform(2.0, 4.0)))
        v_lo = float(rng.uniform(2.0, 4.0))
        v_hi = v_lo + float(rng.uniform(0.5, 2.5))
        a_mag = float(rng.uniform(0.05, 0.3))
        obs = ObstacleState(s_o=float(rng.uniform(350.0, 600.0)), d_o=-2.0,
                            v_o=float(rng.uniform(v_lo, v_hi)),
                            v_bounds=(v_lo, v_hi), a_bounds=(-a_mag, a_mag))
        fc = propagate_obstacle(obs, cfg.T_sL, cfg.N_L)
        ext = propagate_obstacle(obs, cfg.T_sL, cfg.N_L + extra)
        ego = EgoModelState(obs.s_o - 200.0, -2.0, 0.0, 8.33)
        box = terminal_set([fc], cfg, path, ego)
        D = braking_distance(cfg.nu_ter, cfg.tau, cfg.alpha_min, cfg.j_max)
        for _ in range(20):
            x = EgoModelState(
                s=float(rng.uniform(box.s_max - 60.0, box.s_max)),
                d=box.d_center + float(rng.uniform(-box.eps_d, box.eps_d)),
                psi=float(rng.uniform(-box.eps_psi, box.eps_psi)),
                nu=float(rng.uniform(0.0, box.nu_max)))
            traj = safe_stop_trajectory(x, cfg)
            X = np.array([st.as_array() for st in traj.states])
            j = np.minimum(cfg.N_L + np.arange(len(X)), ext.steps)
            O_max = float(np.max(
                ObstacleField([ext], j, tv).at(X[:, 0], X[:, 1]).value()))
            worst_O = max(worst_O, O_max)
            stop_ok = traj.states[-1].s <= box.s_max + D + 1e-9
            if O_max > tv.epsilon_o or not stop_ok:
                failures += 1
            samples += 1
    ok = failures == 0 and samples == 500
    _report(6, ok,
            f"{samples} terminal-set samples, {failures} failures, worst "
            f"field value {worst_O:.4f} (bound {TvapfParams().epsilon_o})")


# -- 7: derivative checks -----------------------------------------------------


def _vector_fd(fun, z, h=1e-6):
    g = np.empty_like(z)
    for i in range(len(z)):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (fun(z + e) - fun(z - e)) / (2.0 * h)
    return g


def _dir_fd(fun, z, v, h=1e-6):
    return (np.asarray(fun(z + h * v)) - np.asarray(fun(z - h * v))) / (2 * h)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def test_criterion_7_gradients():
    rng = np.random.default_rng(7)
    worst = 0.0
    points = 0

    # planner program on a reduced horizon
    cfg = PlannerConfig(N_L=10, instance_period=5.0)
    pot = PotentialConfig()
    tv = TvapfParams()
    path = straight_path()
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    obs = ObstacleState(350.0, -2.0, 5.0, v_bounds=(2.9, 6.1),
                        a_bounds=(-0.01, 0.25))
    fcs = [propagate_obstacle(obs, cfg.T_sL, cfg.N_L)]
    inputs = np.zeros((cfg.N_L, 2))
    states = np.empty((cfg.N_L + 1, 4))
    states[0] = xi0.as_array()
    for j in range(cfg.N_L):
        states[j + 1] = states[j] + cfg.T_sL * np.array(
            [states[j, 3], 0.0, 0.0, 0.0])
    box = TerminalBox(s_max=400.0, d_center=-2.0, eps_d=0.5, eps_psi=0.1,
                      nu_max=5.0)
    prog = _LtpProgram(xi0, fcs, path, cfg, pot, tv, states, inputs, box,
                       alpha_prev=0.1)
    for _ in range(50):
        z = np.clip(prog.z0 + rng.normal(0.0, 0.05, prog.n),
                    prog.lb + 1e-4, prog.ub - 1e-4)
        worst = max(worst, _rel(prog.gradient(z),
                                _vector_fd(prog.objective, z)))
        Je = np.asarray(prog.eq_jacobian(z).todense())
        Ji = np.asarray(prog.ineq_jacobian(z).todense())
        for _d in range(3):
            v = rng.normal(size=prog.n)
            v /= np.linalg.norm(v)
            worst = max(worst, _rel(Je @ v, _dir_fd(prog.eq_constraints, z, v)))
            worst = max(worst,
                        _rel(Ji @ v, _dir_fd(prog.ineq_constraints, z, v)))
        points += 1

    # tracker program
    tcfg = TrackerConfig()
    chi0 = VehicleState(0.0, 0.2, 0.02, 8.0, 0.01).as_array()
    t = tcfg.T_sMPC * np.arange(tcfg.N_P + 1)
    ref = np.stack([8.0 * t, np.zeros_like(t), np.zeros_like(t),
                    np.full_like(t, 8.0), np.zeros_like(t)], axis=1)
    nprog = _NmpcProgram(chi0, ref, tcfg, u_prev=np.zeros(2))
    for _ in range(50):
        z = rng.normal(0.0, 0.05, nprog.n)
        worst = max(worst, _rel(nprog.gradient(z),
                                _vector_fd(nprog.objective, z)))
        Ji = np.asarray(nprog.ineq_jacobian(z))
        for _d in range(3):
            v = rng.normal(size=nprog.n)
            v /= np.linalg.norm(v)
            worst = max(worst,
                        _rel(Ji @ v, _dir_fd(nprog.ineq_constraints, z, v)))
        points += 1

    ok = worst <= 1e-5 and points == 100
    _report(7, ok,
            f"worst relative gradient/Jacobian error {worst:.2e} over "
            f"{points} random feasible points (planner + tracker programs)")


# -- 8: tracking contract -----------------------------------------------------


def test_criterion_8_tracking_contract(overtake_run, overtake_scenario):
    log, _ = overtake_run
    tcfg = overtake_scenario.tracker_config()
    h = overtake_scenario.sim["plant_step"]
    per_tick = int(round(tcfg.T_sMPC / h))
    ticks = log.steps[::per_tick]
    err = np.array([[r["err_x"], r["err_y"]] for r in ticks])
    sig = np.array([r["sigma"] for r in ticks])
    max_err = float(np.max(np.abs(err)))
    zero_frac = float(np.mean(np.nan_to_num(sig, nan=1.0) <= 1e-3))
    ok = max_err <= E_POS and zero_frac >= 0.95
    _report(8, ok,
            f"max position error {max_err:.3f} m <= {E_POS}, slack zero "
            f"on {100 * zero_frac:.1f}% of {len(ticks)} ticks (>= 95%)")


# -- 9: determinism -----------------------------------------------------------


def test_criterion_9_determinism(overtake_run, overtake_scenario, tmp_path):
    log1, _ = overtake_run
    log2 = run(overtake_scenario)
    f1 = tmp_path / "runlog_a.csv"
    f2 = tmp_path / "runlog_b.csv"
    log1.to_csv(f1)
    log2.to_csv(f2)
    b1 = Path(f1).read_bytes()
    b2 = Path(f2).read_bytes()
    ok = b1 == b2
    _report(9, ok,
            f"two consecutive runs produced {'byte-identical' if ok else 'DIFFERING'} "
            f"runlog.csv ({len(b1)} bytes)")
