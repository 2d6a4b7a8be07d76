"""Closed-loop simulation harness: actor kinematics, the empty-road run,
logging, and the summary statistics."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from tvapf import simulation
from tvapf import scenario as scenario_mod
from tvapf.geometry import FrenetPoint, frenet_to_cartesian
from tvapf.planner import state_box
from tvapf.scenario import ActorSpec, ScenarioError
from tvapf.simulation import (ActorRuntime, perceive, run, step_actor,
                              summarize)
from tvapf.tracker import (DELTA_A_MAX, E_POS, E_V,
                           Infeasible as TrackerInfeasible, VehicleState,
                           max_braking_input)


def _actor(script=(), direction=1, v_bounds=(0.0, 12.5),
           a_bounds=(-0.3, 0.3), v0=5.0):
    spec = ActorSpec(id="A", s0=100.0, d0=-2.0, v0=v0, v_bounds=v_bounds,
                     a_bounds=a_bounds, direction=direction, script=script)
    return ActorRuntime(spec=spec, s=spec.s0, d=spec.d0, v=spec.v0)


# -- actor kinematics --------------------------------------------------------


def test_step_actor_constant_speed():
    a = _actor()
    step_actor(a, t=0.0, T=0.5)
    assert a.s == pytest.approx(102.5)
    assert a.v == 5.0
    assert a.d == -2.0  # actors never change lane


def test_step_actor_script_ramp():
    a = _actor(script=((10.0, 7.0),))
    step_actor(a, t=5.0, T=0.5)
    assert a.v == 5.0  # script not yet active
    step_actor(a, t=10.0, T=0.5)
    # relaxes toward the target at the acceleration bound
    assert a.v == pytest.approx(5.0 + 0.3 * 0.5)


def test_step_actor_velocity_bounds():
    a = _actor(script=((0.0, 12.0),), v_bounds=(4.0, 6.0), v0=5.9)
    step_actor(a, t=1.0, T=0.5)
    assert a.v == 6.0  # clamped at the bound


def test_step_actor_oncoming_direction():
    a = _actor(direction=-1)
    step_actor(a, t=0.0, T=0.5)
    assert a.s == pytest.approx(97.5)


def test_step_actor_deceleration_script():
    a = _actor(script=((0.0, 3.0),))
    step_actor(a, t=0.0, T=0.5)
    assert a.v == pytest.approx(5.0 - 0.3 * 0.5)


def _per_step_actors(scn, log):
    """The actor columns, min_gap and collision_margin events of ``log``
    remade step by step: ``step_actor`` once per plant step and one
    conversion of the actors' positions per step, against the logged ego."""
    path = scn.build_path()
    h, margin = scn.sim["plant_step"], scn.sim["collision_margin"]
    actors = [ActorRuntime(spec=a, s=a.s0, d=a.d0, v=a.v0)
              for a in scn.actors]
    columns, gaps, events, collided = [], [], [], set()
    for n, row in enumerate(log.steps):
        p = frenet_to_cartesian(path, FrenetPoint(
            s=np.clip([a.s for a in actors], 0.0, path.length),
            d=np.array([a.d for a in actors])))
        step = [math.hypot(row["ego_x"] - x, row["ego_y"] - y)
                for x, y in zip(p.x.tolist(), p.y.tolist())]
        gaps.append(min(step))
        for actor, gap in zip(actors, step):
            if gap < margin and actor.spec.id not in collided:
                collided.add(actor.spec.id)
                events.append({"t": row["time"], "kind": "collision_margin",
                               "message": f"gap to {actor.spec.id} is "
                                          f"{gap:.2f} m"})
        columns.append([repr(x) for a in actors for x in (a.s, a.d, a.v)])
        for actor in actors:
            step_actor(actor, n * h, h)
    return columns, gaps, events


def _actor_columns(log):
    return [[repr(row[f"{aid}_{c}"]) for aid in log.actor_ids
             for c in "sdv"] for row in log.steps]


def test_actor_windows_match_per_step_stepping(overtake_run,
                                               overtake_scenario):
    log, _ = overtake_run
    columns, gaps, events = _per_step_actors(overtake_scenario, log)
    assert _actor_columns(log) == columns
    assert [r["min_gap"] for r in log.steps] == gaps
    assert log.events == events == []


def test_short_last_actor_window_matches_per_step_stepping(
        overtake_scenario):
    # 12.3 s is two 5 s instance windows and a 2.3 s one; the 260 m margin
    # is crossed by L1 in the second window and by O1 in the last, and L1's
    # script switches inside a window
    data = overtake_scenario.to_dict()
    data["sim"].update(duration=12.3, collision_margin=260.0)
    data["actors"][0]["script"] = [{"t": 7.3, "target_v": 5.0}]
    scn = scenario_mod.from_dict(data)
    log = run(scn)
    assert len(log.steps) == 615
    columns, gaps, events = _per_step_actors(scn, log)
    assert _actor_columns(log) == columns
    assert [r["min_gap"] for r in log.steps] == gaps
    assert log.events == events
    assert [e["message"].split()[2] for e in events] == ["L1", "O1"]
    assert events[1]["t"] > 10.0


# -- empty-road closed loop --------------------------------------------------


def test_empty_road_run_is_clean(empty_road_run, empty_road_scenario):
    log = empty_road_run
    scn = empty_road_scenario
    assert log.events == []
    duration = scn.sim["duration"]
    h = scn.sim["plant_step"]
    assert len(log.steps) == int(round(duration / h))
    v = np.array([r["ego_v"] for r in log.steps])
    y = np.array([r["ego_y"] for r in log.steps])
    # accelerates from v0 toward the desired speed and holds it
    assert v[0] == pytest.approx(scn.ego["v0"])
    assert v[-1] == pytest.approx(scn.ego["v_des"], abs=0.6)
    # essentially monotone ramp-up (tiny regulation dither allowed)
    assert np.all(v >= np.maximum.accumulate(v) - 0.05)
    # stays in the right lane throughout
    assert np.all((-4.0 < y) & (y < 0.0))
    # tracker slack is negligible at every tick
    sig = np.array([r["sigma"] for r in log.steps])
    assert np.nanmax(sig) <= 1e-3
    assert not log.actor_ids


def test_empty_road_from_rest_runs_clean(empty_road_scenario):
    # from rest the cold guess is nearly feasible at once: the stall verdict
    # must not call the converging solves infeasible and hold safe-stop
    data = empty_road_scenario.to_dict()
    data["ego"]["v0"] = 0.0
    data["sim"]["duration"] = 10.0
    log = run(scenario_mod.from_dict(data))
    assert log.events == []
    assert [i["decision"] for i in log.instances] == ["KeepLane"] * 2
    assert log.steps[-1]["ego_v"] > 5.0


def test_overtake_from_the_oncoming_lane_runs_clean(overtake_scenario):
    # the ego starts in the left lane, with the oncoming actors ahead in it:
    # the safe-stop box is anchored on the right lane's leader, so every
    # instance solves and the ego merges back at once
    data = overtake_scenario.to_dict()
    data["ego"]["y0"] = 2.0
    log = run(scenario_mod.from_dict(data))
    assert log.events == []
    assert min(r["min_gap"] for r in log.steps) > 3.0
    assert log.instances[0]["decision"] == "Overtake"
    assert log.steps[-1]["ego_y"] < 0.0


def test_shortest_accepted_horizon_runs_clean(empty_road_scenario):
    # N_L * T_sL = 7 s: the last tick of an instance reads its plan up to
    # instance_period + (N_P - 1) * T_sMPC = 6.8 s
    data = empty_road_scenario.to_dict()
    data["planner"]["N_L"] = 14
    data["sim"]["duration"] = 10.0
    log = run(scenario_mod.from_dict(data))
    assert len(log.instances) == 2
    assert log.events == []
    data["planner"]["N_L"] = 13
    with pytest.raises(ScenarioError, match="planner/tracker"):
        scenario_mod.from_dict(data)


def test_perceive_clips_the_ego_into_the_state_box(empty_road_scenario):
    # on the straight road s = x, d = y and psi = theta; an ego beyond the
    # margins, the heading limit and the speed box sees the box's bounds
    path = empty_road_scenario.build_path()
    pcfg = empty_road_scenario.planner_config()
    lb, ub = state_box(path)
    for (y, theta, v), want in (((-3.95, 1.5, 13.0), (lb[1], ub[2], ub[3])),
                                ((3.95, -1.5, -0.5), (ub[1], lb[2], lb[3])),
                                ((-2.0, 0.1, 8.0), (-2.0, 0.1, 8.0))):
        chi = VehicleState(x=100.0, y=y, theta=theta, v=v, delta=0.0)
        xi0, forecasts, sensed = perceive(chi, [], path, pcfg, 300.0)
        assert xi0.s == pytest.approx(100.0, abs=1e-9)
        assert (xi0.d, xi0.psi, xi0.nu) == pytest.approx(want, abs=1e-12)
        assert forecasts == sensed == []


def test_every_candidate_record_has_the_same_keys(overtake_run):
    records = [c for inst in overtake_run[0].instances
               for c in inst["stats"].get("candidates", ())]
    assert {c["status"] for c in records} > {"optimal"}
    assert len({tuple(c) for c in records}) == 1


def test_empty_road_instances(empty_road_run):
    log = empty_road_run
    assert [i["decision"] for i in log.instances] == \
        ["KeepLane"] * len(log.instances)
    for inst in log.instances:
        assert inst["sensed"] == []
        assert inst["stats"]["status"] in ("optimal", "feasible_point")


def test_runlog_csv(tmp_path, empty_road_run):
    file = tmp_path / "runlog.csv"
    empty_road_run.to_csv(file)
    with open(file) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(empty_road_run.steps)
    expected = {"time", "ego_x", "ego_y", "ego_theta", "ego_v", "ego_delta",
                "u_a", "u_w", "traj_id", "sigma", "err_x", "err_y",
                "err_theta", "err_v", "min_gap"}
    assert expected <= set(rows[0])
    # floats survive the round trip exactly (repr serialization)
    assert float(rows[10]["ego_v"]) == empty_road_run.steps[10]["ego_v"]


def test_runlog_csv_includes_actor_columns(overtake_run):
    log, _ = overtake_run
    assert log.actor_ids  # bundled scenario has scripted actors
    aid = log.actor_ids[0]
    assert f"{aid}_s" in log.steps[0]


def test_to_json_dict(empty_road_run):
    d = empty_road_run.to_json_dict()
    assert set(d) == {"instances", "events"}
    assert len(d["instances"]) == len(empty_road_run.instances)


# -- tracker degradation -----------------------------------------------------


def _run_with_failing_ticks(scn, monkeypatch, ticks, failing, edit=None):
    """Log of the first ``ticks`` tracker ticks of ``scn`` with the tracker
    refusing the ticks whose indices are in ``failing``, and the solution of
    every other tick, passed through ``edit(k, solution)`` when given."""
    solve_nmpc = simulation.solve_nmpc
    solutions = []

    def flaky(*args, **kwargs):
        k = len(solutions)
        solutions.append(None)
        if k in failing:
            raise TrackerInfeasible(f"tick {k} refused")
        sol = solve_nmpc(*args, **kwargs)
        solutions[k] = edit(k, sol) if edit else sol
        return solutions[k]

    monkeypatch.setattr(simulation, "solve_nmpc", flaky)
    duration = ticks * scn.tracker_config().T_sMPC
    log = run(dataclasses.replace(scn, sim={**scn.sim, "duration": duration}))
    return log, solutions


def test_tracker_failure_without_guess_brakes(empty_road_scenario,
                                              monkeypatch):
    log, _ = _run_with_failing_ticks(empty_road_scenario, monkeypatch, 1, {0})
    row = log.steps[0]
    assert row["u_a"] == max_braking_input(None)[0]
    assert row["u_w"] == 0.0
    assert math.isnan(row["sigma"])
    assert [(e["t"], e["kind"]) for e in log.events] == \
        [(0.0, "tracker_infeasible")]


def test_a_braked_ego_at_rest_stays_where_it_is(empty_road_scenario,
                                                monkeypatch):
    # every tick refused: the ego at rest brakes at max_braking_input, and
    # the plant neither reverses nor creeps backwards within a step
    data = empty_road_scenario.to_dict()
    data["ego"]["v0"] = 0.0
    log, _ = _run_with_failing_ticks(scenario_mod.from_dict(data),
                                     monkeypatch, 5, set(range(5)))
    start = log.steps[0]
    assert start["u_a"] == max_braking_input(None)[0] < 0.0
    for r in log.steps:
        assert (r["ego_x"], r["ego_y"], r["ego_v"]) == \
            (start["ego_x"], start["ego_y"], 0.0)


def test_one_refused_tick_without_guess_fails_until_the_next_instance(
        empty_road_scenario, monkeypatch):
    # braking at max_braking_input widens err_v beyond E_V while the
    # reference accelerates, so every tick of the instance refuses; the next
    # instance plans from the braked state and the loop recovers
    log, _ = _run_with_failing_ticks(empty_road_scenario, monkeypatch, 30,
                                     {0})
    period = empty_road_scenario.planner_config().instance_period
    failed = [e["t"] for e in log.events if e["kind"] == "tracker_infeasible"]
    assert len(log.events) == len(failed) == 25  # t = 0, 0.2, .., 4.8 s
    assert max(failed) < period
    assert min(r["err_v"] for r in log.steps) < -E_V
    assert not any(math.isnan(r["sigma"]) for r in log.steps
                   if r["time"] >= period)


@pytest.mark.parametrize("jump", [0.0, 1.0, -1.0])
def test_tracker_failure_inside_the_box_holds_the_shifted_plan(
        empty_road_scenario, monkeypatch, jump):
    # the solution before the refused tick gets its next acceleration moved
    # by ``jump``, beyond one tick's rate when nonzero
    k = 3

    def edit(i, sol):
        if i == k - 1:
            inputs = sol.inputs.copy()
            inputs[1, 0] += jump
            sol = dataclasses.replace(sol, inputs=inputs)
        return sol

    log, solutions = _run_with_failing_ticks(empty_road_scenario,
                                             monkeypatch, k + 2, {k}, edit)
    tcfg = empty_road_scenario.tracker_config()
    per_tick = round(tcfg.T_sMPC / empty_road_scenario.sim["plant_step"])
    row, prev = log.steps[k * per_tick], log.steps[(k - 1) * per_tick]
    assert abs(row["err_x"]) <= E_POS and abs(row["err_y"]) <= E_POS
    assert abs(row["err_v"]) <= E_V
    # the previous tick's next input, within one tick's rate of the last one
    a_next, w_next = solutions[k - 1].inputs[1]
    assert row["u_a"] == min(max(a_next, prev["u_a"] - DELTA_A_MAX),
                             prev["u_a"] + DELTA_A_MAX)
    if jump:
        assert row["u_a"] == prev["u_a"] + math.copysign(DELTA_A_MAX, jump)
    assert row["u_w"] == w_next
    assert math.isnan(row["sigma"])
    assert [(e["t"], e["kind"]) for e in log.events] == \
        [(row["time"], "tracker_infeasible")]
    assert not math.isnan(log.steps[(k + 1) * per_tick]["sigma"])


# -- summary -----------------------------------------------------------------


def test_summary_consistent_with_raw_log(empty_road_run, empty_road_scenario):
    log = empty_road_run
    s = summarize(log, empty_road_scenario)
    v = np.array([r["ego_v"] for r in log.steps])
    assert s["min_speed"] == float(np.min(v))
    assert s["max_speed"] == float(np.max(v))
    assert s["max_abs_a_lon"] == \
        float(np.max(np.abs([r["u_a"] for r in log.steps])))
    assert s["min_gap"] == math.inf  # no actors
    assert s["events"] == []
    assert s["duration"] == pytest.approx(empty_road_scenario.sim["duration"])
    assert len(s["decision_timeline"]) == len(log.instances)
    assert 0.0 <= s["sigma_zero_fraction"] <= 1.0
    assert s["solve_time_max"] >= s["solve_time_mean"] > 0.0


def test_summary_yaw_rate_definition(empty_road_run, empty_road_scenario):
    log = empty_road_run
    s = summarize(log, empty_road_scenario)
    tcfg = empty_road_scenario.tracker_config()
    v = np.array([r["ego_v"] for r in log.steps])
    delta = np.array([r["ego_delta"] for r in log.steps])
    yaw = v * np.tan(delta) / tcfg.wheelbase
    assert s["max_yaw_rate"] == pytest.approx(float(np.max(np.abs(yaw))))
    assert s["max_abs_delta"] == float(np.max(np.abs(delta)))


def test_run_is_deterministic(empty_road_scenario, empty_road_run):
    again = run(empty_road_scenario)
    assert len(again.steps) == len(empty_road_run.steps)
    for a, b in zip(again.steps[::50], empty_road_run.steps[::50]):
        assert a == b  # bitwise-identical rows
