"""Command-line interface: argument handling, exit codes, and artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tvapf
from tvapf import scenario as scenario_mod
from tvapf.cli import main
from tvapf.planner import EgoModelState, TerminalBox
from tvapf.scenario import initial_ego_state
from tvapf.simulation import ActorRuntime, perceive

SCENARIO_DIR = Path(tvapf.__file__).parent / "scenarios"


def _write(tmp_path, name, data):
    file = tmp_path / name
    file.write_text(json.dumps(data))
    return file


def _mini_scenario(**extra):
    data = {
        "path": {"length": 1500.0},
        "ego": {"x0": 20.0, "y0": -2.0, "v0": 8.33, "v_des": 12.0},
        "actors": [],
        "sim": {"duration": 10.0},
    }
    data.update(extra)
    return data


def _oncoming_scenario(*actors):
    """Mini scenario with an actor oncoming in the left lane; it passes the
    ego about 4 m apart at t = 7.4 s, inside a 5 m collision margin."""
    oncoming = {"id": "O1", "s0": 140.0, "d0": 2.0, "v0": 8.0,
                "direction": -1, "v_bounds": [7.0, 9.0],
                "a_bounds": [-0.1, 0.1]}
    return _mini_scenario(actors=[oncoming, *actors],
                          sim={"duration": 10.0, "collision_margin": 5.0})


@pytest.fixture(scope="module")
def oncoming_run(tmp_path_factory):
    """(scenario file, output directory, exit code) of a strict run of the
    oncoming mini scenario."""
    tmp = tmp_path_factory.mktemp("oncoming")
    scn = _write(tmp, "oncoming.json", _oncoming_scenario())
    out = tmp / "out"
    return scn, out, main(["run", str(scn), "--out", str(out), "--strict"])


def test_dry_run_prints_resolved_config(capsys):
    rc = main(["run", str(SCENARIO_DIR / "overtake.json"), "--dry-run"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"scenario", "planner_config", "tracker_config"}
    assert out["planner_config"]["N_L"] == 70
    assert out["scenario"]["ego"]["v_des"] == 12.0


def test_missing_scenario_exits_2(capsys):
    assert main(["run", "/nonexistent.json", "--dry-run"]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", _mini_scenario(bogus_section={}))
    assert main(["run", str(bad), "--dry-run"]) == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("name, content", [
    ("bad.json", '{"path": '),
    ("bad.yaml", "path: ["),
    ("bad.json", b"\xff\xfe\x00"),
    ("dir.json", None),
], ids=["json_truncated", "yaml_unclosed", "undecodable", "directory"])
@pytest.mark.parametrize("command", [["run"], ["run", "--dry-run"],
                                     ["plan"]], ids=" ".join)
def test_unloadable_scenario_file_exits_2(tmp_path, capsys, name, content,
                                          command):
    file = tmp_path / name
    if content is None:
        file.mkdir()
    elif isinstance(content, bytes):
        file.write_bytes(content)
    else:
        file.write_text(content)
    out = tmp_path / "out"
    assert main([command[0], str(file), *command[1:], "--out", str(out)]) == 2
    assert f"scenario error: cannot load {file}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ego", [{"x0": -50.0}, {"x0": 1600.0},
                                 {"y0": -30.0}],
                         ids=["before_path_start", "past_path_end",
                              "beyond_right_edge"])
@pytest.mark.parametrize("command", [["run"], ["run", "--dry-run"],
                                     ["plan"]], ids=" ".join)
def test_ego_start_off_the_road_exits_2(tmp_path, capsys, ego, command):
    data = json.loads((SCENARIO_DIR / "empty_road.json").read_text())
    data["ego"].update(ego)
    file = _write(tmp_path, "off_road.json", data)
    out = tmp_path / "out"
    assert main([command[0], str(file), *command[1:], "--out", str(out)]) == 2
    assert "scenario error: ego" in capsys.readouterr().err
    assert not out.exists()


def _set_actor(i, key, value):
    return lambda d: d["actors"][i].__setitem__(key, value)


def _set(key, value):
    """Edit that sets a dotted section key, e.g. "planner.terminal.tau"."""
    *sections, name = key.split(".")

    def edit(d):
        for part in sections:
            d = d.setdefault(part, {})
        d[name] = value
    return edit


@pytest.mark.parametrize("edit, where", [
    (_set_actor(0, "v_bounds", ["x", 6.1]), "actors[0].v_bounds[0]"),
    (_set_actor(0, "v_bounds", 6.1), "actors[0].v_bounds"),
    (_set_actor(0, "direction", "left"), "actors[0].direction"),
    (lambda d: d["actors"].__setitem__(0, 5), "actors[0]"),
    (_set_actor(0, "script", [[10.0, 4.0]]), "actors[0].script[0]"),
    (lambda d: d.__setitem__("ego", [20.0, -2.0]), "ego"),
    (lambda d: d.setdefault("tracker", {}).__setitem__("Q", [1, 2]),
     "tracker.Q"),
    (_set_actor(1, "id", "L1"), "actors[1].id"),
    (_set("ego.x0", "x"), "ego.x0"),
    (_set("planner.N_L", 70.5), "planner.N_L"),
    (_set("tracker.N_P", 10.0), "tracker.N_P"),
    (_set("tracker.R", [0.0, 0.05]), "tracker.R[0]"),
    (_set("planner.N_l", 70), "planner: unknown keys ['N_l']"),
    (_set("sim.durration", 60.0), "sim: unknown keys ['durration']"),
    (_set("path.lane_count", 2.5), "path.lane_count"),
    (_set("weights.K_v", True), "weights.K_v"),
    (_set("tvapf.c", 4.0), "tvapf.c"),
    (_set("planner.terminal", [1]), "planner.terminal"),
    (_set("planner.terminal.alpha_min", -0.8), "planner/tracker"),
    (_set("weights.K_l", 0), "path/weights/tvapf"),
    (_set("tvapf.edge_value", 1.0), "tvapf: edge_value"),
    (_set("tvapf.edge_value", 1.5), "tvapf: edge_value"),
    (_set("tvapf.edge_value", 0.0), "tvapf: edge_value"),
    (_set("weights.K_o", 1e400), "weights.K_o"),
    (_set("tvapf.sigma_s", 0), "tvapf: sigma_s"),
    (_set_actor(0, "s0", "120"), "actors[0].s0"),
    (_set_actor(0, "s0", True), "actors[0].s0"),
    (_set_actor(0, "s0", math.nan), "actors[0].s0"),
    (lambda d: d["actors"][0]["script"][0].__setitem__("target", 4.0),
     "actors[0].script[0]: unknown keys ['target']"),
    (_set_actor(0, "id", 1), "actors[0].id"),
    (_set("ego.x0", math.inf), "ego.x0"),
    (_set("ego.x0", 10 ** 400), "ego.x0"),  # beyond every float
    (_set("path.lane_width", math.inf), "path.lane_width"),
    (_set("sim.duration", math.inf), "sim.duration"),
    (_set("planner.terminal.tau", math.inf), "planner.terminal.tau"),
], ids=["v_bounds_string", "v_bounds_scalar", "direction_string",
        "actor_not_mapping", "script_entry_not_mapping", "ego_not_mapping",
        "Q_short", "duplicate_id", "x0_string", "N_L_float", "N_P_float",
        "R_zero", "N_L_misspelt", "duration_misspelt", "lane_count_float",
        "K_v_bool", "c_float", "terminal_not_mapping",
        "alpha_min_above_tracker", "K_l_zero", "edge_value_one",
        "edge_value_above_one", "edge_value_zero", "K_o_infinite",
        "sigma_s_zero", "s0_string", "s0_bool", "s0_nan",
        "script_entry_unknown_key", "id_number", "x0_infinite", "x0_huge_int",
        "lane_width_infinite", "duration_infinite", "tau_infinite"])
def test_malformed_scenario_run_exits_2(tmp_path, capsys, edit, where):
    data = json.loads((SCENARIO_DIR / "overtake.json").read_text())
    edit(data)
    bad = _write(tmp_path, "bad.json", data)
    assert main(["run", str(bad), "--dry-run"]) == 2
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"scenario error: {where}") == 2, err
    assert not (tmp_path / "out").exists()


def test_run_writes_artifacts(tmp_path, capsys):
    scn = _write(tmp_path, "mini.json", _mini_scenario())
    out = tmp_path / "out"
    rc = main(["run", str(scn), "--out", str(out), "--strict"])
    assert rc == 0  # clean run, strict mode passes
    assert (out / "runlog.csv").exists()
    assert (out / "instances.json").exists()
    assert (out / "summary.json").exists()

    # the summary is recomputable from the runlog
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "runlog.csv") as fh:
        rows = list(csv.DictReader(fh))
    v = np.array([float(r["ego_v"]) for r in rows])
    u_a = np.array([float(r["u_a"]) for r in rows])
    assert summary["min_speed"] == float(v.min())
    assert summary["max_speed"] == float(v.max())
    assert summary["max_abs_a_lon"] == float(np.abs(u_a).max())
    assert summary["events"] == []

    instances = json.loads((out / "instances.json").read_text())
    assert len(instances["instances"]) == 2  # 10 s / 5 s instance period
    assert "decisions:" in capsys.readouterr().out


def test_horizon_override(tmp_path, capsys):
    scn = _write(tmp_path, "mini.json", _mini_scenario())
    rc = main(["run", str(scn), "--dry-run", "--horizon", "40",
               "--instance-period", "4.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["planner_config"]["N_L"] == 40
    assert out["planner_config"]["instance_period"] == 4.0


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    """(scenario file, output directory, exit code) of a strict run with the
    ego boxed in by two standing vehicles: no terminal anchor exists and the
    run degrades to the safe-stop fallback."""
    tmp = tmp_path_factory.mktemp("blocked")
    blocked = _mini_scenario(
        ego={"x0": 300.0, "y0": -2.0, "v0": 8.33, "v_des": 12.0},
        actors=[
            {"id": "B1", "s0": 306.0, "d0": -2.0, "v0": 0.0,
             "v_bounds": [0.0, 0.01], "a_bounds": [-0.01, 0.01]},
            {"id": "B2", "s0": 312.0, "d0": -2.0, "v0": 0.0,
             "v_bounds": [0.0, 0.01], "a_bounds": [-0.01, 0.01]},
        ],
        sim={"duration": 6.0})
    scn = _write(tmp, "blocked.json", blocked)
    out = tmp / "out"
    return scn, out, main(["run", str(scn), "--out", str(out), "--strict"])


def test_strict_exits_3_when_degraded(blocked_run, tmp_path, capsys):
    scn, out, rc = blocked_run
    assert rc == 3
    summary = json.loads((out / "summary.json").read_text())
    assert "planner_fallback" in summary["events"]
    # without --strict the same run exits 0 and still writes artifacts
    assert main(["run", str(scn), "--out", str(tmp_path / "out2")]) == 0


def test_solve_time_samples_only_solved_candidates(blocked_run):
    _, out, _ = blocked_run
    instances = json.loads((out / "instances.json").read_text())["instances"]
    walls = [c["wall_time"] for i in instances
             for c in i["stats"].get("candidates", ()) if "wall_time" in c]
    assert walls and len(walls) < len(instances)  # fallbacks solve nothing
    summary = json.loads((out / "summary.json").read_text())
    assert summary["solve_time_mean"] == pytest.approx(np.mean(walls))
    assert summary["solve_time_max"] == max(walls)


def test_override_passes_the_file_checks(capsys):
    # 1.5 s is a multiple of T_sL = 0.5 s but not of T_sMPC = 0.2 s
    assert main(["run", str(SCENARIO_DIR / "overtake.json"), "--dry-run",
                 "--instance-period", "1.5"]) == 2
    assert "instance_period/T_sMPC must divide evenly" in \
        capsys.readouterr().err


def _short_empty_road(tmp_path, plant_step):
    data = json.loads((SCENARIO_DIR / "empty_road.json").read_text())
    data["sim"].update(duration=0.1, plant_step=plant_step)
    return _write(tmp_path, "short.json", data)


def test_one_plant_step_run_exits_0(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(_short_empty_road(tmp_path, 0.1)),
                 "--out", str(out)]) == 0
    with open(out / "runlog.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["duration"] == pytest.approx(0.1)


def test_run_records_the_thread_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert main(["run", str(_short_empty_road(tmp_path, 0.1)),
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                  "OMP_NUM_THREADS": "2",
                                  "MKL_NUM_THREADS": None}


def test_run_shorter_than_a_plant_step_exits_2(tmp_path, capsys):
    scn = _short_empty_road(tmp_path, 0.2)
    assert main(["run", str(scn), "--dry-run"]) == 2
    assert main(["run", str(scn), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.count("scenario error: sim.duration") == 2
    assert not (tmp_path / "out").exists()


def _empty_road(tmp_path, duration):
    data = json.loads((SCENARIO_DIR / "empty_road.json").read_text())
    data["sim"]["duration"] = duration
    return _write(tmp_path, "empty_road.json", data)


@pytest.mark.parametrize("horizon", ["5", "13"])
def test_horizon_shorter_than_an_instance_exits_2(tmp_path, capsys, horizon):
    # a plan of N_L * T_sL = 2.5 or 6.5 s does not reach the window end of
    # the instance's last tick, instance_period + (N_P - 1) * T_sMPC = 6.8 s
    scn = _empty_road(tmp_path, 10.0)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--dry-run", "--horizon", horizon]) == 2
    assert main(["run", str(scn), "--out", str(out),
                 "--horizon", horizon]) == 2
    err = capsys.readouterr().err
    assert err.count("scenario error: planner/tracker: planner horizon "
                     f"N_L*T_sL = {int(horizon) / 2:g} s") == 2, err
    assert "6.8 s" in err
    assert not out.exists()


def test_horizon_covering_an_instance_passes(tmp_path, capsys):
    # 7 s covers the 6.8 s the ticks of one instance read
    scn = _empty_road(tmp_path, 10.0)
    assert main(["run", str(scn), "--dry-run", "--horizon", "14"]) == 0
    assert json.loads(capsys.readouterr().out)["planner_config"]["N_L"] == 14


def test_strict_exits_3_on_collision_margin(oncoming_run):
    _, out, rc = oncoming_run
    summary = json.loads((out / "summary.json").read_text())
    assert summary["events"] == ["collision_margin"]
    assert rc == 3


def test_run_help_lists_no_removed_flags(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = capsys.readouterr().out
    assert "--parallel-planner" not in help_text
    assert "--seed" not in help_text


def _without_wall_times(node):
    """``node`` without its wall times: each candidate's ``wall_time`` and
    its ``phase_s``, the seconds of its solve's phases."""
    if isinstance(node, dict):
        return {k: _without_wall_times(v) for k, v in node.items()
                if k not in ("wall_time", "phase_s")}
    if isinstance(node, list):
        return [_without_wall_times(v) for v in node]
    return node


def test_plan_at_starts_from_closed_loop_state(oncoming_run, tmp_path):
    # the replayed instance, anchored to the input the loop applied, is the
    # closed loop's record bit for bit, wall times aside
    scn, out, _ = oncoming_run
    instance, = [i for i in json.loads(
        (out / "instances.json").read_text())["instances"] if i["t0"] == 5.0]
    plan = tmp_path / "plan.json"
    assert main(["plan", str(scn), "--at", "5", "--out", str(plan)]) == 0
    dump = json.loads(plan.read_text())
    assert set(dump) == set(instance) | {"terminal_set", "field"}
    assert _without_wall_times({k: dump[k] for k in instance}) == \
        _without_wall_times(instance)


@pytest.mark.parametrize("at", ["nan", "inf", "-5", "10.5"])
def test_plan_at_outside_the_scene_exits_2(oncoming_run, tmp_path, capsys,
                                           at):
    scn, _, _ = oncoming_run  # a 10 s scene
    out = tmp_path / "plan.json"
    assert main(["plan", str(scn), "--at", at, "--out", str(out)]) == 2
    assert "--at must be a time in [0, 10] s" in capsys.readouterr().err
    assert not out.exists()


def test_plan_field_matches_per_point_reference(tmp_path):
    leader = {"id": "L1", "s0": 100.0, "d0": -2.0, "v0": 5.0,
              "v_bounds": [2.9, 6.1], "a_bounds": [-0.01, 0.25]}
    file = _write(tmp_path, "scene.json", _oncoming_scenario(leader))
    out = tmp_path / "plan.json"
    assert main(["plan", str(file), "--field-step", "35",
                 "--out", str(out)]) == 0
    field = json.loads(out.read_text())["field"]
    assert field["j"] == [0, 35, 70]

    scn = scenario_mod.load(file)
    path = scn.build_path()
    tv = scn.tvapf_params()
    actors = [ActorRuntime(spec=a, s=a.s0, d=a.d0, v=a.v0)
              for a in scn.actors]
    _, forecasts, sensed = perceive(initial_ego_state(scn, path), actors,
                                    path, scn.planner_config(), 300.0)
    assert sensed == ["O1", "L1"]
    root = (-math.log(tv.edge_value)) ** (1.0 / tv.c)
    gamma_d = (0.5 * tv.l_W + tv.sigma_d) / root

    def field_at(s, d, fc, j):
        gamma_s = (0.5 * fc.delta_s[j] + tv.sigma_s) / root
        return math.exp(-(((s - fc.s_center[j]) / gamma_s) ** tv.c
                          + ((d - fc.d_o) / gamma_d) ** tv.c))

    for j, W in zip(field["j"], field["W"]):
        ref = [[max(field_at(s, d, fc, j) for fc in forecasts)
                for d in field["d"]] for s in field["s"]]
        np.testing.assert_allclose(W, ref, rtol=0.0, atol=1e-12)

    # with no sensed actor the overlay is its floor, zero everywhere
    empty = _write(tmp_path, "empty.json", _mini_scenario())
    assert main(["plan", str(empty), "--field-step", "35",
                 "--out", str(out)]) == 0
    W = np.array(json.loads(out.read_text())["field"]["W"])
    assert W.shape == (3, 141, 33) and not W.any()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [100, 200])
def test_plan_with_steep_field_exponent(tmp_path, capsys, c):
    # far from an obstacle the field's powers of large c overflow unless
    # they stop where the field has underflowed to 0
    data = json.loads((SCENARIO_DIR / "overtake.json").read_text())
    data.setdefault("tvapf", {})["c"] = c
    out = tmp_path / "plan.json"
    assert main(["plan", str(_write(tmp_path, "steep.json", data)),
                 "--at", "0", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["decision"] == "FollowLeader"
    assert "planner fallback" not in capsys.readouterr().err


def test_plan_bundled_scenario(tmp_path, capsys):
    out = tmp_path / "plan.json"
    rc = main(["plan", str(SCENARIO_DIR / "overtake.json"), "--at", "0",
               "--out", str(out)])
    assert rc == 0
    dump = json.loads(out.read_text())
    # at t = 0 the oncoming traffic blocks the pass: follow the leader
    assert dump["decision"] == "FollowLeader"
    assert set(dump["sensed"]) == {"L1", "O1"}  # O2 beyond sensor range
    ds = [s[1] for s in dump["states"]]
    assert max(ds) < 0.0  # stays in the right lane
    # the dumped field is the per-obstacle overlay, normalized to [0, 1]
    w_max = max(max(max(row) for row in sl) for sl in dump["field"]["W"])
    assert 0.0 < w_max <= 1.0 + 1e-12
    assert dump["terminal_set"]["s_max"] > dump["states"][0][0]
    assert len(dump["states"]) == 71 and len(dump["inputs"]) == 70


def test_plan_overtake_feasible(tmp_path):
    scn = _write(tmp_path, "pass.json", _mini_scenario(
        ego={"x0": 300.0, "y0": -2.0, "v0": 8.33, "v_des": 12.0},
        actors=[{"id": "L1", "s0": 400.0, "d0": -2.0, "v0": 5.0,
                 "v_bounds": [2.9, 6.1], "a_bounds": [-0.01, 0.25]}]))
    out = tmp_path / "plan.json"
    assert main(["plan", str(scn), "--out", str(out)]) == 0
    dump = json.loads(out.read_text())
    assert dump["decision"] == "Overtake"
    assert max(s[1] for s in dump["states"]) > 0.0  # enters the left lane


def test_plan_dumps_the_published_terminal_set(tmp_path):
    # the pass candidate is published, so its box, not the stay box behind
    # the leader, bounds the last state
    scn = _write(tmp_path, "pass.json", _mini_scenario(
        ego={"x0": 300.0, "y0": -2.0, "v0": 8.33, "v_des": 12.0},
        actors=[{"id": "L1", "s0": 400.0, "d0": -2.0, "v0": 5.0,
                 "v_bounds": [2.9, 6.1], "a_bounds": [-0.01, 0.25]}]))
    out = tmp_path / "plan.json"
    assert main(["plan", str(scn), "--out", str(out)]) == 0
    dump = json.loads(out.read_text())
    assert dump["stats"]["candidate"] == "pass"
    assert dump["terminal_set"] == dump["stats"]["terminal_set"]
    assert TerminalBox(**dump["terminal_set"]).contains(
        EgoModelState(*dump["states"][-1]))


def test_plan_fallback_dumps_no_terminal_set(tmp_path, capsys):
    # a leader on the ego's bumper leaves stay no safe-stop anchor ahead,
    # and the pass around it is infeasible: the dump keeps its record
    scn = _write(tmp_path, "blocked.json", _mini_scenario(
        actors=[{"id": "L1", "s0": 21.0, "d0": -2.0, "v0": 0.0,
                 "v_bounds": [0.0, 0.1], "a_bounds": [-0.01, 0.01]}]))
    out = tmp_path / "plan.json"
    assert main(["plan", str(scn), "--out", str(out)]) == 0
    assert "planner fallback" in capsys.readouterr().err
    dump = json.loads(out.read_text())
    assert dump["stats"]["status"] == "fallback"
    assert [(c["candidate"], c["status"])
            for c in dump["stats"]["candidates"]] == [("pass", "infeasible")]
    assert dump["terminal_set"] is None


@pytest.mark.parametrize("ego, at", [({"theta0": 3.14159}, 10.0),
                                     ({"x0": 1499.0}, 1.0)],
                         ids=["reversed", "at_the_path_end"])
def test_an_ego_that_leaves_the_path_ends_the_run(tmp_path, capsys, ego, at):
    """The run ends at the instance that finds the ego off the path, t0 =
    5 s, with one off_path event; the artifacts are written and --strict
    exits 3.  A plan past the run's end, or at a time the ego is off the
    path, exits 2 with one line."""
    data = json.loads((SCENARIO_DIR / "empty_road.json").read_text())
    data["ego"].update(ego)
    data["sim"]["duration"] = 15.0
    scn = _write(tmp_path, "off.json", data)
    out = tmp_path / "out"
    assert main(["run", str(scn), "--out", str(out), "--strict"]) == 3
    events = json.loads((out / "instances.json").read_text())["events"]
    assert [e["kind"] for e in events].count("off_path") == 1
    assert (events[-1]["t"], events[-1]["kind"]) == (5.0, "off_path")
    with open(out / "runlog.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 250  # t = 0 .. 4.98 s
    summary = json.loads((out / "summary.json").read_text())
    assert summary["events"][-1] == "off_path"
    capsys.readouterr()
    plan = tmp_path / "plan.json"
    assert main(["plan", str(scn), "--at", str(at), "--out", str(plan)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"no planner instance at {at:g} s: ")
    assert err.count("\n") == 1 and "off the path" in err
    assert not plan.exists()


def test_plan_missing_scenario_exits_2(capsys):
    assert main(["plan", "/nonexistent.json"]) == 2


def _plan_dump(tmp_path, threads):
    """``tvapf plan overtake.json --at 0`` in a fresh process with the BLAS
    pools at ``threads`` threads: the dump without its wall times."""
    out = tmp_path / f"plan-{threads}.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(tvapf.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "tvapf.cli", "plan",
                    str(SCENARIO_DIR / "overtake.json"), "--at", "0",
                    "--out", str(out)], env=env, check=True,
                   capture_output=True)
    return _without_wall_times(json.loads(out.read_text()))


def test_plan_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the planner and its solver give the same instance on 1 and 2 threads;
    # the thread dependence of run logs lies in the tracker's SLSQP
    assert _plan_dump(tmp_path, 1) == _plan_dump(tmp_path, 2)
