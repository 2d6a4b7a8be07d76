"""Scenario schema: strict parsing, round-trip serialization, and the
bundled scenario files."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import tvapf
from tvapf import scenario as scenario_mod
from tvapf.cli import main
from tvapf.scenario import (ACTOR, SCHEMA, ScenarioError, from_dict,
                            initial_ego_state)

SCENARIO_DIR = Path(tvapf.__file__).parent / "scenarios"


def minimal_dict(**extra):
    data = {
        "path": {"length": 600.0},
        "ego": {"x0": 20.0, "y0": -2.0, "v0": 8.0, "v_des": 12.0},
        "actors": [
            {"id": "L1", "s0": 200.0, "d0": -2.0, "v0": 5.0,
             "v_bounds": [4.0, 6.0], "a_bounds": [-0.2, 0.2],
             "script": [{"t": 10.0, "target_v": 4.0}]},
        ],
        "sim": {"duration": 10.0},
    }
    data.update(extra)
    return data


# -- bundled files -----------------------------------------------------------


@pytest.mark.parametrize("file", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda file: file.name)
def test_bundled_scenarios_load(file, capsys):
    scn = scenario_mod.load(file)
    path = scn.build_path()
    assert path.lane_count == 2
    scn.planner_config()
    scn.tracker_config()
    scn.potential_config()
    scn.tvapf_params()
    assert main(["run", str(file), "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == scn.to_dict()


def test_overtake_scenario_contents(overtake_scenario):
    scn = overtake_scenario
    ids = [a.id for a in scn.actors]
    assert len(scn.actors) == 3
    # one same-direction leader, two oncoming actors
    directions = {a.id: a.direction for a in scn.actors}
    assert sorted(directions.values()) == [-1, -1, 1]
    leader = next(a for a in scn.actors if a.direction == 1)
    assert leader.d0 == pytest.approx(-2.0)
    assert all(i for i in ids)


# -- round trips -------------------------------------------------------------


def test_dict_round_trip():
    scn = from_dict(minimal_dict())
    d1 = scn.to_dict()
    d2 = from_dict(d1).to_dict()
    assert d1 == d2


def test_bundled_round_trip(overtake_scenario):
    d1 = overtake_scenario.to_dict()
    assert from_dict(d1).to_dict() == d1


@pytest.mark.parametrize("suffix", [".json", ".yaml"])
def test_save_load_round_trip(tmp_path, suffix):
    scn = from_dict(minimal_dict())
    file = tmp_path / f"scn{suffix}"
    scn.save(file)
    again = scenario_mod.load(file)
    assert again.to_dict() == scn.to_dict()
    if suffix == ".json":
        json.loads(file.read_text())  # valid plain JSON on disk


def test_actor_spec_accessors():
    scn = from_dict(minimal_dict())
    actor = scn.actors[0]
    obs = actor.initial_state()
    assert obs.s_o == 200.0 and obs.d_o == -2.0 and obs.v_o == 5.0
    assert actor.script == ((10.0, 4.0),)


# -- validation --------------------------------------------------------------


def test_unknown_top_level_key():
    with pytest.raises(ScenarioError, match="unknown top-level"):
        from_dict(minimal_dict(extra_section={}))


def test_missing_required_sections():
    with pytest.raises(ScenarioError, match="missing required"):
        from_dict({"ego": {}})
    with pytest.raises(ScenarioError, match="missing required"):
        from_dict({"path": {}})
    with pytest.raises(ScenarioError):
        from_dict("not a mapping")


def test_unknown_actor_key():
    data = minimal_dict()
    data["actors"][0]["color"] = "red"
    with pytest.raises(ScenarioError, match=r"actors\[0\]"):
        from_dict(data)


def test_missing_actor_field():
    data = minimal_dict()
    del data["actors"][0]["v_bounds"]
    with pytest.raises(ScenarioError, match="v_bounds"):
        from_dict(data)


def test_bad_actor_bounds():
    data = minimal_dict()
    data["actors"][0]["v_bounds"] = [6.0, 4.0]  # inverted
    with pytest.raises(ScenarioError):
        from_dict(data)
    data = minimal_dict()
    data["actors"][0]["v_bounds"] = [0.0, 20.0]  # above the global cap
    with pytest.raises(ScenarioError):
        from_dict(data)
    data = minimal_dict()
    data["actors"][0]["a_bounds"] = [-2.0, 0.2]  # beyond the global cap
    with pytest.raises(ScenarioError):
        from_dict(data)
    data = minimal_dict()
    data["actors"][0]["v_bounds"] = ["x", 6.1]  # not a number
    with pytest.raises(ScenarioError, match=r"actors\[0\]\.v_bounds\[0\]"):
        from_dict(data)
    data = minimal_dict()
    data["actors"][0]["v_bounds"] = 6.1  # not a pair
    with pytest.raises(ScenarioError, match=r"actors\[0\]\.v_bounds"):
        from_dict(data)


def test_actor_v0_outside_bounds():
    data = minimal_dict()
    data["actors"][0]["v0"] = 9.0  # outside [4, 6]
    with pytest.raises(ScenarioError):
        from_dict(data)


def test_non_increasing_script_times():
    data = minimal_dict()
    data["actors"][0]["script"] = [{"t": 10.0, "target_v": 4.0},
                                   {"t": 10.0, "target_v": 5.0}]
    with pytest.raises(ScenarioError, match="increase"):
        from_dict(data)


def test_script_target_above_global_cap():
    data = minimal_dict()
    data["actors"][0]["script"] = [{"t": 5.0, "target_v": 14.0}]
    with pytest.raises(ScenarioError):
        from_dict(data)


def test_ego_speed_above_global_cap():
    data = minimal_dict()
    data["ego"]["v0"] = 13.0
    with pytest.raises(ScenarioError, match="ego.v0"):
        from_dict(data)


def test_bad_direction():
    data = minimal_dict()
    data["actors"][0]["direction"] = 0
    with pytest.raises(ScenarioError, match="direction"):
        from_dict(data)
    data["actors"][0]["direction"] = "left"
    with pytest.raises(ScenarioError, match=r"actors\[0\]\.direction"):
        from_dict(data)


@pytest.mark.parametrize("where, edit", [
    ("actors[0]", lambda d: d["actors"].__setitem__(0, 5)),
    ("actors[0].script[0]", lambda d: d["actors"][0].__setitem__(
        "script", [[10.0, 4.0]])),
    ("ego", lambda d: d.__setitem__("ego", [20.0, -2.0])),
    ("sim", lambda d: d.__setitem__("sim", 10.0)),
], ids=["actor", "script_entry", "ego", "sim"])
def test_bad_section_type(where, edit):
    data = minimal_dict()
    edit(data)
    with pytest.raises(ScenarioError, match=re.escape(where)):
        from_dict(data)


@pytest.mark.parametrize("key, value", [("Q", [1.0, 2.0]), ("R", [0.05]),
                                        ("Q", 10.0)],
                         ids=["Q_short", "R_short", "Q_scalar"])
def test_bad_tracker_weights(key, value):
    with pytest.raises(ScenarioError, match=f"tracker.{key}"):
        from_dict(minimal_dict(tracker={key: value}))


def test_bad_duplicate_actor_id():
    data = minimal_dict()
    data["actors"].append(dict(data["actors"][0], s0=320.0))
    with pytest.raises(ScenarioError, match=r"actors\[1\]\.id: duplicate"):
        from_dict(data)


def test_grid_ratio_mismatch():
    data = minimal_dict(sim={"duration": 10.0, "plant_step": 0.03},
                        tracker={"T_sMPC": 0.2})
    with pytest.raises(ScenarioError, match="divide evenly"):
        from_dict(data)
    data = minimal_dict(planner={"instance_period": 5.0},
                        tracker={"T_sMPC": 0.3})
    with pytest.raises(ScenarioError, match="divide evenly"):
        from_dict(data)


@pytest.mark.parametrize("key, value", [("sensor_range", 0.5),
                                        ("collision_margin", -1.0),
                                        ("collision_margin", "2.0")])
def test_bad_sim_value(key, value):
    with pytest.raises(ScenarioError, match=f"sim.{key}"):
        from_dict(minimal_dict(sim={"duration": 10.0, key: value}))


# A valid value other than the default for every key SCHEMA lists.
NON_DEFAULT = {
    "path.points": [[float(x), 0.05 * x] for x in range(0, 610, 10)],
    "path.length": 800.0, "path.spacing": 10.0, "path.lane_count": 3,
    "path.lane_width": 3.5, "path.speed_limit": 10.0,
    "ego.x0": 30.0, "ego.y0": -1.5, "ego.theta0": 0.05, "ego.v0": 7.0,
    "ego.v_des": 11.0,
    "tvapf.sigma_s": 5.0, "tvapf.sigma_d": 0.25, "tvapf.c": 6,
    "tvapf.edge_value": 0.5, "tvapf.epsilon_o": 0.1, "tvapf.eta": 1.5,
    "tvapf.a_l_max": 1.5,
    "weights.K_v": 2.0, "weights.K_b": 40.0, "weights.K_l": 4.0,
    "weights.K_c": 1.0, "weights.K_o": 10.0,
    "planner.T_sL": 1.0, "planner.N_L": 40, "planner.instance_period": 10.0,
    "planner.terminal.tau": 0.4, "planner.terminal.j_max": 0.8,
    "planner.terminal.alpha_min": -0.92, "planner.terminal.nu_ter": 4.0,
    "planner.terminal.eps_d": 0.4, "planner.terminal.eps_psi": 0.05,
    "tracker.T_sMPC": 0.1, "tracker.N_P": 8, "tracker.rho": 1000.0,
    "tracker.wheelbase": 3.0, "tracker.Q": [1.0, 1.0, 1.0, 1.0, 1.0],
    "tracker.R": [0.1, 0.1],
    "sim.duration": 5.0, "sim.plant_step": 0.04, "sim.sensor_range": 100.0,
    "sim.collision_margin": 3.0,
}


def _schema_keys(schema, prefix=""):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _schema_keys(spec, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def _fed(scn):
    """Everything the scenario's section entries feed."""
    path = scn.build_path()
    return {"path": (path.length, path.lane_count, path.lane_width,
                     path.samples.tolist(), path.speed_limit_at(100.0)),
            "ego": initial_ego_state(scn, path),
            "planner": scn.planner_config(), "tracker": scn.tracker_config(),
            "potentials": scn.potential_config(),
            "tvapf": scn.tvapf_params(), "sim": scn.sim}


def _non_default(key):
    """minimal_dict with the dotted SCHEMA ``key`` set to NON_DEFAULT's."""
    data = minimal_dict()
    *sections, name = key.split(".")
    section = data
    for part in sections:
        section = section.setdefault(part, {})
    section[name] = NON_DEFAULT[key]
    return data


@pytest.mark.parametrize("key", list(_schema_keys(SCHEMA)))
def test_every_schema_key_feeds_an_object(key):
    assert _fed(from_dict(_non_default(key))) != \
        _fed(from_dict(minimal_dict()))


@pytest.mark.parametrize("config", ["planner_config", "tracker_config",
                                    "potential_config", "tvapf_params"])
def test_every_config_field_is_fed_by_a_schema_key(config):
    # the reverse of the test above: a field no key moves is a fixed value,
    # which belongs in a module constant
    base = getattr(from_dict(minimal_dict()), config)()
    fed = set()
    for key in _schema_keys(SCHEMA):
        built = getattr(from_dict(_non_default(key)), config)()
        fed |= {f.name for f in dataclasses.fields(built)
                if getattr(built, f.name) != getattr(base, f.name)}
    assert {f.name for f in dataclasses.fields(base)} - fed == set()


# A valid value other than minimal_dict's for every key ACTOR lists, and for
# every key of a script entry.
ACTOR_NON_DEFAULT = {
    "id": "L2", "s0": 250.0, "d0": -1.5, "v0": 4.5, "v_bounds": [3.0, 7.0],
    "a_bounds": [-0.3, 0.3], "direction": -1,
    "script": [{"t": 5.0, "target_v": 5.0}],
    "script.t": 12.0, "script.target_v": 4.5,
}


@pytest.mark.parametrize("key", [*ACTOR, *(f"script.{key}"
                                           for key in ACTOR["script"][0])])
def test_every_actor_key_feeds_the_actor_spec(key):
    data = minimal_dict()
    actor = data["actors"][0]
    entry = actor["script"][0] if key.startswith("script.") else actor
    entry[key.removeprefix("script.")] = ACTOR_NON_DEFAULT[key]
    assert from_dict(data).actors != from_dict(minimal_dict()).actors


def test_renamed_routes():
    # keys that feed a field of another name or type
    scn = from_dict(minimal_dict(path={"length": 600.0, "lane_width": 3.5},
                                 tracker={"Q": [1, 1, 1, 1, 1], "R": [1, 1]}))
    assert scn.tvapf_params().l_W == 3.5
    assert scn.tracker_config().Q == (1, 1, 1, 1, 1)
    assert scn.tracker_config().R == (1, 1)


def test_alpha_key_refused():
    # the field's scales follow from edge_value alone; the explicit scaling
    # factors are not scenario keys
    for key in ("alpha_s", "alpha_d"):
        for value in (0.5, None):
            with pytest.raises(ScenarioError,
                               match=rf"tvapf: unknown keys \['{key}'\]"):
                from_dict(minimal_dict(tvapf={key: value}))


def test_invalid_subconfig_reported_as_scenario_error():
    with pytest.raises(ScenarioError):
        from_dict(minimal_dict(tracker={"rho": -1.0}))
    with pytest.raises(ScenarioError):
        from_dict(minimal_dict(tvapf={"c": 3}))


def test_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        scenario_mod.load("/nonexistent/scenario.json")
