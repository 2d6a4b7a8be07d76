"""Scenario schema: parsing, validation and serialization.

A scenario file (JSON or YAML) fully determines a closed-loop run: road
geometry, ego start and desired speed, scripted actors with uncertainty
bounds, field/weight parameters, planner/tracker configuration and the
simulation grid.  Parsing is strict — unknown keys and invalid values fail
with path-qualified diagnostics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .geometry import ReferencePath, straight_path
from .planner import PlannerConfig
from .potentials import PotentialConfig
from .prediction import ObstacleState, TvapfParams
from .tracker import TrackerConfig


class ScenarioError(Exception):
    """The scenario file is malformed or violates an invariant."""


# global kinematic limits every scripted speed must respect
GLOBAL_V_MAX = 12.5
GLOBAL_A_MAX = 0.9


@dataclass(frozen=True)
class ActorSpec:
    id: str
    s0: float
    d0: float
    v0: float
    v_bounds: tuple
    a_bounds: tuple
    direction: int = 1
    script: tuple = ()  # ((t, target_v), ...) time-sorted

    def initial_state(self) -> ObstacleState:
        return ObstacleState(s_o=self.s0, d_o=self.d0, v_o=self.v0,
                             v_bounds=self.v_bounds, a_bounds=self.a_bounds,
                             direction=self.direction)


@dataclass(frozen=True)
class Scenario:
    path: dict
    ego: dict
    actors: tuple
    tvapf: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    planner: dict = field(default_factory=dict)
    tracker: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)

    # -- factories for the runtime objects ---------------------------------

    def build_path(self) -> ReferencePath:
        p = self.path
        if "points" in p:
            return ReferencePath(np.asarray(p["points"], dtype=float),
                                 lane_count=p.get("lane_count", 2),
                                 lane_width=p.get("lane_width", 4.0),
                                 speed_limit=p.get("speed_limit", 12.5))
        return straight_path(length=p.get("length", 1500.0),
                             spacing=p.get("spacing", 5.0),
                             lane_count=p.get("lane_count", 2),
                             lane_width=p.get("lane_width", 4.0),
                             speed_limit=p.get("speed_limit", 12.5))

    def planner_config(self) -> PlannerConfig:
        p = dict(self.planner)
        terminal = p.pop("terminal", {})
        kw = {}
        for key in ("T_sL", "N_L", "instance_period"):
            if key in p:
                kw[key] = p[key]
        for key in ("tau", "j_max", "alpha_min", "nu_ter"):
            if key in terminal:
                kw[key] = terminal[key]
        if "eps_d" in terminal:
            kw["eps_d"] = terminal["eps_d"]
        if "eps_psi" in terminal:
            kw["eps_psi"] = terminal["eps_psi"]
        if "K_o" in self.weights:
            kw["K_o"] = self.weights["K_o"]
        return PlannerConfig(**kw)

    def tracker_config(self) -> TrackerConfig:
        t = self.tracker
        kw = {}
        for key in ("T_sMPC", "N_P", "rho", "wheelbase"):
            if key in t:
                kw[key] = t[key]
        if "Q" in t:
            kw["Q"] = tuple(t["Q"])
        if "R" in t:
            kw["R"] = tuple(t["R"])
        return TrackerConfig(**kw)

    def potential_config(self) -> PotentialConfig:
        kw = {"v_des": self.ego.get("v_des", 12.0)}
        for key in ("K_v", "K_b", "K_l", "K_c"):
            if key in self.weights:
                kw[key] = self.weights[key]
        for key in ("eta", "a_l_max"):
            if key in self.tvapf:
                kw[key] = self.tvapf[key]
        return PotentialConfig(**kw)

    def tvapf_params(self) -> TvapfParams:
        kw = {"l_W": self.path.get("lane_width", 4.0)}
        for key in ("sigma_s", "sigma_d", "c", "edge_value", "epsilon_o",
                    "alpha_s", "alpha_d"):
            if key in self.tvapf:
                kw[key] = self.tvapf[key]
        return TvapfParams(**kw)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "path": dict(self.path),
            "ego": dict(self.ego),
            "actors": [
                {
                    "id": a.id, "s0": a.s0, "d0": a.d0, "v0": a.v0,
                    "v_bounds": list(a.v_bounds), "a_bounds": list(a.a_bounds),
                    "direction": a.direction,
                    "script": [{"t": t, "target_v": v} for t, v in a.script],
                }
                for a in self.actors
            ],
            "tvapf": dict(self.tvapf),
            "weights": dict(self.weights),
            "planner": dict(self.planner),
            "tracker": dict(self.tracker),
            "sim": dict(self.sim),
        }

    def save(self, file) -> None:
        path = Path(file)
        data = self.to_dict()
        if path.suffix in (".yaml", ".yml"):
            path.write_text(yaml.safe_dump(data, sort_keys=False))
        else:
            path.write_text(json.dumps(data, indent=2) + "\n")


_TOP_KEYS = {"path", "ego", "actors", "tvapf", "weights", "planner",
             "tracker", "sim"}
_ACTOR_KEYS = {"id", "s0", "d0", "v0", "v_bounds", "a_bounds", "direction",
               "script"}


def _require_number(value, where, lo=-math.inf, hi=math.inf):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    if not lo <= value <= hi:
        raise ScenarioError(f"{where}: {value} outside [{lo}, {hi}]")
    return float(value)


def _require_type(value, where, kind=(list, tuple), size=None):
    """value itself, if it is a ``kind`` (with ``size`` entries if given)."""
    if not isinstance(value, kind) or size not in (None, len(value)):
        what = ("a mapping" if kind is dict else "a list" if size is None
                else f"a list of {size} entries")
        raise ScenarioError(f"{where}: expected {what}, got {value!r}")
    return value


def _require_pair(value, where, lo, hi):
    return tuple(_require_number(v, f"{where}[{i}]", lo, hi)
                 for i, v in enumerate(_require_type(value, where, size=2)))


def from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("path", "ego"):
        if key not in data:
            raise ScenarioError(f"missing required section '{key}'")
    for key in ("path", "ego", "tvapf", "weights", "planner", "tracker",
                "sim"):
        _require_type(data.get(key, {}), key, dict)

    ego = data["ego"]
    _require_number(ego.get("v0", 0.0), "ego.v0", 0.0, GLOBAL_V_MAX)
    _require_number(ego.get("v_des", 12.0), "ego.v_des", 0.0, GLOBAL_V_MAX)

    actors = []
    for i, a in enumerate(_require_type(data.get("actors", []), "actors")):
        where = f"actors[{i}]"
        unknown = set(_require_type(a, where, dict)) - _ACTOR_KEYS
        if unknown:
            raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
        for key in ("s0", "d0", "v0", "v_bounds", "a_bounds"):
            if key not in a:
                raise ScenarioError(f"{where}: missing '{key}'")
        v_bounds = _require_pair(a["v_bounds"], f"{where}.v_bounds", 0.0,
                                 GLOBAL_V_MAX)
        a_bounds = _require_pair(a["a_bounds"], f"{where}.a_bounds",
                                 -GLOBAL_A_MAX, GLOBAL_A_MAX)
        script = []
        prev_t = -math.inf
        for j, entry in enumerate(_require_type(a.get("script", []),
                                                f"{where}.script")):
            _require_type(entry, f"{where}.script[{j}]", dict)
            t = _require_number(entry.get("t"), f"{where}.script[{j}].t", 0.0)
            tv = _require_number(entry.get("target_v"),
                                 f"{where}.script[{j}].target_v",
                                 0.0, GLOBAL_V_MAX)
            if t <= prev_t:
                raise ScenarioError(f"{where}.script: times must increase")
            prev_t = t
            script.append((t, tv))
        direction = a.get("direction", 1)
        if direction not in (1, -1) or isinstance(direction, bool):
            raise ScenarioError(f"{where}.direction must be 1 or -1, got "
                                f"{direction!r}")
        actor_id = str(a.get("id", f"A{i}"))
        if actor_id in {spec.id for spec in actors}:
            raise ScenarioError(f"{where}.id: duplicate actor id {actor_id!r}")
        try:
            spec = ActorSpec(id=actor_id,
                             s0=float(a["s0"]), d0=float(a["d0"]),
                             v0=float(a["v0"]), v_bounds=v_bounds,
                             a_bounds=a_bounds, direction=int(direction),
                             script=tuple(script))
            spec.initial_state()  # bounds consistency
        except Exception as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        actors.append(spec)

    tracker = data.get("tracker", {})
    for key, size in (("Q", 5), ("R", 2)):
        if key in tracker:
            for i, q in enumerate(_require_type(tracker[key],
                                                f"tracker.{key}", size=size)):
                _require_number(q, f"tracker.{key}[{i}]", 0.0)

    scn = Scenario(path=dict(data["path"]), ego=dict(ego),
                   actors=tuple(actors),
                   tvapf=dict(data.get("tvapf", {})),
                   weights=dict(data.get("weights", {})),
                   planner=dict(data.get("planner", {})),
                   tracker=dict(data.get("tracker", {})),
                   sim=dict(data.get("sim", {})))
    # configuration sections must construct cleanly
    for where, build in (("path", scn.build_path),
                         ("planner", scn.planner_config),
                         ("tracker", scn.tracker_config),
                         ("weights/tvapf", scn.potential_config),
                         ("tvapf", scn.tvapf_params)):
        try:
            build()
        except Exception as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    sim = scn.sim
    _require_number(sim.get("duration", 60.0), "sim.duration", 0.1)
    step = _require_number(sim.get("plant_step", 0.02), "sim.plant_step",
                           1e-4, 1.0)
    _require_number(sim.get("sensor_range", 300.0), "sim.sensor_range", 1.0)
    _require_number(sim.get("collision_margin", 2.0), "sim.collision_margin",
                    0.0)
    tcfg = scn.tracker_config()
    pcfg = scn.planner_config()
    for big, small, name in ((tcfg.T_sMPC, step, "T_sMPC/plant_step"),
                             (pcfg.instance_period, tcfg.T_sMPC,
                              "instance_period/T_sMPC")):
        ratio = big / small
        if abs(ratio - round(ratio)) > 1e-9:
            raise ScenarioError(f"{name} must divide evenly (got {ratio})")
    return scn


def load(file) -> Scenario:
    path = Path(file)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError:
            data = yaml.safe_load(text)
    return from_dict(data)
