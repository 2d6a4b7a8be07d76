"""Scenario schema: parsing, validation and serialization.

A scenario file (JSON or YAML) fully determines a closed-loop run: road
geometry, ego start and desired speed, scripted actors with uncertainty
bounds, field/weight parameters, planner/tracker configuration and the
simulation grid.  ``SCHEMA`` lists every key a section accepts and ``ACTOR``
every key an actor accepts; ``from_dict`` alone checks a scenario, refusing
unknown or missing keys, values of the wrong kind, non-finite numbers and
failed start-up checks with path-qualified diagnostics.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .geometry import ReferencePath, cartesian_to_frenet, straight_path
from .planner import V_MAX, PlannerConfig, check_road
from .potentials import PotentialConfig, verify_lane_centering
from .prediction import ObstacleState, TvapfParams
from .tracker import TrackerConfig, VehicleState, check_hierarchy


class ScenarioError(Exception):
    """The scenario file is malformed or violates an invariant."""


# the other actors' acceleration bound; every speed lies in [0, V_MAX]
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
    # Each config takes the section entries named like its fields.

    def build_path(self) -> ReferencePath:
        make = ReferencePath if "points" in self.path else straight_path
        return make(**_pick(self.path, make))

    def planner_config(self) -> PlannerConfig:
        terminal = self.planner.get("terminal", {})
        return PlannerConfig(**_pick({**self.planner, **terminal,
                                      **self.weights}, PlannerConfig))

    def tracker_config(self) -> TrackerConfig:
        kw = _pick(self.tracker, TrackerConfig)
        kw.update((key, tuple(kw[key])) for key in ("Q", "R") if key in kw)
        return TrackerConfig(**kw)

    def potential_config(self) -> PotentialConfig:
        return PotentialConfig(**_pick({**self.ego, **self.weights,
                                        **self.tvapf}, PotentialConfig))

    def tvapf_params(self) -> TvapfParams:
        kw = _pick(self.tvapf, TvapfParams)
        if "lane_width" in self.path:
            kw["l_W"] = self.path["lane_width"]
        return TvapfParams(**kw)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        data = {name: dict(getattr(self, name)) for name in SCHEMA}
        data["actors"] = [
            {"id": a.id, "s0": a.s0, "d0": a.d0, "v0": a.v0,
             "v_bounds": list(a.v_bounds), "a_bounds": list(a.a_bounds),
             "direction": a.direction,
             "script": [{"t": t, "target_v": v} for t, v in a.script]}
            for a in self.actors]
        return data

    def save(self, file) -> None:
        path = Path(file)
        data = self.to_dict()
        if path.suffix in (".yaml", ".yml"):
            path.write_text(yaml.safe_dump(data, sort_keys=False))
        else:
            path.write_text(json.dumps(data, indent=2) + "\n")


@dataclass(frozen=True)
class Key:
    """The values one scenario key accepts: a finite "number" or "int" in
    [lo, hi], a list of ``size`` "numbers" in [lo, hi], a "number or list",
    a "string" or a list of "points".  Only ``sim`` keys have a ``default``;
    the others take their config field's default.  A ``required`` key must
    be given."""

    kind: str = "number"
    lo: float = -math.inf
    hi: float = math.inf
    size: int | None = None
    default: float | None = None
    required: bool = False

    def check(self, value, where) -> None:
        kind = self.kind
        if kind == "number or list":
            kind = "numbers" if isinstance(value, (list, tuple)) else "number"
        if kind == "points":
            _require_type(value, where)  # ReferencePath checks the entries
        elif kind == "string":
            _require_type(value, where, str)
        elif kind == "numbers":
            for i, v in enumerate(_require_type(value, where, size=self.size)):
                _require_number(v, f"{where}[{i}]", self.lo, self.hi)
        else:
            _require_number(value, where, self.lo, self.hi)
            if kind == "int" and not isinstance(value, int):
                raise ScenarioError(f"{where}: expected an integer, got "
                                    f"{value!r}")


_NUMBER = Key()
_INT = Key("int")
_SPEED = Key(lo=0.0, hi=V_MAX)
# > 0: the smallest positive float
_POSITIVE = Key(lo=math.ulp(0.0))

# Every key each section accepts; a nested mapping is a nested section.  A
# key feeds the field of the same name: path -> straight_path/ReferencePath,
# planner, its terminal section and weights.K_o -> PlannerConfig, tracker ->
# TrackerConfig, the other weights, tvapf.eta/a_l_max and ego.v_des ->
# PotentialConfig, tvapf -> TvapfParams (l_W is path.lane_width), sim -> run.
SCHEMA = {
    "path": {"points": Key("points"), "length": _POSITIVE,
             "spacing": _POSITIVE,
             "lane_count": _INT, "lane_width": _NUMBER,
             "speed_limit": Key("number or list")},
    "ego": {"x0": _NUMBER, "y0": _NUMBER, "theta0": _NUMBER, "v0": _SPEED,
            "v_des": _SPEED},
    "tvapf": {"sigma_s": _NUMBER, "sigma_d": _NUMBER, "c": _INT,
              "edge_value": _NUMBER, "epsilon_o": _NUMBER, "eta": _NUMBER,
              "a_l_max": _NUMBER},
    "weights": dict.fromkeys(("K_v", "K_b", "K_l", "K_c", "K_o"), _NUMBER),
    "planner": {"T_sL": _NUMBER, "N_L": _INT, "instance_period": _NUMBER,
                "terminal": dict.fromkeys(("tau", "j_max", "alpha_min",
                                           "nu_ter", "eps_d", "eps_psi"),
                                          _NUMBER)},
    "tracker": {"T_sMPC": _NUMBER, "N_P": _INT, "rho": _NUMBER,
                "wheelbase": _NUMBER, "Q": Key("numbers", lo=0.0, size=5),
                "R": Key("numbers", lo=_POSITIVE.lo, size=2)},
    "sim": {"duration": Key(lo=0.1, default=60.0),
            "plant_step": Key(lo=1e-4, hi=1.0, default=0.02),
            "sensor_range": Key(lo=1.0, default=300.0),
            "collision_margin": Key(lo=0.0, default=2.0)},
}

# Every key an actor accepts ([entry]: a list of entries with entry's keys).
# It feeds ActorSpec, whose defaults fill direction and script; id is A<i>.
_GIVEN = Key(required=True)
_GIVEN_SPEED = Key(lo=0.0, hi=V_MAX, required=True)
ACTOR = {"id": Key("string"), "s0": _GIVEN, "d0": _GIVEN, "v0": _GIVEN_SPEED,
         "v_bounds": Key("numbers", 0.0, V_MAX, 2, required=True),
         "a_bounds": Key("numbers", -GLOBAL_A_MAX, GLOBAL_A_MAX, 2,
                         required=True),
         "direction": _INT, "script": [{"t": Key(lo=0.0, required=True),
                                        "target_v": _GIVEN_SPEED}]}


def _pick(entries, target):
    """The entries named like a parameter of ``target``, a config class or
    a path factory."""
    names = inspect.signature(target).parameters
    return {key: value for key, value in entries.items() if key in names}


def _require_number(value, where, lo=-math.inf, hi=math.inf):
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not abs(value) <= sys.float_info.max:  # nan, inf, huge ints
        raise ScenarioError(f"{where}: expected a finite number, got "
                            f"{value!r}")
    if not lo <= value <= hi:
        raise ScenarioError(f"{where}: {value} outside [{lo}, {hi}]")


def _require_type(value, where, kind=(list, tuple), size=None):
    """value itself, if it is a ``kind`` (with ``size`` entries if given)."""
    if not isinstance(value, kind) or size not in (None, len(value)):
        what = ("a mapping" if kind is dict else "a string" if kind is str
                else "a list" if size is None else f"a list of {size} entries")
        raise ScenarioError(f"{where}: expected {what}, got {value!r}")
    return value


def _section(raw, where, schema, overrides):
    """One section, with ``overrides[where]`` merged in, checked against
    ``schema`` and completed with the schema's defaults; for a schema
    [entry], a list of sections, each checked against ``entry``."""
    if isinstance(schema, list):
        return [_section(item, f"{where}[{i}]", schema[0], overrides)
                for i, item in enumerate(_require_type(raw, where))]
    entries = {**_require_type(raw, where, dict), **overrides.get(where, {})}
    unknown = set(entries) - set(schema)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    for key, spec in schema.items():
        if isinstance(spec, Key) and spec.required and key not in entries:
            raise ScenarioError(f"{where}: missing '{key}'")
    for key, value in entries.items():
        spec, here = schema[key], f"{where}.{key}"
        if isinstance(spec, (dict, list)):
            entries[key] = _section(value, here, spec, overrides)
        else:
            spec.check(value, here)
    return {**{key: spec.default for key, spec in schema.items()
               if isinstance(spec, Key) and spec.default is not None},
            **entries}


def _checked(where, build, *args):
    """build(*args), with any error it raises reported under ``where``."""
    try:
        return build(*args)
    except Exception as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def from_dict(data: dict, overrides: dict | None = None) -> Scenario:
    """The scenario ``data`` describes, checked against ``SCHEMA``,
    ``ACTOR`` and the loop's start-up checks; ``overrides`` maps a section
    name to entries that replace the file's before anything is checked."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario root must be a mapping")
    unknown = set(data) - set(SCHEMA) - {"actors"}
    if unknown:
        raise ScenarioError(f"unknown top-level keys: {sorted(unknown)}")
    for key in ("path", "ego"):
        if key not in data:
            raise ScenarioError(f"missing required section '{key}'")
    sections = {name: _section(data.get(name, {}), name, schema,
                               overrides or {})
                for name, schema in SCHEMA.items()}
    if "points" in sections["path"]:
        for key in ("length", "spacing"):
            if key in sections["path"]:
                raise ScenarioError(f"path.{key}: a straight road's key, "
                                    f"given beside path.points")

    actors = []
    for i, a in enumerate(_section(data.get("actors", []), "actors", [ACTOR],
                                   {})):
        where = f"actors[{i}]"
        script = tuple((float(e["t"]), float(e["target_v"]))
                       for e in a.get("script", ()))
        if any(t1 <= t0 for (t0, _), (t1, _) in zip(script, script[1:])):
            raise ScenarioError(f"{where}.script: times must increase")
        actor_id = a.get("id", f"A{i}")
        if actor_id in {spec.id for spec in actors}:
            raise ScenarioError(f"{where}.id: duplicate actor id {actor_id!r}")
        spec = ActorSpec(
            id=actor_id, direction=a.get("direction", 1), script=script,
            **{key: float(a[key]) for key in ("s0", "d0", "v0")},
            **{key: tuple(map(float, a[key]))
               for key in ("v_bounds", "a_bounds")})
        _checked(where, spec.initial_state)  # bounds and direction
        actors.append(spec)

    scn = Scenario(actors=tuple(actors), **sections)
    path = _checked("path", scn.build_path)
    _checked("ego", initial_ego_state, scn, path)
    pcfg = _checked("planner", scn.planner_config)
    tcfg = _checked("tracker", scn.tracker_config)
    potentials_cfg = _checked("weights/tvapf", scn.potential_config)
    _checked("tvapf", scn.tvapf_params)
    for big, small, name in ((tcfg.T_sMPC, scn.sim["plant_step"],
                              "T_sMPC/plant_step"),
                             (pcfg.instance_period, tcfg.T_sMPC,
                              "instance_period/T_sMPC")):
        ratio = big / small
        if abs(ratio - round(ratio)) > 1e-9:
            raise ScenarioError(f"{name} must divide evenly (got {ratio})")
    if scn.sim["duration"] < scn.sim["plant_step"]:
        raise ScenarioError("sim.duration: shorter than sim.plant_step")
    _checked("planner/tracker", check_hierarchy, tcfg, pcfg)
    _checked("path/planner", check_road, path, pcfg)
    _checked("path/weights/tvapf", verify_lane_centering, path,
             potentials_cfg)
    return scn


def initial_ego_state(scenario: Scenario, path) -> VehicleState:
    """Ego state at t = 0, the heading the road's unless given; raises
    unless the start projects onto the path between the road edges."""
    ego = scenario.ego
    x0 = float(ego.get("x0", 0.0))
    y0 = float(ego.get("y0", path.rightmost_lane_center))
    q0 = cartesian_to_frenet(path, (x0, y0))
    if not path.right_edge_offset <= q0.d <= path.left_edge_offset:
        raise ValueError(f"start {q0.d:.2f} m off the path, beyond the road")
    theta0 = float(ego.get("theta0", path.heading(q0.s)))
    return VehicleState(x=x0, y=y0, theta=theta0,
                        v=float(ego.get("v0", 0.0)), delta=0.0)


def load(file, overrides: dict | None = None) -> Scenario:
    """The scenario in a JSON or YAML file; see ``from_dict``."""
    path = Path(file)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = path.read_text()
        if path.suffix in (".yaml", ".yml"):
            data = yaml.safe_load(text)
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                data = yaml.safe_load(text)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ScenarioError(f"cannot load {path}: {exc}") from exc
    return from_dict(data, overrides)
