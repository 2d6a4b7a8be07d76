"""Motion controller: single-track dynamics, the configuration hierarchy
against the planner, and the per-tick NMPC solve."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import tvapf
from tvapf import tracker
from tvapf.dynamics import rollout
from tvapf import planner
from tvapf.planner import PlannerConfig
from tvapf.potentials import ConfigError
from tvapf.tracker import (A_MAX, DELTA_A_MAX, DELTA_MAX, MAX_ITER,
                           Infeasible, TrackerConfig, VehicleState, _f,
                           _NmpcProgram, bicycle_step, check_hierarchy,
                           max_braking_input, solve_nmpc)


@pytest.fixture(scope="module")
def cfg():
    return TrackerConfig()


def _lane_change_tick(cfg):
    """(chi0, reference, u_prev) of a tick whose reference bends: the single
    track's own rollout from 8 m/s under 0.3 m/s^2 and a steering-rate wave,
    the window of a lane change, with the ego 0.15 m off it and slower."""
    k = np.arange(cfg.N_P)
    U = np.stack([np.full(cfg.N_P, 0.3),
                  0.02 * np.sin(2 * np.pi * k / cfg.N_P)], axis=1)
    ref = rollout(partial(_f, cfg.wheelbase), [0.0, 0.0, 0.0, 8.0, 0.0],
                  U.tolist(), cfg.T_sMPC)[0]
    return VehicleState(0.0, 0.15, 0.0, 7.9, 0.0), ref, np.array([0.3, 0.0])


def _straight_ref(cfg, v=8.0, a=0.0):
    """Constant-acceleration straight-line reference from the origin."""
    t = cfg.T_sMPC * np.arange(cfg.N_P + 1)
    vr = v + a * t
    x = v * t + 0.5 * a * t ** 2
    zeros = np.zeros(cfg.N_P + 1)
    return np.stack([x, zeros, zeros, vr, zeros], axis=1)


def _predicted(chi0, sol, cfg):
    """The states the solution's inputs drive the model through from chi0."""
    states = [chi0]
    for u in sol.inputs:
        states.append(bicycle_step(states[-1], u, cfg.T_sMPC, cfg.wheelbase))
    return states


# -- dynamics ----------------------------------------------------------------


def test_bicycle_step_straight():
    out = bicycle_step(VehicleState(0, 0, 0, 10.0, 0.0), (0.0, 0.0), 0.2,
                       2.7)
    assert out == VehicleState(x=2.0, y=0.0, theta=0.0, v=10.0, delta=0.0)


def test_bicycle_step_constant_steering_arc():
    chi = VehicleState(0, 0, 0, 5.0, 0.2)
    out = bicycle_step(chi, (0.0, 0.0), 0.2, 2.7)
    # constant steering at constant speed turns at v tan(delta) / L
    assert out.theta == pytest.approx(5.0 * math.tan(0.2) / 2.7 * 0.2,
                                      rel=1e-9)
    assert out.v == 5.0 and out.delta == 0.2


def test_bicycle_step_standstill():
    chi = VehicleState(1.0, 2.0, 0.3, 0.0, 0.1)
    out = bicycle_step(chi, (0.0, 0.0), 0.2, 2.7)
    assert out == chi  # nothing moves at zero speed and zero input


def test_bicycle_step_validation():
    with pytest.raises(ValueError):
        bicycle_step(VehicleState(0, 0, 0, 1, 0), (0, 0), 0.0, 2.7)


# -- configuration -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        TrackerConfig(T_sMPC=0.0)
    with pytest.raises(ConfigError):
        TrackerConfig(Q=(1, 1, 1, -1, 1))
    with pytest.raises(ConfigError):
        TrackerConfig(R=(0.0, 0.05))  # the Gauss-Newton Hessian needs R > 0
    with pytest.raises(ConfigError):
        TrackerConfig(rho=0.0)


def test_hierarchy_default_configs_compatible(cfg):
    check_hierarchy(cfg, PlannerConfig())  # must not raise


def test_limit_constants_nest():
    """The relations among the fixed limits that no scenario can break:
    non-empty boxes, the tracker's authority strictly inside the planner's
    and covering its margin-reduced box, and a positive error contract."""
    assert 0.0 <= planner.V_MIN < planner.V_MAX
    assert 0.0 < planner.PSI_MAX < math.pi / 2
    assert 0.0 <= planner.ALPHA_MARGIN < planner.ALPHA_MAX
    assert 0.0 <= planner.OMEGA_MARGIN < planner.OMEGA_MAX
    assert tracker.A_MIN < 0.0 < tracker.A_MAX and tracker.W_DELTA_MAX > 0.0
    assert tracker.A_MAX < planner.ALPHA_MAX
    assert planner.ALPHA_MAX - planner.ALPHA_MARGIN <= tracker.A_MAX
    assert 0.0 < tracker.YAW_RATE_MAX < planner.OMEGA_MAX
    assert tracker.DELTA_MAX > 0.0
    assert min(tracker.E_POS, tracker.E_THETA, tracker.E_V) > 0.0


@pytest.mark.parametrize("override", [
    ("planner", {"alpha_min": -0.8}),  # planner decel inside tracker's
    ("planner", {"alpha_min": -1.0}),  # cannot cover the margin-reduced box
    ("planner", {"T_sL": 0.25}),       # cannot follow planner acceleration
    ("tracker", {"N_P": 200}),         # windows run past the plan
    ("tracker", {"T_sMPC": 0.3}),      # input-rate authority per tick too low
    ("planner", {"N_L": 12}),          # plan ends before the next windows do
])
def test_hierarchy_violations(cfg, override):
    which, changes = override
    tcfg = dataclasses.replace(cfg, **changes) if which == "tracker" else cfg
    pcfg = PlannerConfig(**changes) if which == "planner" else PlannerConfig()
    with pytest.raises(ConfigError):
        check_hierarchy(tcfg, pcfg)


def test_max_braking_input():
    assert np.allclose(max_braking_input(None), [-0.17, 0.0])
    assert np.allclose(max_braking_input([-0.5, 0.1]), [-0.67, 0.0])
    # already near full braking: clipped at the input bound
    assert np.allclose(max_braking_input([-0.8, 0.0]), [-0.85, 0.0])


# -- NMPC solve --------------------------------------------------------------


def test_perfect_reference_needs_no_input(cfg):
    chi0 = VehicleState(0.0, 0.0, 0.0, 8.0, 0.0)
    ref = _straight_ref(cfg)
    sol = solve_nmpc(chi0, ref, cfg)
    assert sol.stats["status"] == "optimal"
    assert np.abs(sol.inputs).max() == pytest.approx(0.0, abs=1e-10)
    assert sol.sigma == pytest.approx(0.0, abs=1e-10)
    # its inputs drive the model along the reference
    np.testing.assert_allclose(
        [x.as_array() for x in _predicted(chi0, sol, cfg)], ref, atol=1e-8)


def test_lateral_offset_decays(cfg):
    chi0 = VehicleState(0.0, 0.3, 0.0, 8.0, 0.0)
    sol = solve_nmpc(chi0, _straight_ref(cfg), cfg, u_prev=np.zeros(2))
    assert sol.stats["status"] == "optimal"
    predicted = _predicted(chi0, sol, cfg)
    ys = [x.y for x in predicted]
    # steers back toward the reference over the first half of the horizon
    assert ys[5] < 0.6 * ys[0]
    assert abs(ys[-1]) < 0.05
    # steering limits are honored along the prediction
    assert all(abs(x.delta) <= DELTA_MAX + 1e-9 for x in predicted)


def test_accelerating_reference_saturates_input(cfg):
    # a 1 m/s^2 speed ramp exceeds the 0.85 m/s^2 authority
    chi0 = VehicleState(0.0, 0.0, 0.0, 8.0, 0.0)
    sol = solve_nmpc(chi0, _straight_ref(cfg, a=1.0), cfg)
    assert sol.u0[0] == pytest.approx(A_MAX, abs=1e-9)
    assert sol.sigma > 0.0  # terminal error absorbed by the slack


def test_infeasible_from_standstill_input(cfg):
    # with the previous input pinned at zero, the rate limit caps the first
    # tick at 0.17 m/s^2; the 1 m/s^2 ramp then breaks the error contract
    chi0 = VehicleState(0.0, 0.0, 0.0, 8.0, 0.0)
    with pytest.raises(Infeasible):
        solve_nmpc(chi0, _straight_ref(cfg, a=1.0), cfg, u_prev=np.zeros(2))


def test_rate_limit_respected_on_mild_ramp(cfg):
    chi0 = VehicleState(0.0, 0.0, 0.0, 8.0, 0.0)
    sol = solve_nmpc(chi0, _straight_ref(cfg, a=0.5), cfg,
                     u_prev=np.zeros(2))
    assert sol.stats["status"] == "optimal"
    # first input exactly at the per-tick rate bound from u_prev = 0
    assert sol.u0[0] == pytest.approx(DELTA_A_MAX, abs=1e-9)
    seq = np.vstack([[0.0, 0.0], sol.inputs])
    rates = np.abs(np.diff(seq[:, 0]))
    assert rates.max() <= DELTA_A_MAX + 1e-9
    assert sol.sigma < 1e-3


def test_reference_shape_validated(cfg):
    with pytest.raises(ValueError):
        solve_nmpc(VehicleState(0, 0, 0, 8, 0), np.zeros((5, 5)), cfg)


def test_solution_determinism(cfg):
    chi0 = VehicleState(0.0, 0.25, 0.02, 8.0, 0.0)
    a = solve_nmpc(chi0, _straight_ref(cfg), cfg, u_prev=np.zeros(2))
    b = solve_nmpc(chi0, _straight_ref(cfg), cfg, u_prev=np.zeros(2))
    assert np.array_equal(a.inputs, b.inputs)
    assert a.sigma == b.sigma


def _plain_slsqp(prog):
    """SLSQP on the program's own variables from z = 0, its quasi-Newton
    matrix started at the identity: the reference for the preconditioned
    solve."""
    lb, ub = prog.bounds()
    with warnings.catch_warnings():
        # SLSQP probes slightly outside the variable bounds and clips back
        warnings.simplefilter("ignore", RuntimeWarning)
        return scipy.optimize.minimize(
            prog.objective, np.zeros(prog.n), jac=prog.gradient,
            method="SLSQP",
            bounds=list(zip(lb, ub)),
            constraints=[{"type": "ineq",
                          "fun": lambda z: -prog.ineq_constraints(z),
                          "jac": lambda z: -prog.ineq_jacobian(z)}],
            options={"maxiter": MAX_ITER, "ftol": 1e-9})


def test_preconditioned_solve_matches_plain_slsqp_in_fewer_iterations(cfg):
    chi0, ref, u_prev = _lane_change_tick(cfg)
    sol = solve_nmpc(chi0, ref, cfg, u_prev=u_prev)
    prog = _NmpcProgram(chi0.as_array(), ref, cfg, u_prev)
    plain = _plain_slsqp(prog)
    assert plain.success
    assert np.max(prog.ineq_constraints(plain.x)) <= 1e-6
    assert sol.stats["status"] == "optimal"
    assert np.abs(sol.u0 - plain.x[:2]).max() <= 1e-5
    assert sol.stats["iterations"] < plain.nit


def test_one_sensitivity_pass_per_derivative_point(cfg, monkeypatch):
    """Over one tick the step Jacobians are built once per distinct point
    at which a derivative is asked for: SLSQP's gradient and constraint
    Jacobian, and the Gauss-Newton Hessian of the preconditioner."""
    points, calls = set(), []
    jacobians = tracker.rk4_jacobians

    def counted(*args):
        calls.append(1)
        return jacobians(*args)

    monkeypatch.setattr(tracker, "rk4_jacobians", counted)
    for name in ("gradient", "ineq_jacobian", "gauss_newton"):
        def asked(self, z, fn=getattr(_NmpcProgram, name)):
            points.add(np.asarray(z, dtype=float).tobytes())
            return fn(self, z)
        monkeypatch.setattr(_NmpcProgram, name, asked)
    chi0, ref, u_prev = _lane_change_tick(cfg)
    sol = solve_nmpc(chi0, ref, cfg, u_prev=u_prev)
    assert sol.stats["iterations"] > 1
    assert len(calls) == len(points)


def test_gauss_newton_hessian_matches_central_differences(cfg):
    chi0, ref, u_prev = _lane_change_tick(cfg)
    prog = _NmpcProgram(chi0.as_array(), ref, cfg, u_prev)
    z = np.append(np.tile([0.2, 0.01], cfg.N_P), 0.3)

    def residuals(w):
        return (np.sqrt(prog.Q) * prog._forward(w)[3][1:]).ravel()

    h = 1e-6
    Jr = np.column_stack([
        (residuals(z + h * e) - residuals(z - h * e)) / (2.0 * h)
        for e in np.eye(prog.n)])
    expected = 2.0 * Jr.T @ Jr + np.diag(
        2.0 * np.append(np.tile(prog.R, cfg.N_P), cfg.rho))
    assert np.allclose(prog.gauss_newton(z), expected, rtol=1e-6, atol=1e-6)


_CAPTURE_START = """
import hashlib, sys
import numpy as np, scipy.optimize
sys.path.insert(0, {tests!r})
from test_tracker import _lane_change_tick
from tvapf.tracker import TrackerConfig, solve_nmpc

minimize = scipy.optimize.minimize
seen = []


def capture(fun, y0, jac, constraints, **kwargs):
    # y0 = L^T z0 carries the factor, the box rows of the Jacobian carry M
    seen.append(y0.tobytes() + constraints[0]["jac"](y0).tobytes())
    return minimize(fun, y0, jac=jac, constraints=constraints, **kwargs)


scipy.optimize.minimize = capture
cfg = TrackerConfig()
chi0, ref, u_prev = _lane_change_tick(cfg)
solve_nmpc(chi0, ref, cfg, u_prev=u_prev, u_guess=np.full((cfg.N_P, 2), 0.1))
print(hashlib.sha256(seen[0]).hexdigest())
"""


def _start_digest(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads), MKL_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(tvapf.__file__).parents[1]))
    code = _CAPTURE_START.format(tests=str(Path(__file__).parent))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_preconditioner_does_not_depend_on_the_blas_thread_count():
    # the factor L and M = L^-T of one tick, as SLSQP receives them, have
    # the same bytes on 1 and 2 BLAS threads
    assert _start_digest(1) == _start_digest(2)
