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
from tvapf import planner
from tvapf.planner import PlannerConfig
from tvapf.potentials import ConfigError
from tvapf.tracker import (A_MAX, DELTA_A_MAX, DELTA_MAX, MAX_ITER,
                           Infeasible, TrackerConfig, VehicleState,
                           _NmpcProgram, bicycle_step, check_hierarchy,
                           max_braking_input, refused_tick_input, solve_nmpc)

from rk4_chain import (bicycle_f, bicycle_jac, rk4, rk4_jacobians, rollout,
                       rollout_stages)


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
    ref = rollout(partial(bicycle_f, cfg.wheelbase),
                  [0.0, 0.0, 0.0, 8.0, 0.0], U.tolist(), cfg.T_sMPC)
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


def _step_grid(seed, count):
    """Seeded states and inputs across their boxes: headings near +-pi,
    steering up to +-DELTA_MAX, speeds from 0 to V_MAX, and inputs at the
    edges of their box among the draws."""
    rng = np.random.default_rng(seed)
    theta = np.concatenate([rng.uniform(-math.pi, math.pi, count - 4),
                            [math.pi, -math.pi, math.pi - 1e-9,
                             -math.pi + 1e-9]])
    delta = rng.choice([-DELTA_MAX, DELTA_MAX, 0.0, *rng.uniform(
        -DELTA_MAX, DELTA_MAX, 5)], count)
    v = rng.choice([0.0, planner.V_MAX, *rng.uniform(0.0, planner.V_MAX, 5)],
                   count)
    X = np.column_stack([rng.uniform(-500.0, 500.0, count),
                         rng.uniform(-6.0, 6.0, count), theta, v, delta])
    U = np.column_stack([
        rng.choice([tracker.A_MIN, A_MAX, *rng.uniform(-0.85, 0.85, 3)],
                   count),
        rng.choice([-tracker.W_DELTA_MAX, tracker.W_DELTA_MAX,
                    *rng.uniform(-0.4, 0.4, 3)], count)])
    return X, U


def test_closed_form_step_is_rk4_to_the_bit():
    """The tracker's step and the plant's equal the generic RK4 step of the
    vector field ``bicycle_f`` bit for bit, at the tracker's and the plant's
    step sizes and another wheelbase."""
    X, U = _step_grid(7, 400)
    for L, h in ((2.7, 0.2), (2.7, 0.02), (3.1, 0.05)):
        for x, u in zip(X.tolist(), U.tolist()):
            want = rk4(partial(bicycle_f, L), x, u, h)[0]
            assert tracker._step(L, x, u, h)[0] == want
            assert bicycle_step(VehicleState(*x), u, h, L) == \
                VehicleState(*want)


def _chained_sensitivities(L, chi0, U, h):
    """S (M + 1, 5, 2 M) by the dense chain rule through the RK4 stages,
    step by step: S[k + 1] = Fx[k] S[k] + Fu[k] on step k's inputs."""
    _, Y = rollout_stages(partial(bicycle_f, L), chi0, U.tolist(), h)
    Fx, Fu = rk4_jacobians(partial(bicycle_jac, L), Y, U, h)
    M = len(U)
    S = np.zeros((M + 1, 5, 2 * M))
    for k in range(M):
        S[k + 1] = Fx[k] @ S[k]
        S[k + 1, :, 2 * k:2 * k + 2] += Fu[k]
    return S


def test_sensitivities_match_the_rk4_chain(cfg):
    """The closed-form dX/du is the chain rule's up to rounding: every
    entry within 1e-13 of the chain's, relative to the largest entry of its
    state row, and the chain's structural zeros are exact."""
    X, U = _step_grid(8, 40 * cfg.N_P)
    for k in range(40):
        steps = U[k * cfg.N_P:(k + 1) * cfg.N_P]
        prog = _NmpcProgram(X[k], np.zeros((cfg.N_P + 1, 5)), cfg, None)
        got = prog._sensitivities(np.append(steps.ravel(), 0.0))
        want = _chained_sensitivities(cfg.wheelbase, X[k], steps, cfg.T_sMPC)
        scale = np.abs(want).max(axis=2, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        assert not got[want == 0.0].any()


def test_sensitivities_match_central_differences(cfg):
    chi0, ref, u_prev = _lane_change_tick(cfg)
    prog = _NmpcProgram(chi0.as_array(), ref, cfg, u_prev)
    z = np.append(np.tile([0.2, 0.01], cfg.N_P), 0.3)
    S = prog._sensitivities(z)

    def states(w):
        return prog._forward(w)[1]

    h = 1e-6
    for i, e in enumerate(np.eye(prog.n)[:-1]):
        fd = (states(z + h * e) - states(z - h * e)) / (2.0 * h)
        assert np.allclose(S[:, :, i], fd, rtol=1e-6, atol=1e-7)


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


_GUESS = np.array([[0.3, 0.01], [0.5, 0.02], [0.7, 0.03]])


@pytest.mark.parametrize("a_next", [0.3, 0.0, 1.0, -1.0])
def test_refused_tick_inside_the_box_holds_the_rate_limited_guess(a_next):
    # errors on the contract box's edges count as inside it
    err = np.array([tracker.E_POS, -tracker.E_POS, 5.0, tracker.E_V])
    u_prev = np.array([0.2, 0.0])
    guess = _GUESS.copy()
    guess[0, 0] = a_next
    u, nxt = refused_tick_input(err, u_prev, guess)
    assert u[0] == min(max(a_next, 0.2 - DELTA_A_MAX), 0.2 + DELTA_A_MAX)
    assert u[1] == guess[0, 1]
    # the guess shifts by one tick, its last input repeated
    assert nxt.tolist() == [guess[1].tolist(), guess[2].tolist(),
                            guess[2].tolist()]
    assert guess[0, 0] == a_next  # the caller's guess is left alone


@pytest.mark.parametrize("err", [[0.51, 0.0, 0.0, 0.0], [0.0, -0.51, 0.0, 0.0],
                                 [0.0, 0.0, 0.0, -1.01]])
def test_refused_tick_outside_the_box_brakes_and_drops_the_guess(err):
    u_prev = np.array([-0.5, 0.1])
    u, nxt = refused_tick_input(np.array(err), u_prev, _GUESS)
    assert u.tolist() == max_braking_input(u_prev).tolist()
    assert nxt is None


@pytest.mark.parametrize("u_prev", [None, np.array([0.4, 0.0])])
def test_refused_tick_without_a_guess_brakes(u_prev):
    u, nxt = refused_tick_input(np.zeros(4), u_prev, None)
    assert u.tolist() == max_braking_input(u_prev).tolist()
    assert nxt is None


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
    """Over one tick the forward pass runs once per distinct point at which
    a value is asked for, the constraint values once per distinct point,
    and the sensitivity pass once per distinct point at which a derivative
    is asked for: SLSQP's gradient and constraint Jacobian, and the
    Gauss-Newton Hessian of the preconditioner.  That
    Hessian is built at SLSQP's first point, so the first point costs no
    second pass.  Points are keyed by value, since z0 + M 0 turns the warm
    start's -0.0 into +0.0."""
    asked, calls = [], {"_rollout": 0, "_dxdu": 0}
    for name in calls:
        def counted(*args, fn=getattr(tracker, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(tracker, name, counted)
    derivatives = ("gradient", "ineq_jacobian", "gauss_newton")
    for name in derivatives + ("objective", "ineq_constraints"):
        def hooked(self, z, fn=getattr(_NmpcProgram, name), name=name):
            asked.append((name, tuple(np.asarray(z, dtype=float).tolist())))
            return fn(self, z)
        monkeypatch.setattr(_NmpcProgram, name, hooked)
    chi0, ref, u_prev = _lane_change_tick(cfg)
    # a cold tick, then a warm start like the closed loop's shifted plan
    # with its steering at -0.0
    warm = np.stack([np.full(cfg.N_P, 0.3), np.full(cfg.N_P, -0.0)], axis=1)
    for u_guess in (None, warm):
        asked.clear()
        calls.update(_rollout=0, _dxdu=0)
        sol = solve_nmpc(chi0, ref, cfg, u_prev=u_prev, u_guess=u_guess)
        assert sol.stats["iterations"] > 1
        assert asked[0][0] == "gauss_newton" and asked[1][1] == asked[0][1]
        assert calls["_rollout"] == len({z for _, z in asked})
        assert calls["_dxdu"] == len({z for name, z in asked
                                      if name in derivatives})
        # the constraint values run once per distinct point as well
        values = [z for name, z in asked if name == "ineq_constraints"]
        assert len(values) == len(set(values))


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
    # SLSQP starts at y0 = 0; the constraint Jacobian there carries M, in
    # its box rows and in the chained rows -dh/dz M
    seen.append(constraints[0]["jac"](y0).tobytes())
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
    # M = L^-T of one tick, L the factor of its Gauss-Newton Hessian, as
    # SLSQP receives it in the constraint Jacobian, has the same bytes on 1
    # and 2 BLAS threads
    assert _start_digest(1) == _start_digest(2)
