"""Trajectory planner: dynamics discretization, terminal safe-stop set,
the finite-horizon program, the braking fallback, and maneuver labeling."""

import dataclasses
import math
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tvapf import planner, tracker
from tvapf.geometry import straight_path
from tvapf.planner import (ControlInput, Decision, EgoModelState,
                           EmptyTerminalSet, PlannerConfig, TerminalBox,
                           _LtpProgram, braking_distance, check_road,
                           decision_label, safe_stop_trajectory, solve_ltp,
                           state_box)
from tvapf.potentials import PotentialConfig
from tvapf.prediction import (ObstacleField, ObstacleState, TvapfParams,
                              UncertainForecast, propagate_obstacle)
from tvapf.solver import CALLBACKS

from rk4_chain import (bicycle_f, bicycle_jac, point_mass_f, rk4,
                       rk4_jacobians, rollout, rollout_stages)


@pytest.fixture(scope="module")
def path():
    return straight_path()


@pytest.fixture(scope="module")
def cfg():
    return PlannerConfig()


@pytest.fixture(scope="module")
def pot():
    return PotentialConfig()


@pytest.fixture(scope="module")
def tv():
    return TvapfParams()


def _forecasts(obstacles, cfg):
    return [propagate_obstacle(o, cfg.T_sL, cfg.N_L) for o in obstacles]


def _flat_forecast(s_min, s_max, d_o, steps=70):
    n = steps + 1
    return UncertainForecast(s_min=np.full(n, float(s_min)),
                             s_max=np.full(n, float(s_max)),
                             s_center=np.full(n, 0.5 * (s_min + s_max)),
                             delta_s=np.full(n, float(s_max - s_min)),
                             d_o=float(d_o))


# -- config and dynamics ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(T_sL=0.0)
    with pytest.raises(ValueError):
        PlannerConfig(instance_period=0.7)  # not a multiple of T_sL
    with pytest.raises(ValueError):
        PlannerConfig(alpha_min=0.1)
    with pytest.raises(ValueError):
        PlannerConfig(nu_ter=0.0)


def test_discretize_constant_acceleration():
    # with psi = 0 the model is exactly double-integrator longitudinally
    s, d, psi, nu = planner._step(np.array([0.0, 0.0, 0.0, 5.0]),
                                  np.array([1.0, 0.0]), 0.5)[0]
    assert s == pytest.approx(5.0 * 0.5 + 0.5 * 1.0 * 0.25, abs=1e-12)
    assert nu == pytest.approx(5.5, abs=1e-12)
    assert d == 0.0 and psi == 0.0


def test_discretize_matches_fine_integration():
    # one coarse RK4 step vs 1000 fine steps of the same vector field
    x, u = np.array([10.0, -1.0, 0.2, 6.0]), np.array([0.4, 0.05])
    coarse = planner._step(x, u, 0.5)[0]
    fine = x
    for _ in range(1000):
        fine = planner._step(fine, u, 0.5 / 1000)[0]
    assert np.allclose(coarse, fine, atol=1e-8)


def _rk4_reference(f, dfdx, B, x, u, h):
    """One RK4 step of a single state with its Jacobians, stage by stage,
    by the chain rule through the four stages; f(y, u) is the vector field,
    dfdx(y) its state Jacobian and B its constant input Jacobian."""
    I = np.eye(len(x))
    k, dkx, dku = [f(x, u)], [dfdx(x)], [B]
    for c in (0.5 * h, 0.5 * h, h):
        y = x + c * k[-1]
        k.append(f(y, u))
        dkx.append(dfdx(y) @ (I + c * dkx[-1]))
        dku.append(dfdx(y) @ (c * dku[-1]) + B)
    return (x + (h / 6.0) * (k[0] + 2.0 * k[1] + 2.0 * k[2] + k[3]),
            I + (h / 6.0) * (dkx[0] + 2.0 * dkx[1] + 2.0 * dkx[2] + dkx[3]),
            (h / 6.0) * (dku[0] + 2.0 * dku[1] + 2.0 * dku[2] + dku[3]))


def _point_mass_reference():
    def f(y, u):
        return np.array([y[3] * math.cos(y[2]), y[3] * math.sin(y[2]),
                         u[1], u[0]])

    def dfdx(y):
        A = np.zeros((4, 4))
        A[0, 2], A[0, 3] = -y[3] * math.sin(y[2]), math.cos(y[2])
        A[1, 2], A[1, 3] = y[3] * math.cos(y[2]), math.sin(y[2])
        return A

    B = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return f, dfdx, B


def _point_mass_jac(Y, U):
    """df/dx and df/du of the point mass at every state of Y (..., 4), the
    dense pair that ``rk4_jacobians`` chains through the stages."""
    psi, nu = Y[..., 2], Y[..., 3]
    cos, sin = np.cos(psi), np.sin(psi)
    A = np.zeros(Y.shape + (4,))
    A[..., 0, 2] = -nu * sin
    A[..., 0, 3] = cos
    A[..., 1, 2] = nu * cos
    A[..., 1, 3] = sin
    B = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    return A, np.broadcast_to(B, Y.shape[:-1] + B.shape)


def _bicycle_reference(L=2.7):
    def f(y, u):
        return np.array([y[3] * math.cos(y[2]), y[3] * math.sin(y[2]),
                         y[3] * math.tan(y[4]) / L, u[0], u[1]])

    def dfdx(y):
        A = np.zeros((5, 5))
        A[0, 2], A[0, 3] = -y[3] * math.sin(y[2]), math.cos(y[2])
        A[1, 2], A[1, 3] = y[3] * math.cos(y[2]), math.sin(y[2])
        A[2, 3] = math.tan(y[4]) / L
        A[2, 4] = y[3] / (L * math.cos(y[4]) ** 2)
        return A

    B = np.zeros((5, 2))
    B[3, 0] = B[4, 1] = 1.0
    return f, dfdx, B


def _pointwise(f):
    """f evaluated state by state on components that are arrays over a
    batch: the tracker's vector field takes floats only."""
    def batched(x, u):
        out = (f(xi, ui) for xi, ui in zip(zip(*(c.tolist() for c in x)),
                                           zip(*(c.tolist() for c in u))))
        return tuple(np.array(c) for c in zip(*out))
    return batched


def _point_mass_rollout(x0, U, h):
    """States (M + 1, 4) from x0 under the M inputs of U, one
    ``planner._step`` of one state per input, as the safe stop steps."""
    xs = [np.asarray(x0, dtype=float)]
    for u in U:
        xs.append(planner._step(xs[-1], np.asarray(u, dtype=float), h)[0])
    return np.array(xs)


# f on one state's floats, f on batched components, jac, reference, state
# box, input box and step of each vehicle model, and the rollout of one
# state by the model's own step in src/
_MODELS = {
    "point_mass": (point_mass_f, point_mass_f, _point_mass_jac,
                   _point_mass_reference(),
                   [(0.0, 500.0), (-4.0, 4.0), (-1.2, 1.2), (0.0, 12.5)],
                   [(-0.9, 0.9), (-0.08, 0.08)], 0.5, _point_mass_rollout),
    "bicycle": (partial(bicycle_f, 2.7),
                _pointwise(partial(bicycle_f, 2.7)),
                partial(bicycle_jac, 2.7), _bicycle_reference(2.7),
                [(0.0, 500.0), (-4.0, 4.0), (-math.pi, math.pi),
                 (0.0, 12.5), (-0.43, 0.43)],
                [(-0.85, 0.85), (-0.4, 0.4)], 0.2,
                lambda x0, U, h: tracker._rollout(2.7, x0, U, h)[0]),
}


@pytest.mark.parametrize("name", sorted(_MODELS))
def test_batched_rk4_matches_per_stage_reference(name):
    f, _, jac, ref, x_box, u_box, h, _ = _MODELS[name]
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.uniform(lo, hi, 40) for lo, hi in x_box])
    U = np.column_stack([rng.uniform(lo, hi, 40) for lo, hi in u_box])
    steps = [rk4(f, x, u, h) for x, u in zip(X.tolist(), U.tolist())]
    Fx, Fu = rk4_jacobians(jac, np.stack([s[1] for s in steps], axis=1), U, h)
    if name == "point_mass":  # the planner steps all stages in one call
        np.testing.assert_array_equal(np.transpose(rk4(f, X.T, U.T, h)[0]),
                                      [s[0] for s in steps])
    for i, (x_next, _) in enumerate(steps):
        want = _rk4_reference(*ref, X[i], U[i], h)
        for got, w in zip((x_next, Fx[i], Fu[i]), want):
            np.testing.assert_allclose(got, w, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name", sorted(_MODELS))
@seed(6)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_float_rollout_equals_batched_rk4(name, data):
    # one scheme: stepping each state alone in floats and stepping the
    # stack of states as arrays give the same bits, stage points included,
    # and the model's own rollout of one state gives the reference's bits
    f, f_batch, _, _, x_box, u_box, h, own_rollout = _MODELS[name]
    n_states = data.draw(st.integers(1, 6), label="states")
    n_steps = data.draw(st.integers(1, 4), label="steps")

    def box(bounds, count):
        return np.array([[data.draw(st.floats(lo, hi)) for lo, hi in bounds]
                         for _ in range(count)])

    X0 = box(x_box, n_states)
    U = box(u_box, n_states * n_steps).reshape(n_states, n_steps, -1)
    alone = [rollout_stages(f, x0, u.tolist(), h) for x0, u in zip(X0, U)]
    for x0, u, (X, _) in zip(X0, U, alone):
        assert own_rollout(x0, u.tolist(), h).tobytes() == X.tobytes()
    x = tuple(X0.T)
    for k in range(n_steps):
        x, Y = rk4(f_batch, x, tuple(U[:, k].T), h)
        np.testing.assert_array_equal(np.transpose(x),
                                      [X[k + 1] for X, _ in alone])
        np.testing.assert_array_equal(np.transpose(Y, (2, 0, 1)),
                                      [Ys[:, k] for _, Ys in alone])


def _box_value(data, lo, hi):
    """A float in [lo, hi], its ends and 0 among the likely draws."""
    special = [v for v in (lo, hi, 0.0) if lo <= v <= hi]
    return data.draw(st.one_of(st.sampled_from(special), st.floats(lo, hi)))


@seed(22)
@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_eq_jacobian_is_the_dense_rk4_chain_to_the_bit(path, pot, tv, data):
    """The program's closed-form step Jacobians are, byte for byte, the
    dense chain rule of ``rk4_jacobians`` on the pattern, and the chain is
    zero off it, at stage points from states and inputs drawn across their
    boxes, nu = 0 and psi = +-PSI_MAX among them."""
    cfg = PlannerConfig(N_L=4, instance_period=2.0)
    N, h = cfg.N_L, cfg.T_sL
    # a terminal box as wide as the state box
    box = TerminalBox(s_max=path.length, d_center=0.0, eps_d=path.length,
                      eps_psi=planner.PSI_MAX, nu_max=planner.V_MAX)
    x_box = [(0.0, path.length),
             (path.right_edge_offset + planner.D_MARGIN,
              path.left_edge_offset - planner.D_MARGIN),
             (-planner.PSI_MAX, planner.PSI_MAX),
             (planner.V_MIN, planner.V_MAX)]
    xi0 = EgoModelState(*(_box_value(data, lo, hi) for lo, hi in x_box))
    g_i = np.zeros((N, 2))
    prog = _LtpProgram(xi0, [], path, cfg, pot, tv,
                       rollout(point_mass_f, xi0.as_array(), g_i, h), g_i,
                       box, 0.0)
    z = np.array([_box_value(data, lo, hi)
                  for lo, hi in zip(prog.lb, prog.ub)])

    pattern = prog.layout.eq_pattern
    got = pattern.matrix(prog.eq_jacobian(z))
    X, U = prog._states(z), prog._inputs(z)
    prev = np.vstack([xi0.as_array(), X[:-1]])
    x_next, Y = rk4(point_mass_f, prev.T, U.T, h)
    assert prog.eq_constraints(z).tobytes() == \
        (X - np.transpose(x_next)).ravel().tobytes()
    Fx, Fu = rk4_jacobians(_point_mass_jac, np.transpose(Y, (0, 2, 1)), U, h)
    assert not Fx[:, ~planner._FX_NONZERO].any()
    assert not Fu[:, ~planner._FU_NONZERO].any()
    want = pattern.matrix(np.concatenate([
        np.ones(4 * N), -Fx[1:, planner._FX_NONZERO].ravel(),
        -Fu[:, planner._FU_NONZERO].ravel()]))
    assert prog.to_problem().eq_pattern is pattern
    assert got.data.tobytes() == want.data.tobytes()


def test_programs_of_one_horizon_share_a_frozen_layout(path, cfg, pot, tv):
    """Two programs of one horizon, with other forecasts and another
    alpha_prev, share one read-only layout, so they hand the solver the
    same pattern objects, and their derivative callbacks return 1-D values
    on them; a program without alpha_prev has one rate row pair fewer and
    its own layout."""
    xi0, fcs = _follow_scene(cfg)
    g_i = np.zeros((cfg.N_L, 2))
    g_s = rollout(point_mass_f, xi0.as_array(), g_i, cfg.T_sL)
    box = _seeds(xi0, fcs, path, cfg, pot)["stay"][0]
    a, b, c = (_LtpProgram(xi0, f, path, cfg, pot, tv, g_s, g_i, box, prev)
               for f, prev in ((fcs, 0.0), ([], 0.3), (fcs, None)))
    assert a.layout is b.layout and c.layout is not a.layout
    arrays = [v for v in vars(a.layout).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 7 and not any(v.flags.writeable for v in arrays)
    with pytest.raises(ValueError):
        a.layout.eq_vals[0] = 0.0
    pa, pb = a.to_problem(), b.to_problem()
    y, w = np.zeros(4 * cfg.N_L), np.zeros(3 * cfg.N_L)
    for name, callback, args in (("hess_pattern", "hessian", (y, w)),
                                 ("eq_pattern", "eq_jacobian", ()),
                                 ("ineq_pattern", "ineq_jacobian", ())):
        pattern = getattr(a.layout, name)
        assert getattr(pa, name) is pattern and getattr(pb, name) is pattern
        for p in (a, b):
            vals = getattr(p, callback)(p.z0, *args)
            assert vals.ndim == 1
            pattern.merge(vals)  # raises unless one value per entry
    assert len(c.ineq_constraints(c.z0)) == len(a.ineq_constraints(a.z0)) - 2


@seed(24)
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_closed_form_step_is_rk4_to_the_bit(data):
    """``planner._step`` is ``rk4(point_mass_f, ...)`` byte for byte: the
    next state, and the psi and nu of the three distinct stage points with
    their cos and sin, at states and inputs drawn across their boxes, nu = 0
    and psi = +-PSI_MAX among them, on M states and on each one alone."""
    h = PlannerConfig().T_sL
    x_box = [(0.0, 500.0), (-4.0, 4.0), (-planner.PSI_MAX, planner.PSI_MAX),
             (planner.V_MIN, planner.V_MAX)]
    u_box = [(PlannerConfig().alpha_min, planner.ALPHA_MAX),
             (-planner.OMEGA_MAX, planner.OMEGA_MAX)]
    m = data.draw(st.integers(1, 5), label="states")
    x, u = (np.array([[_box_value(data, lo, hi) for _ in range(m)]
                      for lo, hi in box]) for box in (x_box, u_box))
    x_next, stages = planner._step(x, u, h)
    want, Y = rk4(point_mass_f, x, u, h)
    assert x_next.tobytes() == np.array(want).tobytes()
    for i in range(m):  # one state of shape (4,) steps the same
        one, one_stages = planner._step(x[:, i], u[:, i], h)
        assert one.tobytes() == x_next[:, i].tobytes()
        assert one_stages.tobytes() == stages[..., i].tobytes()
    # stage 3 evaluates f at stage 2's (psi, nu)
    assert np.array(Y[2][2:]).tobytes() == np.array(Y[1][2:]).tobytes()
    for got, y in zip(stages, (Y[0], Y[1], Y[3])):
        psi, nu = y[2], y[3]
        assert got.tobytes() == np.array(
            [psi, nu, np.cos(psi), np.sin(psi)]).tobytes()


# -- braking distance and terminal set ---------------------------------------


def test_braking_distance():
    # reaction + jerk ramp-in + constant deceleration phases
    assert braking_distance(5.0, 0.5, -0.9, 0.9) == \
        pytest.approx(5.0 * (0.5 + 1.0 + 5.0 / 1.8), abs=1e-12)
    assert braking_distance(5.0, 0.5, -0.9, 0.9) == \
        pytest.approx(21.38888888888889)
    assert braking_distance(0.0, 0.5, -0.9, 0.9) == 0.0
    # superlinear in speed: doubling the speed more than doubles the distance
    assert braking_distance(10.0, 0.5, -0.9, 0.9) > \
        2.0 * braking_distance(5.0, 0.5, -0.9, 0.9)
    with pytest.raises(ValueError):
        braking_distance(5.0, 0.5, 0.0, 0.9)
    with pytest.raises(ValueError):
        braking_distance(5.0, 0.5, -0.9, 0.0)


def _stay_box(fcs, cfg, path, xi0):
    """The ``stay`` candidate's terminal box, None when it is not posed."""
    stay = _seeds(xi0, fcs, path, cfg, PotentialConfig()).get("stay")
    return None if stay is None else stay[0]


def test_terminal_set_no_obstacle(path, cfg):
    box = _stay_box([], cfg, path, EgoModelState(20.0, -2.0, 0.0, 8.33))
    assert box.s_max == path.length
    assert box.d_center == path.rightmost_lane_center
    assert box.nu_max == cfg.nu_ter
    assert (box.eps_d, box.eps_psi) == (cfg.eps_d, cfg.eps_psi)


def test_terminal_set_behind_leader_reachable_set(path, cfg):
    # anchor = lower edge of the end-of-horizon reachable set minus the
    # stopping distance: 480 - 21.389 = 458.611
    fc = _flat_forecast(480.0, 520.0, d_o=-2.0, steps=cfg.N_L)
    box = _stay_box([fc], cfg, path, EgoModelState(300.0, -2.0, 0.0, 8.33))
    assert box.s_max == pytest.approx(480.0 - 21.38888888888889, abs=1e-9)


def test_terminal_set_ignores_other_lane_and_rear(path, cfg):
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    oncoming = _flat_forecast(340.0, 360.0, d_o=2.0, steps=cfg.N_L)
    behind = _flat_forecast(100.0, 120.0, d_o=-2.0, steps=cfg.N_L)
    box = _stay_box([oncoming, behind], cfg, path, xi0)
    assert box.s_max == path.length


def test_oncoming_forecast_in_the_ego_lane_bounds_no_candidate(path, cfg,
                                                              pot):
    # an ego planning from the left lane, oncoming traffic ahead in it: the
    # stop lies in the rightmost lane, so no candidate stops behind it
    xi0 = EgoModelState(300.0, 2.0, 0.0, 8.33)
    oncoming = dataclasses.replace(
        _flat_forecast(340.0, 360.0, d_o=2.0, steps=cfg.N_L), direction=-1)
    posed = planner._candidates(xi0, [oncoming], path, cfg, pot)
    assert [(name, box.s_max) for name, box, _ in posed] == \
        [("stay", path.length)]


def test_terminal_set_empty(path, cfg):
    # a leader on the ego's bumper: stay's bound lies behind the ego, so
    # only pass, behind no leader, is posed
    fc = _flat_forecast(301.0, 301.0, d_o=-2.0, steps=cfg.N_L)
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    assert _stay_box([fc], cfg, path, xi0) is None
    assert list(_seeds(xi0, [fc], path, cfg, PotentialConfig())) == ["pass"]


def test_terminal_box_at_the_path_start_tie_is_empty(path, cfg):
    # the bound lands exactly on an ego at s = 0: the box's s band [0, 0]
    # has no width, so no box is posed
    D = braking_distance(cfg.nu_ter, cfg.tau, cfg.alpha_min, cfg.j_max)
    fc = _flat_forecast(D, D, d_o=-2.0, steps=cfg.N_L)
    xi0 = EgoModelState(0.0, -2.0, 0.0, 0.0)
    assert fc.s_center[cfg.N_L] - 0.5 * fc.delta_s[cfg.N_L] - D == 0.0
    assert planner._terminal_box([fc], cfg, path, xi0) is None
    # a hair further on, the box is posed with its s band [0, s_t]
    fc = _flat_forecast(D + 1e-9, D + 1e-9, d_o=-2.0, steps=cfg.N_L)
    assert planner._terminal_box([fc], cfg, path, xi0).s_max > 0.0


def test_state_box_is_the_programs_state_bounds(path, cfg, pot, tv):
    lb, ub = state_box(path)
    assert lb.tolist() == [0.0, path.right_edge_offset + planner.D_MARGIN,
                           -planner.PSI_MAX, planner.V_MIN]
    assert ub.tolist() == [path.length, path.left_edge_offset
                           - planner.D_MARGIN, planner.PSI_MAX,
                           planner.V_MAX]
    xi0 = EgoModelState(20.0, -2.0, 0.0, 8.33)
    box, g_s, g_i = _seeds(xi0, [], path, cfg, pot)["stay"]
    prog = _LtpProgram(xi0, [], path, cfg, pot, tv, g_s, g_i, box, None)
    N = cfg.N_L
    # every state but the last, which the terminal box narrows
    assert (prog.lb[:4 * (N - 1)] == np.tile(lb, N - 1)).all()
    assert (prog.ub[:4 * (N - 1)] == np.tile(ub, N - 1)).all()


def test_check_road_refuses_a_terminal_band_off_the_state_box(cfg):
    # two 0.3 m lanes: the state box is [-0.1, 0.1] and the rightmost lane
    # centre -0.15, so a band of 0.04 m ends short of it and 0.06 m enters it
    road = straight_path(lane_count=2, lane_width=0.3)
    with pytest.raises(ValueError, match="terminal band"):
        check_road(road, dataclasses.replace(cfg, eps_d=0.04))
    check_road(road, dataclasses.replace(cfg, eps_d=0.06))


def test_terminal_box_contains():
    box = TerminalBox(s_max=200.0, d_center=-2.0, eps_d=0.5, eps_psi=0.1,
                      nu_max=5.0)
    assert box.contains(EgoModelState(199.0, -2.0, 0.0, 4.0))
    assert box.contains(EgoModelState(200.0, -2.5, 0.1, 5.0))
    assert not box.contains(EgoModelState(201.0, -2.0, 0.0, 4.0))
    assert not box.contains(EgoModelState(199.0, -1.0, 0.0, 4.0))
    assert not box.contains(EgoModelState(199.0, -2.0, 0.2, 4.0))
    assert not box.contains(EgoModelState(199.0, -2.0, 0.0, 6.0))


# -- safe-stop fallback -------------------------------------------------------


def test_safe_stop_trajectory(path, cfg):
    xi0 = EgoModelState(100.0, -2.0, 0.05, 5.0)
    traj = safe_stop_trajectory(xi0, cfg)
    assert traj.fallback
    nus = [x.nu for x in traj.states]
    assert all(np.diff(nus) <= 1e-12)  # never speeds up
    assert nus[-1] == pytest.approx(0.0, abs=1e-12)
    # travels less than the analytic bound from the same speed
    dist = traj.states[-1].s - xi0.s
    assert 0.0 < dist <= braking_distance(5.0, cfg.tau, cfg.alpha_min,
                                          cfg.j_max)
    # acceleration ramps in at the jerk limit until it saturates
    alphas = [u.alpha for u in traj.inputs]
    assert alphas[0] == pytest.approx(-cfg.j_max * cfg.T_sL)
    assert alphas[1] == pytest.approx(cfg.alpha_min)
    ramp = [a for a in alphas if a < -1e-9]
    assert all(np.diff(ramp[:3]) <= 1e-12)
    assert min(alphas) >= cfg.alpha_min - 1e-12
    assert decision_label(traj, path, [], v_des=12.0) is Decision.SAFE_STOP


def _plan_arrays(traj):
    """A plan's states (N + 1, 4) and its inputs as (alpha, omega) pairs."""
    return (np.array([x.as_array() for x in traj.states]),
            [(u.alpha, u.omega) for u in traj.inputs])


def test_safe_stop_is_the_reference_rk4_with_its_clamp(cfg):
    """The safe-stop states are the reference RK4 steps of its inputs with
    the speed clamped at zero after each, to the bit; from 7.1 m/s the
    last braking step rounds below zero, so the clamp acts."""
    clamped = 0
    for v0 in (5.0, 7.1):
        traj = safe_stop_trajectory(EgoModelState(100.0, -2.0, 0.05, v0),
                                    cfg)
        X, U = _plan_arrays(traj)
        x, want = X[0].tolist(), [X[0].tolist()]
        for u in U:
            x = rk4(point_mass_f, x, u, cfg.T_sL)[0]
            clamped += x[3] < 0.0
            x[3] = max(x[3], 0.0)
            want.append(x)
        assert X.tobytes() == np.array(want).tobytes()
    assert clamped > 0


def test_safe_stop_levels_heading(path, cfg):
    traj = safe_stop_trajectory(EgoModelState(100.0, -2.0, 0.05, 5.0), cfg)
    assert abs(traj.states[-1].psi) < 1e-6
    assert all(abs(u.omega) <= planner.OMEGA_MAX + 1e-12 for u in traj.inputs)


# -- solve_ltp ----------------------------------------------------------------


def test_empty_road_keeps_lane(path, cfg, pot):
    xi0 = EgoModelState(20.0, -2.0, 0.0, 8.33)
    traj = solve_ltp(xi0, [], path, cfg, pot)
    stats = traj.solve_stats
    assert stats["status"] == "optimal"
    assert stats["candidate"] == "stay"
    assert stats["overtake_feasible"] is None  # no leader, never attempted
    assert stats["objective"] == pytest.approx(371.868, abs=5e-3)
    nus = [x.nu for x in traj.states]
    ds = [x.d for x in traj.states]
    # speeds up toward the desired speed, ends at the terminal speed bound
    assert max(nus) > 11.9
    assert nus[-1] == pytest.approx(cfg.nu_ter, abs=1e-4)
    # stays inside the right lane (equilibrium sits slightly right of center)
    assert all(-2.7 <= d <= -1.9 for d in ds)
    assert decision_label(traj, path, [], v_des=pot.v_des) is Decision.KEEP_LANE
    # inputs respect the admissible set with the tracker headroom margin
    for u in traj.inputs:
        assert cfg.alpha_min - 1e-8 <= u.alpha <= planner.ALPHA_MAX + 1e-8
        assert abs(u.omega) <= planner.OMEGA_MAX + 1e-8


@seed(20)
@settings(max_examples=25, deadline=None, database=None)
@given(s0=st.sampled_from([20.0, 600.0]), v0=st.floats(0.0, 12.5),
       alpha_prev=st.none() | st.floats(-0.3, 0.3))
@example(s0=20.0, v0=0.0, alpha_prev=None)
def test_empty_road_stay_is_optimal_from_any_start(empty_road_scenario, s0,
                                                   v0, alpha_prev):
    # from rest the cold guess is nearly feasible at the first iterates, so
    # the violation alone looks stalled while the KKT error still falls
    scn = empty_road_scenario
    path = scn.build_path()
    xi0 = EgoModelState(s0, path.rightmost_lane_center, 0.0, v0)
    traj = solve_ltp(xi0, [], path, scn.planner_config(),
                     scn.potential_config(), scn.tvapf_params(),
                     alpha_prev=alpha_prev)
    assert traj.solve_stats["status"] == "optimal"
    assert traj.solve_stats["candidate"] == "stay"


@pytest.mark.parametrize("alpha_prev", [None, -0.3, 0.3])
def test_empty_road_starts_from_rest_end_optimal_in_few_iterations(
        empty_road_scenario, alpha_prev):
    # the bound multipliers' start decides how fast a solve leaves the
    # acceleration's lower bound; every start up to the speed limit from
    # s0 = 20 m takes at most 36 iterations
    scn = empty_road_scenario
    path, cfg = scn.build_path(), scn.planner_config()
    for v0 in np.arange(26) * 0.5:
        traj = solve_ltp(EgoModelState(20.0, path.rightmost_lane_center, 0.0,
                                       v0), [], path, cfg,
                         scn.potential_config(), scn.tvapf_params(),
                         alpha_prev=alpha_prev)
        assert [(c["status"], c["iterations"] <= 50)
                for c in traj.solve_stats["candidates"]] == [
            ("optimal", True)], v0


@pytest.mark.parametrize("lead", [None, 400.0], ids=["empty_road", "pass"])
def test_published_plan_is_the_solvers_point(path, cfg, pot, tv, lead,
                                             monkeypatch):
    # the published plan is the point the solver certified: xi0, then the
    # solver's states and inputs to the bit; every state lies inside the
    # state box and the last inside the published terminal box with no
    # tolerance, and the states meet the reference RK4 rollout of the
    # inputs to 1e-9 m
    planner_solve, points = planner.solve, []

    def solve(problem, opts):
        result = planner_solve(problem, opts)
        points.append(result.z)
        return result

    monkeypatch.setattr(planner, "solve", solve)
    fcs = [] if lead is None else _forecasts([ObstacleState(
        s_o=lead, d_o=-2.0, v_o=5.0, v_bounds=(2.9, 6.1),
        a_bounds=(-0.01, 0.25))], cfg)
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    traj = solve_ltp(xi0, fcs, path, cfg, pot, tvapf=tv)
    stats = traj.solve_stats
    names = [c["candidate"] for c in stats["candidates"]]
    assert stats["candidate"] == ("stay" if lead is None else "pass")
    z = points[names.index(stats["candidate"])]
    X, U = _plan_arrays(traj)
    assert X[0].tobytes() == xi0.as_array().tobytes()
    assert X[1:].tobytes() == z[:4 * cfg.N_L].tobytes()
    assert np.array(U).tobytes() == z[4 * cfg.N_L:].tobytes()
    lb, ub = state_box(path)
    assert np.all((lb <= X) & (X <= ub))
    assert TerminalBox(**stats["terminal_set"]).contains(traj.states[-1],
                                                         tol=0.0)
    assert np.abs(X - rollout(point_mass_f, X[0], U, cfg.T_sL)).max() <= 1e-9


# -- initial guesses ---------------------------------------------------------


def _seeds(xi0, fcs, path, cfg, pot):
    """{name: (box, states, inputs)} of the posed candidates."""
    return {name: (box, *guess)
            for name, box, guess in planner._candidates(xi0, fcs, path, cfg,
                                                        pot)}


@seed(28)
@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(s0=st.floats(0.0, 1200.0), v0=st.floats(0.0, planner.V_MAX),
       lead=st.none() | st.tuples(st.floats(0.5, 250.0),
                                  st.floats(0.0, 10.0)))
def test_guess_speeds_and_positions_stay_admissible(path, cfg, pot, s0, v0,
                                                    lead):
    # every seed's speeds lie in the speed box and its positions never
    # decrease; stay's seed is held 20 m behind the leader's rear edge,
    # unless the ego already starts closer
    fcs = [] if lead is None else _forecasts([ObstacleState(
        s_o=s0 + lead[0], d_o=-2.0, v_o=lead[1],
        v_bounds=(0.8 * lead[1], lead[1] + 1.0),
        a_bounds=(-0.05, 0.25))], cfg)
    seeds = _seeds(EgoModelState(s0, -2.0, 0.0, v0), fcs, path, cfg, pot)
    for box, states, inputs in seeds.values():
        assert states.shape == (cfg.N_L + 1, 4)
        assert inputs.shape == (cfg.N_L, 2)
        assert np.all((states[:, 3] >= 0.0) & (states[:, 3] <= planner.V_MAX))
        assert np.all(np.diff(states[:, 0]) >= 0.0)
    if fcs and "stay" in seeds:
        s_min = fcs[0].s_min[np.minimum(np.arange(cfg.N_L + 1),
                                        fcs[0].steps)]
        assert np.all(seeds["stay"][1][:, 0]
                      <= np.maximum(s0, s_min - 20.0))


def test_pass_guess_takes_lane_1_alongside_and_ends_in_its_box_lane(
        path, cfg, pot):
    lead = ObstacleState(s_o=400.0, d_o=-2.0, v_o=5.0, v_bounds=(2.9, 6.1),
                         a_bounds=(-0.01, 0.25))
    [fc] = _forecasts([lead], cfg)
    seeds = _seeds(EgoModelState(300.0, -2.0, 0.0, 8.33), [fc], path, cfg,
                   pot)
    box, states, _ = seeds["pass"]
    j = np.arange(cfg.N_L + 1)
    alongside = ((fc.s_min[j] - 30.0 < states[:, 0])
                 & (states[:, 0] < fc.s_max[j] + 15.0))
    lanes = [path.lane_index_of(d) for d in states[:, 1]]
    assert any(lane == 1 for lane, on in zip(lanes, alongside) if on)
    assert all(lane == 0 for lane, on in zip(lanes, alongside) if not on)
    assert states[-1, 1] == pytest.approx(box.d_center, abs=1e-12)
    assert states[-1, 2] == 0.0
    # stay's seed follows in its lane
    assert seeds["stay"][1][:, 1] == pytest.approx(-2.0, abs=1e-12)


def test_one_lane_road_poses_no_pass(cfg, pot):
    # with no lane to pass in, only stay is posed behind the leader
    one_lane = straight_path(lane_count=1)
    lead = ObstacleState(s_o=400.0, d_o=0.0, v_o=5.0, v_bounds=(2.9, 6.1),
                         a_bounds=(-0.01, 0.25))
    posed = planner._candidates(EgoModelState(300.0, 0.0, 0.0, 8.33),
                                _forecasts([lead], cfg), one_lane, cfg, pot)
    assert [name for name, _, _ in posed] == ["stay"]


def test_every_start_solves_on_a_short_road(cfg, pot):
    # the seed stays 1 m inside the box at the road's end, so starts from
    # 150 to 240 m before the end of a 300 m road all solve
    short = straight_path(length=300.0)
    refused = []
    for s0 in (60.0, 80.0, 100.0, 120.0, 150.0):
        for v0 in (5.0, 6.0, 7.0, 8.0, 10.0):
            try:
                solve_ltp(EgoModelState(s0, -2.0, 0.0, v0), [], short, cfg,
                          pot)
            except planner.Infeasible:
                refused.append((s0, v0))
    assert refused == []


def _follow_scene(cfg):
    lead = ObstacleState(s_o=400.0, d_o=-2.0, v_o=5.0, v_bounds=(4.5, 5.5),
                         a_bounds=(-0.05, 0.05))
    oncoming = ObstacleState(s_o=520.0, d_o=2.0, v_o=6.0, direction=-1,
                             v_bounds=(0.0, 12.5), a_bounds=(-0.9, 0.9))
    return EgoModelState(300.0, -2.0, 0.0, 8.33), _forecasts([lead, oncoming],
                                                             cfg)


def _field_along(traj, fcs, tv):
    """Obstacle field at each published state, at the state's own step."""
    X = np.array([x.as_array() for x in traj.states])
    field = ObstacleField(fcs, np.arange(len(X)), tv)
    return field.at(X[:, 0], X[:, 1]).value()


def test_follow_leader_when_oncoming_blocks(path, cfg, pot, tv):
    xi0, fcs = _follow_scene(cfg)
    traj = solve_ltp(xi0, fcs, path, cfg, pot, tvapf=tv)
    stats = traj.solve_stats
    assert stats["status"] == "optimal"
    assert stats["candidate"] == "stay"
    assert stats["overtake_feasible"] is False
    assert decision_label(traj, path, fcs, v_des=pot.v_des) is \
        Decision.FOLLOW_LEADER
    # stays in lane, slows to the terminal speed, keeps the field low
    assert max(x.d for x in traj.states) <= -1.9
    assert traj.states[-1].nu == pytest.approx(cfg.nu_ter, abs=1e-4)
    assert max(_field_along(traj, fcs, tv)) <= tv.epsilon_o + 1e-6
    # ends at least a stopping distance behind the leader's reachable set
    gap = float(fcs[0].s_min[cfg.N_L]) - traj.states[-1].s
    assert gap >= braking_distance(cfg.nu_ter, cfg.tau, cfg.alpha_min,
                                   cfg.j_max) - 1e-6


def test_overtake_when_left_lane_clear(path, cfg, pot, tv):
    lead = ObstacleState(s_o=400.0, d_o=-2.0, v_o=5.0, v_bounds=(2.9, 6.1),
                         a_bounds=(-0.01, 0.25))
    fcs = _forecasts([lead], cfg)
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    traj = solve_ltp(xi0, fcs, path, cfg, pot, tvapf=tv)
    stats = traj.solve_stats
    assert stats["status"] == "optimal"
    assert stats["candidate"] == "pass"
    assert stats["overtake_feasible"] is True
    assert decision_label(traj, path, fcs, v_des=pot.v_des) is \
        Decision.OVERTAKE
    # actually changes lane and keeps clear of the obstacle field
    assert max(x.d for x in traj.states) > 0.0
    assert max(_field_along(traj, fcs, tv)) <= tv.epsilon_o + 1e-6
    # terminal anchor jumped past the passed leader
    assert stats["terminal_set"]["s_max"] > float(fcs[0].s_max[cfg.N_L])


def test_stay_alone_when_its_bound_is_beyond_the_horizon_reach(path, cfg,
                                                                pot, tv):
    # a leader this fast leaves a stay bound past the farthest point the
    # ego can reach, so no pass is posed and none is reported
    lead = ObstacleState(s_o=420.0, d_o=-2.0, v_o=10.0, v_bounds=(8.0, 12.0),
                         a_bounds=(-0.01, 0.25))
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    stats = solve_ltp(xi0, _forecasts([lead], cfg), path, cfg, pot,
                      tvapf=tv).solve_stats
    assert [(c["candidate"], c["status"]) for c in stats["candidates"]] == \
        [("stay", "optimal")]
    assert stats["overtake_feasible"] is None
    reach = xi0.s + planner.V_MAX * cfg.N_L * cfg.T_sL
    assert stats["terminal_set"]["s_max"] == pytest.approx(742.57, abs=5e-3)
    assert stats["terminal_set"]["s_max"] > reach


def test_solver_is_deterministic(path, cfg, pot, tv):
    xi0, fcs = _follow_scene(cfg)
    a = solve_ltp(xi0, fcs, path, cfg, pot, tvapf=tv)
    b = solve_ltp(xi0, fcs, path, cfg, pot, tvapf=tv)
    assert a.solve_stats["objective"] == b.solve_stats["objective"]
    assert all(np.array_equal(x.as_array(), y.as_array())
               for x, y in zip(a.states, b.states))


def test_stay_behind_a_slow_leader_converges_without_crawling(
        overtake_scenario):
    """A cold instance whose stay candidate has obstacle rows with
    multipliers of order 1e3: at the barrier floor their w/s reaches 7e13,
    and the solve converges quickly only if the KKT matrix carries it."""
    scn = overtake_scenario
    path, cfg = scn.build_path(), scn.planner_config()
    spec = scn.actors[0]
    right = path.rightmost_lane_center
    s = 335.1247
    lead = ObstacleState(s_o=s + 53.6856, d_o=right, v_o=4.1086,
                         v_bounds=spec.v_bounds, a_bounds=spec.a_bounds)
    traj = solve_ltp(EgoModelState(s, right, 0.0, 6.3415),
                     _forecasts([lead], cfg), path, cfg,
                     scn.potential_config(), tvapf=scn.tvapf_params())
    stay = traj.solve_stats["candidates"][0]
    assert stay["candidate"] == "stay"
    assert stay["status"] == "optimal"
    assert stay["iterations"] <= 80


@pytest.mark.parametrize("gap, published", [(1e-10, "stay"),
                                            (1e-6, "pass")])
def test_candidates_tied_to_rounding_publish_stay(path, cfg, pot, tv,
                                                  monkeypatch, gap,
                                                  published):
    # pass is made cheaper than stay by a relative ``gap``: within
    # TIE_RTOL both reached one plan and stay is published
    assert 1e-10 < planner.TIE_RTOL < 1e-6
    planner_solve = planner.solve
    objectives = []

    def solve(problem, opts):
        result = planner_solve(problem, opts)
        objectives.append(result.objective)
        if len(objectives) == 2:
            result.objective = objectives[0] * (1.0 - gap)
        return result

    monkeypatch.setattr(planner, "solve", solve)
    lead = ObstacleState(s_o=400.0, d_o=-2.0, v_o=5.0, v_bounds=(2.9, 6.1),
                         a_bounds=(-0.01, 0.25))
    traj = solve_ltp(EgoModelState(300.0, -2.0, 0.0, 8.33),
                     _forecasts([lead], cfg), path, cfg, pot, tvapf=tv)
    stats = traj.solve_stats
    assert [(c["candidate"], c["status"]) for c in stats["candidates"]] == \
        [("stay", "optimal"), ("pass", "optimal")]
    assert stats["candidate"] == published


def _overtake_scene_near_25s(scn, v0=9.6):
    """solve_ltp on the bundled overtake scene near t0 = 25 s, rounded: the
    ego, at speed v0, behind leader L1, with oncoming O1 and O2 in the
    passing lane."""
    path, cfg = scn.build_path(), scn.planner_config()
    spec = {a.id: a for a in scn.actors}
    actors = [("L1", 417.0, -2.0, 5.0), ("O1", 279.0, 2.0, 10.0),
              ("O2", 560.0, 2.0, 12.0)]
    fcs = _forecasts([ObstacleState(s_o=s, d_o=d, v_o=v,
                                    v_bounds=spec[i].v_bounds,
                                    a_bounds=spec[i].a_bounds,
                                    direction=spec[i].direction)
                      for i, s, d, v in actors], cfg)
    return solve_ltp(EgoModelState(264.5, -2.5, 0.0, v0), fcs, path, cfg,
                     scn.potential_config(), tvapf=scn.tvapf_params(),
                     t0=25.0, alpha_prev=0.0)


def test_planner_work_on_a_fixed_overtake_scene(overtake_scenario):
    """Each candidate's status and iteration count on one fixed scene, so a
    change to the planner's work shows here and not only in the benchmark.
    The counts are the same with BLAS on one or two threads: stay converges,
    and pass, blocked by O1, ends on the stall verdict."""
    cands = _overtake_scene_near_25s(overtake_scenario).solve_stats[
        "candidates"]
    assert [(c["candidate"], c["status"], c["iterations"], c["termination"])
            for c in cands] == [("stay", "optimal", 25, "kkt"),
                                ("pass", "infeasible", 27, "stalled")]


def _counting(name, fn, calls):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_each_planner_point_is_evaluated_once(overtake_scenario,
                                              monkeypatch):
    """On the fixed scene the solver asks for the objective once at each
    point it visits, and the field, the lateral offsets, both lateral
    potentials and the closed-form RK4 step of the whole horizon run once
    per such point, whichever of the seven callbacks it asks for there.
    The seeds, the published states and the safe stop step one state at a
    time, so only the NLP's batch steps (a 2-D state) count."""
    calls = Counter()
    for name in ("lateral_offsets", "boundary_potential", "lane_potential"):
        monkeypatch.setattr(planner, name,
                            _counting(name, getattr(planner, name), calls))
    step = planner._step

    def batch_step(x, u, h):
        calls["_step"] += x.ndim == 2
        return step(x, u, h)

    monkeypatch.setattr(planner, "_step", batch_step)
    monkeypatch.setattr(ObstacleField, "at",
                        _counting("field", ObstacleField.at, calls))
    planner_solve = planner.solve

    def solve(problem, opts):
        return planner_solve(dataclasses.replace(problem, objective=_counting(
            "objective", problem.objective, calls)), opts)

    monkeypatch.setattr(planner, "solve", solve)
    _overtake_scene_near_25s(overtake_scenario)
    n = calls["objective"]
    assert n > 0
    assert calls == {name: n for name in (
        "objective", "lateral_offsets", "boundary_potential",
        "lane_potential", "_step", "field")}


def test_point_record_is_kept_for_equal_values_of_one_shape(path, cfg, pot,
                                                            tv):
    """The record of the last point serves a fresh array or a list with
    its values, and no array changed in place, one entry off, or of
    another shape, even one whose values broadcast against it."""
    xi0, fcs = _follow_scene(cfg)
    box, g_s, g_i = _seeds(xi0, fcs, path, cfg, pot)["stay"]
    prog = _LtpProgram(xi0, fcs, path, cfg, pot, tv, g_s, g_i, box, 0.0)
    z = prog.z0.copy()
    rec = prog._at(z)
    assert prog._at(z.copy()) is rec and prog._at(list(z)) is rec
    assert prog._at(z[None]) is not rec
    rec = prog._at(z)
    z[7] += 1e-9
    assert prog._at(z) is not rec
    # the record is the one of the changed point: its objective is the one
    # a fresh program computes there
    fresh = _LtpProgram(xi0, fcs, path, cfg, pot, tv, g_s, g_i, box, 0.0)
    assert prog.objective(z) == fresh.objective(z.copy())


def test_phase_times_fit_in_the_wall_time(overtake_scenario):
    # each candidate's seconds in the callbacks and in the KKT systems are
    # disjoint parts of its solve's wall time
    cands = _overtake_scene_near_25s(overtake_scenario).solve_stats[
        "candidates"]
    for c in cands:
        assert set(c["phase_s"]) == {"callbacks", "kkt"}
        assert all(t > 0.0 for t in c["phase_s"].values())
        assert sum(c["phase_s"].values()) <= c["wall_time"]


def test_solver_telemetry_counts_calls(overtake_scenario, monkeypatch):
    """The counts each candidate reports equal the benchmark's own
    definitions: factorizations are splu calls, backtracks are objective
    calls less gradient calls, regularization retries are splu calls less
    Hessian calls, and the evaluations are the calls of each callback.  The
    fixed scene runs with the ego at 10.6 m/s, where the blocked pass
    candidate both backtracks and retries."""
    planner_solve, splu = planner.solve, scipy.sparse.linalg.splu
    counted = []

    def solve(problem, opts):
        calls = Counter()
        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            _counting("splu", splu, calls))
        hooks = {k: _counting(k, getattr(problem, k), calls)
                 for k in CALLBACKS}
        result = planner_solve(dataclasses.replace(problem, **hooks), opts)
        counted.append(calls)
        return result

    monkeypatch.setattr(planner, "solve", solve)
    cands = _overtake_scene_near_25s(overtake_scenario, v0=10.6).solve_stats[
        "candidates"]
    assert len(cands) == len(counted) == 2
    for c, calls in zip(cands, counted):
        assert c["factorizations"] == calls["splu"]
        assert c["backtracks"] == calls["objective"] - calls["gradient"]
        assert c["reg_retries"] == calls["splu"] - calls["hessian"]
        assert c["evaluations"] == {k: calls[k] for k in CALLBACKS}
    # the blocked pass candidate backtracks and retries
    assert cands[1]["backtracks"] > 0 and cands[1]["reg_retries"] > 0


def test_solve_ltp_refuses_a_warm_start(path, cfg, pot, tv):
    # every instance solves cold; a previous plan is no seed
    xi0, fcs = _follow_scene(cfg)
    prev = safe_stop_trajectory(xi0, cfg)
    with pytest.raises(ValueError, match="warm_start must be None"):
        solve_ltp(xi0, fcs, path, cfg, pot, tvapf=tv, warm_start=prev)


def test_empty_terminal_set_propagates(path, cfg, pot):
    # two leaders right on the ego's bumper: no safe-stop anchor exists ahead
    # of the ego whether the nearest one is passed or not
    fcs = [_flat_forecast(301.0, 301.0, d_o=-2.0, steps=cfg.N_L),
           _flat_forecast(305.0, 305.0, d_o=-2.0, steps=cfg.N_L)]
    with pytest.raises(EmptyTerminalSet):
        solve_ltp(EgoModelState(300.0, -2.0, 0.0, 8.33), fcs, path, cfg, pot)


# -- Hessian of the program ---------------------------------------------------


def _hessian_program(path, pot, tv, obstacles):
    """The reduced program of acceptance criterion 7, with its forecasts."""
    cfg = PlannerConfig(N_L=10, instance_period=5.0)
    N = cfg.N_L
    xi0 = EgoModelState(300.0, -2.0, 0.0, 8.33)
    fcs = _forecasts(obstacles, cfg)
    states = np.empty((N + 1, 4))
    states[0] = xi0.as_array()
    for j in range(N):
        states[j + 1] = states[j] + cfg.T_sL * np.array(
            [states[j, 3], 0.0, 0.0, 0.0])
    box = TerminalBox(s_max=400.0, d_center=-2.0, eps_d=0.5, eps_psi=0.1,
                      nu_max=5.0)
    return _LtpProgram(xi0, fcs, path, cfg, pot, tv, states,
                       np.zeros((N, 2)), box, alpha_prev=0.1), fcs


_LEADER = ObstacleState(350.0, -2.0, 5.0, v_bounds=(2.9, 6.1),
                        a_bounds=(-0.01, 0.25))


def test_hessian_symmetric_psd_and_exact_on_quadratic_terms(path, pot, tv):
    """The reduced program of acceptance criterion 7 at random feasible
    points, with zero and with random inequality multipliers.

    The speed term K_v (nu - v_bar)^2 is an exact quadratic, and the comfort
    term K_c (nu_{j-1} omega_j)^2 is quadratic in each of nu and omega, so
    the nu-nu and omega-omega entries equal a central difference of the
    gradient.  Their nu-omega coupling is the Gauss-Newton one, 2 K_c nu
    omega, half of the exact 4 K_c nu omega: the exact block is indefinite.
    """
    prog, fcs = _hessian_program(path, pot, tv, [_LEADER])
    cfg = prog.cfg
    N = cfg.N_L
    i_nu = 4 * np.arange(N) + 3
    i_om = 4 * N + 2 * np.arange(N) + 1
    idx = np.concatenate([i_nu, i_om])
    b = 4 * np.arange(N)
    m_ineq = len(prog.ineq_constraints(prog.z0))
    rng = np.random.default_rng(11)
    h = 1e-4
    for k in range(20):
        z = prog.z0 + rng.normal(0.0, 0.05, prog.n)
        if k >= 10:
            # states on the flank of the leader's field, where its
            # curvature is indefinite
            z[0:4 * N:4] = fcs[0].s_center[1:] + rng.uniform(-20.0, 20.0, N)
            z[1:4 * N:4] = rng.uniform(-3.5, -0.5, N)
        z = np.clip(z, prog.lb + 1e-4, prog.ub - 1e-4)
        w_ineq = (np.zeros(m_ineq) if k % 2 == 0
                  else rng.uniform(0.0, 50.0, m_ineq))
        H = prog.layout.hess_pattern.matrix(
            prog.hessian(z, None, w_ineq)).toarray()

        assert np.array_equal(H, H.T)
        eig = np.linalg.eigvalsh(H)
        assert eig[0] >= -1e-12 * max(1.0, eig[-1])

        fd = np.empty((len(idx), len(idx)))
        for c, i in enumerate(idx):
            e = np.zeros(prog.n)
            e[i] = h
            fd[:, c] = ((prog.gradient(z + e) - prog.gradient(z - e))
                        / (2.0 * h))[idx]
        fd[:N, N:] *= 0.5  # Gauss-Newton nu-omega coupling
        fd[N:, :N] *= 0.5
        np.testing.assert_allclose(H[np.ix_(idx, idx)], fd, rtol=1e-6,
                                   atol=1e-6)

        # obstacle (s, d) blocks: the multiplier times grad(W) grad(W)' / W,
        # from the field rows of the constraints and their Jacobian
        mult = cfg.K_o + w_ineq[:N]
        J = prog.layout.ineq_pattern.matrix(prog.ineq_jacobian(z)).toarray()
        gW = np.stack([J[np.arange(N), b], J[np.arange(N), b + 1]], axis=1)
        W = prog.ineq_constraints(z)[:N] + tv.epsilon_o
        G = mult[:, None, None] * np.divide(
            gW[:, :, None] * gW[:, None, :], W[:, None, None],
            out=np.zeros((N, 2, 2)), where=W[:, None, None] > 0.0)
        np.testing.assert_allclose(H[b, b], G[:, 0, 0], rtol=1e-8,
                                   atol=1e-10)
        np.testing.assert_allclose(H[b, b + 1], G[:, 0, 1], rtol=1e-8,
                                   atol=1e-10)
        # the d-d entry adds the lateral curvature clamped at zero: a central
        # difference of the gradient's d entries less the field's share, a
        # central difference of its Jacobian's d entries
        e = np.zeros(prog.n)
        e[1:4 * N:4] = h
        g_dd = ((prog.gradient(z + e) - prog.gradient(z - e))
                / (2.0 * h))[b + 1]
        matrix = prog.layout.ineq_pattern.matrix
        w_dd = ((matrix(prog.ineq_jacobian(z + e))
                 - matrix(prog.ineq_jacobian(z - e)))
                .toarray()[np.arange(N), b + 1] / (2.0 * h))
        lateral = np.maximum(g_dd - cfg.K_o * w_dd, 0.0) + 1e-8
        np.testing.assert_allclose(H[b + 1, b + 1], G[:, 1, 1] + lateral,
                                   rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("multiplier", [0.0, 1e160])
@pytest.mark.parametrize("where", ["flank", "tail"])
def test_hessian_obstacle_blocks_are_finite_and_psd_at_any_scale(
        path, pot, tv, where, multiplier):
    """Every (s, d) block (a, b; b, e) of H has a, e >= 0 and |b| <=
    sqrt(a) sqrt(e), with no overflow: on the leader's flank and where the
    field is subnormal beside it (block entries far below 1e-154), with
    zero multipliers and with every multiplier at 1e160.  a e and b b
    overflow or underflow there, so the test compares square roots."""
    prog, fcs = _hessian_program(path, pot, tv, [_LEADER])
    N = prog.cfg.N_L
    rng = np.random.default_rng(3)
    z = prog.z0.copy()
    field = prog.field
    if where == "flank":
        xs = rng.uniform(-1.5, 1.5, N)
        xd = rng.uniform(-1.5, 1.5, N)
    else:
        # near the reachable-set center in s, where d2W/ds2 < 0, and far
        # enough beside it in d that W = exp(-710) is subnormal
        xs = rng.uniform(-0.5, 0.5, N)
        xd = rng.choice([-1.0, 1.0], N) * (710.0 - xs ** 4) ** 0.25
    z[0:4 * N:4] = field.center[0] + xs * field.gamma_s[0]
    z[1:4 * N:4] = field.d_o[0] + xd * field.gamma_d[0]
    if where == "tail":
        W = field.at(z[0:4 * N:4], z[1:4 * N:4]).value()
        assert np.all((W > 0.0) & (W < np.finfo(float).tiny))
    w_ineq = np.full(len(prog.ineq_constraints(z)), multiplier)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        H = prog.layout.hess_pattern.matrix(
            prog.hessian(z, None, w_ineq)).toarray()
    assert np.all(np.isfinite(H))
    i_s = 4 * np.arange(N)
    a, b, e = H[i_s, i_s], H[i_s, i_s + 1], H[i_s + 1, i_s + 1]
    assert np.all(a >= 0.0) and np.all(e >= 0.0)
    assert np.all(np.abs(b) <= np.sqrt(a) * np.sqrt(e) * (1.0 + 1e-12))


@pytest.mark.parametrize("a", [1.0, 1e4])
@pytest.mark.parametrize("b", [1.6e-154, 1e-155, 1e-160, 1e-170])
def test_hessian_keeps_the_positive_eigenpair_when_b_squared_underflows(
        path, pot, tv, a, b):
    """An obstacle block (a, b; b, b * b / a) with b * b below the normal
    range keeps its positive eigenpair along s: H is finite and PSD, with a
    on the s diagonal and the coupling b beside it.  The states sit two
    scales behind a leader's center in s and a hair beside it in d, and
    the multipliers are set so that the field's Gauss-Newton block has
    those entries at every step.  The leader drives at d = 0, where offsets
    near 1e-52 are representable."""
    leader = ObstacleState(350.0, 0.0, 5.0, v_bounds=(2.9, 6.1),
                           a_bounds=(-0.01, 0.25))
    prog, _ = _hessian_program(path, pot, tv, [leader])
    N = prog.cfg.N_L
    field = prog.field
    assert np.all(field.d_o == 0.0)
    c = field.c
    w = math.exp(-2.0 ** c)
    fs = -c * 2.0 ** (c - 1) / field.gamma_s[0]
    mult = a / (w * fs * fs)
    assert np.all(mult >= prog.cfg.K_o)
    # fd = c xd**(c-1) / gamma_d, so that mult w fs fd = b
    fd = b / (mult * w * fs)
    xd = np.sign(fd) * (np.abs(fd) * field.gamma_d[0] / c) ** (1.0 / (c - 1))
    z = prog.z0.copy()
    z[0:4 * N:4] = field.center[0] - 2.0 * field.gamma_s[0]
    z[1:4 * N:4] = xd * field.gamma_d[0]
    w_ineq = np.zeros(len(prog.ineq_constraints(z)))
    w_ineq[:N] = mult - prog.cfg.K_o
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        H = prog.layout.hess_pattern.matrix(
            prog.hessian(z, None, w_ineq)).toarray()
    assert np.all(np.isfinite(H))
    eig = np.linalg.eigvalsh(H)
    assert eig[0] >= -1e-12 * eig[-1]
    i_s = 4 * np.arange(N)
    np.testing.assert_allclose(H[i_s, i_s], a, rtol=1e-12)
    np.testing.assert_allclose(H[i_s, i_s + 1], b, rtol=1e-12)


# -- decision labels on hand-built trajectories -------------------------------


def _hand_traj(ds, nu_end=12.0):
    states = tuple(EgoModelState(20.0 + 5.0 * j, d, 0.0,
                                 nu_end if j == len(ds) - 1 else 10.0)
                   for j, d in enumerate(ds))
    inputs = tuple(ControlInput(0.0, 0.0) for _ in range(len(ds) - 1))
    return __import__("tvapf.planner", fromlist=["PlannedTrajectory"]) \
        .PlannedTrajectory(t0=0.0, T_sL=0.5, states=states, inputs=inputs)


def test_decision_label_rules(path, cfg):
    keep = _hand_traj([-2.0] * 5, nu_end=12.0)
    assert decision_label(keep, path, [], v_des=12.0) is Decision.KEEP_LANE
    over = _hand_traj([-2.0, 0.5, 2.0, 2.0, -2.0])
    assert decision_label(over, path, [], v_des=12.0) is Decision.OVERTAKE
    leader = _flat_forecast(200.0, 220.0, d_o=-2.0, steps=4)
    slow = _hand_traj([-2.0] * 5, nu_end=5.0)
    assert decision_label(slow, path, [leader], v_des=12.0) is \
        Decision.FOLLOW_LEADER
    # slowing with no same-lane leader ahead is still lane keeping: not
    # with oncoming traffic in the ego lane, a car in the other lane or one
    # behind the ego
    oncoming = dataclasses.replace(leader, direction=-1)
    other_lane = _flat_forecast(200.0, 220.0, d_o=2.0, steps=4)
    behind = _flat_forecast(0.0, 10.0, d_o=-2.0, steps=4)
    for fcs in ([], [oncoming], [other_lane], [behind]):
        assert decision_label(slow, path, fcs, v_des=12.0) is \
            Decision.KEEP_LANE
