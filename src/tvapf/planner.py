"""Local trajectory planner: a finite-horizon optimal control problem whose
solution is simultaneously the maneuver decision and the reference trajectory.

The planner optimizes jointly over a state sequence and an input sequence of a
point-mass model in road-aligned coordinates (direct multiple shooting, RK4
discretization).  Static potentials shape speed and lane preference, the
time-varying obstacle fields enter both as a weighted cost and as hard
inequality constraints, and a safe-stop terminal set guarantees a feasible
braking continuation behind the nearest same-lane leader.  ``solve_ltp``
poses the program for up to two terminal sets: ``stay`` stops behind the
nearest leader in the ego lane (or at the path end), and ``pass``, posed only
when that bound falls short of the horizon's reach, stops behind the next
leader from a guess that overtakes it.  The cheaper feasible solution is
published; within each program the lane change, the following distance and
the braking profile emerge from one continuous optimization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import rk4, rk4_jacobians, rollout
from .geometry import ReferencePath
from .potentials import (PotentialConfig, boundary_potential,
                         boundary_potential_curv, boundary_potential_grad,
                         effective_speed, lane_potential, lane_potential_curv,
                         lane_potential_grad, lateral_offsets)
from .prediction import ObstacleField, TvapfParams
from .solver import (NlpProblem, SolveOptions, SolveStatus, SparsePattern,
                     solve)


class Infeasible(Exception):
    """No feasible trajectory exists for the posed program."""


class EmptyTerminalSet(Exception):
    """The safe-stop box lies behind the current ego position."""


@dataclass(frozen=True)
class EgoModelState:
    """Point-mass planning state in road-aligned coordinates."""

    s: float
    d: float
    psi: float
    nu: float

    def as_array(self) -> np.ndarray:
        return np.array([self.s, self.d, self.psi, self.nu])

    @staticmethod
    def from_array(x) -> "EgoModelState":
        return EgoModelState(float(x[0]), float(x[1]), float(x[2]), float(x[3]))


@dataclass(frozen=True)
class ControlInput:
    """Planner input: longitudinal acceleration and heading rate."""

    alpha: float
    omega: float

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.omega])


@dataclass(frozen=True)
class PlannerConfig:
    """Horizon, admissible sets and terminal-set parameters of the planner."""

    T_sL: float = 0.5
    N_L: int = 70
    instance_period: float = 5.0
    # admissible state set
    v_min: float = 0.0
    v_max: float = 12.5
    psi_max: float = 1.2
    d_margin: float = 0.2
    # admissible input set
    alpha_min: float = -0.9
    alpha_max: float = 0.9
    omega_max: float = 0.0775
    # headroom the planner leaves inside its own input box so the tracker,
    # whose authority is strictly inside the planner's, can still reject
    # disturbances while tracking a saturated plan
    alpha_margin: float = 0.1
    omega_margin: float = 0.005
    # admissible acceleration change per step
    delta_alpha_max: float = 0.3
    # terminal-set parameters
    tau: float = 0.5
    j_max: float = 0.9
    nu_ter: float = 5.0
    eps_d: float = 0.5
    eps_psi: float = 0.1
    # obstacle-field cost weight
    K_o: float = 20.0
    solver: SolveOptions = field(default_factory=lambda: SolveOptions(
        tol=1e-6, max_iter=150))

    def __post_init__(self):
        if self.T_sL <= 0 or self.N_L < 1:
            raise ValueError("need T_sL > 0 and N_L >= 1")
        ratio = self.instance_period / self.T_sL
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError("instance_period must be a positive multiple of T_sL")
        if not (0 <= self.v_min < self.v_max):
            raise ValueError("velocity box empty")
        if not (self.alpha_min < 0 < self.alpha_max):
            raise ValueError("acceleration box must contain 0 with alpha_min < 0")
        if not (0 <= self.alpha_margin < self.alpha_max
                and 0 <= self.omega_margin < self.omega_max):
            raise ValueError("input margins must leave a non-empty usable box")
        if self.omega_max <= 0 or not 0 < self.psi_max < math.pi / 2:
            raise ValueError("invalid heading limits")
        if self.j_max <= 0 or self.tau < 0 or self.nu_ter <= 0:
            raise ValueError("invalid terminal parameters")
        if self.eps_d <= 0 or self.eps_psi <= 0:
            raise ValueError("terminal box tolerances must be positive")
        if not (math.isfinite(self.K_o) and self.K_o >= 0):
            raise ValueError("K_o must be finite and non-negative")

    @property
    def shift_steps(self) -> int:
        return int(round(self.instance_period / self.T_sL))


@dataclass(frozen=True)
class TerminalBox:
    """Axis-aligned safe-stop terminal set."""

    s_max: float
    d_center: float
    eps_d: float
    eps_psi: float
    nu_max: float

    def contains(self, x: EgoModelState, tol: float = 1e-6) -> bool:
        return (x.s <= self.s_max + tol
                and abs(x.d - self.d_center) <= self.eps_d + tol
                and abs(x.psi) <= self.eps_psi + tol
                and -tol <= x.nu <= self.nu_max + tol)


@dataclass(frozen=True)
class PlannedTrajectory:
    """Published output of one planner instance.

    ``states`` has N_L + 1 entries (index j at time t0 + j*T_sL); ``inputs``
    has N_L entries, input j held over [t0 + j*T_sL, t0 + (j+1)*T_sL).
    """

    t0: float
    T_sL: float
    states: tuple
    inputs: tuple
    solve_stats: dict = field(default_factory=dict)
    fallback: bool = False

    @property
    def horizon(self) -> int:
        return len(self.inputs)

    @property
    def t_end(self) -> float:
        return self.t0 + self.horizon * self.T_sL


class Decision(enum.Enum):
    KEEP_LANE = "KeepLane"
    FOLLOW_LEADER = "FollowLeader"
    OVERTAKE = "Overtake"
    SAFE_STOP = "SafeStop"


# -- dynamics ---------------------------------------------------------------


_B = np.array([[0.0, 0.0],
               [0.0, 0.0],
               [0.0, 1.0],
               [1.0, 0.0]])

# Entries of the RK4 step Jacobians that the model's structure can make
# nonzero: f depends on x only through (psi, nu) and only in its first two
# rows, and u enters the last two rows directly.
_FX_NONZERO = np.eye(4, dtype=bool)
_FX_NONZERO[:2, 2:] = True
_FU_NONZERO = np.array([[True, True],
                        [True, True],
                        [False, True],
                        [True, False]])


def _f(x, u):
    """Point-mass vector field on state and input components, see rk4."""
    _, _, psi, nu = x
    return nu * np.cos(psi), nu * np.sin(psi), u[1], u[0]


def _jac(Y, U):
    """df/dx and df/du of the point mass at every state of Y (..., 4)."""
    psi, nu = Y[..., 2], Y[..., 3]
    cos, sin = np.cos(psi), np.sin(psi)
    A = np.zeros(Y.shape + (4,))
    A[..., 0, 2] = -nu * sin
    A[..., 0, 3] = cos
    A[..., 1, 2] = nu * cos
    A[..., 1, 3] = sin
    return A, np.broadcast_to(_B, Y.shape[:-1] + _B.shape)


def discretize_dynamics(xi: EgoModelState, lam: ControlInput,
                        T_sL: float) -> EgoModelState:
    """One zero-order-hold step of the point-mass model."""
    if T_sL <= 0:
        raise ValueError("T_sL must be positive")
    return EgoModelState.from_array(
        rk4(_f, (xi.s, xi.d, xi.psi, xi.nu), (lam.alpha, lam.omega), T_sL)[0])


# -- terminal set -----------------------------------------------------------


def braking_distance(nu_ter: float, tau: float, alpha_min: float,
                     j_max: float) -> float:
    """Stopping distance from speed nu_ter: reaction delay, jerk-limited
    ramp-in, then constant maximum deceleration."""
    if alpha_min >= 0 or j_max <= 0 or tau < 0:
        raise ValueError("need alpha_min < 0, j_max > 0, tau >= 0")
    a = abs(alpha_min)
    return nu_ter * (tau + a / j_max + nu_ter / (2.0 * a))


def _lane_leaders(forecasts, path: ReferencePath, xi0: EgoModelState):
    """Forecasts ahead of the ego in its current lane, nearest first."""
    ego_lane_center = path.lane_center(path.lane_index_of(xi0.d))
    leaders = [fc for fc in forecasts
               if abs(fc.d_o - ego_lane_center) < 0.5 * path.lane_width
               and fc.s_center[0] > xi0.s]
    leaders.sort(key=lambda fc: float(fc.s_center[0]))
    return leaders


def _terminal_box(leaders, cfg: PlannerConfig, path: ReferencePath,
                  xi0: EgoModelState, d_center: float | None) -> TerminalBox:
    if d_center is None:
        d_center = path.rightmost_lane_center
    D = braking_distance(cfg.nu_ter, cfg.tau, cfg.alpha_min, cfg.j_max)
    s_t = path.length
    for fc in leaders:
        N = fc.steps
        s_t = min(s_t, float(fc.s_center[N] - 0.5 * fc.delta_s[N] - D))
    if s_t < xi0.s:
        raise EmptyTerminalSet(
            f"safe-stop bound s_t={s_t:.2f} behind ego s={xi0.s:.2f}")
    return TerminalBox(s_max=s_t, d_center=float(d_center), eps_d=cfg.eps_d,
                       eps_psi=cfg.eps_psi, nu_max=cfg.nu_ter)


def terminal_set(forecasts, cfg: PlannerConfig, path: ReferencePath,
                 xi0: EgoModelState, d_center: float | None = None) -> TerminalBox:
    """Safe-stop box at the end of the horizon.

    The longitudinal bound s_t sits the ego stopping distance behind the
    lower edge of the end-of-horizon reachable set of the nearest leading
    obstacle in the ego lane; lateral/heading/speed bounds are fixed
    tolerances around a stand-still in lane.
    """
    return _terminal_box(_lane_leaders(forecasts, path, xi0), cfg, path, xi0,
                         d_center)


# -- initial guess / warm start --------------------------------------------


def shift_warm_start(warm: PlannedTrajectory, cfg: PlannerConfig):
    """Shift the previous solution by one instance period and pad by coasting.

    Returns (states (N_L+1, 4), inputs (N_L, 2)) aligned with the new t0.
    """
    k = cfg.shift_steps
    states = np.array([x.as_array() for x in warm.states])
    inputs = np.array([u.as_array() for u in warm.inputs])
    if k >= len(inputs):
        k = len(inputs) - 1
    states = states[k:]
    inputs = inputs[k:]
    pad = cfg.N_L - len(inputs)
    if pad > 0:
        coast = np.zeros((pad, 2))
        tail = rollout(_f, states[-1], coast, cfg.T_sL)[0]
        states = np.vstack([states, tail[1:]])
        inputs = np.vstack([inputs, coast])
    return states[:cfg.N_L + 1], inputs[:cfg.N_L]


def _initial_guess(xi0: EgoModelState, cfg: PlannerConfig,
                   warm_start: PlannedTrajectory | None):
    if warm_start is not None and not warm_start.fallback:
        states, inputs = shift_warm_start(warm_start, cfg)
        states = states.copy()
        states[0] = xi0.as_array()
        return states, inputs
    inputs = np.zeros((cfg.N_L, 2))
    states = rollout(_f, xi0.as_array(), inputs, cfg.T_sL)[0]
    return states, inputs


def _follow_guess(xi0: EgoModelState, leader, box: TerminalBox,
                  cfg: PlannerConfig):
    """Leader-following initial guess: relax toward the leader's pace while
    staying behind its predicted rear edge and inside the safe-stop bound."""
    N, h = cfg.N_L, cfg.T_sL
    v_lead = max((float(leader.s_center[leader.steps])
                  - float(leader.s_center[0])) / (leader.steps * h), 0.0)
    rate = 0.25
    nu = np.empty(N + 1)
    nu[0] = xi0.nu
    for j in range(N):
        nu[j + 1] = nu[j] + float(np.clip(v_lead - nu[j], -rate * h, rate * h))
    s = np.empty(N + 1)
    s[0] = xi0.s
    s[1:] = xi0.s + np.cumsum(0.5 * h * (nu[:-1] + nu[1:]))

    env = np.full(N + 1, np.inf)
    for j in range(1, N + 1):
        env[j] = float(leader.s_min[min(j, leader.steps)]) - 20.0
    env[N] = min(env[N], box.s_max - 1.0)
    s = np.maximum.accumulate(np.minimum(s, env))
    nu = np.clip(np.diff(s, append=s[-1]) / h, 0.0, cfg.v_max)
    nu[-1] = min(nu[-1], cfg.nu_ter)

    d = np.full(N + 1, box.d_center)
    d[0] = xi0.d
    psi = np.zeros(N + 1)
    psi[0] = xi0.psi
    omega = np.clip(np.diff(psi) / h, -cfg.omega_max, cfg.omega_max)
    alpha = np.clip(np.diff(nu) / h, cfg.alpha_min, cfg.alpha_max)
    states = np.stack([s, d, psi, nu], axis=1)
    inputs = np.stack([alpha, omega], axis=1)
    return states, inputs


def _pass_guess(xi0: EgoModelState, leader, cfg: PlannerConfig,
                path: ReferencePath, pcfg: PotentialConfig):
    """Kinematically plausible overtaking initial guess: speed up toward the
    desired speed, sidestep into the next lane while overlapping the leader's
    reachable set, merge back and ramp down to the terminal speed."""
    N, h = cfg.N_L, cfg.T_sL
    v_tgt = min(pcfg.v_des, cfg.v_max)
    rate = 0.3  # gentle guess acceleration, m/s^2

    nu = np.empty(N + 1)
    nu[0] = xi0.nu
    for j in range(N):
        v_stop_ok = cfg.nu_ter + rate * h * (N - j - 1)
        tgt = min(v_tgt, v_stop_ok)
        nu[j + 1] = nu[j] + float(np.clip(tgt - nu[j], -rate * h, rate * h))
    s = np.empty(N + 1)
    s[0] = xi0.s
    s[1:] = xi0.s + np.cumsum(0.5 * h * (nu[:-1] + nu[1:]))

    right_c = path.rightmost_lane_center
    left_c = path.lane_center(1) if path.lane_count > 1 else right_c
    raw = np.full(N + 1, right_c)
    for j in range(1, N + 1):
        if leader.s_min[min(j, leader.steps)] - 30.0 < s[j] < \
                leader.s_max[min(j, leader.steps)] + 15.0:
            raw[j] = left_c
    raw[-5:] = right_c
    kernel = np.ones(9) / 9.0
    d = np.convolve(np.pad(raw, 4, mode="edge"), kernel, mode="valid")
    d[0] = xi0.d

    psi = np.zeros(N + 1)
    psi[0] = xi0.psi
    for j in range(1, N):
        psi[j] = math.asin(float(np.clip(
            (d[j + 1] - d[j]) / (h * max(nu[j], 1.0)), -0.9, 0.9)))
    omega = np.clip(np.diff(psi) / h, -cfg.omega_max, cfg.omega_max)
    alpha = np.clip(np.diff(nu) / h, cfg.alpha_min, cfg.alpha_max)
    states = np.stack([s, d, psi, nu], axis=1)
    inputs = np.stack([alpha, omega], axis=1)
    return states, inputs


# -- FHOCP assembly ---------------------------------------------------------


class _LtpProgram:
    """Callbacks of the multiple-shooting NLP for one planner instance.

    Decision vector z = [x_1 .. x_N  (4 each) | u_0 .. u_{N-1} (2 each)];
    the initial state is a fixed parameter.
    """

    def __init__(self, xi0, forecasts, path, cfg: PlannerConfig,
                 pcfg: PotentialConfig, tvapf: TvapfParams,
                 guess_states, guess_inputs, box: TerminalBox,
                 alpha_prev: float | None):
        self.x0 = xi0.as_array()
        self.path = path
        self.cfg = cfg
        self.pcfg = pcfg
        self.tvapf = tvapf
        self.N = cfg.N_L
        self.n = 6 * self.N
        self.box = box
        self.alpha_prev = alpha_prev

        # per-step speed reference, frozen along the guess trajectory
        s_ref = np.clip(guess_states[1:, 0], 0.0, path.length)
        nu_ref = np.maximum(guess_states[1:, 3], 0.5)
        omega_ref = guess_inputs[:, 1]
        kappa_eff = np.abs(path.curvature(s_ref)) + np.abs(omega_ref) / nu_ref
        self.v_bar = effective_speed(pcfg.v_des, path.speed_limit_at(s_ref),
                                     kappa_eff, pcfg.a_l_max)

        self.z0 = np.concatenate([guess_states[1:].ravel(),
                                  guess_inputs.ravel()])
        self.lb, self.ub = self._bounds()

        # the states x_1 .. x_N meet the field at their own prediction steps
        self.field = ObstacleField(forecasts, np.arange(1, self.N + 1), tvapf)
        self._build_patterns()
        self._step_z = None

    def _build_patterns(self):
        """Index arrays of the acceleration-rate limits and the fixed sparsity
        patterns of the Hessian and both Jacobians; callbacks fill values."""
        N, n = self.N, self.n
        j = np.arange(N)
        b = 4 * j        # index of s_j; d_j, psi_j, nu_j follow
        iu = 4 * N + 2 * j  # index of alpha_j; omega_j follows

        # acceleration-rate limits |alpha_next - alpha_prev| <= bound, two
        # rows each; the extra index n stands for the pre-horizon alpha_prev
        first = 0 if self.alpha_prev is not None else 1
        self._rate_next = iu[first:]
        self._rate_prev = np.concatenate([[n], iu[:-1]])[first:]

        # inequality Jacobian: field rows on (s_j, d_j), then the rate rows
        # with +-1 on the next input and -+1 on the previous one
        k = len(self._rate_next)
        r = N + 2 * np.arange(k)
        inside = self._rate_prev < n
        self._ineq_pattern = SparsePattern(
            np.concatenate([j, j, r, r + 1, r[inside], r[inside] + 1]),
            np.concatenate([b, b + 1, self._rate_next, self._rate_next,
                            self._rate_prev[inside],
                            self._rate_prev[inside]]),
            (N + 2 * k, n))
        ones = np.ones(k)
        self._rate_jac = np.concatenate([ones, -ones, -ones[inside],
                                         ones[inside]])

        # dynamics defects x_j - F(x_{j-1}, u_j): identity on x_j, -Fx on
        # x_{j-1} (j >= 1) and -Fu on u_j, restricted to the entries the
        # model's structure can make nonzero
        fx_r, fx_c = np.nonzero(_FX_NONZERO)
        fu_r, fu_c = np.nonzero(_FU_NONZERO)
        self._eq_pattern = SparsePattern(
            np.concatenate([np.arange(4 * N),
                            (b[1:, None] + fx_r).ravel(),
                            (b[:, None] + fu_r).ravel()]),
            np.concatenate([np.arange(4 * N),
                            (b[:-1, None] + fx_c).ravel(),
                            (iu[:, None] + fu_c).ravel()]),
            (4 * N, n))

        # Hessian: speed, lateral, obstacle (s, d) blocks, comfort blocks
        inu = b[:-1] + 3  # nu_{j-1}, paired with omega_j for j >= 1
        iw = iu + 1
        self._hess_pattern = SparsePattern(
            np.concatenate([b + 3, b + 1, b, b, b + 1, b + 1,
                            iw, inu, inu, iw[1:]]),
            np.concatenate([b + 3, b + 1, b, b + 1, b, b + 1,
                            iw, inu, iw[1:], inu]),
            (n, n))

    # layout helpers
    def _states(self, z):
        return z[:4 * self.N].reshape(self.N, 4)

    def _inputs(self, z):
        return z[4 * self.N:].reshape(self.N, 2)

    def _bounds(self):
        N, cfg, path = self.N, self.cfg, self.path
        lb = np.empty(self.n)
        ub = np.empty(self.n)
        xs_lb = np.array([0.0, path.right_edge_offset + cfg.d_margin,
                          -cfg.psi_max, cfg.v_min])
        xs_ub = np.array([path.length, path.left_edge_offset - cfg.d_margin,
                          cfg.psi_max, cfg.v_max])
        lb[:4 * N] = np.tile(xs_lb, N)
        ub[:4 * N] = np.tile(xs_ub, N)
        # terminal safe-stop box intersected with the state box
        t = slice(4 * (N - 1), 4 * N)
        lb[t] = np.maximum(lb[t], [0.0, self.box.d_center - self.box.eps_d,
                                   -self.box.eps_psi, 0.0])
        ub[t] = np.minimum(ub[t], [self.box.s_max,
                                   self.box.d_center + self.box.eps_d,
                                   self.box.eps_psi, self.box.nu_max])
        if np.any(ub[t] - lb[t] <= 0):
            raise Infeasible("terminal set does not intersect the state box")
        u_lb = np.array([cfg.alpha_min + cfg.alpha_margin,
                         -(cfg.omega_max - cfg.omega_margin)])
        u_ub = np.array([cfg.alpha_max - cfg.alpha_margin,
                         cfg.omega_max - cfg.omega_margin])
        lb[4 * N:] = np.tile(u_lb, N)
        ub[4 * N:] = np.tile(u_ub, N)
        return lb, ub

    # -- cost --------------------------------------------------------------

    def objective(self, z):
        X = self._states(z)
        U = self._inputs(z)
        d = X[:, 1]
        nu = X[:, 3]
        pcfg = self.pcfg
        h_l, h_r, h_c = lateral_offsets(d, self.path)
        J = pcfg.K_v * float(np.sum((nu - self.v_bar) ** 2))
        J += pcfg.K_b * float(np.sum(boundary_potential(h_l, h_r, pcfg.eta)))
        J += pcfg.K_l * float(np.sum(lane_potential(h_c)))
        # comfort: input j paired with the speed state at the same step
        nu_at_u = np.concatenate([[self.x0[3]], nu[:-1]])
        J += pcfg.K_c * float(np.sum((nu_at_u * U[:, 1]) ** 2))
        J += self.cfg.K_o * float(np.sum(self.field.value(X[:, 0], d)))
        return J

    def gradient(self, z):
        X = self._states(z)
        U = self._inputs(z)
        d = X[:, 1]
        nu = X[:, 3]
        pcfg = self.pcfg
        g = np.zeros(self.n)
        gX = g[:4 * self.N].reshape(self.N, 4)
        gU = g[4 * self.N:].reshape(self.N, 2)

        gX[:, 3] += 2.0 * pcfg.K_v * (nu - self.v_bar)

        h_l, h_r, h_c = lateral_offsets(d, self.path)
        gl, gr = boundary_potential_grad(h_l, h_r, pcfg.eta)
        gX[:, 1] += pcfg.K_b * (-gl + gr)
        gX[:, 1] += pcfg.K_l * (-lane_potential_grad(h_c))

        nu_at_u = np.concatenate([[self.x0[3]], nu[:-1]])
        gU[:, 1] += 2.0 * pcfg.K_c * nu_at_u ** 2 * U[:, 1]
        gX[:-1, 3] += 2.0 * pcfg.K_c * nu_at_u[1:] * U[1:, 1] ** 2

        gs, gd = self.field.grad(X[:, 0], d)
        gX[:, 0] += self.cfg.K_o * gs
        gX[:, 1] += self.cfg.K_o * gd
        return g

    def hessian(self, z, y_eq, w_ineq):
        """Positive-semidefinite Gauss-Newton approximation of the cost
        Hessian; constraint curvature is left to the interior-point method."""
        N = self.N
        X = self._states(z)
        om = self._inputs(z)[:, 1]
        d = X[:, 1]
        nu = X[:, 3]
        pcfg = self.pcfg

        # lateral curvature, clamped to keep the block PSD
        h_l, h_r, h_c = lateral_offsets(d, self.path)
        lateral = np.maximum(
            pcfg.K_b * boundary_potential_curv(h_l, h_r, pcfg.eta)
            + pcfg.K_l * lane_potential_curv(h_c), 0.0) + 1e-8

        # obstacle-field curvature (cost weight + constraint multiplier),
        # per-step 2x2 block over (s, d), projected onto the PSD cone
        Wss, Wsd, Wdd = self.field.curvature(X[:, 0], d)
        mult = self.cfg.K_o + (np.asarray(w_ineq[:N], dtype=float)
                               if w_ineq is not None and len(w_ineq) >= N
                               else 0.0)
        a, b, e = mult * Wss, mult * Wsd, mult * Wdd
        half = 0.5 * (a - e)
        disc = np.sqrt(half * half + b * b)
        l1 = 0.5 * (a + e) + disc
        l2 = 0.5 * (a + e) - disc
        # an indefinite block keeps its positive eigenpair l1 v v' / |v|^2
        flat = np.abs(b) <= 1e-300
        vx = np.where(flat, np.where(a >= e, 1.0, 0.0), b)
        vy = np.where(flat, np.where(a >= e, 0.0, 1.0), l1 - a)
        norm2 = vx * vx + vy * vy
        psd = l2 >= 0.0
        keep = (l1 > 0.0) & (psd | (norm2 > 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = l1 / norm2
            Pss = np.where(keep, np.where(psd, a, scale * vx * vx), 0.0)
            Psd = np.where(keep, np.where(psd, b, scale * vx * vy), 0.0)
            Pdd = np.where(keep, np.where(psd, e, scale * vy * vy), 0.0)

        # comfort term K_c (nu_{j-1} omega_j)^2, Gauss-Newton block
        nu_at_u = np.concatenate([[self.x0[3]], nu[:-1]])
        cross = 2.0 * pcfg.K_c * nu_at_u[1:] * om[1:]
        return self._hess_pattern.matrix(np.concatenate([
            np.full(N, 2.0 * pcfg.K_v), lateral, Pss, Psd, Psd, Pdd,
            2.0 * pcfg.K_c * nu_at_u * nu_at_u + 1e-8,
            2.0 * pcfg.K_c * om[1:] * om[1:], cross, cross]))

    # -- dynamics equalities ------------------------------------------------

    def _step(self, z):
        """(U, x_next, Y): the inputs, and the RK4 step from each stage's
        previous state with its stage points, as components over stages.
        The last iterate's step is kept for the Jacobian at the same z."""
        if self._step_z is not None and np.array_equal(z, self._step_z):
            return self._step_out
        z = np.array(z, dtype=float)
        prev = np.concatenate([self.x0[None, :], self._states(z)[:-1]])
        U = self._inputs(z)
        self._step_z, self._step_out = z, (U,) + rk4(_f, prev.T, U.T,
                                                      self.cfg.T_sL)
        return self._step_out

    def eq_constraints(self, z):
        return (self._states(z) - np.transpose(self._step(z)[1])).ravel()

    def eq_jacobian(self, z):
        U, _, Y = self._step(z)
        Fx, Fu = rk4_jacobians(_jac, np.transpose(Y, (0, 2, 1)), U,
                               self.cfg.T_sL)
        return self._eq_pattern.matrix(np.concatenate([
            np.ones(4 * self.N), -Fx[1:, _FX_NONZERO].ravel(),
            -Fu[:, _FU_NONZERO].ravel()]))

    # -- inequalities -------------------------------------------------------

    def ineq_constraints(self, z):
        X = self._states(z)
        O = self.field.value(X[:, 0], X[:, 1])
        ze = np.append(z, 0.0 if self.alpha_prev is None else self.alpha_prev)
        diff = ze[self._rate_next] - ze[self._rate_prev]
        bound = self.cfg.delta_alpha_max
        return np.concatenate([
            O - self.tvapf.epsilon_o,
            np.stack([diff - bound, -diff - bound], axis=1).ravel()])

    def ineq_jacobian(self, z):
        X = self._states(z)
        gs, gd = self.field.grad(X[:, 0], X[:, 1])
        return self._ineq_pattern.matrix(
            np.concatenate([gs, gd, self._rate_jac]))

    def to_problem(self) -> NlpProblem:
        return NlpProblem(
            n=self.n,
            objective=self.objective,
            gradient=self.gradient,
            z0=self.z0,
            eq_constraints=self.eq_constraints,
            eq_jacobian=self.eq_jacobian,
            ineq_constraints=self.ineq_constraints,
            ineq_jacobian=self.ineq_jacobian,
            lb=self.lb,
            ub=self.ub,
            hessian=self.hessian,
        )


# -- public entry points ----------------------------------------------------


def solve_ltp(xi0: EgoModelState, forecasts, path: ReferencePath,
              cfg: PlannerConfig, potentials_cfg: PotentialConfig,
              tvapf: TvapfParams | None = None,
              warm_start: PlannedTrajectory | None = None,
              t0: float = 0.0,
              alpha_prev: float | None = None) -> PlannedTrajectory:
    """Solve one planner instance and return the published trajectory.

    Raises Infeasible when no feasible trajectory exists (callers fall back
    to safe_stop_trajectory) and EmptyTerminalSet when the safe-stop bound
    already lies behind the ego.
    """
    tvapf = tvapf or TvapfParams()
    guess_states, guess_inputs = _initial_guess(xi0, cfg, warm_start)
    d_center = None
    if warm_start is not None and not warm_start.fallback:
        d_center = path.lane_center(path.lane_index_of(guess_states[-1, 1]))
    leaders = _lane_leaders(forecasts, path, xi0)

    # Candidate terminal anchors.  The safe-stop bound must sit behind the
    # obstacle the ego ultimately stops behind, which depends on whether the
    # plan passes the nearest leader; both completions are posed as ordinary
    # continuous programs and the cheaper feasible one is published.
    candidates = []
    box0 = None
    try:
        box0 = _terminal_box(leaders, cfg, path, xi0, d_center)
        if leaders and (warm_start is None or warm_start.fallback):
            g_s, g_i = _follow_guess(xi0, leaders[0], box0, cfg)
        else:
            g_s, g_i = guess_states, guess_inputs
        candidates.append(("stay", box0, g_s, g_i))
    except EmptyTerminalSet:
        pass
    pass_attempted = False
    if leaders:
        horizon_reach = xi0.s + cfg.v_max * cfg.N_L * cfg.T_sL
        if box0 is None or box0.s_max < horizon_reach:
            try:
                box1 = _terminal_box(leaders[1:], cfg, path, xi0, None)
            except EmptyTerminalSet:
                box1 = None
            if box1 is not None and (box0 is None
                                     or box1.s_max > box0.s_max + 1.0):
                pg_states, pg_inputs = _pass_guess(xi0, leaders[0], cfg, path,
                                                   potentials_cfg)
                candidates.append(("pass", box1, pg_states, pg_inputs))
                pass_attempted = True
    if not candidates:
        raise EmptyTerminalSet(
            f"planner instance at t0={t0:.1f}s: no terminal anchor ahead of "
            f"ego s={xi0.s:.2f}")

    solved = []
    cand_stats = []
    for name, box, g_states, g_inputs in candidates:
        try:
            prog = _LtpProgram(xi0, forecasts, path, cfg, potentials_cfg,
                               tvapf, g_states, g_inputs, box, alpha_prev)
        except Infeasible:
            cand_stats.append({"candidate": name, "status": "empty_box"})
            continue
        result = solve(prog.to_problem(), cfg.solver)
        feasible = result.status in (SolveStatus.OPTIMAL,
                                     SolveStatus.FEASIBLE_POINT)
        U = prog._inputs(result.z)
        X = rollout(_f, xi0.as_array(), U, cfg.T_sL)[0]
        overtakes = bool(any(path.lane_index_of(float(x[1])) > 0 for x in X))
        cand_stats.append({
            "candidate": name,
            "status": result.status.value,
            "objective": result.objective,
            "iterations": result.iterations,
            "violation": result.constraint_violation,
            "wall_time": result.wall_time,
            "overtakes": overtakes,
        })
        if feasible:
            solved.append((float(result.objective), name, box, result, U, X))
    if not solved:
        raise Infeasible(
            f"planner instance at t0={t0:.1f}s: no feasible candidate "
            f"({[c['status'] for c in cand_stats]})")

    solved.sort(key=lambda item: (item[0], item[1]))
    obj, name, box, result, U, X = solved[0]

    # Published states re-integrate the optimal inputs so they satisfy the
    # dynamics exactly, not merely to solver tolerance.
    states = tuple(EgoModelState.from_array(x) for x in X)
    inputs = tuple(ControlInput(alpha=float(u[0]), omega=float(u[1]))
                   for u in U)
    stats = {
        "status": result.status.value,
        "candidate": name,
        "iterations": result.iterations,
        "objective": obj,
        "wall_time": sum(c.get("wall_time", 0.0) for c in cand_stats),
        "kkt_error": result.kkt_error,
        "constraint_violation": result.constraint_violation,
        "terminal_s_max": box.s_max,
        "overtake_feasible": (any(c.get("overtakes") and c["status"] in
                                  ("optimal", "feasible_point")
                                  for c in cand_stats)
                              if pass_attempted else None),
        "candidates": cand_stats,
    }
    return PlannedTrajectory(t0=t0, T_sL=cfg.T_sL, states=states,
                             inputs=inputs, solve_stats=stats)


def safe_stop_trajectory(xi0: EgoModelState, cfg: PlannerConfig,
                         t0: float = 0.0,
                         alpha_prev: float = 0.0) -> PlannedTrajectory:
    """Jerk-limited maximum-braking trajectory in the current lane.

    This is the always-available fallback the terminal-set construction
    guarantees: ramp the acceleration to its lower bound at the jerk limit,
    hold until stand-still, steer the heading to zero.
    """
    h = cfg.T_sL
    x = xi0.as_array().tolist()
    states = [x]
    inputs = []
    alpha = float(alpha_prev)
    for _ in range(cfg.N_L):
        alpha = max(alpha - cfg.j_max * h, cfg.alpha_min)
        a = alpha if x[3] > 1e-9 else 0.0
        # stop exactly at zero speed instead of integrating through it
        if x[3] + a * h < 0.0:
            a = -x[3] / h
        omega = float(np.clip(-x[2] / h, -cfg.omega_max, cfg.omega_max))
        u = (a, omega)
        x = rk4(_f, x, u, h)[0]
        x[3] = max(x[3], 0.0)
        states.append(x)
        inputs.append(u)
    return PlannedTrajectory(
        t0=t0, T_sL=h,
        states=tuple(EgoModelState.from_array(xx) for xx in states),
        inputs=tuple(ControlInput(alpha=float(u[0]), omega=float(u[1]))
                     for u in inputs),
        solve_stats={"status": "fallback"},
        fallback=True)


def decision_label(traj: PlannedTrajectory, path: ReferencePath,
                   forecasts, v_des: float = 12.0) -> Decision:
    """Post-hoc classification of the emergent maneuver for logs and tests."""
    if traj.fallback:
        return Decision.SAFE_STOP
    lanes = {path.lane_index_of(x.d) for x in traj.states}
    if any(lane > 0 for lane in lanes):
        return Decision.OVERTAKE
    s0 = traj.states[0].s
    nu_end = traj.states[-1].nu
    has_leader = any(
        abs(fc.d_o - path.rightmost_lane_center) < 0.5 * path.lane_width
        and fc.s_center[0] > s0 and fc.direction > 0
        for fc in forecasts)
    if has_leader and nu_end < 0.9 * v_des:
        return Decision.FOLLOW_LEADER
    return Decision.KEEP_LANE
