"""Local trajectory planner: a finite-horizon optimal control problem whose
solution is simultaneously the maneuver decision and the reference trajectory.

The planner optimizes jointly over a state sequence and an input sequence of a
point-mass model in road-aligned coordinates (direct multiple shooting, RK4
discretization).  Static potentials shape speed and lane preference, the
time-varying obstacle fields enter both as a weighted cost and as hard
inequality constraints, and a safe-stop terminal set guarantees a feasible
braking continuation behind the nearest same-lane leader.  ``solve_ltp``
poses the program for up to two terminal sets, each solved cold from its own
guess: ``stay`` stops behind the nearest leader in the ego lane from a guess
that follows it, or at the path end from a coasting guess, and ``pass``,
posed only when that bound falls short of the horizon's reach, stops behind
the next leader from a guess that overtakes it.  The cheaper feasible
solution is published, ``stay`` when the two tie to ``TIE_RTOL``; within
each program the lane change, the following distance and the braking
profile emerge from one continuous optimization.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from .dynamics import rk4, rk4_jacobians, rollout
from .geometry import ReferencePath
from .potentials import (PotentialConfig, boundary_potential,
                         effective_speed, lane_potential, lateral_offsets)
from .prediction import ObstacleField, TvapfParams
from .solver import (NlpProblem, SolveOptions, SolveStatus, SparsePattern,
                     solve)


class Infeasible(Exception):
    """No feasible trajectory exists for the posed program."""


class EmptyTerminalSet(Infeasible):
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


# Admissible state set of the point mass; its speed box is the one speed box
# of the stack, which the tracker and the scenario's speeds share.
V_MIN = 0.0
V_MAX = 12.5
PSI_MAX = 1.2
D_MARGIN = 0.2
# admissible input set; its deceleration bound is PlannerConfig.alpha_min
ALPHA_MAX = 0.9
OMEGA_MAX = 0.0775
# headroom the planner leaves inside its own input box so the tracker, whose
# authority is strictly inside the planner's, can still reject disturbances
# while tracking a saturated plan
ALPHA_MARGIN = 0.1
OMEGA_MARGIN = 0.005
# admissible acceleration change per step
DELTA_ALPHA_MAX = 0.3
SOLVE_OPTIONS = SolveOptions(tol=1e-6, max_iter=150)


@dataclass(frozen=True)
class PlannerConfig:
    """Horizon, braking and terminal-set parameters of the planner, the
    entries a scenario sets; the fixed admissible sets are constants."""

    T_sL: float = 0.5
    N_L: int = 70
    instance_period: float = 5.0
    alpha_min: float = -0.9
    # terminal-set parameters
    tau: float = 0.5
    j_max: float = 0.9
    nu_ter: float = 5.0
    eps_d: float = 0.5
    eps_psi: float = 0.1
    # obstacle-field cost weight
    K_o: float = 20.0

    def __post_init__(self):
        if self.T_sL <= 0 or self.N_L < 1:
            raise ValueError("need T_sL > 0 and N_L >= 1")
        ratio = self.instance_period / self.T_sL
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ValueError("instance_period must be a positive multiple of T_sL")
        if not self.alpha_min < 0:
            raise ValueError("alpha_min must be negative")
        if self.j_max <= 0 or self.tau < 0 or self.nu_ter <= 0:
            raise ValueError("invalid terminal parameters")
        if self.eps_d <= 0 or self.eps_psi <= 0:
            raise ValueError("terminal box tolerances must be positive")
        if not (math.isfinite(self.K_o) and self.K_o >= 0):
            raise ValueError("K_o must be finite and non-negative")


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
                  xi0: EgoModelState) -> TerminalBox:
    D = braking_distance(cfg.nu_ter, cfg.tau, cfg.alpha_min, cfg.j_max)
    s_t = path.length
    for fc in leaders:
        N = fc.steps
        s_t = min(s_t, float(fc.s_center[N] - 0.5 * fc.delta_s[N] - D))
    if s_t < xi0.s:
        raise EmptyTerminalSet(
            f"safe-stop bound s_t={s_t:.2f} behind ego s={xi0.s:.2f}")
    return TerminalBox(s_max=s_t, d_center=float(path.rightmost_lane_center),
                       eps_d=cfg.eps_d, eps_psi=cfg.eps_psi, nu_max=cfg.nu_ter)


def terminal_set(forecasts, cfg: PlannerConfig, path: ReferencePath,
                 xi0: EgoModelState) -> TerminalBox:
    """Safe-stop box at the end of the horizon.

    The longitudinal bound s_t sits the ego stopping distance behind the
    lower edge of the end-of-horizon reachable set of the nearest leading
    obstacle in the ego lane; lateral/heading/speed bounds are fixed
    tolerances around a stand-still in the rightmost lane.
    """
    return _terminal_box(_lane_leaders(forecasts, path, xi0), cfg, path, xi0)


# -- initial guesses --------------------------------------------------------


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
    nu = np.clip(np.diff(s, append=s[-1]) / h, 0.0, V_MAX)
    nu[-1] = min(nu[-1], cfg.nu_ter)

    d = np.full(N + 1, box.d_center)
    d[0] = xi0.d
    psi = np.zeros(N + 1)
    psi[0] = xi0.psi
    omega = np.clip(np.diff(psi) / h, -OMEGA_MAX, OMEGA_MAX)
    alpha = np.clip(np.diff(nu) / h, cfg.alpha_min, ALPHA_MAX)
    states = np.stack([s, d, psi, nu], axis=1)
    inputs = np.stack([alpha, omega], axis=1)
    return states, inputs


def _pass_guess(xi0: EgoModelState, leader, cfg: PlannerConfig,
                path: ReferencePath, pcfg: PotentialConfig):
    """Kinematically plausible overtaking initial guess: speed up toward the
    desired speed, sidestep into the next lane while overlapping the leader's
    reachable set, merge back and ramp down to the terminal speed."""
    N, h = cfg.N_L, cfg.T_sL
    v_tgt = min(pcfg.v_des, V_MAX)
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
    omega = np.clip(np.diff(psi) / h, -OMEGA_MAX, OMEGA_MAX)
    alpha = np.clip(np.diff(nu) / h, cfg.alpha_min, ALPHA_MAX)
    states = np.stack([s, d, psi, nu], axis=1)
    inputs = np.stack([alpha, omega], axis=1)
    return states, inputs


# -- FHOCP assembly ---------------------------------------------------------


class _LtpProgram:
    """Callbacks of the multiple-shooting NLP for one planner instance.

    Decision vector z = [x_1 .. x_N  (4 each) | u_0 .. u_{N-1} (2 each)];
    the initial state is a fixed parameter.  Each point is evaluated once,
    by ``_at``, into one record that the seven callbacks only read; the
    last point's record is kept, since the solver asks for the values, the
    derivatives and the Hessian at one point in turn.
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
        self._z = None

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
        xs_lb = np.array([0.0, path.right_edge_offset + D_MARGIN,
                          -PSI_MAX, V_MIN])
        xs_ub = np.array([path.length, path.left_edge_offset - D_MARGIN,
                          PSI_MAX, V_MAX])
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
        u_lb = np.array([cfg.alpha_min + ALPHA_MARGIN,
                         -(OMEGA_MAX - OMEGA_MARGIN)])
        u_ub = np.array([ALPHA_MAX - ALPHA_MARGIN, OMEGA_MAX - OMEGA_MARGIN])
        lb[4 * N:] = np.tile(u_lb, N)
        ub[4 * N:] = np.tile(u_ub, N)
        return lb, ub

    def _at(self, z):
        """The record of everything the callbacks read at z: the states X
        (N, 4) and inputs U (N, 2), the speed state paired with each input,
        the (value, d/dd, d2/dd2) triples of the boundary and the lane
        potential, the field's terms, and the RK4 step from each stage's
        previous state with its stage points, as components over stages.
        z is copied and compared by value, since a caller may pass a fresh
        array or change its own."""
        if self._z is not None and np.array_equal(z, self._z):
            return self._rec
        z = np.array(z, dtype=float)
        X, U = self._states(z), self._inputs(z)
        h_l, h_r, h_c = lateral_offsets(X[:, 1], self.path)
        prev = np.concatenate([self.x0[None, :], X[:-1]])
        x_next, Y = rk4(_f, prev.T, U.T, self.cfg.T_sL)
        self._z, self._rec = z, SimpleNamespace(
            X=X, U=U,
            # comfort: input j paired with the speed state at the same step
            nu_at_u=np.concatenate([[self.x0[3]], X[:-1, 3]]),
            boundary=boundary_potential(h_l, h_r, self.pcfg.eta),
            lane=lane_potential(h_c),
            field=self.field.at(X[:, 0], X[:, 1]),
            x_next=x_next, Y=Y)
        return self._rec

    # -- cost --------------------------------------------------------------

    def objective(self, z):
        r = self._at(z)
        pcfg = self.pcfg
        J = pcfg.K_v * float(((r.X[:, 3] - self.v_bar) ** 2).sum())
        J += pcfg.K_b * float(r.boundary[0].sum())
        J += pcfg.K_l * float(r.lane[0].sum())
        J += pcfg.K_c * float(((r.nu_at_u * r.U[:, 1]) ** 2).sum())
        J += self.cfg.K_o * float(r.field.value().sum())
        return J

    def gradient(self, z):
        r = self._at(z)
        pcfg = self.pcfg
        g = np.zeros(self.n)
        gX = g[:4 * self.N].reshape(self.N, 4)
        gU = g[4 * self.N:].reshape(self.N, 2)

        gX[:, 3] += 2.0 * pcfg.K_v * (r.X[:, 3] - self.v_bar)
        gX[:, 1] += pcfg.K_b * r.boundary[1]
        gX[:, 1] += pcfg.K_l * r.lane[1]

        nu_at_u, om = r.nu_at_u, r.U[:, 1]
        gU[:, 1] += 2.0 * pcfg.K_c * nu_at_u ** 2 * om
        gX[:-1, 3] += 2.0 * pcfg.K_c * nu_at_u[1:] * om[1:] ** 2

        gs, gd = r.field.grad()
        gX[:, 0] += self.cfg.K_o * gs
        gX[:, 1] += self.cfg.K_o * gd
        return g

    def hessian(self, z, y_eq, w_ineq):
        """Positive-semidefinite Gauss-Newton approximation of the
        Lagrangian's Hessian: the cost's curvature, and that of the field
        rows weighted by their multipliers w_ineq[:N].  The rate rows are
        linear; the curvature of the dynamics (y_eq) is left out."""
        N = self.N
        r = self._at(z)
        pcfg = self.pcfg

        # lateral curvature, clamped to keep the block PSD
        lateral = np.maximum(pcfg.K_b * r.boundary[2]
                             + pcfg.K_l * r.lane[2], 0.0) + 1e-8

        # obstacle field (cost weight + constraint multiplier), per-step
        # Gauss-Newton block over (s, d)
        mult = self.cfg.K_o + w_ineq[:N]
        Gss, Gsd, Gdd = (mult * g for g in r.field.gauss_newton())

        # comfort term K_c (nu_{j-1} omega_j)^2, Gauss-Newton block
        nu_at_u, om = r.nu_at_u, r.U[:, 1]
        cross = 2.0 * pcfg.K_c * nu_at_u[1:] * om[1:]
        return self._hess_pattern.matrix(np.concatenate([
            np.full(N, 2.0 * pcfg.K_v), lateral, Gss, Gsd, Gsd, Gdd,
            2.0 * pcfg.K_c * nu_at_u * nu_at_u + 1e-8,
            2.0 * pcfg.K_c * om[1:] * om[1:], cross, cross]))

    # -- dynamics equalities ------------------------------------------------

    def eq_constraints(self, z):
        r = self._at(z)
        return (r.X - np.transpose(r.x_next)).ravel()

    def eq_jacobian(self, z):
        r = self._at(z)
        Fx, Fu = rk4_jacobians(_jac, np.transpose(r.Y, (0, 2, 1)), r.U,
                               self.cfg.T_sL)
        return self._eq_pattern.matrix(np.concatenate([
            np.ones(4 * self.N), -Fx[1:, _FX_NONZERO].ravel(),
            -Fu[:, _FU_NONZERO].ravel()]))

    # -- inequalities -------------------------------------------------------

    def ineq_constraints(self, z):
        O = self._at(z).field.value()
        ze = np.append(z, 0.0 if self.alpha_prev is None else self.alpha_prev)
        diff = ze[self._rate_next] - ze[self._rate_prev]
        bound = DELTA_ALPHA_MAX
        return np.concatenate([
            O - self.tvapf.epsilon_o,
            np.stack([diff - bound, -diff - bound], axis=1).ravel()])

    def ineq_jacobian(self, z):
        gs, gd = self._at(z).field.grad()
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

# Candidates whose objectives agree to this relative tolerance reached one
# plan from two seeds; ``stay`` is published then, not the rounding winner.
# On overtake seeds 0-4 such ties part by 3.3e-10 at most, and distinct
# plans by 1.2e-2 at least.
TIE_RTOL = 1e-8


def solve_ltp(xi0: EgoModelState, forecasts, path: ReferencePath,
              cfg: PlannerConfig, potentials_cfg: PotentialConfig,
              tvapf: TvapfParams | None = None,
              warm_start: None = None,
              t0: float = 0.0,
              alpha_prev: float | None = None) -> PlannedTrajectory:
    """Solve one planner instance and return the published trajectory.

    Each candidate solves cold from its own guess; ``warm_start`` is kept
    only for callers that still pass it, and must be None.
    Raises Infeasible when no feasible trajectory exists (callers fall back
    to safe_stop_trajectory), as its subclass EmptyTerminalSet when the
    safe-stop bound already lies behind the ego.
    """
    if warm_start is not None:
        raise ValueError("solve_ltp solves cold: warm_start must be None")
    tvapf = tvapf or TvapfParams()
    leaders = _lane_leaders(forecasts, path, xi0)

    # Candidate terminal anchors.  The safe-stop bound must sit behind the
    # obstacle the ego ultimately stops behind, which depends on whether the
    # plan passes the nearest leader; both completions are posed as ordinary
    # continuous programs and the cheaper feasible one is published.
    candidates = []
    box0 = None
    try:
        box0 = _terminal_box(leaders, cfg, path, xi0)
        if leaders:
            g_s, g_i = _follow_guess(xi0, leaders[0], box0, cfg)
        else:
            g_i = np.zeros((cfg.N_L, 2))
            g_s = rollout(_f, xi0.as_array(), g_i, cfg.T_sL)[0]
        candidates.append(("stay", box0, g_s, g_i))
    except EmptyTerminalSet:
        pass
    pass_attempted = False
    if leaders:
        horizon_reach = xi0.s + V_MAX * cfg.N_L * cfg.T_sL
        if box0 is None or box0.s_max < horizon_reach:
            try:
                box1 = _terminal_box(leaders[1:], cfg, path, xi0)
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
        result = solve(prog.to_problem(), SOLVE_OPTIONS)
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
            "termination": result.termination,
            "factorizations": result.factorizations,
            "backtracks": result.backtracks,
            "reg_retries": result.reg_retries,
        })
        if feasible:
            solved.append((float(result.objective), name, box, result, U, X))
    if not solved:
        raise Infeasible(
            f"planner instance at t0={t0:.1f}s: no feasible candidate "
            f"({[c['status'] for c in cand_stats]})")

    best = min(item[0] for item in solved)
    obj, name, box, result, U, X = min(solved, key=lambda item: (
        item[0] - best > TIE_RTOL * abs(best), item[1] != "stay", item[0]))

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
        "terminal_set": asdict(box),
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
        omega = float(np.clip(-x[2] / h, -OMEGA_MAX, OMEGA_MAX))
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
                   forecasts, v_des: float) -> Decision:
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
