"""Local trajectory planner: a finite-horizon optimal control problem whose
solution is simultaneously the maneuver decision and the reference trajectory.

The planner optimizes jointly over a state sequence and an input sequence of a
point-mass model in road-aligned coordinates (direct multiple shooting, RK4
discretization).  Static potentials shape speed and lane preference, the
time-varying obstacle fields enter both as a weighted cost and as hard
inequality constraints, and a safe-stop terminal set guarantees a feasible
braking continuation behind the nearest same-lane leader.  ``_candidates``
is the maneuver set, up to two terminal sets each solved cold from its own
guess: ``stay`` stops behind every leader in the ego lane (or at the path
end), and ``pass``, posed only on a road with a second lane, when that bound
falls short of the horizon's reach and its own bound reaches more than 1 m
further, stops behind all but the nearest.  One rule, ``_guess``, seeds both
from the candidate's box and the leader it follows or passes.  The cheaper
feasible solution is published, ``stay`` when the two tie to ``TIE_RTOL``;
within each program the lane change, the following distance and the braking
profile emerge from one continuous optimization.

The published states are the point the solver certified: xi0, then the
states x_1 .. x_N of its decision vector, which meet the dynamics to the
solver's tolerance.  One function, ``_step``, integrates the model: the
program's whole horizon at once, and the safe-stop plan one state at a time.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from .geometry import ReferencePath
from .potentials import (PotentialConfig, boundary_potential,
                         effective_speed, lane_potential, lateral_offsets)
from .prediction import ObstacleField, TvapfParams
from .solver import (NlpProblem, SolveOptions, SolveStatus, SparsePattern,
                     solve)


class Infeasible(Exception):
    """No feasible trajectory exists for the posed program; ``candidates``
    holds the records of the candidate solves that failed, none when no
    candidate was posed."""

    def __init__(self, message, candidates=()):
        super().__init__(message)
        self.candidates = list(candidates)


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


def state_box(path: ReferencePath):
    """The admissible (lb, ub) of the point-mass state (s, d, psi, nu)."""
    right, left = path.right_edge_offset, path.left_edge_offset
    return (np.array([0.0, right + D_MARGIN, -PSI_MAX, V_MIN]),
            np.array([path.length, left - D_MARGIN, PSI_MAX, V_MAX]))


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


# Entries of the RK4 step Jacobians that the model's structure can make
# nonzero: f depends on x only through (psi, nu) and only in its first two
# rows, and u enters the last two rows directly.
_FX_NONZERO = np.eye(4, dtype=bool)
_FX_NONZERO[:2, 2:] = True
_FU_NONZERO = np.array([[True, True],
                        [True, True],
                        [False, True],
                        [True, False]])
# Where the entries (s, nu), (d, nu), (s, psi), (d, psi) of A = df/dx land
# among a step's _FX_NONZERO and its _FU_NONZERO entries, in row-major
# order; B = df/du feeds omega to psi and alpha to nu.
_FX_SLOTS = np.array([2, 5, 1, 4])
_FU_SLOTS = np.array([0, 2, 1, 3])


def _step(x, u, h):
    """One RK4 step of the point mass with the input held over [0, h],

        s' = nu cos psi,  d' = nu sin psi,  psi' = omega,  nu' = alpha,

    on a state x (4, ...) and an input u = (alpha, omega) (2, ...): one
    state of shape (4,), as the safe stop steps, or M of shape (4, M), as
    the program steps its whole horizon.

    psi and nu move with the constant inputs, so stages 2 and 3 share
    psi + h/2 omega and nu + h/2 alpha, k3 = k2, and the step needs cos and
    sin at three angles.  Returns the next state (4, ...) and the (psi, nu,
    cos psi, sin psi) of the three distinct stage points, (3, 4, ...)."""
    half, sixth = 0.5 * h, h / 6.0
    rate = u[::-1]
    stages = np.empty((3, 4) + x.shape[1:])
    stages[0, :2] = x[2:]
    np.add(x[2:], np.multiply.outer((half, h), rate), out=stages[1:, :2])
    np.cos(stages[:, 0], out=stages[:, 2])
    np.sin(stages[:, 0], out=stages[:, 3])
    # k at the three distinct stages, summed as k1 + 2 k2 + 2 k3 + k4
    k = np.empty_like(stages)
    np.multiply(stages[:, 1:2], stages[:, 2:], out=k[:, :2])
    k[:, 2:] = rate
    k23 = 2.0 * k[1]
    return x + sixth * (k[0] + k23 + k23 + k[2]), stages


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
    """Same-direction forecasts ahead of the ego in the rightmost lane, the
    lane the safe-stop box lies in, nearest first: oncoming traffic never
    anchors the stop, whichever lane the ego plans from."""
    lane = path.rightmost_lane_center
    leaders = [fc for fc in forecasts
               if fc.direction > 0
               and abs(fc.d_o - lane) < 0.5 * path.lane_width
               and fc.s_center[0] > xi0.s]
    leaders.sort(key=lambda fc: float(fc.s_center[0]))
    return leaders


def _terminal_box(leaders, cfg: PlannerConfig, path: ReferencePath,
                  xi0: EgoModelState) -> TerminalBox | None:
    """The safe-stop box behind ``leaders`` at the end of the horizon: s up
    to s_t, the ego stopping distance behind the lower edge of the nearest
    leader's end-of-horizon reachable set (or the path end), and fixed
    tolerances around a stand-still in the rightmost lane.  None if s_t
    lies behind the ego, or at the tie s_t = xi0.s = 0, where the s band
    [0, s_t] has no width; ``check_road`` keeps the d band nonempty."""
    D = braking_distance(cfg.nu_ter, cfg.tau, cfg.alpha_min, cfg.j_max)
    s_t = path.length
    for fc in leaders:
        N = fc.steps
        s_t = min(s_t, float(fc.s_center[N] - 0.5 * fc.delta_s[N] - D))
    if s_t < xi0.s or s_t <= 0.0:
        return None
    return TerminalBox(s_max=s_t, d_center=float(path.rightmost_lane_center),
                       eps_d=cfg.eps_d, eps_psi=cfg.eps_psi, nu_max=cfg.nu_ter)


def check_road(path: ReferencePath, cfg: PlannerConfig) -> None:
    """Refuse a road whose state box misses the terminal d band, eps_d
    around the rightmost lane centre: no maneuver can be posed on it."""
    lb, ub = state_box(path)
    c = path.rightmost_lane_center
    if min(ub[1], c + cfg.eps_d) <= max(lb[1], c - cfg.eps_d):
        raise ValueError(f"the terminal band {c:g} +- {cfg.eps_d:g} m misses "
                         f"the state box's d in [{lb[1]:g}, {ub[1]:g}] m")


# -- initial guesses --------------------------------------------------------


def _guess(xi0: EgoModelState, box: TerminalBox, behind, beside,
           cfg: PlannerConfig, path: ReferencePath, pcfg: PotentialConfig):
    """The seed (states, inputs) of a candidate with terminal box ``box``
    that follows the forecast ``behind`` and passes ``beside`` in lane 1;
    either may be None.

    The speed moves at 0.3 m/s^2 toward the least of v_des, V_MAX, the pace
    of ``behind`` and a ramp down to nu_ter at step N; positions follow by
    the trapezoid rule.  They are held 20 m behind the rear edge of
    ``behind`` and 1 m inside the box, and where that moves them the speed
    becomes their forward difference.  The lateral profile takes lane 1
    from 30 m behind ``beside`` to 15 m ahead of it, except over the last 5
    steps; a 9-step mean smooths it, and the heading follows it."""
    N, h = cfg.N_L, cfg.T_sL
    dv = 0.3 * h
    v_cap = min(pcfg.v_des, V_MAX)
    env = np.full(N + 1, np.inf)
    if behind is not None:
        pace = (behind.s_center[-1] - behind.s_center[0]) / (behind.steps * h)
        v_cap = min(v_cap, max(pace, 0.0))
        env[1:] = behind.s_min[np.minimum(np.arange(1, N + 1),
                                          behind.steps)] - 20.0
    env[N] = min(env[N], box.s_max - 1.0)
    nu = np.empty(N + 1)
    nu[0] = xi0.nu
    for j in range(N):
        tgt = min(v_cap, cfg.nu_ter + dv * (N - j - 1))
        nu[j + 1] = nu[j] + min(max(tgt - nu[j], -dv), dv)
    s = np.empty(N + 1)
    s[0] = xi0.s
    s[1:] = xi0.s + np.cumsum(0.5 * h * (nu[:-1] + nu[1:]))
    held = np.maximum.accumulate(np.minimum(s, env))
    moved = held != s
    nu[moved] = np.clip(np.diff(held, append=held[-1]) / h, 0.0,
                        V_MAX)[moved]
    s = held

    d = np.full(N + 1, box.d_center)
    if beside is not None:
        j = np.arange(1, N - 4)
        k = np.minimum(j, beside.steps)
        d[j[(beside.s_min[k] - 30.0 < s[j])
            & (s[j] < beside.s_max[k] + 15.0)]] = path.lane_center(1)
    d = np.convolve(np.pad(d, 4, mode="edge"), np.ones(9) / 9.0, "valid")
    d[0] = xi0.d
    psi = np.zeros(N + 1)
    psi[0] = xi0.psi
    slope = np.diff(d)[1:] / (h * np.maximum(nu[1:N], 1.0))
    psi[1:N] = np.arcsin(np.clip(slope, -0.9, 0.9))
    omega = np.clip(np.diff(psi) / h, -OMEGA_MAX, OMEGA_MAX)
    alpha = np.clip(np.diff(nu) / h, cfg.alpha_min, ALPHA_MAX)
    return (np.stack([s, d, psi, nu], axis=1),
            np.stack([alpha, omega], axis=1))


def _candidates(xi0: EgoModelState, forecasts, path: ReferencePath,
                cfg: PlannerConfig, pcfg: PotentialConfig):
    """The posed maneuvers in solve order, as (name, terminal box, (guess
    states, guess inputs)).

    The safe-stop bound must sit behind the obstacle the ego ultimately
    stops behind, which depends on whether the plan passes the nearest
    leader.  ``stay`` stops behind every lane leader from a guess that
    follows the nearest; ``pass``, posed only on a road with a second lane,
    stops behind all but the nearest from a guess that passes it there.
    Both guesses come from ``_guess``.
    """
    leaders = _lane_leaders(forecasts, path, xi0)
    nearest = leaders[0] if leaders else None
    stay = _terminal_box(leaders, cfg, path, xi0)
    posed = []
    if stay is not None:
        posed.append(("stay", stay, _guess(xi0, stay, nearest, None, cfg,
                                           path, pcfg)))
    s_stay = -math.inf if stay is None else stay.s_max
    if (leaders and path.lane_count > 1
            and s_stay < xi0.s + V_MAX * cfg.N_L * cfg.T_sL):
        box = _terminal_box(leaders[1:], cfg, path, xi0)
        if box is not None and box.s_max > s_stay + 1.0:
            posed.append(("pass", box, _guess(xi0, box, None, nearest, cfg,
                                              path, pcfg)))
    return posed


# -- FHOCP assembly ---------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _layout(N, h, has_alpha_prev):
    """Index arrays of the acceleration-rate limits, the fixed sparsity
    patterns of the Hessian and both Jacobians, and the constant values of
    the dynamics Jacobian of an N-step program with step h; callbacks fill
    the other values.  They depend on nothing else, so the programs of one
    horizon share them, and the arrays are read-only."""
    n = 6 * N
    j = np.arange(N)
    b = 4 * j        # index of s_j; d_j, psi_j, nu_j follow
    iu = 4 * N + 2 * j  # index of alpha_j; omega_j follows
    lay = SimpleNamespace()

    # acceleration-rate limits |alpha_next - alpha_prev| <= bound, two
    # rows each; the extra index n stands for the pre-horizon alpha_prev
    first = 0 if has_alpha_prev else 1
    lay.rate_next = iu[first:]
    lay.rate_prev = np.concatenate([[n], iu[:-1]])[first:]

    # inequality Jacobian: field rows on (s_j, d_j), then the rate rows
    # with +-1 on the next input and -+1 on the previous one
    k = len(lay.rate_next)
    r = N + 2 * np.arange(k)
    inside = lay.rate_prev < n
    lay.ineq_pattern = SparsePattern(
        np.concatenate([j, j, r, r + 1, r[inside], r[inside] + 1]),
        np.concatenate([b, b + 1, lay.rate_next, lay.rate_next,
                        lay.rate_prev[inside], lay.rate_prev[inside]]),
        (N + 2 * k, n))
    ones = np.ones(k)
    lay.rate_jac = np.concatenate([ones, -ones, -ones[inside], ones[inside]])

    # dynamics defects x_j - F(x_{j-1}, u_j): identity on x_j, -Fx on
    # x_{j-1} (j >= 1) and -Fu on u_j, restricted to the entries the
    # model's structure can make nonzero
    fx_r, fx_c = np.nonzero(_FX_NONZERO)
    fu_r, fu_c = np.nonzero(_FU_NONZERO)
    lay.eq_pattern = SparsePattern(
        np.concatenate([np.arange(4 * N), (b[1:, None] + fx_r).ravel(),
                        (b[:, None] + fu_r).ravel()]),
        np.concatenate([np.arange(4 * N), (b[:-1, None] + fx_c).ravel(),
                        (iu[:, None] + fu_c).ravel()]),
        (4 * N, n))
    # its constant values: the identity on x_j, Fx's unit diagonal and
    # h/6 * 6 on Fu's (psi, nu) rows; eq_jacobian writes the others at the
    # slots eq_fx (4, N - 1) and eq_fu (4, N), one row per entry of A
    fu0 = np.zeros(6)
    fu0[4:] = -(h / 6.0 * 6.0)
    lay.eq_vals = np.concatenate([
        np.ones(4 * N), np.tile(-np.eye(4)[_FX_NONZERO], N - 1),
        np.tile(fu0, N)])
    lay.eq_fx = 4 * N + 8 * j[:-1] + _FX_SLOTS[:, None]
    lay.eq_fu = 4 * N + 8 * (N - 1) + 6 * j + _FU_SLOTS[:, None]
    # stage i's A_i enters Fx as it is and Fu as c_i A_i B, with c_i = 0
    # (the first stage's term is B, zero on (s, d)), h/2 (stages 2 and 3,
    # which share their point) and h
    lay.stage_weights = np.array([[1.0, 1.0, 1.0],
                                  [0.0, 0.5 * h, h]]).T[:, :, None, None]

    # Hessian: speed, lateral, obstacle (s, d) blocks, comfort blocks
    inu = b[:-1] + 3  # nu_{j-1}, paired with omega_j for j >= 1
    iw = iu + 1
    lay.hess_pattern = SparsePattern(
        np.concatenate([b + 3, b + 1, b, b, b + 1, b + 1,
                        iw, inu, inu, iw[1:]]),
        np.concatenate([b + 3, b + 1, b, b + 1, b, b + 1,
                        iw, inu, iw[1:], inu]),
        (n, n))
    for a in vars(lay).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return lay


class _LtpProgram:
    """Callbacks of the multiple-shooting NLP for one planner instance.

    Decision vector z = [x_1 .. x_N  (4 each) | u_0 .. u_{N-1} (2 each)];
    the initial state is a fixed parameter.  Each point is evaluated once,
    by ``_at``, into one record that the seven callbacks only read; the
    last point's record is kept, since the solver asks for the values, the
    derivatives and the Hessian at one point in turn.  The Hessian and the
    Jacobians return their values on the layout's patterns, which
    ``to_problem`` declares.
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
        self.layout = _layout(self.N, cfg.T_sL, alpha_prev is not None)
        self._z = None

    # layout helpers
    def _states(self, z):
        return z[:4 * self.N].reshape(self.N, 4)

    def _inputs(self, z):
        return z[4 * self.N:].reshape(self.N, 2)

    def _bounds(self):
        N, cfg, box = self.N, self.cfg, self.box
        xs_lb, xs_ub = state_box(self.path)
        lb = np.empty(self.n)
        ub = np.empty(self.n)
        lb[:4 * N] = np.tile(xs_lb, N)
        ub[:4 * N] = np.tile(xs_ub, N)
        # terminal safe-stop box intersected with the state box
        t = slice(4 * (N - 1), 4 * N)
        lb[t] = np.maximum(lb[t], [0.0, box.d_center - box.eps_d,
                                   -box.eps_psi, 0.0])
        ub[t] = np.minimum(ub[t], [box.s_max, box.d_center + box.eps_d,
                                   box.eps_psi, box.nu_max])
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
        potential, the field's terms, their sum O over the forecasts and
        its gradient (dO/ds, dO/dd), formed with the value, the
        acceleration-rate differences, and the RK4 step from each stage's
        previous state with its three distinct stage points (see _step).
        z is copied and compared by value, since a caller may pass a fresh
        array or change its own."""
        z = np.asarray(z, dtype=float)
        last = self._z
        if (last is not None and z.shape == last.shape
                and not np.count_nonzero(z != last)):
            return self._rec
        # x0, a copy of z and alpha_prev in one buffer: the states x_0 ..
        # x_N are one (N + 1, 4) block, and z extended by alpha_prev is the
        # vector the rate rows index (alpha_prev at index n)
        N = self.N
        buf = np.empty(self.n + 5)
        buf[:4] = self.x0
        buf[4:-1] = z
        buf[-1] = 0.0 if self.alpha_prev is None else self.alpha_prev
        ze = buf[4:]
        z = ze[:-1]
        XX = buf[:4 * (N + 1)].reshape(N + 1, 4)
        X, U = XX[1:], self._inputs(z)
        prev = XX[:-1].T
        h_l, h_r, h_c = lateral_offsets(X[:, 1], self.path)
        x_next, stages = _step(prev, U.T, self.cfg.T_sL)
        field = self.field.at(X[:, 0], X[:, 1])
        self._z, self._rec = z, SimpleNamespace(
            X=X, U=U,
            # comfort: input j paired with the speed state at the same step
            nu_at_u=prev[3],
            boundary=boundary_potential(h_l, h_r, self.pcfg.eta),
            lane=lane_potential(h_c),
            field=field, O=field.value(), dO=field.grad(),
            rate=ze[self.layout.rate_next] - ze[self.layout.rate_prev],
            x_next=x_next, stages=stages)
        return self._rec

    # -- cost --------------------------------------------------------------

    def objective(self, z):
        r = self._at(z)
        pcfg = self.pcfg
        J = pcfg.K_v * float(((r.X[:, 3] - self.v_bar) ** 2).sum())
        J += pcfg.K_b * float(r.boundary[0].sum())
        J += pcfg.K_l * float(r.lane[0].sum())
        J += pcfg.K_c * float(((r.nu_at_u * r.U[:, 1]) ** 2).sum())
        J += self.cfg.K_o * float(r.O.sum())
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

        gs, gd = r.dO
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
        # Gauss-Newton block over (s, d): its (ss, sd, dd) rows
        G = (self.cfg.K_o + w_ineq[:N]) * r.field.gauss_newton()

        # comfort term K_c (nu_{j-1} omega_j)^2, Gauss-Newton block
        om = r.U[:, 1]
        c_nu = 2.0 * pcfg.K_c * r.nu_at_u
        cross = c_nu[1:] * om[1:]
        return np.concatenate([
            np.full(N, 2.0 * pcfg.K_v), lateral, G[0], G[1], G[1], G[2],
            c_nu * r.nu_at_u + 1e-8, 2.0 * pcfg.K_c * om[1:] * om[1:],
            cross, cross])

    # -- dynamics equalities ------------------------------------------------

    def eq_constraints(self, z):
        r = self._at(z)
        return (r.X - r.x_next.T).ravel()

    def eq_jacobian(self, z):
        """-Fx and -Fu of every step in closed form, on ``eq_pattern``.

        A = df/dx is nonzero only in rows (s, d) and columns (psi, nu), and
        B = df/du feeds only (psi, nu), so A_i A_j = 0 for any two RK4
        stages and the chain rule through the stages collapses to
        Fx = I + h/6 (((A_1 + 2 A_2) + 2 A_3) + A_4) and
        Fu = h/6 (((B + 2 (h/2 A_2 B + B)) + 2 (h/2 A_3 B + B))
        + (h A_4 B + B)), with A_3 = A_2 at the stage point the two share.
        Summed in that order, with the chain's other terms exact zeros,
        every entry is the chain's to the bit.  The trigonometry is the
        step's own, read from the record."""
        st = self._at(z).stages
        # A's (s, nu), (d, nu), (s, psi), (d, psi) entries (stage, 4, step):
        # cos psi, sin psi, -nu sin psi and nu cos psi
        a = np.empty((3, 4, self.N))
        a[:, :2] = st[:, 2:]
        np.multiply(-st[:, 1], st[:, 3], out=a[:, 2])
        np.multiply(st[:, 1], st[:, 2], out=a[:, 3])
        # per stage the terms of Fx and of Fu on rows (s, d), summed in the
        # chain's order
        c = self.layout.stage_weights
        t1 = 2.0 * (a[1] * c[1])
        S = a[0] * c[0]
        S += t1
        S += t1
        S += a[2] * c[2]
        S *= -(self.cfg.T_sL / 6.0)
        vals = self.layout.eq_vals.copy()
        vals[self.layout.eq_fx] = S[0, :, 1:]
        vals[self.layout.eq_fu] = S[1]
        return vals

    # -- inequalities -------------------------------------------------------

    def ineq_constraints(self, z):
        r = self._at(z)
        N, bound = self.N, DELTA_ALPHA_MAX
        c = np.empty(N + 2 * len(r.rate))
        np.subtract(r.O, self.tvapf.epsilon_o, out=c[:N])
        np.subtract(r.rate, bound, out=c[N::2])
        np.subtract(-r.rate, bound, out=c[N + 1::2])
        return c

    def ineq_jacobian(self, z):
        gs, gd = self._at(z).dO
        return np.concatenate([gs, gd, self.layout.rate_jac])

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
            hess_pattern=self.layout.hess_pattern,
            eq_pattern=self.layout.eq_pattern,
            ineq_pattern=self.layout.ineq_pattern,
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
    only for callers that still pass it, and must be None; ``path`` must
    pass ``check_road``, so every posed candidate has a nonempty box.
    Raises Infeasible, with the failed candidates' records, when no
    feasible trajectory exists (callers fall back to safe_stop_trajectory),
    as its subclass EmptyTerminalSet, with none, when the safe-stop bound
    already lies behind the ego.
    """
    if warm_start is not None:
        raise ValueError("solve_ltp solves cold: warm_start must be None")
    tvapf = tvapf or TvapfParams()
    posed = _candidates(xi0, forecasts, path, cfg, potentials_cfg)
    if not posed:
        raise EmptyTerminalSet(f"planner instance at t0={t0:.1f}s: no "
                               f"terminal anchor ahead of ego s={xi0.s:.2f}")

    solved, cand_stats = [], []
    for name, box, (g_states, g_inputs) in posed:
        prog = _LtpProgram(xi0, forecasts, path, cfg, potentials_cfg, tvapf,
                           g_states, g_inputs, box, alpha_prev)
        result = solve(prog.to_problem(), SOLVE_OPTIONS)
        X = np.vstack([prog.x0, prog._states(result.z)])
        U = prog._inputs(result.z)
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
            "evaluations": result.evaluations,
            "phase_s": result.phase_s,
        })
        if result.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_POINT):
            solved.append((float(result.objective), name, box, result, U, X))
    if not solved:
        raise Infeasible(f"planner instance at t0={t0:.1f}s: no feasible "
                         f"candidate ({[c['status'] for c in cand_stats]})",
                         cand_stats)

    best = min(item[0] for item in solved)
    obj, name, box, result, U, X = min(solved, key=lambda item: (
        item[0] - best > TIE_RTOL * abs(best), item[1] != "stay", item[0]))
    return _published(t0, cfg.T_sL, X, U, {
        "status": result.status.value,
        "candidate": name,
        "iterations": result.iterations,
        "objective": obj,
        "wall_time": sum(c["wall_time"] for c in cand_stats),
        "kkt_error": result.kkt_error,
        "constraint_violation": result.constraint_violation,
        "terminal_set": asdict(box),
        "overtake_feasible": (any(c["overtakes"] and c["status"] in
                                  ("optimal", "feasible_point")
                                  for c in cand_stats)
                              if "pass" in [c[0] for c in posed] else None),
        "candidates": cand_stats,
    })


def _published(t0, h, X, U, stats, fallback=False) -> PlannedTrajectory:
    """The plan of state rows X and input rows U from t0 on, with step h."""
    return PlannedTrajectory(
        t0=t0, T_sL=h,
        states=tuple(EgoModelState.from_array(x) for x in X),
        inputs=tuple(ControlInput(alpha=float(u[0]), omega=float(u[1]))
                     for u in U),
        solve_stats=stats, fallback=fallback)


def safe_stop_trajectory(xi0: EgoModelState, cfg: PlannerConfig,
                         t0: float = 0.0,
                         alpha_prev: float = 0.0) -> PlannedTrajectory:
    """Jerk-limited maximum-braking trajectory in the current lane.

    This is the always-available fallback the terminal-set construction
    guarantees: ramp the acceleration to its lower bound at the jerk limit,
    hold until stand-still, steer the heading to zero.
    """
    h = cfg.T_sL
    x = xi0.as_array()
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
        x = _step(x, np.array(u), h)[0]
        x[3] = max(x[3], 0.0)
        states.append(x)
        inputs.append(u)
    return _published(t0, h, states, inputs, {"status": "fallback"},
                      fallback=True)


def decision_label(traj: PlannedTrajectory, path: ReferencePath,
                   forecasts, v_des: float) -> Decision:
    """Post-hoc classification of the emergent maneuver for logs and tests."""
    if traj.fallback:
        return Decision.SAFE_STOP
    lanes = {path.lane_index_of(x.d) for x in traj.states}
    if any(lane > 0 for lane in lanes):
        return Decision.OVERTAKE
    if (_lane_leaders(forecasts, path, traj.states[0])
            and traj.states[-1].nu < 0.9 * v_des):
        return Decision.FOLLOW_LEADER
    return Decision.KEEP_LANE
