"""Nonlinear MPC motion controller tracking the planned trajectory.

The tracker follows the resampled Cartesian reference with a kinematic
single-track model at a fast sampling rate.  The program is transcribed by
single shooting over the input sequence plus one slack variable that softens
the terminal error equality, and solved by SciPy's SLSQP; gradients come
from forward sensitivity propagation.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .planner import PlannerConfig
from .potentials import ConfigError


class Infeasible(Exception):
    """The tracking error cannot be kept inside the contracted bounds."""


@dataclass(frozen=True)
class VehicleState:
    """Kinematic single-track state."""

    x: float
    y: float
    theta: float
    v: float
    delta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta, self.v, self.delta])

    @staticmethod
    def from_array(chi) -> "VehicleState":
        return VehicleState(float(chi[0]), float(chi[1]), float(chi[2]),
                            float(chi[3]), float(chi[4]))


@dataclass(frozen=True)
class TrackerConfig:
    """Horizon, weights and admissible sets of the motion controller."""

    T_sMPC: float = 0.2
    N_P: int = 10
    wheelbase: float = 2.7
    Q: tuple = (10.0, 10.0, 5.0, 2.0, 0.1)
    R: tuple = (0.05, 0.05)
    rho: float = 5000.0
    # input admissible set
    a_min: float = -0.85
    a_max: float = 0.85
    w_delta_max: float = 0.4
    # per-tick input rate set
    delta_a_max: float = 0.17
    delta_w_max: float | None = None
    # state limits
    v_min: float = 0.0
    v_max: float = 12.5
    delta_max: float = math.radians(24.5)
    yaw_rate_max: float = 0.075
    # tracking-error contract
    e_pos: float = 0.5
    e_theta: float = 0.1
    e_v: float = 1.0
    # SLSQP iteration limit per tick
    max_iter: int = 120

    def __post_init__(self):
        if self.T_sMPC <= 0 or self.N_P < 1 or self.wheelbase <= 0:
            raise ConfigError("invalid horizon or wheelbase")
        if any(q < 0 for q in self.Q) or any(r < 0 for r in self.R):
            raise ConfigError("Q and R entries must be non-negative")
        if self.rho <= 0:
            raise ConfigError("slack penalty must be positive")
        if not (self.a_min < 0 < self.a_max) or self.w_delta_max <= 0:
            raise ConfigError("input box must contain 0 in its interior")
        if self.delta_max <= 0 or self.yaw_rate_max <= 0:
            raise ConfigError("state limits must be positive")
        if min(self.e_pos, self.e_theta, self.e_v) <= 0:
            raise ConfigError("error contract bounds must be positive")


def check_hierarchy(tcfg: TrackerConfig, pcfg: PlannerConfig) -> None:
    """Verify the controller's admissible sets sit strictly inside the
    planner's, so every planned trajectory stays trackable."""
    if not (pcfg.alpha_min < tcfg.a_min and tcfg.a_max < pcfg.alpha_max):
        raise ConfigError(
            f"tracker acceleration box [{tcfg.a_min}, {tcfg.a_max}] is not a "
            f"strict subset of the planner's [{pcfg.alpha_min}, {pcfg.alpha_max}]")
    if not tcfg.yaw_rate_max < pcfg.omega_max:
        raise ConfigError(
            f"tracker yaw-rate limit {tcfg.yaw_rate_max} must be strictly "
            f"below the planner heading-rate limit {pcfg.omega_max}")
    if not (tcfg.a_min <= pcfg.alpha_min + pcfg.alpha_margin
            and pcfg.alpha_max - pcfg.alpha_margin <= tcfg.a_max):
        raise ConfigError(
            "tracker authority does not cover the planner's margin-reduced "
            "input box; saturated plans would be untrackable")
    if pcfg.delta_alpha_max is not None and tcfg.delta_a_max is not None:
        planner_jerk = pcfg.delta_alpha_max / pcfg.T_sL
        if planner_jerk > tcfg.delta_a_max / tcfg.T_sMPC + 1e-12:
            raise ConfigError(
                "planner jerk bound exceeds the tracker input-rate authority; "
                "reference acceleration ramps would be untrackable")


# -- dynamics ---------------------------------------------------------------


def _f(chi: np.ndarray, u: np.ndarray, L: float) -> np.ndarray:
    x, y, th, v, de = chi
    return np.array([v * math.cos(th), v * math.sin(th),
                     v * math.tan(de) / L, u[0], u[1]])


def _A(chi: np.ndarray, L: float) -> np.ndarray:
    _, _, th, v, de = chi
    A = np.zeros((5, 5))
    A[0, 2] = -v * math.sin(th)
    A[0, 3] = math.cos(th)
    A[1, 2] = v * math.cos(th)
    A[1, 3] = math.sin(th)
    A[2, 3] = math.tan(de) / L
    A[2, 4] = v / (L * math.cos(de) ** 2)
    return A


_B = np.zeros((5, 2))
_B[3, 0] = 1.0
_B[4, 1] = 1.0


def _rk4_step(chi: np.ndarray, u: np.ndarray, T: float, L: float) -> np.ndarray:
    k1 = _f(chi, u, L)
    k2 = _f(chi + 0.5 * T * k1, u, L)
    k3 = _f(chi + 0.5 * T * k2, u, L)
    k4 = _f(chi + T * k3, u, L)
    return chi + (T / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4_jacobians(chi: np.ndarray, u: np.ndarray, T: float, L: float):
    I = np.eye(5)
    k1 = _f(chi, u, L)
    x2 = chi + 0.5 * T * k1
    k2 = _f(x2, u, L)
    x3 = chi + 0.5 * T * k2
    k3 = _f(x3, u, L)
    x4 = chi + T * k3
    k4 = _f(x4, u, L)

    A1 = _A(chi, L)
    dk1x, dk1u = A1, _B
    A2 = _A(x2, L)
    dk2x = A2 @ (I + 0.5 * T * dk1x)
    dk2u = A2 @ (0.5 * T * dk1u) + _B
    A3 = _A(x3, L)
    dk3x = A3 @ (I + 0.5 * T * dk2x)
    dk3u = A3 @ (0.5 * T * dk2u) + _B
    A4 = _A(x4, L)
    dk4x = A4 @ (I + T * dk3x)
    dk4u = A4 @ (T * dk3u) + _B

    chi_next = chi + (T / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    Fx = I + (T / 6.0) * (dk1x + 2.0 * dk2x + 2.0 * dk3x + dk4x)
    Fu = (T / 6.0) * (dk1u + 2.0 * dk2u + 2.0 * dk3u + dk4u)
    return chi_next, Fx, Fu


def bicycle_step(chi: VehicleState, u, T: float,
                 wheelbase: float = 2.7) -> VehicleState:
    """One zero-order-hold step of the kinematic single-track model."""
    if T <= 0:
        raise ValueError("T must be positive")
    return VehicleState.from_array(
        _rk4_step(chi.as_array(), np.asarray(u, dtype=float), T, wheelbase))


def _wrap(angle):
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


# -- NMPC program -----------------------------------------------------------


@dataclass(frozen=True)
class NmpcSolution:
    u0: np.ndarray
    predicted: tuple
    inputs: np.ndarray
    sigma: float
    stats: dict


class _NmpcProgram:
    """Single-shooting transcription: z = [u_0 .. u_{N_P-1}, sigma]."""

    def __init__(self, chi0: np.ndarray, ref: np.ndarray, cfg: TrackerConfig,
                 u_prev: np.ndarray | None):
        self.chi0 = chi0
        self.ref = ref  # (N_P + 1, 5)
        self.cfg = cfg
        self.N = cfg.N_P
        self.n = 2 * self.N + 1
        self.u_prev = u_prev
        self.Q = np.asarray(cfg.Q, dtype=float)
        self.R = np.asarray(cfg.R, dtype=float)
        self._cache_z = None

    # rollout with sensitivities, memoized on the current iterate
    def _rollout(self, z):
        if self._cache_z is not None and np.array_equal(z, self._cache_z):
            return self._cache
        cfg = self.cfg
        U = z[:2 * self.N].reshape(self.N, 2)
        X = np.empty((self.N + 1, 5))
        S = np.zeros((self.N + 1, 5, 2 * self.N))
        X[0] = self.chi0
        for k in range(self.N):
            X[k + 1], Fx, Fu = _rk4_jacobians(X[k], U[k], cfg.T_sMPC,
                                              cfg.wheelbase)
            S[k + 1] = Fx @ S[k]
            S[k + 1][:, 2 * k:2 * k + 2] += Fu
        E = X - self.ref
        E[:, 2] = _wrap(E[:, 2])
        self._cache_z = z.copy()
        self._cache = (U, X, S, E)
        return self._cache

    def objective(self, z):
        U, X, S, E = self._rollout(z)
        sigma = z[-1]
        J = float(np.sum(E[1:] ** 2 @ self.Q))
        J += float(np.sum(U ** 2 @ self.R))
        J += self.cfg.rho * sigma ** 2
        return J

    def gradient(self, z):
        U, X, S, E = self._rollout(z)
        g = np.zeros(self.n)
        for k in range(1, self.N + 1):
            g[:2 * self.N] += 2.0 * (self.Q * E[k]) @ S[k]
        g[:2 * self.N] += (2.0 * U * self.R).ravel()
        g[-1] = 2.0 * self.cfg.rho * z[-1]
        return g

    # inequality constraints h(z) <= 0
    def ineq_constraints(self, z):
        cfg = self.cfg
        U, X, S, E = self._rollout(z)
        sigma = z[-1]
        vals = [float(np.sum(E[self.N] ** 2)) - sigma]
        for k in range(1, self.N + 1):
            yaw = X[k, 3] * math.tan(X[k, 4]) / cfg.wheelbase
            vals.extend([
                X[k, 4] - cfg.delta_max, -X[k, 4] - cfg.delta_max,
                X[k, 3] - cfg.v_max, cfg.v_min - X[k, 3],
                yaw - cfg.yaw_rate_max, -yaw - cfg.yaw_rate_max,
                E[k, 0] - cfg.e_pos, -E[k, 0] - cfg.e_pos,
                E[k, 1] - cfg.e_pos, -E[k, 1] - cfg.e_pos,
                E[k, 2] - cfg.e_theta, -E[k, 2] - cfg.e_theta,
                E[k, 3] - cfg.e_v, -E[k, 3] - cfg.e_v,
            ])
        for kp, kn, comp, bound in self._rate_tuples():
            prev = self.u_prev[comp] if kp < 0 else U[kp, comp]
            diff = U[kn, comp] - prev
            vals.extend([diff - bound, -diff - bound])
        return np.array(vals)

    def _rate_tuples(self):
        out = []
        for comp, bound in ((0, self.cfg.delta_a_max),
                            (1, self.cfg.delta_w_max)):
            if bound is None:
                continue
            if self.u_prev is not None:
                out.append((-1, 0, comp, bound))
            for k in range(self.N - 1):
                out.append((k, k + 1, comp, bound))
        return out

    def ineq_jacobian(self, z):
        cfg = self.cfg
        U, X, S, E = self._rollout(z)
        rows = []
        nu = 2 * self.N

        r = np.zeros(self.n)
        r[:nu] = 2.0 * E[self.N] @ S[self.N]
        r[-1] = -1.0
        rows.append(r)

        for k in range(1, self.N + 1):
            Sd = S[k, 4]
            Sv = S[k, 3]
            tan_d = math.tan(X[k, 4])
            sec2 = 1.0 / math.cos(X[k, 4]) ** 2
            Syaw = (tan_d * Sv + X[k, 3] * sec2 * Sd) / cfg.wheelbase
            for vec, sign in ((Sd, 1), (Sd, -1), (Sv, 1), (Sv, -1),
                              (Syaw, 1), (Syaw, -1),
                              (S[k, 0], 1), (S[k, 0], -1),
                              (S[k, 1], 1), (S[k, 1], -1),
                              (S[k, 2], 1), (S[k, 2], -1),
                              (S[k, 3], 1), (S[k, 3], -1)):
                r = np.zeros(self.n)
                r[:nu] = sign * vec
                rows.append(r)

        for kp, kn, comp, bound in self._rate_tuples():
            r = np.zeros(self.n)
            r[2 * kn + comp] = 1.0
            if kp >= 0:
                r[2 * kp + comp] = -1.0
            rows.append(r)
            rows.append(-r)
        return np.vstack(rows)

    def bounds(self):
        cfg = self.cfg
        lb = np.tile([cfg.a_min, -cfg.w_delta_max], self.N)
        ub = np.tile([cfg.a_max, cfg.w_delta_max], self.N)
        return (np.concatenate([lb, [0.0 - 1e-12]]),
                np.concatenate([ub, [np.inf]]))


def max_braking_input(u_prev, cfg: TrackerConfig) -> np.ndarray:
    """Strongest deceleration reachable within one tick's rate limit, with
    the steering rate driven to zero."""
    a_prev = 0.0 if u_prev is None else float(u_prev[0])
    a = max(cfg.a_min, a_prev - cfg.delta_a_max)
    return np.array([a, 0.0])


def solve_nmpc(chi0: VehicleState, ref, cfg: TrackerConfig,
               u_prev=None, u_guess=None) -> NmpcSolution:
    """One controller tick: track the N_P+1 reference states from chi0.

    Raises Infeasible when no input sequence keeps the tracking error inside
    the contracted bounds; the caller should apply max_braking_input.
    """
    ref = np.asarray(ref, dtype=float)
    if ref.shape != (cfg.N_P + 1, 5):
        raise ValueError(f"reference must be ({cfg.N_P + 1}, 5), got {ref.shape}")
    u_prev_arr = None if u_prev is None else np.asarray(u_prev, dtype=float)
    prog = _NmpcProgram(chi0.as_array(), ref, cfg, u_prev_arr)
    if u_guess is None:
        z0 = np.zeros(prog.n)
    else:
        z0 = np.concatenate([np.asarray(u_guess, dtype=float).ravel(), [0.0]])
    lb, ub = prog.bounds()
    z0 = np.clip(z0, lb, ub)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # SLSQP probes slightly outside the variable bounds and clips back;
        # the warning it emits for that is routine here
        warnings.simplefilter("ignore", RuntimeWarning)
        result = scipy.optimize.minimize(
            prog.objective, z0, jac=prog.gradient, method="SLSQP",
            bounds=list(zip(lb, ub)),
            constraints=[{"type": "ineq",
                          "fun": lambda zz: -prog.ineq_constraints(zz),
                          "jac": lambda zz: -prog.ineq_jacobian(zz)}],
            options={"maxiter": cfg.max_iter, "ftol": 1e-9})
    wall = time.perf_counter() - t0
    viol = float(np.max(np.maximum(prog.ineq_constraints(result.x), 0.0),
                        initial=0.0))
    if result.success and viol <= 1e-6:
        status = "optimal"
    elif viol <= 1e-4:
        # an unpolished but essentially feasible iterate is still a usable
        # control; reject only when the violation is physically meaningful
        status = "feasible_point"
    else:
        raise Infeasible(
            f"tracker tick: {result.message}, violation {viol:.2e}")
    U = result.x[:2 * cfg.N_P].reshape(cfg.N_P, 2)
    np.clip(U[:, 0], cfg.a_min, cfg.a_max, out=U[:, 0])
    np.clip(U[:, 1], -cfg.w_delta_max, cfg.w_delta_max, out=U[:, 1])
    X = np.empty((cfg.N_P + 1, 5))
    X[0] = chi0.as_array()
    for k in range(cfg.N_P):
        X[k + 1] = _rk4_step(X[k], U[k], cfg.T_sMPC, cfg.wheelbase)
    return NmpcSolution(
        u0=U[0].copy(),
        predicted=tuple(VehicleState.from_array(x) for x in X),
        inputs=U,
        sigma=float(max(result.x[-1], 0.0)),
        stats={
            "status": status,
            "iterations": int(result.nit),
            "objective": float(result.fun),
            "wall_time": wall,
        })
