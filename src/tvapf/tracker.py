"""Nonlinear MPC motion controller tracking the planned trajectory.

The tracker follows the resampled Cartesian reference with a kinematic
single-track model at a fast sampling rate.  The program is transcribed by
single shooting over the input sequence plus one slack variable that softens
the terminal error equality, and solved by SciPy's SLSQP.

The states come from the RK4 scheme shared with the planner
(``dynamics.rk4``), one step at a time on the five state components as
floats, and are kept per iterate with the stage points of every step, so the
objective and the constraint values never touch derivatives.  When SLSQP
asks for the gradient or the constraint Jacobian, the step Jacobians of the
whole horizon follow from those stage points in one batched chain rule
(``dynamics.rk4_jacobians``) and are chained into the sensitivities dX/du.

SLSQP restarts its quasi-Newton matrix at the identity on every tick, but
the tracking cost is a weighted least-squares sum whose Gauss-Newton Hessian
H = 2 sum_k S_k^T Q S_k + 2R (2 rho on the slack), built from the
sensitivities S_k at the warm start, is far from it.  So SLSQP works on
preconditioned variables y = L^T z, where H = L L^T (R > 0 keeps H positive
definite): its identity start is then H itself.  The objective and the
constraints are evaluated at z = L^-T y, their gradients map through L^-T,
the variable box becomes linear rows of the one inequality constraint, and
the solution maps back to z before the violation check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.optimize

from .dynamics import rk4, rk4_jacobians, rollout
from .geometry import wrap_angle
from .planner import (ALPHA_MARGIN, DELTA_ALPHA_MAX, V_MAX, V_MIN,
                      PlannerConfig)
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


# input admissible set
A_MIN = -0.85
A_MAX = 0.85
W_DELTA_MAX = 0.4
# per-tick acceleration change
DELTA_A_MAX = 0.17
# state limits; the speed box is the planner's [V_MIN, V_MAX]
DELTA_MAX = math.radians(24.5)
YAW_RATE_MAX = 0.075
# tracking-error contract
E_POS = 0.5
E_THETA = 0.1
E_V = 1.0
# SLSQP iteration limit per tick
MAX_ITER = 120


@dataclass(frozen=True)
class TrackerConfig:
    """Horizon, model and weights of the motion controller, the entries a
    scenario sets; the fixed limits and error contract are constants."""

    T_sMPC: float = 0.2
    N_P: int = 10
    wheelbase: float = 2.7
    Q: tuple = (10.0, 10.0, 5.0, 2.0, 0.1)
    R: tuple = (0.05, 0.05)
    rho: float = 5000.0
    # not a field: the benchmark's output checks read the contract here
    e_pos = E_POS

    def __post_init__(self):
        if self.T_sMPC <= 0 or self.N_P < 1 or self.wheelbase <= 0:
            raise ConfigError("invalid horizon or wheelbase")
        # R > 0 keeps the Gauss-Newton Hessian that solve_nmpc factors
        # positive definite
        if any(q < 0 for q in self.Q) or any(r <= 0 for r in self.R):
            raise ConfigError("Q entries must be non-negative and R entries "
                              "positive")
        if self.rho <= 0:
            raise ConfigError("slack penalty must be positive")


def check_hierarchy(tcfg: TrackerConfig, pcfg: PlannerConfig) -> None:
    """Verify that every planned trajectory stays trackable, the tracker's
    braking strictly inside the planner's and covering its margin-reduced
    box, and that every plan covers the reference windows of its instance's
    ticks, the last of which ends (N_P - 1) T_sMPC after the next instance."""
    if not pcfg.alpha_min < A_MIN <= pcfg.alpha_min + ALPHA_MARGIN:
        raise ConfigError(
            f"tracker deceleration bound {A_MIN} must lie in (alpha_min, "
            f"alpha_min + {ALPHA_MARGIN}] with alpha_min = {pcfg.alpha_min}")
    if DELTA_ALPHA_MAX / pcfg.T_sL > DELTA_A_MAX / tcfg.T_sMPC + 1e-12:
        raise ConfigError(
            "planner jerk bound exceeds the tracker input-rate authority; "
            "reference acceleration ramps would be untrackable")
    span = pcfg.N_L * pcfg.T_sL
    need = pcfg.instance_period + (tcfg.N_P - 1) * tcfg.T_sMPC
    if span < need - 1e-9:
        raise ConfigError(
            f"planner horizon N_L*T_sL = {span:g} s is shorter than "
            f"instance_period + (N_P - 1)*T_sMPC = {need:g} s")


# -- dynamics ---------------------------------------------------------------


def _f(L, chi, u):
    """Single-track vector field on the float components of one state:
    numpy on a 5-vector costs more than the five products."""
    _, _, th, v, de = chi
    return (v * math.cos(th), v * math.sin(th), v * math.tan(de) / L,
            u[0], u[1])


_B = np.zeros((5, 2))
_B[3, 0] = 1.0
_B[4, 1] = 1.0


def _jac(L, Y, U):
    """df/dx and df/du of the single track at every state of Y (..., 5)."""
    th, v, de = Y[..., 2], Y[..., 3], Y[..., 4]
    sin, cos = np.sin(th), np.cos(th)
    A = np.zeros(Y.shape + (5,))
    A[..., 0, 2] = -v * sin
    A[..., 0, 3] = cos
    A[..., 1, 2] = v * cos
    A[..., 1, 3] = sin
    A[..., 2, 3] = np.tan(de) / L
    A[..., 2, 4] = v / (L * np.cos(de) ** 2)
    return A, np.broadcast_to(_B, Y.shape[:-1] + _B.shape)


def bicycle_step(chi: VehicleState, u, T: float,
                 wheelbase: float) -> VehicleState:
    """One zero-order-hold step of the kinematic single-track model."""
    if T <= 0:
        raise ValueError("T must be positive")
    return VehicleState(*rk4(
        partial(_f, wheelbase), (chi.x, chi.y, chi.theta, chi.v, chi.delta),
        (float(u[0]), float(u[1])), T)[0])


# -- NMPC program -----------------------------------------------------------


@dataclass(frozen=True)
class NmpcSolution:
    u0: np.ndarray
    inputs: np.ndarray
    sigma: float
    stats: dict


class _NmpcProgram:
    """Single-shooting transcription: z = [u_0 .. u_{N_P-1}, sigma].

    The forward pass (states, RK4 stage points, tracking errors) is memoized
    per iterate; the sensitivities dX/du are built from its stage points only
    when the gradient or the constraint Jacobian asks for them, kept with it
    and dropped when the forward pass moves to another iterate.

    The inequality rows h(z) <= 0 are, in order: the terminal error against
    sigma; per step k = 1 .. N_P the upper and the lower bound of each of
    delta, v, the yaw rate and the four tracking errors (x, y, theta, v);
    then the upper and the lower acceleration-rate bound of each pair of
    consecutive inputs, starting from u_prev when it is given.
    """

    def __init__(self, chi0: np.ndarray, ref: np.ndarray, cfg: TrackerConfig,
                 u_prev: np.ndarray | None):
        self.chi0 = chi0
        self.ref = ref  # (N_P + 1, 5)
        self.cfg = cfg
        self.N = cfg.N_P
        self.n = 2 * self.N + 1
        self.Q = np.asarray(cfg.Q, dtype=float)
        self.R = np.asarray(cfg.R, dtype=float)
        self._f = partial(_f, cfg.wheelbase)
        self._jac = partial(_jac, cfg.wheelbase)
        e = np.array([E_POS, E_POS, E_THETA, E_V])
        self._hi = np.concatenate([[DELTA_MAX, V_MAX, YAW_RATE_MAX], e])
        self._lo = np.concatenate([[-DELTA_MAX, V_MIN, -YAW_RATE_MAX], -e])
        # rate rows: +1 on a_k and -1 on a_{k-1}, then the same negated
        self._a_prev = 0.0 if u_prev is None else float(u_prev[0])
        self._rate_first = 0 if u_prev is not None else 1
        k = np.arange(self._rate_first, self.N)
        rows = np.arange(len(k))
        rate = np.zeros((len(k), self.n))
        rate[rows, 2 * k] = 1.0
        rate[rows[k > 0], 2 * k[k > 0] - 2] = -1.0
        self._rate_jac = np.stack([rate, -rate], axis=1).reshape(-1, self.n)
        self._fwd_z = None

    def _forward(self, z):
        """(U, X, Y, E) at z: inputs, states, the stage points of each step
        (4, N_P, 5) and tracking errors."""
        if self._fwd_z is not None and np.array_equal(z, self._fwd_z):
            return self._fwd
        z = np.array(z, dtype=float)
        U = z[:2 * self.N].reshape(self.N, 2)
        X, Y = rollout(self._f, self.chi0, U.tolist(), self.cfg.T_sMPC)
        E = X - self.ref
        E[:, 2] = wrap_angle(E[:, 2])
        self._fwd_z, self._fwd, self._sens = z, (U, X, Y, E), None
        return self._fwd

    def _sensitivities(self, z):
        """S (N_P + 1, 5, 2 N_P) with S[k] = dX[k]/du at z."""
        U, _, Y, _ = self._forward(z)
        if self._sens is not None:
            return self._sens
        Fx, Fu = rk4_jacobians(self._jac, Y, U, self.cfg.T_sMPC)
        S = np.zeros((self.N + 1, 5, 2 * self.N))
        for k in range(self.N):
            S[k + 1] = Fx[k] @ S[k]
            S[k + 1, :, 2 * k:2 * k + 2] += Fu[k]
        self._sens = S
        return S

    def objective(self, z):
        U, _, _, E = self._forward(z)
        J = float(np.sum(E[1:] ** 2 @ self.Q))
        J += float(np.sum(U ** 2 @ self.R))
        J += self.cfg.rho * z[-1] ** 2
        return J

    def gradient(self, z):
        U, _, _, E = self._forward(z)
        S = self._sensitivities(z)
        g = np.empty(self.n)
        # one product per step, summed in step order: one flattened product
        # sums in another order and moves the result by an ulp
        W = 2.0 * (self.Q * E[1:])
        g[:-1] = (np.sum(W[:, None] @ S[1:], axis=0)[0]
                  + (2.0 * U * self.R).ravel())
        g[-1] = 2.0 * self.cfg.rho * z[-1]
        return g

    def gauss_newton(self, z):
        """Gauss-Newton Hessian of the objective at z: 2 sum_k S_k^T Q S_k
        + 2R on the inputs and 2 rho on sigma."""
        S = self._sensitivities(z)[1:].reshape(-1, 2 * self.N)
        H = np.diag(2.0 * np.append(np.tile(self.R, self.N), self.cfg.rho))
        H[:-1, :-1] += 2.0 * (S.T @ (np.tile(self.Q, self.N)[:, None] * S))
        return H

    # inequality constraints h(z) <= 0
    def ineq_constraints(self, z):
        U, X, _, E = self._forward(z)
        v, de = X[1:, 3], X[1:, 4]
        q = np.column_stack([de, v, v * np.tan(de) / self.cfg.wheelbase,
                             E[1:, :4]])
        diff = np.diff(np.concatenate([[self._a_prev], U[:, 0]]))
        diff = diff[self._rate_first:]
        bound = DELTA_A_MAX
        return np.concatenate([
            [np.sum(E[self.N] ** 2) - z[-1]],
            np.stack([q - self._hi, self._lo - q], axis=2).ravel(),
            np.stack([diff - bound, -diff - bound], axis=1).ravel()])

    def ineq_jacobian(self, z):
        _, X, _, E = self._forward(z)
        S = self._sensitivities(z)
        v, de = X[1:, 3, None], X[1:, 4, None]
        Sk = S[1:]
        Syaw = (np.tan(de) * Sk[:, 3]
                + v * (1.0 / np.cos(de) ** 2) * Sk[:, 4]) / self.cfg.wheelbase
        G = np.stack([Sk[:, 4], Sk[:, 3], Syaw, Sk[:, 0], Sk[:, 1], Sk[:, 2],
                      Sk[:, 3]], axis=1)
        nu, rows = 2 * self.N, 14 * self.N
        J = np.zeros((1 + rows + len(self._rate_jac), self.n))
        J[0, :nu] = 2.0 * E[self.N] @ S[self.N]
        J[0, -1] = -1.0
        J[1:1 + rows, :nu] = np.stack([G, -G], axis=2).reshape(rows, nu)
        J[1 + rows:] = self._rate_jac
        return J

    def bounds(self):
        lb = np.tile([A_MIN, -W_DELTA_MAX], self.N)
        ub = np.tile([A_MAX, W_DELTA_MAX], self.N)
        return (np.concatenate([lb, [0.0 - 1e-12]]),
                np.concatenate([ub, [np.inf]]))


def max_braking_input(u_prev) -> np.ndarray:
    """Strongest deceleration reachable within one tick's rate limit, with
    the steering rate driven to zero."""
    a_prev = 0.0 if u_prev is None else float(u_prev[0])
    a = max(A_MIN, a_prev - DELTA_A_MAX)
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
    # SLSQP runs on y = L^T z, L L^T the Gauss-Newton Hessian at z0, so its
    # identity start is that Hessian; z = M y with M = L^-T, and the box
    # becomes linear rows (sigma has no upper bound)
    t0 = time.perf_counter()
    L = np.linalg.cholesky(prog.gauss_newton(z0))
    M = scipy.linalg.solve_triangular(L, np.eye(prog.n), lower=True).T
    box_jac = np.concatenate([-M[:-1], M])

    def ineq(y):
        z = M @ y
        return np.concatenate([-prog.ineq_constraints(z), ub[:-1] - z[:-1],
                               z - lb])

    result = scipy.optimize.minimize(
        lambda y: prog.objective(M @ y), L.T @ z0,
        jac=lambda y: M.T @ prog.gradient(M @ y), method="SLSQP",
        constraints=[{"type": "ineq", "fun": ineq,
                      "jac": lambda y: np.concatenate([
                          -prog.ineq_jacobian(M @ y) @ M, box_jac])}],
        options={"maxiter": MAX_ITER, "ftol": 1e-9})
    wall = time.perf_counter() - t0
    z = M @ result.x
    viol = float(np.max(np.maximum(prog.ineq_constraints(z), 0.0),
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
    U = z[:2 * cfg.N_P].reshape(cfg.N_P, 2)
    np.clip(U[:, 0], A_MIN, A_MAX, out=U[:, 0])
    np.clip(U[:, 1], -W_DELTA_MAX, W_DELTA_MAX, out=U[:, 1])
    return NmpcSolution(
        u0=U[0].copy(),
        inputs=U,
        sigma=float(max(z[-1], 0.0)),
        stats={
            "status": status,
            "iterations": int(result.nit),
            "objective": float(result.fun),
            "wall_time": wall,
        })
