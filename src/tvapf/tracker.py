"""Nonlinear MPC motion controller tracking the planned trajectory.

The tracker follows the resampled Cartesian reference with a kinematic
single-track model at a fast sampling rate.  The program is transcribed by
single shooting over the input sequence plus one slack variable that softens
the terminal error equality, and solved by SciPy's SLSQP.

The states come from ``_step``, the model's one RK4 step in closed form on
the five state components as floats, which the plant (``bicycle_step``)
steps with too.  The forward pass keeps them per
iterate with every step's derivative coefficients, so the objective and the
constraint values never touch derivatives.  When SLSQP asks for the gradient
or the constraint Jacobian, the sensitivities dX/du of the whole horizon
follow from those coefficients in closed form (``_dxdu``): v and delta
integrate the inputs, theta's increments depend on (v, delta), and x's and
y's on theta and (v, delta), so each row is a cumulative sum over the steps
of lower-triangular blocks.  The parts of a tick that depend only on the
configuration (bounds, limit vectors, rate rows, the sensitivities' fixed
blocks) are built once per configuration (``_layout``).

SLSQP restarts its quasi-Newton matrix at the identity on every tick, but
the tracking cost is a weighted least-squares sum whose Gauss-Newton Hessian
H = 2 sum_k S_k^T Q S_k + 2R (2 rho on the slack), built from the
sensitivities S_k at the warm start z0, is far from it.  So SLSQP works on
preconditioned variables y = L^T (z - z0), where H = L L^T (R > 0 keeps H
positive definite): its identity start is then H itself, and it starts at
y = 0, the point whose forward pass and sensitivities H was built from.  The
objective and the constraints are evaluated at z = z0 + L^-T y, their
gradients map through L^-T, the variable box becomes linear rows of the one
inequality constraint, and the solution maps back to z before the violation
check.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.optimize

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


def _step(L, chi, u, h):
    """One RK4 step of the kinematic single track with wheelbase L and the
    input held over [0, h],

        x' = v cos theta,  y' = v sin theta,  theta' = v tan(delta) / L,
        v' = a,  delta' = w,

    on the float components of one state chi = (x, y, theta, v, delta) and
    an input u = (a, w), and the step's derivative coefficients.

    v and delta move with the held inputs, so stages 2 and 3 share
    (v + h/2 a, delta + h/2 w) and k3's yaw rate equals k2's: the step needs
    tan at three steering angles and cos and sin at four headings.  The
    coefficients, 15 floats, are the rows (x, y, theta) of the increments'
    derivatives by (theta, v, delta, a, w); theta's increment does not
    depend on theta, and v and delta each gain h times their input."""
    _, _, th, v, de = chi
    a, w = u
    half, sixth = 0.5 * h, h / 6.0
    v2, v4 = v + half * a, v + h * a
    t1, t2, t4 = math.tan(de), math.tan(de + half * w), math.tan(de + h * w)
    r1, r2, r4 = v * t1 / L, v2 * t2 / L, v4 * t4 / L
    th2, th3, th4 = th + half * r1, th + half * r2, th + h * r2
    c1, c2, c3, c4 = math.cos(th), math.cos(th2), math.cos(th3), math.cos(th4)
    s1, s2, s3, s4 = math.sin(th), math.sin(th2), math.sin(th3), math.sin(th4)
    n2, n34 = v2 * c2, v2 * c3 + v4 * c4
    m2, m34 = v2 * s2, v2 * s3 + v4 * s4
    dx = sixth * (v * c1 + 2.0 * n2 + 2.0 * (v2 * c3) + v4 * c4)
    dy = sixth * (v * s1 + 2.0 * m2 + 2.0 * (v2 * s3) + v4 * s4)
    nxt = [chi[0] + dx, chi[1] + dy,
           th + sixth * (r1 + 2.0 * r2 + 2.0 * r2 + r4),
           v + sixth * (a + 2.0 * a + 2.0 * a + a),
           de + sixth * (w + 2.0 * w + 2.0 * w + w)]
    # L times the stages' yaw-rate derivatives by delta; the headings of
    # stages 2 to 4 carry k1's and k2's yaw rates into x and y
    e1, e2 = v * (1.0 + t1 * t1), v2 * (1.0 + t2 * t2)
    e4 = v4 * (1.0 + t4 * t4)
    g, gh = sixth / L, sixth * h / L
    return nxt, (
        -dy, sixth * (c1 + 2.0 * (c2 + c3) + c4) - gh * (m2 * t1 + m34 * t2),
        -gh * (m2 * e1 + m34 * e2),
        sixth * h * (c2 + c3 + c4) - half * gh * m34 * t2,
        -half * gh * m34 * e2,
        dx, sixth * (s1 + 2.0 * (s2 + s3) + s4) + gh * (n2 * t1 + n34 * t2),
        gh * (n2 * e1 + n34 * e2),
        sixth * h * (s2 + s3 + s4) + half * gh * n34 * t2,
        half * gh * n34 * e2,
        0.0, g * (t1 + 4.0 * t2 + t4), g * (e1 + 4.0 * e2 + e4),
        gh * (2.0 * t2 + t4), gh * (2.0 * e2 + e4))


def _rollout(L, chi0, U, h):
    """States (M + 1, 5) from one state chi0 under the M inputs of U, one
    ``_step`` per input, and the steps' derivative coefficients (M, 3, 5)."""
    chi = [float(c) for c in chi0]
    xs, cs = [chi], []
    for u in U:
        chi, c = _step(L, chi, u, h)
        xs.append(chi)
        cs.append(c)
    return np.array(xs), np.array(cs).reshape(-1, 3, 5)


def _dxdu(C, lay):
    """S (M + 1, 5, 2 M) with S[j] = dX[j]/du, from the coefficients C of
    ``_rollout``'s M steps.

    v and delta integrate their inputs, theta's increments depend on
    (v, delta) and the inputs, and x's and y's on theta, (v, delta) and the
    inputs, so each row of S is a cumulative sum over the steps k of a
    coefficient of step k times a lower-triangular block (dv_k/du,
    ddelta_k/du, and for x and y dtheta_k/du) plus the step's own input
    coefficients on the diagonal."""
    M = len(C)
    k = np.arange(M)
    S = lay.S0.copy()
    # D[k, row, i]: step k's increment of x, y and theta by u_i, through
    # (v_k, delta_k) for i < k and directly for i = k
    D = C[:, :, None, 1:3] * lay.strict[:, None]
    D[k, :, k] = C[:, :, 3:]
    np.cumsum(D[:, 2], axis=0, out=S[1:, 2])
    # x and y also move with theta_k
    D[1:, :2] += C[1:, :2, None, None, 0] * S[1:M, 2, None]
    np.cumsum(D[:, :2], axis=0, out=S[1:, :2])
    return S.reshape(M + 1, 5, 2 * M)


def bicycle_step(chi: VehicleState, u, T: float,
                 wheelbase: float) -> VehicleState:
    """One zero-order-hold step of the kinematic single-track model."""
    if T <= 0:
        raise ValueError("T must be positive")
    return VehicleState(*_step(
        wheelbase, (chi.x, chi.y, chi.theta, chi.v, chi.delta),
        (float(u[0]), float(u[1])), T)[0])


# -- NMPC program -----------------------------------------------------------


@dataclass(frozen=True)
class NmpcSolution:
    u0: np.ndarray
    inputs: np.ndarray
    sigma: float
    stats: dict


@functools.lru_cache(maxsize=8)
def _layout(cfg: TrackerConfig, has_u_prev: bool):
    """The parts of a tick that depend only on the configuration and on
    whether u_prev is given: the variable bounds, the state-limit vectors,
    the constant rows of the constraint Jacobian, the weights of the
    Gauss-Newton Hessian, and the fixed blocks of the sensitivities.  The
    programs of one configuration share them, and the arrays are
    read-only."""
    N, h = cfg.N_P, cfg.T_sMPC
    n = 2 * N + 1
    lay = SimpleNamespace()
    lay.lb = np.append(np.tile([A_MIN, -W_DELTA_MAX], N), 0.0 - 1e-12)
    lay.ub = np.append(np.tile([A_MAX, W_DELTA_MAX], N), np.inf)
    e = np.array([E_POS, E_POS, E_THETA, E_V])
    lay.hi = np.concatenate([[DELTA_MAX, V_MAX, YAW_RATE_MAX], e])
    lay.lo = np.concatenate([[-DELTA_MAX, V_MIN, -YAW_RATE_MAX], -e])
    # rate rows: +1 on a_k and -1 on a_{k-1}, then the same negated
    lay.rate_first = 0 if has_u_prev else 1
    k = np.arange(lay.rate_first, N)
    rows = np.arange(len(k))
    rate = np.zeros((len(k), n))
    rate[rows, 2 * k] = 1.0
    rate[rows[k > 0], 2 * k[k > 0] - 2] = -1.0
    lay.jac = np.zeros((1 + 14 * N + 2 * len(k), n))
    lay.jac[0, -1] = -1.0
    lay.jac[1 + 14 * N:] = np.stack([rate, -rate], axis=1).reshape(-1, n)
    R, Q = np.asarray(cfg.R, dtype=float), np.asarray(cfg.Q, dtype=float)
    lay.H0 = np.diag(2.0 * np.append(np.tile(R, N), cfg.rho))
    lay.Q_rows = np.tile(Q, N)[:, None]
    # v_j and delta_j gain h / 6 * 6 from each earlier input, a_i and w_i
    past = (h / 6.0 * 6.0) * np.tri(N + 1, N, -1)
    lay.strict = np.repeat(past[:N, :, None], 2, axis=2)
    lay.S0 = np.zeros((N + 1, 5, N, 2))
    lay.S0[:, 3, :, 0] = lay.S0[:, 4, :, 1] = past
    for a in vars(lay).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return lay


class _NmpcProgram:
    """Single-shooting transcription: z = [u_0 .. u_{N_P-1}, sigma].

    The forward pass (states, step coefficients, tracking errors) is
    memoized per iterate; the sensitivities dX/du are built from its
    coefficients only when the gradient or the constraint Jacobian asks for
    them, kept with it and dropped when the forward pass moves to another
    iterate.

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
        self.layout = _layout(cfg, u_prev is not None)
        self._a_prev = 0.0 if u_prev is None else float(u_prev[0])
        self._fwd_z = None

    def _forward(self, z):
        """(U, X, C, E) at z: inputs, states, the steps' derivative
        coefficients and tracking errors."""
        if self._fwd_z is not None and np.array_equal(z, self._fwd_z):
            return self._fwd
        z = np.array(z, dtype=float)
        U = z[:2 * self.N].reshape(self.N, 2)
        X, C = _rollout(self.cfg.wheelbase, self.chi0, U.tolist(),
                        self.cfg.T_sMPC)
        E = X - self.ref
        E[:, 2] = wrap_angle(E[:, 2])
        self._fwd_z, self._fwd, self._sens = z, (U, X, C, E), None
        return self._fwd

    def _sensitivities(self, z):
        """S (N_P + 1, 5, 2 N_P) with S[k] = dX[k]/du at z."""
        C = self._forward(z)[2]
        if self._sens is None:
            self._sens = _dxdu(C, self.layout)
        return self._sens

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
        H = self.layout.H0.copy()
        H[:-1, :-1] += 2.0 * (S.T @ (self.layout.Q_rows * S))
        return H

    # inequality constraints h(z) <= 0
    def ineq_constraints(self, z):
        U, X, _, E = self._forward(z)
        lay, N = self.layout, self.N
        v, de = X[1:, 3], X[1:, 4]
        q = np.column_stack([de, v, v * np.tan(de) / self.cfg.wheelbase,
                             E[1:, :4]])
        out = np.empty(len(lay.jac))
        out[0] = np.sum(E[N] ** 2) - z[-1]
        box = out[1:1 + 14 * N].reshape(N, 7, 2)
        np.subtract(q, lay.hi, out=box[..., 0])
        np.subtract(lay.lo, q, out=box[..., 1])
        diff = np.diff(np.concatenate([[self._a_prev], U[:, 0]]))
        rate = out[1 + 14 * N:].reshape(-1, 2)
        np.subtract(diff[lay.rate_first:], DELTA_A_MAX, out=rate[:, 0])
        np.subtract(-diff[lay.rate_first:], DELTA_A_MAX, out=rate[:, 1])
        return out

    def ineq_jacobian(self, z):
        _, X, _, E = self._forward(z)
        S = self._sensitivities(z)
        N, nu = self.N, 2 * self.N
        v, de = X[1:, 3, None], X[1:, 4, None]
        Sk = S[1:]
        J = self.layout.jac.copy()
        J[0, :nu] = 2.0 * E[N] @ S[N]
        # rows of (delta, v, yaw rate, x, y, theta, v), upper then lower
        G = J[1:1 + 14 * N, :nu].reshape(N, 7, 2, nu)[:, :, 0]
        G[:, 0], G[:, 1] = Sk[:, 4], Sk[:, 3]
        G[:, 2] = (np.tan(de) * Sk[:, 3] + v * (1.0 / np.cos(de) ** 2)
                   * Sk[:, 4]) / self.cfg.wheelbase
        G[:, 3:6], G[:, 6] = Sk[:, :3], Sk[:, 3]
        J[1:1 + 14 * N, :nu].reshape(N, 7, 2, nu)[:, :, 1] = -G
        return J

    def bounds(self):
        return self.layout.lb, self.layout.ub


def max_braking_input(u_prev) -> np.ndarray:
    """Strongest deceleration reachable within one tick's rate limit, with
    the steering rate driven to zero."""
    a_prev = 0.0 if u_prev is None else float(u_prev[0])
    a = max(A_MIN, a_prev - DELTA_A_MAX)
    return np.array([a, 0.0])


def refused_tick_input(err, u_prev, u_guess):
    """The input a refused tick applies and the next tick's guess.  With
    the error ``err`` (x, y, theta, v) inside the contract box in position
    and speed, it holds the shifted plan ``u_guess`` (if any) rate-limited
    around ``u_prev``, since braking would only widen the error; otherwise
    it brakes (``max_braking_input``) and drops the guess."""
    inside = (abs(err[0]) <= E_POS and abs(err[1]) <= E_POS
              and abs(err[3]) <= E_V)
    if not inside or u_guess is None:
        return max_braking_input(u_prev), None
    u = u_guess[0].copy()
    u[0] = min(max(u[0], u_prev[0] - DELTA_A_MAX), u_prev[0] + DELTA_A_MAX)
    return u, np.vstack([u_guess[1:], u_guess[-1:]])


def solve_nmpc(chi0: VehicleState, ref, cfg: TrackerConfig,
               u_prev=None, u_guess=None) -> NmpcSolution:
    """One controller tick: track the N_P+1 reference states from chi0.

    Raises Infeasible when no input sequence keeps the tracking error inside
    the contracted bounds; the caller applies ``refused_tick_input``.
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
    # SLSQP runs on y = L^T (z - z0), L L^T the Gauss-Newton Hessian at z0,
    # so its identity start is that Hessian and its first point, y = 0, is
    # z0, whose evaluation the memo still holds; z = z0 + M y with M = L^-T,
    # and the box becomes linear rows (sigma has no upper bound)
    t0 = time.perf_counter()
    L = np.linalg.cholesky(prog.gauss_newton(z0))
    M = scipy.linalg.solve_triangular(L, np.eye(prog.n), lower=True).T
    box_jac = np.concatenate([-M[:-1], M])
    # SLSQP asks for the constraints at y = 0 twice, the first time only to
    # count them, and the violation check below asks at its last point: a
    # one-entry memo, keyed by the bytes of y, serves the repeats, and a
    # copy goes out, since SLSQP may write into what it is given
    memo = {}

    def ineq(y):
        key = y.tobytes()
        if key not in memo:
            z = z0 + M @ y
            memo.clear()
            memo[key] = np.concatenate([-prog.ineq_constraints(z),
                                        ub[:-1] - z[:-1], z - lb])
        return memo[key].copy()

    result = scipy.optimize.minimize(
        lambda y: prog.objective(z0 + M @ y), np.zeros(prog.n),
        jac=lambda y: M.T @ prog.gradient(z0 + M @ y), method="SLSQP",
        constraints=[{"type": "ineq", "fun": ineq,
                      "jac": lambda y: np.concatenate([
                          -prog.ineq_jacobian(z0 + M @ y) @ M, box_jac])}],
        options={"maxiter": MAX_ITER, "ftol": 1e-9})
    wall = time.perf_counter() - t0
    z = z0 + M @ result.x
    viol = float(np.max(np.maximum(-ineq(result.x)[:-len(box_jac)], 0.0),
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
