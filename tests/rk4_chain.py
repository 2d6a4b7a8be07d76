"""The test-side reference of both vehicle models: their vector fields, the
generic explicit RK4 step and rollout, and the dense chain rule of the RK4
step's sensitivities.  Every closed form in ``src/`` is checked against
these bit for bit: the planner's ``_step`` (next state and stage points)
and its step Jacobians, and the tracker's ``_step``, which the plant
shares, with its sensitivities."""

import math

import numpy as np


def point_mass_f(x, u):
    """Point-mass vector field of ``planner._step`` on state and input
    components, floats or arrays over a batch."""
    _, _, psi, nu = x
    return nu * np.cos(psi), nu * np.sin(psi), u[1], u[0]


def bicycle_f(L, chi, u):
    """Single-track vector field of ``tracker._step`` with wheelbase L on
    the float components of one state."""
    _, _, th, v, de = chi
    return (v * math.cos(th), v * math.sin(th), v * math.tan(de) / L,
            u[0], u[1])


def rk4(f, x, u, h):
    """One RK4 step of x' = f(x, u) with u held over [0, h].

    x and u are sequences of components, floats or arrays over a batch.
    Returns the next state and the four stage points (x, x + h/2 k1,
    x + h/2 k2, x + h k3) at which k1 .. k4 were evaluated, as components.
    """
    half, sixth = 0.5 * h, h / 6.0
    k1 = f(x, u)
    y2 = [xi + half * ki for xi, ki in zip(x, k1)]
    k2 = f(y2, u)
    y3 = [xi + half * ki for xi, ki in zip(x, k2)]
    k3 = f(y3, u)
    y4 = [xi + h * ki for xi, ki in zip(x, k3)]
    k4 = f(y4, u)
    return ([xi + sixth * (a + 2.0 * b + 2.0 * c + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)], (x, y2, y3, y4))


def rollout(f, x0, U, h):
    """States (M + 1, n) from one state x0 under the M inputs of U, one RK4
    step on floats per input."""
    xs = [[float(c) for c in x0]]
    for u in U:
        xs.append(rk4(f, xs[-1], u, h)[0])
    return np.array(xs)


def rollout_stages(f, x0, U, h):
    """States (M + 1, n) from x0 under the M inputs of U, one RK4 step on
    floats per input, and the stage points (4, M, n) of the steps."""
    xs, stages = [[float(c) for c in x0]], []
    for u in U:
        x, y = rk4(f, xs[-1], u, h)
        xs.append(x)
        stages.append(y)
    return np.array(xs), np.transpose(stages, (1, 0, 2))


def rk4_jacobians(jac, Y, U, h):
    """Jacobians Fx (M, n, n) and Fu (M, n, m) of M RK4 steps at once.

    ``jac(Y, U) -> (A, B)`` gives A = df/dx (..., n, n) and B = df/du
    (..., n, m) at every state of Y.  Y (4, M, n) holds each step's four
    stage points, as ``rollout_stages`` returns them, and U (M, m) the
    inputs held over the steps.  The chain rule runs through the stages,

        dk_i/dx = A_i (I + c_i dk_{i-1}/dx),
        dk_i/du = A_i c_i dk_{i-1}/du + B_i.
    """
    A, B = jac(np.asarray(Y), U)
    I = np.eye(A.shape[-1])
    dkx, dku = [A[0]], [B[0]]
    for i, c in ((1, 0.5 * h), (2, 0.5 * h), (3, h)):
        dkx.append(A[i] @ (I + c * dkx[-1]))
        dku.append(A[i] @ (c * dku[-1]) + B[i])
    Fx = I + (h / 6.0) * (dkx[0] + 2.0 * dkx[1] + 2.0 * dkx[2] + dkx[3])
    Fu = (h / 6.0) * (dku[0] + 2.0 * dku[1] + 2.0 * dku[2] + dku[3])
    return Fx, Fu


_BICYCLE_B = np.zeros((5, 2))
_BICYCLE_B[3, 0] = _BICYCLE_B[4, 1] = 1.0


def bicycle_jac(L, Y, U):
    """df/dx and df/du of the single track ``bicycle_f`` with wheelbase L
    at every state of Y (..., 5)."""
    th, v, de = Y[..., 2], Y[..., 3], Y[..., 4]
    sin, cos = np.sin(th), np.cos(th)
    A = np.zeros(Y.shape + (5,))
    A[..., 0, 2] = -v * sin
    A[..., 0, 3] = cos
    A[..., 1, 2] = v * cos
    A[..., 1, 3] = sin
    A[..., 2, 3] = np.tan(de) / L
    A[..., 2, 4] = v / (L * np.cos(de) ** 2)
    return A, np.broadcast_to(_BICYCLE_B, Y.shape[:-1] + _BICYCLE_B.shape)
