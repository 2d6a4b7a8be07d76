"""The dense chain rule of the RK4 step's sensitivities, the reference that
the closed-form step Jacobians of the planner and the sensitivities of the
tracker are tested against."""

import numpy as np

from tvapf.dynamics import rk4


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
    """df/dx and df/du of the single track ``tracker._f`` with wheelbase L
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
