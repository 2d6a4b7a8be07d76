"""Explicit RK4 step of a controlled ODE x' = f(x, u), and its sensitivities.

Both vehicle models integrate with this one scheme.  A model supplies its
vector field ``f(x, u)`` and a batched Jacobian ``jac(Y, U) -> (A, B)``,
A = df/dx (..., n, n) and B = df/du (..., n, m) at every state of Y.  The
step's sensitivities follow the chain rule through the four stages,

    dk_i/dx = A_i (I + c_i dk_{i-1}/dx),   dk_i/du = A_i c_i dk_{i-1}/du + B_i,

from the stage points the forward pass returns.
"""

from __future__ import annotations

import numpy as np


def rk4(f, x, u, h):
    """One RK4 step of x' = f(x, u) with u held over [0, h].

    x is (..., n) and u (..., m); f must accept them as given.  Returns the
    next state and the four stage points (x, x + h/2 k1, x + h/2 k2,
    x + h k3), at which the stages k1 .. k4 were evaluated.
    """
    k1 = f(x, u)
    y2 = x + 0.5 * h * k1
    k2 = f(y2, u)
    y3 = x + 0.5 * h * k2
    k3 = f(y3, u)
    y4 = x + h * k3
    k4 = f(y4, u)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), (x, y2, y3, y4)


def rollout(f, x0, U, h):
    """States (M + 1, n) from x0 under the M inputs of U, one RK4 step per
    input, and the stage points (4, M, n) of the steps."""
    x, xs, stages = x0, [x0], []
    for u in U:
        x, y = rk4(f, x, u, h)
        xs.append(x)
        stages.append(y)
    return (np.array(xs),
            np.reshape(stages, (len(stages), 4, len(x0))).transpose(1, 0, 2))


def rk4_jacobians(jac, Y, U, h):
    """Jacobians Fx (M, n, n) and Fu (M, n, m) of M RK4 steps at once.

    Y (4, M, n) holds each step's four stage points, as ``rk4`` returns
    them, and U (M, m) the inputs held over the steps.
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
