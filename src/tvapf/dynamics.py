"""Explicit RK4 step of a controlled ODE x' = f(x, u), and its sensitivities.

Both vehicle models integrate with this one scheme, written component-wise:
x and u are sequences of components, floats for one state (on a 5-vector
numpy's per-call cost exceeds the arithmetic) or arrays over a batch.  A
model supplies its vector field ``f(x, u)``, returning components the same
way, and a batched Jacobian ``jac(Y, U) -> (A, B)``, A = df/dx (..., n, n)
and B = df/du (..., n, m) at every state of Y.  The step's sensitivities
follow the chain rule through the four stages,

    dk_i/dx = A_i (I + c_i dk_{i-1}/dx),   dk_i/du = A_i c_i dk_{i-1}/du + B_i,

from the stage points the forward pass returns.  The tracker's bicycle takes
them from ``rk4_jacobians``.  The planner's NLP forms the point mass's step
in closed form (``planner._step``: psi and nu move with the held inputs, so
stages 2 and 3 share their point and the step needs three angles), and its
Jacobians, whose stage terms multiply to zero, on their pattern
(``planner._LtpProgram.eq_jacobian``), both to the bit the values of ``rk4``
and the chain; ``rk4`` and ``rollout`` step the planner's guesses, its
published states and its safe-stop plan.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


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
    step on floats per input, and the stage points (4, M, n) of the steps."""
    x = [float(c) for c in x0]
    xs, stages = [x], []
    for u in U:
        x, y = rk4(f, x, u, h)
        xs.append(x)
        stages.extend(chain.from_iterable(y))
    Y = np.array(stages).reshape(len(xs) - 1, 4, len(x))
    return np.array(xs), Y.transpose(1, 0, 2)


def rk4_jacobians(jac, Y, U, h):
    """Jacobians Fx (M, n, n) and Fu (M, n, m) of M RK4 steps at once.

    Y (4, M, n) holds each step's four stage points, as ``rollout`` returns
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
