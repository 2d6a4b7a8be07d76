"""Explicit RK4 step of a controlled ODE x' = f(x, u).

Both vehicle models integrate with this one scheme, written component-wise:
x and u are sequences of components, floats for one state (on a 5-vector
numpy's per-call cost exceeds the arithmetic) or arrays over a batch.  A
model supplies its vector field ``f(x, u)``, returning components the same
way.

The NLPs form their models' steps in closed form, to the bit the values of
``rk4``: in both models the speed and the heading rate or steering angle
move with the held inputs, so stages 2 and 3 share those components.  The
planner's point mass (``planner._step``, three angles) has its Jacobians,
whose stage terms multiply to zero, on their pattern
(``planner._LtpProgram.eq_jacobian``); the tracker's single track
(``tracker._step``, three steering angles and four headings) returns the
derivative coefficients from which ``tracker._dxdu`` forms the
sensitivities of a whole horizon.  ``rk4`` and ``rollout`` step the
planner's guesses, its published states and its safe-stop plan.
"""

from __future__ import annotations

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
    step on floats per input."""
    xs = [[float(c) for c in x0]]
    for u in U:
        xs.append(rk4(f, xs[-1], u, h)[0])
    return np.array(xs)
