"""Bounded reachable-set prediction for dynamic obstacles and the resulting
time-varying obstacle potential field.

Each obstacle's longitudinal position is propagated with two bounding
constant-acceleration rollouts (speed saturated at its bounds every step); the
interval between them is the reachable set, and the field at prediction step j
is an even-exponent exponential bump centered on that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidBounds(Exception):
    """Velocity or acceleration bounds are unordered."""


@dataclass(frozen=True)
class ObstacleState:
    """Measured obstacle state in road-aligned coordinates.

    Speeds are magnitudes; ``direction`` is +1 for travel along increasing s
    and -1 for oncoming traffic, so the non-negative speed bounds work for
    both directions.
    """

    s_o: float
    d_o: float
    v_o: float
    v_bounds: tuple
    a_bounds: tuple
    direction: int = 1

    def __post_init__(self):
        v_lo, v_hi = self.v_bounds
        a_lo, a_hi = self.a_bounds
        if v_lo > v_hi or v_lo < 0:
            raise InvalidBounds(f"velocity bounds [{v_lo}, {v_hi}] invalid")
        if a_lo > a_hi:
            raise InvalidBounds(f"acceleration bounds [{a_lo}, {a_hi}] unordered")
        if not v_lo <= self.v_o <= v_hi:
            raise InvalidBounds(f"speed {self.v_o} outside bounds [{v_lo}, {v_hi}]")
        if self.direction not in (1, -1):
            raise InvalidBounds("direction must be +1 or -1")


@dataclass(frozen=True)
class UncertainForecast:
    """Per-step reachable-set description of one obstacle over the horizon.

    Arrays are indexed by prediction step j = 0..N_L; step 0 is the measured
    state with zero spread.
    """

    s_min: np.ndarray
    s_max: np.ndarray
    s_center: np.ndarray
    delta_s: np.ndarray
    d_o: float
    direction: int = 1

    @property
    def steps(self) -> int:
        return len(self.s_center) - 1


@dataclass(frozen=True)
class TvapfParams:
    """Shape parameters of the obstacle field.

    The field's scales follow from ``edge_value`` in (0, 1): the field of
    each forecast equals edge_value at the edge of its safety zone, at
    longitudinal offset delta_s/2 + sigma_s and lateral offset
    l_W/2 + sigma_d from the reachable-set center.  The planner keeps the
    superposed field at or below ``epsilon_o``.
    """

    sigma_s: float = 10.0
    sigma_d: float = 0.5
    c: int = 4
    l_W: float = 4.0
    edge_value: float = math.exp(-1.0)
    epsilon_o: float = 0.05

    def __post_init__(self):
        if self.c < 2 or self.c % 2 != 0:
            raise ValueError("c must be an even integer >= 2")
        if self.sigma_s < 0 or self.sigma_d < 0:
            raise ValueError("safety margins must be non-negative")
        if not 0.0 < self.edge_value < 1.0:
            raise ValueError("edge_value must lie in (0, 1)")
        if not 0.0 < self.epsilon_o < 1.0:
            raise ValueError("epsilon_o must lie in (0, 1)")


def propagate_obstacle(o: ObstacleState, T_sL: float, N_L: int) -> UncertainForecast:
    """Bounding rollouts of the discrete obstacle model over N_L steps.

    Position updates with the current speed before the speed integrates the
    acceleration, so the spread appears one step after the velocities diverge.
    """
    if N_L < 1 or T_sL <= 0:
        raise ValueError("need N_L >= 1 and T_sL > 0")
    v_lo, v_hi = o.v_bounds
    a_lo, a_hi = o.a_bounds

    s_fast = np.empty(N_L + 1)
    s_slow = np.empty(N_L + 1)
    s_fast[0] = s_slow[0] = o.s_o
    vf = vs = o.v_o
    for j in range(N_L):
        s_fast[j + 1] = s_fast[j] + T_sL * o.direction * vf
        s_slow[j + 1] = s_slow[j] + T_sL * o.direction * vs
        vf = min(max(vf + T_sL * a_hi, v_lo), v_hi)
        vs = min(max(vs + T_sL * a_lo, v_lo), v_hi)

    s_min = np.minimum(s_fast, s_slow)
    s_max = np.maximum(s_fast, s_slow)
    return UncertainForecast(
        s_min=s_min,
        s_max=s_max,
        s_center=0.5 * (s_min + s_max),
        delta_s=np.abs(s_max - s_min),
        d_o=o.d_o,
        direction=o.direction,
    )


class ObstacleField:
    """Superposed obstacle fields of ``forecasts`` at prediction step ``j``,
    an index or an index array.

    The field of one forecast is W = exp(-(xs**c + xd**c)) with scaled
    offsets xs = (s - s_center[j]) / gamma_s and xd = (d - d_o) / gamma_d.
    It peaks at 1 on the reachable-set center, decays with even symmetry in
    both axes and equals edge_value at the safety-zone edge.  The scales are
    arrays indexed (forecast, j), so the points (s, d) given to the methods
    must broadcast against j's shape.  ``terms`` keeps one row per forecast;
    ``value``, ``grad`` and ``curvature`` sum the rows (zero without
    forecasts).  The terms of the last point asked for are kept, since a
    solver asks for the value, gradient and curvature at one iterate in turn.
    """

    def __init__(self, forecasts, j, p: TvapfParams):
        j = np.asarray(j)
        shape = (len(forecasts),) + j.shape
        root = (-math.log(p.edge_value)) ** (1.0 / p.c)
        self.c = p.c
        # exp(-x) is 0 in float64 for x > 745.2, so w is 0 wherever an
        # offset is clipped at x_max (x_max**c = 750): no power overflows,
        # whatever c, and w times a power stays a zero of the same sign
        self._x_max = 750.0 ** (1.0 / p.c)
        self.center = np.array([fc.s_center[j] for fc in forecasts],
                               dtype=float).reshape(shape)
        spread = np.array([fc.delta_s[j] for fc in forecasts],
                          dtype=float).reshape(shape)
        self.gamma_s = (0.5 * spread + p.sigma_s) / root
        self.d_o = np.array([fc.d_o for fc in forecasts],
                            dtype=float).reshape((-1,) + (1,) * j.ndim)
        self.gamma_d = np.full(shape, (0.5 * p.l_W + p.sigma_d) / root)
        self._at = None

    def terms(self, s, d):
        """Scaled offsets xs, xd (clipped where w has underflowed to 0) and
        field values w, one row per forecast."""
        if self._at is not None and np.array_equal(s, self._at[0]) \
                and np.array_equal(d, self._at[1]):
            return self._terms
        x_max = self._x_max
        xs = np.clip((s - self.center) / self.gamma_s, -x_max, x_max)
        xd = np.clip((d - self.d_o) / self.gamma_d, -x_max, x_max)
        c = self.c
        self._at = np.array(s), np.array(d)
        self._terms = xs, xd, np.exp(-(xs ** c + xd ** c))
        return self._terms

    def value(self, s, d):
        return np.sum(self.terms(s, d)[2], axis=0)

    def grad(self, s, d):
        """(dW/ds, dW/dd)."""
        c = self.c
        xs, xd, w = self.terms(s, d)
        return (np.sum(-w * c * xs ** (c - 1) / self.gamma_s, axis=0),
                np.sum(-w * c * xd ** (c - 1) / self.gamma_d, axis=0))

    def curvature(self, s, d):
        """(d2W/ds2, d2W/ds dd, d2W/dd2)."""
        c = self.c
        xs, xd, w = self.terms(s, d)
        g_s, g_d = self.gamma_s, self.gamma_d
        return (np.sum(w * (c * c * xs ** (2 * c - 2)
                            - c * (c - 1) * xs ** (c - 2)) / g_s ** 2, axis=0),
                np.sum(w * c * c * xs ** (c - 1) * xd ** (c - 1)
                       / (g_s * g_d), axis=0),
                np.sum(w * (c * c * xd ** (2 * c - 2)
                            - c * (c - 1) * xd ** (c - 2)) / g_d ** 2, axis=0))
