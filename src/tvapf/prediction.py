"""Bounded reachable-set prediction for dynamic obstacles and the resulting
time-varying obstacle potential field.

Each obstacle's longitudinal position is propagated with two bounding
constant-acceleration rollouts (speed saturated at its bounds every step); the
interval between them is the reachable set, and the field at prediction step j
is an even-exponent exponential bump centered on that interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


class InvalidBounds(Exception):
    """Velocity or acceleration bounds are unordered."""


class NoSolution(Exception):
    """Field-edge calibration has no finite solution."""


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

    When ``alpha_s``/``alpha_d`` are None they are derived per evaluation from
    ``edge_value``: the field equals edge_value at the safety-zone edge
    (longitudinal offset delta_s/2 + sigma_s, lateral offset l_W/2 + sigma_d
    from the center).
    """

    sigma_s: float = 10.0
    sigma_d: float = 0.5
    c: int = 4
    l_W: float = 4.0
    edge_value: float = math.exp(-1.0)
    epsilon_o: float = 0.05
    alpha_s: float | None = None
    alpha_d: float | None = None

    def __post_init__(self):
        if self.c < 2 or self.c % 2 != 0:
            raise ValueError("c must be an even integer >= 2")
        if self.sigma_s < 0 or self.sigma_d < 0:
            raise ValueError("safety margins must be non-negative")
        if not 0.0 < self.epsilon_o < 1.0:
            raise ValueError("epsilon_o must lie in (0, 1)")
        if self.alpha_s is not None and self.alpha_s <= 0:
            raise ValueError("alpha_s must be positive")
        if self.alpha_d is not None and self.alpha_d <= 0:
            raise ValueError("alpha_d must be positive")


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


def calibrate_alphas(p: TvapfParams, delta_s: float = 0.0) -> TvapfParams:
    """Solve the edge condition for the scaling factors.

    alpha_s is chosen so the field evaluated at longitudinal offset
    delta_s/2 + sigma_s from the center (at d = d_o) equals edge_value;
    alpha_d analogously at lateral offset l_W/2 + sigma_d.
    """
    if not 0.0 < p.edge_value < 1.0:
        raise NoSolution(f"edge_value {p.edge_value} admits no finite scaling")
    root = (-math.log(p.edge_value)) ** (1.0 / p.c)
    alpha_s = root * (delta_s + p.sigma_s) / (0.5 * delta_s + p.sigma_s)
    alpha_d = root * (p.l_W + p.sigma_d) / (0.5 * p.l_W + p.sigma_d)
    return replace(p, alpha_s=alpha_s, alpha_d=alpha_d)


def tvapf_scales(f: UncertainForecast, j: int, p: TvapfParams):
    """(gamma_s, gamma_d) of the field at prediction step j."""
    delta_s = float(f.delta_s[j])
    return _scales_from_spread(delta_s, p)


def _scales_from_spread(delta_s, p: TvapfParams):
    delta_s = np.asarray(delta_s, dtype=float)
    if p.alpha_s is None or p.alpha_d is None:
        root = (-math.log(p.edge_value)) ** (1.0 / p.c)
        gamma_s = (0.5 * delta_s + p.sigma_s) / root
        gamma_d = (0.5 * p.l_W + p.sigma_d) / root
    else:
        gamma_s = (delta_s + p.sigma_s) / p.alpha_s
        gamma_d = (p.l_W + p.sigma_d) / p.alpha_d
    return gamma_s, gamma_d


def tvapf_value(s, d, f: UncertainForecast, j: int, p: TvapfParams):
    """Field magnitude at (s, d) for prediction step j; peaks at 1 on the
    reachable-set center and decays with even symmetry in both axes."""
    gamma_s, gamma_d = tvapf_scales(f, j, p)
    xs = (np.asarray(s, dtype=float) - f.s_center[j]) / gamma_s
    xd = (np.asarray(d, dtype=float) - f.d_o) / gamma_d
    return np.exp(-(xs ** p.c + xd ** p.c))


def tvapf_grad(s, d, f: UncertainForecast, j: int, p: TvapfParams):
    """(dW/ds, dW/dd) of the field at (s, d), prediction step j."""
    gamma_s, gamma_d = tvapf_scales(f, j, p)
    xs = (np.asarray(s, dtype=float) - f.s_center[j]) / gamma_s
    xd = (np.asarray(d, dtype=float) - f.d_o) / gamma_d
    w = np.exp(-(xs ** p.c + xd ** p.c))
    gs = -w * p.c * xs ** (p.c - 1) / gamma_s
    gd = -w * p.c * xd ** (p.c - 1) / gamma_d
    return gs, gd


def total_obstacle_field(s, d, forecasts, j: int, p: TvapfParams):
    """Superposition of all obstacle fields at prediction step j."""
    total = np.zeros_like(np.asarray(s, dtype=float), dtype=float)
    for f in forecasts:
        total = total + tvapf_value(s, d, f, j, p)
    return total
