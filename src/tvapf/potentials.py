"""Static objective terms of the local planner cost.

Road-boundary repulsion and lane preference are smooth scalar fields of the
lateral offset d; each returns its value with its first and second
derivative in d from one evaluation of its exponentials, so the planner
reads its cost, gradient and Hessian from one call.  The speed reference
bounds the desired speed by the road's curvature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ReferencePath


class ConfigError(Exception):
    """A configuration value violates an invariant or a startup check."""


@dataclass(frozen=True)
class PotentialConfig:
    """Shape parameters and weights of the static cost terms."""

    eta: float = 1.2
    a_l_max: float = 2.0
    v_des: float = 12.0
    K_v: float = 1.0
    K_b: float = 50.0
    K_l: float = 5.0
    K_c: float = 2.0

    def __post_init__(self):
        if not self.eta > 1.0:
            raise ConfigError("eta must be > 1")
        if not self.a_l_max > 0:
            raise ConfigError("a_l_max must be positive")
        for name in ("K_v", "K_b", "K_l", "K_c"):
            w = getattr(self, name)
            if not (np.isfinite(w) and w >= 0):
                raise ConfigError(f"{name} must be finite and non-negative")


def effective_speed(v_des, v_max, kappa_eff, a_l_max):
    """Most restrictive of desired speed, legal limit and the comfort speed
    sqrt(a_l_max / |kappa|); the comfort term is +inf on straight segments."""
    kappa = np.abs(np.asarray(kappa_eff, dtype=float))
    with np.errstate(divide="ignore"):
        v_comfort = np.sqrt(np.where(kappa > 0.0, a_l_max / np.where(kappa > 0.0, kappa, 1.0), np.inf))
    return np.minimum(np.minimum(v_des, v_max), v_comfort)


def lateral_offsets(d, path: ReferencePath):
    """(h_l, h_r, h_c): distances from lateral offset d to the left and the
    right road edge, positive inside the road, and to the left boundary of
    the rightmost lane, positive on its right, where the lane potential is
    low.  All three are affine in d with slope -1, +1 and -1."""
    return (path.left_edge_offset - d, d - path.right_edge_offset,
            (path.right_edge_offset + path.lane_width) - d)


def boundary_potential(h_l, h_r, eta):
    """(value, d/dd, d2/dd2) of the superposed left/right Gaussian-profile
    edge repulsion exp(-(eta h_l)**4) + exp(-(eta h_r)**4), one exponential
    per edge, both edges in one pass; h_l and h_r move with slope -1 and +1
    in d.  The powers are products of x*x, as in ``prediction._powers``:
    numpy's ``pow`` is slower and its last digits depend on the CPU."""
    # row 0 is the left edge, row 1 the right one, each in its own offset
    x = eta * np.array([h_l, h_r], dtype=float)
    x2 = x * x
    x4 = x2 * x2
    e = np.exp(-x4)
    slope = -4.0 * eta * (x * x2) * e
    curv = eta * eta * (16.0 * (x4 * x2) - 12.0 * x2) * e
    return e[0] + e[1], slope[1] - slope[0], curv[0] + curv[1]


def lane_potential(h_c):
    """(value, d/dd, d2/dd2) of the sigmoid pull 1 / (1 + exp(h_c)) toward
    the rightmost free lane, low for h_c >> 0; h_c moves with slope -1 in
    d."""
    w = 1.0 / (1.0 + np.exp(np.asarray(h_c, dtype=float)))
    slope = w * (1.0 - w)
    return w, slope, slope * (1.0 - 2.0 * w)


def lateral_cost_profile(d, path: ReferencePath, cfg: PotentialConfig):
    """Combined weighted lateral cost K_b*W_b + K_l*W_l as a function of d."""
    h_l, h_r, h_c = lateral_offsets(np.asarray(d, dtype=float), path)
    return (cfg.K_b * boundary_potential(h_l, h_r, cfg.eta)[0]
            + cfg.K_l * lane_potential(h_c)[0])


def verify_lane_centering(path: ReferencePath, cfg: PotentialConfig,
                          tol: float = 0.45):
    """Startup check of the implicit lane-centering construction.

    The superposed boundary and lane potentials must have their minimum
    inside the rightmost lane, within ``tol`` lane-widths of its center.
    With eta > 1 the boundary field is essentially flat away from the edges,
    so the achievable minimum sits slightly right of the exact lane center;
    the check bounds that offset instead of demanding exact centering.

    Returns the minimizing lateral offset; raises ConfigError on failure.
    """
    lane_lo = path.right_edge_offset
    lane_hi = path.right_edge_offset + path.lane_width
    grid = np.linspace(lane_lo + 0.05, lane_hi - 0.05, 2001)
    cost = lateral_cost_profile(grid, path, cfg)
    d_min = float(grid[np.argmin(cost)])
    center = path.rightmost_lane_center
    if abs(d_min - center) > tol * path.lane_width:
        raise ConfigError(
            f"lateral cost minimum at d={d_min:.2f} is {abs(d_min - center):.2f} m "
            f"from the rightmost lane center {center:.2f}; retune eta/K_b/K_l")
    return d_min
