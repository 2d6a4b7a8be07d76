"""Trajectory resampling and synchronization.

Converts the planner output (road-aligned states on the slow planning grid)
into Cartesian vehicle references on the controller grid: linear
interpolation in time, Frenet-to-Cartesian mapping, relative-to-absolute
heading conversion, and steering-angle synthesis from trajectory curvature.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import (FrenetPoint, ReferencePath, frenet_to_cartesian,
                       wrap_angle)
from .planner import PlannedTrajectory


def _interp_angle(a0: float, a1: float, w: float) -> float:
    """Linear interpolation along the shortest angular arc."""
    return a0 + w * wrap_angle(a1 - a0)


def _sample(traj: PlannedTrajectory, t: float):
    """Linearly interpolated (s, d, psi, nu, omega) at absolute time t."""
    rel = (t - traj.t0) / traj.T_sL
    j = int(math.floor(rel + 1e-12))
    j = min(max(j, 0), traj.horizon - 1)
    w = rel - j
    a = traj.states[j]
    b = traj.states[j + 1]
    s = a.s + w * (b.s - a.s)
    d = a.d + w * (b.d - a.d)
    psi = _interp_angle(a.psi, b.psi, w)
    nu = a.nu + w * (b.nu - a.nu)
    omega = traj.inputs[j].omega
    return s, d, psi, nu, omega


def resample(traj: PlannedTrajectory, path: ReferencePath, t_query: float,
             N_P: int, T_sMPC: float, wheelbase: float) -> np.ndarray:
    """Reference for one controller tick: the (N_P + 1, 5) array of
    (x, y, theta, v, delta) at N_P + 1 times from t_query, T_sMPC apart.

    Raises ValueError when the window does not lie inside the trajectory.
    Validation (``tracker.check_hierarchy``) makes every plan reach past
    the last tick of its instance, so the closed loop never does this.
    """
    t_last = t_query + N_P * T_sMPC
    if t_query < traj.t0 - 1e-9 or t_last > traj.t_end + 1e-9:
        raise ValueError(
            f"reference window [{t_query:.3f}, {t_last:.3f}] s is not inside "
            f"the trajectory's [{traj.t0:.3f}, {traj.t_end:.3f}] s")
    s, d, psi, nu, omega = zip(*(_sample(traj, t_query + k * T_sMPC)
                                 for k in range(N_P + 1)))
    s = np.clip(s, 0.0, path.length)
    p = frenet_to_cartesian(path, FrenetPoint(s=s, d=np.array(d)))
    rows = []
    for x, y, heading, kappa_path, psi_k, nu_k, omega_k in zip(
            p.x.tolist(), p.y.tolist(), path.heading(s).tolist(),
            path.curvature(s).tolist(), psi, nu, omega):
        # curvature of the planned motion: heading rate over speed, where
        # the absolute heading rate combines the commanded psi rate with the
        # path tangent rotation rate s_dot * kappa
        kappa_traj = ((omega_k + kappa_path * nu_k * math.cos(psi_k))
                      / max(nu_k, 0.3))
        rows.append((x, y, psi_k + heading, max(nu_k, 0.0),
                     math.atan(wheelbase * kappa_traj)))
    return np.array(rows)
