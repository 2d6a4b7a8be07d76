"""Trajectory resampling and synchronization.

Converts the planner output (road-aligned states on the slow planning grid)
into Cartesian vehicle references on the controller grid: linear
interpolation in time, Frenet-to-Cartesian mapping, relative-to-absolute
heading conversion, and steering-angle synthesis from trajectory curvature.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import FrenetPoint, ReferencePath, frenet_to_cartesian
from .planner import PlannedTrajectory
from .tracker import VehicleState


class HorizonExhausted(Exception):
    """The query time runs past the end of the planned trajectory."""


def _interp_angle(a0: float, a1: float, w: float) -> float:
    """Linear interpolation along the shortest angular arc."""
    diff = (a1 - a0 + math.pi) % (2.0 * math.pi) - math.pi
    return a0 + w * diff


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
             N_P: int, T_sMPC: float, wheelbase: float = 2.7):
    """Reference states for one controller tick: N_P + 1 samples starting at
    t_query, spaced T_sMPC apart.

    Raises HorizonExhausted when the requested window runs past the planned
    horizon, signalling a missed planner deadline.
    """
    if t_query < traj.t0 - 1e-9:
        raise ValueError(f"t_query={t_query:.3f} precedes trajectory start "
                         f"{traj.t0:.3f}")
    t_last = t_query + N_P * T_sMPC
    if t_last > traj.t_end + 1e-9:
        raise HorizonExhausted(
            f"reference window end {t_last:.3f}s exceeds trajectory end "
            f"{traj.t_end:.3f}s")
    s, d, psi, nu, omega = zip(*(_sample(traj, t_query + k * T_sMPC)
                                 for k in range(N_P + 1)))
    s = np.clip(s, 0.0, path.length)
    p = frenet_to_cartesian(path, FrenetPoint(s=s, d=np.array(d)))
    refs = []
    for x, y, heading, kappa_path, psi_k, nu_k, omega_k in zip(
            p.x.tolist(), p.y.tolist(), path.heading(s).tolist(),
            path.curvature(s).tolist(), psi, nu, omega):
        # curvature of the planned motion: heading rate over speed, where
        # the absolute heading rate combines the commanded psi rate with the
        # path tangent rotation rate s_dot * kappa
        kappa_traj = ((omega_k + kappa_path * nu_k * math.cos(psi_k))
                      / max(nu_k, 0.3))
        refs.append(VehicleState(x=x, y=y, theta=psi_k + heading,
                                 v=max(nu_k, 0.0),
                                 delta=math.atan(wheelbase * kappa_traj)))
    return refs
