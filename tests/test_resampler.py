"""Resampling the planned trajectory onto the controller grid."""

import math

import numpy as np
import pytest

from tvapf.geometry import (FrenetPoint, ReferencePath, frenet_to_cartesian,
                            straight_path)
from tvapf.planner import ControlInput, EgoModelState, PlannedTrajectory
from tvapf.resampler import _sample, resample

X, Y, THETA, V, DELTA = range(5)  # columns of the reference array


def _constant_speed_traj(nu=10.0, d=-2.0, n=20, t0=0.0):
    states = tuple(EgoModelState(s=nu * 0.5 * j, d=d, psi=0.0, nu=nu)
                   for j in range(n + 1))
    inputs = tuple(ControlInput(0.0, 0.0) for _ in range(n))
    return PlannedTrajectory(t0=t0, T_sL=0.5, states=states, inputs=inputs)


@pytest.fixture(scope="module")
def path():
    return straight_path()


def test_knot_identity(path):
    # querying exactly on the planning grid reproduces the planned states
    traj = _constant_speed_traj()
    ref = resample(traj, path, t_query=1.0, N_P=10, T_sMPC=0.5, wheelbase=2.7)
    assert ref.shape == (11, 5)
    for k, r in enumerate(ref):
        x = traj.states[2 + k]
        assert r[X] == pytest.approx(x.s, abs=1e-9)
        assert r[Y] == pytest.approx(x.d, abs=1e-9)
        assert r[V] == pytest.approx(x.nu, abs=1e-12)


def test_constant_speed_advance(path):
    # between knots the position advances by nu * T_sMPC per sample
    ref = resample(_constant_speed_traj(), path, t_query=0.0, N_P=10,
                   T_sMPC=0.2, wheelbase=2.7)
    assert np.allclose(np.diff(ref[:, X]), 10.0 * 0.2, atol=1e-9)


def test_heading_is_path_heading_plus_psi(path):
    # on a straight east-bound path with psi = 0 the absolute heading is 0
    ref = resample(_constant_speed_traj(), path, 0.0, 10, 0.2, 2.7)
    assert np.allclose(ref[:, THETA], 0.0, rtol=0.0, atol=1e-12)
    # a constant relative heading shows up directly in theta
    states = tuple(EgoModelState(s=2.0 * j, d=-2.0, psi=0.05, nu=4.0)
                   for j in range(21))
    traj = PlannedTrajectory(t0=0.0, T_sL=0.5, states=states,
                             inputs=tuple(ControlInput(0.0, 0.0)
                                          for _ in range(20)))
    ref = resample(traj, path, 0.0, 10, 0.2, 2.7)
    assert np.allclose(ref[:, THETA], 0.05, rtol=0.0, atol=1e-12)


def test_zero_steering_on_straight_line(path):
    # straight motion at zero heading rate needs no steering angle
    ref = resample(_constant_speed_traj(), path, 0.0, 10, 0.2, 2.7)
    assert np.allclose(ref[:, DELTA], 0.0, rtol=0.0, atol=1e-12)


def test_steering_from_heading_rate(path):
    # omega > 0 at speed nu implies curvature omega/nu and a matching
    # steering angle atan(L * kappa)
    nu, omega = 8.0, 0.04
    states = tuple(EgoModelState(s=nu * 0.5 * j, d=-2.0, psi=0.0, nu=nu)
                   for j in range(21))
    inputs = tuple(ControlInput(0.0, omega) for _ in range(20))
    traj = PlannedTrajectory(t0=0.0, T_sL=0.5, states=states, inputs=inputs)
    ref = resample(traj, path, 0.0, 4, 0.2, wheelbase=2.7)
    expected = math.atan(2.7 * omega / nu)
    assert ref[0, DELTA] == pytest.approx(expected, rel=1e-9)


def test_horizon_exhausted(path):
    traj = _constant_speed_traj(n=20)  # ends at t = 10 s
    # ends exactly at 10
    resample(traj, path, t_query=8.0, N_P=10, T_sMPC=0.2, wheelbase=2.7)
    with pytest.raises(ValueError, match="not inside"):
        resample(traj, path, t_query=8.1, N_P=10, T_sMPC=0.2, wheelbase=2.7)


def test_query_before_start_rejected(path):
    traj = _constant_speed_traj(t0=5.0)
    resample(traj, path, t_query=5.0, N_P=10, T_sMPC=0.2, wheelbase=2.7)
    with pytest.raises(ValueError, match="not inside"):
        resample(traj, path, t_query=4.0, N_P=10, T_sMPC=0.2, wheelbase=2.7)


def test_nonzero_t0_alignment(path):
    traj = _constant_speed_traj(t0=5.0)
    ref = resample(traj, path, t_query=5.0, N_P=10, T_sMPC=0.2, wheelbase=2.7)
    assert ref[0, X] == pytest.approx(0.0, abs=1e-12)
    assert ref[5, X] == pytest.approx(10.0, abs=1e-9)


def _reference_state(traj, path, t, wheelbase):
    """One reference state on its own, point by point: the formula resample
    evaluates on the whole window at once."""
    s, d, psi, nu, omega = _sample(traj, t)
    s_clip = min(max(s, 0.0), path.length)
    p = frenet_to_cartesian(path, FrenetPoint(s=s_clip, d=d))
    heading = float(path.heading(s_clip))
    kappa_path = float(path.curvature(s_clip))
    kappa_traj = (omega + kappa_path * nu * math.cos(psi)) / max(nu, 0.3)
    return [p.x, p.y, psi + heading, max(nu, 0.0),
            math.atan(wheelbase * kappa_traj)]


def test_window_matches_per_sample_reference_on_arc():
    # left-hand arc of radius 150 m: kappa = 1/150 enters theta and delta
    th = np.linspace(0.0, 0.5 * math.pi, 120)
    path = ReferencePath(150.0 * np.stack([np.sin(th), 1.0 - np.cos(th)],
                                          axis=1))
    assert float(path.curvature(50.0)) == pytest.approx(1.0 / 150.0, rel=1e-3)
    states = tuple(EgoModelState(s=10.0 + 4.0 * k, d=-2.0 + 0.15 * k,
                                 psi=0.03 * math.sin(k), nu=8.0 - 0.4 * k)
                   for k in range(21))
    inputs = tuple(ControlInput(-0.2, 0.02 * math.cos(k)) for k in range(20))
    traj = PlannedTrajectory(t0=2.0, T_sL=0.5, states=states, inputs=inputs)
    for t_query in (2.0, 2.3, 7.9):
        ref = resample(traj, path, t_query, N_P=10, T_sMPC=0.2, wheelbase=2.7)
        want = [_reference_state(traj, path, t_query + k * 0.2, 2.7)
                for k in range(11)]
        assert ref.tolist() == want
