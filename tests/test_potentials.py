"""Static cost terms: the speed reference, boundary repulsion and lane
preference, and their first and second derivatives."""

import math

import numpy as np
import pytest

from tvapf.geometry import straight_path
from tvapf.potentials import (ConfigError, PotentialConfig, boundary_potential,
                              boundary_potential_curv, boundary_potential_grad,
                              effective_speed, lane_potential,
                              lane_potential_curv, lane_potential_grad,
                              lateral_cost_profile, verify_lane_centering)


def test_config_validation():
    with pytest.raises(ConfigError):
        PotentialConfig(eta=1.0)
    with pytest.raises(ConfigError):
        PotentialConfig(a_l_max=0.0)
    with pytest.raises(ConfigError):
        PotentialConfig(K_b=-1.0)
    with pytest.raises(ConfigError):
        PotentialConfig(K_v=math.inf)


def test_effective_speed():
    assert effective_speed(12.0, 12.5, 0.0) == pytest.approx(12.0)
    # comfort term sqrt(2 / 0.08) = 5 dominates
    assert effective_speed(12.0, 12.5, 0.08, a_l_max=2.0) == pytest.approx(5.0)
    assert effective_speed(9.0, 9.0, 0.0) == pytest.approx(9.0)


def test_effective_speed_is_pointwise_min():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v_des = rng.uniform(1, 15)
        v_max = rng.uniform(1, 15)
        kappa = rng.uniform(0, 0.2)
        v = float(effective_speed(v_des, v_max, kappa))
        comfort = math.sqrt(2.0 / kappa) if kappa > 0 else math.inf
        assert v <= v_des + 1e-12
        assert v <= v_max + 1e-12
        assert v <= comfort + 1e-12
        assert min(v_des, v_max, comfort) == pytest.approx(v)


def test_boundary_potential():
    assert boundary_potential(0.0, 100.0, 1.2) == pytest.approx(1.0, abs=1e-12)
    assert boundary_potential(1.0, 1.0, 1.0) == \
        pytest.approx(2.0 * math.exp(-1.0))
    # symmetric in its two distance arguments
    assert boundary_potential(0.7, 2.1, 1.2) == \
        pytest.approx(boundary_potential(2.1, 0.7, 1.2))


def test_boundary_potential_bounds_and_decay():
    rng = np.random.default_rng(5)
    h = rng.uniform(-1.0, 8.0, size=(200, 2))
    w = boundary_potential(h[:, 0], h[:, 1], 1.2)
    assert np.all(w >= 0.0)  # may underflow to exactly 0 far from the road
    assert np.all(w <= 2.0 + 1e-12)
    # rapid decay once both scaled distances exceed 2
    far = boundary_potential(2.1 / 1.2, 3.0, 1.2)
    assert far < 1e-6


def test_lane_potential():
    assert lane_potential(0.0) == pytest.approx(0.5)
    assert lane_potential(3.0) == pytest.approx(1.0 / (1.0 + math.e ** 3))
    assert lane_potential(3.0) == pytest.approx(0.04743, abs=5e-6)
    assert lane_potential(-30.0) == pytest.approx(1.0, abs=1e-12)
    h = np.linspace(-6, 6, 101)
    w = lane_potential(h)
    assert np.all((w > 0.0) & (w < 1.0))
    assert np.all(np.diff(w) < 0.0)  # strictly decreasing
    assert np.allclose(lane_potential(h) + lane_potential(-h), 1.0)


def _central_fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_gradients_match_finite_differences():
    """First derivatives against central differences of the potentials, and
    the lateral curvature against central differences of the gradients."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        eta = rng.uniform(1.05, 2.0)
        # keep distances in the curved region, away from the flat tails
        h_l = rng.uniform(0.2, 1.5)
        h_r = rng.uniform(0.2, 1.5)
        gl, gr = boundary_potential_grad(h_l, h_r, eta)
        fd_l = _central_fd(lambda x: boundary_potential(x, h_r, eta), h_l)
        fd_r = _central_fd(lambda x: boundary_potential(h_l, x, eta), h_r)
        assert gl == pytest.approx(fd_l, rel=1e-5, abs=1e-8)
        assert gr == pytest.approx(fd_r, rel=1e-5, abs=1e-8)

        # both offsets move with slope +-1 in d, so the curvature in d is
        # the sum of the second derivatives in h_l and h_r
        fd_cb = (_central_fd(lambda x: boundary_potential_grad(x, h_r, eta)[0],
                             h_l)
                 + _central_fd(lambda x: boundary_potential_grad(h_l, x, eta)[1],
                               h_r))
        assert boundary_potential_curv(h_l, h_r, eta) == pytest.approx(
            fd_cb, rel=1e-5, abs=1e-8)

        h_c = rng.uniform(-4.0, 4.0)
        assert lane_potential_grad(h_c) == pytest.approx(
            _central_fd(lane_potential, h_c), rel=1e-5, abs=1e-10)
        assert lane_potential_curv(h_c) == pytest.approx(
            _central_fd(lane_potential_grad, h_c), rel=1e-5, abs=1e-10)


def test_lane_centering_check():
    path = straight_path()
    cfg = PotentialConfig(K_l=3.0)
    d_min = verify_lane_centering(path, cfg)
    # the combined lateral cost bottoms out inside the rightmost lane
    assert path.right_edge_offset < d_min < 0.0
    assert abs(d_min - path.rightmost_lane_center) <= 0.45 * path.lane_width
    # the reported minimizer really is the grid minimum of the profile
    grid = np.linspace(path.right_edge_offset + 0.05, -0.05, 500)
    cost = lateral_cost_profile(grid, path, cfg)
    assert lateral_cost_profile(d_min, path, cfg) <= np.min(cost) + 1e-9


def test_lane_centering_check_fails_without_lane_pull():
    # with no lane preference the boundary field is symmetric and its
    # minimum sits at the road center, far from the rightmost lane center
    with pytest.raises(ConfigError):
        verify_lane_centering(straight_path(), PotentialConfig(K_l=0.0))
