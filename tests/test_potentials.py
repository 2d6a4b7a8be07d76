"""Static cost terms: the speed reference, boundary repulsion and lane
preference, each with its first and second derivative in d."""

import math

import numpy as np
import pytest

from tvapf.geometry import straight_path
from tvapf.potentials import (ConfigError, PotentialConfig, boundary_potential,
                              effective_speed, lane_potential,
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
    assert effective_speed(12.0, 12.5, 0.0, a_l_max=2.0) == pytest.approx(12.0)
    # comfort term sqrt(2 / 0.08) = 5 dominates
    assert effective_speed(12.0, 12.5, 0.08, a_l_max=2.0) == pytest.approx(5.0)
    assert effective_speed(9.0, 9.0, 0.0, a_l_max=2.0) == pytest.approx(9.0)


def test_effective_speed_is_pointwise_min():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v_des = rng.uniform(1, 15)
        v_max = rng.uniform(1, 15)
        kappa = rng.uniform(0, 0.2)
        v = float(effective_speed(v_des, v_max, kappa, a_l_max=2.0))
        comfort = math.sqrt(2.0 / kappa) if kappa > 0 else math.inf
        assert v <= v_des + 1e-12
        assert v <= v_max + 1e-12
        assert v <= comfort + 1e-12
        assert min(v_des, v_max, comfort) == pytest.approx(v)


def _boundary(h_l, h_r, eta):
    return boundary_potential(h_l, h_r, eta)[0]


def _lane(h_c):
    return lane_potential(h_c)[0]


def test_boundary_potential():
    assert _boundary(0.0, 100.0, 1.2) == pytest.approx(1.0, abs=1e-12)
    assert _boundary(1.0, 1.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0))
    # symmetric in its two distance arguments
    assert _boundary(0.7, 2.1, 1.2) == pytest.approx(_boundary(2.1, 0.7, 1.2))


def test_boundary_triple_is_mirror_symmetric_to_the_bit():
    # mirroring d about the road's centre swaps h_l and h_r: element i and
    # element n - 1 - i below are mirror images, inside the road and beyond
    # either edge, so the value and the curvature are even and the slope odd
    h = np.linspace(-1.0, 9.0, 1001)
    w, slope, curv = boundary_potential(h, h[::-1], 1.2)
    assert np.array_equal(w, w[::-1])
    assert np.array_equal(slope, -slope[::-1])
    assert np.array_equal(curv, curv[::-1])
    # an edge alone: the same triple from either side, the slope negated
    for x in (-0.8, 0.3, 0.9, 2.5):
        left, right = (boundary_potential(x, 100.0, 1.2),
                       boundary_potential(100.0, x, 1.2))
        assert (left[0], -left[1], left[2]) == right


def test_boundary_potential_bounds_and_decay():
    rng = np.random.default_rng(5)
    h = rng.uniform(-1.0, 8.0, size=(200, 2))
    w = _boundary(h[:, 0], h[:, 1], 1.2)
    assert np.all(w >= 0.0)  # may underflow to exactly 0 far from the road
    assert np.all(w <= 2.0 + 1e-12)
    # rapid decay once both scaled distances exceed 2
    far = _boundary(2.1 / 1.2, 3.0, 1.2)
    assert far < 1e-6


def test_lane_potential():
    assert _lane(0.0) == pytest.approx(0.5)
    assert _lane(3.0) == pytest.approx(1.0 / (1.0 + math.e ** 3))
    assert _lane(3.0) == pytest.approx(0.04743, abs=5e-6)
    assert _lane(-30.0) == pytest.approx(1.0, abs=1e-12)
    h = np.linspace(-6, 6, 101)
    w = _lane(h)
    assert np.all((w > 0.0) & (w < 1.0))
    assert np.all(np.diff(w) < 0.0)  # strictly decreasing
    assert np.allclose(_lane(h) + _lane(-h), 1.0)


def _central_fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_gradients_match_finite_differences():
    """First derivatives in d against central differences of the
    potentials, and the curvatures in d against central differences of the
    first derivatives.  h_l and h_r move with slope -1 and +1 in d, h_c
    with slope -1."""
    rng = np.random.default_rng(11)
    far = 100.0  # an edge this far adds exactly 0 to each derivative
    for _ in range(50):
        eta = rng.uniform(1.05, 2.0)
        # keep distances in the curved region, away from the flat tails
        h_l = rng.uniform(0.2, 1.5)
        h_r = rng.uniform(0.2, 1.5)
        # each edge alone: the slope in d is -dW/dh_l, then +dW/dh_r
        fd_l = _central_fd(lambda x: _boundary(x, far, eta), h_l)
        fd_r = _central_fd(lambda x: _boundary(far, x, eta), h_r)
        assert boundary_potential(h_l, far, eta)[1] == pytest.approx(
            -fd_l, rel=1e-5, abs=1e-8)
        assert boundary_potential(far, h_r, eta)[1] == pytest.approx(
            fd_r, rel=1e-5, abs=1e-8)

        # both edges, moved together by d
        def along_d(x, k):
            return boundary_potential(h_l - x, h_r + x, eta)[k]
        _, slope, curv = boundary_potential(h_l, h_r, eta)
        assert slope == pytest.approx(_central_fd(lambda x: along_d(x, 0),
                                                  0.0), rel=1e-5, abs=1e-8)
        assert curv == pytest.approx(_central_fd(lambda x: along_d(x, 1),
                                                 0.0), rel=1e-5, abs=1e-8)

        h_c = rng.uniform(-4.0, 4.0)
        _, slope, curv = lane_potential(h_c)
        assert slope == pytest.approx(-_central_fd(_lane, h_c), rel=1e-5,
                                      abs=1e-10)
        assert curv == pytest.approx(
            -_central_fd(lambda x: lane_potential(x)[1], h_c), rel=1e-5,
            abs=1e-10)


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
