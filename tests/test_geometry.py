"""Reference-path geometry and the Cartesian <-> Frenet round trip."""

import math

import numpy as np
import pytest

from tvapf.geometry import (AmbiguousProjection, CartesianPoint, FrenetPoint,
                            OutOfRange, PathNotSmooth, ReferencePath,
                            boundary_distances, cartesian_to_frenet,
                            frenet_to_cartesian, straight_path)


def circle_path(radius=50.0, span=1.6 * math.pi, n=400, lane_count=2,
                lane_width=4.0):
    """Counter-clockwise circular arc centered at the origin, start (r, 0)."""
    th = np.linspace(0.0, span, n)
    pts = np.stack([radius * np.cos(th), radius * np.sin(th)], axis=1)
    return ReferencePath(pts, lane_count=lane_count, lane_width=lane_width)


def s_curve_path():
    x = np.linspace(0.0, 600.0, 121)
    y = 20.0 * np.sin(x / 100.0)
    return ReferencePath(np.stack([x, y], axis=1), lane_count=2, lane_width=4.0)


# -- construction ------------------------------------------------------------


def test_path_construction_validation():
    with pytest.raises(ValueError):
        ReferencePath([[0, 0], [1, 0]], 2, 4.0)  # too few samples
    with pytest.raises(ValueError):
        ReferencePath([[0, 0], [0, 0], [1, 0], [2, 0]], 2, 4.0)  # zero spacing
    with pytest.raises(ValueError):
        straight_path(lane_count=0)
    with pytest.raises(ValueError):
        ReferencePath([[0, 0], [1, 0], [2, 0], [3, 0]], 2, 4.0,
                      speed_limit=[10.0, 10.0])  # wrong per-sample length
    with pytest.raises(ValueError):
        ReferencePath([[0, 0], [1, 0], [2, 0], [3, 0]], 2, 4.0,
                      speed_limit=0.0)


def test_sharp_corner_rejected():
    xs = np.concatenate([np.linspace(0, 50, 11), np.full(10, 50.0)])
    ys = np.concatenate([np.zeros(11), np.linspace(5, 50, 10)])
    with pytest.raises(PathNotSmooth):
        ReferencePath(np.stack([xs, ys], axis=1), 2, 4.0)


def test_arc_length_parameterization():
    path = circle_path()
    assert path.length == pytest.approx(50.0 * 1.6 * math.pi, abs=1e-6)
    # positions queried by s agree with closed-form circle geometry
    for s in (0.0, 10.0, 25 * math.pi, 70.0):
        th = s / 50.0
        p = path.position(s)
        assert np.allclose(p, [50 * math.cos(th), 50 * math.sin(th)], atol=1e-6)
    kappa = path.curvature(np.linspace(5, path.length - 5, 50))
    assert np.allclose(kappa, 1.0 / 50.0, atol=1e-6)


# -- transformations ---------------------------------------------------------


def test_straight_identity():
    path = straight_path(length=100.0)
    q = cartesian_to_frenet(path, (10.0, 2.0))
    assert q.s == pytest.approx(10.0, abs=1e-9)
    assert q.d == pytest.approx(2.0, abs=1e-9)
    p = frenet_to_cartesian(path, FrenetPoint(s=10.0, d=2.0))
    assert (p.x, p.y) == (pytest.approx(10.0), pytest.approx(2.0))


def test_zero_offset_point_on_path():
    path = straight_path(length=100.0)
    q = cartesian_to_frenet(path, CartesianPoint(7.5, 0.0))
    assert q.s == pytest.approx(7.5, abs=1e-9)
    assert q.d == pytest.approx(0.0, abs=1e-9)


def test_endpoint_identity():
    path = s_curve_path()
    p = frenet_to_cartesian(path, FrenetPoint(s=0.0, d=0.0))
    assert np.allclose([p.x, p.y], path.samples[0], atol=1e-9)


def test_circle_closed_form():
    """Quarter-arc point against the circle oracle.

    With d measured positive to the left of travel, the outward side of a
    counter-clockwise circle is the negative-d side: (0, 52) sits 2 m outside
    the radius-50 centerline at arc length 25*pi, hence d = -2.
    """
    path = circle_path()
    q = cartesian_to_frenet(path, (0.0, 52.0))
    assert q.s == pytest.approx(25 * math.pi, abs=1e-6)
    assert q.d == pytest.approx(-2.0, abs=1e-6)
    # and the inward point is on the positive-d side
    q_in = cartesian_to_frenet(path, (0.0, 48.0))
    assert q_in.d == pytest.approx(2.0, abs=1e-6)
    p = frenet_to_cartesian(path, FrenetPoint(s=25 * math.pi, d=-2.0))
    assert (p.x, p.y) == (pytest.approx(0.0, abs=1e-6),
                          pytest.approx(52.0, abs=1e-6))


@pytest.mark.parametrize("factory", [
    lambda: straight_path(length=600.0),
    circle_path,
    s_curve_path,
], ids=["straight", "circle", "spline"])
def test_round_trip(factory):
    path = factory()
    rng = np.random.default_rng(7)
    for _ in range(300):
        s = rng.uniform(1.0, path.length - 1.0)
        d = rng.uniform(-3.5, 3.5)
        p = frenet_to_cartesian(path, FrenetPoint(s=s, d=d))
        q = cartesian_to_frenet(path, (p.x, p.y))
        p2 = frenet_to_cartesian(path, q)
        assert math.hypot(p.x - p2.x, p.y - p2.y) < 1e-6


def test_batched_frenet_to_cartesian_matches_per_point():
    # a 150 m-radius arc: curvature 1/150, so a dropped or misplaced
    # curvature-dependent term shows
    path = circle_path(radius=150.0, span=0.5 * math.pi, n=120)
    rng = np.random.default_rng(11)
    s = np.concatenate([[0.0, path.length], rng.uniform(0.0, path.length, 40)])
    d = rng.uniform(-3.5, 3.5, len(s))
    want = [frenet_to_cartesian(path, FrenetPoint(s=float(a), d=float(b)))
            for a, b in zip(s, d)]
    assert all(type(w.x) is float and type(w.y) is float for w in want)
    for shape in ((len(s),), (2, len(s) // 2)):
        p = frenet_to_cartesian(path, FrenetPoint(s=s.reshape(shape),
                                                  d=d.reshape(shape)))
        np.testing.assert_array_equal(p.x, np.reshape([w.x for w in want],
                                                      shape))
        np.testing.assert_array_equal(p.y, np.reshape([w.y for w in want],
                                                      shape))


def test_batched_frenet_to_cartesian_out_of_range():
    path = circle_path(radius=150.0, span=0.5 * math.pi, n=120)
    for off in (path.length + 1.0, -1.0):
        with pytest.raises(OutOfRange):
            frenet_to_cartesian(path, FrenetPoint(
                s=np.array([0.0, 10.0, off, 20.0]), d=np.zeros(4)))


def test_projection_monotone_along_offset_curve():
    path = s_curve_path()
    s_grid = np.linspace(1.0, path.length - 1.0, 200)
    prev = -1.0
    for s in s_grid:
        p = frenet_to_cartesian(path, FrenetPoint(s=float(s), d=1.5))
        q = cartesian_to_frenet(path, (p.x, p.y))
        assert q.s >= prev - 1e-9
        prev = q.s


def test_out_of_range_and_ambiguous():
    path = straight_path(length=100.0)
    with pytest.raises(OutOfRange):
        cartesian_to_frenet(path, (-5.0, 1.0))
    with pytest.raises(OutOfRange):
        cartesian_to_frenet(path, (105.0, 1.0))
    with pytest.raises(OutOfRange):
        frenet_to_cartesian(path, FrenetPoint(s=101.0, d=0.0))
    with pytest.raises(OutOfRange):
        frenet_to_cartesian(path, FrenetPoint(s=-1.0, d=0.0))
    # circle center is equidistant from the whole arc
    with pytest.raises(AmbiguousProjection):
        cartesian_to_frenet(circle_path(), (0.0, 0.0))


# -- lane geometry -----------------------------------------------------------


def test_boundary_distances_two_lane():
    path = straight_path()  # two lanes, 4 m each, centerline on the divider
    h_l, h_r, h_c = boundary_distances(path, FrenetPoint(s=10.0, d=-2.0))
    assert (h_l, h_r) == (pytest.approx(6.0), pytest.approx(2.0))
    # h_c is positive on the right of the rightmost-lane left boundary
    assert h_c == pytest.approx(2.0)
    # symmetric road center
    h_l0, h_r0, _ = boundary_distances(path, FrenetPoint(s=10.0, d=0.0))
    assert h_l0 == pytest.approx(h_r0)
    # on the rightmost-lane left boundary
    assert boundary_distances(path, FrenetPoint(10.0, 0.0))[2] == \
        pytest.approx(0.0)


def test_boundary_distances_affine_slope_one():
    path = straight_path()
    d0, d1 = -1.3, 0.9
    a = boundary_distances(path, FrenetPoint(5.0, d0))
    b = boundary_distances(path, FrenetPoint(5.0, d1))
    slopes = [(bb - aa) / (d1 - d0) for aa, bb in zip(a, b)]
    assert slopes == [pytest.approx(-1.0), pytest.approx(1.0),
                      pytest.approx(-1.0)]


def test_lane_helpers():
    path = straight_path()
    assert path.left_edge_offset == 4.0
    assert path.right_edge_offset == -4.0
    assert path.rightmost_lane_center == -2.0
    assert path.lane_center(0) == -2.0
    assert path.lane_center(1) == 2.0
    with pytest.raises(ValueError):
        path.lane_center(2)
    assert path.lane_index_of(-2.0) == 0
    assert path.lane_index_of(1.5) == 1
    assert path.lane_index_of(-9.0) == 0  # clamped
    assert path.lane_index_of(9.0) == 1


def test_speed_limit_piecewise():
    pts = [[0, 0], [10, 0], [20, 0], [30, 0]]
    path = ReferencePath(pts, 2, 4.0, speed_limit=[10.0, 10.0, 8.0, 8.0])
    assert float(path.speed_limit_at(5.0)) == 10.0
    assert float(path.speed_limit_at(25.0)) == 8.0
    scalar = straight_path(speed_limit=12.5)
    assert float(scalar.speed_limit_at(123.0)) == 12.5
