"""Reference-path geometry and Cartesian <-> Frenet transformations.

The reference path is ingested as an ordered list of Cartesian samples and
represented internally by one cubic spline of (x, y) over arc length, which
gives the curvature continuity the road-aligned coordinate math relies on.
Sign convention: the lateral offset d is positive to the left of the travel
direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline


class GeometryError(Exception):
    """Base class for path/transformation errors."""


class OutOfRange(GeometryError):
    """Queried arc length or projection falls off the path ends."""


class AmbiguousProjection(GeometryError):
    """Two distant path points tie for closest; query is outside the corridor."""


class PathNotSmooth(GeometryError):
    """Sampled points violate the curvature-continuity requirement."""


# 5-point Gauss-Legendre nodes/weights on [0, 1]
_GL_NODES = (np.polynomial.legendre.leggauss(5)[0] + 1.0) / 2.0
_GL_WEIGHTS = np.polynomial.legendre.leggauss(5)[1] / 2.0

# Largest curvature difference between adjacent samples [1/m] before a path
# is rejected as not twice continuously differentiable.
MAX_CURVATURE_JUMP = 0.5


def wrap_angle(angle):
    """Angle (float or array) wrapped into [-pi, pi)."""
    return (angle + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class FrenetPoint:
    s: float
    d: float


@dataclass(frozen=True)
class CartesianPoint:
    x: float
    y: float


class ReferencePath:
    """Immutable arc-length parameterized road centerline.

    Parameters
    ----------
    points : (n, 2) array_like
        Ordered Cartesian samples of the path.
    lane_count : int
        Number of lanes; the path is assumed to lie on the lane divider at the
        road center, so the road spans d in [-lane_count*lane_width/2,
        +lane_count*lane_width/2].
    lane_width : float
        Width of each lane in metres.
    speed_limit : float or array_like
        Speed limit, either a scalar for the whole path or one value per
        sample (piecewise, the value at the nearest sample at or before s).
    """

    def __init__(self, points, lane_count: int = 2, lane_width: float = 4.0,
                 speed_limit=12.5):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise ValueError("need at least 4 (x, y) samples")
        if lane_count < 1 or lane_width <= 0:
            raise ValueError("invalid lane geometry")

        seg = np.hypot(*np.diff(pts, axis=0).T)
        if np.any(seg <= 0):
            raise ValueError("path samples must have positive spacing")
        s = np.concatenate(([0.0], np.cumsum(seg)))

        # Chord-length parameterization first, then re-parameterize by true
        # spline arc length so s queries agree with closed-form geometry.
        spline = CubicSpline(s, pts)
        for _ in range(3):
            s = self._arc_lengths(spline, s)
            spline = CubicSpline(s, pts)

        self.arc_length = s
        self._spline = spline
        self.length = float(s[-1])
        self.lane_count = int(lane_count)
        self.lane_width = float(lane_width)

        v = np.asarray(speed_limit, dtype=float)
        if v.ndim == 0:
            v = np.full(len(s), float(v))
        elif len(v) != len(s):
            raise ValueError("speed_limit must be scalar or one value per sample")
        if np.any(v <= 0):
            raise ValueError("speed limits must be positive")
        self._speed_limit = v

        kappa = self.curvature(s)
        jump = np.max(np.abs(np.diff(kappa))) if len(kappa) > 1 else 0.0
        if jump > MAX_CURVATURE_JUMP:
            raise PathNotSmooth(
                f"curvature jump {jump:.3g} 1/m between adjacent samples "
                f"exceeds {MAX_CURVATURE_JUMP:.3g}")

        self.samples = pts

    @staticmethod
    def _arc_lengths(spline: CubicSpline, s: np.ndarray) -> np.ndarray:
        """Cumulative true arc length of the spline at the knots."""
        a, b = s[:-1], s[1:]
        h = (b - a)[:, None]
        t = a[:, None] + h * _GL_NODES[None, :]
        d = spline(t, 1)
        speed = np.hypot(d[..., 0], d[..., 1])
        seg = (speed * _GL_WEIGHTS[None, :]).sum(axis=1) * h[:, 0]
        return np.concatenate(([0.0], np.cumsum(seg)))

    # -- evaluation ---------------------------------------------------------

    def position(self, s):
        return self._spline(s)

    def tangent(self, s):
        d = self._spline(s, 1)
        return d / np.hypot(d[..., 0], d[..., 1])[..., None]

    def normal(self, s):
        """Unit normal pointing to the left of the travel direction."""
        t = self.tangent(s)
        return np.stack([-t[..., 1], t[..., 0]], axis=-1)

    def heading(self, s):
        d = self._spline(s, 1)
        return np.arctan2(d[..., 1], d[..., 0])

    def curvature(self, s):
        d, dd = self._spline(s, 1), self._spline(s, 2)
        dx, dy, ddx, ddy = d[..., 0], d[..., 1], dd[..., 0], dd[..., 1]
        return (dx * ddy - dy * ddx) / np.power(dx * dx + dy * dy, 1.5)

    def speed_limit_at(self, s):
        idx = np.searchsorted(self.arc_length, np.asarray(s), side="right")
        return self._speed_limit[np.clip(idx - 1, 0, len(self.arc_length) - 1)]

    # -- lane geometry ------------------------------------------------------

    @property
    def left_edge_offset(self) -> float:
        return 0.5 * self.lane_count * self.lane_width

    @property
    def right_edge_offset(self) -> float:
        return -0.5 * self.lane_count * self.lane_width

    @property
    def rightmost_lane_center(self) -> float:
        return self.right_edge_offset + 0.5 * self.lane_width

    def lane_center(self, lane_index: int) -> float:
        """Lateral offset of a lane center; lane 0 is the rightmost lane."""
        if not 0 <= lane_index < self.lane_count:
            raise ValueError("lane index out of range")
        return self.right_edge_offset + (lane_index + 0.5) * self.lane_width

    def lane_index_of(self, d: float) -> int:
        idx = int(np.floor((d - self.right_edge_offset) / self.lane_width))
        return min(max(idx, 0), self.lane_count - 1)


def cartesian_to_frenet(path: ReferencePath, p) -> FrenetPoint:
    """Project a Cartesian point onto the path: closest-point arc length s and
    signed lateral offset d (positive left of travel)."""
    if isinstance(p, CartesianPoint):
        xy = np.array([p.x, p.y])
    else:
        xy = np.asarray(p, dtype=float)

    pos = path.position(path.arc_length)
    dist2 = np.sum((pos - xy) ** 2, axis=1)

    # Candidate starts: every local minimum of the sampled distance, so a
    # second far-away near-tie is detected instead of silently dropped.
    interior = np.flatnonzero((dist2[1:-1] <= dist2[:-2]) & (dist2[1:-1] <= dist2[2:])) + 1
    candidates = set(interior.tolist()) | {0, len(dist2) - 1}

    refined = []
    for idx in candidates:
        s_hat = _refine_projection(path, xy, path.arc_length[idx])
        pt = path.position(s_hat)
        refined.append((float(np.hypot(*(xy - pt))), s_hat))
    refined.sort()

    best_dist, best_s = refined[0]
    spacing = np.max(np.diff(path.arc_length))
    for other_dist, other_s in refined[1:]:
        if abs(other_s - best_s) > 2.0 * spacing and other_dist - best_dist < 1e-9:
            raise AmbiguousProjection(
                f"projection ties at s={best_s:.3f} and s={other_s:.3f}")

    # Interior-optimality check at the path ends.
    eps = 1e-9
    if best_s <= eps or best_s >= path.length - eps:
        tang = path.tangent(best_s)
        along = float(np.dot(xy - path.position(best_s), tang))
        if (best_s <= eps and along < -1e-9) or (best_s >= path.length - eps and along > 1e-9):
            raise OutOfRange("projection falls off the path ends")

    d = float(np.dot(xy - path.position(best_s), path.normal(best_s)))
    return FrenetPoint(s=float(best_s), d=d)


def _refine_projection(path: ReferencePath, xy: np.ndarray, s0: float) -> float:
    """Newton refinement of the stationarity condition (p - r(s)) . r'(s) = 0."""
    s = float(np.clip(s0, 0.0, path.length))
    for _ in range(50):
        r = path.position(s)
        dr = path._spline(s, 1)
        ddr = path._spline(s, 2)
        e = xy - r
        g = float(np.dot(e, dr))
        h = float(-np.dot(dr, dr) + np.dot(e, ddr))
        if h >= -1e-12:
            h = -max(float(np.dot(dr, dr)), 1e-9)
        step = -g / h
        s_new = float(np.clip(s + step, 0.0, path.length))
        if abs(s_new - s) < 1e-12:
            s = s_new
            break
        s = s_new
    return s


def frenet_to_cartesian(path: ReferencePath, q: FrenetPoint) -> CartesianPoint:
    """Inverse transformation on the validity corridor, path(s) + d normal(s),
    of floats (giving floats) or of arrays of one shape (giving arrays)."""
    s = np.asarray(q.s, dtype=float)
    off = (s < -1e-9) | (s > path.length + 1e-9)
    if np.any(off):
        raise OutOfRange(f"s={s[off][0]:.3f} outside [0, {path.length:.3f}]")
    s = np.clip(s, 0.0, path.length)
    p = path.position(s) + np.asarray(q.d)[..., None] * path.normal(s)
    if s.ndim == 0:
        return CartesianPoint(x=float(p[0]), y=float(p[1]))
    return CartesianPoint(x=p[..., 0], y=p[..., 1])


def straight_path(length: float = 1500.0, spacing: float = 5.0,
                  lane_count: int = 2, lane_width: float = 4.0,
                  speed_limit=12.5) -> ReferencePath:
    """Straight reference path along +X starting at the origin."""
    n = max(int(np.ceil(length / spacing)) + 1, 4)
    x = np.linspace(0.0, length, n)
    pts = np.stack([x, np.zeros_like(x)], axis=1)
    return ReferencePath(pts, lane_count, lane_width, speed_limit)
