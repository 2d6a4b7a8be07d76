"""Reachable-set propagation and the time-varying obstacle field."""

import math

import numpy as np
import pytest

from tvapf.prediction import (InvalidBounds, ObstacleField, ObstacleState,
                              TvapfParams, UncertainForecast, _powers,
                              propagate_obstacle)

TABLE_BOUNDS = {"v_bounds": (0.0, 12.5), "a_bounds": (-0.9, 0.9)}


def test_state_validation():
    with pytest.raises(InvalidBounds):
        ObstacleState(0, 0, 3, v_bounds=(5, 2), a_bounds=(-1, 1))
    with pytest.raises(InvalidBounds):
        ObstacleState(0, 0, 3, v_bounds=(-1, 5), a_bounds=(-1, 1))
    with pytest.raises(InvalidBounds):
        ObstacleState(0, 0, 3, v_bounds=(0, 5), a_bounds=(1, -1))
    with pytest.raises(InvalidBounds):
        ObstacleState(0, 0, 9, v_bounds=(0, 5), a_bounds=(-1, 1))
    with pytest.raises(InvalidBounds):
        ObstacleState(0, 0, 3, v_bounds=(0, 5), a_bounds=(-1, 1), direction=2)


def test_params_validation():
    with pytest.raises(ValueError):
        TvapfParams(c=3)
    with pytest.raises(ValueError):
        TvapfParams(c=0)
    with pytest.raises(ValueError):
        TvapfParams(sigma_s=-1.0)
    with pytest.raises(ValueError):
        TvapfParams(sigma_s=0.0)
    with pytest.raises(ValueError):
        TvapfParams(epsilon_o=0.0)


# -- propagation -------------------------------------------------------------


def test_two_step_spread():
    o = ObstacleState(s_o=100.0, d_o=-2.0, v_o=3.0, **TABLE_BOUNDS)
    fc = propagate_obstacle(o, 0.5, 10)
    # position updates before velocity diverges: no spread after one step
    assert fc.delta_s[0] == 0.0
    assert fc.delta_s[1] == 0.0
    # after two steps the spread is T^2 * (a_max - a_min)
    assert fc.delta_s[2] == pytest.approx(0.5 ** 2 * 1.8, abs=1e-12)
    assert fc.s_center[1] == pytest.approx(100.0 + 0.5 * 3.0)


def test_degenerate_acceleration_bounds():
    o = ObstacleState(s_o=50.0, d_o=2.0, v_o=4.0, v_bounds=(0, 12.5),
                      a_bounds=(0.0, 0.0))
    fc = propagate_obstacle(o, 0.5, 20)
    assert np.all(fc.delta_s == 0.0)
    assert np.allclose(fc.s_center, 50.0 + 0.5 * 4.0 * np.arange(21))


def test_velocity_saturation():
    o = ObstacleState(s_o=0.0, d_o=0.0, v_o=12.5, **TABLE_BOUNDS)
    fc = propagate_obstacle(o, 0.5, 20)
    # the upper rollout is clamped at v_max, so s_max grows linearly
    assert np.allclose(np.diff(fc.s_max), 0.5 * 12.5)


def test_oncoming_direction():
    o = ObstacleState(s_o=500.0, d_o=2.0, v_o=6.0, direction=-1,
                      **TABLE_BOUNDS)
    fc = propagate_obstacle(o, 0.5, 20)
    assert fc.s_center[-1] < 500.0
    assert np.all(fc.s_min <= fc.s_center + 1e-12)
    assert np.all(fc.s_center <= fc.s_max + 1e-12)


def test_spread_monotone_and_bounded():
    o = ObstacleState(s_o=0.0, d_o=0.0, v_o=5.0, v_bounds=(2.0, 8.0),
                      a_bounds=(-0.5, 0.5))
    fc = propagate_obstacle(o, 0.5, 70)
    assert np.all(np.diff(fc.delta_s) >= -1e-12)
    assert fc.delta_s[-1] <= 70 * 0.5 * (8.0 - 2.0) + 1e-9
    # center/spread are consistent with the bounds
    assert np.allclose(fc.s_center, 0.5 * (fc.s_min + fc.s_max))
    assert np.allclose(fc.delta_s, fc.s_max - fc.s_min)


def test_propagate_validation():
    o = ObstacleState(s_o=0.0, d_o=0.0, v_o=3.0, **TABLE_BOUNDS)
    with pytest.raises(ValueError):
        propagate_obstacle(o, 0.5, 0)
    with pytest.raises(ValueError):
        propagate_obstacle(o, 0.0, 10)


# -- field shape -------------------------------------------------------------


def _flat_forecast(s_o=200.0, d_o=-2.0, steps=10):
    n = steps + 1
    z = np.zeros(n)
    return UncertainForecast(s_min=np.full(n, s_o), s_max=np.full(n, s_o),
                             s_center=np.full(n, s_o), delta_s=z, d_o=d_o)


def _reference(s, d, fc, j, p):
    """Closed-form field of one forecast at step j and point (s, d)."""
    root = (-math.log(p.edge_value)) ** (1.0 / p.c)
    gamma_s = (0.5 * fc.delta_s[j] + p.sigma_s) / root
    gamma_d = (0.5 * p.l_W + p.sigma_d) / root
    return math.exp(-(((s - fc.s_center[j]) / gamma_s) ** p.c
                      + ((d - fc.d_o) / gamma_d) ** p.c))


def test_calibrated_edge_condition():
    # the field equals edge_value at the safety-zone edge: delta_s/2 +
    # sigma_s ahead of the center and l_W/2 + sigma_d beside it
    for edge in (0.1, math.exp(-1.0)):
        p = TvapfParams(edge_value=edge)
        for delta_s in (0.0, 25.0):
            n = 3
            fc = UncertainForecast(
                s_min=np.full(n, 100.0 - delta_s / 2),
                s_max=np.full(n, 100.0 + delta_s / 2),
                s_center=np.full(n, 100.0),
                delta_s=np.full(n, delta_s), d_o=-2.0)
            field = ObstacleField([fc], 0, p)
            w_lon = field.at(100.0 + delta_s / 2 + p.sigma_s, -2.0).value()
            assert float(w_lon) == pytest.approx(edge, rel=1e-12)
            w_lat = field.at(100.0, -2.0 + p.l_W / 2 + p.sigma_d).value()
            assert float(w_lat) == pytest.approx(edge, rel=1e-12)


def test_calibrate_alphas_no_solution():
    # the edge condition has a finite positive scale only for 0 < edge < 1;
    # any other edge_value is refused when the parameters are built
    for edge in (0.0, 1.0, 1.5, -0.2, math.nan):
        with pytest.raises(ValueError, match="edge_value"):
            TvapfParams(edge_value=edge)


@pytest.mark.parametrize("c", [4, 50, 100, 200])
def test_field_far_away_is_exactly_zero_for_any_c(c):
    # 1e4 gamma_s ahead and 10 gamma_d beside the center every power of the
    # raw offsets overflows for c = 200; the field, its gradient and its
    # Gauss-Newton block must still read 0, with no overflow or invalid
    # value on the way
    p = TvapfParams(c=c)
    field = ObstacleField([_flat_forecast()], 0, p)
    far = [(200.0 + 1e4 * float(field.gamma_s[0]), -2.0),
           (200.0, -2.0 - 10.0 * float(field.gamma_d[0]))]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for s, d in far:
            terms = field.at(s, d)
            out = [terms.value(), *terms.grad(), *terms.gauss_newton()]
            assert all(float(x) == 0.0 for x in out), out


def test_field_is_exactly_sign_symmetric():
    # for a forecast centred at (0, 0), at(-s, -d) is at(s, d) mirrored to
    # the bit: the same w, and fs and fd negated
    p = TvapfParams()
    n = 70
    fc = UncertainForecast(s_min=-np.linspace(0.0, 30.0, n + 1),
                           s_max=np.linspace(0.0, 30.0, n + 1),
                           s_center=np.zeros(n + 1),
                           delta_s=np.linspace(0.0, 60.0, n + 1), d_o=0.0)
    field = ObstacleField([fc], np.arange(1, n + 1), p)
    rng = np.random.default_rng(24)
    for _ in range(200):
        s = rng.uniform(-2.0, 2.0, n) * field.gamma_s[0]
        d = rng.uniform(-2.0, 2.0, n) * field.gamma_d[0]
        t, m = field.at(s, d), field.at(-s, -d)
        assert m.w.tobytes() == t.w.tobytes()
        assert m.fs.tobytes() == (-t.fs).tobytes()
        assert m.fd.tobytes() == (-t.fd).tobytes()


@pytest.mark.parametrize("c", [2, 4, 6])
def test_field_powers_match_math_pow(c):
    # the field's products x**(c - 1) and x**c against libm's pow, over the
    # whole clipped range of the offsets
    x_max = 750.0 ** (1.0 / c)
    x = np.random.default_rng(c).uniform(-x_max, x_max, 2000)
    odd, even = _powers(x, c)
    np.testing.assert_allclose(odd, [math.pow(v, c - 1) for v in x],
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(even, [math.pow(v, c) for v in x],
                               rtol=1e-15, atol=0.0)


def test_auto_calibration_default_edge():
    # the default edge_value e^-1 has a unit root for c = 4: the scales are
    # the safety-zone half-widths
    p = TvapfParams()
    field = ObstacleField([_flat_forecast()], 0, p)
    assert float(field.gamma_s[0]) == pytest.approx(p.sigma_s)
    assert float(field.gamma_d[0]) == pytest.approx(0.5 * p.l_W + p.sigma_d)


def test_field_peak_and_decay():
    p = TvapfParams()
    fc = _flat_forecast()
    field = ObstacleField([fc], 0, p)
    assert float(field.at(200.0, -2.0).value()) == pytest.approx(1.0)
    gamma_s = float(field.gamma_s[0])
    assert float(field.at(200.0 + gamma_s, -2.0).value()) == \
        pytest.approx(math.exp(-1.0))
    assert float(field.at(200.0 + 1e4, -2.0).value()) == 0.0
    # even symmetry in both axes
    for ds, dd in ((7.0, 0.0), (0.0, 1.3), (4.0, 2.0)):
        assert float(field.at(200 + ds, -2 + dd).value()) == \
            pytest.approx(float(field.at(200 - ds, -2 - dd).value()))
    # values stay in (0, 1]
    s = np.linspace(100, 300, 50)
    w = ObstacleField([fc], np.zeros(50, dtype=int), p).at(s, -1.0).value()
    assert w.shape == s.shape
    assert np.all((w >= 0.0) & (w <= 1.0))


def test_superlevel_sets_compact():
    p = TvapfParams()
    o = ObstacleState(s_o=300.0, d_o=-2.0, v_o=4.0, v_bounds=(1.0, 8.0),
                      a_bounds=(-0.5, 0.5))
    fc = propagate_obstacle(o, 0.5, 30)
    rng = np.random.default_rng(17)
    root = (-math.log(p.edge_value)) ** (1.0 / p.c)
    for j in (0, 10, 30):
        gamma_s = (0.5 * fc.delta_s[j] + p.sigma_s) / root
        gamma_d = (0.5 * p.l_W + p.sigma_d) / root
        for eps in (0.05, 0.3, 0.8):
            half_s = gamma_s * (-math.log(eps)) ** (1.0 / p.c)
            half_d = gamma_d * (-math.log(eps)) ** (1.0 / p.c)
            s = rng.uniform(fc.s_center[j] - 300, fc.s_center[j] + 300, 400)
            d = rng.uniform(-10, 10, 400)
            w = ObstacleField([fc], np.full(400, j), p).at(s, d).value()
            inside = w >= eps
            assert np.all(np.abs(s[inside] - fc.s_center[j])
                          <= half_s + 1e-9)
            assert np.all(np.abs(d[inside] - fc.d_o) <= half_d + 1e-9)


def test_total_field_superposition():
    p = TvapfParams()
    fc = _flat_forecast()
    assert float(ObstacleField([], 0, p).at(123.0, 0.0).value()) == 0.0
    assert float(ObstacleField([fc], 0, p).at(200.0, -2.0).value()) == \
        pytest.approx(1.0)
    assert float(ObstacleField([fc, fc], 0, p).at(200.0, -2.0).value()) == \
        pytest.approx(2.0)
    # no forecasts: every term is zero over a step array
    empty = ObstacleField([], np.arange(1, 4), p)
    terms = empty.at(np.ones(3), np.ones(3))
    for out in (terms.value(), *terms.grad(), *terms.gauss_newton()):
        assert np.array_equal(out, np.zeros(3))
    # two forecasts over a step array sum the per-point closed form
    fcs = [propagate_obstacle(ObstacleState(s_o=s_o, d_o=d_o, v_o=v_o,
                                            direction=direction,
                                            **TABLE_BOUNDS), 0.5, 20)
           for s_o, d_o, v_o, direction in ((150.0, -2.0, 5.0, 1),
                                            (260.0, 2.0, 7.0, -1))]
    rng = np.random.default_rng(5)
    j = np.arange(1, 21)
    s = rng.uniform(120.0, 280.0, 20)
    d = rng.uniform(-4.0, 4.0, 20)
    ref = [sum(_reference(s[k], d[k], f, j[k], p) for f in fcs)
           for k in range(20)]
    np.testing.assert_allclose(ObstacleField(fcs, j, p).at(s, d).value(),
                               ref, rtol=1e-12, atol=1e-300)


def test_gauss_newton_of_superposed_forecasts_is_psd():
    """Each forecast adds a rank-one PSD block, so their sum is PSD: the
    (ss, sd, dd) entries meet |sd| <= sqrt(ss) sqrt(dd)."""
    p = TvapfParams()
    fcs = [propagate_obstacle(ObstacleState(s_o=s_o, d_o=d_o, v_o=v_o,
                                            direction=direction,
                                            **TABLE_BOUNDS), 0.5, 20)
           for s_o, d_o, v_o, direction in ((150.0, -2.0, 5.0, 1),
                                            (170.0, 2.0, 7.0, -1),
                                            (160.0, -1.0, 6.0, 1))]
    rng = np.random.default_rng(29)
    j = rng.integers(0, 21, 400)
    s = rng.uniform(120.0, 220.0, 400)
    d = rng.uniform(-4.0, 4.0, 400)
    ss, sd, dd = ObstacleField(fcs, j, p).at(s, d).gauss_newton()
    assert np.all(ss >= 0.0) and np.all(dd >= 0.0)
    assert np.all(np.abs(sd) <= np.sqrt(ss) * np.sqrt(dd) * (1.0 + 1e-12))
    # rank two where two forecasts both bend the field
    assert np.any(sd * sd < 0.5 * ss * dd)


def test_field_gradient_matches_finite_differences():
    """The gradient against central differences of the value, and the
    Gauss-Newton block of one forecast against grad(W) grad(W)' / W, which
    it equals since grad(W) = -W grad(phi)."""
    p = TvapfParams()
    o = ObstacleState(s_o=150.0, d_o=-2.0, v_o=5.0, v_bounds=(2, 8),
                      a_bounds=(-0.4, 0.4))
    fc = propagate_obstacle(o, 0.5, 20)
    rng = np.random.default_rng(23)
    h = 1e-6
    for _ in range(60):
        j = int(rng.integers(0, 21))
        field = ObstacleField([fc], j, p)
        gamma_s, gamma_d = float(field.gamma_s[0]), float(field.gamma_d[0])
        # sample inside the curved region, away from the flat tails
        s = fc.s_center[j] + rng.uniform(-1.3, 1.3) * gamma_s
        d = fc.d_o + rng.uniform(-1.3, 1.3) * gamma_d
        terms = field.at(s, d)
        gs, gd = terms.grad()
        fs = (field.at(s + h, d).value()
              - field.at(s - h, d).value()) / (2 * h)
        fd = (field.at(s, d + h).value()
              - field.at(s, d - h).value()) / (2 * h)
        assert float(gs) == pytest.approx(float(fs), rel=1e-5, abs=1e-9)
        assert float(gd) == pytest.approx(float(fd), rel=1e-5, abs=1e-9)

        w = terms.value()
        np.testing.assert_allclose(terms.gauss_newton(),
                                   [gs * gs / w, gs * gd / w, gd * gd / w],
                                   rtol=1e-12, atol=0.0)
