"""Interior-point NLP solver: correctness on small closed-form programs,
status semantics, and determinism."""

import numpy as np
import pytest

from tvapf.solver import (CallbackFailure, NlpProblem, SolveOptions,
                          SolveStatus, solve)


def _constant_hessian(*diag):
    """Exact Hessian callback of a program whose Lagrangian Hessian is the
    constant diagonal matrix diag(diag)."""
    return lambda z, y_eq, w_ineq: np.diag(np.array(diag, dtype=float))


def _scalar_quadratic(**kw):
    return NlpProblem(n=1,
                      objective=lambda z: float((z[0] - 3.0) ** 2),
                      gradient=lambda z: np.array([2.0 * (z[0] - 3.0)]),
                      hessian=_constant_hessian(2.0),
                      z0=np.array([0.0]), **kw)


def _equality_qp(z0=(2.0, -1.0)):
    """min z1^2 + z2^2  s.t. z1 + z2 = 1; optimum (0.5, 0.5), y = -1."""
    return NlpProblem(n=2,
                      objective=lambda z: float(z @ z),
                      gradient=lambda z: 2.0 * z,
                      hessian=_constant_hessian(2.0, 2.0),
                      z0=np.array(z0, dtype=float),
                      eq_constraints=lambda z: np.array([z[0] + z[1] - 1.0]),
                      eq_jacobian=lambda z: np.array([[1.0, 1.0]]))


def test_unconstrained_scalar():
    r = solve(_scalar_quadratic())
    assert r.status is SolveStatus.OPTIMAL
    assert r.z[0] == pytest.approx(3.0, abs=1e-6)
    assert r.objective == pytest.approx(0.0, abs=1e-10)
    assert r.kkt_error < 1e-6


def test_equality_qp():
    r = solve(_equality_qp())
    assert r.status is SolveStatus.OPTIMAL
    assert np.allclose(r.z, [0.5, 0.5], atol=1e-6)
    assert r.constraint_violation < 1e-8
    assert r.y_eq[0] == pytest.approx(-1.0, abs=1e-5)


def test_box_bound_active():
    r = solve(_scalar_quadratic(lb=np.array([-5.0]), ub=np.array([1.0])))
    assert r.status is SolveStatus.OPTIMAL
    assert r.z[0] == pytest.approx(1.0, abs=1e-5)
    assert r.z[0] <= 1.0


def test_inequality_constraint():
    # min (z-3)^2  s.t. z <= 1 via a general inequality
    p = _scalar_quadratic(
        ineq_constraints=lambda z: np.array([z[0] - 1.0]),
        ineq_jacobian=lambda z: np.array([[1.0]]))
    r = solve(p)
    assert r.status is SolveStatus.OPTIMAL
    assert r.z[0] == pytest.approx(1.0, abs=1e-5)
    # active-constraint multiplier approaches the KKT value 4
    assert r.w_ineq[0] == pytest.approx(4.0, abs=1e-3)


def test_rosenbrock():
    p = NlpProblem(
        n=2,
        objective=lambda z: float(100.0 * (z[1] - z[0] ** 2) ** 2
                                  + (1.0 - z[0]) ** 2),
        gradient=lambda z: np.array([
            -400.0 * z[0] * (z[1] - z[0] ** 2) - 2.0 * (1.0 - z[0]),
            200.0 * (z[1] - z[0] ** 2)]),
        hessian=lambda z, y_eq, w_ineq: np.array([
            [1200.0 * z[0] ** 2 - 400.0 * z[1] + 2.0, -400.0 * z[0]],
            [-400.0 * z[0], 200.0]]),
        z0=np.array([-1.2, 1.0]))
    r = solve(p, SolveOptions(max_iter=500))
    assert r.status is SolveStatus.OPTIMAL
    assert np.allclose(r.z, [1.0, 1.0], atol=1e-5)


def test_infeasible_pair():
    # z <= 0 and z >= 1 cannot both hold
    p = NlpProblem(n=1,
                   objective=lambda z: float(z[0] ** 2),
                   gradient=lambda z: np.array([2.0 * z[0]]),
                   hessian=_constant_hessian(2.0),
                   z0=np.array([0.5]),
                   ineq_constraints=lambda z: np.array([z[0], 1.0 - z[0]]),
                   ineq_jacobian=lambda z: np.array([[1.0], [-1.0]]))
    r = solve(p)
    assert r.status is SolveStatus.INFEASIBLE
    assert r.constraint_violation >= 0.4
    # the violation sits at 0.5 from the first iteration, so the verdict
    # comes as soon as a 20-iteration window follows the first
    assert r.iterations <= 21


def test_steady_progress_is_not_infeasible():
    # the Jacobian overstates the slope of z - 1 tenfold, so each Newton
    # step removes a tenth of the violation: far from a stall, but still
    # above tolerance at iteration 61
    p = NlpProblem(n=1,
                   objective=lambda z: float(z[0] ** 2),
                   gradient=lambda z: np.array([2.0 * z[0]]),
                   hessian=_constant_hessian(2.0),
                   z0=np.array([0.0]),
                   eq_constraints=lambda z: np.array([z[0] - 1.0]),
                   eq_jacobian=lambda z: np.array([[10.0]]))
    r = solve(p)
    assert r.status is SolveStatus.OPTIMAL
    assert r.iterations > 61
    assert r.z[0] == pytest.approx(1.0, abs=1e-5)


def test_iteration_limit_reports_feasible_point():
    r = solve(_equality_qp(z0=(0.6, 0.4)), SolveOptions(max_iter=1))
    assert r.status in (SolveStatus.FEASIBLE_POINT, SolveStatus.ITER_LIMIT,
                        SolveStatus.OPTIMAL)
    assert r.iterations <= 1


def test_nan_objective_raises():
    p = NlpProblem(n=1, objective=lambda z: float("nan"),
                   gradient=lambda z: np.zeros(1),
                   hessian=_constant_hessian(0.0), z0=np.zeros(1))
    with pytest.raises(CallbackFailure):
        solve(p)


def test_nan_gradient_raises():
    p = NlpProblem(n=1, objective=lambda z: 0.0,
                   gradient=lambda z: np.array([np.nan]),
                   hessian=_constant_hessian(0.0), z0=np.zeros(1))
    with pytest.raises(CallbackFailure):
        solve(p)


def test_degenerate_box_rejected():
    p = NlpProblem(n=1, objective=lambda z: 0.0,
                   gradient=lambda z: np.zeros(1),
                   hessian=_constant_hessian(0.0), z0=np.zeros(1),
                   lb=np.array([1.0]), ub=np.array([1.0]))
    with pytest.raises(ValueError):
        solve(p)


def test_deterministic_iterates():
    ra = solve(_equality_qp())
    rb = solve(_equality_qp())
    assert np.array_equal(ra.z, rb.z)  # bitwise identical
    assert ra.iterations == rb.iterations
    assert ra.objective == rb.objective


def test_wall_time_limit():
    r = solve(_equality_qp(), SolveOptions(max_wall_time=0.0))
    assert r.wall_time >= 0.0
    assert r.iterations <= 1
