"""Interior-point NLP solver: correctness on small closed-form programs,
status semantics, and determinism."""

import dataclasses
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

from tvapf import planner, solver
from tvapf.geometry import straight_path
from tvapf.planner import EgoModelState, PlannerConfig
from tvapf.potentials import PotentialConfig
from tvapf.prediction import ObstacleState, TvapfParams, propagate_obstacle
from tvapf.solver import (CallbackFailure, NlpProblem, SolveOptions,
                          SolveStatus, SparsePattern, _KktSystem, solve)


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
    assert r.termination == "kkt"
    assert np.allclose(r.z, [0.5, 0.5], atol=1e-6)
    assert r.constraint_violation < 1e-8
    assert r.y_eq[0] == pytest.approx(-1.0, abs=1e-5)


def test_box_bound_active():
    r = solve(_scalar_quadratic(lb=np.array([-5.0]), ub=np.array([1.0])))
    assert r.status is SolveStatus.OPTIMAL
    assert r.z[0] == pytest.approx(1.0, abs=1e-5)
    assert r.z[0] <= 1.0


def _first_point(lb, ub, z0):
    """Solve min (z - 3)^2 on [lb, ub] from z0, with every warning an
    error; return the first point the objective is evaluated at, and the
    result."""
    seen = []

    def objective(z):
        seen.append(z[0])
        return float((z[0] - 3.0) ** 2)

    p = NlpProblem(n=1, objective=objective,
                   gradient=lambda z: np.array([2.0 * (z[0] - 3.0)]),
                   hessian=_constant_hessian(2.0), z0=np.array([z0]),
                   lb=np.array([lb]), ub=np.array([ub]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve(p)
    return seen[0], r


@pytest.mark.parametrize("lb, ub, z0, start", [
    # |bound| <= 1: 1e-2 inside, or a hundredth of the box if that is less
    (0.5, 0.7, 0.0, 0.502),
    (0.5, 0.7, 0.5, 0.502),
    (0.5, 0.7, 1.0, 0.698),
    (-0.5, 2.5, -0.5, -0.49),
    # |bound| > 1: the push scales with the bound
    (100.0, 300.0, 0.0, 101.0),
    (100.0, 300.0, 100.0, 101.0),
    (100.0, 300.0, 400.0, 298.0),
    (-300.0, -250.0, -300.0, -299.5),
    # one-sided bounds have no width term
    (-5.0, np.inf, -10.0, -4.95),
    (-np.inf, 0.25, 1.0, 0.24),
    (-np.inf, -200.0, 0.0, -202.0),
    (2.0, np.inf, 7.0, 7.0),
    # infinite bounds leave the guess as it is
    (-np.inf, np.inf, 123.4, 123.4),
])
def test_start_is_pushed_inside_the_box(lb, ub, z0, start):
    first, _ = _first_point(lb, ub, z0)
    assert first == pytest.approx(start, rel=1e-12)


@pytest.mark.parametrize("width", [1e-10, 1e-11, 1e-3])
def test_narrow_box_starts_inside_and_ends_optimal_at_ub(width):
    # a start margin wider than half the box would put z0 outside it
    first, r = _first_point(0.0, width, 0.5)
    assert 0.0 < first < width
    assert r.status is SolveStatus.OPTIMAL
    assert width / 2 < r.z[0] <= width
    assert r.z[0] == pytest.approx(width, abs=1e-7)


def test_bound_multiplier_starts_at_the_centred_value_plus_one():
    # z0 = 0.5 lies 0.5 from its bound, so its multiplier starts at
    # mu0/gap + BOUND_MULT_INIT = 0.2 + 1; with no iteration the KKT error is
    # the dual residual |g - zeta0| = |-5 - 1.2|
    p = dataclasses.replace(_scalar_quadratic(lb=np.zeros(1)),
                            z0=np.array([0.5]))
    r = solve(p, SolveOptions(max_iter=0))
    assert r.iterations == 0
    assert r.kkt_error == pytest.approx(6.2, rel=1e-12)


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


@pytest.mark.parametrize("K", [5e3, 5e5])
def test_large_multiplier_converges_in_few_iterations(K):
    """min K (z0 - 2)^2 + (z1 - 1)^2  s.t. z0 <= 1: the multiplier is 2K.
    At the barrier floor the active row has w/s = w^2/mu far above 1e12,
    and each step is a Newton step only if the KKT matrix carries that
    w/s exactly."""
    p = NlpProblem(n=2,
                   objective=lambda z: float(K * (z[0] - 2.0) ** 2
                                             + (z[1] - 1.0) ** 2),
                   gradient=lambda z: np.array([2.0 * K * (z[0] - 2.0),
                                                2.0 * (z[1] - 1.0)]),
                   hessian=_constant_hessian(2.0 * K, 2.0),
                   z0=np.zeros(2),
                   ineq_constraints=lambda z: np.array([z[0] - 1.0]),
                   ineq_jacobian=lambda z: np.array([[1.0, 0.0]]))
    r = solve(p)
    assert r.status is SolveStatus.OPTIMAL
    assert r.iterations <= 20
    assert r.z[0] == pytest.approx(1.0, abs=1e-6)
    assert r.w_ineq[0] == pytest.approx(2.0 * K, rel=1e-6)


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
    assert r.termination == "stalled"
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


def test_no_acceptable_step_is_infeasible():
    # the objective is finite only at z0 = 0, so every trial point of the
    # line search fails and no regularization yields a step toward z = 1
    p = NlpProblem(n=1,
                   objective=lambda z: 0.0 if z[0] == 0.0 else float("nan"),
                   gradient=lambda z: np.zeros(1),
                   hessian=_constant_hessian(2.0),
                   z0=np.array([0.0]),
                   eq_constraints=lambda z: np.array([z[0] - 1.0]),
                   eq_jacobian=lambda z: np.array([[1.0]]))
    r = solve(p)
    assert r.status is SolveStatus.INFEASIBLE
    assert r.termination == "no_step"
    assert r.iterations == 1
    assert r.constraint_violation == 1.0
    assert r.z[0] == 0.0
    # twelve factorizations, each after a larger delta_w than the last, and
    # every trial point of every line search rejected
    assert (r.factorizations, r.reg_retries, r.backtracks) == (12, 11, 12 * 25)
    # the objective runs at z0 and at each rejected trial point, the rest
    # once at z0, and the absent inequality family not at all
    assert r.evaluations == {
        "objective": 1 + 12 * 25, "gradient": 1, "hessian": 1,
        "eq_constraints": 1, "eq_jacobian": 1, "ineq_constraints": 0,
        "ineq_jacobian": 0}


def test_iteration_limit_reports_feasible_point():
    r = solve(_equality_qp(z0=(0.6, 0.4)), SolveOptions(max_iter=1))
    assert r.status in (SolveStatus.FEASIBLE_POINT, SolveStatus.ITER_LIMIT,
                        SolveStatus.OPTIMAL)
    assert r.termination == "iteration_limit"
    assert r.iterations <= 1


@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", solver.CALLBACKS)
def test_non_finite_callback_value_raises(name, bad, declared):
    # one value of one callback is non-finite at every point.  Unchecked, a
    # derivative's ends the solve feasible_point or infeasible without a
    # word; an inf at the dense Hessian's (3, 3) even gives SuperLU a pivot
    # and a finite step, so no failed factorization would catch it
    p = _coupled_program(declared)
    good = getattr(p, name)

    def spoiled(z, *args):
        out = np.array(good(z, *args), dtype=float)
        out.flat[-1] = bad
        return float(out) if name == "objective" else out

    with pytest.raises(CallbackFailure, match=f"from {name}$"):
        solve(dataclasses.replace(p, **{name: spoiled}))


def test_non_finite_jacobian_at_the_last_point_raises():
    # the one accepted step lands where eq_jacobian is NaN; the iteration
    # limit ends the solve before that Jacobian enters a factorization
    p = _equality_qp(z0=(0.6, 0.4))
    calls = []

    def eq_jacobian(z):
        calls.append(z)
        return np.array([[np.nan if len(calls) > 1 else 1.0, 1.0]])

    with pytest.raises(CallbackFailure, match="from eq_jacobian$"):
        solve(dataclasses.replace(p, eq_jacobian=eq_jacobian),
              SolveOptions(max_iter=1))
    assert len(calls) == 2


@pytest.mark.parametrize("field, value", [
    ("z0", np.zeros(1)), ("lb", np.array([1.5])), ("ub", np.zeros((1, 3)))])
def test_mis_shaped_start_or_bound_rejected(field, value):
    # a (1,) z0 or lb would broadcast against the (3,) others, so lb = [1.5]
    # would bound z[0] alone and end optimal at z = (1.5, 1, 2); a (1, 3)
    # ub would fail deep inside the solve
    c = np.array([1.0, 1.0, 2.0])
    p = NlpProblem(n=3, objective=lambda z: float(np.sum((z - c) ** 2)),
                   gradient=lambda z: 2.0 * (z - c),
                   hessian=_constant_hessian(2.0, 2.0, 2.0), z0=np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        solve(dataclasses.replace(p, **{field: value}))


def test_degenerate_box_rejected():
    p = NlpProblem(n=1, objective=lambda z: 0.0,
                   gradient=lambda z: np.zeros(1),
                   hessian=_constant_hessian(0.0), z0=np.zeros(1),
                   lb=np.array([1.0]), ub=np.array([1.0]))
    with pytest.raises(ValueError):
        solve(p)


@pytest.mark.parametrize("lb, width", [(1e6, 1e-9), (1e3, 1e-12),
                                       (1e6, 1e-8)])
def test_box_narrow_for_its_bound_rejected(lb, width):
    # a push inside these boxes is below one ulp of lb, or so close to it
    # that the solve divides by zero or runs to the iteration cap
    p = _scalar_quadratic(lb=np.array([lb]), ub=np.array([lb + width]))
    with pytest.raises(ValueError):
        solve(p)


def test_free_one_sided_and_two_sided_bounds_without_equalities():
    """min sum (z - c)^2 with z0 free but for the inequality z0 <= 1, z1 >= 1,
    z2 <= -2, and z3, z4, z5 in [-1, 1]; no equality family.  The optimum is
    (1, 1, -2, 0.3, 1, -1): every kind of bound is active somewhere, and the
    inequality multiplier is 2 (c0 - 1)."""
    c = np.array([2.0, -1.0, 0.0, 0.3, 3.0, -3.0])
    p = NlpProblem(n=6,
                   objective=lambda z: float(np.sum((z - c) ** 2)),
                   gradient=lambda z: 2.0 * (z - c),
                   hessian=_constant_hessian(*[2.0] * 6),
                   z0=np.array([5.0, 4.0, 3.0, 0.9, -7.0, 0.5]),
                   ineq_constraints=lambda z: np.array([z[0] - 1.0]),
                   ineq_jacobian=lambda z: np.array([[1.0, 0, 0, 0, 0, 0]]),
                   lb=np.array([-np.inf, 1.0, -np.inf, -1.0, -1.0, -1.0]),
                   ub=np.array([np.inf, np.inf, -2.0, 1.0, 1.0, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve(p)
    assert r.status is SolveStatus.OPTIMAL
    assert r.termination == "kkt"
    assert np.allclose(r.z, [1.0, 1.0, -2.0, 0.3, 1.0, -1.0], atol=1e-5)
    assert r.objective == pytest.approx(1.0 + 4.0 + 4.0 + 4.0 + 4.0, abs=1e-4)
    assert r.y_eq.shape == (0,)
    assert r.w_ineq[0] == pytest.approx(2.0, abs=1e-4)
    # 11 iterations; a wrong bound-multiplier step still converges, in 36
    # or more
    assert r.iterations <= 15


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _product_cases():
    """(rows, cols, vals, shape) of four patterns with their values."""
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((6, 5))
    dense[[1, 4]] = 0.0  # two empty rows
    dense[dense > 0.8] = 0.0
    rows, cols = np.nonzero(dense)
    # entries out of order, a duplicate, and an empty last row
    messy = ([0, 0, 0, 2, 2], [3, 0, 3, 1, 3],
             [0.3, -1.7, 2.5, 1e-300, -4.0], (4, 5))
    return [(rows, cols, dense[rows, cols], dense.shape), messy,
            ([], [], [], (0, 5)), ([], [], [], (3, 5))]


def _family(pattern, vals):
    """The stored entries ``vals`` of a Jacobian on ``pattern`` and its
    products J v and J' v, as the solver forms them."""
    entries = pattern.merge(vals)
    return types.SimpleNamespace(
        vals=entries, matvec=lambda v: pattern.matvec(entries, v),
        rmatvec=lambda v: pattern.rmatvec(entries, v))


@pytest.mark.parametrize("M", _product_cases())
def test_jacobian_products_equal_scipy_to_the_bit(M):
    rows, cols, vals, shape = M
    pattern = SparsePattern(rows, cols, shape)
    J = pattern.matrix(vals)
    rng = np.random.default_rng(4)
    v_row = rng.standard_normal(shape[0]) * 1e3
    v_col = rng.standard_normal(shape[1])
    family = _family(pattern, vals)
    assert _bits(family.rmatvec(v_row)) == _bits(J.T @ v_row)
    assert _bits(family.matvec(v_col)) == _bits(J @ v_col)


def test_pattern_matrices_share_read_only_indices():
    rows, cols = [0, 2, 2, 1, 0], [1, 0, 0, 2, 1]
    pattern = SparsePattern(rows, cols, (3, 3))
    assert not any(a.flags.writeable for a in
                   (pattern.indices, pattern.major, pattern.indptr))
    assert np.array_equal(pattern.major, [0, 1, 2])
    A = pattern.matrix(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    B = pattern.matrix(np.array([-1.0, 0.0, 0.0, 1.0, 0.0]))
    assert A.data is not B.data
    assert np.array_equal(A.toarray(), [[0, 6, 0], [0, 0, 4], [5, 0, 0]])
    # every position stays stored, zero or not
    assert B.nnz == 3 and np.array_equal(B.data, [-1.0, 1.0, 0.0])
    # a family on the pattern gives scipy's products whatever the values
    v = np.array([0.5, -2.0, 7.0])
    for vals in ([1.0, 2.0, 3.0, 4.0, 5.0], [-1.0, 0.0, 0.0, 1.0, 0.0],
                 [0.1, -0.1, 1e300, -1e300, 0.0]):
        J = pattern.matrix(np.array(vals))
        family = _family(pattern, np.array(vals))
        assert _bits(family.vals) == _bits(J.data)
        assert _bits(family.rmatvec(v)) == _bits(J.T @ v)
        assert _bits(family.matvec(v)) == _bits(J @ v)


def _coupled_program(declared):
    """min (z0 - 1)^2 + (z1 - 2)^2 + (z2 + 1)^2 + z3^2 + z0 z1 s.t.
    z0 + z2 = 1, z1 - z3 = 0.5, z0^2 + z2^2 <= 1 and z3 >= 0.8; with its
    patterns declared (a duplicate in the Hessian's), or dense."""
    t = np.array([1.0, 2.0, -1.0, 0.0])
    H0 = np.diag([2.0, 2.0, 2.0, 2.0])
    H0[0, 1] = H0[1, 0] = 1.0
    Je = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])

    def hessian(z, y, w):
        if declared:
            return np.array([2.0, 1.0, 1.0, 2.0, 2.0, 2.0,
                             2.0 * w[0], 2.0 * w[0]])
        return H0 + np.diag([2.0 * w[0], 0.0, 2.0 * w[0], 0.0])

    def ineq_jacobian(z):
        if declared:
            return np.array([2.0 * z[0], 2.0 * z[2]])
        return np.array([[2.0 * z[0], 0.0, 2.0 * z[2], 0.0]])

    patterns = dict(
        hess_pattern=SparsePattern([0, 1, 0, 1, 2, 3, 0, 2],
                                   [0, 0, 1, 1, 2, 3, 0, 2], (4, 4)),
        eq_pattern=SparsePattern([0, 0, 1, 1], [0, 2, 1, 3], (2, 4)),
        ineq_pattern=SparsePattern([0, 0], [0, 2], (1, 4)))
    return NlpProblem(
        n=4,
        objective=lambda z: float(np.sum((z - t) ** 2) + z[0] * z[1]),
        gradient=lambda z: 2.0 * (z - t) + np.array([z[1], z[0], 0.0, 0.0]),
        hessian=hessian,
        z0=np.array([3.0, -2.0, 1.0, 2.0]),
        eq_constraints=lambda z: Je @ z - np.array([1.0, 0.5]),
        eq_jacobian=lambda z: Je[Je != 0.0] if declared else Je,
        ineq_constraints=lambda z: np.array([z[0] ** 2 + z[2] ** 2 - 1.0]),
        ineq_jacobian=ineq_jacobian,
        lb=np.array([-np.inf, -np.inf, -np.inf, 0.8]),
        **(patterns if declared else {}))


def test_declared_patterns_solve_as_the_dense_default():
    sparse, dense = (solve(_coupled_program(declared))
                     for declared in (True, False))
    assert sparse.status is dense.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(sparse.z, dense.z, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize("name", ["hessian", "eq_jacobian", "ineq_jacobian"])
def test_derivative_with_the_wrong_number_of_values_raises(declared, name):
    p = _coupled_program(declared)
    good = getattr(p, name)
    p = dataclasses.replace(
        p, **{name: lambda z, *a: np.ravel(good(z, *a))[:-1]})
    with pytest.raises(ValueError, match="values for a sparsity pattern"):
        solve(p)


@pytest.mark.parametrize("rows, cols", [([0, 3], [0, 1]), ([0, 1], [0, 2]),
                                        ([-1, 0], [0, 1]), ([0, 1], [-1, 0])])
def test_pattern_entry_outside_its_shape_raises(rows, cols):
    # (0, 2) of a 3 x 2 matrix would otherwise alias (1, 0)
    with pytest.raises(ValueError, match="outside"):
        SparsePattern(rows, cols, (3, 2))


def test_pattern_of_the_wrong_shape_raises():
    p = dataclasses.replace(_coupled_program(True), eq_pattern=SparsePattern(
        [0, 0, 1, 1], [0, 2, 1, 3], (3, 4)))
    with pytest.raises(ValueError, match="shape"):
        solve(p)


# -- the KKT system of the planner's program ---------------------------------


def _planner_scene(s0=100.0):
    """A leader 60 m ahead of an ego at s0 and an oncoming actor in the
    other lane, as the arguments of ``planner.solve_ltp``."""
    cfg, pot, path = PlannerConfig(), PotentialConfig(), straight_path()
    lead = ObstacleState(s_o=s0 + 60.0, d_o=-2.0, v_o=5.0,
                         v_bounds=(4.5, 5.5), a_bounds=(-0.05, 0.05))
    oncoming = ObstacleState(s_o=s0 + 300.0, d_o=2.0, v_o=6.0, direction=-1,
                             v_bounds=(0.0, 12.5), a_bounds=(-0.9, 0.9))
    fcs = [propagate_obstacle(o, cfg.T_sL, cfg.N_L) for o in (lead, oncoming)]
    return EgoModelState(s0, -2.0, 0.0, 9.0), fcs, path, cfg, pot


def _planner_problem(alpha_prev=0.0, candidate=0):
    """The NLP of the scene's ``stay`` candidate (``pass`` with candidate
    1) from the candidate's seed."""
    xi0, fcs, path, cfg, pot = _planner_scene()
    _, box, (g_states, g_inputs) = planner._candidates(xi0, fcs, path, cfg,
                                                       pot)[candidate]
    return planner._LtpProgram(xi0, fcs, path, cfg, pot, TvapfParams(),
                               g_states, g_inputs, box,
                               alpha_prev).to_problem()


@pytest.mark.parametrize("alpha_prev", [0.0, None])
def test_planner_kkt_matrix_is_banded_in_stage_order(alpha_prev):
    p = _planner_problem(alpha_prev)
    P = _KktSystem(p.hess_pattern, p.eq_pattern, p.ineq_pattern)._pattern
    assert P.shape == (700, 700)
    assert np.abs(P.major - P.indices).max() <= 10


def _matrix(P, vals):
    return sp.csr_matrix((vals, P.indices, P.indptr), shape=P.shape)


def test_planner_kkt_solutions_solve_the_assembled_matrix(monkeypatch):
    # every system of the first iterations from the seed, against the matrix
    # assembled from the patterns in the variables' own order
    p = _planner_problem()
    kkt_solve = _KktSystem.solve
    residuals = []

    def checked(self, h, je, ji, d, sigma, rhs):
        x = kkt_solve(self, h, je, ji, d, sigma, rhs)
        H, Je, Ji = (_matrix(P, v) for P, v in ((p.hess_pattern, h),
                                               (p.eq_pattern, je),
                                               (p.ineq_pattern, ji)))
        K = sp.bmat([[H + sp.diags(d) + Ji.T @ sp.diags(sigma) @ Ji, Je.T],
                     [Je, sp.diags(np.full(Je.shape[0], -1e-10))]])
        residuals.append(np.abs(K @ x - rhs).max() / np.abs(rhs).max())
        return x

    monkeypatch.setattr(_KktSystem, "solve", checked)
    solve(p, SolveOptions(max_iter=5))
    assert len(residuals) >= 5
    assert max(residuals) <= 1e-10


def test_each_factorization_is_one_natural_order_splu_call(monkeypatch):
    splu, calls = scipy.sparse.linalg.splu, []

    def spy(A, **kwargs):
        calls.append((A.format, kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    r = solve(_planner_problem(), SolveOptions(max_iter=10))
    assert r.factorizations == len(calls) >= 10
    # a CSR matrix would be converted, and so would factorize K', whose
    # pair products differ from K's in the last bit
    assert all(fmt == "csc" and c["permc_spec"] == "NATURAL"
               for fmt, c in calls)


def test_kkt_layout_is_built_once_per_pattern_triple(monkeypatch):
    # the candidates of two planner instances of one horizon share one
    # layout; each solve fills a value buffer and a matrix of its own
    init, built, solves = _KktSystem.__init__, [], []

    def spy_init(self, *patterns):
        built.append(patterns)
        init(self, *patterns)

    def spy_solve(problem, opts):
        solves.append(problem)
        return solve(problem, opts)

    monkeypatch.setattr(_KktSystem, "__init__", spy_init)
    monkeypatch.setattr(planner, "solve", spy_solve)
    solver._kkt_system.cache_clear()
    for s0 in (100.0, 130.0):
        xi0, fcs, path, cfg, pot = _planner_scene(s0)
        planner.solve_ltp(xi0, fcs, path, cfg, pot, alpha_prev=0.0)
    assert len(solves) >= 3 and len(built) == 1
    layout = solver._kkt_system(*built[0])
    a, b = layout.for_solve(), layout.for_solve()
    assert a._pattern is b._pattern is layout._pattern
    assert not np.shares_memory(a._vals, b._vals)
    assert not np.shares_memory(a._matrix.data, b._matrix.data)


def _outcome(r):
    return (_bits(r.z), _bits(r.y_eq), _bits(r.w_ineq), repr(r.objective),
            r.status, r.iterations, r.factorizations, r.backtracks,
            r.reg_retries, r.evaluations)


def test_solves_on_a_shared_layout_carry_no_state():
    # a planner program, a dense program, then the planner program again:
    # the shared layout hands nothing from one solve to the next
    first = solve(_planner_problem())
    dense = solve(_coupled_program(False))
    again = solve(_planner_problem())
    assert dense.status is SolveStatus.OPTIMAL
    assert first.iterations > 10
    assert _outcome(again) == _outcome(first)


@pytest.mark.parametrize("candidate", [0, 1])
def test_kkt_fill_is_the_concatenated_assembly_to_the_bit(monkeypatch,
                                                          candidate):
    # each system of the first iterations of the stay and the pass program
    # against the assembly the in-place fill replaced: the concatenated
    # values of H, d, the pairs of Ji' diag(sigma) Ji, Je, Je' and the
    # regularization, merged on the layout's pattern
    p = _planner_problem(candidate=candidate)
    me = p.eq_pattern.shape[0]
    kkt_solve, splu, seen = _KktSystem.solve, scipy.sparse.linalg.splu, []

    def checked(self, h, je, ji, d, sigma, rhs):
        a, b, row = self._pairs
        want = self._pattern.matrix(np.concatenate([
            h, d, ji[a] * sigma[row] * ji[b], je, je, np.full(me, -1e-10)]))

        def spy(A, **kwargs):
            seen.append(_bits(A.data) == _bits(want.data)
                        and np.array_equal(A.indices, want.indices)
                        and np.array_equal(A.indptr, want.indptr))
            return splu(A, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        return kkt_solve(self, h, je, ji, d, sigma, rhs)

    monkeypatch.setattr(_KktSystem, "solve", checked)
    solve(p, SolveOptions(max_iter=8))
    assert len(seen) >= 8 and all(seen)


def test_deterministic_iterates():
    ra = solve(_equality_qp())
    rb = solve(_equality_qp())
    assert np.array_equal(ra.z, rb.z)  # bitwise identical
    assert ra.iterations == rb.iterations
    assert ra.objective == rb.objective
