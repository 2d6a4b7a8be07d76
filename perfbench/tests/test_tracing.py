import math

import numpy as np
import pytest

import tracing
from tvapf import planner
from tvapf.solver import NlpProblem, SolveOptions


def _traced_solve(problem):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, traced=True):
        result = planner.solve(problem, SolveOptions(max_iter=50))
    return tracer, result


def test_backtracks_are_objective_minus_gradient_calls():
    # Newton's step on sqrt(1 + z^2) from z = 3 overshoots to z = -27, so
    # the line search must halve it several times before accepting.
    seen_f, seen_g = [], []

    def f(z):
        seen_f.append(float(z[0]))
        return math.sqrt(1.0 + z[0] ** 2)

    def g(z):
        seen_g.append(float(z[0]))
        return np.array([z[0] / math.sqrt(1.0 + z[0] ** 2)])

    def h(z, y, w):
        return np.array([[(1.0 + z[0] ** 2) ** -1.5]])

    tracer, result = _traced_solve(NlpProblem(
        n=1, objective=f, gradient=g, hessian=h, z0=np.array([3.0])))
    m = tracing.layer_metrics(tracer.spans)

    # a trial point is rejected exactly when no gradient is taken there
    rejected = sum(1 for z in seen_f if z not in seen_g)
    assert rejected >= 3
    assert m["solver.backtracks"] == rejected
    assert m["solver.cb_calls.objective"] == len(seen_f)
    assert m["solver.cb_calls.gradient"] == len(seen_g)
    assert m["solver.reg_retries"] == 0
    assert m["solver.iterations"] == result.iterations
    assert abs(result.z[0]) < 1e-4


def test_reg_retries_are_factorizations_minus_hessian_calls():
    # The Hessian is singular in z1, so an unregularized KKT matrix cannot
    # be factorized and the solver retries with a diagonal shift.
    def h(z, y, w):
        return np.array([[2.0, 0.0], [0.0, 0.0]])

    tracer, _ = _traced_solve(NlpProblem(
        n=2, objective=lambda z: float(z[0] ** 2),
        gradient=lambda z: np.array([2.0 * z[0], 0.0]), hessian=h,
        z0=np.array([1.0, 0.5])))
    m = tracing.layer_metrics(tracer.spans)

    failed = sum(1 for s in tracer.spans
                 if s[0] == "splu" and s[5] and "raised" in s[5])
    assert failed >= 1
    assert m["solver.reg_retries"] == failed
    assert m["solver.factorizations"] == m["solver.cb_calls.hessian"] + failed
    assert m["solver.factor_nnz"] > 0


def test_self_time_excludes_children_and_tracer_spans():
    spans = [
        ["solver", 0.0, 10.0, None, "plan/0", {"status": "optimal",
                                               "iterations": 3}],
        ["splu", 1.0, 3.0, 0, "plan/0", {"nnz": 5}],
        ["trace.nnz", 3.0, 4.0, 0, "plan/0", None],
        ["solver.objective", 5.0, 6.0, 0, "plan/0", None],
    ]
    m = tracing.layer_metrics(spans)
    assert m["solver.s"] == pytest.approx(9.0)
    assert m["solver.self_s"] == pytest.approx(6.0)
    assert m["solver.factor_s"] == pytest.approx(2.0)
    assert m["solver.factor_nnz"] == 5


def test_tick_latency_spans_resample_to_tracker_end():
    spans = [
        ["resampler", 0.0, 1.0, None, "tick/0", None],
        ["tracker", 1.5, 4.0, None, "tick/0", None],
        # a tick whose resample raised: no tracker call
        ["resampler", 5.0, 5.5, None, "tick/1", {"raised": "X"}],
    ]
    assert tracing.tick_latencies(spans) == [4.0, 0.5]
