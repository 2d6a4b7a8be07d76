"""Spans around calls into the program's public functions, recorded from
outside the program.

``instrument`` rebinds names in the ``tvapf`` modules (and the two scipy
entry points the optimizers use) to timing wrappers for the duration of a
``with`` block; nothing under ``src/`` is edited.  Spans are kept in memory
as ``[name, start, end, parent, request, info]`` lists and written out at the
end.  A request id (``plan/<i>``, ``tick/<k>`` or ``scene/<i>``) is shared by
every span under one planner instance, controller tick or plan_cold scene.

Self time of a span is its duration minus the durations of its direct
children.  ``layer_metrics`` folds the spans into the per-layer metrics named
in BENCHMARK.json: ``<layer>.s`` is inclusive time, ``*_s`` is self time and
counts are exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import defaultdict

NLP_CALLBACKS = ("objective", "gradient", "hessian", "eq_constraints",
                 "eq_jacobian", "ineq_constraints", "ineq_jacobian")
SLSQP_CALLBACKS = ("objective", "gradient", "ineq_constraints",
                   "ineq_jacobian")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._counters = defaultdict(int)

    def wrap(self, name, fn, begin=None, end=False, info=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``begin`` starts a new request ``<begin>/<n>`` before the call; the
        request ends after the call when ``end`` is set or the call raised.
        ``info(result)`` returns a dict stored with the span.  ``after()`` is
        called once the span has ended and the call returned.
        """
        def wrapper(*args, **kwargs):
            if begin is not None:
                self.request = f"{begin}/{self._counters[begin]}"
                self._counters[begin] += 1
            record = [name, 0.0, 0.0,
                      self._stack[-1] if self._stack else None,
                      self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = time.perf_counter()
                record[5] = {"raised": type(exc).__name__}
                if begin is not None or end:
                    self.request = None
                raise
            finally:
                self._stack.pop()
            record[2] = time.perf_counter()
            if end:
                self.request = None
            if info is not None:
                record[5] = info(result)
            if after is not None:
                after()
            return result
        return wrapper

    @contextlib.contextmanager
    def request_scope(self, prefix):
        """Attribute every span inside the block to a new request."""
        self.request = f"{prefix}/{self._counters[prefix]}"
        self._counters[prefix] += 1
        try:
            yield
        finally:
            self.request = None

    def write(self, file) -> None:
        with open(file, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _splu_factory(tracer, splu):
    timed = tracer.wrap("splu", splu)

    def wrapper(*args, **kwargs):
        record = len(tracer.spans)
        lu = timed(*args, **kwargs)
        # Counting the factor's entries builds L and U; that cost gets a
        # span of its own, which aggregate() takes out of every layer.
        nnz = tracer.wrap("trace.nnz", lambda: lu.L.nnz + lu.U.nnz)()
        tracer.spans[record][5] = {"nnz": nnz}
        return lu
    return wrapper


def _solve_factory(tracer, solve):
    timed = tracer.wrap("solver", solve, info=lambda r: {
        "status": r.status.value, "iterations": r.iterations})

    def wrapper(problem, *args, **kwargs):
        hooks = {k: tracer.wrap(f"solver.{k}", getattr(problem, k))
                 for k in NLP_CALLBACKS if getattr(problem, k) is not None}
        return timed(dataclasses.replace(problem, **hooks), *args, **kwargs)
    return wrapper


def _minimize_factory(tracer, minimize):
    timed = tracer.wrap("slsqp", minimize, info=lambda r: {"nit": int(r.nit)})

    def wrapper(fun, x0, *args, jac=None, constraints=(), **kwargs):
        fun = tracer.wrap("tracker.objective", fun)
        if callable(jac):
            jac = tracer.wrap("tracker.gradient", jac)
        hooked = []
        for con in ([constraints] if isinstance(constraints, dict)
                    else constraints):
            con = dict(con)
            con["fun"] = tracer.wrap(f"tracker.{con['type']}_constraints",
                                     con["fun"])
            if "jac" in con:
                con["jac"] = tracer.wrap(f"tracker.{con['type']}_jacobian",
                                         con["jac"])
            hooked.append(con)
        return timed(fun, x0, *args, jac=jac, constraints=hooked, **kwargs)
    return wrapper


def _plan_info(traj):
    cands = traj.solve_stats.get("candidates", [])
    return {"cand_ms": [1e3 * c["wall_time"] for c in cands
                        if "wall_time" in c]}


@contextlib.contextmanager
def instrument(tracer: Tracer, traced: bool, after_op=None):
    """Rebind the program's entry points to span wrappers inside the block.

    Untraced, only the calls that end-to-end latencies are read from are
    wrapped: planner instances and the two halves of a controller tick.
    Traced, every layer boundary is wrapped.  ``after_op()``, if given, is
    called outside the spans after each planner instance and each tick.
    """
    import scipy.optimize
    import scipy.sparse.linalg
    from tvapf import planner, prediction, resampler, simulation

    wrap = tracer.wrap
    patches = [
        (simulation, "solve_ltp",
         wrap("planner", simulation.solve_ltp, info=_plan_info,
              after=after_op)),
        (planner, "solve_ltp",
         wrap("planner", planner.solve_ltp, info=_plan_info,
              after=after_op)),
        (simulation, "resample",
         wrap("resampler", simulation.resample, begin="tick")),
        (simulation, "solve_nmpc",
         wrap("tracker", simulation.solve_nmpc, end=True, after=after_op)),
    ]
    if traced:
        patches += [
            (simulation, "_plan_instance",
             wrap("plan_instance", simulation._plan_instance, begin="plan",
                  end=True)),
            (simulation, "propagate_obstacle",
             wrap("prediction", simulation.propagate_obstacle)),
            (prediction, "propagate_obstacle",
             wrap("prediction", prediction.propagate_obstacle)),
            (simulation, "cartesian_to_frenet",
             wrap("c2f", simulation.cartesian_to_frenet)),
            (simulation, "frenet_to_cartesian",
             wrap("f2c", simulation.frenet_to_cartesian)),
            (resampler, "frenet_to_cartesian",
             wrap("f2c", resampler.frenet_to_cartesian)),
            (simulation, "bicycle_step",
             wrap("plant", simulation.bicycle_step)),
            (simulation, "step_actor", wrap("actors", simulation.step_actor)),
            (simulation, "run", wrap("simulation", simulation.run)),
            (planner, "solve", _solve_factory(tracer, planner.solve)),
            (scipy.sparse.linalg, "splu",
             _splu_factory(tracer, scipy.sparse.linalg.splu)),
            (scipy.optimize, "minimize",
             _minimize_factory(tracer, scipy.optimize.minimize)),
        ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, fn in patches:
            setattr(mod, name, fn)
        yield tracer
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def durations(spans):
    """Seconds per span, less the tracer's own ``trace.*`` spans inside it."""
    dur = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, _, _ in spans:
        if name.startswith("trace."):
            while parent is not None:
                dur[parent] -= end - start
                parent = spans[parent][3]
    return dur


def aggregate(spans):
    """Per span name: [calls, inclusive seconds, self seconds]."""
    dur = durations(spans)
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] is not None and not span[0].startswith("trace."):
            child[span[3]] += dur[i]
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for i, span in enumerate(spans):
        acc = out[span[0]]
        acc[0] += 1
        acc[1] += dur[i]
        acc[2] += dur[i] - child[i]
    return out


def tick_latencies(spans):
    """Seconds per controller tick: from the start of ``resample`` to the
    end of the ``solve_nmpc`` call sharing its request, or to the end of
    ``resample`` when it raised before the tracker ran."""
    start, end = {}, {}
    for name, t0, t1, _, request, _ in spans:
        if name == "resampler":
            start[request], end[request] = t0, t1
        elif name == "tracker" and request in start:
            end[request] = t1
    return [end[r] - start[r] for r in start]


def plan_latencies(spans):
    """Seconds per ``solve_ltp`` call (one planner instance or scene)."""
    return [t1 - t0 for name, t0, t1, _, _, _ in spans if name == "planner"]


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced run's spans."""
    agg = aggregate(spans)
    dur = durations(spans)

    def calls(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    solver = [s[5] for s in spans if s[0] == "solver"]
    infeasible = [dur[i] for i, s in enumerate(spans)
                  if s[0] == "solver" and s[5]["status"] == "infeasible"]
    cand_ms = [ms for s in spans if s[0] == "planner" and s[5]
               and "cand_ms" in s[5] for ms in s[5]["cand_ms"]]
    feasible = sum(1 for r in solver
                   if r["status"] in ("optimal", "feasible_point"))
    m = {
        "prediction.calls": calls("prediction"),
        "prediction.s": total("prediction"),
        "planner.instances": calls("planner"),
        "planner.self_s": self_s("planner"),
        "planner.candidates": len(solver),
        "planner.cand_infeasible": len(infeasible),
        "planner.infeasible_s": sum(infeasible, 0.0),
        "planner.useful_ratio": feasible / len(solver) if solver else 0.0,
        "planner.fallbacks": sum(1 for s in spans if s[0] == "planner"
                                 and s[5] and "raised" in s[5]),
        "planner.cand_mean_ms": (sum(cand_ms) / len(cand_ms)
                                 if cand_ms else 0.0),
        "solver.iterations": sum(r["iterations"] for r in solver),
        "solver.s": total("solver"),
    }
    for k in NLP_CALLBACKS:
        m[f"solver.cb_s.{k}"] = total(f"solver.{k}")
        m[f"solver.cb_calls.{k}"] = calls(f"solver.{k}")
    m.update({
        "solver.factor_s": total("splu"),
        "solver.factorizations": calls("splu"),
        "solver.factor_nnz": sum(s[5]["nnz"] for s in spans
                                 if s[0] == "splu" and s[5]
                                 and "nnz" in s[5]),
        "solver.self_s": self_s("solver"),
        "solver.backtracks": (calls("solver.objective")
                              - calls("solver.gradient")),
        "solver.reg_retries": calls("splu") - calls("solver.hessian"),
        "tracker.ticks": calls("tracker"),
        "tracker.s": total("tracker"),
        "tracker.self_s": self_s("tracker"),
        "tracker.slsqp_self_s": self_s("slsqp"),
    })
    for k in SLSQP_CALLBACKS:
        m[f"tracker.cb_s.{k}"] = total(f"tracker.{k}")
        m[f"tracker.cb_calls.{k}"] = calls(f"tracker.{k}")
    m.update({
        "tracker.iterations": sum(s[5]["nit"] for s in spans
                                  if s[0] == "slsqp" and s[5]
                                  and "nit" in s[5]),
        "tracker.infeasible": sum(1 for s in spans if s[0] == "tracker"
                                  and s[5] and "raised" in s[5]),
        "resampler.calls": calls("resampler"),
        "resampler.s": total("resampler"),
        "geometry.f2c_calls": calls("f2c"),
        "geometry.f2c_s": total("f2c"),
        "geometry.c2f_calls": calls("c2f"),
        "geometry.c2f_s": total("c2f"),
        "simulation.plant_s": total("plant"),
        "simulation.actors_s": total("actors"),
        "simulation.self_s": self_s("simulation") + self_s("plan_instance"),
    })
    return m
