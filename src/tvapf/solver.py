"""Smooth NLP solver of the trajectory planner.

The tracking controller does not use it: its small dense program goes to
SciPy's SLSQP.  Every program supplies its own Lagrangian Hessian.

The implementation is a primal-dual interior-point method: inequality
constraints get slacks with a log barrier, box bounds are handled by a direct
barrier, and each iteration factorizes one sparse symmetric KKT system.  All
linear algebra goes through scipy.sparse.  The planner's program, 70 steps of
multiple shooting (420 variables, 280 equality and 210 inequality rows), has
block-banded Jacobians; it declares their sparsity patterns and its
Hessian's once, and its callbacks return values only.  In stage order its KKT
matrix is a band, which SuperLU factorizes as it stands.  ``perfbench/run.py
--trace 1`` splits a solve's time into the callbacks, the factorizations and
the rest.  The solver is deterministic: identical problems, options and
initial guesses produce identical iterate sequences.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class CallbackFailure(Exception):
    """A user callback returned a non-finite value at an accepted point."""


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE_POINT = "feasible_point"
    INFEASIBLE = "infeasible"
    ITER_LIMIT = "iteration_limit"


@dataclass
class NlpProblem:
    """Smooth nonlinear program
        min f(z)  s.t.  c_eq(z) = 0,  c_ineq(z) <= 0,  lb <= z <= ub.

    All callbacks must be deterministic.  ``hessian(z, y_eq, w_ineq)`` is
    required and may return any symmetric positive-semidefinite
    approximation of the Lagrangian Hessian.  The program declares the
    sparsity pattern of each derivative once (``hess_pattern``,
    ``eq_pattern``, ``ineq_pattern``), and ``hessian``, ``eq_jacobian`` and
    ``ineq_jacobian`` return only the values on it, one per (row, col) pair
    of the pattern in its order.  A derivative without a pattern is dense:
    its callback returns the full 2-D array, read row by row.  The solver
    lays out its KKT system in stage order from the patterns once per
    solve.
    """

    n: int
    objective: Callable
    gradient: Callable
    hessian: Callable
    z0: np.ndarray
    eq_constraints: Optional[Callable] = None
    eq_jacobian: Optional[Callable] = None
    ineq_constraints: Optional[Callable] = None
    ineq_jacobian: Optional[Callable] = None
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None
    hess_pattern: Optional[SparsePattern] = None
    eq_pattern: Optional[SparsePattern] = None
    ineq_pattern: Optional[SparsePattern] = None


# the callbacks of an NlpProblem, by field name
CALLBACKS = ("objective", "gradient", "hessian", "eq_constraints",
             "eq_jacobian", "ineq_constraints", "ineq_jacobian")


@dataclass
class SolveOptions:
    tol: float = 1e-6
    max_iter: int = 300


@dataclass
class SolveResult:
    z: np.ndarray
    objective: float
    status: SolveStatus
    iterations: int
    wall_time: float
    kkt_error: float
    constraint_violation: float
    y_eq: np.ndarray
    w_ineq: np.ndarray
    termination: str  # "kkt", "stalled", "no_step" or "iteration_limit"
    factorizations: int  # KKT factorizations
    backtracks: int  # rejected line-search trial points
    reg_retries: int  # factorizations repeated with a larger delta_w
    evaluations: dict  # calls of each of CALLBACKS, 0 for an absent one
    # seconds spent in the program's callbacks ("callbacks") and in the
    # KKT systems' assembly, factorizations and solves ("kkt")
    phase_s: dict


class SparsePattern:
    """Fixed sparsity pattern of a matrix, given by COO index arrays.

    ``merge(vals)`` returns the stored entries of the matrix holding
    ``vals[k]`` at ``(rows[k], cols[k])``, in CSR (or CSC) order: duplicate
    positions are summed in the order given, and every position stays
    stored whatever its value.  A stored entry lies in row (column) ``major``
    and column (row) ``indices``; ``indptr`` is the CSR (CSC) pointer.  The
    three arrays are read-only, so programs may share a pattern.
    ``matrix(vals)`` returns the scipy matrix of those entries.
    """

    def __init__(self, rows, cols, shape, format: str = "csr"):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        # an entry outside the shape would alias another position
        if ((rows < 0) | (rows >= shape[0]) | (cols < 0)
                | (cols >= shape[1])).any():
            raise ValueError(f"a sparsity pattern entry outside {shape}")
        if format == "csr":
            major, minor, n_major, n_minor = rows, cols, shape[0], shape[1]
            cls = sp.csr_matrix
        else:
            major, minor, n_major, n_minor = cols, rows, shape[1], shape[0]
            cls = sp.csc_matrix
        keys, self._slot = np.unique(major * n_minor + minor,
                                     return_inverse=True)
        self.indices = (keys % n_minor).astype(np.int32)
        self.major = keys // n_minor
        self.indptr = np.searchsorted(
            self.major, np.arange(n_major + 1)).astype(np.int32)
        for a in (self.indices, self.major, self.indptr):
            a.flags.writeable = False
        self.shape = tuple(shape)
        # each matrix is a shallow copy of this one with data of its own,
        # which skips the checks of scipy's constructor
        self._template = cls((np.zeros(len(keys)), self.indices,
                              self.indptr), shape=self.shape)
        self._template.indices = self.indices  # the constructor keeps a view
        # np.unique sorted the positions and merged duplicates
        self._template.has_canonical_format = True

    def merge(self, vals):
        vals = np.asarray(vals, dtype=float).ravel()
        if len(vals) != len(self._slot):
            raise ValueError(f"{len(vals)} values for a sparsity pattern of "
                             f"{len(self._slot)}")
        return _scatter(self._slot, vals, len(self.indices))

    def matrix(self, vals):
        M = copy.copy(self._template)
        M.data = self.merge(vals)
        return M


def _dense(m, n):
    """The pattern of every entry of an (m, n) matrix, row by row."""
    return SparsePattern(np.repeat(np.arange(m), n), np.tile(np.arange(n), m),
                         (m, n))


# the stalled-violation verdict of ``solve``
STALL_WINDOW = 20
STALL_RATIO = 0.1
STALL_KKT_RATIO = 0.5
# IPOPT's bound push kappa_1 and bound fraction kappa_2 (Waechter and
# Biegler, Math. Prog. 106, 2006, section 3.6): ``solve`` starts each variable
# min(kappa_1 max(1, |bound|), kappa_2 (ub - lb)) inside each finite bound
BOUND_PUSH = 1e-2
BOUND_FRAC = 1e-2


def _finite(x, what):
    if not np.isfinite(x).all():
        raise CallbackFailure(f"non-finite value from {what}")
    return x


def _scatter(index, values, n):
    """Length-n vector holding at each i the sum of ``values[k]`` over
    index[k] == i, added in the order given."""
    if not len(index):  # bincount of nothing has an integer dtype
        return np.zeros(n)
    return np.bincount(index, weights=values, minlength=n)


class _Family:
    """One constraint family: its values, the stored entries ``vals`` of its
    Jacobian J on ``pattern`` at the last point given to ``jacobian``, and
    the products J v and J' v.  An absent family has zero rows (an empty
    vector, and a (0, n) Jacobian with no entries)."""

    def __init__(self, constraints, jacobian, pattern, what):
        if constraints is None:
            constraints = jacobian = lambda z: np.zeros(0)  # noqa: E731
        self._values, self._jacobian = constraints, jacobian
        self.pattern = pattern
        self._what = f"{what} constraints"

    def values(self, z):
        return _finite(np.atleast_1d(np.asarray(self._values(z), dtype=float)),
                       self._what)

    def jacobian(self, z):
        self.vals = self.pattern.merge(self._jacobian(z))

    def matvec(self, v):
        """J v; its products, and the order in which they are summed, are
        those of scipy's ``J @ v``, so it is the same to the bit."""
        P = self.pattern
        return _scatter(P.major, self.vals * v[P.indices], P.shape[0])

    def rmatvec(self, v):
        """J' v, the same to the bit as scipy's ``J.T @ v`` (a CSC product),
        without building the transposed matrix."""
        P = self.pattern
        return _scatter(P.indices, self.vals * v[P.major], P.shape[1])


def solve(problem: NlpProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Solve the NLP; see SolveStatus for outcome semantics.

    An absent equality or inequality family enters as a family of zero rows
    (an empty vector with a (0, n) Jacobian), so every program takes one
    path through the iteration.  A box narrower than 1e-12 max(1, |lb|,
    |ub|) is refused: the interior start could not be told from its bound.

    OPTIMAL means the max-norm KKT residuals (dual residual and
    complementarity, unscaled) and the constraint violation are below
    tolerance.  If the iteration limit hits first, the best iterate is
    classified FEASIBLE_POINT when it satisfies the constraints, otherwise
    ITER_LIMIT.  INFEASIBLE has two exits, both with the violation above
    max(100 tol, 1e-5): the violation has stalled, i.e. the best violation
    of the last STALL_WINDOW (20) iterations is not STALL_RATIO (10 %) below
    the best one before them and their best KKT error (at mu = 0) is no
    lower than STALL_KKT_RATIO (0.5) times the best one before them; or no
    step is acceptable even under the heaviest regularization.
    ``SolveResult.termination`` names the exit taken: ``kkt``, ``stalled``,
    ``no_step`` or ``iteration_limit``.

    The constants come from traces of all 259 planner solves of the
    benchmark's overtake runs (seeds 0-4) and cold-start scenes (seeds 0-5).
    Without the rule, none of the 68 it stops (63 pass candidates, and
    overtake's stay at t0 = 50 s, mid lane change) converges: 48 run to the
    150-iteration cap and 20 end with no acceptable step, all with a
    violation of 0.38 or more.  The rule stops them by iteration 45 (median
    21) and cuts no solve that ends optimal or at a feasible point.  The
    nearest miss is the pass candidate of cold-start scene 9: its violation
    falls to 2.0-2.1e-4 at iteration 15, climbs back to 1.5-2.3e-3 and stays
    above 90 % of that low for 7-10 iterations, and the solve converges at
    iteration 60-67, so a window of 10 or fewer would kill it.

    The KKT test spares solves that converge: on an empty road from v0 up
    to 3.0-4.5 m/s the cold ``stay`` guess is nearly feasible at once, so
    the violation looks stalled at iteration 21-22, yet the solve ends
    optimal by iteration 50; there the ratio of the two KKT errors is 0.42
    at most (102 of 312 starts), at the 68 stall verdicts 0.63 or more.

    Each step is a Newton step of the primal-dual system: the KKT matrix
    carries Sigma = W S^-1 exactly, whatever its size, as its right-hand
    side and the multiplier step do.
    """
    opts = opts or SolveOptions()
    t_start = time.perf_counter()

    evaluations = dict.fromkeys(CALLBACKS, 0)
    phase_s = {"callbacks": 0.0, "kkt": 0.0}

    def counted(name, fn):
        def call(*args):
            evaluations[name] += 1
            t = time.perf_counter()
            out = fn(*args)
            phase_s["callbacks"] += time.perf_counter() - t
            return out
        return call

    problem = dataclasses.replace(problem, **{
        k: counted(k, getattr(problem, k)) for k in CALLBACKS
        if getattr(problem, k) is not None})

    n = problem.n
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    if not np.all(ub - lb >= 1e-12 * np.maximum(
            1.0, np.maximum(np.abs(lb), np.abs(ub)))):
        raise ValueError("degenerate box bounds; use an equality constraint instead")
    eq = _Family(problem.eq_constraints, problem.eq_jacobian,
                 problem.eq_pattern, "equality")
    ineq = _Family(problem.ineq_constraints, problem.ineq_jacobian,
                   problem.ineq_pattern, "inequality")
    viol_floor = max(100 * opts.tol, 1e-5)  # INFEASIBLE needs a violation above it

    # The finite bounds as index sets: bound k sits at z[ib[k]] and its gap
    # is sign[k] (z[ib[k]] - bound[k]), z - lb for the first nl and ub - z
    # (to the bit) for the rest.
    ilb = np.flatnonzero(np.isfinite(lb))
    iub = np.flatnonzero(np.isfinite(ub))
    nl = len(ilb)
    ib = np.concatenate([ilb, iub])
    bound = np.concatenate([lb[ilb], ub[iub]])
    sign = np.concatenate([np.ones(nl), -np.ones(len(iub))])

    # strict interior start for the barrier; the width is inf when one-sided
    width = BOUND_FRAC * (ub - lb)
    lo, hi = lb.copy(), ub.copy()
    lo[ilb] += np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(lb[ilb])),
                          width[ilb])
    hi[iub] -= np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(ub[iub])),
                          width[iub])
    z = np.clip(np.asarray(problem.z0, dtype=float), lo, hi)

    def eval_f(x):
        v = float(problem.objective(x))
        if not math.isfinite(v):
            raise CallbackFailure("non-finite value from objective")
        return v

    def eval_g(x):
        return _finite(np.asarray(problem.gradient(x), dtype=float).ravel(), "gradient")

    ce = eq.values(z)
    ci = ineq.values(z)
    me, mi = len(ce), len(ci)
    # the patterns the program declares, dense where it declares none
    hess = problem.hess_pattern or _dense(n, n)
    eq.pattern = eq.pattern or _dense(me, n)
    ineq.pattern = ineq.pattern or _dense(mi, n)
    for P, m in ((hess, n), (eq.pattern, me), (ineq.pattern, mi)):
        if P.shape != (m, n):
            raise ValueError(f"a sparsity pattern of shape {P.shape} for "
                             f"a {(m, n)} matrix")

    # The primal gaps (the slacks s, then the bound gaps), their duals (w,
    # then the bound multipliers) and the sums of the merit function are
    # formed once per accepted point.
    mu = 0.1  # initial barrier parameter
    s = np.maximum(-ci, 1e-2)
    gap = np.concatenate([s, sign * (z[ib] - bound)])
    dual = np.concatenate([mu / s, mu / np.maximum(gap[mi:], 1e-12)])
    terms = _merit_terms(gap, ce, ci, mi, nl)
    y = np.zeros(me)

    f_val = eval_f(z)
    g = eval_g(z)
    eq.jacobian(z)
    ineq.jacobian(z)

    def violation(cev, civ):
        return max(float(np.abs(cev).max(initial=0.0)),
                   float(np.maximum(civ, 0.0).max(initial=0.0)))

    def kkt_errors(gJy, viol, *mu_vals):
        """KKT error of the current iterate at each barrier parameter.

        ``gJy`` is g + Je'y and ``viol`` the constraint violation; the dual
        residual and the complementarity products are formed once."""
        r_d = gJy + ineq.rmatvec(dual[:mi])
        r_d[ilb] -= dual[mi:mi + nl]
        r_d[iub] += dual[mi + nl:]
        base = max(float(np.abs(r_d).max(initial=0.0)), viol)
        comp = gap * dual
        return [max(base, float(np.abs(comp - m).max(initial=0.0)))
                for m in mu_vals]

    kkt = _KktSystem(hess, eq.pattern, ineq.pattern)
    delta_w = 0.0
    status = SolveStatus.ITER_LIMIT
    termination = "iteration_limit"
    factorizations = backtracks = reg_retries = 0
    viols, errs = [], []  # violation and KKT error at each iteration
    it = 0

    for it in range(1, opts.max_iter + 1):
        gJy = g + eq.rmatvec(y)
        viol = violation(ce, ci)
        err0, err_mu = kkt_errors(gJy, viol, 0.0, mu)
        if err0 < opts.tol:
            status = SolveStatus.OPTIMAL
            termination = "kkt"
            break

        # barrier parameter schedule
        if err_mu < 10.0 * mu:
            mu = max(opts.tol / 10.0, min(0.2 * mu, mu ** 1.5))

        # infeasibility verdict: the violation and the KKT error have stalled
        viols.append(viol)
        errs.append(err0)
        if viol > viol_floor and len(viols) > STALL_WINDOW \
                and min(viols[-STALL_WINDOW:]) > \
                (1.0 - STALL_RATIO) * min(viols[:-STALL_WINDOW]) \
                and min(errs[-STALL_WINDOW:]) >= \
                STALL_KKT_RATIO * min(errs[:-STALL_WINDOW]):
            status = SolveStatus.INFEASIBLE
            termination = "stalled"
            break

        # Hessian of the Lagrangian (approximate)
        w = dual[:mi]
        h = hess.merge(problem.hessian(z, y, w))

        # condensed primal-dual system
        s, gap_b, zeta = gap[:mi], gap[mi:], dual[mi:]
        d_b = zeta / gap_b
        d_bound = _scatter(ib, d_b, n)
        s_safe = np.maximum(s, 1e-12)
        sigma = w / s_safe
        cs = ci + s
        t = sigma * cs + mu / s_safe
        barrier = mu / np.maximum(gap_b, 1e-300)
        rhs_z = -gJy - ineq.rmatvec(t)
        rhs_z[ilb] += barrier[:nl]
        rhs_z[iub] -= barrier[nl:]
        rhs = np.concatenate([rhs_z, -ce])

        tau = max(0.99, 1.0 - mu)
        # backtracking on a barrier + L1-penalty merit function
        nu_pen = 10.0 + 2.0 * max(float(np.abs(y).max(initial=0.0)),
                                  float(np.abs(w).max(initial=0.0)))
        phi0 = _merit(f_val, terms, mu, nu_pen)

        accepted = False
        for attempt in range(12):
            factorizations += 1
            if attempt:  # delta_w was raised for this one
                reg_retries += 1
            t_kkt = time.perf_counter()
            try:
                sol = kkt.solve(h, eq.vals, ineq.vals, d_bound + delta_w,
                                sigma, rhs)
            except RuntimeError:  # a singular factor
                sol = None
            phase_s["kkt"] += time.perf_counter() - t_kkt
            if sol is None or not np.isfinite(sol).all():
                delta_w = max(1e-8, 10.0 * (delta_w or 1e-8))
                continue

            dz = sol[:n]
            dy = sol[n:]
            Ji_dz = ineq.matvec(dz)
            ds = -cs - Ji_dz
            dw = t - w + sigma * Ji_dz
            dgap_b = sign * dz[ib]
            dzeta = barrier - zeta - d_b * dgap_b

            # fraction-to-boundary; a min over the joined vectors is exact
            alpha_pri = _max_step(gap, np.concatenate([ds, dgap_b]), tau)
            ddual = np.concatenate([dw, dzeta])
            alpha_dual = _max_step(dual, ddual, tau)

            alpha = alpha_pri
            ls_ok = False
            for _ls in range(25):
                z_t = z + alpha * dz
                gap_t = np.concatenate([s + alpha * ds,
                                        sign * (z_t[ib] - bound)])
                try:
                    f_t = eval_f(z_t)
                    ce_t = eq.values(z_t)
                    ci_t = ineq.values(z_t)
                except CallbackFailure:
                    alpha *= 0.5
                    backtracks += 1
                    continue
                terms_t = _merit_terms(gap_t, ce_t, ci_t, mi, nl)
                phi_t = _merit(f_t, terms_t, mu, nu_pen)
                if phi_t <= phi0 - 1e-8 * alpha * max(1.0, abs(phi0)) or \
                        phi_t <= phi0 + 1e-12 * max(1.0, abs(phi0)):
                    ls_ok = True
                    break
                alpha *= 0.5
                backtracks += 1
            if not ls_ok:
                delta_w = max(1e-6, 10.0 * (delta_w or 1e-6))
                continue

            z, gap, terms = z_t, gap_t, terms_t
            y = y + alpha_dual * dy
            dual = np.maximum(dual + alpha_dual * ddual, 1e-16)
            f_val, ce, ci = f_t, ce_t, ci_t
            g = eval_g(z)
            eq.jacobian(z)
            ineq.jacobian(z)
            delta_w = max(delta_w / 3.0, 0.0) if delta_w > 1e-10 else 0.0
            accepted = True
            break

        if not accepted:
            # could not find an acceptable step even with heavy regularization
            termination = "no_step"
            break

    wall = time.perf_counter() - t_start
    final_violation = violation(ce, ci)
    final_err, = kkt_errors(g + eq.rmatvec(y), final_violation, 0.0)
    if status is SolveStatus.ITER_LIMIT:
        if final_err < opts.tol:
            status = SolveStatus.OPTIMAL
        elif final_violation < opts.tol:
            status = SolveStatus.FEASIBLE_POINT
        elif termination == "no_step" and final_violation > viol_floor:
            status = SolveStatus.INFEASIBLE

    return SolveResult(
        z=z,
        objective=f_val,
        status=status,
        iterations=it,
        wall_time=wall,
        kkt_error=final_err,
        constraint_violation=final_violation,
        y_eq=y,
        w_ineq=dual[:mi].copy(),
        termination=termination,
        factorizations=factorizations,
        backtracks=backtracks,
        reg_retries=reg_retries,
        evaluations=evaluations,
        phase_s=phase_s,
    )


class _KktSystem:
    """Condensed primal-dual system of one iteration,

        [[H + diag(d) + Ji' diag(sigma) Ji,  Je'       ],
         [Je,                                -1e-10 * I]],

    assembled in CSC form in stage order and factorized by SuperLU in that
    order, with partial pivoting.

    It is built once per solve from the sparsity patterns of H, Je and Ji,
    with the map from their stored entries to the matrix; an iteration
    brings their values alone.  The stage order puts each multiplier just
    before the primal variables whose first equality row it is (those in
    none go last), so the planner's matrix is a band of half-width 10.
    SuperLU's default 10-column panels suit wide fronts; on this narrow
    band one-column panels are faster.
    """

    def __init__(self, H, Je, Ji):
        n, me = H.shape[0], Je.shape[0]
        # stored entries (a, b) sharing a row of Ji form Ji' diag(sigma) Ji
        reps = np.diff(Ji.indptr)[Ji.major]
        a = np.repeat(np.arange(len(reps)), reps)
        b = (np.repeat(Ji.indptr[Ji.major], reps) + np.arange(len(a))
             - np.repeat(np.cumsum(reps) - reps, reps))
        self._pairs = (a, b, Ji.major[a])
        diag = np.arange(n)
        eq = np.arange(n, n + me)
        rows = np.concatenate([H.major, diag, Ji.indices[a],
                               Je.major + n, Je.indices, eq])
        cols = np.concatenate([H.indices, diag, Ji.indices[b],
                               Je.indices, Je.major + n, eq])
        # primal variable j sorts after its first equality row's multiplier
        first = np.full(n, me)
        np.minimum.at(first, Je.indices, Je.major)
        self._order = np.argsort(
            np.concatenate([2 * first + 1, 2 * np.arange(me)]), kind="stable")
        pos = np.argsort(self._order)  # of row and column i in that order
        self._pattern = SparsePattern(pos[rows], pos[cols], (n + me, n + me),
                                      format="csc")
        self._reg = np.full(me, -1e-10)

    def solve(self, h, je, ji, d, sigma, rhs):
        """Factorize the system with the stored entries h, je and ji of H,
        Je and Ji, and solve it for ``rhs``."""
        a, b, row = self._pairs
        kkt = self._pattern.matrix(np.concatenate([
            h, d, ji[a] * sigma[row] * ji[b], je, je, self._reg]))
        lu = spla.splu(kkt, permc_spec="NATURAL", relax=1, panel_size=1)
        sol = np.empty_like(rhs)
        sol[self._order] = lu.solve(rhs[self._order])
        return sol


def _max_step(x, dx, tau):
    """Largest alpha in (0, 1] keeping x + alpha*dx >= (1 - tau) * x."""
    neg = np.flatnonzero(dx < 0)
    if not len(neg):
        return 1.0
    with np.errstate(divide="ignore", over="ignore"):
        ratio = -tau * x[neg] / dx[neg]
    return float(min(1.0, ratio.min()))


def _merit_terms(gap, ce, ci, mi, nl):
    """The sums of the barrier + L1-penalty merit at one point, free of mu
    and the penalty: the log sums of the mi slacks, the nl lower-bound gaps
    and the upper-bound gaps (``gap`` in that order), then sum |ce| and
    sum |ci + s|; None off the interior."""
    if (gap <= 0).any():
        return None
    logs = np.log(gap)
    return (float(logs[:mi].sum()), float(logs[mi:mi + nl].sum()),
            float(logs[mi + nl:].sum()), float(np.abs(ce).sum()),
            float(np.abs(ci + gap[:mi]).sum()))


def _merit(f, terms, mu, nu_pen):
    if terms is None:
        return np.inf
    log_s, log_lo, log_up, l1_eq, l1_ineq = terms
    return (f - mu * log_s - mu * log_lo - mu * log_up
            + nu_pen * l1_eq + nu_pen * l1_ineq)
