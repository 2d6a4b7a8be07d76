"""Smooth NLP solver of the trajectory planner.

The tracking controller does not use it: its small dense program goes to
SciPy's SLSQP.  Every program supplies its own Lagrangian Hessian.

The implementation is a primal-dual interior-point method: inequality
constraints get slacks with a log barrier, box bounds are handled by a direct
barrier, and each iteration factorizes one sparse symmetric KKT system.  A
bound multiplier starts at its centred value mu0/gap plus IPOPT's unit scale.
All linear algebra goes through scipy.sparse.  The planner's program, 70 steps
of multiple shooting (420 variables, 280 equality and 210 inequality rows),
has block-banded Jacobians; it declares their sparsity patterns and its
Hessian's once, and its callbacks return values only.  In stage order its KKT
matrix is a band, which SuperLU factorizes as it stands.  ``perfbench/run.py
--trace 1`` splits a solve's time into the callbacks, the factorizations and
the rest.  Section timers on the benchmark's 12 ``plan_cold`` scenes of seed 1
(740 iterations; one BLAS thread, 2-core x86-64 host, numpy 2.4, scipy 1.17;
median of 5 processes, each the best of 5 runs) split an iteration's 0.91 ms
into: the KKT solve 0.47 ms, SuperLU's factorization 0.38 ms of it; the
trial points of the line search 0.19 ms; the derivatives at the accepted
point 0.09 ms; step recovery and fraction-to-boundary 0.04 ms; the KKT error
0.04 ms; the Hessian 0.04 ms; the right-hand side 0.03 ms.  The solver is
deterministic: identical problems, options and initial guesses produce
identical iterate sequences.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class CallbackFailure(Exception):
    """A callback, named in the message, returned a non-finite value: an
    objective, gradient or constraint value off the line search's trial
    points, or a Hessian or Jacobian value."""


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
    triple of pattern objects, and shares that layout between solves.
    ``z0``, ``lb`` and ``ub`` have shape (n,); a bound left None is
    infinite.  Every callback value must be finite: a non-finite one raises
    ``CallbackFailure`` naming its callback, before any product meets it.
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
    """Fixed sparsity pattern of a matrix M, given by COO index arrays.

    ``merge(vals)`` returns the stored entries of the M that holds
    ``vals[k]`` at ``(rows[k], cols[k])``, in CSR order: duplicate
    positions are summed in the order given, and every position stays
    stored whatever its value.  A stored entry lies in row ``major`` and
    column ``indices``; ``indptr`` is the CSR pointer.  The three arrays are
    read-only, so programs may share a pattern.  ``matrix(vals)`` returns
    the scipy CSR matrix of the merged ``vals``; ``matvec(entries, v)`` and
    ``rmatvec(entries, v)`` give M v and M' v from stored entries.
    """

    def __init__(self, rows, cols, shape):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        # an entry outside the shape would alias another position
        if ((rows < 0) | (rows >= shape[0]) | (cols < 0)
                | (cols >= shape[1])).any():
            raise ValueError(f"a sparsity pattern entry outside {shape}")
        keys, self._slot = np.unique(rows * shape[1] + cols,
                                     return_inverse=True)
        self.indices = (keys % shape[1]).astype(np.int32)
        self.major = keys // shape[1]
        self.indptr = np.searchsorted(
            self.major, np.arange(shape[0] + 1)).astype(np.int32)
        for a in (self.indices, self.major, self.indptr):
            a.flags.writeable = False
        self.shape = tuple(shape)

    def merge(self, vals):
        vals = np.asarray(vals, dtype=float).ravel()
        if len(vals) != len(self._slot):
            raise ValueError(f"{len(vals)} values for a sparsity pattern of "
                             f"{len(self._slot)}")
        return _scatter(self._slot, vals, len(self.indices))

    def matrix(self, vals):
        return sp.csr_matrix((self.merge(vals), self.indices, self.indptr),
                             shape=self.shape)

    def matvec(self, entries, v):
        """M v; its products, and the order in which they are summed, are
        those of scipy's ``M @ v``, so it is the same to the bit."""
        return _scatter(self.major, entries * v[self.indices], self.shape[0])

    def rmatvec(self, entries, v):
        """M' v, the same to the bit as scipy's ``M.T @ v`` (a CSC product),
        without building the transposed matrix."""
        return _scatter(self.indices, entries * v[self.major], self.shape[1])


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
# IPOPT's bound_mult_init_val (same section), added to each bound
# multiplier's centred start mu0/gap (see ``solve``)
BOUND_MULT_INIT = 1.0


def _finite(x, what):
    """x as a flat float vector, refused if a value is not finite."""
    x = np.asarray(x, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise CallbackFailure(f"non-finite value from {what}")
    return x


def _scatter(index, values, n):
    """Length-n vector holding at each i the sum of ``values[k]`` over
    index[k] == i, added in the order given."""
    if not len(index):  # bincount of nothing has an integer dtype
        return np.zeros(n)
    return np.bincount(index, weights=values, minlength=n)


def solve(problem: NlpProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Solve the NLP; see SolveStatus for outcome semantics.

    An absent equality or inequality family enters as a family of zero rows
    (an empty vector with a (0, n) Jacobian), so every program takes one
    path through the iteration.  A ``z0``, ``lb`` or ``ub`` not of shape
    (n,) is refused, and so is a box narrower than 1e-12 max(1, |lb|, |ub|):
    the interior start could not be told from its bound.

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
    benchmark's overtake runs (seeds 0-4) and cold-start scenes (seeds 0-5),
    last measured with the start below.  Without the rule, none of the 68
    it stops (63 pass candidates, and overtake's stay at t0 = 50 s, mid lane
    change) converges: 44 run to the 150-iteration cap and 24 end with no
    acceptable step, all with a violation of 0.34 or more.  The rule stops
    them by iteration 46 (median 21) and cuts no solve that ends optimal or
    at a feasible point.  The nearest miss is overtake's stay at t0 = 0: its
    seed is feasible, its violation then stays above the floor for 16-17
    iterations, and the solve converges at iteration 26-27, so a window of
    17 or fewer would meet the violation test there.

    The KKT test guards such a start, nearly feasible at once, whose
    violation cannot fall 10 % below its first while the KKT error falls
    by orders of magnitude (to about 1e-4 of its first in the case above).
    With today's window it spares no solve measured: at the 68 verdicts the
    ratio of the two KKT errors is 0.79 or more, and none of 312 empty-road
    starts from rest (s0 20 or 600 m, v0 0-12.5 m/s) meets the violation
    test.

    The start: z0 pushed inside its bounds, each slack max(-c_ineq, 0.01)
    with its dual mu0/s, and each bound multiplier mu0/gap +
    BOUND_MULT_INIT.  The centred term dominates on a bound the start is
    pushed against; the unit term gives the barrier curvature zeta/gap
    IPOPT's scale on the bounds the start is far from, where mu0/gap alone
    is 1e-4 on a position 1 km away.  From mu0/gap alone the first 11
    iterations of an empty-road solve take primal steps of 0.04-0.33, each
    cut short by an acceleration bound.  The unit term alone ends a solve on
    a box 1e-11 wide mid box; max(mu0/gap, 1) makes planner solves fall
    back, and slack duals of 1 too end blocked ones with no step.

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
    z0 = np.asarray(problem.z0, dtype=float)
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    if not z0.shape == lb.shape == ub.shape == (n,):
        raise ValueError(f"z0, lb and ub must have shape ({n},)")
    if not np.all(ub - lb >= 1e-12 * np.maximum(
            1.0, np.maximum(np.abs(lb), np.abs(ub)))):
        raise ValueError("degenerate box bounds; use an equality constraint instead")
    absent = (lambda z: np.zeros(0),) * 2  # a family of zero rows
    eq_c, eq_jac = absent if problem.eq_constraints is None else (
        problem.eq_constraints, problem.eq_jacobian)
    ineq_c, ineq_jac = absent if problem.ineq_constraints is None else (
        problem.ineq_constraints, problem.ineq_jacobian)
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
    z = np.clip(z0, lo, hi)

    def eval_f(x):
        v = float(problem.objective(x))
        if not math.isfinite(v):
            raise CallbackFailure("non-finite value from objective")
        return v

    ce = _finite(eq_c(z), "eq_constraints")
    ci = _finite(ineq_c(z), "ineq_constraints")
    me, mi = len(ce), len(ci)
    # the patterns the program declares, dense where it declares none
    hess = problem.hess_pattern or _dense(n, n)
    eq_pat = problem.eq_pattern or _dense(me, n)
    ineq_pat = problem.ineq_pattern or _dense(mi, n)
    for P, m in ((hess, n), (eq_pat, me), (ineq_pat, mi)):
        if P.shape != (m, n):
            raise ValueError(f"a sparsity pattern of shape {P.shape} for "
                             f"a {(m, n)} matrix")

    # The primal gaps (the slacks s, then the bound gaps), their duals (w,
    # then the bound multipliers) and the sums of the merit function are
    # formed once per accepted point.
    mu = 0.1  # initial barrier parameter
    s = np.maximum(-ci, 1e-2)
    gap = np.concatenate([s, sign * (z[ib] - bound)])
    dual = np.concatenate([mu / s,
                           mu / np.maximum(gap[mi:], 1e-12) + BOUND_MULT_INIT])
    terms = _merit_terms(gap, ce, ci, mi, nl)
    y = np.zeros(me)

    f_val = eval_f(z)
    g = _finite(problem.gradient(z), "gradient")
    je = _finite(eq_pat.merge(eq_jac(z)), "eq_jacobian")
    ji = _finite(ineq_pat.merge(ineq_jac(z)), "ineq_jacobian")

    def violation(cev, civ):
        return max(float(np.abs(cev).max(initial=0.0)),
                   float(np.maximum(civ, 0.0).max(initial=0.0)))

    def kkt_errors(gJy, viol, *mu_vals):
        """KKT error of the current iterate at each barrier parameter.

        ``gJy`` is g + Je'y and ``viol`` the constraint violation; the dual
        residual and the complementarity products are formed once."""
        r_d = gJy + ineq_pat.rmatvec(ji, dual[:mi])
        r_d[ilb] -= dual[mi:mi + nl]
        r_d[iub] += dual[mi + nl:]
        base = max(float(np.abs(r_d).max(initial=0.0)), viol)
        comp = gap * dual
        return [max(base, float(np.abs(comp - m).max(initial=0.0)))
                for m in mu_vals]

    kkt = _kkt_system(hess, eq_pat, ineq_pat).for_solve()
    # the steps of the gaps and of their duals, each the slacks' part then
    # the bounds', filled at each factorization
    nb = len(ib)
    dgap, ddual = np.empty(mi + nb), np.empty(mi + nb)
    ds, dgap_b = dgap[:mi], dgap[mi:]
    dw, dzeta = ddual[:mi], ddual[mi:]
    delta_w = 0.0
    status = SolveStatus.ITER_LIMIT
    termination = "iteration_limit"
    factorizations = backtracks = reg_retries = 0
    viols, errs = [], []  # violation and KKT error at each iteration
    it = 0

    for it in range(1, opts.max_iter + 1):
        gJy = g + eq_pat.rmatvec(je, y)
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

        # Hessian of the Lagrangian (approximate); an inf may pass SuperLU
        w = dual[:mi]
        h = _finite(hess.merge(problem.hessian(z, y, w)), "hessian")

        # condensed primal-dual system
        s, gap_b, zeta = gap[:mi], gap[mi:], dual[mi:]
        d_b = zeta / gap_b
        d_bound = _scatter(ib, d_b, n)
        s_safe = np.maximum(s, 1e-12)
        sigma = w / s_safe
        cs = ci + s
        t = sigma * cs + mu / s_safe
        barrier = mu / np.maximum(gap_b, 1e-300)
        rhs_z = -gJy - ineq_pat.rmatvec(ji, t)
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
                sol = kkt.solve(h, je, ji, d_bound + delta_w, sigma, rhs)
            except RuntimeError:  # a singular factor
                sol = None
            phase_s["kkt"] += time.perf_counter() - t_kkt
            if sol is None or not np.isfinite(sol).all():
                delta_w = max(1e-8, 10.0 * (delta_w or 1e-8))
                continue

            dz = sol[:n]
            dy = sol[n:]
            Ji_dz = ineq_pat.matvec(ji, dz)
            np.negative(cs, out=ds)
            ds -= Ji_dz
            np.subtract(t, w, out=dw)
            dw += sigma * Ji_dz
            np.multiply(sign, dz[ib], out=dgap_b)
            np.subtract(barrier, zeta, out=dzeta)
            dzeta -= d_b * dgap_b

            # fraction-to-boundary; a min over the joined vectors is exact
            alpha_pri = _max_step(gap, dgap, tau)
            alpha_dual = _max_step(dual, ddual, tau)

            alpha = alpha_pri
            ls_ok = False
            for _ls in range(25):
                z_t = z + alpha * dz
                gap_t = np.empty(mi + nb)
                np.add(s, alpha * ds, out=gap_t[:mi])
                np.multiply(sign, z_t[ib] - bound, out=gap_t[mi:])
                try:
                    f_t = eval_f(z_t)
                    ce_t = _finite(eq_c(z_t), "eq_constraints")
                    ci_t = _finite(ineq_c(z_t), "ineq_constraints")
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
            g = _finite(problem.gradient(z), "gradient")
            je = _finite(eq_pat.merge(eq_jac(z)), "eq_jacobian")
            ji = _finite(ineq_pat.merge(ineq_jac(z)), "ineq_jacobian")
            delta_w = max(delta_w / 3.0, 0.0) if delta_w > 1e-10 else 0.0
            accepted = True
            break

        if not accepted:
            # could not find an acceptable step even with heavy regularization
            termination = "no_step"
            break

    wall = time.perf_counter() - t_start
    final_violation = violation(ce, ci)
    final_err, = kkt_errors(g + eq_pat.rmatvec(je, y), final_violation, 0.0)
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

    Its layout is the stage order, the pairs of stored entries of Ji that
    form Ji' diag(sigma) Ji, and the pattern of the transposed matrix, whose
    CSR arrays are the matrix's CSC arrays, with the map from the entries
    of H, d, those pairs, Je, Je' and the regularization to the matrix.  It
    depends on the sparsity patterns of H, Je and Ji alone, so
    ``_kkt_system`` builds it once per triple of patterns and every solve
    on them shares it, read-only.  ``for_solve`` gives a solve its own
    value buffer and CSC matrix, which each iteration fills in place with
    the values of H, Je and Ji alone.  The stage order puts each
    multiplier just before the primal variables whose first equality row
    it is (those in none go last), so the planner's matrix is a band of
    half-width 10.  SuperLU's default 10-column panels suit wide
    fronts; on this narrow band one-column panels are faster.  Of the
    0.47 ms a planner system takes (see the module docstring),
    ``spla.splu`` is 0.38 ms, the fill 0.02 ms, and the triangular solves
    with the permutations 0.07 ms.
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
        # where h, d, the pair products, je, je again and the
        # regularization lie in the value buffer, in that order
        ends = np.cumsum([len(H.indices), n, len(a), len(Je.indices),
                          len(Je.indices), me])
        self._blocks = tuple(slice(i, j)
                             for i, j in zip([0, *ends[:-1]], ends))
        # primal variable j sorts after its first equality row's multiplier
        first = np.full(n, me)
        np.minimum.at(first, Je.indices, Je.major)
        self._order = np.argsort(
            np.concatenate([2 * first + 1, 2 * np.arange(me)]), kind="stable")
        pos = np.argsort(self._order)  # of row and column i in that order
        # the CSC arrays of the matrix are the CSR arrays of its transpose
        self._pattern = SparsePattern(pos[cols], pos[rows], (n + me, n + me))
        for arr in (*self._pairs, self._order):
            arr.flags.writeable = False

    def for_solve(self):
        """A copy sharing this layout, with a value buffer and a CSC matrix
        of its own: the transpose of the transposed pattern's CSR matrix,
        sharing its arrays."""
        kkt = copy.copy(self)
        kkt._vals = np.empty(self._blocks[-1].stop)
        kkt._vals[self._blocks[-1]] = -1e-10
        kkt._matrix = self._pattern.matrix(kkt._vals).T
        return kkt

    def solve(self, h, je, ji, d, sigma, rhs):
        """Factorize the system with the stored entries h, je and ji of H,
        Je and Ji, and solve it for ``rhs``."""
        a, b, row = self._pairs
        vals, (h_, d_, pairs, je1, je2, _) = self._vals, self._blocks
        vals[h_] = h
        vals[d_] = d
        np.multiply(ji[a], sigma[row], out=vals[pairs])
        vals[pairs] *= ji[b]
        vals[je1] = je
        vals[je2] = je
        self._matrix.data[:] = self._pattern.merge(vals)
        lu = spla.splu(self._matrix, permc_spec="NATURAL", relax=1,
                       panel_size=1)
        sol = np.empty_like(rhs)
        sol[self._order] = lu.solve(rhs[self._order])
        return sol


@functools.lru_cache(maxsize=16)
def _kkt_system(H, Je, Ji):
    """The KKT layout of one triple of patterns, shared by every solve on
    it.  A pattern hashes by identity, and the cache holds it, so its key
    is never reused by another pattern."""
    return _KktSystem(H, Je, Ji)


def _max_step(x, dx, tau):
    """Largest alpha in (0, 1] keeping x + alpha*dx >= (1 - tau) * x, for
    x > 0.  Only the entries with tau x < -dx hold alpha below 1; their
    ratios round to 1 at most, so no division overflows."""
    hit = tau * x < -dx
    if not hit.any():
        return 1.0
    return float((-tau * x[hit] / dx[hit]).min())


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
