"""Smooth NLP solver of the trajectory planner.

The tracking controller does not use it: its small dense program goes to
SciPy's SLSQP.  Every program supplies its own Lagrangian Hessian.

The implementation is a primal-dual interior-point method: inequality
constraints get slacks with a log barrier, box bounds are handled by a direct
barrier, and each iteration factorizes one sparse symmetric KKT system.  All
linear algebra goes through scipy.sparse.  On the 70-step multiple-shooting
planner program (420 variables, 280 equality and 210 inequality rows,
block-banded Jacobians) an iteration takes about 2 ms on a 2-core x86-64
host with BLAS on one thread (1.4-2.2 ms over three traced seed-0 runs of
each of the benchmark's workloads), callback evaluations and line search
included; 26-31 % of it is the SuperLU factorization and 40-48 % the
program's callbacks, 70-75 % of those in the objective, the first callback
at each trial point and so the one that carries the planner's evaluation of
that point, and in the dynamics Jacobian.  The solver is deterministic: identical problems,
options and initial guesses produce identical iterate sequences.
"""

from __future__ import annotations

import copy
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
    approximation of the Lagrangian Hessian (sparse or dense).  Sparse
    Hessians and Jacobians that keep one sparsity pattern from call to call
    let the solver reuse its KKT layout and fill-reducing order across
    iterations.
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


class SparsePattern:
    """Fixed sparsity pattern of a matrix, given by COO index arrays.

    ``matrix(vals)`` returns the CSR (or CSC) matrix holding ``vals[k]`` at
    ``(rows[k], cols[k])``.  Duplicate positions are summed in the order
    given, and every position stays stored whatever its value, so callers
    that refresh the values of one pattern never sort or convert indices.
    Every matrix of a pattern shares its ``indices`` and ``indptr`` arrays,
    which are read-only: a consumer such as ``solve`` can tell an unchanged
    pattern by identity, and no call copies them.
    """

    def __init__(self, rows, cols, shape, format: str = "csr"):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if format == "csr":
            major, minor, n_major, n_minor = rows, cols, shape[0], shape[1]
            cls = sp.csr_matrix
        else:
            major, minor, n_major, n_minor = cols, rows, shape[1], shape[0]
            cls = sp.csc_matrix
        keys, self._slot = np.unique(major * n_minor + minor,
                                     return_inverse=True)
        self._indices = (keys % n_minor).astype(np.int32)
        self._indptr = np.searchsorted(
            keys // n_minor, np.arange(n_major + 1)).astype(np.int32)
        self._indices.flags.writeable = False
        self._indptr.flags.writeable = False
        self.shape = tuple(shape)
        # each matrix is a shallow copy of this one with data of its own,
        # which skips the checks of scipy's constructor
        self._template = cls((np.zeros(len(keys)), self._indices,
                              self._indptr), shape=self.shape)
        self._template.indices = self._indices  # the constructor keeps a view
        # np.unique sorted the positions and merged duplicates
        self._template.has_canonical_format = True

    def matrix(self, vals):
        M = copy.copy(self._template)
        M.data = np.bincount(self._slot, weights=vals,
                             minlength=len(self._indices))
        return M


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


def _frozen(a):
    """Whether the values of ``a`` are fixed: a read-only array that owns
    its memory, such as a SparsePattern's index arrays."""
    return not a.flags.writeable and a.flags.owndata


def _as_csr(M):
    if sp.issparse(M):
        return M.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))


def _scatter(index, values, n):
    """Length-n vector holding at each i the sum of ``values[k]`` over
    index[k] == i, added in the order given."""
    if not len(index):  # bincount of nothing has an integer dtype
        return np.zeros(n)
    return np.bincount(index, weights=values, minlength=n)


def _rows(M):
    """Row of each stored entry of the CSR matrix M."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))


class _Family:
    """One constraint family: its values, its Jacobian J at the last point
    given to ``jacobian``, and the products J v and J' v.  An absent family
    has zero rows (an empty vector with a (0, n) Jacobian)."""

    def __init__(self, constraints, jacobian, n, what):
        if constraints is None:
            constraints = lambda z: np.zeros(0)  # noqa: E731
            jacobian = lambda z: sp.csr_matrix((0, n))  # noqa: E731
        self._values, self._jacobian = constraints, jacobian
        self._what = f"{what} constraints"
        self._indptr = None

    def values(self, z):
        return _finite(np.atleast_1d(np.asarray(self._values(z), dtype=float)),
                       self._what)

    def jacobian(self, z):
        J = _as_csr(self._jacobian(z))
        # the rows of the stored entries are kept while the row pointer is
        # the same frozen array
        if J.indptr is not self._indptr:
            self.rows = _rows(J)
            self._indptr = J.indptr if _frozen(J.indptr) else None
        self.J = J

    def matvec(self, v):
        """J v; its products, and the order in which they are summed, are
        those of scipy's ``J @ v``, so it is the same to the bit."""
        J = self.J
        return _scatter(self.rows, J.data * v[J.indices], J.shape[0])

    def rmatvec(self, v):
        """J' v, the same to the bit as scipy's ``J.T @ v`` (a CSC product),
        without building the transposed matrix."""
        J = self.J
        return _scatter(J.indices, J.data * v[self.rows], J.shape[1])


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

    n = problem.n
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    if not np.all(ub - lb >= 1e-12 * np.maximum(
            1.0, np.maximum(np.abs(lb), np.abs(ub)))):
        raise ValueError("degenerate box bounds; use an equality constraint instead")
    eq = _Family(problem.eq_constraints, problem.eq_jacobian, n, "equality")
    ineq = _Family(problem.ineq_constraints, problem.ineq_jacobian, n,
                   "inequality")
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

    kkt = _KktSystem(n, me)
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
        H = _as_csr(problem.hessian(z, y, w))

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
            try:
                sol = kkt.solve(H, eq.J, ineq.J, d_bound + delta_w, sigma, rhs)
            except RuntimeError:
                delta_w = max(1e-8, 10.0 * (delta_w or 1e-8))
                continue
            if not np.isfinite(sol).all():
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
    )


class _KktSystem:
    """Condensed primal-dual system of one iteration,

        [[H + diag(d) + Ji' diag(sigma) Ji,  Je'       ],
         [Je,                                -1e-10 * I]],

    assembled in CSC form and factorized by SuperLU.

    The map from the stored entries of H, Je and Ji to the matrix is built
    from their sparsity patterns and rebuilt only when a pattern changes;
    otherwise an iteration refreshes the values alone.  SuperLU's
    fill-reducing column order depends on the pattern alone too: the first
    factorization of a pattern computes it, and later ones apply it to rows
    and columns up front and factorize in natural order.
    """

    def __init__(self, n, me):
        self.n, self.me = n, me
        self._key = None
        self._reg = np.full(me, -1e-10)

    def solve(self, H, Je, Ji, d, sigma, rhs):
        """Factorize the system and solve it for ``rhs``."""
        key = (H.indptr, H.indices, Je.indptr, Je.indices,
               Ji.indptr, Ji.indices)
        # a frozen index array that is the same object has the same values
        if self._key is None or not all(
                p is q or np.array_equal(p, q) for p, q in zip(key, self._key)):
            self._build(H, Je, Ji)
            self._key = [a if _frozen(a) else a.copy() for a in key]
        a, b, row = self._pairs
        kkt = self._pattern.matrix(np.concatenate([
            H.data, d, Ji.data[a] * sigma[row] * Ji.data[b],
            Je.data, Je.data, self._reg]))
        if self._perm is None:
            lu = spla.splu(kkt)
            # perm_c[i] is the position of row and column i from now on
            self._perm = np.argsort(lu.perm_c)
            self._pattern = SparsePattern(lu.perm_c[self._rows],
                                          lu.perm_c[self._cols],
                                          self._pattern.shape, format="csc")
            return lu.solve(rhs)
        lu = spla.splu(kkt, permc_spec="NATURAL")
        sol = np.empty_like(rhs)
        sol[self._perm] = lu.solve(rhs[self._perm])
        return sol

    def _build(self, H, Je, Ji):
        n, me = self.n, self.me
        h_r, e_r, i_r = (_rows(M) for M in (H, Je, Ji))
        # stored entries (a, b) sharing a row of Ji form Ji' diag(sigma) Ji
        lens = np.diff(Ji.indptr)
        reps = lens[i_r]
        a = np.repeat(np.arange(len(i_r)), reps)
        b = (np.repeat(Ji.indptr[i_r], reps) + np.arange(len(a))
             - np.repeat(np.cumsum(reps) - reps, reps))
        self._pairs = (a, b, i_r[a])
        diag = np.arange(n)
        eq = np.arange(n, n + me)
        self._rows = np.concatenate([h_r, diag, Ji.indices[a], e_r + n,
                                     Je.indices, eq])
        self._cols = np.concatenate([H.indices, diag, Ji.indices[b],
                                     Je.indices, e_r + n, eq])
        self._pattern = SparsePattern(self._rows, self._cols,
                                      (n + me, n + me), format="csc")
        self._perm = None


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
