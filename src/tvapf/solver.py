"""Smooth NLP solver of the trajectory planner.

The tracking controller does not use it: its small dense program goes to
SciPy's SLSQP.  Every program supplies its own Lagrangian Hessian.

The implementation is a primal-dual interior-point method: inequality
constraints get slacks with a log barrier, box bounds are handled by a direct
barrier, and each iteration factorizes one sparse symmetric KKT system.  All
linear algebra goes through scipy.sparse.  On the 70-step multiple-shooting
planner program (420 variables, 280 equality and 210 inequality rows,
block-banded Jacobians) an iteration takes about 3 ms on a 2-core x86-64
host with BLAS on one thread (3.0-3.2 ms in traced seed-0 runs of the
benchmark's workloads), callback evaluations and line search included; a
fifth of it (19-22 %) is the SuperLU factorization.  The solver is
deterministic: identical problems, options and initial guesses produce
identical iterate sequences.
"""

from __future__ import annotations

import enum
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


class SparsePattern:
    """Fixed sparsity pattern of a matrix, given by COO index arrays.

    ``matrix(vals)`` returns the CSR (or CSC) matrix holding ``vals[k]`` at
    ``(rows[k], cols[k])``.  Duplicate positions are summed in the order
    given, and every position stays stored whatever its value, so callers
    that refresh the values of one pattern never sort or convert indices.
    """

    def __init__(self, rows, cols, shape, format: str = "csr"):
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        if format == "csr":
            major, minor, n_major, n_minor = rows, cols, shape[0], shape[1]
            self._cls = sp.csr_matrix
        else:
            major, minor, n_major, n_minor = cols, rows, shape[1], shape[0]
            self._cls = sp.csc_matrix
        keys, self._slot = np.unique(major * n_minor + minor,
                                     return_inverse=True)
        self._indices = (keys % n_minor).astype(np.int32)
        self._indptr = np.searchsorted(
            keys // n_minor, np.arange(n_major + 1)).astype(np.int32)
        self.shape = tuple(shape)

    def matrix(self, vals):
        data = np.bincount(self._slot, weights=vals,
                           minlength=len(self._indices))
        # the index arrays are copied: a caller may edit its matrix in place
        return self._cls((data, self._indices.copy(), self._indptr.copy()),
                         shape=self.shape)


# the stalled-violation verdict of ``solve``
STALL_WINDOW = 20
STALL_RATIO = 0.1
# IPOPT's bound push kappa_1 and bound fraction kappa_2 (Waechter and
# Biegler, Math. Prog. 106, 2006, section 3.6): ``solve`` starts each variable
# min(kappa_1 max(1, |bound|), kappa_2 (ub - lb)) inside each finite bound
BOUND_PUSH = 1e-2
BOUND_FRAC = 1e-2


def _finite(x, what):
    if not np.all(np.isfinite(x)):
        raise CallbackFailure(f"non-finite value from {what}")
    return x


def _as_csr(M):
    if sp.issparse(M):
        return M.tocsr()
    return sp.csr_matrix(np.atleast_2d(np.asarray(M, dtype=float)))


def _family(constraints, jacobian, n):
    """Callbacks of one constraint family; an absent family has zero rows."""
    if constraints is None:
        return (lambda z: np.zeros(0)), (lambda z: sp.csr_matrix((0, n)))
    return constraints, jacobian


def solve(problem: NlpProblem, opts: SolveOptions | None = None) -> SolveResult:
    """Solve the NLP; see SolveStatus for outcome semantics.

    An absent equality or inequality family enters as a family of zero rows
    (an empty vector with a (0, n) Jacobian), so every program takes one
    path through the iteration.

    OPTIMAL means the max-norm KKT residuals (dual residual and
    complementarity, unscaled) and the constraint violation are below
    tolerance.  If the iteration limit hits first, the best iterate is
    classified FEASIBLE_POINT when it satisfies the constraints, otherwise
    ITER_LIMIT.  INFEASIBLE has two exits, both with the violation above
    max(100 tol, 1e-5): the violation has stalled, i.e. the best violation
    of the last STALL_WINDOW (20) iterations is not STALL_RATIO (10 %) below
    the best one before them; or no step is acceptable even under the
    heaviest regularization.

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

    Each step is a Newton step of the primal-dual system: the KKT matrix
    carries Sigma = W S^-1 exactly, whatever its size, as its right-hand
    side and the multiplier step do.
    """
    opts = opts or SolveOptions()
    t_start = time.perf_counter()

    n = problem.n
    lb = np.full(n, -np.inf) if problem.lb is None else np.asarray(problem.lb, dtype=float)
    ub = np.full(n, np.inf) if problem.ub is None else np.asarray(problem.ub, dtype=float)
    if np.any(ub - lb < 1e-12):
        raise ValueError("degenerate box bounds; use an equality constraint instead")
    eq, eq_jacobian = _family(problem.eq_constraints, problem.eq_jacobian, n)
    ineq, ineq_jacobian = _family(problem.ineq_constraints,
                                  problem.ineq_jacobian, n)
    viol_floor = max(100 * opts.tol, 1e-5)  # INFEASIBLE needs a violation above it

    has_lb = np.isfinite(lb)
    has_ub = np.isfinite(ub)
    # strict interior start for the barrier; the width is inf when one-sided
    width = BOUND_FRAC * (ub - lb)
    lo, hi = lb.copy(), ub.copy()
    lo[has_lb] += np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(lb[has_lb])),
                             width[has_lb])
    hi[has_ub] -= np.minimum(BOUND_PUSH * np.maximum(1.0, np.abs(ub[has_ub])),
                             width[has_ub])
    z = np.clip(np.asarray(problem.z0, dtype=float), lo, hi)

    def eval_f(x):
        return float(_finite(problem.objective(x), "objective"))

    def eval_g(x):
        return _finite(np.asarray(problem.gradient(x), dtype=float).ravel(), "gradient")

    def eval_ce(x):
        return _finite(np.atleast_1d(np.asarray(eq(x), dtype=float)),
                       "equality constraints")

    def eval_ci(x):
        return _finite(np.atleast_1d(np.asarray(ineq(x), dtype=float)),
                       "inequality constraints")

    ce = eval_ce(z)
    ci = eval_ci(z)
    me = len(ce)

    mu = 0.1  # initial barrier parameter
    s = np.maximum(-ci, 1e-2)
    w = mu / s
    y = np.zeros(me)
    zeta_lo = np.where(has_lb, mu / np.maximum(z - lb, 1e-12), 0.0)
    zeta_up = np.where(has_ub, mu / np.maximum(ub - z, 1e-12), 0.0)

    f_val = eval_f(z)
    g = eval_g(z)
    Je = _as_csr(eq_jacobian(z))
    Ji = _as_csr(ineq_jacobian(z))

    def violation(cev, civ):
        return max(float(np.max(np.abs(cev), initial=0.0)),
                   float(np.max(np.maximum(civ, 0.0), initial=0.0)))

    def kkt_errors(gJy, viol, *mu_vals):
        """KKT error of the current iterate at each barrier parameter.

        ``gJy`` is g + Je'y and ``viol`` the constraint violation; the dual
        residual and the complementarity products are formed once."""
        r_d = gJy + Ji.T @ w - zeta_lo + zeta_up
        base = max(float(np.max(np.abs(r_d), initial=0.0)), viol)
        comp = np.concatenate([s * w,
                               (z - lb)[has_lb] * zeta_lo[has_lb],
                               (ub - z)[has_ub] * zeta_up[has_ub]])
        return [max(base, float(np.max(np.abs(comp - m), initial=0.0)))
                for m in mu_vals]

    kkt = _KktSystem(n, me)
    delta_w = 0.0
    status = SolveStatus.ITER_LIMIT
    no_step = False
    history = []  # constraint violation at each iteration
    it = 0

    for it in range(1, opts.max_iter + 1):
        gJy = g + Je.T @ y
        viol = violation(ce, ci)
        err0, err_mu = kkt_errors(gJy, viol, 0.0, mu)
        if err0 < opts.tol:
            status = SolveStatus.OPTIMAL
            break

        # barrier parameter schedule
        if err_mu < 10.0 * mu:
            mu = max(opts.tol / 10.0, min(0.2 * mu, mu ** 1.5))

        # infeasibility verdict: the violation has stalled above tolerance
        history.append(viol)
        if viol > viol_floor and len(history) > STALL_WINDOW \
                and min(history[-STALL_WINDOW:]) > \
                (1.0 - STALL_RATIO) * min(history[:-STALL_WINDOW]):
            status = SolveStatus.INFEASIBLE
            break

        # Hessian of the Lagrangian (approximate)
        H = _as_csr(problem.hessian(z, y, w))

        # condensed primal-dual system
        d_lo = np.zeros(n)
        d_lo[has_lb] = zeta_lo[has_lb] / (z - lb)[has_lb]
        d_up = np.zeros(n)
        d_up[has_ub] = zeta_up[has_ub] / (ub - z)[has_ub]
        d_bound = d_lo + d_up

        s_safe = np.maximum(s, 1e-12)
        sigma = w / s_safe
        rhs_z = -gJy - Ji.T @ (sigma * (ci + s) + mu / s_safe)
        rhs_z = rhs_z + np.where(has_lb, mu / np.maximum(z - lb, 1e-300), 0.0)
        rhs_z = rhs_z - np.where(has_ub, mu / np.maximum(ub - z, 1e-300), 0.0)

        rhs = np.concatenate([rhs_z, -ce])

        accepted = False
        for _ in range(12):
            try:
                sol = kkt.solve(H, Je, Ji, d_bound + delta_w, sigma, rhs)
            except RuntimeError:
                delta_w = max(1e-8, 10.0 * (delta_w or 1e-8))
                continue
            if not np.all(np.isfinite(sol)):
                delta_w = max(1e-8, 10.0 * (delta_w or 1e-8))
                continue

            dz = sol[:n]
            dy = sol[n:]
            Ji_dz = Ji @ dz
            ds = -(ci + s) - Ji_dz
            dw = sigma * (ci + s) + mu / s_safe - w + sigma * Ji_dz
            dzeta_lo = np.where(has_lb,
                                mu / np.maximum(z - lb, 1e-300) - zeta_lo
                                - d_lo * dz, 0.0)
            dzeta_up = np.where(has_ub,
                                mu / np.maximum(ub - z, 1e-300) - zeta_up
                                + d_up * dz, 0.0)

            # fraction-to-boundary
            tau = max(0.99, 1.0 - mu)
            alpha_pri = min(_max_step(s, ds, tau),
                            _max_step((z - lb)[has_lb], dz[has_lb], tau),
                            _max_step((ub - z)[has_ub], -dz[has_ub], tau))
            alpha_dual = min(_max_step(w, dw, tau),
                             _max_step(zeta_lo[has_lb], dzeta_lo[has_lb], tau),
                             _max_step(zeta_up[has_ub], dzeta_up[has_ub], tau))

            # backtracking on a barrier + L1-penalty merit function
            nu_pen = 10.0 + 2.0 * max(float(np.max(np.abs(y), initial=0.0)),
                                      float(np.max(np.abs(w), initial=0.0)))
            phi0 = _merit(f_val, z, s, ce, ci, lb, ub, has_lb, has_ub, mu, nu_pen)
            alpha = alpha_pri
            ls_ok = False
            for _ls in range(25):
                z_t = z + alpha * dz
                s_t = s + alpha * ds
                try:
                    f_t = eval_f(z_t)
                    ce_t = eval_ce(z_t)
                    ci_t = eval_ci(z_t)
                except CallbackFailure:
                    alpha *= 0.5
                    continue
                phi_t = _merit(f_t, z_t, s_t, ce_t, ci_t, lb, ub, has_lb, has_ub, mu, nu_pen)
                if phi_t <= phi0 - 1e-8 * alpha * max(1.0, abs(phi0)) or \
                        phi_t <= phi0 + 1e-12 * max(1.0, abs(phi0)):
                    ls_ok = True
                    break
                alpha *= 0.5
            if not ls_ok:
                delta_w = max(1e-6, 10.0 * (delta_w or 1e-6))
                continue

            z, s = z_t, s_t
            y = y + alpha_dual * dy
            w = np.maximum(w + alpha_dual * dw, 1e-16)
            zeta_lo = np.where(has_lb, np.maximum(zeta_lo + alpha_dual * dzeta_lo, 1e-16), 0.0)
            zeta_up = np.where(has_ub, np.maximum(zeta_up + alpha_dual * dzeta_up, 1e-16), 0.0)
            f_val, ce, ci = f_t, ce_t, ci_t
            g = eval_g(z)
            Je = _as_csr(eq_jacobian(z))
            Ji = _as_csr(ineq_jacobian(z))
            delta_w = max(delta_w / 3.0, 0.0) if delta_w > 1e-10 else 0.0
            accepted = True
            break

        if not accepted:
            # could not find an acceptable step even with heavy regularization
            no_step = True
            break

    wall = time.perf_counter() - t_start
    final_violation = violation(ce, ci)
    final_err, = kkt_errors(g + Je.T @ y, final_violation, 0.0)
    if status is SolveStatus.ITER_LIMIT:
        if final_err < opts.tol:
            status = SolveStatus.OPTIMAL
        elif final_violation < opts.tol:
            status = SolveStatus.FEASIBLE_POINT
        elif no_step and final_violation > viol_floor:
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
        w_ineq=w,
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

    def solve(self, H, Je, Ji, d, sigma, rhs):
        """Factorize the system and solve it for ``rhs``."""
        key = [H.indptr, H.indices, Je.indptr, Je.indices,
               Ji.indptr, Ji.indices]
        if self._key is None or not all(
                np.array_equal(p, q) for p, q in zip(key, self._key)):
            self._build(H, Je, Ji)
            self._key = [a.copy() for a in key]
        a, b, row = self._pairs
        kkt = self._pattern.matrix(np.concatenate([
            H.data, d, Ji.data[a] * sigma[row] * Ji.data[b],
            Je.data, Je.data, np.full(self.me, -1e-10)]))
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
        h_r, e_r, i_r = (np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
                         for M in (H, Je, Ji))
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
    neg = dx < 0
    if not np.any(neg):
        return 1.0
    with np.errstate(divide="ignore", over="ignore"):
        ratio = -tau * x[neg] / dx[neg]
    return float(min(1.0, np.min(ratio)))


def _merit(f, z, s, ce, ci, lb, ub, has_lb, has_ub, mu, nu_pen):
    phi = f
    for gap in (s, (z - lb)[has_lb], (ub - z)[has_ub]):
        if np.any(gap <= 0):
            return np.inf
        phi -= mu * float(np.sum(np.log(gap)))
    phi += nu_pen * float(np.sum(np.abs(ce)))
    phi += nu_pen * float(np.sum(np.abs(ci + s)))
    return phi
