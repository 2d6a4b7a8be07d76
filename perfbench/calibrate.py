"""Calibration slices that scale timings to a fixed core speed.

The benchmark runs on a few cores of a shared host, whose speed drifts by up
to a third for tens of seconds at a time as other tenants load it.  Averaging
over one run does not remove drifts that long, so each untraced repetition
also times a fixed piece of work, a *slice*, between the program's
operations: after a planner instance, controller tick or plan_cold scene,
once at least ``EVERY_S`` of program time has passed since the last slice,
and once before and once after the timed call.  The slices run outside every
timed span, and their time is taken out of the timed call's wall time.

A slice mixes, in about equal shares of time, the kinds of work the program
spends its time on: numpy arithmetic on short vectors; sparse Jacobians
assembled in interpreted Python from small dense blocks read entry by entry
(``scipy.sparse`` COO to CSR); sparse LU factorization and solve
(``splu``); and scalar ``math`` in a Python loop.  Each kind alone followed
the drifts of one workload well and of another badly; the mix followed all
of them.  Over ten seeds per workload on a shared 2-vCPU Xeon VM, the
distance between the quartiles of the wall time was 0.13-0.19 of its median
raw and 0.05 scaled.

``scale()`` is ``REF_SLICE_S`` over the mean slice time of the repetition; a
timing multiplied by it reads as seconds on a core that runs one slice in
``REF_SLICE_S``.  The slice is the benchmark's own code, so a change to the
program moves the scaled timings by as much as it moves the raw ones.  A
slice uses no random state and leaves the program's state untouched.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# program seconds between two slices
EVERY_S = 0.5
# one slice's time on the reference core: about its median on the shared
# 2-vCPU Xeon VM the bounds in BENCHMARK.json were set on
REF_SLICE_S = 0.045

_VEC_ITERS = 1_500
_JAC_STEPS = 50
_JAC_ITERS = 9
_LU_N = 1_500
_LU_ITERS = 2
_MATH_ITERS = 50_000


def _jacobian(x0, h):
    """Sparse Jacobian of a chain of small linear steps, assembled the way
    the planner's constraint Jacobians are: per step a 4 x 4 block read
    entry by entry into COO triplets."""
    a = np.array([[1.0, 0.0, h, 0.0], [0.0, 1.0, 0.0, h],
                  [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, -h, 1.0]])
    rows, cols, vals = [], [], []
    x = x0
    for j in range(_JAC_STEPS):
        f = a * (1.0 + 0.01 * np.tanh(x))
        x = f @ x
        for i in range(4):
            for k in range(4):
                if f[i, k] != 0.0:
                    rows.append(4 * j + i)
                    cols.append(4 * j + k)
                    vals.append(-f[i, k])
    n = 4 * _JAC_STEPS
    return scipy.sparse.coo_matrix((vals, (rows, cols)),
                                   shape=(n, n)).tocsr()


def _banded(n):
    """A banded, diagonally dominant n x n matrix in CSC form."""
    r = np.arange(n)
    rows = np.concatenate([r, r[1:], r[:-1], r[40:], r[:-40]])
    cols = np.concatenate([r, r[:-1], r[1:], r[:-40], r[40:]])
    vals = np.concatenate([np.full(n, 6.0), np.full(2 * n - 2, -1.0),
                           np.full(2 * n - 80, -0.5)])
    return scipy.sparse.coo_matrix((vals, (rows, cols)),
                                   shape=(n, n)).tocsc()


class Calibrator:
    """Slices between the program's operations, and the scale they give."""

    def __init__(self):
        self.samples = []
        self._matrix = _banded(_LU_N)
        self._rhs = np.linspace(-1.0, 1.0, _LU_N)
        self._last = time.perf_counter()

    def run_slice(self) -> float:
        """Run one slice's work; return a value computed from all of it, so
        none of it is skipped."""
        x = np.linspace(0.0, 1.0, 64)
        for _ in range(_VEC_ITERS):
            x = np.sin(x) * 0.9 + np.cos(x[::-1]) * 0.1
        acc = float(x.sum())
        x0 = np.array([0.1, 0.2, 0.3, 0.4])
        for k in range(_JAC_ITERS):
            acc += float(_jacobian(x0, 0.1 + 0.01 * k).sum())
        for _ in range(_LU_ITERS):
            lu = scipy.sparse.linalg.splu(self._matrix)
            acc += float(lu.solve(self._rhs)[0])
        for i in range(1, _MATH_ITERS):
            acc += math.sqrt(i) * math.exp(-1.0 / i)
        return acc

    def take(self) -> None:
        """Run one slice now."""
        t0 = time.perf_counter()
        self.run_slice()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def after_op(self) -> None:
        """Run a slice if ``EVERY_S`` of program time has passed since the
        last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.take()

    def spent(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        return REF_SLICE_S * len(self.samples) / self.spent()
