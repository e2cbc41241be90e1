"""The Cholesky loops the package ran before its straight-line kernels.

``cholesky_rows``, ``solve_lower`` and ``solve_upper`` are the row-oriented
(Cholesky-Banachiewicz) factor of the plant's former ``sim._qdd`` and the
QP solver's former triangular solves, as loops over lists of floats.
``issf_wbc._codegen.cholesky``, ``solve_lower`` and ``solve_upper`` unroll
them per size and must give the same bytes, and so must
``cholesky_solve``, which runs all three in one kernel.  ``cholesky_columns`` is the QP
solver's former column-oriented factor, which rounds differently; the
generated factor must agree with it to 1e-12 relative.  ``qdd_fused`` is the
former plant solve, the factor with the forward substitution fused into its
pass.
"""

from __future__ import annotations

import math
from operator import mul


class PivotError(ValueError):
    def __init__(self, index: int):
        super().__init__(f"pivot {index} not positive")
        self.index = index


def cholesky_rows(M: list[list[float]]) -> list[list[float]]:
    """Lower factor L of M = L L^T, row by row; raises PivotError(i) at a
    pivot that is not positive."""
    L: list[list[float]] = []
    for i, Mi in enumerate(M):
        Li: list[float] = []
        for Lj in L:
            Li.append((Mi[len(Li)] - sum(map(mul, Li, Lj))) / Lj[-1])
        d = Mi[i] - sum(map(mul, Li, Li))
        if not d > 0.0:
            raise PivotError(i)
        Li.append(math.sqrt(d))
        L.append(Li)
    return L


def cholesky_columns(M: list[list[float]]) -> list[list[float]] | None:
    """Lower factor L of M = L L^T column by column, or None if a pivot is
    not positive."""
    L = [row[:i + 1] for i, row in enumerate(M)]
    for k, Lk in enumerate(L):
        d = Lk[k]
        if not d > 0.0:
            return None
        Lk[k] = d = math.sqrt(d)
        col = []
        for Li in L[k + 1:]:
            Li[k] = c = Li[k] / d
            col.append(c)
            for j, cj in enumerate(col):
                Li[k + 1 + j] -= c * cj
    return L


def solve_lower(L: list[list[float]], a: list[float]) -> list[float]:
    """y with L y = a for lower-triangular L."""
    y: list[float] = []
    for Li, ai in zip(L, a):
        y.append((ai - sum(map(mul, Li, y))) / Li[len(y)])
    return y


def solve_upper(L: list[list[float]], y: list[float]) -> list[float]:
    """x with L^T x = y for lower-triangular L."""
    x = list(y)
    for i in range(len(x) - 1, -1, -1):
        Li = L[i]
        xi = x[i] = x[i] / Li[i]
        for j in range(i):
            x[j] -= Li[j] * xi
    return x


def qdd_fused(mass: list[list[float]], tau: list[float], bias: list[float]) -> list[float]:
    """M^-1 (tau - h): the factor with L y = tau - h fused into its pass, then
    L^T qdd = y; raises PivotError(i) at a pivot that is not positive."""
    L: list[list[float]] = []
    y: list[float] = []
    for i, (Mi, ti, hi) in enumerate(zip(mass, tau, bias)):
        Li: list[float] = []
        for Lj in L:
            Li.append((Mi[len(Li)] - sum(map(mul, Li, Lj))) / Lj[-1])
        d = Mi[i] - sum(map(mul, Li, Li))
        if not d > 0.0:
            raise PivotError(i)
        d = math.sqrt(d)
        Li.append(d)
        y.append((ti - hi - sum(map(mul, Li, y))) / d)
        L.append(Li)
    return solve_upper(L, y)
