"""Reference QP solver: the dense numpy dual active-set iteration.

The package's ``QpSolver`` runs the same Goldfarb–Idnani iteration on Python
floats with one Cholesky factor of H per solve.  This version solves a fresh
dense KKT system at every step instead, tests warm-start rows for
independence by SVD, and takes the convexity verdict from ``eigvalsh``, so
the tests can require the two to agree exactly on ``status``, ``active_set``
and ``iterations`` and to 1e-12 on ``x``.  Both apply the same tolerances,
the same lowest-index tie-breaks and the same warm-start rule.

Three details differ from the numpy solver the package used to ship, each
so that the reference is at least as accurate as the solver it checks: the
SVD test needs one singular value per row (``svd`` of k rows in n < k
dimensions returns only n), the slope of a step is z^T H z (equal to a . z
and nonnegative under rounding), and each KKT solve takes one step of
iterative refinement.
"""

from __future__ import annotations

from operator import mul

import numpy as np

from issf_wbc.qpsolver import QpDimensionError, QpProblem, QpSolution, QpStatus

# The reference states its tolerances itself, so a change to the solver's
# shows up as a disagreement rather than moving both.
FEAS_TOL = 1e-10
DUAL_TOL = 1e-11
DEP_TOL = 1e-11
SEED_TOL = 1e-2


def arrays(problem: QpProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The problem's H, g and b_ineq (float rows) as arrays; b is empty
    without rows."""
    H = np.array(problem.H, dtype=float)
    b = np.zeros(0) if problem.b_ineq is None else np.array(problem.b_ineq, dtype=float)
    return H.reshape(H.shape if H.size else (0, 0)), np.array(problem.g, dtype=float), b


def validate(problem: QpProblem) -> None:
    n, m = problem.dims()
    H, g, b = arrays(problem)
    if H.shape != (n, n):
        raise QpDimensionError(f"H shape {H.shape} vs n={n}")
    data = (H, g, problem.A_ineq, b) if m else (H, g)
    if not all(np.isfinite(arr).all() for arr in data):
        raise QpDimensionError("QP data must be finite")
    if not np.allclose(H, H.T, atol=1e-10):
        raise QpDimensionError("H must be symmetric")
    if m and (problem.A_ineq.shape != (m, n) or b.shape != (m,)):
        raise QpDimensionError("inequality block shapes inconsistent")


def dedup_rows(A: np.ndarray, b: np.ndarray) -> list[int]:
    """Indices of the first occurrence of each byte-distinct (row, rhs) pair."""
    seen: set[bytes] = set()
    keep: list[int] = []
    for i in range(A.shape[0]):
        key = A[i].tobytes() + b[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def check_strict_convexity(H: np.ndarray) -> None:
    if not H.shape[0]:
        return
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.min(np.linalg.eigvalsh(H)) <= 1e-11 * scale:
        raise ValueError("QP is not strictly convex; the minimizer would not be unique")


def independent_subset(A: np.ndarray, rows: list[int]) -> list[int]:
    picked: list[int] = []
    for i in rows:
        sv = np.linalg.svd(A[picked + [i]], compute_uv=False)
        if len(sv) > len(picked) and sv[-1] > 1e-9 * sv[0]:
            picked.append(i)
    return picked


def kkt_solve(H, A, work, top, bottom):
    """Solve [[H, A_w^T], [A_w, 0]] [x; y] = [top; bottom] with A_w = A[work]."""
    n = H.shape[0]
    rows = A[work]
    k = rows.shape[0]
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = H
    kkt[:n, n:] = rows.T
    kkt[n:, :n] = rows
    rhs = np.concatenate([top, bottom])
    try:
        sol = np.linalg.solve(kkt, rhs)
        sol += np.linalg.solve(kkt, rhs - kkt @ sol)   # one step of refinement
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:n], sol[n:]


def kkt_residual(problem: QpProblem, x: np.ndarray, lam: np.ndarray) -> float:
    H, g, b = arrays(problem)
    stat = H @ x + g
    feas = 0.0
    comp = 0.0
    if problem.dims()[1]:
        stat = stat - problem.A_ineq.T @ lam
        slack = problem.A_ineq @ x - b
        feas = float(np.max(-slack, initial=0.0))
        comp = float(np.max(np.abs(lam * slack), initial=0.0))
    return max(float(np.max(np.abs(stat), initial=0.0)), feas, comp)


def solve(problem: QpProblem, warm_start: np.ndarray | None = None,
          max_iter: int | None = None) -> QpSolution:
    validate(problem)
    n, m_all = problem.dims()
    H, g, b = arrays(problem)
    if m_all:
        keep = dedup_rows(problem.A_ineq, b)
        A = problem.A_ineq[keep]
        b = b[keep]
    else:
        keep = []
        A = np.zeros((0, n))
        b = np.zeros(0)
    m = A.shape[0]
    check_strict_convexity(H)
    norms = np.sqrt(np.einsum("ij,ji->i", A, np.linalg.solve(H, A.T))) if m else np.zeros(0)

    feas_tol = FEAS_TOL * (1.0 + np.abs(b))     # per row, before the relative scale
    max_iter = max_iter or max(10 * (n + m), 20)

    work: list[int] = []
    lam: list[float] = []
    if warm_start is not None and m:
        ax = A @ warm_start
        resid = ax - b
        tol = SEED_TOL * (1.0 + np.abs(b) + np.abs(ax))
        work = independent_subset(A, [i for i in range(m) if abs(resid[i]) <= tol[i]])

    def finish(x, status, iterations):
        lam_full = np.zeros(m_all)
        active: list[int] = []
        if status is not QpStatus.INFEASIBLE:
            for lam_k, local in zip(lam, work):
                lam_full[keep[local]] = max(lam_k, 0.0)
                active.append(keep[local])
        residual = kkt_residual(problem, x, lam_full) if status is QpStatus.OPTIMAL else np.inf
        return QpSolution(x=x, status=status, kkt_residual=residual,
                          active_set=tuple(sorted(active)), iterations=iterations,
                          lam=lam_full)

    # Initial point: EQP optimum over the seeded working set, with any
    # negative-multiplier rows discarded so the dual invariant holds.
    iterations = 0
    while True:
        iterations += 1
        x, neg_lam = kkt_solve(H, A, work, -g, b[work])
        lam_arr = -neg_lam
        lam = list(lam_arr)
        if not work or min(lam) >= -DUAL_TOL:
            break
        pos = int(np.argmin(lam_arr))
        work.pop(pos)
        lam.pop(pos)
        if iterations >= max_iter:
            return finish(x, QpStatus.MAX_ITER, iterations)

    while iterations < max_iter:
        viol = b - A @ x if m else np.zeros(0)
        for i in np.flatnonzero((viol > 0.0) & (viol <= feas_tol)):
            # Within the absolute scale: violated when beyond the row's own,
            # |b_i| + sum_j |a_ij x_j|, summed left to right.
            if viol[i] <= FEAS_TOL * sum(map(abs, map(mul, A[i].tolist(), x.tolist())),
                                         abs(b[i])):
                viol[i] = -np.inf
        viol[viol <= 0.0] = -np.inf
        if work:
            viol[work] = -np.inf
        cand = int(np.argmax(viol)) if m else -1
        if cand < 0 or viol[cand] == -np.inf:
            return finish(x, QpStatus.OPTIMAL, iterations)

        lam_cand = 0.0
        while iterations < max_iter:
            iterations += 1
            z, r = kkt_solve(H, A, work, A[cand], np.zeros(len(work)))
            slope = float(z @ H @ z)   # = A[cand] @ z, and >= 0 under rounding
            gap = float(b[cand] - A[cand] @ x)
            # The rows' own norms |a|_{H^-1} set the scale of dependence.
            t_full = gap / slope if slope > DEP_TOL * norms[cand] ** 2 else np.inf

            t_dual = np.inf
            blocker = -1
            for k, (lam_k, r_k) in enumerate(zip(lam, r)):
                if r_k * norms[work[k]] > DEP_TOL * norms[cand]:
                    t_k = lam_k / r_k
                    if t_k < t_dual - 1e-15:
                        t_dual, blocker = t_k, k

            if not np.isfinite(t_full) and not np.isfinite(t_dual):
                return finish(x, QpStatus.INFEASIBLE, iterations)

            t = min(t_full, t_dual)
            if np.isfinite(t_full):
                x = x + t * z
            lam = [lam_k - t * r_k for lam_k, r_k in zip(lam, r)]
            lam_cand += t

            if t_full <= t_dual:
                work.append(cand)
                lam.append(lam_cand)
                break
            work.pop(blocker)
            lam.pop(blocker)

    return finish(x, QpStatus.MAX_ITER, iterations)
