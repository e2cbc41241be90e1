"""Dense strictly convex QP solver: dual active-set method with KKT certification.

Solves

    min  0.5 x^T H x + g^T x
    s.t. A_ineq x >= b_ineq

for small dense problems (n up to ~40, a few dozen rows), the shape of both
the velocity-level safety filter and the torque-level controller QPs.

The iteration is Goldfarb–Idnani style: start from the unconstrained
optimum, pick the most violated inequality, and take the smaller of the full
primal step (which makes it active) and the partial dual step (which drops
the blocking working row), keeping all working-set multipliers nonnegative
throughout.  The dual objective is nondecreasing, so termination is exact
for strictly convex problems.  Infeasibility is certified when the incoming
row's normal lies in the span of the working rows with no droppable
blocker.  Each step refactorizes one dense KKT system instead of updating a
Cholesky factor; at these sizes a solve is tens of microseconds, well inside
a 2 kHz budget.  All ties break toward the lowest row index, so results are
deterministic, and a warm-started re-solve of an unchanged problem finishes
in one iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-10
DUAL_TOL = 1e-11
DEP_TOL = 1e-11


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max-iter"


class QpDimensionError(ValueError):
    pass


@dataclass(frozen=True)
class QpProblem:
    """Dense QP data: finite H and g, optional inequalities ``A_ineq x >= b_ineq``."""

    H: np.ndarray
    g: np.ndarray
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None

    def dims(self) -> tuple[int, int]:
        n = self.g.shape[0]
        m = 0 if self.A_ineq is None else self.A_ineq.shape[0]
        return n, m

    def validate(self) -> None:
        n, m = self.dims()
        if self.H.shape != (n, n):
            raise QpDimensionError(f"H shape {self.H.shape} vs n={n}")
        data = (self.H, self.g, self.A_ineq, self.b_ineq) if m else (self.H, self.g)
        if not all(np.isfinite(arr).all() for arr in data):
            raise QpDimensionError("QP data must be finite")
        # Exact symmetry (every H the controllers build) implies allclose;
        # only an inexactly symmetric H pays for the tolerance test.
        if not (self.H == self.H.T).all() and not np.allclose(self.H, self.H.T, atol=1e-10):
            raise QpDimensionError("H must be symmetric")
        if m and (self.A_ineq.shape != (m, n) or self.b_ineq.shape != (m,)):
            raise QpDimensionError("inequality block shapes inconsistent")

    def objective(self, x: np.ndarray) -> float:
        return 0.5 * float(x @ self.H @ x) + float(self.g @ x)


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    status: QpStatus
    kkt_residual: float
    active_set: tuple[int, ...]
    iterations: int
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def optimal(self) -> bool:
        return self.status is QpStatus.OPTIMAL


def _dedup_rows(A: np.ndarray, b: np.ndarray) -> list[int]:
    """Indices of the first occurrence of each distinct (row, rhs) pair."""
    rows = np.hstack([A, b[:, None]])
    buf = rows.tobytes()
    width = rows.shape[1] * rows.itemsize
    seen: set[bytes] = set()
    keep: list[int] = []
    for i in range(A.shape[0]):
        key = buf[i * width:(i + 1) * width]
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


class QpSolver:
    """Active-set solver instance.

    Holds per-instance workspace (nothing shared between concurrent solves);
    create one per thread.  ``solve`` accepts an optional warm-start point
    whose tight rows seed the working set.
    """

    def __init__(self, max_iter: int | None = None):
        self.max_iter_override = max_iter

    def solve(self, problem: QpProblem, warm_start: np.ndarray | None = None) -> QpSolution:
        problem.validate()
        n, m_all = problem.dims()
        H = problem.H
        g = problem.g

        if m_all:
            keep = _dedup_rows(problem.A_ineq, problem.b_ineq)
            A = problem.A_ineq[keep]
            b = problem.b_ineq[keep]
        else:
            keep = []
            A = np.zeros((0, n))
            b = np.zeros(0)
        m = A.shape[0]

        self._check_strict_convexity(H)

        scale_b = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)
        feas_tol = FEAS_TOL * scale_b
        max_iter = self.max_iter_override or max(10 * (n + m), 20)

        work: list[int] = []
        lam: list[float] = []
        if warm_start is not None and m:
            resid = A @ warm_start - b
            row_scale = 1.0 + np.max(np.abs(A), axis=1)
            cand = [i for i in range(m) if abs(resid[i]) <= 1e-7 * row_scale[i] * scale_b]
            work = self._independent_subset(A, cand)

        iterations = 0

        def finish(x, status, it):
            return self._finish(problem, keep, x, status, work, lam, it)

        # Initial point: EQP optimum over the seeded working set, with any
        # negative-multiplier rows discarded so the dual invariant holds.
        while True:
            iterations += 1
            x, neg_lam = self._kkt_solve(H, A, work, -g, b[work])
            lam_arr = -neg_lam
            lam = list(lam_arr)
            if not work or min(lam) >= -DUAL_TOL:
                break
            drop = int(np.argmin(lam_arr))
            work.pop(drop)
            if iterations >= max_iter:
                return finish(x, QpStatus.MAX_ITER, iterations)

        while iterations < max_iter:
            viol = b - A @ x if m else np.zeros(0)
            if work:
                viol[work] = -np.inf
            cand = int(np.argmax(viol)) if m else -1
            if cand < 0 or viol[cand] <= feas_tol:
                return finish(x, QpStatus.OPTIMAL, iterations)

            # Bring row `cand` into the working set (Goldfarb-Idnani steps).
            lam_cand = 0.0
            while iterations < max_iter:
                iterations += 1
                # Primal step z and multiplier decrease rate r for a unit
                # increase of the incoming multiplier.
                z, r = self._kkt_solve(H, A, work, A[cand], np.zeros(len(work)))
                slope = float(A[cand] @ z)
                gap = float(b[cand] - A[cand] @ x)
                t_full = gap / slope if slope > DEP_TOL else np.inf

                t_dual = np.inf
                blocker = -1
                for k, (lam_k, r_k) in enumerate(zip(lam, r)):
                    if r_k > DEP_TOL:
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

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_strict_convexity(H: np.ndarray) -> None:
        if not H.shape[0]:
            return
        scale = max(1.0, float(np.max(np.abs(H))))
        if np.min(np.linalg.eigvalsh(H)) <= 1e-11 * scale:
            raise ValueError(
                "QP is not strictly convex; the minimizer would not be unique"
            )

    @staticmethod
    def _independent_subset(A: np.ndarray, rows: list[int]) -> list[int]:
        picked: list[int] = []
        for i in rows:
            sv = np.linalg.svd(A[picked + [i]], compute_uv=False)
            if sv[-1] > 1e-9 * max(1.0, sv[0]):
                picked.append(i)
        return picked

    @staticmethod
    def _kkt_solve(H, A, work, top, bottom):
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
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        return sol[:n], sol[n:]

    def _finish(self, problem, keep, x, status, work, lam, iterations):
        lam_full = np.zeros(problem.dims()[1])
        active_orig: list[int] = []
        if status is not QpStatus.INFEASIBLE:
            for lam_k, local in zip(lam, work):
                lam_full[keep[local]] = max(lam_k, 0.0)
                active_orig.append(keep[local])
        residual = self._kkt_residual(problem, x, lam_full) if status is QpStatus.OPTIMAL else np.inf
        return QpSolution(
            x=x,
            status=status,
            kkt_residual=residual,
            active_set=tuple(sorted(active_orig)),
            iterations=iterations,
            lam=lam_full,
        )

    @staticmethod
    def _kkt_residual(problem: QpProblem, x: np.ndarray, lam: np.ndarray) -> float:
        stat = problem.H @ x + problem.g
        feas = 0.0
        comp = 0.0
        if problem.dims()[1]:
            stat = stat - problem.A_ineq.T @ lam
            slack = problem.A_ineq @ x - problem.b_ineq
            feas = float(np.max(-slack, initial=0.0))
            comp = float(np.max(np.abs(lam * slack), initial=0.0))
        return max(float(np.max(np.abs(stat), initial=0.0)), feas, comp)
