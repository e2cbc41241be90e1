"""Dense strictly convex QP solver: dual active-set method with KKT certification.

Solves

    min  0.5 x^T H x + g^T x
    s.t. A_ineq x >= b_ineq,   A_eq x = b_eq

for small dense problems (n up to ~40, a few dozen rows), the shape of both
the velocity-level safety filter and the torque-level controller QPs.

The iteration is Goldfarb–Idnani style: start from the (equality-
constrained) unconstrained optimum, pick the most violated inequality, and
take the smaller of the full primal step (which makes it active) and the
partial dual step (which drops the blocking working row), keeping all
working-set multipliers nonnegative throughout.  The dual objective is
nondecreasing, so termination is exact for strictly convex problems.
Infeasibility is certified when the incoming row's normal lies in the span
of the working rows with no droppable blocker.  Each step refactorizes one
dense KKT system instead of updating a Cholesky factor; at these sizes a
solve is tens of microseconds, well inside a 2 kHz budget.  All ties break
toward the lowest row index, so results are deterministic, and a
warm-started re-solve of an unchanged problem finishes in one iteration.
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
    """Dense QP data. ``A_ineq x >= b_ineq``; equalities optional."""

    H: np.ndarray
    g: np.ndarray
    A_ineq: np.ndarray | None = None
    b_ineq: np.ndarray | None = None
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None

    def dims(self) -> tuple[int, int, int]:
        n = self.g.shape[0]
        m = 0 if self.A_ineq is None else self.A_ineq.shape[0]
        p = 0 if self.A_eq is None else self.A_eq.shape[0]
        return n, m, p

    def validate(self) -> None:
        n, m, p = self.dims()
        if self.H.shape != (n, n):
            raise QpDimensionError(f"H shape {self.H.shape} vs n={n}")
        # Exact symmetry (every H the controllers build) implies allclose;
        # only an inexactly symmetric H pays for the tolerance test.
        if not (self.H == self.H.T).all() and not np.allclose(self.H, self.H.T, atol=1e-10):
            raise QpDimensionError("H must be symmetric")
        if m and (self.A_ineq.shape != (m, n) or self.b_ineq.shape != (m,)):
            raise QpDimensionError("inequality block shapes inconsistent")
        if p and (self.A_eq.shape != (p, n) or self.b_eq.shape != (p,)):
            raise QpDimensionError("equality block shapes inconsistent")

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
        n, m_all, p = problem.dims()
        H = problem.H
        g = problem.g
        A_eq = problem.A_eq if p else np.zeros((0, n))
        b_eq = problem.b_eq if p else np.zeros(0)

        if m_all:
            keep = _dedup_rows(problem.A_ineq, problem.b_ineq)
            A = problem.A_ineq[keep]
            b = problem.b_ineq[keep]
        else:
            keep = []
            A = np.zeros((0, n))
            b = np.zeros(0)
        m = A.shape[0]

        self._check_strict_convexity(H, A_eq)

        scale_b = 1.0 + (float(np.max(np.abs(b))) if m else 0.0) + (
            float(np.max(np.abs(b_eq))) if p else 0.0
        )
        feas_tol = FEAS_TOL * scale_b
        max_iter = self.max_iter_override or max(10 * (n + m + p), 20)

        work: list[int] = []
        lam: list[float] = []
        if warm_start is not None and m:
            resid = A @ warm_start - b
            row_scale = 1.0 + np.max(np.abs(A), axis=1)
            cand = [i for i in range(m) if abs(resid[i]) <= 1e-7 * row_scale[i] * scale_b]
            work = self._independent_subset(A_eq, A, cand)

        iterations = 0

        def finish(x, status, it):
            return self._finish(problem, keep, x, status, work, lam, it)

        # Initial point: EQP optimum over the seeded working set, with any
        # negative-multiplier rows discarded so the dual invariant holds.
        while True:
            iterations += 1
            x, lam_arr = self._solve_eqp(H, g, A_eq, b_eq, A, b, work)
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
                z, r = self._step_directions(H, A_eq, A, work, A[cand])
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
    def _check_strict_convexity(H: np.ndarray, A_eq: np.ndarray) -> None:
        n = H.shape[0]
        if A_eq.shape[0]:
            _, s, vt = np.linalg.svd(A_eq)
            rank = int(np.sum(s > 1e-12 * (s[0] if s.size else 1.0)))
            z = vt[rank:].T
        elif n and np.isfinite(H).all():
            z = None        # nullspace basis I, and I^T H I == H for a finite H
        else:
            z = np.eye(n)
        if z is not None and z.shape[1] == 0:
            return
        reduced = H if z is None else z.T @ H @ z
        scale = max(1.0, float(np.max(np.abs(H))))
        if np.min(np.linalg.eigvalsh(reduced)) <= 1e-11 * scale:
            raise ValueError(
                "QP is not strictly convex on the equality nullspace; "
                "the minimizer would not be unique"
            )

    @staticmethod
    def _independent_subset(A_eq: np.ndarray, A: np.ndarray, rows: list[int]) -> list[int]:
        picked: list[int] = []
        for i in rows:
            stack = np.vstack([A_eq] + [A[j] for j in picked] + [A[i]])
            sv = np.linalg.svd(stack, compute_uv=False)
            if sv[-1] > 1e-9 * max(1.0, sv[0]):
                picked.append(i)
        return picked

    @staticmethod
    def _solve_eqp(H, g, A_eq, b_eq, A, b, work):
        """Optimum with the working rows held as equalities (one dense KKT solve)."""
        n = H.shape[0]
        if A_eq.shape[0] or work:
            rows = np.vstack([A_eq] + [A[j] for j in work])
            rhs_rows = np.concatenate([b_eq, b[work]])
        else:
            rows = np.zeros((0, n))
            rhs_rows = np.zeros(0)
        k = rows.shape[0]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = rows.T
        kkt[n:, :n] = rows
        rhs = np.concatenate([-g, rhs_rows])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        x = sol[:n]
        lam_work = -sol[n + A_eq.shape[0]:]
        return x, lam_work

    @staticmethod
    def _step_directions(H, A_eq, A, work, a_new):
        """Primal/dual step directions for a unit increase of the incoming multiplier.

        Solves  H z - A_act^T dmu = a_new,  A_act z = 0; returns z and the
        rate r at which working-set multipliers decrease (equality rows never
        block and are excluded from r).
        """
        n = H.shape[0]
        if A_eq.shape[0] or work:
            rows = np.vstack([A_eq] + [A[j] for j in work])
        else:
            rows = np.zeros((0, n))
        k = rows.shape[0]
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = H
        kkt[:n, n:] = rows.T
        kkt[n:, :n] = rows
        rhs = np.concatenate([a_new, np.zeros(k)])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        z = sol[:n]
        r = sol[n + A_eq.shape[0]:]
        return z, r

    def _finish(self, problem, keep, x, status, work, lam, iterations):
        n, m_all, p = problem.dims()
        lam_full = np.zeros(m_all)
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
        n, m, p = problem.dims()
        stat = problem.H @ x + problem.g
        feas = 0.0
        comp = 0.0
        if m:
            stat = stat - problem.A_ineq.T @ lam
            slack = problem.A_ineq @ x - problem.b_ineq
            feas = max(feas, float(np.max(-slack, initial=0.0)))
            comp = float(np.max(np.abs(lam * slack), initial=0.0))
        if p:
            # Equality multipliers reconstructed by projection; they only
            # enter the stationarity residual, not the returned solution.
            aeq = problem.A_eq
            try:
                nu = np.linalg.solve(aeq @ aeq.T, aeq @ stat)
            except np.linalg.LinAlgError:
                nu, *_ = np.linalg.lstsq(aeq.T, stat, rcond=None)
            stat = stat - problem.A_eq.T @ nu
            feas = max(feas, float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0)))
        return max(float(np.max(np.abs(stat), initial=0.0)), feas, comp)


def solve_qp(problem: QpProblem, warm_start: np.ndarray | None = None) -> QpSolution:
    """One-shot convenience wrapper around a fresh ``QpSolver``."""
    return QpSolver().solve(problem, warm_start=warm_start)
