"""Dense strictly convex QP solver: dual active-set method with KKT certification.

Solves

    min  0.5 x^T H x + g^T x
    s.t. A_ineq x >= b_ineq

for small dense problems (n up to ~40, a few dozen rows), the shape of both
the velocity-level safety filter and the torque-level controller QPs.

The iteration is Goldfarb and Idnani's (Math. Programming 27, 1983): start
from the unconstrained optimum, pick the most violated inequality, and take
the smaller of the full primal step (which makes it active) and the partial
dual step (which drops the blocking working row), keeping all working-set
multipliers nonnegative throughout.  The dual objective is nondecreasing, so
termination is exact for strictly convex problems.  Infeasibility is
certified when the incoming row's normal lies in the span of the working
rows with no droppable blocker.

H is Cholesky-factored once per solve, H = L L^T, and a row a enters the
arithmetic as v = L^-1 a, computed the first time the row is needed.  The
working rows' vectors are kept orthogonalized, V_W = R Q^T with orthonormal
q_i: R is the Cholesky factor of the k x k Gram matrix A_W H^-1 A_W^T,
obtained without forming that matrix, so its conditioning is not squared.
R gains a row when a row enters W and is rebuilt from the dropped position
on when one leaves.  A step splits the incoming row against the q_i
(O(kn)), solves one k x k triangular system for the multiplier rates and
one triangular system with L for the primal step.  The norm of the split's
residual is the incoming row's pivot in R, and its square is the step's
slope: a row is independent of W when that exceeds DEP_TOL, and warm-start
rows are seeded in index order by the same test.  The arithmetic runs on
Python floats, which at these sizes costs less than numpy's per-call
overhead: a ``QpProblem`` holds H, g and b as float rows, and only A, whose
m x n products with x stay in numpy, is an array.  The Cholesky factor (of
H, and of H - shift I for the convexity verdict) and every triangular solve
with L or R are straight-line kernels generated once per size
(``_codegen``), dispatched on the matrix's size.

All ties break toward the lowest row index, so results are deterministic,
and a warm-started re-solve of an unchanged problem finishes in one
iteration.  Every solve validates its data, checks strict convexity, lets
only the first of a set of byte-identical rows enter the working set, and
certifies an optimal x by its KKT residual over all of the problem's rows.
A solver reuses the convexity verdict and the factor of the last H it
verified for a byte-identical H, such as the velocity filter's 2 I.
"""

from __future__ import annotations

import enum
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import mul

import numpy as np

from ._codegen import NotPositiveDefinite, cholesky, solve_lower, solve_upper

# Row i counts as violated when b_i - a_i . x > FEAS_TOL (1 + |b_i|), a scale
# set by the row alone, so a far-away row cannot hide another's violation.
FEAS_TOL = 1e-10
DUAL_TOL = 1e-11
DEP_TOL = 1e-11
# A warm-start row is seeded when its residual at the warm-start point x is
# within SEED_TOL (1 + |b_i| + |a_i . x|), a scale set by the row alone.
# Seeding is only a first guess at the working set and x does not depend on
# it: a seeded row that is not active costs one iteration to drop and a
# missed active row one to add.  A relative 1e-2 keeps a row that has moved
# a little since x was computed, as an active row does between consecutive
# solves of a slowly changing problem.
SEED_TOL = 1e-2


class QpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    MAX_ITER = "max-iter"


class QpDimensionError(ValueError):
    pass


@dataclass(frozen=True)
class QpProblem:
    """Dense QP data: finite H and g, optional inequalities ``A_ineq x >= b_ineq``.

    H, g and b are float rows and A an array; numpy H, g and b are converted once.
    """

    H: Sequence[Sequence[float]]
    g: list[float]
    A_ineq: np.ndarray | None = None
    b_ineq: list[float] | None = None

    def __post_init__(self) -> None:
        for name in ("H", "g", "b_ineq"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, value.tolist())

    def dims(self) -> tuple[int, int]:
        n = len(self.g)
        m = 0 if self.A_ineq is None else self.A_ineq.shape[0]
        return n, m

    def validate(self) -> tuple[Sequence[Sequence[float]], list[float], list[float]]:
        """Check the data; returns H, g and b (empty without rows)."""
        H, g, A, b = self.H, self.g, self.A_ineq, self.b_ineq
        if (A is None) != (b is None):
            raise QpDimensionError("A_ineq and b_ineq must be given together")
        n, m = self.dims()
        b = [] if b is None else b
        try:        # a TypeError: a row that is not a list, or an entry not a number
            if (len(H) != n or any(len(row) != n for row in H)
                    or m and (A.shape != (m, n) or len(b) != m)):
                raise QpDimensionError(f"shapes inconsistent with g's {n} entries")
            # H, g and b are checked as floats, A (the largest) by numpy.
            finite = all(map(math.isfinite, chain(*H, g, b)))
        except TypeError:
            raise QpDimensionError("H, g and b_ineq must be rows of numbers") from None
        if not finite or (m and not np.isfinite(A).all()):
            raise QpDimensionError("QP data must be finite")
        # Exact symmetry (every H the controllers build) implies allclose;
        # only an inexactly symmetric H pays for the tolerance test.
        if (list(map(tuple, H)) != list(zip(*H))
                and not np.allclose(H, np.transpose(H), atol=1e-10)):
            raise QpDimensionError("H must be symmetric")
        return H, g, b


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


def _dedup_rows(A: np.ndarray, b: Sequence[float]) -> list[int]:
    """Indices of the first occurrence of each distinct (row, rhs) pair."""
    m, n = A.shape
    if len(set(b)) == m:        # right-hand sides unequal in value differ in bytes
        return list(range(m))
    rows = np.empty((m, n + 1))
    rows[:, :n] = A
    rows[:, n] = b
    data, width = rows.tobytes(), rows.itemsize * (n + 1)
    keys = [data[i:i + width] for i in range(0, m * width, width)]
    # Walking the rows backwards leaves each key mapped to its first index.
    first = dict(zip(reversed(keys), range(m - 1, -1, -1)))
    return sorted(first.values())


class _WorkingSet:
    """The working rows in entry order, with a QR factorization of their
    vectors v_j = L^-1 a_j: v_j = sum_i R[j][i] q_i with orthonormal q_i and
    lower-triangular R.  R is the Cholesky factor of the Gram matrix
    A_W H^-1 A_W^T = V V^T, kept without forming V V^T so that its
    conditioning is not squared."""

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.vs: list[list[float]] = []
        self.R: list[list[float]] = []
        self.Q: list[list[float]] = []

    def split(self, v: list[float]) -> tuple[list[float], list[float]]:
        """Modified Gram-Schmidt of ``v`` against the q_i: the coefficients y
        (the off-diagonal part of the R row ``v`` would take) and the residual
        p, whose norm is that row's pivot."""
        y = [0.0] * len(self.Q)
        for _ in range(2):      # a second pass restores orthogonality
            for k, q in enumerate(self.Q):
                c = sum(map(mul, q, v))
                y[k] += c
                v = [vi - c * qi for vi, qi in zip(v, q)]
        return y, v

    def add(self, row: int, v: list[float], y: list[float], p: list[float],
            pivot: float) -> None:
        self.rows.append(row)
        self.vs.append(v)
        self.R.append(y + [pivot])
        self.Q.append([pi / pivot for pi in p])

    def drop(self, pos: int) -> None:
        """Remove the row at ``pos`` and refactor the rows after it."""
        rows, vs = self.rows[pos + 1:], self.vs[pos + 1:]
        for part in (self.rows, self.vs, self.R, self.Q):
            del part[pos:]
        for row, v in zip(rows, vs):
            y, p = self.split(v)
            self.add(row, v, y, p, math.sqrt(sum(map(mul, p, p))))


class QpSolver:
    """Active-set solver instance.

    Holds per-instance workspace (nothing shared between concurrent solves);
    create one per thread.  ``solve`` accepts an optional warm-start point
    whose tight rows seed the working set.
    """

    def __init__(self, max_iter: int | None = None):
        if max_iter is not None and not max_iter >= 1:
            raise ValueError(f"max_iter: must be >= 1 (or None), got {max_iter!r}")
        self.max_iter_override = max_iter
        # The bytes of the last H found strictly convex, and its factor.
        self._H_bytes: bytes | None = None
        self._L: list[list[float]] = []

    def solve(self, problem: QpProblem, warm_start: np.ndarray | None = None) -> QpSolution:
        H, g, b_list = problem.validate()
        n, m_all = problem.dims()
        # Rows keep their indices in the problem; only the first of each set
        # of byte-identical rows can enter the working set.
        A = problem.A_ineq
        keep = _dedup_rows(A, b_list) if m_all else []
        m = len(keep)

        key = struct.pack(f"{n * n}d", *chain(*H))
        if key != self._H_bytes:        # else H is the last H verified, byte for byte
            self._check_strict_convexity(H)
            self._L, self._H_bytes = cholesky[n](H), key
        L = self._L
        lower, upper = solve_lower[n], solve_upper[n]
        max_iter = self.max_iter_override or max(10 * (n + m), 20)

        # Row index -> (a, L^-1 a), filled on first use.
        rows: dict[int, tuple[list[float], list[float]]] = {}

        def row(i: int) -> tuple[list[float], list[float]]:
            if i not in rows:
                a = A[i].tolist()
                rows[i] = (a, lower(L, a))
            return rows[i]

        ws = _WorkingSet()
        work = ws.rows
        if warm_start is not None and m:
            # Row i is seeded when |a_i . x - b_i| is within SEED_TOL of the
            # scale of its terms and it is independent of the rows before it.
            ax_list = (A @ warm_start).tolist()
            for i in keep:
                ax, b_i = ax_list[i], b_list[i]
                if abs(ax - b_i) <= SEED_TOL * (1.0 + abs(b_i) + abs(ax)):
                    v = row(i)[1]
                    y, p = ws.split(v)
                    pivot2 = sum(map(mul, p, p))
                    if pivot2 > DEP_TOL:
                        ws.add(i, v, y, p, math.sqrt(pivot2))

        # Initial point: EQP optimum over the seeded working set, with any
        # negative-multiplier rows discarded so the dual invariant holds.
        # With u = L^-1 g and t = R^-1 b_W + Q^T u: lam = R^-T t and
        # x = L^-T (Q t - u).
        u = lower(L, g)
        iterations = 0
        while True:
            iterations += 1
            y = [-c for c in u]
            lam: list[float] = []
            if work:
                size = len(work)
                t = solve_lower[size](ws.R, [b_list[j] for j in work])
                for k, q in enumerate(ws.Q):
                    t[k] += sum(map(mul, q, u))
                    y = [yi + t[k] * qi for yi, qi in zip(y, q)]
                lam = solve_upper[size](ws.R, t)
            x = upper(L, y)
            if not work or min(lam) >= -DUAL_TOL:
                break
            pos = lam.index(min(lam))
            ws.drop(pos)
            lam.pop(pos)
            if iterations >= max_iter:
                return self._finish(problem, H, g, rows, x, QpStatus.MAX_ITER,
                                    work, lam, iterations)

        status = QpStatus.MAX_ITER
        viol: list[float] = []      # b - A x over every row of the problem
        while iterations < max_iter:
            cand, worst = -1, 0.0
            if m:
                viol = [b_i - ax for b_i, ax in zip(b_list, (A @ x).tolist())]
                for i in keep:
                    v_i = viol[i]
                    if (v_i > worst and i not in work
                            and v_i > FEAS_TOL * (1.0 + abs(b_list[i]))):
                        cand, worst = i, v_i
            if cand < 0:
                status = QpStatus.OPTIMAL
                break

            # Bring row `cand` into the working set (Goldfarb-Idnani steps).
            a_c, v_c = row(cand)
            lam_cand = 0.0
            while iterations < max_iter:
                iterations += 1
                # Multiplier decrease rate r for a unit increase of the
                # incoming multiplier, and the primal step z = L^-T p.  The
                # slope a_c . z equals |p|^2, the square of the incoming row's
                # pivot, which vanishes when a_c lies in the working span.
                y, p = ws.split(v_c)
                r = solve_upper[len(work)](ws.R, y)
                slope = sum(map(mul, p, p))
                gap = b_list[cand] - sum(map(mul, a_c, x))
                t_full = gap / slope if slope > DEP_TOL else math.inf

                t_dual = math.inf
                blocker = -1
                for k, (lam_k, r_k) in enumerate(zip(lam, r)):
                    if r_k > DEP_TOL:
                        t_k = lam_k / r_k
                        if t_k < t_dual - 1e-15:
                            t_dual, blocker = t_k, k

                if t_full == math.inf and t_dual == math.inf:
                    return self._finish(problem, H, g, rows, x, QpStatus.INFEASIBLE,
                                        work, lam, iterations)

                t = min(t_full, t_dual)
                if t_full != math.inf:
                    x = [xi + t * zi for xi, zi in zip(x, upper(L, p))]
                lam = [lam_k - t * r_k for lam_k, r_k in zip(lam, r)]
                lam_cand += t

                if t_full <= t_dual:
                    ws.add(cand, v_c, y, p, math.sqrt(slope))
                    lam.append(lam_cand)
                    break
                ws.drop(blocker)
                lam.pop(blocker)

        return self._finish(problem, H, g, rows, x, status, work, lam, iterations, viol)

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check_strict_convexity(H: Sequence[Sequence[float]]) -> None:
        """Reject the rows H unless their smallest eigenvalue exceeds 1e-11 * max(1, max|H|),
        that is, unless a copy of H minus that multiple of I has a Cholesky factor."""
        rows = [list(r) for r in H]
        if not rows:
            return
        shift = 1e-11 * max(1.0, max(map(abs, chain(*rows))))
        for i, r in enumerate(rows):
            r[i] -= shift
        try:
            cholesky[len(rows)](rows)
        except NotPositiveDefinite:
            raise ValueError(
                "QP is not strictly convex; the minimizer would not be unique"
            ) from None

    @staticmethod
    def _finish(problem, H, g, rows, x, status, work, lam, iterations, viol=()):
        """The solution with the KKT residual of an optimal x: stationarity
        over the rows with a multiplier, feasibility and complementarity over
        every row as given, from ``viol`` = b - A x (the last scan's)."""
        lam_full = [0.0] * problem.dims()[1]
        active: list[int] = []
        if status is not QpStatus.INFEASIBLE:
            lam = [lam_k if lam_k > 0.0 else 0.0 for lam_k in lam]
            active = list(work)
            for i, lam_k in zip(active, lam):
                lam_full[i] = lam_k
        residual = math.inf
        if status is QpStatus.OPTIMAL:
            stat = [gi + sum(map(mul, Hi, x)) for Hi, gi in zip(H, g)]
            for lam_k, i in zip(lam, work):
                stat = [s - lam_k * ai for s, ai in zip(stat, rows[i][0])]
            residual = max(map(abs, stat)) if stat else 0.0
            if viol:
                residual = max(residual, max(viol),
                               *[abs(lam_k * viol[i]) for i, lam_k in zip(active, lam)])
        active.sort()
        return QpSolution(x=np.array(x), status=status, kkt_residual=residual,
                          active_set=tuple(active), iterations=iterations,
                          lam=np.array(lam_full))
