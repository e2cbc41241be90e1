import numpy as np
import pytest

from issf_wbc import qpsolver
from issf_wbc._codegen import cholesky
from issf_wbc.qpsolver import (
    QpDimensionError,
    QpProblem,
    QpSolver,
    QpStatus,
    _dedup_rows,
)

import qp_oracle
from conftest import enumerate_qp


def random_problem(rng, n=None, m=None):
    n = n or int(rng.integers(1, 5))
    m = m if m is not None else int(rng.integers(0, 7))
    factor = rng.normal(size=(n, n))
    H = factor @ factor.T + 0.5 * np.eye(n)
    g = rng.normal(size=n)
    A = rng.normal(size=(m, n)) if m else None
    b = rng.normal(size=m) * 1.5 if m else None
    return QpProblem(H=H, g=g, A_ineq=A, b_ineq=b)


class TestExamples:
    def test_scalar_projection_onto_halfline(self):
        sol = QpSolver().solve(QpProblem(H=np.array([[2.0]]), g=np.zeros(1),
                                 A_ineq=np.array([[1.0]]), b_ineq=np.array([1.0])))
        assert sol.optimal
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_unconstrained_center(self, rng):
        x0 = rng.normal(size=4)
        sol = QpSolver().solve(QpProblem(H=2 * np.eye(4), g=-2 * x0))
        assert sol.optimal and sol.iterations == 1
        np.testing.assert_allclose(sol.x, x0, atol=1e-12)

    def test_matches_enumeration_oracle_200(self, rng):
        solver = QpSolver()
        optimal = infeasible = 0
        for _ in range(200):
            problem = random_problem(rng)
            sol = solver.solve(problem)
            oracle = enumerate_qp(problem)
            if oracle is None:
                infeasible += 1
                assert sol.status is QpStatus.INFEASIBLE
            else:
                optimal += 1
                assert sol.optimal
                assert np.abs(sol.x - oracle[1]).max() < 1e-6
                assert sol.kkt_residual < 1e-6
        assert optimal > 100 and infeasible > 10  # generator exercises both paths


class TestContract:
    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        message = rf"^max_iter: must be >= 1 \(or None\), got {max_iter}$"
        with pytest.raises(ValueError, match=message):
            QpSolver(max_iter=max_iter)

    def test_kkt_certificates(self, rng):
        for _ in range(50):
            problem = random_problem(rng)
            sol = QpSolver().solve(problem)
            if not sol.optimal:
                continue
            n, m = problem.dims()
            H, g, b = qp_oracle.arrays(problem)
            scale_b = 1.0 + (np.abs(b).max() if m else 0.0)
            scale_g = 1.0 + np.abs(g).max()
            stat = H @ sol.x + g
            if m:
                stat = stat - problem.A_ineq.T @ sol.lam
                slack = problem.A_ineq @ sol.x - b
                assert slack.min() > -1e-8 * scale_b
                assert np.abs(sol.lam * slack).max() < 1e-8 * scale_b * scale_g
            assert np.abs(stat).max() < 1e-6 * scale_g

    def test_warm_start_resolve_in_two_iterations(self, rng):
        solver = QpSolver()
        for _ in range(30):
            problem = random_problem(rng, m=int(rng.integers(1, 7)))
            first = solver.solve(problem)
            if not first.optimal:
                continue
            again = solver.solve(problem, warm_start=first.x)
            assert again.iterations <= 2
            assert np.abs(again.x - first.x).max() < 1e-10

    def test_minimal_invasiveness(self, rng):
        # projection-type QP with a feasible cost center returns the center
        for _ in range(20):
            n = int(rng.integers(1, 6))
            x0 = rng.normal(size=n)
            A = rng.normal(size=(4, n))
            b = A @ x0 - rng.uniform(0.1, 1.0, 4)   # strictly feasible center
            sol = QpSolver().solve(QpProblem(H=2 * np.eye(n), g=-2 * x0, A_ineq=A, b_ineq=b))
            assert sol.optimal
            assert np.abs(sol.x - x0).max() < 1e-9

    def test_duplicate_rows_deduplicated(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 1.0, -5.0])
        sol = QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.zeros(2), A_ineq=A, b_ineq=b))
        assert sol.optimal
        np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-10)
        assert 1 not in sol.active_set  # duplicate's slot never activates

    def test_determinism(self, rng):
        problem = random_problem(rng, n=4, m=6)
        a = QpSolver().solve(problem)
        b = QpSolver().solve(problem)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.active_set == b.active_set and a.iterations == b.iterations

    def test_infeasible_reported_not_relaxed(self):
        problem = QpProblem(H=2 * np.eye(1), g=np.zeros(1),
                            A_ineq=np.array([[1.0], [-1.0]]),
                            b_ineq=np.array([1.0, 1.0]))  # x >= 1 and x <= -1
        sol = QpSolver().solve(problem)
        assert sol.status is QpStatus.INFEASIBLE

    def test_rejects_nonconvex(self):
        with pytest.raises(ValueError):
            QpSolver().solve(QpProblem(H=np.diag([1.0, -1.0]), g=np.zeros(2)))

    def test_dimension_errors(self):
        with pytest.raises(QpDimensionError):
            QpSolver().solve(QpProblem(H=np.eye(2), g=np.zeros(3)))
        with pytest.raises(QpDimensionError):
            QpSolver().solve(QpProblem(H=np.array([[1.0, 0.5], [0.0, 1.0]]), g=np.zeros(2)))
        # Misshaped g or b are rejected by their shapes before any entry is read.
        with pytest.raises(QpDimensionError):
            QpSolver().solve(QpProblem(H=np.eye(2), g=np.zeros((2, 1))))
        with pytest.raises(QpDimensionError):
            QpSolver().solve(QpProblem(H=np.eye(2), g=np.zeros(2), A_ineq=np.eye(2),
                                       b_ineq=np.zeros((2, 1))))

    def test_inequality_matrix_without_rhs_rejected(self):
        with pytest.raises(QpDimensionError, match="together"):
            QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.zeros(2),
                                       A_ineq=np.ones((1, 2))))

    def test_inequality_rhs_without_matrix_rejected(self):
        # b alone is not solved as an unconstrained QP with b ignored.
        with pytest.raises(QpDimensionError, match="together"):
            QpSolver().solve(QpProblem(H=2 * np.eye(2), g=np.zeros(2), b_ineq=np.ones(1)))

    def test_non_finite_data_rejected(self):
        A = np.array([[1.0, 0.0]])
        b = np.array([1.0])
        # Non-finite H: see test_convexity_verdict_matches_reference.
        bad = [
            QpProblem(H=2 * np.eye(2), g=np.array([np.nan, 0.0])),
            QpProblem(H=2 * np.eye(2), g=np.zeros(2), A_ineq=np.array([[np.inf, 0.0]]),
                      b_ineq=b),
            QpProblem(H=2 * np.eye(2), g=np.zeros(2), A_ineq=A, b_ineq=np.array([np.nan])),
        ]
        for problem in bad:
            with pytest.raises(QpDimensionError, match="finite"):
                QpSolver().solve(problem)

    def test_warm_start_seeds_rows_by_their_own_tolerance(self):
        # Row 1 (x >= 1) is active at x = 1; row 0 (x <= 1.5) is slack there.
        # Whether row 0 is taken for a tight row must not depend on the loose
        # row 2, however large its |b|: a slack row in the seeded working set
        # has to be dropped again, which costs iterations.
        for far in (1e2, 1e5, 1e8):
            problem = QpProblem(H=2 * np.eye(1), g=np.zeros(1),
                                A_ineq=np.array([[-1.0], [1.0], [-1.0]]),
                                b_ineq=np.array([-1.5, 1.0, -far]))
            sol = QpSolver().solve(problem, warm_start=np.array([1.0]))
            assert sol.optimal and sol.active_set == (1,)
            assert sol.iterations == 1, far

    def test_far_row_does_not_hide_a_violated_row(self):
        # x <= 1.5, x >= 1 and -x >= -1e12: the far row's |b| must not set the
        # tolerance of the others, or x = 0 passes for optimal with x >= 1
        # violated by 1.
        problem = QpProblem(H=2 * np.eye(1), g=np.zeros(1),
                            A_ineq=np.array([[-1.0], [1.0], [-1.0]]),
                            b_ineq=np.array([-1.5, 1.0, -1e12]))
        for solve in (QpSolver().solve, qp_oracle.solve):
            sol = solve(problem)
            assert sol.optimal and sol.active_set == (1,)
            assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
            assert sol.kkt_residual < 1e-12

    def test_warm_start_reseeds_a_row_that_drifted(self):
        # Between two control cycles the active row x >= 1 moves to
        # x >= 1.005.  The previous solution is off by 0.5% of the row's
        # scale; the row is still seeded, however small or large the |b| of
        # the slack row x <= far, and the re-solve takes one iteration.
        for far in (2.0, 1e2, 1e5, 1e8):
            problem = QpProblem(H=2 * np.eye(1), g=np.zeros(1),
                                A_ineq=np.array([[1.0], [-1.0]]),
                                b_ineq=np.array([1.005, -far]))
            sol = QpSolver().solve(problem, warm_start=np.array([1.0]))
            assert sol.optimal and sol.active_set == (0,)
            assert sol.iterations == 1, far

    def test_max_iter_reported(self, rng):
        solver = QpSolver(max_iter=1)
        problem = QpProblem(H=2 * np.eye(2), g=np.array([-2.0, -2.0]),
                            A_ineq=-np.eye(2), b_ineq=np.array([-0.1, -0.1]))
        sol = solver.solve(problem)
        assert sol.status in (QpStatus.MAX_ITER, QpStatus.OPTIMAL)

    def test_max_iter_after_a_warm_start_drop_keeps_each_rows_multiplier(self):
        # Both rows are seeded at x = 0, where their multipliers are (-2, 4):
        # row 0 is dropped, and the budget ends right after the drop.
        problem = QpProblem(H=2 * np.eye(2), g=np.array([-2.0, 4.0]),
                            A_ineq=np.eye(2), b_ineq=np.zeros(2))
        sol = QpSolver(max_iter=1).solve(problem, warm_start=np.zeros(2))
        assert sol.status is QpStatus.MAX_ITER and sol.active_set == (1,)
        np.testing.assert_array_equal(sol.lam, [0.0, 4.0])
        full = QpSolver().solve(problem, warm_start=np.zeros(2))
        assert full.optimal and full.active_set == (1,)
        np.testing.assert_array_equal(full.lam, [0.0, 4.0])


def structured_problem(rng):
    """A random QP built to exercise every branch of the iteration.

    n is 0 to 8 and m is 0 to 32.  Rows have integer entries, so a linear
    dependence among them is exact and an independent working set stays
    well conditioned; zero entries carry random signs.  Rows repeat byte for
    byte, repeat scaled by 2, repeat with their zeros' signs flipped (so
    they differ from the original only in bytes), and combine two earlier
    rows.  A row that is numerically but not bytewise equal to another gets
    its own right-hand side: two such rows with one right-hand side would
    tie in violation, and rounding, not the row index, would break the tie.
    Half of the problems are feasible by construction.
    """
    n = int(rng.integers(0, 9))
    m = int(rng.integers(0, 33))
    f = rng.normal(size=(n, n))
    H = f @ f.T + 0.5 * np.eye(n) if rng.random() < 0.7 else 2.0 * np.eye(n)
    g = rng.normal(size=n)
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    A = np.where((A == 0.0) & (rng.random(A.shape) < 0.5), -0.0, A)
    if rng.random() < 0.5:
        b = rng.normal(size=m) * 1.5
    else:
        b = A @ rng.normal(size=n) - rng.uniform(0.0, 1.0, m)
    for i in range(1, m):
        j, k = rng.integers(0, i, 2)
        kind = rng.integers(0, 7)
        if kind == 1:
            A[i], b[i] = A[j], b[j]
        elif kind == 2:
            c = rng.integers(1, 3, 2) * rng.choice([-1.0, 1.0], 2)
            A[i] = c[0] * A[j] + c[1] * A[k]
        elif kind == 3:
            A[i], b[i] = 2.0 * A[j], 2.0 * b[j]
        elif kind == 4:
            A[i] = np.where(A[j] == 0.0, -A[j], A[j])
    return QpProblem(H=H, g=g, A_ineq=A if m else None, b_ineq=b if m else None)


class TestAgainstOracle:
    """The float solver against the dense numpy iteration in tests/qp_oracle.py."""

    @staticmethod
    def assert_same(got, want):
        assert got.status is want.status
        assert got.active_set == want.active_set
        assert got.iterations == want.iterations
        if want.status is not QpStatus.INFEASIBLE:
            # At an infeasibility verdict x is only where the iteration stopped.
            err = np.abs(got.x - want.x).max(initial=0.0)
            assert err <= 1e-12 * (1.0 + np.abs(want.x).max(initial=0.0))

    def test_structured_problems_match_oracle(self, rng):
        seen = {status: 0 for status in QpStatus}
        warm_iterations = set()
        for _ in range(600):
            problem = structured_problem(rng)
            max_iter = int(rng.integers(1, 4)) if rng.random() < 0.15 else None
            want = qp_oracle.solve(problem, max_iter=max_iter)
            self.assert_same(QpSolver(max_iter=max_iter).solve(problem), want)
            seen[want.status] += 1
            if not want.optimal:
                continue
            nudge = rng.normal(size=want.x.shape) * 10.0 ** rng.integers(-10, 1)
            for start in (want.x, want.x + nudge):
                want_warm = qp_oracle.solve(problem, warm_start=start)
                self.assert_same(QpSolver().solve(problem, warm_start=start), want_warm)
                warm_iterations.add(want_warm.iterations)
        assert min(seen.values()) > 50
        assert 1 in warm_iterations and max(warm_iterations) > 2


# Reference versions of the per-solve checks, as they were written before the
# fast paths; the solver's checks must reach the same verdict on every input.

def dedup_rows_per_row(A, b):
    seen, keep = set(), []
    for i in range(A.shape[0]):
        key = A[i].tobytes() + b[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def strict_convexity_reference(H):
    n = H.shape[0]
    if n == 0:
        return
    z = np.eye(n)
    reduced = z.T @ H @ z
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.min(np.linalg.eigvalsh(reduced)) <= 1e-11 * scale:
        raise ValueError("not strictly convex")


def outcome(fn, *args):
    try:
        with np.errstate(invalid="ignore"):
            fn(*args)
    except Exception as exc:        # the verdict is the exception type
        return type(exc).__name__
    return "accept"


class TestChecksAgainstReference:
    def test_symmetry_verdict_matches_allclose(self, rng):
        specials = [np.nan, np.inf, -np.inf, 0.0, -0.0]
        verdicts = set()
        for _ in range(600):
            n = int(rng.integers(1, 6))
            f = rng.normal(size=(n, n))
            H = f @ f.T + np.eye(n)
            kind = rng.integers(0, 4)
            if kind == 1:       # off by about the tolerance
                H = H + rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-13, -9)
            elif kind >= 2:     # non-finite or signed-zero entries
                for _ in range(int(rng.integers(1, 3))):
                    i, j = rng.integers(0, n, 2)
                    H[i, j] = specials[int(rng.integers(0, len(specials)))]
                    if kind == 3:
                        H[j, i] = H[i, j]
            problem = QpProblem(H=H, g=np.zeros(n))
            with np.errstate(invalid="ignore"):
                expected = bool(np.isfinite(H).all() and np.allclose(H, H.T, atol=1e-10))
            try:
                problem.validate()
                accepted = True
            except QpDimensionError:
                accepted = False
            assert accepted == expected, H
            verdicts.add(accepted)
        assert verdicts == {True, False}

    def test_dedup_matches_per_row_keys(self, rng):
        for _ in range(300):
            n = int(rng.integers(0, 5))
            m = int(rng.integers(1, 9))
            pool = rng.integers(-2, 3, size=(3, n)).astype(float)
            A = pool[rng.integers(0, 3, m)]
            b = rng.integers(-1, 2, m).astype(float)
            # Zero entries flip sign at random: +0.0 and -0.0 rows stay distinct.
            A = np.where((A == 0.0) & (rng.random(A.shape) < 0.5), -0.0, A)
            b = np.where((b == 0.0) & (rng.random(m) < 0.5), -0.0, b)
            if rng.random() < 0.2:
                A = np.asfortranarray(A)
            assert _dedup_rows(A, b) == dedup_rows_per_row(A, b)
        signed = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        assert _dedup_rows(signed, np.zeros(3)) == [0, 1]
        assert _dedup_rows(np.ones((3, 2)), np.array([0.0, -0.0, 0.0])) == [0, 1]

    def test_convexity_verdict_matches_reference(self, rng):
        cases = [
            np.zeros((0, 0)),                                         # n = 0
            np.diag([1.0, -1.0]),                                     # indefinite
            np.diag([1.0, 0.5e-11]),                                  # below the threshold
            np.diag([1.0, 2e-11]),                                    # above the threshold
        ]
        for _ in range(200):
            n = int(rng.integers(1, 6))
            f = rng.normal(size=(n, n))
            eig = rng.choice([-1.0, 0.0, 1e-12, 1.0], size=n, p=[0.1, 0.1, 0.1, 0.7])
            q, _ = np.linalg.qr(f)
            H = q @ np.diag(eig) @ q.T
            cases.append(0.5 * (H + H.T))
        verdicts = set()
        for H in cases:
            rows = H.tolist()
            got = outcome(QpSolver._check_strict_convexity, rows)
            assert got == outcome(strict_convexity_reference, H), H
            assert rows == H.tolist()       # the caller's H is left as it is
            verdicts.add(got)
        assert {"accept", "ValueError"} <= verdicts
        # A non-finite H never reaches the eigenvalues: validation rejects it.
        for value in (np.inf, -np.inf, np.nan):
            for i, j in ((0, 0), (0, 1)):
                for n in (2, 3):
                    H = 2.0 * np.eye(n)
                    H[i, j] = H[j, i] = value
                    problem = QpProblem(H=H, g=np.zeros(n))
                    assert outcome(problem.validate) == "QpDimensionError", H

    def test_empty_problem_solves(self):
        sol = QpSolver().solve(QpProblem(H=np.zeros((0, 0)), g=np.zeros(0)))
        assert sol.optimal and sol.x.shape == (0,)


class TestFloatRows:
    """H, g and b given as float rows or as numpy arrays, and the reuse of
    the convexity verdict and the factor between solves."""

    @staticmethod
    def assert_identical(got, want):
        assert got.x.tobytes() == want.x.tobytes()
        assert got.lam.tobytes() == want.lam.tobytes()
        assert got.active_set == want.active_set
        assert got.iterations == want.iterations
        assert got.status is want.status
        assert repr(got.kkt_residual) == repr(want.kkt_residual)

    def test_rows_and_arrays_solve_byte_identically(self, rng):
        reused = QpSolver()
        for _ in range(300):
            H, g, b = qp_oracle.arrays(structured_problem(rng))
            n, m = g.shape[0], b.shape[0]
            A = rng.integers(-2, 3, size=(m, n)).astype(float) if m else None
            arrays = QpProblem(H=H, g=g, A_ineq=A, b_ineq=b if m else None)
            rows = QpProblem(H=H.tolist(), g=g.tolist(), A_ineq=A,
                             b_ineq=b.tolist() if m else None)
            start = rng.normal(size=n) if rng.random() < 0.5 else None
            want = QpSolver().solve(arrays, warm_start=start)
            self.assert_identical(QpSolver().solve(rows, warm_start=start), want)
            # A solver that verified this H on the last solve reuses its factor.
            for problem in (rows, arrays):
                self.assert_identical(reused.solve(problem, warm_start=start), want)

    def test_verdict_reused_only_for_a_byte_identical_H(self, monkeypatch):
        g = [0.5, -0.5]
        H = [[2.0, 0.0], [0.0, 2.0]]
        signed = [[2.0, -0.0], [-0.0, 2.0]]         # equal values, other bytes
        three = QpProblem(H=2.0 * np.eye(3), g=np.ones(3))
        want, want_signed, want_three = (QpSolver().solve(QpProblem(H=H, g=g)),
                                         QpSolver().solve(QpProblem(H=signed, g=g)),
                                         QpSolver().solve(three))
        factored = []

        class Counting(dict):
            def __missing__(self, n):
                def kernel(*args):
                    factored.append(n)
                    return cholesky[n](*args)
                return kernel

        monkeypatch.setattr(qpsolver, "cholesky", Counting())
        solver = QpSolver()
        self.assert_identical(solver.solve(QpProblem(H=H, g=g)), want)
        assert factored == [2, 2]                   # the verdict and the factor
        for same in (H, [[2.0, 0.0], [0.0, 2.0]], np.array(H)):
            self.assert_identical(solver.solve(QpProblem(H=same, g=g)), want)
        assert factored == [2, 2]
        self.assert_identical(solver.solve(QpProblem(H=signed, g=g)), want_signed)
        assert factored == [2, 2] * 2
        self.assert_identical(solver.solve(three), want_three)
        assert factored == [2, 2] * 2 + [3, 3]
        # A non-convex H after a convex one, given afresh or by changing the
        # verified H in place.
        with pytest.raises(ValueError, match="not strictly convex"):
            solver.solve(QpProblem(H=np.diag([1.0, 1.0, -1.0]), g=np.zeros(3)))
        self.assert_identical(solver.solve(QpProblem(H=H, g=g)), want)
        H[1][1] = -2.0
        with pytest.raises(ValueError, match="not strictly convex"):
            solver.solve(QpProblem(H=H, g=g))

    def test_rows_of_the_wrong_shape_rejected(self):
        bad = [
            QpProblem(H=[2.0, 2.0], g=[0.0, 0.0]),
            QpProblem(H=[[2.0, 0.0], [0.0]], g=[0.0, 0.0]),
            QpProblem(H=[[2.0, 0.0], [0.0, 2.0]], g=[[0.0], [0.0]]),
            QpProblem(H=[[2.0, 0.0], [0.0, 2.0]], g=[0.0, "0"]),
            QpProblem(H=[[2.0, 0.0], [0.0, 2.0]], g=[0.0, 0.0], A_ineq=np.eye(2),
                      b_ineq=[0.0]),
            QpProblem(H=[[2.0, 0.0], [0.0, 2.0]], g=[0.0, 0.0], A_ineq=np.eye(2),
                      b_ineq=[[0.0], [0.0]]),
        ]
        for problem in bad:
            with pytest.raises(QpDimensionError):
                QpSolver().solve(problem)
