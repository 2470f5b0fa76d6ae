import numpy as np
import pytest
from scipy.optimize import linprog

import mublp.lp as lpmod
from mublp.simplex import (
    _BOUND_RELAX,
    _EPS_COST,
    _EPS_PIVOT,
    _REFACTOR_EVERY,
    _RESIDUAL_TOL,
    _SMALL_PIVOT,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    SimplexResult,
    solve_equality_form,
)


def _standard_form(A, b, c, ub):
    """max c.x  s.t.  A x >= b,  0 <= x <= ub  as  W z = rhs, z >= 0.

    The columns are x, one surplus per row of A and one slack per box
    x <= ub; the surplus and box slacks form the starting basis (b <= 0).
    """
    r, n = A.shape
    W = np.block([[A, -np.eye(r), np.zeros((r, n))],
                  [np.eye(n), np.zeros((n, r)), np.eye(n)]])
    rhs = np.concatenate([b, ub])
    cc = np.concatenate([c, np.zeros(r + n)])
    return W, rhs, cc, np.arange(n, n + r + n)


def _solve_inequality(A, b, c, ub):
    return solve_equality_form(*_standard_form(A, b, c, ub))


def test_toy_problem_with_duals():
    # max x1 + x2  s.t.  x1 + x2 <= 1, x in [0,2]: optimum 1, multiplier 1
    A = np.array([[-1.0, -1.0]])
    res = _solve_inequality(A, np.array([-1.0]), np.array([1.0, 1.0]),
                            np.array([2.0, 2.0]))
    assert res.status == OPTIMAL
    assert abs(res.objective - 1.0) < 1e-9
    assert abs(-res.duals[0] - 1.0) < 1e-9


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(250):
        r = int(rng.integers(1, 9))
        n = int(rng.integers(1, 11))
        A = rng.normal(size=(r, n))
        ub = rng.uniform(0.5, 3.0, size=n)
        c = rng.normal(size=n)
        b = -rng.uniform(0.2, 2.0, size=r)
        res = _solve_inequality(A, b, c, ub)
        ref = linprog(-c, A_ub=-A, b_ub=-b, bounds=list(zip(np.zeros(n), ub)),
                      method="highs")
        assert res.status == OPTIMAL and ref.status == 0
        assert abs(res.objective + ref.fun) < 1e-7 * max(1.0, abs(ref.fun))
        # primal feasibility of the reported point
        x = res.x[:n]
        assert (A @ x - b).min() > -1e-8
        assert x.min() > -1e-10 and (x - ub).max() < 1e-10


def test_matches_scipy_on_degenerate_duplicated_rows():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = int(rng.integers(2, 6))
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(r, n))
        A = np.vstack([A, A[0] + 1e-13 * rng.normal(size=n)])  # near-duplicate
        b = -np.ones(len(A))
        c = np.abs(rng.normal(size=n))
        ub = np.full(n, 2.0)
        res = _solve_inequality(A, b, c, ub)
        ref = linprog(-c, A_ub=-A, b_ub=-b, bounds=[(0, 2)] * n, method="highs")
        assert res.status == OPTIMAL and ref.status == 0
        assert abs(res.objective + ref.fun) < 1e-6 * max(1.0, abs(ref.fun))


def test_unbounded_detection():
    # max x with x >= 0 free above and a vacuous row
    W = np.array([[1.0, -1.0]])
    res = solve_equality_form(
        W, np.array([-1.0]), np.array([1.0, 0.0]), np.array([1]),
    )
    assert res.status == "unbounded"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_slightly_negative_basic_is_not_unbounded():
    # columns (x1, x3, s1, s2):  x1 + s1 = 1,  x1 - x3 + s2 = -1e-8.  The start
    # {s1, s2} has s2 = -1e-8, inside the feasibility check, and the optimum
    # is x1 = 1 (x3 = 1 + 1e-8).  s2 makes Harris' t_limit negative, so no
    # row is admissible when x1 enters.
    W = np.array([[1.0, 0.0, 1.0, 0.0],
                  [1.0, -1.0, 0.0, 1.0]])
    res = solve_equality_form(
        W, np.array([1.0, -1e-8]), np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([2, 3]),
    )
    assert res.status == OPTIMAL
    assert abs(res.objective - 1.0) < 1e-9


def test_iteration_limit():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 8))
    res = _solve_inequality(
        A, -np.ones(6), np.abs(rng.normal(size=8)), np.full(8, 2.0)
    )
    assert res.status == OPTIMAL
    limited = solve_equality_form(
        *_standard_form(A, -np.ones(6), np.abs(rng.normal(size=8)),
                        np.full(8, 2.0)),
        max_iterations=1,
    )
    assert limited.status == ITERATION_LIMIT


def test_rejects_infeasible_start():
    W = np.array([[1.0, -1.0]])
    with pytest.raises(ValueError):
        # b = +1 makes the surplus start negative
        solve_equality_form(
            W, np.array([1.0]), np.array([1.0, 0.0]), np.array([1]),
        )


# ---------------------------------------------------------------------------
# the per-row loop ratio test, kept as the reference for the array version


def loop_solve_equality_form(
    A,
    b,
    c,
    basis,
    *,
    max_iterations: int | None = None,
    bland_after: int | None = None,
) -> SimplexResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    rows, ncols = A.shape
    basis = np.asarray(basis, dtype=np.int64).copy()
    if basis.size != rows:
        raise ValueError("basis must have one column index per row")
    if max_iterations is None:
        max_iterations = 200 * (rows + ncols) + 1000
    if bland_after is None:
        bland_after = 5 * (rows + ncols)

    basic = np.zeros(ncols, dtype=bool)
    basic[basis] = True
    x = np.zeros(ncols)
    binv = None

    def refactor() -> None:
        nonlocal binv
        binv = np.linalg.inv(A[:, basis])
        x[basis] = binv @ b

    refactor()
    if np.any(x[basis] < -1e-7):
        raise ValueError("initial basis is not feasible")

    iterations = 0
    degenerate = 0
    pivots_since_refactor = 0

    def result(status_code: str, y: np.ndarray) -> SimplexResult:
        return SimplexResult(
            status_code, x.copy(), float(c @ x), y,
            iterations, degenerate, basis.copy(),
        )

    while True:
        if iterations >= max_iterations:
            return result(ITERATION_LIMIT, c[basis] @ binv)
        y = c[basis] @ binv
        reduced = c - y @ A
        eligible = ~basic & (reduced > _EPS_COST)
        if not eligible.any():
            # verify against a fresh factorisation before declaring optimality
            residual = float(np.max(np.abs(A @ x - b), initial=0.0))
            if residual > _RESIDUAL_TOL:
                refactor()
                pivots_since_refactor = 0
                iterations += 1
                continue
            return result(OPTIMAL, y)
        bland = degenerate > bland_after
        if bland:
            entering = int(np.flatnonzero(eligible)[0])
        else:
            score = np.where(eligible, np.abs(reduced), -1.0)
            entering = int(np.argmax(score))

        u = binv @ A[:, entering]

        # Harris pass one: tightest step with relaxed bounds
        t_limit = np.inf
        candidates = []  # (row, t_exact, pivot)
        for i in range(rows):
            ui = u[i]
            if ui <= _EPS_PIVOT:
                continue
            xi = x[basis[i]]
            t_limit = min(t_limit, (xi + _BOUND_RELAX) / ui)
            candidates.append((i, max(xi / ui, 0.0), ui))
        if np.isinf(t_limit):
            if pivots_since_refactor > 0:
                # rule out basis-inverse drift before declaring unboundedness
                refactor()
                pivots_since_refactor = 0
                continue
            return result(UNBOUNDED, y)

        # Harris pass two: among admissible rows take the largest pivot
        leave_row = -1
        best_pivot = 0.0
        t_best = np.inf
        for i, t_exact, pivot_mag in candidates:
            if t_exact > t_limit:
                continue
            better = (
                pivot_mag > best_pivot + 1e-12
                if not bland
                else (leave_row < 0 or basis[i] < basis[leave_row])
            )
            tie = abs(pivot_mag - best_pivot) <= 1e-12 and leave_row >= 0 \
                and basis[i] < basis[leave_row]
            if leave_row < 0 or better or (not bland and tie):
                leave_row = i
                best_pivot = pivot_mag
                t_best = t_exact
        if leave_row < 0:
            return result(UNBOUNDED, y)

        iterations += 1
        if t_best <= 1e-12:
            degenerate += 1
        x[entering] += t_best
        x[basis] -= u * t_best
        leaving = basis[leave_row]
        basic[leaving] = False
        x[leaving] = 0.0
        basis[leave_row] = entering
        basic[entering] = True

        pivot = u[leave_row]
        pivots_since_refactor += 1
        if abs(pivot) < _SMALL_PIVOT or pivots_since_refactor >= _REFACTOR_EVERY:
            refactor()
            pivots_since_refactor = 0
        else:
            # product-form update of the basis inverse
            binv[leave_row, :] /= pivot
            others = np.arange(rows) != leave_row
            binv[others, :] -= np.outer(u[others], binv[leave_row, :])


def _assert_same_run(args, kwargs=None):
    kwargs = kwargs or {}
    new = solve_equality_form(*args, **kwargs)
    ref = loop_solve_equality_form(*args, **kwargs)
    assert new.status == ref.status
    assert new.iterations == ref.iterations
    assert new.degenerate_pivots == ref.degenerate_pivots
    assert np.array_equal(new.basis, ref.basis)
    assert np.array_equal(new.x, ref.x)


def test_array_ratio_test_matches_loop_on_random_bounded_lps():
    rng = np.random.default_rng(11)
    for trial in range(200):
        r = int(rng.integers(1, 10))
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(r, n))
        if trial % 3 == 0:
            # repeated rows and rounded entries give ties in both passes
            A = np.round(np.vstack([A, A[: r // 2 + 1]]), 1)
            r = len(A)
        b = -rng.uniform(0.2, 2.0, size=r)
        c = rng.normal(size=n)
        # the boxes x <= ub are rows with their own slacks
        args = _standard_form(A, b, c, rng.uniform(0.5, 3.0, size=n))
        _assert_same_run(args)
        _assert_same_run(args, {"bland_after": 0})


# (5, 7) has no ORT/UB point, so its solve never calls the simplex; (5, 12)
# stands in for it
@pytest.mark.parametrize("d,m", [(4, 6), (5, 12), (6, 8)])
def test_array_ratio_test_matches_loop_on_restricted_masters(monkeypatch, d, m):
    calls = []

    def recording(*args, **kwargs):
        calls.append((tuple(np.array(a, copy=True) for a in args), dict(kwargs)))
        return solve_equality_form(*args, **kwargs)

    monkeypatch.setattr(lpmod, "solve_equality_form", recording)
    prob = lpmod.LpProblem(lpmod.build_orbits(d, m))
    lpmod.solve_lp(prob, add_per_round=2)
    assert len(calls) >= 2
    for args, kwargs in calls:
        _assert_same_run(args, kwargs)
