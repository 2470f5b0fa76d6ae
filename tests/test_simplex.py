import numpy as np
import pytest
from scipy.optimize import linprog

import mublp.lp as lpmod
from mublp.config import DEFAULT_PIVOT_EPS
from mublp.simplex import (
    _AT_LOWER,
    _AT_UPPER,
    _BASIC,
    _BOUND_RELAX,
    _REFACTOR_EVERY,
    _RESIDUAL_TOL,
    _SMALL_PIVOT,
    ITERATION_LIMIT,
    OPTIMAL,
    UNBOUNDED,
    SimplexResult,
    solve_equality_form,
)


def _solve_inequality(A, b, c, ub):
    """max c.x  s.t.  A x >= b,  0 <= x <= ub, via the equality-form solver."""
    r, n = A.shape
    W = np.hstack([A, -np.eye(r)])
    lower = np.zeros(n + r)
    upper = np.concatenate([ub, np.full(r, np.inf)])
    cc = np.concatenate([c, np.zeros(r)])
    return solve_equality_form(W, b, cc, lower, upper, np.arange(n, n + r))


def test_toy_problem_with_duals():
    # max x1 + x2  s.t.  x1 + x2 <= 1, x in [0,2]: optimum 1, multiplier 1
    A = np.array([[-1.0, -1.0]])
    res = _solve_inequality(A, np.array([-1.0]), np.array([1.0, 1.0]),
                            np.array([2.0, 2.0]))
    assert res.status == OPTIMAL
    assert abs(res.objective - 1.0) < 1e-9
    assert abs(-res.duals[0] - 1.0) < 1e-9


def test_bound_flip_path():
    # unconstrained by rows; optimum is the upper bounds
    A = np.array([[1.0, 1.0]])
    res = _solve_inequality(A, np.array([-100.0]), np.array([3.0, 2.0]),
                            np.array([1.5, 2.5]))
    assert res.status == OPTIMAL
    assert abs(res.objective - (3 * 1.5 + 2 * 2.5)) < 1e-9


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
    A = np.array([[1.0]])
    r, n = 1, 1
    W = np.hstack([A, -np.eye(r)])
    res = solve_equality_form(
        W, np.array([-1.0]), np.array([1.0, 0.0]),
        np.zeros(2), np.array([np.inf, np.inf]), np.array([1]),
    )
    assert res.status == "unbounded"


def test_iteration_limit():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(6, 8))
    res = _solve_inequality(
        A, -np.ones(6), np.abs(rng.normal(size=8)), np.full(8, 2.0)
    )
    assert res.status == OPTIMAL
    W = np.hstack([A, -np.eye(6)])
    limited = solve_equality_form(
        W, -np.ones(6), np.concatenate([np.abs(rng.normal(size=8)), np.zeros(6)]),
        np.zeros(14), np.concatenate([np.full(8, 2.0), np.full(6, np.inf)]),
        np.arange(8, 14), max_iterations=1,
    )
    assert limited.status == ITERATION_LIMIT


def test_rejects_infeasible_start():
    A = np.array([[1.0]])
    W = np.hstack([A, -np.eye(1)])
    with pytest.raises(ValueError):
        # b = +1 makes the slack start negative
        solve_equality_form(
            W, np.array([1.0]), np.array([1.0, 0.0]),
            np.zeros(2), np.array([2.0, np.inf]), np.array([1]),
        )


# ---------------------------------------------------------------------------
# the per-row loop ratio test, kept as the reference for the array version


def loop_solve_equality_form(
    A,
    b,
    c,
    lower,
    upper,
    basis,
    *,
    eps_cost: float = 1e-9,
    eps_pivot: float = DEFAULT_PIVOT_EPS,
    max_iterations: int | None = None,
    bland_after: int | None = None,
) -> SimplexResult:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rows, ncols = A.shape
    basis = np.asarray(basis, dtype=np.int64).copy()
    if basis.size != rows:
        raise ValueError("basis must have one column index per row")
    if max_iterations is None:
        max_iterations = 200 * (rows + ncols) + 1000
    if bland_after is None:
        bland_after = 5 * (rows + ncols)

    status = np.full(ncols, _AT_LOWER, dtype=np.int8)
    status[basis] = _BASIC
    x = lower.copy()
    binv = np.linalg.inv(A[:, basis])

    def refactor() -> None:
        nonlocal binv
        binv = np.linalg.inv(A[:, basis])
        nonbasic_term = A @ np.where(status == _BASIC, 0.0, x)
        x[basis] = binv @ (b - nonbasic_term)

    refactor()
    if np.any(x[basis] < lower[basis] - 1e-7) or np.any(
        x[basis] > upper[basis] + 1e-7
    ):
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
        can_increase = (status == _AT_LOWER) & (reduced > eps_cost)
        can_decrease = (status == _AT_UPPER) & (reduced < -eps_cost)
        eligible = can_increase | can_decrease
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
        sigma = 1.0 if status[entering] == _AT_LOWER else -1.0

        u = binv @ A[:, entering]
        step = sigma * u
        flip_t = upper[entering] - lower[entering]

        # Harris pass one: tightest step with relaxed bounds
        t_limit = flip_t
        candidates = []  # (row, t_exact, hits_upper, |pivot|)
        for i in range(rows):
            si = step[i]
            bi = basis[i]
            if si > eps_pivot:
                t_relaxed = (x[bi] - lower[bi] + _BOUND_RELAX) / si
                t_exact = max((x[bi] - lower[bi]) / si, 0.0)
                hits_upper = False
            elif si < -eps_pivot:
                if np.isinf(upper[bi]):
                    continue
                t_relaxed = (upper[bi] - x[bi] + _BOUND_RELAX) / (-si)
                t_exact = max((upper[bi] - x[bi]) / (-si), 0.0)
                hits_upper = True
            else:
                continue
            t_limit = min(t_limit, t_relaxed)
            candidates.append((i, t_exact, hits_upper, abs(si)))
        if np.isinf(t_limit):
            if pivots_since_refactor > 0:
                # rule out basis-inverse drift before declaring unboundedness
                refactor()
                pivots_since_refactor = 0
                continue
            return result(UNBOUNDED, y)

        # Harris pass two: among admissible rows take the largest pivot
        leave_row = -1
        leave_to_upper = False
        best_pivot = 0.0
        t_best = flip_t
        for i, t_exact, hits_upper, pivot_mag in candidates:
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
                leave_to_upper = hits_upper
                best_pivot = pivot_mag
                t_best = t_exact
        if leave_row < 0 or flip_t < t_best:
            # bound flip, no basis change
            if np.isinf(flip_t):
                return result(UNBOUNDED, y)
            iterations += 1
            if flip_t <= 1e-12:
                degenerate += 1
            x[entering] += sigma * flip_t
            x[basis] -= step * flip_t
            status[entering] = _AT_UPPER if sigma > 0 else _AT_LOWER
            x[entering] = upper[entering] if sigma > 0 else lower[entering]
            continue

        iterations += 1
        if t_best <= 1e-12:
            degenerate += 1
        x[entering] += sigma * t_best
        x[basis] -= step * t_best
        leaving = basis[leave_row]
        status[leaving] = _AT_UPPER if leave_to_upper else _AT_LOWER
        x[leaving] = upper[leaving] if leave_to_upper else lower[leaving]
        basis[leave_row] = entering
        status[entering] = _BASIC

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
        W = np.hstack([A, -np.eye(r)])
        b = -rng.uniform(0.2, 2.0, size=r)
        c = np.concatenate([rng.normal(size=n), np.zeros(r)])
        upper = np.concatenate([rng.uniform(0.5, 3.0, size=n), np.full(r, np.inf)])
        args = (W, b, c, np.zeros(n + r), upper, np.arange(n, n + r))
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
    prob = lpmod.build_pseudo_mub_lp(d, m, lpmod.build_orbits(d, m))
    assert lpmod.solve_lp(prob, add_per_round=2).status == "optimal"
    assert len(calls) >= 2
    for args, kwargs in calls:
        _assert_same_run(args, kwargs)
