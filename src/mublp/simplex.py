"""Dense bounded-variable revised simplex for maximisation.

Solves   max c.x   subject to   A x = b,   lower <= x <= upper,
starting from a caller-supplied feasible basis (the LP driver always has a
slack basis available).

Numerical safeguards:

  * Harris-style two-pass ratio test: the first pass finds the tightest step
    with a small bound-relaxation, the second picks the admissible row with
    the largest pivot magnitude, so a near-tied tiny pivot never poisons
    the basis inverse.
  * The basis inverse is maintained with product-form updates, refactorised
    periodically and after any small pivot.
  * Claimed optima are verified against a fresh factorisation; on residual
    drift the state is repaired and iteration continues.
  * Bland's rule replaces Dantzig pricing after a configurable number of
    degenerate pivots (anti-cycling).

Tie-breaking is by lowest variable index everywhere, so runs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_PIVOT_EPS

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
_REFACTOR_EVERY = 100
_BOUND_RELAX = 1e-9          # Harris pass-one bound relaxation
_SMALL_PIVOT = 1e-7          # refactor after pivoting this small
_RESIDUAL_TOL = 1e-8


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray
    objective: float
    duals: np.ndarray          # y solves y.B = c_B; valid at optimality
    iterations: int
    degenerate_pivots: int
    basis: np.ndarray


def solve_equality_form(
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

        # Harris pass one: tightest step with relaxed bounds, over all rows
        xb, lb, ub = x[basis], lower[basis], upper[basis]
        to_lower = step > eps_pivot
        to_upper = (step < -eps_pivot) & ~np.isinf(ub)
        blocking = to_lower | to_upper
        gap = np.where(to_lower, xb - lb, ub - xb)
        size = np.abs(step)
        t_relaxed = np.divide(gap + _BOUND_RELAX, size,
                              out=np.full(rows, np.inf), where=blocking)
        t_exact = np.maximum(
            np.divide(gap, size, out=np.full(rows, np.inf), where=blocking), 0.0
        )
        t_limit = min(flip_t, float(t_relaxed.min(initial=np.inf)))
        if np.isinf(t_limit):
            if pivots_since_refactor > 0:
                # rule out basis-inverse drift before declaring unboundedness
                refactor()
                pivots_since_refactor = 0
                continue
            return result(UNBOUNDED, y)

        # Harris pass two: among admissible rows, in row order, take the
        # largest pivot (ties to the lowest basis index; Bland: lowest index)
        leave_row = -1
        leave_to_upper = False
        best_pivot = 0.0
        t_best = flip_t
        for i in np.flatnonzero(blocking & (t_exact <= t_limit)).tolist():
            pivot_mag = size[i]
            better = (
                pivot_mag > best_pivot + 1e-12
                if not bland
                else (leave_row < 0 or basis[i] < basis[leave_row])
            )
            tie = abs(pivot_mag - best_pivot) <= 1e-12 and leave_row >= 0 \
                and basis[i] < basis[leave_row]
            if leave_row < 0 or better or (not bland and tie):
                leave_row = i
                leave_to_upper = bool(to_upper[i])
                best_pivot = pivot_mag
                t_best = float(t_exact[i])
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
            pivot_row = binv[leave_row, :].copy()
            binv -= np.outer(u, pivot_row)
            binv[leave_row, :] = pivot_row
