"""Dense revised simplex for maximisation in standard form.

Solves   max c.x   subject to   A x = b,   x >= 0,
starting from a caller-supplied feasible basis (the LP driver always has a
slack basis available).  Nonbasic variables sit at exactly zero.

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

The solve ends unbounded when no row blocks the entering column (confirmed
on a fresh factorisation), or when no blocking row is admissible in pass
two, which happens only when a basic variable has drifted below
-_BOUND_RELAX.

Tie-breaking is by lowest variable index everywhere, so runs are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
ITERATION_LIMIT = "iteration_limit"

_EPS_COST = 1e-9             # reduced cost needed to enter the basis
_EPS_PIVOT = 1e-10           # ratio-test pivot tolerance
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

    x = np.zeros(ncols)

    def refactor() -> None:
        nonlocal binv
        binv = np.linalg.inv(A[:, basis])
        x[basis] = binv @ b

    binv = None
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
        y = c[basis] @ binv
        if iterations >= max_iterations:
            return result(ITERATION_LIMIT, y)
        reduced = c - y @ A
        eligible = reduced > _EPS_COST
        eligible[basis] = False
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
            entering = int(np.argmax(np.where(eligible, reduced, -1.0)))

        u = binv @ A[:, entering]

        # Harris pass one: tightest step with relaxed bounds, over all rows
        xb = x[basis]
        blocking = u > _EPS_PIVOT
        t_relaxed = np.divide(xb + _BOUND_RELAX, u,
                              out=np.full(rows, np.inf), where=blocking)
        t_exact = np.maximum(
            np.divide(xb, u, out=np.full(rows, np.inf), where=blocking), 0.0
        )
        t_limit = float(t_relaxed.min(initial=np.inf))
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
        best_pivot = 0.0
        t_best = np.inf
        for i in np.flatnonzero(blocking & (t_exact <= t_limit)).tolist():
            pivot_mag = u[i]
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
                t_best = float(t_exact[i])
        if leave_row < 0:
            # no admissible row; a basic below -_BOUND_RELAX makes t_limit
            # negative, so a bounded LP can also end here
            return result(UNBOUNDED, y)

        iterations += 1
        if t_best <= 1e-12:
            degenerate += 1
        x[entering] += t_best
        x[basis] -= u * t_best
        x[basis[leave_row]] = 0.0
        basis[leave_row] = entering

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
