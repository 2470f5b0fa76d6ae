"""Complex Hadamard matrices, mutually unbiased families, and row quotients.

A complex Hadamard matrix has all entries of modulus 1 and mutually
orthogonal rows (hence columns).  A family H'_1..H'_m of such matrices is
mutually unbiased when (1/sqrt(d)) H'_j^* H'_k is again complex Hadamard for
every j != k; together with the implicit identity basis they describe m+1
mutually unbiased bases of C^d.

Matrices are dense complex128 numpy arrays; d <= 64 is the documented
envelope.  All checks are pure functions over immutable inputs and report
the worst measured violation so callers can tighten tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_EPS
from .torus import (
    _CLASS_BY_CODE,
    TorusPoint,
    column_to_point,
    exact_codes,
    float_codes,
    is_ort_ub,
)

_PAIR_BLOCK = 1 << 16


class FamilyPointError(ValueError):
    """A pairwise column difference fell outside ORT/UB."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


@dataclass(frozen=True)
class HadamardCheck:
    ok: bool
    max_modulus_error: float
    max_row_product: float
    max_col_product: float


def is_hadamard(matrix, eps: float = DEFAULT_EPS) -> HadamardCheck:
    """Check unimodular entries and orthogonal rows/columns.

    Row/column inner products are compared against eps*d (they are sums of d
    unimodular terms).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = m.shape[0]
    mod_err = float(np.max(np.abs(np.abs(m) - 1.0)))
    gram_rows = m @ m.conj().T
    gram_cols = m.conj().T @ m
    off = ~np.eye(d, dtype=bool)
    row_worst = float(np.max(np.abs(gram_rows[off]), initial=0.0))
    col_worst = float(np.max(np.abs(gram_cols[off]), initial=0.0))
    ok = mod_err <= eps and row_worst <= eps * d and col_worst <= eps * d
    return HadamardCheck(ok, mod_err, row_worst, col_worst)


def is_unbiased_pair(h1, h2) -> bool:
    """True iff (1/sqrt(d)) h1^* h2 is again a complex Hadamard matrix."""
    a = np.asarray(h1, dtype=complex)
    b = np.asarray(h2, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a.shape[0]
    return is_hadamard(a.conj().T @ b / np.sqrt(d)).ok


def dephase(matrix) -> np.ndarray:
    """Scale columns then rows so the first row and column are all ones.

    The scalars are the first-row / first-column entries themselves, so the
    result is a deterministic canonical form and the map is idempotent.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    m = m / m[0:1, :]
    m = m / m[:, 0:1]
    return m


@dataclass(eq=False)
class MubFamily:
    """Rescaled transition matrices H'_1..H'_m of a MUB family.

    The identity basis H_0 is implicit, so ``len(hadamards) + 1`` bases total.
    ``parameters`` may carry ``root_order``: the least m with all phases in
    (1/m)Z, used to snap associated torus points to exact coordinates.
    """

    d: int
    hadamards: tuple
    construction: str = ""
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        self.hadamards = tuple(np.asarray(h, dtype=complex) for h in self.hadamards)
        for h in self.hadamards:
            if h.shape != (self.d, self.d):
                raise ValueError(f"matrix shape {h.shape} does not match d={self.d}")


@dataclass(frozen=True)
class FamilyCheck:
    ok: bool
    bases: int                  # including the implicit identity
    max_violation: float        # worst scaled deviation over matrices and pairs
    failures: tuple


def _scaled_violation(check: HadamardCheck, d: int) -> float:
    return max(check.max_modulus_error, check.max_row_product / d,
               check.max_col_product / d)


def verify_family(family: MubFamily, eps: float = DEFAULT_EPS) -> FamilyCheck:
    """Verify every matrix is Hadamard and every pair is unbiased."""
    d = family.d
    mats = family.hadamards
    failures = []
    worst = 0.0
    for i, h in enumerate(mats):
        check = is_hadamard(h, eps)
        worst = max(worst, _scaled_violation(check, d))
        if not check.ok:
            failures.append(f"matrix {i} is not Hadamard")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            prod = mats[i].conj().T @ mats[j] / np.sqrt(d)
            check = is_hadamard(prod, eps)
            worst = max(worst, _scaled_violation(check, d))
            if not check.ok:
                failures.append(f"matrices {i} and {j} are not unbiased")
    bases = len(mats) + 1
    if bases > d + 1:
        failures.append(f"{bases} bases exceed the d+1 ceiling")
    return FamilyCheck(not failures, bases, worst, tuple(failures))


def family_to_points(family: MubFamily, eps: float = DEFAULT_EPS) -> list[TorusPoint]:
    """The m*d torus points associated to the family's columns.

    Each column is snapped to an exact point over the family's
    ``root_order`` parameter when it has one and the phases allow it.
    Requires the dephased convention: all first rows are ones and the first
    column of the first matrix is all ones, so the first point is the origin.
    Every pairwise difference must classify ORT or UB; the first offending
    column pair (i, j) in row-major order is reported otherwise.  Pairs are
    classified in blocks of _PAIR_BLOCK: exact pairs by ``exact_codes``, pairs
    with a float point by ``float_codes`` on the windowed differences.
    """
    d = family.d
    root_order = family.parameters.get("root_order")
    points = []
    for h in family.hadamards:
        for j in range(d):
            points.append(column_to_point(h[:, j], root_order, eps))
    if not points or not points[0].is_zero(eps):
        raise FamilyPointError("first column of the first matrix must be all ones",
                               pair=(0, 0))
    # every exact point is over root_order, so an exact pair's
    # difference is the row difference mod that denominator
    n = d - 1
    exact = np.array([p.is_exact for p in points])
    numerators = np.array(
        [p.coords if p.is_exact else (0,) * n for p in points], dtype=np.int64
    )
    coords = np.array([p.as_floats() for p in points], dtype=float)
    for i, j in _pair_blocks(len(points)):
        codes = np.empty(i.size, dtype=np.uint8)
        both = exact[i] & exact[j]
        if both.any():
            digits = (numerators[i[both]] - numerators[j[both]]) % root_order
            codes[both] = exact_codes(digits, d, root_order)
        floating = ~both
        if floating.any():
            x = coords[i[floating]] - coords[j[floating]]
            codes[floating] = float_codes(((x + 0.5) % 1.0) - 0.5, d, eps)
        bad = np.flatnonzero(~is_ort_ub(codes))
        if bad.size:
            k = bad[0]
            pair = (int(i[k]), int(j[k]))
            raise FamilyPointError(
                f"difference of columns {pair[0]} and {pair[1]} classifies "
                f"{_CLASS_BY_CODE[int(codes[k])].value}",
                pair=pair,
            )
    return points


def _pair_blocks(count: int):
    """The pairs i < j of ``range(count)`` in row-major order, as (i, j) arrays.

    Blocks hold _PAIR_BLOCK pairs each (the last may be shorter), so memory
    stays bounded however many points there are.
    """
    rows = np.arange(count, dtype=np.int64)
    row_start = rows * (2 * count - rows - 1) // 2     # pairs before row i
    total = count * (count - 1) // 2
    for lo in range(0, total, _PAIR_BLOCK):
        flat = np.arange(lo, min(lo + _PAIR_BLOCK, total), dtype=np.int64)
        i = np.searchsorted(row_start, flat, side="right") - 1
        yield i, flat - row_start[i] + i + 1


@dataclass(frozen=True)
class RowQuotientCheck:
    ok: bool
    max_violation: float
    worst_pair: tuple


def row_quotient_check(matrix, eps: float = DEFAULT_EPS) -> RowQuotientCheck:
    """Orthogonality of the coordinatewise row quotients of a d x d^2 system.

    For every ordered pair j != k forms r_(j/k) = row_j / row_k and verifies
    the d(d-1) quotient vectors together with the all-ones vector are
    pairwise orthogonal in C^(d^2) (d(d-1)+1 orthogonal vectors in all).
    """
    b = np.asarray(matrix, dtype=complex)
    if b.ndim != 2 or b.shape[1] != b.shape[0] ** 2:
        raise ValueError(f"expected shape (d, d*d), got {b.shape}")
    d = b.shape[0]
    mod_err = float(np.max(np.abs(np.abs(b) - 1.0)))
    if mod_err > eps:
        raise ValueError(f"entries must be unimodular within {eps}: worst {mod_err:.3g}")
    labels = [("ones", "ones")]
    vectors = [np.ones(d * d, dtype=complex)]
    for j in range(d):
        for k in range(d):
            if j != k:
                vectors.append(b[j] / b[k])
                labels.append((j, k))
    v = np.array(vectors)
    gram = v @ v.conj().T
    off = ~np.eye(len(vectors), dtype=bool)
    violations = np.abs(gram) * off
    worst = float(np.max(violations))
    a, c = np.unravel_index(int(np.argmax(violations)), violations.shape)
    return RowQuotientCheck(worst <= eps, worst, (labels[a], labels[c]))


# ---------------------------------------------------------------------------
# matrix and family I/O (17 significant digits; bit-exact round trips)


def matrix_to_json_obj(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices are serialised with this schema")
    entries = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return {"d": int(m.shape[0]), "entries": entries}


def matrix_from_json_obj(obj) -> np.ndarray:
    d = int(obj["d"])
    flat = [complex(re, im) for re, im in obj["entries"]]
    if len(flat) != d * d:
        raise ValueError(f"expected {d * d} entries, got {len(flat)}")
    return np.array(flat, dtype=complex).reshape(d, d)


def family_to_json_obj(family: MubFamily) -> dict:
    return {
        "d": family.d,
        "count": len(family.hadamards),
        "construction": family.construction,
        "parameters": dict(family.parameters),
        "hadamards": [matrix_to_json_obj(h)["entries"] for h in family.hadamards],
    }


def family_from_json_obj(obj) -> MubFamily:
    d = int(obj["d"])
    mats = [
        matrix_from_json_obj({"d": d, "entries": entries})
        for entries in obj["hadamards"]
    ]
    if len(mats) != int(obj["count"]):
        raise ValueError("family count does not match the stored matrices")
    return MubFamily(
        d=d,
        hadamards=tuple(mats),
        construction=obj.get("construction", ""),
        parameters=dict(obj.get("parameters", {})),
    )
