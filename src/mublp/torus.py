"""Points of the (d-1)-torus and their orthogonality/unbiasedness classes.

A dephased column (1, e^(2*pi*i*x_1), ..., e^(2*pi*i*x_(d-1))) of a rescaled
Hadamard matrix is represented by the point (x_1, ..., x_(d-1)).  A point is

  * ORT        if 1 + sum_j e^(2*pi*i*x_j) = 0,
  * UB         if |1 + sum_j e^(2*pi*i*x_j)|^2 = d,
  * ZERO       if it is the origin,
  * FORBIDDEN  otherwise.

Two array kernels decide every class.  ``exact_codes`` classifies rows of
numerators a_j over a denominator m exactly in Z[zeta_m] (the exact path is
authoritative).  A float filter goes first: |1 + sum zeta^(a_j)|^2 computed
from a table of roots is within O(d^3 u) of its exact value (u the unit
roundoff; the formula is ``_filter_error_bound``), so a row farther than
1e-6 from both 0 and d is FORBIDDEN.  The rows near 0 or d (on every grid
checked, exactly the ORT/UB rows; every row for d > 13, where the bound is
too close to 1e-6) are decided by the Galois conjugates of that number:
one ``rfft`` of a row's root-of-unity multiplicity counts gives them all,
and a nonzero element of Z[zeta_m] has a conjugate of modulus >= 1.
``float_codes`` classifies rows of float coordinates in 64-bit floating
point with tolerance ``eps``.  ``classify`` is their one-point front end.
``float_grid_codes``, the floating oracle for the exact grid scan, gives
every windowed grid row its ``float_codes`` class.

Grid enumeration is vectorised.  A point's class only depends on the
multiset of its coordinates, so each of the C(m+d-2, d-1) multisets is
classified once by ``exact_codes`` (``ort_ub_multisets``).  The ORT/UB
listing expands the ORT/UB multisets into their distinct orderings
(``_expand_multisets``) in blocks fixed by (d, m), on a pool of one thread
per CPU the process may run on (``config.resolve_workers``; ``taskset``
limits it).  The results do not depend on the pool, and no m^(d-1) array
is formed.  ``ort_ub_rows`` lists the ORT/UB grid points as lexicographic
digit rows with their codes; ``grid_to_csv`` writes that one listing as
text.  ``exact_grid_codes`` spreads the multiset codes over the whole cube
through small rank tables ("multiset of rank r plus coordinate a"), in one
gather; it stays as the cube oracle.
"""

from __future__ import annotations

import enum
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import (
    BudgetExceededError,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_EPS,
    resolve_workers,
)


class PointClass(enum.Enum):
    ZERO = "zero"
    ORT = "ort"
    UB = "ub"
    FORBIDDEN = "forbidden"


CODE_ZERO, CODE_ORT, CODE_UB, CODE_FORBIDDEN = 0, 1, 2, 3
_CLASS_BY_CODE = {
    CODE_ZERO: PointClass.ZERO,
    CODE_ORT: PointClass.ORT,
    CODE_UB: PointClass.UB,
    CODE_FORBIDDEN: PointClass.FORBIDDEN,
}

_CHUNK = 1 << 18


def is_ort_ub(codes: np.ndarray) -> np.ndarray:
    """Mask of the ORT/UB entries of a uint8 code array, in one temporary.

    ORT and UB are the adjacent codes 1 and 2, so code - 1 is below 2 for them
    alone (ZERO wraps to 255); the comparison overwrites the difference.
    """
    mask = codes - np.uint8(CODE_ORT)
    return np.less(mask, 2, out=mask.view(np.bool_))


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^(d-1), exact (numerators over a common denominator) or float.

    Exact coordinates are numerators reduced mod the ambient denominator m.
    Float coordinates live in the canonical window [-1/2, 1/2).
    """

    denominator: int | None
    coords: tuple

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def is_exact(self) -> bool:
        return self.denominator is not None

    @staticmethod
    def exact(denominator: int, numerators) -> "TorusPoint":
        m = int(denominator)
        if m < 1:
            raise ValueError("denominator must be positive")
        return TorusPoint(m, tuple(int(a) % m for a in numerators))

    @staticmethod
    def from_floats(values) -> "TorusPoint":
        window = tuple(((float(v) + 0.5) % 1.0) - 0.5 for v in values)
        return TorusPoint(None, window)

    def as_floats(self) -> tuple[float, ...]:
        if self.is_exact:
            return tuple(a / self.denominator for a in self.coords)
        return self.coords

    def is_zero(self, eps: float = DEFAULT_EPS) -> bool:
        if self.is_exact:
            return not any(self.coords)
        return all(abs(v) <= eps for v in self.coords)


def classify(point: TorusPoint, d: int, eps: float = DEFAULT_EPS) -> PointClass:
    """Class of ``point`` for dimension ``d`` (point lives on T^(d-1))."""
    if point.dim != d - 1:
        raise ValueError(f"point has dim {point.dim}, expected {d - 1}")
    if point.is_exact:
        row = np.array(point.coords, dtype=np.int64).reshape(1, point.dim)
        code = exact_codes(row, d, point.denominator)[0]
    else:
        row = np.array(point.coords, dtype=float).reshape(1, point.dim)
        code = float_codes(row, d, eps)[0]
    return _CLASS_BY_CODE[int(code)]


def difference(p: TorusPoint, q: TorusPoint) -> TorusPoint:
    """Coordinatewise p - q mod 1, canonicalised.

    Exact points are lifted to the least common denominator; a mixed pair
    falls back to float coordinates.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} != {q.dim}")
    if p.is_exact and q.is_exact:
        m = math.lcm(p.denominator, q.denominator)
        sp = m // p.denominator
        sq = m // q.denominator
        return TorusPoint.exact(
            m, (a * sp - b * sq for a, b in zip(p.coords, q.coords))
        )
    pa = p.as_floats()
    qa = q.as_floats()
    return TorusPoint.from_floats(a - b for a, b in zip(pa, qa))


def float_codes(x: np.ndarray, d: int, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Float class codes of the rows of ``x``: the one floating classifier.

    Rows hold windowed coordinates in [-1/2, 1/2).  The roots of a row are
    summed left to right.  A row within ``eps`` of the origin is ZERO; then
    ORT takes precedence over UB.
    """
    return _root_sum_codes(np.exp(2j * np.pi * x), np.abs(x) <= eps, d, eps)


def _root_sum_codes(
    roots: np.ndarray, near_zero: np.ndarray, d: int, eps: float
) -> np.ndarray:
    """``float_codes`` from each coordinate's root e^(2*pi*i*x) and whether
    the coordinate is within ``eps`` of 0."""
    total = np.zeros(len(roots), dtype=complex)
    for column in roots.T:
        total = total + column
    v = np.abs(1.0 + total) ** 2
    codes = np.full(len(roots), CODE_FORBIDDEN, dtype=np.uint8)
    codes[np.abs(v - d) <= eps] = CODE_UB
    codes[np.abs(v) <= eps] = CODE_ORT
    codes[np.all(near_zero, axis=1)] = CODE_ZERO
    return codes


def column_to_point(
    column,
    snap_denominator: int | None = None,
    eps: float = DEFAULT_EPS,
) -> TorusPoint:
    """Point of T^(d-1) associated to a dephased unimodular column.

    The column must have first coordinate 1 (within ``eps``) and unimodular
    entries.  When ``snap_denominator`` m is given and every phase is within
    ``eps`` of a multiple of 1/m, the result is exact over m; otherwise it is
    a float point.
    """
    col = np.asarray(column, dtype=complex)
    if col.ndim != 1 or col.size < 1:
        raise ValueError("column must be a nonempty vector")
    moduli = np.abs(col)
    worst = float(np.max(np.abs(moduli - 1.0)))
    if worst > eps:
        raise ValueError(f"entry modulus deviates from 1 by {worst:.3g}")
    if abs(col[0] - 1.0) > eps:
        raise ValueError("column is not dephased (first coordinate must be 1)")
    rho = np.angle(col[1:]) / (2.0 * np.pi)
    if snap_denominator is not None:
        m = int(snap_denominator)
        scaled = rho * m
        nearest = np.round(scaled)
        if np.max(np.abs(scaled - nearest), initial=0.0) <= eps * m:
            return TorusPoint.exact(m, nearest.astype(int))
    return TorusPoint.from_floats(rho)


# ---------------------------------------------------------------------------
# vectorised grid classification


def _check_budget(d: int, m: int, budget: int) -> int:
    total = m ** (d - 1)
    if total > budget:
        raise BudgetExceededError(
            f"grid of {total} points exceeds enumeration budget {budget}"
        )
    return total


def _encode_digits(rows: np.ndarray, m: int) -> np.ndarray:
    """Big-endian base-m code of each digit row; ``_decode_digits`` inverts it.

    Codes order like the rows, so a grid point's code is its linear index.
    """
    return rows @ m ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)


def _decode_digits(indices: np.ndarray, m: int, n: int) -> np.ndarray:
    """Big-endian base-m digits; linear index order is lexicographic order."""
    digits = np.empty((indices.size, n), dtype=np.int64)
    rest = indices
    for j in range(n - 1, -1, -1):
        rest, digits[:, j] = np.divmod(rest, m)
    return digits


# A row whose float |1 + sum zeta^(a_j)|^2 is farther than this from 0 and
# from d is FORBIDDEN; the rest are decided exactly.
_FILTER_DELTA = 1e-6


def _filter_error_bound(d: int) -> float:
    """Bound on |v - |S|^2| for the float v of ``exact_codes``' filter.

    With u the unit roundoff, each table root is within 16u of zeta^t: its
    angle 2*pi*t/m, t taken in [-m/2, m/2), carries three roundings (at most
    3*pi*u), and cos and sin at most 4 ulps each.  Summing 1 and the d-1
    roots left to right adds u * |partial sum| <= u * (k+1) at step k, so
    the sum is off by e = 16u*(d-1) + u*d*(d+1)/2.  As |S| <= d, squaring
    gives

        |v - |S|^2| <= e*(2d + e) + 3u*(d + e)**2,

    which is O(d**3 * u): about 7e-13 at d = 12.
    """
    u = np.finfo(float).eps / 2
    e = 16 * u * (d - 1) + u * d * (d + 1) / 2
    return e * (2 * d + e) + 3 * u * (d + e) ** 2


def _confirm_error_bound(d: int, m: int) -> float:
    """Bound on ||chat(k)|^2 - sigma_k(|S|^2)| for ``_confirm_codes``' rfft.

    The counts sum to d, so |chat(k)| <= d and ||chat||_2 <= sqrt(m) * d.
    The FFT's norm-wise relative error is at most the sum of its passes'
    (Higham, "Accuracy and Stability of Numerical Algorithms", Thm 24.2):
    L = ceil(log2(4m)) + 2 small-radix passes within 8u each, and passes
    of prime radix p, direct sums within (p + 2)u, whose radices multiply
    to at most m.  Bluestein's algorithm, for some lengths with a large
    prime factor, runs two transforms of length n2 < 4m around chirp
    products, scaling the error by at most 3*n2/sqrt(m) < 12*sqrt(m).  So
    |chat(k)| is off by at most e = 12*m*d*(10L + m)*u, and |chat(k)|^2,
    as in ``_filter_error_bound``, by e*(2d + e) + 3u*(d + e)**2: about
    2e-7 at (d, m) = (2, 4472), the largest thin grid the default budget
    allows, and 1e-7 at (61, 61).  The decision is exact below 1/2.
    """
    u = np.finfo(float).eps / 2
    e = 12 * m * d * (10 * (math.ceil(math.log2(4 * m)) + 2) + m) * u
    return e * (2 * d + e) + 3 * u * (d + e) ** 2


def _confirm_codes(digits: np.ndarray, d: int, m: int) -> np.ndarray:
    """Exact class codes (ORT, UB or FORBIDDEN) of digit rows over m.

    alpha = |S|^2 - c, S = 1 + sum zeta^(a_j) and c = 0 (ORT) or d (UB),
    lies in Z[zeta_m].  Its norm, the product of its conjugates sigma_k
    over the units k of Z/m, is an integer, so alpha != 0 has a conjugate
    of modulus at least 1.  sigma_k(|S|^2) = |chat(k)|^2, chat the DFT of
    the row's multiplicity counts (the leading 1 included), and it is real,
    so the units k <= m/2 of one ``rfft`` give every conjugate, each within
    ``_confirm_error_bound(d, m)`` < 1/2.  So a row is ORT iff all are below
    1/2, and UB iff all are within 1/2 of d.
    """
    length = len(digits)
    cells = (np.arange(length) * m)[:, None] + digits
    counts = np.bincount(cells.ravel(), minlength=length * m).reshape(length, m)
    counts[:, 0] += 1  # the leading 1 of the column
    units = np.gcd(np.arange(m // 2 + 1), m) == 1
    spectrum = np.fft.rfft(counts, axis=1)[:, units]
    power = spectrum.real ** 2 + spectrum.imag ** 2
    codes = np.full(length, CODE_FORBIDDEN, dtype=np.uint8)
    codes[(power < 0.5).all(axis=1)] = CODE_ORT
    codes[(np.abs(power - d) < 0.5).all(axis=1)] = CODE_UB
    return codes


def exact_codes(digits: np.ndarray, d: int, m: int) -> np.ndarray:
    """Exact class codes of digit rows over m: the one exact classifier.

    A row a (entries in [0, m)) is the point (a_1/m, ..., a_n/m).  A float
    filter first evaluates v = |1 + sum zeta^(a_j)|^2 from a table of roots:
    a row with v farther than _FILTER_DELTA from both 0 and d is FORBIDDEN,
    since v is within ``_filter_error_bound(d)`` of the exact value.  The
    filter runs only where 10^6 times that bound is at most _FILTER_DELTA
    (d <= 13); otherwise every row is decided exactly.  The remaining rows
    are decided in Z[zeta_m] by ``_confirm_codes``, in blocks of about
    _CHUNK count cells.  All-zero rows are ZERO.
    """
    codes = np.full(len(digits), CODE_FORBIDDEN, dtype=np.uint8)
    if 1e6 * _filter_error_bound(d) <= _FILTER_DELTA:
        t = np.arange(m)
        roots = np.exp(2j * np.pi * ((t - m * (2 * t >= m)) / m))  # |angle| <= pi
        total = np.ones(len(digits), dtype=complex)
        for column in digits.T:
            total += roots[column]
        v = total.real ** 2 + total.imag ** 2
        near = np.flatnonzero((v <= _FILTER_DELTA) | (np.abs(v - d) <= _FILTER_DELTA))
    else:
        near = np.arange(len(digits))
    step = max(1, _CHUNK // m)      # about _CHUNK count cells per block
    for lo in range(0, near.size, step):
        rows = near[lo : lo + step]
        codes[rows] = _confirm_codes(digits[rows], d, m)
    codes[~digits.any(axis=1)] = CODE_ZERO
    return codes


def _grow_multisets(rows: np.ndarray, m: int) -> np.ndarray:
    """The sorted size-(k+1) multiset rows over [0, m) from the size-k ones.

    Each sorted row grows by every value from its last entry up, in
    ascending order, so ascending rows stay ascending (lexicographic).
    """
    last = rows[:, -1] if rows.shape[1] else np.zeros(len(rows), dtype=np.int64)
    choices = m - last
    parent = np.repeat(np.arange(len(rows)), choices)
    # each run of children counts up from its parent's last entry to m - 1
    value = np.arange(parent.size) - np.repeat(np.cumsum(choices) - m, choices)
    return np.column_stack([rows[parent], value])


def _multiset_rows(n: int, m: int) -> np.ndarray:
    """The sorted rows of the C(m+n-1, n) size-n multisets over [0, m), by rank."""
    rows = np.zeros((1, 0), dtype=np.int64)     # the one empty multiset
    for _ in range(n):
        rows = _grow_multisets(rows, m)
    return rows


def multiset_rank_tables(n: int, m: int):
    """Rank tables of coordinate multisets of size up to n, and the size-n rows.

    Multisets of size k are ranked in lexicographic order of their sorted
    rows (``combinations_with_replacement`` order).  ``tables[k-1][a, r]`` is
    the rank of "the size-(k-1) multiset of rank r, plus a"; every size-k
    multiset arises this way.  The second value holds the sorted rows of the
    C(m+n-1, n) size-n multisets by rank, as ``_multiset_rows`` lists them.
    """
    rows = np.zeros((1, 0), dtype=np.int64)     # the one empty multiset
    tables = []
    for _ in range(n):
        grown = np.concatenate(
            [np.repeat(np.arange(m), len(rows))[:, None], np.tile(rows, (m, 1))],
            axis=1,
        )
        grown.sort(axis=1)
        rows = _grow_multisets(rows, m)
        # sorted rows order like their big-endian base-m keys
        ranks = np.searchsorted(_encode_digits(rows, m), _encode_digits(grown, m))
        tables.append(ranks.reshape(m, -1))
    return tables, rows


def _check_multiset_budget(d: int, m: int, budget: int) -> None:
    """Both grid budget checks: the m^(d-1) points, and multisets x m cells."""
    total = _check_budget(d, m, budget)
    # multisets x m bounds the rank tables (the last one ranks m x C(m+d-3,
    # d-2) grown rows) and the exact step's count and FFT cells, m per
    # multiset it decides (m^2 cells at d = 2 if it decides every one)
    multisets = math.comb(m + d - 2, d - 1)
    if multisets * m > budget:
        raise BudgetExceededError(
            f"grid of {total} points has {multisets} coordinate multisets; "
            f"their rank tables and count cells are bounded by {multisets} "
            f"x {m} = {multisets * m} cells, over enumeration budget {budget}"
        )


def ort_ub_multisets(
    d: int, m: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ORT/UB coordinate multisets of the m-grid on T^(d-1), exact path.

    Returns their sorted (k, d-1) digit rows, ascending, their uint8 class
    codes and their multiset ranks (their positions in ``_multiset_rows``).
    Every ordering of a multiset has its class.
    """
    _check_multiset_budget(d, m, budget)
    rows = _multiset_rows(d - 1, m)
    codes = exact_codes(rows, d, m)
    keep = np.flatnonzero(is_ort_ub(codes))
    return rows[keep], codes[keep], keep


def _ordering_counts(rows: np.ndarray) -> np.ndarray:
    """n!/prod(mult!) for each sorted row: its number of distinct orderings.

    The count of the first j+1 entries is the count of the first j times
    (j+1) over the length of the run of equal entries ending at j, and every
    partial count is an integer.
    """
    counts = np.ones(len(rows), dtype=np.int64)
    run = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        run = np.where(rows[:, j] == rows[:, j - 1], run + 1, 1) if j else run + 1
        counts = counts * (j + 1) // run
    return counts


def _expand_block(rows: np.ndarray, m: int, out: np.ndarray) -> None:
    """Write the base-m codes of every distinct ordering of each row into out.

    The orderings are grown one position at a time over a count matrix
    (remaining multiplicity of each value, per partial ordering): each
    partial ordering branches on the values it still has left, in ascending
    order, so the codes come out grouped by row and ascending within a row.
    """
    k, n = rows.shape
    cells = (np.arange(k) * m)[:, None] + rows
    # multiplicities are at most n: uint8 below 256
    counts = np.bincount(cells.ravel(), minlength=k * m).astype(np.min_scalar_type(n))
    counts = counts.reshape(k, m)
    code = np.zeros(k, dtype=np.int64)
    for j in range(n):
        # one flat scan: np.nonzero on the 2-D matrix takes twice as long
        cell = np.flatnonzero(counts)
        branch, value = np.divmod(cell, m)
        code = np.take(code, branch) * m + value
        if j < n - 1:
            counts = np.take(counts, branch, axis=0)
            counts.reshape(-1)[np.arange(branch.size) * m + value] -= 1
    out[:] = code


def _expand_multisets(rows: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct ordering of each sorted row, as big-endian base-m codes.

    Returns the codes, grouped by row in row order and ascending within a
    row, and the ordering count of each row.  Rows are expanded in blocks of
    about _CHUNK // m orderings, fixed by the rows alone, so the result does
    not depend on how many threads share the blocks.
    """
    sizes = _ordering_counts(rows)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    codes = np.empty(int(starts[-1]), dtype=np.int64)
    # a block ends where a row's last ordering crosses a multiple of the step
    block = (starts[1:] - 1) // max(1, _CHUNK // m)
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(rows)]

    def expand(lo, hi):
        _expand_block(rows[lo:hi], m, codes[starts[lo] : starts[hi]])

    threads = min(resolve_workers(), len(cuts) - 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(expand, cuts[:-1], cuts[1:]))
    else:
        list(map(expand, cuts[:-1], cuts[1:]))
    return codes, sizes


def exact_grid_codes(
    d: int, m: int, budget: int = DEFAULT_ENUM_BUDGET
) -> np.ndarray:
    """Class codes of every point of the m-grid on T^(d-1), exact path only.

    Returns a flat uint8 array in lexicographic (C) order with values
    CODE_ZERO/CODE_ORT/CODE_UB/CODE_FORBIDDEN.  The ORT/UB listing does not
    use it; it is the cube oracle the listing is checked against.
    """
    _check_multiset_budget(d, m, budget)
    tables, rows = multiset_rank_tables(d - 1, m)
    # the root sum 1 + sum zeta^(a_j) only depends on the coordinate multiset
    ms_codes = exact_codes(rows, d, m)
    # multiset ranks of the last d-2 coordinates of every point, in C order
    ranks = np.zeros(1, dtype=np.int64)
    for table in tables[:-1]:
        ranks = table[:, ranks].ravel()
    # codes by (leading coordinate, rank of the rest); d = 1 has one point
    leading = ms_codes[tables[-1]] if tables else ms_codes[None, :]
    return np.take(leading, ranks, axis=1).ravel()


def float_grid_codes(d: int, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Class codes of every grid point via the floating path (cross-check).

    ``float_codes`` with ``DEFAULT_EPS`` on every digit row, windowed into
    [-1/2, 1/2), in blocks of _CHUNK points; the root and the near-zero test
    of each of the m windowed values are taken once, as ``float_codes``
    would take them, and gathered by digit.
    """
    total = _check_budget(d, m, budget)
    t = np.arange(m)
    window = (t - m * (2 * t >= m)) / m
    roots, near_zero = np.exp(2j * np.pi * window), np.abs(window) <= DEFAULT_EPS
    parts = []
    for lo in range(0, total, _CHUNK):
        digits = _decode_digits(np.arange(lo, min(lo + _CHUNK, total)), m, d - 1)
        parts.append(_root_sum_codes(roots[digits], near_zero[digits], d, DEFAULT_EPS))
    return np.concatenate(parts)


def ort_ub_rows(
    d: int, m: int, budget: int = DEFAULT_ENUM_BUDGET
) -> tuple[np.ndarray, np.ndarray]:
    """The ORT/UB points of the m-grid on T^(d-1), exact path only.

    Returns their (k, d-1) digit rows in lexicographic order and their uint8
    class codes (CODE_ORT or CODE_UB); the zero point is in neither class.
    The ORT/UB multisets are expanded into their orderings and sorted once.
    """
    rows, ms_codes, _ = ort_ub_multisets(d, m, budget)
    points, sizes = _expand_multisets(rows, m)
    order = np.argsort(points)
    return _decode_digits(points[order], m, d - 1), np.repeat(ms_codes, sizes)[order]


def grid_to_csv(
    d: int, m: int, stream, budget: int = DEFAULT_ENUM_BUDGET
) -> None:
    """One row per ORT/UB point of ``ort_ub_rows``: numerators then the class
    label.

    Each block of _CHUNK rows is gathered from a byte table of numerator
    cells ("v," NUL-padded to one width) and label cells, the NUL padding is
    dropped, and the block is written, so the text of only one block is held
    at once.
    """
    rows, codes = ort_ub_rows(d, m, budget=budget)
    n = d - 1
    width = len(str(m - 1)) + 1
    numerators = np.array([f"{v},".encode() for v in range(m)], dtype=f"S{width}")
    numerators = numerators.view(np.uint8).reshape(m, width)
    labels = np.array([b"", b"ORT\n", b"UB\n", b""], dtype="S4")   # by class code
    labels = labels.view(np.uint8).reshape(4, 4)
    for lo in range(0, len(rows), _CHUNK):
        block = rows[lo : lo + _CHUNK]
        text = np.concatenate(
            [np.take(numerators, block, axis=0).reshape(len(block), n * width),
             np.take(labels, codes[lo : lo + _CHUNK], axis=0)],
            axis=1,
        ).ravel()
        stream.write(text[text != 0].tobytes().decode("ascii"))
