import io
import itertools
import math

import numpy as np
import pytest
from classify_reference import classify_reference

from mublp import torus
from mublp.config import DEFAULT_ENUM_BUDGET, BudgetExceededError
from mublp.constructions import prime_power_mubs
from mublp.hadamard import family_to_points
from mublp.torus import (
    CODE_FORBIDDEN,
    CODE_ORT,
    CODE_UB,
    CODE_ZERO,
    PointClass,
    TorusPoint,
    classify,
    column_to_point,
    difference,
    exact_codes,
    exact_grid_codes,
    float_codes,
    float_grid_codes,
    grid_to_csv,
    is_ort_ub,
    multiset_rank_tables,
    ort_ub_multisets,
    ort_ub_rows,
)


def negate(p: TorusPoint) -> TorusPoint:
    if p.is_exact:
        m = p.denominator
        return TorusPoint.exact(m, ((m - a) % m for a in p.coords))
    return TorusPoint.from_floats(-v for v in p.coords)


def test_classify_examples():
    assert classify(TorusPoint.exact(2, (1,)), 2) is PointClass.ORT
    assert classify(TorusPoint.exact(3, (1, 2)), 3) is PointClass.ORT
    assert classify(TorusPoint.exact(3, (1, 1)), 3) is PointClass.UB
    assert classify(TorusPoint.exact(2, (0, 0, 0, 0, 1)), 6) is PointClass.FORBIDDEN
    assert classify(TorusPoint.exact(1, (0, 0)), 3) is PointClass.ZERO


def test_classify_ub_matches_direct_complex_arithmetic():
    # (1/3, 1/3): |1 + 2 w|^2 with w = e^(2 pi i/3) equals exactly 3
    w = np.exp(2j * np.pi / 3)
    assert abs(abs(1 + 2 * w) ** 2 - 3) < 1e-12


def test_classify_dimension_mismatch():
    with pytest.raises(ValueError):
        classify(TorusPoint.exact(3, (1, 2)), 4)


def test_classify_float_path():
    assert classify(TorusPoint.from_floats([0.5]), 2) is PointClass.ORT
    assert classify(TorusPoint.from_floats([0.25]), 2) is PointClass.UB
    assert classify(TorusPoint.from_floats([1e-12, -1e-12]), 3) is PointClass.ZERO
    assert classify(TorusPoint.from_floats([0.1, 0.2]), 3) is PointClass.FORBIDDEN


def test_difference_examples():
    p = TorusPoint.exact(4, (1, 0))
    assert difference(p, p).is_zero()
    a = difference(TorusPoint.exact(4, (1,)), TorusPoint.exact(4, (3,)))
    assert a == TorusPoint.exact(4, (2,))
    b = difference(TorusPoint.exact(3, (1, 2)), TorusPoint.exact(6, (1, 1)))
    assert b == TorusPoint.exact(6, (1, 3))


def test_difference_mixed_falls_back_to_float():
    out = difference(TorusPoint.exact(4, (1,)), TorusPoint.from_floats([0.1]))
    assert not out.is_exact
    assert abs(out.coords[0] - 0.15) < 1e-12


def test_column_to_point_examples():
    assert column_to_point([1, -1], 2) == TorusPoint.exact(2, (1,))
    assert column_to_point([1, 1j, -1], 4) == TorusPoint.exact(4, (1, 2))
    w = np.exp(2j * np.pi / 3)
    assert column_to_point([1, w, w**2], 3) == TorusPoint.exact(3, (1, 2))


def test_column_to_point_rejections():
    with pytest.raises(ValueError):
        column_to_point([1, 0.5])          # non-unimodular
    with pytest.raises(ValueError):
        column_to_point([1j, 1])           # not dephased


def test_column_to_point_snap_fallback():
    p = column_to_point([1, np.exp(2j * np.pi * 0.123)], snap_denominator=4)
    assert not p.is_exact


def _class_sets(d, m):
    """The ORT and UB points of ``ort_ub_rows``, as sets of coordinate tuples."""
    rows, codes = ort_ub_rows(d, m)
    return tuple({tuple(r) for r in rows[codes == code].tolist()}
                 for code in (CODE_ORT, CODE_UB))


def test_ort_ub_rows_examples():
    ort, ub = _class_sets(3, 3)
    assert ort == {(1, 2), (2, 1)} and len(ub) == 6
    assert _class_sets(2, 2) == ({(1,)}, set())
    assert _class_sets(6, 4)[1] == set()
    # lexicographic rows of every ORT/UB point, with its exact code
    for d, m in [(3, 3), (4, 6), (5, 4)]:
        rows, codes = ort_ub_rows(d, m)
        assert rows.shape == (codes.size, d - 1) and rows.dtype == np.int64
        assert rows.tolist() == sorted(rows.tolist())
        grid = exact_grid_codes(d, m)
        linear = rows @ m ** np.arange(d - 2, -1, -1)
        assert np.array_equal(grid[linear], codes)
        assert np.array_equal(np.flatnonzero(is_ort_ub(grid)), linear)
    # m = 1 has only the zero point
    rows, codes = ort_ub_rows(4, 1)
    assert rows.shape == (0, 3) and codes.size == 0


# every grid the cube oracle lists quickly: m^(d-1) <= 250,000
LISTING_GRIDS = [
    (d, m) for d in range(1, 9) for m in range(1, 25) if m ** (d - 1) <= 250_000
]


@pytest.mark.parametrize("threads", [1, 3])
def test_ort_ub_rows_match_the_cube_oracle_on_every_small_grid(monkeypatch, threads):
    # blocks of 64 orderings split most listings, so the threads share them
    monkeypatch.setattr(torus, "_CHUNK", 64)
    monkeypatch.setattr(torus, "resolve_workers", lambda: threads)
    for d, m in LISTING_GRIDS:
        rows, codes = ort_ub_rows(d, m)
        grid = exact_grid_codes(d, m)
        linear = np.flatnonzero(is_ort_ub(grid))
        assert rows.dtype == np.int64 and codes.dtype == np.uint8
        assert np.array_equal(rows, torus._decode_digits(linear, m, d - 1)), (d, m)
        assert np.array_equal(codes, grid[linear]), (d, m)


def test_multiset_rows_are_the_rank_order():
    for n, m in [(0, 4), (1, 1), (3, 1), (1, 7), (4, 6), (5, 12), (2, 30)]:
        rows = torus._multiset_rows(n, m)
        assert rows.dtype == np.int64 and len(rows) == math.comb(m + n - 1, n)
        assert np.array_equal(rows, multiset_rank_tables(n, m)[1]), (n, m)


def test_expanded_multisets_are_their_distinct_orderings():
    rng = np.random.default_rng(11)
    for n, m in [(1, 5), (3, 4), (5, 3), (6, 10)]:
        rows = np.sort(rng.integers(0, m, size=(20, n)), axis=1)
        codes, sizes = torus._expand_multisets(rows, m)
        want = [sorted(set(itertools.permutations(row))) for row in rows.tolist()]
        assert sizes.tolist() == [len(w) for w in want]
        got = torus._decode_digits(codes, m, n).tolist()
        assert got == [list(y) for w in want for y in w]


def test_ort_ub_multisets_are_the_sorted_listing():
    for d, m in [(3, 3), (5, 6), (6, 8)]:
        ms_rows, ms_codes, ranks = ort_ub_multisets(d, m)
        assert np.array_equal(multiset_rank_tables(d - 1, m)[1][ranks], ms_rows)
        rows, codes = ort_ub_rows(d, m)
        sorted_rows = np.sort(rows, axis=1)
        assert np.array_equal(np.unique(sorted_rows, axis=0), ms_rows)
        for row, code in zip(ms_rows, ms_codes):
            assert set(codes[(sorted_rows == row).all(axis=1)].tolist()) == {code}


def test_digit_codes_round_trip():
    rng = np.random.default_rng(7)
    for n, m in [(0, 5), (1, 1), (3, 1), (1, 7), (5, 7), (3, 24)]:
        rows = rng.integers(0, m, size=(50, n))
        codes = torus._encode_digits(rows, m)
        assert codes.shape == (50,) and codes.dtype == np.int64
        assert np.array_equal(torus._decode_digits(codes, m, n), rows)
        # codes order like the rows: a grid point's code is its linear index
        cube = torus._decode_digits(np.arange(m ** n), m, n)
        assert np.array_equal(torus._encode_digits(cube, m), np.arange(m ** n))


def test_thin_grids_with_a_ub_pair_are_decided_exactly():
    # d = 2 and 4 | m: the points m/4 and 3m/4 are UB, so every grid has
    # rows that pass the filter and are decided by the Galois conjugates
    for m in range(4, 84, 4):
        codes = exact_grid_codes(2, m)
        assert np.flatnonzero(codes == CODE_UB).tolist() == [m // 4, 3 * m // 4]
        assert np.flatnonzero(codes == CODE_ORT).tolist() == [m // 2]


def test_ort_ub_rows_d3m3_against_direct_arithmetic():
    # independent oracle: direct complex arithmetic over all 9 points
    ort, ub = set(), set()
    w = np.exp(2j * np.pi / 3)
    for a, b in itertools.product(range(3), repeat=2):
        if (a, b) == (0, 0):
            continue
        v = abs(1 + w**a + w**b) ** 2
        if abs(v) < 1e-9:
            ort.add((a, b))
        elif abs(v - 3) < 1e-9:
            ub.add((a, b))
    assert _class_sets(3, 3) == (ort, ub)


def test_ort_ub_rows_d6m4_ub_empty_by_direct_scan():
    # |z|^2 = 6 has no Gaussian-integer solutions; confirm by float scan
    roots = 1j ** np.arange(4)
    for point in itertools.product(range(4), repeat=5):
        v = abs(1 + sum(roots[a] for a in point)) ** 2
        assert abs(v - 6) > 1e-9


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        ort_ub_rows(6, 16, budget=1000)


def test_multiset_count_matrices_count_against_the_budget():
    # 300,000 points fit the default budget, but the exact step's count cells
    # are bounded by 300,000 x 300,000 (and the rank tables by ~8M x 4,000
    # at d = 3)
    for d, m, cells in [(2, 300_000, 300_000 * 300_000), (3, 4_000, 4_001 * 2_000 * 4_000)]:
        with pytest.raises(BudgetExceededError, match=f"{m ** (d - 1)} points.*{cells} cells"):
            exact_grid_codes(d, m)
    # (2, 5) has 5 multisets, so 5 x 5 cells: 25 fits, 24 does not
    assert exact_grid_codes(2, 5, budget=25).tolist() == [0, 3, 3, 3, 3]
    with pytest.raises(BudgetExceededError, match="cells"):
        exact_grid_codes(2, 5, budget=24)


def test_grid_lists_closed_under_negation_and_permutation():
    for d, m in [(3, 5), (4, 4), (5, 3)]:
        for coords in _class_sets(d, m):
            for p in coords:
                assert tuple((-a) % m for a in p) in coords
                for perm in itertools.permutations(p):
                    assert perm in coords


def test_classify_symmetry_invariance():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = int(rng.integers(2, 7))
        m = int(rng.integers(1, 13))
        p = TorusPoint.exact(m, rng.integers(0, m, d - 1))
        cls = classify(p, d)
        assert classify(negate(p), d) is cls
        shuffled = tuple(rng.permutation(np.array(p.coords)))
        assert classify(TorusPoint.exact(m, shuffled), d) is cls


def test_exact_and_float_codes_agree_on_small_grids():
    for d in range(2, 7):
        for m in range(1, 9):
            assert np.array_equal(exact_grid_codes(d, m), float_grid_codes(d, m)), (d, m)


def test_exact_and_float_codes_agree_past_one_block():
    # the cube oracle is one gather; the float oracle runs 4 blocks at (6, 16)
    for d, m in [(5, 6), (6, 16)]:
        assert np.array_equal(exact_grid_codes(d, m), float_grid_codes(d, m)), (d, m)


def test_float_grid_codes_are_float_codes_of_the_windowed_rows():
    for d, m in [(1, 5), (2, 7), (3, 12), (4, 9), (5, 6)]:
        digits = torus._decode_digits(np.arange(m ** (d - 1)), m, d - 1)
        window = (digits - m * (2 * digits >= m)) / m     # in [-1/2, 1/2)
        assert np.array_equal(float_grid_codes(d, m), float_codes(window, d)), (d, m)


_CODE_OF_CLASS = {
    PointClass.ZERO: CODE_ZERO,
    PointClass.ORT: CODE_ORT,
    PointClass.UB: CODE_UB,
    PointClass.FORBIDDEN: CODE_FORBIDDEN,
}


@pytest.mark.parametrize("d,m", [(3, 48), (4, 30), (5, 24)])
def test_exact_codes_match_scalar_classify(d, m):
    # grids beyond the exact-vs-float full scan (d <= 8, m <= 12); the scalar
    # reference works in Z[zeta_m] with CycloInt arithmetic
    codes = exact_grid_codes(d, m)
    assert codes.shape == (m ** (d - 1),)
    rng = np.random.default_rng(d * 100 + m)
    allowed = np.flatnonzero((codes == CODE_ORT) | (codes == CODE_UB))
    picks = np.concatenate([
        [0, codes.size - 1],
        rng.integers(0, codes.size, 200),
        rng.choice(allowed, min(100, allowed.size), replace=False),
    ])
    for lin in picks.tolist():
        point = TorusPoint.exact(m, np.unravel_index(lin, (m,) * (d - 1)))
        assert codes[lin] == _CODE_OF_CLASS[classify_reference(point, d)], (d, m, point)


@pytest.mark.parametrize("m", [1024, 4096])
def test_thin_grid_has_one_ort_and_two_ub_points(m):
    # 1 + zeta^a is 0 only at a = m/2 and has |.|^2 = 2 only at a = m/4, 3m/4
    codes = exact_grid_codes(2, m)
    assert np.flatnonzero(codes == CODE_ORT).tolist() == [m // 2]
    assert np.flatnonzero(codes == CODE_UB).tolist() == [m // 4, 3 * m // 4]
    rng = np.random.default_rng(m)
    for a in [0, m // 4, m // 2, 3 * m // 4] + rng.integers(0, m, 50).tolist():
        point = TorusPoint.exact(m, (a,))
        assert codes[a] == _CODE_OF_CLASS[classify_reference(point, 2)], a


def _survivor_counts(monkeypatch):
    """Row counts of every call to the exact step, recorded as it runs."""
    counts = []
    confirm = torus._confirm_codes

    def counting(digits, d, m):
        counts.append(len(digits))
        return confirm(digits, d, m)

    monkeypatch.setattr(torus, "_confirm_codes", counting)
    return counts


_FILTER_GRIDS = [(6, 24, 325), (8, 12, 293), (6, 16, 110), (5, 24, 163)]


@pytest.mark.parametrize("d,m,ort_ub", _FILTER_GRIDS)
def test_float_filter_passes_exactly_the_ort_ub_multisets(monkeypatch, d, m, ort_ub):
    # no FORBIDDEN multiset comes within the filter's delta of 0 or d, so
    # the exact step sees the ORT/UB multisets and nothing else
    counts = _survivor_counts(monkeypatch)
    codes = exact_codes(multiset_rank_tables(d - 1, m)[1], d, m)
    assert counts == [ort_ub]
    assert np.count_nonzero(is_ort_ub(codes)) == ort_ub


@pytest.mark.parametrize("d,m", [grid[:2] for grid in _FILTER_GRIDS])
def test_codes_unchanged_when_every_multiset_is_decided_exactly(monkeypatch, d, m):
    rows = multiset_rank_tables(d - 1, m)[1]
    filtered = exact_codes(rows, d, m)
    counts = _survivor_counts(monkeypatch)
    monkeypatch.setattr(torus, "_FILTER_DELTA", float(d * d))    # |v| <= d^2
    assert np.array_equal(exact_codes(rows, d, m), filtered)
    assert sum(counts) == len(rows)


@pytest.mark.parametrize("p,k", [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_family_pair_codes_unchanged_when_every_row_is_decided_exactly(monkeypatch, p, k):
    family = prime_power_mubs(p, k)
    d = family.d
    seen = {}

    def recording(digits, d, m):
        codes = exact_codes(digits, d, m)
        seen.setdefault(torus._FILTER_DELTA, []).append(codes)
        return codes

    monkeypatch.setattr("mublp.hadamard.exact_codes", recording)
    family_to_points(family)
    monkeypatch.setattr(torus, "_FILTER_DELTA", float(d * d))
    family_to_points(family)
    filtered, unfiltered = (np.concatenate(seen[delta]) for delta in sorted(seen))
    assert np.array_equal(filtered, unfiltered)
    assert filtered.size == d * d * (d * d - 1) // 2     # d bases, d^2 columns
    assert is_ort_ub(filtered).all()


# rows whose float |S|^2 is small at k = 1 while another conjugate is not
_NEAR_MISSES = [(6, 30, (0, 13, 13, 16, 27)), (7, 21, (0, 7, 8, 9, 16, 16))]


@pytest.mark.parametrize("d,m,row", _NEAR_MISSES)
def test_near_misses_are_forbidden(monkeypatch, d, m, row):
    s = 1 + sum(np.exp(2j * np.pi * a / m) for a in row)
    assert abs(s) ** 2 < 1e-3
    monkeypatch.setattr(torus, "_FILTER_DELTA", float(d * d))    # |v| <= d^2
    assert exact_codes(np.array([row]), d, m).tolist() == [CODE_FORBIDDEN]
    assert classify_reference(TorusPoint.exact(m, row), d) is PointClass.FORBIDDEN


@pytest.mark.parametrize("d,m", [(6, 30), (7, 21)])
def test_exact_step_matches_scalar_reference_on_sampled_multisets(monkeypatch, d, m):
    # every row goes to the exact step; the reference multiplies in Z[zeta_m]
    rows = multiset_rank_tables(d - 1, m)[1]
    monkeypatch.setattr(torus, "_FILTER_DELTA", float(d * d))
    codes = exact_codes(rows, d, m)
    rng = np.random.default_rng(d * m)
    sample = np.concatenate([np.flatnonzero(is_ort_ub(codes)),
                             rng.choice(len(rows), 1_500, replace=False)])
    for r in sample:
        point = TorusPoint.exact(m, rows[r])
        assert codes[r] == _CODE_OF_CLASS[classify_reference(point, d)], (d, m, rows[r])
    assert is_ort_ub(codes[sample]).any() and (codes[sample] == CODE_FORBIDDEN).any()


def test_exact_step_error_bound_stays_below_one_half():
    # the bound grows with d and m: d = 2 at m = 4472, the largest thin grid
    # the default budget allows, and (64, 64), which covers every prime-power
    # family up to d = 64 (their root orders are p, or 4 for p = 2)
    assert math.comb(4472, 1) * 4472 <= DEFAULT_ENUM_BUDGET < 4473 * 4473
    assert torus._confirm_error_bound(2, 4472) < 0.5
    assert torus._confirm_error_bound(64, 64) < 0.5
    assert torus._confirm_error_bound(64, 4) <= torus._confirm_error_bound(64, 64)
    # measured: the conjugates of ORT/UB rows, exactly 0 or d, sit within it
    for d, m in [(2, 4096), (2, 4472), (6, 24), (7, 21), (12, 6)]:
        rows, codes, _ = ort_ub_multisets(d, m, budget=max(DEFAULT_ENUM_BUDGET, m ** (d - 1)))
        counts = np.zeros((len(rows), m))
        np.add.at(counts, (np.arange(len(rows))[:, None], rows), 1)
        counts[:, 0] += 1
        power = np.abs(np.fft.rfft(counts, axis=1)) ** 2
        units = np.gcd(np.arange(m // 2 + 1), m) == 1
        exact = np.where(codes == CODE_UB, d, 0)[:, None]
        assert np.abs(power[:, units] - exact).max() <= torus._confirm_error_bound(d, m)


def test_classify_matches_scalar_reference_on_random_points():
    # classify is a one-row call to exact_codes or float_codes; the reference
    # is the scalar CycloInt / Python-sum algorithm
    rng = np.random.default_rng(12)
    cases = []
    for d in range(1, 9):                       # the zero point, m = 1 and m > 1
        cases.append((TorusPoint.exact(1, (0,) * (d - 1)), d))
        cases.append((TorusPoint.exact(int(rng.integers(2, 49)), (0,) * (d - 1)), d))
    while len(cases) < 6_000:
        d, m = int(rng.integers(1, 9)), int(rng.integers(1, 49))
        cases.append((TorusPoint.exact(m, rng.integers(0, m, d - 1)), d))
    # window edges, exact zeros and coordinates at and around eps = 1e-9
    edges = [-0.5, float(np.nextafter(0.5, 0.0)), 0.5, 0.0, -0.0,
             1e-12, -1e-12, 5e-10, 1e-9, -1e-9, float(np.nextafter(1e-9, 1.0)), 2e-9]
    while len(cases) < 12_000:
        d = int(rng.integers(1, 9))
        kind = len(cases) % 3
        if kind == 0:
            x = rng.uniform(-0.5, 0.5, d - 1)
        elif kind == 1:                         # near ORT/UB: grid points, jittered
            m = int(rng.choice([2, 3, 4, 6, 8, 12]))
            jitter = rng.choice([0.0, 1e-13, -1e-11, 1e-9], d - 1)
            x = rng.integers(0, m, d - 1) / m + jitter
        else:
            x = rng.choice(edges, d - 1)
        cases.append((TorusPoint.from_floats(x), d))
    seen = set()
    for point, d in cases:
        cls = classify(point, d)
        assert cls is classify_reference(point, d), (point, d)
        seen.add((point.is_exact, cls))
    assert seen == {(e, c) for e in (True, False) for c in PointClass}


def test_is_ort_ub_selects_the_two_allowed_codes():
    codes = np.array([CODE_ZERO, CODE_ORT, CODE_UB, CODE_FORBIDDEN, CODE_UB], dtype=np.uint8)
    mask = is_ort_ub(codes)
    assert mask.dtype == bool
    assert mask.tolist() == [False, True, True, False, True]
    assert codes.tolist() == [0, 1, 2, 3, 2]        # the input is left alone


def _csv_reference(d, m):
    """One ``write`` per row, as the grid CSV was first written."""
    codes = exact_grid_codes(d, m)
    buf = io.StringIO()
    labels = {CODE_ORT: "ORT", CODE_UB: "UB"}
    for lin, row in enumerate(itertools.product(range(m), repeat=d - 1)):
        if codes[lin] in labels:
            buf.write(",".join(str(v) for v in row))
            buf.write("," + labels[int(codes[lin])] + "\n")
    return buf.getvalue()


@pytest.mark.parametrize("d,m", [(5, 12), (4, 10), (6, 8), (3, 1)])
def test_grid_csv_matches_per_row_reference(d, m):
    buf = io.StringIO()
    grid_to_csv(d, m, buf)
    assert buf.getvalue() == _csv_reference(d, m)
    if m == 1:
        assert buf.getvalue() == ""


def _budget(d, m):
    """The default budget, raised to the grid's size where that is larger."""
    return max(DEFAULT_ENUM_BUDGET, m ** (d - 1))


def _csv_object_reference(d, m):
    """The grid CSV built column by column from object arrays of strings, on
    the listing decoded from the cube oracle."""
    grid = exact_grid_codes(d, m, budget=_budget(d, m))
    linear = np.flatnonzero(is_ort_ub(grid))
    rows, codes = torus._decode_digits(linear, m, d - 1), grid[linear]
    numerators = np.array([f"{v}," for v in range(m)], dtype=object)
    labels = np.array(["", "ORT\n", "UB\n", ""], dtype=object)   # by class code
    lines = labels[codes]
    for column in rows.T[::-1]:
        lines = numerators[column] + lines
    return "".join(lines.tolist()), rows


@pytest.mark.parametrize("d,m,digits", [
    (2, 400, {3}),        # 100, 200, 300: full-width cells
    (3, 330, {1, 3}),     # 0, 110, 220: "0," padded to the width of "329,"
    (7, 8, set()),        # an empty listing
    (1, 5, set()),        # d = 1: the origin alone
    (8, 12, {1, 2}),      # more rows than one _CHUNK block
])
def test_grid_csv_byte_table_matches_object_reference(monkeypatch, d, m, digits):
    want, rows = _csv_object_reference(d, m)
    buf = io.StringIO()
    grid_to_csv(d, m, buf, budget=_budget(d, m))
    assert buf.getvalue() == want
    assert {len(str(v)) for v in np.unique(rows).tolist()} == digits
    if (d, m) == (8, 12):
        assert len(rows) > torus._CHUNK
        for threads in (1, 3):
            monkeypatch.setattr(torus, "resolve_workers", lambda: threads)
            other = io.StringIO()
            grid_to_csv(d, m, other, budget=_budget(d, m))
            assert other.getvalue() == want, threads


def test_grid_csv_golden_d3m3():
    buf = io.StringIO()
    grid_to_csv(3, 3, buf)
    assert buf.getvalue() == (
        "0,1,UB\n0,2,UB\n1,0,UB\n1,1,UB\n1,2,ORT\n2,0,UB\n2,1,ORT\n2,2,UB\n"
    )
