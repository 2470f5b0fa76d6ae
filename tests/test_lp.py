import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from classify_reference import classify_reference

from mublp import torus as torusmod
from mublp.config import BudgetExceededError
from mublp.constructions import prime_mubs
from mublp.hadamard import family_to_points
from mublp.lp import (
    EPS_FEAS,
    CertificateError,
    LpProblem,
    _transform_scan,
    build_orbits,
    canonical_char,
    canonical_codes,
    char_orbit,
    export_lp,
    extract_dual_witness,
    parse_lp,
    pseudo_mub_check,
    solution_to_json_obj,
    solve_lp,
)
from mublp.serialize import render_json
from mublp.simplex import ITERATION_LIMIT, solve_equality_form
from mublp.torus import (
    CODE_ORT,
    CODE_UB,
    PointClass,
    TorusPoint,
    _decode_digits,
    difference,
    exact_grid_codes,
    multiset_rank_tables,
)
from mublp.witness import (
    TrigPolynomial,
    _permutation_invariant,
    _transform,
    delsarte_bound,
    ort_ub_predicate,
    trig_from_json_obj,
    trig_to_json_obj,
)


def brute_force_grid_lp(d, m):
    """Oracle: direct LP over per-point weights via scipy on the full cube."""
    table = build_orbits(d, m, symmetric=False)
    prob = LpProblem(table)
    if prob.n_orbits == 0:
        return 1.0  # no allowed grid points: f = delta_0 is the only choice
    gammas = list(itertools.product(range(m), repeat=d - 1))
    rows = [-prob.constraint_row(g) for g in gammas if any(g)]
    c = prob.objective
    res = linprog(
        -c, A_ub=np.array(rows), b_ub=np.ones(len(rows)),
        bounds=[(0, None)] * prob.n_orbits, method="highs",
    )
    assert res.status == 0
    return 1.0 - res.fun


def test_orbits_d3m3():
    table = build_orbits(3, 3)
    reps = {(o.representative, len(o.members), o.point_class) for o in table.orbits}
    assert ((1, 2), 2, PointClass.ORT) in reps
    ort_orbits = [o for o in table.orbits if o.point_class is PointClass.ORT]
    ub_orbits = [o for o in table.orbits if o.point_class is PointClass.UB]
    assert len(ort_orbits) == 1
    assert len(ub_orbits) <= 3
    assert table.total_points() == 8


def test_orbits_d2m2_single():
    table = build_orbits(2, 2)
    assert len(table.orbits) == 1
    assert table.orbits[0].members.tolist() == [[1]]


def test_orbit_sizes_partition_the_grid_classes():
    from mublp.torus import ort_ub_rows

    for d, m in [(3, 4), (4, 3), (6, 4), (2, 8)]:
        table = build_orbits(d, m)
        rows, _ = ort_ub_rows(d, m)
        assert table.total_points() == len(rows)
        members = [y for o in table.orbits for y in map(tuple, o.members.tolist())]
        assert len(members) == len(set(members))


def test_orbit_members_classify_like_representative():
    for d, m in [(3, 6), (6, 4)]:
        table = build_orbits(d, m)
        for orbit in table.orbits:
            for y in orbit.members:
                assert classify_reference(TorusPoint.exact(m, y), d) is orbit.point_class


def _point_images(vec: tuple[int, ...], m: int, use_shift: bool):
    """Sorted representatives of all symmetry images of a grid point."""
    neg = tuple((-v) % m for v in vec)
    yield tuple(sorted(vec))
    yield tuple(sorted(neg))
    if use_shift:
        full = (0,) + vec
        for t in range(1, len(full)):
            shifted = tuple(
                (full[j] - full[t]) % m for j in range(len(full)) if j != t
            )
            yield tuple(sorted(shifted))
            yield tuple(sorted((-v) % m for v in shifted))


def canonical_point(vec: tuple[int, ...], m: int, use_shift: bool = False):
    return min(_point_images(vec, m, use_shift))


def _char_images(gamma: tuple[int, ...], m: int, use_shift: bool):
    """Sorted representatives of all symmetry images of a character in the cube."""
    neg = tuple((-g) % m for g in gamma)
    yield tuple(sorted(gamma))
    yield tuple(sorted(neg))
    if use_shift:
        # dual of re-basing at coordinate t: drop one entry of the zero-sum
        # extension (-sum(gamma), gamma_1, ..., gamma_(d-1))
        full = ((-sum(gamma)) % m,) + gamma
        for t in range(1, len(full)):
            img = tuple(full[j] for j in range(len(full)) if j != t)
            yield tuple(sorted(img))
            yield tuple(sorted((-g) % m for g in img))


def canonical_char_reference(gamma: tuple[int, ...], m: int, use_shift: bool = False):
    return min(_char_images(gamma, m, use_shift))


def test_canonical_point_and_char_are_group_invariant():
    rng = np.random.default_rng(12)
    for use_shift in (False, True):
        for _ in range(50):
            d, m = 4, 6
            vec = tuple(int(v) for v in rng.integers(0, m, d - 1))
            canon = canonical_point(vec, m, use_shift)
            neg = tuple((-v) % m for v in vec)
            perm = tuple(rng.permutation(np.array(vec)).tolist())
            assert canonical_point(neg, m, use_shift) == canon
            assert canonical_point(perm, m, use_shift) == canon
            g = tuple(int(v) for v in rng.integers(0, m, d - 1))
            cg = canonical_char_reference(g, m, use_shift)
            for img in char_orbit(g, m, use_shift):
                assert canonical_char(img, m, use_shift) == cg


def _char_orbit_bfs(gamma, m, use_shift=False):
    """Reference orbit: BFS over negation, every permutation and the shifts."""
    seen = set()
    frontier = [tuple(g % m for g in gamma)]
    while frontier:
        g = frontier.pop()
        if g in seen:
            continue
        seen.add(g)
        candidates = [tuple((-v) % m for v in g)]
        candidates.extend(itertools.permutations(g))
        if use_shift:
            full = ((-sum(g)) % m,) + g
            for t in range(1, len(full)):
                candidates.append(
                    tuple(full[j] for j in range(len(full)) if j != t)
                )
        for cand in candidates:
            if cand not in seen:
                frontier.append(cand)
    return seen


@pytest.mark.parametrize("d,m", [(3, 5), (4, 6), (5, 7), (6, 4), (6, 8)])
@pytest.mark.parametrize("use_shift", [False, True])
def test_char_orbit_matches_bfs_reference(d, m, use_shift):
    prob = LpProblem(build_orbits(d, m, use_shift_symmetry=use_shift))
    cube = _decode_digits(np.arange(m ** (d - 1)), m, d - 1)
    cube_codes = canonical_codes(cube, m, use_shift, dual=True)
    covered = set()
    total = 0
    for rep in prob.char_representatives():
        orbit = char_orbit(rep, m, use_shift)
        assert orbit == _char_orbit_bfs(rep, m, use_shift), rep
        rep_code = canonical_codes(np.array([rep]), m, use_shift, dual=True)[0]
        assert orbit == set(map(tuple, cube[cube_codes == rep_code].tolist())), rep
        assert char_orbit(tuple(g - m for g in rep), m, use_shift) == orbit
        assert not orbit & covered, rep
        covered |= orbit
        total += len(orbit)
    # the orbits partition the cube minus gamma = 0
    assert total == len(covered) == m ** (d - 1) - 1
    assert (0,) * (d - 1) not in covered


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6), (5, 7), (6, 4), (6, 8)])
@pytest.mark.parametrize("use_shift", [False, True])
def test_canonical_char_codes_match_canonical_char(d, m, use_shift):
    digits = _decode_digits(np.arange(m ** (d - 1)), m, d - 1)
    codes = canonical_codes(digits, m, use_shift, dual=True)
    decoded = list(map(tuple, _decode_digits(codes, m, d - 1).tolist()))
    assert decoded == [canonical_char_reference(g, m, use_shift)
                       for g in map(tuple, digits.tolist())]


@pytest.mark.parametrize("use_shift", [False, True])
def test_canonical_char_reduces_mod_m(use_shift):
    assert canonical_char((-1, 5), 4, use_shift) == canonical_char((3, 1), 4, use_shift)
    assert canonical_char((7, -2, 12), 5, use_shift) == canonical_char_reference(
        (2, 3, 2), 5, use_shift)


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6), (5, 7), (6, 4), (6, 8)])
@pytest.mark.parametrize("use_shift", [False, True])
def test_canonical_point_codes_match_canonical_point(d, m, use_shift):
    digits = _decode_digits(np.arange(m ** (d - 1)), m, d - 1)
    codes = canonical_codes(digits, m, use_shift)
    decoded = list(map(tuple, _decode_digits(codes, m, d - 1).tolist()))
    assert decoded == [canonical_point(y, m, use_shift) for y in map(tuple, digits.tolist())]


def _orbits_reference(d, m, use_shift, symmetric):
    """Orbits grouped point by point in a dict keyed by ``canonical_point``,
    over the ORT/UB points of the cube oracle."""
    codes = exact_grid_codes(d, m)
    classes = {CODE_ORT: PointClass.ORT, CODE_UB: PointClass.UB}
    linear = np.flatnonzero((codes == CODE_ORT) | (codes == CODE_UB))
    groups = {}
    for lin, row in zip(linear.tolist(), _decode_digits(linear, m, d - 1).tolist()):
        row = tuple(row)
        key = canonical_point(row, m, use_shift) if symmetric else row
        groups.setdefault(key, []).append((row, classes[int(codes[lin])]))
    return [
        (key, tuple(sorted(y for y, _ in group)), {cls for _, cls in group})
        for key, group in sorted(groups.items())
    ]


def _orbits_as_lists(table):
    return [(o.representative, tuple(map(tuple, o.members.tolist())), {o.point_class})
            for o in table.orbits]


@pytest.mark.parametrize("d,m", [(2, 5), (3, 3), (3, 12), (4, 6), (5, 7), (6, 4)])
@pytest.mark.parametrize("use_shift", [False, True])
@pytest.mark.parametrize("symmetric", [True, False])
def test_build_orbits_matches_dict_reference(d, m, use_shift, symmetric):
    if use_shift and not symmetric:
        # singleton orbits leave the shift maps nothing to merge
        with pytest.raises(ValueError, match="shift symmetry needs orbit symmetry"):
            build_orbits(d, m, use_shift_symmetry=True, symmetric=False)
        return
    table = build_orbits(d, m, use_shift_symmetry=use_shift, symmetric=symmetric)
    assert _orbits_as_lists(table) == _orbits_reference(d, m, use_shift, symmetric)


# every grid the cube oracle lists quickly: m^(d-1) <= 250,000
ORBIT_GRIDS = [
    (d, m) for d in range(2, 9) for m in range(1, 25) if m ** (d - 1) <= 250_000
]


@pytest.mark.parametrize("threads", [1, 3])
def test_build_orbits_matches_dict_reference_on_every_small_grid(monkeypatch, threads):
    # blocks of 64 orderings split most orbit tables, so the threads share them
    monkeypatch.setattr(torusmod, "_CHUNK", 64)
    monkeypatch.setattr(torusmod, "resolve_workers", lambda: threads)
    for d, m in ORBIT_GRIDS:
        for use_shift, symmetric in [(False, True), (True, True), (False, False)]:
            table = build_orbits(d, m, use_shift_symmetry=use_shift,
                                 symmetric=symmetric)
            want = _orbits_reference(d, m, use_shift, symmetric)
            assert _orbits_as_lists(table) == want, (d, m, use_shift, symmetric)
            assert np.array_equal(table.member_orbit,
                                  np.repeat(np.arange(len(want)), table.sizes.astype(int)))


@pytest.mark.parametrize("d,m", [(3, 5), (4, 6), (6, 4), (6, 8)])
@pytest.mark.parametrize("use_shift", [False, True])
def test_orbit_table_arrays(d, m, use_shift):
    table = build_orbits(d, m, use_shift_symmetry=use_shift)
    assert np.all(np.diff(table.member_orbit) >= 0)
    member_codes = canonical_codes(table.members, m, use_shift)
    rep_codes = canonical_codes(table.representatives, m, use_shift)
    assert np.array_equal(member_codes, rep_codes[table.member_orbit])
    # each member's coordinate multiset is carried once, with the member's orbit
    keys = torusmod._encode_digits(multiset_rank_tables(d - 1, m)[1], m)
    ranks = np.searchsorted(keys, torusmod._encode_digits(np.sort(table.members, axis=1), m))
    carried = list(zip(table.multiset_ranks.tolist(), table.multiset_orbit.tolist()))
    assert len(carried) == len(set(table.multiset_ranks.tolist()))
    assert set(carried) == set(zip(ranks.tolist(), table.member_orbit.tolist()))
    orbits = table.orbits
    assert table.sizes.tolist() == [float(len(o.members)) for o in orbits]
    assert table.total_points() == sum(len(o.members) for o in orbits)
    assert [o.representative for o in orbits] == list(map(tuple, table.representatives.tolist()))
    assert build_orbits(d, m, use_shift_symmetry=use_shift) == table
    assert build_orbits(d, m, use_shift_symmetry=not use_shift) != table


def test_build_orbits_rejects_orbit_with_mixed_classes(monkeypatch):
    classify_rows = torusmod.exact_codes

    def misclassify(digits, d, m):
        # the multiset (1, 1) turns ORT; its negation (2, 2) stays UB
        codes = classify_rows(digits, d, m)
        codes[(digits == 1).all(axis=1)] = CODE_ORT
        return codes

    monkeypatch.setattr(torusmod, "exact_codes", misclassify)
    with pytest.raises(AssertionError, match=r"orbit \(1, 1\) mixes classes "
                       r"PointClass.UB and PointClass.ORT"):
        build_orbits(3, 3)


SCAN_GRIDS = [
    (d, m) for d in range(2, 8) for m in range(2, 13) if m ** (d - 1) <= 250_000
]


@pytest.mark.parametrize("use_shift", [False, True])
def test_multiset_scan_matches_cube_fft(use_shift):
    rng = np.random.default_rng(5)
    for d, m in SCAN_GRIDS:
        prob = LpProblem(build_orbits(d, m, use_shift_symmetry=use_shift))
        weights = rng.uniform(0.0, 2.0, size=prob.n_orbits)
        cube = np.fft.fftn(prob.weight_grid(weights)).real.ravel()
        rows = multiset_rank_tables(d - 1, m)[1]
        assert len(rows) == math.comb(m + d - 2, d - 1)
        sorted_chars = rows @ m ** np.arange(d - 2, -1, -1)
        assert np.all(np.diff(sorted_chars) > 0)        # lexicographic order
        scan = _transform_scan(prob, weights)
        assert scan.shape == sorted_chars.shape
        tol = 1e-12 * np.abs(cube).max()
        assert np.abs(scan - cube[sorted_chars]).max() <= tol, (d, m)


@pytest.mark.parametrize("d,m", [(4, 6), (5, 12), (6, 8)])
@pytest.mark.parametrize("use_shift", [False, True])
def test_symmetric_solve_never_builds_the_cube(monkeypatch, d, m, use_shift):
    def refuse(*args, **kwargs):
        raise AssertionError("cube-sized transform in a symmetric solve")

    prob = LpProblem(build_orbits(d, m, use_shift_symmetry=use_shift))
    monkeypatch.setattr(LpProblem, "weight_grid", refuse)
    monkeypatch.setattr(np.fft, "fftn", refuse)
    sol = solve_lp(prob, add_per_round=4)
    assert sol.final_scan_min >= -1e-7


@pytest.mark.parametrize("use_shift", [False, True])
def test_symmetric_solve_keys_characters_only_when_built(monkeypatch, use_shift):
    # every sorted character is keyed once, when the problem is built; the
    # rounds only look the keys up
    def refuse(*args, **kwargs):
        raise AssertionError("characters canonicalised during the solve")

    prob = LpProblem(build_orbits(6, 8, use_shift_symmetry=use_shift))
    monkeypatch.setattr("mublp.lp.canonical_codes", refuse)
    sol = solve_lp(prob)
    assert abs(sol.M - 21.6) < 1e-9


# sha256 of json.dumps(checkpoint["constraints"]) for --shift-symmetry solves
# at the default options: the generated characters in the order the rounds
# added them, which fixes the candidate selection order
PINNED_CONSTRAINTS = {
    (6, 8): "23ea55500faa13d1c324d8a38c23a4e33f1a695248d358a3ba499ddc4266c14d",
    (5, 12): "8c757ef124512f068a2b3964208ef6a589ea8a08d36eab1f5c38630179eb37c7",
    (4, 12): "4ac34d685ddd9cdd6bf092e0f55db3c9adb8cafa55a7f6613e9afce730750301",
}


@pytest.mark.parametrize("d,m", sorted(PINNED_CONSTRAINTS))
def test_generated_constraints_are_pinned(tmp_path, d, m):
    prob = LpProblem(build_orbits(d, m, use_shift_symmetry=True))
    sol = solve_lp(prob, checkpoint_dir=str(tmp_path))
    payload = json.loads((tmp_path / "constraints.json").read_text())
    digest = hashlib.sha256(json.dumps(payload["constraints"]).encode()).hexdigest()
    assert digest == PINNED_CONSTRAINTS[(d, m)]
    assert sol.active_constraints == len(payload["constraints"])


def test_iteration_limit_names_the_round_and_master_rows(monkeypatch):
    # the second master solve runs out of iterations; the error names that
    # round (round 1 scans before any row exists, so it is round 3) and the
    # rows that master held
    rows = []

    def second_call_stops(A, b, c, basis):
        rows.append(A.shape[1] - 2 * A.shape[0])     # lam columns = rows
        result = solve_equality_form(A, b, c, basis)
        if len(rows) == 2:
            result = dataclasses.replace(result, status=ITERATION_LIMIT)
        return result

    monkeypatch.setattr("mublp.lp.solve_equality_form", second_call_stops)
    with pytest.raises(BudgetExceededError) as info:
        solve_lp(LpProblem(build_orbits(6, 8)), add_per_round=4)
    assert len(rows) == 2 and rows[1] > rows[0] > 0
    assert str(info.value) == (
        f"restricted master ran out of simplex iterations in round 3 "
        f"({rows[1]} rows)"
    )


# grids on which a complete family with phases of order dividing m exists
ATTAINMENT_GRIDS = [(4, 4), (5, 5), (7, 7), (8, 4), (9, 3), (4, 8), (8, 8)]


@pytest.mark.parametrize("d,m", ATTAINMENT_GRIDS)
def test_lp_attains_d_squared_where_a_complete_family_exists(d, m):
    prob = LpProblem(build_orbits(d, m))
    sol = solve_lp(prob)
    assert abs(sol.M - d * d) <= 1e-9, sol.M
    extract_dual_witness(sol, prob)             # raises unless it validates


REFINEMENT_GRIDS = {
    4: (2, 3, 4, 6, 8, 12, 16),
    5: (2, 3, 4, 6, 8, 12),
    6: (2, 3, 4, 6, 8),
}


@pytest.mark.parametrize("d", sorted(REFINEMENT_GRIDS))
def test_lp_optimum_grows_under_grid_refinement(d):
    # y -> k y embeds Z_m^(d-1) in Z_km^(d-1) and keeps every point's class
    # and every orbit, so the coarse optimum lifts to a fine feasible point
    # of the same mass: M(d, m) <= M(d, km)
    solved = {}
    for m in REFINEMENT_GRIDS[d]:
        prob = LpProblem(build_orbits(d, m))
        sol = solve_lp(prob)
        solved[m] = prob, sol
    pairs = [(m, fine) for m in solved for fine in solved if fine > m and fine % m == 0]
    assert pairs
    for m, fine in pairs:
        (coarse, sol), (prob, fine_sol) = solved[m], solved[fine]
        assert sol.M <= fine_sol.M + 1e-9, (d, m, fine)
        place = fine ** np.arange(d - 2, -1, -1)
        lifted = canonical_codes(coarse.table.representatives * (fine // m), fine)
        fine_codes = prob.table.representatives @ place
        at = np.searchsorted(fine_codes, lifted)
        assert np.array_equal(fine_codes[at], lifted), (d, m, fine)
        assert np.array_equal(prob.objective[at], coarse.objective)
        weights = np.zeros(prob.n_orbits)
        weights[at] = sol.weights
        assert abs(1.0 + prob.objective @ weights - sol.M) <= 1e-9
        # fhat on the fine grid at gamma is the coarse fhat at gamma mod m
        lifted_min = _transform_scan(prob, weights).min()
        assert abs(lifted_min - sol.final_scan_min) <= 1e-9, (d, m, fine)


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6), (5, 7), (6, 4), (6, 8)])
@pytest.mark.parametrize("use_shift", [False, True])
def test_char_representatives_match_canonical_char_loop(d, m, use_shift):
    prob = LpProblem(build_orbits(d, m, use_shift_symmetry=use_shift))
    cube = itertools.product(range(m), repeat=d - 1)
    expected = {canonical_char_reference(g, m, use_shift) for g in cube} - {(0,) * (d - 1)}
    assert prob.char_representatives() == sorted(expected)


def test_lp_d2m2_matches_one_variable_oracle():
    # single variable w on the point (1/2); characters {0, 1}; the gamma = 1
    # constraint reads 1 - w >= 0, so the brute-force optimum is M = 1 + 1
    best = 0.0
    for w in np.linspace(0.0, 3.0, 30001):
        if 1 - w >= -1e-12:
            best = max(best, 1 + w)
    assert abs(best - 2.0) < 1e-4
    sol = solve_lp(LpProblem(build_orbits(2, 2)))
    assert abs(sol.M - 2.0) < 1e-9
    assert abs(sol.M - brute_force_grid_lp(2, 2)) < 1e-9


def test_lp_d3m3_optimum_nine():
    # all-ones weights are feasible (fhat = 9 delta_0) and the witness bound
    # caps M at d^2 = 9
    table = build_orbits(3, 3)
    prob = LpProblem(table)
    ones = np.ones(prob.n_orbits)
    grid = prob.weight_grid(ones)
    fhat = np.fft.fftn(grid).real
    assert fhat.min() > -1e-12
    assert abs(fhat.reshape(-1)[0] - 9) < 1e-12
    cap = delsarte_bound(__import__("mublp.witness", fromlist=["expand_h"]).expand_h(3))
    assert cap.bound == 9

    sol = solve_lp(prob)
    assert abs(sol.M - 9.0) < 1e-6
    assert sol.final_scan_min > -1e-7


def test_lp_matches_scipy_oracle_on_small_grids():
    for d, m in [(2, 2), (2, 4), (3, 3), (3, 4), (4, 3)]:
        sol = solve_lp(LpProblem(build_orbits(d, m)))
        assert abs(sol.M - brute_force_grid_lp(d, m)) < 1e-7, (d, m)


@pytest.mark.parametrize(
    "d,m", [(d, m) for d in (2, 3, 4) for m in range(2, 7)]
)
@pytest.mark.parametrize("use_shift", [False, True])
def test_warm_started_lp_matches_scipy_oracle_sweep(d, m, use_shift):
    # few rows per round, so most solves start from the previous round's basis
    prob = LpProblem(build_orbits(d, m, use_shift_symmetry=use_shift))
    sol = solve_lp(prob, add_per_round=2)
    assert abs(sol.M - brute_force_grid_lp(d, m)) < 1e-7
    assert sol.final_scan_min >= -1e-7


@st.composite
def oracle_cases(draw):
    d = draw(st.integers(2, 7))
    # m <= 1024 at d = 2 keeps each draw small: the exact step's m x m count
    # and FFT cells (m multisets) and the oracle's m - 1 scipy rows; test_lp
    # and test_torus cover (2, 4096)
    m = draw(st.integers(2, max(m for m in range(2, 1025) if m ** (d - 1) <= 4096)))
    mode = draw(st.sampled_from(["symmetric", "shift", "raw"]))
    return d, m, mode, draw(st.sampled_from([1, 2, 64]))


# the raw (5, 8) master ends "unbounded" from simplex drift (ROADMAP item
# 1), which solve_lp raises as an internal AssertionError; test_cli covers
# the CLI's exit 1 for it
ORACLE_CASES = oracle_cases().filter(lambda case: case[:3] != (5, 8, "raw"))


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ORACLE_CASES)
def test_solve_lp_matches_highs_on_random_grids(case):
    d, m, mode, add_per_round = case
    table = build_orbits(d, m, use_shift_symmetry=mode == "shift",
                         symmetric=mode != "raw")
    sol = solve_lp(LpProblem(table), add_per_round=add_per_round)
    assert sol.final_scan_min >= -EPS_FEAS
    assert abs(sol.M - brute_force_grid_lp(d, m)) < 1e-7


def test_lp_d6m4_support_is_ort_only():
    table = build_orbits(6, 4)
    assert {o.point_class for o in table.orbits} == {PointClass.ORT}
    sol = solve_lp(LpProblem(table))
    assert sol.M <= 36 + 1e-6


def test_build_orbits_on_a_thin_grid():
    # (2, 4096): the ORT point 2048 and the UB pair 1024, 3072 under negation
    table = build_orbits(2, 4096)
    assert [(o.representative, o.point_class) for o in table.orbits] == [
        ((1024,), PointClass.UB), ((2048,), PointClass.ORT)]
    assert table.total_points() == 3


def test_symmetrization_soundness():
    for d, m in [(3, 3), (2, 4)]:
        sym = solve_lp(LpProblem(build_orbits(d, m, symmetric=True)))
        raw = solve_lp(LpProblem(build_orbits(d, m, symmetric=False)))
        assert abs(sym.M - raw.M) < 1e-6, (d, m)


def test_shift_symmetry_preserves_optimum():
    for d, m in [(3, 3), (3, 4), (2, 4)]:
        plain = solve_lp(LpProblem(build_orbits(d, m)))
        shifted = solve_lp(
            LpProblem(build_orbits(d, m, use_shift_symmetry=True))
        )
        assert abs(plain.M - shifted.M) < 1e-6, (d, m)


def test_dual_witness_certificates_small():
    for d, m, expected in [(3, 3, 9.0), (2, 2, 2.0), (2, 4, 4.0)]:
        prob = LpProblem(build_orbits(d, m))
        sol = solve_lp(prob)
        cert = extract_dual_witness(sol, prob)
        assert cert.grid == m and cert.even
        assert abs(float(cert.value_at_zero()) - expected) < 1e-6
        rows = prob.table.members
        allowed = ort_ub_predicate(d)
        assert all(allowed(TorusPoint.exact(m, y)) for y in rows.tolist())
        report = delsarte_bound(cert, rows)
        assert report.valid
        assert abs(float(report.bound) - sol.M) < 1e-6


def test_dual_witness_d2m2_matches_hand_dual():
    prob = LpProblem(build_orbits(2, 2))
    sol = solve_lp(prob)
    assert set(sol.dual) == {(1,)}
    assert abs(sol.dual[(1,)] - 1.0) < 1e-9
    cert = extract_dual_witness(sol, prob)
    assert abs(cert.terms[(0,)] - 1.0) < 1e-12
    assert abs(cert.terms[(1,)] - 1.0) < 1e-9


def test_dual_witness_nonpositive_on_support():
    prob = LpProblem(build_orbits(3, 3))
    sol = solve_lp(prob)
    cert = extract_dual_witness(sol, prob)
    values = _transform(cert, cert.grid).real
    for orbit in prob.table.orbits:
        for y in map(tuple, orbit.members.tolist()):
            assert values[y] <= 1e-9


def test_dual_witness_with_shift_symmetry():
    prob = LpProblem(build_orbits(3, 3, use_shift_symmetry=True))
    sol = solve_lp(prob)
    assert abs(sol.M - 9.0) < 1e-6
    cert = extract_dual_witness(sol, prob)
    rows = prob.table.members
    allowed = ort_ub_predicate(3)
    assert all(allowed(TorusPoint.exact(3, y)) for y in rows.tolist())
    report = delsarte_bound(cert, rows)
    assert report.valid and abs(float(report.bound) - sol.M) < 1e-6


# the default-flag (7, 12) master ends "unbounded" after about 3 s
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_default_lp_solves_d7_m12():
    sol = solve_lp(LpProblem(build_orbits(7, 12)))
    assert sol.M <= 49 + 1e-9


def test_shift_symmetric_lp_solves_d7_m12():
    # 38 orbits, M = 49 = d^2 in 6 rounds, where the default flags fail
    prob = LpProblem(build_orbits(7, 12, use_shift_symmetry=True))
    sol = solve_lp(prob)
    assert abs(sol.M - 49) <= 1e-9, sol.M
    extract_dual_witness(sol, prob)             # raises unless it validates


def _certificate(d, m):
    prob = LpProblem(build_orbits(d, m))
    return prob, extract_dual_witness(solve_lp(prob), prob)


def _assert_same_report(got, want):
    assert got.valid == want.valid
    assert got.bound == want.bound
    assert got.min_coefficient == want.min_coefficient
    assert abs(got.max_sample_value - want.max_sample_value) <= 1e-12
    assert got.messages == want.messages


def _values_at(t, rows):
    """An even grid polynomial at residue rows, as a direct cosine sum."""
    g = np.array(list(t.terms), dtype=np.int64)
    c = np.array(list(t.terms.values()))
    return np.cos(2.0 * np.pi * ((rows @ g.T) % t.grid) / t.grid) @ c


@pytest.mark.parametrize("d,m", [(4, 6), (5, 12)])
def test_delsarte_bound_accepts_residue_samples(d, m):
    prob, cert = _certificate(d, m)
    rows = prob.table.members
    # (4,6) has 49 members and (5,12) 1060; the grid defaults to the
    # witness's own, and nested lists are the same rows
    for sample_rows in (rows, rows[:64], rows[:1]):
        got = delsarte_bound(cert, sample_rows)
        _assert_same_report(delsarte_bound(cert, sample_rows, grid=m), got)
        _assert_same_report(delsarte_bound(cert, sample_rows.tolist()), got)
        assert got.valid
        assert abs(got.max_sample_value - _values_at(cert, sample_rows).max()) <= 1e-9
    # unreduced residues name the same grid points
    _assert_same_report(delsarte_bound(cert, rows + m), delsarte_bound(cert, rows))


@pytest.mark.parametrize("d,m", [(4, 6), (5, 12)])
def test_residue_samples_catch_a_positive_member(d, m):
    prob, cert = _certificate(d, m)
    rows = prob.table.members
    y = rows[len(rows) // 2]
    # characters orthogonal to y add their coefficient to h(y); lift h(y) to 1
    gamma = next(g for g in itertools.product(range(m), repeat=d - 1)
                 if any(g) and int(np.dot(g, y)) % m == 0)
    pair = {gamma, tuple((-g) % m for g in gamma)}
    lift = (1.0 - _values_at(cert, y[None, :])[0]) / len(pair)
    terms = dict(cert.terms)
    for g in pair:
        terms[g] = terms.get(g, 0.0) + lift
    bad = TrigPolynomial.from_terms(d - 1, terms, grid=m)
    assert bad.even
    # y is the one positive sample, placed last, first, or among a few
    others = rows[_values_at(bad, rows) <= 1e-9]
    for sample_rows in (np.vstack([others, y]), np.vstack([y, others]),
                        np.vstack([others[:10], y])):
        got = delsarte_bound(bad, sample_rows)
        assert not got.valid
        assert abs(got.max_sample_value - 1.0) <= 1e-9
        assert abs(got.max_sample_value - _values_at(bad, sample_rows).max()) <= 1e-12
    assert delsarte_bound(bad, others).valid


def test_residue_samples_reject_bad_shapes_and_predicates():
    prob, cert = _certificate(3, 3)
    with pytest.raises(ValueError):
        delsarte_bound(cert, prob.table.members[:, :1])
    with pytest.raises(ValueError):
        delsarte_bound(cert, prob.table.members.astype(float))
    with pytest.raises(ValueError):           # a predicate is no residue array
        delsarte_bound(cert, ort_ub_predicate(3))
    with pytest.raises(ValueError):           # the certificate lives on grid 3
        delsarte_bound(cert, prob.table.members, grid=6)


def _orderings(gamma, m):
    """Every ordering of gamma and of -gamma mod m: one even permutation orbit."""
    neg = tuple((-g) % m for g in gamma)
    return set(itertools.permutations(gamma)) | set(itertools.permutations(neg))


@pytest.mark.parametrize("d,m", [(4, 6), (5, 12)])
def test_multiset_reduction_sees_a_positive_ordering(d, m):
    prob, cert = _certificate(d, m)
    rows = prob.table.members
    # a member that is not its own sorted row; only it is sampled
    y = next(r for r in rows if list(r) != sorted(r))
    # a whole even permutation orbit of characters whose cosines at y sum
    # to s > 0; lifting each by (1 - h(y)) / s raises h to 1 on y's multiset
    for gamma in itertools.combinations_with_replacement(range(m), d - 1):
        orbit = _orderings(gamma, m)
        s = float(np.cos(2 * np.pi * (np.array(sorted(orbit)) @ y % m) / m).sum())
        if any(gamma) and s > 0.5:
            break
    lift = (1.0 - _values_at(cert, y[None, :])[0]) / s
    terms = dict(cert.terms)
    for g in orbit:
        terms[g] = terms.get(g, 0.0) + lift
    bad = TrigPolynomial.from_terms(d - 1, terms, grid=m)
    assert bad.even and _permutation_invariant(bad)
    got = delsarte_bound(bad, y[None, :])
    assert not got.valid
    assert abs(got.max_sample_value - 1.0) <= 1e-9


@pytest.mark.parametrize("d,m", [(4, 6), (5, 12)])
def test_a_nudged_coefficient_is_evaluated_at_every_sample(d, m):
    prob, cert = _certificate(d, m)
    rows = prob.table.members
    assert _permutation_invariant(cert)
    gamma = next(g for g in sorted(cert.terms) if len(set(g)) > 1)
    terms = dict(cert.terms)
    terms[gamma] = np.nextafter(terms[gamma], np.inf)
    nudged = TrigPolynomial.from_terms(d - 1, terms, grid=m)
    assert not _permutation_invariant(nudged)
    got = delsarte_bound(nudged, rows)
    assert abs(got.max_sample_value - _values_at(nudged, rows).max()) <= 1e-12


@pytest.mark.parametrize("d,m,use_shift,symmetric", [
    (d, m, use_shift, symmetric)
    for d, m in [(3, 3), (3, 6), (4, 6), (5, 12)]
    for use_shift, symmetric in [(False, True), (True, True), (False, False)]
    if symmetric or d < 5                   # the raw LP on the small grids
])
def test_sample_maximum_matches_every_member(d, m, use_shift, symmetric):
    prob = LpProblem(
        build_orbits(d, m, use_shift_symmetry=use_shift, symmetric=symmetric)
    )
    cert = extract_dual_witness(solve_lp(prob), prob)
    # the raw certificate's +-gamma pairs are no permutation orbits here
    assert _permutation_invariant(cert) == symmetric
    members = prob.table.members
    got = delsarte_bound(cert, members)
    assert got.valid
    assert abs(got.max_sample_value - _values_at(cert, members).max()) <= 1e-12


def _reference_witness(sol, prob):
    """The certificate assembled from BFS orbits and checked on the members."""
    m, n = prob.m, prob.d - 1
    terms = {(0,) * n: 1.0}
    for rep, lam in sol.dual.items():
        if lam <= 0:
            continue
        if prob.table.symmetric:
            orbit = _char_orbit_bfs(rep, m, prob.table.use_shift)
        else:
            orbit = {tuple(rep), tuple((-g) % m for g in rep)}
        for gamma in orbit:
            terms[gamma] = terms.get(gamma, 0.0) + lam / len(orbit)
    cert = TrigPolynomial.from_terms(n, terms, grid=m)
    report = delsarte_bound(cert, prob.table.members)
    assert report.valid and abs(float(report.bound) - sol.M) <= 1e-4
    return cert


@pytest.mark.parametrize("d,m", [(d, m) for d in (2, 3, 4) for m in range(2, 7)])
@pytest.mark.parametrize("use_shift,symmetric", [(False, True), (True, True), (False, False)])
def test_extract_dual_witness_matches_reference_assembly(
    d, m, use_shift, symmetric, monkeypatch
):
    prob = LpProblem(
        build_orbits(d, m, use_shift_symmetry=use_shift, symmetric=symmetric)
    )
    sol = solve_lp(prob)
    checked = []

    def spy(t, samples=None, **kwargs):
        checked.append(samples)
        return delsarte_bound(t, samples, **kwargs)

    monkeypatch.setattr("mublp.lp.delsarte_bound", spy)
    cert = extract_dual_witness(sol, prob)
    want = _reference_witness(sol, prob)
    assert render_json(trig_to_json_obj(cert)) == render_json(trig_to_json_obj(want))
    # the witness was checked at every ORT/UB grid point
    codes = exact_grid_codes(d, m)
    ort_ub = np.flatnonzero((codes == CODE_ORT) | (codes == CODE_UB))
    (samples,) = checked
    assert sorted(_decode_digits(ort_ub, m, d - 1).tolist()) == sorted(samples.tolist())


def _solved(d, m):
    prob = LpProblem(build_orbits(d, m))
    return prob, solve_lp(prob)


def _refusal(prob, sol) -> str:
    """The message of the ``CertificateError`` that refuses ``sol``."""
    with pytest.raises(CertificateError) as info:
        extract_dual_witness(sol, prob)
    return str(info.value)


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6)])
def test_certificate_refuses_h0_away_from_m(d, m):
    # doubled multipliers keep h even, hhat >= 0 and h <= 0 on the members,
    # but h(0) = 2M - 1
    prob, sol = _solved(d, m)
    doubled = {g: 2.0 * lam for g, lam in sol.dual.items()}
    msg = _refusal(prob, dataclasses.replace(sol, dual=doubled))
    assert msg.startswith("certified bound ") and msg.endswith(f" differs from M={sol.M}")


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6)])
def test_certificate_refuses_an_odd_witness(d, m, monkeypatch):
    # orbits without the negation spread each multiplier over one sign only
    prob, sol = _solved(d, m)
    monkeypatch.setattr("mublp.lp.char_orbit",
                        lambda gamma, m, use_shift=False: set(itertools.permutations(gamma)))
    assert _refusal(prob, sol) == (
        "certificate failed witness validation: polynomial is not even")


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6)])
def test_certificate_refuses_a_negative_multiplier(d, m):
    prob, sol = _solved(d, m)
    first = min(sol.dual)
    flipped = {g: -lam if g == first else lam for g, lam in sol.dual.items()}
    msg = _refusal(prob, dataclasses.replace(sol, dual=flipped))
    assert msg.startswith("certificate failed witness validation: "
                          "negative Fourier coefficient ")


@pytest.mark.parametrize("d,m", [(3, 3), (4, 6)])
def test_certificate_refuses_a_positive_member(d, m):
    # a large multiplier on a character whose orbit averages > 0 at some
    # member lifts h there above 0; M is the new h(0), so only the sample fails
    prob, sol = _solved(d, m)
    members = prob.table.members
    for gamma in prob.char_representatives():
        orbit = np.array(sorted(char_orbit(gamma, m)))
        mean = np.cos(2.0 * np.pi * (members @ orbit.T % m) / m).mean(axis=1)
        if mean.max() > 0.1:
            break
    dual = dict(sol.dual)
    dual[gamma] = dual.get(gamma, 0.0) + 10.0 * sol.M / mean.max()
    lifted = dataclasses.replace(sol, dual=dual, M=1.0 + sum(dual.values()))
    msg = _refusal(prob, lifted)
    assert msg.startswith("certificate failed witness validation: "
                          "witness is positive on an allowed sample: ")
    assert ";" not in msg


def _family_counts(points):
    counts = {}
    for p in points:
        for q in points:
            y = difference(p, q).coords
            counts[y] = counts.get(y, 0.0) + 1.0
    return counts


def test_pseudo_mub_check_from_complete_family():
    # difference-counting function of a complete d = 3 family
    counts = _family_counts(family_to_points(prime_mubs(3)))
    f = TrigPolynomial.from_terms(2, counts, grid=3)
    report = pseudo_mub_check(f, 3)
    assert report.ok
    assert report.mass == 81.0 and report.origin_value == 9.0


def test_pseudo_mub_check_rejects_delta():
    f = TrigPolynomial.from_terms(2, {(0, 0): 9.0}, grid=3)
    report = pseudo_mub_check(f, 3)
    assert not report.ok
    assert report.origin_ok and not report.mass_ok


def test_pseudo_mub_check_rejects_forbidden_support():
    # at (d, m) = (3, 4) no nonzero point is ORT or UB: |1 + i|^2 = 2
    f = TrigPolynomial.from_terms(2, {(0, 0): 9.0, (0, 1): 1.0, (0, 3): 1.0}, grid=4)
    report = pseudo_mub_check(f, 3)
    assert not report.support_ok and not report.ok
    assert report.origin_ok
    assert pseudo_mub_check(TrigPolynomial.from_terms(2, {(0, 0): 9.0}, grid=4),
                            3).support_ok


def test_pseudo_mub_check_rejects_negative_weight():
    # a complete d = 3 family's difference counts, with one allowed point's
    # weight made negative: beyond -eps the support check fails, within it
    # the check passes
    counts = _family_counts(family_to_points(prime_mubs(3)))
    assert pseudo_mub_check(TrigPolynomial.from_terms(2, counts, grid=3), 3).ok
    for weight, support_ok in [(-1.0, False), (-1e-6, False), (-1e-10, True)]:
        terms = dict(counts)
        terms[(1, 2)] = weight          # (1, 2) is ORT
        report = pseudo_mub_check(TrigPolynomial.from_terms(2, terms, grid=3), 3)
        assert report.support_ok is support_ok, weight


@pytest.mark.parametrize("p", [3, 5, 7])
def test_complete_family_is_an_lp_primal_of_mass_d_squared(p):
    # the difference counts of prime_mubs(p), scaled to f(0) = 1 and averaged
    # over each orbit, meet the LP's scan and every one of its rows
    counts = _family_counts(family_to_points(prime_mubs(p)))
    n = p - 1
    place = p ** np.arange(n - 1, -1, -1)
    f = np.zeros(p ** n)
    for y, count in counts.items():
        f[np.dot(y, place)] = count
    f /= f[0]
    prob = LpProblem(build_orbits(p, p))
    members = prob.table.members @ place
    outside = f.copy()
    outside[0] = 0.0
    outside[members] = 0.0
    assert not outside.any()                    # no mass off the ORT/UB members
    weights = np.bincount(prob.table.member_orbit, weights=f[members],
                          minlength=prob.n_orbits) / prob.objective
    assert np.all((weights >= 0.0) & (weights <= 2.0))
    assert abs(1.0 + prob.objective @ weights - p * p) <= 1e-9
    assert _transform_scan(prob, weights).min() >= -1e-9
    rows = np.array([prob.constraint_row(g) for g in prob.char_representatives()])
    assert (rows @ weights).min() >= -1.0 - 1e-9


def _family_candidate(p):
    points = family_to_points(prime_mubs(p))
    return p, TrigPolynomial.from_terms(p - 1, _family_counts(points), grid=p)


def _random_candidate(d, m):
    rng = np.random.default_rng(100 * d + m)
    rows = rng.integers(0, m, size=(40, d - 1)).tolist()
    terms = {tuple(r): float(w) for r, w in zip(rows, rng.normal(size=40))}
    return d, TrigPolynomial.from_terms(d - 1, terms, grid=m)


# name -> (builder, whether the candidate is even)
_TRANSFORM_CANDIDATES = {
    "family3": (lambda: _family_candidate(3), True),
    "family5": (lambda: _family_candidate(5), True),
    "lp_dual_4_6": (lambda: (4, _certificate(4, 6)[1]), True),
    "lp_dual_5_12": (lambda: (5, _certificate(5, 12)[1]), True),
    "random_3_7": (lambda: _random_candidate(3, 7), False),
    "random_4_6": (lambda: _random_candidate(4, 6), False),
    "random_5_4": (lambda: _random_candidate(5, 4), False),
}


@pytest.mark.parametrize("name", list(_TRANSFORM_CANDIDATES))
def test_pseudo_mub_check_transform_matches_fftn_reference(name):
    build, even = _TRANSFORM_CANDIDATES[name]
    d, f = build()
    assert f.even is even
    m = f.grid
    a = np.zeros((m,) * f.dim, dtype=complex)
    for y, weight in f.terms.items():
        a[y] += float(weight)
    want = np.fft.fftn(a).conj()
    assert np.array_equal(_transform(f, m), want)       # bitwise
    assert pseudo_mub_check(f, d).min_transform == float(want.real.min())


def test_pseudo_mub_check_rejects_rescaled_suboptimal_lp():
    # rescale an LP solution by f(0) = d^2: mass becomes d^2 * M < d^4
    d, m = 6, 4
    prob = LpProblem(build_orbits(d, m))
    sol = solve_lp(prob)
    assert sol.M < 36
    terms = {(0,) * (d - 1): float(d * d)}
    for i, orbit in enumerate(prob.table.orbits):
        for y in map(tuple, orbit.members.tolist()):
            terms[y] = float(d * d) * float(sol.weights[i])
    f = TrigPolynomial.from_terms(d - 1, terms, grid=m)
    report = pseudo_mub_check(f, d)
    assert report.support_ok and report.transform_ok and report.origin_ok
    assert not report.mass_ok
    assert not report.ok


def test_export_parse_roundtrip():
    prob = LpProblem(build_orbits(3, 3))
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.lp")
        with open(path, "w", encoding="utf-8") as fh:
            written = export_lp(prob, fh)
        parsed = parse_lp(path)
    assert written == len(parsed["constraints"]) == len(prob.char_representatives())
    for gamma in prob.char_representatives():
        name = "g_" + "_".join(str(v) for v in gamma)
        row = prob.constraint_row(gamma)
        stored = parsed["constraints"][name]
        assert stored["rhs"] == -1.0
        for i, v in enumerate(row):
            assert stored["coefficients"].get(f"f_{i}", 0.0) == v
    for i, v in enumerate(prob.objective):
        assert parsed["objective"][f"f_{i}"] == v
    assert all(b == (0.0, 2.0) for b in parsed["bounds"].values())


def test_export_d2m2_has_one_variable_one_constraint():
    prob = LpProblem(build_orbits(2, 2))
    assert prob.n_orbits == 1
    assert prob.char_representatives() == [(1,)]


def test_external_solver_agrees_with_exported_d3m3():
    # the exported problem's optimum is M - 1 = 8 in shifted form
    prob = LpProblem(build_orbits(3, 3))
    rows = [-prob.constraint_row(g) for g in prob.char_representatives()]
    res = linprog(
        -prob.objective, A_ub=np.array(rows), b_ub=np.ones(len(rows)),
        bounds=[(0, 2)] * prob.n_orbits, method="highs",
    )
    assert res.status == 0
    assert abs(-res.fun - 8.0) < 1e-9


def test_checkpoint_resume(tmp_path):
    d, m = 6, 4
    prob = LpProblem(build_orbits(d, m))
    ck = str(tmp_path / "ck")
    first = solve_lp(prob, checkpoint_dir=ck)
    prob2 = LpProblem(build_orbits(d, m))
    resumed = solve_lp(prob2, checkpoint_dir=ck)
    assert abs(resumed.M - first.M) < 1e-9
    assert resumed.rounds <= first.rounds


def test_resumed_solve_certifies(tmp_path):
    # the resumed characters must stay aligned with their multipliers
    ck = str(tmp_path / "ck")
    with pytest.raises(BudgetExceededError):
        solve_lp(LpProblem(build_orbits(5, 12)), max_rounds=2, checkpoint_dir=ck)
    prob = LpProblem(build_orbits(5, 12))
    resumed = solve_lp(prob, checkpoint_dir=ck)
    fresh = solve_lp(LpProblem(build_orbits(5, 12)))
    assert abs(resumed.M - fresh.M) < 1e-9
    extract_dual_witness(resumed, prob)


def test_checkpoint_bytes_repeat_and_old_stamps_resume(tmp_path):
    prob = LpProblem(build_orbits(4, 6))
    paths = [tmp_path / name / "constraints.json" for name in ("a", "b")]
    for path in paths:
        sol = solve_lp(prob, checkpoint_dir=str(path.parent))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    assert list(payload) == ["d", "m", "symmetric", "shift", "round", "constraints"]
    # a file from before the payload lost its time stamp still resumes
    payload["written"] = "2024-01-01T00:00:00"
    paths[0].write_text(json.dumps(payload))
    resumed = solve_lp(LpProblem(build_orbits(4, 6)), checkpoint_dir=str(paths[0].parent))
    assert abs(resumed.M - sol.M) < 1e-9
    assert resumed.rounds == 1


def test_checkpoint_rejects_other_problem(tmp_path):
    ck = str(tmp_path / "ck")
    solve_lp(LpProblem(build_orbits(2, 2)), checkpoint_dir=ck)
    with pytest.raises(ValueError):
        solve_lp(LpProblem(build_orbits(2, 4)), checkpoint_dir=ck)


def test_solution_json_schema():
    prob = LpProblem(build_orbits(2, 2))
    sol = solve_lp(prob)
    obj = solution_to_json_obj(prob, sol)
    assert obj["d"] == 2 and obj["m"] == 2 and obj["status"] == "optimal"
    assert obj["weights"] == [{"orbit": 0, "value": sol.weights[0]}]
    assert obj["dual"] == [{"gamma": [1], "value": sol.dual[(1,)]}]
