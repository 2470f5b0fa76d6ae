"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
The (d=6, m=16) reproduction is a long-running stretch job and is marked
slow; deselect with `-m "not slow"`.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from mublp.constructions import (
    SidonSet,
    prime_mubs,
    prime_power_mubs,
    sidon_row_system,
    sidon_search,
    sidon_verify,
)
from mublp.hadamard import family_to_points, row_quotient_check, verify_family
from mublp.lp import (
    LpProblem,
    build_orbits,
    extract_dual_witness,
    solve_lp,
)
from mublp.torus import TorusPoint, exact_grid_codes, float_grid_codes
from mublp.witness import check_point_set, delsarte_bound, expand_h, ort_ub_predicate
from mublp.cyclo import cyclo_conj, cyclo_embed, cyclo_from_counts, cyclo_mul


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _complete_family(d: int):
    if d in (2, 3, 5, 7):
        return prime_mubs(d)
    p, k = {4: (2, 2), 8: (2, 3), 9: (3, 2)}[d]
    return prime_power_mubs(p, k)


def test_criterion_1_witness_exactness():
    t0 = time.time()
    for d in range(2, 13):
        h = expand_h(d)
        assert h.constant_term() == Fraction(1)
        assert all(isinstance(c, Fraction) and c >= 0 for c in h.terms.values())
        assert h.value_at_zero() == d * d
    elapsed = time.time() - t0
    _report(
        "criterion 1: witness exactness d=2..12 (zero tolerance)",
        elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_equality_case():
    t0 = time.time()
    for d in (2, 3, 4, 5):
        family = _complete_family(d)
        points = family_to_points(family)
        assert len(points) == d * d
        report = check_point_set(points, expand_h(d), eps=1e-6)
        assert abs(report.s_spectral - d**4) < 1e-6, (d, report.s_spectral)
        assert abs(report.s_spatial - d**4) < 1e-6, (d, report.s_spatial)
        assert report.bound == d * d
        assert report.cardinality == d * d       # the bound d^2 is attained
    elapsed = time.time() - t0
    _report("criterion 2: equality case d in {2,3,4,5}", elapsed < 30.0,
            f"{elapsed:.2f}s")


def test_criterion_3_construction_ceiling():
    t0 = time.time()
    for d in (2, 3, 4, 5, 7, 8, 9):
        family = _complete_family(d)
        check = verify_family(family)
        assert check.ok, (d, check.failures)
        assert check.bases == d + 1
        assert check.max_violation < 1e-9, (d, check.max_violation)
    elapsed = time.time() - t0
    _report("criterion 3: d+1 bases verify for d in {2,3,4,5,7,8,9}",
            elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_4_sidon_reproduction():
    t0 = time.time()
    reference = SidonSet(36, (0, 1, 3, 8, 23, 27))
    assert sidon_verify(reference)
    check = row_quotient_check(sidon_row_system(reference))
    assert check.ok and check.max_violation < 1e-9
    found = sidon_search(6)
    assert found is not None and sidon_verify(found)
    elapsed = time.time() - t0
    _report("criterion 4: Sidon set {0,1,3,8,23,27} mod 36 + search",
            elapsed < 30.0, f"max violation {check.max_violation:.2e}, {elapsed:.2f}s")


def test_criterion_5_small_lp_oracles():
    t0 = time.time()
    sol33 = solve_lp(LpProblem(build_orbits(3, 3)))
    assert abs(sol33.M - 9.0) < 1e-6

    # one-variable brute-force oracle at (2, 2): constraint 1 - w >= 0
    oracle = 1.0 + 1.0
    sol22 = solve_lp(LpProblem(build_orbits(2, 2)))
    assert abs(sol22.M - oracle) < 1e-9
    elapsed = time.time() - t0
    _report("criterion 5: LP oracles (3,3) -> 9 and (2,2) -> 2",
            elapsed < 5.0, f"M33={sol33.M:.9f}, M22={sol22.M:.12f}, {elapsed:.2f}s")
    _check_criterion_7(sol33, LpProblem(build_orbits(3, 3)))
    _check_criterion_7(sol22, LpProblem(build_orbits(2, 2)))


def _check_criterion_7(sol, problem):
    """Dual certificate soundness for an optimal solve."""
    assert sol.final_scan_min >= -1e-7
    cert = extract_dual_witness(sol, problem)
    rows = problem.table.members
    allowed = ort_ub_predicate(problem.d)
    assert all(allowed(TorusPoint.exact(problem.m, y)) for y in rows.tolist())
    report = delsarte_bound(cert, rows)
    assert report.valid, report.messages
    assert abs(float(report.bound) - sol.M) < 1e-4


def test_criterion_6_lp_reference_value_m8():
    t0 = time.time()
    problem = LpProblem(build_orbits(6, 8))
    sol = solve_lp(problem)
    assert abs(sol.M - 21.6) < 0.05, sol.M
    _check_criterion_7(sol, problem)
    _report("criterion 6a: (d=6, m=8) -> M = 21.6 +- 0.05",
            time.time() - t0 < 3600.0, f"M={sol.M:.6f}, {time.time()-t0:.1f}s")


def test_criterion_6_lp_reference_value_m12():
    t0 = time.time()
    problem = LpProblem(build_orbits(6, 12))
    sol = solve_lp(problem)
    assert abs(sol.M - 17.5) < 0.05, sol.M
    _check_criterion_7(sol, problem)
    _report("criterion 6b: (d=6, m=12) -> M = 17.5 +- 0.05",
            time.time() - t0 < 8 * 3600.0, f"M={sol.M:.6f}, {time.time()-t0:.1f}s")


@pytest.mark.slow
def test_criterion_6_stretch_m16():
    t0 = time.time()
    problem = LpProblem(build_orbits(6, 16))
    sol = solve_lp(problem)
    assert abs(sol.M - 21.6) < 0.05, sol.M
    _check_criterion_7(sol, problem)
    _report("criterion 6c (stretch): (d=6, m=16) -> M = 21.6 +- 0.05",
            True, f"M={sol.M:.6f}, {time.time()-t0:.1f}s")


def test_criterion_7_dual_certificate_soundness():
    # every optimal solve from criteria 5 and 6: the extracted certificate
    # passes independent witness validation at bound M +- 1e-4, and the
    # primal passes a full final feasibility scan (every character >= -1e-7)
    t0 = time.time()
    worst_gap = 0.0
    worst_scan = 0.0
    for d, m in [(3, 3), (2, 2), (6, 8), (6, 12)]:
        problem = LpProblem(build_orbits(d, m))
        sol = solve_lp(problem)
        assert sol.final_scan_min >= -1e-7
        cert = extract_dual_witness(sol, problem)
        rows = problem.table.members
        allowed = ort_ub_predicate(d)
        assert all(allowed(TorusPoint.exact(m, y)) for y in rows.tolist())
        report = delsarte_bound(cert, rows)
        assert report.valid, report.messages
        assert abs(float(report.bound) - sol.M) < 1e-4
        worst_gap = max(worst_gap, abs(float(report.bound) - sol.M))
        worst_scan = min(worst_scan, sol.final_scan_min)
    _report(
        "criterion 7: dual certificates for all optimal solves in 5-6",
        True,
        f"worst |bound-M| {worst_gap:.2e}, worst scan {worst_scan:.2e}, "
        f"{time.time()-t0:.1f}s",
    )


def test_criterion_8_cyclo_embedding_agreement():
    import random

    rng = random.Random(77)
    worst = 0.0
    for _ in range(1000):
        m = rng.randint(1, 48)
        exps = [rng.randrange(m) for _ in range(rng.randint(0, 7))]
        counts = [0] * m
        counts[0] += 1
        for e in exps:
            counts[e] += 1
        z = cyclo_from_counts(m, counts)
        norm = cyclo_mul(z, cyclo_conj(z))
        target = abs(1 + sum(np.exp(2j * np.pi * e / m) for e in exps)) ** 2
        err = abs(cyclo_embed(norm).real - target) / max(1.0, target)
        worst = max(worst, err)
        assert err < 1e-12
    _report("criterion 8a: cyclo embedding agreement (1000 cases, 1e-12)",
            True, f"worst {worst:.2e}")


def test_criterion_8_exact_float_full_scan():
    t0 = time.time()
    budget = 40_000_000
    for d in range(2, 9):
        for m in range(1, 13):
            exact = exact_grid_codes(d, m, budget=budget)
            floats = float_grid_codes(d, m, budget=budget)
            assert np.array_equal(exact, floats), (d, m)
    _report("criterion 8b: exact/float agreement, full scan d<=8 m<=12",
            True, f"{time.time()-t0:.1f}s")


def test_criterion_8_symmetrization_soundness():
    for d, m in [(3, 3), (2, 4)]:
        sym = solve_lp(LpProblem(build_orbits(d, m, symmetric=True)))
        raw = solve_lp(LpProblem(build_orbits(d, m, symmetric=False)))
        assert abs(sym.M - raw.M) < 1e-6, (d, m)
    _report("criterion 8c: symmetrization soundness on (3,3) and (2,4)", True)


def test_criterion_8_determinism_across_worker_counts(run_cli, tmp_path):
    # (7,12) lists 86,590 points and (8,8) 54,285 orbit members, in 4 and 2
    # blocks: an unpinned child shares them among its CPUs, a pinned one
    # expands them on one thread
    outputs = []
    for pin in (True, False):
        grid = run_cli("grid", "--d", 7, "--m", 12, "--format", "json", pin=pin)
        lp = run_cli("lp", "--d", 8, "--m", 8, "--dual-witness", "w.json", pin=pin)
        assert grid[0] == 0 and lp[0] == 0, grid[2] + lp[2]
        outputs.append((grid[1], lp[1], (tmp_path / "w.json").read_text()))
    assert outputs[0] == outputs[1]
    listing = json.loads(outputs[0][0])
    assert len(listing["ort"]) + len(listing["ub"]) == 86_590
    _report("criterion 8d: byte-identical JSON on one CPU and on all", True)
