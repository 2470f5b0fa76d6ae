import itertools

import numpy as np
import pytest
from classify_reference import classify_reference

from mublp.config import BudgetExceededError
from mublp.constructions import (
    GaloisField,
    SidonSet,
    _GaloisRing4,
    fourier_matrix,
    is_prime,
    prime_mubs,
    prime_power_mubs,
    sidon_row_system,
    sidon_search,
    sidon_verify,
)
from mublp.hadamard import family_to_points, row_quotient_check, verify_family
from mublp.torus import PointClass, difference


def test_fourier_examples():
    assert np.allclose(fourier_matrix(1), [[1]])
    assert np.allclose(fourier_matrix(2), [[1, 1], [1, -1]])
    assert abs(fourier_matrix(4)[2, 3] - (-1)) < 1e-12
    for n in (2, 3, 5, 8, 36):
        assert np.allclose(np.abs(fourier_matrix(n)), 1)


def test_prime_mubs_families_verify():
    for p in (2, 3, 5, 7):
        fam = prime_mubs(p)
        check = verify_family(fam)
        assert check.ok, check.failures
        assert check.bases == p + 1          # the d+1 ceiling, attained
        assert check.max_violation < 1e-9


def test_prime_mubs_rejects_composite():
    with pytest.raises(ValueError):
        prime_mubs(6)


def test_prime_power_families_verify():
    for p, k in [(2, 2), (3, 2), (2, 3), (2, 4), (5, 2)]:
        fam = prime_power_mubs(p, k)
        check = verify_family(fam)
        assert check.ok, (p, k, check.failures)
        assert check.bases == p**k + 1
        assert check.max_violation < 1e-9


def test_prime_power_envelope_and_validation():
    with pytest.raises(ValueError):
        prime_power_mubs(4, 1)
    with pytest.raises(ValueError):
        prime_power_mubs(2, 7)  # 128 > 64


def test_prime_power_k1_matches_prime_construction_size():
    for p in (2, 3, 5):
        a = prime_mubs(p)
        b = prime_power_mubs(p, 1)
        assert len(a.hadamards) == len(b.hadamards)
        assert verify_family(a).ok and verify_family(b).ok


def test_family_points_all_differences_allowed():
    # the reduction to torus points, for every constructed family with d <= 9
    for fam in (prime_mubs(2), prime_mubs(3), prime_power_mubs(2, 2),
                prime_mubs(5), prime_mubs(7), prime_power_mubs(2, 3),
                prime_power_mubs(3, 2)):
        points = family_to_points(fam)
        assert len(points) == fam.d * len(fam.hadamards)
        assert points[0].is_zero()
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                cls = classify_reference(difference(points[i], points[j]), fam.d)
                assert cls in (PointClass.ORT, PointClass.UB), (fam.d, i, j)


def test_galois_field_structure():
    gf = GaloisField(3, 2)
    assert gf.modulus.coeffs == (1, 0, 1)  # x^2 + 1, least lexicographic
    assert len(gf.elements) == 9
    one = gf.elements[1]
    for x in gf.elements[1:]:
        # multiplicative order divides p^k - 1
        acc = one
        order = 0
        for _ in range(gf.size):
            acc = gf.mul(acc, x)
            order += 1
            if acc == one:
                break
        assert acc == one and (gf.size - 1) % order == 0
    # trace is additive and lands in F_p
    for x in gf.elements:
        for y in gf.elements:
            assert gf.trace(gf.add(x, y)) == (gf.trace(x) + gf.trace(y)) % 3


def test_galois_field_rejects_bad_input():
    with pytest.raises(ValueError):
        GaloisField(6, 1)
    with pytest.raises(ValueError):
        GaloisField(3, 0)


def test_galois_ring_teichmuller():
    ring = _GaloisRing4(3)
    # Hensel lift of x^3 + x^2 + 1 (the least primitive cubic, constant-first
    # order); a degree-3 factor of x^7 - 1 over Z_4
    assert ring.modulus == [3, 2, 3, 1]
    lifted_mod2 = [c % 2 for c in ring.modulus]
    assert lifted_mod2 == [1, 0, 1, 1]
    assert len(ring.teichmuller) == 8
    # trace lands in Z_4 and is additive over doubling
    for t in ring.teichmuller:
        tr = ring.trace(t)
        assert 0 <= tr < 4
        assert ring.trace(ring.double(t)) == (2 * tr) % 4


def test_sidon_search_examples():
    assert sidon_search(1) == SidonSet(1, (0,))
    assert sidon_search(2) == SidonSet(4, (0, 1))
    assert sidon_search(3) == SidonSet(9, (0, 1, 3))
    found = sidon_search(6)
    assert found is not None and sidon_verify(found)


def test_sidon_search_d3_is_lexicographically_least():
    # brute-force oracle over all 3-subsets of Z_9 containing 0
    best = None
    for rest in itertools.combinations(range(1, 9), 2):
        cand = SidonSet(9, (0,) + rest)
        if sidon_verify(cand):
            best = cand
            break
    assert sidon_search(3) == best


def test_sidon_budget_exhaustion_is_distinct_from_not_found():
    with pytest.raises(BudgetExceededError):
        sidon_search(6, budget=3)


def test_sidon_verify_examples():
    assert sidon_verify(SidonSet(36, (0, 1, 3, 8, 23, 27)))
    assert not sidon_verify(SidonSet(9, (0, 1, 2)))
    assert sidon_verify(SidonSet(1, (0,)))


def test_sidon_row_system_examples():
    rows = sidon_row_system(SidonSet(36, (0, 1, 3, 8, 23, 27)))
    assert rows.shape == (6, 36)
    assert row_quotient_check(rows).ok

    rows2 = sidon_row_system(SidonSet(4, (0, 1)))
    assert rows2.shape == (2, 4)
    assert row_quotient_check(rows2).ok

    bad = sidon_row_system(SidonSet(36, (0, 1, 2, 3, 4, 5)))
    assert not row_quotient_check(bad).ok


def test_sidon_row_system_needs_square_modulus():
    with pytest.raises(ValueError):
        sidon_row_system(SidonSet(10, (0, 1, 3)))


def test_row_quotient_passes_for_all_verified_sidon_sets_small_d():
    for d in range(1, 9):
        found = sidon_search(d)
        assert found is not None, d
        assert sidon_verify(found)
        assert row_quotient_check(sidon_row_system(found)).ok, d


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
