import cmath
import random

import numpy as np
import pytest

from mublp import cyclo
from mublp.cyclo import (
    CycloInt,
    IntPolynomial,
    cyclo_add,
    cyclo_conj,
    cyclo_embed,
    cyclo_equals_integer,
    cyclo_from_counts,
    cyclo_from_exponent,
    cyclo_mul,
    cyclotomic_polynomial,
    euler_phi,
)


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_product_reconstructs_x_m_minus_1():
    # independent check: the product of Phi_d over all divisors d of m
    # must reconstruct x**m - 1
    for m in [1, 2, 6, 12, 30, 36]:
        prod = np.array([1])
        for d in range(1, m + 1):
            if m % d == 0:
                prod = np.convolve(prod, cyclotomic_polynomial(d).coeffs)
        assert prod.tolist() == [-1] + [0] * (m - 1) + [1]


def test_cyclotomic_degree_is_euler_phi():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 12: 4, 36: 12}
    for m, phi in known.items():
        assert euler_phi(m) == phi


def test_from_exponent_examples():
    assert cyclo_from_exponent(4, 2).coeffs == (-1, 0)
    assert cyclo_from_exponent(3, 0).coeffs == (1, 0)
    assert cyclo_from_exponent(3, 2).coeffs == (-1, -1)  # zeta^2 = -1 - zeta
    assert cyclo_from_exponent(5, 7) == cyclo_from_exponent(5, 2)


def test_ring_op_examples():
    z4 = cyclo_from_exponent(4, 1)
    assert cyclo_equals_integer(cyclo_mul(z4, z4), -1)
    z3 = cyclo_from_exponent(3, 1)
    assert cyclo_conj(z3) == cyclo_from_exponent(3, 2)
    assert cyclo_equals_integer(cyclo_add(z3, cyclo_from_exponent(3, 2)), -1)


def test_equals_integer_examples():
    z3 = cyclo_from_exponent(3, 1)
    assert cyclo_equals_integer(cyclo_add(z3, cyclo_from_exponent(3, 2)), -1)
    assert not cyclo_equals_integer(cyclo_from_exponent(4, 1), 0)
    full = cyclo_from_counts(5, [1, 1, 1, 1, 1])
    assert cyclo_equals_integer(full, 0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        cyclo_add(cyclo_from_exponent(3, 1), cyclo_from_exponent(4, 1))
    with pytest.raises(ValueError):
        cyclo_mul(cyclo_from_exponent(5, 1), cyclo_from_exponent(7, 1))


def test_inverse_pairs_multiply_to_one():
    for m in range(1, 65):
        for a in range(m):
            prod = cyclo_mul(cyclo_from_exponent(m, a), cyclo_from_exponent(m, m - a))
            assert cyclo_equals_integer(prod, 1), (m, a)


def test_full_root_sums_vanish():
    for m in range(2, 65):
        total = cyclo_from_counts(m, [1] * m)
        assert cyclo_equals_integer(total, 0), m


def test_conjugation_is_multiplicative():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 40)
        phi = euler_phi(m)
        x = CycloInt(m, tuple(rng.randint(-3, 3) for _ in range(phi)))
        y = CycloInt(m, tuple(rng.randint(-3, 3) for _ in range(phi)))
        assert cyclo_conj(cyclo_mul(x, y)) == cyclo_mul(cyclo_conj(x), cyclo_conj(y))


def test_norm_matches_float_embedding():
    # |1 + sum e^(2 pi i a_j / m)|^2 against the exact norm, 1000 cases
    rng = random.Random(2024)
    for _ in range(1000):
        m = rng.randint(1, 48)
        exps = [rng.randrange(m) for _ in range(rng.randint(0, 7))]
        counts = [0] * m
        counts[0] += 1
        for e in exps:
            counts[e] += 1
        z = cyclo_from_counts(m, counts)
        norm = cyclo_mul(z, cyclo_conj(z))
        embedded = cyclo_embed(norm)
        target = abs(1 + sum(cmath.exp(2j * cmath.pi * e / m) for e in exps)) ** 2
        assert abs(embedded.imag) < 1e-12 * max(1.0, target)
        assert abs(embedded.real - target) < 1e-12 * max(1.0, target)


def test_exact_division_rejects_inexact():
    f = IntPolynomial.from_coeffs([1, 1])  # x + 1
    g = IntPolynomial.from_coeffs([1, 0, 1])  # x^2 + 1
    with pytest.raises(ValueError):
        g.divexact(f)


def test_zeta_power_table_cache_is_bounded():
    for m in range(2, 22):
        z = cyclo_from_exponent(m, 1)
        assert cyclo_equals_integer(cyclo_mul(z, cyclo_conj(z)), 1)
    assert cyclo._zeta_power_rows.cache_info().currsize <= 8


def test_power_tables_evaluate_to_the_roots_of_unity():
    # independent of CycloInt: row t of the powers of x mod Phi_m, evaluated
    # at exp(2 pi i / m), is exp(2 pi i t / m); the CycloInt rows are the
    # same rows read at t mod m
    for m in range(1, 201):
        matrix = cyclo._power_rows(cyclotomic_polynomial(m).coeffs, m)
        phi = euler_phi(m)
        assert matrix.shape == (m, phi)
        basis = np.exp(2j * np.pi * np.arange(phi) / m)
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        assert np.abs(matrix @ basis - roots).max() < 1e-9, m
        rows = cyclo._zeta_power_rows(m)
        assert len(rows) == max(m, 2 * phi - 1)
        for t, row in enumerate(rows):
            assert list(row) == matrix[t % m].tolist(), (m, t)
