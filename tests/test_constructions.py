import functools
import itertools

import numpy as np
import pytest
from classify_reference import classify_reference

from mublp.config import BudgetExceededError
from mublp.constructions import (
    SidonSet,
    _galois_ring,
    _index_tables,
    fourier_matrix,
    is_prime,
    prime_mubs,
    prime_power_mubs,
    sidon_row_system,
    sidon_search,
    sidon_verify,
)
from mublp.hadamard import (
    MubFamily,
    family_to_points,
    row_quotient_check,
    verify_family,
)
from mublp.torus import PointClass, difference

PRIMES = [p for p in range(2, 62) if is_prime(p)]


# ---------------------------------------------------------------------------
# Reference builders: the family formulas evaluated entry by entry, with a
# scalar field or ring trace per entry.  The constructors build the same
# matrices from a product table and a trace table.


class _Quotient:
    """Z_q[x]/(f) on coefficient tuples, constant term first; f is monic."""

    def __init__(self, modulus, q):
        self.modulus = list(modulus)
        self.q = q
        self.k = len(self.modulus) - 1

    def add(self, a, b):
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def mul(self, a, b):
        k, f = self.k, self.modulus
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = conv[i]
            for t in range(k + 1):
                conv[i - k + t] -= c * f[t]
        return tuple(c % self.q for c in conv[:k])


class _FieldReference(_Quotient):
    """GF(p^k) for odd p and k <= 3; element i has the base-p digits of i.

    The modulus is the first monic f of degree k, low coefficients in
    itertools.product order, without a root in F_p (any f when k = 1): for
    k <= 3 that is the first irreducible one.
    """

    def __init__(self, p, k):
        assert p % 2 and k <= 3
        for low in itertools.product(range(p), repeat=k):
            f = list(low) + [1]
            if k == 1 or all(sum(c * x**i for i, c in enumerate(f)) % p
                             for x in range(p)):
                break
        super().__init__(f, p)
        self.elements = [tuple(i // p**s % p for s in range(k)) for i in range(p**k)]

    def trace(self, a):
        """Absolute trace to F_p: the sum of the k Frobenius images a^(p^j)."""
        acc = img = tuple(a)
        for _ in range(self.k - 1):
            img = functools.reduce(self.mul, [img] * self.q)
            acc = self.add(acc, img)
        assert not any(acc[1:]), a
        return acc[0]


class _RingReference(_Quotient):
    """GR(4, k) arithmetic on general elements c = a + 2b, a and b in T.

    The modulus and the Teichmueller set T = [0, 1, xi, xi^2, ...] come from
    ``_galois_ring``; the trace is the Frobenius sum on general elements.
    """

    def __init__(self, k):
        modulus, powers = _galois_ring(k)
        super().__init__(modulus.tolist(), 4)
        self.teichmuller = [(0,) * k] + [tuple(r) for r in powers[: 2**k - 1].tolist()]
        self._by_mod2 = {tuple(c % 2 for c in t): t for t in self.teichmuller}
        self._trace_cache = {}

    def sub(self, a, b):
        return tuple((x - y) % 4 for x, y in zip(a, b))

    def double(self, a):
        return tuple((2 * x) % 4 for x in a)

    def _frobenius(self, c):
        # c = a + 2b with a, b Teichmueller; frobenius maps it to a^2 + 2 b^2
        a = self._by_mod2[tuple(x % 2 for x in c)]
        rest = self.sub(c, a)
        assert not any(x % 2 for x in rest)
        b = self._by_mod2[tuple((x // 2) % 2 for x in rest)]
        return self.add(self.mul(a, a), self.double(self.mul(b, b)))

    def trace(self, c):
        """Ring trace GR(4, k) -> Z_4: the sum of the k Frobenius images."""
        c = tuple(c)
        if c not in self._trace_cache:
            acc = img = c
            for _ in range(self.k - 1):
                img = self._frobenius(img)
                acc = self.add(acc, img)
            assert not any(acc[1:]), c
            self._trace_cache[c] = acc[0]
        return self._trace_cache[c]


def _prime_reference(p):
    mats = []
    l = np.arange(p).reshape(-1, 1)
    j = np.arange(p).reshape(1, -1)
    if p == 2:
        quartic = np.exp(2j * np.pi * np.arange(4) / 4)
        for k in range(2):
            mats.append(quartic[(l * (2 * j + k * l)) % 4])
    else:
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        for k in range(p):
            mats.append(roots[(k * l * l + j * l) % p])
    return MubFamily(d=p, hadamards=tuple(mats), construction="prime",
                     parameters={"p": p, "root_order": 4 if p == 2 else p})


def _prime_power_reference(p, k):
    d = p**k
    mats = []
    if p == 2:
        ref = _RingReference(k)
        ts = ref.teichmuller
        quartic = np.exp(2j * np.pi * np.arange(4) / 4)
        for a in ts:
            mat = np.empty((d, d), dtype=complex)
            for bi, b in enumerate(ts):
                coef = ref.add(a, ref.double(b))
                for xi, x in enumerate(ts):
                    mat[xi, bi] = quartic[ref.trace(ref.mul(coef, x))]
            mats.append(mat)
        root_order = 4
    else:
        gf = _FieldReference(p, k)
        trace = {}
        roots = np.exp(2j * np.pi * np.arange(p) / p)
        xs = gf.elements
        squares = [gf.mul(x, x) for x in xs]
        for a in xs:
            mat = np.empty((d, d), dtype=complex)
            ax2 = [gf.mul(a, sq) for sq in squares]
            for bi, b in enumerate(xs):
                for xi, x in enumerate(xs):
                    c = gf.add(ax2[xi], gf.mul(b, x))
                    if c not in trace:
                        trace[c] = gf.trace(c)
                    mat[xi, bi] = roots[trace[c]]
            mats.append(mat)
        root_order = p
    return MubFamily(d=d, hadamards=tuple(mats), construction="prime-power",
                     parameters={"p": p, "k": k, "root_order": root_order})


def _assert_same_family(got, want):
    assert got.construction == want.construction
    assert got.parameters == want.parameters
    assert len(got.hadamards) == len(want.hadamards)
    for a, b in zip(got.hadamards, want.hadamards):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_mubs_matches_reference_formula(p):
    _assert_same_family(prime_mubs(p), _prime_reference(p))


@pytest.mark.parametrize("p,k", [(p, k) for p in PRIMES for k in range(1, 7)
                                 if p**k <= 64])
def test_prime_power_mubs_matches_reference_loops(p, k):
    _assert_same_family(prime_power_mubs(p, k), _prime_power_reference(p, k))


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
    # every non-prime prime power up to the documented envelope of 64
    for p, k in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 5),
                 (7, 2), (2, 6)]:
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


def _product_table(ref, elements):
    index = {x: i for i, x in enumerate(elements)}
    return [[index[ref.mul(x, y)] for y in elements] for x in elements]


def test_galois_field_structure():
    prod, trace = _index_tables(3, 2)
    # x (index 3) squares to -1 (index 2): the modulus is x^2 + 1, the least
    # irreducible one in constant-first lexicographic order
    assert prod[3, 3] == 2
    for p, k in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        n = p**k
        prod, trace = _index_tables(p, k)
        ref = _FieldReference(p, k)
        assert prod.tolist() == _product_table(ref, ref.elements), (p, k)
        assert trace.tolist() == [ref.trace(x) for x in ref.elements], (p, k)
        # every nonzero element has a multiplicative order dividing p^k - 1
        for x in range(1, n):
            acc, order = x, 1
            while acc != 1:
                acc, order = prod[acc, x], order + 1
            assert (n - 1) % order == 0, (p, k, x)
        # the trace is additive in the digits and lands in F_p
        plus = [[ref.elements.index(ref.add(x, y)) for y in ref.elements]
                for x in ref.elements]
        assert ((trace[plus] - trace[:, None] - trace) % p == 0).all()
        assert ((0 <= trace) & (trace < p)).all()


def test_galois_field_rejects_bad_input():
    # the tables are private; the public constructors refuse a bad field
    with pytest.raises(ValueError):
        prime_power_mubs(6, 1)
    with pytest.raises(ValueError):
        prime_power_mubs(3, 0)
    with pytest.raises(ValueError):
        prime_mubs(9)


def test_galois_ring_teichmuller():
    modulus, _ = _galois_ring(3)
    # Hensel lift of x^3 + x^2 + 1 (the least primitive cubic, constant-first
    # order); a degree-3 factor of x^7 - 1 over Z_4
    assert modulus.tolist() == [3, 2, 3, 1]
    assert (modulus % 2).tolist() == [1, 0, 1, 1]
    ref = _RingReference(3)
    assert len(ref.teichmuller) == 8
    # trace lands in Z_4 and is additive over doubling
    for t in ref.teichmuller:
        tr = ref.trace(t)
        assert 0 <= tr < 4
        assert ref.trace(ref.double(t)) == (2 * tr) % 4
    for k in range(1, 7):
        ref = _RingReference(k)
        ts = ref.teichmuller
        one, xi = ts[1], ts[1 + 1 % (2**k - 1)]      # ts[1 + e] = xi^e
        # the lift is monic, xi has order 2^k - 1, and T is a transversal mod 2
        assert ref.modulus[-1] == 1
        assert len(set(ts)) == 2**k and ref.mul(ts[-1], xi) == one
        assert len({tuple(c % 2 for c in t) for t in ts}) == 2**k
        # the builder's tables add exponents and take the trace of
        # multiplication; the reference multiplies polynomials and runs the
        # Frobenius on general ring elements
        prod, trace = _index_tables(2, k)
        assert prod.tolist() == _product_table(ref, ts), k
        assert trace.tolist() == [ref.trace(t) for t in ts], k


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
