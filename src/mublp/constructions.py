"""Known constructions: Fourier matrices, complete MUB families, Sidon sets.

Complete families of d+1 mutually unbiased bases exist whenever d is a prime
or a prime power.  The families built here are the standard ones from the
literature:

  * odd d = p^k:        H'_a[x, b] = w^(tr(a*x^2 + b*x)) over GF(p^k) with
                        the absolute trace tr and w = e^(2*pi*i/p)
                        (Wootters-Fields; for k = 1, H'_a[x, b] =
                        w^(a*x^2 + b*x) and a = 0 is the Fourier matrix);
  * d = 2^k:            H'_a[x, b] = i^(Tr((a + 2*b)*x)) over the Galois ring
                        GR(4, k), rows/columns indexed by the Teichmueller
                        set T, Tr the ring trace (Klappenecker-Roetteler).

Both are built from two tables over the index set (the GF(p^k) elements, or
T, whose nonzero elements are powers of xi, so products add exponents): the
product table and the trace of each element.  The trace is additive, so
every phase is tr(a*x^2) + tr(b*x) mod p, or Tr(a*x) + 2 Tr(b*x) mod 4, and
each matrix is one numpy gather from the table of tr(a*x).  A prime p is the
case k = 1.

These formulas are treated as external input: every family is verified
in full (Hadamard + pairwise unbiasedness) before being returned, and a
verification failure raises instead of returning a bad family.

The a = 0 matrix comes first so the first matrix has an
all-ones first column, matching the dephasing convention that the first
associated torus point is the origin.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import BudgetExceededError, DEFAULT_SIDON_BUDGET
from .cyclo import IntPolynomial
from .hadamard import MubFamily, verify_family


class ConstructionError(RuntimeError):
    """A constructed family failed verification (an implementation bug)."""


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def fourier_matrix(n: int) -> np.ndarray:
    """The n x n Fourier matrix, entry (j, k) = e^(2*pi*i*j*k/n), 0-based."""
    if n < 1:
        raise ValueError("dimension must be positive")
    j = np.arange(n)
    return np.exp(2j * np.pi * np.outer(j, j) / n)


# ---------------------------------------------------------------------------
# GF(p^k)


def _pad(a, k: int) -> tuple[int, ...]:
    return tuple(a) + (0,) * (k - len(a))


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
    k = len(f) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            for t in range(k + 1):
                prod[i - k + t] = (prod[i - k + t] - c * f[t]) % p
    return _poly_trim(prod[:k])


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        # a mod b
        inv_lead = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            c = (a[-1] * inv_lead) % p
            shift = len(a) - len(b)
            for t in range(len(b)):
                a[shift + t] = (a[shift + t] - c * b[t]) % p
            _poly_trim(a)
        a, b = b, a
    return a


def _prime_divisors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f: list[int], p: int) -> bool:
    """f monic of degree k over F_p: x^(p^k) == x mod f and the gcd tests pass."""
    k = len(f) - 1
    if k == 1:
        return True
    checkpoints = {k // q for q in _prime_divisors(k)}
    r = [0, 1]  # x
    for i in range(1, k + 1):
        r = _poly_powmod(r, p, f, p)
        if i in checkpoints:
            diff = list(r)
            while len(diff) < 2:
                diff.append(0)
            diff[1] = (diff[1] - 1) % p
            g = _poly_gcd(diff, f, p)
            if len(_poly_trim(list(g))) > 1:
                return False
    return _poly_trim(list(r)) == [0, 1]


class GaloisField:
    """GF(p^k) with elements as little-endian coefficient tuples mod p.

    The modulus is the least monic irreducible polynomial of degree k in
    lexicographic coefficient order (constant term first), so fields are
    reproducible across runs.  Element i has digits (i % p, (i//p) % p, ...).
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = self._find_modulus()
        self._mod_list = list(self.modulus.coeffs)
        self.elements = [self._digits(i) for i in range(self.size)]

    def _digits(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(i % self.p)
            i //= self.p
        return tuple(out)

    def _find_modulus(self) -> IntPolynomial:
        for low in itertools.product(range(self.p), repeat=self.k):
            f = list(low) + [1]
            if _is_irreducible(f, self.p):
                return IntPolynomial.from_coeffs(f)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple[int, ...]:
        return _pad(_poly_mulmod(list(a), list(b), self._mod_list, self.p), self.k)

    def pow(self, a, e: int) -> tuple[int, ...]:
        return _pad(_poly_powmod(list(a), e, self._mod_list, self.p), self.k)

    def trace(self, a) -> int:
        """Absolute trace to F_p: sum of the k Frobenius images."""
        a = tuple(a)
        acc = frob = a
        for _ in range(self.k - 1):
            frob = self.pow(frob, self.p)
            acc = self.add(acc, frob)
        if any(acc[1:]):
            raise RuntimeError(f"trace of {a} did not land in the prime field")
        return acc[0]


# ---------------------------------------------------------------------------
# GR(4, k) for characteristic 2


class _GaloisRing4:
    """The Teichmueller set of the Galois ring GR(4, k) = Z_4[x]/(f).

    f is the Hensel lift (via the even/odd-part squaring identity) of the
    least primitive polynomial of degree k over F_2, so xi = x has
    multiplicative order 2^k - 1 and the Teichmueller set
    T = {0, 1, xi, ..., xi^(2^k - 2)} maps bijectively onto GF(2^k) mod 2.
    ``traces[i]`` is the ring trace of ``teichmuller[i]``: on T the Frobenius
    is squaring, so Tr(xi^e) is the sum of xi^(e * 2^i mod (2^k - 1)), i < k.
    """

    def __init__(self, k: int):
        self.k = k
        self.modulus = self._hensel_lift(self._find_primitive_base(k))
        one = _pad([1], k)
        teich = [(0,) * k, one]
        for _ in range(2**k - 2):
            teich.append(self._times_xi(teich[-1]))
        if len(set(teich)) != 2**k or self._times_xi(teich[-1]) != one:
            raise RuntimeError("Teichmueller set construction failed")
        if len({tuple(c % 2 for c in t) for t in teich}) != 2**k:
            raise RuntimeError("Teichmueller set is not a transversal mod 2")
        self.teichmuller = teich
        n = 2**k - 1
        self.traces = [0]
        for e in range(n):
            images = [teich[1 + (e << i) % n] for i in range(k)]
            acc = [sum(column) % 4 for column in zip(*images)]
            if any(acc[1:]):
                raise RuntimeError(f"trace of {teich[1 + e]} did not land in Z_4")
            self.traces.append(acc[0])

    def _times_xi(self, a) -> tuple[int, ...]:
        # the lifted modulus is monic, so reduction mod f works over Z_4
        return _pad(_poly_mulmod(list(a), [0, 1], self.modulus, 4), self.k)

    @staticmethod
    def _find_primitive_base(k: int) -> list[int]:
        order = 2**k - 1
        qs = _prime_divisors(order) if order > 1 else []
        for low in itertools.product(range(2), repeat=k):
            f = list(low) + [1]
            if f[0] == 0 and k > 1:
                continue  # x divides f
            if not _is_irreducible(f, 2):
                continue
            x = [0, 1] if k > 1 else [(-f[0]) % 2]
            if _poly_trim(_poly_powmod(x, order, f, 2)) != [1]:
                continue
            if any(
                _poly_trim(_poly_powmod(x, order // q, f, 2)) == [1] for q in qs
            ):
                continue
            return f
        raise RuntimeError("no primitive polynomial found")  # unreachable

    @staticmethod
    def _hensel_lift(base: list[int]) -> list[int]:
        """Monic lift f over Z_4 with f == base mod 2 and f | x^(2^k-1) - 1."""
        k = len(base) - 1
        even = IntPolynomial.from_coeffs(base[0::2])
        odd = IntPolynomial.from_coeffs(base[1::2])
        y = IntPolynomial.from_coeffs([0, 1])
        g = even * even
        oy = y * (odd * odd)
        size = max(len(g.coeffs), len(oy.coeffs))
        coeffs = [0] * size
        for i, c in enumerate(g.coeffs):
            coeffs[i] += c
        for i, c in enumerate(oy.coeffs):
            coeffs[i] -= c
        sign = 1 if k % 2 == 0 else -1
        lifted = [(sign * c) % 4 for c in coeffs]
        lifted = lifted[: k + 1] + [0] * (k + 1 - len(lifted))
        if lifted[k] != 1:
            raise RuntimeError("Hensel lift is not monic")
        if any((lifted[i] - base[i]) % 2 for i in range(k + 1)):
            raise RuntimeError("Hensel lift does not reduce to the base polynomial")
        return lifted


# ---------------------------------------------------------------------------
# MUB families


def _verified(family: MubFamily) -> MubFamily:
    check = verify_family(family)
    if not check.ok:
        raise ConstructionError(
            f"constructed family failed verification: {'; '.join(check.failures)}"
        )
    return family


def _index_tables(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The product table and the trace of every element of the index set of
    the d = p^k family: GF(p^k) for odd p, the Teichmueller set of GR(4, k)
    for p = 2.  Index i is ``GaloisField.elements[i]`` or
    ``_GaloisRing4.teichmuller[i]``.
    """
    if p == 2:
        ring = _GaloisRing4(k)
        n = 2**k - 1
        # T[1 + e] = xi^e, so nonzero products add exponents mod 2^k - 1
        e = np.arange(n)
        prod = np.zeros((n + 1, n + 1), dtype=np.int64)
        prod[1:, 1:] = 1 + (e[:, None] + e) % n
        return prod, np.array(ring.traces)
    gf = GaloisField(p, k)
    index = {x: i for i, x in enumerate(gf.elements)}
    prod = np.array([[index[gf.mul(x, y)] for y in gf.elements] for x in gf.elements])
    return prod, np.array([gf.trace(x) for x in gf.elements])


def _trace_family(p: int, k: int) -> tuple[tuple[np.ndarray, ...], int]:
    """The d = p^k matrices H'_a, a = 0 first, and their root order.

    The trace is additive, so tr(a*x^2 + b*x) = tr(a*x^2) + tr(b*x) and
    Tr((a + 2b)*x) = Tr(a*x) + 2 Tr(b*x): every phase is a sum of two
    entries of the table tr(a*x), and every matrix is one gather.
    """
    prod, trace = _index_tables(p, k)
    tr = trace[prod]        # tr[a, x] = trace(a*x); prod[x, x] indexes x^2
    if p == 2:
        order, phase = 4, tr[:, :, None] + 2 * tr               # [a, x, b]
    else:
        order, phase = p, tr[:, np.diag(prod), None] + tr       # [a, x, b]
    phase %= order
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    return tuple(roots[phase]), order


def prime_mubs(p: int) -> MubFamily:
    """The p Hadamard matrices of a complete MUB family in prime dimension.

    Together with the implicit identity basis this is p + 1 mutually unbiased
    bases.  The a = 0 matrix (the Fourier matrix) comes first.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    mats, order = _trace_family(p, 1)
    family = MubFamily(
        d=p,
        hadamards=mats,
        construction="prime",
        parameters={"p": p, "root_order": order},
    )
    return _verified(family)


def prime_power_mubs(p: int, k: int) -> MubFamily:
    """Complete MUB family for d = p^k via field/Galois-ring traces.

    Returns d Hadamard matrices (d + 1 bases with the identity); the a = 0
    matrix comes first.  Requires p prime and p^k <= 64.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("exponent must be >= 1")
    d = p**k
    if d > 64:
        raise ValueError(f"d = {d} exceeds the documented envelope 64")
    mats, order = _trace_family(p, k)
    family = MubFamily(
        d=d,
        hadamards=mats,
        construction="prime-power",
        parameters={"p": p, "k": k, "root_order": order},
    )
    return _verified(family)


# ---------------------------------------------------------------------------
# Sidon sets


@dataclass(frozen=True)
class SidonSet:
    """Residues mod ``modulus`` whose nonzero pairwise differences are distinct."""

    modulus: int
    elements: tuple[int, ...]


def sidon_verify(s: SidonSet) -> bool:
    """True iff all ordered nonzero differences are pairwise distinct mod n."""
    n = s.modulus
    seen = set()
    for a in s.elements:
        for b in s.elements:
            if a == b:
                continue
            diff = (a - b) % n
            if diff in seen:
                return False
            seen.add(diff)
    return True


def sidon_search(d: int, budget: int = DEFAULT_SIDON_BUDGET) -> SidonSet | None:
    """Lexicographically least d-element Sidon set mod d^2, or None.

    Deterministic backtracking over 0 = a_1 < a_2 < ... < a_d < d^2 with the
    difference set maintained incrementally.  ``budget`` caps the number of
    candidate extensions tried; running out raises BudgetExceededError, which
    is distinct from an exhausted search (None).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    n = d * d
    if d == 1:
        return SidonSet(1, (0,))
    chosen = [0]
    used: set[int] = set()
    nodes = 0

    def extend(start: int) -> bool:
        nonlocal nodes
        if len(chosen) == d:
            return True
        for v in range(start, n):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"sidon search exceeded {budget} nodes at d={d}"
                )
            fresh: set[int] = set()
            ok = True
            for a in chosen:
                delta = (v - a) % n
                rev = (a - v) % n
                if delta == rev or delta in used or rev in used \
                        or delta in fresh or rev in fresh:
                    ok = False
                    break
                fresh.add(delta)
                fresh.add(rev)
            if not ok:
                continue
            chosen.append(v)
            used.update(fresh)
            if extend(v + 1):
                return True
            chosen.pop()
            used.difference_update(fresh)
        return False

    if extend(1):
        return SidonSet(n, tuple(chosen))
    return None


def sidon_row_system(s: SidonSet) -> np.ndarray:
    """The d x d^2 system of Fourier-matrix rows indexed by a Sidon set mod d^2."""
    d = len(s.elements)
    if s.modulus != d * d:
        raise ValueError(f"modulus {s.modulus} is not d^2 = {d * d}")
    f = fourier_matrix(s.modulus)
    return f[list(s.elements), :]
