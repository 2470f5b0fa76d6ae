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

Both tables come from the rows x^e modulo the field or ring modulus (the
powers of its companion matrix, from ``cyclo._power_rows``, which owns
reduction by a monic polynomial): products of coefficient rows reduce by
them, and the trace of an element is the trace of multiplication by it, so
tr(x^t) is the sum over s of the x^s coefficient of x^(t+s).

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
from .cyclo import _power_rows
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


# ---------------------------------------------------------------------------
# Field and Galois-ring tables from the powers of x


def _power_traces(rows: np.ndarray, count: int) -> np.ndarray:
    """The trace of multiplication by x^t, t < count, unreduced.

    Multiplication by x^t sends x^s to x^(t+s), so its trace is the sum over
    s < k of the x^s coefficient of x^(t+s); ``rows`` reaches x^(count+k-2).
    """
    s = np.arange(rows.shape[1])
    return rows[np.arange(count)[:, None] + s, s].sum(axis=1)


def _galois_ring(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The modulus f of GR(4, k) = Z_4[x]/(f) and the rows xi^e mod (f, 4),
    e < 2^k + k - 2, where xi = x.

    The base polynomial g is the first monic degree-k polynomial over F_2,
    low coefficients in ``itertools.product`` order, in which x has order
    exactly 2^k - 1; such a g is primitive, hence irreducible.  With
    g(x) = e(x^2) + x o(x^2), the Hensel lift f(y) = +-(e(y)^2 - y o(y)^2)
    mod 4 is monic, reduces to g mod 2 and divides y^(2^k - 1) - 1, so xi has
    order 2^k - 1 and the Teichmueller set is {0, 1, xi, ..., xi^(2^k - 2)}.
    """
    n = 2**k - 1
    for low in itertools.product(range(2), repeat=k):
        g = np.array(low + (1,))
        rows = _power_rows(g, n + 1, q=2)
        is_one = (rows == rows[0]).all(axis=1)          # x^e == 1
        if is_one[n] and not is_one[1:n].any():
            break
    e, o = np.convolve(g[0::2], g[0::2]), np.convolve(g[1::2], g[1::2])
    f = np.zeros(k + 1, dtype=np.int64)
    f[: len(e)] += e
    f[1 : 1 + len(o)] -= o
    f = (-1) ** k * f % 4
    return f, _power_rows(f, n + k - 1, q=4)


def _index_tables(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The product table and the trace of every element of the index set of
    the d = p^k family.

    For p = 2 the index set is the Teichmueller set of GR(4, k): index 0 is
    zero and index 1 + e is xi^e (``_galois_ring``), so nonzero products add
    exponents mod 2^k - 1, and Tr(xi^e) is the trace of multiplication.

    For odd p it is GF(p^k): element i has the base-p digits of i as its
    coefficients, constant term first.  The modulus is the first monic
    degree-k f, low coefficients in ``itertools.product`` order, whose
    product table has no zero outside row 0 and column 0, i.e. the first
    irreducible one (x^2 + 1 for GF(9)).  The absolute trace is the trace of
    multiplication, additive in the digits.
    """
    if p == 2:
        n = 2**k - 1
        e = np.arange(n)
        prod = np.zeros((n + 1, n + 1), dtype=np.int64)
        prod[1:, 1:] = 1 + (e[:, None] + e) % n
        _, powers = _galois_ring(k)
        return prod, np.concatenate(([0], _power_traces(powers, n) % 4))
    place = p ** np.arange(k)
    digits = np.arange(p**k)[:, None] // place % p                       # [i, s]
    for low in itertools.product(range(p), repeat=k):
        rows = _power_rows(low + (1,), 2 * k - 1, q=p)
        # x^s x^u = x^(s+u): digit rows a, b multiply to sum a_s b_u rows[s+u]
        pair = rows[np.add.outer(np.arange(k), np.arange(k))]             # [s, u, c]
        prod = (np.einsum("is,ju,suc->ijc", digits, digits, pair) % p) @ place
        if prod[1:, 1:].all():
            return prod, digits @ _power_traces(rows, k) % p
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# MUB families


def _verified(family: MubFamily) -> MubFamily:
    check = verify_family(family)
    if not check.ok:
        raise ConstructionError(
            f"constructed family failed verification: {'; '.join(check.failures)}"
        )
    return family


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
