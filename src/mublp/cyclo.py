"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are stored in the power basis 1, zeta, ..., zeta^(phi(m)-1) after
reduction modulo the m-th cyclotomic polynomial Phi_m, so two elements of the
same order are equal iff their coefficient vectors are identical.
Coefficients are plain Python integers and cannot overflow.

This is what makes torus-point classification exact: a point whose
coordinates are rationals a_j/m gives z = 1 + sum zeta_m^(a_j), and the
squared modulus z * conj(z) is again a cyclotomic integer that can be
compared to 0 or to the dimension d with no tolerance at all.  The package
classifies with the array kernel ``torus.exact_codes``, which compares the
Galois conjugates of z * conj(z) instead; ``CycloInt`` arithmetic is the
scalar reference that the tests check that kernel against.

This module owns reduction modulo a monic polynomial: ``_power_rows`` gives
x^e mod f (and mod q), the powers of f's companion matrix.  With f = Phi_m
they are, as Python ints, the rows ``CycloInt`` folds by; ``constructions``
builds its field and Galois-ring tables from them.  The tables of the last
few orders are cached.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class IntPolynomial:
    """Dense integer polynomial; ``coeffs[i]`` multiplies x**i.

    The leading stored coefficient is nonzero; ``()`` is the zero polynomial.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @staticmethod
    def from_coeffs(seq) -> "IntPolynomial":
        coeffs = [int(c) for c in seq]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return IntPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def divexact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Divide by a monic divisor, requiring a zero remainder."""
        if divisor.degree < 0 or divisor.coeffs[-1] != 1:
            raise ValueError("divisor must be monic")
        rem = list(self.coeffs)
        dd = divisor.degree
        quot = [0] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            q = rem[i]
            if q:
                quot[i - dd] = q
                for j, b in enumerate(divisor.coeffs):
                    rem[i - dd + j] -= q * b
        if any(rem):
            raise ValueError("division is not exact")
        return IntPolynomial.from_coeffs(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial Phi_m, degree phi(m).

    Computed by exact division of x**m - 1 by the product of Phi_d over the
    proper divisors d of m.
    """
    if m < 1:
        raise ValueError("order must be a positive integer")
    poly = IntPolynomial.from_coeffs([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            poly = poly.divexact(cyclotomic_polynomial(d))
    return poly


def euler_phi(m: int) -> int:
    return cyclotomic_polynomial(m).degree


def _power_rows(f, count: int, q: int | None = None) -> np.ndarray:
    """The rows x^e mod f (and mod q, if given), e < count, constant term first.

    f is monic of degree k, constant term first.  Each row is the previous one
    times x with x^k replaced by -(f_0 + f_1 x + ... + f_(k-1) x^(k-1)): the
    powers of the companion matrix of f applied to 1.
    """
    k = len(f) - 1
    low = np.asarray(f[:k], dtype=np.int64)
    rows = np.zeros((count, k), dtype=np.int64)
    row = np.eye(k, dtype=np.int64)[0]
    for e in range(count):
        rows[e] = row
        row = np.concatenate(([0], row[:-1])) - row[-1] * low
        if q is not None:
            row %= q
    return rows


@lru_cache(maxsize=8)
def _zeta_power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of zeta_m**t for t = 0 .. max(m, 2*phi(m)-1)-1.

    Enough rows to fold any product of two reduced elements and to map any
    exponent taken mod m: row t is x^t mod Phi_m, as Python ints (Phi_m
    divides x^m - 1, so row t + m is row t).  The tables of the last few
    orders stay cached.
    """
    size = max(m, 2 * euler_phi(m) - 1)
    rows = _power_rows(cyclotomic_polynomial(m).coeffs, size).tolist()
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class CycloInt:
    """An element of Z[zeta_m] in reduced power-basis coordinates."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.order):
            raise ValueError(
                f"need {euler_phi(self.order)} coordinates for order {self.order}"
            )

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def cyclo_from_exponent(m: int, a: int) -> CycloInt:
    """zeta_m**a, reduced (a is taken mod m)."""
    return CycloInt(m, _zeta_power_rows(m)[a % m])


def cyclo_from_counts(m: int, counts) -> CycloInt:
    """sum_t counts[t] * zeta_m**t for t = 0 .. m-1."""
    rows = _zeta_power_rows(m)
    phi_m = euler_phi(m)
    out = [0] * phi_m
    for t, mult in enumerate(counts):
        if mult:
            row = rows[t]
            for i in range(phi_m):
                out[i] += mult * row[i]
    return CycloInt(m, tuple(out))


def _require_same_order(x: CycloInt, y: CycloInt) -> None:
    if x.order != y.order:
        raise ValueError(f"order mismatch: {x.order} != {y.order}")


def cyclo_add(x: CycloInt, y: CycloInt) -> CycloInt:
    _require_same_order(x, y)
    return CycloInt(x.order, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


def cyclo_mul(x: CycloInt, y: CycloInt) -> CycloInt:
    _require_same_order(x, y)
    phi_m = len(x.coeffs)
    conv = [0] * (2 * phi_m - 1)
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                conv[i + j] += a * b
    rows = _zeta_power_rows(x.order)
    out = list(conv[:phi_m])
    for t in range(phi_m, len(conv)):
        mult = conv[t]
        if mult:
            row = rows[t]
            for i in range(phi_m):
                out[i] += mult * row[i]
    return CycloInt(x.order, tuple(out))


def cyclo_conj(x: CycloInt) -> CycloInt:
    """Complex conjugation, zeta |-> zeta**-1."""
    m = x.order
    rows = _zeta_power_rows(m)
    phi_m = len(x.coeffs)
    out = [0] * phi_m
    for i, a in enumerate(x.coeffs):
        if a:
            row = rows[(m - i) % m]
            for j in range(phi_m):
                out[j] += a * row[j]
    return CycloInt(m, tuple(out))


def cyclo_equals_integer(x: CycloInt, n: int) -> bool:
    """Exact test x == n in Z[zeta_m]; no tolerance involved."""
    if x.coeffs[0] != n:
        return False
    return not any(x.coeffs[1:])


def cyclo_embed(x: CycloInt) -> complex:
    """Standard complex embedding zeta_m = exp(2*pi*i/m), in floating point."""
    m = x.order
    return sum(
        a * cmath.exp(2j * cmath.pi * i / m) for i, a in enumerate(x.coeffs) if a
    )
