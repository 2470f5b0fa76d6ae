"""Witness functions and the linear-programming bound they certify.

An even trigonometric polynomial h with nonnegative Fourier coefficients,
hhat(0) = 1, and h <= 0 outside the allowed set bounds any point set B whose
pairwise differences stay inside the allowed set: |B| <= h(0).  The proof
compares two evaluations of

    S = sum_gamma |Bhat(gamma)|^2 * hhat(gamma)
      = sum_(j,k) h(b_j - b_k),

giving |B|^2 <= S <= h(0) * |B|.

The canonical witness here, for the set ORT_d union UB_d, is

    h(x) = |S(x)|^2 (|S(x)|^2 - d) / ((d-1) d),   S(x) = 1 + sum_j e^(2 pi i x_j),

which vanishes on ORT_d and UB_d by construction, has h(0) = d^2, and whose
Fourier coefficients are exact nonnegative rationals: expanding |S|^4 and
|S|^2 over the exponent vectors e_j - e_k + e_q - e_s (convention e_0 = 0)
gives the coefficient (N4(gamma) - d N2(gamma)) / ((d-1) d), where N4 and N2
count representations.  This yields the r <= d^2 bound for systems of
mutually orthogonal-or-unbiased vectors.

TrigPolynomial also hosts grid-mode polynomials: finitely supported
functions on Z_m^(d-1), used both for LP dual certificates (coefficients on
characters) and pseudo-MUB candidate functions (weights on points).

``delsarte_bound`` takes its samples as integer residue rows on one grid,
such as the ORT/UB rows of ``torus.ort_ub_rows``, and evaluates the witness
at those rows alone by a direct cosine sum (``_sample_values``); a witness
whose coefficients are invariant under coordinate permutations is evaluated
once per coordinate multiset of the samples.  ``_transform``, one FFT over
the whole grid cube, serves ``lp.pseudo_mub_check``, whose transform
condition covers every point of the cube.  ``eval_trig`` is the scalar
reference, and ``check_point_set`` evaluates at family points off any grid.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .config import DEFAULT_EPS
from .torus import PointClass, TorusPoint, _ordering_counts, classify


class InversionMismatchError(RuntimeError):
    """Spectral and spatial sums disagree (a support or evenness bug)."""


@dataclass(eq=False)
class TrigPolynomial:
    """A finitely supported exponent-vector -> coefficient map.

    Continuous mode (``grid is None``): exponents in Z^dim, coefficients are
    exact ``Fraction``s or floats.  Grid mode: exponents are residues in
    [0, m)^dim and coefficients are floats.  Zero coefficients are never
    stored; ``even`` is verified by scan at construction.
    """

    dim: int
    terms: dict
    grid: int | None = None
    even: bool = False

    @staticmethod
    def from_terms(dim: int, terms, grid: int | None = None) -> "TrigPolynomial":
        canon: dict = {}
        for gamma, coeff in dict(terms).items():
            if len(gamma) != dim:
                raise ValueError(f"exponent {gamma} does not have dim {dim}")
            if grid is not None:
                gamma = tuple(int(g) % grid for g in gamma)
            else:
                gamma = tuple(int(g) for g in gamma)
            if coeff:
                canon[gamma] = canon.get(gamma, 0) + coeff
        canon = {g: c for g, c in canon.items() if c}
        poly = TrigPolynomial(dim=dim, terms=canon, grid=grid)
        poly.even = poly._scan_even()
        return poly

    def _scan_even(self) -> bool:
        for gamma, coeff in self.terms.items():
            if self.grid is not None:
                neg = tuple((-g) % self.grid for g in gamma)
            else:
                neg = tuple(-g for g in gamma)
            if self.terms.get(neg) != coeff:
                return False
        return True

    def constant_term(self):
        return self.terms.get((0,) * self.dim, 0)

    def value_at_zero(self):
        """Exact when all coefficients are Fractions/ints."""
        return sum(self.terms.values())

    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.terms.values())


def eval_h(d: int, point: TorusPoint) -> float:
    """The canonical witness evaluated in floating point."""
    if point.dim != d - 1:
        raise ValueError(f"point has dim {point.dim}, expected {d - 1}")
    s = 1.0 + sum(np.exp(2j * np.pi * x) for x in point.as_floats())
    v = abs(s) ** 2
    return v * (v - d) / ((d - 1) * d)


@lru_cache(maxsize=None)
def expand_h(d: int) -> TrigPolynomial:
    """Exact Fourier expansion of the canonical witness for dimension d.

    Enumerates all d^4 exponent quadruples, so the documented range is
    2 <= d <= 12.  Guarantees constant term exactly 1 and all coefficients
    nonnegative rationals; the coefficients sum to h(0) = d^2.
    """
    if not 2 <= d <= 12:
        raise ValueError("supported range is 2 <= d <= 12")
    n = d - 1
    vecs = [(0,) * n]
    for j in range(n):
        e = [0] * n
        e[j] = 1
        vecs.append(tuple(e))
    diffs = [
        tuple(a - b for a, b in zip(vecs[j], vecs[k]))
        for j in range(d)
        for k in range(d)
    ]
    n2 = Counter(diffs)
    n4 = Counter(
        tuple(a + b for a, b in zip(g1, g2)) for g1 in diffs for g2 in diffs
    )
    denom = (d - 1) * d
    terms = {}
    for gamma, c4 in n4.items():
        coeff = Fraction(c4 - d * n2.get(gamma, 0), denom)
        if coeff < 0:
            raise AssertionError(f"negative coefficient at {gamma}: {coeff}")
        if coeff:
            terms[gamma] = coeff
    poly = TrigPolynomial.from_terms(n, terms)
    if poly.constant_term() != 1:
        raise AssertionError("constant term must be exactly 1")
    return poly


def _grid_residues(point: TorusPoint, grid: int) -> tuple[int, ...]:
    if not point.is_exact or grid % point.denominator != 0:
        raise ValueError(
            f"grid mode needs an exact point with denominator dividing {grid}"
        )
    scale = grid // point.denominator
    return tuple((a * scale) % grid for a in point.coords)


def eval_trig(t: TrigPolynomial, point: TorusPoint):
    """Evaluate sum_gamma c_gamma e^(2 pi i <gamma, x>) at a torus point.

    Even polynomials return the real part (the imaginary part must be within
    ``DEFAULT_EPS`` times the coefficient mass, and is discarded); others
    return a complex value.
    """
    if point.dim != t.dim:
        raise ValueError(f"point has dim {point.dim}, expected {t.dim}")
    total = 0j
    if t.grid is not None:
        m = t.grid
        residues = _grid_residues(point, m)
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        for gamma, coeff in t.terms.items():
            phase = sum(g * r for g, r in zip(gamma, residues)) % m
            total += complex(coeff) * roots[phase]
    else:
        xs = point.as_floats()
        for gamma, coeff in t.terms.items():
            total += complex(coeff) * np.exp(
                2j * np.pi * sum(g * x for g, x in zip(gamma, xs))
            )
    if t.even:
        scale = max(1.0, sum(abs(complex(c)) for c in t.terms.values()))
        if abs(total.imag) > DEFAULT_EPS * scale:
            raise InversionMismatchError(
                f"even polynomial produced imaginary part {total.imag:.3g}"
            )
        return total.real
    return total


@lru_cache(maxsize=8)
def _support_matrix(t: TrigPolynomial):
    """Sorted support, float coefficients and exact h(0), cached per object:
    t's terms must not change after the first call."""
    gammas = sorted(t.terms.keys())
    g = np.array(gammas, dtype=float)
    c = np.array([float(t.terms[gamma]) for gamma in gammas])
    return g, c, t.value_at_zero()


def _exponents(t: TrigPolynomial) -> np.ndarray:
    """t's exponents as a (len(terms), dim) int64 matrix, in term order."""
    return np.array(list(t.terms), dtype=np.int64).reshape(len(t.terms), t.dim)


def _transform(t: TrigPolynomial, grid: int) -> np.ndarray:
    """t(y / grid) at every y of the (grid,)*dim cube: the coefficients added in
    at their exponents mod grid, then one unnormalised FFT."""
    a = np.zeros((grid,) * t.dim, dtype=complex)
    np.add.at(a, tuple((_exponents(t) % grid).T), [float(c) for c in t.terms.values()])
    return np.fft.ifftn(a, norm="forward")


# phase entries per block of ``_sample_values``
_SAMPLE_BLOCK = 1 << 18


def _sample_values(t: TrigPolynomial, rows: np.ndarray, grid: int) -> np.ndarray:
    """Re t(y / grid) at each residue row y: sum_gamma c_gamma cos(2 pi p / grid)
    with the integer phase p = <gamma, y> mod grid.

    The cosines come from one table of the grid's angles; rows go in blocks
    of about _SAMPLE_BLOCK phase entries, so memory does not grow with the
    number of rows.
    """
    gammas = _exponents(t) % grid
    coeffs = np.array([float(c) for c in t.terms.values()])
    cosines = np.cos(2 * np.pi * np.arange(grid) / grid)
    values = np.empty(len(rows))
    step = max(1, _SAMPLE_BLOCK // len(coeffs))
    for lo in range(0, len(rows), step):
        phases = (rows[lo : lo + step] @ gammas.T) % grid
        values[lo : lo + step] = cosines[phases] @ coeffs
    return values


def _multiset_groups(rows: np.ndarray):
    """The rows of a nonempty integer matrix grouped by coordinate multiset.

    Returns an order of the rows that lists each group contiguously, the
    start of each group in that order, and each group's sorted row; the
    groups ascend lexicographically by sorted row.
    """
    ranked = np.sort(rows, axis=1)
    order = np.lexsort(ranked.T[::-1])
    ranked = ranked[order]
    starts = np.flatnonzero(np.r_[True, (ranked[1:] != ranked[:-1]).any(axis=1)])
    return order, starts, ranked[starts]


def _permutation_invariant(t: TrigPolynomial) -> bool:
    """Whether every ordering of each exponent is in t's support, with exactly
    the coefficient of the exponent: then t(y) depends only on the
    coordinate multiset of y."""
    order, starts, classes = _multiset_groups(_exponents(t))
    sizes = np.diff(np.append(starts, len(order)))
    if not np.array_equal(sizes, _ordering_counts(classes)):
        return False
    coeffs = np.array(list(t.terms.values()), dtype=object)[order]
    return bool(np.all(coeffs == np.repeat(coeffs[starts], sizes)))


@dataclass(frozen=True)
class BoundReport:
    """Both evaluations of S plus the slack of the two bounding inequalities."""

    cardinality: int
    s_spectral: float
    s_spatial: float
    bound: object             # h(0)/hhat(0); Fraction when the witness is exact
    slack_lower: float        # S - |B|^2              (>= 0 when hhat >= 0)
    slack_upper: float        # h(0)|B| - S            (>= 0 when B avoids A_d)
    max_offdiagonal: float    # worst h(b_j - b_k), j != k

    @property
    def hypothesis_ok(self) -> bool:
        return self.slack_upper >= -1e-9 * max(1.0, abs(self.s_spatial))


def check_point_set(
    points, t: TrigPolynomial, eps: float = DEFAULT_EPS
) -> BoundReport:
    """Replay the bound for a finite point set against an even witness.

    With E[j, gamma] = e(<gamma, b_j>) over the witness support, S is computed
    spectrally as sum_gamma |sum_j E[j, gamma]|^2 hhat(gamma) and spatially
    from the Gram matrix (E * hhat) @ E^*, whose (j, k) entry is
    h(b_j - b_k) because e(<gamma, b_j - b_k>) = e(<gamma, b_j>)
    conj(e(<gamma, b_k>)).  The two must agree within eps * |B|^2 (Fourier
    inversion); the report gives the slack of |B|^2 <= S <= h(0) |B| and the
    worst off-diagonal h(b_j - b_k).  Memory is |B| x (support size) for E
    plus |B| x |B| for the Gram matrix.
    """
    if not t.even:
        raise ValueError("the witness polynomial must be even")
    if t.grid is not None:
        raise ValueError("continuous-mode witness expected")
    pts = list(points)
    nb = len(pts)
    xs = np.array([p.as_floats() for p in pts], dtype=float)
    g, c, h0 = _support_matrix(t)
    e = np.exp(2j * np.pi * (xs @ g.T))
    bhat = e.sum(axis=0)
    s_spectral = float(np.abs(bhat) ** 2 @ c)
    values = ((e * c) @ e.conj().T).real
    s_spatial = float(values.sum())
    if abs(s_spectral - s_spatial) > eps * max(1.0, float(nb * nb)):
        raise InversionMismatchError(
            f"S disagrees: spectral {s_spectral!r} vs spatial {s_spatial!r}"
        )
    term0 = t.constant_term()
    bound = h0 / term0 if isinstance(h0, Fraction) else float(h0) / float(term0)
    off = values[~np.eye(nb, dtype=bool)]
    return BoundReport(
        cardinality=nb,
        s_spectral=s_spectral,
        s_spatial=s_spatial,
        bound=bound,
        slack_lower=s_spectral - nb * nb,
        slack_upper=float(h0) * nb - s_spatial,
        max_offdiagonal=float(off.max()) if nb > 1 else 0.0,
    )


@dataclass(frozen=True)
class DelsarteReport:
    valid: bool
    bound: object             # rational for exact witnesses
    min_coefficient: object
    max_sample_value: float
    messages: tuple


def delsarte_bound(
    t: TrigPolynomial,
    samples=None,
    grid: int | None = None,
    eps: float = DEFAULT_EPS,
) -> DelsarteReport:
    """Validate witness conditions and return h(0)/hhat(0).

    Checks: t is even; all Fourier coefficients are nonnegative (exactly for
    rational coefficients, within eps for floats); t <= eps-scaled zero on
    every sample.  Any violation marks the bound invalid rather than raising.

    ``samples`` is a (k, dim) integer array of residue rows: row y is the
    point y / grid, which callers take from the ORT/UB points.  ``grid``
    defaults to ``t.grid``; a continuous ``t`` with samples must name it,
    and a grid-mode ``t`` accepts no other.

    t is evaluated at the samples alone, by the direct cosine sum of
    ``_sample_values``; no array grows with the grid.  When every ordering
    of each exponent carries exactly the same coefficient (checked exactly,
    ``_permutation_invariant``), t is constant on coordinate multisets, so
    each distinct sorted sample row is evaluated once (the 27,670 ORT/UB
    points of (6,24) are 325 multisets); any other t, such as the raw LP's
    certificate, is evaluated at every sample.  With T terms and u the unit
    roundoff, each table cosine is within (6 pi + 4) u of its exact value
    (three roundings of an angle below 2 pi, and cos within 4 ulps), and
    the T products and their sum add at most T u sum|c_gamma|, so a value
    is within (T + 23) u sum|c_gamma| of exact: 3.3e-11 for the 9,141
    terms of the (6,24) certificate, against its tolerance eps * h(0) =
    3.3e-8.
    """
    if grid is None:
        grid = t.grid
    elif t.grid is not None and grid != t.grid:
        raise ValueError(f"samples on grid {grid} for a witness on grid {t.grid}")
    if samples is None:
        samples = np.zeros((0, t.dim), dtype=np.int64)
    residues = np.asarray(samples)
    if (residues.ndim != 2 or residues.shape[1] != t.dim
            or not np.issubdtype(residues.dtype, np.integer)):
        raise ValueError(f"residue samples must be integers of shape (k, {t.dim})")
    if len(residues) and grid is None:
        raise ValueError("continuous witness: residue samples need a grid")
    messages = []
    if not t.even:
        messages.append("polynomial is not even")
    term0 = t.constant_term()
    if not term0 or term0 <= 0:
        messages.append("constant Fourier coefficient must be positive")
        return DelsarteReport(False, None, None, 0.0, tuple(messages))
    exact = t.is_exact()
    min_coeff = min(t.terms.values())
    if exact:
        if min_coeff < 0:
            messages.append(f"negative Fourier coefficient {min_coeff}")
    elif float(min_coeff) < -eps:
        messages.append(f"negative Fourier coefficient {float(min_coeff):.3g}")
    h0 = t.value_at_zero()
    bound = h0 / term0 if exact else float(h0) / float(term0)
    tol = eps * max(1.0, abs(float(h0)))

    max_sample = 0.0
    if len(residues):
        residues = (residues % grid).astype(np.int64)
        if _permutation_invariant(t):
            residues = _multiset_groups(residues)[2]
        max_sample = float(_sample_values(t, residues, grid).max())
        if max_sample > tol:
            messages.append(f"witness is positive on an allowed sample: {max_sample:.3g}")
    return DelsarteReport(not messages, bound, min_coeff, max_sample, tuple(messages))


def ort_ub_predicate(d: int):
    """Membership test for the allowed set ORT_d union UB_d (``classify``)."""

    def allowed(p: TorusPoint) -> bool:
        return classify(p, d) in (PointClass.ORT, PointClass.UB)

    return allowed


# ---------------------------------------------------------------------------
# JSON schema: {dim, mode, m?, terms: [{gamma: [...], coeff: "p/q" | float}]}


def trig_to_json_obj(t: TrigPolynomial) -> dict:
    obj: dict = {"dim": t.dim, "mode": "grid" if t.grid is not None else "continuous"}
    if t.grid is not None:
        obj["m"] = t.grid
    items = []
    for gamma in sorted(t.terms.keys()):
        coeff = t.terms[gamma]
        if isinstance(coeff, int):
            coeff = Fraction(coeff)
        items.append({"gamma": list(gamma), "coeff": coeff})
    obj["terms"] = items
    return obj


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer (not a bool, not a float)."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return value


def _json_coeff(value):
    """A coefficient: a JSON integer, a finite JSON number or a "p/q" string."""
    if isinstance(value, str):
        num, _, den = value.partition("/")
        if not int(den or 1):
            raise ValueError(f"coefficient {value!r} has a zero denominator")
        return Fraction(int(num), int(den or 1))
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    raise ValueError(f"coefficient must be a finite number or a \"p/q\" "
                     f"string, not {value!r}")


def trig_from_json_obj(obj) -> TrigPolynomial:
    if not isinstance(obj, dict):
        raise ValueError("the file does not hold a JSON object")
    grid = _json_int(obj["m"], "m") if obj.get("mode") == "grid" else None
    if grid is not None and grid < 1:
        raise ValueError(f"grid order m = {grid} is not positive")
    terms = {}
    for item in obj["terms"]:
        gamma = tuple(_json_int(g, "gamma entry") for g in item["gamma"])
        terms[gamma] = _json_coeff(item["coeff"])
    return TrigPolynomial.from_terms(_json_int(obj["dim"], "dim"), terms, grid=grid)
