"""The pseudo-MUB linear program on m-th-root grids.

A complete set of d+1 MUBs whose phases are m-th roots of unity would give a
function f on the grid Z_m^(d-1) with f(0) = d^2, support inside
ORT_d union UB_d union {0}, nonnegative Fourier transform, and total mass
d^4.  Normalising f(0) = 1 and maximising the total mass

    M = sum_y f(y)

subject to  fhat(gamma) >= 0  for every gamma in the cube [0, m-1]^(d-1)
(periodicity makes the cube sufficient) is a linear program; M reaching
d^2 exactly would exhibit a complete pseudo-MUB system on that grid, while
the optimal dual multipliers assemble into a witness polynomial proving M is
optimal (a sharpened bound for the grid-supported problem).

Symmetry reduction: negation and coordinate permutations fix both the
classification of points and the constraint set, so f may be averaged over
the group without changing feasibility or mass.  Variables are therefore
orbit weights, and constraints are deduplicated by the induced action on
characters.  An optional phase-shift symmetry (re-basing the d phases at one
of the coordinates) is available behind a flag; it also fixes |1 + sum e()|
and maps the grid to itself.  One image generator, ``_images``, serves
points and characters alike: it acts on the extended row of d entries,
(0, y) for a point and the zero-sum (-sum(gamma), gamma) for a character,
and ``canonical_codes`` takes the least sorted image over it and negation.
Every orbit is a union of coordinate multisets, so ``build_orbits``
canonicalises only the ORT/UB multisets, then expands the ORT/UB multisets
into their orderings: no array of all m^(d-1) points is formed.
Orbits are arrays: ``OrbitTable`` holds the members of all orbits in one
(N, d-1) matrix, grouped by orbit, which the LP uses as it is, and the
orbit of each ORT/UB multiset, which the scan spreads over the multisets.

The solver is a constraint-generation loop: solve the restricted LP with the
revised simplex on x >= 0, scan the transform at *every* character, add the
most-violated deduplicated characters, repeat.  With symmetry, f is
invariant under coordinate permutations and so is fhat, so the scan only
needs the C(m+d-2, d-1) sorted characters: ``multiset_fft`` transforms one
axis at a time over coordinate multisets and never forms the m^(d-1) cube.
Without symmetry the scan is one FFT of the weight cube, which keeps the raw
LP an independent check of the reduction.  Candidates are keyed once per
problem: with symmetry the class key of every sorted character (its
``canonical_codes`` code) is computed when the problem is built, and without
symmetry the key is the cube index.  A round sorts its violated positions by
transform value and decodes its candidates once: one call decodes every key
at its first position, and the keys are tried in that order; only the
characters actually tried become tuples.  Convergence requires a clean full
scan, so the returned primal is feasible for every character, never just for
the generated rows.  Weights carry the a-priori box w <= 2: any fully
feasible f has f(y) <= f(0) = 1 pointwise (nonnegative transform), so the box
is slack at convergence and never enters the dual.

The restricted master is posed to the simplex in its dual form (multipliers
lambda per generated constraint, box multipliers mu per weight), because the
master is row-rich: a few dozen weight variables against hundreds of
generated rows.  The dual basis has one row per weight, which avoids the
heavy stalling a row-sized basis suffers on these degenerate instances; the
weights come back as the simplex duals and are validated against the full
scan.  Generated rows enter the dual as new lambda columns at zero, so each
round warm-starts from the previous round's optimal basis; only the first
solve of a run (fresh or resumed from a checkpoint) starts from the identity
mu-basis.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .config import (
    BudgetExceededError,
    DEFAULT_ENUM_BUDGET,
    DEFAULT_EPS,
    DEFAULT_EPS_FEAS,
    DEFAULT_LP_ADD_PER_ROUND,
    DEFAULT_LP_MAX_ROUNDS,
)
from .serialize import format_float, load_json, write_json
from .simplex import ITERATION_LIMIT, OPTIMAL, solve_equality_form
from .torus import (
    _CLASS_BY_CODE,
    CODE_FORBIDDEN,
    PointClass,
    _check_budget,
    _decode_digits,
    _encode_digits,
    _expand_multisets,
    exact_codes,
    multiset_rank_tables,
    ort_ub_multisets,
    ort_ub_rows,
)
from .witness import TrigPolynomial, _transform, delsarte_bound

_WEIGHT_BOX = 2.0
# a generated row counts as met down to -ROW_TOL; a feasibility tolerance
# below it could let the scan flag a row the restricted master already meets
ROW_TOL = 1e-8
# the most a dual witness's certified bound h(0) may differ from M
GAP_TOLERANCE = 1e-4


class CertificateError(RuntimeError):
    """The LP dual failed independent witness validation."""


# ---------------------------------------------------------------------------
# symmetry canonicalisation


def _images(digits: np.ndarray, m: int, use_shift: bool, dual: bool) -> list:
    """The rows of ``digits`` under the group maps besides negation and
    permutation: the rows alone without shift.  With shift each row is
    extended to d entries, (0, y) for a point and the zero-sum
    (-sum(gamma), gamma) for a character (``dual``); image t re-bases a point
    at entry t, or drops entry t of a character, and t = 0 is the row itself.
    """
    if not use_shift:
        return [digits]
    if dual:
        full = np.hstack([(-digits.sum(axis=1, keepdims=True)) % m, digits])
        return [np.delete(full, t, axis=1) for t in range(full.shape[1])]
    full = np.hstack([np.zeros((len(digits), 1), dtype=digits.dtype), digits])
    return [
        np.delete((full - full[:, t : t + 1]) % m, t, axis=1)
        for t in range(full.shape[1])
    ]


def canonical_codes(
    digits: np.ndarray, m: int, use_shift: bool = False, dual: bool = False
) -> np.ndarray:
    """The least sorted image of every row of ``digits`` under the symmetry
    group of points (of characters if ``dual``), as base-m codes.

    A sorted image is coded as its big-endian base-m number, which orders
    like the tuple, so the least code over the images and their negations is
    the code of the least sorted image; ``_decode_digits`` turns it back.
    """
    codes = [
        _encode_digits(np.sort(img, axis=1), m)
        for base in _images(digits, m, use_shift, dual)
        for img in (base, (-base) % m)
    ]
    return np.min(codes, axis=0)


def canonical_char(gamma: tuple[int, ...], m: int, use_shift: bool = False):
    """The least sorted image of the character gamma, reduced mod m, under the
    dual group action: one row of ``canonical_codes(..., dual=True)``."""
    row = np.array([gamma], dtype=np.int64).reshape(1, len(gamma)) % m
    code = canonical_codes(row, m, use_shift, dual=True)
    return tuple(_decode_digits(code, m, len(gamma))[0].tolist())


def char_orbit(gamma: tuple[int, ...], m: int, use_shift: bool = False) -> set:
    """All characters equivalent to gamma (full orbit, not just sorted reps).

    Permutations and negation give every ordering of gamma and of -gamma.
    With the shift maps the group is S_d x {+-1} acting on the zero-sum
    extension (-sum(gamma), gamma), so the orbit is every ordering of that
    extension minus one entry, and of its negation.
    """
    g = np.asarray(gamma, dtype=np.int64).reshape(1, -1) % m
    base = np.vstack(_images(g, m, use_shift, dual=True))
    # the images' multisets, each once: at most 2d rows, so a set of sorted
    # tuples (np.unique(axis=0) is slow on its first call in a process)
    images = np.sort(np.vstack([base, (-base) % m]), axis=1)
    rows = np.array(sorted(set(map(tuple, images.tolist()))), dtype=np.int64)
    codes, _ = _expand_multisets(rows, m)
    return set(map(tuple, _decode_digits(codes, m, g.shape[1]).tolist()))


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class Orbit:
    representative: tuple[int, ...]
    members: np.ndarray         # (size, d-1) view into OrbitTable.members
    point_class: PointClass


@dataclass
class OrbitTable:
    d: int
    m: int
    symmetric: bool            # False: every point is its own orbit
    use_shift: bool
    representatives: np.ndarray     # (k, d-1) lexicographic minima, ascending
    classes: np.ndarray             # uint8 class code per orbit
    members: np.ndarray             # (N, d-1) grouped by orbit, each ascending
    member_orbit: np.ndarray        # orbit id per member, nondecreasing
    multiset_ranks: np.ndarray      # ranks of the ORT/UB multisets (empty if raw)
    multiset_orbit: np.ndarray      # orbit id per ORT/UB multiset (empty if raw)

    @property
    def sizes(self) -> np.ndarray:
        counts = np.bincount(self.member_orbit, minlength=len(self.representatives))
        return counts.astype(float)

    def total_points(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        # field by field, the arrays by value
        return type(other) is OrbitTable and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @property
    def orbits(self) -> list:
        """One ``Orbit`` record per orbit; the members are views, not copies."""
        k = len(self.representatives)
        bounds = np.searchsorted(self.member_orbit, np.arange(k + 1)).tolist()
        return [
            Orbit(representative=tuple(rep), members=self.members[lo:hi],
                  point_class=_CLASS_BY_CODE[code])
            for rep, code, lo, hi in zip(self.representatives.tolist(),
                                         self.classes.tolist(), bounds, bounds[1:])
        ]


def build_orbits(
    d: int,
    m: int,
    use_shift_symmetry: bool = False,
    symmetric: bool = True,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> OrbitTable:
    """Partition the ORT/UB grid points under the symmetry group.

    Group generators: negation and coordinate permutations (plus the optional
    phase-shift maps).  Representatives are lexicographic minima; orbits are
    listed by representative.  With ``symmetric=False`` every point is a
    singleton orbit (used for symmetrisation cross-checks), and asking for
    the shift symmetry as well is a ``ValueError``.

    Every orbit is a union of coordinate multisets, so only the ORT/UB
    multisets are canonicalised; an orbit's members are the orderings of its
    multisets, ascending within the orbit.
    """
    if use_shift_symmetry and not symmetric:
        raise ValueError("shift symmetry needs orbit symmetry")
    n = d - 1
    if not symmetric:
        digits, codes = ort_ub_rows(d, m, budget=budget)
        return OrbitTable(d=d, m=m, symmetric=False, use_shift=False,
                          representatives=digits, classes=codes, members=digits,
                          member_orbit=np.arange(len(digits)),
                          multiset_ranks=np.arange(0), multiset_orbit=np.arange(0))
    rows, ms_codes, ranks = ort_ub_multisets(d, m, budget)
    reps, orbit_of = np.unique(canonical_codes(rows, m, use_shift_symmetry),
                               return_inverse=True)
    orbit_codes = np.empty(reps.size, dtype=np.uint8)
    orbit_codes[orbit_of] = ms_codes            # the class of some multiset
    reps = _decode_digits(reps, m, n)
    mixed = np.flatnonzero(orbit_codes[orbit_of] != ms_codes)
    if mixed.size:
        i, j = orbit_of[mixed[0]], mixed[0]
        raise AssertionError(
            f"orbit {tuple(reps[i].tolist())} mixes classes "
            f"{_CLASS_BY_CODE[orbit_codes[i]]} and {_CLASS_BY_CODE[ms_codes[j]]}"
        )
    order = np.argsort(orbit_of, kind="stable")
    points, sizes = _expand_multisets(rows[order], m)
    member_orbit = np.repeat(orbit_of[order], sizes)
    # ascending within each orbit: one sort by (orbit, code)
    span = m**n
    if reps.size * span < 2**63:
        points = np.sort(member_orbit * span + points) % span
    else:
        points = points[np.lexsort((points, member_orbit))]
    return OrbitTable(d=d, m=m, symmetric=True, use_shift=use_shift_symmetry,
                      representatives=reps, classes=orbit_codes,
                      members=_decode_digits(points, m, n), member_orbit=member_orbit,
                      multiset_ranks=ranks, multiset_orbit=orbit_of)


# ---------------------------------------------------------------------------
# the LP


@dataclass
class LpProblem:
    """max 1 + sum |orbit| * w  s.t.  1 + sum_o w_o C_o(gamma) >= 0, w >= 0.

    One variable per orbit of ``table``, which is the problem's only input:
    d, m and the members are the table's.  f(0) = 1 is fixed; C_o(gamma) is
    the cosine sum of the orbit at character gamma.  The gamma = 0
    constraint has all coefficients positive and is dropped.  Constraints
    are deduplicated under the dual group action (identical rows).
    """

    table: OrbitTable
    _cos_table: np.ndarray = field(init=False, repr=False)
    # symmetric problems: the multiset rank tables
    _multiset_tables: list | None = field(default=None, init=False, repr=False)
    # the class key of each scan position: by multiset rank of the sorted
    # characters with symmetry, the cube index itself without
    _char_keys: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m, table = self.d - 1, self.m, self.table
        self._cos_table = np.cos(2.0 * np.pi * np.arange(m) / m)
        if not table.symmetric:
            self._char_keys = np.arange(m**n)
            return
        tables, rows = multiset_rank_tables(n, m)
        self._multiset_tables = tables
        self._char_keys = canonical_codes(rows, m, table.use_shift, dual=True)

    @property
    def d(self) -> int:
        return self.table.d

    @property
    def m(self) -> int:
        return self.table.m

    @property
    def n_orbits(self) -> int:
        return len(self.table.representatives)

    @property
    def objective(self) -> np.ndarray:
        return self.table.sizes

    def constraint_row(self, gamma) -> np.ndarray:
        """C_o(gamma) for every orbit, one pass over all support points."""
        dots = (self.table.members @ np.asarray(gamma, dtype=np.int64)) % self.m
        return np.bincount(
            self.table.member_orbit, weights=self._cos_table[dots],
            minlength=self.n_orbits,
        )

    def char_representatives(self) -> list:
        """Deduplicated characters of the cube, ascending, without gamma = 0.

        With symmetry every class has a sorted member, so the keys of the
        sorted characters cover every class.
        """
        codes = np.unique(self._char_keys)
        # only gamma = 0 codes to 0: no image of a nonzero character is zero
        digits = _decode_digits(codes[codes != 0], self.m, self.d - 1)
        return list(map(tuple, digits.tolist()))

    def weight_grid(self, weights: np.ndarray) -> np.ndarray:
        """The function f on the full grid for orbit weights (f(0) = 1)."""
        flat = np.zeros(self.m ** (self.d - 1))
        members = _encode_digits(self.table.members, self.m)
        flat[members] = np.asarray(weights)[self.table.member_orbit]
        flat[0] = 1.0
        return flat.reshape((self.m,) * (self.d - 1))


@dataclass
class LpSolution:
    """An optimum of the LP: ``solve_lp`` returns nothing else."""

    M: float
    weights: np.ndarray
    dual: dict                  # canonical gamma -> nonnegative multiplier
    iterations: int
    rounds: int
    active_constraints: int     # rows in the restricted master at the optimum
    final_scan_min: float
    duality_gap: float


def multiset_fft(values: np.ndarray, tables) -> np.ndarray:
    """DFT of a permutation-invariant function on Z_m^n, at sorted characters.

    ``tables`` are ``multiset_rank_tables(n, m)``'s rank tables, and
    ``values[r]`` is the function on the size-n coordinate multiset of rank r.  Entry r of the result is
    sum_y f(y) exp(-2 pi i <gamma, y> / m), as ``np.fft.fftn`` gives it, at
    the sorted character gamma of rank r.

    One axis is transformed at a time.  After k axes the partial transform is
    symmetric in its k frequencies and in its n - k untransformed coordinates,
    so it is stored as T[frequency multiset G, coordinate multiset Y].  Stage
    k gathers T[G, Y' + y] for y = 0..m-1 through the rank tables, transforms
    along y, and reads each sorted frequency multiset of size k + 1 at its
    prefix G and its last entry g >= max(G).  No m**n array is formed.
    """
    n = len(tables)
    T = np.asarray(values, dtype=complex)[None, :]
    last = np.zeros(1, dtype=np.int64)      # largest entry of each G
    for k, grow in enumerate(tables):
        spectrum = np.fft.fft(T[:, tables[n - k - 1].T], axis=2)   # [G, Y', g]
        g, prefix = np.nonzero(np.arange(len(grow))[:, None] >= last)
        grown = grow[g, prefix]             # rank of the size-(k+1) multiset
        T = np.empty((grown.size, spectrum.shape[1]), dtype=complex)
        T[grown] = spectrum[prefix, :, g]
        last = np.empty(grown.size, dtype=np.int64)
        last[grown] = g
    return T[:, 0]


def _transform_scan(problem: LpProblem, weights: np.ndarray) -> np.ndarray:
    """fhat as a flat real array: by multiset rank of the sorted characters
    for a symmetric problem, over the whole cube (FFT of the weights) else."""
    table = problem.table
    if table.symmetric:
        values = np.zeros(len(problem._char_keys))
        values[table.multiset_ranks] = np.asarray(weights, dtype=float)[table.multiset_orbit]
        values[0] = 1.0                     # f(0); the zero multiset has rank 0
        return multiset_fft(values, problem._multiset_tables).real
    w = problem.weight_grid(weights)
    return np.fft.fftn(w).real.ravel()


def solve_lp(
    problem: LpProblem,
    eps_feas: float = DEFAULT_EPS_FEAS,
    max_rounds: int = DEFAULT_LP_MAX_ROUNDS,
    add_per_round: int = DEFAULT_LP_ADD_PER_ROUND,
    checkpoint_dir: str | None = None,
    progress: bool = False,
) -> LpSolution:
    """Constraint-generation solve; see the module docstring.

    ``progress`` prints one line per round on stderr.  ``checkpoint_dir``
    persists the generated constraint set between rounds so long jobs can
    resume.  ``eps_feas`` below ``ROW_TOL``, or ``max_rounds`` or
    ``add_per_round`` below 1, is a ``ValueError``.  A run that uses up its
    rounds, or the simplex iterations of one restricted master, raises
    ``BudgetExceededError``, so a returned solution is always an optimum.
    """
    if not eps_feas >= ROW_TOL:
        raise ValueError(f"eps_feas must be at least {ROW_TOL:g}, got {eps_feas:g}")
    if max_rounds < 1 or add_per_round < 1:
        raise ValueError("max_rounds and add_per_round must be at least 1")
    d, m = problem.d, problem.m
    n = d - 1
    n_orb = problem.n_orbits
    c = problem.objective
    # class code -> character of each generated row, in the rows' order
    generated: dict = {}
    A = np.zeros((0, n_orb))

    if checkpoint_dir:
        loaded = _load_checkpoint(checkpoint_dir, problem)
        if loaded:
            codes = _encode_digits(np.array(loaded, dtype=np.int64), m)
            generated = dict(zip(codes.tolist(), loaded))
            A = np.array([problem.constraint_row(g) for g in loaded])
            if progress:
                print(f"resumed from checkpoint with {len(loaded)} constraints",
                      file=sys.stderr, flush=True)

    weights = np.full(n_orb, _WEIGHT_BOX)
    basis = None
    solved_rows = 0
    total_iterations = 0
    rounds = 0
    while True:
        if rounds >= max_rounds:
            raise BudgetExceededError(
                f"no convergence after {max_rounds} constraint-generation rounds"
            )
        rounds += 1
        r = len(A)
        if r:
            # dual form of  max c.w  s.t.  A w >= -1,  0 <= w <= BOX:
            #   max -sum(lam) - BOX*sum(mu)
            #   s.t. -A^T lam + mu - sigma = c,   lam, mu, sigma >= 0
            # w returns as -y.  The first solve starts from the identity
            # mu-basis (mu = c > 0).  Later rows enter as lam columns at zero,
            # so the previous optimal basis stays feasible once its indices
            # past the old lam block shift by the number of rows added.
            G = np.hstack([-A.T, np.eye(n_orb), -np.eye(n_orb)])
            cd = np.concatenate(
                [-np.ones(r), -_WEIGHT_BOX * np.ones(n_orb), np.zeros(n_orb)]
            )
            if basis is None:
                basis = np.arange(r, r + n_orb)
            else:
                basis = np.where(
                    basis >= solved_rows, basis + r - solved_rows, basis
                )
            try:
                result = solve_equality_form(G, c, cd, basis)
            except ValueError as exc:
                # the basis is built here, so a rejected basis is a bug here
                raise AssertionError(f"restricted master: {exc}") from exc
            total_iterations += result.iterations
            if result.status == ITERATION_LIMIT:
                raise BudgetExceededError(
                    f"restricted master ran out of simplex iterations in round "
                    f"{rounds} ({r} rows)"
                )
            if result.status != OPTIMAL:
                # costs <= 0 on variables >= 0 bound the objective above by 0
                raise AssertionError(f"restricted master ended {result.status}")
            basis = result.basis
            weights = np.clip(-result.duals, 0.0, _WEIGHT_BOX)
            restricted_resid = float((A @ weights + 1.0).min())
            if restricted_resid < -ROW_TOL:
                raise AssertionError(
                    f"recovered weights violate a generated row by "
                    f"{restricted_resid:.3e}"
                )
            solved_rows = r

        scan = _transform_scan(problem, weights)
        worst = float(scan.min())
        if progress:
            print(
                f"round={rounds} rows={r} M={1.0 + float(c @ weights):.6f} "
                f"min_fhat={worst:.3e}",
                file=sys.stderr, flush=True,
            )
        violated = np.flatnonzero(scan < -eps_feas)
        if violated.size == 0:
            break
        # scan positions ascend with the characters' cube indices, so a stable
        # sort by value breaks ties lexicographically
        order = violated[np.argsort(scan[violated], kind="stable")]
        keys = problem._char_keys[order]
        first = np.sort(np.unique(keys, return_index=True)[1])
        added = 0
        for pos, code, digits in zip(first.tolist(), keys[first].tolist(),
                                     _decode_digits(keys[first], m, n)):
            key = tuple(digits.tolist())
            if code in generated:
                raise AssertionError(
                    f"generated constraint {key} violated after optimisation "
                    f"({scan[order[pos]]:.3e}); row arithmetic is inconsistent"
                )
            row = problem.constraint_row(key)
            # distinct characters can induce identical rows (grid automorphisms
            # permute the orbits); duplicated rows make bases singular
            if len(A) and float(np.min(np.max(np.abs(A - row), axis=1))) < 1e-10:
                continue
            generated[code] = key
            A = np.vstack([A, row])
            added += 1
            if added >= add_per_round:
                break
        if added == 0:
            raise AssertionError(
                "violations persist but every candidate row is already present"
            )
        if checkpoint_dir:
            _write_checkpoint(checkpoint_dir, problem, generated.values(), rounds)

    M = 1.0 + float(c @ weights)
    if M > d * d + 1e-6:
        raise AssertionError(
            f"optimum {M} exceeds the witness bound {d * d}; modelling bug"
        )
    dual: dict = {}
    gap = 0.0
    if solved_rows:
        lam = result.x[:solved_rows]
        box_mult = float(result.x[solved_rows : solved_rows + n_orb].max(initial=0.0))
        if box_mult > 1e-8:
            # a fully feasible f has f(y) <= f(0) = 1 < BOX, so the box must
            # be slack at convergence
            raise AssertionError(
                f"box multiplier {box_mult:.3e} active at convergence"
            )
        dual = {
            key: v for key, v in zip(generated.values(), lam.tolist()) if v > 1e-12
        }
        gap = abs((M - 1.0) - sum(dual.values()))
    return LpSolution(
        M=M,
        weights=weights,
        dual=dual,
        iterations=total_iterations,
        rounds=rounds,
        active_constraints=r,
        final_scan_min=worst,
        duality_gap=gap,
    )


def extract_dual_witness(sol: LpSolution, problem: LpProblem) -> TrigPolynomial:
    """Assemble the dual multipliers into a grid witness certifying M.

    Each multiplier is spread uniformly over its character orbit, which makes
    the polynomial constant on point orbits; dual feasibility then gives
    h' <= 0 pointwise on every ORT/UB grid point, h'(0) = M, coefficients
    >= 0 with the constant term 1.  One ``delsarte_bound`` call (tolerance
    ``DEFAULT_EPS``) against all ORT/UB grid points checks evenness, the
    coefficient signs and the samples; since the constant term is 1, its
    bound is h(0) and must be within ``GAP_TOLERANCE`` of M.  Either failure
    is a ``CertificateError``.  The samples are evaluated by a direct cosine
    sum, with no m^(d-1) cube: a symmetric witness takes every ordering of
    each character with one coefficient, so it is evaluated once per ORT/UB
    coordinate multiset, and the raw one at every member.
    """
    d, m = problem.d, problem.m
    n = d - 1
    terms: dict = {(0,) * n: 1.0}
    for rep, lam in sol.dual.items():
        if problem.table.symmetric:
            orbit = char_orbit(rep, m, problem.table.use_shift)
        else:
            orbit = {tuple(rep), tuple((-g) % m for g in rep)}
        share = lam / len(orbit)
        for gamma in orbit:
            terms[gamma] = terms.get(gamma, 0.0) + share
    witness = TrigPolynomial.from_terms(n, terms, grid=m)
    report = delsarte_bound(witness, problem.table.members)
    if not report.valid:
        raise CertificateError(
            "certificate failed witness validation: " + "; ".join(report.messages)
        )
    if abs(float(report.bound) - sol.M) > GAP_TOLERANCE:
        raise CertificateError(
            f"certified bound {report.bound} differs from M={sol.M}"
        )
    return witness


# ---------------------------------------------------------------------------
# pseudo-MUB candidate check


@dataclass(frozen=True)
class PseudoMubReport:
    support_ok: bool
    transform_ok: bool
    min_transform: float
    mass_ok: bool
    mass: float
    origin_ok: bool
    origin_value: float

    @property
    def ok(self) -> bool:
        return self.support_ok and self.transform_ok and self.mass_ok and self.origin_ok


def pseudo_mub_check(
    f: TrigPolynomial, d: int, eps: float = DEFAULT_EPS
) -> PseudoMubReport:
    """Check the four defining conditions of a complete pseudo-MUB system.

    ``f`` is a grid-mode polynomial whose terms are point weights: support
    inside ORT_d union UB_d union {0} (exact classification), fhat >= -eps on
    the whole cube, total mass d^4, and f(0) = d^2, each within eps and each
    reported separately.  A cube of more than ``DEFAULT_ENUM_BUDGET`` points
    raises ``BudgetExceededError`` before it is built.
    """
    if f.grid is None:
        raise ValueError("pseudo-MUB candidates live on a grid")
    if f.dim != d - 1:
        raise ValueError(f"candidate has dim {f.dim}, expected {d - 1}")
    m = f.grid
    _check_budget(d, m, DEFAULT_ENUM_BUDGET)     # fhat fills the (m,)^(d-1) cube
    support = np.array(list(f.terms), dtype=np.int64).reshape(len(f.terms), f.dim)
    weights = np.array([float(w) for w in f.terms.values()])
    support_ok = not (np.any(weights < -eps)
                      or np.any(exact_codes(support % m, d, m) == CODE_FORBIDDEN))
    fhat = _transform(f, m)  # fhat(gamma) = sum f(y) e^(+2 pi i <gamma,y>/m)
    min_real = float(fhat.real.min())
    max_imag = float(np.abs(fhat.imag).max())
    transform_ok = min_real >= -eps and max_imag <= eps * max(
        1.0, float(np.abs(fhat).max())
    )
    mass = float(sum(float(w) for w in f.terms.values()))
    origin = float(f.terms.get((0,) * f.dim, 0.0))
    return PseudoMubReport(
        support_ok=support_ok,
        transform_ok=transform_ok,
        min_transform=min_real,
        mass_ok=abs(mass - d**4) <= eps * d**4,
        mass=mass,
        origin_ok=abs(origin - d**2) <= eps * d**2,
        origin_value=origin,
    )


# ---------------------------------------------------------------------------
# solution/problem I/O


def solution_to_json_obj(problem: LpProblem, sol: LpSolution) -> dict:
    return {
        "d": problem.d,
        "m": problem.m,
        "status": "optimal",          # solve_lp returns optima only
        "M": float(sol.M),
        "weights": [
            {"orbit": i, "value": float(v)} for i, v in enumerate(sol.weights)
        ],
        "dual": [
            {"gamma": list(gamma), "value": float(lam)}
            for gamma, lam in sorted(sol.dual.items())
        ],
    }


_CHECKPOINT_NAME = "constraints.json"


def _checkpoint_key(problem: LpProblem) -> dict:
    return {
        "d": problem.d,
        "m": problem.m,
        "symmetric": problem.table.symmetric,
        "shift": problem.table.use_shift,
    }


def _write_checkpoint(directory: str, problem: LpProblem, reps, rounds: int) -> None:
    os.makedirs(directory, exist_ok=True)
    payload = dict(_checkpoint_key(problem))
    payload["round"] = rounds
    payload["constraints"] = [list(g) for g in reps]
    write_json(os.path.join(directory, _CHECKPOINT_NAME), payload)


def _load_checkpoint(directory: str, problem: LpProblem):
    path = os.path.join(directory, _CHECKPOINT_NAME)
    if not os.path.exists(path):
        return None
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"checkpoint at {path} is not a JSON object")
    key = _checkpoint_key(problem)
    if any(payload.get(k) != v for k, v in key.items()):
        raise ValueError(f"checkpoint at {path} was written for a different problem")
    reps = payload.get("constraints")
    n, m = problem.d - 1, problem.m
    if not isinstance(reps, list) or not all(
        isinstance(g, list) and len(g) == n
        and all(type(v) is int and 0 <= v < m for v in g)
        for g in reps
    ):
        raise ValueError(
            f"checkpoint at {path} holds a constraint that is not {n} integers in [0, {m})"
        )
    constraints = [tuple(g) for g in reps]
    if len(set(constraints)) < len(constraints):
        repeat = next(g for i, g in enumerate(constraints) if g in constraints[:i])
        raise ValueError(f"checkpoint at {path} repeats constraint {list(repeat)}")
    return constraints


# ---------------------------------------------------------------------------
# LP text export
#
# Grammar (one token stream, ASCII, newline-separated sections):
#
#   file        := comment* "Maximize" objective "Subject To" constraint*
#                  "Bounds" bound* "End"
#   comment     := "\\" <free text to end of line>
#   objective   := " mass:" terms
#   constraint  := " g_<g1>_<g2>_...:" terms ">=" number
#   terms       := term+ | " 0"            (" 0": a grid with no orbit)
#   bound       := " <number> <= f_<idx> <= <number>"
#   term        := ("+" | "-") number name | number name
#   name        := "f_<idx>"
#
# Numbers carry 17 significant digits, so re-parsing reproduces the exact
# coefficient matrix.  The objective omits the fixed origin weight: the
# optimum of the file equals M - 1 (stated in the header comment).


def export_lp(problem: LpProblem, stream, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Write the full LP to ``stream``; returns the number of constraint rows.

    The text holds up to rows x orbits coefficients; past ``budget`` of them
    it raises ``BudgetExceededError`` before the first write.
    """
    reps = problem.char_representatives()
    cells = len(reps) * problem.n_orbits
    if cells > budget:
        raise BudgetExceededError(
            f"LP of {len(reps)} rows x {problem.n_orbits} orbits = {cells} "
            f"coefficients exceeds enumeration budget {budget}"
        )
    stream.write(f"\\ pseudo-MUB linear program d={problem.d} m={problem.m}\n")
    stream.write("\\ variables: one weight per ORT/UB orbit; f(0) fixed to 1\n")
    stream.write("\\ objective value equals M - 1 (total mass minus the origin)\n")
    stream.write("Maximize\n mass:")
    stream.write(_terms_text(problem.objective))
    stream.write("\nSubject To\n")
    for gamma in reps:
        row = problem.constraint_row(gamma)
        name = "g_" + "_".join(str(v) for v in gamma)
        stream.write(f" {name}:")
        stream.write(_terms_text(row))
        stream.write(" >= -1\n")
    stream.write("Bounds\n")
    for i in range(problem.n_orbits):
        stream.write(f" 0 <= f_{i} <= {format_float(_WEIGHT_BOX)}\n")
    stream.write("End\n")
    return len(reps)


def _terms_text(row) -> str:
    parts = []
    for i, v in enumerate(np.asarray(row)):
        if v == 0.0:
            continue
        sign = " + " if v >= 0 else " - "
        parts.append(f"{sign}{format_float(abs(float(v)))} f_{i}")
    return "".join(parts) if parts else " 0"


def parse_lp(path: str) -> dict:
    """Re-parse an exported file: objective/constraint coefficient maps."""
    objective: dict = {}
    constraints: dict = {}
    bounds: dict = {}
    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("\\"):
                continue
            if line in ("Maximize", "Subject To", "Bounds", "End"):
                section = line
                continue
            if section == "Maximize":
                _, _, rest = line.partition(":")
                objective.update(_parse_terms(rest))
            elif section == "Subject To":
                name, _, rest = line.partition(":")
                body, _, rhs = rest.partition(">=")
                constraints[name.strip()] = {
                    "coefficients": _parse_terms(body),
                    "rhs": float(rhs),
                }
            elif section == "Bounds":
                lo, _, rest = line.partition("<=")
                name, _, hi = rest.partition("<=")
                bounds[name.strip()] = (float(lo), float(hi))
    return {"objective": objective, "constraints": constraints, "bounds": bounds}


def _parse_terms(text: str) -> dict:
    tokens = text.split()
    out: dict = {}
    sign = 1.0
    value = None
    for tok in tokens:
        if tok == "+":
            sign = 1.0
        elif tok == "-":
            sign = -1.0
        elif tok.startswith("f_"):
            if value is None:
                raise ValueError(f"variable {tok} without a coefficient")
            out[tok] = sign * value
            sign, value = 1.0, None
        else:
            value = float(tok)
    return out
