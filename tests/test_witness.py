import itertools
from fractions import Fraction

import numpy as np
import pytest

from mublp.constructions import prime_mubs, prime_power_mubs
from mublp.hadamard import family_to_points
from mublp import witness as witnessmod
from mublp.torus import TorusPoint, difference, ort_ub_rows
from mublp.witness import (
    InversionMismatchError,
    TrigPolynomial,
    _transform,
    check_point_set,
    delsarte_bound,
    eval_h,
    eval_trig,
    expand_h,
    ort_ub_predicate,
    trig_from_json_obj,
    trig_to_json_obj,
)


def zero_point(d: int) -> TorusPoint:
    return TorusPoint.exact(1, (0,) * (d - 1))


def test_eval_h_examples():
    assert abs(eval_h(6, zero_point(6)) - 36) < 1e-12
    assert abs(eval_h(3, TorusPoint.exact(3, (1, 2)))) < 1e-12      # ORT
    assert abs(eval_h(3, TorusPoint.exact(3, (1, 1)))) < 1e-12      # UB
    val = eval_h(6, TorusPoint.exact(2, (0, 0, 0, 0, 1)))
    assert abs(val - 16 / 3) < 1e-12   # (1/30) * 16 * (16 - 6)


def test_expand_h_exactness_d2_to_d12():
    for d in range(2, 13):
        h = expand_h(d)
        assert h.constant_term() == 1
        assert all(isinstance(c, Fraction) and c >= 0 for c in h.terms.values())
        assert h.value_at_zero() == d * d


def test_expand_h_rejects_out_of_range():
    with pytest.raises(ValueError):
        expand_h(13)
    with pytest.raises(ValueError):
        expand_h(1)


def test_expand_h_d2_closed_form():
    # h = ((2+z+1/z)^2 - 2(2+z+1/z))/2 has coefficients {0:1, +-1:1, +-2:1/2}
    h = expand_h(2)
    assert h.terms == {
        (0,): Fraction(1),
        (1,): Fraction(1),
        (-1,): Fraction(1),
        (2,): Fraction(1, 2),
        (-2,): Fraction(1, 2),
    }


def test_expand_h_d6_coefficient_at_e1():
    # frozen from the quadruple-enumeration oracle (N4 = 4d-4 = 20, N2 = 1):
    # (20 - 6*1) / (5*6) = 7/15; independently confirmed by the grid-DFT
    # quadrature oracle below
    h = expand_h(6)
    assert h.terms[(1, 0, 0, 0, 0)] == Fraction(7, 15)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_expand_h_against_dft_quadrature_oracle(d):
    # sample h on the 5-grid; since the support lies in [-2,2]^(d-1), folding
    # exponents mod 5 is injective, so the DFT recovers every coefficient
    m = 5
    n = d - 1
    values = np.zeros((m,) * n)
    for idx in itertools.product(range(m), repeat=n):
        values[idx] = eval_h(d, TorusPoint.exact(m, idx))
    coeffs = np.fft.fftn(values) / m**n
    h = expand_h(d)
    assert abs(float(np.max(np.abs(coeffs.imag)))) < 1e-9
    recovered = {}
    for gamma in h.terms:
        res = tuple(g % m for g in gamma)
        recovered[res] = recovered.get(res, 0) + float(h.terms[gamma])
    for res in itertools.product(range(m), repeat=n):
        assert abs(coeffs[res].real - recovered.get(res, 0.0)) < 1e-9, res


def test_expand_h_coefficient_symmetry():
    for d in (3, 5, 7):
        h = expand_h(d)
        for gamma, c in h.terms.items():
            assert h.terms[tuple(-g for g in gamma)] == c


def test_expand_h_offzero_mass():
    # coefficients minus the constant term sum to h(0) - 1 = d^2 - 1
    for d in (2, 4, 6):
        h = expand_h(d)
        assert h.value_at_zero() - h.constant_term() == d * d - 1


def test_eval_trig_examples():
    h6 = expand_h(6)
    assert abs(eval_trig(h6, zero_point(6)) - 36) < 1e-9
    h3 = expand_h(3)
    assert abs(eval_trig(h3, TorusPoint.exact(3, (1, 2)))) < 1e-9
    single = TrigPolynomial.from_terms(2, {(0, 0): 5.0})
    assert eval_trig(single, TorusPoint.from_floats([0.17, -0.4])) == 5.0


def eval_trig_at_floats(t: TrigPolynomial, xs: np.ndarray) -> np.ndarray:
    """Continuous-mode evaluation at rows of ``xs`` over the sorted support."""
    gammas = sorted(t.terms)
    g = np.array(gammas, dtype=float)
    c = np.array([float(t.terms[gamma]) for gamma in gammas])
    phases = np.exp(2j * np.pi * (np.asarray(xs, dtype=float) @ g.T))
    return (phases @ c.astype(complex)).real


def test_eval_trig_matches_eval_h_at_random_points():
    # the inversion identity, 1000 random points per dimension
    rng = np.random.default_rng(101)
    for d in range(2, 9):
        h = expand_h(d)
        xs = rng.uniform(-0.5, 0.5, size=(1000, d - 1))
        via_expansion = eval_trig_at_floats(h, xs)
        s = 1.0 + np.exp(2j * np.pi * xs).sum(axis=1)
        v = np.abs(s) ** 2
        direct = v * (v - d) / ((d - 1) * d)
        assert np.max(np.abs(via_expansion - direct)) < 1e-9
        # spot-check the scalar entry point against the batch path
        p = TorusPoint.from_floats(xs[0])
        assert abs(eval_trig(h, p) - eval_h(d, p)) < 1e-9


def test_eval_trig_grid_mode_denominators():
    t = TrigPolynomial.from_terms(1, {(0,): 1.0, (1,): 1.0}, grid=4)
    assert abs(eval_trig(t, TorusPoint.exact(2, (1,))) - 0.0) < 1e-12
    with pytest.raises(ValueError):
        eval_trig(t, TorusPoint.exact(3, (1,)))     # 3 does not divide 4
    with pytest.raises(ValueError):
        eval_trig(t, TorusPoint.from_floats([0.3]))


def test_transform_matches_pointwise_eval():
    t = TrigPolynomial.from_terms(
        2, {(0, 0): 1.0, (1, 2): 0.5, (2, 1): 0.5}, grid=3
    )
    vals = _transform(t, t.grid).real
    for idx in itertools.product(range(3), repeat=2):
        direct = eval_trig(t, TorusPoint.exact(3, idx))
        assert abs(vals[idx] - direct) < 1e-12


def test_check_point_set_complete_d3_family():
    points = family_to_points(prime_mubs(3))
    report = check_point_set(points, expand_h(3), eps=1e-6)
    assert report.cardinality == 9
    assert abs(report.s_spectral - 81) < 1e-6
    assert abs(report.s_spatial - 81) < 1e-6
    assert report.bound == 9
    assert abs(report.slack_lower) < 1e-6 and abs(report.slack_upper) < 1e-6


def test_check_point_set_singleton():
    report = check_point_set([zero_point(4)], expand_h(4), eps=1e-6)
    assert report.cardinality == 1
    assert report.slack_upper >= -1e-9  # 1 <= h(0)


def test_check_point_set_detects_forbidden_difference():
    # two points differing by a forbidden point: slack_upper goes negative
    p = zero_point(6)
    q = TorusPoint.exact(2, (0, 0, 0, 0, 1))      # difference is forbidden
    report = check_point_set([p, q], expand_h(6), eps=1e-6)
    assert report.max_offdiagonal > 1e-6
    assert report.slack_upper < -1e-6
    assert not report.hypothesis_ok


_POINT_SETS = {
    "d3": lambda: family_to_points(prime_mubs(3)),
    "d5": lambda: family_to_points(prime_mubs(5)),
    "d4": lambda: family_to_points(prime_power_mubs(2, 2)),
    "d8": lambda: family_to_points(prime_power_mubs(2, 3)),
    "forbidden": lambda: [zero_point(6), TorusPoint.exact(2, (0, 0, 0, 0, 1))],
}


@pytest.mark.parametrize("name", list(_POINT_SETS))
def test_check_point_set_matches_closed_form_at_every_difference(name):
    # the closed-form eval_h is an independent path from expand_h
    points = _POINT_SETS[name]()
    d = points[0].dim + 1
    report = check_point_set(points, expand_h(d), eps=1e-6)
    nb = len(points)
    values = np.array([[eval_h(d, difference(p, q)) for q in points] for p in points])
    assert abs(report.s_spatial - values.sum()) <= 1e-9 * nb * nb
    off = values[~np.eye(nb, dtype=bool)]
    assert abs(report.max_offdiagonal - off.max()) <= 1e-9
    assert report.cardinality == nb
    assert report.hypothesis_ok is (name != "forbidden")


def test_check_point_set_rejects_odd_witness():
    lopsided = TrigPolynomial.from_terms(1, {(0,): Fraction(1), (1,): Fraction(1)})
    with pytest.raises(ValueError):
        check_point_set([zero_point(2)], lopsided)


def test_delsarte_bound_examples():
    rows, _ = ort_ub_rows(3, 3)
    allowed = ort_ub_predicate(3)
    assert all(allowed(TorusPoint.exact(3, r)) for r in rows.tolist())
    report = delsarte_bound(expand_h(3), rows, grid=3)
    assert report.valid and report.bound == 9

    negative = TrigPolynomial.from_terms(
        1, {(0,): Fraction(2), (1,): Fraction(-1), (-1,): Fraction(-1)}
    )
    assert not delsarte_bound(negative).valid

    constant = TrigPolynomial.from_terms(2, {(0, 0): Fraction(1)})
    report = delsarte_bound(constant)
    assert report.valid and report.bound == 1


def test_delsarte_bound_rejects_bad_samples():
    # (0, 0, 0, 0, 1/2) is forbidden for d = 6, and h = 16/3 there
    forbidden = np.array([[0, 0, 0, 0, 1]])
    assert not ort_ub_predicate(6)(TorusPoint.exact(2, forbidden[0]))
    report = delsarte_bound(expand_h(6), forbidden, grid=2)
    assert not report.valid
    assert abs(report.max_sample_value - 16 / 3) <= 1e-12


@pytest.mark.parametrize("d", range(3, 9))
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_delsarte_bound_matches_scalar_eval_on_grid_samples(d, m):
    # random grid points (h is far from 0 on most) and the ORT/UB points
    h = expand_h(d)
    rng = np.random.default_rng(1000 * d + m)
    rows = np.vstack([rng.integers(0, m, size=(12, d - 1)), ort_ub_rows(d, m)[0][:12]])
    scalar = [eval_trig(h, TorusPoint.exact(m, r)) for r in rows.tolist()]
    assert abs(delsarte_bound(h, rows, grid=m).max_sample_value
               - max(scalar)) <= 1e-12
    for row, want in list(zip(rows, scalar))[:4]:
        report = delsarte_bound(h, row[None, :], grid=m)
        assert abs(report.max_sample_value - want) <= 1e-12


def test_delsarte_bound_rejects_unevaluable_samples(monkeypatch):
    h = expand_h(3)
    rows = np.array([[1, 2]])
    with pytest.raises(ValueError):           # a continuous witness names its grid
        delsarte_bound(h, rows)
    bad_rows = [
        rows.astype(float),                   # not integers
        np.array([[1, 2, 0]]),                # wrong width
        np.array([1, 2]),                     # not a matrix
        [TorusPoint.exact(4, (1, 2))],        # points, not residue rows
    ]
    for bad in bad_rows:
        with pytest.raises(ValueError):
            delsarte_bound(h, bad, grid=4)
    grid_mode = TrigPolynomial.from_terms(2, {(0, 0): 1.0}, grid=4)
    assert delsarte_bound(grid_mode, rows, grid=4).max_sample_value == 1.0
    for other in (2, 8):                      # only the witness's own grid
        with pytest.raises(ValueError):
            delsarte_bound(grid_mode, rows, grid=other)

    # a sample on the 5^11 grid is evaluated where it lies: no cube is built
    def refuse(*args):
        raise AssertionError("the sample cube was built")

    monkeypatch.setattr(witnessmod, "_transform", refuse)
    sample = np.ones((1, 11), dtype=np.int64)
    report = delsarte_bound(expand_h(12), sample, grid=5)
    point = TorusPoint.exact(5, sample[0])
    # h = 113.97 there; eval_trig's float angles leave it 3.6e-12 off the
    # exact value, the closed form eval_h 7e-14
    want = eval_trig(expand_h(12), point)
    assert abs(report.max_sample_value - want) <= 1e-12 * abs(want)
    assert abs(report.max_sample_value - eval_h(12, point)) <= 1e-12


def test_delsarte_bound_exact_for_all_d():
    for d in range(2, 13):
        report = delsarte_bound(expand_h(d))
        assert report.valid
        assert report.bound == d * d and isinstance(report.bound, Fraction)


def test_trig_json_roundtrip():
    h = expand_h(3)
    back = trig_from_json_obj(_json_roundtrip(trig_to_json_obj(h)))
    assert back.dim == h.dim and back.grid is None
    assert back.terms == h.terms

    t = TrigPolynomial.from_terms(1, {(0,): 1.0, (1,): 0.25}, grid=2)
    back = trig_from_json_obj(_json_roundtrip(trig_to_json_obj(t)))
    assert back.grid == 2
    assert back.terms[(1,)] == 0.25


def _json_roundtrip(obj):
    import json

    from mublp.serialize import render_json

    return json.loads(render_json(obj))


def test_even_flag_detection():
    even = TrigPolynomial.from_terms(1, {(1,): 1.0, (-1,): 1.0})
    assert even.even
    odd = TrigPolynomial.from_terms(1, {(1,): 1.0, (-1,): 2.0})
    assert not odd.even
    assert isinstance(eval_trig(odd, TorusPoint.from_floats([0.2])), complex)


def test_inversion_mismatch_raises():
    # declare a polynomial even, then corrupt a term to break the scan
    t = TrigPolynomial.from_terms(1, {(1,): 1.0, (-1,): 1.0})
    t.terms[(1,)] = 2.0
    t.even = True  # stale flag: evaluation must notice the imaginary leak
    with pytest.raises(InversionMismatchError):
        eval_trig(t, TorusPoint.from_floats([0.3]))
